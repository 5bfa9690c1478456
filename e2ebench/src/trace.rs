//! Span recorder of the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each layer
//! (nothing inside the program is instrumented). Every span has a name, a
//! start and end, the span that encloses it on the same thread, and the id
//! of the request it belongs to. Each thread records into its own
//! [`SpanLog`]; closing a span subtracts the time of its children, so the
//! per-layer totals and self times are exact even when the kept span list
//! is capped. Logs merge into the [`Tracer`] when they drop, and the spans
//! are written out once, at the end of the run, as Chrome trace-event JSON
//! (viewable in Perfetto).
//!
//! With tracing off, [`SpanLog::span`] only calls its closure: no clock
//! reads, no allocation.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans kept per thread for the trace file; later spans still count in
/// the totals.
const KEEP_PER_LOG: usize = 50_000;

/// Totals of all spans with one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Span {
    name: &'static str,
    id: u64,
    parent: u64,
    req: u64,
    tid: u32,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Default)]
struct Merged {
    spans: Vec<Span>,
    dropped: u64,
    agg: BTreeMap<&'static str, Agg>,
}

/// The run-wide recorder; see the module docs.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    merged: Mutex<Merged>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            merged: Mutex::new(Merged::default()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A log for one thread; `tid` labels its track in the trace file.
    pub fn log(&self, tid: u32) -> SpanLog<'_> {
        SpanLog {
            t: self,
            tid,
            stack: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
            agg: BTreeMap::new(),
        }
    }

    fn merged(&self) -> std::sync::MutexGuard<'_, Merged> {
        self.merged
            .lock()
            .expect("a span log panicked while merging")
    }

    /// Totals of the spans named `name` (of logs already dropped).
    pub fn agg(&self, name: &str) -> Agg {
        self.merged().agg.get(name).copied().unwrap_or_default()
    }

    /// All per-name totals, by name.
    pub fn aggs(&self) -> Vec<(&'static str, Agg)> {
        self.merged().agg.iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// Number of spans recorded (kept or not).
    pub fn span_count(&self) -> u64 {
        self.merged().agg.values().map(|a| a.count).sum()
    }

    /// Writes the kept spans as Chrome trace-event JSON.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let m = self.merged();
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        write!(
            w,
            "{{\"displayTimeUnit\": \"ns\", \"droppedSpans\": {}, \"traceEvents\": [",
            m.dropped
        )?;
        for (i, s) in m.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            write!(
                w,
                "{sep}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"req\": {}}}}}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                s.req
            )?;
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}

struct Frame {
    id: u64,
    start: Instant,
    child_ns: u64,
}

/// One thread's span buffer; see the module docs.
pub struct SpanLog<'t> {
    t: &'t Tracer,
    tid: u32,
    stack: Vec<Frame>,
    spans: Vec<Span>,
    dropped: u64,
    agg: BTreeMap<&'static str, Agg>,
}

impl SpanLog<'_> {
    /// Runs `f` inside a span named `name` of request `req`; spans opened
    /// inside `f` (on this log) become its children.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.t.on {
            return f(self);
        }
        let id = self.t.next_id.fetch_add(1, Ordering::Relaxed);
        self.stack.push(Frame {
            id,
            start: Instant::now(),
            child_ns: 0,
        });
        let r = f(self);
        let end = Instant::now();
        let frame = self.stack.pop().expect("span stack underflow");
        let dur = (end - frame.start).as_nanos() as u64;
        self.close(
            name,
            id,
            req,
            frame.start,
            end,
            dur.saturating_sub(frame.child_ns),
        );
        r
    }

    /// Records a span timed elsewhere (from a
    /// [`tpde_core::timing::RequestTiming`] returned by the service), as a
    /// root span without children.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !self.t.on {
            return;
        }
        let id = self.t.next_id.fetch_add(1, Ordering::Relaxed);
        let dur = end.saturating_duration_since(start).as_nanos() as u64;
        self.keep(name, id, 0, req, start, end);
        let a = self.agg.entry(name).or_default();
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur;
    }

    fn close(
        &mut self,
        name: &'static str,
        id: u64,
        req: u64,
        start: Instant,
        end: Instant,
        self_ns: u64,
    ) {
        let dur = (end - start).as_nanos() as u64;
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        self.keep(name, id, parent, req, start, end);
        let a = self.agg.entry(name).or_default();
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += self_ns;
    }

    fn keep(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.spans.len() >= KEEP_PER_LOG {
            self.dropped += 1;
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.t.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent,
            req,
            tid: self.tid,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
        });
    }
}

impl Drop for SpanLog<'_> {
    fn drop(&mut self) {
        if !self.t.on {
            return;
        }
        // Never panic in drop: a poisoned merge lock loses this log only.
        let Ok(mut m) = self.t.merged.lock() else {
            return;
        };
        m.spans.append(&mut self.spans);
        m.dropped += self.dropped;
        for (name, a) in std::mem::take(&mut self.agg) {
            let e = m.agg.entry(name).or_default();
            e.count += a.count;
            e.total_ns += a.total_ns;
            e.self_ns += a.self_ns;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_excludes_children() {
        let tracer = Tracer::new(true);
        {
            let mut log = tracer.log(0);
            log.span("outer", 1, |log| {
                spin(200_000);
                log.span("inner", 1, |_| spin(300_000));
            });
        }
        let (outer, inner) = (tracer.agg("outer"), tracer.agg("inner"));
        assert_eq!((outer.count, inner.count), (1, 1));
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(outer.self_ns >= 200_000 && inner.total_ns >= 300_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        {
            let mut log = tracer.log(0);
            assert_eq!(log.span("x", 0, |_| 7), 7);
            log.record("y", 0, Instant::now(), Instant::now());
        }
        assert_eq!(tracer.span_count(), 0);
    }
}
