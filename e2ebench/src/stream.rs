//! `jit-stream`: unique modules arrive on a fixed schedule (open loop) at
//! one compile service with the memory cache on, then two closed-loop
//! clients measure saturation throughput on cold compiles.
//!
//! This is the paper's JIT start-up case: many small functions arriving
//! independently. Time goes to admission (verify, key hashing), queueing,
//! wakeups, sharding and codegen on the workers.
//!
//! The disk tier is off here: its stores run before the response on the
//! worker and are dominated by `fsync` and directory scans, whose latency
//! on a shared file system swings about 2x between runs, which would bury
//! every service-side change. The disk tier's costs are measured by the
//! `jit-repeat` restarts and the `diskcache.*` probes instead.

use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use tpde_core::codebuf::CodeBuffer;
use tpde_core::codegen::CompileOptions;
use tpde_core::diskcache::{DiskCache, DiskCacheConfig};
use tpde_core::rng::Xoshiro256;
use tpde_core::service::{Priority, Request, ServiceBackend, ServiceConfig, Ticket};
use tpde_core::verify::Verifier;
use tpde_llvm::adapter::LlvmAdapter;
use tpde_llvm::backend::LlvmServiceBackend;
use tpde_llvm::fuzz::{buffers_equal, gen_module};
use tpde_llvm::ir::Module;
use tpde_llvm::workloads::{build_workload, spec_workloads, IrStyle, Workload};
use tpde_llvm::{compile_service, compile_x64, compile_x64_parallel, LlvmCompileService};
use tpde_llvm::{ModuleRequest, ServiceBackendKind};

use crate::stats::{median, percentile, us, Tally};
use crate::trace::Tracer;

/// Offered rate of the open loop, in new modules per second: about 2.7% of
/// the closed-loop saturation rate (`stream_mps`, 14 000-17 500/s on a
/// 2-vCPU host), so queueing stays rare, yet high enough for a p99 over
/// thousands of requests.
const OFFERED_RATE: f64 = 400.0;
/// Share of the phase given to the open loop; the closed loop gets the rest.
const OPEN_SHARE: f64 = 0.65;
/// Per mille of requests that are enlarged SPEC-like modules (64 to 95
/// functions, so the service shards them), sent as Bulk.
const BULK_PER_MILLE: u64 = 20;
/// Per mille of open-loop requests that re-send the previous module right
/// after it, to exercise coalescing (one that finished first is a
/// memory-cache hit instead).
const RESEND_PER_MILLE: u64 = 30;
/// Distinct modules the closed-loop clients cycle through. Their service
/// has the memory cache off, so every request is a cold compile.
const CLOSED_POOL: usize = 2000;

/// One request of the stream with its one-shot reference.
#[derive(Clone)]
struct Req {
    module: Arc<Module>,
    reference: Arc<CodeBuffer>,
    insts: u64,
    bulk: bool,
    /// Sent right after the previous request, with the same module.
    resend: bool,
}

/// The seeded request mix and the services it runs against.
pub struct StreamSetup {
    open: Vec<Req>,
    closed: Vec<Req>,
    svc: LlvmCompileService,
    cold_svc: LlvmCompileService,
    closed_s: f64,
}

struct Gen {
    rng: Xoshiro256,
    /// Enlarged SPEC-like shapes not yet used: (workload, style, funcs).
    big_shapes: Vec<(Workload, IrStyle, u32)>,
}

impl Gen {
    fn fresh(&mut self) -> Req {
        let bulk = self.rng.below(1000) < BULK_PER_MILLE && !self.big_shapes.is_empty();
        let module = if bulk {
            let i = self.rng.below(self.big_shapes.len() as u64) as usize;
            let (w, style, funcs) = self.big_shapes.swap_remove(i);
            build_workload(&Workload { funcs, ..w }, style)
        } else {
            gen_module(self.rng.next_u64())
        };
        let c = compile_x64(&module, &CompileOptions::default()).expect("reference compile");
        Req {
            bulk,
            resend: false,
            module: Arc::new(module),
            insts: c.stats.insts as u64,
            reference: Arc::new(c.buf),
        }
    }
}

/// Generates the open-loop schedule and the closed-loop pool, computes
/// every one-shot reference and spawns the two 2-worker services (memory
/// cache on for the open loop, off for the closed loop).
pub fn setup(seed: u64, budget_s: f64) -> StreamSetup {
    let mut big_shapes = Vec::new();
    for w in spec_workloads() {
        for style in [IrStyle::O0, IrStyle::O1] {
            for funcs in 64..96 {
                big_shapes.push((w.clone(), style, funcs));
            }
        }
    }
    let mut g = Gen {
        rng: Xoshiro256::new(seed ^ 0x0005_7eea),
        big_shapes,
    };
    let open_s = budget_s * OPEN_SHARE;
    let n_open = (open_s * OFFERED_RATE).ceil() as usize;
    let mut open: Vec<Req> = Vec::with_capacity(n_open);
    for _ in 0..n_open {
        let resend = !open.is_empty() && g.rng.below(1000) < RESEND_PER_MILLE;
        let r = if resend {
            Req {
                resend: true,
                ..open[open.len() - 1].clone()
            }
        } else {
            g.fresh()
        };
        open.push(r);
    }
    let closed = (0..CLOSED_POOL).map(|_| g.fresh()).collect();
    let service = |cache_capacity| {
        compile_service(ServiceConfig {
            workers: 2,
            cache_capacity,
            ..ServiceConfig::default()
        })
    };
    StreamSetup {
        open,
        closed,
        svc: service(ServiceConfig::default().cache_capacity),
        cold_svc: service(0),
        closed_s: budget_s - open_s,
    }
}

fn request(r: &Req) -> Request<LlvmServiceBackend> {
    let priority = if r.bulk {
        Priority::Bulk
    } else {
        Priority::Interactive
    };
    Request::new(ModuleRequest::new(
        Arc::clone(&r.module),
        ServiceBackendKind::TpdeX64,
    ))
    .priority(priority)
}

/// End-to-end and service-level results of the stream phase, accumulated
/// over its slices.
#[derive(Default)]
pub struct StreamOut {
    /// Interactive latencies from the scheduled send until the waiting
    /// client holds the response, in µs.
    pub interactive_us: Vec<f64>,
    pub gen_lag_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub queue_wait_us: Vec<f64>,
    /// Open-loop service's statistics after the latest slice.
    pub stats: tpde_core::timing::ServiceStats,
    closed_done: usize,
    closed_s: f64,
    closed_next: usize,
}

struct Pending {
    i: usize,
    due: Instant,
    sent: Instant,
    ticket: Ticket,
}

impl StreamOut {
    /// Runs slice `k` of `n`: the `k`-th of `n` equal parts of the open-loop
    /// schedule, then the closed loop for `1/n` of its budget.
    pub fn run_slice(
        &mut self,
        s: &StreamSetup,
        k: usize,
        n: usize,
        tracer: &Tracer,
        tally: &Tally,
    ) {
        let len = s.open.len();
        self.open_loop(s, k * len / n..(k + 1) * len / n, tracer, tally);
        self.stats = s.svc.stats();
        self.closed_loop(s, s.closed_s / n as f64, tracer, tally);
    }

    fn open_loop(&mut self, s: &StreamSetup, range: Range<usize>, tracer: &Tracer, tally: &Tally) {
        let svc = &s.svc;
        let period = Duration::from_secs_f64(1.0 / OFFERED_RATE);
        let open = &s.open;
        // Interactive and Bulk tickets are waited for on separate threads, in
        // submission order, so a long sharded compile never delays the moment
        // an Interactive response is seen.
        let collect = |rx: mpsc::Receiver<Pending>, tid: u32| {
            let mut log = tracer.log(tid);
            let mut lat = Vec::new();
            let mut queued = Vec::new();
            for p in rx {
                let req = p.i as u64;
                let resp = log.span("stream.wait", req, |_| p.ticket.wait());
                let seen = Instant::now();
                let t = &resp.timing;
                log.record("service.queue", req, p.sent, p.sent + t.queued);
                log.record("service.run", req, p.sent + t.queued, p.sent + t.total);
                let r = &open[p.i];
                match &resp.module {
                    Ok(m) => {
                        tally.check(buffers_equal(&m.buf, &r.reference), || {
                            format!(
                                "stream request {}: bytes differ from the one-shot compile",
                                p.i
                            )
                        });
                        if !r.bulk {
                            lat.push(us(seen - p.due));
                        }
                        if !(t.cache_hit || t.disk_hit || t.coalesced) {
                            queued.push(us(t.queued));
                        }
                    }
                    Err(e) => tally.refused(|| format!("stream request {}: {e}", p.i)),
                }
            }
            (lat, queued)
        };
        let (tx_int, rx_int) = mpsc::channel::<Pending>();
        let (tx_bulk, rx_bulk) = mpsc::channel::<Pending>();
        std::thread::scope(|scope| {
            let interactive = scope.spawn(|| collect(rx_int, 2));
            let bulk = scope.spawn(|| collect(rx_bulk, 3));
            let mut log = tracer.log(1);
            let start = Instant::now() + Duration::from_millis(2);
            let mut slot = 0;
            for i in range {
                let r = &open[i];
                if !r.resend {
                    slot += 1;
                }
                let due = start + period * slot;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let ticket = log.span("stream.submit", i as u64, |_| svc.submit(request(r)));
                self.submit_us.push(us(sent.elapsed()));
                self.gen_lag_ms.push((sent - due).as_secs_f64() * 1e3);
                let tx = if r.bulk { &tx_bulk } else { &tx_int };
                tx.send(Pending {
                    i,
                    due,
                    sent,
                    ticket,
                })
                .expect("collector alive");
            }
            drop((tx_int, tx_bulk));
            drop(log);
            let (lat, queued) = interactive.join().expect("collector panicked");
            self.interactive_us.extend(lat);
            self.queue_wait_us.extend(queued);
            let (_, queued) = bulk.join().expect("collector panicked");
            self.queue_wait_us.extend(queued);
        });
    }

    fn closed_loop(&mut self, s: &StreamSetup, budget_s: f64, tracer: &Tracer, tally: &Tally) {
        let svc = &s.cold_svc;
        let next = AtomicUsize::new(self.closed_next);
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(budget_s);
        let closed = &s.closed;
        let done: usize = std::thread::scope(|scope| {
            let client = |c: u32| {
                let next = &next;
                scope.spawn(move || {
                    let mut log = tracer.log(10 + c);
                    let mut done = 0;
                    // Each client finishes at least one request, however short the budget.
                    while done == 0 || Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let r = &closed[i % closed.len()];
                        let resp = log.span("stream.closed_request", i as u64, |_| {
                            svc.compile(request(r))
                        });
                        match &resp.module {
                            Ok(m) => tally.check(buffers_equal(&m.buf, &r.reference), || {
                                format!(
                                    "closed-loop request {i}: bytes differ from the one-shot compile"
                                )
                            }),
                            Err(e) => tally.refused(|| format!("closed-loop request {i}: {e}")),
                        }
                        done += 1;
                    }
                    done
                })
            };
            let (a, b) = (client(0), client(1));
            a.join().expect("client panicked") + b.join().expect("client panicked")
        });
        self.closed_s += start.elapsed().as_secs_f64();
        self.closed_done += done;
        self.closed_next = next.into_inner();
    }

    /// Closed-loop cold compiles per second over all slices.
    pub fn mps(&self) -> f64 {
        self.closed_done as f64 / self.closed_s
    }

    pub fn p50_us(&self) -> f64 {
        median(&mut self.interactive_us.clone())
    }

    pub fn p99_us(&self) -> f64 {
        percentile(&mut self.interactive_us.clone(), 99.0)
    }
}

/// Per-layer costs measured by calling each layer directly on the
/// stream's own modules: admission verify, artifact store, and the
/// two-thread sharded compile of the enlarged modules.
pub struct StreamProbes {
    pub verify_ns_per_inst: f64,
    pub store_us_p50: f64,
    pub x64_2t_speedup: f64,
}

/// Runs the probes (traced run only). `dir` is a fresh directory for the
/// store probe.
pub fn probes(s: &StreamSetup, dir: &Path, tracer: &Tracer, tally: &Tally) -> StreamProbes {
    let mut log = tracer.log(20);
    let small: Vec<&Req> = s
        .open
        .iter()
        .chain(&s.closed)
        .filter(|r| !r.bulk)
        .take(1000)
        .collect();
    let (mut ns, mut insts) = (0.0, 0u64);
    for (i, r) in small.iter().enumerate() {
        let t = Instant::now();
        let res = log.span("verify", i as u64, |_| {
            Verifier::new().verify_module(&mut LlvmAdapter::new(&r.module))
        });
        ns += t.elapsed().as_nanos() as f64;
        insts += r.insts;
        tally.check(res.is_ok(), || format!("verify probe {i}: {res:?}"));
    }
    let verify_ns_per_inst = ns / insts as f64;

    let disk = DiskCache::open(DiskCacheConfig::new(dir)).expect("probe disk cache");
    let mut store_us = Vec::new();
    for (i, r) in s.closed.iter().filter(|r| !r.bulk).take(200).enumerate() {
        let c = compile_x64(&r.module, &CompileOptions::default()).expect("probe compile");
        let key = LlvmServiceBackend
            .request_key(&ModuleRequest::new(
                Arc::clone(&r.module),
                ServiceBackendKind::TpdeX64,
            ))
            .expect("x64 requests are cacheable");
        let t = Instant::now();
        let res = log.span("diskcache.store", i as u64, |_| disk.store(key, &c));
        store_us.push(us(t.elapsed()));
        tally.check(res.is_ok(), || format!("store probe {i}: {res:?}"));
    }

    let (mut seq, mut par) = (0.0, 0.0);
    let big: Vec<&Req> = s
        .open
        .iter()
        .chain(&s.closed)
        .filter(|r| r.bulk)
        .take(6)
        .collect();
    for (i, r) in big.iter().enumerate() {
        let opts = CompileOptions::default();
        let (mut best_seq, mut best_par) = (f64::MAX, f64::MAX);
        for _ in 0..3 {
            let t = Instant::now();
            let a = log.span("parallel.x64_1t", i as u64, |_| {
                compile_x64(&r.module, &opts)
            });
            best_seq = best_seq.min(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let b = log.span("parallel.x64_2t", i as u64, |_| {
                compile_x64_parallel(&r.module, &opts, 2)
            });
            best_par = best_par.min(t.elapsed().as_secs_f64());
            let same = matches!((&a, &b), (Ok(a), Ok(b)) if buffers_equal(&a.buf, &b.buf));
            tally.check(same, || {
                format!("parallel probe {i}: 2-thread output differs")
            });
        }
        seq += best_seq;
        par += best_par;
    }
    StreamProbes {
        verify_ns_per_inst,
        store_us_p50: median(&mut store_us),
        x64_2t_speedup: seq / par,
    }
}
