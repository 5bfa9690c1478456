//! End-to-end benchmark of the TPDE compiler and its compile service.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload spec-aot --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every run executes all three phases in one process — `spec-aot`,
//! `jit-stream`, `jit-repeat` — so it can print every metric; the named
//! workload gets twice its usual share of `--seconds`. `BENCHMARK.json`
//! names `spec-aot` and `jit-repeat` only: the stream's figures are too
//! unsteady on a shared host to gate, and are per-layer metrics;
//! `--workload jit-stream` gives them the larger share. With
//! `--trace 0` the last stdout line is the result object with the
//! end-to-end metrics; with `--trace 1` each phase runs twice (untraced,
//! then traced, each on half its budget), spans are written to
//! `.bench_out/trace-<workload>-<seed>.json`, and the result carries the
//! per-layer metrics and the tracing overhead. `METRICS.md` lists every
//! metric. All outputs are checked; a wrong output or a refused request
//! makes the exit code 1.

mod aot;
mod repeat;
mod stats;
mod stream;
mod trace;

use std::path::{Path, PathBuf};
use std::time::Instant;

use stats::{median, peak_rss_mb, percentile, Metrics, Tally};
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["spec-aot", "jit-stream", "jit-repeat"];
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;

struct Args {
    workload: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .position(|w| *w == value)
                        .ok_or_else(|| format!("unknown workload {value}; one of {WORKLOADS:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Everything one execution of the three phases needs, built before any
/// timing starts.
struct Setup {
    aot: Vec<aot::AotModule>,
    stream: stream::StreamSetup,
    repeat: repeat::RepeatSetup,
}

/// Relative share of the run per phase (`spec-aot`, `jit-stream`,
/// `jit-repeat`); the named workload's share is doubled. The stream's
/// figures are per-layer only (too unsteady on a shared host to gate), so
/// it gets the least: at 400 requests/s its open loop still collects over
/// a thousand latencies for the p99.
const PHASE_WEIGHTS: [f64; 3] = [1.0, 1.0, 1.5];

/// Seconds of measurement per phase.
fn budgets(args: &Args, scale: f64) -> [f64; 3] {
    let mut w = PHASE_WEIGHTS;
    w[args.workload] *= 2.0;
    let total: f64 = w.iter().sum();
    w.map(|x| args.seconds * scale * x / total)
}

fn fresh_dir(dir: PathBuf) -> PathBuf {
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a work directory");
    dir
}

fn setup(seed: u64, b: [f64; 3], work: &Path, tally: &Tally) -> Setup {
    let t = Instant::now();
    let aot = aot::setup(seed);
    let aot_s = t.elapsed().as_secs_f64();
    let stream = stream::setup(seed, b[1]);
    let stream_s = t.elapsed().as_secs_f64() - aot_s;
    let repeat = repeat::setup(
        seed,
        &aot,
        b[2],
        &fresh_dir(work.join("repeat-disk")),
        tally,
    );
    eprintln!(
        "e2ebench: set-up {:.3} s: spec-aot {aot_s:.3} s, jit-stream {stream_s:.3} s, jit-repeat {:.3} s (pre-warm {:.3} s); SPEC-like share of repeat draws {:.3}",
        t.elapsed().as_secs_f64(),
        t.elapsed().as_secs_f64() - aot_s - stream_s,
        repeat.prewarm_s,
        repeat.spec_share,
    );
    Setup {
        aot,
        stream,
        repeat,
    }
}

struct Outs {
    aot: aot::AotOut,
    stream: stream::StreamOut,
    repeat: repeat::RepeatOut,
}

/// Slices each phase is cut into. The phases take turns, one slice each,
/// so every phase samples the host over the whole run rather than one
/// stretch of it: on a shared host, speed and wakeup latency drift over
/// tens of seconds.
const SLICES: usize = 3;

fn run_phases(s: &Setup, b: [f64; 3], tracer: &Tracer, tally: &Tally) -> Outs {
    let mut o = Outs {
        aot: aot::AotOut::new(&s.aot),
        stream: stream::StreamOut::default(),
        repeat: repeat::RepeatOut::default(),
    };
    for k in 0..SLICES {
        o.aot.run_slice(&s.aot, b[0] / SLICES as f64, tracer, tally);
        o.stream.run_slice(&s.stream, k, SLICES, tracer, tally);
        o.repeat.run_slice(&s.repeat, SLICES, tracer, tally);
    }
    o.aot.finish(&s.aot, tally);
    o
}

fn end_to_end(m: &mut Metrics, o: &Outs, tally: &Tally, setup_s: f64) {
    m.put(
        "aot_insts_per_s.x64",
        o.aot.x64_insts_per_s(),
        "insts/ref-s",
    );
    m.put(
        "aot_insts_per_s.a64",
        o.aot.a64_insts_per_s(),
        "insts/ref-s",
    );
    m.put("speedup_vs_o0.x64", o.aot.speedup_vs_o0(), "ratio");
    m.put("run_cycles.x64", o.aot.run_cycles(), "cycles");
    m.put("code_bytes.x64", o.aot.code_bytes(), "bytes");
    m.put("hit_p50_us", o.repeat.hit_p50_us(), "us");
    m.put("hit_p99_us", o.repeat.hit_p99_us(), "us");
    m.put("repeat_mps", o.repeat.mps(), "1/s");
    let ok = tally.attempted() - tally.failed();
    m.put(
        "success_rate",
        ok as f64 / tally.attempted().max(1) as f64,
        "ratio",
    );
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    eprintln!(
        "e2ebench: x64 {:.0} insts/s as measured; host kernel {:.0} ns (reference {:.0} ns)",
        o.aot.x64_insts_per_s_unscaled(),
        o.aot.host_ns(),
        aot::HOST_REF_NS
    );
    m.put("setup_s", setup_s, "s");
}

fn pct(traced: f64, untraced: f64) -> f64 {
    100.0 * (traced - untraced) / untraced
}

fn per_layer(
    m: &mut Metrics,
    plain: &Outs,
    traced: &Outs,
    s: &Setup,
    tracer: &Tracer,
    work: &Path,
    tally: &Tally,
) {
    let sp = stream::probes(
        &s.stream,
        &fresh_dir(work.join("store-probe")),
        tracer,
        tally,
    );
    let rp = repeat::probes(&s.repeat, tracer, tally);

    // The x64 compile of every module in the traced passes, split by layer.
    let insts = (traced.aot.passes as u64 * traced.aot.insts()) as f64;
    let ns = |name: &str| tracer.agg(name).self_ns as f64;
    let (prepare, analysis) = (ns("adapter.prepare"), ns("analysis"));
    let codegen_x64 = ns("codegen.x64") - prepare - analysis;
    let codegen_a64 = ns("codegen.a64") - prepare - analysis;
    let obj = ns("obj.elf");
    let root = tracer.agg("aot.x64");
    let elf_bytes =
        traced.aot.passes as f64 * s.aot.iter().map(|a| a.x64_elf_len() as f64).sum::<f64>();
    let (spills, reloads, moves) = traced.aot.per_kinst();
    m.put("adapter.prepare_ns_per_inst", prepare / insts, "ns/inst");
    m.put("analysis.ns_per_inst", analysis / insts, "ns/inst");
    m.put("codegen.x64.ns_per_inst", codegen_x64 / insts, "ns/inst");
    m.put("codegen.a64.ns_per_inst", codegen_a64 / insts, "ns/inst");
    m.put("codegen.spills_per_kinst", spills, "1/kinst");
    m.put("codegen.reloads_per_kinst", reloads, "1/kinst");
    m.put("codegen.moves_per_kinst", moves, "1/kinst");
    m.put("obj.elf_ns_per_byte", obj / elf_bytes, "ns/byte");
    m.put(
        "baselines.o0_ns_per_inst",
        ns("baselines.o0") / insts,
        "ns/inst",
    );
    m.put(
        "aot.x64.measured_insts_per_s",
        plain.aot.x64_insts_per_s_unscaled(),
        "insts/s",
    );
    m.put("aot.host_kernel_ns", plain.aot.host_ns(), "ns");
    m.put(
        "aot.x64.residual_pct",
        100.0 * root.self_ns as f64 / root.total_ns as f64,
        "%",
    );
    m.put("verify.ns_per_inst", sp.verify_ns_per_inst, "ns/inst");
    m.put("ir.content_hash_us", rp.content_hash_us, "us");
    m.put("service.response_clone_us", rp.response_clone_us, "us");
    let st = &traced.stream;
    m.put(
        "service.submit_us_p50",
        median(&mut st.submit_us.clone()),
        "us",
    );
    m.put(
        "service.queue_wait_us_p50",
        median(&mut st.queue_wait_us.clone()),
        "us",
    );
    m.put(
        "service.queue_wait_us_p99",
        percentile(&mut st.queue_wait_us.clone(), 99.0),
        "us",
    );
    m.put("service.sharded", st.stats.sharded as f64, "count");
    m.put("service.preemptions", st.stats.preemptions as f64, "count");
    m.put("service.coalesced", st.stats.coalesced as f64, "count");
    m.put(
        "service.ring_fallbacks",
        st.stats.ring_fallbacks as f64,
        "count",
    );
    m.put(
        "service.max_queue_depth",
        st.stats.max_queue_depth as f64,
        "count",
    );
    m.put("service.hit_ratio", traced.repeat.hit_ratio, "ratio");
    m.put(
        "service.disk_hit_ratio",
        traced.repeat.disk_hit_ratio(),
        "ratio",
    );
    m.put("parallel.x64_2t_speedup", sp.x64_2t_speedup, "ratio");
    m.put("diskcache.store_us_p50", sp.store_us_p50, "us");
    m.put("diskcache.load_us_p50", rp.load_us_p50, "us");
    m.put(
        "diskcache.bytes_per_artifact",
        rp.bytes_per_artifact,
        "bytes",
    );
    m.put("stream.p50_us", plain.stream.p50_us(), "us");
    m.put("stream.p99_us", plain.stream.p99_us(), "us");
    m.put("stream.mps", plain.stream.mps(), "1/s");
    m.put("repeat.restart_p50_us", plain.repeat.restart_p50_us(), "us");
    m.put(
        "stream.gen_lag_ms",
        percentile(&mut st.gen_lag_ms.clone(), 99.0),
        "ms",
    );
    m.put(
        "trace.overhead.aot_x64_pct",
        pct(traced.aot.x64_pass_s(), plain.aot.x64_pass_s()),
        "%",
    );
    m.put(
        "trace.overhead.stream_p50_pct",
        pct(traced.stream.p50_us(), plain.stream.p50_us()),
        "%",
    );
    m.put(
        "trace.overhead.hit_p50_pct",
        pct(traced.repeat.hit_p50_us(), plain.repeat.hit_p50_us()),
        "%",
    );
    m.put("trace.spans", tracer.span_count() as f64, "count");
}

/// Per-layer self times of the traced run, for the reader (stderr).
fn print_self_times(tracer: &Tracer) {
    eprintln!(
        "{:<28} {:>10} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, a) in tracer.aggs() {
        eprintln!(
            "{name:<28} {:>10} {:>12.3} {:>12.3}",
            a.count,
            a.total_ns as f64 / 1e6,
            a.self_ns as f64 / 1e6
        );
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    let work = fresh_dir(out_dir.join(format!("work-{}", std::process::id())));
    let tally = Tally::default();
    let mut metrics = Metrics::default();

    if !args.trace {
        let b = budgets(&args, 1.0);
        let mut times = Vec::new();
        let mut s = None;
        for i in 0..SETUPS {
            drop(s.take());
            let t = Instant::now();
            s = Some(setup(
                args.seed,
                b,
                &work.join(format!("setup-{i}")),
                &tally,
            ));
            times.push(t.elapsed().as_secs_f64());
        }
        let s = s.expect("at least one set-up");
        let outs = run_phases(&s, b, &Tracer::new(false), &tally);
        end_to_end(&mut metrics, &outs, &tally, median(&mut times));
    } else {
        let b = budgets(&args, 0.5);
        let plain_setup = setup(args.seed, b, &work.join("untraced"), &tally);
        let plain = run_phases(&plain_setup, b, &Tracer::new(false), &tally);
        drop(plain_setup);
        let traced_setup = setup(args.seed, b, &work.join("traced"), &tally);
        let tracer = Tracer::new(true);
        let traced = run_phases(&traced_setup, b, &tracer, &tally);
        per_layer(
            &mut metrics,
            &plain,
            &traced,
            &traced_setup,
            &tracer,
            &work,
            &tally,
        );
        let path = out_dir.join(format!(
            "trace-{}-{}.json",
            WORKLOADS[args.workload], args.seed
        ));
        tracer.write_chrome(&path).expect("write the span file");
        eprintln!("e2ebench: spans written to {}", path.display());
        print_self_times(&tracer);
    }
    let _ = std::fs::remove_dir_all(&work);

    for (name, v, unit) in metrics.iter() {
        eprintln!("{name:<32} {v:>16.4} {unit}");
    }
    // A wrong output and a refused request (shed, rejected, deadline,
    // panic) both fail the run: the workloads are sized so that none fails.
    let correct = tally.failed() == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted(),
        tally.failed(),
        metrics.to_json()
    );
    if !correct {
        std::process::exit(1);
    }
}
