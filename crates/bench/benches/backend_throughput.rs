//! Back-end-only compile throughput (instructions per second) on the
//! largest SPEC-like workload, for both IR styles.
//!
//! The `figures` binary compares against the baselines, but a slowdown
//! common to all back-ends only shows up in absolute throughput. Alongside
//! the criterion timings, the bench prints insts/sec for a session-reusing
//! compile loop so the number can be tracked across PRs. A reintroduced
//! per-function or per-instruction allocation is caught by the counting
//! allocator in `crates/llvm/tests/alloc_free.rs`, not here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Instant;
use tpde_core::codegen::{CompileOptions, CompileSession};
use tpde_enc::X64Target;
use tpde_llvm::backend::compile_with_session;
use tpde_llvm::compile_x64;
use tpde_llvm::workloads::{build_workload, spec_workloads, IrStyle, Workload};

/// The workload with the most instructions (at O0) — module size scales
/// with `funcs`, so this is the biggest compile job of the figure set.
fn largest_workload() -> Workload {
    spec_workloads()
        .into_iter()
        .max_by_key(|w| build_workload(w, IrStyle::O0).inst_count())
        .expect("spec workloads are non-empty")
}

fn bench_backend_throughput(c: &mut Criterion) {
    let w = largest_workload();
    let mut group = c.benchmark_group("backend_throughput");
    group.sample_size(20);
    for style in [IrStyle::O0, IrStyle::O1] {
        let module = build_workload(&w, style);
        let insts = module.inst_count();
        let style_name = match style {
            IrStyle::O0 => "o0_ir",
            IrStyle::O1 => "o1_ir",
        };
        group.bench_with_input(BenchmarkId::new(style_name, w.name), &module, |b, m| {
            b.iter(|| compile_x64(m, &CompileOptions::default()).unwrap())
        });

        // Reported number: steady-state insts/sec with a reused session
        // (the figure the acceptance criterion tracks).
        let opts = CompileOptions::default();
        let mut session = CompileSession::new();
        // warm the session buffers
        compile_with_session(&module, X64Target::new(), &opts, &mut session).unwrap();
        let reps = 20u32;
        let start = Instant::now();
        for _ in 0..reps {
            compile_with_session(&module, X64Target::new(), &opts, &mut session).unwrap();
        }
        let per_compile = start.elapsed() / reps;
        let insts_per_sec = insts as f64 / per_compile.as_secs_f64();
        println!(
            "backend_throughput/{style_name}/{}  {} insts in {:?}  => {:.2} M insts/sec",
            w.name,
            insts,
            per_compile,
            insts_per_sec / 1e6
        );
    }
    group.finish();
}

criterion_group!(benches, bench_backend_throughput);
criterion_main!(benches);
