//! `spec-aot`: one caller compiles the 18 SPEC-like modules (9 workloads x
//! 2 IR styles) one-shot to ELF objects with TPDE x64, TPDE a64 and the
//! LLVM-O0-like baseline, and runs the x64 results on the emulator.
//!
//! This is the paper's Fig. 5 setting: time goes to the adapter, analysis,
//! codegen and the object writer, none to the service.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use tpde_core::adapter::{FuncRef, IrAdapter};
use tpde_core::analysis::{Analysis, Analyzer};
use tpde_core::codebuf::CodeBuffer;
use tpde_core::codegen::{CompileOptions, CompileStats};
use tpde_core::jit::link_in_memory;
use tpde_core::obj::{write_elf_object, ElfMachine};
use tpde_core::rng::Xoshiro256;
use tpde_llvm::adapter::LlvmAdapter;
use tpde_llvm::ir::Module;
use tpde_llvm::workloads::{build_workload, expected_result, spec_workloads, IrStyle, Workload};
use tpde_llvm::{compile_a64, compile_baseline, compile_x64};

use crate::stats::{geomean, median, percentile, Tally};
use crate::trace::{SpanLog, Tracer};

/// `bench_main` runs at the workload's input divided by this, times a
/// seeded factor in [0.9, 1.1): large enough to loop, small enough that
/// emulating all 18 modules twice stays well under a second.
const INPUT_DIVISOR: u64 = 256;

/// Time of [`host_kernel`] on the reference host, in ns: a host defined as
/// one on which the kernel takes 100 us (80-130 us on the 2-vCPU 2.0 GHz
/// Xeon the benchmark was tuned on). On a shared host other tenants slow
/// the same compile by up to 1.7x, for stretches of one second to several
/// minutes, while arithmetic-only code slows by a tenth at most: the
/// contention is in caches and memory. The kernel is timed right after
/// every module's x64 compile, so it sees the contention the compiles
/// beside it see, and each x64 and a64 time of that module and pass is
/// scaled by this over the kernel's time, so the throughput figures read as
/// on the reference host (unit `insts/ref-s`). The unscaled figure is the
/// per-layer metric `aot.x64.measured_insts_per_s`.
pub const HOST_REF_NS: f64 = 1.0e5;

/// Percentile of a module's scaled times taken as its time in the
/// throughput figures. The compile slows a little more than the kernel
/// under contention; contention only adds time, so a low percentile keeps
/// the least contended passes, where that difference is smallest.
const FAST_PERCENTILE: f64 = 10.0;

/// A fixed allocation-, hash- and tree-heavy kernel independent of the
/// program under test, a probe of host speed.
fn host_kernel() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut tree = BTreeMap::new();
    for i in 0..600u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        buckets.entry(x % 75).or_default().push(i);
        tree.insert(x, i);
    }
    let sum = tree
        .iter()
        .fold(0u64, |s, (k, v)| s.wrapping_add(k ^ *v as u64));
    buckets
        .values()
        .fold(sum, |s, v| s.wrapping_add(v.len() as u64))
}

/// One SPEC-like module with the references computed during set-up.
pub struct AotModule {
    pub name: String,
    pub module: Arc<Module>,
    workload: Workload,
    insts: u64,
    text_bytes: u64,
    stats: CompileStats,
    x64_elf: Vec<u8>,
    a64_elf: Vec<u8>,
    o0_elf: Vec<u8>,
    expected: u64,
}

/// Builds the 18 modules, their seeded inputs and the one-shot reference
/// objects, in a seeded order.
pub fn setup(seed: u64) -> Vec<AotModule> {
    let mut rng = Xoshiro256::new(seed ^ 0x0a07_5eed);
    let opts = CompileOptions::default();
    let mut out = Vec::new();
    for w in spec_workloads() {
        for style in [IrStyle::O0, IrStyle::O1] {
            let module = build_workload(&w, style);
            let factor = 0.9 + 0.2 * (rng.below(1 << 20) as f64 / (1u64 << 20) as f64);
            let input = ((w.input / INPUT_DIVISOR) as f64 * factor).round() as u64;
            let workload = Workload { input, ..w.clone() };
            let x64 = compile_x64(&module, &opts).expect("reference x64 compile");
            let a64 = compile_a64(&module, &opts).expect("reference a64 compile");
            let o0 = compile_baseline(&module, 0).expect("reference O0 compile");
            out.push(AotModule {
                name: format!("{}/{style:?}", w.name),
                insts: x64.stats.insts as u64,
                text_bytes: x64.text_size(),
                stats: x64.stats.clone(),
                x64_elf: write_elf_object(&x64.buf, ElfMachine::X86_64).expect("x64 elf"),
                a64_elf: write_elf_object(&a64.buf, ElfMachine::Aarch64).expect("a64 elf"),
                o0_elf: write_elf_object(&o0.buf, ElfMachine::X86_64).expect("O0 elf"),
                expected: expected_result(&workload),
                workload,
                module: Arc::new(module),
            });
        }
    }
    // Fisher-Yates with the seeded generator: the compile order of a pass.
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i as u64 + 1) as usize);
    }
    out
}

impl AotModule {
    pub fn x64_elf_len(&self) -> usize {
        self.x64_elf.len()
    }
}

/// Per-module timings over all passes (seconds) and the emulated results.
pub struct AotOut {
    pub passes: usize,
    x64: Vec<Vec<f64>>,
    a64: Vec<Vec<f64>>,
    o0: Vec<Vec<f64>>,
    /// x64 buffers of the first and the latest pass, for the emulator.
    first: Vec<Option<CodeBuffer>>,
    last: Vec<Option<CodeBuffer>>,
    /// Host-kernel time after each module's x64 compile, in ns.
    host_ns: Vec<Vec<f64>>,
    cycles: Vec<f64>,
    insts: u64,
    text_bytes: u64,
    stats: CompileStats,
}

impl AotOut {
    /// Sum over modules of percentile `p` of each module's times.
    fn sum_of(v: &[Vec<f64>], p: f64) -> f64 {
        v.iter().map(|s| percentile(&mut s.clone(), p)).sum()
    }

    /// Sum over modules of the [`FAST_PERCENTILE`] of each module's times,
    /// each scaled to the reference host speed by the kernel time measured
    /// beside it.
    fn scaled_sum(&self, v: &[Vec<f64>]) -> f64 {
        let scaled: Vec<Vec<f64>> = v
            .iter()
            .zip(&self.host_ns)
            .map(|(s, hs)| s.iter().zip(hs).map(|(t, h)| t * HOST_REF_NS / h).collect())
            .collect();
        Self::sum_of(&scaled, FAST_PERCENTILE)
    }

    /// IR instructions per second from IR to x64 ELF bytes, at reference
    /// host speed.
    pub fn x64_insts_per_s(&self) -> f64 {
        self.insts as f64 / self.scaled_sum(&self.x64)
    }

    pub fn a64_insts_per_s(&self) -> f64 {
        self.insts as f64 / self.scaled_sum(&self.a64)
    }

    /// The x64 figure as measured, not scaled: over the sum of each
    /// module's median time.
    pub fn x64_insts_per_s_unscaled(&self) -> f64 {
        self.insts as f64 / Self::sum_of(&self.x64, 50.0)
    }

    /// Median host-kernel time, in ns.
    pub fn host_ns(&self) -> f64 {
        median(&mut self.host_ns.concat())
    }

    /// Geomean over modules of the median over passes of O0 time over TPDE
    /// x64 time in the same pass. The two compiles of a module run within a
    /// millisecond of each other, so host contention cancels in the ratio.
    pub fn speedup_vs_o0(&self) -> f64 {
        let r: Vec<f64> = self
            .x64
            .iter()
            .zip(&self.o0)
            .map(|(x, o)| median(&mut o.iter().zip(x).map(|(o, x)| o / x).collect::<Vec<_>>()))
            .collect();
        geomean(&r)
    }

    /// The x64 IR-to-ELF time of a pass at reference host speed, as the
    /// throughput figure takes it.
    pub fn x64_pass_s(&self) -> f64 {
        self.scaled_sum(&self.x64)
    }

    pub fn run_cycles(&self) -> f64 {
        geomean(&self.cycles)
    }

    pub fn code_bytes(&self) -> f64 {
        self.text_bytes as f64
    }

    pub fn insts(&self) -> u64 {
        self.insts
    }

    /// Spills, reloads and moves per 1000 IR instructions.
    pub fn per_kinst(&self) -> (f64, f64, f64) {
        let k = self.insts as f64 / 1000.0;
        (
            self.stats.spills as f64 / k,
            self.stats.reloads as f64 / k,
            self.stats.moves as f64 / k,
        )
    }
}

fn emulate(buf: &CodeBuffer, m: &AotModule, tally: &Tally) -> f64 {
    let run = link_in_memory(buf, 0x40_0000, |_| None)
        .map_err(|e| e.to_string())
        .and_then(|img| {
            tpde_x64emu::run_function(&img, "bench_main", &[m.workload.input])
                .map_err(|e| format!("{e:?}"))
        });
    match run {
        Ok((ret, stats)) => {
            tally.check(ret == m.expected, || {
                format!("{}: bench_main = {ret}, expected {}", m.name, m.expected)
            });
            stats.cycles as f64
        }
        Err(e) => {
            tally.check(false, || format!("{}: emulation failed: {e}", m.name));
            f64::NAN
        }
    }
}

fn same_counts(a: &CompileStats, b: &CompileStats) -> bool {
    (a.insts, a.spills, a.reloads, a.moves) == (b.insts, b.spills, b.reloads, b.moves)
}

impl AotOut {
    pub fn new(mods: &[AotModule]) -> AotOut {
        let n = mods.len();
        let mut stats = CompileStats::default();
        for m in mods {
            stats.merge(&m.stats);
        }
        AotOut {
            passes: 0,
            x64: vec![Vec::new(); n],
            a64: vec![Vec::new(); n],
            o0: vec![Vec::new(); n],
            first: vec![None; n],
            last: vec![None; n],
            host_ns: vec![Vec::new(); n],
            cycles: Vec::new(),
            insts: mods.iter().map(|m| m.insts).sum(),
            text_bytes: mods.iter().map(|m| m.text_bytes).sum(),
            stats,
        }
    }

    /// Runs whole passes over the modules until `budget_s` has elapsed (at
    /// least one), checking every object against its reference.
    pub fn run_slice(&mut self, mods: &[AotModule], budget_s: f64, tracer: &Tracer, tally: &Tally) {
        let opts = CompileOptions::default();
        let mut log = tracer.log(0);
        let n = mods.len();
        let start = Instant::now();
        loop {
            for (i, m) in mods.iter().enumerate() {
                let req = (self.passes * n + i) as u64;
                let t = Instant::now();
                let (c, elf) = log.span("aot.x64", req, |log| {
                    let c = log.span("codegen.x64", req, |_| compile_x64(&m.module, &opts));
                    let c = c.expect("x64 compile");
                    let elf = log.span("obj.elf", req, |_| {
                        write_elf_object(&c.buf, ElfMachine::X86_64)
                    });
                    (c, elf.expect("x64 elf"))
                });
                self.x64[i].push(t.elapsed().as_secs_f64());
                let t = Instant::now();
                std::hint::black_box(host_kernel());
                self.host_ns[i].push(t.elapsed().as_nanos() as f64);
                tally.check(elf == m.x64_elf && same_counts(&c.stats, &m.stats), || {
                    format!(
                        "{}: x64 object or counts differ from the one-shot reference",
                        m.name
                    )
                });
                if self.first[i].is_none() {
                    self.first[i] = Some(c.buf);
                } else {
                    self.last[i] = Some(c.buf);
                }

                let t = Instant::now();
                let elf = log.span("aot.a64", req, |log| {
                    let c = log.span("codegen.a64", req, |_| compile_a64(&m.module, &opts));
                    let c = c.expect("a64 compile");
                    log.span("obj.elf.a64", req, |_| {
                        write_elf_object(&c.buf, ElfMachine::Aarch64)
                    })
                });
                self.a64[i].push(t.elapsed().as_secs_f64());
                tally.check(elf.expect("a64 elf") == m.a64_elf, || {
                    format!("{}: a64 object differs from the one-shot reference", m.name)
                });

                let t = Instant::now();
                let elf = log.span("aot.o0", req, |log| {
                    let c = log.span("baselines.o0", req, |_| compile_baseline(&m.module, 0));
                    let c = c.expect("O0 compile");
                    log.span("obj.elf.o0", req, |_| {
                        write_elf_object(&c.buf, ElfMachine::X86_64)
                    })
                });
                self.o0[i].push(t.elapsed().as_secs_f64());
                tally.check(elf.expect("O0 elf") == m.o0_elf, || {
                    format!("{}: O0 object differs from the one-shot reference", m.name)
                });
                // After the timed compiles, so it does not warm the caches for them.
                if tracer.on() {
                    probe_prepare_and_analysis(&mut log, m, req);
                }
            }
            self.passes += 1;
            if start.elapsed().as_secs_f64() >= budget_s {
                return;
            }
        }
    }

    /// Runs the x64 results of the first and last pass on the emulator:
    /// their results must match the Rust reference and their cycle counts
    /// each other.
    pub fn finish(&mut self, mods: &[AotModule], tally: &Tally) {
        for (i, m) in mods.iter().enumerate() {
            let first = self.first[i].as_ref().expect("a first pass");
            let a = emulate(first, m, tally);
            let b = emulate(self.last[i].as_ref().unwrap_or(first), m, tally);
            tally.check(a == b, || {
                format!("{}: cycles {a} then {b}: not deterministic", m.name)
            });
            self.cycles.push(a);
        }
    }
}

/// Times the adapter's per-function indexing and the analysis pass on
/// their own, the way a one-shot compile runs them (fresh adapter and
/// analyzer per module). `compile_x64` does the same work internally, so
/// codegen's own time is its span minus these two.
fn probe_prepare_and_analysis(log: &mut SpanLog<'_>, m: &AotModule, req: u64) {
    let mut adapter = LlvmAdapter::new(&m.module);
    let mut analyzer = Analyzer::new();
    let mut analysis = Analysis::default();
    for f in 0..adapter.func_count() {
        let func = FuncRef(f as u32);
        if !adapter.func_is_definition(func) {
            continue;
        }
        log.span("adapter.prepare", req, |_| adapter.switch_func(func));
        log.span("analysis", req, |_| {
            analyzer.analyze_into(&adapter, &mut analysis)
        })
        .expect("analysis");
        adapter.finalize_func();
    }
}
