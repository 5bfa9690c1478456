//! The TPDE compile loop is allocation-free per function and per
//! instruction once its working memory is warm.
//!
//! A counting global allocator tallies the heap allocations of the calling
//! thread. The test warms a `CompileSession` and an `AdapterScratch` on all
//! 18 SPEC-like modules, the way a compile-service worker keeps them across
//! requests, and then compiles every module again on both targets. What a
//! warm module compile may still allocate is the module's own output: the
//! fresh `CodeBuffer` (sections, symbols, names, relocations, each growing
//! geometrically) and the symbol list. That is a per-module constant plus a
//! logarithm of the output size, so the count must stay under a fixed bound
//! for every module, however many functions and instructions it has.
//!
//! A fresh one-shot `LlvmAdapter` reserves its tables on the first function
//! it indexes: module-level queries allocate nothing, and indexing the
//! remaining functions allocates nothing either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tpde_core::adapter::{FuncRef, IrAdapter};
use tpde_core::codegen::{CodeGen, CompileOptions, CompileSession};
use tpde_core::target::Target;
use tpde_enc::{A64Target, X64Target};
use tpde_llvm::adapter::{AdapterScratch, LlvmAdapter};
use tpde_llvm::backend::LlvmInstCompiler;
use tpde_llvm::ir::Module;
use tpde_llvm::workloads::{build_workload, spec_workloads, IrStyle};
use tpde_snippets::SnippetEmitter;

struct CountingAlloc;

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` keeps the allocator usable while the thread-local is being
    // torn down at thread exit.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Upper bound on the allocations of one warm module compile: the output
/// `CodeBuffer`'s geometric growth and the symbol list, 23 to 30 for these
/// modules. The modules have 171 to 1013 IR instructions, so one allocation
/// per instruction exceeds the bound on every module, and one per function
/// on the modules with 18 or more functions.
const MAX_ALLOCS_PER_MODULE: u64 = 40;

/// The service worker's warm state: one session, one adapter scratch and
/// one instruction compiler, kept across modules.
struct Worker {
    session: CompileSession,
    scratch: AdapterScratch,
    compiler: LlvmInstCompiler,
}

impl Worker {
    /// Compiles `module` with the warm state and returns the number of IR
    /// instructions compiled and the allocations made doing it.
    fn compile<T: Target + SnippetEmitter>(
        &mut self,
        cg: &CodeGen<T>,
        module: &Module,
    ) -> (usize, u64) {
        let before = allocs();
        let mut adapter = LlvmAdapter::with_scratch(module, std::mem::take(&mut self.scratch));
        let out = cg
            .compile_module_with(&mut self.session, &mut adapter, &mut self.compiler)
            .expect("compile");
        self.scratch = adapter.into_scratch();
        let insts = out.stats.insts;
        drop(out);
        (insts, allocs() - before)
    }
}

#[test]
fn warm_compile_allocations_do_not_grow_with_module_size() {
    let modules: Vec<(String, Module)> = spec_workloads()
        .iter()
        .flat_map(|w| {
            [IrStyle::O0, IrStyle::O1]
                .map(|style| (format!("{}/{style:?}", w.name), build_workload(w, style)))
        })
        .collect();
    let x64 = CodeGen::new(X64Target::new(), CompileOptions::default());
    let a64 = CodeGen::new(A64Target::new(), CompileOptions::default());
    let mut worker = Worker {
        session: CompileSession::new(),
        scratch: AdapterScratch::default(),
        compiler: LlvmInstCompiler::default(),
    };
    // Warm-up: every buffer grows to the largest function of either target.
    for (_, m) in &modules {
        worker.compile(&x64, m);
        worker.compile(&a64, m);
    }

    let mut total_insts = 0;
    let mut total_allocs = 0;
    let mut over = Vec::new();
    for (name, m) in &modules {
        for (target, (insts, n)) in [
            ("x64", worker.compile(&x64, m)),
            ("a64", worker.compile(&a64, m)),
        ] {
            total_insts += insts;
            total_allocs += n;
            if n > MAX_ALLOCS_PER_MODULE {
                over.push(format!(
                    "{name} {target}: {n} allocations for {insts} insts"
                ));
            }
        }
    }
    assert!(
        total_insts > 10_000,
        "the modules are too small to show a per-instruction allocation"
    );
    assert!(
        over.is_empty(),
        "warm module compiles allocate more than {MAX_ALLOCS_PER_MODULE} times \
         ({total_allocs} allocations for {total_insts} insts in total):\n{}",
        over.join("\n")
    );
}

#[test]
fn fresh_adapter_reserves_nothing_until_a_function_is_indexed() {
    let m = build_workload(&spec_workloads()[0], IrStyle::O0);
    let defined: Vec<FuncRef> = (0..m.funcs.len() as u32)
        .map(FuncRef)
        .filter(|f| !m.funcs[f.idx()].is_decl)
        .collect();
    assert!(defined.len() > 1);
    // Symbol declaration and other module-level queries never index a
    // function, so they must not pay for the tables.
    let before = allocs();
    let mut adapter = LlvmAdapter::new(&m);
    for &f in &defined {
        assert!(adapter.func_is_definition(f));
    }
    assert_eq!(allocs() - before, 0, "module-level queries allocated");
    // The first function indexed reserves every table for the largest
    // function, so indexing the others does not allocate.
    adapter.switch_func(defined[0]);
    let before = allocs();
    for &f in &defined[1..] {
        adapter.switch_func(f);
    }
    assert_eq!(
        allocs() - before,
        0,
        "indexing after the first function allocated"
    );
}
