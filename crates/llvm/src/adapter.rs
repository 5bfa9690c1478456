//! The TPDE IR adapter for the LLVM-IR-like module (§5.1.1 of the paper).

use crate::ir::{Block, FuncId, Inst, Module, Type, Value, ValueDef};
use tpde_core::adapter::{
    BlockRef, FuncRef, InstRef, IrAdapter, Linkage, PhiIncoming, StackVarDesc, ValueRef,
};
use tpde_core::regs::RegBank;

/// Adapter exposing a [`Module`] to the TPDE framework.
///
/// The IR already numbers values, blocks and functions densely, so
/// `switch_func` only has to pre-index the current function into flat slice
/// tables (instruction lists, operands, results, successors, phis, use
/// counts). The tables are `clear()`ed — never dropped — between
/// functions, so once they have grown to the module's largest function
/// `switch_func` performs no allocation (see the `tpde_core::adapter` module
/// docs). An adapter made by [`LlvmAdapter::new`] starts from empty tables
/// and reserves them for the module's largest function on its first
/// `switch_func`, so a one-shot compile grows each table once instead of
/// doubling it function by function.
pub struct LlvmAdapter<'m> {
    /// The module being compiled.
    pub module: &'m Module,
    cur: FuncId,
    /// The reusable flat-table storage.
    s: AdapterScratch,
    /// Whether the next `switch_func` first reserves the tables for the
    /// module's largest function (set only for fresh tables; a parked
    /// scratch keeps the capacities it has grown).
    reserve_pending: bool,
}

/// The flat-table working memory of an [`LlvmAdapter`], detached from the
/// module borrow so it can be kept warm across modules.
///
/// One-shot compiles never see this type ([`LlvmAdapter::new`] starts from
/// fresh tables); long-lived drivers — notably the compile-service workers —
/// park the scratch between requests ([`LlvmAdapter::into_scratch`]) and
/// re-attach it to the next module ([`LlvmAdapter::with_scratch`]), so the
/// per-function indexing in `switch_func` reuses the grown capacities
/// instead of re-allocating for every request.
#[derive(Debug, Default)]
pub struct AdapterScratch {
    /// Flat instruction index -> (block, index within block).
    inst_index: Vec<(u32, u32)>,
    /// Per block: (first flat index, count).
    block_ranges: Vec<(u32, u32)>,
    /// Per block: instruction references (sliced per block).
    inst_refs: Vec<InstRef>,
    /// All operand lists back to back; per-instruction range below.
    operands: Vec<ValueRef>,
    /// Per instruction: (start, len) into `operands`.
    operand_ranges: Vec<(u32, u32)>,
    /// All result lists back to back (0 or 1 entries per instruction).
    results: Vec<ValueRef>,
    /// Per instruction: (start, len) into `results`.
    result_ranges: Vec<(u32, u32)>,
    /// All successor lists back to back; per-block range below.
    succs: Vec<BlockRef>,
    /// Per block: (start, len) into `succs`.
    succ_ranges: Vec<(u32, u32)>,
    /// All phi lists back to back; per-block range below.
    phis: Vec<ValueRef>,
    /// Per block: (start, len) into `phis`.
    phi_ranges: Vec<(u32, u32)>,
    /// All phi incoming edges back to back; per-value range below.
    phi_inc: Vec<PhiIncoming>,
    /// Per value: (start, len) into `phi_inc` (len 0 for non-phis).
    phi_inc_ranges: Vec<(u32, u32)>,
    /// Argument values of the current function.
    args: Vec<ValueRef>,
    /// Static stack variables of the current function.
    stack_vars: Vec<StackVarDesc>,
    /// Per value: number of uses in the current function (operands and phi
    /// incoming edges). Replaces a per-query walk over the whole function.
    use_counts: Vec<u32>,
}

impl AdapterScratch {
    /// Empties every table, keeping its capacity.
    fn clear(&mut self) {
        self.inst_index.clear();
        self.block_ranges.clear();
        self.inst_refs.clear();
        self.operands.clear();
        self.operand_ranges.clear();
        self.results.clear();
        self.result_ranges.clear();
        self.succs.clear();
        self.succ_ranges.clear();
        self.phis.clear();
        self.phi_ranges.clear();
        self.phi_inc.clear();
        self.phi_inc_ranges.clear();
        self.args.clear();
        self.stack_vars.clear();
        self.use_counts.clear();
    }

    /// Grows each (empty) table to what the largest function of `module`
    /// needs, so indexing any of its functions does not allocate.
    fn reserve_for(&mut self, module: &Module) {
        let mut max = TableSizes::default();
        for f in module.funcs.iter().filter(|f| !f.is_decl) {
            max = max.max(&TableSizes::of(f));
        }
        self.inst_index.reserve(max.insts);
        self.inst_refs.reserve(max.insts);
        self.operand_ranges.reserve(max.insts);
        self.results.reserve(max.insts);
        self.result_ranges.reserve(max.insts);
        self.operands.reserve(max.operands);
        self.block_ranges.reserve(max.blocks);
        self.succ_ranges.reserve(max.blocks);
        self.phi_ranges.reserve(max.blocks);
        self.succs.reserve(max.succs);
        self.phis.reserve(max.phis);
        self.phi_inc.reserve(max.phi_inc);
        self.phi_inc_ranges.reserve(max.values);
        self.use_counts.reserve(max.values);
        self.args.reserve(max.args);
        self.stack_vars.reserve(max.stack_vars);
    }
}

/// Sizes of the flat tables [`LlvmAdapter`] builds for one function.
#[derive(Clone, Copy, Default)]
struct TableSizes {
    insts: usize,
    operands: usize,
    blocks: usize,
    succs: usize,
    phis: usize,
    phi_inc: usize,
    values: usize,
    args: usize,
    stack_vars: usize,
}

impl TableSizes {
    fn of(f: &crate::ir::Function) -> TableSizes {
        let mut n = TableSizes {
            blocks: f.blocks.len(),
            values: f.value_count(),
            args: f.params.len(),
            stack_vars: f.stack_slots.len(),
            ..TableSizes::default()
        };
        for b in &f.blocks {
            n.insts += b.insts.len();
            for inst in &b.insts {
                inst.visit_operands(|_| n.operands += 1);
            }
            if let Some(t) = b.insts.last() {
                t.visit_successors(|_| n.succs += 1);
            }
            n.phis += b.phis.len();
            n.phi_inc += b.phis.iter().map(|p| p.incoming.len()).sum::<usize>();
        }
        n
    }

    fn max(&self, o: &TableSizes) -> TableSizes {
        TableSizes {
            insts: self.insts.max(o.insts),
            operands: self.operands.max(o.operands),
            blocks: self.blocks.max(o.blocks),
            succs: self.succs.max(o.succs),
            phis: self.phis.max(o.phis),
            phi_inc: self.phi_inc.max(o.phi_inc),
            values: self.values.max(o.values),
            args: self.args.max(o.args),
            stack_vars: self.stack_vars.max(o.stack_vars),
        }
    }
}

impl<'m> LlvmAdapter<'m> {
    /// Creates an adapter for a module with fresh tables, reserved for the
    /// module's largest function when the first function is indexed (so
    /// callers that only read module-level data pay nothing).
    pub fn new(module: &'m Module) -> LlvmAdapter<'m> {
        LlvmAdapter {
            module,
            cur: FuncId(0),
            s: AdapterScratch::default(),
            reserve_pending: true,
        }
    }

    /// Creates an adapter for a module reusing previously grown table
    /// capacities (see [`AdapterScratch`]); the tables grow on demand if a
    /// function needs more.
    pub fn with_scratch(module: &'m Module, scratch: AdapterScratch) -> LlvmAdapter<'m> {
        LlvmAdapter {
            module,
            cur: FuncId(0),
            s: scratch,
            reserve_pending: false,
        }
    }

    /// Detaches the flat-table storage for reuse with another module.
    pub fn into_scratch(self) -> AdapterScratch {
        self.s
    }

    /// The function currently being compiled.
    pub fn cur_func(&self) -> &'m crate::ir::Function {
        &self.module.funcs[self.cur.0 as usize]
    }

    /// The IR instruction behind an [`InstRef`].
    pub fn inst(&self, inst: InstRef) -> &'m Inst {
        let (b, i) = self.s.inst_index[inst.idx()];
        &self.cur_func().blocks[b as usize].insts[i as usize]
    }

    /// The instruction following `inst` within the same block, if any.
    pub fn next_inst_in_block(&self, inst: InstRef) -> Option<InstRef> {
        let (b, i) = self.s.inst_index[inst.idx()];
        let (start, count) = self.s.block_ranges[b as usize];
        let next = inst.0 + 1;
        if next < start + count && (i + 1) < count {
            Some(InstRef(next))
        } else {
            None
        }
    }

    /// Type of a value in the current function.
    pub fn value_type(&self, v: ValueRef) -> Type {
        self.cur_func().value_type(Value(v.0))
    }

    /// Number of uses of a value within the current function (used for the
    /// single-use check of compare/branch fusion). Precomputed in
    /// `switch_func`, so this is a table lookup.
    pub fn count_uses(&self, v: Value) -> usize {
        self.s
            .use_counts
            .get(v.0 as usize)
            .copied()
            .unwrap_or_default() as usize
    }
}

fn bank_of(ty: Type) -> RegBank {
    if ty.is_fp() {
        RegBank::FP
    } else {
        RegBank::GP
    }
}

impl<'m> IrAdapter for LlvmAdapter<'m> {
    fn func_count(&self) -> usize {
        self.module.funcs.len()
    }

    fn func_name(&self, func: FuncRef) -> &str {
        &self.module.funcs[func.idx()].name
    }

    fn func_linkage(&self, func: FuncRef) -> Linkage {
        if self.module.funcs[func.idx()].internal {
            Linkage::Internal
        } else {
            Linkage::External
        }
    }

    fn func_is_definition(&self, func: FuncRef) -> bool {
        !self.module.funcs[func.idx()].is_decl
    }

    fn switch_func(&mut self, func: FuncRef) {
        self.cur = FuncId(func.0);
        self.s.clear();
        if std::mem::take(&mut self.reserve_pending) {
            self.s.reserve_for(self.module);
        }

        let f = self.cur_func();
        self.s.use_counts.resize(f.value_count(), 0);
        self.s.phi_inc_ranges.resize(f.value_count(), (0, 0));
        self.s.args.extend((0..f.params.len() as u32).map(ValueRef));
        self.s
            .stack_vars
            .extend(f.stack_slots.iter().zip(f.stack_slot_values.iter()).map(
                |(&(size, align), &v)| StackVarDesc {
                    value: ValueRef(v.0),
                    size,
                    align,
                },
            ));

        for b in &f.blocks {
            // instructions: dense flat numbering
            let start = self.s.inst_index.len() as u32;
            for (ii, inst) in b.insts.iter().enumerate() {
                self.s
                    .inst_refs
                    .push(InstRef(self.s.inst_index.len() as u32));
                self.s
                    .inst_index
                    .push((self.s.block_ranges.len() as u32, ii as u32));
                let op_start = self.s.operands.len() as u32;
                inst.visit_operands(|v| {
                    self.s.operands.push(ValueRef(v.0));
                    // Tolerate out-of-range ids while indexing: the verifier
                    // reads the raw operand list and rejects them with a
                    // typed error before codegen consults any use count.
                    if let Some(c) = self.s.use_counts.get_mut(v.0 as usize) {
                        *c += 1;
                    }
                });
                self.s
                    .operand_ranges
                    .push((op_start, self.s.operands.len() as u32 - op_start));
                let res_start = self.s.results.len() as u32;
                if let Some(r) = inst.result() {
                    self.s.results.push(ValueRef(r.0));
                }
                self.s
                    .result_ranges
                    .push((res_start, self.s.results.len() as u32 - res_start));
            }
            self.s.block_ranges.push((start, b.insts.len() as u32));

            // successors (from the terminator)
            let succ_start = self.s.succs.len() as u32;
            if let Some(t) = b.insts.last() {
                t.visit_successors(|s| self.s.succs.push(BlockRef(s.0)));
            }
            self.s
                .succ_ranges
                .push((succ_start, self.s.succs.len() as u32 - succ_start));

            // phis and their incoming edges
            let phi_start = self.s.phis.len() as u32;
            for p in &b.phis {
                self.s.phis.push(ValueRef(p.res.0));
                let inc_start = self.s.phi_inc.len() as u32;
                for (blk, v) in &p.incoming {
                    self.s.phi_inc.push(PhiIncoming {
                        block: BlockRef(blk.0),
                        value: ValueRef(v.0),
                    });
                    if let Some(c) = self.s.use_counts.get_mut(v.0 as usize) {
                        *c += 1;
                    }
                }
                if let Some(r) = self.s.phi_inc_ranges.get_mut(p.res.0 as usize) {
                    *r = (inc_start, self.s.phi_inc.len() as u32 - inc_start);
                }
            }
            self.s
                .phi_ranges
                .push((phi_start, self.s.phis.len() as u32 - phi_start));
        }
    }

    fn value_count(&self) -> usize {
        self.cur_func().value_count()
    }

    fn inst_count(&self) -> usize {
        self.s.inst_index.len()
    }

    fn args(&self) -> &[ValueRef] {
        &self.s.args
    }

    fn static_stack_vars(&self) -> &[StackVarDesc] {
        &self.s.stack_vars
    }

    fn block_count(&self) -> usize {
        self.s.block_ranges.len()
    }

    fn block_succs(&self, block: BlockRef) -> &[BlockRef] {
        let (start, len) = self.s.succ_ranges[block.idx()];
        &self.s.succs[start as usize..(start + len) as usize]
    }

    fn block_phis(&self, block: BlockRef) -> &[ValueRef] {
        let (start, len) = self.s.phi_ranges[block.idx()];
        &self.s.phis[start as usize..(start + len) as usize]
    }

    fn block_insts(&self, block: BlockRef) -> &[InstRef] {
        let (start, len) = self.s.block_ranges[block.idx()];
        &self.s.inst_refs[start as usize..(start + len) as usize]
    }

    fn phi_incoming(&self, phi: ValueRef) -> &[PhiIncoming] {
        let (start, len) = self.s.phi_inc_ranges[phi.idx()];
        &self.s.phi_inc[start as usize..(start + len) as usize]
    }

    fn inst_operands(&self, inst: InstRef) -> &[ValueRef] {
        let (start, len) = self.s.operand_ranges[inst.idx()];
        &self.s.operands[start as usize..(start + len) as usize]
    }

    fn inst_results(&self, inst: InstRef) -> &[ValueRef] {
        let (start, len) = self.s.result_ranges[inst.idx()];
        &self.s.results[start as usize..(start + len) as usize]
    }

    fn val_part_count(&self, _val: ValueRef) -> u32 {
        1
    }

    fn val_part_size(&self, val: ValueRef, _part: u32) -> u32 {
        self.cur_func().value_type(Value(val.0)).size().max(1)
    }

    fn val_part_bank(&self, val: ValueRef, _part: u32) -> RegBank {
        bank_of(self.cur_func().value_type(Value(val.0)))
    }

    fn val_is_const(&self, val: ValueRef) -> bool {
        matches!(self.cur_func().values[val.idx()].def, ValueDef::Const(_))
    }

    fn val_const_data(&self, val: ValueRef, _part: u32) -> u64 {
        match self.cur_func().values[val.idx()].def {
            ValueDef::Const(bits) => bits,
            _ => 0,
        }
    }

    // Verification support: this adapter can classify terminators and
    // direct calls exactly, so the verifier checks terminator placement
    // and call arity for LLVM-IR modules.

    fn inst_is_terminator(&self, inst: InstRef) -> Option<bool> {
        Some(self.inst(inst).is_terminator())
    }

    fn inst_call_target(&self, inst: InstRef) -> Option<(FuncRef, usize)> {
        match self.inst(inst) {
            Inst::Call { callee, args, .. } => Some((FuncRef(callee.0), args.len())),
            _ => None,
        }
    }

    fn func_param_count(&self, func: FuncRef) -> Option<usize> {
        self.module.funcs.get(func.idx()).map(|f| f.params.len())
    }
}

/// Helper to convert IR blocks to framework block references.
pub fn block_ref(b: Block) -> BlockRef {
    BlockRef(b.0)
}

/// Helper to convert IR values to framework value references.
pub fn value_ref(v: Value) -> ValueRef {
    ValueRef(v.0)
}
