//! Value assignments: the per-value state tracked during code generation.
//!
//! For every live value the framework stores an [`Assignment`]: a stack
//! frame slot for spilling, the remaining number of uses, and per value part
//! the current register, whether the stack slot holds the current value, and
//! whether the part is trivially recomputable or pinned to a fixed register
//! (§3.4.1 of the paper).

use crate::adapter::ValueRef;
use crate::regs::{Reg, RegBank};

/// How a value part can be rematerialized instead of being spilled/reloaded.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Recompute {
    /// The part is the address of a stack variable: `frame_reg + offset`.
    StackAddr(i32),
    /// The part is a constant with the given bits.
    Const(u64),
}

/// State of one part of a value.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PartState {
    /// Register currently holding the part, if any.
    pub reg: Option<Reg>,
    /// Size of the part in bytes.
    pub size: u32,
    /// Register bank of the part.
    pub bank: RegBank,
    /// Whether the stack slot currently holds the correct value. If `false`
    /// and `reg` is `Some`, the register is the only location of the value.
    pub in_mem: bool,
    /// Whether the part is pinned to `reg` for its whole live range
    /// (innermost-loop heuristic); fixed parts are never spilled or evicted.
    pub fixed: bool,
    /// If set, the part can be recomputed instead of spilled.
    pub recompute: Option<Recompute>,
}

impl PartState {
    /// Placeholder used to initialize inline storage.
    pub const EMPTY: PartState = PartState {
        reg: None,
        size: 0,
        bank: RegBank::GP,
        in_mem: false,
        fixed: false,
        recompute: None,
    };
}

/// Number of part slots stored inline in a [`PartList`]. Covers every value
/// the back-ends in this workspace produce (1 part, 2 for 128-bit ints).
const PARTS_INLINE: usize = 2;

/// Part storage with inline capacity.
///
/// An assignment is created for every value the code generator touches —
/// one heap allocation per value here would show up directly in the
/// per-instruction compile cost. Values almost always have one part, so up
/// to [`PARTS_INLINE`] parts live inline in the `Assignment` and only the
/// (in practice nonexistent) larger values spill to the heap.
#[derive(Clone, Debug)]
pub struct PartList {
    len: u32,
    inline: [PartState; PARTS_INLINE],
    heap: Vec<PartState>,
}

impl Default for PartList {
    fn default() -> PartList {
        PartList::new()
    }
}

impl PartList {
    /// Creates an empty part list.
    pub fn new() -> PartList {
        PartList {
            len: 0,
            inline: [PartState::EMPTY; PARTS_INLINE],
            heap: Vec::new(),
        }
    }

    /// Appends a part.
    #[inline]
    pub fn push(&mut self, p: PartState) {
        let len = self.len as usize;
        if len < PARTS_INLINE {
            self.inline[len] = p;
        } else {
            if len == PARTS_INLINE {
                self.heap.clear();
                self.heap.extend_from_slice(&self.inline);
            }
            self.heap.push(p);
        }
        self.len += 1;
    }
}

impl std::ops::Deref for PartList {
    type Target = [PartState];
    #[inline]
    fn deref(&self) -> &[PartState] {
        if self.len as usize <= PARTS_INLINE {
            &self.inline[..self.len as usize]
        } else {
            &self.heap
        }
    }
}

impl std::ops::DerefMut for PartList {
    #[inline]
    fn deref_mut(&mut self) -> &mut [PartState] {
        if self.len as usize <= PARTS_INLINE {
            &mut self.inline[..self.len as usize]
        } else {
            &mut self.heap
        }
    }
}

impl FromIterator<PartState> for PartList {
    fn from_iter<I: IntoIterator<Item = PartState>>(iter: I) -> PartList {
        let mut l = PartList::new();
        for p in iter {
            l.push(p);
        }
        l
    }
}

/// Per-value state during code generation.
#[derive(Clone, Debug)]
pub struct Assignment {
    /// Frame offset (relative to the frame pointer) of the spill slot,
    /// or `None` if no slot has been allocated yet.
    pub frame_off: Option<i32>,
    /// Number of uses the code generator has not yet seen.
    pub remaining_uses: u32,
    /// Layout position of the last block the value is live in.
    pub last_pos: u32,
    /// Whether liveness extends to the end of `last_pos`.
    pub last_full: bool,
    /// Per-part state (inline for up to two parts).
    pub parts: PartList,
}

impl Assignment {
    /// Total spill size in bytes (sum of part sizes, each padded to 8 bytes
    /// so part offsets are trivially computable).
    pub fn spill_size(&self) -> u32 {
        self.parts.len() as u32 * 8
    }

    /// Byte offset of a part within the value's spill slot.
    pub fn part_offset(&self, part: u32) -> i32 {
        part as i32 * 8
    }
}

/// Table of assignments indexed by value number, plus the frame-slot
/// allocator.
#[derive(Debug, Default)]
pub struct AssignmentTable {
    slots: Vec<Option<Assignment>>,
    /// Values that currently have an assignment (for cheap sweeping).
    /// Invariant: every `Some` slot is listed here (entries for emptied
    /// slots may linger until [`AssignmentTable::prune_active`]), which is
    /// what lets [`AssignmentTable::clear`] empty only the listed slots.
    active: Vec<ValueRef>,
}

impl AssignmentTable {
    /// Creates a table for `value_count` values.
    pub fn new(value_count: usize) -> AssignmentTable {
        AssignmentTable {
            slots: vec![None; value_count],
            active: Vec::new(),
        }
    }

    /// Number of value slots (at least the value count of every function
    /// since the table was created).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether a value currently has an assignment.
    pub fn contains(&self, v: ValueRef) -> bool {
        self.slots.get(v.idx()).is_some_and(|s| s.is_some())
    }

    /// The value's assignment, created by `make` if it has none: one slot
    /// lookup, and the new assignment is written straight into its slot.
    #[inline]
    pub fn get_or_insert_with(
        &mut self,
        v: ValueRef,
        make: impl FnOnce() -> Assignment,
    ) -> &mut Assignment {
        let slot = &mut self.slots[v.idx()];
        if slot.is_none() {
            self.active.push(v);
        }
        slot.get_or_insert_with(make)
    }

    /// Shared access to a value's assignment.
    pub fn get(&self, v: ValueRef) -> Option<&Assignment> {
        self.slots.get(v.idx()).and_then(|s| s.as_ref())
    }

    /// Mutable access to a value's assignment.
    pub fn get_mut(&mut self, v: ValueRef) -> Option<&mut Assignment> {
        self.slots.get_mut(v.idx()).and_then(|s| s.as_mut())
    }

    /// Removes a value's assignment and returns it.
    pub fn remove(&mut self, v: ValueRef) -> Option<Assignment> {
        self.slots.get_mut(v.idx()).and_then(|s| s.take())
    }

    /// Values that currently (or recently) had assignments. May contain
    /// already-removed values; callers should check [`AssignmentTable::get`].
    pub fn active(&self) -> &[ValueRef] {
        &self.active
    }

    /// Drops active-list entries whose assignment has been removed
    /// (allocation-free replacement for collecting a keep-list).
    pub fn prune_active(&mut self) {
        let slots = &self.slots;
        self.active.retain(|v| slots[v.idx()].is_some());
    }

    /// Clears all assignments (end of function).
    pub fn clear(&mut self) {
        for v in self.active.drain(..) {
            self.slots[v.idx()] = None;
        }
    }

    /// Empties the table for a new function with `value_count` values.
    /// [`AssignmentTable::clear`] leaves every slot empty, so only slots
    /// past the current length are written: O(assignments), not O(values).
    pub fn reset(&mut self, value_count: usize) {
        self.clear();
        debug_assert!(self.slots.iter().all(Option::is_none));
        if self.slots.len() < value_count {
            self.slots.resize(value_count, None);
        }
    }
}

/// Allocates spill slots and stack-variable storage in the function frame.
///
/// Offsets are negative, relative to the frame pointer, growing downwards.
/// The first `reserved` bytes below the frame pointer are owned by the
/// target (callee-save area).
#[derive(Debug, Default)]
pub struct FrameAlloc {
    next_off: i32,
    free8: Vec<i32>,
    free16: Vec<i32>,
}

impl FrameAlloc {
    /// Creates a frame allocator with `reserved` bytes already used below the
    /// frame pointer.
    pub fn new(reserved: u32) -> FrameAlloc {
        FrameAlloc {
            next_off: -(reserved as i32),
            free8: Vec::new(),
            free16: Vec::new(),
        }
    }

    /// Resets the allocator for a new function, keeping the free-list
    /// buffers' capacity.
    pub fn reset(&mut self, reserved: u32) {
        self.next_off = -(reserved as i32);
        self.free8.clear();
        self.free16.clear();
    }

    /// Allocates a slot of `size` bytes with the given alignment and returns
    /// its frame offset (negative).
    pub fn alloc(&mut self, size: u32, align: u32) -> i32 {
        let size = size.max(1);
        let align = align.max(1).max(if size >= 8 {
            8
        } else {
            size.next_power_of_two()
        });
        if align <= 8 && size <= 8 {
            if let Some(off) = self.free8.pop() {
                return off;
            }
        } else if align <= 16 && size <= 16 {
            if let Some(off) = self.free16.pop() {
                return off;
            }
        }
        let size = (size + align - 1) & !(align - 1);
        let mut off = self.next_off - size as i32;
        // align the (negative) offset
        off &= !(align as i32 - 1);
        self.next_off = off;
        off
    }

    /// Returns a slot to the allocator for reuse.
    pub fn free(&mut self, off: i32, size: u32) {
        if size <= 8 {
            self.free8.push(off);
        } else if size <= 16 {
            self.free16.push(off);
        }
        // larger slots (stack variables) are not recycled
    }

    /// Total frame size in bytes used so far (positive), 16-byte aligned.
    pub fn frame_size(&self) -> u32 {
        let raw = (-self.next_off) as u32;
        (raw + 15) & !15
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part() -> PartState {
        PartState {
            reg: None,
            size: 8,
            bank: RegBank::GP,
            in_mem: false,
            fixed: false,
            recompute: None,
        }
    }

    fn assignment(remaining_uses: u32) -> Assignment {
        Assignment {
            frame_off: None,
            remaining_uses,
            last_pos: 5,
            last_full: false,
            parts: [part()].into_iter().collect(),
        }
    }

    #[test]
    fn table_insert_get_remove() {
        let mut t = AssignmentTable::new(4);
        assert!(!t.contains(ValueRef(2)));
        t.get_or_insert_with(ValueRef(2), || assignment(3));
        assert!(t.contains(ValueRef(2)));
        // An existing assignment is returned as is, without calling `make`.
        let a = t.get_or_insert_with(ValueRef(2), || unreachable!());
        assert_eq!(a.remaining_uses, 3);
        assert_eq!(t.active(), &[ValueRef(2)]);
        assert_eq!(t.get(ValueRef(2)).unwrap().remaining_uses, 3);
        t.get_mut(ValueRef(2)).unwrap().remaining_uses -= 1;
        assert_eq!(t.get(ValueRef(2)).unwrap().remaining_uses, 2);
        let a = t.remove(ValueRef(2)).unwrap();
        assert_eq!(a.remaining_uses, 2);
        assert!(!t.contains(ValueRef(2)));
    }

    #[test]
    fn spill_size_and_part_offsets() {
        let a = Assignment {
            frame_off: Some(-16),
            remaining_uses: 0,
            last_pos: 0,
            last_full: false,
            parts: [part(), part()].into_iter().collect(),
        };
        assert_eq!(a.spill_size(), 16);
        assert_eq!(a.part_offset(0), 0);
        assert_eq!(a.part_offset(1), 8);
    }

    #[test]
    fn part_list_inline_and_heap_spill() {
        let mut l = PartList::new();
        assert!(l.is_empty());
        for i in 0..5u32 {
            let mut p = part();
            p.size = i + 1;
            l.push(p);
            assert_eq!(l.len(), i as usize + 1);
        }
        // contents survive the inline -> heap transition
        for (i, p) in l.iter().enumerate() {
            assert_eq!(p.size, i as u32 + 1);
        }
        l[4].size = 99;
        assert_eq!(l[4].size, 99);
    }

    #[test]
    fn prune_active_drops_removed_values() {
        let mut t = AssignmentTable::new(4);
        for i in 0..3 {
            t.get_or_insert_with(ValueRef(i), || assignment(0));
        }
        t.remove(ValueRef(1));
        t.prune_active();
        assert_eq!(t.active(), &[ValueRef(0), ValueRef(2)]);
    }

    #[test]
    fn reset_leaves_every_slot_empty_for_smaller_and_larger_functions() {
        let mut t = AssignmentTable::new(0);
        t.reset(6);
        for i in [0, 3, 5] {
            t.get_or_insert_with(ValueRef(i), || assignment(1));
        }
        // A smaller function keeps the longer slot table, all of it empty.
        t.reset(2);
        assert!(t.len() >= 6 && t.active().is_empty());
        assert!((0..6).all(|i| !t.contains(ValueRef(i))));
        t.get_or_insert_with(ValueRef(1), || assignment(2));
        // A larger function grows the table.
        t.reset(9);
        assert!((0..9).all(|i| !t.contains(ValueRef(i))));
        assert_eq!(
            t.get_or_insert_with(ValueRef(8), || assignment(4))
                .remaining_uses,
            4
        );
    }

    #[test]
    fn frame_alloc_is_aligned_and_reuses_slots() {
        let mut f = FrameAlloc::new(64);
        let a = f.alloc(8, 8);
        assert!(a <= -64 - 8);
        assert_eq!(a % 8, 0);
        let b = f.alloc(8, 8);
        assert_ne!(a, b);
        f.free(a, 8);
        let c = f.alloc(8, 8);
        assert_eq!(c, a, "freed slot is reused");
        let big = f.alloc(64, 16);
        assert_eq!(big % 16, 0);
        assert!(f.frame_size().is_multiple_of(16));
        assert!(f.frame_size() >= 64 + 8 + 8 + 64);
    }

    #[test]
    fn frame_alloc_respects_reserved_area() {
        let mut f = FrameAlloc::new(48);
        let a = f.alloc(4, 4);
        assert!(a <= -48);
    }
}
