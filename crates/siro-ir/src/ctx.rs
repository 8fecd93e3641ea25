//! The arena IR core: typed arenas, copyable `Ptr<T>` indices, inline
//! operand storage, and the thread-local buffer slab that lets a served
//! request's whole IR drop in one arena free.
//!
//! ROADMAP item 4 ("the allocator is the ceiling") is implemented here.
//! Every IR entity — [`Function`](crate::Function),
//! [`BasicBlock`](crate::BasicBlock), [`Instruction`](crate::Instruction),
//! [`Global`](crate::Global), [`InlineAsm`](crate::InlineAsm) — lives in an
//! [`Arena<T>`] owned by the module's [`Ctx`](crate::module::Ctx) (or, for
//! blocks and instructions, by the enclosing function), and is referenced
//! by a copyable [`Ptr<T>`] typed index instead of a boxed pointer.
//!
//! Three mechanisms cut allocator traffic on the serving path:
//!
//! 1. **Arena storage** — entities are stored contiguously; `Ptr<T>` links
//!    (use-def, instruction order, successor edges) are `u32` indices, so
//!    building and walking IR never chases or allocates per-entity boxes.
//! 2. **Inline operands** — [`OpVec`] keeps up to
//!    [`OpVec::INLINE`] operands inside the instruction itself; the common
//!    instruction (`ret`/`br`/binop/`load`/`store`/cast) allocates nothing
//!    for its operand list.
//! 3. **Slab recycling** — when an [`Arena<T>`] drops, its backing buffer
//!    is cleared and parked in a thread-local slab keyed by entity type;
//!    the next arena of that type reuses it. A serve worker therefore
//!    reaches a steady state where per-request parse→translate→serialize
//!    performs no arena-buffer allocations at all. Error paths get this
//!    for free: a partially-parsed module recycles through the same
//!    [`Drop`], so malformed requests no longer strand buffer capacity.
//!
//! See `docs/IR_CORE.md` for the full design (layout, aliasing rules,
//! clone semantics) and `BENCH_ir_alloc.json` for the measured effect.

use std::cell::RefCell;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut, Index, IndexMut};

use crate::value::ValueRef;

/// Maximum number of cleared buffers the per-type thread-local slab keeps.
///
/// Bounds worst-case idle memory per worker thread; beyond this, dropped
/// arena buffers are returned to the allocator.
const SLAB_MAX: usize = 64;

/// An IR entity that lives in an [`Arena`] and is addressed by [`Ptr`].
///
/// Implementations are provided for the five arena-stored IR types and
/// cannot be added outside `siro-ir`: the per-type recycling slab and the
/// `Ptr` debug name are crate-internal plumbing.
pub trait Entity: Sized + 'static {
    /// Name used when debug-printing a `Ptr<Self>`, e.g. `InstId`.
    const PTR_NAME: &'static str;

    #[doc(hidden)]
    fn with_slab<R>(f: impl FnOnce(&mut Vec<Vec<Self>>) -> R) -> R;
}

macro_rules! entity {
    ($ty:ty, $ptr_name:literal, $slab:ident) => {
        thread_local! {
            static $slab: RefCell<Vec<Vec<$ty>>> = const { RefCell::new(Vec::new()) };
        }

        impl Entity for $ty {
            const PTR_NAME: &'static str = $ptr_name;

            fn with_slab<R>(f: impl FnOnce(&mut Vec<Vec<Self>>) -> R) -> R {
                $slab.with(|s| f(&mut s.borrow_mut()))
            }
        }
    };
}

entity!(crate::inst::Instruction, "InstId", INST_SLAB);
entity!(crate::module::BasicBlock, "BlockId", BLOCK_SLAB);
entity!(crate::module::Function, "FuncId", FUNC_SLAB);
entity!(crate::module::Global, "GlobalId", GLOBAL_SLAB);
entity!(crate::module::InlineAsm, "AsmId", ASM_SLAB);

/// A copyable typed index into an [`Arena<T>`].
///
/// `Ptr<T>` is a `u32` newtype carrying the entity type as a phantom, so an
/// instruction index cannot be confused with a block index at compile time.
/// The aliases [`InstId`](crate::InstId), [`BlockId`](crate::BlockId),
/// [`FuncId`](crate::FuncId), [`GlobalId`](crate::GlobalId) and
/// [`AsmId`](crate::AsmId) name the five instantiations.
///
/// A `Ptr` is only meaningful relative to the arena it was allocated from
/// (instruction and block pointers are function-local; function, global and
/// asm pointers are module-local). Arenas never remove entities, so a `Ptr`
/// handed out by [`Arena::alloc`] stays valid for the arena's lifetime.
pub struct Ptr<T> {
    raw: u32,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Ptr<T> {
    /// Wraps a raw `u32` index.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        Ptr {
            raw,
            _marker: PhantomData,
        }
    }

    /// Wraps a `usize` index (must fit in `u32`, as all arena sizes do).
    #[inline]
    pub fn from_usize(index: usize) -> Self {
        Ptr::new(index as u32)
    }

    /// The raw `u32` index.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.raw
    }

    /// The index as a `usize`, for slice indexing.
    #[inline]
    pub const fn index(self) -> usize {
        self.raw as usize
    }
}

// Manual impls: derives would wrongly bound `T`.
impl<T> Clone for Ptr<T> {
    #[inline]
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Ptr<T> {}
impl<T> PartialEq for Ptr<T> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw
    }
}
impl<T> Eq for Ptr<T> {}
impl<T> PartialOrd for Ptr<T> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Ptr<T> {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.raw.cmp(&other.raw)
    }
}
impl<T> Hash for Ptr<T> {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.raw.hash(state);
    }
}

impl<T: Entity> fmt::Debug for Ptr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", T::PTR_NAME, self.raw)
    }
}

/// A typed arena: contiguous storage for one kind of IR entity, indexed by
/// [`Ptr<T>`].
///
/// Dereferences to `[T]`, so all slice reads (`len`, `iter`, `[usize]`,
/// ranges) work directly; `Ptr<T>` indexing is provided on top. Entities
/// are append-only — pointers, once handed out, never dangle.
///
/// Dropping an arena clears the elements and parks the backing buffer in a
/// thread-local, type-keyed slab (bounded by a small constant); the next
/// `Arena::new`/`Clone` on the same thread reuses that capacity. This is
/// what makes per-request IR churn allocation-free in steady state.
pub struct Arena<T: Entity> {
    items: Vec<T>,
}

impl<T: Entity> Arena<T> {
    /// Creates an empty arena, reusing a recycled buffer when available.
    pub fn new() -> Self {
        Arena {
            items: T::with_slab(|s| s.pop().unwrap_or_default()),
        }
    }

    /// Appends an entity and returns its pointer.
    #[inline]
    pub fn alloc(&mut self, item: T) -> Ptr<T> {
        let p = Ptr::from_usize(self.items.len());
        self.items.push(item);
        p
    }

    /// Appends an entity (alias of [`Arena::alloc`], mirroring `Vec::push`).
    #[inline]
    pub fn push(&mut self, item: T) -> Ptr<T> {
        self.alloc(item)
    }

    /// Iterates over all valid pointers, in allocation order.
    pub fn ids(&self) -> impl Iterator<Item = Ptr<T>> {
        (0..self.items.len() as u32).map(Ptr::new)
    }

    /// The entity behind `p`, or `None` if `p` is out of range (e.g. a
    /// pointer from a different function's arena).
    #[inline]
    pub fn get(&self, p: Ptr<T>) -> Option<&T> {
        self.items.get(p.index())
    }

    /// Mutable counterpart of [`Arena::get`].
    #[inline]
    pub fn get_mut(&mut self, p: Ptr<T>) -> Option<&mut T> {
        self.items.get_mut(p.index())
    }

    /// Whether `p` indexes a live entity of this arena.
    #[inline]
    pub fn contains(&self, p: Ptr<T>) -> bool {
        p.index() < self.items.len()
    }

    /// Removes all entities, keeping the backing capacity.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Reserves capacity for at least `additional` more entities.
    pub fn reserve(&mut self, additional: usize) {
        self.items.reserve(additional);
    }
}

impl<T: Entity> Default for Arena<T> {
    fn default() -> Self {
        Arena::new()
    }
}

impl<T: Entity> Drop for Arena<T> {
    fn drop(&mut self) {
        let mut buf = std::mem::take(&mut self.items);
        if buf.capacity() == 0 {
            return;
        }
        buf.clear();
        T::with_slab(|s| {
            if s.len() < SLAB_MAX {
                s.push(buf);
            }
        });
    }
}

impl<T: Entity + Clone> Clone for Arena<T> {
    /// Deep-copies the entities into a (recycled) fresh buffer. The clone
    /// shares no storage with the original — see `Module::arena_clone`.
    fn clone(&self) -> Self {
        let mut items: Vec<T> = T::with_slab(|s| s.pop().unwrap_or_default());
        items.extend(self.items.iter().cloned());
        Arena { items }
    }
}

impl<T: Entity + fmt::Debug> fmt::Debug for Arena<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.items.fmt(f)
    }
}

impl<T: Entity + PartialEq> PartialEq for Arena<T> {
    fn eq(&self, other: &Self) -> bool {
        self.items == other.items
    }
}

impl<T: Entity> Deref for Arena<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        &self.items
    }
}

impl<T: Entity> DerefMut for Arena<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items
    }
}

impl<T: Entity> Index<Ptr<T>> for Arena<T> {
    type Output = T;
    #[inline]
    fn index(&self, p: Ptr<T>) -> &T {
        &self.items[p.index()]
    }
}

impl<T: Entity> IndexMut<Ptr<T>> for Arena<T> {
    #[inline]
    fn index_mut(&mut self, p: Ptr<T>) -> &mut T {
        &mut self.items[p.index()]
    }
}

// Explicit position/range indexing: the `Ptr<T>` impl above stops the
// compiler from reaching `[T]`'s `Index` impls through deref coercion, so
// the usual slice indexing forms are restated here.
macro_rules! arena_slice_index {
    ($($idx:ty => $out:ty),+ $(,)?) => {$(
        impl<T: Entity> Index<$idx> for Arena<T> {
            type Output = $out;
            #[inline]
            fn index(&self, i: $idx) -> &$out {
                &self.items[i]
            }
        }
        impl<T: Entity> IndexMut<$idx> for Arena<T> {
            #[inline]
            fn index_mut(&mut self, i: $idx) -> &mut $out {
                &mut self.items[i]
            }
        }
    )+};
}

arena_slice_index! {
    usize => T,
    std::ops::Range<usize> => [T],
    std::ops::RangeFrom<usize> => [T],
    std::ops::RangeTo<usize> => [T],
    std::ops::RangeFull => [T],
}

impl<T: Entity> From<Vec<T>> for Arena<T> {
    fn from(items: Vec<T>) -> Self {
        Arena { items }
    }
}

impl<T: Entity> FromIterator<T> for Arena<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut a = Arena::new();
        a.items.extend(iter);
        a
    }
}

impl<T: Entity> Extend<T> for Arena<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        self.items.extend(iter);
    }
}

impl<'a, T: Entity> IntoIterator for &'a Arena<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl<'a, T: Entity> IntoIterator for &'a mut Arena<T> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter_mut()
    }
}

/// Inline-first operand storage for [`Instruction`](crate::Instruction).
///
/// Holds up to [`OpVec::INLINE`] operands inside the instruction (no heap);
/// longer lists spill to a `Vec`. Dereferences to `[ValueRef]`, so all
/// slice reads and in-place element writes look exactly like the former
/// `Vec<ValueRef>` field. Built from arrays (`[a, b].into()`) on hot paths
/// — array construction is allocation-free — or from `Vec`/iterators on
/// cold ones.
///
/// Once a list has spilled it stays spilled (its `Vec` capacity is kept),
/// so pointers into a long operand list are never invalidated by a
/// later length change.
///
/// The representation is a two-variant enum rather than a struct carrying
/// both buffers: `Instruction` sits on the translate hot loop, and keeping
/// `OpVec` at 56 bytes (vs. 96 for inline-buffer-plus-`Vec`) is worth the
/// match on every access.
pub struct OpVec {
    repr: Repr,
}

enum Repr {
    /// Up to [`OpVec::INLINE`] operands stored in place.
    Inline {
        len: u8,
        buf: [ValueRef; OpVec::INLINE],
    },
    /// Heap storage for longer lists; stays spilled once spilled.
    Spill(Vec<ValueRef>),
}

/// Filler for unused inline slots; never observable through the slice API.
const FILL: ValueRef = ValueRef::Placeholder(u32::MAX);

impl OpVec {
    /// Number of operands stored inline before spilling to the heap.
    ///
    /// Covers the common fixed-arity opcodes (`ret`, `br`, binops, memory
    /// ops, casts, `select`, short `gep`s); wide `phi`/`switch`/`call`
    /// instructions spill.
    pub const INLINE: usize = 3;

    /// Creates an empty operand list (no allocation).
    pub const fn new() -> Self {
        OpVec {
            repr: Repr::Inline {
                len: 0,
                buf: [FILL; Self::INLINE],
            },
        }
    }

    /// The operands as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[ValueRef] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Spill(v) => v,
        }
    }

    /// The operands as a mutable slice (element writes; length is fixed).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [ValueRef] {
        match &mut self.repr {
            Repr::Inline { len, buf } => &mut buf[..*len as usize],
            Repr::Spill(v) => v,
        }
    }

    /// Appends an operand, spilling to the heap past [`OpVec::INLINE`].
    pub fn push(&mut self, v: ValueRef) {
        match &mut self.repr {
            Repr::Spill(sp) => sp.push(v),
            Repr::Inline { len, buf } => {
                if (*len as usize) < Self::INLINE {
                    buf[*len as usize] = v;
                    *len += 1;
                } else {
                    let mut sp = Vec::with_capacity(Self::INLINE * 2 + 1);
                    sp.extend_from_slice(buf);
                    sp.push(v);
                    self.repr = Repr::Spill(sp);
                }
            }
        }
    }

    /// Removes and returns the last operand.
    pub fn pop(&mut self) -> Option<ValueRef> {
        match &mut self.repr {
            Repr::Spill(sp) => sp.pop(),
            Repr::Inline { len, buf } => {
                if *len > 0 {
                    *len -= 1;
                    Some(buf[*len as usize])
                } else {
                    None
                }
            }
        }
    }

    /// Shortens the list to `len` operands (no-op if already shorter).
    pub fn truncate(&mut self, n: usize) {
        match &mut self.repr {
            Repr::Spill(sp) => sp.truncate(n),
            Repr::Inline { len, .. } => *len = (*len).min(n as u8),
        }
    }

    /// Removes all operands (keeps any spilled capacity).
    pub fn clear(&mut self) {
        self.truncate(0);
    }

    /// Appends all operands in `ops` (bulk copy, at most one spill).
    pub fn extend_from_slice(&mut self, ops: &[ValueRef]) {
        match &mut self.repr {
            Repr::Spill(sp) => sp.extend_from_slice(ops),
            Repr::Inline { len, buf } => {
                let n = *len as usize;
                if n + ops.len() <= Self::INLINE {
                    buf[n..n + ops.len()].copy_from_slice(ops);
                    *len = (n + ops.len()) as u8;
                } else {
                    let mut sp = Vec::with_capacity((n + ops.len()).max(Self::INLINE * 2));
                    sp.extend_from_slice(&buf[..n]);
                    sp.extend_from_slice(ops);
                    self.repr = Repr::Spill(sp);
                }
            }
        }
    }
}

impl Default for OpVec {
    fn default() -> Self {
        OpVec::new()
    }
}

impl Deref for OpVec {
    type Target = [ValueRef];
    #[inline]
    fn deref(&self) -> &[ValueRef] {
        self.as_slice()
    }
}

impl DerefMut for OpVec {
    #[inline]
    fn deref_mut(&mut self) -> &mut [ValueRef] {
        self.as_mut_slice()
    }
}

impl Clone for OpVec {
    /// Clones to the most compact representation: a spilled source that
    /// fits inline clones without allocating.
    fn clone(&self) -> Self {
        OpVec::from_slice(self.as_slice())
    }
}

impl fmt::Debug for OpVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Matches `Vec<ValueRef>` debug output.
        self.as_slice().fmt(f)
    }
}

impl PartialEq for OpVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for OpVec {}

impl PartialEq<Vec<ValueRef>> for OpVec {
    fn eq(&self, other: &Vec<ValueRef>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[ValueRef; N]> for OpVec {
    fn eq(&self, other: &[ValueRef; N]) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Hash for OpVec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl OpVec {
    /// Builds an operand list by copying a slice (inline when it fits).
    pub fn from_slice(ops: &[ValueRef]) -> Self {
        if ops.len() <= Self::INLINE {
            let mut buf = [FILL; Self::INLINE];
            buf[..ops.len()].copy_from_slice(ops);
            OpVec {
                repr: Repr::Inline {
                    len: ops.len() as u8,
                    buf,
                },
            }
        } else {
            OpVec {
                repr: Repr::Spill(ops.to_vec()),
            }
        }
    }
}

impl From<Vec<ValueRef>> for OpVec {
    /// A short `Vec` is copied inline (and freed); a long one is adopted
    /// as the spill storage without copying.
    fn from(v: Vec<ValueRef>) -> Self {
        if v.len() <= Self::INLINE {
            OpVec::from_slice(&v)
        } else {
            OpVec {
                repr: Repr::Spill(v),
            }
        }
    }
}

impl<const N: usize> From<[ValueRef; N]> for OpVec {
    fn from(ops: [ValueRef; N]) -> Self {
        OpVec::from_slice(&ops)
    }
}

impl From<&[ValueRef]> for OpVec {
    fn from(ops: &[ValueRef]) -> Self {
        OpVec::from_slice(ops)
    }
}

impl FromIterator<ValueRef> for OpVec {
    fn from_iter<I: IntoIterator<Item = ValueRef>>(iter: I) -> Self {
        let mut v = OpVec::new();
        for op in iter {
            v.push(op);
        }
        v
    }
}

impl Extend<ValueRef> for OpVec {
    fn extend<I: IntoIterator<Item = ValueRef>>(&mut self, iter: I) {
        for op in iter {
            self.push(op);
        }
    }
}

impl<'a> IntoIterator for &'a OpVec {
    type Item = &'a ValueRef;
    type IntoIter = std::slice::Iter<'a, ValueRef>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<'a> IntoIterator for &'a mut OpVec {
    type Item = &'a mut ValueRef;
    type IntoIter = std::slice::IterMut<'a, ValueRef>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_mut_slice().iter_mut()
    }
}

/// Owned operand iterator (see [`OpVec`]'s `IntoIterator`).
#[derive(Debug)]
pub struct OpVecIntoIter {
    inner: OpVecIter,
}

#[derive(Debug)]
enum OpVecIter {
    Inline(std::iter::Take<std::array::IntoIter<ValueRef, { OpVec::INLINE }>>),
    Spill(std::vec::IntoIter<ValueRef>),
}

impl Iterator for OpVecIntoIter {
    type Item = ValueRef;
    fn next(&mut self) -> Option<ValueRef> {
        match &mut self.inner {
            OpVecIter::Inline(it) => it.next(),
            OpVecIter::Spill(it) => it.next(),
        }
    }
}

impl IntoIterator for OpVec {
    type Item = ValueRef;
    type IntoIter = OpVecIntoIter;
    fn into_iter(self) -> Self::IntoIter {
        OpVecIntoIter {
            inner: match self.repr {
                Repr::Spill(v) => OpVecIter::Spill(v.into_iter()),
                Repr::Inline { len, buf } => OpVecIter::Inline(buf.into_iter().take(len as usize)),
            },
        }
    }
}

/// One use of an instruction result: which instruction reads it, and at
/// which operand slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Use {
    /// The instruction whose operand list contains the use.
    pub user: Ptr<crate::inst::Instruction>,
    /// Index into the user's operand list.
    pub slot: u32,
}

/// An index-linked use-def table for one function.
///
/// Flat CSR layout — one `offsets` entry per instruction plus a shared
/// `uses` array — so building it performs exactly two allocations no
/// matter how large the function is, and `uses_of` is a slice lookup.
/// The table is a snapshot: rebuild after mutating operand lists.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UseIndex {
    /// `offsets[i]..offsets[i + 1]` bounds instruction `i`'s uses in `uses`.
    offsets: Vec<u32>,
    uses: Vec<Use>,
}

impl UseIndex {
    /// Builds the use-def table of `f` from its operand lists.
    pub fn build(f: &crate::module::Function) -> UseIndex {
        let n = f.insts.len();
        // Count pass.
        let mut offsets = vec![0u32; n + 1];
        for inst in f.insts.iter() {
            for op in inst.operands.iter() {
                if let ValueRef::Inst(def) = op {
                    offsets[def.index() + 1] += 1;
                }
            }
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        // Fill pass (cursor per def).
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut uses = vec![
            Use {
                user: Ptr::new(0),
                slot: 0
            };
            offsets[n] as usize
        ];
        for (i, inst) in f.insts.iter().enumerate() {
            for (slot, op) in inst.operands.iter().enumerate() {
                if let ValueRef::Inst(def) = op {
                    let c = &mut cursor[def.index()];
                    uses[*c as usize] = Use {
                        user: Ptr::from_usize(i),
                        slot: slot as u32,
                    };
                    *c += 1;
                }
            }
        }
        UseIndex { offsets, uses }
    }

    /// All uses of `def`'s result, in instruction order.
    pub fn uses_of(&self, def: Ptr<crate::inst::Instruction>) -> &[Use] {
        let lo = self.offsets[def.index()] as usize;
        let hi = self.offsets[def.index() + 1] as usize;
        &self.uses[lo..hi]
    }

    /// Number of instructions the table covers.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the table covers no instructions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Observability hook for tests and benches: number of parked buffers in
/// this thread's recycling slab for each entity type, in the order
/// `[instructions, blocks, functions, globals, asms]`.
pub fn slab_depths() -> [usize; 5] {
    [
        crate::inst::Instruction::with_slab(|s| s.len()),
        crate::module::BasicBlock::with_slab(|s| s.len()),
        crate::module::Function::with_slab(|s| s.len()),
        crate::module::Global::with_slab(|s| s.len()),
        crate::module::InlineAsm::with_slab(|s| s.len()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Instruction;

    #[test]
    fn ptr_debug_matches_legacy_newtype_format() {
        let p: Ptr<Instruction> = Ptr::new(3);
        assert_eq!(format!("{p:?}"), "InstId(3)");
        let b: Ptr<crate::module::BasicBlock> = Ptr::new(0);
        assert_eq!(format!("{b:?}"), "BlockId(0)");
    }

    #[test]
    fn opvec_inline_then_spill() {
        let mut v = OpVec::new();
        let mk = |i| ValueRef::Arg(i);
        for i in 0..OpVec::INLINE as u32 {
            v.push(mk(i));
        }
        assert_eq!(v.len(), OpVec::INLINE);
        v.push(mk(9));
        assert_eq!(v.len(), OpVec::INLINE + 1);
        assert_eq!(v[OpVec::INLINE], ValueRef::Arg(9));
        assert_eq!(v.pop(), Some(ValueRef::Arg(9)));
        v.truncate(2);
        assert_eq!(&v[..], &[ValueRef::Arg(0), ValueRef::Arg(1)]);
    }

    #[test]
    fn opvec_debug_and_eq_match_slice_semantics() {
        let a: OpVec = [ValueRef::Arg(1), ValueRef::Arg(2)].into();
        let b: OpVec = vec![ValueRef::Arg(1), ValueRef::Arg(2)].into();
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{:?}", &a[..]));
        let owned: Vec<ValueRef> = a.clone().into_iter().collect();
        assert_eq!(owned, &b[..]);
    }

    #[test]
    fn arena_recycles_buffers_through_drop() {
        let baseline = slab_depths()[0];
        {
            let mut a: Arena<Instruction> = Arena::new();
            let mut t = crate::types::TypeTable::new();
            let i32t = t.i32();
            a.alloc(Instruction::new(crate::Opcode::Ret, i32t, OpVec::new()));
            assert_eq!(a.len(), 1);
        }
        assert_eq!(slab_depths()[0], baseline + 1);
        // The next arena takes the parked buffer back.
        let a: Arena<Instruction> = Arena::new();
        assert_eq!(slab_depths()[0], baseline);
        assert!(a.is_empty());
    }
}
