//! Byte-addressable memory for the IR interpreter.
//!
//! Every allocation (stack slot, heap object, global) occupies a disjoint
//! address range; address 0 is never mapped, so null dereferences trap, and
//! freed ranges stay reserved so use-after-free traps too.

use std::collections::BTreeMap;

use super::{Trap, TrapKind};

/// Where an allocation came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocKind {
    /// `alloca` stack slot.
    Stack,
    /// `malloc`-family heap object.
    Heap,
    /// Global variable storage.
    Global,
    /// Synthetic function-address cell (for indirect calls).
    Code,
}

#[derive(Debug)]
struct Allocation {
    base: u64,
    data: Vec<u8>,
    kind: AllocKind,
    live: bool,
}

/// The interpreter's address space.
#[derive(Debug, Default)]
pub struct Memory {
    /// Allocations keyed by base address.
    allocs: BTreeMap<u64, Allocation>,
    next: u64,
}

const BASE_ADDR: u64 = 0x1000;
const GUARD: u64 = 16;

impl Memory {
    /// Creates an empty address space.
    pub fn new() -> Self {
        Memory {
            allocs: BTreeMap::new(),
            next: BASE_ADDR,
        }
    }

    /// Allocates `size` zeroed bytes and returns the base address.
    pub fn alloc(&mut self, size: u64, kind: AllocKind) -> u64 {
        self.alloc_init(vec![0; size.max(1) as usize], kind)
    }

    /// Allocates a block holding `data` (one zero byte when `data` is
    /// empty) and returns the base address.
    pub fn alloc_init(&mut self, mut data: Vec<u8>, kind: AllocKind) -> u64 {
        if data.is_empty() {
            data.push(0);
        }
        let base = self.next;
        self.next = base + data.len() as u64 + GUARD;
        self.allocs.insert(
            base,
            Allocation {
                base,
                data,
                kind,
                live: true,
            },
        );
        base
    }

    /// Frees a heap allocation at exactly `addr`.
    pub fn free(&mut self, addr: u64) -> Result<(), Trap> {
        if addr == 0 {
            // free(NULL) is a no-op, as in C.
            return Ok(());
        }
        match self.allocs.get_mut(&addr) {
            Some(a) if a.kind == AllocKind::Heap && a.live => {
                a.live = false;
                Ok(())
            }
            Some(a) if !a.live => Err(Trap::new(
                TrapKind::DoubleFree,
                format!("double free at {addr:#x}"),
            )),
            _ => Err(Trap::new(
                TrapKind::InvalidFree,
                format!("free of non-heap address {addr:#x}"),
            )),
        }
    }

    /// Marks a stack allocation dead (function return).
    pub fn kill_stack(&mut self, addr: u64) {
        if let Some(a) = self.allocs.get_mut(&addr) {
            if a.kind == AllocKind::Stack {
                a.live = false;
            }
        }
    }

    fn find(&self, addr: u64, len: u64) -> Result<&Allocation, Trap> {
        if addr == 0 {
            return Err(Trap::new(TrapKind::NullDeref, "null dereference".into()));
        }
        let (_, a) = self
            .allocs
            .range(..=addr)
            .next_back()
            .ok_or_else(|| oob(addr))?;
        let end = a.base + a.data.len() as u64;
        if addr + len > end {
            return Err(oob(addr));
        }
        if !a.live {
            return Err(Trap::new(
                TrapKind::UseAfterFree,
                format!("access to freed memory at {addr:#x}"),
            ));
        }
        Ok(a)
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read(&self, addr: u64, len: u64) -> Result<Vec<u8>, Trap> {
        let a = self.find(addr, len)?;
        let off = (addr - a.base) as usize;
        Ok(a.data[off..off + len as usize].to_vec())
    }

    /// Writes `bytes` starting at `addr`.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), Trap> {
        let a = self.find(addr, bytes.len() as u64)?;
        let base = a.base;
        let off = (addr - base) as usize;
        let a = self.allocs.get_mut(&base).unwrap();
        a.data[off..off + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Number of live heap allocations (for leak accounting in tests).
    pub fn live_heap_count(&self) -> usize {
        self.allocs
            .values()
            .filter(|a| a.kind == AllocKind::Heap && a.live)
            .count()
    }
}

fn oob(addr: u64) -> Trap {
    Trap::new(
        TrapKind::OutOfBounds,
        format!("out-of-bounds access at {addr:#x}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_write_roundtrip() {
        let mut m = Memory::new();
        let p = m.alloc(8, AllocKind::Heap);
        m.write(p, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.read(p, 4).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(m.read(p + 2, 2).unwrap(), vec![3, 4]);
    }

    #[test]
    fn null_deref_traps() {
        let m = Memory::new();
        let t = m.read(0, 1).unwrap_err();
        assert_eq!(t.kind, TrapKind::NullDeref);
    }

    #[test]
    fn use_after_free_traps() {
        let mut m = Memory::new();
        let p = m.alloc(8, AllocKind::Heap);
        m.free(p).unwrap();
        let t = m.read(p, 1).unwrap_err();
        assert_eq!(t.kind, TrapKind::UseAfterFree);
    }

    #[test]
    fn double_free_traps() {
        let mut m = Memory::new();
        let p = m.alloc(8, AllocKind::Heap);
        m.free(p).unwrap();
        assert_eq!(m.free(p).unwrap_err().kind, TrapKind::DoubleFree);
    }

    #[test]
    fn free_null_is_noop() {
        let mut m = Memory::new();
        assert!(m.free(0).is_ok());
    }

    #[test]
    fn out_of_bounds_traps() {
        let mut m = Memory::new();
        let p = m.alloc(4, AllocKind::Stack);
        assert_eq!(m.read(p, 5).unwrap_err().kind, TrapKind::OutOfBounds);
        assert_eq!(m.read(p + 100, 1).unwrap_err().kind, TrapKind::OutOfBounds);
    }

    #[test]
    fn leak_accounting() {
        let mut m = Memory::new();
        let a = m.alloc(4, AllocKind::Heap);
        let _b = m.alloc(4, AllocKind::Heap);
        assert_eq!(m.live_heap_count(), 2);
        m.free(a).unwrap();
        assert_eq!(m.live_heap_count(), 1);
    }
}
