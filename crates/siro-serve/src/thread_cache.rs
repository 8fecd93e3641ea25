//! A per-thread block cache in front of the system allocator.
//!
//! A served request builds and drops a module: about 400 allocator calls
//! for a Tab. 4 payload, nearly all small blocks (names, parameter lists,
//! operand spills, hash tables), every one a `malloc` and a `free`. [`ThreadCache`] keeps the freed
//! small blocks of each thread on intrusive free lists, one per size
//! class, and hands them out again without calling the system allocator.
//! `src/bin/siro.rs` installs it as the `#[global_allocator]`, so the
//! daemon and the CLI both use it. Libraries and in-process users (the
//! benches, perfbench's traced replay) keep `System`.
//!
//! The rules:
//!
//! * Classes step by [`CLASS_STEP`] bytes up to [`MAX_CACHED_SIZE`], for
//!   alignments up to [`CLASS_STEP`]. Any other layout goes straight to
//!   [`System`].
//! * Every small block is allocated from [`System`], and returned to it,
//!   with its class layout, so a block may be freed on any thread, or
//!   after its thread's cache is gone.
//! * A thread holds at most [`MAX_CACHED_BYTES`]; a free past that cap goes
//!   to [`System`].
//! * `realloc` within one class returns the same block.
//! * The cache is reached with `try_with`: a thread whose cache has been
//!   torn down falls back to [`System`]. When a thread exits, its cached
//!   blocks go back to [`System`], so threads that come and go (synthesis
//!   fan-out) leak nothing.
//!
//! The cache's destructor is registered with glibc's
//! `__cxa_thread_atexit_impl`, which allocates with the C allocator, so
//! registering it never re-enters this one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ptr;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Size-class step in bytes, and the largest alignment a class serves:
/// glibc's `malloc` alignment on 64-bit targets, so a class block costs
/// what `malloc` of its size would.
pub const CLASS_STEP: usize = 16;

/// The largest size the cache serves. In steady state 97–99% of a Tab. 4
/// request's allocator calls ask for at most 1 KiB; the rest are larger
/// tables and buffers, among them the arena buffers that the arena slab
/// (`siro_ir::ctx`) recycles.
pub const MAX_CACHED_SIZE: usize = 1024;

/// The most bytes one thread's cache holds. After a request, a thread's
/// cache holds that request's peak of live small blocks: 16–112 KiB for
/// most Tab. 4 modules and 518 KiB for tmux, the largest. 1 MiB covers
/// that with room to spare, and bounds what the daemon's few threads can
/// hold at once.
pub const MAX_CACHED_BYTES: usize = 1 << 20;

const CLASSES: usize = MAX_CACHED_SIZE / CLASS_STEP;

/// Bytes that exiting threads' caches have handed back to [`System`].
static RETURNED_AT_EXIT: AtomicUsize = AtomicUsize::new(0);

/// The global allocator of the `siro` binary; see the module docs.
#[derive(Debug)]
pub struct ThreadCache;

/// One thread's free lists. Each free block stores the next one's address
/// in its first word.
struct Cache {
    heads: [Cell<*mut u8>; CLASSES],
    bytes: Cell<usize>,
}

thread_local! {
    static CACHE: Cache = const {
        Cache {
            heads: [const { Cell::new(ptr::null_mut()) }; CLASSES],
            bytes: Cell::new(0),
        }
    };
}

/// The class serving `layout`, if any.
fn class_of(layout: Layout) -> Option<usize> {
    (layout.size() <= MAX_CACHED_SIZE && layout.align() <= CLASS_STEP)
        .then(|| layout.size().saturating_sub(1) / CLASS_STEP)
}

/// The layout every block of class `c` is allocated and freed with.
fn class_layout(c: usize) -> Layout {
    debug_assert!(c < CLASSES);
    // SAFETY: the size is a multiple of the power-of-two alignment and at
    // most `MAX_CACHED_SIZE`.
    unsafe { Layout::from_size_align_unchecked((c + 1) * CLASS_STEP, CLASS_STEP) }
}

impl Cache {
    fn pop(&self, c: usize) -> Option<*mut u8> {
        let head = self.heads[c].get();
        if head.is_null() {
            return None;
        }
        // SAFETY: a listed block is a live `System` block of class `c`,
        // 16-aligned, whose first word `push` wrote.
        let next = unsafe { head.cast::<*mut u8>().read() };
        self.heads[c].set(next);
        self.bytes.set(self.bytes.get() - class_layout(c).size());
        Some(head)
    }

    /// Lists `block`, unless that would pass the cap.
    fn push(&self, c: usize, block: *mut u8) -> bool {
        let size = class_layout(c).size();
        if self.bytes.get() + size > MAX_CACHED_BYTES {
            return false;
        }
        // SAFETY: the caller owns `block`, a `System` block of class `c`,
        // at least one word long and 16-aligned.
        unsafe { block.cast::<*mut u8>().write(self.heads[c].get()) };
        self.heads[c].set(block);
        self.bytes.set(self.bytes.get() + size);
        true
    }
}

impl Drop for Cache {
    fn drop(&mut self) {
        let mut returned = 0;
        for c in 0..CLASSES {
            while let Some(block) = self.pop(c) {
                // SAFETY: listed blocks came from `System` with this layout.
                unsafe { System.dealloc(block, class_layout(c)) };
                returned += class_layout(c).size();
            }
        }
        RETURNED_AT_EXIT.fetch_add(returned, Ordering::Relaxed);
    }
}

/// Bytes the calling thread's cache holds; 0 once it is torn down, or when
/// [`ThreadCache`] is not the global allocator.
pub fn cached_bytes() -> usize {
    CACHE.try_with(|c| c.bytes.get()).unwrap_or(0)
}

/// Bytes that exiting threads' caches have handed back to the system
/// allocator since the process started.
pub fn returned_at_exit() -> usize {
    RETURNED_AT_EXIT.load(Ordering::Relaxed)
}

fn pop(c: usize) -> Option<*mut u8> {
    CACHE.try_with(|cache| cache.pop(c)).ok().flatten()
}

fn push(c: usize, block: *mut u8) -> bool {
    CACHE
        .try_with(|cache| cache.push(c, block))
        .unwrap_or(false)
}

// SAFETY: every block handed out is a `System` block at least as large and
// as aligned as its layout asks, owned by nobody else until it is freed;
// a class block is always allocated and freed with its class layout.
unsafe impl GlobalAlloc for ThreadCache {
    #[inline]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        match class_of(layout) {
            Some(c) => match pop(c) {
                Some(block) => block,
                // SAFETY: a class layout is non-zero.
                None => unsafe { System.alloc(class_layout(c)) },
            },
            // SAFETY: forwarded from the caller.
            None => unsafe { System.alloc(layout) },
        }
    }

    #[inline]
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        match class_of(layout) {
            Some(c) => match pop(c) {
                Some(block) => {
                    // SAFETY: the block holds at least `layout.size()` bytes.
                    unsafe { ptr::write_bytes(block, 0, layout.size()) };
                    block
                }
                // SAFETY: a class layout is non-zero.
                None => unsafe { System.alloc_zeroed(class_layout(c)) },
            },
            // SAFETY: forwarded from the caller.
            None => unsafe { System.alloc_zeroed(layout) },
        }
    }

    #[inline]
    unsafe fn dealloc(&self, block: *mut u8, layout: Layout) {
        match class_of(layout) {
            Some(c) => {
                if !push(c, block) {
                    // SAFETY: class blocks come from `System` with this layout.
                    unsafe { System.dealloc(block, class_layout(c)) }
                }
            }
            // SAFETY: forwarded from the caller.
            None => unsafe { System.dealloc(block, layout) },
        }
    }

    unsafe fn realloc(&self, block: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `new_size`, rounded up to
        // `layout.align()`, does not overflow `isize`.
        let new_layout = unsafe { Layout::from_size_align_unchecked(new_size, layout.align()) };
        match (class_of(layout), class_of(new_layout)) {
            (Some(a), Some(b)) if a == b => block,
            // SAFETY: a block outside the classes came from `System` with
            // exactly `layout`.
            (None, None) => unsafe { System.realloc(block, layout, new_size) },
            _ => {
                // SAFETY: `new_layout` is non-zero; the copy stays within
                // both blocks, which are distinct.
                unsafe {
                    let moved = self.alloc(new_layout);
                    if !moved.is_null() {
                        ptr::copy_nonoverlapping(block, moved, layout.size().min(new_size));
                        self.dealloc(block, layout);
                    }
                    moved
                }
            }
        }
    }
}
