//! The per-thread block cache, installed as this test binary's global
//! allocator: blocks keep their bytes across threads and size changes,
//! layouts outside the classes go to `System`, a thread never holds more
//! than the cap, and an exiting thread hands its blocks back.

use std::alloc::{GlobalAlloc, Layout};
use std::collections::HashSet;
use std::sync::mpsc;
use std::thread;

use siro_serve::thread_cache::{
    cached_bytes, returned_at_exit, ThreadCache, CLASS_STEP, MAX_CACHED_BYTES, MAX_CACHED_SIZE,
};

#[global_allocator]
static GLOBAL: ThreadCache = ThreadCache;

fn layout(size: usize, align: usize) -> Layout {
    Layout::from_size_align(size, align).expect("valid layout")
}

/// Fills `len` bytes at `p` with a pattern derived from `seed`.
fn fill(p: *mut u8, len: usize, seed: u8) {
    for i in 0..len {
        // SAFETY: the caller owns `len` bytes at `p`.
        unsafe { p.add(i).write(seed.wrapping_add(i as u8)) };
    }
}

/// Whether the first `len` bytes at `p` still hold `fill`'s pattern.
fn holds(p: *const u8, len: usize, seed: u8) -> bool {
    // SAFETY: the caller owns `len` bytes at `p`.
    (0..len).all(|i| unsafe { p.add(i).read() } == seed.wrapping_add(i as u8))
}

#[test]
fn a_freed_block_is_reused_by_its_class() {
    let l = layout(40, 8);
    // SAFETY: each block is used within its layout and freed once.
    unsafe {
        let a = GLOBAL.alloc(l);
        assert!(!a.is_null());
        GLOBAL.dealloc(a, l);
        let before = cached_bytes();
        // 33..=48 bytes share a class.
        let b = GLOBAL.alloc(layout(48, 16));
        assert_eq!(a, b, "the cached block is handed out again");
        assert_eq!(cached_bytes(), before - 48);
        GLOBAL.dealloc(b, layout(48, 16));
    }
}

#[test]
fn alloc_zeroed_clears_a_reused_block() {
    let l = layout(56, 8);
    // SAFETY: each block is used within its layout and freed once.
    unsafe {
        let a = GLOBAL.alloc(l);
        fill(a, 64, 0xA5);
        GLOBAL.dealloc(a, l);
        let z = GLOBAL.alloc_zeroed(l);
        assert_eq!(a, z, "the dirty block is the one reused");
        assert!((0..56).all(|i| z.add(i).read() == 0));
        GLOBAL.dealloc(z, l);
    }
}

#[test]
fn realloc_keeps_the_bytes_within_and_across_classes_and_beyond_them() {
    // SAFETY: each block is used within its current layout and freed once.
    unsafe {
        let mut l = layout(20, 4);
        let p = GLOBAL.alloc(l);
        fill(p, 20, 7);
        // Within one class (17..=32): the same block.
        let q = GLOBAL.realloc(p, l, 30);
        assert_eq!(p, q);
        l = layout(30, 4);
        assert!(holds(q, 20, 7));
        fill(q, 30, 9);
        // Across classes.
        let r = GLOBAL.realloc(q, l, 200);
        l = layout(200, 4);
        assert!(holds(r, 30, 9));
        fill(r, 200, 11);
        // From a class to beyond the classes.
        let s = GLOBAL.realloc(r, l, 5000);
        l = layout(5000, 4);
        assert!(holds(s, 200, 11));
        fill(s, 5000, 13);
        // Beyond the classes on both sides.
        let t = GLOBAL.realloc(s, l, 9000);
        l = layout(9000, 4);
        assert!(holds(t, 5000, 13));
        // Back into a class.
        let u = GLOBAL.realloc(t, l, 100);
        l = layout(100, 4);
        assert!(holds(u, 100, 13));
        // Down a class.
        let v = GLOBAL.realloc(u, l, 10);
        l = layout(10, 4);
        assert!(holds(v, 10, 13));
        GLOBAL.dealloc(v, l);
    }
}

#[test]
fn alignment_above_the_class_step_bypasses_the_cache() {
    for align in [2 * CLASS_STEP, 64, 4096] {
        for size in [8, 64, 1000, 3000] {
            let l = layout(size, align);
            // SAFETY: each block is used within its current layout and
            // freed once.
            unsafe {
                let before = cached_bytes();
                let p = GLOBAL.alloc(l);
                assert_eq!(p as usize % align, 0, "{size} bytes at align {align}");
                fill(p, size, 3);
                let q = GLOBAL.realloc(p, l, size * 2);
                assert_eq!(q as usize % align, 0);
                assert!(holds(q, size, 3));
                GLOBAL.dealloc(q, layout(size * 2, align));
                assert_eq!(
                    cached_bytes(),
                    before,
                    "over-aligned blocks are never cached"
                );
                let z = GLOBAL.alloc_zeroed(l);
                assert_eq!(z as usize % align, 0);
                assert!((0..size).all(|i| z.add(i).read() == 0));
                GLOBAL.dealloc(z, l);
            }
        }
    }
}

#[test]
fn blocks_freed_on_another_thread_serve_that_thread() {
    let (tx, rx) = mpsc::channel::<Vec<Box<[u8; 96]>>>();
    let producer = thread::spawn(move || {
        let boxes: Vec<Box<[u8; 96]>> = (0..256u32).map(|i| Box::new([i as u8; 96])).collect();
        tx.send(boxes).expect("consumer alive");
    });
    let consumer = thread::spawn(move || {
        let boxes = rx.recv().expect("producer sent");
        for (i, b) in boxes.iter().enumerate() {
            assert!(b.iter().all(|&x| x == i as u8), "block {i} kept its bytes");
        }
        let freed: HashSet<usize> = boxes.iter().map(|b| &**b as *const _ as usize).collect();
        let before = cached_bytes();
        drop(boxes);
        assert!(cached_bytes() >= before + 256 * 96);
        // This thread's next blocks of that class are the producer's.
        let again: Vec<Box<[u8; 96]>> = (0..256).map(|_| Box::new([0xEE; 96])).collect();
        let reused = again
            .iter()
            .filter(|b| freed.contains(&(&***b as *const _ as usize)))
            .count();
        assert_eq!(reused, 256);
        assert!(again.iter().all(|b| b.iter().all(|&x| x == 0xEE)));
    });
    producer.join().expect("producer");
    consumer.join().expect("consumer");
}

#[test]
fn a_thread_caches_at_most_the_cap() {
    thread::spawn(|| {
        let n = 2 * MAX_CACHED_BYTES / MAX_CACHED_SIZE;
        let blocks: Vec<Vec<u8>> = (0..n).map(|_| vec![1u8; MAX_CACHED_SIZE]).collect();
        drop(blocks);
        let held = cached_bytes();
        assert!(held <= MAX_CACHED_BYTES, "{held} bytes cached");
        assert!(
            held > MAX_CACHED_BYTES - MAX_CACHED_SIZE,
            "{held} bytes cached"
        );
    })
    .join()
    .expect("cap thread");
}

#[test]
fn exiting_threads_hand_their_blocks_back() {
    const THREADS: usize = 64;
    const AT_ONCE: usize = 4;
    let before = returned_at_exit();
    let mut held = 0;
    for _ in 0..THREADS / AT_ONCE {
        let workers: Vec<_> = (0..AT_ONCE)
            .map(|_| {
                thread::spawn(|| {
                    let names: Vec<String> = (0..2000).map(|i| format!("fn_{i:08}")).collect();
                    drop(names);
                    let held = cached_bytes();
                    assert!(held >= 2000 * CLASS_STEP, "{held} bytes cached");
                    held
                })
            })
            .collect();
        // `join` returns once the thread, its TLS destructors included,
        // has finished.
        held += workers
            .into_iter()
            .map(|w| w.join().expect("worker"))
            .sum::<usize>();
    }
    let returned = returned_at_exit() - before;
    assert!(
        returned >= held,
        "{THREADS} exited threads held {held} bytes but returned {returned}"
    );
}
