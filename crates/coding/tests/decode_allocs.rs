//! Allocation counts of one cyclic-repetition decode, pinned.
//!
//! A `System` wrapper installed as the global allocator counts allocations
//! and requested bytes in thread-local counters, so each test sees only the
//! allocations of its own thread. The call measured is the one the master
//! makes on the message that reaches the threshold:
//! `decoding_coefficients` on `n − r + 1` workers in arrival order, at the
//! benchmark's `(200, 10)` and at `(1000, 10)`.
//!
//! What the counts hold: the decode builds no dense `B_F` and keeps the
//! whole factorization in one buffer, so the number of allocations does not
//! grow with `n` and the bytes grow as `n·r`, not `n²`.

use bcc_coding::CyclicRepetitionScheme;
use bcc_stats::rng::derive_rng;
use rand::seq::SliceRandom;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: a thread being torn down has no counters left to bump.
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + size));
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations and requested bytes made on this thread while `f` runs.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (a0, b0) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    let (a1, b1) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    (out, a1 - a0, b1 - b0)
}

/// Allocations and bytes of one decode at `(n, r)`, the most of each over a
/// few threshold sets: a wrapping block of stragglers and random ones.
fn decode_cost(n: usize, r: usize) -> (usize, usize) {
    let scheme = CyclicRepetitionScheme::new(n, r, &mut derive_rng(3, 0));
    let threshold = scheme.recovery_threshold();
    let wrapping: Vec<usize> = (0..threshold).map(|k| (n - 2 + r + k) % n).collect();
    let mut sets = vec![wrapping];
    for draw in 0..4 {
        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(&mut derive_rng(3, 1 + draw));
        ids.truncate(threshold);
        sets.push(ids);
    }
    sets.iter().fold((0, 0), |(allocs, bytes), received| {
        let (a, calls, size) = counted(|| scheme.decoding_coefficients(received));
        assert!(a.is_some(), "a threshold set decodes");
        (allocs.max(calls), bytes.max(size))
    })
}

/// Pinned: the same count at every size (the dense path this replaced made
/// 384 allocations at `(200, 10)` and 1984 at `(1000, 10)`).
const ALLOCS_PER_DECODE: usize = 15;

/// The bytes requested stay under this many `f64`s per coefficient of `B`
/// (≈ 6 measured at both sizes; the dense path's `n²` made it ≈ 24 at
/// `(200, 10)` and ≈ 105 at `(1000, 10)`).
const F64S_PER_COEFFICIENT: usize = 8;

fn assert_pinned(n: usize, r: usize) {
    let (allocs, bytes) = decode_cost(n, r);
    assert_eq!(allocs, ALLOCS_PER_DECODE, "n {n}, r {r}");
    let budget = F64S_PER_COEFFICIENT * n * r * size_of::<f64>();
    assert!(bytes <= budget, "n {n}, r {r}: {bytes} bytes > {budget}");
}

#[test]
fn one_decode_at_the_benchmark_scale() {
    assert_pinned(200, 10);
}

#[test]
fn one_decode_at_a_thousand_workers() {
    assert_pinned(1000, 10);
}
