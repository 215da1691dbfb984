//! Pins the builder's allocation claim: [`CsrBuilder::build`] sorts,
//! deduplicates and compacts every row inside the scatter array, so it
//! makes the same small number of heap allocations on 2k vertices as on
//! 20k. A build that copies each row out into its own `Vec` (the old
//! per-vertex shape) pays one allocation per vertex and fails this.
//!
//! This file holds a single test: the counting global allocator is
//! process-wide state, and a second concurrently-running test would
//! perturb the count (same discipline as `ingest_alloc.rs`).

use gcol_graph::rng::Xoshiro256;
use gcol_graph::CsrBuilder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper that counts allocations.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A symmetrizing builder over `n` vertices holding `4n` random edges,
/// self loops and duplicates included, each added `copies` times.
fn filled_builder(n: usize, seed: u64, copies: usize) -> CsrBuilder {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut b = CsrBuilder::with_capacity(n, copies * 4 * n + 2);
    for _ in 0..4 * n {
        let u = rng.gen_range(n as u64) as u32;
        let v = rng.gen_range(n as u64) as u32;
        for _ in 0..copies {
            b.add_edge(u, v);
        }
    }
    b.add_edge(0, 1).add_edge(1, 0);
    b.symmetrize();
    b
}

#[test]
fn build_allocations_do_not_scale_with_vertices() {
    // Fill the builders BEFORE counting starts. The doubled one leaves
    // half of the scatter array as duplicates, which the build trims.
    let mut small = filled_builder(2_000, 5, 1);
    let mut large = filled_builder(20_000, 9, 1);
    let mut doubled = filled_builder(20_000, 9, 2);

    let mut spent = Vec::new();
    for b in [&mut small, &mut large, &mut doubled] {
        let before = ALLOCS.load(Ordering::Relaxed);
        let g = b.build();
        spent.push(ALLOCS.load(Ordering::Relaxed) - before);
        assert!(g.is_symmetric() && g.has_sorted_unique_neighbors());
    }
    assert_eq!(
        spent[0], spent[1],
        "build allocated {} times on 2k vertices but {} on 20k: \
         it is allocating per vertex again",
        spent[0], spent[1]
    );
    assert!(spent[0] <= 4, "build allocated {} times", spent[0]);
    assert_eq!(
        spent[2],
        spent[1] + 1,
        "trimming the duplicates out of `C` should cost exactly one realloc"
    );
}
