//! Verifies the bounded-memory claim of the ingest layer: parsing streams
//! through one reusable line buffer, so the heap traffic of a read is a
//! function of the *graph* (builder arrays, CSR output), not of how many
//! input lines carried it. A parser that allocates per line — the old
//! `reader.lines()` shape, one `String` per iteration — fails this by
//! tens of thousands of allocations.
//!
//! This file holds a single test: the counting global allocator is
//! process-wide state, and a second concurrently-running test would
//! perturb the count (same discipline as `alloc_free_replay.rs` in
//! gcol-simt).

use gcol_graph::io::read_matrix_market;
use gcol_graph::Csr;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::BufReader;
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

/// Allocation count of one parse, minimized over a few runs so that no
/// one-time cost is charged to either input. The builder's own count is
/// constant in the graph size (`build_alloc.rs` pins that), so what is
/// left to vary is the parser's.
fn min_allocs_of(text: &str) -> (u64, Csr) {
    let mut best = u64::MAX;
    let mut graph = None;
    for _ in 0..3 {
        let before = ALLOCS.load(Ordering::Relaxed);
        let g = read_matrix_market(BufReader::new(text.as_bytes())).unwrap();
        let spent = ALLOCS.load(Ordering::Relaxed) - before;
        best = best.min(spent);
        graph = Some(g);
    }
    (best, graph.unwrap())
}

#[test]
fn ingest_allocations_do_not_scale_with_input_lines() {
    const FILLER_LINES: usize = 30_000;

    // The same graph twice: once compact, once bloated with 30k comment
    // lines. Build both strings BEFORE counting starts.
    let g = gcol_graph::gen::simple::erdos_renyi(200, 800, 3);
    let mut plain = Vec::new();
    gcol_graph::io::write_matrix_market(&g, &mut plain).unwrap();
    let plain = String::from_utf8(plain).unwrap();
    let (banner, rest) = plain.split_once('\n').unwrap();
    let mut bloated = String::with_capacity(plain.len() + FILLER_LINES * 48);
    bloated.push_str(banner);
    bloated.push('\n');
    for i in 0..FILLER_LINES {
        bloated.push_str("% filler comment, nothing to see on line ");
        bloated.push_str(&i.to_string());
        bloated.push('\n');
    }
    bloated.push_str(rest);

    // Warm-up: pays any one-time cost before counting.
    let _ = read_matrix_market(BufReader::new(plain.as_bytes())).unwrap();

    let (allocs_plain, g_plain) = min_allocs_of(&plain);
    let (allocs_bloated, g_bloated) = min_allocs_of(&bloated);

    // Same bytes modulo comments — must be the same graph.
    assert_eq!(g_plain, g_bloated);
    assert_eq!(g_plain.content_fingerprint(), g.content_fingerprint());

    // A per-line-allocating parser pays ≥ 1 allocation per filler line
    // (30k+). The streaming cursor pays only occasional line-buffer
    // growth; the generous slack below stays two orders of magnitude
    // under the failure mode.
    let delta = allocs_bloated.saturating_sub(allocs_plain);
    assert!(
        delta < (FILLER_LINES / 10) as u64,
        "parsing {FILLER_LINES} extra comment lines cost {delta} extra allocations \
         ({allocs_plain} plain vs {allocs_bloated} bloated): the reader is \
         allocating per line again"
    );
}
