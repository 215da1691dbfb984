//! Criterion benches for the SIMT executor hot path: the
//! trace-then-replay loop (`run_block` → `account_warp` → coalescing →
//! cache probes) that dominates every simulated kernel launch.
//!
//! These are the regression guards for the flat-`WarpTrace` /
//! single-pass-accounting overhaul: each bench pins one shape of replay
//! work so a slowdown in that path shows up in `cargo bench -p
//! gcol-bench --bench simt_hotpath` before it shows up in full figure
//! runs. Headline before/after wall-clock numbers for the overhaul live
//! in `BENCH_simt.json` at the repo root (measured with
//! `gcol-bench hotpath`, which these benches mirror at a
//! criterion-friendly scale).

use criterion::{criterion_group, criterion_main, Criterion};
use gcol_bench::suite::build_graph;
use gcol_core::{ColorOptions, Scheme};
use gcol_simt::{Device, ExecMode};
use std::hint::black_box;

fn opts() -> ColorOptions {
    ColorOptions {
        exec_mode: ExecMode::Deterministic,
        ..ColorOptions::default()
    }
}

/// The four paper schemes `gcol-bench hotpath` drives, at a scale criterion
/// can sample in seconds. Topology-driven schemes stress plain-`Ld`
/// (L2-only) replay; `*Ldg` variants add the read-only-cache probe path;
/// data-driven schemes add worklist atomics.
fn bench_coloring_replay(c: &mut Criterion) {
    let g = build_graph("rmat-er", 12);
    let dev = Device::k20c();
    let mut group = c.benchmark_group("simt-hotpath/rmat12");
    group.sample_size(10);
    for scheme in [
        Scheme::TopoBase,
        Scheme::TopoLdg,
        Scheme::DataBase,
        Scheme::DataLdg,
    ] {
        group.bench_function(scheme.name(), |b| {
            b.iter(|| scheme.color(black_box(&g), &dev, &opts()).num_colors)
        });
    }
    group.finish();
}

/// Replay with heavy atomic serialization (csrcolor's many small
/// kernels): exercises the divergent-slot fallback and
/// `atomic_access` far more than the topology schemes do.
fn bench_atomic_replay(c: &mut Criterion) {
    let g = build_graph("rmat-er", 12);
    let dev = Device::k20c();
    let mut group = c.benchmark_group("simt-hotpath/atomics");
    group.sample_size(10);
    group.bench_function("csrcolor", |b| {
        b.iter(|| {
            Scheme::CsrColor
                .color(black_box(&g), &dev, &opts())
                .num_colors
        })
    });
    group.finish();
}

criterion_group!(benches, bench_coloring_replay, bench_atomic_replay);
criterion_main!(benches);
