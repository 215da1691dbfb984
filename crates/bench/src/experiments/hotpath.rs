//! Wall-clock hot-path timer: times the simulator's execute-trace-replay
//! loop end to end, without criterion, so regressions are measurable in
//! constrained environments (and by the CI smoke gate).
//!
//! Runs the requested schemes on an rmat-er graph at `--scale` and
//! prints, per repeat: host wall-clock, modeled time, colors,
//! iterations, and a digest of every modeled hardware counter. The digest
//! is the equivalence check: any change to the timing model's arithmetic
//! shows up as a different digest on the same workload.
//!
//! ```text
//! cargo run --release -p gcol-bench -- hotpath --scale 14 --repeat 3
//! ```
//!
//! `--backend native` runs the same schemes on the rayon backend instead
//! (no modeled time or counters — the digest is all zeros), which gives
//! the simulated-vs-native wall-clock A/B comparison. The native
//! backend records its kernels as host wall-clock phases, so there that
//! column is printed as `kernel_wall_ms=`, not `modeled_ms=`.

use super::ExpConfig;
use gcol_core::{BackendKind, Scheme};
use gcol_graph::gen::{self, RmatParams};
use gcol_simt::{Device, Phase, RunProfile};

/// Sums every integer counter of every kernel launch into one line a
/// human can diff; floats are excluded so the digest is exact.
fn digest(profile: &RunProfile) -> String {
    let (mut cycles, mut instr, mut txn, mut dram) = (0u64, 0u64, 0u64, 0u64);
    let (mut ro_h, mut ro_m, mut l2_h, mut l2_m) = (0u64, 0u64, 0u64, 0u64);
    let (mut atomics, mut serial, mut kernels) = (0u64, 0u64, 0u64);
    for p in &profile.phases {
        if let Phase::Kernel(k) = p {
            kernels += 1;
            cycles += k.cycles;
            instr += k.instructions;
            txn += k.mem_transactions;
            dram += k.dram_bytes;
            ro_h += k.ro_hits;
            ro_m += k.ro_misses;
            l2_h += k.l2_hits;
            l2_m += k.l2_misses;
            atomics += k.atomics;
            serial += k.atomic_serial_cycles;
        }
    }
    format!(
        "kernels={kernels} cycles={cycles} instr={instr} txn={txn} dram={dram} \
         ro={ro_h}/{ro_m} l2={l2_h}/{l2_m} atomics={atomics} serial={serial}"
    )
}

/// Times every scheme `repeat` times on rmat-er at `cfg.scale`.
/// Panics on a [`gcol_core::ColorError`]: a timing gate must not pass
/// by skipping the scheme it times.
pub fn run(cfg: &ExpConfig, schemes: &[Scheme], repeat: usize) -> String {
    let scale = cfg.scale;
    let t0 = std::time::Instant::now();
    let g = gen::rmat(RmatParams::erdos_renyi(scale, 20), 0xE5);
    eprintln!(
        "graph: rmat-er scale {scale} ({} vertices, {} edges) built in {:.1}ms",
        g.num_vertices(),
        g.num_edges(),
        t0.elapsed().as_secs_f64() * 1e3
    );

    let dev = Device::k20c();
    let color_opts = cfg.color_options();
    eprintln!("backend: {}", cfg.backend);
    // The sanitizer wraps the simulator, so only native time is wall.
    let recorded = match cfg.backend {
        BackendKind::Native => "kernel_wall_ms",
        BackendKind::Simt | BackendKind::Sanitize => "modeled_ms",
    };
    let mut out = String::new();
    for scheme in schemes {
        for rep in 0..repeat {
            let t = std::time::Instant::now();
            let c = scheme
                .try_color(&g, &dev, &color_opts)
                .unwrap_or_else(|e| panic!("{scheme}: {e}"));
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            out.push_str(&format!(
                "{name} rep={rep} wall_ms={wall_ms:.1} {recorded}={ms:.3} \
                 colors={colors} iters={iters}\n  {digest}\n",
                name = scheme.name(),
                ms = c.total_ms(),
                colors = c.num_colors,
                iters = c.iterations,
                digest = digest(&c.profile),
            ));
        }
    }
    out
}
