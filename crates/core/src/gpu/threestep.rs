//! The 3-step GM baseline of Grosset et al. (PPoPP'11 poster; §II-C of the
//! paper): (1) partition the graph on the host and identify boundary
//! vertices, (2) color + detect conflicts on the GPU for a fixed number of
//! rounds — shipping the color array back to the host after every round,
//! as their framework's step boundaries do — and (3) resolve all remaining
//! conflicts *sequentially on the CPU*.
//!
//! This is the baseline whose Fig.-1 behavior motivates the paper: decent
//! color counts (it is greedy underneath) but *slower than the sequential
//! implementation* (≈0.66× on average), because the host round trips and
//! the sequential conflict scan + resolution dominate. Our model charges
//! exactly those components: PCIe transfers per round, the CPU-model cost
//! of the sequential conflict sweep (which must touch every edge) and of
//! recoloring the conflicted vertices.

use super::{pass_marker, speculative_first_fit, GpuGraph, SpecGreedyDriver};
use crate::{ColorError, ColorOptions, Coloring, Scheme};
use gcol_graph::check::Color;
use gcol_graph::partition::Partitioning;
use gcol_graph::Csr;
use gcol_simt::mem::Buffer;
use gcol_simt::{grid_for, Backend, CpuModel, Kernel, KernelCtx};

/// GPU round, step 2a: first-fit color every uncolored vertex (plain `ld`
/// everywhere — the 2011 implementation predates `__ldg`).
struct StepColor {
    g: GpuGraph,
    color: Buffer<u32>,
    colored: Buffer<u32>,
    pass: u32,
}

impl Kernel for StepColor {
    fn name(&self) -> &'static str {
        "3step-color"
    }
    fn run(&self, t: &mut impl KernelCtx) {
        let v = t.global_id();
        if v as usize >= self.g.n {
            return;
        }
        t.alu(2);
        if t.ld(self.colored, v as usize) != 0 {
            return;
        }
        let marker = pass_marker(self.pass, self.g.n, v);
        let c = speculative_first_fit(t, &self.g, self.color, v, marker, false);
        t.st_warp(self.color, v as usize, c);
        t.st(self.colored, v as usize, 1);
    }
}

/// GPU round, step 2b: mark the smaller endpoint of each monochromatic
/// edge uncolored. Only boundary vertices can conflict across partitions,
/// but the 3-step framework still scans every vertex.
struct StepDetect {
    g: GpuGraph,
    color: Buffer<u32>,
    colored: Buffer<u32>,
}

impl Kernel for StepDetect {
    fn name(&self) -> &'static str {
        "3step-detect"
    }
    fn run(&self, t: &mut impl KernelCtx) {
        let v = t.global_id();
        if v as usize >= self.g.n {
            return;
        }
        let cv = t.ld(self.color, v as usize);
        if cv == 0 {
            return;
        }
        let start = t.ld(self.g.r, v as usize) as usize;
        let end = t.ld(self.g.r, v as usize + 1) as usize;
        for e in start..end {
            let w = t.ld(self.g.c, e);
            t.alu(3);
            if v < w && cv == t.ld(self.color, w as usize) {
                t.st(self.colored, v as usize, 0);
                return;
            }
        }
    }
}

/// Runs the 3-step GM baseline: host partitioning, `opts.threestep_rounds`
/// GPU rounds with per-round host round trips, then sequential CPU
/// conflict resolution.
pub fn color_threestep<B: Backend>(
    g: &Csr,
    backend: &B,
    opts: &ColorOptions,
) -> Result<Coloring, ColorError> {
    let n = g.num_vertices();
    let cpu = CpuModel::xeon_e5_2670();
    let mut d = SpecGreedyDriver::new(backend, Scheme::ThreeStepGm, g, opts);

    // Step 1: host-side partitioning + boundary identification — one full
    // pass over the edges on the CPU.
    let grid = grid_for(n, opts.block_size);
    let _boundary = Partitioning::contiguous(g, grid.max(1) as usize).boundary(g);
    d.profile.host(
        "partition + boundary detection",
        cpu.greedy_sweep_ms(n, g.num_edges()) * 0.5,
    );

    let color = d.alloc_vertex_buf();
    let colored = d.alloc_vertex_buf();
    d.label(color, "color");
    d.label(colored, "colored");
    // The 3-step framework always pays the graph upload inside its timed
    // region (its steps are separate host-driven stages).
    let up_bytes = d.upload_bytes(&[color, colored]);
    d.transfer("graph + colors h2d", up_bytes);

    let gg = d.gg;
    // Step 2: GPU rounds with a host round trip after each.
    let rounds = opts.threestep_rounds.max(1) as u32;
    for round in 0..rounds {
        d.launch(
            n,
            &StepColor {
                g: gg,
                color,
                colored,
                pass: round + 1,
            },
        );
        d.launch(
            n,
            &StepDetect {
                g: gg,
                color,
                colored,
            },
        );
        let back = 2 * n * 4; // colors + conflict flags
        d.transfer("colors + conflicts d2h", back);
        if round + 1 < rounds {
            // The framework re-stages the arrays before the next round.
            d.transfer("colors h2d", n * 4);
        }
    }

    // Step 3: sequential CPU conflict resolution. Finding the conflicts
    // requires scanning every edge on the host; each conflicted vertex is
    // then greedily recolored.
    let mut colors: Vec<Color> = d.read_colors(color);
    let colored_flags = if n == 0 {
        Vec::new()
    } else {
        d.mem.read_vec(colored)
    };
    let mut conflicted: Vec<u32> = (0..n as u32)
        .filter(|&v| colored_flags[v as usize] == 0 || colors[v as usize] == 0)
        .collect();
    // Deterministic host resolution in vertex order.
    conflicted.sort_unstable();
    let mut mask: Vec<u32> = vec![u32::MAX; g.max_degree() + 2];
    let mut resolved_edges = 0usize;
    for &v in &conflicted {
        for &w in g.neighbors(v) {
            mask[colors[w as usize] as usize] = v;
            resolved_edges += 1;
        }
        let mut c = 1usize;
        while mask[c] == v {
            c += 1;
        }
        colors[v as usize] = c as Color;
    }
    d.profile.host(
        "sequential conflict scan (all edges)",
        cpu.greedy_sweep_ms(n, g.num_edges()) * 0.8,
    );
    d.profile.host(
        "sequential conflict resolution",
        cpu.greedy_sweep_ms(conflicted.len(), resolved_edges),
    );

    let num_colors = colors.iter().copied().max().unwrap_or(0) as usize;
    Ok(Coloring {
        scheme: Scheme::ThreeStepGm,
        colors,
        num_colors,
        iterations: opts.threestep_rounds.max(1),
        profile: d.profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcol_graph::check::verify_coloring;
    use gcol_graph::gen::simple::{complete, cycle, erdos_renyi, star};
    use gcol_simt::{Device, ExecMode, SimtBackend};

    fn opts() -> ColorOptions {
        ColorOptions::default()
    }

    fn det(dev: &Device) -> SimtBackend<'_> {
        SimtBackend::new(dev, ExecMode::Deterministic)
    }

    #[test]
    fn valid_on_assorted_graphs() {
        let dev = Device::tiny();
        for g in [
            cycle(60),
            complete(12),
            star(200),
            erdos_renyi(1000, 6000, 3),
        ] {
            let r = color_threestep(&g, &det(&dev), &opts()).unwrap();
            verify_coloring(&g, &r.colors).unwrap();
            assert!(r.num_colors <= g.max_degree() + 1);
        }
    }

    #[test]
    fn greedy_quality() {
        let dev = Device::tiny();
        let g = erdos_renyi(2000, 16_000, 9);
        let seq = crate::seq::greedy_seq(&g, gcol_graph::ordering::Ordering::Natural);
        let r = color_threestep(&g, &det(&dev), &opts()).unwrap();
        assert!(
            (r.num_colors as i64 - seq.num_colors as i64).abs() <= 3,
            "3-step {} vs seq {}",
            r.num_colors,
            seq.num_colors
        );
    }

    #[test]
    fn pays_transfers_and_host_time() {
        // On the K20c the kernels themselves are fast; the host round
        // trips and the sequential step are what sink this baseline.
        let dev = Device::k20c();
        let g = erdos_renyi(3000, 20_000, 2);
        let r = color_threestep(&g, &det(&dev), &opts()).unwrap();
        assert!(r.profile.transfer_ms() > 0.0);
        assert!(r.profile.host_ms() > 0.0);
        assert!(r.profile.kernel_ms() > 0.0);
        assert!(r.profile.host_ms() + r.profile.transfer_ms() > r.profile.kernel_ms());
    }

    #[test]
    fn single_round_still_correct() {
        let dev = Device::tiny();
        let g = erdos_renyi(800, 5000, 4);
        let r = color_threestep(
            &g,
            &det(&dev),
            &ColorOptions {
                threestep_rounds: 1,
                ..opts()
            },
        )
        .unwrap();
        verify_coloring(&g, &r.colors).unwrap();
    }

    #[test]
    fn empty_graph() {
        let dev = Device::tiny();
        let r = color_threestep(&Csr::empty(0), &det(&dev), &opts()).unwrap();
        assert_eq!(r.num_colors, 0);
    }
}
