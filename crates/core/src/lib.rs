//! # gcol-core — parallel graph coloring algorithms
//!
//! The paper's seven evaluated schemes plus the CPU-parallel context
//! algorithms, behind one [`Scheme`] dispatch:
//!
//! | Scheme | Algorithm | Substrate |
//! |---|---|---|
//! | [`Scheme::Sequential`] | Alg. 1, first-fit greedy | CPU (modeled as the paper's Xeon E5-2670) |
//! | [`Scheme::ThreeStepGm`] | Grosset et al. 3-step | GPU + PCIe + sequential CPU resolution |
//! | [`Scheme::TopoBase`] / [`Scheme::TopoLdg`] | Alg. 4 | simulated K20c |
//! | [`Scheme::DataBase`] / [`Scheme::DataLdg`] | Alg. 5 + prefix-sum worklists | simulated K20c |
//! | [`Scheme::CsrColor`] | cuSPARSE multi-hash MIS | simulated K20c |
//! | [`Scheme::CpuGm`] | Alg. 2 | rayon multicore |
//! | [`Scheme::CpuJp`] | Alg. 3 | rayon multicore |
//!
//! Every scheme returns a [`Coloring`]: the colors themselves, the color
//! count, the iteration count and a modeled [`RunProfile`] timeline
//! (kernels + transfers + host phases), which is what the benchmark
//! harness turns into the paper's figures.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod balance;
pub mod d2;
pub mod gm;
pub mod gpu;
pub mod hash;
pub mod job;
pub mod jp;
pub mod jp_orderings;
pub mod rokos;
pub mod seq;

use gcol_graph::check::Color;
use gcol_graph::ordering::Ordering;
use gcol_graph::Csr;
use gcol_simt::{CpuModel, Device, ExecMode, NativeBackend, SimtBackend};
use serde::Serialize;

pub use gcol_graph::check::{
    compact_colors, count_colors, count_conflicts, verify_coloring, ColoringViolation,
};
pub use gcol_simt::{Backend, BackendKind, RunProfile, SanitizerReport};
pub use gpu::delta::{recolor_after_edits, recolor_delta, recolor_delta_sanitized};
pub use gpu::frontier::ExchangeKind;
pub use gpu::sanitize::color_sanitized;
pub use job::{Fingerprint, JobSpec};

/// Tuning knobs shared by every scheme.
#[derive(Debug, Clone)]
pub struct ColorOptions {
    /// Threads per block for the GPU schemes. The paper's default is 128
    /// (Fig. 8 shows it is the best average choice).
    pub block_size: u32,
    /// Simulator execution mode.
    pub exec_mode: ExecMode,
    /// Safety valve on speculate/detect rounds and MIS sweeps.
    pub max_iterations: usize,
    /// Seed for hash priorities (JP, csrcolor).
    pub seed: u64,
    /// Number of hash functions per csrcolor sweep (2N independent sets
    /// per sweep).
    pub num_hashes: usize,
    /// Vertex ordering for the sequential baseline.
    pub ordering: Ordering,
    /// GPU rounds before the 3-step baseline falls back to the CPU.
    pub threestep_rounds: usize,
    /// Charge the initial host-to-device copy to the GPU schemes. The
    /// paper excludes I/O and times computation only, so this defaults to
    /// `false`; the 3-step baseline always pays its mid-run transfers.
    pub charge_h2d: bool,
    /// Execution backend for the GPU schemes: the paper-faithful timing
    /// simulator (default) or the native rayon path.
    pub backend: BackendKind,
    /// Number of devices for the GPU schemes. With more than one, the
    /// graph is partitioned into that many shards, each colored on its
    /// own backend instance with ghost-frontier boundary-exchange rounds
    /// (see `gpu::sharded`). CPU schemes ignore it.
    pub num_shards: usize,
    /// Wire encoding for the sharded driver's ghost-frontier rounds:
    /// compressed deltas (default) or the dense full-frontier push.
    /// Single-device runs ignore it; labels are identical either way.
    pub exchange: ExchangeKind,
}

impl ColorOptions {
    /// Fluent setter: thread block size.
    ///
    /// ```
    /// use gcol_core::ColorOptions;
    /// let opts = ColorOptions::default().with_block_size(256).with_seed(7);
    /// assert_eq!(opts.block_size, 256);
    /// assert_eq!(opts.seed, 7);
    /// ```
    pub fn with_block_size(mut self, block_size: u32) -> Self {
        self.block_size = block_size;
        self
    }

    /// Fluent setter: execution mode.
    pub fn with_exec_mode(mut self, mode: ExecMode) -> Self {
        self.exec_mode = mode;
        self
    }

    /// Fluent setter: hash seed (JP, csrcolor).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Fluent setter: csrcolor hash-function count.
    pub fn with_num_hashes(mut self, n: usize) -> Self {
        self.num_hashes = n;
        self
    }

    /// Fluent setter: sequential-baseline vertex ordering.
    pub fn with_ordering(mut self, ordering: Ordering) -> Self {
        self.ordering = ordering;
        self
    }

    /// Fluent setter: execution backend for the GPU schemes.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Fluent setter: device/shard count for the GPU schemes.
    pub fn with_shards(mut self, num_shards: usize) -> Self {
        self.num_shards = num_shards;
        self
    }

    /// Fluent setter: ghost-frontier wire encoding for sharded runs.
    pub fn with_exchange(mut self, exchange: ExchangeKind) -> Self {
        self.exchange = exchange;
        self
    }
}

impl Default for ColorOptions {
    fn default() -> Self {
        Self {
            block_size: 128,
            exec_mode: ExecMode::Deterministic,
            max_iterations: 10_000,
            seed: 0x5EED_C010_7175,
            num_hashes: 2,
            ordering: Ordering::Natural,
            threestep_rounds: 2,
            charge_h2d: false,
            backend: BackendKind::Simt,
            num_shards: 1,
            exchange: ExchangeKind::default(),
        }
    }
}

/// Why a coloring run could not produce a result. Surfaced by
/// [`Scheme::try_color`]; the infallible [`Scheme::color`] panics on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColorError {
    /// The speculate/detect (or MIS-sweep) loop exceeded
    /// [`ColorOptions::max_iterations`] without converging.
    MaxIterations {
        /// The scheme that failed to converge.
        scheme: Scheme,
        /// The configured iteration cap.
        limit: usize,
    },
    /// The options are invalid for this scheme.
    InvalidOptions {
        /// The scheme that rejected them.
        scheme: Scheme,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for ColorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColorError::MaxIterations { scheme, limit } => {
                write!(f, "{} did not converge within {limit} iterations", scheme)
            }
            ColorError::InvalidOptions { scheme, reason } => {
                write!(f, "{}: invalid options: {reason}", scheme)
            }
        }
    }
}

impl std::error::Error for ColorError {}

/// The result of running one coloring scheme.
#[derive(Debug, Clone)]
pub struct Coloring {
    /// Which scheme produced this result.
    pub scheme: Scheme,
    /// Per-vertex colors, 1-based and dense (`1..=num_colors`).
    pub colors: Vec<Color>,
    /// Number of distinct colors used.
    pub num_colors: usize,
    /// Speculate/detect rounds (SGR), sweeps (csrcolor), or GPU rounds
    /// (3-step). 1 for the sequential baseline.
    pub iterations: usize,
    /// Modeled timeline: kernels, PCIe transfers, host phases.
    pub profile: RunProfile,
}

impl Coloring {
    /// Total modeled milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.profile.total_ms()
    }

    /// Groups vertices by color: `classes()[c]` holds every vertex of
    /// color `c + 1`, in increasing vertex order. This is the structure
    /// chromatic scheduling executes wave by wave.
    pub fn classes(&self) -> Vec<Vec<u32>> {
        let mut classes = vec![Vec::new(); self.num_colors];
        for (v, &c) in self.colors.iter().enumerate() {
            if c != 0 {
                classes[c as usize - 1].push(v as u32);
            }
        }
        classes
    }

    /// Sizes of the color classes (`classes()` without materializing the
    /// vertex lists).
    pub fn class_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_colors];
        for &c in &self.colors {
            if c != 0 {
                sizes[c as usize - 1] += 1;
            }
        }
        sizes
    }
}

/// The coloring schemes of the paper's evaluation (§IV) plus the two CPU
/// context algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Scheme {
    /// Algorithm 1 on one CPU core — the baseline of every speedup.
    Sequential,
    /// Grosset et al.'s 3-step GM (GPU + CPU round trips).
    ThreeStepGm,
    /// Algorithm 4, plain loads (T-base).
    TopoBase,
    /// Algorithm 4 with read-only-cache loads (T-ldg).
    TopoLdg,
    /// Algorithm 5 with prefix-sum worklists, plain loads (D-base).
    DataBase,
    /// Algorithm 5 with read-only-cache loads (D-ldg).
    DataLdg,
    /// cuSPARSE's multi-hash MIS coloring.
    CsrColor,
    /// Ablation: Algorithm 5 with per-thread atomic worklist pushes
    /// instead of prefix-sum compaction (the design §III-C rejects).
    DataAtomic,
    /// Extension: topology-driven with *edge-parallel* detection (the
    /// load-balance future work of §IV, via Merrill-style edge mapping).
    TopoEdge,
    /// Algorithm 2 on multicore (rayon).
    CpuGm,
    /// Algorithm 3 on multicore (rayon).
    CpuJp,
    /// Rokos et al.'s fused detect-and-recolor iteration (ref. \[17\]).
    CpuRokos,
    /// JP with largest-log-degree-first priorities (ref. \[20\]).
    CpuJpLlf,
    /// JP with smallest-degree-last priorities (ref. \[20\]).
    CpuJpSl,
}

impl Scheme {
    /// Every built-in scheme, in canonical order (paper's seven first,
    /// then the ablations/extensions, then the CPU context algorithms).
    /// The single source of truth for CLIs and tests.
    pub const ALL: [Scheme; 14] = [
        Scheme::Sequential,
        Scheme::ThreeStepGm,
        Scheme::TopoBase,
        Scheme::TopoLdg,
        Scheme::DataBase,
        Scheme::DataLdg,
        Scheme::CsrColor,
        Scheme::DataAtomic,
        Scheme::TopoEdge,
        Scheme::CpuGm,
        Scheme::CpuJp,
        Scheme::CpuRokos,
        Scheme::CpuJpLlf,
        Scheme::CpuJpSl,
    ];

    /// Looks a scheme up by its display name (the paper's legend labels,
    /// e.g. `"T-ldg"`). Inverse of [`Scheme::name`].
    pub fn from_name(name: &str) -> Option<Scheme> {
        Self::ALL.into_iter().find(|s| s.name() == name)
    }

    /// The seven schemes of the paper's Figs. 6 and 7, in its order.
    pub fn paper_seven() -> [Scheme; 7] {
        [
            Scheme::Sequential,
            Scheme::ThreeStepGm,
            Scheme::TopoBase,
            Scheme::TopoLdg,
            Scheme::DataBase,
            Scheme::DataLdg,
            Scheme::CsrColor,
        ]
    }

    /// The eight GPU-resident schemes: everything that launches kernels
    /// through a [`Backend`] and therefore shards across devices. (The
    /// 3-step GM baseline is included — its GPU rounds shard; its CPU
    /// resolution step runs on the host like any other scheme's driver
    /// loop.)
    pub const GPU: [Scheme; 8] = [
        Scheme::ThreeStepGm,
        Scheme::TopoBase,
        Scheme::TopoLdg,
        Scheme::DataBase,
        Scheme::DataLdg,
        Scheme::CsrColor,
        Scheme::DataAtomic,
        Scheme::TopoEdge,
    ];

    /// `true` for the GPU-resident schemes (see [`Scheme::GPU`]).
    pub fn is_gpu(&self) -> bool {
        Self::GPU.contains(self)
    }

    /// The paper's own four proposed implementations.
    pub fn proposed_four() -> [Scheme; 4] {
        [
            Scheme::TopoBase,
            Scheme::TopoLdg,
            Scheme::DataBase,
            Scheme::DataLdg,
        ]
    }

    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Sequential => "sequential",
            Scheme::ThreeStepGm => "3-step GM",
            Scheme::TopoBase => "T-base",
            Scheme::TopoLdg => "T-ldg",
            Scheme::DataBase => "D-base",
            Scheme::DataLdg => "D-ldg",
            Scheme::CsrColor => "csrcolor",
            Scheme::DataAtomic => "D-atomic",
            Scheme::TopoEdge => "T-edge",
            Scheme::CpuGm => "cpu-GM",
            Scheme::CpuJp => "cpu-JP",
            Scheme::CpuRokos => "cpu-Rokos",
            Scheme::CpuJpLlf => "cpu-JP-LLF",
            Scheme::CpuJpSl => "cpu-JP-SL",
        }
    }

    /// Runs this scheme on `g`, panicking on [`ColorError`] — the
    /// convenience wrapper around [`Scheme::try_color`] for callers that
    /// treat non-convergence as a bug.
    pub fn color(&self, g: &Csr, dev: &Device, opts: &ColorOptions) -> Coloring {
        self.try_color(g, dev, opts)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs this scheme on `g`. GPU schemes execute on the backend chosen
    /// by [`ColorOptions::backend`] — the timing simulator of `dev`
    /// (default), the native rayon path, or the simulator under
    /// shadow-memory launch analysis ([`BackendKind::Sanitize`]; see
    /// [`color_sanitized`] to also get the report); CPU schemes run
    /// natively and record their time in the profile (the sequential
    /// baseline records its *modeled* Xeon time so that paper-style
    /// speedup ratios are meaningful).
    pub fn try_color(
        &self,
        g: &Csr,
        dev: &Device,
        opts: &ColorOptions,
    ) -> Result<Coloring, ColorError> {
        if opts.backend == BackendKind::Sanitize {
            // The sanitizer entry point handles both the single-device
            // and the sharded path itself. Harmful findings go to stderr
            // (this signature has nowhere to return a report); call
            // `gpu::sanitize::color_sanitized` directly to inspect it.
            return gpu::sanitize::color_sanitized(*self, g, dev, opts).map(|(c, report)| {
                if !report.is_clean() {
                    eprintln!("sanitizer: {self} has harmful findings:\n{report}");
                }
                c
            });
        }
        if opts.num_shards > 1 && self.is_gpu() {
            return match opts.backend {
                BackendKind::Simt => gpu::color_sharded(
                    *self,
                    g,
                    &gcol_simt::ShardedBackend::uniform(opts.num_shards, |_| {
                        SimtBackend::new(dev, opts.exec_mode)
                    }),
                    opts,
                ),
                BackendKind::Native => gpu::color_sharded(
                    *self,
                    g,
                    &gcol_simt::ShardedBackend::uniform(opts.num_shards, |_| NativeBackend::new()),
                    opts,
                ),
                BackendKind::Sanitize => unreachable!("routed above"),
            };
        }
        match opts.backend {
            BackendKind::Simt => self.try_color_on(&SimtBackend::new(dev, opts.exec_mode), g, opts),
            BackendKind::Native => self.try_color_on(&NativeBackend::new(), g, opts),
            BackendKind::Sanitize => unreachable!("routed above"),
        }
    }

    /// Runs this scheme with an explicit execution [`Backend`] (the CPU
    /// schemes ignore it — they have no kernels to launch).
    pub fn try_color_on<B: Backend>(
        &self,
        backend: &B,
        g: &Csr,
        opts: &ColorOptions,
    ) -> Result<Coloring, ColorError> {
        match self {
            Scheme::Sequential => {
                let r = seq::greedy_seq(g, opts.ordering);
                let mut profile = RunProfile::new();
                profile.host(
                    "sequential greedy (modeled Xeon E5-2670)",
                    CpuModel::xeon_e5_2670().greedy_sweep_ms(g.num_vertices(), g.num_edges()),
                );
                Ok(Coloring {
                    scheme: *self,
                    colors: r.colors,
                    num_colors: r.num_colors,
                    iterations: 1,
                    profile,
                })
            }
            Scheme::ThreeStepGm => gpu::threestep::color_threestep(g, backend, opts),
            Scheme::TopoBase => gpu::topo::color_topo(g, backend, opts, false),
            Scheme::TopoLdg => gpu::topo::color_topo(g, backend, opts, true),
            Scheme::DataBase => gpu::data::color_data(g, backend, opts, false),
            Scheme::DataLdg => gpu::data::color_data(g, backend, opts, true),
            Scheme::CsrColor => gpu::csrcolor::color_csrcolor(g, backend, opts),
            Scheme::DataAtomic => gpu::data_atomic::color_data_atomic(g, backend, opts),
            Scheme::TopoEdge => gpu::topo_edge::color_topo_edge(g, backend, opts),
            Scheme::CpuGm => {
                let t0 = std::time::Instant::now();
                let r = gm::gm_parallel(g, opts.max_iterations);
                let mut profile = RunProfile::new();
                profile.host("GM on rayon (wall clock)", t0.elapsed().as_secs_f64() * 1e3);
                Ok(Coloring {
                    scheme: *self,
                    colors: r.colors,
                    num_colors: r.num_colors,
                    iterations: r.rounds,
                    profile,
                })
            }
            Scheme::CpuJp => {
                let t0 = std::time::Instant::now();
                let r = jp::jp_parallel(g, opts.seed, opts.max_iterations);
                let mut profile = RunProfile::new();
                profile.host("JP on rayon (wall clock)", t0.elapsed().as_secs_f64() * 1e3);
                Ok(Coloring {
                    scheme: *self,
                    colors: r.colors,
                    num_colors: r.num_colors,
                    iterations: r.num_colors,
                    profile,
                })
            }
            Scheme::CpuRokos => {
                let t0 = std::time::Instant::now();
                let r = rokos::rokos_parallel(g, opts.max_iterations);
                let mut profile = RunProfile::new();
                profile.host(
                    "Rokos fused iteration (wall clock)",
                    t0.elapsed().as_secs_f64() * 1e3,
                );
                Ok(Coloring {
                    scheme: *self,
                    colors: r.colors,
                    num_colors: r.num_colors,
                    iterations: r.rounds,
                    profile,
                })
            }
            Scheme::CpuJpLlf | Scheme::CpuJpSl => {
                let variant = if *self == Scheme::CpuJpLlf {
                    jp_orderings::JpVariant::LargestLogDegreeFirst
                } else {
                    jp_orderings::JpVariant::SmallestDegreeLast
                };
                let t0 = std::time::Instant::now();
                let r = jp_orderings::jp_ordered(g, variant, opts.seed, opts.max_iterations);
                let mut profile = RunProfile::new();
                profile.host("ordered JP (wall clock)", t0.elapsed().as_secs_f64() * 1e3);
                Ok(Coloring {
                    scheme: *self,
                    colors: r.colors,
                    num_colors: r.num_colors,
                    iterations: r.rounds,
                    profile,
                })
            }
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Scheme {
    type Err = String;

    /// Parses a display name (`"T-ldg"`, `"csrcolor"`, …) back into the
    /// scheme — what CLIs use for `--schemes` lists.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Scheme::from_name(s).ok_or_else(|| {
            let known: Vec<&str> = Scheme::ALL.iter().map(|s| s.name()).collect();
            format!(
                "unknown scheme {s:?} (expected one of: {})",
                known.join(", ")
            )
        })
    }
}

/// A scheme selection as requested by a front end: either a concrete
/// [`Scheme`] or `Auto`, meaning "let the planner decide". `Auto` is a
/// *request-time* notion only — by the time a job is fingerprinted,
/// cached or executed it has been resolved to a concrete scheme (the
/// `gcol-plan` crate owns that resolution), so cache keys always name
/// the plan that actually ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeChoice {
    /// Resolve the scheme (and backend/shards/exchange) via the planner.
    Auto,
    /// Run exactly this scheme.
    Fixed(Scheme),
}

impl SchemeChoice {
    /// Display name: `"auto"` or the fixed scheme's paper-legend name.
    pub fn name(&self) -> &'static str {
        match self {
            SchemeChoice::Auto => "auto",
            SchemeChoice::Fixed(s) => s.name(),
        }
    }

    /// The concrete scheme, if this choice is already resolved.
    pub fn fixed(&self) -> Option<Scheme> {
        match self {
            SchemeChoice::Auto => None,
            SchemeChoice::Fixed(s) => Some(*s),
        }
    }
}

impl From<Scheme> for SchemeChoice {
    fn from(s: Scheme) -> Self {
        SchemeChoice::Fixed(s)
    }
}

impl std::fmt::Display for SchemeChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SchemeChoice {
    type Err = String;

    /// `"auto"` (case-insensitive) or any [`Scheme`] display name.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.eq_ignore_ascii_case("auto") {
            return Ok(SchemeChoice::Auto);
        }
        s.parse::<Scheme>().map(SchemeChoice::Fixed).map_err(|_| {
            let known: Vec<&str> = Scheme::ALL.iter().map(|s| s.name()).collect();
            format!(
                "unknown scheme {s:?} (expected \"auto\" or one of: {})",
                known.join(", ")
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcol_graph::gen::simple::erdos_renyi;

    #[test]
    fn every_scheme_colors_properly_through_dispatch() {
        let dev = Device::tiny();
        let g = erdos_renyi(400, 2400, 1);
        let opts = ColorOptions::default();
        for scheme in Scheme::ALL {
            let r = scheme.color(&g, &dev, &opts);
            verify_coloring(&g, &r.colors).unwrap_or_else(|e| panic!("{scheme}: {e}"));
            assert_eq!(r.scheme, scheme);
            assert!(r.num_colors >= 1);
            assert!(r.total_ms() > 0.0, "{scheme} reported zero time");
        }
    }

    #[test]
    fn scheme_names_round_trip() {
        for scheme in Scheme::ALL {
            assert_eq!(Scheme::from_name(scheme.name()), Some(scheme));
            assert_eq!(scheme.name().parse::<Scheme>(), Ok(scheme));
        }
        assert!(Scheme::from_name("no-such-scheme").is_none());
        let err = "no-such-scheme".parse::<Scheme>().unwrap_err();
        assert!(err.contains("unknown scheme"), "{err}");
        assert!(err.contains("T-ldg"), "{err}");
    }

    #[test]
    fn paper_seven_matches_figure_order() {
        let names: Vec<&str> = Scheme::paper_seven().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "sequential",
                "3-step GM",
                "T-base",
                "T-ldg",
                "D-base",
                "D-ldg",
                "csrcolor"
            ]
        );
    }

    #[test]
    fn classes_partition_the_vertex_set() {
        let dev = Device::tiny();
        let g = erdos_renyi(300, 1500, 6);
        let r = Scheme::DataBase.color(&g, &dev, &ColorOptions::default());
        let classes = r.classes();
        assert_eq!(classes.len(), r.num_colors);
        let total: usize = classes.iter().map(Vec::len).sum();
        assert_eq!(total, 300);
        for (ci, class) in classes.iter().enumerate() {
            for &v in class {
                assert_eq!(r.colors[v as usize] as usize, ci + 1);
            }
            assert!(class.windows(2).all(|w| w[0] < w[1]), "sorted");
        }
        assert_eq!(
            r.class_sizes(),
            classes.iter().map(Vec::len).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sequential_profile_uses_cpu_model() {
        let dev = Device::tiny();
        let g = erdos_renyi(500, 3000, 2);
        let r = Scheme::Sequential.color(&g, &dev, &ColorOptions::default());
        let expect = CpuModel::xeon_e5_2670().greedy_sweep_ms(500, g.num_edges());
        assert!((r.total_ms() - expect).abs() < 1e-9);
    }

    #[test]
    fn scheme_choice_parses_auto_and_every_scheme_name() {
        assert_eq!("auto".parse::<SchemeChoice>(), Ok(SchemeChoice::Auto));
        assert_eq!("AUTO".parse::<SchemeChoice>(), Ok(SchemeChoice::Auto));
        assert_eq!(SchemeChoice::Auto.name(), "auto");
        assert_eq!(SchemeChoice::Auto.fixed(), None);
        for s in Scheme::ALL {
            let c: SchemeChoice = s.name().parse().unwrap();
            assert_eq!(c, SchemeChoice::from(s));
            assert_eq!(c.fixed(), Some(s));
            assert_eq!(c.to_string(), s.name());
        }
        let err = "warp-speed".parse::<SchemeChoice>().unwrap_err();
        assert!(err.contains("auto"), "{err}");
        assert!(err.contains("csrcolor"), "{err}");
    }
}
