//! # gcol-plan — the adaptive scheme/backend planner
//!
//! Maps a cheap [`GraphProfile`] (one O(n) pass, extracted by
//! `gcol-graph`), a typed service-level objective ([`Slo`]) and a
//! resource envelope ([`Resources`]) to a concrete [`Plan`]: which
//! [`Scheme`] to run, on which backend, across how many shard devices,
//! with which ghost-frontier encoding.
//!
//! The decision procedure is an interpretable score table, not a learned
//! black box: per scheme, two log-linear predictors (modeled
//! milliseconds and color count) over the [`features`] vector. The
//! coefficients are fitted offline by `gcol-bench planner-calibrate`
//! and checked in as data in [`model`] — `plan()` itself contains no
//! magic numbers (the `planner-model` lint rule enforces this).
//!
//! `Planner::plan` is **total**: for any profile — empty graph, single
//! vertex, a star, a clique, header-only `IngestLimits`-sized estimates,
//! even non-finite feature values — it returns a valid plan (scheme from
//! the candidate table, shard count within budget) and never panics.
//! Front ends resolve `SchemeChoice::Auto` through it *before*
//! fingerprinting, so cache keys always name the concrete plan that ran.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod model;

use gcol_core::{BackendKind, ColorOptions, ExchangeKind, JobSpec, Scheme};
use gcol_graph::{Csr, GraphProfile};

pub use model::{SchemeModel, MODELS, NUM_FEATURES};

/// The service-level objective a request optimizes for.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Slo {
    /// Minimize wall time; color count is whatever falls out.
    #[default]
    FastestWall,
    /// Minimize the number of colors; run time is secondary (Besta et
    /// al.'s quality-guarantee framing: fewer classes, better downstream
    /// scheduling).
    FewestColors,
    /// Accept up to `(1 + color_slack)` × the fewest predicted colors,
    /// then take the fastest candidate inside that band.
    Balanced {
        /// Fractional color overhead tolerated over the predicted best.
        color_slack: f64,
    },
}

impl Slo {
    /// The default balanced objective
    /// ([`model::BALANCED_DEFAULT_SLACK`] color slack).
    pub fn balanced() -> Self {
        Slo::Balanced {
            color_slack: model::BALANCED_DEFAULT_SLACK,
        }
    }

    /// Protocol/CLI name of this objective.
    pub fn name(&self) -> &'static str {
        match self {
            Slo::FastestWall => "fastest-wall",
            Slo::FewestColors => "fewest-colors",
            Slo::Balanced { .. } => "balanced",
        }
    }

    /// Every named objective, for CLIs and error messages.
    pub fn all_names() -> &'static [&'static str] {
        &model::SLO_NAMES
    }
}

impl std::fmt::Display for Slo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Slo {
    type Err = String;

    /// Parses an objective name: `"fastest-wall"` (alias `"fastest"`),
    /// `"fewest-colors"` (alias `"colors"`), or `"balanced"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "fastest-wall" | "fastest" | "wall" => Ok(Slo::FastestWall),
            "fewest-colors" | "fewest" | "colors" => Ok(Slo::FewestColors),
            "balanced" => Ok(Slo::balanced()),
            other => Err(format!(
                "unknown slo {other:?} (expected one of: {})",
                Slo::all_names().join(", ")
            )),
        }
    }
}

/// What the embedder makes available to a plan: which execution backends
/// may run the job and how many shard devices it may spread across.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resources {
    /// Allowed execution backends. Preference among them is the
    /// planner's ([`model::BACKEND_PREFERENCE`]); an empty list falls
    /// back to the default backend.
    pub backends: Vec<BackendKind>,
    /// Device/shard budget: the plan's `num_shards` never exceeds this
    /// (and never exceeds [`model::MAX_USEFUL_SHARDS`]).
    pub max_shards: usize,
}

impl Resources {
    /// A single backend with a shard budget — how the serve front end
    /// translates a request's explicit `backend`/`shards` fields.
    pub fn single(backend: BackendKind, max_shards: usize) -> Self {
        Self {
            backends: vec![backend],
            max_shards,
        }
    }

    /// The envelope implied by a request's [`ColorOptions`]: the chosen
    /// backend is the only one allowed, `num_shards` is the budget.
    pub fn from_options(opts: &ColorOptions) -> Self {
        Self::single(opts.backend, opts.num_shards)
    }
}

impl Default for Resources {
    fn default() -> Self {
        Self::from_options(&ColorOptions::default())
    }
}

/// A fully resolved execution plan, plus the predictions that chose it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// The scheme to run.
    pub scheme: Scheme,
    /// The backend to run it on.
    pub backend: BackendKind,
    /// Shard-device count (1 = the single-device driver).
    pub num_shards: usize,
    /// Ghost-frontier encoding for sharded runs (ignored at 1 shard).
    pub exchange: ExchangeKind,
    /// Model-predicted modeled milliseconds for this plan.
    pub predicted_ms: f64,
    /// Model-predicted color count.
    pub predicted_colors: f64,
}

impl Plan {
    /// Writes the plan into a request's options — after this, the
    /// options describe a concrete job whose fingerprint keys the cache.
    pub fn apply(&self, opts: &mut ColorOptions) {
        opts.backend = self.backend;
        opts.num_shards = self.num_shards;
        opts.exchange = self.exchange;
    }

    /// The concrete [`JobSpec`] this plan resolves to, given the
    /// request's remaining (non-planned) options.
    pub fn spec(&self, opts: &ColorOptions) -> JobSpec {
        let mut opts = opts.clone();
        self.apply(&mut opts);
        JobSpec {
            scheme: self.scheme,
            opts,
        }
    }
}

/// One candidate's score: the model's predictions for a profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchemePrediction {
    /// The candidate scheme.
    pub scheme: Scheme,
    /// Predicted modeled milliseconds at one shard.
    pub predicted_ms: f64,
    /// Predicted color count.
    pub predicted_colors: f64,
}

/// The feature vector both predictors are linear in (log space): a bias,
/// `ln(1+x)` transforms of the profile's size and shape columns, a
/// *signed* `ln(1+|x|)` of skew (negative skew — grid-like, near-regular
/// degree lists — is a real signal, not noise), and the square of the
/// edge-count feature, which models the curvature of `ln(overhead +
/// work·m)` across scales. Non-finite inputs clamp to zero and every
/// entry is capped at [`model::FEATURE_CAP`] in magnitude, so the vector
/// is always finite.
pub fn features(p: &GraphProfile) -> [f64; NUM_FEATURES] {
    let n = p.num_vertices as f64 / model::SIZE_SCALE;
    let m = p.num_edges as f64 / model::SIZE_SCALE;
    let ln_m = feat(m);
    [
        1.0,
        feat(n),
        ln_m,
        feat(p.avg_degree),
        feat(p.degree_cv()),
        feat(p.max_ratio()),
        feat_signed(p.skew),
        ln_m * ln_m,
    ]
}

/// `ln(1+x)` of a sanitized input: non-finite and negative values are
/// treated as zero, the output is capped.
fn feat(x: f64) -> f64 {
    let x = if x.is_finite() && x > 0.0 { x } else { 0.0 };
    x.ln_1p().min(model::FEATURE_CAP)
}

/// Sign-preserving `ln(1+|x|)` for columns where negative values carry
/// information (skew). Non-finite inputs are treated as zero.
fn feat_signed(x: f64) -> f64 {
    if !x.is_finite() {
        return 0.0;
    }
    (x.abs().ln_1p().min(model::FEATURE_CAP)).copysign(x)
}

fn dot(w: &[f64; NUM_FEATURES], f: &[f64; NUM_FEATURES]) -> f64 {
    w.iter().zip(f.iter()).map(|(a, b)| a * b).sum()
}

/// Saturating `exp` of a log-space prediction: clamped so the result is
/// always finite and positive.
fn predict(w: &[f64; NUM_FEATURES], f: &[f64; NUM_FEATURES]) -> f64 {
    let z = dot(w, f);
    let z = if z.is_finite() { z } else { 0.0 };
    z.clamp(-model::EXP_CAP, model::EXP_CAP).exp()
}

impl SchemeModel {
    /// This row's predictions for a feature vector.
    pub fn predict(&self, f: &[f64; NUM_FEATURES]) -> SchemePrediction {
        SchemePrediction {
            scheme: self.scheme,
            predicted_ms: predict(&self.time_w, f),
            predicted_colors: predict(&self.color_w, f).max(1.0),
        }
    }
}

/// The planner: a checked-in decision table plus the (literal-free)
/// selection logic over it.
#[derive(Debug, Clone)]
pub struct Planner {
    models: &'static [SchemeModel],
}

impl Default for Planner {
    fn default() -> Self {
        Self::new()
    }
}

impl Planner {
    /// A planner over the checked-in [`model::MODELS`] table.
    pub fn new() -> Self {
        Self {
            models: &model::MODELS,
        }
    }

    /// A planner over a custom (static) decision table — for tests and
    /// for comparing freshly calibrated tables against the checked-in
    /// one.
    pub fn with_models(models: &'static [SchemeModel]) -> Self {
        Self { models }
    }

    /// The schemes this planner can choose from, in table order.
    pub fn candidates(&self) -> Vec<Scheme> {
        self.models.iter().map(|m| m.scheme).collect()
    }

    /// Every candidate's predictions for a profile — the raw decision
    /// table the bench experiments record.
    pub fn score(&self, profile: &GraphProfile) -> Vec<SchemePrediction> {
        let f = features(profile);
        self.models.iter().map(|m| m.predict(&f)).collect()
    }

    /// Resolves a profile + SLO + resource envelope to a concrete plan.
    ///
    /// Total over arbitrary profiles: always returns a scheme from the
    /// candidate table ([`model::FALLBACK_SCHEME`] if the table is
    /// empty), a shard count in `1..=max_shards`, and never panics.
    pub fn plan(&self, profile: &GraphProfile, slo: Slo, res: &Resources) -> Plan {
        let preds = self.score(profile);
        let chosen = choose(&preds, slo).unwrap_or(SchemePrediction {
            scheme: model::FALLBACK_SCHEME,
            predicted_ms: 0.0,
            predicted_colors: 1.0,
        });
        let backend = choose_backend(res);
        let (num_shards, predicted_ms) =
            choose_shards(chosen.scheme, backend, profile, res, chosen.predicted_ms);
        Plan {
            scheme: chosen.scheme,
            backend,
            num_shards,
            exchange: model::PLAN_EXCHANGE,
            predicted_ms,
            predicted_colors: chosen.predicted_colors,
        }
    }
}

/// Picks the winning candidate for an SLO. Ties break toward table
/// order, which lists the paper's schemes in registry order.
fn choose(preds: &[SchemePrediction], slo: Slo) -> Option<SchemePrediction> {
    match slo {
        Slo::FastestWall => preds
            .iter()
            .copied()
            .min_by(|a, b| cmp_f64(a.predicted_ms, b.predicted_ms)),
        Slo::FewestColors => preds.iter().copied().min_by(|a, b| {
            cmp_f64(a.predicted_colors, b.predicted_colors)
                .then(cmp_f64(a.predicted_ms, b.predicted_ms))
        }),
        Slo::Balanced { color_slack } => {
            let slack = if color_slack.is_finite() && color_slack > 0.0 {
                color_slack
            } else {
                0.0
            };
            let best_colors = preds
                .iter()
                .copied()
                .min_by(|a, b| cmp_f64(a.predicted_colors, b.predicted_colors))?
                .predicted_colors;
            let band = best_colors * (1.0 + slack);
            preds
                .iter()
                .copied()
                .filter(|p| p.predicted_colors <= band)
                .min_by(|a, b| cmp_f64(a.predicted_ms, b.predicted_ms))
        }
    }
}

/// Total order on prediction values: non-finite sorts last, so a
/// saturated or degenerate prediction can never win a comparison against
/// a real one.
fn cmp_f64(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap_or_else(|| {
        b.is_finite()
            .cmp(&a.is_finite())
            .then(std::cmp::Ordering::Equal)
    })
}

/// First allowed backend in preference order; the library default if the
/// envelope is empty.
fn choose_backend(res: &Resources) -> BackendKind {
    model::BACKEND_PREFERENCE
        .into_iter()
        .find(|b| res.backends.contains(b))
        .unwrap_or_default()
}

/// Shard-count decision: spread only when the budget allows it, the
/// graph is large enough, and the PR 6 measurements say this
/// scheme/backend pair actually gains from P > 1. Returns the shard
/// count and the gain-adjusted time prediction.
fn choose_shards(
    scheme: Scheme,
    backend: BackendKind,
    profile: &GraphProfile,
    res: &Resources,
    predicted_ms: f64,
) -> (usize, f64) {
    let budget = res.max_shards.clamp(1, model::MAX_USEFUL_SHARDS);
    let gain = model::SHARD_GAINS
        .iter()
        .find(|g| g.scheme == scheme)
        .map(|g| match backend {
            BackendKind::Native => g.native,
            BackendKind::Simt | BackendKind::Sanitize => g.simt,
        })
        .unwrap_or(0.0);
    if budget > 1 && profile.num_edges >= model::SHARD_MIN_EDGES && gain > 1.0 {
        (budget, predicted_ms / gain)
    } else {
        (1, predicted_ms)
    }
}

/// The `scheme: "auto"` resolver: profiles the graph and plans under its
/// SLO and the resource envelope implied by the run's [`ColorOptions`].
/// Front ends run the resolved plan through [`Scheme::try_color`].
#[derive(Debug, Clone)]
pub struct AutoColorer {
    slo: Slo,
    planner: Planner,
}

impl AutoColorer {
    /// An auto colorer optimizing for `slo` with the checked-in table.
    pub fn new(slo: Slo) -> Self {
        Self {
            slo,
            planner: Planner::new(),
        }
    }

    /// The plan this colorer would run for `g` under `opts` — what the
    /// serve front end echoes back to clients. Reads the graph's
    /// memoized [`Csr::profile`], so only the first plan against a
    /// graph pays the O(n) profile pass.
    pub fn plan_for(&self, g: &Csr, opts: &ColorOptions) -> Plan {
        self.planner
            .plan(&g.profile(), self.slo, &Resources::from_options(opts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcol_graph::builder::from_undirected_edges;

    fn profile_of(edges: &[(u32, u32)], n: u32) -> GraphProfile {
        GraphProfile::extract(&from_undirected_edges(n as usize, edges.iter().copied()))
    }

    #[test]
    fn slo_names_round_trip() {
        assert_eq!("fastest-wall".parse::<Slo>(), Ok(Slo::FastestWall));
        assert_eq!("fastest".parse::<Slo>(), Ok(Slo::FastestWall));
        assert_eq!("fewest-colors".parse::<Slo>(), Ok(Slo::FewestColors));
        assert_eq!("colors".parse::<Slo>(), Ok(Slo::FewestColors));
        assert_eq!("balanced".parse::<Slo>(), Ok(Slo::balanced()));
        assert_eq!(Slo::default(), Slo::FastestWall);
        for &name in Slo::all_names() {
            assert_eq!(name.parse::<Slo>().unwrap().name(), name);
        }
        let err = "asap".parse::<Slo>().unwrap_err();
        assert!(err.contains("balanced"), "{err}");
    }

    #[test]
    fn features_are_always_finite() {
        let weird = GraphProfile {
            num_vertices: usize::MAX,
            num_edges: usize::MAX,
            density: f64::NAN,
            min_degree: 0,
            max_degree: usize::MAX,
            avg_degree: f64::INFINITY,
            variance: f64::NEG_INFINITY,
            skew: f64::NAN,
        };
        // The quadratic edge term is the square of a capped value, so the
        // magnitude bound is FEATURE_CAP²; signed skew can be negative.
        for v in features(&weird) {
            assert!(v.is_finite(), "feature {v}");
            assert!(v.abs() <= model::FEATURE_CAP * model::FEATURE_CAP);
        }
        // Negative skew survives the transform with its sign.
        let grid = GraphProfile {
            skew: -5.0,
            ..weird
        };
        let f = features(&grid);
        assert!(f[NUM_FEATURES - 2] < 0.0, "signed skew lost: {f:?}");
    }

    #[test]
    fn plan_is_valid_on_simple_graphs() {
        let p = profile_of(&[(0, 1), (1, 2), (2, 0)], 3);
        let planner = Planner::new();
        for slo in [Slo::FastestWall, Slo::FewestColors, Slo::balanced()] {
            let plan = planner.plan(&p, slo, &Resources::default());
            assert!(planner.candidates().contains(&plan.scheme), "{plan:?}");
            assert_eq!(plan.num_shards, 1);
            assert!(plan.predicted_ms.is_finite() && plan.predicted_ms >= 0.0);
            assert!(plan.predicted_colors >= 1.0);
        }
    }

    #[test]
    fn backend_choice_respects_the_envelope() {
        let p = profile_of(&[(0, 1)], 2);
        let planner = Planner::new();
        let native = planner.plan(
            &p,
            Slo::FastestWall,
            &Resources::single(BackendKind::Native, 1),
        );
        assert_eq!(native.backend, BackendKind::Native);
        let simt = planner.plan(&p, Slo::FastestWall, &Resources::default());
        assert_eq!(simt.backend, BackendKind::Simt);
        // Both allowed: preference order picks native.
        let both = planner.plan(
            &p,
            Slo::FastestWall,
            &Resources {
                backends: vec![BackendKind::Simt, BackendKind::Native],
                max_shards: 1,
            },
        );
        assert_eq!(both.backend, BackendKind::Native);
        // Empty envelope: library default, not a panic.
        let none = planner.plan(
            &p,
            Slo::FastestWall,
            &Resources {
                backends: vec![],
                max_shards: 0,
            },
        );
        assert_eq!(none.backend, BackendKind::default());
        assert_eq!(none.num_shards, 1);
    }

    #[test]
    fn sharding_needs_budget_size_and_measured_gain() {
        // A one-candidate table pins which scheme wins, so the shard
        // decision under test is independent of the fitted coefficients.
        // T-base gains from P=4 natively (2.07x) but loses on simt
        // (0.80x) in the PR 6 measurements.
        static TOPO_ONLY: [SchemeModel; 1] = [SchemeModel {
            scheme: Scheme::TopoBase,
            time_w: [0.0; NUM_FEATURES],
            color_w: [0.0; NUM_FEATURES],
        }];
        let planner = Planner::with_models(&TOPO_ONLY);

        // Small graph: never sharded, whatever the budget.
        let small = profile_of(&[(0, 1), (1, 2)], 3);
        let plan = planner.plan(
            &small,
            Slo::FastestWall,
            &Resources::single(BackendKind::Native, 4),
        );
        assert_eq!(plan.num_shards, 1, "tiny graphs stay on one device");

        // Large profile (coarse, IngestLimits regime), native backend,
        // big budget: shards, clamped to the measured useful maximum.
        let big = GraphProfile::coarse(2_000_000, 40_000_000);
        let plan = planner.plan(
            &big,
            Slo::FastestWall,
            &Resources::single(BackendKind::Native, 64),
        );
        assert_eq!(plan.scheme, Scheme::TopoBase);
        assert_eq!(plan.num_shards, model::MAX_USEFUL_SHARDS);
        assert_eq!(plan.exchange, ExchangeKind::Delta);

        // Same big graph on simt: T-base's measured simt gain is < 1,
        // so the plan stays on one device despite the budget.
        let plan = planner.plan(
            &big,
            Slo::FastestWall,
            &Resources::single(BackendKind::Simt, 4),
        );
        assert_eq!(plan.num_shards, 1, "{plan:?}");

        // Sequential has no shard-gain row at all: never sharded.
        static SEQ_ONLY: [SchemeModel; 1] = [SchemeModel {
            scheme: Scheme::Sequential,
            time_w: [0.0; NUM_FEATURES],
            color_w: [0.0; NUM_FEATURES],
        }];
        let plan = Planner::with_models(&SEQ_ONLY).plan(
            &big,
            Slo::FastestWall,
            &Resources::single(BackendKind::Native, 4),
        );
        assert_eq!(plan.num_shards, 1);
    }

    #[test]
    fn plan_spec_round_trips_into_job_options() {
        let g = from_undirected_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let planner = Planner::new();
        let plan = planner.plan(
            &GraphProfile::extract(&g),
            Slo::FastestWall,
            &Resources::default(),
        );
        let opts = ColorOptions::default();
        let spec = plan.spec(&opts);
        assert_eq!(spec.scheme, plan.scheme);
        assert_eq!(spec.opts.backend, plan.backend);
        assert_eq!(spec.opts.num_shards, plan.num_shards);
        assert_eq!(spec.opts.exchange, plan.exchange);
        // Un-planned knobs pass through untouched.
        assert_eq!(spec.opts.seed, opts.seed);
        assert_eq!(spec.opts.block_size, opts.block_size);
    }

    #[test]
    fn auto_colorer_plans_the_profiled_graph_under_its_options() {
        let g = gcol_graph::gen::simple::erdos_renyi(200, 1000, 3);
        let opts = ColorOptions::default();
        let plan = AutoColorer::new(Slo::FastestWall).plan_for(&g, &opts);
        let direct = Planner::new().plan(
            &GraphProfile::extract(&g),
            Slo::FastestWall,
            &Resources::from_options(&opts),
        );
        assert_eq!(plan, direct);
    }

    #[test]
    fn empty_model_table_falls_back() {
        static EMPTY: [SchemeModel; 0] = [];
        let planner = Planner::with_models(&EMPTY);
        let p = profile_of(&[(0, 1)], 2);
        let plan = planner.plan(&p, Slo::FewestColors, &Resources::default());
        assert_eq!(plan.scheme, model::FALLBACK_SCHEME);
        assert_eq!(plan.num_shards, 1);
    }
}
