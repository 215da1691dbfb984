//! R-MAT recursive matrix graph generator (Chakrabarti, Zhan & Faloutsos,
//! SDM 2004) — the generator the paper uses for its two synthetic graphs.
//!
//! Each edge is placed by recursively descending a 2^scale × 2^scale
//! adjacency matrix, choosing one of the four quadrants with probabilities
//! `(a, b, c, d)` at every level. `(0.25, 0.25, 0.25, 0.25)` yields an
//! Erdős–Rényi-like graph (the paper's *rmat-er*); `(0.45, 0.15, 0.15,
//! 0.25)` yields a skewed, power-law-ish graph (the paper's *rmat-g*).

use crate::builder::CsrBuilder;
use crate::csr::{Csr, VertexId};
use crate::rng::Xoshiro256;

/// Parameters of the R-MAT generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Number of *undirected* edges to sample (before dedup); the paper's
    /// graphs use `avg_degree / 2 * n` so the symmetrized edge count lands
    /// near `n * avg_degree`.
    pub edges: usize,
    /// Quadrant probability a (top-left).
    pub a: f64,
    /// Quadrant probability b (top-right).
    pub b: f64,
    /// Quadrant probability c (bottom-left).
    pub c: f64,
    /// Quadrant probability d (bottom-right).
    pub d: f64,
    /// Add ±10% noise to the quadrant probabilities at each level, as
    /// recommended by the R-MAT authors to avoid staircase artifacts.
    pub noise: bool,
}

impl RmatParams {
    /// The paper's *rmat-er* configuration at a given scale: uniform
    /// quadrants, average degree ~20 after symmetrization.
    pub fn erdos_renyi(scale: u32, avg_degree: usize) -> Self {
        Self {
            scale,
            edges: (1usize << scale) * avg_degree / 2,
            a: 0.25,
            b: 0.25,
            c: 0.25,
            d: 0.25,
            noise: false,
        }
    }

    /// The paper's *rmat-g* configuration: `(0.45, 0.15, 0.15, 0.25)`.
    pub fn skewed(scale: u32, avg_degree: usize) -> Self {
        Self {
            scale,
            edges: (1usize << scale) * avg_degree / 2,
            a: 0.45,
            b: 0.15,
            c: 0.15,
            d: 0.25,
            noise: true,
        }
    }

    fn validate(&self) {
        let sum = self.a + self.b + self.c + self.d;
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "R-MAT quadrant probabilities must sum to 1 (got {sum})"
        );
        assert!(self.scale >= 1 && self.scale <= 30, "scale out of range");
    }
}

/// Samples one R-MAT edge.
///
/// Every level draws one `r` and makes all three quadrant comparisons;
/// the `u`/`v` bits are set from their outcomes rather than through an
/// `if` chain, which mispredicts at almost every level when the
/// quadrants are near-uniform. Quadrant order is top-left, top-right
/// (`v` bit), bottom-left (`u` bit), bottom-right (both bits).
#[inline]
fn sample_edge(p: &RmatParams, rng: &mut Xoshiro256) -> (VertexId, VertexId) {
    let (mut a, mut b, mut c, mut d) = (p.a, p.b, p.c, p.d);
    let (mut u, mut v) = (0u32, 0u32);
    for level in (0..p.scale).rev() {
        let r = rng.next_f64();
        let in_a = r < a;
        let in_ab = r < a + b;
        let in_abc = r < a + b + c;
        u |= u32::from(!in_a & !in_ab) << level;
        v |= u32::from(!in_a & (in_ab | !in_abc)) << level;
        if p.noise {
            // Multiplicative ±10% noise, renormalized (Chakrabarti et al.).
            let na = a * (0.9 + 0.2 * rng.next_f64());
            let nb = b * (0.9 + 0.2 * rng.next_f64());
            let nc = c * (0.9 + 0.2 * rng.next_f64());
            let nd = d * (0.9 + 0.2 * rng.next_f64());
            let s = na + nb + nc + nd;
            a = na / s;
            b = nb / s;
            c = nc / s;
            d = nd / s;
        }
    }
    (u, v)
}

/// Generates a symmetric R-MAT graph. Edges are sampled sequentially,
/// straight into the builder's edge buffer, from one deterministic RNG
/// stream per chunk of 2^16 edges, so the output depends only on
/// `(params, seed)` and not on the order the chunks are sampled in.
///
/// ```
/// use gcol_graph::gen::{rmat, RmatParams};
/// let g = rmat(RmatParams::erdos_renyi(10, 8), 42);
/// assert_eq!(g.num_vertices(), 1024);
/// assert!(g.is_symmetric());
/// assert_eq!(g, rmat(RmatParams::erdos_renyi(10, 8), 42)); // bit-stable
/// ```
pub fn rmat(params: RmatParams, seed: u64) -> Csr {
    params.validate();
    const CHUNK: usize = 1 << 16;
    let mut root = Xoshiro256::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut b = CsrBuilder::with_capacity(1usize << params.scale, params.edges);
    for lo in (0..params.edges).step_by(CHUNK) {
        let mut rng = Xoshiro256::seed_from_u64(root.next_u64());
        let len = CHUNK.min(params.edges - lo);
        b.add_edges((0..len).map(|_| sample_edge(&params, &mut rng)));
    }
    b.symmetrize().build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The sampler as it stood before the branch-free rewrite: the same
    /// draws and comparisons, with the quadrant picked by an `if` chain.
    /// Kept as the edge-for-edge reference for [`sample_edge`].
    fn branchy_sample_edge(p: &RmatParams, rng: &mut Xoshiro256) -> (VertexId, VertexId) {
        let (mut a, mut b, mut c, mut d) = (p.a, p.b, p.c, p.d);
        let (mut u, mut v) = (0u32, 0u32);
        for level in (0..p.scale).rev() {
            let bit = 1u32 << level;
            let r = rng.next_f64();
            if r < a {
                // top-left: neither bit set
            } else if r < a + b {
                v |= bit;
            } else if r < a + b + c {
                u |= bit;
            } else {
                u |= bit;
                v |= bit;
            }
            if p.noise {
                let na = a * (0.9 + 0.2 * rng.next_f64());
                let nb = b * (0.9 + 0.2 * rng.next_f64());
                let nc = c * (0.9 + 0.2 * rng.next_f64());
                let nd = d * (0.9 + 0.2 * rng.next_f64());
                let s = na + nb + nc + nd;
                a = na / s;
                b = nb / s;
                c = nc / s;
                d = nd / s;
            }
        }
        (u, v)
    }

    /// Strategy: one unnormalized quadrant weight, exactly 0 or 1 in a
    /// third of the cases each.
    fn arb_weight() -> impl Strategy<Value = f64> {
        (0u8..3, any::<u64>()).prop_map(|(k, x)| match k {
            0 => 0.0,
            1 => 1.0,
            _ => (x >> 11) as f64 / (1u64 << 53) as f64,
        })
    }

    /// Strategy: R-MAT parameters with random quadrant probabilities.
    fn arb_params() -> impl Strategy<Value = RmatParams> {
        let weights = (arb_weight(), arb_weight(), arb_weight(), arb_weight());
        (1u32..=20, weights, any::<bool>()).prop_map(|(scale, (a, b, c, d), noise)| {
            let sum = a + b + c + d;
            let (a, b, c, d) = if sum == 0.0 {
                (1.0, 0.0, 0.0, 0.0)
            } else {
                (a / sum, b / sum, c / sum, d / sum)
            };
            RmatParams {
                scale,
                edges: 0,
                a,
                b,
                c,
                d,
                noise,
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn sampler_matches_the_branchy_oracle(p in arb_params(), seed in any::<u64>()) {
            let mut fast = Xoshiro256::seed_from_u64(seed);
            let mut slow = fast.clone();
            for _ in 0..32 {
                prop_assert_eq!(sample_edge(&p, &mut fast), branchy_sample_edge(&p, &mut slow));
            }
            // Both drew the same number of values.
            prop_assert_eq!(fast.next_u64(), slow.next_u64());
        }
    }

    #[test]
    fn paper_configurations_are_pinned() {
        // Recorded before the sampler and the builder were rewritten:
        // generator output is part of every benchmark's input, so these
        // must only change on purpose.
        let pinned: [(RmatParams, u64, u64); 6] = [
            (RmatParams::erdos_renyi(12, 16), 3, 0x2c9b_7c92_fdbe_6b58),
            (RmatParams::erdos_renyi(12, 16), 7, 0xbc25_cc1e_d04f_ab64),
            (RmatParams::erdos_renyi(12, 16), 11, 0x4d9c_d1b4_d4ad_4047),
            (RmatParams::skewed(12, 16), 3, 0xa3b8_0e9b_4259_7853),
            (RmatParams::skewed(12, 16), 7, 0x80f0_cbfd_3a1b_b39b),
            (RmatParams::skewed(12, 16), 11, 0xc484_212c_b95d_bcbf),
        ];
        for (p, seed, fingerprint) in pinned {
            assert_eq!(
                rmat(p, seed).content_fingerprint(),
                fingerprint,
                "{p:?} seed {seed}"
            );
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let p = RmatParams::erdos_renyi(10, 8);
        let g1 = rmat(p, 1);
        let g2 = rmat(p, 1);
        assert_eq!(g1, g2);
    }

    #[test]
    fn different_seeds_differ() {
        let p = RmatParams::erdos_renyi(10, 8);
        assert_ne!(rmat(p, 1), rmat(p, 2));
    }

    #[test]
    fn er_graph_has_expected_size_and_shape() {
        let p = RmatParams::erdos_renyi(12, 16);
        let g = rmat(p, 7);
        assert_eq!(g.num_vertices(), 4096);
        // Symmetrized, deduped: directed edge count close to n * avg_degree.
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(avg > 13.0 && avg < 16.5, "avg degree {avg}");
        assert!(g.is_symmetric());
        assert!(g.has_no_self_loops());
        assert!(g.has_sorted_unique_neighbors());
    }

    #[test]
    fn skewed_graph_is_more_skewed_than_er() {
        let er = rmat(RmatParams::erdos_renyi(12, 16), 3);
        let sk = rmat(RmatParams::skewed(12, 16), 3);
        let er_stats = crate::stats::DegreeStats::compute(&er);
        let sk_stats = crate::stats::DegreeStats::compute(&sk);
        // The paper's rmat-g has ~20x the degree variance and ~15x the max
        // degree of rmat-er at the same average degree.
        assert!(
            sk_stats.variance > 4.0 * er_stats.variance,
            "variance {} vs {}",
            sk_stats.variance,
            er_stats.variance
        );
        assert!(sk_stats.max_degree > 2 * er_stats.max_degree);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_bad_probabilities() {
        let p = RmatParams {
            a: 0.5,
            b: 0.5,
            c: 0.5,
            d: 0.5,
            ..RmatParams::erdos_renyi(4, 2)
        };
        rmat(p, 0);
    }

    #[test]
    fn small_scale_works() {
        let g = rmat(RmatParams::erdos_renyi(1, 1), 5);
        assert_eq!(g.num_vertices(), 2);
        g.validate().unwrap();
    }
}
