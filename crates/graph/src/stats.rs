//! Degree statistics — the columns of Table I, and the planner's
//! single-pass graph profile.
//!
//! Both [`DegreeStats`] (the Table I report row) and [`GraphProfile`]
//! (the `gcol-plan` feature vector) are views over the same one-pass
//! moment accumulation (the private `DegreeMoments`), so the bench suite, the
//! `table1` experiment and the planner cannot drift apart.

use crate::csr::Csr;
use rayon::prelude::*;
use serde::Serialize;

/// Raw degree moments accumulated in a single serial O(n) pass over the
/// CSR row offsets. No allocation: degrees are read as offset differences,
/// never materialized.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DegreeMoments {
    n: usize,
    min: usize,
    max: usize,
    sum: f64,
    sum2: f64,
    sum3: f64,
}

impl DegreeMoments {
    fn accumulate(g: &Csr) -> Self {
        let n = g.num_vertices();
        let mut min = usize::MAX;
        let mut max = 0usize;
        let (mut sum, mut sum2, mut sum3) = (0.0f64, 0.0f64, 0.0f64);
        for v in 0..n as u32 {
            let d = g.degree(v);
            min = min.min(d);
            max = max.max(d);
            let df = d as f64;
            sum += df;
            sum2 += df * df;
            sum3 += df * df * df;
        }
        if n == 0 {
            min = 0;
        }
        Self {
            n,
            min,
            max,
            sum,
            sum2,
            sum3,
        }
    }

    fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Population variance from raw moments: E[d²] − mean². Clamped at
    /// zero — the subtraction can go fractionally negative in floating
    /// point for regular graphs.
    fn variance(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let mean = self.mean();
        (self.sum2 / self.n as f64 - mean * mean).max(0.0)
    }

    /// Standardized skewness (third central moment over σ³), 0 for
    /// degenerate distributions.
    fn skewness(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let nf = self.n as f64;
        let mean = self.mean();
        let var = self.variance();
        if var <= 0.0 {
            return 0.0;
        }
        let m3 = self.sum3 / nf - 3.0 * mean * (self.sum2 / nf) + 2.0 * mean * mean * mean;
        m3 / var.powf(1.5)
    }
}

/// The per-graph summary the paper reports in Table I: vertex/edge counts,
/// min/max/average degree and the (population) variance of the degree
/// distribution, plus structural symmetry.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DegreeStats {
    /// Number of vertices (rows).
    pub num_vertices: usize,
    /// Number of stored directed edges (non-zero elements).
    pub num_edges: usize,
    /// Minimum degree.
    pub min_degree: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Mean degree.
    pub avg_degree: f64,
    /// Population variance of the degree distribution.
    pub variance: f64,
    /// Whether the sparsity pattern is structurally symmetric.
    pub symmetric: bool,
}

impl DegreeStats {
    /// Computes the statistics for `g`. The degree moments come from the
    /// same single pass as [`GraphProfile::extract`]; symmetry is checked
    /// in parallel with the sorted-adjacency membership test.
    pub fn compute(g: &Csr) -> Self {
        let m = DegreeMoments::accumulate(g);
        let symmetric = (0..m.n as u32)
            .into_par_iter()
            .all(|u| g.neighbors(u).iter().all(|&v| g.has_edge_sorted(v, u)));
        Self {
            num_vertices: m.n,
            num_edges: g.num_edges(),
            min_degree: m.min,
            max_degree: m.max,
            avg_degree: m.mean(),
            variance: m.variance(),
            symmetric,
        }
    }
}

/// The planner's cheap graph feature vector: everything `gcol-plan`
/// conditions on, extracted in one O(n) pass off the CSR with no
/// allocation. A superset of the Table I degree columns plus density and
/// skew.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct GraphProfile {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of stored directed edges.
    pub num_edges: usize,
    /// Fraction of possible neighbors per vertex: avg_degree / (n−1);
    /// 0 for graphs with fewer than two vertices.
    pub density: f64,
    /// Minimum degree.
    pub min_degree: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Mean degree.
    pub avg_degree: f64,
    /// Population variance of the degree distribution.
    pub variance: f64,
    /// Standardized skewness of the degree distribution (0 when the
    /// variance is 0).
    pub skew: f64,
}

impl GraphProfile {
    /// Extracts the profile from a CSR graph: one serial pass over the
    /// row offsets, no allocation.
    pub fn extract(g: &Csr) -> Self {
        let m = DegreeMoments::accumulate(g);
        Self::from_moments(m, g.num_edges())
    }

    fn from_moments(m: DegreeMoments, num_edges: usize) -> Self {
        let density = if m.n > 1 {
            m.mean() / (m.n - 1) as f64
        } else {
            0.0
        };
        Self {
            num_vertices: m.n,
            num_edges,
            density,
            min_degree: m.min,
            max_degree: m.max,
            avg_degree: m.mean(),
            variance: m.variance(),
            skew: m.skewness(),
        }
    }

    /// A header-only estimate for inputs too large to materialize (the
    /// `IngestLimits` path): only `n` and `m` are known, so every
    /// distribution statistic collapses to the uniform assumption. The
    /// planner treats this as a regular graph of the declared size.
    pub fn coarse(num_vertices: usize, num_edges: usize) -> Self {
        let avg = if num_vertices == 0 {
            0.0
        } else {
            num_edges as f64 / num_vertices as f64
        };
        let density = if num_vertices > 1 {
            avg / (num_vertices - 1) as f64
        } else {
            0.0
        };
        let d = avg.round().max(0.0) as usize;
        Self {
            num_vertices,
            num_edges,
            density,
            min_degree: d,
            max_degree: d,
            avg_degree: avg,
            variance: 0.0,
            skew: 0.0,
        }
    }

    /// Coefficient of variation of the degree distribution (σ / mean,
    /// 0 for degenerate distributions) — the planner's main shape signal.
    pub fn degree_cv(&self) -> f64 {
        if self.avg_degree > 0.0 {
            self.variance.max(0.0).sqrt() / self.avg_degree
        } else {
            0.0
        }
    }

    /// Max degree relative to the mean (1 for regular graphs; large for
    /// power-law tails). Guards against division by zero on empty rows.
    pub fn max_ratio(&self) -> f64 {
        if self.avg_degree > 0.0 {
            self.max_degree as f64 / self.avg_degree
        } else if self.max_degree > 0 {
            self.max_degree as f64
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_undirected_edges;

    #[test]
    fn stats_of_fig2_graph() {
        let g = from_undirected_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4)]);
        let s = DegreeStats::compute(&g);
        assert_eq!(s.num_vertices, 5);
        assert_eq!(s.num_edges, 14);
        assert_eq!(s.min_degree, 2);
        assert_eq!(s.max_degree, 4);
        assert!((s.avg_degree - 2.8).abs() < 1e-12);
        assert!(s.symmetric);
        // degrees: [2, 4, 3, 2, 3]; mean 2.8; variance = (0.64+1.44+0.04+0.64+0.04)/5
        assert!((s.variance - 0.56).abs() < 1e-12);
    }

    #[test]
    fn stats_of_empty_graph() {
        let g = Csr::empty(0);
        let s = DegreeStats::compute(&g);
        assert_eq!(s.num_vertices, 0);
        assert_eq!(s.variance, 0.0);
        assert!(s.symmetric);
    }

    #[test]
    fn stats_flags_asymmetric_graph() {
        let g = Csr::new(vec![0, 1, 1], vec![1]);
        let s = DegreeStats::compute(&g);
        assert!(!s.symmetric);
        assert_eq!(s.min_degree, 0);
        assert_eq!(s.max_degree, 1);
    }

    #[test]
    fn regular_graph_has_zero_variance() {
        // A 4-cycle: every degree is 2.
        let g = from_undirected_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let s = DegreeStats::compute(&g);
        assert_eq!(s.min_degree, 2);
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.variance, 0.0);
    }

    #[test]
    fn profile_agrees_with_degree_stats() {
        let g = from_undirected_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4)]);
        let s = DegreeStats::compute(&g);
        let p = GraphProfile::extract(&g);
        assert_eq!(p.num_vertices, s.num_vertices);
        assert_eq!(p.num_edges, s.num_edges);
        assert_eq!(p.min_degree, s.min_degree);
        assert_eq!(p.max_degree, s.max_degree);
        assert!((p.avg_degree - s.avg_degree).abs() < 1e-12);
        assert!((p.variance - s.variance).abs() < 1e-12);
        // density = 2.8 / 4
        assert!((p.density - 0.7).abs() < 1e-12);
        // degrees [2,4,3,2,3] lean right of the mean: skew is positive.
        assert!(p.skew > 0.0, "skew {}", p.skew);
    }

    #[test]
    fn profile_of_degenerate_graphs() {
        let empty = GraphProfile::extract(&Csr::empty(0));
        assert_eq!(empty.num_vertices, 0);
        assert_eq!(empty.density, 0.0);
        assert_eq!(empty.skew, 0.0);
        assert_eq!(empty.degree_cv(), 0.0);
        assert_eq!(empty.max_ratio(), 1.0);

        let lone = GraphProfile::extract(&Csr::empty(1));
        assert_eq!(lone.num_vertices, 1);
        assert_eq!(lone.density, 0.0);
        assert_eq!(lone.avg_degree, 0.0);

        // A star: one hub of degree n−1, leaves of degree 1 — max_ratio
        // far above 1 and strongly positive skew.
        let star = from_undirected_edges(9, (1..9).map(|v| (0, v)));
        let p = GraphProfile::extract(&star);
        assert_eq!(p.max_degree, 8);
        assert_eq!(p.min_degree, 1);
        assert!(p.skew > 1.0, "star skew {}", p.skew);
        assert!(p.max_ratio() > 4.0);

        // A clique is regular: zero variance, density 1.
        let k5 = from_undirected_edges(5, (0..5u32).flat_map(|u| (u + 1..5).map(move |v| (u, v))));
        let p = GraphProfile::extract(&k5);
        assert_eq!(p.variance, 0.0);
        assert_eq!(p.skew, 0.0);
        assert!((p.density - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coarse_profile_is_uniform_and_finite() {
        let p = GraphProfile::coarse(1_000_000, 20_000_000);
        assert_eq!(p.min_degree, p.max_degree);
        assert_eq!(p.min_degree, 20);
        assert!((p.avg_degree - 20.0).abs() < 1e-12);
        assert_eq!(p.variance, 0.0);
        assert!(p.density.is_finite());

        // Near the u32 index ceiling (the IngestLimits regime) nothing
        // overflows or goes non-finite.
        let huge = GraphProfile::coarse(u32::MAX as usize, 4_000_000_000);
        assert!(huge.avg_degree.is_finite());
        assert!(huge.density.is_finite());
        assert_eq!(GraphProfile::coarse(0, 0).avg_degree, 0.0);
    }
}
