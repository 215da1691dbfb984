//! The benchmark suite of Table I.
//!
//! Two R-MAT graphs with the paper's exact parameters, plus structural
//! stand-ins for the four University-of-Florida matrices (generated to
//! match each graph's published structure class and degree profile; see
//! DESIGN.md for the substitution rationale). When the real `.mtx` files
//! are present in `$GCOL_SUITE_DIR`, they are loaded instead.
//!
//! All sizes scale with a log2 `scale` parameter: the paper's runs
//! correspond to `scale = 20` (rmat graphs of 2^20 vertices; the UF
//! stand-ins scale proportionally). Smaller scales keep the simulation
//! tractable on modest hosts while preserving every qualitative shape.

use gcol_graph::gen;
use gcol_graph::stats::{DegreeStats, GraphProfile};
use gcol_graph::Csr;
use serde::Serialize;

/// The paper's published Table I row for a graph (for side-by-side
/// reporting).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PaperRow {
    /// Vertices.
    pub vertices: usize,
    /// Non-zero elements (stored directed edges).
    pub edges: usize,
    /// Minimum degree.
    pub min_deg: usize,
    /// Maximum degree.
    pub max_deg: usize,
    /// Average degree.
    pub avg_deg: f64,
    /// Degree variance.
    pub variance: f64,
    /// Symmetric positive definite?
    pub spd: bool,
    /// Application domain string from Table I.
    pub domain: &'static str,
}

impl PaperRow {
    /// A row built from a graph's own measured statistics — the shape
    /// used for user-supplied `--graph` files, where the "paper" columns
    /// are the file itself. Single source: [`DegreeStats::compute`], the
    /// same implementation `table1` and the planner profile run on.
    pub fn measured(s: &DegreeStats) -> Self {
        Self {
            vertices: s.num_vertices,
            edges: s.num_edges,
            min_deg: s.min_degree,
            max_deg: s.max_degree,
            avg_deg: s.avg_degree,
            variance: s.variance,
            spd: false,
            domain: "user file",
        }
    }
}

/// One suite entry: name, the paper's row, and the graph. Entries come
/// from the generated Table I suite ([`build_suite`]) or from a real
/// graph file on disk ([`load_entry`], the `--graph` path).
pub struct SuiteEntry {
    /// Graph name: the Table I name, or the loaded file's stem.
    pub name: String,
    /// Published Table I values (at the paper's full scale); for a
    /// loaded file, its own measured statistics.
    pub paper: PaperRow,
    /// The graph itself (at the requested scale).
    pub graph: Csr,
}

impl SuiteEntry {
    /// Degree statistics of the generated graph.
    pub fn stats(&self) -> DegreeStats {
        DegreeStats::compute(&self.graph)
    }

    /// The planner's single-pass feature vector for this graph.
    pub fn profile(&self) -> GraphProfile {
        GraphProfile::extract(&self.graph)
    }
}

/// Published Table I rows.
pub fn paper_rows() -> [(&'static str, PaperRow); 6] {
    [
        (
            "rmat-er",
            PaperRow {
                vertices: 1_048_576,
                edges: 20_971_268,
                min_deg: 2,
                max_deg: 59,
                avg_deg: 20.00,
                variance: 23.37,
                spd: false,
                domain: "Synthetic",
            },
        ),
        (
            "rmat-g",
            PaperRow {
                vertices: 1_048_576,
                edges: 20_964_268,
                min_deg: 0,
                max_deg: 899,
                avg_deg: 20.00,
                variance: 472.81,
                spd: false,
                domain: "Synthetic",
            },
        ),
        (
            "thermal2",
            PaperRow {
                vertices: 1_228_045,
                edges: 8_580_313,
                min_deg: 1,
                max_deg: 11,
                avg_deg: 6.99,
                variance: 0.66,
                spd: true,
                domain: "Thermal Simulation",
            },
        ),
        (
            "atmosmodd",
            PaperRow {
                vertices: 1_270_432,
                edges: 8_814_880,
                min_deg: 4,
                max_deg: 7,
                avg_deg: 6.94,
                variance: 0.06,
                spd: false,
                domain: "Atmospheric Model",
            },
        ),
        (
            "Hamrle3",
            PaperRow {
                vertices: 1_447_360,
                edges: 11_028_464,
                min_deg: 4,
                max_deg: 15,
                avg_deg: 7.62,
                variance: 7.21,
                spd: false,
                domain: "Circuit Simulation",
            },
        ),
        (
            "G3_circuit",
            PaperRow {
                vertices: 1_585_478,
                edges: 7_660_826,
                min_deg: 2,
                max_deg: 6,
                avg_deg: 4.83,
                variance: 0.41,
                spd: true,
                domain: "Circuit Simulation",
            },
        ),
    ]
}

/// Builds one suite graph at the given scale (paper scale = 20). Looks for
/// the real matrix in `$GCOL_SUITE_DIR/<name>.mtx` first when running at
/// full scale.
pub fn build_graph(name: &str, scale: u32) -> Csr {
    assert!((8..=22).contains(&scale), "scale out of supported range");
    if scale == 20 {
        if let Ok(dir) = std::env::var("GCOL_SUITE_DIR") {
            let path = std::path::Path::new(&dir).join(format!("{name}.mtx"));
            if let Ok(f) = std::fs::File::open(&path) {
                let reader = std::io::BufReader::new(f);
                if let Ok(g) = gcol_graph::io::read_matrix_market(reader) {
                    return g;
                }
            }
        }
    }
    // Proportional scaling: paper sizes shrink by 2^(20 - scale).
    let shrink =
        |paper_n: usize| -> usize { (paper_n >> (20 - scale.min(20))) << scale.saturating_sub(20) };
    match name {
        "rmat-er" => gen::rmat(gen::RmatParams::erdos_renyi(scale, 20), 0xE5),
        "rmat-g" => gen::rmat(gen::RmatParams::skewed(scale, 20), 0x9E),
        "thermal2" => {
            let n = shrink(1_228_045);
            let side = (n as f64).sqrt().round() as usize;
            gen::mesh2d(side, side, 0.10, 0x7E)
        }
        "atmosmodd" => {
            let n = shrink(1_270_432);
            let side = (n as f64).cbrt().round() as usize;
            gen::grid3d(side, side, side)
        }
        "Hamrle3" => {
            let n = shrink(1_447_360);
            gen::circuit_graph(n, 3, 0.9, 0xA3)
        }
        "G3_circuit" => {
            let n = shrink(1_585_478);
            let side = (n as f64).sqrt().round() as usize;
            gen::grid2d(side, side, gen::StencilKind::FivePoint)
        }
        other => panic!("unknown suite graph {other:?}"),
    }
}

/// Builds the full six-graph suite at the given scale.
pub fn build_suite(scale: u32) -> Vec<SuiteEntry> {
    paper_rows()
        .into_iter()
        .map(|(name, paper)| SuiteEntry {
            name: name.to_string(),
            paper,
            graph: build_graph(name, scale),
        })
        .collect()
}

/// Loads a real graph file (MatrixMarket, DIMACS, METIS or edge list —
/// resolved by extension, then content sniffing) as a one-entry suite.
/// The "paper" row is the file's own measured statistics, so every
/// report renders its expected-vs-measured columns consistently.
pub fn load_entry(
    path: impl AsRef<std::path::Path>,
) -> Result<SuiteEntry, gcol_graph::io::IoError> {
    let path = path.as_ref();
    let (_, graph) = gcol_graph::io::GraphSource::open(path, gcol_graph::io::IngestLimits::NONE)?;
    let s = DegreeStats::compute(&graph);
    Ok(SuiteEntry {
        name: path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("file")
            .to_string(),
        paper: PaperRow::measured(&s),
        graph,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_builds_at_small_scale() {
        let suite = build_suite(12);
        assert_eq!(suite.len(), 6);
        for e in &suite {
            assert!(e.graph.num_vertices() > 1000, "{} too small", e.name);
            e.graph.validate().unwrap();
            assert!(e.graph.is_symmetric(), "{} not symmetric", e.name);
        }
    }

    #[test]
    fn degree_shapes_track_table1() {
        // At reduced scale the *shape* statistics (average degree within a
        // factor, variance ordering) must match the paper's rows.
        let suite = build_suite(13);
        let by_name = |n: &str| {
            suite
                .iter()
                .find(|e| e.name == n)
                .map(|e| e.stats())
                .unwrap()
        };
        let er = by_name("rmat-er");
        let gskew = by_name("rmat-g");
        let atmos = by_name("atmosmodd");
        let g3 = by_name("G3_circuit");
        let thermal = by_name("thermal2");
        let hamrle = by_name("Hamrle3");

        // rmat-g much more skewed than rmat-er (paper: 472 vs 23).
        assert!(gskew.variance > 4.0 * er.variance);
        assert!(gskew.max_degree > 2 * er.max_degree);
        // Stencils have near-zero variance; atmosmodd tightest.
        assert!(atmos.variance < 0.3, "atmos var {}", atmos.variance);
        assert!(g3.variance < 0.5, "g3 var {}", g3.variance);
        // G3_circuit is the sparsest in the suite (paper: 4.83).
        let avgs: Vec<f64> = suite.iter().map(|e| e.stats().avg_degree).collect();
        assert!(avgs.iter().all(|&a| g3.avg_degree <= a + 1e-9));
        // Mesh/circuit graphs sit near their paper averages (off-diagonal).
        assert!(
            (thermal.avg_degree - 6.0).abs() < 1.0,
            "thermal avg {}",
            thermal.avg_degree
        );
        assert!(
            (hamrle.avg_degree - 7.0).abs() < 1.5,
            "hamrle avg {}",
            hamrle.avg_degree
        );
        // Hamrle3 has the broadest spread of the four UF graphs.
        assert!(hamrle.variance > atmos.variance);
        assert!(hamrle.variance > g3.variance);
        assert!(hamrle.variance > thermal.variance);
    }

    #[test]
    fn table1_standin_rows_are_pinned() {
        // Exact statistics of the generated Table I stand-ins at scale 10,
        // computed by the shared `gcol-graph::stats` single-pass
        // implementation (the same one `table1`, `load_entry` and the
        // planner profile use). Any change to the generators or to the
        // moment accumulation shows up here first.
        #[rustfmt::skip]
        let expected: [(&str, usize, usize, usize, usize, f64, f64); 6] = [
            ("rmat-er",    1024, 20278, 8,  36, 19.8027, 19.7169),
            ("rmat-g",     1024, 18744, 1, 102, 18.3047, 144.1357),
            ("thermal2",   1225,  6962, 2,  11,  5.6833,  1.3185),
            ("atmosmodd",  1331,  7260, 3,   6,  5.4545,  0.4463),
            ("Hamrle3",    1413, 10560, 3,  14,  7.4735,  2.1927),
            ("G3_circuit", 1521,  5928, 2,   4,  3.8974,  0.0973),
        ];
        let suite = build_suite(10);
        for (name, n, m, min, max, avg, var) in expected {
            let e = suite.iter().find(|e| e.name == name).unwrap();
            let s = e.stats();
            let p = e.profile();
            assert_eq!(s.num_vertices, n, "{name} vertices");
            assert_eq!(s.num_edges, m, "{name} edges");
            assert_eq!(s.min_degree, min, "{name} min degree");
            assert_eq!(s.max_degree, max, "{name} max degree");
            assert!(
                (s.avg_degree - avg).abs() < 1e-4,
                "{name} avg {}",
                s.avg_degree
            );
            assert!((s.variance - var).abs() < 1e-4, "{name} var {}", s.variance);
            // The profile is the same pass: identical moments, plus the
            // planner-only columns populated and finite.
            assert_eq!(p.num_vertices, s.num_vertices, "{name}");
            assert_eq!(p.num_edges, s.num_edges, "{name}");
            assert_eq!(p.min_degree, s.min_degree, "{name}");
            assert_eq!(p.max_degree, s.max_degree, "{name}");
            assert!((p.avg_degree - s.avg_degree).abs() < 1e-12, "{name}");
            assert!((p.variance - s.variance).abs() < 1e-12, "{name}");
            assert!(p.density > 0.0 && p.density.is_finite(), "{name}");
            assert!(p.skew.is_finite(), "{name}");
        }
        // The skew column orders the suite the way Table I's variance
        // does: rmat-g is by far the most skewed graph.
        let skew_of = |n: &str| suite.iter().find(|e| e.name == n).unwrap().profile().skew;
        assert!(skew_of("rmat-g") > skew_of("rmat-er"));
        assert!(skew_of("rmat-g") > skew_of("G3_circuit"));
    }

    #[test]
    fn scaling_changes_size_roughly_by_powers_of_two() {
        let small = build_graph("thermal2", 12);
        let large = build_graph("thermal2", 14);
        let ratio = large.num_vertices() as f64 / small.num_vertices() as f64;
        assert!((2.5..6.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "unknown suite graph")]
    fn unknown_name_panics() {
        build_graph("not-a-graph", 12);
    }
}

#[cfg(test)]
mod real_file_tests {
    use super::*;

    /// At full scale, `build_graph` prefers a real `.mtx` dropped in
    /// `$GCOL_SUITE_DIR`. Exercise that path with a miniature stand-in
    /// file (env-var manipulation is process-global, so this is the only
    /// test that touches it).
    #[test]
    fn loads_real_matrix_when_present() {
        let dir = std::env::temp_dir().join("gcol-suite-test");
        std::fs::create_dir_all(&dir).unwrap();
        let tiny = gcol_graph::gen::simple::cycle(5);
        let path = dir.join("thermal2.mtx");
        let mut buf = Vec::new();
        gcol_graph::io::write_matrix_market(&tiny, &mut buf).unwrap();
        std::fs::write(&path, buf).unwrap();

        // SAFETY-free std API (Rust 2021): set_var is fine in a single
        // test binary thread as long as no other test reads this var.
        std::env::set_var("GCOL_SUITE_DIR", &dir);
        let loaded = build_graph("thermal2", 20);
        std::env::remove_var("GCOL_SUITE_DIR");

        assert_eq!(loaded, tiny, "the real file must win at scale 20");
        std::fs::remove_file(&path).ok();
    }
}
