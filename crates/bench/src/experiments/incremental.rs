//! Incremental recoloring A/B: after an edge-edit batch, repair the old
//! coloring through [`gcol_core::recolor_delta`] versus rerunning the
//! scheme from scratch on the edited graph.
//!
//! The sweep applies mixed batches (half deletes of existing edges, half
//! inserts of fresh non-edges) sized at 0.1%, 1% and 5% of the graph's
//! undirected edge count, for every GPU scheme. Both paths are timed in
//! wall clock (min over 3 runs on the native backend — the statistic the
//! repo's other wall benchmarks use on a noisy shared host, and the one
//! that excludes first-call arena/pool warm-up); on the simt backend the
//! modeled time and the summed kernel instruction counts are reported
//! too, making the asymptotic claim checkable: the repair engine
//! launches over the dirty set, so its kernel work scales with the
//! batch, not the graph.
//!
//! The edit itself (`Csr::with_edits`, the rebuild a served `mutate`
//! pays before its repair) is timed the same way, in its own column.
//!
//! Every repaired coloring is verified proper and bit-identical to the
//! baseline outside the touched set. `--smoke` runs the CI gate on the
//! simt backend: at the 1% batch, no scheme's delta repair may issue
//! more kernel instructions than its from-scratch rerun.

use super::ExpConfig;
use crate::report::{f, maybe_write_json, speedup, Table};
use gcol_core::{recolor_delta, Coloring, Scheme};
use gcol_graph::edit::EdgeEdit;
use gcol_graph::gen::{self, RmatParams};
use gcol_graph::rng::splitmix64;
use gcol_graph::{Csr, VertexId};
use gcol_simt::{Device, Phase};
use serde::Serialize;
use std::time::Instant;

/// Edit-batch sizes as permille of the undirected edge count.
pub const BATCH_PERMILLE: [u32; 3] = [1, 10, 50];

#[derive(Serialize)]
struct Row {
    scheme: &'static str,
    batch_permille: u32,
    edits: usize,
    touched: usize,
    /// Wall time of `Csr::with_edits` for the batch — the graph rebuild
    /// a served edit pays before either recoloring path runs.
    edit_wall_ms: f64,
    scratch_wall_ms: f64,
    delta_wall_ms: f64,
    wall_speedup: f64,
    /// Modeled timeline totals (simt backend; wall-clock-dominated and
    /// near-identical on native, which models no device).
    scratch_modeled_ms: f64,
    delta_modeled_ms: f64,
    /// Warp instructions summed over all kernel launches (0 on native:
    /// no modeled kernels).
    scratch_kernel_instructions: u64,
    delta_kernel_instructions: u64,
    scratch_colors: usize,
    delta_colors: usize,
}

/// Warp instructions summed over the run's kernel phases.
fn kernel_instructions(r: &Coloring) -> u64 {
    r.profile
        .phases
        .iter()
        .filter_map(|p| match p {
            Phase::Kernel(k) => Some(k.instructions),
            _ => None,
        })
        .sum()
}

/// A deterministic mixed batch of `target` edits: the first half deletes
/// existing undirected edges (evenly strided through the edge list), the
/// second half inserts fresh non-edges drawn from a seeded stream.
fn edit_batch(g: &Csr, target: usize, seed: u64) -> Vec<EdgeEdit> {
    let undirected = g.num_edges() / 2;
    let deletes = (target / 2).min(undirected);
    let stride = (undirected / deletes.max(1)).max(1);
    let mut edits: Vec<EdgeEdit> = g
        .edges()
        .filter(|(u, v)| u < v)
        .step_by(stride)
        .take(deletes)
        .map(|(u, v)| EdgeEdit::Delete(u, v))
        .collect();
    let n = g.num_vertices() as u64;
    let mut s = seed;
    let mut fresh: std::collections::HashSet<(VertexId, VertexId)> =
        std::collections::HashSet::new();
    while edits.len() < target {
        let u = (splitmix64(&mut s) % n) as VertexId;
        let v = (splitmix64(&mut s) % n) as VertexId;
        let key = (u.min(v), u.max(v));
        if u != v && !g.has_edge_sorted(u, v) && fresh.insert(key) {
            edits.push(EdgeEdit::Insert(u, v));
        }
    }
    edits
}

/// Runs the A/B: every GPU scheme, every batch size; delta repairs are
/// verified proper and clean outside the touched set.
pub fn run(cfg: &ExpConfig) -> String {
    let mut cfg = cfg.clone();
    if cfg.smoke {
        // The gate compares modeled kernel work, so it needs the
        // instruction-counting backend.
        cfg.backend = gcol_core::BackendKind::Simt;
    }
    let dev = Device::k20c();
    // Wall repeats: min-of-3 on native (cheap full runs, noisy host); the
    // simt backend's modeled columns are deterministic, so one run does.
    let repeats = if cfg.backend == gcol_core::BackendKind::Native {
        3
    } else {
        1
    };
    let g = match cfg.graph_override() {
        Some(e) => e.graph,
        None => gen::rmat(RmatParams::erdos_renyi(cfg.scale, 20), 0xE5),
    };
    let undirected = g.num_edges() / 2;
    let opts = cfg.color_options();
    let mut table = Table::new(vec![
        "scheme".to_string(),
        "batch".to_string(),
        "edits".to_string(),
        "touched".to_string(),
        "edit ms".to_string(),
        format!("scratch ms ({})", cfg.backend),
        format!("delta ms ({})", cfg.backend),
        "speedup".to_string(),
        "scratch kinstr".to_string(),
        "delta kinstr".to_string(),
        "colors s/d".to_string(),
    ]);
    let mut rows: Vec<Row> = Vec::new();
    for scheme in Scheme::GPU {
        let base = match scheme.try_color(&g, &dev, &opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("warning: {scheme} baseline skipped: {e}");
                continue;
            }
        };
        for &permille in &BATCH_PERMILLE {
            let target = ((undirected as u64 * permille as u64) / 1000).max(2) as usize;
            let batch = edit_batch(&g, target, 0xD1A_0000 | permille as u64);
            let mut edit = None;
            let mut edit_wall_ms = f64::INFINITY;
            for _ in 0..repeats {
                let t0 = Instant::now();
                let r = g.with_edits(&batch).expect("generated batch is valid");
                edit_wall_ms = edit_wall_ms.min(t0.elapsed().as_secs_f64() * 1e3);
                edit = Some(r);
            }
            let (edited, touched) = edit.unwrap();

            let mut scratch = None;
            let mut scratch_wall_ms = f64::INFINITY;
            let mut delta = None;
            let mut delta_wall_ms = f64::INFINITY;
            for _ in 0..repeats {
                let t0 = Instant::now();
                let r = scheme
                    .try_color(&edited, &dev, &opts)
                    .unwrap_or_else(|e| panic!("{scheme} scratch at {permille}permille: {e}"));
                scratch_wall_ms = scratch_wall_ms.min(t0.elapsed().as_secs_f64() * 1e3);
                scratch = Some(r);

                let t0 = Instant::now();
                let r = recolor_delta(&edited, &base, &touched, &dev, &opts)
                    .unwrap_or_else(|e| panic!("{scheme} delta at {permille}permille: {e}"));
                delta_wall_ms = delta_wall_ms.min(t0.elapsed().as_secs_f64() * 1e3);
                delta = Some(r);
            }
            let (scratch, delta) = (scratch.unwrap(), delta.unwrap());

            gcol_core::verify_coloring(&edited, &scratch.colors)
                .unwrap_or_else(|e| panic!("{scheme} scratch improper: {e}"));
            gcol_core::verify_coloring(&edited, &delta.colors)
                .unwrap_or_else(|e| panic!("{scheme} delta improper: {e}"));
            let touched_set: std::collections::HashSet<VertexId> =
                touched.iter().copied().collect();
            for v in 0..edited.num_vertices() {
                assert!(
                    touched_set.contains(&(v as VertexId)) || delta.colors[v] == base.colors[v],
                    "{scheme}: delta recolored untouched vertex {v}"
                );
            }

            let row = Row {
                scheme: scheme.name(),
                batch_permille: permille,
                edits: batch.len(),
                touched: touched.len(),
                edit_wall_ms,
                scratch_wall_ms,
                delta_wall_ms,
                wall_speedup: scratch_wall_ms / delta_wall_ms,
                scratch_modeled_ms: scratch.total_ms(),
                delta_modeled_ms: delta.total_ms(),
                scratch_kernel_instructions: kernel_instructions(&scratch),
                delta_kernel_instructions: kernel_instructions(&delta),
                scratch_colors: scratch.num_colors,
                delta_colors: delta.num_colors,
            };
            table.row(vec![
                row.scheme.to_string(),
                format!("{:.1}%", permille as f64 / 10.0),
                row.edits.to_string(),
                row.touched.to_string(),
                f(row.edit_wall_ms, 2),
                f(row.scratch_wall_ms, 2),
                f(row.delta_wall_ms, 2),
                speedup(row.wall_speedup),
                row.scratch_kernel_instructions.to_string(),
                row.delta_kernel_instructions.to_string(),
                format!("{}/{}", row.scratch_colors, row.delta_colors),
            ]);
            rows.push(row);
        }
    }
    maybe_write_json(cfg.json.as_deref(), &rows).expect("json write");
    let mut report = format!(
        "Incremental recoloring — rmat-er scale {} ({} vertices, {} undirected\n\
         edges) on the {} backend. Each batch is half deletes, half fresh\n\
         inserts; 'touched' is the dirty set the repair engine consumed, and\n\
         'edit ms' the graph rebuild (Csr::with_edits) both paths need first.\n\
         Every delta coloring is verified proper and bit-identical to the baseline\n\
         outside the touched set. Expected shape: delta wall time and kernel\n\
         work scale with the batch, from-scratch with the graph, so the\n\
         speedup shrinks as the batch grows.\n\n{}",
        cfg.scale,
        g.num_vertices(),
        undirected,
        cfg.backend,
        table.render()
    );
    if cfg.smoke {
        report.push_str(&smoke_checks(&rows));
    }
    report
}

/// The CI gate: at the 1% batch, a delta repair never issues more kernel
/// instructions than the from-scratch rerun. Panics on violation.
fn smoke_checks(rows: &[Row]) -> String {
    let mut checked = 0usize;
    for r in rows.iter().filter(|r| r.batch_permille == 10) {
        assert!(
            r.delta_kernel_instructions <= r.scratch_kernel_instructions,
            "smoke: {} at 1%: delta kernel work ({} instr) exceeds scratch ({} instr)",
            r.scheme,
            r.delta_kernel_instructions,
            r.scratch_kernel_instructions
        );
        checked += 1;
    }
    assert!(checked > 0, "smoke: no 1%-batch rows to compare");
    format!("\nsmoke: OK — {checked} delta-vs-scratch kernel-work comparisons, 0 violations\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcol_core::BackendKind;

    #[test]
    fn incremental_report_covers_every_scheme_and_batch() {
        let cfg = ExpConfig {
            scale: 9,
            backend: BackendKind::Native,
            ..ExpConfig::default()
        };
        let out = run(&cfg);
        for scheme in Scheme::GPU {
            assert!(out.contains(scheme.name()), "missing {scheme}");
        }
        for pct in ["0.1%", "1.0%", "5.0%"] {
            assert!(out.contains(pct), "missing batch column {pct}");
        }
        assert!(out.contains("edit ms"), "missing edit column");
    }

    #[test]
    fn smoke_gate_holds_at_small_scale() {
        let cfg = ExpConfig {
            scale: 9,
            smoke: true,
            ..ExpConfig::default()
        };
        let out = run(&cfg);
        assert!(out.contains("smoke: OK"), "missing smoke summary:\n{out}");
    }

    #[test]
    fn edit_batches_hit_their_target_size() {
        let g = gen::rmat(RmatParams::erdos_renyi(8, 8), 1);
        let batch = edit_batch(&g, 40, 7);
        assert_eq!(batch.len(), 40);
        let deletes = batch
            .iter()
            .filter(|e| matches!(e, EdgeEdit::Delete(..)))
            .count();
        assert_eq!(deletes, 20);
        // The batch must be applicable as generated.
        g.with_edits(&batch).unwrap();
    }
}
