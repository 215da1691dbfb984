//! Order statistics, the metric registry and the result line.

use std::collections::BTreeMap;

/// Nearest-rank percentile (`p` in 0..=1) of unsorted samples; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Geometric mean of positive samples; 0 when empty.
pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// The end-to-end metrics every workload reports with `--trace 0`, with
/// their units. `BENCHMARK.json` lists the same names. Wall-clock
/// throughput and latency are not among them: on a shared VM they move
/// with the hypervisor's steal by more than any bound allows (see
/// README.md), so every run prints them on its `wall` line and the
/// traced run reports them as `bench.*` figures.
pub const END_TO_END: &[(&str, &str)] = &[
    ("cpu_ms_per_job", "ms"),
    ("ok_share", "ratio"),
    ("colors_ratio", "ratio"),
    ("modeled_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The per-layer metrics every workload reports with `--trace 1`. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.gen_ms", "ms"),
    ("graph.ingest_ms", "ms"),
    ("graph.fingerprint_ms", "ms"),
    ("graph.edit_ms", "ms"),
    ("graph.edit_touched", "count"),
    ("plan.plan_ms", "ms"),
    ("plan.wall_regret", "ratio"),
    ("plan.predicted_over_measured", "ratio"),
    ("core.exec_ms.D-base", "ms"),
    ("core.exec_ms.D-atomic", "ms"),
    ("core.exec_ms.T-base", "ms"),
    ("core.exec_ms.sequential", "ms"),
    ("core.exec_ms.auto", "ms"),
    ("core.exec_ms.D-base-p2", "ms"),
    ("core.recorded_share", "ratio"),
    ("core.launches", "count"),
    ("core.rounds", "count"),
    ("core.floor_ratio", "ratio"),
    ("core.exchange_rounds", "count"),
    ("core.frontier_bytes", "bytes"),
    ("core.repair_ms", "ms"),
    ("core.repair_rounds", "count"),
    ("core.miscounted_share", "ratio"),
    ("simt.native_kernel_ms", "ms"),
    ("simt.instructions", "count"),
    ("simt.dram_bytes", "bytes"),
    ("simt.sim_ns_per_instr", "ns"),
    ("serve.submit_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.cache_hit_share", "ratio"),
    ("serve.outside_ms", "ms"),
    ("serve.proto.parse_ms", "ms"),
    ("serve.proto.encode_ms", "ms"),
    ("serve.proto.response_bytes", "bytes"),
    ("bench.trace_coverage", "ratio"),
    ("bench.trace_overhead", "ratio"),
    ("bench.jobs_per_s", "1/s"),
    ("bench.latency_p50_ms", "ms"),
    ("bench.latency_p95_ms", "ms"),
];

/// Metric values by name.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not registered"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Sets the wall-clock figures of a timed phase: completed-ok jobs per
/// second, and the latency median and 95th percentile.
pub fn set_wall(m: &mut Metrics, ok_jobs: usize, seconds: f64, latencies: &[f64]) {
    m.set("bench.jobs_per_s", ok_jobs as f64 / seconds);
    m.set("bench.latency_p50_ms", percentile(latencies, 0.50));
    m.set("bench.latency_p95_ms", percentile(latencies, 0.95));
}

/// Renders the result line: exactly the registered metrics of `table`,
/// in table order. An end-to-end metric that was never set is a bug in
/// the workload; an unset per-layer metric reads 0 (layer not
/// exercised).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    table: &[(&str, &str)],
    require_all: bool,
) -> String {
    let body: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = match metrics.0.get(name) {
                Some(v) => *v,
                None if require_all => panic!("workload did not report {name}"),
                None => 0.0,
            };
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(median(&xs), 100.0);
        assert_eq!(percentile(&xs, 0.95), 190.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    /// BENCHMARK.json and the tables above must name the same metrics
    /// with the same units, in the same order.
    #[test]
    fn manifest_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = crate::json::parse(&text).expect("valid JSON");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key} differs from the table");
        }
    }
}
