//! CPU cost model for the host-side parts of the evaluation.
//!
//! The paper's speedups are normalized to a sequential implementation on an
//! Intel Xeon E5-2670 (2.6 GHz). Since GPU-side time in this reproduction
//! is *modeled* cycles, the sequential baseline must live in the same model
//! for ratios to be meaningful. The constants below were calibrated
//! against the actual wall-clock of this crate's own Rust sequential
//! greedy implementation on a ~2-3 GHz x86 host (a few nanoseconds per
//! edge traversal); `gcol-bench` re-checks the calibration at runtime and
//! reports the measured figure next to the modeled one.

use serde::Serialize;

/// A simple throughput cost model of one CPU core.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CpuModel {
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Average cycles to process one edge of the greedy loop (load
    /// neighbor, load its color, mark the mask — DRAM-latency amortized by
    /// out-of-order execution and prefetching).
    pub cycles_per_edge: f64,
    /// Average cycles of per-vertex overhead (mask scan, color store,
    /// loop control).
    pub cycles_per_vertex: f64,
}

impl CpuModel {
    /// The Xeon E5-2670 of the paper's testbed.
    pub fn xeon_e5_2670() -> Self {
        Self {
            clock_ghz: 2.6,
            cycles_per_edge: 9.0,
            cycles_per_vertex: 14.0,
        }
    }

    /// Modeled milliseconds for one full greedy sweep over a graph with
    /// `vertices` vertices and `edges` stored (directed) edges.
    pub fn greedy_sweep_ms(&self, vertices: usize, edges: usize) -> f64 {
        let cycles = self.cycles_per_edge * edges as f64 + self.cycles_per_vertex * vertices as f64;
        cycles / (self.clock_ghz * 1e9) * 1e3
    }
}

impl Default for CpuModel {
    fn default() -> Self {
        Self::xeon_e5_2670()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_graph_costs_tens_of_ms() {
        // rmat-er: 1M vertices, 21M edges → ~80 ms at 9 cycles/edge.
        let m = CpuModel::xeon_e5_2670();
        let ms = m.greedy_sweep_ms(1_048_576, 20_971_268);
        assert!(ms > 30.0 && ms < 200.0, "ms = {ms}");
    }

    #[test]
    fn cost_scales_linearly() {
        let m = CpuModel::xeon_e5_2670();
        let a = m.greedy_sweep_ms(1000, 10_000);
        let b = m.greedy_sweep_ms(2000, 20_000);
        assert!((b / a - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_graph_is_free() {
        assert_eq!(CpuModel::default().greedy_sweep_ms(0, 0), 0.0);
    }
}
