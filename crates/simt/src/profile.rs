//! Run profiles: the modeled timeline of a complete algorithm execution —
//! kernel launches, PCIe transfers and host-side (CPU) phases — matching
//! how the paper times "only the computation part of each program".

use crate::timing::KernelStats;
use serde::Serialize;

/// One entry of a run's timeline.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Phase {
    /// A device kernel.
    Kernel(KernelStats),
    /// A PCIe transfer (label, bytes, milliseconds).
    Transfer {
        /// What was moved.
        label: String,
        /// Payload size.
        bytes: usize,
        /// Modeled duration.
        ms: f64,
    },
    /// Host-side sequential work (label, milliseconds).
    Host {
        /// What the CPU did.
        label: String,
        /// Modeled duration.
        ms: f64,
    },
}

impl Phase {
    /// Duration of this phase in milliseconds.
    pub fn ms(&self) -> f64 {
        match self {
            Phase::Kernel(k) => k.time_ms,
            Phase::Transfer { ms, .. } | Phase::Host { ms, .. } => *ms,
        }
    }
}

/// The modeled timeline of one algorithm run.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct RunProfile {
    /// Phases in execution order.
    pub phases: Vec<Phase>,
}

impl RunProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a kernel launch.
    pub fn kernel(&mut self, stats: KernelStats) {
        self.phases.push(Phase::Kernel(stats));
    }

    /// Appends a PCIe transfer.
    pub fn transfer(&mut self, label: impl Into<String>, bytes: usize, ms: f64) {
        self.phases.push(Phase::Transfer {
            label: label.into(),
            bytes,
            ms,
        });
    }

    /// Appends host-side work.
    pub fn host(&mut self, label: impl Into<String>, ms: f64) {
        self.phases.push(Phase::Host {
            label: label.into(),
            ms,
        });
    }

    /// Total modeled time.
    pub fn total_ms(&self) -> f64 {
        self.phases.iter().map(Phase::ms).sum()
    }

    /// Number of kernel launches.
    pub fn num_kernels(&self) -> usize {
        self.phases
            .iter()
            .filter(|p| matches!(p, Phase::Kernel(_)))
            .count()
    }

    /// Sum of kernel time only.
    pub fn kernel_ms(&self) -> f64 {
        self.phases
            .iter()
            .filter_map(|p| match p {
                Phase::Kernel(k) => Some(k.time_ms),
                _ => None,
            })
            .sum()
    }

    /// Sum of transfer time only.
    pub fn transfer_ms(&self) -> f64 {
        self.phases
            .iter()
            .filter_map(|p| match p {
                Phase::Transfer { ms, .. } => Some(*ms),
                _ => None,
            })
            .sum()
    }

    /// Sum of host time only.
    pub fn host_ms(&self) -> f64 {
        self.phases
            .iter()
            .filter_map(|p| match p {
                Phase::Host { ms, .. } => Some(*ms),
                _ => None,
            })
            .sum()
    }

    /// Aggregated kernel statistics (weighted by time) for Fig.-3-style
    /// reporting: (achieved bandwidth fraction, achieved issue fraction,
    /// stall breakdown averaged over kernel time).
    pub fn aggregate_kernel_metrics(&self) -> Option<(f64, f64, crate::timing::StallBreakdown)> {
        let mut t = 0.0f64;
        let (mut bw, mut ipc) = (0.0f64, 0.0f64);
        let mut stalls = crate::timing::StallBreakdown::default();
        for p in &self.phases {
            if let Phase::Kernel(k) = p {
                let w = k.time_ms;
                t += w;
                bw += k.achieved_bw_frac * w;
                ipc += k.achieved_ipc_frac * w;
                stalls.memory_dependency += k.stalls.memory_dependency * w;
                stalls.execution_dependency += k.stalls.execution_dependency * w;
                stalls.synchronization += k.stalls.synchronization * w;
                stalls.instruction_fetch += k.stalls.instruction_fetch * w;
                stalls.other += k.stalls.other * w;
            }
        }
        if t == 0.0 {
            return None;
        }
        stalls.memory_dependency /= t;
        stalls.execution_dependency /= t;
        stalls.synchronization /= t;
        stalls.instruction_fetch /= t;
        stalls.other /= t;
        Some((bw / t, ipc / t, stalls))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let mut p = RunProfile::new();
        p.transfer("graph h2d", 1000, 0.5);
        p.host("resolve", 2.0);
        p.transfer("colors d2h", 500, 0.25);
        assert_eq!(p.num_kernels(), 0);
        assert!((p.total_ms() - 2.75).abs() < 1e-12);
        assert!((p.transfer_ms() - 0.75).abs() < 1e-12);
        assert!((p.host_ms() - 2.0).abs() < 1e-12);
        assert_eq!(p.kernel_ms(), 0.0);
    }

    #[test]
    fn aggregate_metrics_none_without_kernels() {
        let p = RunProfile::new();
        assert!(p.aggregate_kernel_metrics().is_none());
    }
}
