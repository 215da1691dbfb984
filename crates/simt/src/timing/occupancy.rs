//! CUDA-style occupancy calculator.
//!
//! Fig. 8 of the paper sweeps the thread-block size and finds performance
//! peaks at 128/256 threads: small blocks under-populate the SM (too few
//! warps to hide memory latency), very large blocks over-commit resources
//! ("resource oversaturation"). Both effects fall out of this calculator:
//! resident blocks per SM are limited by the thread / block / register /
//! shared-memory budgets, and the timing model converts resident warps
//! into latency-hiding capability.

use crate::config::Device;
use serde::Serialize;

/// Which resource bound the number of resident blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Limiter {
    /// `max_threads_per_sm / block_threads`.
    Threads,
    /// `max_blocks_per_sm`.
    Blocks,
    /// Register file capacity.
    Registers,
    /// Shared-memory capacity.
    SharedMemory,
    /// Fewer blocks were launched than one SM could host.
    GridSize,
}

/// Result of the occupancy computation for one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Occupancy {
    /// Blocks resident per SM.
    pub resident_blocks: u32,
    /// Warps resident per SM.
    pub resident_warps: u32,
    /// `resident_warps / max_warps_per_sm`.
    pub fraction: f64,
    /// The binding resource.
    pub limiter: Limiter,
}

/// Computes occupancy for a launch of `grid_blocks` blocks of
/// `block_threads` threads, where each thread uses `regs_per_thread`
/// registers and each block `smem_per_block` bytes of shared memory.
///
/// ```
/// use gcol_simt::{occupancy, Device};
/// let dev = Device::k20c();
/// // The paper's default 128-thread blocks fill the SM...
/// assert_eq!(occupancy(&dev, 1 << 16, 128, 32, 0).resident_warps, 64);
/// // ...while 32-thread blocks leave it three-quarters empty (Fig. 8).
/// assert_eq!(occupancy(&dev, 1 << 16, 32, 32, 0).resident_warps, 16);
/// ```
pub fn occupancy(
    dev: &Device,
    grid_blocks: u32,
    block_threads: u32,
    regs_per_thread: u32,
    smem_per_block: u32,
) -> Occupancy {
    assert!(block_threads >= 1, "empty blocks are not launchable");
    let warps_per_block = block_threads.div_ceil(dev.warp_size);

    let by_threads = dev.max_threads_per_sm / block_threads.max(1);
    let by_blocks = dev.max_blocks_per_sm;
    // Registers are allocated per warp with a granularity.
    let regs_per_warp =
        (regs_per_thread * dev.warp_size).next_multiple_of(dev.reg_alloc_granularity.max(1));
    let regs_per_block = regs_per_warp * warps_per_block;
    let by_regs = dev
        .regs_per_sm
        .checked_div(regs_per_block)
        .unwrap_or(u32::MAX);
    let by_smem = dev
        .smem_per_sm
        .checked_div(smem_per_block)
        .unwrap_or(u32::MAX);
    // Blocks the grid can actually supply per SM (ceil: the busiest SM).
    let by_grid = grid_blocks.div_ceil(dev.num_sms).max(1);

    let candidates = [
        (by_threads, Limiter::Threads),
        (by_blocks, Limiter::Blocks),
        (by_regs, Limiter::Registers),
        (by_smem, Limiter::SharedMemory),
        (by_grid, Limiter::GridSize),
    ];
    let (mut blocks, mut limiter) = (u32::MAX, Limiter::Blocks);
    for (b, l) in candidates {
        if b < blocks {
            blocks = b;
            limiter = l;
        }
    }
    let blocks = blocks.max(1).min(dev.max_blocks_per_sm);
    let warps = (blocks * warps_per_block).min(dev.max_warps_per_sm);
    Occupancy {
        resident_blocks: blocks,
        resident_warps: warps,
        fraction: warps as f64 / dev.max_warps_per_sm as f64,
        limiter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k20c() -> Device {
        Device::k20c()
    }

    /// Large grid so GridSize never binds.
    const BIG_GRID: u32 = 1 << 16;

    #[test]
    fn small_blocks_are_block_count_limited() {
        // 32-thread blocks: 16 resident blocks = 16 warps = 25% — the
        // paper's "few warps running simultaneously" regime.
        let o = occupancy(&k20c(), BIG_GRID, 32, 32, 0);
        assert_eq!(o.resident_blocks, 16);
        assert_eq!(o.resident_warps, 16);
        assert_eq!(o.limiter, Limiter::Blocks);
        assert!((o.fraction - 0.25).abs() < 1e-9);
    }

    #[test]
    fn block_128_reaches_high_occupancy_with_modest_regs() {
        let o = occupancy(&k20c(), BIG_GRID, 128, 32, 0);
        // 128 * 32 regs = 4096/block → 16 blocks, thread-limited to 16,
        // 64 warps = 100%.
        assert_eq!(o.resident_warps, 64);
        assert!((o.fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn register_pressure_limits_big_blocks() {
        // 36 regs/thread: 512-thread block needs 512*36≈18.4K regs →
        // 3 blocks → 48 warps = 75% (the paper's >256 degradation).
        let o = occupancy(&k20c(), BIG_GRID, 512, 36, 0);
        assert_eq!(o.limiter, Limiter::Registers);
        assert_eq!(o.resident_blocks, 3);
        assert_eq!(o.resident_warps, 48);
    }

    #[test]
    fn shared_memory_limits() {
        let o = occupancy(&k20c(), BIG_GRID, 128, 16, 16 * 1024);
        assert_eq!(o.limiter, Limiter::SharedMemory);
        assert_eq!(o.resident_blocks, 3);
    }

    #[test]
    fn tiny_grid_underfills_sms() {
        // 13 SMs, 13 blocks → 1 block per SM regardless of resources.
        let o = occupancy(&k20c(), 13, 128, 16, 0);
        assert_eq!(o.resident_blocks, 1);
        assert_eq!(o.limiter, Limiter::GridSize);
    }

    #[test]
    fn warps_capped_by_max_warps() {
        let d = k20c();
        let o = occupancy(&d, BIG_GRID, 2048, 16, 0);
        assert!(o.resident_warps <= d.max_warps_per_sm);
    }

    #[test]
    fn occupancy_monotone_in_register_use() {
        let d = k20c();
        let lo = occupancy(&d, BIG_GRID, 256, 16, 0);
        let hi = occupancy(&d, BIG_GRID, 256, 64, 0);
        assert!(hi.resident_warps <= lo.resident_warps);
    }
}
