//! Sharded multi-device speculative-greedy coloring.
//!
//! The paper's schemes (§III, Alg. 4/5) are single-device; this module
//! scales them across P modeled devices the way Bogle & Slota ("Parallel
//! Graph Coloring Algorithms for Distributed GPU Environments", 2021)
//! extend speculative greedy to partitioned graphs:
//!
//! 1. **Partition** — the CSR graph is split into P contiguous shards
//!    (reusing [`Partitioning`]), each extended with read-only *ghost*
//!    copies of its out-of-shard neighbors ([`Shard`]), and each owned
//!    vertex classed *boundary* (has a ghost neighbor; listed in
//!    [`Shard::boundary_locals`]) or *interior*. Extraction is linear
//!    host work: each local row is its owned run followed by its ghost
//!    runs, taken straight from the sorted global row (see
//!    [`gcol_graph::partition`]).
//! 2. **Local speculation** — every device runs the *unmodified* scheme on
//!    its **owned subgraph** ([`Shard::owned_subgraph`]): interior
//!    vertices see every neighbor and are final; boundary vertices
//!    speculate without their ghosts and get checked by the first
//!    exchange round. Coloring the ghost replicas too (as a naive port
//!    would) costs nearly a full-graph pass per device and buys almost
//!    nothing — the replicas' guessed colors rarely match their owners' —
//!    so the local phase here scales with the shard, not the halo.
//! 3. **Boundary exchange rounds** — devices exchange boundary colors
//!    (the replicated *ghost-color frontier*), detect cross-shard
//!    conflicts against it over the **dirty-adjacent worklist only**, and
//!    recolor each losing endpoint *in place* inside the detect kernel
//!    (`CrossResolve`), then settle intra-shard collisions among the
//!    fresh recolors with a stamp-scoped resolve loop (`OwnedResolve`)
//!    — until no cut edge is monochromatic. Both kernels and the
//!    fixpoint loop live in the extracted [`super::repair`] engine,
//!    which the incremental-recoloring path shares. Rokos et al. show
//!    this conflict-resolution loop is where scalability is won or lost;
//!    here every sweep is sized to the worklist, so its cost shrinks
//!    with the cut.
//!
//! The cross-shard tie-break is global-id based (the larger global id
//! yields), so both owners of a cut edge reach the same verdict without
//! communicating — exactly one side recolors.
//!
//! Two decorrelation tricks keep the round count down. First, each
//! shard's local palette is *rotated* by a shard-dependent offset before
//! the first exchange — a free host-side permutation (properness and
//! color count are invariant under color permutation) that spreads the
//! shards' heavy first-fit color classes apart, so far fewer cut edges
//! enter round 1 monochromatic. Second, exchange-round recolors start
//! their first-fit scan at a per-(vertex, pass) *jittered* color (see
//! `JITTER_SPAN`), so concurrent recolors on opposite sides of a cut
//! rarely re-collide. Neither trick is applied at P = 1.
//!
//! With one shard the local subgraph *is* the input graph and there are no
//! ghosts, so the result is label-identical to the single-device driver —
//! the anchor the differential test suite pins down.
//!
//! ## Frontier compression and dirty scoping
//!
//! Every round the driver diffs each device's incoming frontier against a
//! host mirror of what that device last received. The resulting *dirty
//! set* (ghosts whose color actually changed) drives three things:
//!
//! * **The wire frame** ([`ExchangeKind`]): dense ships all `G_p` ghost
//!   colors at 4 bytes each every round; the default delta encoding ships
//!   a dirty bitmask plus only the changed colors, with a dense fallback
//!   so a frame never costs more than dense and full frame elision when
//!   nothing changed. The encodings decode to identical ghost colors, so
//!   **labels are identical under either kind** — only wire bytes and the
//!   copy-readiness model (below) differ.
//! * **The scoped cross-detect**: only owned vertices adjacent to a dirty
//!   ghost get a detect thread. Sound by induction: at the end of a round
//!   every shard is cross-clean against the frontier it saw — recolored
//!   vertices picked colors avoiding all their ghosts, kept vertices
//!   either differed or held the smaller global id — so a vertex none of
//!   whose ghosts changed cannot newly conflict. An empty dirty set skips
//!   the detect (and its flag read-back) entirely. When every ghost is
//!   dirty, as in round 1, the worklist is the boundary list itself;
//!   otherwise a reused bitmap marks the dirty ghosts' neighbors and one
//!   scan of the boundary list collects them in id order, so building a
//!   worklist never sorts.
//! * **The resolve fixpoint's scope**: a just-recolored vertex avoided
//!   every neighbor color it could see, so new intra-shard conflicts only
//!   arise between *concurrently* recolored pairs. Every recolor stamps
//!   its vertex with the pass number and `OwnedResolve` only rescans
//!   worklist vertices carrying the current stamp — pass two onward
//!   touches a few adjacency rows instead of the whole shard.
//!
//! All three scopes shrink *work*, never the outcome: the conflicts found
//! at each step are identical to exhaustive detection over the same
//! color state.
//!
//! ## Exchange/compute overlap
//!
//! Devices run concurrently and each owns an independent inbound link
//! (a [`CopyStream`]). A round's frontier copy into device `p` is
//! enqueued once the devices whose colors the frame actually carries have
//! published — every ghost owner for a dense frame, only the dirty
//! ghosts' owners for a delta frame — and lands after the link cost
//! ([`ShardedBackend::link_cost_ms`]); device `p` starts its detect at
//! `max(own clock, landing time)`. A straggler device therefore hides the
//! frontier transfer entirely behind its own compute — this is how
//! interior coloring overlaps the boundary exchange — and only each
//! link's non-overlapped tail lands on the critical path. Delta frames
//! sourced from fast devices dodge the fleet-wide straggler barrier the
//! dense push pays every round.
//!
//! ## Launch geometry
//!
//! Every exchange-round kernel launches with the same grid the local
//! coloring used (one thread per *local* vertex, surplus threads exit on
//! a worklist bound). Matching the local geometry keeps the occupancy —
//! and with it the modeled latency hiding — of the exchange kernels
//! identical to the phase the timing model was validated on, while the
//! worklists shrink the memory traffic to the scoped subsets above.
//!
//! **Profile semantics.** The merged [`RunProfile`] telescopes the fleet's
//! virtual clocks into checkpoints: one `Host` phase for local coloring
//! (critical path over devices), then per round one `Transfer` phase
//! carrying the round's total wire bytes and the *exposed* (non-hidden)
//! transfer time, and one `Host` phase with the detect+recolor critical
//! path. Phase durations sum to the fleet's final clock. Backends without
//! a modeled interconnect (the native path) record no `Transfer` phases.
//! Under `ExecMode::Deterministic` on the SIMT backend every number is
//! bit-stable — the golden sharded fingerprints rely on that.

use super::frontier::{ExchangeKind, FrontierFrame};
use super::repair::{RepairEngine, JITTER_SPAN};
use super::SpecGreedyDriver;
use crate::{ColorError, ColorOptions, Coloring, Scheme};
use gcol_graph::partition::{Partitioning, Shard};
use gcol_graph::Csr;
use gcol_simt::mem::Buffer;
use gcol_simt::{Backend, CopyStream, RunProfile, ShardedBackend};

/// One device's exchange-round state: the shard, its driver (device
/// memory + profile), the repair engine wrapping the resident buffers,
/// and the host-side mirror of the last frontier it received (the delta
/// encoder's reference frame). The detect/resolve kernels themselves —
/// `CrossResolve` for the ghost-edge losers, `OwnedResolve` for the
/// stamp-scoped intra-shard fixpoint — live in [`super::repair`], where
/// the incremental-recoloring path shares them.
struct ShardState<'b, B: Backend> {
    shard: Shard,
    d: SpecGreedyDriver<'b, B>,
    /// The conflict-repair engine: color/stamp/flag/worklist buffers plus
    /// the monotone pass counter that keeps recolor markers distinct
    /// across exchange rounds.
    repair: RepairEngine,
    gid: Buffer<u32>,
    /// Ghost colors as last received, `u32::MAX`-seeded so the first
    /// round's dirty set covers every ghost.
    prev_frontier: Vec<u32>,
    /// Owning partition of each ghost (for copy-readiness: a frame waits
    /// only for the devices whose colors it carries).
    ghost_owner: Vec<u32>,
    /// Per-owned-vertex marks for [`dirty_adjacent`], reused every round.
    marked: Vec<bool>,
    /// The dirty-adjacent worklist of a partly dirty round.
    affected: Vec<u32>,
}

/// Owned vertices adjacent to a dirty ghost, ascending: the only ones a
/// frontier change can newly conflict. The ghost rows of the local CSR
/// are exactly the ghost→owned adjacency, so when every ghost is dirty
/// (always so in round 1) the set is the whole boundary worklist.
/// Otherwise the dirty ghosts' neighbors are marked in `marked` and
/// collected by one scan of the boundary in id order, which also clears
/// the marks for the next round.
fn dirty_adjacent<'a>(
    shard: &'a Shard,
    dirty: &[usize],
    marked: &mut [bool],
    affected: &'a mut Vec<u32>,
) -> &'a [u32] {
    if dirty.len() == shard.ghost_gids.len() {
        return &shard.boundary_locals;
    }
    for &k in dirty {
        for &v in shard.graph.neighbors((shard.num_owned + k) as u32) {
            marked[v as usize] = true;
        }
    }
    affected.clear();
    affected.extend(
        shard
            .boundary_locals
            .iter()
            .copied()
            .filter(|&v| std::mem::take(&mut marked[v as usize])),
    );
    affected
}

/// Colors `g` with `scheme` across the fleet's devices: partition, local
/// speculation per shard, then ghost-frontier exchange rounds (encoded
/// per [`ColorOptions::exchange`]) until no cut edge is monochromatic.
///
/// `Coloring::iterations` is the slowest device's local iteration count
/// plus the number of exchange rounds. Exceeding
/// [`ColorOptions::max_iterations`] exchange rounds yields
/// [`ColorError::MaxIterations`].
pub fn color_sharded<B: Backend>(
    scheme: Scheme,
    g: &Csr,
    fleet: &ShardedBackend<B>,
    opts: &ColorOptions,
) -> Result<Coloring, ColorError> {
    let n = g.num_vertices();
    let plan = Partitioning::contiguous(g, fleet.num_devices());
    let shards = plan.extract_shards(g);
    // Tiny graphs can yield fewer shards than devices; the surplus
    // devices simply idle.
    let p_count = shards.len();
    let mut profile = RunProfile::new();

    let total_ghosts: usize = shards.iter().map(|s| s.ghost_gids.len()).sum();

    // Phase 1+2: independent local speculation per device. Sequential
    // here, concurrent on real hardware — each device gets its own
    // virtual clock, merged into the profile at critical path.
    let mut global_colors = vec![0u32; n];
    let mut local_colorings = Vec::with_capacity(p_count);
    let mut clock = vec![0.0f64; p_count];
    let mut local_iters = 0usize;
    for (p, shard) in shards.iter().enumerate() {
        let r = scheme.try_color_on(fleet.device(p), &shard.owned_subgraph(), opts)?;
        clock[p] = r.total_ms();
        local_iters = local_iters.max(r.iterations);
        let mut colors = r.colors;
        // Every shard's first-fit piles its mass onto the same few low
        // colors, so without intervention nearly every cut edge enters
        // round 1 monochromatic. Rotating each shard's palette by a
        // shard-dependent offset is a free host-side permutation — it
        // preserves properness and the color count exactly — that
        // spreads the shards' heavy color classes apart and collapses
        // the round-1 conflict churn. Skipped when there are no ghosts
        // (P = 1 stays label-identical to the single-device driver).
        let m = r.num_colors as u32;
        if total_ghosts > 0 && m > 1 {
            let rot = (p as u32 * m) / p_count as u32;
            if rot > 0 {
                for c in colors.iter_mut() {
                    *c = (*c - 1 + rot) % m + 1;
                }
            }
        }
        let owned = shard.owned_start as usize;
        global_colors[owned..owned + shard.num_owned].copy_from_slice(&colors[..shard.num_owned]);
        local_colorings.push(colors);
    }
    let mut checkpoint = clock.iter().fold(0.0f64, |a, &b| a.max(b));
    profile.host(
        format!("sharded local coloring: critical path over {p_count} device(s)"),
        checkpoint,
    );

    let finish = |profile: RunProfile, mut colors: Vec<u32>, iterations: usize| {
        let num_colors = close_label_gaps(&mut colors);
        Ok(Coloring {
            scheme,
            colors,
            num_colors,
            iterations,
            profile,
        })
    };
    if total_ghosts == 0 {
        // One shard (or a cut-free partition): the local colorings are
        // already globally proper and label-identical to the
        // single-device driver.
        return finish(profile, global_colors, local_iters);
    }

    // Device-resident exchange state: local graph, colors (owned from the
    // local run, ghosts filled by the first frontier push), global-id
    // map, boundary worklist.
    let mut states: Vec<ShardState<'_, B>> = Vec::with_capacity(p_count);
    for (p, shard) in shards.into_iter().enumerate() {
        let mut d = SpecGreedyDriver::new(fleet.device(p), scheme, &shard.graph, opts);
        let color = d.alloc_vertex_buf();
        let flags = d.mem.alloc::<u32>(2);
        d.label(color, "shard-color");
        d.label(flags, "shard-exchange-flags");
        let stamp = d.alloc_vertex_buf();
        d.label(stamp, "shard-recolor-stamp");
        let gids: Vec<u32> = (0..shard.num_local() as u32)
            .map(|l| shard.global_of(l))
            .collect();
        let gid = d.mem.alloc_from_slice(&gids);
        d.label(gid, "shard-gid");
        // Worklist capacity: every dirty-adjacent set is a subset of the
        // boundary. Uninitialized on purpose — the sanitizer then proves
        // CrossResolve never reads past the prefix the round wrote.
        // Padded so the buffer exists even for an all-interior shard
        // (which never launches CrossResolve).
        let worklist = d
            .mem
            .alloc_uninit::<u32>(shard.boundary_locals.len().max(1));
        d.label(worklist, "shard-dirty-worklist");
        d.mem.write_slice(color, &local_colorings[p]);
        let prev_frontier = vec![u32::MAX; shard.ghost_gids.len()];
        let ghost_owner: Vec<u32> = shard
            .ghost_gids
            .iter()
            .map(|&gv| plan.part_of[gv as usize])
            .collect();
        let repair = RepairEngine::from_parts(
            color,
            stamp,
            flags,
            worklist,
            shard.num_owned as u32,
            shard.num_local(),
            JITTER_SPAN,
        );
        states.push(ShardState {
            marked: vec![false; shard.num_owned],
            affected: Vec::new(),
            shard,
            d,
            repair,
            gid,
            prev_frontier,
            ghost_owner,
        });
    }

    let kind: ExchangeKind = opts.exchange;
    // Whether the fleet models an interconnect at all (the native path
    // does not, and records no Transfer phases — shards share one address
    // space there).
    let modeled = fleet.link_cost_ms(0, 1).is_some();
    let mut streams = vec![CopyStream::new(); p_count];
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        if rounds > opts.max_iterations {
            return Err(ColorError::MaxIterations {
                scheme,
                limit: opts.max_iterations,
            });
        }

        // Diff each device's incoming frontier against the mirror of what
        // it last received. The dirty set drives the wire frame, the
        // copy-readiness, and the scoped detect below.
        let mut frames: Vec<FrontierFrame> = Vec::with_capacity(p_count);
        let mut dirty_sets: Vec<Vec<usize>> = Vec::with_capacity(p_count);
        let mut round_bytes = 0usize;
        for st in &states {
            let cur: Vec<u32> = st
                .shard
                .ghost_gids
                .iter()
                .map(|&gv| global_colors[gv as usize])
                .collect();
            let dirty: Vec<usize> = (0..cur.len())
                .filter(|&k| cur[k] != st.prev_frontier[k])
                .collect();
            let frame = kind.encode(&cur, &st.prev_frontier);
            round_bytes += frame.wire_bytes();
            frames.push(frame);
            dirty_sets.push(dirty);
        }

        // Issue the copies on each device's inbound stream. A frame is
        // enqueued once the devices whose colors it carries have
        // published — every ghost owner for a dense frame, only the dirty
        // ghosts' owners for a delta one — and the receiver begins its
        // detect at max(own clock, landing time), so the copy hides
        // behind whatever compute the receiver still has in flight.
        let mut begin = clock.clone();
        for p in 0..p_count {
            let bytes = frames[p].wire_bytes();
            if bytes == 0 {
                continue;
            }
            if let Some(cost) = fleet.link_cost_ms(p, bytes) {
                let owners = &states[p].ghost_owner;
                let ready = match &frames[p] {
                    // A dense payload carries every ghost's color.
                    FrontierFrame::Dense { .. } => owners
                        .iter()
                        .map(|&q| clock[q as usize])
                        .fold(0.0f64, f64::max),
                    FrontierFrame::Delta { .. } => dirty_sets[p]
                        .iter()
                        .map(|&k| clock[owners[k] as usize])
                        .fold(0.0f64, f64::max),
                    FrontierFrame::Empty { .. } => unreachable!("empty frames have no bytes"),
                };
                let landed = streams[p].issue(ready, cost);
                begin[p] = begin[p].max(landed);
            }
        }
        let barrier = begin.iter().fold(checkpoint, |a, &b| a.max(b));
        if modeled && round_bytes > 0 {
            // Only the exposed tail (past the previous checkpoint) costs
            // critical-path time; the bytes are the full wire traffic.
            profile.transfer(
                format!("ghost frontier exchange ({kind}, d2d)"),
                round_bytes,
                barrier - checkpoint,
            );
        }

        // Apply the frames and detect cross-shard conflicts over the
        // dirty-adjacent worklists. A clean frontier skips the detect and
        // its flag read-back entirely (see module docs for soundness).
        let snap: Vec<f64> = states.iter().map(|s| s.d.profile.total_ms()).collect();
        let mut conflicted = vec![false; p_count];
        for (p, st) in states.iter_mut().enumerate() {
            let dirty = &dirty_sets[p];
            if dirty.is_empty() {
                continue;
            }
            let num_owned = st.shard.num_owned;
            frames[p].apply(&mut st.prev_frontier);
            for &k in dirty {
                // Untouched ghost slots already hold their color.
                st.d.mem
                    .store(st.repair.color, num_owned + k, st.prev_frontier[k]);
            }
            let affected = dirty_adjacent(&st.shard, dirty, &mut st.marked, &mut st.affected);
            if affected.is_empty() {
                continue;
            }
            st.d.mem.write_slice(st.repair.worklist, affected);
            // Fused verdict + fixpoint: one 8-byte read per pass covers
            // the cross flag and the recolor loop's continue signal.
            conflicted[p] =
                st.repair
                    .repair_ghost_conflicts(&mut st.d, st.gid, affected.len() as u32)?;
        }
        let any = conflicted.iter().any(|&c| c);

        // Advance the virtual clocks: each device's detect+recolor work
        // starts where its frontier landed.
        for (p, st) in states.iter().enumerate() {
            let spent = st.d.profile.total_ms() - snap[p];
            clock[p] = begin[p] + spent;
        }
        let done = clock.iter().fold(barrier, |a, &b| a.max(b));
        profile.host(
            format!(
                "exchange round {rounds}: detect+recolor critical path over {p_count} device(s)"
            ),
            done - barrier,
        );
        checkpoint = done;
        if !any {
            break;
        }

        // Publish the updated owned colors into the global frontier for
        // the next round's push (only conflicted shards recolored).
        for (p, st) in states.iter().enumerate() {
            if !conflicted[p] {
                continue;
            }
            let owned = st.shard.owned_start as usize;
            let local = st.d.mem.read_vec(st.repair.color);
            global_colors[owned..owned + st.shard.num_owned]
                .copy_from_slice(&local[..st.shard.num_owned]);
        }
    }

    finish(profile, global_colors, local_iters + rounds)
}

/// Returns the number of distinct labels in `colors`. Palette rotation
/// followed by exchange-round recolors can leave a label below the
/// maximum unused; such gaps are closed by an order-preserving relabel,
/// so labels stay dense in `1..=num_colors`. Gap-free colorings are left
/// untouched.
fn close_label_gaps(colors: &mut [u32]) -> usize {
    let max = colors.iter().copied().max().unwrap_or(0) as usize;
    let mut rank = vec![0u32; max + 1];
    for &c in colors.iter() {
        rank[c as usize] = 1;
    }
    rank[0] = 0;
    let mut used = 0u32;
    for r in rank.iter_mut().filter(|r| **r == 1) {
        used += 1;
        *r = used;
    }
    if used as usize != max {
        for c in colors.iter_mut() {
            *c = rank[*c as usize];
        }
    }
    used as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcol_graph::check::verify_coloring;
    use gcol_graph::gen::simple::{complete, cycle, erdos_renyi};
    use gcol_simt::{Device, ExecMode, NativeBackend, Phase, SimtBackend};

    fn simt_fleet(dev: &Device, p: usize) -> ShardedBackend<SimtBackend<'_>> {
        ShardedBackend::uniform(p, |_| SimtBackend::new(dev, ExecMode::Deterministic))
    }

    /// Sum of d2d frontier bytes recorded in a run's profile.
    fn frontier_bytes(r: &Coloring) -> usize {
        r.profile
            .phases
            .iter()
            .filter_map(|p| match p {
                Phase::Transfer { label, bytes, .. } if label.contains("ghost frontier") => {
                    Some(*bytes)
                }
                _ => None,
            })
            .sum()
    }

    #[test]
    fn sharded_topo_is_proper_across_shard_counts() {
        let dev = Device::tiny();
        let g = erdos_renyi(500, 3000, 13);
        let opts = ColorOptions::default();
        for p in [1, 2, 3, 5] {
            let r = color_sharded(Scheme::TopoBase, &g, &simt_fleet(&dev, p), &opts).unwrap();
            verify_coloring(&g, &r.colors).unwrap_or_else(|e| panic!("P={p}: {e}"));
            assert!(r.num_colors <= g.max_degree() + 1);
        }
    }

    #[test]
    fn one_shard_is_label_identical_to_single_device() {
        let dev = Device::tiny();
        let g = erdos_renyi(400, 2400, 5);
        let opts = ColorOptions::default();
        let single = Scheme::DataBase.try_color(&g, &dev, &opts).unwrap();
        let sharded = color_sharded(Scheme::DataBase, &g, &simt_fleet(&dev, 1), &opts).unwrap();
        assert_eq!(single.colors, sharded.colors);
        assert_eq!(single.iterations, sharded.iterations);
    }

    #[test]
    fn dense_and_delta_exchanges_are_label_identical() {
        let dev = Device::tiny();
        let g = erdos_renyi(500, 3500, 99);
        for p in [2, 3, 4] {
            let dense = color_sharded(
                Scheme::TopoBase,
                &g,
                &simt_fleet(&dev, p),
                &ColorOptions::default().with_exchange(ExchangeKind::Dense),
            )
            .unwrap();
            let delta = color_sharded(
                Scheme::TopoBase,
                &g,
                &simt_fleet(&dev, p),
                &ColorOptions::default().with_exchange(ExchangeKind::Delta),
            )
            .unwrap();
            assert_eq!(dense.colors, delta.colors, "P={p}");
            assert_eq!(dense.iterations, delta.iterations, "P={p}");
            assert!(
                frontier_bytes(&delta) <= frontier_bytes(&dense),
                "P={p}: delta moved more bytes than dense"
            );
        }
    }

    #[test]
    fn sharded_profile_records_exchange_transfers() {
        let dev = Device::tiny();
        // A cycle cut into 3 shards always has 6 cut endpoints → ghosts.
        let g = cycle(90);
        let r = color_sharded(
            Scheme::TopoBase,
            &g,
            &simt_fleet(&dev, 3),
            &ColorOptions::default().with_exchange(ExchangeKind::Dense),
        )
        .unwrap();
        verify_coloring(&g, &r.colors).unwrap();
        // Dense wire format: every round ships all ghost colors, so the
        // recorded traffic is an exact multiple of the encoding's frame
        // size (6 ghosts across the fleet, 4 bytes each).
        let per_round: usize = 4 * 6;
        let bytes = frontier_bytes(&r);
        assert!(bytes >= per_round, "no d2d frontier traffic recorded");
        assert_eq!(
            bytes % per_round,
            0,
            "dense rounds must ship whole frontiers ({bytes} bytes vs {per_round}/round)"
        );
        assert!(r.profile.host_ms() > 0.0, "no critical-path phases");
    }

    #[test]
    fn delta_frames_shrink_after_the_first_round() {
        let dev = Device::tiny();
        // K24 over 2 shards forces several exchange rounds with real
        // recoloring; after round 1 only the recolored boundary subset is
        // dirty, so delta traffic must undercut dense.
        let g = complete(24);
        let dense = color_sharded(
            Scheme::DataBase,
            &g,
            &simt_fleet(&dev, 2),
            &ColorOptions::default().with_exchange(ExchangeKind::Dense),
        )
        .unwrap();
        let delta = color_sharded(
            Scheme::DataBase,
            &g,
            &simt_fleet(&dev, 2),
            &ColorOptions::default().with_exchange(ExchangeKind::Delta),
        )
        .unwrap();
        assert_eq!(dense.colors, delta.colors);
        assert!(dense.iterations > 1, "test needs multiple exchange rounds");
        assert!(
            frontier_bytes(&delta) < frontier_bytes(&dense),
            "delta ({}) should undercut dense ({}) on a multi-round run",
            frontier_bytes(&delta),
            frontier_bytes(&dense)
        );
    }

    #[test]
    fn deterministic_sharded_runs_are_reproducible() {
        let dev = Device::tiny();
        let g = erdos_renyi(600, 4200, 2);
        let opts = ColorOptions::default();
        let a = color_sharded(Scheme::TopoLdg, &g, &simt_fleet(&dev, 4), &opts).unwrap();
        let b = color_sharded(Scheme::TopoLdg, &g, &simt_fleet(&dev, 4), &opts).unwrap();
        assert_eq!(a.colors, b.colors);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.total_ms().to_bits(), b.total_ms().to_bits());
    }

    /// The affected set as the exchange loop built it before
    /// [`dirty_adjacent`]: push every dirty ghost's first-seen neighbor,
    /// then sort.
    fn pushed_and_sorted(shard: &Shard, dirty: &[usize]) -> Vec<u32> {
        let mut seen = vec![false; shard.num_owned];
        let mut affected = Vec::new();
        for &k in dirty {
            for &v in shard.graph.neighbors((shard.num_owned + k) as u32) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    affected.push(v);
                }
            }
        }
        affected.sort_unstable();
        affected
    }

    #[test]
    fn dirty_adjacent_matches_push_and_sort() {
        // K24 at P=2 is the multi-round case below; the sparse graph at
        // P=3 has ghosts with few owned neighbors. The dirty sets cover
        // round 1 (every ghost), single ghosts and residue classes of the
        // ghost index, reusing one mark buffer throughout as the loop
        // does.
        for (g, p) in [(complete(24), 2), (erdos_renyi(300, 900, 4), 3)] {
            for shard in Partitioning::contiguous(&g, p).extract_shards(&g) {
                let ghosts = shard.ghost_gids.len();
                let mut marked = vec![false; shard.num_owned];
                let mut affected = Vec::new();
                let mut sets: Vec<Vec<usize>> = vec![(0..ghosts).collect()];
                sets.extend((0..ghosts).map(|k| vec![k]));
                sets.extend((1..=7).map(|m| (0..ghosts).filter(|k| k % m == m / 2).collect()));
                for dirty in &sets {
                    let got = dirty_adjacent(&shard, dirty, &mut marked, &mut affected);
                    assert_eq!(got, pushed_and_sorted(&shard, dirty), "dirty {dirty:?}");
                }
                assert!(marked.iter().all(|&m| !m), "marks must be cleared");
            }
        }
    }

    #[test]
    fn complete_graph_forces_exchange_rounds() {
        // Every cut edge of K24 is monochromatic-prone: shard-local
        // speculation reuses low colors on both devices, so the exchange
        // loop must do real recoloring work.
        let dev = Device::tiny();
        let g = complete(24);
        let opts = ColorOptions::default();
        let r = color_sharded(Scheme::DataBase, &g, &simt_fleet(&dev, 2), &opts).unwrap();
        verify_coloring(&g, &r.colors).unwrap();
        assert_eq!(r.num_colors, 24);
    }

    #[test]
    fn native_fleet_matches_simt_properness() {
        let g = erdos_renyi(800, 5600, 21);
        let fleet = ShardedBackend::uniform(4, |_| NativeBackend::new());
        let opts = ColorOptions::default();
        for scheme in [Scheme::TopoBase, Scheme::CsrColor] {
            let r = color_sharded(scheme, &g, &fleet, &opts).unwrap();
            verify_coloring(&g, &r.colors).unwrap_or_else(|e| panic!("{scheme}: {e}"));
            // No modeled interconnect → no Transfer phases on the host path.
            assert_eq!(frontier_bytes(&r), 0);
        }
    }

    #[test]
    fn more_shards_than_vertices() {
        let dev = Device::tiny();
        let g = cycle(5);
        let r = color_sharded(
            Scheme::TopoBase,
            &g,
            &simt_fleet(&dev, 16),
            &ColorOptions::default(),
        )
        .unwrap();
        verify_coloring(&g, &r.colors).unwrap();
    }

    #[test]
    fn reported_count_is_the_distinct_labels_on_a_sharded_mesh() {
        // A small irregular mesh (the thermal2 stand-in's generator) at
        // P = 2: palette rotation plus repair leaves label 8 in use and
        // one label below it empty, which the count used to include.
        let dev = Device::tiny();
        let g = gcol_graph::gen::mesh2d(12, 12, 0.10, 0x80);
        let opts = ColorOptions::default();
        let r = color_sharded(Scheme::DataBase, &g, &simt_fleet(&dev, 2), &opts).unwrap();
        verify_coloring(&g, &r.colors).unwrap();
        assert_eq!(r.num_colors, gcol_graph::check::count_colors(&r.colors));
        assert_eq!(r.num_colors, 7);
        assert_eq!(r.colors.iter().copied().max(), Some(7));
    }

    #[test]
    fn closing_label_gaps_preserves_order() {
        let mut colors = vec![3, 1, 3, 5, 1];
        assert_eq!(close_label_gaps(&mut colors), 3);
        assert_eq!(colors, [2, 1, 2, 3, 1]);
        let mut dense = vec![2, 1, 3, 2];
        assert_eq!(close_label_gaps(&mut dense), 3);
        assert_eq!(dense, [2, 1, 3, 2]);
        assert_eq!(close_label_gaps(&mut []), 0);
    }

    #[test]
    fn empty_graph() {
        let dev = Device::tiny();
        let r = color_sharded(
            Scheme::DataBase,
            &Csr::empty(0),
            &simt_fleet(&dev, 4),
            &ColorOptions::default(),
        )
        .unwrap();
        assert!(r.colors.is_empty());
        assert_eq!(r.num_colors, 0);
    }
}
