//! Contiguous block partitioning, boundary-vertex detection and
//! ghost/halo shard extraction.
//!
//! The 3-step GM baseline (Grosset et al., §II-C of the paper) partitions
//! the graph into per-thread-block subgraphs and distinguishes *interior*
//! vertices (all neighbors in the same partition — colorable without
//! cross-partition conflicts) from *boundary* vertices (at least one
//! neighbor elsewhere — these are where speculative conflicts can appear).
//! Grosset's framework uses simple contiguous index ranges; we reproduce
//! that, not a min-cut partitioner. The boundary flags are computed on
//! demand ([`Partitioning::boundary`]): the sharded driver never reads
//! them, since each [`Shard`] lists its own boundary vertices.
//!
//! [`Partitioning::extract_shards`] turns the same contiguous ranges into
//! per-device [`Shard`] subgraphs for the multi-device driver: each shard
//! holds its owned vertices plus read-only *ghost* (halo) copies of every
//! out-of-shard neighbor, so a cut edge appears in both endpoints' shards
//! and an interior edge in exactly one — the cover invariant the
//! boundary-exchange rounds rely on.
//!
//! Extraction is linear in the shard's vertices plus the edges it
//! touches, with no sort and no search per edge. A sorted global row of
//! an owned vertex is three runs: neighbors below the owned range, owned
//! neighbors, and neighbors at or above its end. Ghosts are marked in a
//! dense map and ranked by one scan in global-id order, so ghost local
//! ids keep global order and the sorted local row is simply the owned
//! run followed by the two ghost runs. Interior rows (first neighbor
//! owned, last neighbor owned) are copied without splitting.

use crate::csr::{Csr, VertexId};
use rayon::prelude::*;

/// A contiguous-range partitioning of the vertex set.
#[derive(Debug, Clone)]
pub struct Partitioning {
    /// Partition id of each vertex.
    pub part_of: Vec<u32>,
    /// Half-open vertex ranges `[start, end)` per partition.
    pub ranges: Vec<(VertexId, VertexId)>,
}

impl Partitioning {
    /// Splits `g` into `k` near-equal contiguous vertex ranges.
    pub fn contiguous(g: &Csr, k: usize) -> Self {
        assert!(k > 0, "need at least one partition");
        let n = g.num_vertices();
        let per = n.div_ceil(k.min(n.max(1)));
        let mut ranges = Vec::new();
        let mut part_of = vec![0u32; n];
        let mut start = 0usize;
        let mut pid = 0u32;
        while start < n {
            let end = (start + per).min(n);
            ranges.push((start as VertexId, end as VertexId));
            part_of[start..end].fill(pid);
            start = end;
            pid += 1;
        }
        if ranges.is_empty() {
            ranges.push((0, 0));
        }
        Self { part_of, ranges }
    }

    /// Number of partitions actually created.
    pub fn num_parts(&self) -> usize {
        self.ranges.len()
    }

    /// Boundary flags of `g` under this partitioning: `true` for vertices
    /// with at least one neighbor in another partition. One pass over the
    /// edges.
    pub fn boundary(&self, g: &Csr) -> Vec<bool> {
        let part_of = &self.part_of;
        (0..g.num_vertices() as VertexId)
            .into_par_iter()
            .map(|v| {
                g.neighbors(v)
                    .iter()
                    .any(|&w| part_of[w as usize] != part_of[v as usize])
            })
            .collect()
    }

    /// Number of boundary vertices of `g` under this partitioning.
    pub fn num_boundary(&self, g: &Csr) -> usize {
        self.boundary(g).iter().filter(|&&b| b).count()
    }

    /// Extracts one [`Shard`] per partition: the owned contiguous range
    /// plus ghost copies of every out-of-shard neighbor, as a standalone
    /// local CSR graph. With a single partition the shard's graph is `g`
    /// itself (identity vertex mapping, no ghosts), which is what makes
    /// the sharded driver label-identical to the single-device one at
    /// P = 1.
    ///
    /// Extraction relies on sorted adjacency rows, which every built,
    /// ingested or edited graph has; a graph with an unsorted row is
    /// extracted from a row-sorted copy, so every local row comes out
    /// sorted either way.
    pub fn extract_shards(&self, g: &Csr) -> Vec<Shard> {
        if !g.has_sorted_rows() {
            let mut sorted = g.clone();
            sorted.sort_neighbor_lists();
            return self.extract_shards(&sorted);
        }
        self.ranges
            .par_iter()
            .enumerate()
            .map(|(pid, &(lo, hi))| Shard::extract(g, pid as u32, lo, hi))
            .collect()
    }
}

/// One device's view of the graph: its owned contiguous vertex range plus
/// read-only ghost (halo) copies of every neighbor owned elsewhere.
///
/// Local vertex ids put the owned vertices first (`local = global - owned_start`
/// for `0..num_owned`) and the ghosts after them in ascending global-id
/// order. An owned vertex's local row is its owned neighbors followed by
/// its ghost neighbors, which is sorted order. Ghost adjacency keeps only
/// the edges back into the owned range: ghost–ghost edges belong to the
/// shards that own those endpoints.
///
/// Owned vertices further split into **boundary** (at least one ghost
/// neighbor — the only vertices a cross-shard conflict can touch, and the
/// only ones whose colors ever travel the interconnect) and **interior**
/// (every neighbor owned — colorable and verifiable with zero
/// communication). The split is what lets the sharded driver restrict its
/// cross-conflict kernels to the boundary worklist and overlap ghost
/// exchanges with interior compute.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Partition / device index this shard belongs to.
    pub id: u32,
    /// Global id of the first owned vertex.
    pub owned_start: VertexId,
    /// Number of owned vertices (local ids `0..num_owned`).
    pub num_owned: usize,
    /// Global ids of the ghost vertices, ascending (local ids
    /// `num_owned..num_owned + ghost_gids.len()`).
    pub ghost_gids: Vec<VertexId>,
    /// Local ids (ascending, all `< num_owned`) of the owned vertices
    /// with at least one ghost neighbor — the boundary worklist.
    pub boundary_locals: Vec<VertexId>,
    /// The local subgraph over owned ++ ghost vertices. Symmetric, no
    /// self-loops, sorted adjacency — a full-fledged [`Csr`] any coloring
    /// scheme can run on unchanged.
    pub graph: Csr,
}

/// Splits a sorted row at the owned range `[lo, hi)`: `row[..a]` lies
/// below it, `row[a..b]` inside it and `row[b..]` at or above its end. A
/// row whose first and last entries are owned needs no search.
fn split_row(row: &[VertexId], lo: VertexId, hi: VertexId) -> (usize, usize) {
    match (row.first(), row.last()) {
        (Some(&first), Some(&last)) if first >= lo && last < hi => (0, row.len()),
        _ => (
            row.partition_point(|&w| w < lo),
            row.partition_point(|&w| w < hi),
        ),
    }
}

impl Shard {
    /// Builds the shard owning `[lo, hi)` of `g`, whose rows are sorted,
    /// in two passes over the owned rows plus one over the ghost rows.
    fn extract(g: &Csr, id: u32, lo: VertexId, hi: VertexId) -> Self {
        let n = g.num_vertices();
        let num_owned = (hi - lo) as usize;
        // Local id of each ghost, 0 for every other vertex: a ghost exists
        // only next to an owned vertex, so its local id is at least 1.
        let mut ghost_local = vec![0u32; n];
        let mut cut_entries = 0usize;
        for v in lo..hi {
            let row = g.neighbors(v);
            let (a, b) = split_row(row, lo, hi);
            for &w in &row[..a] {
                ghost_local[w as usize] = 1;
            }
            for &w in &row[b..] {
                ghost_local[w as usize] = 1;
            }
            cut_entries += a + row.len() - b;
        }
        let mut ghost_gids = Vec::new();
        for w in (0..lo).chain(hi..n as VertexId) {
            if ghost_local[w as usize] != 0 {
                ghost_local[w as usize] = (num_owned + ghost_gids.len()) as u32;
                ghost_gids.push(w);
            }
        }

        // The owned rows, plus the ghost rows that mirror their cut entries.
        let r = g.row_offsets();
        let owned_entries = (r[hi as usize] - r[lo as usize]) as usize;
        let mut row_offsets = Vec::with_capacity(num_owned + ghost_gids.len() + 1);
        let mut col_indices = Vec::with_capacity(owned_entries + cut_entries);
        let mut boundary_locals = Vec::new();
        row_offsets.push(0u32);
        for v in lo..hi {
            let row = g.neighbors(v);
            let (a, b) = split_row(row, lo, hi);
            col_indices.extend(row[a..b].iter().map(|&w| w - lo));
            if a > 0 || b < row.len() {
                col_indices.extend(row[..a].iter().map(|&w| ghost_local[w as usize]));
                col_indices.extend(row[b..].iter().map(|&w| ghost_local[w as usize]));
                boundary_locals.push(v - lo);
            }
            row_offsets.push(col_indices.len() as u32);
        }
        for &gw in &ghost_gids {
            // Only the edges back into the owned range: these are the cut
            // edges mirrored, which keeps the local graph symmetric.
            let row = g.neighbors(gw);
            let (a, b) = split_row(row, lo, hi);
            col_indices.extend(row[a..b].iter().map(|&w| w - lo));
            row_offsets.push(col_indices.len() as u32);
        }
        Self {
            id,
            owned_start: lo,
            num_owned,
            ghost_gids,
            boundary_locals,
            graph: Csr::new(row_offsets, col_indices),
        }
    }

    /// Owned + ghost vertex count (the local graph's vertex count).
    pub fn num_local(&self) -> usize {
        self.num_owned + self.ghost_gids.len()
    }

    /// The subgraph induced by the owned vertices alone (local ids
    /// preserved, ghost edges dropped). This is what the sharded driver
    /// colors in its local-speculation phase: interior vertices see every
    /// neighbor, boundary vertices speculate without their ghosts and get
    /// checked by the first exchange round — so the phase's cost scales
    /// with the shard, not with the halo. Each owned row's owned
    /// neighbors are its prefix, so the rows are copied, not filtered.
    pub fn owned_subgraph(&self) -> Csr {
        let bound = self.num_owned as u32;
        let mut row_offsets = Vec::with_capacity(self.num_owned + 1);
        let owned_rows_len = self.graph.row_offsets()[self.num_owned] as usize;
        let mut col_indices = Vec::with_capacity(owned_rows_len);
        row_offsets.push(0u32);
        for v in 0..bound {
            let row = self.graph.neighbors(v);
            col_indices.extend_from_slice(&row[..row.partition_point(|&w| w < bound)]);
            row_offsets.push(col_indices.len() as u32);
        }
        Csr::new(row_offsets, col_indices)
    }

    /// Owned vertices with no ghost neighbor (colorable with zero
    /// communication).
    pub fn num_interior(&self) -> usize {
        self.num_owned - self.boundary_locals.len()
    }

    /// `true` if the local id names a ghost copy rather than an owned
    /// vertex.
    pub fn is_ghost(&self, local: VertexId) -> bool {
        local as usize >= self.num_owned
    }

    /// Global id of a local vertex (owned or ghost).
    pub fn global_of(&self, local: VertexId) -> VertexId {
        if self.is_ghost(local) {
            self.ghost_gids[local as usize - self.num_owned]
        } else {
            self.owned_start + local
        }
    }

    /// Local id of a global vertex, if this shard holds it (owned or
    /// ghost).
    pub fn local_of(&self, global: VertexId) -> Option<VertexId> {
        if (self.owned_start..self.owned_start + self.num_owned as u32).contains(&global) {
            Some(global - self.owned_start)
        } else {
            self.ghost_gids
                .binary_search(&global)
                .ok()
                .map(|k| (self.num_owned + k) as VertexId)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::simple::{complete, path};

    #[test]
    fn partitions_cover_all_vertices_evenly() {
        let g = path(10);
        let p = Partitioning::contiguous(&g, 3);
        assert_eq!(p.num_parts(), 3);
        assert_eq!(p.ranges, vec![(0, 4), (4, 8), (8, 10)]);
        assert_eq!(p.part_of, vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2]);
    }

    #[test]
    fn path_boundaries_are_cut_endpoints() {
        let g = path(10);
        let p = Partitioning::contiguous(&g, 3);
        // Cuts at 3-4 and 7-8.
        let expected: Vec<bool> = (0..10).map(|v| matches!(v, 3 | 4 | 7 | 8)).collect();
        assert_eq!(p.boundary(&g), expected);
        assert_eq!(p.num_boundary(&g), 4);
    }

    #[test]
    fn complete_graph_is_all_boundary() {
        let g = complete(8);
        let p = Partitioning::contiguous(&g, 2);
        assert!(p.boundary(&g).iter().all(|&b| b));
    }

    #[test]
    fn single_partition_has_no_boundary() {
        let g = complete(8);
        let p = Partitioning::contiguous(&g, 1);
        assert_eq!(p.num_parts(), 1);
        assert_eq!(p.num_boundary(&g), 0);
    }

    #[test]
    fn more_parts_than_vertices() {
        let g = path(3);
        let p = Partitioning::contiguous(&g, 10);
        assert_eq!(p.num_parts(), 3);
        assert!(p.boundary(&g).iter().all(|&b| b), "every vertex is a cut");
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(0);
        let p = Partitioning::contiguous(&g, 4);
        assert_eq!(p.part_of.len(), 0);
        assert_eq!(p.num_boundary(&g), 0);
    }

    #[test]
    fn single_shard_is_the_graph_itself() {
        let g = complete(9);
        let shards = Partitioning::contiguous(&g, 1).extract_shards(&g);
        assert_eq!(shards.len(), 1);
        let s = &shards[0];
        assert_eq!(s.num_owned, 9);
        assert!(s.ghost_gids.is_empty());
        assert!(s.boundary_locals.is_empty());
        assert_eq!(s.num_interior(), 9);
        assert_eq!(s.graph, g);
        assert_eq!(s.global_of(4), 4);
        assert_eq!(s.local_of(4), Some(4));
    }

    #[test]
    fn path_shards_have_cut_ghosts() {
        // path(10) cut at 3-4 and 7-8: shard 1 owns {4..=7}, ghosts {3, 8}.
        let g = path(10);
        let shards = Partitioning::contiguous(&g, 3).extract_shards(&g);
        assert_eq!(shards.len(), 3);
        let s = &shards[1];
        assert_eq!((s.owned_start, s.num_owned), (4, 4));
        assert_eq!(s.ghost_gids, vec![3, 8]);
        assert_eq!(s.num_local(), 6);
        // Owned local ids 0..4 map to globals 4..8; ghosts follow.
        assert_eq!(s.global_of(0), 4);
        assert_eq!(s.global_of(4), 3);
        assert_eq!(s.global_of(5), 8);
        assert_eq!(s.local_of(3), Some(4));
        assert_eq!(s.local_of(0), None);
        assert!(s.is_ghost(4) && !s.is_ghost(3));
        // The local graph is a valid symmetric CSR: ghost 3 links back to
        // owned 4 (local 0), ghost 8 back to owned 7 (local 3).
        s.graph.validate().unwrap();
        assert!(s.graph.is_symmetric());
        assert_eq!(s.graph.neighbors(4), &[0]);
        assert_eq!(s.graph.neighbors(5), &[3]);
        // Owned 4 (local 0) touches ghost 3 and owned 7 (local 3) touches
        // ghost 8; locals 1 and 2 are interior.
        assert_eq!(s.boundary_locals, vec![0, 3]);
        assert_eq!(s.num_interior(), 2);
    }

    #[test]
    fn unsorted_rows_extract_like_their_sorted_copy() {
        // path(6) with every row stored in descending order.
        let g = Csr::new(
            vec![0, 1, 3, 5, 7, 9, 10],
            vec![1, 2, 0, 3, 1, 4, 2, 5, 3, 4],
        );
        let mut sorted = g.clone();
        sorted.sort_neighbor_lists();
        for k in [1, 2, 3] {
            let p = Partitioning::contiguous(&g, k);
            for (a, b) in p.extract_shards(&g).iter().zip(p.extract_shards(&sorted)) {
                assert_eq!(a.graph, b.graph, "k={k} shard {}", a.id);
                assert!(a.graph.has_sorted_unique_neighbors());
                assert_eq!(a.ghost_gids, b.ghost_gids);
                assert_eq!(a.boundary_locals, b.boundary_locals);
            }
        }
    }

    #[test]
    fn owned_subgraph_keeps_interior_edges_only() {
        let g = crate::gen::simple::erdos_renyi(90, 400, 7);
        let p = Partitioning::contiguous(&g, 3);
        for s in p.extract_shards(&g) {
            let sub = s.owned_subgraph();
            sub.validate().unwrap();
            assert_eq!(sub.num_vertices(), s.num_owned);
            assert!(sub.is_symmetric());
            // Exactly the owned-owned edges of the local graph, with the
            // same local ids.
            for v in 0..s.num_owned as VertexId {
                let expect: Vec<VertexId> = s
                    .graph
                    .neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&w| (w as usize) < s.num_owned)
                    .collect();
                assert_eq!(sub.neighbors(v), &expect[..], "shard {} vertex {v}", s.id);
            }
        }
    }

    #[test]
    fn owned_subgraph_of_single_shard_is_the_graph() {
        let g = complete(9);
        let shards = Partitioning::contiguous(&g, 1).extract_shards(&g);
        assert_eq!(shards[0].owned_subgraph(), g);
    }

    #[test]
    fn boundary_locals_match_partition_boundary_flags() {
        let g = crate::gen::simple::erdos_renyi(90, 400, 7);
        let p = Partitioning::contiguous(&g, 3);
        let boundary = p.boundary(&g);
        for s in p.extract_shards(&g) {
            // Ascending, owned-only, and consistent with the global
            // boundary bitmap restricted to this shard's range.
            assert!(s.boundary_locals.windows(2).all(|w| w[0] < w[1]));
            assert!(s
                .boundary_locals
                .iter()
                .all(|&l| (l as usize) < s.num_owned));
            let expect: Vec<VertexId> = (0..s.num_owned as VertexId)
                .filter(|&l| boundary[(s.owned_start + l) as usize])
                .collect();
            assert_eq!(s.boundary_locals, expect, "shard {}", s.id);
            assert_eq!(s.num_interior() + s.boundary_locals.len(), s.num_owned);
        }
    }

    #[test]
    fn shards_cover_every_edge() {
        let g = crate::gen::simple::erdos_renyi(120, 700, 3);
        let p = Partitioning::contiguous(&g, 4);
        let shards = p.extract_shards(&g);
        assert_eq!(shards.iter().map(|s| s.num_owned).sum::<usize>(), 120);
        for (u, w) in g.edges() {
            let (pu, pw) = (p.part_of[u as usize], p.part_of[w as usize]);
            let su = &shards[pu as usize];
            let (lu, lw) = (su.local_of(u).unwrap(), su.local_of(w).unwrap());
            assert!(
                su.graph.has_edge_sorted(lu, lw),
                "edge ({u},{w}) missing from owner shard {pu}"
            );
            if pu != pw {
                // Cut edge: the other endpoint's shard sees it too, and
                // each endpoint is a ghost in the other's halo.
                assert!(shards[pw as usize].ghost_gids.binary_search(&u).is_ok());
                assert!(su.ghost_gids.binary_search(&w).is_ok());
            }
        }
    }
}
