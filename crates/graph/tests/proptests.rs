//! Property-based tests for the graph substrate: CSR construction, IO
//! round-trips and ordering invariants over arbitrary edge lists.

use gcol_graph::builder::{from_undirected_edges, CsrBuilder};
use gcol_graph::check::{count_conflicts, verify_coloring};
use gcol_graph::ordering::{degeneracy, order_vertices, Ordering};
use gcol_graph::partition::{Partitioning, Shard};
use gcol_graph::{Csr, VertexId};
use proptest::prelude::*;

/// Strategy: a vertex count and a list of edges over it.
fn arb_graph_inputs() -> impl Strategy<Value = (usize, Vec<(VertexId, VertexId)>)> {
    (2usize..60).prop_flat_map(|n| {
        let edge = (0..n as VertexId, 0..n as VertexId);
        (Just(n), proptest::collection::vec(edge, 0..200))
    })
}

/// The shard extractor as it stood before the linear rewrite: collect,
/// sort and dedup the cut endpoints, binary-search every ghost neighbor
/// and re-sort every owned row. Kept as the byte-for-byte reference for
/// [`Partitioning::extract_shards`].
fn oracle_extract(g: &Csr, id: u32, lo: VertexId, hi: VertexId) -> Shard {
    let num_owned = (hi - lo) as usize;
    let owned = || (lo..hi).flat_map(|v| g.neighbors(v).iter().copied());
    let mut ghost_gids: Vec<VertexId> = owned().filter(|&w| w < lo || w >= hi).collect();
    ghost_gids.sort_unstable();
    ghost_gids.dedup();
    let to_local = |w: VertexId| -> u32 {
        if (lo..hi).contains(&w) {
            w - lo
        } else {
            num_owned as u32 + ghost_gids.binary_search(&w).unwrap() as u32
        }
    };
    let mut row_offsets = vec![0u32];
    let mut col_indices = Vec::new();
    let mut boundary_locals = Vec::new();
    for v in lo..hi {
        let row_start = col_indices.len();
        col_indices.extend(g.neighbors(v).iter().map(|&w| to_local(w)));
        col_indices[row_start..].sort_unstable();
        if col_indices[row_start..]
            .last()
            .is_some_and(|&w| w as usize >= num_owned)
        {
            boundary_locals.push(v - lo);
        }
        row_offsets.push(col_indices.len() as u32);
    }
    for &gw in &ghost_gids {
        col_indices.extend(
            g.neighbors(gw)
                .iter()
                .filter(|&&w| (lo..hi).contains(&w))
                .map(|&w| w - lo),
        );
        row_offsets.push(col_indices.len() as u32);
    }
    Shard {
        id,
        owned_start: lo,
        num_owned,
        ghost_gids,
        boundary_locals,
        graph: Csr::new(row_offsets, col_indices),
    }
}

/// The reference owned subgraph: every local row filtered entry by entry.
fn oracle_owned_subgraph(s: &Shard) -> Csr {
    let bound = s.num_owned as u32;
    let mut row_offsets = vec![0u32];
    let mut col_indices = Vec::new();
    for v in 0..bound {
        col_indices.extend(s.graph.neighbors(v).iter().copied().filter(|&w| w < bound));
        row_offsets.push(col_indices.len() as u32);
    }
    Csr::new(row_offsets, col_indices)
}

/// Strategy: a graph and a shard count `k` in `1..8`, shaped to reach the
/// extractor's corner cases. `n` starts at 0 (the empty graph) and sparse
/// edge lists leave isolated vertices. Shape 1 keeps only the edges
/// inside one part (every shard all-interior), shape 2 only the edges
/// across parts (every row all-ghost), shape 3 at most four edges, and
/// shape 0 keeps every edge.
fn arb_shard_inputs() -> impl Strategy<Value = (Csr, usize)> {
    (0usize..60, 1usize..8, 0u8..4)
        .prop_flat_map(|(n, k, shape)| {
            let v = 0..n.max(1) as VertexId;
            let edges = proptest::collection::vec((v.clone(), v), 0..200);
            (Just(n), Just(k), Just(shape), edges)
        })
        .prop_map(|(n, k, shape, mut edges)| {
            let part = Partitioning::contiguous(&Csr::empty(n), k).part_of;
            let same = |(u, w): &(VertexId, VertexId)| part[*u as usize] == part[*w as usize];
            match shape {
                _ if n == 0 => edges.clear(),
                1 => edges.retain(same),
                2 => edges.retain(|e| !same(e)),
                3 => edges.truncate(4),
                _ => {}
            }
            (from_undirected_edges(n, edges), k)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn shard_extraction_matches_the_oracle((g, k) in arb_shard_inputs()) {
        let p = Partitioning::contiguous(&g, k);
        let shards = p.extract_shards(&g);
        prop_assert_eq!(shards.len(), p.num_parts());
        for (pid, (s, &(lo, hi))) in shards.iter().zip(&p.ranges).enumerate() {
            let want = oracle_extract(&g, pid as u32, lo, hi);
            prop_assert_eq!(s.id, want.id);
            prop_assert_eq!(s.owned_start, want.owned_start);
            prop_assert_eq!(s.num_owned, want.num_owned);
            prop_assert_eq!(&s.ghost_gids, &want.ghost_gids);
            prop_assert_eq!(&s.boundary_locals, &want.boundary_locals);
            prop_assert_eq!(s.graph.row_offsets(), want.graph.row_offsets());
            prop_assert_eq!(s.graph.col_indices(), want.graph.col_indices());
            prop_assert_eq!(s.owned_subgraph(), oracle_owned_subgraph(&want));
        }
    }
}

proptest! {
    #[test]
    fn builder_output_is_always_valid_csr((n, edges) in arb_graph_inputs()) {
        let g = from_undirected_edges(n, edges);
        prop_assert!(g.validate().is_ok());
        prop_assert!(g.is_symmetric());
        prop_assert!(g.has_no_self_loops());
        prop_assert!(g.has_sorted_unique_neighbors());
    }

    #[test]
    fn sorted_rows_check_matches_a_per_row_scan(
        lens in proptest::collection::vec(0u32..4, 1..12),
        cols in proptest::collection::vec(0u32..3, 0..40),
    ) {
        // Raw arrays, not builder output: rows come out sorted or not at
        // random, with empty rows and duplicates mixed in.
        let mut r = vec![0u32];
        for len in lens {
            r.push((r[r.len() - 1] + len).min(cols.len() as u32));
        }
        let n = r.len() - 1;
        let c: Vec<VertexId> = cols[..r[n] as usize].iter().map(|&w| w % n as u32).collect();
        let g = Csr::new(r, c);
        let per_row = g.vertices().all(|v| g.neighbors(v).is_sorted());
        prop_assert_eq!(g.has_sorted_rows(), per_row);
    }

    #[test]
    fn symmetrize_doubles_membership((n, edges) in arb_graph_inputs()) {
        let g = from_undirected_edges(n, edges.clone());
        for (u, v) in edges {
            if u != v {
                prop_assert!(g.has_edge_sorted(u, v));
                prop_assert!(g.has_edge_sorted(v, u));
            }
        }
    }

    #[test]
    fn transpose_is_involution((n, edges) in arb_graph_inputs()) {
        // Directed build (no symmetrize) — transpose twice must be identity.
        let mut b = CsrBuilder::new(n);
        b.add_edges(edges);
        let g = b.build();
        prop_assert_eq!(g.transpose().transpose(), g);
    }

    #[test]
    fn transpose_preserves_edge_count((n, edges) in arb_graph_inputs()) {
        let mut b = CsrBuilder::new(n);
        b.add_edges(edges);
        let g = b.build();
        prop_assert_eq!(g.transpose().num_edges(), g.num_edges());
    }

    #[test]
    fn mtx_roundtrip((n, edges) in arb_graph_inputs()) {
        let g = from_undirected_edges(n, edges);
        let mut buf = Vec::new();
        gcol_graph::io::write_matrix_market(&g, &mut buf).unwrap();
        let g2 = gcol_graph::io::read_matrix_market(
            std::io::BufReader::new(buf.as_slice())).unwrap();
        // Round-trip may drop trailing isolated vertices if n differs; the
        // writer records n in the size line, so it must match exactly.
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn edgelist_roundtrip((n, edges) in arb_graph_inputs()) {
        let g = from_undirected_edges(n, edges);
        let mut buf = Vec::new();
        gcol_graph::io::write_edge_list(&g, &mut buf).unwrap();
        let g2 = gcol_graph::io::read_edge_list(
            std::io::BufReader::new(buf.as_slice()), Some(n)).unwrap();
        prop_assert_eq!(g.content_fingerprint(), g2.content_fingerprint());
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn mtx_symmetric_roundtrip((n, edges) in arb_graph_inputs()) {
        // The compact one-triangle `pattern symmetric` form the real
        // collections ship must mirror back to the identical graph.
        let g = from_undirected_edges(n, edges);
        let mut buf = Vec::new();
        gcol_graph::io::write_matrix_market_symmetric(&g, &mut buf).unwrap();
        let g2 = gcol_graph::io::read_matrix_market(
            std::io::BufReader::new(buf.as_slice())).unwrap();
        prop_assert_eq!(g.content_fingerprint(), g2.content_fingerprint());
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn dimacs_roundtrip((n, edges) in arb_graph_inputs()) {
        let g = from_undirected_edges(n, edges);
        let mut buf = Vec::new();
        gcol_graph::io::write_dimacs(&g, &mut buf).unwrap();
        let g2 = gcol_graph::io::read_dimacs(
            std::io::BufReader::new(buf.as_slice())).unwrap();
        prop_assert_eq!(g.content_fingerprint(), g2.content_fingerprint());
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn metis_roundtrip((n, edges) in arb_graph_inputs()) {
        let g = from_undirected_edges(n, edges);
        let mut buf = Vec::new();
        gcol_graph::io::write_metis(&g, &mut buf).unwrap();
        let g2 = gcol_graph::io::read_metis(
            std::io::BufReader::new(buf.as_slice())).unwrap();
        prop_assert_eq!(g.content_fingerprint(), g2.content_fingerprint());
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn symmetric_mtx_mirror_entries_dedup((n, edges) in arb_graph_inputs()) {
        // A `symmetric` matrix that redundantly lists BOTH (i,j) and
        // (j,i) — which strict writers never do but real files sometimes
        // contain — must load identically to the one-triangle form: the
        // reader's mirror step plus builder dedup absorbs the duplicates.
        let g = from_undirected_edges(n, edges);
        let mut text = String::from(
            "%%MatrixMarket matrix coordinate pattern symmetric\n");
        text.push_str(&format!("{n} {n} {}\n", g.num_edges()));
        for (u, v) in g.edges() {
            text.push_str(&format!("{} {}\n", u + 1, v + 1));
        }
        let g2 = gcol_graph::io::read_matrix_market(
            std::io::BufReader::new(text.as_bytes())).unwrap();
        prop_assert_eq!(g.content_fingerprint(), g2.content_fingerprint());
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn all_orderings_are_permutations((n, edges) in arb_graph_inputs()) {
        let g = from_undirected_edges(n, edges);
        for ord in [Ordering::Natural, Ordering::LargestDegreeFirst,
                    Ordering::SmallestDegreeLast, Ordering::Random(1)] {
            let mut p = order_vertices(&g, ord);
            p.sort_unstable();
            prop_assert_eq!(p, (0..n as VertexId).collect::<Vec<_>>());
        }
    }

    #[test]
    fn degeneracy_bounds((n, edges) in arb_graph_inputs()) {
        let g = from_undirected_edges(n, edges);
        let d = degeneracy(&g);
        prop_assert!(d <= g.max_degree());
        // A graph with m undirected edges has a vertex of degree ≤ 2m/n,
        // and degeneracy ≤ max over subgraphs of that bound; the crude
        // check d ≤ max_degree suffices plus: d == 0 iff no edges.
        prop_assert_eq!(d == 0, g.num_edges() == 0);
    }

    #[test]
    fn partition_covers_and_flags((n, edges) in arb_graph_inputs(),
                                   k in 1usize..8) {
        let g = from_undirected_edges(n, edges);
        let p = Partitioning::contiguous(&g, k);
        // Every vertex belongs to the range its part claims.
        for v in 0..n {
            let (lo, hi) = p.ranges[p.part_of[v] as usize];
            prop_assert!((lo as usize..hi as usize).contains(&v));
        }
        // Boundary flags agree with a direct recomputation.
        let boundary = p.boundary(&g);
        for v in 0..n as VertexId {
            let expect = g.neighbors(v).iter()
                .any(|&w| p.part_of[w as usize] != p.part_of[v as usize]);
            prop_assert_eq!(boundary[v as usize], expect);
        }
    }

    #[test]
    fn shards_are_an_edge_cover((n, edges) in arb_graph_inputs(),
                                k in 1usize..8) {
        let g = from_undirected_edges(n, edges);
        let p = Partitioning::contiguous(&g, k);
        let shards = p.extract_shards(&g);
        // No vertex lost: the owned ranges partition the vertex set, and
        // local↔global id maps round-trip for owned and ghost vertices.
        prop_assert_eq!(shards.iter().map(|s| s.num_owned).sum::<usize>(), n);
        for s in &shards {
            prop_assert!(s.graph.validate().is_ok());
            prop_assert!(s.graph.is_symmetric());
            for l in 0..s.num_local() as VertexId {
                prop_assert_eq!(s.local_of(s.global_of(l)), Some(l));
            }
        }
        // Every edge is interior to exactly one shard, or a cut edge
        // present in both endpoints' halos (and in no third shard).
        for (u, w) in g.edges() {
            let (pu, pw) = (p.part_of[u as usize], p.part_of[w as usize]);
            for (q, s) in shards.iter().enumerate() {
                let present = match (s.local_of(u), s.local_of(w)) {
                    (Some(lu), Some(lw)) => s.graph.has_edge_sorted(lu, lw),
                    _ => false,
                };
                let expect = q == pu as usize || q == pw as usize;
                prop_assert_eq!(present, expect,
                    "edge ({}, {}) in shard {}: present {} expected {}",
                    u, w, q, present, expect);
            }
            if pu != pw {
                prop_assert!(shards[pu as usize].ghost_gids.binary_search(&w).is_ok());
                prop_assert!(shards[pw as usize].ghost_gids.binary_search(&u).is_ok());
            }
        }
    }

    #[test]
    fn conflict_count_zero_iff_proper((n, edges) in arb_graph_inputs(),
                                      seed in 0u64..1000) {
        let g = from_undirected_edges(n, edges);
        // Random (possibly improper) coloring with colors 1..=3.
        let mut rng = gcol_graph::rng::Xoshiro256::seed_from_u64(seed);
        let colors: Vec<u32> = (0..n).map(|_| 1 + rng.next_u32() % 3).collect();
        let conflicts = count_conflicts(&g, &colors);
        let proper = verify_coloring(&g, &colors).is_ok();
        prop_assert_eq!(conflicts == 0, proper);
    }
}

#[test]
fn generators_produce_colorable_structures() {
    // Smoke check that every generator output passes validation.
    use gcol_graph::gen;
    let graphs: Vec<Csr> = vec![
        gen::rmat(gen::RmatParams::erdos_renyi(8, 4), 1),
        gen::rmat(gen::RmatParams::skewed(8, 4), 1),
        gen::grid2d(9, 7, gen::StencilKind::FivePoint),
        gen::grid2d(9, 7, gen::StencilKind::NinePoint),
        gen::grid3d(5, 4, 3),
        gen::mesh2d(12, 12, 0.1, 2),
        gen::circuit_graph(300, 3, 0.9, 3),
        gen::path(17),
        gen::cycle(9),
        gen::complete(9),
        gen::star(33),
        gen::erdos_renyi(100, 300, 4),
        gen::random_regular(60, 6, 5),
        gen::random_bipartite(20, 30, 90, 6),
    ];
    for g in &graphs {
        g.validate().unwrap();
        assert!(g.is_symmetric());
        assert!(g.has_no_self_loops());
    }
}

#[test]
fn barabasi_albert_has_power_law_hubs() {
    use gcol_graph::gen::simple::barabasi_albert;
    use gcol_graph::stats::DegreeStats;
    let g = barabasi_albert(4000, 4, 11);
    g.validate().unwrap();
    assert!(g.is_symmetric());
    assert!(g.has_no_self_loops());
    let s = DegreeStats::compute(&g);
    // Preferential attachment: average ≈ 2m, max a large multiple of it.
    assert!((s.avg_degree - 8.0).abs() < 1.0, "avg {}", s.avg_degree);
    assert!(
        s.max_degree > 10 * s.avg_degree as usize,
        "no hub emerged: max {} avg {}",
        s.max_degree,
        s.avg_degree
    );
    // Deterministic per seed.
    assert_eq!(g, barabasi_albert(4000, 4, 11));
}

proptest! {
    #[test]
    fn fingerprint_stable_under_identity_relabel((n, edges) in arb_graph_inputs()) {
        // relabel() with the identity permutation rebuilds the CSR arrays
        // through an entirely different code path (counting sort + per-list
        // re-sort); the bytes — and hence the fingerprint — must match.
        let g = from_undirected_edges(n, edges);
        let identity: Vec<VertexId> = (0..n as VertexId).collect();
        let relabeled = gcol_graph::relabel::relabel(&g, &identity);
        prop_assert_eq!(g.clone(), relabeled.clone());
        prop_assert_eq!(g.content_fingerprint(), relabeled.content_fingerprint());
    }

    #[test]
    fn fingerprint_changes_on_single_edge_flip((n, edges) in arb_graph_inputs(),
                                               sel in 0u64..1_000_000) {
        // Toggle the membership of one undirected pair (u, v): the two
        // graphs differ in exactly one edge, and a content hash worth its
        // name separates them.
        let g = from_undirected_edges(n, edges.clone());
        let mut pairs: Vec<(VertexId, VertexId)> = Vec::new();
        for a in 0..n as VertexId {
            for b in (a + 1)..n as VertexId {
                pairs.push((a, b));
            }
        }
        let (u, v) = pairs[(sel % pairs.len() as u64) as usize];
        let mut undirected: Vec<(VertexId, VertexId)> =
            g.edges().filter(|&(a, b)| a < b).collect();
        if let Some(i) = undirected.iter().position(|&e| e == (u, v)) {
            undirected.swap_remove(i); // flip off
        } else {
            undirected.push((u, v)); // flip on
        }
        let flipped = from_undirected_edges(n, undirected);
        prop_assert_ne!(g.content_fingerprint(), flipped.content_fingerprint());
    }
}

/// A vertex count, an undirected edge list, and a raw edit batch
/// (`true` = insert) — the inputs the `apply_edits` properties draw.
type EditInputs = (
    usize,
    Vec<(VertexId, VertexId)>,
    Vec<(bool, VertexId, VertexId)>,
);

/// Strategy: a graph plus a batch of random edits over it (inserts and
/// deletes of arbitrary pairs, self-loops excluded by construction).
fn arb_edit_inputs() -> impl Strategy<Value = EditInputs> {
    (2usize..40).prop_flat_map(|n| {
        let edge = (0..n as VertexId, 0..n as VertexId);
        let edit = (any::<bool>(), 0..n as VertexId, 0..n as VertexId);
        (
            Just(n),
            proptest::collection::vec(edge, 0..120),
            proptest::collection::vec(edit, 0..40),
        )
    })
}

proptest! {
    #[test]
    fn apply_edits_is_fingerprint_stable((n, edges, raw_edits) in arb_edit_inputs()) {
        use gcol_graph::edit::EdgeEdit;
        let g = from_undirected_edges(n, edges);
        let edits: Vec<EdgeEdit> = raw_edits.iter()
            .filter(|&&(_, u, v)| u != v)
            .map(|&(ins, u, v)| if ins { EdgeEdit::Insert(u, v) } else { EdgeEdit::Delete(u, v) })
            .collect();
        let (edited, touched) = g.with_edits(&edits).unwrap();
        // Structural invariants survive any batch.
        prop_assert!(edited.validate().is_ok());
        prop_assert!(edited.is_symmetric());
        prop_assert!(edited.has_no_self_loops());
        prop_assert!(edited.has_sorted_unique_neighbors());
        // Path independence: a fresh build of the post-edit edge set is
        // byte-identical, so the content fingerprint (the service cache
        // key) cannot tell edited and rebuilt graphs apart.
        let rebuilt = from_undirected_edges(n, edited.edges().filter(|(u, v)| u < v));
        prop_assert_eq!(&edited, &rebuilt);
        prop_assert_eq!(edited.content_fingerprint(), rebuilt.content_fingerprint());
        // Touched = exactly the vertices whose adjacency changed.
        for v in 0..n as VertexId {
            let changed = g.neighbors(v) != edited.neighbors(v);
            prop_assert_eq!(touched.binary_search(&v).is_ok(), changed,
                "vertex {} touched-report disagrees with adjacency diff", v);
        }
        // Touched list is sorted and duplicate-free.
        prop_assert!(touched.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn apply_edits_inverse_batch_round_trips((n, edges, raw_edits) in arb_edit_inputs()) {
        use gcol_graph::edit::EdgeEdit;
        // Applying a batch and then its inverse (w.r.t. what actually
        // changed) restores the original graph bit-for-bit.
        let g = from_undirected_edges(n, edges);
        let edits: Vec<EdgeEdit> = raw_edits.iter()
            .filter(|&&(_, u, v)| u != v)
            .map(|&(ins, u, v)| if ins { EdgeEdit::Insert(u, v) } else { EdgeEdit::Delete(u, v) })
            .collect();
        let (edited, _) = g.with_edits(&edits).unwrap();
        let mut inverse: Vec<EdgeEdit> = Vec::new();
        for (u, v) in g.edges().filter(|(u, v)| u < v) {
            if !edited.has_edge_sorted(u, v) {
                inverse.push(EdgeEdit::Insert(u, v));
            }
        }
        for (u, v) in edited.edges().filter(|(u, v)| u < v) {
            if !g.has_edge_sorted(u, v) {
                inverse.push(EdgeEdit::Delete(u, v));
            }
        }
        let (restored, _) = edited.with_edits(&inverse).unwrap();
        prop_assert_eq!(&restored, &g);
        prop_assert_eq!(restored.content_fingerprint(), g.content_fingerprint());
    }
}

/// The per-row set rebuild `Csr::with_edits` used before the sorted
/// merge, kept as the oracle the merge must match byte for byte: every
/// row an edit names becomes a `BTreeSet`, the batch is applied in
/// order, and `R`/`C` are rebuilt from the sets.
fn set_rebuild_oracle(g: &Csr, edits: &[gcol_graph::edit::EdgeEdit]) -> (Csr, Vec<VertexId>) {
    use gcol_graph::edit::EdgeEdit;
    use std::collections::{BTreeMap, BTreeSet};
    let mut rows: BTreeMap<VertexId, BTreeSet<VertexId>> = BTreeMap::new();
    for e in edits {
        let (u, v) = e.endpoints();
        for w in [u, v] {
            rows.entry(w)
                .or_insert_with(|| g.neighbors(w).iter().copied().collect());
        }
        match *e {
            EdgeEdit::Insert(u, v) => {
                rows.get_mut(&u).unwrap().insert(v);
                rows.get_mut(&v).unwrap().insert(u);
            }
            EdgeEdit::Delete(u, v) => {
                rows.get_mut(&u).unwrap().remove(&v);
                rows.get_mut(&v).unwrap().remove(&u);
            }
        }
    }
    let touched: Vec<VertexId> = rows
        .iter()
        .filter(|(&v, set)| !set.iter().copied().eq(g.neighbors(v).iter().copied()))
        .map(|(&v, _)| v)
        .collect();
    if touched.is_empty() {
        return (g.clone(), touched);
    }
    let mut r = vec![0u32];
    let mut c: Vec<VertexId> = Vec::new();
    for v in g.vertices() {
        match rows.get(&v) {
            Some(set) => c.extend(set.iter().copied()),
            None => c.extend_from_slice(g.neighbors(v)),
        }
        r.push(c.len() as u32);
    }
    (Csr::new(r, c), touched)
}

/// Runs `edits` through `with_edits` and `apply_edits` and pins both
/// against [`set_rebuild_oracle`]: identical `R`, `C`, touched set and
/// content fingerprint.
fn check_edit_against_oracle(g: &Csr, edits: &[gcol_graph::edit::EdgeEdit]) {
    let (want, want_touched) = set_rebuild_oracle(g, edits);
    let (got, touched) = g.with_edits(edits).unwrap();
    prop_assert_eq!(got.row_offsets(), want.row_offsets());
    prop_assert_eq!(got.col_indices(), want.col_indices());
    prop_assert_eq!(&touched, &want_touched);
    prop_assert_eq!(got.content_fingerprint(), want.content_fingerprint());
    let mut in_place = g.clone();
    prop_assert_eq!(in_place.apply_edits(edits).unwrap(), want_touched);
    prop_assert_eq!(in_place.row_offsets(), want.row_offsets());
    prop_assert_eq!(in_place.col_indices(), want.col_indices());
    prop_assert_eq!(in_place.content_fingerprint(), want.content_fingerprint());
}

/// Strategy: a small sparse graph (isolated vertices are common) and an
/// edit batch drawn from so few pairs that repeated ops on one pair, in
/// both orientations, are the norm rather than the exception.
fn arb_dense_edit_inputs() -> impl Strategy<Value = EditInputs> {
    (2usize..12).prop_flat_map(|n| {
        let edge = (0..n as VertexId, 0..n as VertexId);
        let edit = (any::<bool>(), 0..n as VertexId, 0..n as VertexId);
        (
            Just(n),
            proptest::collection::vec(edge, 0..24),
            proptest::collection::vec(edit, 0..48),
        )
    })
}

proptest! {
    #[test]
    fn merge_edit_matches_the_set_rebuild_oracle((n, edges, raw_edits) in arb_dense_edit_inputs()) {
        use gcol_graph::edit::EdgeEdit;
        let g = from_undirected_edges(n, edges);
        let last = n as VertexId - 1;
        let edits: Vec<EdgeEdit> = raw_edits.iter()
            .filter(|&&(_, u, v)| u != v)
            .map(|&(ins, u, v)| if ins { EdgeEdit::Insert(u, v) } else { EdgeEdit::Delete(u, v) })
            .collect();
        // The drawn batch, and the empty one.
        check_edit_against_oracle(&g, &edits);
        check_edit_against_oracle(&g, &[]);
        // Each op undone by its opposite in the other orientation, and
        // the drawn batch replayed reversed-and-negated after itself.
        let flip = |e: &EdgeEdit| match *e {
            EdgeEdit::Insert(u, v) => EdgeEdit::Delete(v, u),
            EdgeEdit::Delete(u, v) => EdgeEdit::Insert(v, u),
        };
        let cancelling: Vec<EdgeEdit> = edits.iter().flat_map(|e| [*e, flip(e)]).collect();
        check_edit_against_oracle(&g, &cancelling);
        let undone: Vec<EdgeEdit> =
            edits.iter().copied().chain(edits.iter().rev().map(flip)).collect();
        check_edit_against_oracle(&g, &undone);
        // All redundant: re-insert every present edge, delete every
        // absent pair.
        let mut redundant: Vec<EdgeEdit> = Vec::new();
        for u in 0..n as VertexId {
            for v in (0..n as VertexId).filter(|&v| v != u) {
                redundant.push(if g.has_edge_sorted(u, v) {
                    EdgeEdit::Insert(u, v)
                } else {
                    EdgeEdit::Delete(v, u)
                });
            }
        }
        check_edit_against_oracle(&g, &redundant);
        prop_assert!(g.with_edits(&redundant).unwrap().1.is_empty());
        // Vertex 0 and vertex n-1 drop to degree 0, then the drawn batch
        // runs on top.
        let mut strip: Vec<EdgeEdit> = g.neighbors(0).iter()
            .map(|&w| EdgeEdit::Delete(0, w))
            .chain(g.neighbors(last).iter().map(|&w| EdgeEdit::Delete(w, last)))
            .collect();
        let (stripped, _) = g.with_edits(&strip).unwrap();
        prop_assert_eq!(stripped.degree(0), 0);
        prop_assert_eq!(stripped.degree(last), 0);
        check_edit_against_oracle(&g, &strip);
        strip.extend_from_slice(&edits);
        check_edit_against_oracle(&g, &strip);
        // The edge {0, n-1} toggled repeatedly in alternating orientations.
        let toggles: Vec<EdgeEdit> = (0..5)
            .map(|k| match k % 4 {
                0 => EdgeEdit::Insert(0, last),
                1 => EdgeEdit::Delete(last, 0),
                2 => EdgeEdit::Insert(last, 0),
                _ => EdgeEdit::Delete(0, last),
            })
            .collect();
        for len in 0..=toggles.len() {
            check_edit_against_oracle(&g, &toggles[..len]);
        }
    }
}
