//! Compressed sparse row (CSR) graph storage.
//!
//! This is the exact representation of §III-C / Fig. 2 of the paper: the
//! column-indices array `C` is the concatenation of all adjacency lists, and
//! the row-offsets array `R` has `n + 1` entries with `R[v]` the index in `C`
//! where `v`'s adjacency list begins. Graphs are stored in the order they are
//! defined — like the paper, we perform no locality- or balance-improving
//! preprocessing.

use crate::stats::GraphProfile;
use std::fmt;
use std::sync::OnceLock;

/// Vertex identifier. The paper's graphs have ~1.6M vertices; `u32` matches
/// the CUDA kernels' `int` indices and halves memory traffic vs `usize`.
pub type VertexId = u32;

/// An immutable graph in CSR form.
///
/// ```
/// use gcol_graph::Csr;
/// // The 5-vertex example of the paper's Fig. 2.
/// let g = Csr::new(
///     vec![0, 2, 6, 9, 11, 14],
///     vec![1, 2, 0, 2, 3, 4, 0, 1, 4, 1, 4, 1, 2, 3],
/// );
/// assert_eq!(g.neighbors(1), &[0, 2, 3, 4]);
/// assert_eq!(g.degree(0), 2);
/// assert!(g.is_symmetric());
/// ```
///
/// Invariants (upheld by [`crate::builder::CsrBuilder`] and checked by
/// [`Csr::validate`]):
///
/// * `row_offsets.len() == num_vertices + 1`
/// * `row_offsets[0] == 0`, `row_offsets` is non-decreasing,
///   `row_offsets[n] == col_indices.len()`
/// * every entry of `col_indices` is `< num_vertices`
#[derive(Clone)]
pub struct Csr {
    row_offsets: Vec<u32>,
    col_indices: Vec<VertexId>,
    memo: Memo,
}

/// Whole-graph values computed on first use. Not part of the graph's
/// identity: equality ignores them, `clone` carries them and the one
/// mutator resets them.
#[derive(Clone, Default)]
struct Memo {
    /// [`Csr::content_fingerprint`].
    fingerprint: OnceLock<u64>,
    /// [`Csr::profile`].
    profile: OnceLock<GraphProfile>,
}

impl PartialEq for Csr {
    fn eq(&self, other: &Self) -> bool {
        self.row_offsets == other.row_offsets && self.col_indices == other.col_indices
    }
}

impl Eq for Csr {}

impl Csr {
    /// Builds a CSR graph from raw arrays, validating the invariants.
    ///
    /// # Panics
    /// Panics if the arrays do not form a valid CSR structure; use
    /// [`Csr::try_new`] for a fallible variant.
    pub fn new(row_offsets: Vec<u32>, col_indices: Vec<VertexId>) -> Self {
        Self::try_new(row_offsets, col_indices).expect("invalid CSR arrays")
    }

    /// Fallible constructor; returns a description of the violated invariant.
    pub fn try_new(row_offsets: Vec<u32>, col_indices: Vec<VertexId>) -> Result<Self, CsrError> {
        Self::check(&row_offsets, &col_indices)?;
        Ok(Self {
            row_offsets,
            col_indices,
            memo: Memo::default(),
        })
    }

    /// The empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        Self {
            row_offsets: vec![0; n + 1],
            col_indices: Vec::new(),
            memo: Memo::default(),
        }
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Number of stored directed edges `m` (for a symmetric graph this is
    /// twice the undirected edge count; it equals the "non-zero elements"
    /// column of Table I).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.col_indices.len()
    }

    /// The row-offsets array `R` (length `n + 1`).
    #[inline]
    pub fn row_offsets(&self) -> &[u32] {
        &self.row_offsets
    }

    /// The column-indices array `C` (length `m`).
    #[inline]
    pub fn col_indices(&self) -> &[VertexId] {
        &self.col_indices
    }

    /// Adjacency list of vertex `v` (the paper's `adj(v)`).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.row_offsets[v as usize] as usize;
        let hi = self.row_offsets[v as usize + 1] as usize;
        &self.col_indices[lo..hi]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.row_offsets[v as usize + 1] - self.row_offsets[v as usize]) as usize
    }

    /// Maximum degree Δ over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as VertexId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over all directed edges `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices()
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Whether the edge `(u, v)` is present (binary search; adjacency lists
    /// produced by [`crate::builder::CsrBuilder`] are sorted).
    pub fn has_edge_sorted(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// True if for every stored edge `(u, v)` the reverse `(v, u)` is also
    /// stored — the structural-symmetry notion used throughout the paper
    /// (undirected graphs stored as symmetric sparsity patterns).
    pub fn is_symmetric(&self) -> bool {
        self.edges().all(|(u, v)| self.has_edge_sorted(v, u))
    }

    /// True if no vertex lists itself as a neighbor.
    pub fn has_no_self_loops(&self) -> bool {
        self.edges().all(|(u, v)| u != v)
    }

    /// True if every adjacency list is strictly increasing (sorted, no
    /// duplicates).
    pub fn has_sorted_unique_neighbors(&self) -> bool {
        self.vertices()
            .all(|v| self.neighbors(v).windows(2).all(|w| w[0] < w[1]))
    }

    /// True if every adjacency list is non-decreasing. Every row is
    /// sorted exactly when each descent of the flat `C` array sits where
    /// a non-empty row starts, so this is one flat pass over `C` (no
    /// per-row loop) plus one pass over `R` when `C` has descents.
    pub fn has_sorted_rows(&self) -> bool {
        let c = &self.col_indices;
        let descents = c.windows(2).filter(|w| w[0] > w[1]).count();
        descents == 0
            || descents
                == self
                    .row_offsets
                    .windows(2)
                    .filter(|r| {
                        let (start, end) = (r[0] as usize, r[1] as usize);
                        start > 0 && start < end && c[start - 1] > c[start]
                    })
                    .count()
    }

    /// Re-checks all structural invariants; useful after IO.
    pub fn validate(&self) -> Result<(), CsrError> {
        Self::check(&self.row_offsets, &self.col_indices)
    }

    /// The invariant check behind [`Csr::try_new`] and [`Csr::validate`],
    /// in place over the raw arrays.
    fn check(row_offsets: &[u32], col_indices: &[VertexId]) -> Result<(), CsrError> {
        let (&first, &last) = match (row_offsets.first(), row_offsets.last()) {
            (Some(first), Some(last)) => (first, last),
            _ => return Err(CsrError::EmptyOffsets),
        };
        if first != 0 {
            return Err(CsrError::FirstOffsetNonZero(first));
        }
        if last as usize != col_indices.len() {
            return Err(CsrError::LastOffsetMismatch {
                last,
                edges: col_indices.len(),
            });
        }
        if let Some(i) = row_offsets.windows(2).position(|w| w[0] > w[1]) {
            return Err(CsrError::DecreasingOffsets(i));
        }
        let n = (row_offsets.len() - 1) as u32;
        if let Some(&w) = col_indices.iter().find(|&&w| w >= n) {
            return Err(CsrError::NeighborOutOfRange { neighbor: w, n });
        }
        Ok(())
    }

    /// Returns the transpose graph (reverse of every edge). For symmetric
    /// graphs this is an expensive identity, used in tests as an oracle.
    pub fn transpose(&self) -> Csr {
        let n = self.num_vertices();
        let mut counts = vec![0u32; n + 1];
        for &v in &self.col_indices {
            counts[v as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cols = vec![0 as VertexId; self.num_edges()];
        let mut cursor = counts;
        for (u, v) in self.edges() {
            let slot = cursor[v as usize] as usize;
            cols[slot] = u;
            cursor[v as usize] += 1;
        }
        // Transposing preserves sortedness of lists only per-source order;
        // re-sort each list to restore the sorted-unique invariant.
        let mut out = Csr {
            row_offsets: offsets,
            col_indices: cols,
            memo: Memo::default(),
        };
        out.sort_neighbor_lists();
        out
    }

    /// Sorts every adjacency list in place.
    pub fn sort_neighbor_lists(&mut self) {
        self.memo = Memo::default();
        for v in 0..self.num_vertices() {
            let lo = self.row_offsets[v] as usize;
            let hi = self.row_offsets[v + 1] as usize;
            self.col_indices[lo..hi].sort_unstable();
        }
    }

    /// Memory footprint in bytes of the two CSR arrays (what the kernels
    /// stream from DRAM).
    pub fn footprint_bytes(&self) -> usize {
        self.row_offsets.len() * 4 + self.col_indices.len() * 4
    }

    /// A stable 64-bit content fingerprint of the graph: a hash over
    /// `n`, `m` and every word of the `R` and `C` arrays, in order.
    ///
    /// Two graphs fingerprint equal iff their CSR arrays are
    /// byte-identical (up to 64-bit hash collisions), which is exactly
    /// the notion of identity a result cache needs: every coloring
    /// scheme is a pure function of the CSR bytes plus its options, so
    /// equal fingerprints plus equal options mean an identical result.
    /// Relabeling a graph with a non-identity permutation — even an
    /// automorphism — changes the bytes and therefore the fingerprint;
    /// that is deliberate (colorings are not relabel-equivariant
    /// caches).
    ///
    /// The hash is implemented in-house (multiply-xorshift chaining with
    /// a splitmix64 finalizer, like the rest of the crate's RNG) so the
    /// value is bit-stable across platforms and dependency versions; the
    /// unit test pins it for the Fig. 2 example graph.
    ///
    /// The arrays are hashed at most once per graph: the value is memoized
    /// (and carried by `clone`), so a server that keeps its graphs behind
    /// an `Arc` pays O(1) per request instead of O(n + m).
    pub fn content_fingerprint(&self) -> u64 {
        *self.memo.fingerprint.get_or_init(|| self.hash_arrays())
    }

    /// The planner's [`GraphProfile`] of this graph, extracted on first
    /// use and memoized like [`Csr::content_fingerprint`], so planning a
    /// request against a shared graph costs O(1) after the first.
    pub fn profile(&self) -> GraphProfile {
        *self
            .memo
            .profile
            .get_or_init(|| GraphProfile::extract(self))
    }

    fn hash_arrays(&self) -> u64 {
        #[inline]
        fn mix(h: u64, w: u64) -> u64 {
            let x = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^ (x >> 32)
        }
        // Domain-separate the four sections (n, m, R, C) so that moving a
        // word across an array boundary cannot cancel out.
        let mut h = 0x6763_6F6C_2D63_7372u64; // "gcol-csr"
        h = mix(h, self.num_vertices() as u64);
        h = mix(h, self.num_edges() as u64);
        h = mix(h, 0x52); // 'R'
        let fold = |h0: u64, words: &[u32]| {
            let mut h = h0;
            let mut it = words.chunks_exact(2);
            for pair in &mut it {
                h = mix(h, (pair[0] as u64) << 32 | pair[1] as u64);
            }
            if let [last] = it.remainder() {
                h = mix(h, 1u64 << 33 | *last as u64);
            }
            h
        };
        h = fold(h, &self.row_offsets);
        h = mix(h, 0x43); // 'C'
        h = fold(h, &self.col_indices);
        // splitmix64 finalizer for full avalanche of the last words.
        crate::rng::splitmix64(&mut h)
    }
}

impl fmt::Debug for Csr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Csr {{ n: {}, m: {} }}",
            self.num_vertices(),
            self.num_edges()
        )
    }
}

/// Structural errors a raw CSR pair can exhibit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsrError {
    /// The offsets array was empty (must have at least one entry).
    EmptyOffsets,
    /// `row_offsets[0]` was not zero.
    FirstOffsetNonZero(u32),
    /// `row_offsets[n]` disagreed with `col_indices.len()`.
    LastOffsetMismatch {
        /// The final offset entry.
        last: u32,
        /// The actual number of column indices.
        edges: usize,
    },
    /// Offsets decreased at the given window index.
    DecreasingOffsets(usize),
    /// A neighbor index was `>= n`.
    NeighborOutOfRange {
        /// The offending neighbor id.
        neighbor: VertexId,
        /// The vertex count.
        n: u32,
    },
}

impl fmt::Display for CsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsrError::EmptyOffsets => write!(f, "row_offsets is empty"),
            CsrError::FirstOffsetNonZero(x) => {
                write!(f, "row_offsets[0] = {x}, expected 0")
            }
            CsrError::LastOffsetMismatch { last, edges } => write!(
                f,
                "row_offsets ends at {last} but there are {edges} column indices"
            ),
            CsrError::DecreasingOffsets(i) => {
                write!(f, "row_offsets decreases at index {i}")
            }
            CsrError::NeighborOutOfRange { neighbor, n } => {
                write!(f, "neighbor {neighbor} out of range (n = {n})")
            }
        }
    }
}

impl std::error::Error for CsrError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// The example graph from Fig. 2 of the paper: 5 vertices,
    /// R = [0, 2, 6, 9, 11, 14], C as concatenated adjacency lists.
    fn fig2_graph() -> Csr {
        Csr::new(
            vec![0, 2, 6, 9, 11, 14],
            vec![1, 2, 0, 2, 3, 4, 0, 1, 4, 1, 4, 1, 2, 3],
        )
    }

    #[test]
    fn fig2_shape() {
        let g = fig2_graph();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 14);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2, 3, 4]);
        assert_eq!(g.degree(1), 4);
        assert_eq!(g.max_degree(), 4);
        assert!(g.is_symmetric());
        assert!(g.has_no_self_loops());
        assert!(g.has_sorted_unique_neighbors());
    }

    #[test]
    fn sorted_rows_allow_descents_only_at_row_starts() {
        assert!(fig2_graph().has_sorted_rows());
        assert!(Csr::empty(3).has_sorted_rows());
        // Descents at row starts, with empty rows between, and duplicates.
        assert!(Csr::new(vec![0, 2, 2, 3, 3, 5], vec![3, 4, 1, 0, 0]).has_sorted_rows());
        // A descent inside a row, next to an empty row.
        assert!(!Csr::new(vec![0, 2, 2, 4], vec![1, 2, 2, 0]).has_sorted_rows());
        // A descent inside a row where no row start descends.
        assert!(!Csr::new(vec![0, 1, 3, 4], vec![0, 2, 1, 2]).has_sorted_rows());
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(4);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(g.neighbors(3).is_empty());
        g.validate().unwrap();
    }

    #[test]
    fn zero_vertex_graph() {
        let g = Csr::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.vertices().count(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn rejects_bad_offsets() {
        assert_eq!(
            Csr::try_new(vec![], vec![]).unwrap_err(),
            CsrError::EmptyOffsets
        );
        assert_eq!(
            Csr::try_new(vec![1, 1], vec![0]).unwrap_err(),
            CsrError::FirstOffsetNonZero(1)
        );
        assert!(matches!(
            Csr::try_new(vec![0, 2], vec![0]).unwrap_err(),
            CsrError::LastOffsetMismatch { .. }
        ));
        assert_eq!(
            Csr::try_new(vec![0, 2, 1, 3], vec![0, 0, 0]).unwrap_err(),
            CsrError::DecreasingOffsets(1)
        );
        assert!(matches!(
            Csr::try_new(vec![0, 1], vec![5]).unwrap_err(),
            CsrError::NeighborOutOfRange { neighbor: 5, n: 1 }
        ));
    }

    #[test]
    fn validate_reports_what_try_new_reports() {
        let cases: [(Vec<u32>, Vec<VertexId>); 6] = [
            (vec![], vec![]),
            (vec![1, 1], vec![0]),
            (vec![0, 2], vec![0]),
            (vec![0, 2, 1, 3], vec![0, 0, 0]),
            (vec![0, 1], vec![5]),
            (
                vec![0, 2, 6, 9, 11, 14],
                fig2_graph().col_indices().to_vec(),
            ),
        ];
        for (r, c) in cases {
            // Private fields let the test hold arrays try_new would refuse.
            let raw = Csr {
                row_offsets: r.clone(),
                col_indices: c.clone(),
                memo: Memo::default(),
            };
            assert_eq!(raw.validate(), Csr::try_new(r, c).map(|_| ()));
        }
    }

    #[test]
    fn edges_iterator_matches_neighbors() {
        let g = fig2_graph();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), g.num_edges());
        assert_eq!(edges[0], (0, 1));
        assert_eq!(edges[2], (1, 0));
        assert_eq!(*edges.last().unwrap(), (4, 3));
    }

    #[test]
    fn transpose_of_symmetric_graph_is_identity() {
        let g = fig2_graph();
        assert_eq!(g.transpose(), g);
    }

    #[test]
    fn transpose_reverses_edges() {
        // Directed path 0 -> 1 -> 2.
        let g = Csr::new(vec![0, 1, 2, 2], vec![1, 2]);
        let t = g.transpose();
        assert_eq!(t.neighbors(0), &[] as &[VertexId]);
        assert_eq!(t.neighbors(1), &[0]);
        assert_eq!(t.neighbors(2), &[1]);
    }

    #[test]
    fn has_edge_sorted_works() {
        let g = fig2_graph();
        assert!(g.has_edge_sorted(0, 1));
        assert!(!g.has_edge_sorted(0, 3));
        assert!(g.has_edge_sorted(4, 3));
    }

    #[test]
    fn footprint_counts_both_arrays() {
        let g = fig2_graph();
        assert_eq!(g.footprint_bytes(), 6 * 4 + 14 * 4);
    }

    #[test]
    fn content_fingerprint_is_pinned() {
        // The fingerprint is part of the service-cache contract: it must
        // be bit-stable across platforms, compilers and releases. If this
        // value ever changes, every persisted cache key changes with it —
        // treat that as a breaking change, not a test to update casually.
        let g = fig2_graph();
        assert_eq!(g.content_fingerprint(), 0x5e47_041d_72bb_63bb);
    }

    #[test]
    fn content_fingerprint_separates_structure() {
        let g = fig2_graph();
        // Same arrays -> same hash.
        assert_eq!(g.content_fingerprint(), g.clone().content_fingerprint());
        // Dropping one directed edge changes it.
        let h = Csr::new(
            vec![0, 2, 6, 9, 11, 13],
            vec![1, 2, 0, 2, 3, 4, 0, 1, 4, 1, 4, 1, 2],
        );
        assert_ne!(g.content_fingerprint(), h.content_fingerprint());
        // Isolated-vertex padding (same C, longer R) changes it.
        let mut r = g.row_offsets().to_vec();
        r.push(*r.last().unwrap());
        let padded = Csr::new(r, g.col_indices().to_vec());
        assert_ne!(g.content_fingerprint(), padded.content_fingerprint());
        // The empty graph and a single isolated vertex differ too.
        assert_ne!(
            Csr::empty(0).content_fingerprint(),
            Csr::empty(1).content_fingerprint()
        );
    }

    #[test]
    fn memoized_fingerprint_matches_a_fresh_hash() {
        let g = fig2_graph();
        assert!(g.memo.fingerprint.get().is_none());
        let first = g.content_fingerprint();
        assert_eq!(g.memo.fingerprint.get(), Some(&first));
        assert_eq!(g.content_fingerprint(), first);
        assert_eq!(first, g.hash_arrays());
        assert_eq!(first, fig2_graph().content_fingerprint());
    }

    #[test]
    fn clone_carries_the_memoized_fingerprint() {
        let g = fig2_graph();
        let fp = g.content_fingerprint();
        let c = g.clone();
        assert_eq!(c.memo.fingerprint.get(), Some(&fp));
        assert_eq!(c.content_fingerprint(), c.hash_arrays());
    }

    #[test]
    fn sorting_neighbor_lists_resets_the_memo() {
        // Vertex 0 lists its neighbors out of order.
        let mut g = Csr::new(vec![0, 2, 3, 4], vec![2, 1, 0, 0]);
        let unsorted = g.content_fingerprint();
        g.sort_neighbor_lists();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert!(g.memo.fingerprint.get().is_none());
        let sorted = g.content_fingerprint();
        assert_ne!(sorted, unsorted);
        assert_eq!(
            sorted,
            Csr::new(vec![0, 2, 3, 4], vec![1, 2, 0, 0]).content_fingerprint()
        );
    }

    #[test]
    fn memoized_profile_matches_a_fresh_extract() {
        let mut g = Csr::new(vec![0, 2, 3, 4], vec![2, 1, 0, 0]);
        assert!(g.memo.profile.get().is_none());
        let p = g.profile();
        assert_eq!(p, GraphProfile::extract(&g));
        assert_eq!(g.memo.profile.get(), Some(&p));
        assert_eq!(g.clone().memo.profile.get(), Some(&p));
        g.sort_neighbor_lists();
        assert!(g.memo.profile.get().is_none());
        assert_eq!(g.profile(), GraphProfile::extract(&g));
    }

    #[test]
    fn equality_ignores_the_memo() {
        let filled = fig2_graph();
        filled.content_fingerprint();
        let empty = fig2_graph();
        assert!(empty.memo.fingerprint.get().is_none());
        assert_eq!(filled, empty);
        assert_eq!(empty, filled);
        assert_ne!(filled, Csr::empty(5));
    }
}
