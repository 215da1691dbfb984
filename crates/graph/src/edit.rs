//! Edge-batch mutation of CSR graphs.
//!
//! The serving layer mutates graphs (edge inserts and deletes) and wants
//! to *repair* the existing coloring instead of recoloring from scratch,
//! so [`Csr::apply_edits`] applies a batch of undirected edits and
//! reports exactly the **touched vertices** — the endpoints whose
//! adjacency actually changed — which is the dirty set the repair engine
//! consumes.
//!
//! The edit is a **sorted merge**, linear in the graph and free of
//! per-row allocations: the batch is expanded to directed `(row, col)`
//! ops and sorted; the last op on each pair decides its final state,
//! which is a net change only if a binary search of the original row
//! disagrees. The new `R` is the old one shifted by a running size delta,
//! and the new `C` bulk-copies every untouched span and merges each
//! touched row with its sorted changes. [`Csr::with_edits`] builds from
//! the borrowed graph without cloning it. The binary search needs each
//! named row sorted and duplicate-free; a batch naming a row that is not
//! (possible only for a hand-written CSR) is rejected with
//! [`EditError::UnsortedRow`] rather than merged wrongly.
//!
//! The mutation is **fingerprint-stable**: the rebuilt CSR is
//! byte-identical to building a fresh graph from the post-edit edge set
//! with [`crate::builder::CsrBuilder`] (sorted, duplicate-free,
//! symmetric adjacency, same `R`/`C` layout), so
//! [`Csr::content_fingerprint`] — the service cache key — agrees no
//! matter whether a graph arrived at its edge set by construction or by
//! edits. The proptests in `tests/proptests.rs` pin this equivalence,
//! and pin the merge byte for byte against a per-row set-rebuild oracle.

use crate::csr::{Csr, CsrError, VertexId};
use std::fmt;

/// One undirected edge edit. Both directions of the edge are affected:
/// inserting `(u, v)` stores `v` in `u`'s adjacency *and* `u` in `v`'s,
/// preserving the symmetric-CSR invariant every scheme relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeEdit {
    /// Add the undirected edge `{u, v}`. Inserting an edge that already
    /// exists is a no-op (and touches neither endpoint).
    Insert(VertexId, VertexId),
    /// Remove the undirected edge `{u, v}`. Deleting a missing edge is a
    /// no-op (and touches neither endpoint).
    Delete(VertexId, VertexId),
}

impl EdgeEdit {
    /// The edit's endpoints, in the order given.
    pub fn endpoints(&self) -> (VertexId, VertexId) {
        match *self {
            EdgeEdit::Insert(u, v) | EdgeEdit::Delete(u, v) => (u, v),
        }
    }
}

/// Why an edit batch was rejected. Validation happens before any
/// mutation, so a rejected batch leaves the graph untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditError {
    /// An endpoint was `>= num_vertices` (edits cannot grow the vertex
    /// set; size the graph up front).
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: VertexId,
        /// The graph's vertex count.
        n: usize,
    },
    /// Both endpoints were the same vertex; the CSR invariants exclude
    /// self-loops.
    SelfLoop(VertexId),
    /// The adjacency row of a vertex the batch names is not sorted and
    /// duplicate-free, so edge presence cannot be decided by binary
    /// search. Builder- and ingest-produced graphs never hit this; a
    /// hand-written CSR (such as an inline graph sent to the server) can.
    UnsortedRow(VertexId),
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::VertexOutOfRange { vertex, n } => {
                write!(f, "edit endpoint {vertex} out of range (n = {n})")
            }
            EditError::SelfLoop(v) => write!(f, "self-loop edit on vertex {v}"),
            EditError::UnsortedRow(v) => {
                write!(
                    f,
                    "adjacency of vertex {v} is not sorted and duplicate-free"
                )
            }
        }
    }
}

impl std::error::Error for EditError {}

impl Csr {
    /// Applies a batch of undirected edge edits in order and returns the
    /// **touched vertices** (ascending, duplicate-free): the endpoints
    /// whose adjacency actually changed. Redundant edits — inserting a
    /// present edge, deleting an absent one, or an insert/delete pair
    /// that cancels out within the batch — touch nothing.
    ///
    /// The whole batch is validated first; on [`EditError`] the graph is
    /// left untouched. The rebuilt CSR keeps every structural invariant
    /// (sorted unique symmetric adjacency) and is byte-identical to a
    /// fresh [`crate::builder::CsrBuilder`] build of the post-edit edge
    /// set, so content fingerprints are path-independent.
    ///
    /// Every row the batch names must be sorted and duplicate-free, as
    /// in every builder- or ingest-produced graph, because presence is
    /// decided by binary search. Each named row is checked once, and a
    /// row that fails rejects the batch with [`EditError::UnsortedRow`].
    pub fn apply_edits(&mut self, edits: &[EdgeEdit]) -> Result<Vec<VertexId>, EditError> {
        Ok(match self.edited(edits)? {
            Some((g, touched)) => {
                *self = g;
                touched
            }
            None => Vec::new(),
        })
    }

    /// Non-mutating variant of [`Csr::apply_edits`]: returns the edited
    /// graph and its touched-vertex set, built from the borrowed graph
    /// (a batch with no net change returns a clone).
    pub fn with_edits(&self, edits: &[EdgeEdit]) -> Result<(Csr, Vec<VertexId>), EditError> {
        Ok(self
            .edited(edits)?
            .unwrap_or_else(|| (self.clone(), Vec::new())))
    }

    /// Validates `edits`, then builds the edited graph in one linear
    /// pass: `None` when the batch has no net change.
    fn edited(&self, edits: &[EdgeEdit]) -> Result<Option<(Csr, Vec<VertexId>)>, EditError> {
        let n = self.num_vertices();
        for e in edits {
            let (u, v) = e.endpoints();
            for w in [u, v] {
                if w as usize >= n {
                    return Err(EditError::VertexOutOfRange { vertex: w, n });
                }
            }
            if u == v {
                return Err(EditError::SelfLoop(u));
            }
        }

        // Both orientations of every edit as (row, col, batch index,
        // insert); sorting groups each directed pair with its ops in batch
        // order, so the last op of a group decides the pair's final state.
        let mut ops: Vec<(VertexId, VertexId, usize, bool)> = Vec::with_capacity(2 * edits.len());
        for (i, e) in edits.iter().enumerate() {
            let (u, v) = e.endpoints();
            let insert = matches!(e, EdgeEdit::Insert(..));
            ops.push((u, v, i, insert));
            ops.push((v, u, i, insert));
        }
        ops.sort_unstable();

        // Net changes, ascending by (row, col): a pair changes only when
        // its final state differs from the original row. Each named row is
        // checked to be sorted and duplicate-free before its first search.
        let mut changes: Vec<(VertexId, VertexId, bool)> = Vec::new();
        let mut inserts = 0usize;
        let mut checked = None;
        for pair_ops in ops.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (row, col, _, insert) = pair_ops[pair_ops.len() - 1];
            if checked != Some(row) {
                if !self.neighbors(row).windows(2).all(|w| w[0] < w[1]) {
                    return Err(EditError::UnsortedRow(row));
                }
                checked = Some(row);
            }
            if insert != self.neighbors(row).binary_search(&col).is_ok() {
                inserts += insert as usize;
                changes.push((row, col, insert));
            }
        }
        if changes.is_empty() {
            return Ok(None);
        }
        let mut touched: Vec<VertexId> = changes.iter().map(|&(row, _, _)| row).collect();
        touched.dedup();

        // Untouched spans are bulk-copied with their offsets shifted by
        // the running size delta; each touched row is merged with its
        // sorted changes. The result is exactly what a fresh build of the
        // post-edit edge set would produce.
        let (r, c) = (self.row_offsets(), self.col_indices());
        let deletes = changes.len() - inserts;
        let mut new_r: Vec<u32> = Vec::with_capacity(n + 1);
        let mut new_c: Vec<VertexId> = Vec::with_capacity(c.len() + inserts - deletes);
        let shift = |delta: i64| move |&o: &u32| (o as i64 + delta) as u32;
        let mut delta = 0i64;
        let mut next = 0usize;
        for row_changes in changes.chunk_by(|a, b| a.0 == b.0) {
            let row = row_changes[0].0 as usize;
            new_r.extend(r[next..=row].iter().map(shift(delta)));
            new_c.extend_from_slice(&c[r[next] as usize..r[row] as usize]);
            let old = self.neighbors(row as VertexId);
            let mut i = 0;
            for &(_, col, insert) in row_changes {
                let at = i + old[i..].partition_point(|&w| w < col);
                new_c.extend_from_slice(&old[i..at]);
                if insert {
                    new_c.push(col);
                    i = at;
                } else {
                    i = at + 1;
                }
            }
            new_c.extend_from_slice(&old[i..]);
            delta = new_c.len() as i64 - r[row + 1] as i64;
            next = row + 1;
        }
        new_r.extend(r[next..].iter().map(shift(delta)));
        new_c.extend_from_slice(&c[r[next] as usize..]);
        let g = Csr::try_new(new_r, new_c)
            .unwrap_or_else(|e: CsrError| unreachable!("apply_edits produced an invalid CSR: {e}"));
        Ok(Some((g, touched)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 5-vertex example of the paper's Fig. 2.
    fn fig2_graph() -> Csr {
        Csr::new(
            vec![0, 2, 6, 9, 11, 14],
            vec![1, 2, 0, 2, 3, 4, 0, 1, 4, 1, 4, 1, 2, 3],
        )
    }

    #[test]
    fn insert_adds_both_directions_and_reports_endpoints() {
        let mut g = fig2_graph();
        let touched = g.apply_edits(&[EdgeEdit::Insert(0, 3)]).unwrap();
        assert_eq!(touched, vec![0, 3]);
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.neighbors(3), &[0, 1, 4]);
        assert_eq!(g.num_edges(), 16);
        g.validate().unwrap();
        assert!(g.is_symmetric());
        assert!(g.has_sorted_unique_neighbors());
    }

    #[test]
    fn delete_removes_both_directions() {
        let mut g = fig2_graph();
        let touched = g.apply_edits(&[EdgeEdit::Delete(1, 4)]).unwrap();
        assert_eq!(touched, vec![1, 4]);
        assert_eq!(g.neighbors(1), &[0, 2, 3]);
        assert_eq!(g.neighbors(4), &[2, 3]);
        assert_eq!(g.num_edges(), 12);
        assert!(g.is_symmetric());
    }

    #[test]
    fn redundant_edits_touch_nothing() {
        let mut g = fig2_graph();
        let before = g.clone();
        // Present insert, absent delete, and an insert/delete pair that
        // cancels inside the batch.
        let touched = g
            .apply_edits(&[
                EdgeEdit::Insert(0, 1),
                EdgeEdit::Delete(0, 3),
                EdgeEdit::Insert(2, 3),
                EdgeEdit::Delete(2, 3),
            ])
            .unwrap();
        assert!(touched.is_empty());
        assert_eq!(g, before);
        assert_eq!(g.content_fingerprint(), before.content_fingerprint());
    }

    #[test]
    fn batch_order_matters_delete_then_insert_touches() {
        let mut g = fig2_graph();
        // Delete an existing edge then re-insert it: net no-op.
        let touched = g
            .apply_edits(&[EdgeEdit::Delete(0, 1), EdgeEdit::Insert(0, 1)])
            .unwrap();
        assert!(touched.is_empty());
        assert_eq!(g, fig2_graph());
    }

    #[test]
    fn rejected_batches_leave_the_graph_untouched() {
        let mut g = fig2_graph();
        let before = g.clone();
        assert_eq!(
            g.apply_edits(&[EdgeEdit::Insert(0, 2), EdgeEdit::Insert(1, 9)]),
            Err(EditError::VertexOutOfRange { vertex: 9, n: 5 })
        );
        assert_eq!(
            g.apply_edits(&[EdgeEdit::Delete(3, 3)]),
            Err(EditError::SelfLoop(3))
        );
        assert_eq!(g, before);
    }

    #[test]
    fn unsorted_or_duplicate_named_rows_are_rejected() {
        // Row 0 is [2, 1]: binary search cannot find 1 in it, so merging
        // would drop the wrong neighbour.
        let mut g = Csr::new(vec![0, 2, 3, 4], vec![2, 1, 0, 0]);
        let before = g.clone();
        assert_eq!(
            g.apply_edits(&[EdgeEdit::Delete(0, 1)]),
            Err(EditError::UnsortedRow(0))
        );
        assert_eq!(g, before);
        // A duplicate neighbour is rejected the same way, whichever
        // endpoint names the row.
        let dup = Csr::new(vec![0, 2, 2, 4], vec![2, 2, 0, 0]);
        assert_eq!(
            dup.with_edits(&[EdgeEdit::Insert(1, 0)]),
            Err(EditError::UnsortedRow(0))
        );
        // Rows the batch does not name are copied as they are.
        let (h, touched) = before.with_edits(&[EdgeEdit::Insert(1, 2)]).unwrap();
        assert_eq!(touched, vec![1, 2]);
        assert_eq!(h.neighbors(0), &[2, 1]);
    }

    #[test]
    fn edits_match_a_fresh_build() {
        use crate::builder::from_undirected_edges;
        let mut g = fig2_graph();
        g.apply_edits(&[EdgeEdit::Insert(0, 4), EdgeEdit::Delete(1, 2)])
            .unwrap();
        let fresh = from_undirected_edges(5, g.edges().filter(|(u, v)| u < v));
        assert_eq!(g, fresh);
        assert_eq!(g.content_fingerprint(), fresh.content_fingerprint());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut g = fig2_graph();
        assert_eq!(g.apply_edits(&[]), Ok(vec![]));
        let (h, touched) = g.with_edits(&[]).unwrap();
        assert!(touched.is_empty());
        assert_eq!(h, g);
    }
}
