//! Shape arithmetic for information-gathering trees **without repetitions**
//! (paper §3, Fig. 1).
//!
//! Every correct processor's round-`h` tree has the same shape: the root is
//! the source `s`; an internal node `α` has one child per processor name
//! not appearing in `α` (so no label repeats along any root-to-leaf path).
//! Because the shape is common knowledge, nodes can be identified by dense
//! per-level indices and messages can be flat value vectors in canonical
//! order.
//!
//! **Canonical order.** Children of a node are ordered by ascending
//! processor id; levels are enumerated depth-first under that order, which
//! makes the children of the node at level `k`, index `i` exactly the
//! contiguous block `[i·w, (i+1)·w)` of level `k+1`, where
//! `w = n−1−k` is the per-node child count at level `k`.
//!
//! **Two views of the same order.** [`Shape`] is pure arithmetic: sizes,
//! parent/children index ranges, and the per-node decoders
//! [`Shape::path`] / [`Shape::index_of`] (O(k·n) each — for rendering,
//! diagnostics and as the independent oracle the tests hold the table
//! to). [`LabelTable`] is the bulk view the hot loops read: for every
//! level, the *last label* of every node, laid out in canonical order, so
//! "the processor a node blames" is `level(k)[i]` and "the senders of a
//! node's children" is `level(k+1)[i·w .. (i+1)·w]` — one byte load each.
//! The table is the crate's only enumeration of the tree; it is built once
//! per `(n, source)` per process and shared by every tree of that shape.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use sg_sim::ProcessId;

/// Shape of the no-repetition information-gathering tree for a system of
/// `n` processors with a distinguished source.
///
/// Levels are numbered from 0: level 0 is the root (the sequence "s"),
/// level `k` holds all sequences `s·p₁⋯p_k` of distinct non-source names.
///
/// # Examples
///
/// ```
/// use sg_eigtree::Shape;
/// use sg_sim::ProcessId;
///
/// let shape = Shape::new(5, ProcessId(0));
/// assert_eq!(shape.level_size(0), 1);
/// assert_eq!(shape.level_size(1), 4);      // 4 non-source children
/// assert_eq!(shape.level_size(2), 4 * 3);
/// assert_eq!(shape.children_per_node(1), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Shape {
    n: usize,
    source: ProcessId,
}

impl Shape {
    /// Creates the shape for `n` processors with the given source.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or the source index is out of range.
    pub fn new(n: usize, source: ProcessId) -> Self {
        assert!(n >= 2, "need at least two processors");
        assert!(source.index() < n, "source out of range");
        Shape { n, source }
    }

    /// System size.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The source processor labelling the root.
    #[inline]
    pub fn source(&self) -> ProcessId {
        self.source
    }

    /// Number of children of each node at level `k`: `n−1−k`.
    ///
    /// The paper notes an internal node `α` has `n−|α| ≥ 2t+1` children;
    /// with `|α| = k+1` names (including `s`) that is `n−1−k`.
    #[inline]
    pub fn children_per_node(&self, k: usize) -> usize {
        debug_assert!(k < self.n - 1, "level {k} has no children (n={})", self.n);
        self.n - 1 - k
    }

    /// Number of nodes at level `k`: `(n−1)(n−2)⋯(n−k)`.
    pub fn level_size(&self, k: usize) -> usize {
        let mut size = 1usize;
        for j in 1..=k {
            size *= self.n - j;
        }
        size
    }

    /// Parent index (at level `k−1`) of node `i` at level `k ≥ 1`.
    #[inline]
    pub fn parent(&self, k: usize, i: usize) -> usize {
        debug_assert!(k >= 1);
        i / (self.n - k)
    }

    /// The contiguous index range of the children (at level `k+1`) of node
    /// `i` at level `k`.
    #[inline]
    pub fn children_range(&self, k: usize, i: usize) -> std::ops::Range<usize> {
        let w = self.children_per_node(k);
        i * w..(i + 1) * w
    }

    /// Decodes the label path (names after `s`) of node `i` at level `k`.
    ///
    /// O(k·n); bulk passes read the [`LabelTable`] instead.
    pub fn path(&self, k: usize, i: usize) -> Vec<ProcessId> {
        // Collect the slot of each ancestor bottom-up, then decode
        // top-down against the running set of used names.
        let mut slots = vec![0usize; k];
        let mut idx = i;
        for depth in (1..=k).rev() {
            slots[depth - 1] = idx % (self.n - depth);
            idx /= self.n - depth;
        }
        let mut used = vec![false; self.n];
        used[self.source.index()] = true;
        let mut path = Vec::with_capacity(k);
        for &slot in &slots {
            let label = self.nth_unused(&used, slot);
            used[label.index()] = true;
            path.push(label);
        }
        path
    }

    /// The index at level `path.len()` of the node with the given label
    /// path, or `None` if the path repeats a name or uses the source.
    pub fn index_of(&self, path: &[ProcessId]) -> Option<usize> {
        let mut used = vec![false; self.n];
        used[self.source.index()] = true;
        let mut idx = 0usize;
        for (depth, &label) in path.iter().enumerate() {
            if used[label.index()] {
                return None;
            }
            let rank = used[..label.index()].iter().filter(|&&u| !u).count();
            idx = idx * (self.n - 1 - depth) + rank;
            used[label.index()] = true;
        }
        Some(idx)
    }

    /// The labels of the children of a node with the given path, in
    /// canonical (ascending id) order.
    pub fn child_labels(&self, path: &[ProcessId]) -> Vec<ProcessId> {
        let mut used = vec![false; self.n];
        used[self.source.index()] = true;
        for &p in path {
            used[p.index()] = true;
        }
        (0..self.n).filter(|&i| !used[i]).map(ProcessId).collect()
    }

    fn nth_unused(&self, used: &[bool], rank: usize) -> ProcessId {
        let mut seen = 0usize;
        for (i, &u) in used.iter().enumerate() {
            if !u {
                if seen == rank {
                    return ProcessId(i);
                }
                seen += 1;
            }
        }
        panic!("rank {rank} out of range");
    }
}

/// The last label of every node of the tree, level by level, in canonical
/// order — the shape as data.
///
/// One table exists per `(n, source)` per process ([`LabelTable::shared`]);
/// its levels are built on first use and never change, so any number of
/// trees on any number of threads read the same bytes.
///
/// # Examples
///
/// ```
/// use sg_eigtree::{LabelTable, Shape};
/// use sg_sim::ProcessId;
///
/// let table = LabelTable::shared(Shape::new(4, ProcessId(0)));
/// assert_eq!(table.level(0), &[0]);          // the root is the source
/// assert_eq!(table.level(1), &[1, 2, 3]);
/// // Children of s·P1 are P2, P3; of s·P2: P1, P3; of s·P3: P1, P2.
/// assert_eq!(table.level(2), &[2, 3, 1, 3, 1, 2]);
/// ```
#[derive(Debug)]
pub struct LabelTable {
    shape: Shape,
    /// Slot `k` holds level `k` once some tree has needed it.
    levels: Vec<OnceLock<Box<[u8]>>>,
}

/// Every table handed out so far. Entries are never removed: a table is
/// at most half the size of one tree of its shape and depth.
static TABLES: Mutex<BTreeMap<Shape, Arc<LabelTable>>> = Mutex::new(BTreeMap::new());

impl LabelTable {
    /// The process-wide table for `shape`.
    pub fn shared(shape: Shape) -> Arc<LabelTable> {
        let mut tables = TABLES
            .lock()
            .expect("no code path panics while holding the table registry");
        Arc::clone(tables.entry(shape).or_insert_with(|| {
            Arc::new(LabelTable {
                shape,
                levels: (0..shape.n).map(|_| OnceLock::new()).collect(),
            })
        }))
    }

    /// The last label (a processor index) of every node of level `k`, in
    /// canonical order; level 0 is the source alone.
    ///
    /// # Panics
    ///
    /// Panics if `k ≥ n` (no such level), or if `n > 256` (labels are
    /// stored as bytes; a no-repetition tree that wide is out of reach
    /// anyway).
    pub fn level(&self, k: usize) -> &[u8] {
        self.levels[k].get_or_init(|| self.build_level(k))
    }

    /// Depth-first walk over the ascending-id label paths of length `k`,
    /// emitting each path's last label — the definition of canonical
    /// order, executed once per level per process.
    fn build_level(&self, k: usize) -> Box<[u8]> {
        fn walk(used: &mut [bool], remaining: usize, last: u8, out: &mut Vec<u8>) {
            if remaining == 0 {
                out.push(last);
                return;
            }
            for q in 0..used.len() {
                if !used[q] {
                    used[q] = true;
                    walk(used, remaining - 1, q as u8, out);
                    used[q] = false;
                }
            }
        }
        let Shape { n, source } = self.shape;
        assert!(n <= 256, "label tables store processor indices as bytes");
        let mut used = vec![false; n];
        used[source.index()] = true;
        let mut out = Vec::with_capacity(self.shape.level_size(k));
        walk(&mut used, k, source.index() as u8, &mut out);
        out.into_boxed_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> Shape {
        Shape::new(5, ProcessId(0))
    }

    #[test]
    fn level_sizes_are_falling_factorials() {
        let s = shape();
        assert_eq!(s.level_size(0), 1);
        assert_eq!(s.level_size(1), 4);
        assert_eq!(s.level_size(2), 12);
        assert_eq!(s.level_size(3), 24);
    }

    #[test]
    fn path_and_index_roundtrip() {
        let s = shape();
        for k in 0..=3 {
            for i in 0..s.level_size(k) {
                let path = s.path(k, i);
                assert_eq!(path.len(), k);
                assert_eq!(s.index_of(&path), Some(i), "level {k} index {i}");
            }
        }
    }

    #[test]
    fn paths_have_no_repetitions_and_exclude_source() {
        let s = shape();
        for i in 0..s.level_size(3) {
            let path = s.path(3, i);
            let mut seen = std::collections::HashSet::new();
            for &p in &path {
                assert_ne!(p, s.source());
                assert!(seen.insert(p), "repeated label in {path:?}");
            }
        }
    }

    #[test]
    fn children_are_contiguous_and_labelled_consistently() {
        let s = shape();
        for i in 0..s.level_size(1) {
            let path = s.path(1, i);
            let labels = s.child_labels(&path);
            let range = s.children_range(1, i);
            assert_eq!(labels.len(), range.len());
            for (offset, &label) in labels.iter().enumerate() {
                let child_idx = range.start + offset;
                let mut child_path = path.clone();
                child_path.push(label);
                assert_eq!(s.path(2, child_idx), child_path);
                assert_eq!(s.parent(2, child_idx), i);
            }
        }
    }

    #[test]
    fn index_of_rejects_bad_paths() {
        let s = shape();
        // Repeats a label.
        assert_eq!(s.index_of(&[ProcessId(1), ProcessId(1)]), None);
        // Uses the source.
        assert_eq!(s.index_of(&[ProcessId(0)]), None);
    }

    #[test]
    fn label_table_matches_decode() {
        let s = shape();
        let table = LabelTable::shared(s);
        for k in 0..=3 {
            let labels = table.level(k);
            assert_eq!(labels.len(), s.level_size(k));
            for (i, &label) in labels.iter().enumerate() {
                // The node's processor: its path's last label, or the
                // source at the root.
                let last = s.path(k, i).last().copied().unwrap_or(s.source());
                assert_eq!(ProcessId(label as usize), last);
            }
        }
        assert!(Arc::ptr_eq(&table, &LabelTable::shared(s)));
    }

    #[test]
    fn nonzero_source_shapes_work() {
        let s = Shape::new(4, ProcessId(2));
        for i in 0..s.level_size(2) {
            let path = s.path(2, i);
            assert!(!path.contains(&ProcessId(2)));
            assert_eq!(s.index_of(&path), Some(i));
        }
    }
}
