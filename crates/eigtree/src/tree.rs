//! The Information Gathering Tree without repetitions (paper §3, Fig. 1).
//!
//! `tree_p(s·q⋯r)` holds "the value that r says q says … the source said".
//! Levels are stored as flat value vectors in the canonical order defined
//! by [`crate::Shape`], so appending a level from a round's messages is a
//! single linear pass over the shared [`LabelTable`] and a round-`h`
//! broadcast is just a copy of the deepest level.

use std::sync::Arc;

use sg_sim::{ProcessId, ProcessSet, Value};

use crate::shape::{LabelTable, Shape};

/// One processor's information-gathering tree.
///
/// # Examples
///
/// Build the 2-round tree of a 4-processor system by hand:
///
/// ```
/// use sg_eigtree::IgTree;
/// use sg_sim::{ProcessId, Value};
///
/// let mut tree = IgTree::new(4, ProcessId(0));
/// tree.set_root(Value(1));
/// // In round 2, every non-source processor echoes the root it stored.
/// tree.append_level(|_parent, _sender| Value(1));
/// assert_eq!(tree.root(), Value(1));
/// assert_eq!(tree.deepest_level(), 1);
/// assert_eq!(tree.level(1), &[Value(1), Value(1), Value(1)]);
/// ```
#[derive(Clone, Debug)]
pub struct IgTree {
    shape: Shape,
    /// The process-wide label table of `shape`.
    labels: Arc<LabelTable>,
    /// Level buffers: the first `depth` are the stored levels, the rest
    /// are kept (at most [`RECYCLE_CAP`] values each) for the levels
    /// stored next.
    levels: Vec<Vec<Value>>,
    depth: usize,
}

/// The largest level buffer (in values) a tree keeps for reuse: 512
/// bytes, room for the root and the `n − 1` echoes — all an early-stopped
/// run stores — at any `n ≤ 257`. Deeper levels are dropped as before.
const RECYCLE_CAP: usize = 256;

/// Trees are equal when they have the same shape and store the same
/// values; the label table is a function of the shape.
impl PartialEq for IgTree {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.stored() == other.stored()
    }
}

impl Eq for IgTree {}

impl IgTree {
    /// An empty tree (no levels stored yet) for `n` processors and the
    /// given source.
    pub fn new(n: usize, source: ProcessId) -> Self {
        let shape = Shape::new(n, source);
        IgTree {
            shape,
            labels: LabelTable::shared(shape),
            levels: Vec::new(),
            depth: 0,
        }
    }

    /// The stored levels, root first.
    fn stored(&self) -> &[Vec<Value>] {
        &self.levels[..self.depth]
    }

    /// The tree's shape arithmetic.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The last labels of level `k` in canonical order (see
    /// [`LabelTable::level`]).
    pub(crate) fn labels(&self, k: usize) -> &[u8] {
        self.labels.level(k)
    }

    /// Restores the tree to its just-constructed (empty) state for `n`
    /// processors and `source`.
    ///
    /// Level buffers of at most `RECYCLE_CAP` values are kept for the next
    /// run: a run the echo rule ends at round 2 stores only the root and
    /// `n − 1` echoes, and allocating those two was a measurable share of
    /// it. Larger levels are dropped — on a full schedule allocating them
    /// at exact capacity measured no slower than recycling, and a pooled
    /// instance must not pin its deepest level between runs. The handle on
    /// the shared label table is kept while the shape is unchanged.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`IgTree::new`].
    pub fn reset(&mut self, n: usize, source: ProcessId) {
        let shape = Shape::new(n, source);
        if shape != self.shape {
            self.shape = shape;
            self.labels = LabelTable::shared(shape);
        }
        self.clear_levels();
    }

    /// Empties the tree, keeping its small level buffers where they are
    /// (the next root reuses the old root's) and dropping the rest.
    fn clear_levels(&mut self) {
        self.levels.retain(|level| level.capacity() <= RECYCLE_CAP);
        self.depth = 0;
    }

    /// Stores a new deepest level of `len` default values (over the two
    /// fields, so a caller can hold the label table beside it).
    fn push_level<'a>(
        levels: &'a mut Vec<Vec<Value>>,
        depth: &mut usize,
        len: usize,
    ) -> &'a mut [Value] {
        if *depth == levels.len() {
            levels.push(Vec::new());
        }
        let level = &mut levels[*depth];
        *depth += 1;
        level.clear();
        level.resize(len, Value::DEFAULT);
        level
    }

    /// Stores the root value (`tree(s)`, the preferred value); resets the
    /// tree to a single level.
    pub fn set_root(&mut self, v: Value) {
        self.clear_levels();
        Self::push_level(&mut self.levels, &mut self.depth, 1)[0] = v;
    }

    /// The root value (`tree(s)`).
    ///
    /// # Panics
    ///
    /// Panics if no root has been stored yet.
    pub fn root(&self) -> Value {
        self.stored()[0][0]
    }

    /// The deepest stored level number (0 = only the root).
    ///
    /// # Panics
    ///
    /// Panics if the tree is empty.
    pub fn deepest_level(&self) -> usize {
        assert!(self.depth > 0, "tree has no levels");
        self.depth - 1
    }

    /// Whether any level has been stored.
    pub fn is_initialized(&self) -> bool {
        self.depth > 0
    }

    /// The values of level `k` in canonical order.
    pub fn level(&self, k: usize) -> &[Value] {
        &self.stored()[k]
    }

    /// Total stored nodes across all levels.
    pub fn node_count(&self) -> u64 {
        self.stored().iter().map(|l| l.len() as u64).sum()
    }

    /// Appends the next level from a round's messages.
    ///
    /// `value_for(parent_index, sender)` must return the (already
    /// sanitized and fault-masked) value that `sender` claims for the
    /// node at `(deepest_level, parent_index)`; for `sender == me` the
    /// caller should return its own stored value for that node, matching
    /// the convention that a processor relays to itself truthfully.
    ///
    /// Returns the number of values stored (the local-work charge).
    ///
    /// # Panics
    ///
    /// Panics if no root has been stored yet, or if the deepest level is
    /// already `n−1` (every name is used up; there is no further level).
    pub fn append_level<F>(&mut self, mut value_for: F) -> u64
    where
        F: FnMut(usize, ProcessId) -> Value,
    {
        let k = self.deepest_level();
        assert!(k + 1 < self.shape.n(), "level {k} is the tree's last");
        let width = self.shape.children_per_node(k);
        let senders = self.labels.level(k + 1);
        let blocks = Self::push_level(&mut self.levels, &mut self.depth, senders.len())
            .chunks_exact_mut(width)
            .zip(senders.chunks_exact(width));
        for (parent_idx, (slots, block)) in blocks.enumerate() {
            for (slot, &sender) in slots.iter_mut().zip(block) {
                *slot = value_for(parent_idx, ProcessId(sender as usize));
            }
        }
        senders.len() as u64
    }

    /// Zeroes every entry of level `k` whose node's *last* label is in
    /// `senders` — the Fault Masking Rule applied to the round in which
    /// those processors were discovered (their current-round messages are
    /// replaced by all-default messages; earlier levels are untouched).
    ///
    /// Returns the local-work charge.
    pub fn mask_level(&mut self, k: usize, senders: &ProcessSet) -> u64 {
        if senders.is_empty() || k == 0 {
            return 0;
        }
        assert!(k < self.depth, "level {k} is not stored");
        let level = &mut self.levels[k];
        for (value, &label) in level.iter_mut().zip(self.labels.level(k)) {
            if senders.contains(ProcessId(label as usize)) {
                *value = Value::DEFAULT;
            }
        }
        level.len() as u64
    }

    /// The value stored at the node with the given label path, if within
    /// the stored levels and structurally valid.
    pub fn value_at(&self, path: &[ProcessId]) -> Option<Value> {
        let level = self.stored().get(path.len())?;
        Some(level[self.shape.index_of(path)?])
    }

    /// Collapses the tree to a single root holding `v` — the data-shrink
    /// half of the paper's `shift_{k→1}` operator.
    pub fn shrink_to_root(&mut self, v: Value) {
        self.set_root(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(n: usize) -> IgTree {
        let mut t = IgTree::new(n, ProcessId(0));
        t.set_root(Value(1));
        t
    }

    #[test]
    fn append_level_sizes_follow_shape() {
        let mut t = fresh(5);
        assert_eq!(t.append_level(|_, _| Value(1)), 4);
        assert_eq!(t.append_level(|_, _| Value(0)), 12);
        assert_eq!(t.deepest_level(), 2);
        assert_eq!(t.node_count(), 17);
    }

    #[test]
    fn append_level_passes_parent_and_sender() {
        let mut t = fresh(4);
        // Level 1: parent is the root (index 0), senders 1, 2, 3.
        let mut seen = Vec::new();
        t.append_level(|p, q| {
            seen.push((p, q));
            Value(q.index() as u16)
        });
        assert_eq!(
            seen,
            vec![(0, ProcessId(1)), (0, ProcessId(2)), (0, ProcessId(3))]
        );
        assert_eq!(t.value_at(&[ProcessId(2)]), Some(Value(2)));
    }

    #[test]
    fn mask_level_zeroes_only_matching_senders() {
        let mut t = fresh(4);
        t.append_level(|_, q| Value(q.index() as u16));
        let masked = ProcessSet::from_members(4, [ProcessId(2)]);
        t.mask_level(1, &masked);
        assert_eq!(t.value_at(&[ProcessId(1)]), Some(Value(1)));
        assert_eq!(t.value_at(&[ProcessId(2)]), Some(Value(0)));
        assert_eq!(t.value_at(&[ProcessId(3)]), Some(Value(3)));
    }

    #[test]
    fn mask_deeper_level_targets_last_label() {
        let mut t = fresh(4);
        t.append_level(|_, _| Value(1));
        t.append_level(|_, _| Value(1));
        let masked = ProcessSet::from_members(4, [ProcessId(3)]);
        t.mask_level(2, &masked);
        // Nodes ending in P3 are zeroed; P3's earlier level-1 entry is not.
        assert_eq!(t.value_at(&[ProcessId(3)]), Some(Value(1)));
        assert_eq!(t.value_at(&[ProcessId(1), ProcessId(3)]), Some(Value(0)));
        assert_eq!(t.value_at(&[ProcessId(1), ProcessId(2)]), Some(Value(1)));
    }

    #[test]
    fn shrink_to_root_resets_depth() {
        let mut t = fresh(5);
        t.append_level(|_, _| Value(1));
        t.shrink_to_root(Value(0));
        assert_eq!(t.deepest_level(), 0);
        assert_eq!(t.root(), Value(0));
    }

    #[test]
    fn value_at_checks_depth_and_validity() {
        let mut t = fresh(4);
        t.append_level(|_, _| Value(1));
        assert_eq!(t.value_at(&[]), Some(Value(1)));
        assert_eq!(t.value_at(&[ProcessId(1), ProcessId(2)]), None); // too deep
        assert_eq!(t.value_at(&[ProcessId(0)]), None); // source label invalid
    }
}
