//! The Information Gathering Tree **with repetitions** used by
//! Algorithm C (paper §4.3).
//!
//! Every internal node has exactly `n` children, one per processor name
//! (repetitions allowed), and the tree never grows beyond three levels:
//!
//! * level 0 — the root `s` (the preferred value);
//! * level 1 — the *intermediate vertices* `sq`, one per processor;
//! * level 2 — leaves `sqr`, stored transiently each round and folded back
//!   into the intermediate level by `shift_{3→2}`.
//!
//! After each gather the leaves are **reordered** by swapping
//! `tree(spq) ↔ tree(sqp)` — a transpose — so that the subtree under `sq`
//! holds exactly the vector received from `q`; conversion then sets
//! `tree(sq) = resolve(sq)`, a majority over that vector.

use sg_sim::{ProcessId, ProcessSet, Value};

use crate::discovery::DiscoveryReport;
use crate::fault_list::FaultList;
use crate::resolve::strict_majority;

/// One processor's three-level tree-with-repetitions.
///
/// # Examples
///
/// ```
/// use sg_eigtree::RepTree;
/// use sg_sim::{ProcessId, Value};
///
/// let mut tree = RepTree::new(4, ProcessId(0));
/// tree.set_root(Value(1));
/// // Round 2: everyone echoed the root.
/// tree.store_intermediates(|_q| Value(1));
/// assert_eq!(tree.preferred(), Value(1));
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RepTree {
    n: usize,
    source: ProcessId,
    root: Value,
    /// `tree(sq)` indexed by `q`; empty until round 2 stores it.
    intermediates: Vec<Value>,
    /// The `n×n` leaf matrix, row-major: entry `w·n + r` is the value `r`
    /// claims for intermediate vertex `sw` (before reordering). Empty when
    /// no leaf level is stored; the buffer itself is kept across rounds
    /// and runs.
    leaves: Vec<Value>,
}

impl RepTree {
    /// An empty tree for `n` processors with the given source.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or the source index is out of range.
    pub fn new(n: usize, source: ProcessId) -> Self {
        assert!(n >= 2, "need at least two processors");
        assert!(source.index() < n, "source out of range");
        RepTree {
            n,
            source,
            root: Value::DEFAULT,
            intermediates: Vec::new(),
            leaves: Vec::new(),
        }
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Restores the tree to its just-constructed state for `n` processors
    /// and `source` (used by pooled protocol instances), keeping the
    /// intermediate and leaf buffers for the next run.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`RepTree::new`].
    pub fn reset(&mut self, n: usize, source: ProcessId) {
        assert!(n >= 2, "need at least two processors");
        assert!(source.index() < n, "source out of range");
        self.n = n;
        self.source = source;
        self.set_root(Value::DEFAULT);
    }

    /// Stores the root (`tree(s)`), clearing deeper levels — also the
    /// entry point when the hybrid shifts into Algorithm C's round 1.
    pub fn set_root(&mut self, v: Value) {
        self.root = v;
        self.intermediates.clear();
        self.leaves.clear();
    }

    /// The root value.
    pub fn root(&self) -> Value {
        self.root
    }

    /// Whether the intermediate level exists yet (after round 2).
    pub fn has_intermediates(&self) -> bool {
        !self.intermediates.is_empty()
    }

    /// The intermediate vertex values `tree(sq)`, indexed by `q`.
    ///
    /// # Panics
    ///
    /// Panics before round 2 has stored them.
    pub fn intermediates(&self) -> &[Value] {
        assert!(self.has_intermediates(), "intermediates stored");
        &self.intermediates
    }

    /// Round 2: stores `tree(sq)` for every `q` from the round's
    /// (sanitized, masked) messages. Returns the local-work charge.
    pub fn store_intermediates<F>(&mut self, mut value_for: F) -> u64
    where
        F: FnMut(ProcessId) -> Value,
    {
        self.intermediates.clear();
        self.intermediates
            .extend((0..self.n).map(|q| value_for(ProcessId(q))));
        self.leaves.clear();
        self.n as u64
    }

    /// Rounds ≥ 3: stores the leaf matrix. `value_for(w, r)` must return
    /// the (sanitized, masked) value `r` claims for intermediate vertex
    /// `sw`; for `r == me` callers pass their own `tree(sw)`.
    ///
    /// Returns the local-work charge.
    ///
    /// # Panics
    ///
    /// Panics if intermediates have not been stored yet.
    pub fn store_leaves<F>(&mut self, mut value_for: F) -> u64
    where
        F: FnMut(usize, ProcessId) -> Value,
    {
        assert!(self.has_intermediates(), "round 2 must precede leaves");
        let n = self.n;
        self.leaves.clear();
        for w in 0..n {
            self.leaves
                .extend((0..n).map(|r| value_for(w, ProcessId(r))));
        }
        (n * n) as u64
    }

    /// Whether a leaf level is currently stored.
    pub fn has_leaves(&self) -> bool {
        !self.leaves.is_empty()
    }

    /// Row `w` of the leaf matrix (entry `r` is what `r` claims for `sw`
    /// before reordering, what `w` claims for `sr` after), for tests and
    /// diagnostics.
    ///
    /// # Panics
    ///
    /// Panics if no leaves are stored.
    pub fn leaf_row(&self, w: usize) -> &[Value] {
        assert!(self.has_leaves(), "leaves stored");
        &self.leaves[w * self.n..(w + 1) * self.n]
    }

    /// The Fault Discovery Rule applied to the root's fresh children — the
    /// intermediate level just stored in round 2. Can discover the source.
    pub fn discover_root(&self, t: usize, snapshot: &FaultList) -> DiscoveryReport {
        let vals = self.intermediates();
        let mut report = DiscoveryReport {
            ops: self.n as u64,
            ..DiscoveryReport::default()
        };
        if !snapshot.contains(self.source) && node_violates_rep(vals, t, snapshot) {
            report.discovered.push(self.source);
        }
        report
    }

    /// The Fault Discovery Rule applied to the fresh leaf level: node `sw`
    /// blames `w` (the paper's `αr` with `r = w`). Pre-reorder only.
    ///
    /// # Panics
    ///
    /// Panics if no leaves are stored.
    pub fn discover_intermediates(&self, t: usize, snapshot: &FaultList) -> DiscoveryReport {
        assert!(self.has_leaves(), "leaves stored");
        let mut report = DiscoveryReport::default();
        for (w, row) in self.leaves.chunks_exact(self.n).enumerate() {
            report.ops += self.n as u64;
            let wid = ProcessId(w);
            if snapshot.contains(wid) {
                continue;
            }
            if node_violates_rep(row, t, snapshot) {
                report.discovered.push(wid);
            }
        }
        report
    }

    /// Masks the round-2 messages of newly discovered processors: their
    /// intermediate entries become the default value.
    pub fn mask_intermediates(&mut self, newly: &ProcessSet) -> u64 {
        if !self.has_intermediates() {
            return 0;
        }
        for q in newly.iter() {
            self.intermediates[q.index()] = Value::DEFAULT;
        }
        newly.len() as u64
    }

    /// Masks the current round's messages of newly discovered processors:
    /// every leaf received from them becomes the default value.
    pub fn mask_leaves(&mut self, newly: &ProcessSet) -> u64 {
        let mut ops = 0u64;
        for row in self.leaves.chunks_exact_mut(self.n) {
            for r in newly.iter() {
                row[r.index()] = Value::DEFAULT;
                ops += 1;
            }
        }
        ops
    }

    /// Reorders the leaves by swapping `tree(spq) ↔ tree(sqp)` — after
    /// this, row `q` holds exactly the vector received from `q`.
    ///
    /// # Panics
    ///
    /// Panics if no leaves are stored.
    pub fn reorder(&mut self) -> u64 {
        assert!(self.has_leaves(), "leaves stored");
        let n = self.n;
        for p in 0..n {
            for q in (p + 1)..n {
                self.leaves.swap(p * n + q, q * n + p);
            }
        }
        (n * n / 2) as u64
    }

    /// `shift_{3→2}`: sets `tree(sq) = resolve(sq)` for every `q` (a strict
    /// majority over row `q`, default on none) and drops the leaf level.
    ///
    /// # Panics
    ///
    /// Panics if no leaves are stored.
    pub fn convert_to_intermediates(&mut self) -> u64 {
        assert!(self.has_leaves(), "leaves stored");
        self.intermediates.clear();
        self.intermediates.extend(
            self.leaves
                .chunks_exact(self.n)
                .map(|row| strict_majority(row).unwrap_or(Value::DEFAULT)),
        );
        let ops = self.leaves.len() as u64;
        self.leaves.clear();
        ops
    }

    /// The preferred value: `resolve(s)` over the intermediate vertices (a
    /// strict majority, default on none), or the root itself before
    /// round 2.
    pub fn preferred(&self) -> Value {
        if self.has_intermediates() {
            strict_majority(&self.intermediates).unwrap_or(Value::DEFAULT)
        } else {
            self.root
        }
    }

    /// Live node count for space accounting.
    pub fn node_count(&self) -> u64 {
        (1 + self.intermediates.len() + self.leaves.len()) as u64
    }
}

/// Discovery conditions for a with-repetitions node whose children are
/// labelled `0..n` in order.
fn node_violates_rep(children: &[Value], t: usize, snapshot: &FaultList) -> bool {
    match strict_majority(children) {
        None => true,
        Some(m) => {
            let budget = t.saturating_sub(snapshot.len());
            let dissent = children
                .iter()
                .enumerate()
                .filter(|(q, v)| **v != m && !snapshot.contains(ProcessId(*q)))
                .count();
            dissent > budget
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> RepTree {
        let mut t = RepTree::new(4, ProcessId(0));
        t.set_root(Value(1));
        t
    }

    #[test]
    fn preferred_is_root_before_round_2() {
        assert_eq!(tree().preferred(), Value(1));
    }

    #[test]
    fn preferred_is_majority_of_intermediates() {
        let mut t = tree();
        t.store_intermediates(|q| Value(u16::from(q.index() != 3)));
        assert_eq!(t.preferred(), Value(1)); // 3 of 4
        t.store_intermediates(|q| Value(u16::from(q.index() % 2 == 0)));
        assert_eq!(t.preferred(), Value::DEFAULT); // 2-2 tie
    }

    #[test]
    fn reorder_transposes() {
        let mut t = tree();
        t.store_intermediates(|_| Value(1));
        t.store_leaves(|w, r| Value((w * 4 + r.index()) as u16));
        t.reorder();
        for w in 0..4 {
            for r in 0..4 {
                assert_eq!(t.leaf_row(w)[r], Value((r * 4 + w) as u16));
            }
        }
    }

    #[test]
    fn convert_takes_row_majorities() {
        let mut t = tree();
        t.store_intermediates(|_| Value(1));
        // Row w: w=0 unanimous 1; w=1 split 2-2; w=2 majority 0; w=3 unanimous 0.
        let rows = [[1, 1, 1, 1], [1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]];
        t.store_leaves(|w, r| Value(rows[w][r.index()]));
        t.convert_to_intermediates();
        assert_eq!(
            t.intermediates(),
            &[Value(1), Value::DEFAULT, Value(0), Value(0)]
        );
        assert!(!t.has_leaves());
    }

    #[test]
    fn discover_root_blames_source_on_split() {
        let mut t = tree();
        t.store_intermediates(|q| Value(u16::from(q.index() % 2 == 0)));
        let report = t.discover_root(1, &FaultList::new(4));
        assert_eq!(report.discovered, vec![ProcessId(0)]);
    }

    #[test]
    fn discover_intermediates_blames_equivocator() {
        let mut t = tree();
        t.store_intermediates(|_| Value(1));
        // Node s·P2's children split 2-2 -> blame P2; others unanimous.
        t.store_leaves(|w, r| {
            if w == 2 {
                Value(u16::from(r.index() % 2 == 0))
            } else {
                Value(1)
            }
        });
        let report = t.discover_intermediates(1, &FaultList::new(4));
        assert_eq!(report.discovered, vec![ProcessId(2)]);
    }

    #[test]
    fn known_faults_not_rediscovered_and_dissent_excluded() {
        let mut t = tree();
        t.store_intermediates(|_| Value(1));
        let mut l = FaultList::new(4);
        l.insert(ProcessId(3), 2);
        // Node s·P1: single dissent from the known fault P3 -> no discovery
        // (budget is t-|L| = 0, but P3's dissent doesn't count).
        t.store_leaves(|w, r| {
            if w == 1 && r == ProcessId(3) {
                Value(0)
            } else {
                Value(1)
            }
        });
        let report = t.discover_intermediates(1, &l);
        assert!(report.discovered.is_empty());
    }

    #[test]
    fn masking_zeroes_rows_and_columns() {
        let mut t = tree();
        t.store_intermediates(|_| Value(1));
        t.store_leaves(|_, _| Value(1));
        let newly = ProcessSet::from_members(4, [ProcessId(2)]);
        t.mask_leaves(&newly);
        for w in 0..4 {
            assert_eq!(t.leaf_row(w)[2], Value::DEFAULT);
            assert_eq!(t.leaf_row(w)[1], Value(1));
        }
        let mut t2 = tree();
        t2.store_intermediates(|_| Value(1));
        t2.mask_intermediates(&newly);
        assert_eq!(t2.intermediates()[2], Value::DEFAULT);
        assert_eq!(t2.intermediates()[1], Value(1));
    }

    #[test]
    fn node_count_tracks_levels() {
        let mut t = tree();
        assert_eq!(t.node_count(), 1);
        t.store_intermediates(|_| Value(1));
        assert_eq!(t.node_count(), 5);
        t.store_leaves(|_, _| Value(1));
        assert_eq!(t.node_count(), 21);
        t.convert_to_intermediates();
        assert_eq!(t.node_count(), 5);
    }
}
