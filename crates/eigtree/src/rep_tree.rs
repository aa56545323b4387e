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
//!
//! Both levels are [`Planes`]. The leaf matrix keeps each row word
//! aligned (`⌈n/64⌉` words a row, per plane), so a node `sw`'s children
//! are row `w`, labelled `0..n` by position:
//!
//! * the discovery rule and the row majority are popcounts over a row
//!   (the dissent outside `L_p` read off the dissent mask's set bits, as
//!   in [`crate::discover_ig`]);
//! * masking a processor clears its column: one bit per row word;
//! * the reorder is a bit-matrix transpose — at `n ≤ 64` built from
//!   8 × 8 blocks, each three rounds of shifted XORs;
//! * a round of binary claims is stored as the matrix whose row `r` is
//!   `r`'s vector (one word copy per sender), transposed once into the
//!   paper's layout, where row `w` holds what every `r` claims for `sw`.

use sg_sim::{ProcessId, ProcessSet, Value, ValueDomain};

use crate::discovery::{node_violates, DiscoveryReport};
use crate::fault_list::FaultList;
use crate::level::{columns, low_bits, Planes};
use crate::resolve::Res;
use crate::tree::Claim;

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
    intermediates: Planes,
    /// The `n×n` leaf matrix, row-major with each row padded to whole
    /// words: slot `w·row + r` is the value `r` claims for intermediate
    /// vertex `sw` (before reordering). Empty when no leaf level is
    /// stored; the buffer itself is kept across rounds and runs.
    leaves: Planes,
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
            intermediates: Planes::default(),
            leaves: Planes::default(),
        }
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Slots per leaf row: `n` rounded up to whole words.
    fn row(&self) -> usize {
        self.n.div_ceil(64) * 64
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
        self.intermediates.reset(0, 1, false);
        self.leaves.reset(0, 1, false);
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
    pub fn intermediates(&self) -> &Planes {
        assert!(self.has_intermediates(), "intermediates stored");
        &self.intermediates
    }

    /// Round 2: stores `tree(sq)` for every `q` from the round's
    /// (sanitized, masked) messages. Returns the local-work charge.
    pub fn store_intermediates<F>(&mut self, mut value_for: F) -> u64
    where
        F: FnMut(ProcessId) -> Value,
    {
        self.intermediates.reset(self.n, 1, false);
        self.intermediates
            .fill_with(|q| Res::Val(value_for(ProcessId(q))));
        self.leaves.reset(0, 1, false);
        self.n as u64
    }

    /// Round 2 from every sender's [`Claim`] on the root: `tree(sq)` is
    /// `claims[q]` at slot 0, and the receiver's own claim is its root.
    /// Returns the local-work charge.
    pub fn store_root_claims(&mut self, claims: &[Claim<'_>], domain: ValueDomain) -> u64 {
        let root = self.root;
        self.store_intermediates(|q| claims[q.index()].sent(0, domain).unwrap_or(root))
    }

    /// Round 2 from a binary ballot word: bit `q` is `tree(sq)` (already
    /// masked, with the receiver's own root in its own bit). Returns the
    /// local-work charge.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn store_echo(&mut self, word: u64) -> u64 {
        assert!(self.n <= 64, "an echo word covers at most 64 processors");
        self.intermediates.reset(self.n, 1, false);
        self.intermediates
            .copy_plane0(&[word & (u64::MAX >> (64 - self.n))]);
        self.leaves.reset(0, 1, false);
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
        let (n, row) = (self.n, self.row());
        self.leaves.reset(n * row, 1, false);
        for w in 0..n {
            for r in 0..n {
                let v = value_for(w, ProcessId(r));
                if v != Value::DEFAULT {
                    self.leaves.set(w * row + r, v);
                }
            }
        }
        (n * n) as u64
    }

    /// Rounds ≥ 3 from every sender's [`Claim`] on the intermediate
    /// level: leaf `(w, r)` is `claims[r]` at slot `w`, the receiver's own
    /// claim being its `tree(sw)`. On binary data row `r` is first filled
    /// with `r`'s vector, word by word, and the matrix transposed into
    /// place; otherwise each leaf is read and stored across the planes.
    ///
    /// Returns the local-work charge.
    ///
    /// # Panics
    ///
    /// Panics if intermediates have not been stored yet.
    pub fn store_leaf_claims(&mut self, claims: &[Claim<'_>], domain: ValueDomain) -> u64 {
        assert!(self.has_intermediates(), "round 2 must precede leaves");
        let (n, row) = (self.n, self.row());
        let own = &self.intermediates;
        let binary = own.planes() == 1 && !claims.iter().any(|c| matches!(c, Claim::Values(_)));
        self.leaves.reset(n * row, 1, false);
        if binary {
            let words_per_row = row / 64;
            let leaves = self.leaves.plane_mut(0);
            for (r, claim) in claims[..n].iter().enumerate() {
                let (words, len) = match *claim {
                    Claim::Own => (own.plane(0), n),
                    Claim::Bits { words, len } => (words, len.min(n)),
                    Claim::Defaults | Claim::Values(_) => continue,
                };
                let dst = &mut leaves[r * words_per_row..(r + 1) * words_per_row];
                for (i, d) in dst.iter_mut().enumerate() {
                    let kept = low_bits(len.saturating_sub(i * 64));
                    *d = words.get(i).map_or(0, |&w| w & kept);
                }
            }
            self.transpose();
        } else {
            for w in 0..n {
                for (r, claim) in claims[..n].iter().enumerate() {
                    let v = claim.at(w, own, domain);
                    if v != Value::DEFAULT {
                        self.leaves.set(w * row + r, v);
                    }
                }
            }
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
    pub fn leaf_row(&self, w: usize) -> Vec<Value> {
        assert!(self.has_leaves(), "leaves stored");
        let start = w * self.row();
        (start..start + self.n)
            .map(|i| self.leaves.get(i))
            .collect()
    }

    /// The Fault Discovery Rule applied to the root's fresh children — the
    /// intermediate level just stored in round 2. Can discover the source.
    pub fn discover_root(&self, t: usize, snapshot: &FaultList) -> DiscoveryReport {
        let budget = t.saturating_sub(snapshot.len());
        let mut report = DiscoveryReport {
            ops: self.n as u64,
            ..DiscoveryReport::default()
        };
        if !snapshot.contains(self.source)
            && node_violates(self.intermediates(), 0..self.n, ProcessId, budget, snapshot)
        {
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
        let (n, row) = (self.n, self.row());
        let budget = t.saturating_sub(snapshot.len());
        let mut report = DiscoveryReport::default();
        for w in 0..n {
            report.ops += n as u64;
            let wid = ProcessId(w);
            if snapshot.contains(wid) {
                continue;
            }
            let start = w * row;
            let sender = |j: usize| ProcessId(j - start);
            if node_violates(&self.leaves, start..start + n, sender, budget, snapshot) {
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
        self.intermediates.clear_slots(|w| column_bits(newly, w));
        newly.len() as u64
    }

    /// Masks the current round's messages of newly discovered processors:
    /// every leaf received from them — their column — becomes the default
    /// value.
    pub fn mask_leaves(&mut self, newly: &ProcessSet) -> u64 {
        if !self.has_leaves() {
            return 0;
        }
        let words_per_row = self.row() / 64;
        self.leaves
            .clear_slots(|w| column_bits(newly, w % words_per_row));
        (self.n * newly.len()) as u64
    }

    /// Transposes the leaf matrix in every plane.
    fn transpose(&mut self) {
        let n = self.n;
        let words_per_row = self.row() / 64;
        for b in 0..self.leaves.planes() {
            let plane = self.leaves.plane_mut(b);
            if n <= 64 {
                let cols = columns(plane, n);
                plane.copy_from_slice(&cols[..n]);
            } else {
                let at = |p: usize, q: usize| (p * words_per_row + q / 64, q % 64);
                for p in 0..n {
                    for q in p + 1..n {
                        let ((pw, pb), (qw, qb)) = (at(p, q), at(q, p));
                        let (x, y) = (plane[pw] >> pb & 1, plane[qw] >> qb & 1);
                        if x != y {
                            plane[pw] ^= 1 << pb;
                            plane[qw] ^= 1 << qb;
                        }
                    }
                }
            }
        }
    }

    /// Reorders the leaves by swapping `tree(spq) ↔ tree(sqp)` — after
    /// this, row `q` holds exactly the vector received from `q`.
    ///
    /// # Panics
    ///
    /// Panics if no leaves are stored.
    pub fn reorder(&mut self) -> u64 {
        assert!(self.has_leaves(), "leaves stored");
        self.transpose();
        (self.n * self.n / 2) as u64
    }

    /// `shift_{3→2}`: sets `tree(sq) = resolve(sq)` for every `q` (a strict
    /// majority over row `q`, default on none) and drops the leaf level.
    ///
    /// # Panics
    ///
    /// Panics if no leaves are stored.
    pub fn convert_to_intermediates(&mut self) -> u64 {
        assert!(self.has_leaves(), "leaves stored");
        let (n, row) = (self.n, self.row());
        self.intermediates.reset(n, 1, false);
        let leaves = &self.leaves;
        self.intermediates.fill_with(|q| {
            leaves
                .majority(q * row..q * row + n)
                .map_or(Res::Val(Value::DEFAULT), |(r, _)| r)
        });
        self.leaves.reset(0, 1, false);
        (n * n) as u64
    }

    /// The preferred value: `resolve(s)` over the intermediate vertices (a
    /// strict majority, default on none), or the root itself before
    /// round 2.
    pub fn preferred(&self) -> Value {
        if self.has_intermediates() {
            match self.intermediates.majority(0..self.n) {
                Some((r, _)) => r.value_or_default(),
                None => Value::DEFAULT,
            }
        } else {
            self.root
        }
    }

    /// Live node count for space accounting.
    pub fn node_count(&self) -> u64 {
        let leaves = if self.has_leaves() {
            self.n * self.n
        } else {
            0
        };
        (1 + self.intermediates.len() + leaves) as u64
    }
}

/// Word `w` of the bit mask of `set`'s members (bit `q % 64` of word
/// `q / 64`).
fn column_bits(set: &ProcessSet, w: usize) -> u64 {
    set.iter()
        .filter(|p| p.index() / 64 == w)
        .fold(0, |mask, p| mask | 1 << (p.index() % 64))
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
            t.intermediates().to_vec(),
            [Value(1), Value::DEFAULT, Value(0), Value(0)]
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
        assert_eq!(t2.intermediates().get(2), Value::DEFAULT);
        assert_eq!(t2.intermediates().get(1), Value(1));
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
