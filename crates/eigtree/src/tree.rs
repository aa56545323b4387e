//! The Information Gathering Tree without repetitions (paper §3, Fig. 1).
//!
//! `tree_p(s·q⋯r)` holds "the value that r says q says … the source said".
//! Levels are stored bit-sliced ([`Planes`]) in the canonical order
//! defined by [`crate::Shape`]: one `u64` plane per value bit, so a
//! binary level is one bit per node. The children of every node are a
//! contiguous slot range, which is what lets `resolve`, `resolve'` and
//! the discovery thresholds count them with popcounts (see
//! [`crate::convert`] and [`crate::discover_ig`]); a round-`h` broadcast
//! is the deepest level's plane words as they are.
//!
//! Gathering is per parent: node `i`'s children are the senders off its
//! label path, ascending, so the block of level `k + 1` under it is the
//! column of every sender's bit for `i` with the path's labels squeezed
//! out — the slot rule "`tree(αq)` is what `q` says about `α`", one word
//! per block ([`IgTree::append_claims`]). The echo round (level 1 under
//! the root) is that with the source as the whole path, read straight
//! off the round's ballot word ([`IgTree::append_echo`]).

use std::sync::Arc;

use sg_sim::{ProcessId, ProcessSet, Value, ValueDomain};

use crate::level::{columns, low_bits, squeeze, BitWriter, Planes};
use crate::resolve::Res;
use crate::shape::{LabelTable, Shape};

/// What one sender claims, in a gather round, for every slot of the level
/// its messages extend: slot `i` of the claim is the value the sender
/// says node `i` of the receiver's deepest level holds. Resolved once per
/// sender and round, so the per-slot read is one match.
#[derive(Clone, Copy, Debug)]
pub enum Claim<'a> {
    /// The receiver itself: it relays its own stored level truthfully.
    Own,
    /// A masked fault, an absent message, or one that is not a value
    /// vector: every slot reads as the default.
    Defaults,
    /// A bit-packed binary vector of `len` slots (bits past `len` clear).
    Bits {
        /// One bit per slot.
        words: &'a [u64],
        /// Number of slots carried.
        len: usize,
    },
    /// A plain value vector, sanitized against the domain on read.
    Values(&'a [Value]),
}

impl Claim<'_> {
    /// The sanitized value claimed for slot `idx`, where `own` is the
    /// receiver's level; slots the message does not cover read as the
    /// default.
    #[inline]
    pub fn at(&self, idx: usize, own: &Planes, domain: ValueDomain) -> Value {
        self.sent(idx, domain).unwrap_or_else(|| own.get(idx))
    }

    /// What a message claims for slot `idx`, sanitized; `None` for the
    /// receiver's own claim.
    #[inline]
    pub(crate) fn sent(&self, idx: usize, domain: ValueDomain) -> Option<Value> {
        Some(match *self {
            Claim::Own => return None,
            Claim::Defaults => Value::DEFAULT,
            Claim::Bits { words, len } => Value(u16::from(idx < len && bit(words, idx))),
            Claim::Values(vals) => vals
                .get(idx)
                .map_or(Value::DEFAULT, |&v| domain.sanitize(v)),
        })
    }
}

#[inline]
fn bit(words: &[u64], idx: usize) -> bool {
    words[idx / 64] >> (idx % 64) & 1 == 1
}

/// Calls `visit` with the label mask (`path`, plus one bit per label) of
/// every node `depth` levels below the node whose mask is `path`, in
/// canonical order: children by ascending id, depth first.
fn for_each_path(n: usize, path: u64, depth: usize, visit: &mut impl FnMut(u64)) {
    if depth == 0 {
        visit(path);
        return;
    }
    for q in (0..n).filter(|&q| path >> q & 1 == 0) {
        for_each_path(n, path | 1 << q, depth - 1, visit);
    }
}

/// The parent index of each slot of a level in order, `width` slots a
/// parent, counted rather than divided out.
struct Parents {
    width: usize,
    parent: usize,
    left: usize,
}

impl Parents {
    fn new(width: usize) -> Self {
        Parents {
            width,
            parent: 0,
            left: width,
        }
    }

    /// The parent of the next slot.
    #[inline]
    fn next(&mut self) -> usize {
        if self.left == 0 {
            self.parent += 1;
            self.left = self.width;
        }
        self.left -= 1;
        self.parent
    }
}

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
/// assert_eq!(tree.level(1).to_vec(), [Value(1), Value(1), Value(1)]);
/// ```
#[derive(Clone, Debug)]
pub struct IgTree {
    shape: Shape,
    /// The process-wide label table of `shape`.
    labels: Arc<LabelTable>,
    /// Level buffers: the first `depth` are the stored levels, the rest
    /// are kept (at most [`RECYCLE_WORDS`] words each) for the levels
    /// stored next.
    levels: Vec<Planes>,
    depth: usize,
}

/// The largest level buffer (in words) a tree keeps for reuse: 512 bytes,
/// room for 4 096 binary slots — every level of a three-round block at
/// `n ≤ 17`. Deeper levels are dropped, so a pooled instance never pins
/// one.
const RECYCLE_WORDS: usize = 64;

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
    fn stored(&self) -> &[Planes] {
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
    /// Level buffers of at most `RECYCLE_WORDS` words are kept for the
    /// next run: a run the echo rule ends at round 2 stores only the root
    /// and `n − 1` echoes, and allocating those two was a measurable share
    /// of it. Larger levels are dropped — on a full schedule allocating
    /// them at exact capacity measured no slower than recycling, and a
    /// pooled instance must not pin its deepest level between runs. The
    /// handle on the shared label table is kept while the shape is
    /// unchanged.
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
        self.levels
            .retain(|level| level.capacity_words() <= RECYCLE_WORDS);
        self.depth = 0;
    }

    /// Stores a new deepest level of `len` default values and returns it
    /// beside the level above it (over the two fields, so a caller can
    /// hold the label table too).
    fn push_level<'a>(
        levels: &'a mut Vec<Planes>,
        depth: &mut usize,
        len: usize,
    ) -> (Option<&'a Planes>, &'a mut Planes) {
        if *depth == levels.len() {
            levels.push(Planes::default());
        }
        let (stored, rest) = levels.split_at_mut(*depth);
        *depth += 1;
        let fresh = &mut rest[0];
        fresh.reset(len, 1, false);
        (stored.last(), fresh)
    }

    /// Stores the root value (`tree(s)`, the preferred value); resets the
    /// tree to a single level.
    pub fn set_root(&mut self, v: Value) {
        self.clear_levels();
        Self::push_level(&mut self.levels, &mut self.depth, 1)
            .1
            .set(0, v);
    }

    /// The root value (`tree(s)`).
    ///
    /// # Panics
    ///
    /// Panics if no root has been stored yet.
    pub fn root(&self) -> Value {
        self.stored()[0].get(0)
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
    pub fn level(&self, k: usize) -> &Planes {
        &self.stored()[k]
    }

    /// Total stored nodes across all levels.
    pub fn node_count(&self) -> u64 {
        self.stored().iter().map(|l| l.len() as u64).sum()
    }

    /// The deepest level's children per node, checking there is a next
    /// level.
    fn next_width(&self) -> usize {
        let k = self.deepest_level();
        assert!(k + 1 < self.shape.n(), "level {k} is the tree's last");
        self.shape.children_per_node(k)
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
        let width = self.next_width();
        let senders = self.labels.level(self.depth);
        let (_, fresh) = Self::push_level(&mut self.levels, &mut self.depth, senders.len());
        let mut parent = Parents::new(width);
        fresh.fill_with(|slot| {
            Res::Val(value_for(parent.next(), ProcessId(senders[slot] as usize)))
        });
        senders.len() as u64
    }

    /// Appends the next level from every sender's [`Claim`], indexed by
    /// processor: slot `(parent i, sender q)` holds `claims[q]` at `i`.
    /// The claims must already reflect the Fault Masking Rule. On binary
    /// data at `n ≤ 64` (a one-plane deepest level and no value-vector
    /// claim) each parent's block of children is written as one word;
    /// otherwise each slot's value is read and stored across the planes.
    ///
    /// Returns the number of values stored (the local-work charge).
    ///
    /// # Panics
    ///
    /// As [`IgTree::append_level`]; also if `claims` has fewer than `n`
    /// entries.
    pub fn append_claims(&mut self, claims: &[Claim<'_>], domain: ValueDomain) -> u64 {
        let width = self.next_width();
        let senders = self.labels.level(self.depth);
        let (own, fresh) = Self::push_level(&mut self.levels, &mut self.depth, senders.len());
        let own = own.expect("a root precedes every gathered level");
        let binary = own.planes() == 1 && !claims.iter().any(|c| matches!(c, Claim::Values(_)));
        let n = self.shape.n();
        if binary && n <= 64 {
            // Parent by parent, in canonical order: the column of every
            // sender's bit for the parent, read off the senders' claim
            // words 64 parents at a time. The parent's children are the
            // senders off its path, in ascending order, so its block of
            // the new level is that column with the path's labels
            // squeezed out.
            let word = |q: usize, j: usize| match claims[q] {
                Claim::Own => own.plane(0)[j],
                Claim::Bits { words, len } if j * 64 < len => {
                    words.get(j).map_or(0, |&w| w & low_bits(len - j * 64))
                }
                _ => 0,
            };
            let mut rows = [0u64; 64];
            let mut cols = [0u64; 64];
            let mut out = BitWriter::new(fresh);
            let mut i = 0;
            let source = self.shape.source().index();
            for_each_path(n, 1 << source, self.depth - 2, &mut |path| {
                if i % 64 == 0 {
                    for (q, row) in rows[..n].iter_mut().enumerate() {
                        *row = word(q, i / 64);
                    }
                    cols = columns(&rows[..n], own.len() - i);
                }
                out.push(squeeze(cols[i % 64], path), width);
                i += 1;
            });
        } else {
            let mut parent = Parents::new(width);
            fresh.fill_with(|slot| {
                let claim = &claims[senders[slot] as usize];
                Res::Val(claim.at(parent.next(), own, domain))
            });
        }
        senders.len() as u64
    }

    /// Appends the echo level (level 1) from a binary ballot word: bit `q`
    /// is what processor `q` echoed (already masked, with the receiver's
    /// own root in its own bit). The source's bit is squeezed out, since
    /// level 1 has one slot per non-source processor in ascending order.
    ///
    /// Returns the number of values stored (the local-work charge).
    ///
    /// # Panics
    ///
    /// Panics unless only the root is stored and `n ≤ 64`.
    pub fn append_echo(&mut self, word: u64) -> u64 {
        assert_eq!(self.deepest_level(), 0, "echoes extend the root");
        let n = self.shape.n();
        assert!(n <= 64, "an echo word covers at most 64 processors");
        let source = 1 << self.shape.source().index();
        let len = n - 1;
        let (_, fresh) = Self::push_level(&mut self.levels, &mut self.depth, len);
        fresh.copy_plane0(&[squeeze(word, source) & low_bits(len)]);
        len as u64
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
        // Labels are bytes, so the senders fit a 256-bit mask.
        let mut masked = [0u64; 4];
        for p in senders.iter() {
            masked[p.index() / 64] |= 1 << (p.index() % 64);
        }
        let labels = self.labels.level(k);
        let level = &mut self.levels[k];
        level.clear_slots(|w| {
            let chunk = &labels[w * 64..labels.len().min((w + 1) * 64)];
            chunk.iter().enumerate().fold(0, |slots, (j, &label)| {
                slots | (masked[usize::from(label / 64)] >> (label % 64) & 1) << j
            })
        });
        level.len() as u64
    }

    /// The value stored at the node with the given label path, if within
    /// the stored levels and structurally valid.
    pub fn value_at(&self, path: &[ProcessId]) -> Option<Value> {
        let level = self.stored().get(path.len())?;
        Some(level.get(self.shape.index_of(path)?))
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
