//! Property-based tests for the tree-shape arithmetic — index/path
//! round-trips, contiguous children blocks — and differential tests that
//! hold the shared [`LabelTable`], and every bulk pass built on it, to a
//! deliberately naive reference written against the per-node decoders
//! [`Shape::path`] / [`Shape::index_of`] only.

use proptest::prelude::*;
use sg_eigtree::{
    convert, discover_during_conversion, discover_ig, strict_majority, Conversion, FaultList,
    IgTree, LabelTable, Res, Shape,
};
use sg_sim::{ProcessId, ProcessSet, Value};

/// The table is the decoders' last labels, node for node, and its
/// children blocks are `child_labels`, for every small shape.
#[test]
fn label_table_equals_the_decoders_everywhere() {
    for n in 4..=9 {
        for src in 0..n {
            let shape = Shape::new(n, ProcessId(src));
            let table = LabelTable::shared(shape);
            for k in 0..=4.min(n - 1) {
                let labels = table.level(k);
                assert_eq!(labels.len(), shape.level_size(k));
                for (i, &label) in labels.iter().enumerate() {
                    let path = shape.path(k, i);
                    let last = path.last().copied().unwrap_or(shape.source());
                    assert_eq!(ProcessId(label as usize), last, "n={n} src={src} ({k},{i})");
                    if k < 4.min(n - 1) {
                        let children: Vec<ProcessId> = table.level(k + 1)
                            [shape.children_range(k, i)]
                        .iter()
                        .map(|&q| ProcessId(q as usize))
                        .collect();
                        assert_eq!(children, shape.child_labels(&path));
                    }
                }
            }
        }
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random subset of at most `max` processors.
fn random_members(n: usize, max: usize, state: &mut u64) -> Vec<ProcessId> {
    (0..splitmix(state) as usize % (max + 1))
        .map(|_| ProcessId(splitmix(state) as usize % n))
        .collect()
}

/// The reference tree: one value per `(level, index)`, every structural
/// question answered by decoding the node's path.
struct NaiveTree {
    shape: Shape,
    levels: Vec<Vec<Value>>,
}

impl NaiveTree {
    /// `(blamed processor, child indices, child labels)` of node `(k, i)`.
    fn node(&self, k: usize, i: usize) -> (ProcessId, Vec<usize>, Vec<ProcessId>) {
        let path = self.shape.path(k, i);
        let blamed = path.last().copied().unwrap_or(self.shape.source());
        let labels: Vec<ProcessId> = (0..self.shape.n())
            .map(ProcessId)
            .filter(|q| *q != self.shape.source() && !path.contains(q))
            .collect();
        let children = labels
            .iter()
            .map(|&q| {
                let mut child = path.clone();
                child.push(q);
                self.shape.index_of(&child).expect("valid child path")
            })
            .collect();
        (blamed, children, labels)
    }

    fn append(&mut self, value_of: impl Fn(usize, usize, ProcessId) -> Value) {
        let k = self.levels.len();
        let level = (0..self.shape.level_size(k))
            .map(|j| {
                let path = self.shape.path(k, j);
                let parent = self.shape.index_of(&path[..k - 1]).expect("valid parent");
                value_of(k, parent, path[k - 1])
            })
            .collect();
        self.levels.push(level);
    }

    fn mask(&mut self, k: usize, senders: &ProcessSet) {
        for j in 0..self.levels[k].len() {
            if senders.contains(*self.shape.path(k, j).last().expect("k >= 1")) {
                self.levels[k][j] = Value::DEFAULT;
            }
        }
    }

    /// Both discovery rules: `child_value(k + 1, j)` reads a child.
    fn discover<T: Eq + Copy>(
        &self,
        parent_levels: std::ops::Range<usize>,
        child_value: impl Fn(usize, usize) -> T,
        t: usize,
        snapshot: &FaultList,
    ) -> (Vec<ProcessId>, u64) {
        let mut discovered = Vec::new();
        let mut ops = 0u64;
        for k in parent_levels {
            for i in 0..self.shape.level_size(k) {
                let (blamed, children, labels) = self.node(k, i);
                ops += children.len() as u64;
                let values: Vec<T> = children.iter().map(|&j| child_value(k + 1, j)).collect();
                let violates = match naive_majority(&values) {
                    None => true,
                    Some(m) => {
                        let dissent = values
                            .iter()
                            .zip(&labels)
                            .filter(|(v, q)| **v != m && !snapshot.contains(**q))
                            .count();
                        dissent > t.saturating_sub(snapshot.len())
                    }
                };
                if violates && !snapshot.contains(blamed) && !discovered.contains(&blamed) {
                    discovered.push(blamed);
                }
            }
        }
        discovered.sort_unstable();
        (discovered, ops)
    }

    /// `resolve` / `resolve'` by recursion on the node, plus the charge.
    fn convert(&self, conversion: Conversion) -> (Vec<Vec<Res>>, u64) {
        let deepest = self.levels.len() - 1;
        let mut out: Vec<Vec<Res>> = self
            .levels
            .iter()
            .map(|l| vec![Res::Bottom; l.len()])
            .collect();
        let mut ops = 0u64;
        for k in (0..=deepest).rev() {
            for i in 0..self.levels[k].len() {
                out[k][i] = if k == deepest {
                    Res::Val(self.levels[k][i])
                } else {
                    let (_, children, _) = self.node(k, i);
                    ops += children.len() as u64;
                    let values: Vec<Res> = children.iter().map(|&j| out[k + 1][j]).collect();
                    match conversion {
                        Conversion::Resolve => Res::Val(
                            naive_majority(&values).map_or(Value::DEFAULT, Res::value_or_default),
                        ),
                        Conversion::ResolvePrime { t } => {
                            let supported: Vec<Res> = tally(&values)
                                .into_iter()
                                .filter(|&(r, count)| r != Res::Bottom && count > t)
                                .map(|(r, _)| r)
                                .collect();
                            match supported[..] {
                                [only] => only,
                                _ => Res::Bottom,
                            }
                        }
                    }
                };
            }
        }
        (out, ops)
    }
}

fn tally<T: Eq + Copy>(values: &[T]) -> Vec<(T, usize)> {
    let mut counts: Vec<(T, usize)> = Vec::new();
    for &v in values {
        match counts.iter_mut().find(|(u, _)| *u == v) {
            Some((_, count)) => *count += 1,
            None => counts.push((v, 1)),
        }
    }
    counts
}

fn naive_majority<T: Eq + Copy>(values: &[T]) -> Option<T> {
    tally(values)
        .into_iter()
        .find(|&(_, count)| 2 * count > values.len())
        .map(|(v, _)| v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// path(index_of(p)) == p for every node of every level, any n and
    /// source.
    #[test]
    fn path_index_roundtrip(n in 3usize..9, src in 0usize..9, k in 0usize..4) {
        let src = src % n;
        prop_assume!(k <= n.saturating_sub(2));
        let shape = Shape::new(n, ProcessId(src));
        for i in 0..shape.level_size(k) {
            let path = shape.path(k, i);
            prop_assert_eq!(shape.index_of(&path), Some(i));
            for &p in &path {
                prop_assert_ne!(p, ProcessId(src));
            }
        }
    }

    /// Children of node (k, i) occupy exactly the contiguous block given
    /// by `children_range`, with labels matching `child_labels`.
    #[test]
    fn children_blocks_are_contiguous(n in 4usize..8, k in 0usize..3) {
        prop_assume!(k < n - 2);
        let shape = Shape::new(n, ProcessId(0));
        for i in 0..shape.level_size(k) {
            let path = shape.path(k, i);
            let labels = shape.child_labels(&path);
            let range = shape.children_range(k, i);
            prop_assert_eq!(labels.len(), range.len());
            for (offset, &label) in labels.iter().enumerate() {
                let child = range.start + offset;
                let mut child_path = path.clone();
                child_path.push(label);
                prop_assert_eq!(shape.path(k + 1, child), child_path);
                prop_assert_eq!(shape.parent(k + 1, child), i);
            }
        }
    }

    /// Gather, mask, discover and convert agree with the naive reference
    /// on random three-valued trees, fault-list snapshots and masked sets.
    #[test]
    fn tree_ops_match_naive_reference(
        n in 4usize..8,
        src in 0usize..8,
        depth in 1usize..4,
        seed in any::<u64>(),
    ) {
        prop_assume!(depth < n - 1);
        let shape = Shape::new(n, ProcessId(src % n));
        let t = (n - 1) / 3;
        let mut state = seed;
        // Mostly 1 with a seeded scatter of {0, 1, 2}, so some nodes keep
        // a majority and some lose it.
        let value_of = |k: usize, parent: usize, sender: ProcessId| {
            let mut h = seed ^ ((k as u64) << 48 | (parent as u64) << 8 | sender.index() as u64);
            let h = splitmix(&mut h);
            if h & 3 == 0 { Value((h >> 8) as u16 % 3) } else { Value(1) }
        };
        let root = Value(splitmix(&mut state) as u16 % 3);

        let mut tree = IgTree::new(n, shape.source());
        tree.set_root(root);
        let mut naive = NaiveTree { shape, levels: vec![vec![root]] };
        for k in 1..=depth {
            let stored = tree.append_level(|parent, sender| value_of(k, parent, sender));
            naive.append(value_of);
            prop_assert_eq!(stored, shape.level_size(k) as u64);

            let mut snapshot = FaultList::new(n);
            for p in random_members(n, t, &mut state) {
                snapshot.insert(p, 1);
            }
            let report = discover_ig(&tree, t, &snapshot);
            let (discovered, ops) =
                naive.discover(k - 1..k, |level, j| naive.levels[level][j], t, &snapshot);
            prop_assert_eq!(report.discovered, discovered);
            prop_assert_eq!(report.ops, ops);

            let masked = ProcessSet::from_members(n, random_members(n, 2, &mut state));
            let charged = tree.mask_level(k, &masked);
            naive.mask(k, &masked);
            let expected = if masked.is_empty() { 0 } else { shape.level_size(k) as u64 };
            prop_assert_eq!(charged, expected);
            for level in 0..=k {
                prop_assert_eq!(tree.level(level), &naive.levels[level][..]);
            }
        }

        let mut snapshot = FaultList::new(n);
        for p in random_members(n, t, &mut state) {
            snapshot.insert(p, 1);
        }
        for conversion in [Conversion::Resolve, Conversion::ResolvePrime { t }] {
            let converted = convert(&tree, conversion);
            let (levels, ops) = naive.convert(conversion);
            prop_assert_eq!(converted.depth(), levels.len());
            for (k, level) in levels.iter().enumerate() {
                prop_assert_eq!(converted.level(k), &level[..]);
            }
            prop_assert_eq!(converted.ops(), ops);

            let report = discover_during_conversion(&tree, &converted, t, &snapshot);
            let (discovered, ops) =
                naive.discover(0..depth, |level, j| levels[level][j], t, &snapshot);
            prop_assert_eq!(report.discovered, discovered);
            prop_assert_eq!(report.ops, ops);
        }
    }

    /// Masking a sender and then resolving never increases the masked
    /// sender's influence: a tree whose deepest level is all `v` except
    /// for entries from one sender resolves to `v` once that sender is
    /// masked.
    #[test]
    fn masked_sender_cannot_flip_resolution(n in 5usize..8, v in 0u16..2) {
        let mut tree = IgTree::new(n, ProcessId(0));
        tree.set_root(Value(v));
        tree.append_level(|_, _| Value(v));
        // The liar (P1) poisoned its entries at level 2.
        tree.append_level(|_, sender| {
            if sender == ProcessId(1) { Value(1 - v) } else { Value(v) }
        });
        let masked = ProcessSet::from_members(n, [ProcessId(1)]);
        tree.mask_level(2, &masked);
        let converted = convert(&tree, Conversion::Resolve);
        // With P1's level-2 entries defaulted, every level-1 node has at
        // most one non-v child (the default 0), and n−2 ≥ 3 children, so
        // the majority stays v.
        prop_assert_eq!(converted.root(), Res::Val(Value(v)));
    }

    /// `strict_majority` is permutation-invariant.
    #[test]
    fn strict_majority_permutation_invariant(
        mut vals in proptest::collection::vec(0u16..3, 1..16),
        rot in 0usize..16,
    ) {
        let before = strict_majority(&vals);
        let r = rot % vals.len();
        vals.rotate_left(r);
        prop_assert_eq!(strict_majority(&vals), before);
    }
}
