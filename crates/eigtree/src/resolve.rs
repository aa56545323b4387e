//! Data conversion functions: `resolve` (paper §3) and `resolve'` (§4.2).
//!
//! `resolve` is a recursive majority vote: a leaf resolves to its stored
//! value; an internal node resolves to the strict majority of its
//! children's resolved values, or the default value if no majority exists.
//!
//! `resolve'` resolves an internal node to the *unique* value of `V`
//! occurring at least `t+1` times among its children's resolved values,
//! and to the special value `⊥ ∉ V` otherwise. `⊥` exists only during
//! conversion; a processor whose final `resolve'(s)` is `⊥` adopts the
//! default value.
//!
//! Both run bottom-up over [`Planes`] levels, where a node's children are
//! the contiguous slot range `[i·w, (i+1)·w)` of the level below:
//!
//! * `resolve`'s strict majority on binary data is one popcount `c` of
//!   the range's value bits — 1 wins iff `2c > w`, 0 iff `2(w − c) > w`
//!   — which is exactly "more than half the children hold it". On wider
//!   data each bit of the candidate is its plane's majority (a value held
//!   by more than half the children decides every one of its bits so),
//!   and a count of the candidate confirms or rejects it.
//! * `resolve'`'s rule on binary data is two popcounts, of the 1s and of
//!   the 0s that are not `⊥` (the converted level's `⊥` plane masks
//!   them): a value is the unique supported one iff its count exceeds `t`
//!   and the other's does not, which is the slot rule on a two-value
//!   domain. Wider data walks the range's slots, counting each distinct
//!   value once.
//!
//! A converted level carries a `⊥` plane only under `resolve'`, whose
//! internal nodes can be `⊥`; `resolve` never produces it.

use sg_sim::Value;

use crate::level::Planes;
use crate::tree::IgTree;

/// The result of applying a conversion function to one node: a value of
/// `V`, or `⊥` (only produced by `resolve'`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Res {
    /// A value of the agreement domain.
    Val(Value),
    /// The out-of-domain marker `⊥` of `resolve'`.
    Bottom,
}

impl Res {
    /// The carried value, with `⊥` collapsed to the default — the rule a
    /// processor applies when adopting a converted value as its new
    /// preferred value.
    pub fn value_or_default(self) -> Value {
        match self {
            Res::Val(v) => v,
            Res::Bottom => Value::DEFAULT,
        }
    }

    /// The carried value, if not `⊥`.
    pub fn as_value(self) -> Option<Value> {
        match self {
            Res::Val(v) => Some(v),
            Res::Bottom => None,
        }
    }
}

impl std::fmt::Display for Res {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Res::Val(v) => write!(f, "{v}"),
            Res::Bottom => write!(f, "⊥"),
        }
    }
}

/// Which conversion function to apply.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Conversion {
    /// Recursive majority voting (`resolve`, §3) — Algorithm B and the
    /// Exponential Algorithm.
    Resolve,
    /// The `≥ t+1` unique-value rule (`resolve'`, §4.2) — Algorithm A.
    ResolvePrime {
        /// The fault bound `t` of the running protocol instance.
        t: usize,
    },
}

impl Conversion {
    /// The paper's name for the function.
    pub fn name(&self) -> &'static str {
        match self {
            Conversion::Resolve => "resolve",
            Conversion::ResolvePrime { .. } => "resolve'",
        }
    }
}

/// The fully converted tree: `resolve`/`resolve'` applied to every node.
///
/// Keeping every node's converted value (not just the root's) serves
/// Algorithm A's Fault Discovery Rule During Conversion, which inspects
/// the converted values of each internal node's children.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Converted {
    levels: Vec<Planes>,
    ops: u64,
}

impl Converted {
    /// The converted value of the root — the node `s`.
    pub fn root(&self) -> Res {
        self.levels[0].res(0)
    }

    /// Converted values of level `k` in canonical order (read them with
    /// [`Planes::res`] / [`Planes::results`]).
    pub fn level(&self, k: usize) -> &Planes {
        &self.levels[k]
    }

    /// Number of levels (same as the source tree).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Local-computation charge of the conversion (one unit per
    /// child inspected).
    pub fn ops(&self) -> u64 {
        self.ops
    }
}

/// The strict majority element of `items`, if one exists
/// (count > len/2). O(len), no allocation.
///
/// # Examples
///
/// ```
/// use sg_eigtree::strict_majority;
///
/// assert_eq!(strict_majority(&[1, 2, 1, 1]), Some(1));
/// assert_eq!(strict_majority(&[1, 2, 1, 2]), None);
/// assert_eq!(strict_majority::<u8>(&[]), None);
/// ```
pub fn strict_majority<T: Eq + Copy>(items: &[T]) -> Option<T> {
    // Boyer–Moore, then verify.
    let mut candidate = *items.first()?;
    let mut count = 0usize;
    for &x in items {
        if count == 0 {
            candidate = x;
            count = 1;
        } else if x == candidate {
            count += 1;
        } else {
            count -= 1;
        }
    }
    let support = items.iter().filter(|&&x| x == candidate).count();
    (2 * support > items.len()).then_some(candidate)
}

/// Applies a conversion function to every node of `tree`, bottom-up.
///
/// The deepest stored level acts as the leaves (they resolve to their
/// stored values); every shallower node is converted from its children's
/// converted values per the chosen rule. Each converted level is one
/// buffer, allocated at its exact size.
///
/// # Panics
///
/// Panics if the tree has no stored levels.
pub fn convert(tree: &IgTree, conversion: Conversion) -> Converted {
    let deepest = tree.deepest_level();
    let shape = *tree.shape();
    let bottom = matches!(conversion, Conversion::ResolvePrime { .. });
    // Built deepest-first, then reversed into level order.
    let mut built: Vec<Planes> = Vec::with_capacity(deepest + 1);
    built.push(tree.level(deepest).clone());
    let mut ops = 0u64;
    for k in (0..deepest).rev() {
        let children = built.last().expect("previous level built");
        ops += children.len() as u64;
        let width = shape.children_per_node(k);
        let mut level = Planes::zeroed(children.len() / width, children.planes(), bottom);
        // On binary data a node's counts of 0s, 1s and ⊥s are popcounts
        // of its window; wider data takes the planes' range rules.
        let binary = children.binary().filter(|_| width <= 64);
        level.fill_with(|i| match (binary, conversion) {
            (Some(binary), Conversion::Resolve) => {
                let [_, ones, _] = binary.tally(i * width, width);
                Res::Val(Value(u16::from(2 * ones > width)))
            }
            (Some(binary), Conversion::ResolvePrime { t }) => {
                match binary.tally(i * width, width) {
                    [zeros, ones, _] if ones > t && zeros <= t => Res::Val(Value(1)),
                    [zeros, ones, _] if zeros > t && ones <= t => Res::Val(Value(0)),
                    _ => Res::Bottom,
                }
            }
            (None, Conversion::Resolve) => Res::Val(
                children
                    .majority(i * width..(i + 1) * width)
                    .map_or(Value::DEFAULT, |(r, _)| r.value_or_default()),
            ),
            (None, Conversion::ResolvePrime { t }) => {
                children.unique_supported(i * width..(i + 1) * width, t)
            }
        });
        built.push(level);
    }
    built.reverse();
    Converted { levels: built, ops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_sim::ProcessId;

    fn tree_with_level1(n: usize, vals: &[u16]) -> IgTree {
        let mut t = IgTree::new(n, ProcessId(0));
        t.set_root(Value(1));
        let mut it = vals.iter();
        t.append_level(|_, _| Value(*it.next().unwrap()));
        t
    }

    #[test]
    fn resolve_takes_strict_majority() {
        let t = tree_with_level1(5, &[1, 1, 1, 0]);
        let c = convert(&t, Conversion::Resolve);
        assert_eq!(c.root(), Res::Val(Value(1)));
    }

    #[test]
    fn resolve_defaults_on_tie() {
        let t = tree_with_level1(5, &[1, 1, 0, 0]);
        let c = convert(&t, Conversion::Resolve);
        assert_eq!(c.root(), Res::Val(Value::DEFAULT));
    }

    #[test]
    fn resolve_prime_requires_unique_t_plus_1_support() {
        // n = 5, t = 1: need a unique value with >= 2 occurrences.
        let t = tree_with_level1(5, &[1, 1, 0, 0]);
        let c = convert(&t, Conversion::ResolvePrime { t: 1 });
        assert_eq!(c.root(), Res::Bottom); // both 0 and 1 reach 2

        let t = tree_with_level1(5, &[1, 1, 0, 2]);
        let c = convert(&t, Conversion::ResolvePrime { t: 1 });
        assert_eq!(c.root(), Res::Val(Value(1)));

        let t = tree_with_level1(5, &[1, 0, 2, 3]);
        let c = convert(&t, Conversion::ResolvePrime { t: 1 });
        assert_eq!(c.root(), Res::Bottom); // nobody reaches 2
    }

    #[test]
    fn two_level_resolution_recurses() {
        // n = 4: level 1 has 3 nodes, level 2 has 6 (2 children each).
        let mut t = IgTree::new(4, ProcessId(0));
        t.set_root(Value(1));
        t.append_level(|_, _| Value(1));
        // Children pairs: make node s1's children disagree (tie -> default 0),
        // s2's and s3's children agree on 1.
        let leaf_vals = [1, 0, 1, 1, 1, 1];
        let mut i = 0;
        t.append_level(|_, _| {
            let v = Value(leaf_vals[i]);
            i += 1;
            v
        });
        let c = convert(&t, Conversion::Resolve);
        assert_eq!(
            c.level(1).results().collect::<Vec<_>>(),
            [Res::Val(Value(0)), Res::Val(Value(1)), Res::Val(Value(1))]
        );
        // Root majority over [0, 1, 1] = 1.
        assert_eq!(c.root(), Res::Val(Value(1)));
    }

    #[test]
    fn leaves_resolve_to_stored_values() {
        let t = tree_with_level1(4, &[1, 0, 1]);
        let c = convert(&t, Conversion::Resolve);
        assert_eq!(
            c.level(1).results().collect::<Vec<_>>(),
            [Res::Val(Value(1)), Res::Val(Value(0)), Res::Val(Value(1))]
        );
    }

    #[test]
    fn conversion_charges_ops() {
        let t = tree_with_level1(5, &[1, 1, 1, 1]);
        let c = convert(&t, Conversion::Resolve);
        assert_eq!(c.ops(), 4); // one internal node with 4 children
    }

    #[test]
    fn strict_majority_edge_cases() {
        assert_eq!(strict_majority(&[3]), Some(3));
        assert_eq!(strict_majority(&[1, 1]), Some(1));
        assert_eq!(strict_majority(&[1, 2]), None);
        assert_eq!(strict_majority(&[2, 1, 2, 1, 2]), Some(2));
        // Three distinct values: the majority is neither of the first two.
        assert_eq!(strict_majority(&[1, 3, 2, 2, 2]), Some(2));
        assert_eq!(strict_majority(&[1, 3, 2, 2]), None);
        assert_eq!(strict_majority(&[1, 2, 3]), None);
    }

    #[test]
    fn root_only_tree_resolves_to_root() {
        let mut t = IgTree::new(4, ProcessId(0));
        t.set_root(Value(1));
        let c = convert(&t, Conversion::Resolve);
        assert_eq!(c.root(), Res::Val(Value(1)));
        assert_eq!(c.ops(), 0);
    }
}
