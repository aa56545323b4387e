//! The Fault Discovery Rules (paper §3 and §4.2).
//!
//! During Information Gathering, a correct processor `p` adds `r ∉ L_p` to
//! `L_p` if for some internal node `αr` of its tree:
//!
//! * there is no majority value for `αr` (no value stored at a strict
//!   majority of its children), **or**
//! * a majority value exists, but values other than it are stored at more
//!   than `t − |L_p|` children `αrq` with `q ∉ L_p`.
//!
//! Algorithm A additionally applies the same rule **during conversion**,
//! over the children's *converted* values, which is what lets it globally
//! detect the processors on a common-frontier-free path above the leaf
//! parents (Corollary 3).
//!
//! Both rules are evaluated against a *snapshot* of `L_p`: the paper
//! specifies that masking of previously-known faults happens first, then
//! discovery runs on the resulting tree, then the newly discovered
//! processors' current-round messages are masked.
//!
//! On [`Planes`] levels a node's children are one contiguous slot range,
//! so the rule is word arithmetic. On one-plane data the node's counts
//! of 0s, 1s and `⊥`s are popcounts of its child window; the largest is
//! the majority's support `c` when `2c > w`. The node passes outright
//! when its minority `w − c` is at most `min(t − |L_p|, ⌊(w−1)/2⌋)`:
//! a majority exists (`w − c < w/2`) and even if every dissenter were
//! outside `L_p` the dissent would fit the budget — exactly the slot
//! rule's verdict, and the common case. Otherwise (and on wider data,
//! whose majority is taken plane by plane, see [`crate::convert`]) the
//! dissent mask — the range's slots not holding the majority — is
//! walked bit by bit and each dissenter's sender checked against `L_p`:
//! the same count as the slot rule, read off the set bits only.

use std::ops::Range;

use sg_sim::ProcessId;

use crate::fault_list::FaultList;
use crate::level::Planes;
use crate::resolve::Converted;
use crate::tree::IgTree;

/// The outcome of running a discovery rule over a tree.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DiscoveryReport {
    /// Processors newly discovered faulty, ascending id order, excluding
    /// anything already in the snapshot list.
    pub discovered: Vec<ProcessId>,
    /// Local-computation charge (children inspected).
    pub ops: u64,
}

impl DiscoveryReport {
    /// Empties the report, keeping its buffer.
    pub fn clear(&mut self) {
        self.discovered.clear();
        self.ops = 0;
    }
}

/// Evaluates the two discovery conditions for one internal node.
///
/// `children` is the node's child range of `level` (stored or converted
/// values), `sender(j)` the processor labelling slot `j`, `budget` the
/// tolerated dissent `t − |L_p|`. Returns `true` if the node's processor
/// must be discovered.
#[inline]
pub(crate) fn node_violates(
    level: &Planes,
    children: Range<usize>,
    sender: impl Fn(usize) -> ProcessId,
    budget: usize,
    snapshot: &FaultList,
) -> bool {
    let Some((m, support)) = level.majority(children.clone()) else {
        return true;
    };
    if children.len() - support <= budget {
        return false;
    }
    let dissent = level
        .others_in(children, m)
        .filter(|&j| !snapshot.contains(sender(j)))
        .count();
    dissent > budget
}

/// One level's worth of the rule: node `i` of the parent level blames
/// `blamed[i]` over its children `children[i·w..(i+1)·w]`, whose senders
/// are `child_labels[i·w..(i+1)·w]`. `report` carries discoveries across
/// calls so a processor is reported once (the list holds at most `n`
/// names and is usually empty, so nothing is allocated until somebody is
/// blamed).
fn discover_level(
    blamed: &[u8],
    children: &Planes,
    child_labels: &[u8],
    t: usize,
    snapshot: &FaultList,
    report: &mut DiscoveryReport,
) {
    debug_assert_eq!(children.len(), child_labels.len());
    report.ops += children.len() as u64;
    let width = children.len() / blamed.len();
    let budget = t.saturating_sub(snapshot.len());
    let sender = |j: usize| ProcessId(child_labels[j] as usize);
    // On one-plane data a node whose minority fits the budget passes on
    // the popcounts of its window, read before anything else about it.
    let binary = children.binary().filter(|_| width <= 64);
    let tolerated = budget.min((width - 1) / 2);
    for (i, &r) in blamed.iter().enumerate() {
        if let Some(binary) = binary {
            let support = binary.tally(i * width, width).into_iter().max();
            if width - support.unwrap_or(0) <= tolerated {
                continue;
            }
        }
        let r = ProcessId(r as usize);
        if snapshot.contains(r) || report.discovered.contains(&r) {
            continue;
        }
        if node_violates(
            children,
            i * width..(i + 1) * width,
            sender,
            budget,
            snapshot,
        ) {
            report.discovered.push(r);
        }
    }
}

/// The Fault Discovery Rule during Information Gathering, applied to the
/// parents of the tree's freshest level.
///
/// Only the parents of the deepest level are examined: every shallower
/// node's children are unchanged since the round in which they were
/// stored, so the rule was already evaluated for them then.
///
/// # Panics
///
/// Panics if the tree has fewer than two levels (there are no parents to
/// examine before round 2).
pub fn discover_ig(tree: &IgTree, t: usize, snapshot: &FaultList) -> DiscoveryReport {
    let mut report = DiscoveryReport::default();
    discover_ig_into(tree, t, snapshot, &mut report);
    report
}

/// [`discover_ig`] into a kept report, which it overwrites: a warm
/// caller records its finds without allocating.
///
/// # Panics
///
/// As [`discover_ig`].
pub fn discover_ig_into(
    tree: &IgTree,
    t: usize,
    snapshot: &FaultList,
    report: &mut DiscoveryReport,
) {
    let deepest = tree.deepest_level();
    assert!(deepest >= 1, "discovery needs a stored child level");
    report.clear();
    discover_level(
        tree.labels(deepest - 1),
        tree.level(deepest),
        tree.labels(deepest),
        t,
        snapshot,
        report,
    );
    report.discovered.sort_unstable();
}

/// Algorithm A's Fault Discovery Rule During Conversion, applied to every
/// internal node of a fully converted tree.
///
/// `converted` must come from [`crate::convert`] on `tree` (same shape).
///
/// # Panics
///
/// Panics if `converted` and `tree` disagree on depth.
pub fn discover_during_conversion(
    tree: &IgTree,
    converted: &Converted,
    t: usize,
    snapshot: &FaultList,
) -> DiscoveryReport {
    let mut report = DiscoveryReport::default();
    discover_during_conversion_into(tree, converted, t, snapshot, &mut report);
    report
}

/// [`discover_during_conversion`] into a kept report, which it
/// overwrites.
///
/// # Panics
///
/// As [`discover_during_conversion`].
pub fn discover_during_conversion_into(
    tree: &IgTree,
    converted: &Converted,
    t: usize,
    snapshot: &FaultList,
    report: &mut DiscoveryReport,
) {
    assert_eq!(
        converted.depth(),
        tree.deepest_level() + 1,
        "converted tree must match the gathered tree"
    );
    report.clear();
    for k in 0..tree.deepest_level() {
        discover_level(
            tree.labels(k),
            converted.level(k + 1),
            tree.labels(k + 1),
            t,
            snapshot,
            report,
        );
    }
    report.discovered.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::{convert, Conversion};
    use sg_sim::Value;

    /// n = 5, t = 1 system; source P0. Level 1 = children of the root.
    fn tree_with_level1(vals: [u16; 4]) -> IgTree {
        let mut t = IgTree::new(5, ProcessId(0));
        t.set_root(Value(1));
        let mut it = vals.into_iter();
        t.append_level(|_, _| Value(it.next().unwrap()));
        t
    }

    #[test]
    fn no_majority_discovers_source() {
        // Children of the root split 2-2: no strict majority -> discover s.
        let t = tree_with_level1([1, 1, 0, 0]);
        let report = discover_ig(&t, 1, &FaultList::new(5));
        assert_eq!(report.discovered, vec![ProcessId(0)]);
    }

    #[test]
    fn small_dissent_tolerated() {
        // Majority 1 with a single dissenting child: 1 <= t - |L| = 1.
        let t = tree_with_level1([1, 1, 1, 0]);
        let report = discover_ig(&t, 1, &FaultList::new(5));
        assert!(report.discovered.is_empty());
    }

    #[test]
    fn dissent_over_budget_discovers() {
        // Majority 1 (3 of 4), one dissenter, but t - |L| = 0 because one
        // fault is already known.
        let t = tree_with_level1([1, 1, 1, 0]);
        let mut l = FaultList::new(5);
        l.insert(ProcessId(2), 1); // P2 already discovered
                                   // The dissenting child is the 4th (P4): not in L, so dissent 1 > 0.
        let report = discover_ig(&t, 1, &l);
        assert_eq!(report.discovered, vec![ProcessId(0)]);
    }

    #[test]
    fn dissent_from_known_faults_does_not_count() {
        // Same tree, but the dissenting child *is* the known fault.
        // Children order is P1, P2, P3, P4; dissenter is P2.
        let t = tree_with_level1([1, 0, 1, 1]);
        let mut l = FaultList::new(5);
        l.insert(ProcessId(2), 1);
        let report = discover_ig(&t, 1, &l);
        assert!(report.discovered.is_empty());
    }

    #[test]
    fn already_listed_processors_are_not_rediscovered() {
        let t = tree_with_level1([1, 1, 0, 0]);
        let mut l = FaultList::new(5);
        l.insert(ProcessId(0), 1); // source already known faulty
        let report = discover_ig(&t, 1, &l);
        assert!(report.discovered.is_empty());
    }

    #[test]
    fn deeper_level_blames_last_label() {
        // n=5: level 2 children of node s·P1 are P2, P3, P4.
        let mut t = tree_with_level1([1, 1, 1, 1]);
        let mut vals = vec![Value(1); 12];
        // Node s·P1 occupies parents index 0: children block 0..3.
        vals[0] = Value(1);
        vals[1] = Value(0);
        vals[2] = Value(2); // no majority among {1, 0, 2}
        let mut it = vals.into_iter();
        t.append_level(|_, _| it.next().unwrap());
        let report = discover_ig(&t, 1, &FaultList::new(5));
        assert_eq!(report.discovered, vec![ProcessId(1)]);
    }

    #[test]
    fn conversion_rule_sees_converted_values() {
        // Two-level tree where stored values are fine per node but the
        // converted values at level 1 split 2-2, blaming the source.
        let mut t = tree_with_level1([1, 1, 0, 0]);
        // Give each level-1 node unanimous children matching its value, so
        // only the root violates — and only under the conversion rule.
        let level1: Vec<Value> = t.level(1).to_vec();
        let shape = *t.shape();
        let mut vals = Vec::new();
        for (i, v) in level1.iter().enumerate() {
            for _ in 0..shape.children_per_node(1) {
                let _ = i;
                vals.push(*v);
            }
        }
        let mut it = vals.into_iter();
        t.append_level(|parent, _| {
            let _ = parent;
            it.next().unwrap()
        });
        // Fresh-level IG discovery on level 2 parents: all unanimous, fine.
        let ig = discover_ig(&t, 1, &FaultList::new(5));
        assert!(ig.discovered.is_empty());
        // Conversion discovery sees the 2-2 split at the root.
        let conv = convert(&t, Conversion::ResolvePrime { t: 1 });
        let report = discover_during_conversion(&t, &conv, 1, &FaultList::new(5));
        assert_eq!(report.discovered, vec![ProcessId(0)]);
    }

    #[test]
    fn ops_charged_per_child() {
        let t = tree_with_level1([1, 1, 1, 1]);
        let report = discover_ig(&t, 1, &FaultList::new(5));
        assert_eq!(report.ops, 4);
    }
}
