//! Differential test of the bit-plane rules against a copy of the
//! value-vector code they replaced (`Vec<Value>` levels, `Vec<Res>`
//! conversions, a row-major `n × n` leaf vector), kept here verbatim in
//! substance as the reference: the strict majority with its count,
//! `resolve`, `resolve'`, both discovery predicates, the echo threshold
//! and the leaf reorder, each on random levels at `n` from 4 to 64 and at
//! `n = 70`, with random `L_p` snapshots, `⊥` children, and value
//! domains 2, 3, 5 and `u16::MAX`. Whole trees are compared too, so the
//! child ranges `convert` and the discovery passes cut are checked, not
//! only the range rules.

use sg_sim::{ProcessId, ProcessSet, Value};

use crate::discovery::{discover_during_conversion, discover_ig, node_violates};
use crate::fault_list::FaultList;
use crate::level::Planes;
use crate::rep_tree::RepTree;
use crate::resolve::{convert, Conversion, Res};
use crate::tree::{Claim, IgTree};

/// The value-vector code the planes replaced.
mod reference {
    use super::*;

    pub fn majority_with_count<T: Eq + Copy>(items: &[T]) -> Option<(T, usize)> {
        let occurrences = |c: T| items.iter().filter(|&&x| x == c).count();
        let first = *items.first()?;
        let lead = occurrences(first);
        if 2 * lead > items.len() {
            return Some((first, lead));
        }
        let second = *items.iter().find(|&&x| x != first)?;
        let runner = occurrences(second);
        if 2 * runner > items.len() {
            return Some((second, runner));
        }
        if lead + runner == items.len() {
            return None;
        }
        let mut candidate = first;
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
        let support = occurrences(candidate);
        (2 * support > items.len()).then_some((candidate, support))
    }

    pub fn resolve(children: &[Res]) -> Res {
        match majority_with_count(children) {
            Some((r, _)) => Res::Val(r.value_or_default()),
            None => Res::Val(Value::DEFAULT),
        }
    }

    pub fn resolve_prime(children: &[Res], t: usize) -> Res {
        let mut winner: Option<Value> = None;
        for (j, &r) in children.iter().enumerate() {
            let Res::Val(v) = r else { continue };
            if children[..j].contains(&r) {
                continue;
            }
            let count = 1 + children[j + 1..].iter().filter(|&&c| c == r).count();
            if j == 0 && count > t && children.len() - count <= t {
                return r;
            }
            if count > t {
                if winner.is_some() {
                    return Res::Bottom;
                }
                winner = Some(v);
            }
        }
        winner.map_or(Res::Bottom, Res::Val)
    }

    pub fn node_violates<T: Eq + Copy>(
        children: &[T],
        labels: &[u8],
        budget: usize,
        snapshot: &FaultList,
    ) -> bool {
        let Some((m, support)) = majority_with_count(children) else {
            return true;
        };
        if children.len() - support <= budget {
            return false;
        }
        let dissent = children
            .iter()
            .zip(labels)
            .filter(|(v, &q)| **v != m && !snapshot.contains(ProcessId(q as usize)))
            .count();
        dissent > budget
    }

    pub fn node_violates_rep(children: &[Value], t: usize, snapshot: &FaultList) -> bool {
        match majority_with_count(children) {
            None => true,
            Some((m, _)) => {
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

    pub fn echo_quorum(echoes: &[Value], root: Value, t: usize) -> bool {
        echoes.iter().filter(|&&v| v == root).count() + t >= echoes.len()
    }

    pub fn reorder(leaves: &mut [Value], n: usize) {
        for p in 0..n {
            for q in (p + 1)..n {
                leaves.swap(p * n + q, q * n + p);
            }
        }
    }
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, k: u64) -> u64 {
        self.next() % k
    }

    /// A value of a domain of `size`: mostly one `lead` value, so nodes
    /// both keep and lose their majorities.
    fn value(&mut self, size: u32, lead: u16) -> Value {
        if self.below(4) == 0 {
            Value((self.next() % u64::from(size)) as u16)
        } else {
            Value(lead)
        }
    }

    fn snapshot(&mut self, n: usize, t: usize) -> FaultList {
        let mut list = FaultList::new(n);
        for _ in 0..self.below(t as u64 + 1) {
            list.insert(ProcessId(self.below(n as u64) as usize), 1);
        }
        list
    }
}

const DOMAINS: [u32; 4] = [2, 3, 5, u16::MAX as u32];

fn sizes() -> impl Iterator<Item = usize> {
    (4..=64).chain([70])
}

fn planes_of(results: &[Res]) -> Planes {
    let bottom = results.contains(&Res::Bottom);
    let mut level = Planes::zeroed(results.len(), 1, bottom);
    for (i, &r) in results.iter().enumerate() {
        level.put(i, r);
    }
    level
}

#[test]
fn range_rules_match_the_value_vector_code() {
    let mut rng = Rng(1);
    for n in sizes() {
        for size in DOMAINS {
            for _ in 0..8 {
                let t = (n - 1) / 3;
                let lead = (rng.next() % u64::from(size)) as u16;
                let with_bottom = rng.below(2) == 0;
                let slots: Vec<Res> = (0..3 * n)
                    .map(|_| {
                        if with_bottom && rng.below(5) == 0 {
                            Res::Bottom
                        } else {
                            Res::Val(rng.value(size, lead))
                        }
                    })
                    .collect();
                let level = planes_of(&slots);
                let labels: Vec<u8> = (0..slots.len())
                    .map(|_| rng.below(n as u64) as u8)
                    .collect();
                let snapshot = rng.snapshot(n, t);
                let budget = t.saturating_sub(snapshot.len());
                let lo = rng.below(n as u64) as usize;
                let range = lo..lo + 1 + rng.below(2 * n as u64) as usize;
                let children = &slots[range.clone()];
                let context = format!("n={n} |V|={size} range={range:?} {children:?}");

                let expected = reference::majority_with_count(children);
                assert_eq!(level.majority(range.clone()), expected, "{context}");
                let resolved = level
                    .majority(range.clone())
                    .map_or(Value::DEFAULT, |(r, _)| r.value_or_default());
                assert_eq!(
                    Res::Val(resolved),
                    reference::resolve(children),
                    "{context}"
                );
                assert_eq!(
                    level.unique_supported(range.clone(), t),
                    reference::resolve_prime(children, t),
                    "{context}"
                );
                let sender = |j: usize| ProcessId(labels[j] as usize);
                assert_eq!(
                    node_violates(&level, range.clone(), sender, budget, &snapshot),
                    reference::node_violates(children, &labels[range.clone()], budget, &snapshot),
                    "{context} L_p={:?}",
                    snapshot.words()
                );
                if !with_bottom {
                    let values: Vec<Value> =
                        children.iter().map(|r| r.value_or_default()).collect();
                    let echoes = planes_of(children);
                    let root = Value(lead);
                    assert_eq!(
                        echoes.count(root) + t >= echoes.len(),
                        reference::echo_quorum(&values, root, t),
                        "{context}"
                    );
                }
            }
        }
    }
}

/// One random tree per shape, held level by level to the value-vector
/// conversions and discovery passes.
#[test]
fn tree_passes_match_the_value_vector_code() {
    let mut rng = Rng(2);
    for n in sizes() {
        let depth = match n {
            ..=8 => 3,
            9..=24 => 2,
            _ => 1,
        };
        for size in DOMAINS {
            let t = (n - 1) / 3;
            let lead = (rng.next() % u64::from(size)) as u16;
            let mut tree = IgTree::new(n, ProcessId(rng.below(n as u64) as usize));
            let root = rng.value(size, lead);
            tree.set_root(root);
            let mut levels: Vec<Vec<Value>> = vec![vec![root]];
            for _ in 0..depth {
                let mut fresh = Vec::new();
                tree.append_level(|_, _| {
                    let v = rng.value(size, lead);
                    fresh.push(v);
                    v
                });
                levels.push(fresh);
            }
            let snapshot = rng.snapshot(n, t);
            let shape = *tree.shape();
            // The reference passes over the same levels and labels.
            let discover = |k: usize, children: &[Res], found: &mut Vec<ProcessId>| {
                let width = shape.children_per_node(k);
                let budget = t.saturating_sub(snapshot.len());
                let blocks = children
                    .chunks_exact(width)
                    .zip(tree.labels(k + 1).chunks_exact(width));
                for (&r, (kids, labels)) in tree.labels(k).iter().zip(blocks) {
                    let r = ProcessId(r as usize);
                    if !snapshot.contains(r)
                        && !found.contains(&r)
                        && reference::node_violates(kids, labels, budget, &snapshot)
                    {
                        found.push(r);
                    }
                }
            };
            let mut expected = Vec::new();
            let deepest: Vec<Res> = levels[depth].iter().map(|&v| Res::Val(v)).collect();
            discover(depth - 1, &deepest, &mut expected);
            expected.sort_unstable();
            assert_eq!(
                discover_ig(&tree, t, &snapshot).discovered,
                expected,
                "n={n} |V|={size}"
            );

            for conversion in [Conversion::Resolve, Conversion::ResolvePrime { t }] {
                let mut converted = vec![deepest.clone()];
                for k in (0..depth).rev() {
                    let width = shape.children_per_node(k);
                    let level = converted[0]
                        .chunks_exact(width)
                        .map(|kids| match conversion {
                            Conversion::Resolve => reference::resolve(kids),
                            Conversion::ResolvePrime { t } => reference::resolve_prime(kids, t),
                        })
                        .collect();
                    converted.insert(0, level);
                }
                let planes = convert(&tree, conversion);
                for (k, level) in converted.iter().enumerate() {
                    let got: Vec<Res> = planes.level(k).results().collect();
                    assert_eq!(&got, level, "n={n} |V|={size} level {k} {conversion:?}");
                }
                let mut expected = Vec::new();
                for k in 0..depth {
                    discover(k, &converted[k + 1], &mut expected);
                }
                expected.sort_unstable();
                let report = discover_during_conversion(&tree, &planes, t, &snapshot);
                assert_eq!(
                    report.discovered, expected,
                    "n={n} |V|={size} {conversion:?}"
                );
            }
        }
    }
}

/// Gathering from claims (bit words, value vectors, the receiver's own
/// level) stores what the slot-by-slot closure stores, from the echo
/// level and, at `n ≤ 12`, from a level of more than 64 parents; the
/// echo word stores what its bits say.
#[test]
fn claim_gathers_match_the_slot_closure() {
    let mut rng = Rng(3);
    for n in sizes() {
        let source = ProcessId(rng.below(n as u64) as usize);
        let me = ProcessId(rng.below(n as u64) as usize);
        let mut by_claims = IgTree::new(n, source);
        by_claims.set_root(Value(1));
        let word = rng.next();
        if n <= 64 {
            by_claims.append_echo(word);
        } else {
            by_claims.append_level(|_, q| Value((word >> (q.index() % 64) & 1) as u16));
        }
        if n <= 12 {
            by_claims.append_level(|_, _| Value(rng.below(2) as u16));
        }
        let parents = by_claims.level(by_claims.deepest_level()).clone();
        let bits: Vec<Vec<u64>> = (0..n)
            .map(|_| {
                (0..parents.len().div_ceil(64))
                    .map(|_| rng.next())
                    .collect()
            })
            .collect();
        let vals: Vec<Vec<Value>> = (0..n)
            .map(|_| {
                (0..parents.len() + 2)
                    .map(|_| Value(rng.below(4) as u16))
                    .collect()
            })
            .collect();
        let domain = sg_sim::ValueDomain::new(3);
        for wide in [false, true] {
            let claims: Vec<Claim<'_>> = (0..n)
                .map(|q| match (q == me.index(), q % 4, wide) {
                    (true, ..) => Claim::Own,
                    (_, 0, _) => Claim::Defaults,
                    (_, 1, true) => Claim::Values(&vals[q]),
                    (_, 3, _) => Claim::Bits {
                        words: &bits[q],
                        len: parents.len() - 1,
                    },
                    _ => Claim::Bits {
                        words: &bits[q],
                        len: parents.len(),
                    },
                })
                .collect();
            let mut by_closure = by_claims.clone();
            let mut gathered = by_claims.clone();
            gathered.append_claims(&claims, domain);
            by_closure.append_level(|i, q| claims[q.index()].at(i, &parents, domain));
            assert_eq!(gathered, by_closure, "n={n} wide={wide}");
            if n <= 64 {
                let level: Vec<Value> = (0..n)
                    .filter(|&q| q != source.index())
                    .map(|q| Value((word >> q & 1) as u16))
                    .collect();
                assert_eq!(by_claims.level(1).to_vec(), level, "n={n}");
                assert_eq!(gathered.level(1), by_claims.level(1), "n={n}");
            }
        }
    }
}

/// Algorithm C's round against the row-major value vector: discovery on
/// the rows, the column mask, the reorder and the row majorities.
#[test]
fn rep_rounds_match_the_value_vector_code() {
    let mut rng = Rng(4);
    for n in sizes() {
        for size in DOMAINS {
            let t = (n - 1) / 3;
            let lead = (rng.next() % u64::from(size)) as u16;
            let mut rep = RepTree::new(n, ProcessId(0));
            rep.set_root(Value(lead));
            let inter: Vec<Value> = (0..n).map(|_| rng.value(size, lead)).collect();
            rep.store_intermediates(|q| inter[q.index()]);
            let snapshot = rng.snapshot(n, t);
            assert_eq!(
                rep.discover_root(t, &snapshot)
                    .discovered
                    .contains(&ProcessId(0)),
                !snapshot.contains(ProcessId(0))
                    && reference::node_violates_rep(&inter, t, &snapshot),
                "n={n} |V|={size}"
            );
            let mut leaves: Vec<Value> = (0..n * n).map(|_| rng.value(size, lead)).collect();
            rep.store_leaves(|w, r| leaves[w * n + r.index()]);
            let expected: Vec<ProcessId> = (0..n)
                .filter(|&w| {
                    !snapshot.contains(ProcessId(w))
                        && reference::node_violates_rep(&leaves[w * n..(w + 1) * n], t, &snapshot)
                })
                .map(ProcessId)
                .collect();
            assert_eq!(
                rep.discover_intermediates(t, &snapshot).discovered,
                expected,
                "n={n}"
            );
            rep.mask_leaves(&ProcessSet::from_members(n, snapshot.iter()));
            for row in leaves.chunks_exact_mut(n) {
                for p in snapshot.iter() {
                    row[p.index()] = Value::DEFAULT;
                }
            }
            rep.reorder();
            reference::reorder(&mut leaves, n);
            for w in 0..n {
                assert_eq!(
                    rep.leaf_row(w),
                    &leaves[w * n..(w + 1) * n],
                    "n={n} row {w}"
                );
            }
            rep.convert_to_intermediates();
            let rows: Vec<Value> = leaves
                .chunks_exact(n)
                .map(|row| reference::majority_with_count(row).map_or(Value::DEFAULT, |(v, _)| v))
                .collect();
            assert_eq!(rep.intermediates().to_vec(), rows, "n={n} |V|={size}");
        }

        // Binary claims go in as rows and are transposed into place.
        let mut rep = RepTree::new(n, ProcessId(0));
        rep.set_root(Value(1));
        let inter: Vec<Value> = (0..n).map(|_| Value(rng.below(2) as u16)).collect();
        rep.store_intermediates(|q| inter[q.index()]);
        let words: Vec<Vec<u64>> = (0..n)
            .map(|_| (0..n.div_ceil(64)).map(|_| rng.next()).collect())
            .collect();
        let me = rng.below(n as u64) as usize;
        let claims: Vec<Claim<'_>> = (0..n)
            .map(|r| match r {
                _ if r == me => Claim::Own,
                _ if r % 5 == 0 => Claim::Defaults,
                _ => Claim::Bits {
                    words: &words[r],
                    len: n - r % 2,
                },
            })
            .collect();
        let mut by_closure = rep.clone();
        rep.store_leaf_claims(&claims, sg_sim::ValueDomain::binary());
        let own = by_closure.intermediates().clone();
        let binary = sg_sim::ValueDomain::binary();
        by_closure.store_leaves(|w, r| claims[r.index()].at(w, &own, binary));
        for w in 0..n {
            assert_eq!(rep.leaf_row(w), by_closure.leaf_row(w), "n={n} row {w}");
        }
    }
}
