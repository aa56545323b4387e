//! The one scalar strategy of every selection-based [`Family`].
//!
//! [`FamilyStrategy`] holds the family value, the run's seed and the
//! family's shared name, and its [`Adversary::payload`] matches on the
//! variant: each arm is that family's rule. Rules that want to look
//! honest start from the sender's *shadow* payload (what the corrupted
//! processor would have sent if honest) and corrupt it; rules that want
//! chaos build payloads from scratch.

use std::collections::HashMap;
use std::sync::Arc;

use sg_sim::{Adversary, AdversaryView, Payload, ProcessId, ProcessSet, Value};

use crate::family::Family;
use crate::util::{flip, map_shadow, random_payload, repeated, shadow_or_missing};

/// The scalar strategy of a [`Family`] that corrupts through a
/// [`crate::FaultSelection`]: every variant but no faults, a tape and a
/// replay, which [`Family::strategy`] builds as their own types.
#[derive(Clone, Debug)]
pub(crate) struct FamilyStrategy {
    family: Family,
    /// The RNG seed of the seeded families (`random-liar`,
    /// `chain-revealer`); the others ignore it.
    seed: u64,
    /// `<family>(<parameters>,<selection>)`, shared into every outcome.
    name: Arc<str>,
    /// `stale-shadow`'s per-run state: each member's shadow of the round
    /// before.
    stash: HashMap<ProcessId, Payload>,
}

impl FamilyStrategy {
    /// The strategy of `family` for the run seeded `seed`.
    pub(crate) fn new(family: Family, seed: u64) -> Self {
        let params = match &family {
            Family::Crash { round, .. } => format!("r={round},"),
            Family::ChainRevealer { start, block, .. } => {
                format!("start={start},stride={},", (*block).max(1))
            }
            Family::StaggeredSplit { start, block, .. } => format!("start={start},stride={block},"),
            Family::Partition {
                split, from, to, ..
            } => format!("split={split},r={from}..{to},"),
            Family::Omission { period, phase, .. } => {
                format!("p={},ph={phase},", (*period).max(1))
            }
            Family::Equivocate { split, start, .. } => format!("split={split},r>={start},"),
            Family::Adaptive { schedule, .. } => {
                let rounds: Vec<String> = schedule.iter().map(usize::to_string).collect();
                format!("r=[{}],", rounds.join(","))
            }
            _ => String::new(),
        };
        let selection = family
            .selection()
            .expect("a selection-based family")
            .describe();
        let name = Arc::from(format!("{}({params}{selection})", family.name()).as_str());
        FamilyStrategy {
            family,
            seed,
            name,
            stash: HashMap::new(),
        }
    }
}

impl Adversary for FamilyStrategy {
    fn name(&self) -> String {
        self.name.to_string()
    }

    fn name_shared(&self) -> Arc<str> {
        self.name.clone()
    }

    fn reseed(&mut self, seed: u64) -> bool {
        self.seed = seed;
        self.stash.clear();
        true
    }

    fn corrupt(&mut self, n: usize, t: usize, source: ProcessId) -> ProcessSet {
        self.stash.clear();
        self.family
            .selection()
            .expect("a selection-based family")
            .select(n, t, source)
    }

    fn payload(
        &mut self,
        sender: ProcessId,
        recipient: ProcessId,
        view: &AdversaryView<'_>,
    ) -> Payload {
        // Each arm is the rule its variant's docs describe.
        match &self.family {
            Family::Crash { round, .. } => {
                if view.round >= *round {
                    Payload::Missing
                } else {
                    shadow_or_missing(view, sender)
                }
            }
            Family::Silent(_) => Payload::Missing,
            Family::RandomLiar(_) => {
                let len = view.expected_len(sender);
                if len == 0 {
                    return Payload::Missing;
                }
                random_payload(self.seed, sender, recipient, view, len)
            }
            Family::TwoFaced(_) => {
                if recipient.index().is_multiple_of(2) {
                    shadow_or_missing(view, sender)
                } else {
                    map_shadow(view, sender, |_, v| flip(view, v))
                }
            }
            Family::EquivocatingSource(_) => {
                if sender != view.source {
                    return shadow_or_missing(view, sender);
                }
                let claimed = Value(recipient.index() as u16 % view.domain.size());
                if view.round == 1 {
                    return Payload::values([claimed]);
                }
                let len = view.expected_len(sender);
                if len == 0 {
                    return Payload::Missing;
                }
                repeated(claimed, len)
            }
            Family::Stealth(_) => {
                let len = view.expected_len(sender);
                if len == 0 {
                    return shadow_or_missing(view, sender);
                }
                let target = (view.round + recipient.index()) % len;
                map_shadow(
                    view,
                    sender,
                    |i, v| if i == target { flip(view, v) } else { v },
                )
            }
            Family::ChainRevealer { start, block, .. } => {
                let rank = view.faulty.iter().position(|p| p == sender).unwrap_or(0);
                if view.round < start + rank * (*block).max(1) {
                    return shadow_or_missing(view, sender);
                }
                let len = view.expected_len(sender);
                if len == 0 {
                    return Payload::Missing;
                }
                random_payload(self.seed, sender, recipient, view, len)
            }
            Family::DoubleTalk(_) => {
                let story = Value(u16::from(recipient.index() < view.n / 2));
                let len = if sender == view.source && view.round == 1 {
                    1
                } else {
                    view.expected_len(sender)
                };
                if len == 0 {
                    return Payload::Missing;
                }
                repeated(story, len)
            }
            Family::StaggeredSplit { start, block, .. } => {
                let story = Value(u16::from(recipient.index() < view.n / 2));
                if sender == view.source {
                    return if view.round == 1 {
                        Payload::values([story])
                    } else {
                        shadow_or_missing(view, sender)
                    };
                }
                let rank = view
                    .faulty
                    .iter()
                    .filter(|p| *p != view.source)
                    .position(|p| p == sender)
                    .unwrap_or(0);
                if view.round < start + rank * block {
                    return shadow_or_missing(view, sender);
                }
                let len = view.expected_len(sender);
                if len == 0 {
                    return Payload::Missing;
                }
                repeated(story, len)
            }
            Family::Collusion(_) => {
                let lie = flip(view, view.source_value);
                if sender == view.source && view.round == 1 {
                    return Payload::values([lie]);
                }
                let len = view.expected_len(sender);
                if len == 0 {
                    return Payload::Missing;
                }
                repeated(lie, len)
            }
            Family::StaleShadow(_) => {
                let out = self.stash.get(&sender).cloned().unwrap_or(Payload::Missing);
                // Refreshed once per round, on the sender's first recipient.
                if recipient.index() == (0..view.n).find(|&r| r != sender.index()).unwrap_or(0) {
                    self.stash.insert(sender, shadow_or_missing(view, sender));
                }
                out
            }
            Family::FrontierBreaker(_) => frontier_lie(sender, recipient, view),
            Family::Partition {
                split, from, to, ..
            } => {
                if cut(*split, *from, *to, sender, recipient, view.round) {
                    Payload::Missing
                } else {
                    shadow_or_missing(view, sender)
                }
            }
            Family::Omission { period, phase, .. } => {
                let slot = view.round + sender.index() + recipient.index() + phase;
                if slot.is_multiple_of((*period).max(1)) {
                    Payload::Missing
                } else {
                    shadow_or_missing(view, sender)
                }
            }
            Family::Equivocate { split, start, .. } => {
                if view.round < *start {
                    return shadow_or_missing(view, sender);
                }
                let len = view.expected_len(sender);
                if len == 0 {
                    return Payload::Missing;
                }
                repeated(Value(u16::from(recipient.index() >= *split)), len)
            }
            Family::Adaptive { schedule, .. } => {
                let rank = view
                    .faulty
                    .iter()
                    .position(|p| p == sender)
                    .expect("sender is faulty");
                if schedule.get(rank).is_none_or(|&turn| view.round < turn) {
                    return shadow_or_missing(view, sender);
                }
                let lie = flip(view, view.source_value);
                if view.round == 1 && sender == view.source {
                    return Payload::values([lie]);
                }
                let len = view.expected_len(sender);
                if len == 0 {
                    return Payload::Missing;
                }
                repeated(lie, len)
            }
            Family::NoFaults | Family::Tape(_) | Family::Replay(_) => {
                unreachable!("Family::strategy builds these as their own types")
            }
        }
    }

    fn has_edge_faults(&self) -> bool {
        matches!(self.family, Family::Partition { .. })
    }

    fn edge_cut(
        &mut self,
        sender: ProcessId,
        recipient: ProcessId,
        view: &AdversaryView<'_>,
    ) -> bool {
        match self.family {
            Family::Partition {
                split, from, to, ..
            } => cut(split, from, to, sender, recipient, view.round),
            _ => false,
        }
    }
}

/// Whether a partition cuts the edge `a → b` in `round`: the round is in
/// `from..=to` and the edge crosses the id boundary `split`.
fn cut(split: usize, from: usize, to: usize, a: ProcessId, b: ProcessId, round: usize) -> bool {
    (from..=to).contains(&round) && (a.index() < split) != (b.index() < split)
}

/// `frontier-breaker`'s payload: the members form a chain `f₁, …, f_k`
/// (the source first if corrupted, then ascending id), and `f_j` lies by
/// recipient parity exactly about the tree node `s·f₁⋯f_{j−1}` above its
/// own position on the attacked path, honest everywhere else. A faulty
/// source equivocates in round 1 — the root of the path.
fn frontier_lie(sender: ProcessId, recipient: ProcessId, view: &AdversaryView<'_>) -> Payload {
    if sender == view.source && view.round == 1 {
        return Payload::values([Value((recipient.index() as u16) % view.domain.size())]);
    }
    let mut chain: Vec<ProcessId> = Vec::new();
    if view.faulty.contains(view.source) {
        chain.push(view.source);
    }
    chain.extend(view.faulty.iter().filter(|f| *f != view.source));
    let Some(rank) = chain.iter().position(|f| *f == sender) else {
        return shadow_or_missing(view, sender);
    };
    // The node this fault lies about: the chain prefix above it (without
    // the leading source, which labels the root).
    let target: Vec<ProcessId> = chain[..rank]
        .iter()
        .copied()
        .filter(|p| *p != view.source)
        .collect();
    let Some(shadow) = view.shadow_of(sender) else {
        return Payload::Missing;
    };
    if !matches!(shadow, Payload::Values(_) | Payload::Bits { .. }) {
        return Payload::Missing;
    }
    let len = shadow.num_values();
    // Locate the target node's index in the level being broadcast.
    let shape = sg_eigtree::Shape::new(view.n, view.source);
    let mut level = 0usize;
    while shape.level_size(level) < len {
        level += 1;
    }
    if shape.level_size(level) != len || target.len() != level {
        // Not the level containing the target: behave honestly.
        return shadow.clone();
    }
    let Some(idx) = shape.index_of(&target) else {
        return shadow.clone();
    };
    let mut out: Vec<Value> = (0..len)
        .map(|i| shadow.value_at(i).expect("index in range"))
        .collect();
    if recipient.index() % 2 == 1 {
        out[idx] = flip(view, out[idx]);
    }
    Payload::Values(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultSelection;

    fn view_fixture<'a>(
        faulty: &'a ProcessSet,
        shadow: &'a [Option<Payload>],
    ) -> AdversaryView<'a> {
        AdversaryView {
            round: 2,
            total_rounds: 4,
            n: 4,
            t: 1,
            source: ProcessId(0),
            source_value: Value(1),
            domain: sg_sim::ValueDomain::binary(),
            faulty,
            honest_broadcast: &[],
            shadow_broadcast: shadow,
            sigs: None,
        }
    }

    fn shadow_with(sender: usize, vals: Vec<Value>) -> Vec<Option<Payload>> {
        let mut v: Vec<Option<Payload>> = vec![None; 4];
        v[sender] = Some(Payload::Values(vals));
        v
    }

    #[test]
    fn crash_follows_shadow_then_stops() {
        let faulty = ProcessSet::from_members(4, [ProcessId(1)]);
        let shadow = shadow_with(1, vec![Value(1), Value(0)]);
        let selection = FaultSelection::without_source();
        let mut adv = Family::Crash {
            selection,
            round: 3,
        }
        .strategy(0);
        let view = view_fixture(&faulty, &shadow);
        assert_eq!(
            adv.payload(ProcessId(1), ProcessId(2), &view),
            Payload::values([Value(1), Value(0)])
        );
        let mut view_late = view_fixture(&faulty, &shadow);
        view_late.round = 3;
        assert_eq!(
            adv.payload(ProcessId(1), ProcessId(2), &view_late),
            Payload::Missing
        );
    }

    #[test]
    fn two_faced_flips_for_odd_recipients() {
        let faulty = ProcessSet::from_members(4, [ProcessId(1)]);
        let shadow = shadow_with(1, vec![Value(1), Value(0)]);
        let mut adv = Family::TwoFaced(FaultSelection::without_source()).strategy(0);
        let view = view_fixture(&faulty, &shadow);
        assert_eq!(
            adv.payload(ProcessId(1), ProcessId(2), &view),
            Payload::values([Value(1), Value(0)])
        );
        assert_eq!(
            adv.payload(ProcessId(1), ProcessId(3), &view),
            Payload::values([Value(0), Value(1)])
        );
    }

    #[test]
    fn stealth_flips_exactly_one_position() {
        let faulty = ProcessSet::from_members(4, [ProcessId(1)]);
        let shadow = shadow_with(1, vec![Value(1), Value(1), Value(1)]);
        let mut adv = Family::Stealth(FaultSelection::without_source()).strategy(0);
        let view = view_fixture(&faulty, &shadow);
        let got = adv.payload(ProcessId(1), ProcessId(2), &view);
        if let Payload::Values(vals) = got {
            let flipped = vals.iter().filter(|v| **v == Value(0)).count();
            assert_eq!(flipped, 1);
        } else {
            panic!("expected values");
        }
    }

    #[test]
    fn random_liar_is_deterministic_per_seed() {
        let faulty = ProcessSet::from_members(4, [ProcessId(1)]);
        let shadow = shadow_with(1, vec![Value(1), Value(1)]);
        let family = Family::RandomLiar(FaultSelection::without_source());
        let (mut a, mut b) = (family.strategy(42), family.strategy(42));
        let view = view_fixture(&faulty, &shadow);
        assert_eq!(
            a.payload(ProcessId(1), ProcessId(3), &view),
            b.payload(ProcessId(1), ProcessId(3), &view)
        );
    }

    #[test]
    fn chain_revealer_is_honest_before_reveal() {
        let faulty = ProcessSet::from_members(4, [ProcessId(1), ProcessId(2)]);
        let shadow = shadow_with(1, vec![Value(1)]);
        let mut adv = Family::ChainRevealer {
            selection: FaultSelection::without_source(),
            start: 5,
            block: 3,
        }
        .strategy(7);
        let view = view_fixture(&faulty, &shadow);
        // Round 2 < reveal at 5: honest shadow.
        assert_eq!(
            adv.payload(ProcessId(1), ProcessId(3), &view),
            Payload::values([Value(1)])
        );
    }

    #[test]
    fn collusion_tells_one_coherent_lie() {
        let faulty = ProcessSet::from_members(4, [ProcessId(1)]);
        let shadow = shadow_with(1, vec![Value(1), Value(1)]);
        let mut adv = Family::Collusion(FaultSelection::without_source()).strategy(0);
        let view = view_fixture(&faulty, &shadow);
        // source_value = 1 -> the lie is 0, everywhere, to everyone.
        assert_eq!(
            adv.payload(ProcessId(1), ProcessId(0), &view),
            Payload::values([Value(0), Value(0)])
        );
        assert_eq!(
            adv.payload(ProcessId(1), ProcessId(3), &view),
            Payload::values([Value(0), Value(0)])
        );
    }

    #[test]
    fn replay_sends_previous_rounds_shadow() {
        let faulty = ProcessSet::from_members(4, [ProcessId(1)]);
        let shadow = shadow_with(1, vec![Value(1), Value(0)]);
        let mut adv = Family::StaleShadow(FaultSelection::without_source()).strategy(0);
        let view = view_fixture(&faulty, &shadow);
        // First round seen: nothing stashed yet.
        assert_eq!(
            adv.payload(ProcessId(1), ProcessId(0), &view),
            Payload::Missing
        );
        // Next call (new round in a real run): the stash now replays.
        assert_eq!(
            adv.payload(ProcessId(1), ProcessId(0), &view),
            Payload::values([Value(1), Value(0)])
        );
    }

    #[test]
    fn stale_shadow_starts_every_run_empty() {
        let faulty = ProcessSet::from_members(4, [ProcessId(1)]);
        let shadow = shadow_with(1, vec![Value(1), Value(0)]);
        let view = view_fixture(&faulty, &shadow);
        let mut adv = Family::StaleShadow(FaultSelection::without_source()).strategy(0);
        // A new run starts from an empty stash, after `corrupt` and after
        // `reseed` alike: its first round sends nothing.
        for start in [
            |adv: &mut dyn Adversary| drop(adv.corrupt(4, 1, ProcessId(0))),
            |adv: &mut dyn Adversary| assert!(adv.reseed(9)),
        ] {
            adv.payload(ProcessId(1), ProcessId(0), &view);
            start(adv.as_mut());
            assert_eq!(
                adv.payload(ProcessId(1), ProcessId(0), &view),
                Payload::Missing
            );
        }
    }

    #[test]
    fn equivocating_source_without_the_source_relays_shadows() {
        let selection = FaultSelection::explicit([ProcessId(1)]);
        let mut adv = Family::EquivocatingSource(selection).strategy(0);
        let faulty = adv.corrupt(4, 1, ProcessId(0));
        assert!(!faulty.contains(ProcessId(0)));
        let shadow = shadow_with(1, vec![Value(1), Value(0)]);
        let view = view_fixture(&faulty, &shadow);
        assert_eq!(
            adv.payload(ProcessId(1), ProcessId(2), &view),
            Payload::values([Value(1), Value(0)])
        );
    }

    #[test]
    fn double_talk_splits_the_world() {
        let faulty = ProcessSet::from_members(4, [ProcessId(1)]);
        let shadow = shadow_with(1, vec![Value(1), Value(1)]);
        let mut adv = Family::DoubleTalk(FaultSelection::without_source()).strategy(0);
        let view = view_fixture(&faulty, &shadow);
        assert_eq!(
            adv.payload(ProcessId(1), ProcessId(0), &view),
            Payload::values([Value(1), Value(1)])
        );
        assert_eq!(
            adv.payload(ProcessId(1), ProcessId(3), &view),
            Payload::values([Value(0), Value(0)])
        );
    }

    fn staggered_split(start: usize, block: usize) -> Box<dyn Adversary> {
        Family::StaggeredSplit {
            selection: FaultSelection::with_source(),
            start,
            block,
        }
        .strategy(0)
    }

    #[test]
    fn staggered_split_is_honest_before_activation() {
        let faulty = ProcessSet::from_members(4, [ProcessId(0), ProcessId(2)]);
        let shadow = shadow_with(2, vec![Value(1)]);
        let mut adv = staggered_split(4, 2);
        let view = view_fixture(&faulty, &shadow); // round 2
                                                   // P2 is conspirator rank 0, activates at round 4: honest in round 2.
        assert_eq!(
            adv.payload(ProcessId(2), ProcessId(1), &view),
            Payload::values([Value(1)])
        );
        let mut late = view_fixture(&faulty, &shadow);
        late.round = 4;
        // After activation: lower-half recipients hear 1, upper half 0.
        assert_eq!(
            adv.payload(ProcessId(2), ProcessId(1), &late),
            Payload::values([Value(1)])
        );
        assert_eq!(
            adv.payload(ProcessId(2), ProcessId(3), &late),
            Payload::values([Value(0)])
        );
    }

    #[test]
    fn staggered_split_source_splits_round_one() {
        let faulty = ProcessSet::from_members(4, [ProcessId(0)]);
        let shadow = shadow_with(0, vec![Value(1)]);
        let mut adv = staggered_split(2, 2);
        let mut view = view_fixture(&faulty, &shadow);
        view.round = 1;
        assert_eq!(
            adv.payload(ProcessId(0), ProcessId(1), &view),
            Payload::values([Value(1)])
        );
        assert_eq!(
            adv.payload(ProcessId(0), ProcessId(3), &view),
            Payload::values([Value(0)])
        );
    }
}
