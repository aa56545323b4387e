//! The one scalar strategy of every selection-based [`Family`].
//!
//! [`FamilyStrategy`] holds the family value, the run's seed and the
//! family's shared name. Each family's rule is written once, as an
//! in-place write of one slot ([`FamilyStrategy::write`], a match on the
//! variant) given the facts of the sender's row that do not depend on the
//! recipient ([`Row`]: its shadow, the honest length, whether its turn
//! has come). [`Adversary::row`] reads those facts once and writes every
//! recipient's slot of the row in place, reusing the slots' buffers.
//! Rules that want to look honest start from the sender's *shadow*
//! payload (what the corrupted processor would have sent if honest) and
//! corrupt it; rules that want chaos build payloads from scratch.

use std::collections::HashMap;
use std::iter::once;
use std::sync::Arc;

use sg_sim::{Adversary, AdversaryView, Payload, ProcessId, ProcessSet, Value};

use crate::family::Family;
use crate::util::{flip, random_lie, Spare};

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
    /// Heap buffers the written slots gave up (never data, so kept across
    /// runs).
    spare: Spare,
}

/// What one member's rule reads once per row, for all its recipients.
struct Row<'v> {
    sender: ProcessId,
    /// What the sender would broadcast if honest, if anything.
    shadow: Option<&'v Payload>,
    /// The number of values that broadcast carries (0 if silent).
    len: usize,
    /// Whether the member's story has started: its rank's turn has come
    /// (`chain-revealer`, `staggered-split`, `adaptive`), the story's
    /// first round has (`equivocate`), or the crash round has (`crash`).
    turned: bool,
    /// `frontier-breaker`: the slot, in the level being broadcast, of the
    /// node the member lies about.
    target: Option<usize>,
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
            spare: Spare::default(),
        }
    }

    /// The facts of `sender`'s row in the viewed round.
    fn row_facts<'v>(&self, sender: ProcessId, view: &'v AdversaryView<'_>) -> Row<'v> {
        let shadow = view.shadow_of(sender);
        let mut row = Row {
            sender,
            shadow,
            len: shadow.map_or(0, Payload::num_values),
            turned: false,
            target: None,
        };
        let rank = || view.faulty.iter().position(|p| p == sender);
        match &self.family {
            Family::Crash { round, .. } => row.turned = view.round >= *round,
            Family::ChainRevealer { start, block, .. } => {
                row.turned = view.round >= start + rank().unwrap_or(0) * (*block).max(1);
            }
            Family::StaggeredSplit { start, block, .. } => {
                let rank = view
                    .faulty
                    .iter()
                    .filter(|p| *p != view.source)
                    .position(|p| p == sender)
                    .unwrap_or(0);
                row.turned = view.round >= start + rank * block;
            }
            Family::Equivocate { start, .. } => row.turned = view.round >= *start,
            Family::Adaptive { schedule, .. } => {
                let rank = rank().expect("sender is faulty");
                row.turned = schedule.get(rank).is_some_and(|&turn| view.round >= turn);
            }
            Family::FrontierBreaker(_) => frontier_target(&mut row, view),
            _ => {}
        }
        row
    }

    /// Writes what the member of `row` tells `recipient` into `slot`:
    /// each arm is the rule its variant's docs describe.
    #[inline(always)]
    fn write(
        &mut self,
        row: &Row<'_>,
        recipient: ProcessId,
        view: &AdversaryView<'_>,
        slot: &mut Payload,
    ) {
        let FamilyStrategy {
            family,
            seed,
            stash,
            spare,
            ..
        } = self;
        let (sender, r, len) = (row.sender, recipient.index(), row.len);
        let first_round_source = sender == view.source && view.round == 1;
        match family {
            Family::Crash { .. } => {
                if row.turned {
                    spare.silence(slot);
                } else {
                    spare.relay(slot, row.shadow);
                }
            }
            Family::Silent(_) => spare.silence(slot),
            Family::RandomLiar(_) => {
                if len == 0 {
                    spare.silence(slot);
                } else {
                    random_lie(spare, slot, *seed, (sender, recipient), view, len);
                }
            }
            Family::TwoFaced(_) => {
                if r.is_multiple_of(2) {
                    spare.relay(slot, row.shadow);
                } else {
                    spare.map(slot, view.domain, row.shadow, |_, v| flip(view, v));
                }
            }
            Family::EquivocatingSource(_) => {
                let claimed = Value(r as u16 % view.domain.size());
                if sender != view.source {
                    spare.relay(slot, row.shadow);
                } else if view.round == 1 {
                    spare.values(slot, once(claimed));
                } else if len == 0 {
                    spare.silence(slot);
                } else {
                    spare.repeated(slot, view.domain, claimed, len);
                }
            }
            Family::Stealth(_) => {
                if len == 0 {
                    spare.relay(slot, row.shadow);
                } else {
                    let target = (view.round + r) % len;
                    spare.map(slot, view.domain, row.shadow, |i, v| {
                        if i == target {
                            flip(view, v)
                        } else {
                            v
                        }
                    });
                }
            }
            Family::ChainRevealer { .. } => {
                if !row.turned {
                    spare.relay(slot, row.shadow);
                } else if len == 0 {
                    spare.silence(slot);
                } else {
                    random_lie(spare, slot, *seed, (sender, recipient), view, len);
                }
            }
            Family::DoubleTalk(_) => {
                let story = Value(u16::from(r < view.n / 2));
                let len = if first_round_source { 1 } else { len };
                if len == 0 {
                    spare.silence(slot);
                } else {
                    spare.repeated(slot, view.domain, story, len);
                }
            }
            Family::StaggeredSplit { .. } => {
                let story = Value(u16::from(r < view.n / 2));
                if first_round_source {
                    spare.values(slot, once(story));
                } else if sender == view.source || !row.turned {
                    spare.relay(slot, row.shadow);
                } else if len == 0 {
                    spare.silence(slot);
                } else {
                    spare.repeated(slot, view.domain, story, len);
                }
            }
            Family::Collusion(_) => {
                let lie = flip(view, view.source_value);
                if first_round_source {
                    spare.values(slot, once(lie));
                } else if len == 0 {
                    spare.silence(slot);
                } else {
                    spare.repeated(slot, view.domain, lie, len);
                }
            }
            Family::StaleShadow(_) => spare.relay(slot, stash.get(&sender)),
            Family::FrontierBreaker(_) => {
                if first_round_source {
                    spare.values(slot, once(Value(r as u16 % view.domain.size())));
                } else if let Some(target) = row.target {
                    let lies = r % 2 == 1;
                    spare.map(slot, view.domain, row.shadow, |i, v| {
                        if lies && i == target {
                            flip(view, v)
                        } else {
                            v
                        }
                    });
                } else {
                    spare.relay(slot, row.shadow);
                }
            }
            Family::Partition {
                split, from, to, ..
            } => {
                if cut(*split, *from, *to, sender, recipient, view.round) {
                    spare.silence(slot);
                } else {
                    spare.relay(slot, row.shadow);
                }
            }
            Family::Omission { period, phase, .. } => {
                let at = view.round + sender.index() + r + *phase;
                if at.is_multiple_of((*period).max(1)) {
                    spare.silence(slot);
                } else {
                    spare.relay(slot, row.shadow);
                }
            }
            Family::Equivocate { split, .. } => {
                if !row.turned {
                    spare.relay(slot, row.shadow);
                } else if len == 0 {
                    spare.silence(slot);
                } else {
                    spare.repeated(slot, view.domain, Value(u16::from(r >= *split)), len);
                }
            }
            Family::Adaptive { .. } => {
                let lie = flip(view, view.source_value);
                if !row.turned {
                    spare.relay(slot, row.shadow);
                } else if first_round_source {
                    spare.values(slot, once(lie));
                } else if len == 0 {
                    spare.silence(slot);
                } else {
                    spare.repeated(slot, view.domain, lie, len);
                }
            }
            Family::NoFaults | Family::Tape(_) | Family::Replay(_) => {
                unreachable!("Family::strategy builds these as their own types")
            }
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

    fn row(&mut self, sender: ProcessId, view: &AdversaryView<'_>, slots: &mut [Payload]) {
        let row = self.row_facts(sender, view);
        for (r, slot) in slots.iter_mut().enumerate() {
            if r != sender.index() {
                self.write(&row, ProcessId(r), view, slot);
            }
        }
        // `stale-shadow` stashes this round's shadow once its whole row
        // has heard the last one.
        if let Family::StaleShadow(_) = self.family {
            let kept = self.stash.entry(sender).or_default();
            self.spare.relay(kept, row.shadow);
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

/// `frontier-breaker`'s row: the members form a chain `f₁, …, f_k` (the
/// source first if corrupted, then ascending id), and `f_j` lies by
/// recipient parity exactly about the tree node `s·f₁⋯f_{j−1}` above its
/// own position on the attacked path, honest everywhere else. Sets the
/// row's `target` to that node's slot when the level being broadcast
/// holds it; a member whose shadow is not a value vector sends nothing.
/// (A faulty source's round-1 equivocation, the root of the path, is
/// [`FamilyStrategy::write`]'s.)
fn frontier_target(row: &mut Row<'_>, view: &AdversaryView<'_>) {
    let mut chain: Vec<ProcessId> = Vec::new();
    if view.faulty.contains(view.source) {
        chain.push(view.source);
    }
    chain.extend(view.faulty.iter().filter(|f| *f != view.source));
    let Some(rank) = chain.iter().position(|f| *f == row.sender) else {
        return;
    };
    let Some(shadow) = row.shadow else {
        return;
    };
    if !matches!(shadow, Payload::Values(_) | Payload::Bits { .. }) {
        row.shadow = None;
        return;
    }
    // The node this fault lies about: the chain prefix above it (without
    // the leading source, which labels the root).
    let target: Vec<ProcessId> = chain[..rank]
        .iter()
        .copied()
        .filter(|p| *p != view.source)
        .collect();
    // Locate the target node's index in the level being broadcast; any
    // other level is relayed honestly.
    let shape = sg_eigtree::Shape::new(view.n, view.source);
    let mut level = 0usize;
    while shape.level_size(level) < row.len {
        level += 1;
    }
    if shape.level_size(level) == row.len && target.len() == level {
        row.target = shape.index_of(&target);
    }
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

    /// `sender`'s row for the viewed round, written into a fresh row of
    /// missing payloads, as `sg_sim::reference` asks it.
    fn fresh_row(
        adv: &mut dyn Adversary,
        sender: ProcessId,
        view: &AdversaryView<'_>,
    ) -> Vec<Payload> {
        let mut row = vec![Payload::Missing; view.n];
        adv.row(sender, view, &mut row);
        row
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
            fresh_row(adv.as_mut(), ProcessId(1), &view)[2],
            Payload::values([Value(1), Value(0)])
        );
        let mut view_late = view_fixture(&faulty, &shadow);
        view_late.round = 3;
        assert_eq!(
            fresh_row(adv.as_mut(), ProcessId(1), &view_late)[2],
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
            fresh_row(adv.as_mut(), ProcessId(1), &view)[2],
            Payload::values([Value(1), Value(0)])
        );
        assert_eq!(
            fresh_row(adv.as_mut(), ProcessId(1), &view)[3],
            Payload::values([Value(0), Value(1)])
        );
    }

    #[test]
    fn stealth_flips_exactly_one_position() {
        let faulty = ProcessSet::from_members(4, [ProcessId(1)]);
        let shadow = shadow_with(1, vec![Value(1), Value(1), Value(1)]);
        let mut adv = Family::Stealth(FaultSelection::without_source()).strategy(0);
        let view = view_fixture(&faulty, &shadow);
        let got = fresh_row(adv.as_mut(), ProcessId(1), &view).swap_remove(2);
        // A vector in either representation: binary lies are bit-packed.
        assert_eq!(got.num_values(), 3, "expected values");
        let flipped = (0..3)
            .filter(|&i| got.value_at(i) == Some(Value(0)))
            .count();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn random_liar_is_deterministic_per_seed() {
        let faulty = ProcessSet::from_members(4, [ProcessId(1)]);
        let shadow = shadow_with(1, vec![Value(1), Value(1)]);
        let family = Family::RandomLiar(FaultSelection::without_source());
        let (mut a, mut b) = (family.strategy(42), family.strategy(42));
        let view = view_fixture(&faulty, &shadow);
        assert_eq!(
            fresh_row(a.as_mut(), ProcessId(1), &view)[3],
            fresh_row(b.as_mut(), ProcessId(1), &view)[3]
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
            fresh_row(adv.as_mut(), ProcessId(1), &view)[3],
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
            fresh_row(adv.as_mut(), ProcessId(1), &view)[0],
            Payload::values([Value(0), Value(0)])
        );
        assert_eq!(
            fresh_row(adv.as_mut(), ProcessId(1), &view)[3],
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
            fresh_row(adv.as_mut(), ProcessId(1), &view)[0],
            Payload::Missing
        );
        // Next call (new round in a real run): the stash now replays.
        assert_eq!(
            fresh_row(adv.as_mut(), ProcessId(1), &view)[0],
            Payload::values([Value(1), Value(0)])
        );
    }

    #[test]
    fn stale_shadow_tells_every_recipient_last_rounds_shadow() {
        // Sender 1 of five, over three rounds: each round every one of its
        // four recipients hears the shadow of the round before, and
        // nothing in round 1.
        let n = 5;
        let faulty = ProcessSet::from_members(n, [ProcessId(1)]);
        let shadows = [
            vec![Value(1), Value(0)],
            vec![Value(0), Value(1), Value(1)],
            vec![Value(1)],
        ];
        let mut adv = Family::StaleShadow(FaultSelection::without_source()).strategy(0);
        let mut heard = Payload::Missing;
        for (at, vals) in shadows.iter().enumerate() {
            let mut shadow: Vec<Option<Payload>> = vec![None; n];
            shadow[1] = Some(Payload::Values(vals.clone()));
            let mut view = view_fixture(&faulty, &shadow);
            (view.round, view.n) = (at + 1, n);
            let row = fresh_row(adv.as_mut(), ProcessId(1), &view);
            for r in [0, 2, 3, 4] {
                assert_eq!(row[r], heard, "round {} recipient {r}", at + 1);
            }
            heard = Payload::Values(vals.clone());
        }
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
            fresh_row(adv.as_mut(), ProcessId(1), &view);
            start(adv.as_mut());
            assert_eq!(
                fresh_row(adv.as_mut(), ProcessId(1), &view)[0],
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
            fresh_row(adv.as_mut(), ProcessId(1), &view)[2],
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
            fresh_row(adv.as_mut(), ProcessId(1), &view)[0],
            Payload::values([Value(1), Value(1)])
        );
        assert_eq!(
            fresh_row(adv.as_mut(), ProcessId(1), &view)[3],
            Payload::values([Value(0), Value(0)])
        );
    }

    /// Every selection-based family, with parameters that make each rule
    /// change its story within six rounds.
    fn every_rule() -> Vec<Family> {
        let sel = FaultSelection::with_source;
        vec![
            Family::RandomLiar(sel()),
            Family::ChainRevealer {
                selection: sel(),
                start: 2,
                block: 1,
            },
            Family::Crash {
                selection: sel(),
                round: 5,
            },
            Family::Silent(sel()),
            Family::Partition {
                selection: sel(),
                split: 5,
                from: 2,
                to: 3,
            },
            Family::Omission {
                selection: sel(),
                period: 3,
                phase: 1,
            },
            Family::Equivocate {
                selection: sel(),
                split: 6,
                start: 2,
            },
            Family::Adaptive {
                selection: sel(),
                schedule: vec![1, 3],
            },
            Family::TwoFaced(sel()),
            Family::EquivocatingSource(sel()),
            Family::Stealth(sel()),
            Family::DoubleTalk(sel()),
            Family::StaggeredSplit {
                selection: sel(),
                start: 2,
                block: 1,
            },
            Family::Collusion(sel()),
            Family::StaleShadow(sel()),
            Family::FrontierBreaker(sel()),
        ]
    }

    /// Asserts that `payload` carries no bit at or past its length.
    fn assert_no_stray_bits(payload: &Payload) {
        if let Payload::Bits { words, len } = payload {
            for (i, &w) in words.words().iter().enumerate() {
                let kept = (*len as usize).saturating_sub(64 * i);
                let stray = if kept >= 64 { 0 } else { w >> kept };
                assert_eq!(stray, 0, "bits set past slot {len} in word {i}");
            }
        }
    }

    #[test]
    fn rows_written_in_place_equal_fresh_rows() {
        // `algorithm-a(b=3) (13, 4)`'s level sizes, round by round, then
        // a silent round and a short one: slots go from inline to heap
        // words and back, and through silence.
        const LENS: [usize; 6] = [1, 12, 132, 1_320, 0, 12];
        let (n, t) = (13, 4);
        let fillers = [
            Payload::Values(vec![Value(2); 5]),
            Payload::packed((0..3).map(|_| Value(1))),
            Payload::packed((0..300).map(|_| Value(1))),
            Payload::Signed(Vec::new()),
            Payload::Missing,
        ];
        for family in every_rule() {
            for domain in [sg_sim::ValueDomain::binary(), sg_sim::ValueDomain::new(3)] {
                let mut rows = family.strategy(7);
                let mut oracle = family.strategy(7);
                let faulty = rows.corrupt(n, t, ProcessId(0));
                assert_eq!(oracle.corrupt(n, t, ProcessId(0)), faulty);
                let mut slots: Vec<Vec<Payload>> = vec![vec![Payload::Missing; n]; n];
                for (at, &len) in LENS.iter().enumerate() {
                    let round = at + 1;
                    let shadow: Vec<Option<Payload>> = (0..n)
                        .map(|p| {
                            // In round 1 only the source speaks.
                            let len = if round == 1 && p != 0 { 0 } else { len };
                            let vals =
                                (0..len).map(|i| Value(((i + p) % 3) as u16 % domain.size()));
                            (len > 0).then(|| match domain.size() {
                                2 => Payload::packed(vals),
                                _ => Payload::Values(vals.collect()),
                            })
                        })
                        .collect();
                    let view = AdversaryView {
                        round,
                        total_rounds: LENS.len(),
                        n,
                        t,
                        source: ProcessId(0),
                        source_value: Value(1),
                        domain,
                        faulty: &faulty,
                        honest_broadcast: &[],
                        shadow_broadcast: &shadow,
                        sigs: None,
                    };
                    for sender in faulty.iter() {
                        let row = &mut slots[sender.index()];
                        // Half the slots hold last round's lie, the other
                        // half each representation in turn.
                        for (r, slot) in row.iter_mut().enumerate() {
                            if (r + round) % 2 == 0 {
                                *slot = fillers[(r + round) % fillers.len()].clone();
                            }
                        }
                        rows.row(sender, &view, row);
                        let fresh = fresh_row(oracle.as_mut(), sender, &view);
                        for (r, slot) in row.iter().enumerate() {
                            if r == sender.index() {
                                continue;
                            }
                            let want = &fresh[r];
                            let at = format!("{} round {round} {sender:?}->{r}", family.name());
                            assert_eq!(slot, want, "{at}");
                            assert_eq!(slot.num_values(), want.num_values(), "{at}");
                            for i in 0..want.num_values() + 2 {
                                assert_eq!(slot.value_at(i), want.value_at(i), "{at} slot {i}");
                            }
                            assert_no_stray_bits(slot);
                        }
                    }
                }
            }
        }
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
            fresh_row(adv.as_mut(), ProcessId(2), &view)[1],
            Payload::values([Value(1)])
        );
        let mut late = view_fixture(&faulty, &shadow);
        late.round = 4;
        // After activation: lower-half recipients hear 1, upper half 0.
        assert_eq!(
            fresh_row(adv.as_mut(), ProcessId(2), &late)[1],
            Payload::values([Value(1)])
        );
        assert_eq!(
            fresh_row(adv.as_mut(), ProcessId(2), &late)[3],
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
            fresh_row(adv.as_mut(), ProcessId(0), &view)[1],
            Payload::values([Value(1)])
        );
        assert_eq!(
            fresh_row(adv.as_mut(), ProcessId(0), &view)[3],
            Payload::values([Value(0)])
        );
    }
}
