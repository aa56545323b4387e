//! The Byzantine strategy library.
//!
//! Each strategy implements [`Adversary`] for the engine's
//! full-information rushing model. Strategies that want to look honest
//! start from their *shadow* payload (what the corrupted processor would
//! have sent if honest) and corrupt it; strategies that want chaos build
//! payloads from scratch.

use std::sync::Arc;

use sg_sim::{Adversary, AdversaryView, Payload, ProcessId, ProcessSet, Value};

use crate::selection::FaultSelection;
use crate::util::{flip, map_shadow, random_payload, repeated, shadow_or_missing};

/// Faulty processors behave perfectly honestly until `crash_round`, then
/// go permanently silent — the classic crash-failure pattern, which
/// exercises the "inappropriate message → default value" path. Combined
/// with [`FaultSelection::limit`] this is the sweep engine's
/// crash-early/go-silent scenario family for plotting rounds saved
/// against the actual fault count `f ≤ t`.
#[derive(Clone, Debug)]
pub struct Crash {
    selection: FaultSelection,
    crash_round: usize,
    name: Arc<str>,
}

impl Crash {
    /// Crash the selected processors at the start of `crash_round`.
    pub fn new(selection: FaultSelection, crash_round: usize) -> Self {
        let name = Arc::from(format!("crash(r={crash_round},{})", selection.describe()).as_str());
        Crash {
            selection,
            crash_round,
            name,
        }
    }
}

impl Adversary for Crash {
    fn name(&self) -> String {
        self.name.to_string()
    }

    fn name_shared(&self) -> Arc<str> {
        self.name.clone()
    }

    fn reseed(&mut self, _seed: u64) -> bool {
        // Seedless and stateless across runs.
        true
    }

    fn corrupt(&mut self, n: usize, t: usize, source: ProcessId) -> ProcessSet {
        self.selection.select(n, t, source)
    }

    fn payload(
        &mut self,
        sender: ProcessId,
        _recipient: ProcessId,
        view: &AdversaryView<'_>,
    ) -> Payload {
        if view.round >= self.crash_round {
            Payload::Missing
        } else {
            shadow_or_missing(view, sender)
        }
    }
}

/// Faulty processors never send anything at all.
#[derive(Clone, Debug)]
pub struct Silent {
    selection: FaultSelection,
    name: Arc<str>,
}

impl Silent {
    /// Silence the selected processors from round 1.
    pub fn new(selection: FaultSelection) -> Self {
        let name = Arc::from(format!("silent({})", selection.describe()).as_str());
        Silent { selection, name }
    }
}

impl Adversary for Silent {
    fn name(&self) -> String {
        self.name.to_string()
    }

    fn name_shared(&self) -> Arc<str> {
        self.name.clone()
    }

    fn reseed(&mut self, _seed: u64) -> bool {
        true
    }

    fn corrupt(&mut self, n: usize, t: usize, source: ProcessId) -> ProcessSet {
        self.selection.select(n, t, source)
    }

    fn payload(
        &mut self,
        _sender: ProcessId,
        _recipient: ProcessId,
        _view: &AdversaryView<'_>,
    ) -> Payload {
        Payload::Missing
    }
}

/// Faulty processors send independent uniformly random in-domain values of
/// the honest length to every recipient, every round.
///
/// The name deliberately excludes the seed: seeds are per-run data the
/// sweep harness already reports (`CellReport::first_seed`, the
/// agreement-assert messages), and a seed-free name is what lets pooled
/// [`Adversary::reseed`] keep a zero-allocation shared name across runs.
#[derive(Clone, Debug)]
pub struct RandomLiar {
    selection: FaultSelection,
    seed: u64,
    name: Arc<str>,
}

impl RandomLiar {
    /// Random lies from the selected processors, seeded deterministically.
    pub fn new(selection: FaultSelection, seed: u64) -> Self {
        let name = Arc::from(format!("random-liar({})", selection.describe()).as_str());
        RandomLiar {
            selection,
            seed,
            name,
        }
    }
}

impl Adversary for RandomLiar {
    fn name(&self) -> String {
        self.name.to_string()
    }

    fn name_shared(&self) -> Arc<str> {
        self.name.clone()
    }

    fn reseed(&mut self, seed: u64) -> bool {
        // The seed is the only per-run state.
        self.seed = seed;
        true
    }

    fn corrupt(&mut self, n: usize, t: usize, source: ProcessId) -> ProcessSet {
        self.selection.select(n, t, source)
    }

    fn payload(
        &mut self,
        sender: ProcessId,
        recipient: ProcessId,
        view: &AdversaryView<'_>,
    ) -> Payload {
        let len = view.expected_len(sender);
        if len == 0 {
            return Payload::Missing;
        }
        random_payload(self.seed, sender, recipient, view, len)
    }
}

/// Faulty processors tell recipients with even ids the honest story and
/// recipients with odd ids the domain-flipped story — maximal consistent
/// equivocation, the pattern the Correctness Lemma's majority argument
/// must defeat.
#[derive(Clone, Debug)]
pub struct TwoFaced {
    selection: FaultSelection,
}

impl TwoFaced {
    /// Two-faced behaviour from the selected processors.
    pub fn new(selection: FaultSelection) -> Self {
        TwoFaced { selection }
    }
}

impl Adversary for TwoFaced {
    fn name(&self) -> String {
        format!("two-faced({})", self.selection.describe())
    }

    fn corrupt(&mut self, n: usize, t: usize, source: ProcessId) -> ProcessSet {
        self.selection.select(n, t, source)
    }

    fn payload(
        &mut self,
        sender: ProcessId,
        recipient: ProcessId,
        view: &AdversaryView<'_>,
    ) -> Payload {
        if recipient.index().is_multiple_of(2) {
            shadow_or_missing(view, sender)
        } else {
            map_shadow(view, sender, |_, v| flip(view, v))
        }
    }
}

/// A faulty *source* that tells each recipient a different initial value
/// in round 1 (recipient id mod |V|) and afterwards keeps relaying
/// whichever story keeps processors split (non-source co-conspirators, if
/// selected, echo their shadow).
#[derive(Clone, Debug)]
pub struct EquivocatingSource {
    selection: FaultSelection,
}

impl EquivocatingSource {
    /// Equivocation by the source; `selection` should corrupt the source
    /// (use [`FaultSelection::with_source`]).
    pub fn new(selection: FaultSelection) -> Self {
        EquivocatingSource { selection }
    }
}

impl Adversary for EquivocatingSource {
    fn name(&self) -> String {
        format!("equivocating-source({})", self.selection.describe())
    }

    fn corrupt(&mut self, n: usize, t: usize, source: ProcessId) -> ProcessSet {
        let set = self.selection.select(n, t, source);
        assert!(
            set.contains(source),
            "EquivocatingSource needs the source corrupted"
        );
        set
    }

    fn payload(
        &mut self,
        sender: ProcessId,
        recipient: ProcessId,
        view: &AdversaryView<'_>,
    ) -> Payload {
        if sender == view.source && view.round == 1 {
            return Payload::values([Value(recipient.index() as u16 % view.domain.size())]);
        }
        if sender == view.source {
            // Keep telling each recipient the story it was told in
            // round 1, at the honest payload length.
            let claimed = Value(recipient.index() as u16 % view.domain.size());
            let len = view.expected_len(sender);
            if len == 0 {
                return Payload::Missing;
            }
            return repeated(claimed, len);
        }
        shadow_or_missing(view, sender)
    }
}

/// Stays under the Fault Discovery Rule's radar: each faulty processor
/// sends its honest shadow with exactly one value flipped, at a position
/// that rotates with the round and recipient. Exercises the Hidden Fault
/// Lemma — faults that are never globally detected must still be
/// out-voted.
#[derive(Clone, Debug)]
pub struct Stealth {
    selection: FaultSelection,
}

impl Stealth {
    /// Stealthy single-value corruption from the selected processors.
    pub fn new(selection: FaultSelection) -> Self {
        Stealth { selection }
    }
}

impl Adversary for Stealth {
    fn name(&self) -> String {
        format!("stealth({})", self.selection.describe())
    }

    fn corrupt(&mut self, n: usize, t: usize, source: ProcessId) -> ProcessSet {
        self.selection.select(n, t, source)
    }

    fn payload(
        &mut self,
        sender: ProcessId,
        recipient: ProcessId,
        view: &AdversaryView<'_>,
    ) -> Payload {
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
}

/// The round-count stressor: faulty processors out themselves *one per
/// block*. Fault `j` behaves perfectly honestly until round
/// `reveal_start + j·stride`, then equivocates randomly forever. Against
/// the shifted families this forces close to the worst-case number of
/// blocks, because each block globally detects only the freshly revealed
/// faults.
#[derive(Clone, Debug)]
pub struct ChainRevealer {
    selection: FaultSelection,
    reveal_start: usize,
    stride: usize,
    seed: u64,
    name: Arc<str>,
}

impl ChainRevealer {
    /// Reveal one fault every `stride` rounds starting at `reveal_start`.
    pub fn new(selection: FaultSelection, reveal_start: usize, stride: usize, seed: u64) -> Self {
        let stride = stride.max(1);
        let name = Arc::from(
            format!(
                "chain-revealer(start={reveal_start},stride={stride},{})",
                selection.describe()
            )
            .as_str(),
        );
        ChainRevealer {
            selection,
            reveal_start,
            stride,
            seed,
            name,
        }
    }
}

impl Adversary for ChainRevealer {
    fn name(&self) -> String {
        self.name.to_string()
    }

    fn name_shared(&self) -> Arc<str> {
        self.name.clone()
    }

    fn reseed(&mut self, seed: u64) -> bool {
        // The seed is the only per-run state.
        self.seed = seed;
        true
    }

    fn corrupt(&mut self, n: usize, t: usize, source: ProcessId) -> ProcessSet {
        self.selection.select(n, t, source)
    }

    fn payload(
        &mut self,
        sender: ProcessId,
        recipient: ProcessId,
        view: &AdversaryView<'_>,
    ) -> Payload {
        // Rank of this sender within the corrupted set (stable order).
        let rank = view.faulty.iter().position(|p| p == sender).unwrap_or(0);
        let reveal_round = self.reveal_start + rank * self.stride;
        if view.round < reveal_round {
            return shadow_or_missing(view, sender);
        }
        let len = view.expected_len(sender);
        if len == 0 {
            return Payload::Missing;
        }
        random_payload(self.seed, sender, recipient, view, len)
    }
}

/// Split-brain coordination: all faulty processors (source included if
/// selected) consistently tell the lower-id half of the system "1" and
/// the upper half "0", at honest lengths — the strongest consistent
/// attempt to drive two groups of correct processors to different
/// decisions.
#[derive(Clone, Debug)]
pub struct DoubleTalk {
    selection: FaultSelection,
}

impl DoubleTalk {
    /// Coordinated double-talk from the selected processors.
    pub fn new(selection: FaultSelection) -> Self {
        DoubleTalk { selection }
    }
}

impl Adversary for DoubleTalk {
    fn name(&self) -> String {
        format!("double-talk({})", self.selection.describe())
    }

    fn corrupt(&mut self, n: usize, t: usize, source: ProcessId) -> ProcessSet {
        self.selection.select(n, t, source)
    }

    fn payload(
        &mut self,
        sender: ProcessId,
        recipient: ProcessId,
        view: &AdversaryView<'_>,
    ) -> Payload {
        let story = if recipient.index() < view.n / 2 {
            Value(1)
        } else {
            Value(0)
        };
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
}

/// A staggered split-brain attack tuned to delay decision lock-in.
///
/// The source (which must be in the selection) equivocates in round 1 —
/// lower-id recipients hear `1`, upper-id recipients `0`. Each non-source
/// conspirator stays *perfectly honest* until its personal activation
/// round `activate_start + k·stride` (k-th conspirator), then switches to
/// the consistent half/half double-talk. Staying honest early keeps a
/// conspirator undiscovered — the Fault Discovery Rule has nothing on it —
/// so the dissent it injects later lands after earlier liars were masked,
/// stretching the detect-or-persist progression across blocks. This is
/// the lock-in analogue of [`ChainRevealer`]'s round-count attack.
#[derive(Clone, Debug)]
pub struct StaggeredSplit {
    selection: FaultSelection,
    activate_start: usize,
    stride: usize,
}

impl StaggeredSplit {
    /// Conspirator `k` activates at round `activate_start + k*stride`.
    pub fn new(selection: FaultSelection, activate_start: usize, stride: usize) -> Self {
        StaggeredSplit {
            selection,
            activate_start,
            stride,
        }
    }
}

impl Adversary for StaggeredSplit {
    fn name(&self) -> String {
        format!(
            "staggered-split(start={},stride={},{})",
            self.activate_start,
            self.stride,
            self.selection.describe()
        )
    }

    fn corrupt(&mut self, n: usize, t: usize, source: ProcessId) -> ProcessSet {
        self.selection.select(n, t, source)
    }

    fn payload(
        &mut self,
        sender: ProcessId,
        recipient: ProcessId,
        view: &AdversaryView<'_>,
    ) -> Payload {
        let story = if recipient.index() < view.n / 2 {
            Value(1)
        } else {
            Value(0)
        };
        if sender == view.source {
            // The source only matters in round 1; split immediately.
            return if view.round == 1 {
                Payload::values([story])
            } else {
                shadow_or_missing(view, sender)
            };
        }
        // The k-th non-source conspirator (by id order) activates at
        // activate_start + k*stride.
        let rank = view
            .faulty
            .iter()
            .filter(|p| *p != view.source)
            .position(|p| p == sender)
            .unwrap_or(0);
        let activation = self.activate_start + rank * self.stride;
        if view.round < activation {
            return shadow_or_missing(view, sender);
        }
        let len = view.expected_len(sender);
        if len == 0 {
            return Payload::Missing;
        }
        repeated(story, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut adv = Crash::new(FaultSelection::without_source(), 3);
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
        let mut adv = TwoFaced::new(FaultSelection::without_source());
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
        let mut adv = Stealth::new(FaultSelection::without_source());
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
        let mut a = RandomLiar::new(FaultSelection::without_source(), 42);
        let mut b = RandomLiar::new(FaultSelection::without_source(), 42);
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
        let mut adv = ChainRevealer::new(FaultSelection::without_source(), 5, 3, 7);
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
        let mut adv = Collusion::new(FaultSelection::without_source());
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
        let mut adv = Replay::new(FaultSelection::without_source());
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
    fn double_talk_splits_the_world() {
        let faulty = ProcessSet::from_members(4, [ProcessId(1)]);
        let shadow = shadow_with(1, vec![Value(1), Value(1)]);
        let mut adv = DoubleTalk::new(FaultSelection::without_source());
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

    #[test]
    fn staggered_split_is_honest_before_activation() {
        let faulty = ProcessSet::from_members(4, [ProcessId(0), ProcessId(2)]);
        let shadow = shadow_with(2, vec![Value(1)]);
        let mut adv = StaggeredSplit::new(FaultSelection::with_source(), 4, 2);
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
        let mut adv = StaggeredSplit::new(FaultSelection::with_source(), 2, 2);
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

/// A coherent alternative reality: every faulty processor claims, to
/// everyone and at every level, that the world agrees on the flipped
/// story. All faults corroborate each other — the strongest *consistent*
/// lie, against which the majority arguments (not the discovery rules)
/// must carry the proof.
#[derive(Clone, Debug)]
pub struct Collusion {
    selection: FaultSelection,
}

impl Collusion {
    /// Coherent collusion from the selected processors.
    pub fn new(selection: FaultSelection) -> Self {
        Collusion { selection }
    }
}

impl Adversary for Collusion {
    fn name(&self) -> String {
        format!("collusion({})", self.selection.describe())
    }

    fn corrupt(&mut self, n: usize, t: usize, source: ProcessId) -> ProcessSet {
        self.selection.select(n, t, source)
    }

    fn payload(
        &mut self,
        sender: ProcessId,
        _recipient: ProcessId,
        view: &AdversaryView<'_>,
    ) -> Payload {
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
}

/// Replays the previous round's honest shadow payload — usually the wrong
/// length for the current round, exercising every malformed-message
/// sanitization path without being random.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    selection: Option<FaultSelection>,
    previous: std::collections::HashMap<ProcessId, Payload>,
}

impl Replay {
    /// Replay behaviour from the selected processors.
    pub fn new(selection: FaultSelection) -> Self {
        Replay {
            selection: Some(selection),
            previous: std::collections::HashMap::new(),
        }
    }
}

impl Adversary for Replay {
    fn name(&self) -> String {
        format!(
            "replay({})",
            self.selection
                .as_ref()
                .map_or_else(|| "-".to_string(), FaultSelection::describe)
        )
    }

    fn corrupt(&mut self, n: usize, t: usize, source: ProcessId) -> ProcessSet {
        self.selection
            .as_ref()
            .expect("constructed via Replay::new")
            .select(n, t, source)
    }

    fn payload(
        &mut self,
        sender: ProcessId,
        recipient: ProcessId,
        view: &AdversaryView<'_>,
    ) -> Payload {
        let out = self
            .previous
            .get(&sender)
            .cloned()
            .unwrap_or(Payload::Missing);
        // Refresh the stash once per round (on the first recipient call).
        if recipient.index() == (0..view.n).find(|&r| r != sender.index()).unwrap_or(0) {
            self.previous
                .insert(sender, shadow_or_missing(view, sender));
        }
        out
    }
}

/// The canonical worst case for the Frontier Lemma: the faults form a
/// *chain* `f₁, …, f_k`, and fault `f_j` lies (by recipient parity)
/// exactly about the tree node `s·f₁⋯f_{j−1}` — the node directly above
/// its own position on the attacked root-to-leaf path — while behaving
/// honestly everywhere else. This concentrates all corruption on a single
/// path, the configuration the proof of the Frontier Lemma defends
/// against: with at most `t` faults the path must still contain a correct
/// (hence common) node.
#[derive(Clone, Debug)]
pub struct FrontierBreaker {
    selection: FaultSelection,
}

impl FrontierBreaker {
    /// Chain-of-lies behaviour from the selected processors. Use
    /// [`FaultSelection::with_source`] so the attacked path starts with a
    /// faulty source.
    pub fn new(selection: FaultSelection) -> Self {
        FrontierBreaker { selection }
    }
}

impl Adversary for FrontierBreaker {
    fn name(&self) -> String {
        format!("frontier-breaker({})", self.selection.describe())
    }

    fn corrupt(&mut self, n: usize, t: usize, source: ProcessId) -> ProcessSet {
        self.selection.select(n, t, source)
    }

    fn payload(
        &mut self,
        sender: ProcessId,
        recipient: ProcessId,
        view: &AdversaryView<'_>,
    ) -> Payload {
        // The faulty source equivocates in round 1 — the root of the
        // attacked path.
        if sender == view.source && view.round == 1 {
            return Payload::values([Value((recipient.index() as u16) % view.domain.size())]);
        }
        // The chain: faulty processors in ascending id order, source
        // first if corrupted.
        let mut chain: Vec<ProcessId> = Vec::new();
        if view.faulty.contains(view.source) {
            chain.push(view.source);
        }
        chain.extend(view.faulty.iter().filter(|f| *f != view.source));
        let Some(rank) = chain.iter().position(|f| *f == sender) else {
            return shadow_or_missing(view, sender);
        };
        // The node this fault lies about: the chain prefix above it
        // (without the leading source, which labels the root).
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
}

/// A round-ranged **network partition**: during `[from, to]` every edge
/// crossing the `split` boundary (ids `< split` on one side, the rest on
/// the other) is cut — honest edges through [`Adversary::edge_cut`],
/// the corrupted processors' own cross-split traffic by sending nothing.
///
/// This is a *link*-fault family: the corrupted set exists so the run
/// has a fault budget to account the damage against, but corrupted
/// processors otherwise relay their honest shadows, so placing the whole
/// cut set inside one side (e.g. `selection.limit(1)` with `split = 1`)
/// models an honest network healing around an isolated group.
#[derive(Clone, Debug)]
pub struct Partition {
    selection: FaultSelection,
    split: usize,
    from: usize,
    to: usize,
    name: Arc<str>,
}

impl Partition {
    /// Cut every edge crossing the `split` boundary from round `from`
    /// through round `to` (inclusive, 1-based).
    pub fn new(selection: FaultSelection, split: usize, from: usize, to: usize) -> Self {
        let name = Arc::from(
            format!(
                "partition(split={split},r={from}..{to},{})",
                selection.describe()
            )
            .as_str(),
        );
        Partition {
            selection,
            split,
            from,
            to,
            name,
        }
    }

    fn crosses(&self, a: ProcessId, b: ProcessId) -> bool {
        (a.index() < self.split) != (b.index() < self.split)
    }

    fn active(&self, round: usize) -> bool {
        round >= self.from && round <= self.to
    }
}

impl Adversary for Partition {
    fn name(&self) -> String {
        self.name.to_string()
    }

    fn name_shared(&self) -> Arc<str> {
        self.name.clone()
    }

    fn reseed(&mut self, _seed: u64) -> bool {
        true
    }

    fn corrupt(&mut self, n: usize, t: usize, source: ProcessId) -> ProcessSet {
        self.selection.select(n, t, source)
    }

    fn payload(
        &mut self,
        sender: ProcessId,
        recipient: ProcessId,
        view: &AdversaryView<'_>,
    ) -> Payload {
        if self.active(view.round) && self.crosses(sender, recipient) {
            Payload::Missing
        } else {
            shadow_or_missing(view, sender)
        }
    }

    fn has_edge_faults(&self) -> bool {
        true
    }

    fn edge_cut(
        &mut self,
        sender: ProcessId,
        recipient: ProcessId,
        view: &AdversaryView<'_>,
    ) -> bool {
        self.active(view.round) && self.crosses(sender, recipient)
    }
}

/// Per-edge **omission pattern**: the corrupted senders drop exactly the
/// (round, sender, recipient) slots where
/// `(round + sender + recipient + phase) % period == 0`, and relay their
/// honest shadow everywhere else — periodic, deterministic message loss
/// that drifts across the recipient space round by round, the timing-
/// fault texture crash/silent cannot produce.
#[derive(Clone, Debug)]
pub struct Omission {
    selection: FaultSelection,
    period: usize,
    phase: usize,
    name: Arc<str>,
}

impl Omission {
    /// Drop every `period`-th edge slot, offset by `phase`
    /// (`period` is clamped to ≥ 1).
    pub fn new(selection: FaultSelection, period: usize, phase: usize) -> Self {
        let period = period.max(1);
        let name =
            Arc::from(format!("omission(p={period},ph={phase},{})", selection.describe()).as_str());
        Omission {
            selection,
            period,
            phase,
            name,
        }
    }

    fn drops(&self, round: usize, sender: ProcessId, recipient: ProcessId) -> bool {
        (round + sender.index() + recipient.index() + self.phase).is_multiple_of(self.period)
    }
}

impl Adversary for Omission {
    fn name(&self) -> String {
        self.name.to_string()
    }

    fn name_shared(&self) -> Arc<str> {
        self.name.clone()
    }

    fn reseed(&mut self, _seed: u64) -> bool {
        true
    }

    fn corrupt(&mut self, n: usize, t: usize, source: ProcessId) -> ProcessSet {
        self.selection.select(n, t, source)
    }

    fn payload(
        &mut self,
        sender: ProcessId,
        recipient: ProcessId,
        view: &AdversaryView<'_>,
    ) -> Payload {
        if self.drops(view.round, sender, recipient) {
            Payload::Missing
        } else {
            shadow_or_missing(view, sender)
        }
    }
}

/// An **equivocation schedule**: from round `start` on, every corrupted
/// sender tells recipients with ids `< split` an all-zeros story and
/// everyone else an all-ones story, both at the honest length — maximal
/// sustained disagreement between two fixed audiences, the value-split
/// pattern the equivocating-source strategy plays only in round 1.
#[derive(Clone, Debug)]
pub struct Equivocate {
    selection: FaultSelection,
    split: usize,
    start: usize,
    name: Arc<str>,
}

impl Equivocate {
    /// Split recipients at `split`, equivocating from round `start`
    /// (1-based) onwards.
    pub fn new(selection: FaultSelection, split: usize, start: usize) -> Self {
        let name = Arc::from(
            format!(
                "equivocate(split={split},r>={start},{})",
                selection.describe()
            )
            .as_str(),
        );
        Equivocate {
            selection,
            split,
            start,
            name,
        }
    }
}

impl Adversary for Equivocate {
    fn name(&self) -> String {
        self.name.to_string()
    }

    fn name_shared(&self) -> Arc<str> {
        self.name.clone()
    }

    fn reseed(&mut self, _seed: u64) -> bool {
        true
    }

    fn corrupt(&mut self, n: usize, t: usize, source: ProcessId) -> ProcessSet {
        self.selection.select(n, t, source)
    }

    fn payload(
        &mut self,
        sender: ProcessId,
        recipient: ProcessId,
        view: &AdversaryView<'_>,
    ) -> Payload {
        if view.round < self.start {
            return shadow_or_missing(view, sender);
        }
        let len = view.expected_len(sender);
        if len == 0 {
            return Payload::Missing;
        }
        let story = if recipient.index() < self.split {
            Value(0)
        } else {
            Value(1)
        };
        repeated(story, len)
    }
}

/// **Adaptive mid-run corruption**: the fault set grows at scripted
/// rounds. The engine fixes the corrupted set before round 1, so the
/// full eventual set is declared upfront and each member plays its
/// honest shadow until its activation round — the member of rank `k`
/// (ascending id order) turns at `schedule[k]`, members beyond the
/// schedule never turn. From activation on, a member tells everyone the
/// coherent flipped story (the [`Collusion`] lie), so the run looks
/// fault-free until the first activation and degrades in scripted waves.
#[derive(Clone, Debug)]
pub struct Adaptive {
    selection: FaultSelection,
    schedule: Vec<usize>,
    name: Arc<str>,
}

impl Adaptive {
    /// Corrupt the selected processors, activating the rank-`k` member
    /// at round `schedule[k]` (1-based).
    pub fn new(selection: FaultSelection, schedule: Vec<usize>) -> Self {
        let rounds: Vec<String> = schedule.iter().map(usize::to_string).collect();
        let name = Arc::from(
            format!(
                "adaptive(r=[{}],{})",
                rounds.join(","),
                selection.describe()
            )
            .as_str(),
        );
        Adaptive {
            selection,
            schedule,
            name,
        }
    }
}

impl Adversary for Adaptive {
    fn name(&self) -> String {
        self.name.to_string()
    }

    fn name_shared(&self) -> Arc<str> {
        self.name.clone()
    }

    fn reseed(&mut self, _seed: u64) -> bool {
        true
    }

    fn corrupt(&mut self, n: usize, t: usize, source: ProcessId) -> ProcessSet {
        self.selection.select(n, t, source)
    }

    fn payload(
        &mut self,
        sender: ProcessId,
        _recipient: ProcessId,
        view: &AdversaryView<'_>,
    ) -> Payload {
        let rank = view
            .faulty
            .iter()
            .position(|p| p == sender)
            .expect("sender is faulty");
        let active = self
            .schedule
            .get(rank)
            .is_some_and(|&turn| view.round >= turn);
        if !active {
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
}
