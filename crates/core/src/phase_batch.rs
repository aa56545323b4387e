//! The king family over lane words: one lock-step kernel.
//!
//! [`PhaseKernel`] re-expresses [`KingCore`](crate::KingCore)'s phases —
//! both rows of the [`KingRow`] rule table — over lane words: each
//! processor-slot's preferred value, proposal, and lock bit become one
//! `u64` spanning up to 64 runs, and the threshold tests become
//! bit-plane comparisons ([`LaneCounts`]) evaluated for every run at
//! once. The engine-side driver lives in [`sg_sim::batch`]; this module
//! only supplies the protocol semantics, mirroring how the scalar
//! [`KingCore`](crate::KingCore) sits behind the engine's round loop.
//!
//! A king rule reads only the counts a processor hears, so the kernel
//! computes only what a correct processor reads: it skips the round's
//! spent slots ([`BatchNet::spent`]) in every step, and in the exchange
//! and propose steps a recipient that [`BatchNet::hears_alike`] the live
//! recipient before it takes that recipient's rule outputs instead of
//! tallying again (see `sg_sim::batch`, "The delivered network").
//!
//! The kernel serves `optimal-king` (three-round row) and `phase-king` /
//! `phase-queen` (two-round row; one protocol on a binary domain, see
//! [`crate::optimal_king`]). [`batch_kernel`] picks it by spec; every
//! other family — the gear shifts `king-shift` and `dynamic-king`
//! included — runs on the scalar engine, and `sg_sim::reference` holds
//! all of them to one answer.

use sg_sim::batch::{BatchKernel, BatchNet, LaneCounts};
use sg_sim::RunConfig;

use crate::optimal_king::{KingRow, PhaseStep};
use crate::params::phase_leader;
use crate::spec::AlgorithmSpec;

/// Commits `value` into `state[slot]` for lanes in `active` only,
/// freezing retired runs.
#[inline]
fn lane_commit(state: &mut [u64], slot: usize, value: u64, active: u64) {
    state[slot] = (value & active) | (state[slot] & !active);
}

/// The exchange rule, per lane, from a processor's count of ones over
/// all `n` slots (zeros are `n − ones`, absent and garbled values
/// defaulting to 0): the lanes in which some value is *strong* — held by
/// at least `strong_at > n/2` slots — and the lanes in which that value
/// is 1. Returns the `(strong, strong_one)` lane masks.
fn exchange_rule(ones: &LaneCounts, n: usize, strong_at: usize) -> (u64, u64) {
    let strong_one = ones.ge(strong_at);
    let strong_zero = !ones.ge(n - strong_at + 1); // n − ones ≥ strong_at
    (strong_zero | strong_one, strong_one)
}

/// What the exchange step commits, per lane, from a processor's count
/// of ones: `(strong, value)`. The three-round row proposes the strong
/// value; the two-round row adopts the plurality (ones > n − ones),
/// strong or not — an unlocked king still broadcasts it — and locks it
/// when it is strong.
fn exchange_outputs(row: KingRow, ones: &LaneCounts, n: usize, strong_at: usize) -> (u64, u64) {
    let (strong, strong_one) = exchange_rule(ones, n, strong_at);
    match row {
        KingRow::ThreeRound => (strong, strong_one),
        KingRow::TwoRound => (strong, ones.ge(n / 2 + 1)),
    }
}

/// The propose rule, per lane, from a processor's counts of `Some(1)` and
/// `Some(0)` proposals: plurality over non-`⊥` proposals with the smaller
/// value winning ties, lock at `n − t`, adopt above `t`, default 0
/// otherwise. Returns the `(current, lock)` lane masks.
fn propose_rule(c1: &LaneCounts, c0: &LaneCounts, n: usize, t: usize) -> (u64, u64) {
    let top_one = c1.gt(c0);
    let lock = (top_one & c1.ge(n - t)) | (!top_one & c0.ge(n - t));
    let adopt = (top_one & c1.ge(t + 1)) | (!top_one & c0.ge(t + 1));
    (adopt & top_one, lock)
}

/// Lanes in which `count ≥ at` reads alike for every count in `[lo, lo +
/// liars]`: it holds at the bottom, or fails at the top.
fn fixed_at(lo: &LaneCounts, at: usize, liars: usize) -> u64 {
    lo.ge(at) | !lo.ge(at.saturating_sub(liars))
}

/// The lanes in which a correct recipient's exchange or propose outputs
/// are decided before the liars speak: the same for every count of the
/// box that `liars` liars can reach from the common tallies `one` and
/// `zero` — ones in `[one, one + liars]`, zeros in `[zero, zero +
/// liars]`, the two rising by at most `liars` together (see
/// `sg_sim::batch`, "The delivered network"). An exchange reads ones
/// only, against [`exchange_rule`]'s thresholds and, on the two-round
/// row, the plurality; a proposal's outputs are [`propose_rule`]'s
/// `c1 > c0` and, for the winning value, its lock at `n − t` and adopt
/// at `t + 1`. The king step reads no tally: no lane is decided by one.
fn decided(
    row: KingRow,
    n: usize,
    t: usize,
    step: PhaseStep,
    one: &LaneCounts,
    zero: &LaneCounts,
    liars: usize,
) -> u64 {
    match step {
        PhaseStep::Exchange => {
            let strong_at = row.strong_at(n, t);
            let fixed = fixed_at(one, strong_at, liars) & fixed_at(one, n - strong_at + 1, liars);
            match row {
                KingRow::ThreeRound => fixed,
                KingRow::TwoRound => fixed & fixed_at(one, n / 2 + 1, liars),
            }
        }
        PhaseStep::Propose => {
            // `c1 > c0` holds across the box if it holds with every liar
            // telling a zero, and fails across it if it fails with every
            // liar telling a one.
            let (mut one_top, mut zero_top) = (*one, *zero);
            one_top.add_times(liars, !0);
            zero_top.add_times(liars, !0);
            let thresholds = |c: &LaneCounts| fixed_at(c, n - t, liars) & fixed_at(c, t + 1, liars);
            (one.gt(&zero_top) & thresholds(one)) | (!one_top.gt(zero) & thresholds(zero))
        }
        PhaseStep::King => 0,
    }
}

/// Bit-sliced lane state for one batch of king-family runs.
///
/// Per slot `i`, bit `r` of `current[i]` is run `r`'s preferred value,
/// `prop_some`/`prop_one` encode the three-way proposal (`Some(1)`,
/// `Some(0)`, `None`), and `locked`/`ready` carry the phase's lock — the
/// exact fields of the scalar [`KingCore`](crate::KingCore), one word per
/// run instead of one scalar.
pub struct PhaseKernel {
    n: usize,
    t: usize,
    source: usize,
    row: KingRow,
    /// Lane mask of the source's input being `Value(1)` (uniform: every
    /// lane of a batch shares one configuration).
    input_one: u64,
    current: Vec<u64>,
    prop_some: Vec<u64>,
    prop_one: Vec<u64>,
    locked: Vec<u64>,
    ready: Vec<u64>,
}

impl PhaseKernel {
    fn new(config: &RunConfig, row: KingRow) -> Self {
        PhaseKernel {
            n: config.n,
            t: config.t,
            source: config.source.index(),
            row,
            input_one: if config.source_value.raw() == 1 {
                !0
            } else {
                0
            },
            current: Vec::new(),
            prop_some: Vec::new(),
            prop_one: Vec::new(),
            locked: Vec::new(),
            ready: Vec::new(),
        }
    }

    /// Maps an engine round to (phase, step); round 1 is the source round.
    fn locate(&self, round: usize) -> Option<(usize, PhaseStep)> {
        (round > 1).then(|| self.row.locate(round - 2))
    }
}

impl BatchKernel for PhaseKernel {
    fn total_rounds(&self) -> usize {
        1 + self.row.steps().len() * (self.t + 1)
    }

    fn reset(&mut self, _lanes: usize) {
        for buf in [
            &mut self.current,
            &mut self.prop_some,
            &mut self.prop_one,
            &mut self.locked,
            &mut self.ready,
        ] {
            buf.clear();
            buf.resize(self.n, 0);
        }
    }

    fn charge(&self, round: usize) -> u64 {
        // As the scalar core charges: `n` for a tally, 1 for the source
        // and king rounds.
        match self.locate(round) {
            Some((_, PhaseStep::Exchange | PhaseStep::Propose)) => self.n as u64,
            _ => 1,
        }
    }

    fn snapshot_round(&self, round: usize) -> bool {
        // `Preferred` trace events land after the source round and after
        // every king round.
        matches!(self.locate(round), None | Some((_, PhaseStep::King)))
    }

    fn outgoing(&mut self, round: usize, present: &mut [u64], one: &mut [u64], zero: &mut [u64]) {
        // Who speaks depends on the round alone, never on what a slot
        // heard: a spent slot's state is stale.
        let n = self.n;
        let (present, one, zero) = (&mut present[..n], &mut one[..n], &mut zero[..n]);
        match self.locate(round) {
            None => {
                // Only the source speaks in round 1, with its input.
                present[self.source] = !0;
                one[self.source] = self.input_one;
                zero[self.source] = !self.input_one;
            }
            Some((_, PhaseStep::Exchange)) => {
                let current = &self.current[..n];
                for j in 0..n {
                    present[j] = !0;
                    one[j] = current[j];
                    zero[j] = !current[j];
                }
            }
            Some((_, PhaseStep::Propose)) => {
                let (some, value) = (&self.prop_some[..n], &self.prop_one[..n]);
                for j in 0..n {
                    present[j] = !0;
                    one[j] = some[j] & value[j];
                    zero[j] = some[j] & !value[j];
                }
            }
            Some((phase, PhaseStep::King)) => {
                let k = phase_leader(n, self.source, phase);
                present[k] = !0;
                one[k] = self.current[k];
                zero[k] = !self.current[k];
            }
        }
    }

    fn deliver(&mut self, round: usize, net: &BatchNet<'_>, active: u64) {
        let (n, t) = (self.n, self.t);
        // A spent slot's state is never read again: every step skips it.
        let spent = net.spent();
        let live = move |i: &usize| (spent >> i) & 1 == 0;
        let Some((phase, step)) = self.locate(round) else {
            // Everyone adopts the (sanitized) source value; unreadable
            // deliveries land on the default, i.e. the `one` lane mask is
            // exactly the adopted value.
            for i in (0..n).filter(live) {
                let v = if i == self.source {
                    self.input_one
                } else {
                    net.one(self.source, i)
                };
                lane_commit(&mut self.current, i, v, active);
            }
            return;
        };
        // The tallying steps run their rule once per hearing: a recipient
        // that hears alike the live recipient before it has its tallies,
        // so it takes that recipient's outputs (`heard`).
        let mut heard: Option<(usize, (u64, u64))> = None;
        match step {
            PhaseStep::Exchange => {
                // Ones over all n slots, own current in the self slot.
                let strong_at = self.row.strong_at(n, t);
                for i in (0..n).filter(live) {
                    let (strong, value) = match heard {
                        Some((prev, out)) if net.hears_alike(prev, i) => out,
                        _ => {
                            let ones = net.tally_one(i, self.current[i]);
                            exchange_outputs(self.row, &ones, n, strong_at)
                        }
                    };
                    heard = Some((i, (strong, value)));
                    match self.row {
                        KingRow::ThreeRound => {
                            lane_commit(&mut self.prop_some, i, strong, active);
                            lane_commit(&mut self.prop_one, i, value, active);
                        }
                        KingRow::TwoRound => {
                            lane_commit(&mut self.locked, i, strong, active);
                            lane_commit(&mut self.current, i, value, active);
                        }
                    }
                }
            }
            PhaseStep::Propose => {
                for i in (0..n).filter(live) {
                    let (current, lock) = match heard {
                        Some((prev, out)) if net.hears_alike(prev, i) => out,
                        _ => {
                            let own_one = self.prop_some[i] & self.prop_one[i];
                            let own_zero = self.prop_some[i] & !self.prop_one[i];
                            let c1 = net.tally_one(i, own_one);
                            let c0 = net.tally_zero(i, own_zero);
                            propose_rule(&c1, &c0, n, t)
                        }
                    };
                    heard = Some((i, (current, lock)));
                    lane_commit(&mut self.current, i, current, active);
                    lane_commit(&mut self.locked, i, lock, active);
                    lane_commit(&mut self.ready, i, lock, active);
                }
            }
            PhaseStep::King => {
                // Unlocked processors adopt the king's value (the king its
                // own); the phase's proposal and lock are then cleared.
                // In-place is safe: the king's own current never changes.
                // The two-round row publishes the lock it took at the
                // exchange tally here.
                let k = phase_leader(n, self.source, phase);
                for i in (0..n).filter(live) {
                    let read = if i == k {
                        self.current[k]
                    } else {
                        net.one(k, i)
                    };
                    let v = (self.locked[i] & self.current[i]) | (!self.locked[i] & read);
                    lane_commit(&mut self.current, i, v, active);
                    if self.row == KingRow::TwoRound {
                        lane_commit(&mut self.ready, i, self.locked[i], active);
                    }
                    lane_commit(&mut self.prop_some, i, 0, active);
                    lane_commit(&mut self.locked, i, 0, active);
                }
            }
        }
    }

    fn readers(
        &self,
        round: usize,
        common_one: &LaneCounts,
        common_zero: &LaneCounts,
        members: u64,
        active: u64,
    ) -> u64 {
        match self.locate(round) {
            None => !0,
            // A recipient locked in every active lane keeps its value and
            // reads no king word.
            Some((_, PhaseStep::King)) => (0..self.n)
                .filter(|&i| self.locked[i] & active != active)
                .fold(members, |read, i| read | 1 << i),
            Some((_, step)) => {
                let liars = members.count_ones() as usize;
                let decided = decided(
                    self.row,
                    self.n,
                    self.t,
                    step,
                    common_one,
                    common_zero,
                    liars,
                );
                if decided & active == active {
                    members
                } else {
                    !0
                }
            }
        }
    }

    fn ready(&self) -> &[u64] {
        &self.ready
    }

    fn current(&self) -> &[u64] {
        &self.current
    }

    fn decision_one(&self, slot: usize) -> u64 {
        if slot == self.source {
            self.input_one
        } else {
            self.current[slot]
        }
    }
}

/// The batch kernel for `spec` under `config`, if it has one: the king
/// kernel ([`PhaseKernel`]) for `optimal-king`, `phase-king` and
/// `phase-queen` on a valid binary-domain, unauthenticated configuration
/// with a binary source value and at most 64 processors. Everything else
/// signals the caller to take the scalar path.
pub fn batch_kernel(
    spec: &AlgorithmSpec,
    config: &RunConfig,
) -> Option<Box<dyn BatchKernel + Send>> {
    let row = spec.king_row()?;
    let eligible = !config.authenticated
        && config.domain.size() == 2
        && config.source_value.raw() <= 1
        && config.n <= sg_sim::MAX_BATCH_RUNS
        && spec.validate(config.n, config.t).is_ok();
    eligible.then(|| Box::new(PhaseKernel::new(config, row)) as Box<dyn BatchKernel + Send>)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_sim::Value;

    fn config(n: usize, t: usize) -> RunConfig {
        RunConfig::new(n, t)
    }

    /// Per-lane counts: `values[lane]` in each lane.
    fn counts(values: impl Iterator<Item = usize>) -> LaneCounts {
        let mut c = LaneCounts::default();
        for (lane, v) in values.enumerate() {
            c.add_times(v, 1 << lane);
        }
        c
    }

    /// Every output the kernel commits at an exchange or propose step
    /// from the counts `one` and `zero`.
    fn outputs(
        row: KingRow,
        n: usize,
        t: usize,
        step: PhaseStep,
        one: &LaneCounts,
        zero: &LaneCounts,
    ) -> (u64, u64) {
        match step {
            PhaseStep::Exchange => exchange_outputs(row, one, n, row.strong_at(n, t)),
            PhaseStep::Propose => propose_rule(one, zero, n, t),
            PhaseStep::King => unreachable!("the king step reads no tally"),
        }
    }

    /// The read rule's soundness, exhaustively: on both rows, at every
    /// `n ≤ 64` the row admits and at `t_max(n)` and `t_max(n) − 1`, for
    /// every fault-set size `L` and every pair of common tallies with
    /// `lo1 + lo0 + L ≤ n` (64 pairs to a word), a lane [`decided`] calls
    /// decided gives the outputs of `(lo1, lo0)` at every `(lo1 + x, lo0 +
    /// y)` with `x + y ≤ L`. And it is decided wherever a correct source
    /// leaves the `n − L` correct slots agreeing, which is what spares a
    /// correct-source cell's liars every draw.
    #[test]
    fn decided_lanes_answer_alike_over_the_whole_box() {
        let mut decided_lanes = 0usize;
        for (spec, row) in [
            (AlgorithmSpec::OptimalKing, KingRow::ThreeRound),
            (AlgorithmSpec::PhaseKing, KingRow::TwoRound),
        ] {
            for n in 1..=64 {
                let t_max = spec.max_resilience(n);
                let ts = [t_max, t_max.saturating_sub(1)];
                for t in ts.into_iter().filter(|&t| spec.validate(n, t).is_ok()) {
                    for &step in row.steps().iter().filter(|&&s| s != PhaseStep::King) {
                        for liars in 0..=n {
                            let pairs: Vec<(usize, usize)> = (0..=n - liars)
                                .flat_map(|lo1| (0..=n - liars - lo1).map(move |lo0| (lo1, lo0)))
                                .collect();
                            for chunk in pairs.chunks(64) {
                                let one = counts(chunk.iter().map(|p| p.0));
                                let zero = counts(chunk.iter().map(|p| p.1));
                                let lanes = !0 >> (64 - chunk.len());
                                let decided = decided(row, n, t, step, &one, &zero, liars) & lanes;
                                // Agreeing correct slots, all on one value.
                                let agreeing = chunk.iter().enumerate().fold(0, |w, (lane, p)| {
                                    let all = p.0 + p.1 == n - liars && (p.0 == 0 || p.1 == 0);
                                    w | u64::from(all) << lane
                                });
                                if liars <= t {
                                    assert_eq!(
                                        agreeing & !decided,
                                        0,
                                        "{row:?} n={n} t={t} {step:?} L={liars}: agreement undecided"
                                    );
                                }
                                if decided == 0 {
                                    continue;
                                }
                                decided_lanes += decided.count_ones() as usize;
                                let base = outputs(row, n, t, step, &one, &zero);
                                for x in 0..=liars {
                                    for y in 0..=liars - x {
                                        let (mut c1, mut c0) = (one, zero);
                                        c1.add_times(x, !0);
                                        c0.add_times(y, !0);
                                        let got = outputs(row, n, t, step, &c1, &c0);
                                        let moved = (got.0 ^ base.0) | (got.1 ^ base.1);
                                        assert_eq!(
                                            moved & decided,
                                            0,
                                            "{row:?} n={n} t={t} {step:?} L={liars} +({x}, {y})"
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(decided_lanes > 100_000, "{decided_lanes} decided lanes");
    }

    #[test]
    fn only_the_king_row_gets_kernels() {
        assert!(batch_kernel(&AlgorithmSpec::OptimalKing, &config(16, 5)).is_some());
        assert!(batch_kernel(&AlgorithmSpec::PhaseKing, &config(16, 3)).is_some());
        assert!(batch_kernel(&AlgorithmSpec::PhaseQueen, &config(16, 3)).is_some());
        // The gear shifts run their tree prefix, like the tree machine
        // itself, on the scalar engine.
        for spec in [
            AlgorithmSpec::KingShift { b: 3 },
            AlgorithmSpec::DynamicKing { b: 3 },
            AlgorithmSpec::Hybrid { b: 3 },
        ] {
            assert!(batch_kernel(&spec, &config(16, 5)).is_none(), "{spec:?}");
        }
    }

    #[test]
    fn invalid_or_oversized_configs_are_refused() {
        // n ≤ 4t (n ≤ 3t) violates the two-round (three-round) row's
        // resilience bound.
        assert!(batch_kernel(&AlgorithmSpec::PhaseKing, &config(12, 3)).is_none());
        assert!(batch_kernel(&AlgorithmSpec::PhaseQueen, &config(12, 3)).is_none());
        assert!(batch_kernel(&AlgorithmSpec::OptimalKing, &config(9, 3)).is_none());
        // More processors than lanes in a word.
        assert!(batch_kernel(&AlgorithmSpec::PhaseKing, &config(100, 3)).is_none());
        assert!(batch_kernel(&AlgorithmSpec::OptimalKing, &config(100, 3)).is_none());
        // Wide-domain source values have no single-bit lane form.
        for (spec, t) in [
            (AlgorithmSpec::PhaseKing, 3),
            (AlgorithmSpec::OptimalKing, 5),
        ] {
            let wide = config(16, t).with_source_value(Value(7));
            assert!(batch_kernel(&spec, &wide).is_none());
        }
    }

    #[test]
    fn leaders_skip_the_source_and_schedule_matches_scalar() {
        let kernel = batch_kernel(&AlgorithmSpec::PhaseKing, &config(9, 2))
            .expect("valid phase-king config");
        // 1 source round + 2·(t+1) phase rounds, like the scalar protocol.
        assert_eq!(kernel.total_rounds(), 7);
        assert!(kernel.snapshot_round(1));
        assert!(!kernel.snapshot_round(2));
        assert!(kernel.snapshot_round(3));
        assert_eq!(kernel.charge(2), 9);
        assert_eq!(kernel.charge(3), 1);
        // 1 + 3·(t+1) on the three-round row; the king round is the third.
        let mut kernel = batch_kernel(&AlgorithmSpec::OptimalKing, &config(7, 2))
            .expect("valid optimal-king config");
        assert_eq!(kernel.total_rounds(), 10);
        assert_eq!((kernel.charge(3), kernel.charge(4)), (7, 1));
        // The source is 0, so phase 0's king is slot 1: it alone speaks.
        kernel.reset(1);
        let (mut present, mut one, mut zero) = ([0u64; 7], [0u64; 7], [0u64; 7]);
        kernel.outgoing(4, &mut present, &mut one, &mut zero);
        assert_eq!(present, [0, !0, 0, 0, 0, 0, 0]);
    }
}
