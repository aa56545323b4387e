//! Lock-step batch execution for the gear-shifting families.
//!
//! [`GearBatchKernel`] brings `king-shift` and `dynamic-king` — the two
//! families whose runs *change algorithms mid-flight* — onto the batch
//! path, closing the last scalar-fallback gap in the sweep executor. The
//! trick is a **mixed-width schedule**:
//!
//! * The Algorithm A *tree prefix* exchanges multi-value tree levels, so
//!   it cannot be one bit per lane. The kernel runs it **wide**: one real
//!   per-lane, per-slot [`GearBox`] ([`KingShift::build`] /
//!   [`DynamicKing::build`]), and each [`BatchKernel::wide_round`] *is* the
//!   scalar engine's round — [`RoundNet::round`], the function
//!   `sg_sim::run_into` loops over — called once per wide lane with that
//!   lane's instances, fault set and scalar adversary. The kernel keeps
//!   no tables or inbox of its own, so the `sg-trace/1` call order and
//!   the engine's per-fault costs hold here by construction.
//! * The king *tail* is single-bit broadcasts and threshold tallies —
//!   the three-round row of the king kernel ([`PhaseKernel`]) — so once
//!   a lane's gear box seeds its tail, the lane moves to the **narrow**
//!   bitwise path: its slot state becomes that kernel's lane words and
//!   every subsequent round is one of its phase steps. The one addition
//!   over `optimal-king` is the carried fault masks: senders a processor
//!   globally detected during its A block read as zero/⊥/default in the
//!   tail tallies, via a per-(recipient, sender) lane mask handed to
//!   every step.
//!
//! A lane can also end *inside* its wide prefix: when every correct slot
//! of an unseeded lane reports the tree machine's echo rule satisfied
//! (see [`crate::GearedProtocol`] — with a correct source that is round 2), the
//! kernel retires the lane at that round itself — decisions, ready bits
//! and prefix accounting become lane-word bits, and the driver's
//! early-stop scan ends it with exactly the scalar engine's sample. No
//! second execution, no deferral.
//!
//! Lanes seed their tails at different rounds — `king-shift`
//! statically, `dynamic-king` whenever a lane's checkpoint vote commits
//! — so tail lanes are grouped into *cohorts* by seed round, each cohort
//! stepping the king kernel through its own `exchange → propose → king`
//! schedule over the cohort's lane mask. The dynamic gear-commit rule is
//! per lane: a lane whose correct processors **unanimously** vote shift
//! at a checkpoint commits in batch (the scalar engine's `all_shift`
//! dispatch, verbatim); a lane whose votes *diverge* retires through
//! [`WideRound::deferred`] and is re-run by the caller on the scalar
//! engine — the batch path stays a fast path, never a semantic change.

use sg_sim::batch::{BatchAdversary, BatchKernel, BatchNet, WideRound};
use sg_sim::{
    GearAction, ProcCtx, ProcessId, Protocol, RoundNet, RoundStatus, RunConfig, RunFrame, Value,
};

use crate::gearbox::{DynamicKing, GearBox};
use crate::king_shift::KingShift;
use crate::optimal_king::{KingRow, PhaseStep};
use crate::params::Params;
use crate::phase_batch::{batch_eligible, PhaseKernel};
use crate::plan::RoundAction;
use crate::spec::AlgorithmSpec;

/// Mixed-width lane state for one batch of `king-shift` or
/// `dynamic-king` runs: a scalar [`GearBox`] per (lane, slot) while a
/// lane's A block runs, the king kernel's lane words plus carried fault
/// masks once its king tail is seeded.
pub struct GearBatchKernel {
    config: RunConfig,
    params: Params,
    b: usize,
    dynamic: bool,
    n: usize,
    total: usize,
    phases: usize,
    /// Rounds at which the prefix's block conversions land (the scalar
    /// `Shift` trace events), for snapshot scheduling.
    conversion_rounds: Vec<usize>,
    /// The dynamic plan's checkpoint rounds (empty for `king-shift`).
    checkpoint_rounds: Vec<usize>,
    lanes: usize,
    /// Flat `[lane * n + slot]` scalar machines and contexts.
    instances: Vec<GearBox>,
    ctxs: Vec<ProcCtx>,
    /// Lanes still running their wide prefix.
    prefix_lanes: u64,
    /// Tail cohorts: (seed round, lanes seeded at it).
    cohorts: Vec<(usize, u64)>,
    /// The prefix lanes handled by the most recent `wide_round`.
    last_wide: u64,
    /// The tail lane words, and the phase steps that move them. Its
    /// `current` and `ready` also hold the decisions and ready bits of
    /// lanes retired in their prefix.
    king: PhaseKernel,
    /// `masked[i * n + j]`: lanes in which recipient `i` carries sender
    /// `j` on its fault mask from the A block.
    masked: Vec<u64>,
    // Per-lane accounting (prefix bits, prefix max-ops, tail ops,
    // discoveries).
    bits_acc: Vec<u64>,
    ops_prefix: Vec<u64>,
    ops_tail: Vec<u64>,
    disc: Vec<u64>,
    /// The engine's round, run once per wide lane per prefix round.
    net: RoundNet,
}

impl GearBatchKernel {
    fn build_instances(&mut self) {
        self.instances.clear();
        self.instances.reserve(self.lanes * self.n);
        let build = if self.dynamic {
            DynamicKing::build
        } else {
            KingShift::build
        };
        for _ in 0..self.lanes {
            for i in 0..self.n {
                let me = ProcessId(i);
                let input = (me == self.config.source).then_some(self.config.source_value);
                self.instances.push(build(self.params, me, input, self.b));
            }
        }
    }

    /// The tail step a cohort seeded at round `start` runs in `round`:
    /// none before its first or after its last.
    fn tail_step(&self, start: usize, round: usize) -> Option<(usize, PhaseStep)> {
        let i = round.checked_sub(start + 1)?;
        (i < 3 * self.phases).then(|| KingRow::ThreeRound.locate(i))
    }

    /// Takes `lane` off the wide path, banking its prefix accounting for
    /// finalize: max local ops over all slots, discoveries over correct
    /// slots (honest bits accrue in `bits_acc` round by round).
    fn leave_prefix(&mut self, lane: usize, fault_set: &sg_sim::ProcessSet) {
        let base = lane * self.n;
        let mut max_ops = 0u64;
        let mut disc = 0u64;
        for i in 0..self.n {
            max_ops = max_ops.max(self.ctxs[base + i].ops());
            if !fault_set.contains(ProcessId(i)) {
                let prefix = self.instances[base + i].prefix();
                disc += prefix.fault_list().len() as u64;
            }
        }
        self.ops_prefix[lane] = max_ops;
        self.disc[lane] = disc;
        self.prefix_lanes &= !(1u64 << lane);
    }

    /// Moves `lane` from the wide prefix to the narrow tail: the seeded
    /// king cores' values and fault masks become lane-word bits, and the
    /// lane joins the cohort seeded at `round`.
    fn seed_lane(&mut self, lane: usize, round: usize, fault_set: &sg_sim::ProcessSet) {
        let n = self.n;
        let bit = 1u64 << lane;
        let base = lane * n;
        for i in 0..n {
            let gear = &self.instances[base + i];
            debug_assert!(gear.seeded(), "seed_lane on an unseeded gear box");
            let core = gear.core().expect("gear tail always has a king core");
            if core.current() == Value(1) {
                self.king.current[i] |= bit;
            }
            for p in core.masked().iter() {
                self.masked[i * n + p.index()] |= bit;
            }
        }
        self.leave_prefix(lane, fault_set);
        match self.cohorts.iter_mut().find(|c| c.0 == round) {
            Some(c) => c.1 |= bit,
            None => self.cohorts.push((round, bit)),
        }
    }

    /// Whether every correct slot of an unseeded `lane` is ready to
    /// decide — the scalar engine's early-stop conjunction over the
    /// prefix's echo rule (see [`crate::GearedProtocol`]).
    fn prefix_ready(&self, lane: usize, fault_set: &sg_sim::ProcessSet) -> bool {
        let base = lane * self.n;
        (0..self.n).all(|i| {
            fault_set.contains(ProcessId(i))
                || self.instances[base + i].round_status(&self.ctxs[base + i])
                    == RoundStatus::ReadyToDecide
        })
    }

    /// Retires a lane that [`GearBatchKernel::prefix_ready`] in its wide
    /// prefix: every slot's decision (the unseeded gear box decides its
    /// prefix root) and ready bit become lane-word bits, so the driver's
    /// early-stop scan ends the lane this round with the scalar sample.
    /// The lane joins no cohort — nothing touches it again.
    fn retire_lane(&mut self, lane: usize, fault_set: &sg_sim::ProcessSet) {
        let bit = 1u64 << lane;
        let base = lane * self.n;
        for i in 0..self.n {
            if self.instances[base + i].prefix().preferred() == Value(1) {
                self.king.current[i] |= bit;
            }
            self.king.ready[i] |= bit;
        }
        self.leave_prefix(lane, fault_set);
    }

    /// Adds `per`-slot tail ops to every lane in `mask` (tail charges
    /// are uniform across slots, so per-lane totals stay exact).
    fn add_tail_ops(&mut self, mask: u64, per: u64) {
        let mut w = mask;
        while w != 0 {
            let lane = w.trailing_zeros() as usize;
            w &= w - 1;
            self.ops_tail[lane] += per;
        }
    }
}

impl BatchKernel for GearBatchKernel {
    fn total_rounds(&self) -> usize {
        self.total
    }

    fn reset(&mut self, lanes: usize) {
        let n = self.n;
        let rebuild = if self.lanes == lanes && self.instances.len() == lanes * n {
            // The instance-pool path: same (t, b) shape, reset in place.
            self.instances
                .iter_mut()
                .enumerate()
                .any(|(idx, inst)| !inst.reset(ProcessId(idx % n), &self.config))
        } else {
            true
        };
        self.lanes = lanes;
        if rebuild {
            self.build_instances();
        }
        self.ctxs.clear();
        self.ctxs
            .extend((0..lanes * n).map(|idx| ProcCtx::new(ProcessId(idx % n))));
        self.king.reset(lanes);
        self.masked.clear();
        self.masked.resize(n * n, 0);
        for buf in [
            &mut self.bits_acc,
            &mut self.ops_prefix,
            &mut self.ops_tail,
            &mut self.disc,
        ] {
            buf.clear();
            buf.resize(lanes, 0);
        }
        self.prefix_lanes = if lanes == 64 { !0 } else { (1u64 << lanes) - 1 };
        self.cohorts.clear();
        self.last_wide = 0;
        self.net.begin(n);
    }

    fn charge(&self, _round: usize) -> u64 {
        // Tail charges differ per cohort and prefix charges per slot;
        // everything is accounted internally via `lane_ops`.
        0
    }

    fn snapshot_round(&self, round: usize) -> bool {
        self.snapshot_lanes(round) != 0
    }

    fn snapshot_lanes(&self, round: usize) -> u64 {
        // Preference events land: at round 1 and at every block
        // conversion while a lane runs its prefix (the scalar `Preferred`
        // / `Shift` emissions — a commit's seed event shares its
        // conversion's round and value), and at every king step of a
        // seeded lane's tail.
        let mut lanes = 0u64;
        if round == 1 || self.conversion_rounds.contains(&round) {
            lanes |= self.last_wide;
        }
        for &(start, mask) in &self.cohorts {
            if matches!(self.tail_step(start, round), Some((_, PhaseStep::King))) {
                lanes |= mask;
            }
        }
        lanes
    }

    fn wide_round(
        &mut self,
        round: usize,
        config: &RunConfig,
        adversary: &mut dyn BatchAdversary,
        fault_sets: &[sg_sim::ProcessSet],
        _faulty: &[u64],
        active: u64,
    ) -> WideRound {
        let wide = self.prefix_lanes & active;
        self.last_wide = wide;
        if wide == 0 {
            return WideRound::default();
        }
        let n = self.n;
        let mut deferred = 0u64;
        let mut w = wide;
        while w != 0 {
            let lane = w.trailing_zeros() as usize;
            w &= w - 1;
            let bit = 1u64 << lane;
            let base = lane * n;
            let fault_set = &fault_sets[lane];

            // The scalar engine's round over this lane's slots, shadows
            // included; honest wire bits accrue as its `RoundStats`
            // counts them. Edge faults never reach a batch (the driver
            // bails out before the first round).
            let frame = RunFrame {
                config,
                total_rounds: self.total,
                faulty: fault_set,
                sigs: None,
                edge_faults: false,
            };
            let stats = self.net.round(
                &frame,
                round,
                adversary.lane(lane),
                &mut self.instances[base..base + n],
                &mut self.ctxs[base..base + n],
            );
            self.bits_acc[lane] += stats.honest_bits;

            // Gear transitions, in the scalar engine's order. A static
            // boundary seeds inside `deliver` (every slot,
            // deterministically); an unseeded lane whose correct slots
            // are all ready stops here (status before gear dispatch,
            // under the driver's own `early && round < total` gate); a
            // dynamic checkpoint replays the scalar dispatch — commit on
            // a unanimous correct-processor shift vote, defer the lane
            // to the scalar engine when votes diverge.
            if self.instances[base].seeded() {
                self.seed_lane(lane, round, fault_set);
            } else if config.early_stopping
                && round < self.total
                && self.prefix_ready(lane, fault_set)
            {
                self.retire_lane(lane, fault_set);
            } else if self.dynamic && self.checkpoint_rounds.contains(&round) {
                let mut all_shift = true;
                let mut any_shift = false;
                for i in 0..n {
                    if fault_set.contains(ProcessId(i)) {
                        continue;
                    }
                    match self.instances[base + i].next_action(&self.ctxs[base + i]) {
                        GearAction::ShiftGear => any_shift = true,
                        _ => all_shift = false,
                    }
                }
                if all_shift {
                    for i in 0..n {
                        self.instances[base + i].shift_gear(&mut self.ctxs[base + i]);
                    }
                    self.seed_lane(lane, round, fault_set);
                } else if any_shift {
                    deferred |= bit;
                }
            }
        }
        WideRound {
            handled: wide,
            deferred,
        }
    }

    fn finished(&self, round: usize) -> u64 {
        // A cohort's tail ends exactly `3 · phases` rounds after its
        // seed — the gear box's `end_round`, per lane.
        let mut fin = 0u64;
        for &(start, mask) in &self.cohorts {
            if round >= start + 3 * self.phases {
                fin |= mask;
            }
        }
        fin
    }

    fn outgoing(&mut self, round: usize, present: &mut [u64], one: &mut [u64], zero: &mut [u64]) {
        for &(start, mask) in &self.cohorts {
            if let Some((phase, step)) = self.tail_step(start, round) {
                self.king
                    .outgoing_step(phase, step, mask, present, one, zero);
            }
        }
    }

    fn deliver(&mut self, round: usize, net: &BatchNet<'_>, active: u64) {
        for ci in 0..self.cohorts.len() {
            let (start, mask) = self.cohorts[ci];
            let lanes = mask & active;
            let Some((phase, step)) = self.tail_step(start, round).filter(|_| lanes != 0) else {
                continue;
            };
            // The king kernel's step with the carried fault masks: a
            // masked sender reads as the default 0 in the exchange, as ⊥
            // in the propose round, and a masked king as the default —
            // the scalar `KingCore`'s masked-ballot clearing.
            self.king
                .deliver_step(phase, step, &net.for_lanes(lanes), lanes, &self.masked);
            self.add_tail_ops(lanes, self.king.step_charge(step));
        }
    }

    fn ready(&self, slot: usize) -> u64 {
        // Set by seeded lanes' propose locks, and for every slot of a
        // lane retired in its prefix (`retire_lane`). The driver exempts
        // the source itself.
        self.king.ready[slot]
    }

    fn current_one(&self, slot: usize) -> u64 {
        // Tail lanes report their lane words; prefix lanes report the
        // per-instance tree preference (only consulted on snapshot
        // rounds, so the scalar walk stays off the hot path).
        let mut v = self.king.current[slot];
        let mut w = self.prefix_lanes;
        while w != 0 {
            let lane = w.trailing_zeros() as usize;
            w &= w - 1;
            if self.instances[lane * self.n + slot].prefix().preferred() == Value(1) {
                v |= 1u64 << lane;
            }
        }
        v
    }

    fn decision_one(&self, slot: usize) -> u64 {
        self.king.decision_one(slot)
    }

    fn lane_bits(&self, lane: usize) -> u64 {
        self.bits_acc[lane]
    }

    fn lane_ops(&self, lane: usize) -> u64 {
        // Tail charges are slot-uniform, so the per-processor max
        // distributes: max over slots of (prefix + tail) = prefix max +
        // tail total.
        self.ops_prefix[lane] + self.ops_tail[lane]
    }

    fn lane_discoveries(&self, lane: usize) -> u64 {
        self.disc[lane]
    }
}

/// The batch kernel for the gear-shifting families, if `spec` is
/// [`AlgorithmSpec::KingShift`] or [`AlgorithmSpec::DynamicKing`] on a
/// valid binary-domain, unauthenticated configuration with a binary
/// source value and at most 64 processors. Everything else signals the
/// caller to take the scalar path.
pub fn gear_batch_kernel(spec: &AlgorithmSpec, config: &RunConfig) -> Option<GearBatchKernel> {
    let (b, dynamic) = match spec {
        AlgorithmSpec::KingShift { b } => (*b, false),
        AlgorithmSpec::DynamicKing { b } => (*b, true),
        _ => return None,
    };
    if !batch_eligible(spec, config) {
        return None;
    }
    let params = Params::from_config(config);
    // A probe instance pins the schedule: total rounds, conversion
    // rounds (block boundaries) and checkpoint rounds all come from the
    // same construction the scalar path runs.
    let build = if dynamic {
        DynamicKing::build
    } else {
        KingShift::build
    };
    let gear = build(params, config.source, Some(config.source_value), b);
    let total = gear.total_rounds();
    let phases = config.t + 1;
    let conversion_rounds: Vec<usize> = gear
        .prefix()
        .plan()
        .iter()
        .enumerate()
        .filter_map(|(idx, action)| {
            matches!(action, RoundAction::Gather { convert: Some(_) }).then_some(idx + 1)
        })
        .collect();
    let checkpoint_rounds: Vec<usize> = gear.checkpoints().iter().map(|c| c.round).collect();
    Some(GearBatchKernel {
        config: *config,
        params,
        b,
        dynamic,
        n: config.n,
        total,
        phases,
        conversion_rounds,
        checkpoint_rounds,
        lanes: 0,
        instances: Vec::new(),
        ctxs: Vec::new(),
        prefix_lanes: 0,
        cohorts: Vec::new(),
        last_wide: 0,
        king: PhaseKernel::new(config, KingRow::ThreeRound),
        masked: Vec::new(),
        bits_acc: Vec::new(),
        ops_prefix: Vec::new(),
        ops_tail: Vec::new(),
        disc: Vec::new(),
        net: RoundNet::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gearbox::dynamic_king_rounds;
    use crate::king_shift::king_shift_rounds;

    fn config(n: usize, t: usize) -> RunConfig {
        RunConfig::new(n, t)
    }

    #[test]
    fn both_gear_families_get_kernels() {
        assert!(gear_batch_kernel(&AlgorithmSpec::KingShift { b: 3 }, &config(16, 5)).is_some());
        assert!(gear_batch_kernel(&AlgorithmSpec::DynamicKing { b: 3 }, &config(16, 5)).is_some());
        assert!(gear_batch_kernel(&AlgorithmSpec::OptimalKing, &config(16, 5)).is_none());
        assert!(gear_batch_kernel(&AlgorithmSpec::Hybrid { b: 3 }, &config(16, 5)).is_none());
    }

    #[test]
    fn invalid_or_oversized_configs_are_refused() {
        // n ≤ 3t violates the resilience bound.
        assert!(gear_batch_kernel(&AlgorithmSpec::KingShift { b: 3 }, &config(9, 3)).is_none());
        // More processors than lanes in a word.
        assert!(gear_batch_kernel(&AlgorithmSpec::KingShift { b: 3 }, &config(100, 3)).is_none());
        // Wide-domain source values have no single-bit lane form.
        let wide = config(16, 5).with_source_value(sg_sim::Value(7));
        assert!(gear_batch_kernel(&AlgorithmSpec::DynamicKing { b: 3 }, &wide).is_none());
    }

    #[test]
    fn schedules_match_the_scalar_formulas() {
        let ks = gear_batch_kernel(&AlgorithmSpec::KingShift { b: 3 }, &config(16, 5)).unwrap();
        assert_eq!(ks.total_rounds(), king_shift_rounds(5, 3));
        // One statically planned conversion, no checkpoints.
        assert_eq!(ks.conversion_rounds, vec![1 + 3]);
        assert!(ks.checkpoint_rounds.is_empty());

        let dk = gear_batch_kernel(&AlgorithmSpec::DynamicKing { b: 3 }, &config(16, 5)).unwrap();
        assert_eq!(dk.total_rounds(), dynamic_king_rounds(5, 3));
        // A conversion closes every block; a checkpoint follows every
        // non-final one.
        assert_eq!(dk.conversion_rounds, vec![4, 7, 10, 13]);
        assert_eq!(dk.checkpoint_rounds, vec![4, 7, 10]);
    }

    /// Lanes that shift at a checkpoint and lanes that run the whole
    /// prefix seed their tails four rounds apart at `b = 4`, so one
    /// round holds a cohort in its exchange step and a cohort in its
    /// propose step: each gets the king kernel's step over its own lanes
    /// (the late cohort with its carried masks), and every lane ends like
    /// its scalar run.
    #[test]
    fn cohorts_at_different_phase_steps_share_a_round() {
        use sg_adversary::{FaultSelection, RandomLiar};
        use sg_sim::{run_batch, Adversary, BatchArena, NoFaults};

        let spec = AlgorithmSpec::DynamicKing { b: 4 };
        let config = config(16, 5).fixed_length();
        // Three random liars, the source among them, fill the first
        // block's detection ledger: no shift vote at its checkpoint.
        let lane = |i: usize| -> Box<dyn Adversary> {
            if i.is_multiple_of(2) {
                Box::new(NoFaults)
            } else {
                let liars = [0, 5, 6].map(ProcessId);
                Box::new(RandomLiar::new(FaultSelection::explicit(liars), i as u64))
            }
        };
        let mut kernel = gear_batch_kernel(&spec, &config).unwrap();
        let mut lanes: Vec<Box<dyn Adversary>> = (0..6).map(lane).collect();
        let mut arena = BatchArena::new();
        assert!(run_batch(&mut arena, &config, &mut kernel, &mut lanes));
        assert_eq!(kernel.cohorts, vec![(5, 0b010101), (9, 0b101010)]);
        for (i, result) in arena.results().iter().enumerate() {
            let scalar = crate::execute(spec, &config, lane(i).as_mut()).unwrap();
            assert!(!result.deferred && result.agreement && scalar.agreement());
            assert_eq!(result.rounds_used, scalar.rounds_used, "lane {i}");
        }
    }
}
