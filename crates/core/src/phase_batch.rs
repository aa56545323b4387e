//! Lock-step batch tallies for the phase family.
//!
//! [`PhaseBatchKernel`] re-expresses [`PhaseKing`](crate::phase_king::PhaseKing) and
//! [`PhaseQueen`](crate::phase_queen::PhaseQueen) over lane words, the same way
//! [`KingBatchKernel`](crate::KingBatchKernel) does for `optimal-king`:
//! both protocols run `t + 1` two-round phases after the source round,
//! broadcast the *majority bit* of the exchange tally from the phase
//! leader, and differ only in the rule that decides when a processor may
//! ignore that leader. The exchange tallies become [`LaneCounts`]
//! bit-plane counters, and the two rules become threshold masks:
//!
//! * **King** (plurality with super-majority proof): keep the tally
//!   majority when its count exceeds `n/2 + t`, else adopt the king's
//!   broadcast.
//! * **Queen** (pure threshold): keep bit `b` when `2·count(b) > n + 2t`,
//!   else adopt the queen's broadcast.
//!
//! Both conditions convert to exact `ge` tests on the ones-counter (the
//! derivations are inline below); as in the scalar protocols, crossing
//! the super-threshold also marks the run ready for early stopping.

use sg_sim::batch::{BatchKernel, BatchNet, LaneCounts};
use sg_sim::RunConfig;

use crate::params::phase_leader;
use crate::spec::AlgorithmSpec;

/// Whether `spec` under `config` has the shape lane words express — the
/// precondition every lock-step kernel shares: a valid unauthenticated
/// binary-domain configuration with a binary source value and at most
/// 64 processors.
pub(crate) fn batch_eligible(spec: &AlgorithmSpec, config: &RunConfig) -> bool {
    !config.authenticated
        && config.domain.size() == 2
        && config.source_value.raw() <= 1
        && config.n <= sg_sim::MAX_BATCH_RUNS
        && spec.validate(config.n, config.t).is_ok()
}

/// Commits `value` into `state[slot]` for lanes in `active` only,
/// freezing retired runs.
#[inline]
pub(crate) fn lane_commit(state: &mut [u64], slot: usize, value: u64, active: u64) {
    state[slot] = (value & active) | (state[slot] & !active);
}

/// Which leader rule the kernel applies in phase rounds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PhaseRule {
    /// Phase King: plurality kept on `count > n/2 + t`.
    King,
    /// Phase Queen: bit kept on `2·count > n + 2t`.
    Queen,
}

/// The role of an engine round in the shared phase-family schedule.
enum Role {
    /// Round 1: only the source speaks.
    Source,
    /// Even rounds: everyone broadcasts its current value.
    Exchange,
    /// Odd rounds ≥ 3: the phase leader broadcasts its tally majority.
    Leader(usize),
}

/// Bit-sliced lane state for one batch of phase-king or phase-queen
/// runs: per slot, the current preferred value as a lane mask, the ones
/// counter of the last exchange, and the stability (ready) mask.
pub struct PhaseBatchKernel {
    n: usize,
    t: usize,
    source: usize,
    rule: PhaseRule,
    /// Lane mask of the source's input being `Value(1)` (uniform across
    /// the batch, like every configuration field).
    input_one: u64,
    current: Vec<u64>,
    ones: Vec<LaneCounts>,
    ready: Vec<u64>,
}

impl PhaseBatchKernel {
    /// The leader of 0-based `phase`: the `phase`-th processor id,
    /// skipping the source — identical to the scalar `king`/`queen`.
    fn leader(&self, phase: usize) -> usize {
        phase_leader(self.n, self.source, phase)
    }

    fn role(&self, round: usize) -> Role {
        if round == 1 {
            Role::Source
        } else if round.is_multiple_of(2) {
            Role::Exchange
        } else {
            Role::Leader((round - 3) / 2)
        }
    }

    /// Lanes in which `slot`'s exchange tally has a ones-majority — the
    /// value the scalar plurality picks (`ones > n − ones  ⇔
    /// ones ≥ ⌊n/2⌋ + 1`), and exactly the majority bit a leader
    /// broadcasts under both rules.
    fn tally_majority(&self, slot: usize) -> u64 {
        self.ones[slot].ge(self.n / 2 + 1)
    }
}

impl BatchKernel for PhaseBatchKernel {
    fn total_rounds(&self) -> usize {
        1 + 2 * (self.t + 1)
    }

    fn reset(&mut self, _lanes: usize) {
        for buf in [&mut self.current, &mut self.ready] {
            buf.clear();
            buf.resize(self.n, 0);
        }
        self.ones.clear();
        self.ones.resize_with(self.n, LaneCounts::default);
    }

    fn charge(&self, round: usize) -> u64 {
        match self.role(round) {
            Role::Source | Role::Leader(_) => 1,
            Role::Exchange => self.n as u64,
        }
    }

    fn snapshot_round(&self, round: usize) -> bool {
        // `Preferred` trace events land after the source round and after
        // every leader round, in both scalar protocols.
        matches!(self.role(round), Role::Source | Role::Leader(_))
    }

    fn outgoing(&mut self, round: usize, present: &mut [u64], one: &mut [u64], zero: &mut [u64]) {
        match self.role(round) {
            Role::Source => {
                present[self.source] = !0;
                one[self.source] = self.input_one;
                zero[self.source] = !self.input_one;
            }
            Role::Exchange => {
                for j in 0..self.n {
                    present[j] = !0;
                    one[j] = self.current[j];
                    zero[j] = !self.current[j];
                }
            }
            Role::Leader(phase) => {
                // Both rules broadcast the tally majority, *not* the
                // leader's current value (a stale value breaks the
                // consistency argument — see the scalar protocols).
                let leader = self.leader(phase);
                let maj = self.tally_majority(leader);
                present[leader] = !0;
                one[leader] = maj;
                zero[leader] = !maj;
            }
        }
    }

    fn deliver(&mut self, round: usize, net: &BatchNet<'_>, active: u64) {
        let (n, t) = (self.n, self.t);
        match self.role(round) {
            Role::Source => {
                // Everyone adopts the (sanitized) source value; anything
                // unreadable defaults to 0, so the delivered `one` mask
                // is exactly the adopted value.
                for i in 0..n {
                    let v = if i == self.source {
                        self.input_one
                    } else {
                        net.one(self.source, i)
                    };
                    lane_commit(&mut self.current, i, v, active);
                }
            }
            Role::Exchange => {
                // Count ones over all n slots (own current substituted
                // for the cleared self slot); zeros are n − ones because
                // absent/garbled values sanitize to 0.
                for i in 0..n {
                    let ones = net.tally_one(i, self.current[i]);
                    self.ones[i].commit(&ones, active);
                }
            }
            Role::Leader(phase) => {
                let leader = self.leader(phase);
                let leader_maj = self.tally_majority(leader);
                for i in 0..n {
                    let read = if i == leader {
                        leader_maj
                    } else {
                        net.one(leader, i)
                    };
                    let maj = self.tally_majority(i);
                    let (keep_one, keep_zero) = match self.rule {
                        // King: `count(maj) > n/2 + t`. For `maj = 1`,
                        // `ones ≥ n/2 + t + 1` (which forces the majority,
                        // so no `maj` conjunct is needed); for `maj = 0`,
                        // `n − ones > n/2 + t  ⇔  ones < n − n/2 − t`.
                        PhaseRule::King => (
                            self.ones[i].ge(n / 2 + t + 1),
                            !self.ones[i].ge(n - n / 2 - t),
                        ),
                        // Queen: `2·count > n + 2t  ⇔  count ≥ k + 1` with
                        // `k = ⌊(n + 2t)/2⌋`; for zeros, `n − ones ≥ k + 1
                        // ⇔  ones < n − k`.
                        PhaseRule::Queen => {
                            let k = (n + 2 * t) / 2;
                            (self.ones[i].ge(k + 1), !self.ones[i].ge(n - k))
                        }
                    };
                    let stable = keep_one | keep_zero;
                    let v = (stable & maj) | (!stable & read);
                    lane_commit(&mut self.current, i, v, active);
                    lane_commit(&mut self.ready, i, stable, active);
                }
            }
        }
    }

    fn ready(&self, slot: usize) -> u64 {
        if slot == self.source {
            // The source decides its own input and is always ready.
            !0
        } else {
            self.ready[slot]
        }
    }

    fn current_one(&self, slot: usize) -> u64 {
        self.current[slot]
    }

    fn decision_one(&self, slot: usize) -> u64 {
        if slot == self.source {
            self.input_one
        } else {
            self.current[slot]
        }
    }
}

/// The batch kernel for `spec` under `config`, if any family provides
/// one: `optimal-king` ([`crate::king_batch_kernel`]), `phase-king`,
/// `phase-queen`, or the gear-shifting `king-shift` / `dynamic-king`
/// pair ([`crate::gear_batch_kernel`], a mixed-width kernel running the
/// tree prefix wide and the king tail narrow), each on a valid
/// binary-domain, unauthenticated configuration with a binary source
/// value and at most 64 processors. Everything else signals the caller
/// to take the scalar path.
pub fn batch_kernel(
    spec: &AlgorithmSpec,
    config: &RunConfig,
) -> Option<Box<dyn BatchKernel + Send>> {
    if !batch_eligible(spec, config) {
        return None;
    }
    let rule = match spec {
        AlgorithmSpec::OptimalKing => {
            return crate::king_batch_kernel(spec, config)
                .map(|k| Box::new(k) as Box<dyn BatchKernel + Send>);
        }
        AlgorithmSpec::KingShift { .. } | AlgorithmSpec::DynamicKing { .. } => {
            return crate::gear_batch_kernel(spec, config)
                .map(|k| Box::new(k) as Box<dyn BatchKernel + Send>);
        }
        AlgorithmSpec::PhaseKing => PhaseRule::King,
        AlgorithmSpec::PhaseQueen => PhaseRule::Queen,
        _ => return None,
    };
    Some(Box::new(PhaseBatchKernel {
        n: config.n,
        t: config.t,
        source: config.source.index(),
        rule,
        input_one: if config.source_value.raw() == 1 {
            !0
        } else {
            0
        },
        current: Vec::new(),
        ones: Vec::new(),
        ready: Vec::new(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_sim::Value;

    fn config(n: usize, t: usize) -> RunConfig {
        RunConfig::new(n, t)
    }

    #[test]
    fn five_families_get_kernels() {
        assert!(batch_kernel(&AlgorithmSpec::OptimalKing, &config(16, 5)).is_some());
        assert!(batch_kernel(&AlgorithmSpec::PhaseKing, &config(16, 3)).is_some());
        assert!(batch_kernel(&AlgorithmSpec::PhaseQueen, &config(16, 3)).is_some());
        assert!(batch_kernel(&AlgorithmSpec::KingShift { b: 3 }, &config(16, 5)).is_some());
        assert!(batch_kernel(&AlgorithmSpec::DynamicKing { b: 3 }, &config(16, 5)).is_some());
        assert!(batch_kernel(&AlgorithmSpec::Hybrid { b: 3 }, &config(16, 5)).is_none());
    }

    #[test]
    fn invalid_or_oversized_configs_are_refused() {
        // n ≤ 4t violates the phase-family resilience bound.
        assert!(batch_kernel(&AlgorithmSpec::PhaseKing, &config(12, 3)).is_none());
        assert!(batch_kernel(&AlgorithmSpec::PhaseQueen, &config(12, 3)).is_none());
        // More processors than lanes in a word.
        assert!(batch_kernel(&AlgorithmSpec::PhaseKing, &config(100, 3)).is_none());
        // Wide-domain source values have no single-bit lane form.
        let wide = config(16, 3).with_source_value(Value(7));
        assert!(batch_kernel(&AlgorithmSpec::PhaseKing, &wide).is_none());
    }

    #[test]
    fn leaders_skip_the_source_and_schedule_matches_scalar() {
        let kernel = batch_kernel(&AlgorithmSpec::PhaseKing, &config(9, 2))
            .expect("valid phase-king config");
        // 1 source round + 2·(t+1) phase rounds, like the scalar pair.
        assert_eq!(kernel.total_rounds(), 7);
        assert!(kernel.snapshot_round(1));
        assert!(!kernel.snapshot_round(2));
        assert!(kernel.snapshot_round(3));
        assert_eq!(kernel.charge(2), 9);
        assert_eq!(kernel.charge(3), 1);
    }
}
