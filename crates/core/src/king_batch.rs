//! Lock-step batch tallies for the king family.
//!
//! [`KingBatchKernel`] re-expresses [`OptimalKing`](crate::OptimalKing)'s
//! per-round logic over lane words: each processor-slot's preferred value,
//! proposal, and lock bit become one `u64` spanning up to 64 runs, and the
//! `n − t` / `t + 1` threshold tests of the exchange and propose steps
//! become bit-plane comparisons ([`LaneCounts`]) evaluated for every run
//! at once. The engine-side driver lives in [`sg_sim::batch`]; this module
//! only supplies the protocol semantics, mirroring how the scalar
//! [`KingCore`](crate::KingCore) sits behind the engine's round loop.
//!
//! This kernel serves [`AlgorithmSpec::OptimalKing`] only: a static
//! schedule, single binary values on the wire, pure threshold tallies —
//! exactly the shape lane words express. `phase-king` / `phase-queen`
//! have [`PhaseBatchKernel`](crate::PhaseBatchKernel), and the
//! gear-shifting `king-shift` / `dynamic-king` pair runs its king tail
//! through the same `exchange_rule` / `propose_rule` in
//! [`GearBatchKernel`](crate::GearBatchKernel); [`crate::batch_kernel`]
//! picks by spec, every other family runs on the scalar engine, and
//! `sg_sim::reference` holds all of them to one answer.

use sg_sim::batch::{BatchKernel, BatchNet, LaneCounts};
use sg_sim::RunConfig;

use crate::optimal_king::PhaseStep;
use crate::params::phase_leader;
use crate::phase_batch::{batch_eligible, lane_commit};
use crate::spec::AlgorithmSpec;

/// The exchange rule, per lane, from a processor's count of ones over
/// all `n` slots: it proposes 0 when zeros reach `n − t` (zeros are `n −
/// ones`, absent and garbled values defaulting to 0; tested first, as in
/// the scalar tally), 1 when ones do, and `⊥` otherwise. Returns the
/// `(prop_some, prop_one)` lane masks.
pub(crate) fn exchange_rule(ones: &LaneCounts, n: usize, t: usize) -> (u64, u64) {
    let zeros_win = !ones.ge(t + 1); // n − ones ≥ n − t
    let ones_win = ones.ge(n - t) & !zeros_win;
    (zeros_win | ones_win, ones_win)
}

/// The propose rule, per lane, from a processor's counts of `Some(1)` and
/// `Some(0)` proposals: plurality over non-`⊥` proposals with the smaller
/// value winning ties, lock at `n − t`, adopt above `t`, default 0
/// otherwise. Returns the `(current, lock)` lane masks.
pub(crate) fn propose_rule(c1: &LaneCounts, c0: &LaneCounts, n: usize, t: usize) -> (u64, u64) {
    let top_one = c1.gt(c0);
    let lock = (top_one & c1.ge(n - t)) | (!top_one & c0.ge(n - t));
    let adopt = (top_one & c1.ge(t + 1)) | (!top_one & c0.ge(t + 1));
    (adopt & top_one, lock)
}

/// Bit-sliced lane state for one batch of `OptimalKing` runs.
///
/// Per slot `i`, bit `r` of `current[i]` is run `r`'s preferred value,
/// `prop_some`/`prop_one` encode the three-way proposal (`Some(1)`,
/// `Some(0)`, `None`), and `locked`/`ready` carry the propose-step lock
/// across the phase — the exact fields of the scalar
/// [`KingCore`](crate::KingCore), one word per run instead of one scalar.
pub struct KingBatchKernel {
    n: usize,
    t: usize,
    source: usize,
    /// Lane mask of the source's input being `Value(1)` (uniform: every
    /// lane of a batch shares one configuration).
    input_one: u64,
    current: Vec<u64>,
    prop_some: Vec<u64>,
    prop_one: Vec<u64>,
    locked: Vec<u64>,
    ready: Vec<u64>,
}

impl KingBatchKernel {
    /// Maps an engine round to (phase, step); round 1 is the source round.
    fn locate(&self, round: usize) -> Option<(usize, PhaseStep)> {
        if round == 1 {
            return None;
        }
        let i = round - 2;
        Some((i / 3, PhaseStep::from_index(i % 3)))
    }

    /// The king of 0-based `phase`: the `phase`-th processor id, skipping
    /// the source — identical to [`KingCore::king`](crate::KingCore::king).
    fn king(&self, phase: usize) -> usize {
        phase_leader(self.n, self.source, phase)
    }
}

impl BatchKernel for KingBatchKernel {
    fn total_rounds(&self) -> usize {
        1 + 3 * (self.t + 1)
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
        match self.locate(round) {
            None => 1,
            Some((_, PhaseStep::Exchange | PhaseStep::Propose)) => self.n as u64,
            Some((_, PhaseStep::King)) => 1,
        }
    }

    fn snapshot_round(&self, round: usize) -> bool {
        matches!(self.locate(round), None | Some((_, PhaseStep::King)))
    }

    fn outgoing(&mut self, round: usize, present: &mut [u64], one: &mut [u64], zero: &mut [u64]) {
        match self.locate(round) {
            None => {
                // Only the source speaks in round 1, with its input.
                present[self.source] = !0;
                one[self.source] = self.input_one;
                zero[self.source] = !self.input_one;
            }
            Some((_, PhaseStep::Exchange)) => {
                for j in 0..self.n {
                    present[j] = !0;
                    one[j] = self.current[j];
                    zero[j] = !self.current[j];
                }
            }
            Some((_, PhaseStep::Propose)) => {
                // `Some(1)` / `Some(0)` / `⊥` — present in all three cases.
                for j in 0..self.n {
                    present[j] = !0;
                    one[j] = self.prop_some[j] & self.prop_one[j];
                    zero[j] = self.prop_some[j] & !self.prop_one[j];
                }
            }
            Some((phase, PhaseStep::King)) => {
                let k = self.king(phase);
                present[k] = !0;
                one[k] = self.current[k];
                zero[k] = !self.current[k];
            }
        }
    }

    fn deliver(&mut self, round: usize, net: &BatchNet<'_>, active: u64) {
        let (n, t) = (self.n, self.t);
        match self.locate(round) {
            None => {
                // Everyone adopts the (sanitized) source value; unreadable
                // deliveries land on the default, i.e. the `one` lane mask
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
            Some((_, PhaseStep::Exchange)) => {
                // Ones over all n slots, own current in the self slot.
                for i in 0..n {
                    let ones = net.tally_one(i, self.current[i]);
                    let (prop_some, prop_one) = exchange_rule(&ones, n, t);
                    lane_commit(&mut self.prop_some, i, prop_some, active);
                    lane_commit(&mut self.prop_one, i, prop_one, active);
                }
            }
            Some((_, PhaseStep::Propose)) => {
                for i in 0..n {
                    let c1 = net.tally_one(i, self.prop_some[i] & self.prop_one[i]);
                    let c0 = net.tally_zero(i, self.prop_some[i] & !self.prop_one[i]);
                    let (current, lock) = propose_rule(&c1, &c0, n, t);
                    lane_commit(&mut self.current, i, current, active);
                    lane_commit(&mut self.locked, i, lock, active);
                    lane_commit(&mut self.ready, i, lock, active);
                }
            }
            Some((phase, PhaseStep::King)) => {
                // Unlocked processors adopt the king's value (the king its
                // own); the phase's proposal and lock are then cleared.
                // In-place is safe: the king's own current never changes.
                let k = self.king(phase);
                for i in 0..n {
                    let read = if i == k {
                        self.current[k]
                    } else {
                        net.one(k, i)
                    };
                    let v = (self.locked[i] & self.current[i]) | (!self.locked[i] & read);
                    lane_commit(&mut self.current, i, v, active);
                }
                for i in 0..n {
                    lane_commit(&mut self.prop_some, i, 0, active);
                    lane_commit(&mut self.locked, i, 0, active);
                }
            }
        }
    }

    fn ready(&self, slot: usize) -> u64 {
        self.ready[slot]
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

/// The batch kernel for `spec` under `config`, if one exists.
///
/// Returns `Some` only for [`AlgorithmSpec::OptimalKing`] on a valid
/// binary-domain, unauthenticated configuration with a binary source
/// value and at most 64 processors; everything else signals the caller
/// to take the scalar path.
pub fn king_batch_kernel(spec: &AlgorithmSpec, config: &RunConfig) -> Option<KingBatchKernel> {
    if !matches!(spec, AlgorithmSpec::OptimalKing) || !batch_eligible(spec, config) {
        return None;
    }
    Some(KingBatchKernel {
        n: config.n,
        t: config.t,
        source: config.source.index(),
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
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_sim::Value;

    fn config(n: usize, t: usize) -> RunConfig {
        RunConfig::new(n, t)
    }

    #[test]
    fn only_optimal_king_gets_a_kernel() {
        assert!(king_batch_kernel(&AlgorithmSpec::OptimalKing, &config(16, 5)).is_some());
        assert!(king_batch_kernel(&AlgorithmSpec::PhaseKing, &config(16, 3)).is_none());
        assert!(king_batch_kernel(&AlgorithmSpec::DynamicKing { b: 3 }, &config(16, 5)).is_none());
    }

    #[test]
    fn invalid_or_oversized_configs_are_refused() {
        // n ≤ 3t violates the resilience bound.
        assert!(king_batch_kernel(&AlgorithmSpec::OptimalKing, &config(9, 3)).is_none());
        // More processors than lanes in a word.
        assert!(king_batch_kernel(&AlgorithmSpec::OptimalKing, &config(100, 3)).is_none());
        // Wide-domain source values have no single-bit lane form.
        let wide = config(16, 5).with_source_value(Value(7));
        assert!(king_batch_kernel(&AlgorithmSpec::OptimalKing, &wide).is_none());
    }

    #[test]
    fn kings_skip_the_source() {
        let kernel = king_batch_kernel(&AlgorithmSpec::OptimalKing, &config(7, 2)).unwrap();
        assert_eq!(kernel.king(0), 1); // source is 0
        assert_eq!(kernel.king(1), 2);
        assert_eq!(kernel.total_rounds(), 10);
    }
}
