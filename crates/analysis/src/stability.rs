//! Decision lock-in analysis — the early-stopping lens on executions.
//!
//! The paper's Algorithm C descends from Dolev, Reischuk & Strong's
//! *Early Stopping in Byzantine Agreement* (1986), whose theme is that the
//! `t + 1`-round worst case is only needed when `t` faults actually
//! occur: with `f < t` faults, agreement can be reached in `min(f+2, t+1)`
//! rounds. The paper's algorithms run fixed schedules, but their
//! *detect-or-persist* structure (§4) means the eventual decision value
//! usually **locks in** long before the schedule ends — every block either
//! produces a persistent value (which never changes again) or detects
//! faults (whose masking hastens persistence).
//!
//! This module measures that lock-in from execution traces: for each
//! correct processor, the first round after which its preferred value
//! never differs from its eventual decision. The gap between the lock-in
//! round and the schedule length is exactly the head-room an
//! early-stopping variant (à la DRS) would harvest.

use sg_sim::{Outcome, TraceEvent};

/// Per-execution lock-in report; build with [`lock_in`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StabilityReport {
    /// Lock-in round per processor: the first round from which the traced
    /// preferred value always equals the decision. `None` for faulty
    /// processors (no decision) and untraced runs.
    pub per_processor: Vec<Option<usize>>,
    /// Rounds the schedule ran.
    pub rounds_total: usize,
}

impl StabilityReport {
    /// The last correct processor's lock-in round (the system-wide
    /// stabilization point), if any processor was traced.
    pub fn system_lock_in(&self) -> Option<usize> {
        self.per_processor.iter().flatten().copied().max()
    }

    /// The earliest lock-in round among correct processors.
    pub fn first_lock_in(&self) -> Option<usize> {
        self.per_processor.iter().flatten().copied().min()
    }

    /// Rounds of head-room an early-stopping rule could harvest:
    /// schedule length minus the system lock-in.
    pub fn headroom(&self) -> Option<usize> {
        self.system_lock_in()
            .map(|l| self.rounds_total.saturating_sub(l))
    }
}

/// Computes the lock-in report for a traced execution, in one walk of
/// the trace.
///
/// A processor's snapshots are its `Preferred` events and the post-shift
/// values of its `Shift` events, in round order. A processor with no
/// snapshots (tracing disabled, or a faulty slot) reports `None`.
/// Snapshots only appear in rounds where the preferred value *can* change
/// (round 1, conversions, Algorithm C rounds, king rounds), so the
/// computed lock-in is exact for every protocol in this crate family.
pub fn lock_in(outcome: &Outcome) -> StabilityReport {
    // A preferred value persists until the *next* snapshot (tree roots
    // only change at conversions), so the lock-in round is the round of
    // the first snapshot after the last divergent one: a divergent
    // snapshot clears the candidate, the first agreeing snapshot after it
    // becomes the new candidate. `Some(None)`: snapshots seen, no
    // candidate yet.
    let mut candidates: Vec<Option<Option<usize>>> = vec![None; outcome.config.n];
    for e in outcome.trace.entries() {
        let value = match &e.event {
            TraceEvent::Preferred { value } => *value,
            TraceEvent::Shift { preferred, .. } => *preferred,
            _ => continue,
        };
        let Some(decision) = outcome.decisions[e.who.index()] else {
            continue;
        };
        let candidate = candidates[e.who.index()].get_or_insert(None);
        if value != decision {
            *candidate = None;
        } else if candidate.is_none() {
            *candidate = Some(e.round);
        }
    }
    // No agreeing snapshot after the last divergence: the value only
    // settles when the schedule ends.
    let per_processor = candidates
        .into_iter()
        .map(|seen| seen.map(|candidate| candidate.unwrap_or(outcome.rounds_used)))
        .collect();
    StabilityReport {
        per_processor,
        rounds_total: outcome.rounds_used,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_adversary::{Family, FaultSelection};
    use sg_core::{execute, AlgorithmSpec};
    use sg_sim::{NoFaults, RunConfig, Value};

    #[test]
    fn fault_free_run_locks_in_at_round_one() {
        let config = RunConfig::new(10, 3)
            .with_source_value(Value(1))
            .with_trace();
        let outcome = execute(AlgorithmSpec::Exponential, &config, &mut NoFaults).unwrap();
        let report = lock_in(&outcome);
        // Every correct processor's first and only preferred value is the
        // source's, set in round 1.
        assert_eq!(report.system_lock_in(), Some(1));
        assert_eq!(report.first_lock_in(), Some(1));
        assert_eq!(report.headroom(), Some(outcome.rounds_used - 1));
    }

    #[test]
    fn untraced_run_reports_none() {
        let config = RunConfig::new(7, 2);
        let outcome = execute(AlgorithmSpec::Exponential, &config, &mut NoFaults).unwrap();
        let report = lock_in(&outcome);
        assert_eq!(report.system_lock_in(), None);
        assert_eq!(report.headroom(), None);
    }

    #[test]
    fn faulty_processors_have_no_lock_in() {
        let config = RunConfig::new(10, 3).with_trace();
        let mut adversary = Family::ChainRevealer {
            selection: FaultSelection::without_source(),
            start: 2,
            block: 2,
        }
        .strategy(5);
        let outcome = execute(AlgorithmSpec::Exponential, &config, adversary.as_mut()).unwrap();
        let report = lock_in(&outcome);
        for f in outcome.faulty.iter() {
            assert_eq!(report.per_processor[f.index()], None);
        }
        assert!(report.system_lock_in().is_some());
    }

    #[test]
    fn lock_in_never_exceeds_schedule() {
        for spec in [
            AlgorithmSpec::AlgorithmC,
            AlgorithmSpec::Hybrid { b: 3 },
            AlgorithmSpec::OptimalKing,
        ] {
            let (n, t) = match spec {
                AlgorithmSpec::AlgorithmC => (18, 3),
                _ => (16, 5),
            };
            let config = RunConfig::new(n, t).with_trace();
            let mut adversary = Family::ChainRevealer {
                selection: FaultSelection::without_source(),
                start: 2,
                block: 2,
            }
            .strategy(9);
            let outcome = execute(spec, &config, adversary.as_mut()).unwrap();
            let report = lock_in(&outcome);
            let lock = report.system_lock_in().unwrap();
            assert!(lock <= outcome.rounds_used, "{}: {lock}", spec.name());
        }
    }
}
