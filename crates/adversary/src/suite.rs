//! The standard adversary gauntlet.
//!
//! A curated collection of strategies covering the qualitatively distinct
//! Byzantine behaviours: crash/omission, random lies, consistent
//! equivocation, stealthy sub-threshold corruption, split-brain
//! coordination, and the slow one-fault-per-block reveal that forces
//! worst-case round counts. Integration tests and the adversary-gauntlet
//! example run every algorithm against this suite. Both suites are read
//! off one table of [`Family`] values.

use sg_sim::Adversary;

use crate::family::Family;
use crate::selection::FaultSelection;

/// One gauntlet entry: its family, the offset XORed into the suite's seed
/// to build its strategy, and that offset in the quick suite if the quick
/// suite runs the entry too.
struct Entry {
    family: Family,
    salt: u64,
    quick: Option<u64>,
}

/// Every entry of [`standard_suite`], in order; the ones with a `quick`
/// offset are [`quick_suite`], in the same order.
fn entries() -> Vec<Entry> {
    let without = FaultSelection::without_source;
    let with = FaultSelection::with_source;
    let entry = |family, salt, quick| Entry {
        family,
        salt,
        quick,
    };
    let each = |family| entry(family, 0, None);
    vec![
        each(Family::Silent(without())),
        each(Family::Silent(with())),
        entry(
            Family::Crash {
                selection: without(),
                round: 2,
            },
            0,
            Some(0),
        ),
        each(Family::Crash {
            selection: with(),
            round: 3,
        }),
        each(Family::RandomLiar(without())),
        entry(Family::RandomLiar(with()), 1, Some(0)),
        entry(Family::TwoFaced(without()), 0, Some(0)),
        each(Family::TwoFaced(with())),
        entry(Family::EquivocatingSource(with()), 0, Some(0)),
        each(Family::EquivocatingSource(with().limit(1))),
        each(Family::Stealth(without())),
        each(Family::Stealth(with())),
        each(Family::DoubleTalk(without())),
        entry(Family::DoubleTalk(with()), 0, Some(0)),
        entry(
            Family::ChainRevealer {
                selection: without(),
                start: 2,
                block: 3,
            },
            2,
            None,
        ),
        entry(
            Family::ChainRevealer {
                selection: with(),
                start: 2,
                block: 2,
            },
            3,
            None,
        ),
        each(Family::Collusion(without())),
        each(Family::Collusion(with())),
        each(Family::StaleShadow(without())),
        each(Family::StaleShadow(with())),
        each(Family::FrontierBreaker(with())),
        each(Family::FrontierBreaker(without())),
        each(Family::StaggeredSplit {
            selection: with(),
            start: 2,
            block: 2,
        }),
        each(Family::StaggeredSplit {
            selection: with(),
            start: 3,
            block: 3,
        }),
        // The isolated-group partition: every cut edge is incident to the
        // single corrupted processor, so the honest network stays intact
        // and all guarantees must still hold.
        each(Family::Partition {
            selection: with().limit(1),
            split: 1,
            from: 2,
            to: 3,
        }),
        each(Family::Omission {
            selection: without(),
            period: 2,
            phase: 0,
        }),
        each(Family::Omission {
            selection: with(),
            period: 3,
            phase: 1,
        }),
        each(Family::Equivocate {
            selection: without(),
            split: 3,
            start: 2,
        }),
        each(Family::Equivocate {
            selection: with(),
            split: 2,
            start: 1,
        }),
        each(Family::Adaptive {
            selection: without(),
            schedule: vec![2, 4],
        }),
        each(Family::Adaptive {
            selection: with(),
            schedule: vec![1, 3],
        }),
    ]
}

/// Builds the standard gauntlet, seeded deterministically.
///
/// Includes source-faulty and source-correct variants of each strategy
/// where both make sense. Every adversary corrupts at most `t`
/// processors, so all algorithm guarantees must hold against all of them.
pub fn standard_suite(seed: u64) -> Vec<Box<dyn Adversary>> {
    entries()
        .iter()
        .map(|e| e.family.strategy(seed ^ e.salt))
        .collect()
}

/// A smaller, faster suite for exponential-size algorithms and property
/// tests.
pub fn quick_suite(seed: u64) -> Vec<Box<dyn Adversary>> {
    entries()
        .iter()
        .filter_map(|e| Some(e.family.strategy(seed ^ e.quick?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_are_nonempty_and_named() {
        for adv in standard_suite(1).iter().chain(quick_suite(1).iter()) {
            assert!(!adv.name().is_empty());
        }
        assert!(standard_suite(1).len() >= 12);
        assert!(quick_suite(1).len() >= 4);
    }
}
