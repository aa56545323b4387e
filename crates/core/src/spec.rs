//! Algorithm selection, validation and construction.
//!
//! [`AlgorithmSpec`] names every agreement protocol this reproduction
//! provides — the paper's five (plain/modified Exponential, Algorithms A,
//! B, C, and the Hybrid), the king family the paper's §5 points to (one
//! phase machine under three names, and two gear shifts into it) and
//! authenticated Dolev–Strong — validates parameters against each
//! algorithm's resilience, and builds per-process protocol instances for
//! the engine.

use std::fmt;

use sg_sim::{PoolKey, ProcessId, Protocol, RunConfig, Value};

use crate::dolev_strong::DolevStrong;
use crate::gearbox::{dynamic_king_rounds, DynamicKing};
use crate::geared::GearedProtocol;
use crate::king_shift::{king_shift_rounds, KingShift};
use crate::optimal_king::KingRow;
use crate::params::{t_a, t_b, t_c, Params};
use crate::phase_king::PhaseKing;
use crate::plan::{
    algorithm_a_plan, algorithm_b_plan, algorithm_c_plan, exponential_plan, hybrid_plan,
    RoundAction,
};
use crate::schedule::HybridSchedule;
use sg_eigtree::Conversion;

/// Which agreement algorithm to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AlgorithmSpec {
    /// The Exponential Algorithm exactly as in §3 *without* fault
    /// discovery and masking — the paper's simplification of Pease,
    /// Shostak & Lamport (1980), kept as the unmodified baseline.
    PlainExponential,
    /// The modified Exponential Algorithm (§3/§4): discovery + masking on,
    /// conversion by `resolve`.
    Exponential,
    /// The modified Exponential Algorithm converting with `resolve'`
    /// (Remark 1 after Claim 2 in §4.2).
    ExponentialPrime,
    /// Algorithm A with block parameter `b` (§4.2, Theorem 2);
    /// resilience `⌊(n−1)/3⌋`.
    AlgorithmA {
        /// Maximum gather rounds per block (after round 1); `3 ≤ b`.
        b: usize,
    },
    /// Algorithm B with block parameter `b` (§4.1, Theorem 3, Fig. 2);
    /// resilience `⌊(n−1)/4⌋`.
    AlgorithmB {
        /// Maximum gather rounds per block (after round 1); `2 ≤ b`.
        b: usize,
    },
    /// Algorithm C (§4.3, Theorem 4), the Dolev–Reischuk–Strong
    /// adaptation; resilience ≈ `√(n/2)`.
    AlgorithmC,
    /// The hybrid A→B→C algorithm (§4.4, Fig. 3, Main Theorem);
    /// resilience `⌊(n−1)/3⌋`.
    Hybrid {
        /// Maximum gather rounds per block; `3 ≤ b ≤ t_A(n)`.
        b: usize,
    },
    /// Phase King (Berman–Garay–Perry style) baseline from the paper's
    /// §5 discussion: `t+1` phases of two rounds after the source round,
    /// constant-size messages, resilience `⌊(n−1)/4⌋`.
    PhaseKing,
    /// Optimally resilient Phase King: `t+1` phases of *three* rounds
    /// after the source round, constant-size messages, resilience
    /// `⌊(n−1)/3⌋` — the optimal-resilience member of the §5 king family.
    OptimalKing,
    /// The A→King hybrid (§5/§6 shifting-into-foreign-algorithms
    /// demonstration): one Algorithm A block, shift via `resolve'`, then
    /// optimally resilient Phase King on the converted preferred values.
    /// Resilience `⌊(n−1)/3⌋`.
    KingShift {
        /// Gather rounds in the A block (clamped to `t`); `3 ≤ b`.
        b: usize,
    },
    /// The *dynamic* gear-shifted king hybrid: a worst-case prefix of
    /// Algorithm A blocks whose interior boundaries are runtime shift
    /// checkpoints — the execution enters its Phase King tail as soon as
    /// observed fault evidence bounds the active adversary, instead of
    /// completing the precompiled plan (`sg_core::gearbox`). Resilience
    /// `⌊(n−1)/3⌋`; `rounds()` reports the never-shift worst case.
    DynamicKing {
        /// Gather rounds per A block (clamped to `t`); `3 ≤ b`.
        b: usize,
    },
    /// Phase Queen (Berman & Garay): Phase King stated as a pure
    /// threshold rule on bits — keep `b` on `2·count(b) > n + 2t`. On the
    /// binary domain, the only one it accepts, that is Phase King's rule
    /// exactly, so this spec builds the same two-round phase machine
    /// (`sg_core::optimal_king`; `tests/king_fingerprints.rs` holds the
    /// two names to equal fingerprints). Resilience `⌊(n−1)/4⌋`.
    PhaseQueen,
    /// Authenticated Dolev–Strong (1983) baseline with simulated
    /// signatures: `t+1` rounds, resilience up to `n−2`.
    DolevStrong,
}

/// A parameter-validation failure for an [`AlgorithmSpec`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SpecError {
    /// The algorithm cannot tolerate `t` faults among `n` processors.
    ResilienceExceeded {
        /// The algorithm's name.
        algorithm: String,
        /// Offered system size.
        n: usize,
        /// Requested fault bound.
        t: usize,
        /// The maximum fault bound the algorithm tolerates at this `n`.
        max_t: usize,
    },
    /// The block parameter `b` is outside the admissible range.
    BadBlockParameter {
        /// The algorithm's name.
        algorithm: String,
        /// Offered block parameter.
        b: usize,
        /// Least admissible value.
        min_b: usize,
    },
    /// The fault bound must be positive (agreement is trivial at `t = 0`,
    /// and the paper assumes `t ≥ 1`).
    FaultBoundZero,
    /// The hybrid must be instantiated at exactly its design resilience
    /// `t = t_A(n)` with `t ≥ 3`.
    HybridFaultBound {
        /// Offered fault bound.
        t: usize,
        /// Required fault bound `t_A(n)`.
        expected: usize,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::ResilienceExceeded {
                algorithm,
                n,
                t,
                max_t,
            } => write!(
                f,
                "{algorithm} tolerates at most {max_t} faults at n={n}, got t={t}"
            ),
            SpecError::BadBlockParameter {
                algorithm,
                b,
                min_b,
            } => write!(f, "{algorithm} requires b >= {min_b}, got b={b}"),
            SpecError::FaultBoundZero => write!(f, "fault bound t must be at least 1"),
            SpecError::HybridFaultBound { t, expected } => write!(
                f,
                "the hybrid runs at its design resilience t = t_A(n) = {expected} (>= 3), got t={t}"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

impl AlgorithmSpec {
    /// Human-readable name including parameters.
    pub fn name(&self) -> String {
        match self {
            AlgorithmSpec::PlainExponential => "plain-exponential".to_string(),
            AlgorithmSpec::Exponential => "exponential".to_string(),
            AlgorithmSpec::ExponentialPrime => "exponential-prime".to_string(),
            AlgorithmSpec::AlgorithmA { b } => format!("algorithm-a(b={b})"),
            AlgorithmSpec::AlgorithmB { b } => format!("algorithm-b(b={b})"),
            AlgorithmSpec::AlgorithmC => "algorithm-c".to_string(),
            AlgorithmSpec::Hybrid { b } => format!("hybrid(b={b})"),
            AlgorithmSpec::PhaseKing => "phase-king".to_string(),
            AlgorithmSpec::OptimalKing => "optimal-king".to_string(),
            AlgorithmSpec::KingShift { b } => format!("king-shift(b={b})"),
            AlgorithmSpec::DynamicKing { b } => format!("dynamic-king(b={b})"),
            AlgorithmSpec::PhaseQueen => "phase-queen".to_string(),
            AlgorithmSpec::DolevStrong => "dolev-strong".to_string(),
        }
    }

    /// The algorithm's maximum fault bound at system size `n`.
    pub fn max_resilience(&self, n: usize) -> usize {
        match self {
            AlgorithmSpec::PlainExponential
            | AlgorithmSpec::Exponential
            | AlgorithmSpec::ExponentialPrime
            | AlgorithmSpec::AlgorithmA { .. }
            | AlgorithmSpec::OptimalKing
            | AlgorithmSpec::KingShift { .. }
            | AlgorithmSpec::DynamicKing { .. }
            | AlgorithmSpec::Hybrid { .. } => t_a(n),
            AlgorithmSpec::AlgorithmB { .. }
            | AlgorithmSpec::PhaseKing
            | AlgorithmSpec::PhaseQueen => t_b(n),
            AlgorithmSpec::AlgorithmC => t_c(n),
            AlgorithmSpec::DolevStrong => n.saturating_sub(2),
        }
    }

    /// The king family's rule row, for the three specs that are one phase
    /// machine behind a source round.
    pub(crate) fn king_row(&self) -> Option<KingRow> {
        match self {
            AlgorithmSpec::OptimalKing => Some(KingRow::ThreeRound),
            AlgorithmSpec::PhaseKing | AlgorithmSpec::PhaseQueen => Some(KingRow::TwoRound),
            _ => None,
        }
    }

    /// Checks that the algorithm may run with `n` processors and fault
    /// bound `t`.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] describing the violated constraint.
    pub fn validate(&self, n: usize, t: usize) -> Result<(), SpecError> {
        if t == 0 {
            return Err(SpecError::FaultBoundZero);
        }
        let max_t = self.max_resilience(n);
        if t > max_t {
            return Err(SpecError::ResilienceExceeded {
                algorithm: self.name(),
                n,
                t,
                max_t,
            });
        }
        match *self {
            AlgorithmSpec::AlgorithmA { b } if b < 3 => Err(SpecError::BadBlockParameter {
                algorithm: self.name(),
                b,
                min_b: 3,
            }),
            AlgorithmSpec::AlgorithmB { b } if b < 2 => Err(SpecError::BadBlockParameter {
                algorithm: self.name(),
                b,
                min_b: 2,
            }),
            AlgorithmSpec::KingShift { b } | AlgorithmSpec::DynamicKing { b } if b < 3 => {
                Err(SpecError::BadBlockParameter {
                    algorithm: self.name(),
                    b,
                    min_b: 3,
                })
            }
            AlgorithmSpec::Hybrid { b } => {
                let expected = t_a(n);
                if t != expected || expected < 3 {
                    Err(SpecError::HybridFaultBound { t, expected })
                } else if !(3..=expected).contains(&b) {
                    Err(SpecError::BadBlockParameter {
                        algorithm: self.name(),
                        b,
                        min_b: 3,
                    })
                } else {
                    Ok(())
                }
            }
            _ => Ok(()),
        }
    }

    /// The exact number of communication rounds the algorithm runs with
    /// fault bound `t` (and `n` where relevant).
    pub fn rounds(&self, n: usize, t: usize) -> usize {
        match *self {
            AlgorithmSpec::PlainExponential
            | AlgorithmSpec::Exponential
            | AlgorithmSpec::ExponentialPrime
            | AlgorithmSpec::AlgorithmC => t + 1,
            AlgorithmSpec::AlgorithmA { b } => {
                crate::schedule::algorithm_a_rounds_exact(t, b.min(t))
            }
            AlgorithmSpec::AlgorithmB { b } => {
                crate::schedule::algorithm_b_rounds_exact(t, b.min(t))
            }
            AlgorithmSpec::Hybrid { b } => HybridSchedule::compute(n, b).total_rounds(),
            AlgorithmSpec::PhaseKing | AlgorithmSpec::PhaseQueen => 1 + 2 * (t + 1),
            AlgorithmSpec::OptimalKing => 1 + 3 * (t + 1),
            AlgorithmSpec::KingShift { b } => king_shift_rounds(t, b),
            AlgorithmSpec::DynamicKing { b } => dynamic_king_rounds(t, b),
            AlgorithmSpec::DolevStrong => t + 1,
        }
    }

    /// The round plan for plan-driven algorithms (`None` for the
    /// non-tree baselines Phase King and Dolev–Strong).
    pub fn plan(&self, n: usize, t: usize) -> Option<Vec<RoundAction>> {
        match *self {
            AlgorithmSpec::PlainExponential | AlgorithmSpec::Exponential => {
                Some(exponential_plan(t, Conversion::Resolve))
            }
            AlgorithmSpec::ExponentialPrime => {
                Some(exponential_plan(t, Conversion::ResolvePrime { t }))
            }
            AlgorithmSpec::AlgorithmA { b } => Some(algorithm_a_plan(t, b)),
            AlgorithmSpec::AlgorithmB { b } => Some(algorithm_b_plan(t, b)),
            AlgorithmSpec::AlgorithmC => Some(algorithm_c_plan(t)),
            AlgorithmSpec::Hybrid { b } => Some(hybrid_plan(&HybridSchedule::compute(n, b))),
            AlgorithmSpec::PhaseKing
            | AlgorithmSpec::PhaseQueen
            | AlgorithmSpec::OptimalKing
            | AlgorithmSpec::KingShift { .. }
            | AlgorithmSpec::DynamicKing { .. }
            | AlgorithmSpec::DolevStrong => None,
        }
    }

    /// Whether this spec needs the engine's simulated-signature registry.
    pub fn needs_authentication(&self) -> bool {
        matches!(self, AlgorithmSpec::DolevStrong)
    }

    /// Builds the protocol instance for processor `me`.
    ///
    /// `input` must be `Some` exactly when `me` is the source.
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`AlgorithmSpec::validate`], or if
    /// [`AlgorithmSpec::PhaseQueen`] is given a non-binary domain (lift
    /// with [`crate::multivalued`] instead).
    pub fn build(&self, params: Params, me: ProcessId, input: Option<Value>) -> Box<dyn Protocol> {
        self.validate(params.n, params.t)
            .unwrap_or_else(|e| panic!("invalid algorithm parameters: {e}"));
        if let Some(row) = self.king_row() {
            assert!(
                *self != AlgorithmSpec::PhaseQueen || params.domain.size() == 2,
                "Phase Queen is binary; lift with the multivalued reduction"
            );
            return Box::new(PhaseKing::new(params, me, input, row));
        }
        match self {
            AlgorithmSpec::KingShift { b } => Box::new(KingShift::build(params, me, input, *b)),
            AlgorithmSpec::DynamicKing { b } => Box::new(DynamicKing::build(params, me, input, *b)),
            AlgorithmSpec::DolevStrong => Box::new(DolevStrong::new(params, me, input)),
            _ => {
                let plan = self
                    .plan(params.n, params.t)
                    .expect("tree algorithms have plans");
                let modified = !matches!(self, AlgorithmSpec::PlainExponential);
                Box::new(GearedProtocol::new(
                    params,
                    me,
                    input,
                    self.name(),
                    modified,
                    plan,
                ))
            }
        }
    }

    /// A per-processor factory suitable for [`sg_sim::run`].
    pub fn factory(self, config: &RunConfig) -> impl Fn(ProcessId) -> Box<dyn Protocol> {
        let params = Params::from_config(config);
        let source = config.source;
        let source_value = config.source_value;
        move |me| {
            let input = (me == source).then_some(source_value);
            self.build(params, me, input)
        }
    }

    /// The instance-pool key for this spec under `config`: a stable,
    /// allocation-free hash of the algorithm (with its block parameters)
    /// and every configuration field that shapes or seeds an instance.
    /// Runs with equal keys may recycle each other's protocol instances
    /// through [`sg_sim::run_pooled`].
    pub fn pool_key(&self, config: &RunConfig) -> PoolKey {
        let (tag, b): (u64, usize) = match *self {
            AlgorithmSpec::PlainExponential => (0, 0),
            AlgorithmSpec::Exponential => (1, 0),
            AlgorithmSpec::ExponentialPrime => (2, 0),
            AlgorithmSpec::AlgorithmA { b } => (3, b),
            AlgorithmSpec::AlgorithmB { b } => (4, b),
            AlgorithmSpec::AlgorithmC => (5, 0),
            AlgorithmSpec::Hybrid { b } => (6, b),
            AlgorithmSpec::PhaseKing => (7, 0),
            AlgorithmSpec::OptimalKing => (8, 0),
            AlgorithmSpec::KingShift { b } => (9, b),
            AlgorithmSpec::PhaseQueen => (10, 0),
            AlgorithmSpec::DolevStrong => (11, 0),
            AlgorithmSpec::DynamicKing { b } => (12, b),
        };
        PoolKey::of(&[
            tag,
            b as u64,
            config.n as u64,
            config.t as u64,
            u64::from(config.domain.size()),
            config.source.index() as u64,
            u64::from(config.source_value.raw()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_enforces_resilience() {
        assert!(AlgorithmSpec::Exponential.validate(4, 1).is_ok());
        assert!(matches!(
            AlgorithmSpec::Exponential.validate(4, 2),
            Err(SpecError::ResilienceExceeded { .. })
        ));
        assert!(AlgorithmSpec::AlgorithmB { b: 2 }.validate(9, 2).is_ok());
        assert!(matches!(
            AlgorithmSpec::AlgorithmB { b: 2 }.validate(8, 2),
            Err(SpecError::ResilienceExceeded { .. })
        ));
        assert!(AlgorithmSpec::AlgorithmC.validate(18, 3).is_ok());
        assert!(matches!(
            AlgorithmSpec::AlgorithmC.validate(18, 4),
            Err(SpecError::ResilienceExceeded { .. })
        ));
    }

    #[test]
    fn validation_enforces_block_parameter() {
        assert!(matches!(
            AlgorithmSpec::AlgorithmA { b: 2 }.validate(16, 5),
            Err(SpecError::BadBlockParameter { .. })
        ));
        assert!(matches!(
            AlgorithmSpec::AlgorithmB { b: 1 }.validate(21, 5),
            Err(SpecError::BadBlockParameter { .. })
        ));
        assert!(AlgorithmSpec::AlgorithmA { b: 3 }.validate(16, 5).is_ok());
    }

    #[test]
    fn hybrid_requires_design_resilience() {
        assert!(AlgorithmSpec::Hybrid { b: 3 }.validate(16, 5).is_ok());
        assert!(matches!(
            AlgorithmSpec::Hybrid { b: 3 }.validate(16, 4),
            Err(SpecError::HybridFaultBound { .. })
        ));
        assert!(matches!(
            AlgorithmSpec::Hybrid { b: 6 }.validate(16, 5),
            Err(SpecError::BadBlockParameter { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "binary")]
    fn phase_queen_rejects_a_non_binary_domain() {
        let params = Params {
            n: 9,
            t: 2,
            source: ProcessId(0),
            domain: sg_sim::ValueDomain::new(3),
        };
        let _ = AlgorithmSpec::PhaseQueen.build(params, ProcessId(1), None);
    }

    #[test]
    fn zero_faults_rejected() {
        assert_eq!(
            AlgorithmSpec::Exponential.validate(4, 0),
            Err(SpecError::FaultBoundZero)
        );
    }

    #[test]
    fn rounds_match_plan_lengths() {
        for (spec, n, t) in [
            (AlgorithmSpec::Exponential, 10, 3),
            (AlgorithmSpec::AlgorithmA { b: 3 }, 16, 5),
            (AlgorithmSpec::AlgorithmB { b: 3 }, 21, 5),
            (AlgorithmSpec::AlgorithmC, 32, 4),
            (AlgorithmSpec::Hybrid { b: 3 }, 16, 5),
        ] {
            let plan = spec.plan(n, t).unwrap();
            assert_eq!(plan.len(), spec.rounds(n, t), "{}", spec.name());
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(
            AlgorithmSpec::AlgorithmA { b: 4 }.name(),
            "algorithm-a(b=4)"
        );
        assert_eq!(AlgorithmSpec::Hybrid { b: 3 }.name(), "hybrid(b=3)");
    }
}
