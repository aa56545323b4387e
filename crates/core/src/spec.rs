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

use crate::compose::Segment;
use crate::dolev_strong::DolevStrong;
use crate::gearbox::{dynamic_king_blocks, scheduled_rounds, Checkpoint, GearBox};
use crate::geared::GearedProtocol;
use crate::optimal_king::KingRow;
use crate::params::{t_a, t_b, t_c, Params};
use crate::phase_king::PhaseKing;
use crate::plan::{compile, RoundAction};
use crate::schedule::{algorithm_a_blocks, algorithm_b_blocks, HybridSchedule};

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
    /// demonstration, argued in [`crate::king_shift`]): one Algorithm A
    /// block, shift via `resolve'`, then optimally resilient Phase King on
    /// the converted preferred values. Resilience `⌊(n−1)/3⌋`.
    ///
    /// ```
    /// use sg_core::{execute, AlgorithmSpec};
    /// use sg_sim::{NoFaults, RunConfig, Value};
    ///
    /// let config = RunConfig::new(10, 3).with_source_value(Value(1));
    /// let outcome = execute(AlgorithmSpec::KingShift { b: 3 }, &config, &mut NoFaults)?;
    /// assert_eq!(outcome.decision(), Some(Value(1)));
    /// assert_eq!(outcome.scheduled_rounds, 16); // 1 + b + 3·(t+1)
    /// // With a correct source the A block's first echo already agrees and
    /// // the run stops there, before the tail is seeded (the tree machine's
    /// // echo rule); on the full schedule the tail runs all its phases.
    /// assert_eq!(outcome.rounds_used, 2);
    /// let full = execute(AlgorithmSpec::KingShift { b: 3 }, &config.fixed_length(), &mut NoFaults)?;
    /// assert_eq!((full.rounds_used, full.decision()), (16, Some(Value(1))));
    /// # Ok::<(), sg_core::SpecError>(())
    /// ```
    KingShift {
        /// Gather rounds in the A block (clamped to `t`); `3 ≤ b`.
        b: usize,
    },
    /// The *dynamic* gear-shifted king hybrid: `king-shift` generalized
    /// to a worst-case prefix of [`dynamic_king_blocks`] Algorithm A
    /// blocks whose interior boundaries are runtime shift checkpoints —
    /// the execution enters its Phase King tail as soon as observed fault
    /// evidence bounds the active adversary, instead of completing the
    /// precompiled plan (the [`crate::gearbox`] evidence rule): the
    /// paper's "changing algorithms on the fly to expedite" as a runtime
    /// decision. Resilience `⌊(n−1)/3⌋`; `rounds()` reports the
    /// never-shift worst case.
    ///
    /// ```
    /// use sg_core::{execute, AlgorithmSpec};
    /// use sg_sim::{NoFaults, RunConfig, Value};
    ///
    /// let config = RunConfig::new(16, 5).with_source_value(Value(1));
    /// let outcome = execute(AlgorithmSpec::DynamicKing { b: 3 }, &config, &mut NoFaults)?;
    /// assert_eq!(outcome.decision(), Some(Value(1)));
    /// assert_eq!(outcome.scheduled_rounds, 31); // 1 + 4·b + 3·(t+1) worst case
    /// // With a correct source the first echo already agrees and the run
    /// // stops at round 2 (the tree machine's echo rule). The gear shift
    /// // itself is schedule, not early stopping: fixed-length and
    /// // fault-free, the first block under-delivers detections, the shift
    /// // commits at its boundary, and the full tail follows.
    /// assert_eq!(outcome.rounds_used, 2);
    /// let full = execute(AlgorithmSpec::DynamicKing { b: 3 }, &config.fixed_length(), &mut NoFaults)?;
    /// assert_eq!(full.rounds_used, 22); // 1 + b + 3·(t+1)
    /// # Ok::<(), sg_core::SpecError>(())
    /// ```
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
    /// Every algorithm family, in `sg list` order, at block parameter `b`
    /// for the families that take one.
    pub fn families(b: usize) -> [AlgorithmSpec; 13] {
        [
            AlgorithmSpec::PlainExponential,
            AlgorithmSpec::Exponential,
            AlgorithmSpec::ExponentialPrime,
            AlgorithmSpec::AlgorithmA { b },
            AlgorithmSpec::AlgorithmB { b },
            AlgorithmSpec::AlgorithmC,
            AlgorithmSpec::Hybrid { b },
            AlgorithmSpec::PhaseKing,
            AlgorithmSpec::OptimalKing,
            AlgorithmSpec::KingShift { b },
            AlgorithmSpec::DynamicKing { b },
            AlgorithmSpec::PhaseQueen,
            AlgorithmSpec::DolevStrong,
        ]
    }

    /// The family's name: what `sg --alg` accepts, the wire's `"alg"`
    /// field, and the stem of [`AlgorithmSpec::name`]. The one place the
    /// names are spelled.
    pub fn family(&self) -> &'static str {
        match self {
            AlgorithmSpec::PlainExponential => "plain-exponential",
            AlgorithmSpec::Exponential => "exponential",
            AlgorithmSpec::ExponentialPrime => "exponential-prime",
            AlgorithmSpec::AlgorithmA { .. } => "algorithm-a",
            AlgorithmSpec::AlgorithmB { .. } => "algorithm-b",
            AlgorithmSpec::AlgorithmC => "algorithm-c",
            AlgorithmSpec::Hybrid { .. } => "hybrid",
            AlgorithmSpec::PhaseKing => "phase-king",
            AlgorithmSpec::OptimalKing => "optimal-king",
            AlgorithmSpec::KingShift { .. } => "king-shift",
            AlgorithmSpec::DynamicKing { .. } => "dynamic-king",
            AlgorithmSpec::PhaseQueen => "phase-queen",
            AlgorithmSpec::DolevStrong => "dolev-strong",
        }
    }

    /// The block parameter `b` of the families that take one.
    pub fn block(&self) -> Option<usize> {
        match *self {
            AlgorithmSpec::AlgorithmA { b }
            | AlgorithmSpec::AlgorithmB { b }
            | AlgorithmSpec::Hybrid { b }
            | AlgorithmSpec::KingShift { b }
            | AlgorithmSpec::DynamicKing { b } => Some(b),
            _ => None,
        }
    }

    /// The spec whose [`AlgorithmSpec::family`] is `family`, at block
    /// parameter `b` if the family takes one.
    pub fn parse(family: &str, b: usize) -> Option<AlgorithmSpec> {
        Self::families(b)
            .into_iter()
            .find(|spec| spec.family() == family)
    }

    /// Human-readable name including parameters.
    pub fn name(&self) -> String {
        match self.block() {
            Some(b) => format!("{}(b={b})", self.family()),
            None => self.family().to_string(),
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
    /// fault bound `t` (and `n` where relevant): a segment spec's compiled
    /// schedule (its never-shift worst case), otherwise the king
    /// family's or Dolev–Strong's closed form.
    pub fn rounds(&self, n: usize, t: usize) -> usize {
        if let Some((plan, king_tail, _)) = self.compile(n, t) {
            return scheduled_rounds(plan.len(), king_tail, t);
        }
        match *self {
            AlgorithmSpec::PhaseKing | AlgorithmSpec::PhaseQueen => 1 + 2 * (t + 1),
            AlgorithmSpec::OptimalKing => 1 + 3 * (t + 1),
            _ => t + 1, // Dolev–Strong
        }
    }

    /// The spec as a list of [`Segment`]s — the one table that says what
    /// each tree and gear spec is. `None` for the king family and
    /// Dolev–Strong, which run no tree plan.
    ///
    /// Algorithms A and B run their paper block structures as runs of
    /// equal blocks, or one block of `t` rounds (the Exponential
    /// Algorithm with their conversion) when `b ≥ t`; the hybrid runs its
    /// [`HybridSchedule`]'s A blocks, then its B blocks, then its C tail.
    pub fn segments(&self, n: usize, t: usize) -> Option<Vec<Segment>> {
        let a = |b, blocks| Segment::A { b, blocks };
        let b_seg = |b, blocks| Segment::B { b, blocks };
        Some(match *self {
            AlgorithmSpec::PlainExponential | AlgorithmSpec::Exponential => vec![b_seg(t, 1)],
            AlgorithmSpec::ExponentialPrime => vec![a(t, 1)],
            AlgorithmSpec::AlgorithmA { b } if b >= t => vec![a(t, 1)],
            AlgorithmSpec::AlgorithmA { b } => runs(&algorithm_a_blocks(t, b).blocks, a).collect(),
            AlgorithmSpec::AlgorithmB { b } if b >= t => vec![b_seg(t, 1)],
            AlgorithmSpec::AlgorithmB { b } => {
                runs(&algorithm_b_blocks(t, b).blocks, b_seg).collect()
            }
            AlgorithmSpec::AlgorithmC => vec![Segment::C { rounds: t }],
            AlgorithmSpec::Hybrid { b } => {
                let schedule = HybridSchedule::compute(n, b);
                runs(&schedule.a_blocks, a)
                    .chain(runs(&schedule.b_blocks, b_seg))
                    .chain([Segment::C {
                        rounds: schedule.c_rounds,
                    }])
                    .collect()
            }
            AlgorithmSpec::KingShift { b } => vec![a(b.min(t), 1), Segment::King],
            AlgorithmSpec::DynamicKing { b } => {
                vec![a(b.min(t), dynamic_king_blocks(t, b)), Segment::King]
            }
            AlgorithmSpec::PhaseKing
            | AlgorithmSpec::PhaseQueen
            | AlgorithmSpec::OptimalKing
            | AlgorithmSpec::DolevStrong => return None,
        })
    }

    /// [`AlgorithmSpec::segments`] compiled: the tree plan, whether a king
    /// tail follows it, and `dynamic-king`'s checkpoints.
    fn compile(&self, n: usize, t: usize) -> Option<(Vec<RoundAction>, bool, Vec<Checkpoint>)> {
        let segments = self.segments(n, t)?;
        let dynamic = matches!(self, AlgorithmSpec::DynamicKing { .. });
        Some(compile(t, &segments, dynamic))
    }

    /// The round plan of the tree algorithms. `None` for the king family,
    /// Dolev–Strong and the two gear shifts into a king tail, whose
    /// schedules are not one tree plan.
    pub fn plan(&self, n: usize, t: usize) -> Option<Vec<RoundAction>> {
        match self.compile(n, t)? {
            (plan, false, _) => Some(plan),
            (_, true, _) => None,
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
    /// [`AlgorithmSpec::PhaseQueen`] is given a non-binary domain.
    pub fn build(&self, params: Params, me: ProcessId, input: Option<Value>) -> Box<dyn Protocol> {
        self.validate(params.n, params.t)
            .unwrap_or_else(|e| panic!("invalid algorithm parameters: {e}"));
        if let Some(row) = self.king_row() {
            assert!(
                *self != AlgorithmSpec::PhaseQueen || params.domain.size() == 2,
                "Phase Queen is binary"
            );
            return Box::new(PhaseKing::new(params, me, input, row));
        }
        match self.compile(params.n, params.t) {
            None => Box::new(DolevStrong::new(params, me, input)),
            Some((plan, false, _)) => {
                let modified = !matches!(self, AlgorithmSpec::PlainExponential);
                Box::new(GearedProtocol::new(params, me, input, modified, plan))
            }
            Some(compiled) => Box::new(GearBox::new(params, me, input, compiled)),
        }
    }

    /// Processor `me`'s [`GearBox`] for the two specs that end in a king
    /// tail (`king-shift`, `dynamic-king`) — the protocol
    /// [`AlgorithmSpec::build`] boxes, with its inspection hooks. `None`
    /// for every other spec.
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`AlgorithmSpec::validate`].
    pub fn gear_box(&self, params: Params, me: ProcessId, input: Option<Value>) -> Option<GearBox> {
        self.validate(params.n, params.t)
            .unwrap_or_else(|e| panic!("invalid algorithm parameters: {e}"));
        match self.compile(params.n, params.t)? {
            compiled @ (_, true, _) => Some(GearBox::new(params, me, input, compiled)),
            (_, false, _) => None,
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

/// Consecutive equal block lengths as one segment each: `[3, 3, 2]`
/// becomes `seg(3, 2), seg(2, 1)`.
fn runs<'a>(
    blocks: &'a [usize],
    seg: impl Fn(usize, usize) -> Segment + 'a,
) -> impl Iterator<Item = Segment> + 'a {
    blocks
        .chunk_by(|x, y| x == y)
        .map(move |run| seg(run[0], run.len()))
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

    #[test]
    fn family_names_parse_back() {
        for spec in AlgorithmSpec::families(4) {
            assert_eq!(AlgorithmSpec::parse(spec.family(), 4), Some(spec));
            assert!(spec.name().starts_with(spec.family()), "{}", spec.name());
        }
        assert_eq!(AlgorithmSpec::parse("a", 3), None);
    }
}
