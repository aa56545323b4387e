//! First-class shift compositions — §6's open question made executable.
//!
//! The paper closes by asking: *"When can we shift from one algorithm to
//! another in a way that provides a better combination of our performance
//! measures …? We leave as an open question the characterization in
//! general of when it is safe to shift."* This module turns the paper's
//! own sufficient conditions (§4.4) into a checkable discipline: a
//! [`ShiftPlanBuilder`] assembles an arbitrary sequence of Algorithm A
//! blocks, Algorithm B blocks, an Algorithm C tail and/or a Phase King
//! tail — each with its own block parameter — and [`ShiftPlanBuilder::build`]
//! either proves the composition safe for `t` faults or rejects it with
//! the precise violated condition.
//!
//! # The safety ledger
//!
//! Every boundary in the paper's hybrid is justified by one invariant:
//! *either a persistent value has been obtained, or enough faults are
//! globally detected (and masked) that the next algorithm's proof goes
//! through*. The builder tracks the guaranteed-detection ledger `d`
//! exactly as §4.4 does:
//!
//! * an Algorithm A block of `b` rounds guarantees `b − 2` new global
//!   detections (Corollary 3) — hence `b ≥ 3`;
//! * an Algorithm B block of `b` rounds guarantees `b − 1` (Corollary 1) —
//!   hence `b ≥ 2`;
//! * the faulty source is detected in the first block (`+1`, counted
//!   once);
//! * and the ledger never needs to exceed `t`.
//!
//! Entry conditions, from the Main Theorem's derivation:
//!
//! * **B entry** needs `n − 2t + d > ⌊(n−1)/2⌋` (so Corollary 1 holds with
//!   `L_p ≥ d` despite `t > t_B`), unless `t ≤ t_B(n)` outright.
//! * **C entry** needs `n − t − (t − d)² > n/2` *and* `n − 2t + d > n/2`
//!   (the two branches of Proposition 4's proof), unless `t ≤ t_C(n)`.
//! * **King entry** is unconditional at `t ≤ t_A(n)`: Phase King reaches
//!   agreement from arbitrary seed values, so only validity relies on the
//!   shift (via the Strong Persistence Lemma), and that holds for any
//!   prefix.
//!
//! Terminal conditions (the composition must *finish* the job):
//!
//! * a **King tail** always suffices;
//! * a **C tail** of `r` rounds suffices when `r ≥ t − d + 1` (one round
//!   per remaining undetected fault, plus the source-rediscovery round —
//!   §4.4);
//! * a terminal **A/B segment** suffices when its last block spans at
//!   least `t − d′ + kₓ` gather rounds, where `d′` is the ledger before
//!   that block and `kₓ` is 1 for B and 2 for A (the paper's final
//!   `y + 1` / `y + 2` partial blocks).
//!
//! These are *sufficient* conditions assembled from the paper's own
//! lemmas, not a general characterization — the open question stays open —
//! but they are exactly the conditions the paper itself uses, so every
//! composition the paper writes down (Algorithm A, Algorithm B, the
//! hybrid) type-checks, and so do new ones (A→C without B, A→King,
//! mixed-b hybrids) that the paper never spells out.

use std::fmt;

use sg_sim::{PoolKey, ProcessId, Protocol, RunConfig, Value};

use crate::gearbox::{scheduled_rounds, GearBox};
use crate::params::{t_a, t_b, t_c, Params};
use crate::plan::{compile, RoundAction};
use crate::spec::SpecError;

/// One segment of a round plan — of a shift composition, and of every
/// tree and gear spec ([`crate::AlgorithmSpec::segments`]); the one walk
/// [`crate::plan::compile`] turns a segment list into rounds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Segment {
    /// `blocks` Algorithm A blocks of `b` gather rounds each
    /// (`resolve'` conversion with discovery-during-conversion).
    A {
        /// Gather rounds per block; `b ≥ 3`.
        b: usize,
        /// Number of consecutive blocks.
        blocks: usize,
    },
    /// `blocks` Algorithm B blocks of `b` gather rounds each
    /// (`resolve` conversion).
    B {
        /// Gather rounds per block; `b ≥ 2`.
        b: usize,
        /// Number of consecutive blocks.
        blocks: usize,
    },
    /// An Algorithm C tail of `rounds` gather rounds (entered at C's
    /// round 2). Terminal (may only be followed by a King tail).
    C {
        /// Rep-tree gather rounds; `rounds ≥ 1`.
        rounds: usize,
    },
    /// An optimally resilient Phase King tail of `t + 1` three-round
    /// phases seeded from the preceding structure's preferred value.
    /// Terminal.
    King,
}

/// Why a composition was rejected.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ComposeError {
    /// The composition's parameters fail basic validation.
    Spec(SpecError),
    /// A segment's own parameters are malformed.
    BadSegment {
        /// Index of the offending segment.
        index: usize,
        /// What is wrong with it.
        reason: String,
    },
    /// Entering segment `index` is not justified by the detection ledger.
    UnsafeShift {
        /// Index of the segment being entered.
        index: usize,
        /// Guaranteed global detections at the boundary.
        guaranteed: usize,
        /// Minimum the entry condition requires.
        required: usize,
        /// Which paper condition failed.
        condition: String,
    },
    /// The composition can end without agreement being guaranteed.
    Inconclusive {
        /// Guaranteed global detections at the end.
        guaranteed: usize,
        /// What a sufficient ending would have needed.
        needed: String,
    },
    /// A terminal segment (C or King) is followed by more segments.
    TrailingSegments {
        /// Index of the terminal segment.
        terminal_index: usize,
    },
    /// The composition has no segments.
    Empty,
}

impl fmt::Display for ComposeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComposeError::Spec(e) => write!(f, "{e}"),
            ComposeError::BadSegment { index, reason } => {
                write!(f, "segment {index}: {reason}")
            }
            ComposeError::UnsafeShift {
                index,
                guaranteed,
                required,
                condition,
            } => write!(
                f,
                "unsafe shift into segment {index}: only {guaranteed} global detections \
                 guaranteed, need {required} ({condition})"
            ),
            ComposeError::Inconclusive { guaranteed, needed } => write!(
                f,
                "composition may end without agreement: {guaranteed} detections \
                 guaranteed, needed {needed}"
            ),
            ComposeError::TrailingSegments { terminal_index } => write!(
                f,
                "segment {terminal_index} is terminal; nothing may follow it"
            ),
            ComposeError::Empty => write!(f, "composition has no segments"),
        }
    }
}

impl std::error::Error for ComposeError {}

impl From<SpecError> for ComposeError {
    fn from(e: SpecError) -> Self {
        ComposeError::Spec(e)
    }
}

/// Smallest detection ledger that justifies entering Algorithm B at
/// `(n, t)`: `n − 2t + d > ⌊(n−1)/2⌋` (§4.4, the `t_AB` derivation); `0`
/// if `t` is within B's own resilience.
pub fn b_entry_requirement(n: usize, t: usize) -> usize {
    if t <= t_b(n) {
        return 0;
    }
    let target = (n - 1) / 2; // need n - 2t + d > target
    (target + 1 + 2 * t).saturating_sub(n)
}

/// Smallest detection ledger that justifies entering Algorithm C at
/// `(n, t)`: both `n − t − (t−d)² > n/2` and `n − 2t + d > n/2`
/// (Proposition 4's two branches, as instantiated in the Main Theorem);
/// `0` if `t` is within C's own resilience. Returns `None` when no ledger
/// value `≤ t` suffices (the shift can never be justified by detections
/// alone at these parameters).
pub fn c_entry_requirement(n: usize, t: usize) -> Option<usize> {
    if t <= t_c(n) {
        return Some(0);
    }
    (0..=t).find(|&d| {
        let undetected = t - d;
        // Strict "> n/2" via integer arithmetic: 2·lhs > n.
        let branch_late = 2 * (n.saturating_sub(t + undetected * undetected)) > n
            && n > t + undetected * undetected;
        let branch_round2 = 2 * ((n + d).saturating_sub(2 * t)) > n && n + d > 2 * t;
        branch_late && branch_round2
    })
}

/// A validated shift composition, ready to run.
///
/// Build with [`ShiftPlanBuilder`]. The composition compiles to a
/// tree-machine round plan (the A/B/C segments) plus an optional Phase
/// King tail, exactly like the paper's hybrid plus the §5 king shift.
#[derive(Clone, Debug)]
pub struct ShiftComposition {
    n: usize,
    t: usize,
    segments: Vec<Segment>,
    plan: Vec<RoundAction>,
    king_tail: bool,
}

impl ShiftComposition {
    /// System size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Fault bound the composition was proved safe for.
    pub fn t(&self) -> usize {
        self.t
    }

    /// The validated segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The tree-machine plan (excludes the king tail's rounds).
    pub fn plan(&self) -> &[RoundAction] {
        &self.plan
    }

    /// Communication rounds: the tree plan plus the king tail's, when
    /// there is one — the built protocol's `total_rounds`.
    pub fn rounds(&self) -> usize {
        scheduled_rounds(self.plan.len(), self.king_tail, self.t)
    }

    /// A display name for reports.
    pub fn name(&self) -> String {
        let mut parts = Vec::new();
        for s in &self.segments {
            parts.push(match s {
                Segment::A { b, blocks } => format!("A(b={b})x{blocks}"),
                Segment::B { b, blocks } => format!("B(b={b})x{blocks}"),
                Segment::C { rounds } => format!("C({rounds})"),
                Segment::King => "King".to_string(),
            });
        }
        format!("compose[{}]", parts.join("->"))
    }

    /// Builds the protocol instance for processor `me`: a [`GearBox`]
    /// driving the tree machine through the A/B/C segments plus an
    /// optional king tail, with the fault list carried across the final
    /// shift as masks (the paper's auxiliary-structure rule).
    ///
    /// `input` must be `Some` exactly when `me` is the source.
    pub fn build(&self, params: Params, me: ProcessId, input: Option<Value>) -> GearBox {
        let compiled = (self.plan.clone(), self.king_tail, Vec::new());
        GearBox::new(params, me, input, compiled)
    }

    /// The instance-pool key for this composition under `config`: the
    /// segment sequence (which fixes the compiled plan and king tail)
    /// plus every configuration field instances are seeded from.
    pub fn pool_key(&self, config: &RunConfig) -> PoolKey {
        let mut words: Vec<u64> = Vec::with_capacity(3 * self.segments.len() + 6);
        words.push(0xC035_035E); // composition namespace
        for seg in &self.segments {
            let (tag, a, b): (u64, usize, usize) = match *seg {
                Segment::A { b, blocks } => (1, b, blocks),
                Segment::B { b, blocks } => (2, b, blocks),
                Segment::C { rounds } => (3, rounds, 0),
                Segment::King => (4, 0, 0),
            };
            words.extend([tag, a as u64, b as u64]);
        }
        words.extend([
            config.n as u64,
            config.t as u64,
            u64::from(config.domain.size()),
            config.source.index() as u64,
            u64::from(config.source_value.raw()),
        ]);
        PoolKey::of(&words)
    }

    /// Runs the composition on the engine against `adversary`, recycling
    /// protocol instances across runs of the same composition.
    ///
    /// # Panics
    ///
    /// Panics if `config` disagrees with the composition's `(n, t)`.
    pub fn execute(
        &self,
        config: &RunConfig,
        adversary: &mut dyn sg_sim::Adversary,
    ) -> sg_sim::Outcome {
        assert_eq!(
            (config.n, config.t),
            (self.n, self.t),
            "config must match the composition's parameters"
        );
        let params = Params::from_config(config);
        let source = config.source;
        let source_value = config.source_value;
        sg_sim::run_pooled(config, adversary, self.pool_key(config), |me| {
            let input = (me == source).then_some(source_value);
            Box::new(self.build(params, me, input)) as Box<dyn Protocol>
        })
    }
}

/// Builder for [`ShiftComposition`]; see the module docs for the safety
/// rules it enforces.
///
/// # Examples
///
/// The paper's hybrid shape with per-phase block parameters the paper
/// never tried:
///
/// ```
/// use sg_core::compose::ShiftPlanBuilder;
///
/// let composition = ShiftPlanBuilder::new(16, 5)
///     .a_blocks(4, 2) // two A blocks of 4 gather rounds
///     .b_blocks(3, 1) // one B block of 3
///     .c_tail(3)      // three C rounds
///     .build()?;
/// assert!(composition.rounds() > 0);
/// # Ok::<(), sg_core::compose::ComposeError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ShiftPlanBuilder {
    n: usize,
    t: usize,
    segments: Vec<Segment>,
}

impl ShiftPlanBuilder {
    /// Starts a composition for `n` processors tolerating `t` faults.
    pub fn new(n: usize, t: usize) -> Self {
        ShiftPlanBuilder {
            n,
            t,
            segments: Vec::new(),
        }
    }

    /// Appends `blocks` Algorithm A blocks of `b` gather rounds.
    pub fn a_blocks(mut self, b: usize, blocks: usize) -> Self {
        self.segments.push(Segment::A { b, blocks });
        self
    }

    /// Appends `blocks` Algorithm B blocks of `b` gather rounds.
    pub fn b_blocks(mut self, b: usize, blocks: usize) -> Self {
        self.segments.push(Segment::B { b, blocks });
        self
    }

    /// Appends an Algorithm C tail of `rounds` gather rounds.
    pub fn c_tail(mut self, rounds: usize) -> Self {
        self.segments.push(Segment::C { rounds });
        self
    }

    /// Appends a Phase King tail (`t + 1` three-round phases).
    pub fn king_tail(mut self) -> Self {
        self.segments.push(Segment::King);
        self
    }

    /// Validates the composition and compiles it.
    ///
    /// # Errors
    ///
    /// Returns the first violated safety condition; see [`ComposeError`].
    pub fn build(self) -> Result<ShiftComposition, ComposeError> {
        let (n, t) = (self.n, self.t);
        if t == 0 {
            return Err(SpecError::FaultBoundZero.into());
        }
        if t > t_a(n) {
            return Err(SpecError::ResilienceExceeded {
                algorithm: "shift composition".to_string(),
                n,
                t,
                max_t: t_a(n),
            }
            .into());
        }
        if self.segments.is_empty() {
            return Err(ComposeError::Empty);
        }

        // Walk the segments, maintaining the guaranteed-detection ledger.
        let mut d = 0usize; // guaranteed global detections (capped at t)
        let mut any_block = false; // whether the source's +1 was counted
        let mut conclusive = false;
        let mut terminal: Option<usize> = None;

        for (index, seg) in self.segments.iter().enumerate() {
            if let Some(terminal_index) = terminal {
                // C may be followed only by King; King by nothing.
                if !(matches!(self.segments[terminal_index], Segment::C { .. })
                    && matches!(seg, Segment::King)
                    && index == terminal_index + 1)
                {
                    return Err(ComposeError::TrailingSegments { terminal_index });
                }
            }
            match *seg {
                Segment::A { b, blocks } => {
                    if b < 3 {
                        return Err(ComposeError::BadSegment {
                            index,
                            reason: format!("Algorithm A blocks need b >= 3, got {b}"),
                        });
                    }
                    if b > t {
                        return Err(ComposeError::BadSegment {
                            index,
                            reason: format!(
                                "blocks longer than t are unsound: a depth-{b} tree has \
                                 internal nodes with fewer than 2t+1 children, breaking \
                                 the Correctness Lemma (b <= t = {t})"
                            ),
                        });
                    }
                    if blocks == 0 {
                        return Err(ComposeError::BadSegment {
                            index,
                            reason: "segment must contain at least one block".to_string(),
                        });
                    }
                    // A entry is unconditional at t <= t_A.
                    let mut d_before_last = d;
                    for block in 0..blocks {
                        if block + 1 == blocks {
                            d_before_last = d;
                        }
                        if !any_block {
                            d += 1; // the faulty source's first detection
                            any_block = true;
                        }
                        d = (d + (b - 2)).min(t);
                    }
                    // Terminal-A sufficiency: the last block spans the
                    // remaining undetected faults plus the paper's final
                    // y+2 slack — and b = t is always conclusive (it is
                    // the full Exponential Algorithm, whose t+1-node paths
                    // guarantee a common frontier outright).
                    conclusive = b >= (t - d_before_last + 2).min(t);
                }
                Segment::B { b, blocks } => {
                    if b < 2 {
                        return Err(ComposeError::BadSegment {
                            index,
                            reason: format!("Algorithm B blocks need b >= 2, got {b}"),
                        });
                    }
                    if b > t {
                        return Err(ComposeError::BadSegment {
                            index,
                            reason: format!(
                                "blocks longer than t are unsound: a depth-{b} tree has \
                                 internal nodes with fewer than 2t+1 children, breaking \
                                 the Correctness Lemma (b <= t = {t})"
                            ),
                        });
                    }
                    if blocks == 0 {
                        return Err(ComposeError::BadSegment {
                            index,
                            reason: "segment must contain at least one block".to_string(),
                        });
                    }
                    let required = b_entry_requirement(n, t);
                    if d < required {
                        return Err(ComposeError::UnsafeShift {
                            index,
                            guaranteed: d,
                            required,
                            condition: format!(
                                "Corollary 1 after shifting into B needs n - 2t + |L| > \
                                 (n-1)/2, i.e. |L| >= {required} at n={n}, t={t}"
                            ),
                        });
                    }
                    let mut d_before_last = d;
                    for block in 0..blocks {
                        if block + 1 == blocks {
                            d_before_last = d;
                        }
                        if !any_block {
                            d += 1;
                            any_block = true;
                        }
                        d = (d + (b - 1)).min(t);
                    }
                    conclusive = b >= (t - d_before_last + 1).min(t);
                }
                Segment::C { rounds } => {
                    if rounds == 0 {
                        return Err(ComposeError::BadSegment {
                            index,
                            reason: "Algorithm C tail needs at least one round".to_string(),
                        });
                    }
                    let required = match c_entry_requirement(n, t) {
                        Some(r) => r,
                        None => {
                            return Err(ComposeError::UnsafeShift {
                                index,
                                guaranteed: d,
                                required: t + 1,
                                condition: format!(
                                    "no detection count <= t justifies Algorithm C at \
                                     n={n}, t={t} (Proposition 4's inequalities)"
                                ),
                            })
                        }
                    };
                    if d < required {
                        return Err(ComposeError::UnsafeShift {
                            index,
                            guaranteed: d,
                            required,
                            condition: format!(
                                "Proposition 4 under t > t_C needs |L| >= {required} \
                                 at n={n}, t={t}"
                            ),
                        });
                    }
                    // One round per remaining undetected fault plus the
                    // source-rediscovery round (§4.4).
                    conclusive = rounds > (t - d);
                    d = t.min(d + rounds.saturating_sub(1));
                    terminal = Some(index);
                }
                Segment::King => {
                    conclusive = true;
                    terminal = Some(index);
                }
            }
        }

        if !conclusive {
            return Err(ComposeError::Inconclusive {
                guaranteed: d,
                needed: "a King tail, a C tail of >= t - d + 1 rounds, or a final A/B \
                         block spanning the undetected faults"
                    .to_string(),
            });
        }

        let (plan, king_tail, _) = compile(t, &self.segments, false);
        Ok(ShiftComposition {
            n,
            t,
            segments: self.segments,
            plan,
            king_tail,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn b_entry_requirement_matches_paper_t_ab() {
        // Paper: t_AB >= floor(t_A / 2). At n = 16, t = 5: need
        // n - 2t + d > (n-1)/2 = 7, i.e. 6 + d > 7, d >= 2.
        assert_eq!(b_entry_requirement(16, 5), 2);
        // Within B's own resilience no detections are needed.
        assert_eq!(b_entry_requirement(21, 5), 0);
        for n in [7usize, 10, 16, 22, 31, 43] {
            let t = t_a(n);
            let req = b_entry_requirement(n, t);
            assert!(n - 2 * t + req > (n - 1) / 2, "n={n}");
            assert!(
                req == 0 || n - 2 * t + req - 1 <= (n - 1) / 2,
                "minimal, n={n}"
            );
        }
    }

    #[test]
    fn c_entry_requirement_satisfies_prop4_inequalities() {
        for n in [16usize, 22, 31, 43] {
            let t = t_a(n);
            let d = c_entry_requirement(n, t).expect("satisfiable at t_A");
            let u = t - d;
            assert!(2 * (n - t - u * u) > n, "late branch n={n}");
            assert!(2 * (n + d - 2 * t) > n, "round-2 branch n={n}");
        }
        assert_eq!(c_entry_requirement(32, 4), Some(0)); // within t_C
    }

    #[test]
    fn canonical_hybrid_shape_validates() {
        // A blocks to earn B entry, B blocks to earn C entry, C tail.
        let c = ShiftPlanBuilder::new(16, 5)
            .a_blocks(3, 2)
            .b_blocks(3, 1)
            .c_tail(4)
            .build()
            .expect("paper-shaped composition is safe");
        assert!(c.rounds() > 0);
        assert_eq!(c.plan().len(), c.rounds());
        assert!(c.name().contains("A(b=3)x2"));
    }

    #[test]
    fn premature_b_entry_rejected() {
        // Straight into B with t = t_A(16) = 5 > t_B(16) = 3: unsafe.
        let err = ShiftPlanBuilder::new(16, 5)
            .b_blocks(3, 3)
            .c_tail(5)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, ComposeError::UnsafeShift { index: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn premature_c_entry_rejected() {
        // One A block of 3 guarantees 1 + 1 = 2 detections; C entry at
        // n = 16, t = 5 needs more.
        let required = c_entry_requirement(16, 5).unwrap();
        assert!(required > 2);
        let err = ShiftPlanBuilder::new(16, 5)
            .a_blocks(3, 1)
            .c_tail(5)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, ComposeError::UnsafeShift { index: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn short_c_tail_is_inconclusive() {
        // One A block of 5 guarantees 1 + 3 = 4 detections — enough to
        // *enter* C at n = 16, t = 5, but a 1-round tail cannot cover the
        // remaining undetected fault.
        let err = ShiftPlanBuilder::new(16, 5)
            .a_blocks(5, 1)
            .c_tail(1)
            .build()
            .unwrap_err();
        assert!(matches!(err, ComposeError::Inconclusive { .. }), "{err}");
    }

    #[test]
    fn king_tail_is_always_conclusive() {
        let c = ShiftPlanBuilder::new(16, 5)
            .a_blocks(3, 1)
            .king_tail()
            .build()
            .expect("king tail closes any prefix");
        assert_eq!(c.rounds(), 1 + 3 + 3 * 6);
    }

    #[test]
    fn segments_after_terminal_rejected() {
        let err = ShiftPlanBuilder::new(16, 5)
            .a_blocks(4, 3)
            .c_tail(5)
            .a_blocks(3, 1)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, ComposeError::TrailingSegments { .. }),
            "{err}"
        );
        // C followed by King is the one allowed terminal chain.
        assert!(ShiftPlanBuilder::new(16, 5)
            .a_blocks(4, 3)
            .c_tail(5)
            .king_tail()
            .build()
            .is_ok());
    }

    #[test]
    fn empty_and_zero_fault_compositions_rejected() {
        assert!(matches!(
            ShiftPlanBuilder::new(16, 5).build().unwrap_err(),
            ComposeError::Empty
        ));
        assert!(matches!(
            ShiftPlanBuilder::new(16, 0)
                .a_blocks(3, 1)
                .king_tail()
                .build(),
            Err(ComposeError::Spec(SpecError::FaultBoundZero))
        ));
        assert!(matches!(
            ShiftPlanBuilder::new(16, 6)
                .a_blocks(3, 1)
                .king_tail()
                .build(),
            Err(ComposeError::Spec(SpecError::ResilienceExceeded { .. }))
        ));
    }

    #[test]
    fn terminal_a_segment_matches_exponential_shape() {
        // One A block of exactly t gather rounds is the Exponential
        // Algorithm with resolve': conclusive on its own.
        let c = ShiftPlanBuilder::new(10, 3).a_blocks(3, 1).build().unwrap();
        assert_eq!(c.rounds(), 4);
    }

    #[test]
    fn blocks_longer_than_t_rejected() {
        assert!(matches!(
            ShiftPlanBuilder::new(10, 3).a_blocks(5, 1).build(),
            Err(ComposeError::BadSegment { index: 0, .. })
        ));
        assert!(matches!(
            ShiftPlanBuilder::new(21, 5)
                .b_blocks(6, 1)
                .c_tail(6)
                .build(),
            Err(ComposeError::BadSegment { index: 0, .. })
        ));
    }

    #[test]
    fn bad_block_parameters_rejected() {
        assert!(matches!(
            ShiftPlanBuilder::new(16, 5)
                .a_blocks(2, 1)
                .king_tail()
                .build(),
            Err(ComposeError::BadSegment { index: 0, .. })
        ));
        assert!(matches!(
            ShiftPlanBuilder::new(21, 5)
                .b_blocks(1, 1)
                .king_tail()
                .build(),
            Err(ComposeError::BadSegment { .. })
        ));
        assert!(matches!(
            ShiftPlanBuilder::new(16, 5)
                .a_blocks(3, 0)
                .king_tail()
                .build(),
            Err(ComposeError::BadSegment { .. })
        ));
        assert!(matches!(
            ShiftPlanBuilder::new(16, 5)
                .a_blocks(4, 2)
                .c_tail(0)
                .build(),
            Err(ComposeError::BadSegment { .. })
        ));
    }
}
