//! Executable round plans.
//!
//! Every algorithm in the paper — the Exponential Algorithm, Algorithms A
//! and B, Algorithm C, and the hybrid — is a list of [`Segment`]s (A
//! blocks, B blocks, a C tail, and for the gear shifts a King tail), and
//! [`compile`] turns any such list into a linear *plan*: one
//! [`RoundAction`] per communication round. The plan is the executable
//! counterpart of the paper's Figures 2 and 3; printing it reproduces the
//! pseudocode structure, and the [`crate::GearedProtocol`] machine
//! interprets it.

use std::iter;

use sg_eigtree::Conversion;

use crate::compose::Segment;
use crate::gearbox::Checkpoint;

/// An end-of-round conversion (`shift_{k→1}` on the principal structure).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ConvertSpec {
    /// Which conversion function to apply (`resolve` or `resolve'`).
    pub conversion: Conversion,
    /// Whether Algorithm A's Fault Discovery Rule During Conversion runs.
    pub discovery: bool,
}

/// What one communication round does.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RoundAction {
    /// Round 1: the source broadcasts its initial value; everyone stores
    /// it as the root of their tree.
    Initial,
    /// A no-repetition information-gathering round: broadcast the deepest
    /// tree level, store the next, discover and mask; optionally convert
    /// and shrink at the end (a block boundary / shift).
    Gather {
        /// End-of-round conversion, if this round closes a block.
        convert: Option<ConvertSpec>,
    },
    /// Algorithm C's round 2: broadcast the root, store the intermediate
    /// vertices, apply the discovery rule to the root's children.
    RepFirstGather,
    /// Algorithm C's rounds ≥ 3: broadcast intermediates, store leaves,
    /// discover, mask, reorder, and `shift_{3→2}`-convert back to two
    /// levels.
    RepGather,
}

impl RoundAction {
    /// Whether this action operates on the with-repetitions tree.
    pub fn is_rep(&self) -> bool {
        matches!(self, RoundAction::RepFirstGather | RoundAction::RepGather)
    }
}

/// Compiles a segment list into the tree machine's plan: round 1, then
/// each A or B block as `b − 1` plain gather rounds and one gather round
/// that converts (`resolve'` with discovery for A, `resolve` for B), and
/// a C segment as Algorithm C's first rep gather plus `rounds − 1` more.
/// A King segment adds no tree rounds; it sets the returned `king_tail`
/// flag, and the [`crate::GearBox`] runs the tail after the plan.
///
/// When `dynamic` is set, every *interior* block boundary becomes a
/// [`Checkpoint`] carrying the block's detection capacity (`b − 2` for A,
/// `b − 1` for B); the plan's last round is the static boundary itself,
/// never a vote. Every tree and gear spec ([`crate::AlgorithmSpec::segments`])
/// and every shift composition is built by this one walk. It does no
/// validation: [`crate::AlgorithmSpec::validate`] and
/// [`crate::ShiftPlanBuilder::build`] decide which segment lists are safe.
pub fn compile(
    t: usize,
    segments: &[Segment],
    dynamic: bool,
) -> (Vec<RoundAction>, bool, Vec<Checkpoint>) {
    let mut plan = vec![RoundAction::Initial];
    let mut king_tail = false;
    let mut checkpoints = Vec::new();
    for segment in segments {
        let (b, blocks, conversion, capacity) = match *segment {
            Segment::A { b, blocks } => (
                b,
                blocks,
                Conversion::ResolvePrime { t },
                b.saturating_sub(2),
            ),
            Segment::B { b, blocks } => (b, blocks, Conversion::Resolve, b.saturating_sub(1)),
            Segment::C { rounds } => {
                plan.push(RoundAction::RepFirstGather);
                plan.extend(iter::repeat_n(
                    RoundAction::RepGather,
                    rounds.saturating_sub(1),
                ));
                continue;
            }
            Segment::King => {
                king_tail = true;
                continue;
            }
        };
        let convert = ConvertSpec {
            conversion,
            discovery: matches!(conversion, Conversion::ResolvePrime { .. }),
        };
        for _ in 0..blocks {
            let plain = RoundAction::Gather { convert: None };
            plan.extend(iter::repeat_n(plain, b.saturating_sub(1)));
            plan.push(RoundAction::Gather {
                convert: Some(convert),
            });
            checkpoints.push(Checkpoint {
                round: plan.len(),
                capacity,
            });
        }
    }
    checkpoints.retain(|c| dynamic && c.round < plan.len());
    (plan, king_tail, checkpoints)
}

/// Renders a plan as indented pseudocode in the style of the paper's
/// Figures 2 and 3, for the plan-reproduction experiment.
pub fn render_plan(name: &str, plan: &[RoundAction]) -> String {
    let mut out = format!("{name}:\n");
    for (i, action) in plan.iter().enumerate() {
        let round = i + 1;
        let line = match action {
            RoundAction::Initial => "the source broadcasts its value; store tree(s)".to_string(),
            RoundAction::Gather { convert: None } => {
                "gather: broadcast deepest level; store; discover; mask".to_string()
            }
            RoundAction::Gather {
                convert: Some(spec),
            } => format!(
                "gather, then shift: tree(s) := {}(s){}",
                spec.conversion.name(),
                if spec.discovery {
                    "  { discovery during conversion }"
                } else {
                    ""
                }
            ),
            RoundAction::RepFirstGather => {
                "C: broadcast tree(s); store intermediate vertices; discover".to_string()
            }
            RoundAction::RepGather => {
                "C: broadcast intermediates; store leaves; discover; mask; reorder; shift 3->2"
                    .to_string()
            }
        };
        out.push_str(&format!("  round {round:>2}: {line}\n"));
    }
    out.push_str("  decide on the converted root\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{algorithm_a_rounds_exact, algorithm_b_rounds_exact, HybridSchedule};
    use crate::AlgorithmSpec;

    fn plan(spec: AlgorithmSpec, n: usize, t: usize) -> Vec<RoundAction> {
        spec.plan(n, t).expect("tree spec")
    }

    #[test]
    fn exponential_plan_has_one_final_conversion() {
        let plan = plan(AlgorithmSpec::Exponential, 10, 3);
        assert_eq!(plan.len(), 4);
        assert!(matches!(plan[0], RoundAction::Initial));
        assert!(matches!(plan[1], RoundAction::Gather { convert: None }));
        assert!(matches!(
            plan[3],
            RoundAction::Gather {
                convert: Some(ConvertSpec {
                    conversion: Conversion::Resolve,
                    discovery: false
                })
            }
        ));
    }

    #[test]
    fn plan_lengths_match_schedules() {
        for t in 3..15 {
            for b in 2..t {
                assert_eq!(
                    plan(AlgorithmSpec::AlgorithmB { b }, 4 * t + 1, t).len(),
                    algorithm_b_rounds_exact(t, b),
                    "B t={t} b={b}"
                );
                if b >= 3 {
                    assert_eq!(
                        plan(AlgorithmSpec::AlgorithmA { b }, 3 * t + 1, t).len(),
                        algorithm_a_rounds_exact(t, b),
                        "A t={t} b={b}"
                    );
                }
            }
            assert_eq!(plan(AlgorithmSpec::AlgorithmC, 2 * t * t, t).len(), t + 1);
        }
    }

    #[test]
    fn b_plan_converts_at_block_ends_only() {
        // t = 5, b = 3: blocks [3, 3]; conversions at rounds 4 and 7.
        let plan = plan(AlgorithmSpec::AlgorithmB { b: 3 }, 21, 5);
        let convert_rounds: Vec<usize> = plan
            .iter()
            .enumerate()
            .filter(|(_, a)| matches!(a, RoundAction::Gather { convert: Some(_) }))
            .map(|(i, _)| i + 1)
            .collect();
        assert_eq!(convert_rounds, vec![4, 7]);
    }

    #[test]
    fn a_plan_uses_resolve_prime_with_discovery() {
        let plan = plan(AlgorithmSpec::AlgorithmA { b: 4 }, 22, 7);
        for action in &plan {
            if let RoundAction::Gather {
                convert: Some(spec),
            } = action
            {
                assert!(matches!(spec.conversion, Conversion::ResolvePrime { t: 7 }));
                assert!(spec.discovery);
            }
        }
    }

    #[test]
    fn hybrid_plan_has_three_phases_in_order() {
        let schedule = HybridSchedule::compute(16, 3);
        let plan = plan(AlgorithmSpec::Hybrid { b: 3 }, 16, schedule.t);
        assert_eq!(plan.len(), schedule.total_rounds());
        // After the first rep action, no more no-rep gathers appear.
        let first_rep = plan.iter().position(RoundAction::is_rep).unwrap();
        assert_eq!(first_rep, schedule.k_ab + schedule.k_bc);
        assert!(plan[first_rep..].iter().all(RoundAction::is_rep));
        assert!(matches!(plan[first_rep], RoundAction::RepFirstGather));
        // A-phase conversions use resolve', B-phase conversions resolve.
        let conversions: Vec<ConvertSpec> = plan
            .iter()
            .filter_map(|a| match a {
                RoundAction::Gather { convert: Some(s) } => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(
            conversions.len(),
            schedule.a_blocks.len() + schedule.b_blocks.len()
        );
        for (i, spec) in conversions.iter().enumerate() {
            if i < schedule.a_blocks.len() {
                assert!(matches!(spec.conversion, Conversion::ResolvePrime { .. }));
            } else {
                assert!(matches!(spec.conversion, Conversion::Resolve));
            }
        }
    }

    #[test]
    fn only_dynamic_interior_boundaries_are_checkpoints() {
        let segments = [
            Segment::A { b: 4, blocks: 2 },
            Segment::B { b: 3, blocks: 1 },
            Segment::King,
        ];
        let (plan, king_tail, checkpoints) = compile(5, &segments, false);
        assert_eq!((plan.len(), king_tail), (1 + 4 + 4 + 3, true));
        assert!(checkpoints.is_empty());
        let (_, _, checkpoints) = compile(5, &segments, true);
        let at = |round, capacity| Checkpoint { round, capacity };
        // The B block's boundary is the plan's last round: no vote there.
        assert_eq!(checkpoints, vec![at(5, 2), at(9, 2)]);
    }

    #[test]
    fn render_plan_mentions_shifts() {
        let plan = plan(AlgorithmSpec::AlgorithmB { b: 3 }, 21, 5);
        let text = render_plan("Algorithm B(3), t=5", &plan);
        assert!(text.contains("tree(s) := resolve(s)"));
        assert!(text.contains("round  1"));
    }
}
