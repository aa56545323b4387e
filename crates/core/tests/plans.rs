//! Plan pins: every tree and gear spec's compiled round plan, round count
//! and (for the king-tail specs) gear-box checkpoints, and every shift
//! composition `tests/shift_compositions.rs` builds, folded into one FNV
//! digest each.
//!
//! The digests hold the bytes of the `Debug` forms, so any change to a
//! plan, a conversion, a checkpoint or a round count moves them. A plan
//! refactor must leave both constants as they are.

use sg_core::{t_a, AlgorithmSpec, GearBox, Params, ShiftPlanBuilder};
use sg_sim::{fnv, ProcessId, Protocol, ValueDomain};

/// The nine tree and gear specs at block parameter `b`.
fn specs(b: usize) -> [AlgorithmSpec; 9] {
    [
        AlgorithmSpec::PlainExponential,
        AlgorithmSpec::Exponential,
        AlgorithmSpec::ExponentialPrime,
        AlgorithmSpec::AlgorithmA { b },
        AlgorithmSpec::AlgorithmB { b },
        AlgorithmSpec::AlgorithmC,
        AlgorithmSpec::Hybrid { b },
        AlgorithmSpec::KingShift { b },
        AlgorithmSpec::DynamicKing { b },
    ]
}

/// Whether `spec` reads its block parameter (the others are visited at
/// one `b` only).
fn has_b(spec: AlgorithmSpec) -> bool {
    matches!(
        spec,
        AlgorithmSpec::AlgorithmA { .. }
            | AlgorithmSpec::AlgorithmB { .. }
            | AlgorithmSpec::Hybrid { .. }
            | AlgorithmSpec::KingShift { .. }
            | AlgorithmSpec::DynamicKing { .. }
    )
}

/// Processor 1's gear box for a king-tail spec.
fn gear_box(spec: AlgorithmSpec, n: usize, t: usize) -> Option<GearBox> {
    let params = Params {
        n,
        t,
        source: ProcessId(0),
        domain: ValueDomain::binary(),
    };
    spec.gear_box(params, ProcessId(1), None)
}

#[test]
fn every_spec_plan_is_pinned() {
    let mut digest = fnv::OFFSET;
    let mut cells = 0usize;
    for n in 4..=40 {
        for t in 1..=t_a(n) {
            for b in 2..=9 {
                for spec in specs(b) {
                    if (b > 2 && !has_b(spec)) || spec.validate(n, t).is_err() {
                        continue;
                    }
                    let rounds = spec.rounds(n, t);
                    let mut line = format!("{:?}", (spec.name(), n, t, spec.plan(n, t), rounds));
                    if let Some(gear) = gear_box(spec, n, t) {
                        assert_eq!(gear.total_rounds(), rounds, "{} n={n} t={t}", spec.name());
                        line += &format!("{:?}", (gear.checkpoints(), gear.worst_case_rounds()));
                    }
                    digest = fnv::mix_bytes(digest, line.as_bytes());
                    cells += 1;
                }
            }
        }
    }
    assert_eq!(cells, 7_630);
    assert_eq!(format!("{digest:016x}"), "0e6d2dfd7d5b0dd0");
}

#[test]
fn every_composition_plan_is_pinned() {
    let t13 = t_a(13);
    let shapes = [
        ShiftPlanBuilder::new(16, 5)
            .a_blocks(3, 2)
            .b_blocks(3, 1)
            .c_tail(4),
        ShiftPlanBuilder::new(16, 5).a_blocks(4, 2).c_tail(2),
        ShiftPlanBuilder::new(16, 5)
            .a_blocks(4, 1)
            .b_blocks(2, 2)
            .c_tail(3),
        ShiftPlanBuilder::new(10, 3).a_blocks(3, 1).king_tail(),
        ShiftPlanBuilder::new(16, 5)
            .a_blocks(4, 2)
            .c_tail(2)
            .king_tail(),
        ShiftPlanBuilder::new(10, 3).a_blocks(3, 1),
        ShiftPlanBuilder::new(13, t13).a_blocks(3, 4).c_tail(2),
        ShiftPlanBuilder::new(21, 5).b_blocks(3, 2).c_tail(3),
        ShiftPlanBuilder::new(16, 5)
            .a_blocks(3, 1)
            .b_blocks(3, 2)
            .c_tail(3),
        ShiftPlanBuilder::new(16, 5).b_blocks(3, 3).c_tail(3),
        ShiftPlanBuilder::new(16, 5).b_blocks(3, 1).king_tail(),
    ];
    let mut digest = fnv::OFFSET;
    for shape in shapes {
        let line = match shape.build() {
            Ok(c) => format!("{:?}", (c.name(), c.plan(), c.rounds())),
            Err(e) => format!("{e:?}"),
        };
        digest = fnv::mix_bytes(digest, line.as_bytes());
    }
    assert_eq!(format!("{digest:016x}"), "cc32460b0fb0c6ff");
}
