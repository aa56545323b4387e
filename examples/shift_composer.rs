//! Compose your own shift schedule — §6's open question, interactively.
//!
//! The paper ends by asking when it is safe to shift between algorithms.
//! This example assembles several compositions through
//! [`ShiftPlanBuilder`], shows which ones the §4.4 safety conditions
//! accept (and why the rest are rejected), and runs the accepted ones
//! against a split-brain adversary at full `⌊(n−1)/3⌋` resilience.
//!
//! ```text
//! cargo run --example shift_composer
//! ```

use shifting_gears::adversary::{Family, FaultSelection};
use shifting_gears::core::compose::ShiftPlanBuilder;
use shifting_gears::core::t_a;
use shifting_gears::sim::{RunConfig, Value};

fn main() {
    let n = 16;
    let t = t_a(n);
    println!("shift compositions at n = {n}, t = {t}\n");

    let candidates: Vec<(&str, ShiftPlanBuilder)> = vec![
        (
            "the paper's hybrid shape: A(3)x2 -> B(3) -> C(4)",
            ShiftPlanBuilder::new(n, t)
                .a_blocks(3, 2)
                .b_blocks(3, 1)
                .c_tail(4),
        ),
        (
            "skip B entirely:          A(4)x2 -> C(2)",
            ShiftPlanBuilder::new(n, t).a_blocks(4, 2).c_tail(2),
        ),
        (
            "close with Phase King:    A(3) -> King",
            ShiftPlanBuilder::new(n, t).a_blocks(3, 1).king_tail(),
        ),
        (
            "go straight to B:         B(3)x3 -> C(4)   (unsafe!)",
            ShiftPlanBuilder::new(n, t).b_blocks(3, 3).c_tail(4),
        ),
        (
            "shift to C too early:     A(3) -> C(6)     (unsafe!)",
            ShiftPlanBuilder::new(n, t).a_blocks(3, 1).c_tail(6),
        ),
    ];

    for (label, builder) in candidates {
        println!("{label}");
        match builder.build() {
            Ok(composition) => {
                let config = RunConfig::new(n, t).with_source_value(Value(1));
                let mut adversary =
                    Family::DoubleTalk(FaultSelection::without_source()).strategy(0);
                let outcome = composition.execute(&config, adversary.as_mut());
                println!(
                    "  SAFE      {} rounds; under {}: agreement={}, decision={:?}",
                    composition.rounds(),
                    outcome.adversary,
                    outcome.agreement(),
                    outcome.decision()
                );
                assert!(outcome.agreement() && outcome.validity() == Some(true));
            }
            Err(e) => {
                println!("  REJECTED  {e}");
            }
        }
        println!();
    }

    println!("Every accepted composition reached agreement with validity. ✓");
}
