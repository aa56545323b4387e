//! # sg-core — the Shifting Gears agreement algorithms
//!
//! Implementations of every Byzantine-agreement algorithm in Bar-Noy,
//! Dolev, Dwork & Strong, *"Shifting Gears: Changing Algorithms on the Fly
//! to Expedite Byzantine Agreement"* (PODC 1987 / Inf. & Comp. 97, 1992):
//!
//! * the **Exponential Algorithm** (§3) — Exponential Information
//!   Gathering with Recursive Majority Voting, plain (PSL-style baseline)
//!   and modified with fault discovery + masking;
//! * **Algorithm A** (§4.2, Theorem 2) — the `⌊(n−1)/3⌋`-resilient
//!   shifted family using `resolve'`;
//! * **Algorithm B** (§4.1, Theorem 3, Fig. 2) — the `⌊(n−1)/4⌋`-resilient
//!   shifted family using `resolve`;
//! * **Algorithm C** (§4.3, Theorem 4) — the `√(n/2)`-resilient
//!   Dolev–Reischuk–Strong adaptation on trees with repetitions;
//! * the **Hybrid** (§4.4, Fig. 3, Main Theorem) — starts in A, shifts
//!   into B, then into C;
//! * the **king family** the paper's §5 names as shifting's successors
//!   (Berman, Garay & Perry: constant-size messages, a leader per phase)
//!   — one phase machine, [`KingCore`], behind `optimal-king`,
//!   `phase-king` and `phase-queen`, and the tail of the two gear shifts
//!   into it (`king-shift`, `dynamic-king`);
//! * one baseline for context: authenticated **Dolev–Strong** with
//!   simulated signatures.
//!
//! All tree algorithms are instances of one plan-driven machine,
//! [`GearedProtocol`], because the paper's shift operator only converts
//! the principal data structure and carries the auxiliary fault lists
//! across unchanged — which is precisely what makes mid-execution
//! algorithm changes sound.
//!
//! # Examples
//!
//! Run the hybrid against a crashing adversary (strategies live in
//! `sg-adversary`; here, fault-free):
//!
//! ```
//! use sg_core::{execute, AlgorithmSpec};
//! use sg_sim::{NoFaults, RunConfig, Value};
//!
//! let config = RunConfig::new(16, 5).with_source_value(Value(1));
//! let outcome = execute(AlgorithmSpec::Hybrid { b: 3 }, &config, &mut NoFaults)?;
//! assert!(outcome.agreement());
//! assert_eq!(outcome.decision(), Some(Value(1)));
//! # Ok::<(), sg_core::SpecError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compose;
pub mod dolev_strong;
pub mod gearbox;
mod geared;
pub mod king_shift;
pub mod optimal_king;
mod params;
pub mod phase_batch;
pub mod phase_king;
pub mod plan;
mod runner;
pub mod schedule;
mod spec;

pub use compose::{ComposeError, Segment, ShiftComposition, ShiftPlanBuilder};
pub use gearbox::{dynamic_king_blocks, Checkpoint, GearBox};
pub use geared::GearedProtocol;
pub use optimal_king::{KingCore, KingRow, PhaseStep};
pub use params::{isqrt, t_a, t_b, t_c, Params};
pub use phase_batch::batch_kernel;
pub use phase_king::PhaseKing;
pub use plan::{render_plan, RoundAction};
pub use runner::{execute, execute_into};
pub use schedule::{choose_b, BChoice, HybridSchedule};
pub use spec::{AlgorithmSpec, SpecError};
