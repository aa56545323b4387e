//! # sg-sim — synchronous Byzantine-agreement simulator substrate
//!
//! This crate implements the execution model of Bar-Noy, Dolev, Dwork &
//! Strong, *"Shifting Gears: Changing Algorithms on the Fly to Expedite
//! Byzantine Agreement"* (§2): a completely synchronous system of `n`
//! processors on a fully reliable complete network, with a distinguished
//! source, unauthenticated Byzantine faults, and known message provenance.
//!
//! The crate provides:
//!
//! * [`ProcessId`] / [`ProcessSet`] — processor identities and sets;
//! * [`Value`] / [`ValueDomain`] — the finite agreement domain `V`;
//! * [`Payload`] / [`Inbox`] — canonical-order message vectors;
//! * [`Protocol`] / [`ProcCtx`] — the per-processor protocol interface
//!   with local-computation accounting and tracing;
//! * [`Adversary`] / [`AdversaryView`] — a full-information rushing
//!   adversary interface;
//! * [`engine::run`] — the lockstep round engine, producing an
//!   [`Outcome`] with exact message/bit/op/space [`Metrics`];
//! * [`reference::run`] — the same model spelled out naively, the oracle
//!   every fast path is differentially tested against;
//! * [`sig`] — a simulated unforgeable-signature oracle for the
//!   authenticated Dolev–Strong baseline.
//!
//! # Examples
//!
//! Running a trivial protocol fault-free (protocol implementations live in
//! `sg-core`; here we only show the engine's shape):
//!
//! ```
//! use sg_sim::{run, NoFaults, Payload, ProcCtx, ProcessId, Protocol, RunConfig, Value, Inbox};
//!
//! struct Echo { me: ProcessId, got: Value }
//! impl Protocol for Echo {
//!     fn total_rounds(&self) -> usize { 1 }
//!     fn outgoing(&mut self, _ctx: &mut ProcCtx) -> Option<Payload> {
//!         (self.me == ProcessId(0)).then(|| Payload::values([Value(1)]))
//!     }
//!     fn deliver(&mut self, inbox: &Inbox, _ctx: &mut ProcCtx) {
//!         if self.me != ProcessId(0) {
//!             self.got = inbox.from(ProcessId(0)).value_at(0).unwrap_or_default();
//!         } else {
//!             self.got = Value(1);
//!         }
//!     }
//!     fn decide(&mut self, _ctx: &mut ProcCtx) -> Value { self.got }
//! }
//!
//! let config = RunConfig::new(4, 0);
//! let outcome = run(&config, &mut NoFaults, |me| Box::new(Echo { me, got: Value::DEFAULT }));
//! assert!(outcome.agreement());
//! assert_eq!(outcome.decision(), Some(Value(1)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod adversary;
pub mod batch;
pub mod engine;
pub mod fnv;
mod id;
mod metrics;
mod payload;
mod pool;
mod protocol;
pub mod reference;
pub mod sig;
pub mod trace;
mod value;

pub use adversary::{Adversary, AdversaryView, NoFaults};
pub use batch::{
    run_batch, run_batch_with, BatchAdversary, BatchArena, BatchKernel, BatchNet, BatchRunResult,
    LaneCounts, LaneView, LiarRows, MAX_BATCH_RUNS,
};
pub use engine::{run, run_into, run_pooled, Outcome, PoolKey, RunArena, RunConfig};
pub use id::{ProcessId, ProcessSet};
pub use metrics::{Metrics, RoundStats};
pub use payload::{Payload, SmallWords};
pub use pool::MruPool;
pub use protocol::{GearAction, Inbox, PackedBallots, ProcCtx, Protocol, RoundStatus};
pub use trace::{Trace, TraceEntry, TraceEvent};
pub use value::{Value, ValueDomain};
