//! # sg-adversary — Byzantine strategy library
//!
//! Concrete adversaries for the `sg-sim` engine's full-information rushing
//! model (paper §2: "there is no restriction on the behavior of faulty
//! processors"). Each strategy chooses a corrupted set via
//! [`FaultSelection`] and then, per round and per (sender, recipient)
//! pair, an arbitrary payload — optionally starting from the *shadow* of
//! what the corrupted processor would have sent honestly.
//!
//! Strategies:
//!
//! * [`Silent`] / [`Crash`] — omission and crash failures;
//! * [`RandomLiar`] — uniform random in-domain lies;
//! * [`TwoFaced`] — consistent equivocation by recipient parity;
//! * [`EquivocatingSource`] — a source telling everyone different values;
//! * [`Stealth`] — sub-discovery-threshold corruption (one flipped value
//!   per message), stressing the Hidden Fault Lemma;
//! * [`ChainRevealer`] — reveals one fault per block, forcing worst-case
//!   round counts in the shifted families;
//! * [`DoubleTalk`] — coordinated split-brain value stories;
//! * [`StaggeredSplit`] — an equivocating source plus conspirators that
//!   activate one by one, stretching lock-in across blocks;
//! * [`Collusion`] — all faults corroborate one coherent alternative
//!   reality;
//! * [`Replay`] — resends the previous round's (wrong-length) payload;
//! * [`FrontierBreaker`] — a chain of lies concentrated on one
//!   root-to-leaf path, the Frontier Lemma's worst case;
//! * [`TapeAdversary`] — plays an explicit per-call behaviour tape;
//!   together with [`enumerate_tapes`] it model-checks small instances
//!   against *every* behaviour over a move alphabet;
//! * [`Partition`] — round-ranged network partition cutting every edge
//!   (honest ones included) across a group boundary;
//! * [`Omission`] — periodic per-edge message drops, a timing-fault
//!   texture;
//! * [`Equivocate`] — a sustained value-split schedule by recipient set;
//! * [`Adaptive`] — mid-run corruption: the fault set turns Byzantine in
//!   scripted waves.
//!
//! [`standard_suite`] bundles them into the gauntlet used by the
//! integration tests and the benchmark harness. Eleven of them are the
//! named, wire-portable families a sweep grid can carry: one [`Family`]
//! value each builds the run's strategy, its lock-step form
//! ([`BatchFamily`]) and its wire text — see the [`family`] module.
//!
//! Every run under any of these strategies can be captured as a
//! serializable [`AdversaryTrace`] (wrap the strategy in
//! [`RecordingAdversary`]) and re-executed bit-exactly by
//! [`ReplayAdversary`] — see the [`scenario`] module.
//!
//! # Examples
//!
//! ```
//! use sg_adversary::{FaultSelection, TwoFaced};
//! use sg_sim::{Adversary, ProcessId};
//!
//! let mut adversary = TwoFaced::new(FaultSelection::without_source());
//! let faulty = adversary.corrupt(7, 2, ProcessId(0));
//! assert_eq!(faulty.len(), 2);
//! assert!(!faulty.contains(ProcessId(0)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod batch;
pub mod family;
pub mod scenario;
mod selection;
mod strategies;
mod suite;
mod tape;
mod util;

pub use batch::BatchFamily;
pub use family::Family;
pub use scenario::{
    AdversaryTrace, RecordingAdversary, ReplayAdversary, TraceCut, TraceError, TracePayload,
    TraceStep, TRACE_SCHEMA,
};
pub use selection::FaultSelection;
pub use strategies::{
    Adaptive, ChainRevealer, Collusion, Crash, DoubleTalk, Equivocate, EquivocatingSource,
    FrontierBreaker, Omission, Partition, RandomLiar, Replay, Silent, StaggeredSplit, Stealth,
    TwoFaced,
};
pub use suite::{quick_suite, standard_suite};
pub use tape::{
    calls_per_run, enumerate_tapes, EmptyTapeError, Move, TapeAdversary, TapeEnumerator, ALL_MOVES,
    SINGLE_VALUE_MOVES,
};
pub use util::{edge_draw, edge_mix, first_draw};
