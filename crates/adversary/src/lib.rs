//! # sg-adversary — Byzantine strategy library
//!
//! Concrete adversaries for the `sg-sim` engine's full-information rushing
//! model (paper §2: "there is no restriction on the behavior of faulty
//! processors"). Each strategy chooses a corrupted set via
//! [`FaultSelection`] and then, per round and per (sender, recipient)
//! pair, an arbitrary payload — optionally starting from the *shadow* of
//! what the corrupted processor would have sent honestly.
//!
//! Every strategy is a [`Family`] value — nineteen named families, each
//! one variant with its parameters — and [`Family::strategy`] builds the
//! run's strategy: one type for the sixteen that corrupt through a
//! [`FaultSelection`], whose payload rule is a match on the variant,
//! plus [`TapeAdversary`], [`ReplayAdversary`] and [`sg_sim::NoFaults`].
//!
//! * `silent` / `crash` — omission and crash failures;
//! * `random-liar` — uniform random in-domain lies;
//! * `two-faced` — consistent equivocation by recipient parity;
//! * `equivocating-source` — a source telling everyone different values;
//! * `stealth` — sub-discovery-threshold corruption (one flipped value
//!   per message), stressing the Hidden Fault Lemma;
//! * `chain-revealer` — reveals one fault per block, forcing worst-case
//!   round counts in the shifted families;
//! * `double-talk` — coordinated split-brain value stories;
//! * `staggered-split` — an equivocating source plus conspirators that
//!   activate one by one, stretching lock-in across blocks;
//! * `collusion` — all faults corroborate one coherent alternative
//!   reality;
//! * `stale-shadow` — resends the previous round's (wrong-length) shadow;
//! * `frontier-breaker` — a chain of lies concentrated on one
//!   root-to-leaf path, the Frontier Lemma's worst case;
//! * `partition` — round-ranged network partition cutting every edge
//!   (honest ones included) across a group boundary;
//! * `omission` — periodic per-edge message drops, a timing-fault
//!   texture;
//! * `equivocate` — a sustained value-split schedule by recipient set;
//! * `adaptive` — mid-run corruption: the fault set turns Byzantine in
//!   scripted waves;
//! * `tape` ([`TapeAdversary`]) — plays an explicit per-call behaviour
//!   tape; together with [`enumerate_tapes`] it model-checks small
//!   instances against *every* behaviour over a move alphabet;
//! * `replay` ([`ReplayAdversary`]) — re-executes a recorded trace.
//!
//! [`standard_suite`] bundles them into the gauntlet used by the
//! integration tests and the benchmark harness, read off one table of
//! `Family` values. Every family travels the wire and the journal: one
//! value builds the run's strategy, its lock-step form ([`BatchFamily`],
//! for the seven with a vector shape) and its wire text — see the
//! [`family`] module.
//!
//! Every run under any of these strategies can be captured as a
//! serializable [`AdversaryTrace`] (wrap the strategy in
//! [`RecordingAdversary`]) and re-executed bit-exactly by
//! [`ReplayAdversary`] — see the [`scenario`] module.
//!
//! # Examples
//!
//! ```
//! use sg_adversary::{Family, FaultSelection};
//! use sg_sim::ProcessId;
//!
//! let mut adversary = Family::TwoFaced(FaultSelection::without_source()).strategy(0);
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
pub use suite::{quick_suite, standard_suite};
pub use tape::{
    calls_per_run, enumerate_tapes, EmptyTapeError, Move, TapeAdversary, TapeEnumerator, ALL_MOVES,
    SINGLE_VALUE_MOVES,
};
pub use util::{edge_draw, edge_mix, first_draw};
