//! # sg-serve — the sweep service
//!
//! The reproduction's serving layer: a long-lived daemon that accepts
//! sweep grids ([`sg_analysis::SweepPlan`]) over newline-delimited JSON
//! — localhost TCP or a unix-domain socket — schedules them on a
//! persistent worker pool, and streams [`sg_analysis::CellReport`]s
//! back as cells complete, ending each job with a summary frame whose
//! `report_fingerprint` is **bit-identical** to what `SweepPlan::run`
//! produces for the same grid (the determinism contract CI's
//! `serve-e2e` job enforces).
//!
//! What makes this a service rather than a loop around the batch path:
//!
//! * **Warm pools across requests.** Each worker thread owns one
//!   [`sg_analysis::SweepScratch`] for its entire life, so the protocol
//!   instances, strategies, lock-step kernels and execution buffers the
//!   sweep executor recycles stay warm from one request to the next.
//! * **Fair interleaving.** Jobs are scheduled round-robin, a worker
//!   turn (a quarter of a millisecond of cells, or one longer cell) at a
//!   time; two concurrent grids make progress together, and each still
//!   yields exactly its solo results (coordinate-pure seeding).
//! * **Cancellation.** A `cancel` line stops a running grid within one
//!   chunk (≤ 64 runs), mid-cell included.
//! * **Fault isolation.** Malformed frames get structured `error`
//!   answers; a worker panic fails one job, not the daemon (and costs
//!   only the panicked cell's pooled instances, not the scratch).
//! * **Admission control.** Bounded job and run backlogs: a saturated
//!   daemon answers `rejected` with a deterministic `retry_after_ms`
//!   instead of queueing without limit, deadlines (`deadline_ms`) stop
//!   overdue jobs at the same chunk boundary, slow readers are shed
//!   by a send timeout behind a capped send buffer, and `drain` (or
//!   SIGTERM) finishes accepted work before saying `bye` — see
//!   [`server`]'s "Overload behavior" notes and [`load`] for the
//!   harness that proves it.
//!
//! Quickstart (see `examples/sweep_service.rs` for the library-level
//! version):
//!
//! ```text
//! sg serve --port 7411 &
//! sg ping   --addr 127.0.0.1:7411
//! sg submit --addr 127.0.0.1:7411 --alg optimal-king --n 16 --t 5 --seeds 100
//! ```
//!
//! The wire protocol is specified in [`wire`] and summarized in
//! `docs/WIRE.md`.

#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod load;
pub mod server;
pub mod wire;

pub use chaos::{ChaosProxy, ChaosSpec};
pub use client::{Client, JobHandle, RetryPolicy, ServeError, StreamedReport};
pub use load::{run_load, LoadOptions, LoadReport};
pub use server::{serve, Bind, Drainer, ServeOptions, ServerHandle};
pub use wire::{ErrorCode, Frame, RejectCode, Request, PROTOCOL};
