//! Recordable, replayable adversary scenarios.
//!
//! The engine drives any [`Adversary`] through a deterministic call
//! sequence — one [`Adversary::corrupt`] before round 1, then per round
//! one [`Adversary::row`] per faulty sender in ascending order, whose
//! slots hold one payload per recipient ≠ sender, read in ascending
//! order, plus (for strategies with [`Adversary::has_edge_faults`]) one
//! [`Adversary::edge_cut`] per honest edge per round. A run's faulty
//! behaviour is therefore fully determined by those slots and cuts, and
//! that sequence is a finite, serializable artifact: an
//! [`AdversaryTrace`].
//!
//! * [`RecordingAdversary`] wraps any strategy and captures the trace
//!   while the wrapped strategy plays — the recorded run is bit-identical
//!   to an unrecorded one (the wrapper forwards every call unchanged and
//!   records each row's slots as the strategy wrote them).
//! * [`ReplayAdversary`] executes a trace against the engine, answering
//!   each row's slots, in order, from the recorded steps. Because the
//!   engine's call order is deterministic and every honest processor is
//!   a deterministic function of delivered payloads, a replayed run
//!   reproduces the recorded run bit-exactly — same decisions, same
//!   metrics, same fingerprint contribution.
//! * The JSON codec (schema `sg-trace/1`) makes traces wire-portable:
//!   they travel the `sg-serve/1` protocol as a named family and live in
//!   the committed counterexample corpus under `tests/corpus/`.
//!
//! Replay never panics on a damaged trace: any divergence between the
//! engine's calls and the recorded steps (truncation, edits, a different
//! `(n, t)`) latches a structured [`TraceError`], visible through
//! [`ReplayAdversary::verify`] after the run, and the replayer answers
//! the remaining slots with missing payloads.

use std::fmt;
use std::sync::Arc;

use serde::json::{JsonError, Value as Json};
use serde::{FromJson, ToJson};
use sg_sim::{Adversary, AdversaryView, Payload, ProcessId, ProcessSet, Value};

/// Schema tag for the serialized trace form.
pub const TRACE_SCHEMA: &str = "sg-trace/1";

/// One recorded faulty payload: what `sender` sent `recipient` in
/// `round`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceStep {
    /// 1-based round of the call.
    pub round: usize,
    /// Faulty sender.
    pub sender: ProcessId,
    /// Recipient of this payload.
    pub recipient: ProcessId,
    /// The payload sent.
    pub payload: TracePayload,
}

/// One recorded honest-edge cut: the broadcast from (honest) `sender`
/// to `recipient` was dropped in `round`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCut {
    /// 1-based round of the cut.
    pub round: usize,
    /// Honest sender whose broadcast was dropped.
    pub sender: ProcessId,
    /// Recipient that did not receive it.
    pub recipient: ProcessId,
}

/// A recorded payload, in the value-vector normal form.
///
/// Payload equality in the engine is semantic (bit-packed and vector
/// payloads compare equal value-for-value), so recording every payload
/// as its value vector loses nothing: a replayed [`TracePayload`]
/// produces the same protocol behaviour and the same metrics as the
/// original representation. Signed relay payloads have no value-vector
/// form — recording one is a structured error, never a silent loss.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TracePayload {
    /// No message (the recipient sees a missing payload).
    Missing,
    /// A vector of raw values (out-of-domain values included — garbage
    /// payloads replay exactly).
    Values(Vec<u16>),
}

impl TracePayload {
    /// Normalizes an engine payload for recording, or `None` for the
    /// unrecordable signed-relay representation.
    fn of(payload: &Payload) -> Option<TracePayload> {
        match payload {
            Payload::Missing => Some(TracePayload::Missing),
            Payload::Signed(_) => None,
            p => Some(TracePayload::Values(
                (0..p.num_values())
                    .map(|i| p.value_at(i).expect("index in range").raw())
                    .collect(),
            )),
        }
    }

    /// Materializes the recorded payload for replay.
    fn to_payload(&self) -> Payload {
        match self {
            TracePayload::Missing => Payload::Missing,
            TracePayload::Values(vals) => Payload::values(vals.iter().map(|&raw| Value(raw))),
        }
    }
}

/// A complete record of one run's faulty behaviour: the corrupted set
/// plus every per-round, per-edge fault action.
///
/// Build one with [`RecordingAdversary`], execute one with
/// [`ReplayAdversary`], serialize with the [`ToJson`]/[`FromJson`]
/// impls (schema [`TRACE_SCHEMA`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdversaryTrace {
    /// Name of the strategy that produced the trace (informational).
    pub family: String,
    /// System size the trace was recorded at.
    pub n: usize,
    /// Fault bound the trace was recorded at.
    pub t: usize,
    /// The corrupted set, ascending.
    pub faulty: Vec<ProcessId>,
    /// Faulty payloads, in the engine's call order.
    pub steps: Vec<TraceStep>,
    /// Honest-edge cuts (empty unless the recorded strategy had
    /// [`Adversary::has_edge_faults`]).
    pub cuts: Vec<TraceCut>,
}

/// Structured failure of recording, validation, or replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The recorded strategy sent a payload with no value-vector normal
    /// form (a signed relay), so the trace would not replay faithfully.
    Unrecordable {
        /// Round of the unrecordable call.
        round: usize,
        /// Faulty sender of the unrecordable payload.
        sender: ProcessId,
        /// Recipient of the unrecordable payload.
        recipient: ProcessId,
    },
    /// The trace is internally inconsistent (out-of-range ids, a step
    /// from an uncorrupted sender, a zero round).
    Malformed(String),
    /// Replay diverged from the recorded call sequence (truncated or
    /// edited trace, or a run configuration that does not match).
    Desync(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Unrecordable {
                round,
                sender,
                recipient,
            } => write!(
                f,
                "unrecordable signed payload at round {round}, {} -> {}",
                sender.index(),
                recipient.index()
            ),
            TraceError::Malformed(detail) => write!(f, "malformed trace: {detail}"),
            TraceError::Desync(detail) => write!(f, "replay desync: {detail}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl AdversaryTrace {
    /// Validates internal consistency: ids in range, steps from
    /// corrupted senders only, rounds 1-based.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Malformed`] on the first inconsistency.
    pub fn validate(&self) -> Result<(), TraceError> {
        if self.n == 0 {
            return Err(TraceError::Malformed("n must be positive".into()));
        }
        for p in &self.faulty {
            if p.index() >= self.n {
                return Err(TraceError::Malformed(format!(
                    "faulty processor {} out of range for n={}",
                    p.index(),
                    self.n
                )));
            }
        }
        for (i, step) in self.steps.iter().enumerate() {
            if step.round == 0 {
                return Err(TraceError::Malformed(format!("step {i}: round 0")));
            }
            if step.sender.index() >= self.n || step.recipient.index() >= self.n {
                return Err(TraceError::Malformed(format!(
                    "step {i}: processor id out of range for n={}",
                    self.n
                )));
            }
            if !self.faulty.contains(&step.sender) {
                return Err(TraceError::Malformed(format!(
                    "step {i}: sender {} is not in the corrupted set",
                    step.sender.index()
                )));
            }
        }
        for (i, cut) in self.cuts.iter().enumerate() {
            if cut.round == 0 {
                return Err(TraceError::Malformed(format!("cut {i}: round 0")));
            }
            if cut.sender.index() >= self.n || cut.recipient.index() >= self.n {
                return Err(TraceError::Malformed(format!(
                    "cut {i}: processor id out of range for n={}",
                    self.n
                )));
            }
        }
        Ok(())
    }
}

impl ToJson for AdversaryTrace {
    fn to_json(&self) -> Json {
        let steps = self
            .steps
            .iter()
            .map(|s| {
                let payload = match &s.payload {
                    TracePayload::Missing => Json::Null,
                    TracePayload::Values(vals) => Json::Arr(
                        vals.iter()
                            .map(|&raw| Json::from(usize::from(raw)))
                            .collect(),
                    ),
                };
                Json::Arr(vec![
                    Json::from(s.round),
                    Json::from(s.sender.index()),
                    Json::from(s.recipient.index()),
                    payload,
                ])
            })
            .collect();
        let cuts = self
            .cuts
            .iter()
            .map(|c| {
                Json::Arr(vec![
                    Json::from(c.round),
                    Json::from(c.sender.index()),
                    Json::from(c.recipient.index()),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::from(TRACE_SCHEMA)),
            ("family".into(), Json::from(self.family.as_str())),
            ("n".into(), Json::from(self.n)),
            ("t".into(), Json::from(self.t)),
            (
                "faulty".into(),
                Json::Arr(self.faulty.iter().map(|p| Json::from(p.index())).collect()),
            ),
            ("steps".into(), Json::Arr(steps)),
            ("cuts".into(), Json::Arr(cuts)),
        ])
    }
}

impl FromJson for AdversaryTrace {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let schema = v
            .need("schema")?
            .as_str()
            .ok_or_else(|| JsonError::msg("trace schema must be a string"))?;
        if schema != TRACE_SCHEMA {
            return Err(JsonError::msg(format!(
                "unsupported trace schema {schema:?} (want {TRACE_SCHEMA:?})"
            )));
        }
        let family = v
            .need("family")?
            .as_str()
            .ok_or_else(|| JsonError::msg("trace family must be a string"))?
            .to_string();
        let n = v
            .need("n")?
            .as_usize()
            .ok_or_else(|| JsonError::msg("trace n must be an integer"))?;
        let t = v
            .need("t")?
            .as_usize()
            .ok_or_else(|| JsonError::msg("trace t must be an integer"))?;
        let faulty = v
            .need("faulty")?
            .as_arr()
            .ok_or_else(|| JsonError::msg("trace faulty must be an array"))?
            .iter()
            .map(|e| {
                e.as_usize()
                    .map(ProcessId)
                    .ok_or_else(|| JsonError::msg("faulty entries must be integers"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let steps = v
            .need("steps")?
            .as_arr()
            .ok_or_else(|| JsonError::msg("trace steps must be an array"))?
            .iter()
            .map(step_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let cuts = match v.get("cuts") {
            None => Vec::new(),
            Some(c) => c
                .as_arr()
                .ok_or_else(|| JsonError::msg("trace cuts must be an array"))?
                .iter()
                .map(cut_from_json)
                .collect::<Result<Vec<_>, _>>()?,
        };
        Ok(AdversaryTrace {
            family,
            n,
            t,
            faulty,
            steps,
            cuts,
        })
    }
}

fn step_from_json(v: &Json) -> Result<TraceStep, JsonError> {
    let arr = v
        .as_arr()
        .ok_or_else(|| JsonError::msg("trace step must be an array"))?;
    if arr.len() != 4 {
        return Err(JsonError::msg(
            "trace step must be [round, sender, recipient, payload]",
        ));
    }
    let coord = |i: usize, what: &str| {
        arr[i]
            .as_usize()
            .ok_or_else(|| JsonError::msg(format!("trace step {what} must be an integer")))
    };
    let payload = match &arr[3] {
        Json::Null => TracePayload::Missing,
        Json::Arr(vals) => TracePayload::Values(
            vals.iter()
                .map(|e| {
                    e.as_usize()
                        .and_then(|raw| u16::try_from(raw).ok())
                        .ok_or_else(|| JsonError::msg("trace payload values must fit u16"))
                })
                .collect::<Result<Vec<_>, _>>()?,
        ),
        _ => {
            return Err(JsonError::msg(
                "trace step payload must be null or an array",
            ))
        }
    };
    Ok(TraceStep {
        round: coord(0, "round")?,
        sender: ProcessId(coord(1, "sender")?),
        recipient: ProcessId(coord(2, "recipient")?),
        payload,
    })
}

fn cut_from_json(v: &Json) -> Result<TraceCut, JsonError> {
    let arr = v
        .as_arr()
        .ok_or_else(|| JsonError::msg("trace cut must be an array"))?;
    if arr.len() != 3 {
        return Err(JsonError::msg(
            "trace cut must be [round, sender, recipient]",
        ));
    }
    let coord = |i: usize, what: &str| {
        arr[i]
            .as_usize()
            .ok_or_else(|| JsonError::msg(format!("trace cut {what} must be an integer")))
    };
    Ok(TraceCut {
        round: coord(0, "round")?,
        sender: ProcessId(coord(1, "sender")?),
        recipient: ProcessId(coord(2, "recipient")?),
    })
}

/// Wraps any strategy and records the [`AdversaryTrace`] of the run it
/// plays, forwarding every call unchanged — a recorded run is
/// bit-identical to an unrecorded one.
///
/// Strictly opt-in: the default sweep loop never constructs one, so
/// recording costs the hot path nothing.
pub struct RecordingAdversary {
    inner: Box<dyn Adversary>,
    n: usize,
    t: usize,
    faulty: Vec<ProcessId>,
    steps: Vec<TraceStep>,
    cuts: Vec<TraceCut>,
    lossy: Option<TraceError>,
}

impl RecordingAdversary {
    /// Wraps `inner`, recording from the next [`Adversary::corrupt`] on.
    pub fn new(inner: Box<dyn Adversary>) -> Self {
        RecordingAdversary {
            inner,
            n: 0,
            t: 0,
            faulty: Vec::new(),
            steps: Vec::new(),
            cuts: Vec::new(),
            lossy: None,
        }
    }

    /// Consumes the recorder and returns the trace of the last run.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Unrecordable`] if the wrapped strategy sent
    /// a signed-relay payload (no value-vector normal form — the trace
    /// would not replay faithfully).
    pub fn finish(self) -> Result<AdversaryTrace, TraceError> {
        if let Some(err) = self.lossy {
            return Err(err);
        }
        Ok(AdversaryTrace {
            family: self.inner.name(),
            n: self.n,
            t: self.t,
            faulty: self.faulty,
            steps: self.steps,
            cuts: self.cuts,
        })
    }
}

impl Adversary for RecordingAdversary {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn name_shared(&self) -> Arc<str> {
        self.inner.name_shared()
    }

    fn corrupt(&mut self, n: usize, t: usize, source: ProcessId) -> ProcessSet {
        let set = self.inner.corrupt(n, t, source);
        self.n = n;
        self.t = t;
        self.faulty = set.iter().collect();
        self.steps.clear();
        self.cuts.clear();
        self.lossy = None;
        set
    }

    fn row(&mut self, sender: ProcessId, view: &AdversaryView<'_>, row: &mut [Payload]) {
        self.inner.row(sender, view, row);
        for (r, slot) in row.iter().enumerate() {
            let recipient = ProcessId(r);
            if recipient == sender {
                continue;
            }
            match TracePayload::of(slot) {
                Some(recorded) => self.steps.push(TraceStep {
                    round: view.round,
                    sender,
                    recipient,
                    payload: recorded,
                }),
                None => {
                    self.lossy.get_or_insert(TraceError::Unrecordable {
                        round: view.round,
                        sender,
                        recipient,
                    });
                }
            }
        }
    }

    fn has_edge_faults(&self) -> bool {
        self.inner.has_edge_faults()
    }

    fn edge_cut(
        &mut self,
        sender: ProcessId,
        recipient: ProcessId,
        view: &AdversaryView<'_>,
    ) -> bool {
        let cut = self.inner.edge_cut(sender, recipient, view);
        if cut {
            self.cuts.push(TraceCut {
                round: view.round,
                sender,
                recipient,
            });
        }
        cut
    }
}

/// Executes an [`AdversaryTrace`] against the engine, answering every
/// slot of every faulty row from the recorded steps.
///
/// The engine's call sequence is deterministic, so a faithful trace
/// replays its recorded run bit-exactly. A damaged trace never panics:
/// the first divergence latches a [`TraceError::Desync`] (the replayer
/// answers the rest of the run with missing payloads) and
/// [`ReplayAdversary::verify`] reports it after the run.
#[derive(Clone, Debug)]
pub struct ReplayAdversary {
    trace: Arc<AdversaryTrace>,
    cursor: usize,
    /// Sorted (round, sender, recipient) index over `trace.cuts` for
    /// O(log c) membership tests from the delivery loop.
    cut_index: Vec<(usize, usize, usize)>,
    error: Option<TraceError>,
    name: Arc<str>,
}

impl ReplayAdversary {
    /// A replayer for `trace`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Malformed`] if the trace fails
    /// [`AdversaryTrace::validate`].
    pub fn new(trace: Arc<AdversaryTrace>) -> Result<Self, TraceError> {
        trace.validate()?;
        let mut cut_index: Vec<_> = trace
            .cuts
            .iter()
            .map(|c| (c.round, c.sender.index(), c.recipient.index()))
            .collect();
        cut_index.sort_unstable();
        cut_index.dedup();
        let name = Arc::from(format!("replay({})", trace.family).as_str());
        Ok(ReplayAdversary {
            trace,
            cursor: 0,
            cut_index,
            error: None,
            name,
        })
    }

    /// The trace being replayed.
    pub fn trace(&self) -> &AdversaryTrace {
        &self.trace
    }

    /// Whether the finished run consumed the trace exactly.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Desync`] if any call diverged from the
    /// recorded sequence or recorded steps were left unconsumed.
    pub fn verify(&self) -> Result<(), TraceError> {
        if let Some(err) = &self.error {
            return Err(err.clone());
        }
        if self.cursor != self.trace.steps.len() {
            return Err(TraceError::Desync(format!(
                "run ended after {} of {} recorded steps",
                self.cursor,
                self.trace.steps.len()
            )));
        }
        Ok(())
    }

    fn desync(&mut self, detail: String) {
        if self.error.is_none() {
            self.error = Some(TraceError::Desync(detail));
        }
    }

    /// The recorded answer for the slot `sender → recipient` of the
    /// viewed round: the next step, or a missing payload once a
    /// divergence has latched.
    fn answer(
        &mut self,
        sender: ProcessId,
        recipient: ProcessId,
        view: &AdversaryView<'_>,
    ) -> Payload {
        if self.error.is_some() {
            return Payload::Missing;
        }
        let Some(step) = self.trace.steps.get(self.cursor) else {
            self.desync(format!(
                "trace exhausted at round {}, call {} -> {}",
                view.round,
                sender.index(),
                recipient.index()
            ));
            return Payload::Missing;
        };
        if step.round != view.round || step.sender != sender || step.recipient != recipient {
            self.desync(format!(
                "recorded step {} is (round {}, {} -> {}) but the engine asked for \
                 (round {}, {} -> {})",
                self.cursor,
                step.round,
                step.sender.index(),
                step.recipient.index(),
                view.round,
                sender.index(),
                recipient.index()
            ));
            return Payload::Missing;
        }
        self.cursor += 1;
        step.payload.to_payload()
    }
}

impl Adversary for ReplayAdversary {
    fn name(&self) -> String {
        self.name.to_string()
    }

    fn name_shared(&self) -> Arc<str> {
        self.name.clone()
    }

    fn reseed(&mut self, _seed: u64) -> bool {
        // The trace is immutable shared state; a fresh replayer for the
        // same trace differs only in cursor position.
        self.cursor = 0;
        self.error = None;
        true
    }

    fn corrupt(&mut self, n: usize, t: usize, _source: ProcessId) -> ProcessSet {
        self.cursor = 0;
        self.error = None;
        if n != self.trace.n {
            self.desync(format!(
                "run has n={n} but the trace was recorded at n={}",
                self.trace.n
            ));
            return ProcessSet::new(n);
        }
        if t != self.trace.t {
            self.desync(format!(
                "run has t={t} but the trace was recorded at t={}",
                self.trace.t
            ));
        }
        ProcessSet::from_members(n, self.trace.faulty.iter().copied())
    }

    fn row(&mut self, sender: ProcessId, view: &AdversaryView<'_>, row: &mut [Payload]) {
        for (r, slot) in row.iter_mut().enumerate() {
            if r != sender.index() {
                *slot = self.answer(sender, ProcessId(r), view);
            }
        }
    }

    fn has_edge_faults(&self) -> bool {
        !self.cut_index.is_empty()
    }

    fn edge_cut(
        &mut self,
        sender: ProcessId,
        recipient: ProcessId,
        view: &AdversaryView<'_>,
    ) -> bool {
        self.cut_index
            .binary_search(&(view.round, sender.index(), recipient.index()))
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> AdversaryTrace {
        AdversaryTrace {
            family: "tape(len=2)".into(),
            n: 4,
            t: 1,
            faulty: vec![ProcessId(1)],
            steps: vec![
                TraceStep {
                    round: 1,
                    sender: ProcessId(1),
                    recipient: ProcessId(0),
                    payload: TracePayload::Values(vec![1]),
                },
                TraceStep {
                    round: 1,
                    sender: ProcessId(1),
                    recipient: ProcessId(2),
                    payload: TracePayload::Missing,
                },
            ],
            cuts: vec![TraceCut {
                round: 2,
                sender: ProcessId(0),
                recipient: ProcessId(3),
            }],
        }
    }

    #[test]
    fn json_round_trip_is_identity() {
        let trace = sample_trace();
        let text = trace.to_json().to_string();
        let parsed = AdversaryTrace::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn wrong_schema_rejected() {
        let mut json = sample_trace().to_json();
        if let Json::Obj(fields) = &mut json {
            fields[0].1 = Json::from("sg-trace/9");
        }
        assert!(AdversaryTrace::from_json(&json).is_err());
    }

    #[test]
    fn validate_rejects_uncorrupted_sender() {
        let mut trace = sample_trace();
        trace.steps[0].sender = ProcessId(2);
        assert!(matches!(trace.validate(), Err(TraceError::Malformed(_))));
    }

    #[test]
    fn validate_rejects_out_of_range_ids() {
        let mut trace = sample_trace();
        trace.cuts[0].recipient = ProcessId(9);
        assert!(trace.validate().is_err());
        let mut trace = sample_trace();
        trace.faulty.push(ProcessId(7));
        assert!(trace.validate().is_err());
    }

    #[test]
    fn replay_detects_mismatched_n() {
        let mut replay = ReplayAdversary::new(Arc::new(sample_trace())).unwrap();
        let set = replay.corrupt(7, 1, ProcessId(0));
        assert!(set.is_empty());
        assert!(matches!(replay.verify(), Err(TraceError::Desync(_))));
    }

    #[test]
    fn replay_reports_unconsumed_steps() {
        let mut replay = ReplayAdversary::new(Arc::new(sample_trace())).unwrap();
        let _ = replay.corrupt(4, 1, ProcessId(0));
        assert!(matches!(replay.verify(), Err(TraceError::Desync(_))));
    }

    #[test]
    fn cut_lookup_matches_recorded_edges() {
        let replay = ReplayAdversary::new(Arc::new(sample_trace())).unwrap();
        assert!(replay.has_edge_faults());
        assert!(replay.cut_index.binary_search(&(2, 0, 3)).is_ok());
        assert!(replay.cut_index.binary_search(&(1, 0, 3)).is_err());
    }
}
