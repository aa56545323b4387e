//! The `sg-serve/1` wire protocol: newline-delimited JSON frames.
//!
//! See `docs/WIRE.md` at the repository root for the consolidated
//! catalogue of every schema the repo speaks (`sg-serve/1`,
//! `sg-trace/1`, `sg-scenario/1`, `sg-serve-load/1`, `sg-journal/1`)
//! and their compatibility notes.
//!
//! One connection carries a sequence of client→server [`Request`] lines
//! and server→client [`Frame`] lines, each a single compact JSON object
//! terminated by `\n`. The vocabulary (plans, cells, samples) is encoded
//! by [`sg_analysis::wire`]; this module adds the framing around it.
//!
//! # Requests
//!
//! ```text
//! {"op":"submit","proto":"sg-serve/1","plan":{…}}   submit a sweep grid
//! {"op":"submit","plan":{…},"deadline_ms":5000}     …with a completion deadline
//! {"op":"cancel","job":7}                           cancel a running job
//! {"op":"ping"}                                     liveness probe
//! {"op":"drain"}                                    finish running jobs, then stop
//! {"op":"shutdown"}                                 stop the daemon
//! ```
//!
//! `proto` is optional everywhere; when present it must be `sg-serve/1`.
//! A plan may carry `"early_stopping":false` to ask for fixed-length
//! runs; the mode belongs to the job, so one daemon serves both.
//!
//! # Frames
//!
//! ```text
//! {"frame":"accepted","job":7,"cells":4,"total_runs":400}
//! {"frame":"cell","job":7,"index":0,"cell":{…}}          one per cell, in grid order
//! {"frame":"summary","job":7,"cells":4,"total_runs":400,
//!  "report_fingerprint":"40c18433ac711905","wall_ms":95.2,"cached_cells":0}
//! {"frame":"cancelled","job":7,"cells_streamed":1}
//! {"frame":"rejected","code":"saturated","detail":"…","retry_after_ms":40}
//! {"frame":"rejected","code":"draining","detail":"…"}
//! {"frame":"draining","active_jobs":2}                   ack of the drain op
//! {"frame":"error","code":"bad-json","detail":"…"}       job field present when job-scoped
//! {"frame":"pong","proto":"sg-serve/1"}
//! {"frame":"bye"}
//! ```
//!
//! A malformed or unparseable request line produces an `error` frame and
//! leaves the connection (and daemon) fully operational; `summary`,
//! `cancelled`, and job-scoped `error` frames are each terminal for
//! their job id. The summary's `report_fingerprint` is
//! [`sg_analysis::Fingerprint`] over every sample in grid order —
//! bit-identical to what `SweepPlan::run` would report for the same
//! grid. `cached_cells` counts the cells a `--journal` daemon answered
//! from its result journal instead of recomputing; cell frames do not
//! distinguish cached from computed cells (they are bit-identical by
//! contract), and decoders treat an absent field as 0 for pre-journal
//! daemons.
//!
//! # Backpressure and degradation
//!
//! A daemon under admission control answers `submit` with a `rejected`
//! frame instead of `accepted` when it cannot take the job: code
//! `saturated` (queue or per-connection caps hit; `retry_after_ms` is
//! the server's deterministic back-off hint) or `draining` (the daemon
//! is winding down and will not take new work; no retry hint — find
//! another daemon). `rejected` is *not* an error frame: the connection
//! stays fully usable and the client is expected to back off and retry
//! (see `Client::submit_with_retry`).
//!
//! A `submit` may carry `deadline_ms`, a wall-clock budget measured from
//! acceptance. The deadline is enforced at the same between-chunks check
//! as cancellation, so an expired job stops within one chunk (≤ 64 runs)
//! and its stream ends with `{"frame":"error","code":"deadline-exceeded"}`.
//! Cells already streamed before the deadline remain valid — they are
//! bit-identical to the batch path's cells for the same grid positions.
//!
//! The `drain` op is the graceful half of `shutdown`: the daemon
//! immediately answers `{"frame":"draining","active_jobs":N}`, keeps
//! running (and streaming) the jobs it already accepted, rejects every
//! new `submit` with code `draining`, and once the last active job
//! reaches its terminal frame sends every connection `bye` and stops.

use serde::json::{JsonError, Value as Json};
use serde::{FromJson, ToJson};
use sg_analysis::wire::canonical_u64;
use sg_analysis::{CellReport, SweepPlan};

/// The protocol identifier carried in `proto` fields.
pub const PROTOCOL: &str = "sg-serve/1";

/// Machine-readable reason attached to `error` frames.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorCode {
    /// The request line was not valid JSON (includes truncated frames).
    BadJson,
    /// Valid JSON, but not a well-formed request — a submitted plan
    /// whose adversary family names a processor outside a config's
    /// system included.
    BadRequest,
    /// The request named a protocol other than [`PROTOCOL`].
    UnsupportedProto,
    /// A job-scoped request named a job this connection does not own.
    UnknownJob,
    /// The submitted plan cannot run (empty grid, invalid `(n, t)`, …).
    Rejected,
    /// A job died mid-flight (worker panic); terminal for the job.
    JobFailed,
    /// The job's `deadline_ms` budget expired; terminal for the job.
    /// Cells streamed before the deadline remain valid.
    DeadlineExceeded,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadJson => "bad-json",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnsupportedProto => "unsupported-proto",
            ErrorCode::UnknownJob => "unknown-job",
            ErrorCode::Rejected => "rejected",
            ErrorCode::JobFailed => "job-failed",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
        }
    }

    /// Parses the wire spelling.
    pub fn parse(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "bad-json" => ErrorCode::BadJson,
            "bad-request" => ErrorCode::BadRequest,
            "unsupported-proto" => ErrorCode::UnsupportedProto,
            "unknown-job" => ErrorCode::UnknownJob,
            "rejected" => ErrorCode::Rejected,
            "job-failed" => ErrorCode::JobFailed,
            "deadline-exceeded" => ErrorCode::DeadlineExceeded,
            _ => return None,
        })
    }
}

/// Machine-readable reason attached to `rejected` frames — the daemon
/// declined the submit without running it; the connection stays usable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RejectCode {
    /// Admission control: the job queue or a per-connection cap is
    /// full. Back off (`retry_after_ms` is the server's hint) and retry.
    Saturated,
    /// The daemon is draining and takes no new work; do not retry here.
    Draining,
}

impl RejectCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectCode::Saturated => "saturated",
            RejectCode::Draining => "draining",
        }
    }

    /// Parses the wire spelling.
    pub fn parse(s: &str) -> Option<RejectCode> {
        Some(match s {
            "saturated" => RejectCode::Saturated,
            "draining" => RejectCode::Draining,
            _ => return None,
        })
    }
}

/// A client→server line.
#[derive(Clone, Debug)]
pub enum Request {
    /// Submit a sweep grid; answered by `accepted` then a cell stream,
    /// or by a `rejected` frame under admission control.
    Submit {
        /// The grid to execute.
        plan: SweepPlan,
        /// Wall-clock completion budget in milliseconds, measured from
        /// acceptance; enforced at the cancellation check between
        /// chunks (≤ 64 runs).
        deadline_ms: Option<u64>,
    },
    /// Cancel a job submitted on this connection.
    Cancel {
        /// The job id from the `accepted` frame.
        job: u64,
    },
    /// Liveness probe; answered by `pong`.
    Ping,
    /// Finish running jobs, reject new submits with `draining`, then
    /// stop; answered immediately by a `draining` frame.
    Drain,
    /// Stop the daemon; answered by `bye`.
    Shutdown,
}

impl ToJson for Request {
    fn to_json(&self) -> Json {
        let mut fields = Vec::new();
        match self {
            Request::Submit { plan, deadline_ms } => {
                fields.push(("op".to_string(), Json::from("submit")));
                fields.push(("proto".to_string(), Json::from(PROTOCOL)));
                fields.push(("plan".to_string(), plan.to_json()));
                if let Some(ms) = deadline_ms {
                    fields.push(("deadline_ms".to_string(), Json::from(*ms)));
                }
            }
            Request::Cancel { job } => {
                fields.push(("op".to_string(), Json::from("cancel")));
                fields.push(("job".to_string(), Json::from(*job)));
            }
            Request::Ping => fields.push(("op".to_string(), Json::from("ping"))),
            Request::Drain => fields.push(("op".to_string(), Json::from("drain"))),
            Request::Shutdown => fields.push(("op".to_string(), Json::from("shutdown"))),
        }
        Json::Obj(fields)
    }
}

impl FromJson for Request {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        if let Some(proto) = v.get("proto") {
            if proto.as_str() != Some(PROTOCOL) {
                return Err(JsonError::msg(format!(
                    "unsupported protocol (this daemon speaks {PROTOCOL})"
                )));
            }
        }
        let op = v
            .need("op")?
            .as_str()
            .ok_or_else(|| JsonError::msg("'op' must be a string"))?;
        Ok(match op {
            "submit" => Request::Submit {
                plan: SweepPlan::from_json(v.need("plan")?)?,
                deadline_ms: match v.get("deadline_ms") {
                    None => None,
                    Some(ms) => Some(ms.as_u64().ok_or_else(|| {
                        JsonError::msg("'deadline_ms' must be a non-negative integer")
                    })?),
                },
            },
            "cancel" => Request::Cancel {
                job: v
                    .need("job")?
                    .as_u64()
                    .ok_or_else(|| JsonError::msg("'job' must be a non-negative integer"))?,
            },
            "ping" => Request::Ping,
            "drain" => Request::Drain,
            "shutdown" => Request::Shutdown,
            other => return Err(JsonError::msg(format!("unknown op '{other}'"))),
        })
    }
}

/// A server→client line.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// A submit was accepted; the job's cell stream follows.
    Accepted {
        /// Server-assigned job id; all of the job's frames carry it.
        job: u64,
        /// Cells the grid will produce.
        cells: usize,
        /// Executions the grid will perform.
        total_runs: u64,
    },
    /// One completed cell, streamed in grid order.
    Cell {
        /// The owning job.
        job: u64,
        /// Flat grid index (`SweepPlan::cell_coords` order).
        index: usize,
        /// The cell's full report (boxed: cells dwarf every other
        /// frame, and frames travel through queues by value).
        cell: Box<CellReport>,
    },
    /// Terminal frame of a successful job.
    Summary {
        /// The finished job.
        job: u64,
        /// Cells streamed.
        cells: usize,
        /// Executions performed.
        total_runs: u64,
        /// [`sg_analysis::Fingerprint`] hex over all samples in grid
        /// order — the determinism contract with the batch path.
        report_fingerprint: String,
        /// Wall time from accept to last cell, in milliseconds.
        wall_ms: f64,
        /// Cells answered from the daemon's result journal instead of
        /// being recomputed (0 when the daemon runs without `--journal`;
        /// absent on the wire from pre-journal daemons, decoded as 0).
        cached_cells: usize,
    },
    /// Terminal frame of a cancelled job.
    Cancelled {
        /// The cancelled job.
        job: u64,
        /// Cell frames emitted before the cancellation took effect.
        cells_streamed: usize,
    },
    /// A submit was declined by admission control; nothing ran and the
    /// connection stays usable.
    Rejected {
        /// Machine-readable reason.
        code: RejectCode,
        /// Human-readable detail (which cap was hit, queue depth, …).
        detail: String,
        /// Server's deterministic back-off hint (`saturated` only).
        retry_after_ms: Option<u64>,
    },
    /// Ack of the `drain` op: the daemon takes no new work and will
    /// stop once the named number of active jobs reach terminal frames.
    Draining {
        /// Jobs still running (or queued) at the time of the drain.
        active_jobs: u64,
    },
    /// A request failed, or (with `job` set) a job died; connection
    /// remains usable either way.
    Error {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
        /// The affected job, for job-scoped errors.
        job: Option<u64>,
    },
    /// Answer to `ping`. Besides liveness, the frame carries the
    /// daemon's cumulative result-journal telemetry — cells served from
    /// the journal vs computed, summed over every submit since startup
    /// (both 0 when the daemon runs without `--journal`; absent on the
    /// wire from pre-telemetry daemons, decoded as 0).
    Pong {
        /// Cells answered from the result journal across all jobs.
        journal_hits: u64,
        /// Cells that missed the journal and were computed.
        journal_misses: u64,
    },
    /// Answer to `shutdown`; the daemon is stopping.
    Bye,
}

impl ToJson for Frame {
    fn to_json(&self) -> Json {
        let mut fields = Vec::new();
        match self {
            Frame::Accepted {
                job,
                cells,
                total_runs,
            } => {
                fields.push(("frame".to_string(), Json::from("accepted")));
                fields.push(("job".to_string(), Json::from(*job)));
                fields.push(("cells".to_string(), Json::from(*cells)));
                fields.push(("total_runs".to_string(), Json::from(*total_runs)));
            }
            Frame::Cell { job, index, cell } => {
                fields.push(("frame".to_string(), Json::from("cell")));
                fields.push(("job".to_string(), Json::from(*job)));
                fields.push(("index".to_string(), Json::from(*index)));
                fields.push(("cell".to_string(), cell.to_json()));
            }
            Frame::Summary {
                job,
                cells,
                total_runs,
                report_fingerprint,
                wall_ms,
                cached_cells,
            } => {
                fields.push(("frame".to_string(), Json::from("summary")));
                fields.push(("job".to_string(), Json::from(*job)));
                fields.push(("cells".to_string(), Json::from(*cells)));
                fields.push(("total_runs".to_string(), Json::from(*total_runs)));
                fields.push((
                    "report_fingerprint".to_string(),
                    Json::from(report_fingerprint.as_str()),
                ));
                fields.push(("wall_ms".to_string(), Json::Num(*wall_ms)));
                fields.push(("cached_cells".to_string(), Json::from(*cached_cells)));
            }
            Frame::Cancelled {
                job,
                cells_streamed,
            } => {
                fields.push(("frame".to_string(), Json::from("cancelled")));
                fields.push(("job".to_string(), Json::from(*job)));
                fields.push(("cells_streamed".to_string(), Json::from(*cells_streamed)));
            }
            Frame::Rejected {
                code,
                detail,
                retry_after_ms,
            } => {
                fields.push(("frame".to_string(), Json::from("rejected")));
                fields.push(("code".to_string(), Json::from(code.as_str())));
                fields.push(("detail".to_string(), Json::from(detail.as_str())));
                if let Some(ms) = retry_after_ms {
                    fields.push(("retry_after_ms".to_string(), Json::from(*ms)));
                }
            }
            Frame::Draining { active_jobs } => {
                fields.push(("frame".to_string(), Json::from("draining")));
                fields.push(("active_jobs".to_string(), Json::from(*active_jobs)));
            }
            Frame::Error { code, detail, job } => {
                fields.push(("frame".to_string(), Json::from("error")));
                fields.push(("code".to_string(), Json::from(code.as_str())));
                fields.push(("detail".to_string(), Json::from(detail.as_str())));
                if let Some(job) = job {
                    fields.push(("job".to_string(), Json::from(*job)));
                }
            }
            Frame::Pong {
                journal_hits,
                journal_misses,
            } => {
                fields.push(("frame".to_string(), Json::from("pong")));
                fields.push(("proto".to_string(), Json::from(PROTOCOL)));
                fields.push(("journal_hits".to_string(), Json::from(*journal_hits)));
                fields.push(("journal_misses".to_string(), Json::from(*journal_misses)));
            }
            Frame::Bye => fields.push(("frame".to_string(), Json::from("bye"))),
        }
        Json::Obj(fields)
    }
}

impl Frame {
    /// Appends the frame's wire line (no newline) to `out`: byte for
    /// byte `self.to_json().to_string()`. Cell frames — all but a
    /// handful of a job's frames — are written through
    /// [`CellReport::write_text`] without building the tree.
    pub fn write_text(&self, out: &mut String) {
        use std::fmt::Write as _;
        // Writing to a `String` cannot fail.
        match self {
            Frame::Cell { job, index, cell } => {
                let _ = write!(
                    out,
                    "{{\"frame\":\"cell\",\"job\":{job},\"index\":{index},\"cell\":"
                );
                cell.write_text(out);
                out.push('}');
            }
            other => {
                let _ = write!(out, "{}", other.to_json());
            }
        }
    }

    /// Reads a cell frame spelled exactly as [`Frame::write_text`]
    /// spells one, through [`CellReport::from_text`]. `None` for every
    /// other frame kind and every other spelling — the caller then takes
    /// `Json::parse` + `from_json`, which accept any JSON. A `Some` is
    /// the frame those two decode from the same line.
    pub fn cell_from_text(line: &str) -> Option<Frame> {
        let rest = line.strip_prefix("{\"frame\":\"cell\",\"job\":")?;
        let (job, rest) = rest.split_once(",\"index\":")?;
        let (index, rest) = rest.split_once(",\"cell\":")?;
        let cell = rest.strip_suffix('}')?;
        Some(Frame::Cell {
            job: canonical_u64(job)?,
            index: usize::try_from(canonical_u64(index)?).ok()?,
            cell: Box::new(CellReport::from_text(cell)?),
        })
    }
}

impl FromJson for Frame {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let kind = v
            .need("frame")?
            .as_str()
            .ok_or_else(|| JsonError::msg("'frame' must be a string"))?;
        let job = |key: &str| {
            v.need(key)?
                .as_u64()
                .ok_or_else(|| JsonError::msg(format!("'{key}' must be a non-negative integer")))
        };
        Ok(match kind {
            "accepted" => Frame::Accepted {
                job: job("job")?,
                cells: job("cells")? as usize,
                total_runs: job("total_runs")?,
            },
            "cell" => Frame::Cell {
                job: job("job")?,
                index: job("index")? as usize,
                cell: Box::new(CellReport::from_json(v.need("cell")?)?),
            },
            "summary" => Frame::Summary {
                job: job("job")?,
                cells: job("cells")? as usize,
                total_runs: job("total_runs")?,
                report_fingerprint: v
                    .need("report_fingerprint")?
                    .as_str()
                    .ok_or_else(|| JsonError::msg("'report_fingerprint' must be a string"))?
                    .to_string(),
                wall_ms: v
                    .need("wall_ms")?
                    .as_f64()
                    .ok_or_else(|| JsonError::msg("'wall_ms' must be a number"))?,
                cached_cells: match v.get("cached_cells") {
                    None => 0,
                    Some(c) => c.as_usize().ok_or_else(|| {
                        JsonError::msg("'cached_cells' must be a non-negative integer")
                    })?,
                },
            },
            "cancelled" => Frame::Cancelled {
                job: job("job")?,
                cells_streamed: job("cells_streamed")? as usize,
            },
            "rejected" => Frame::Rejected {
                code: v
                    .need("code")?
                    .as_str()
                    .and_then(RejectCode::parse)
                    .ok_or_else(|| JsonError::msg("unknown reject code"))?,
                detail: v
                    .need("detail")?
                    .as_str()
                    .ok_or_else(|| JsonError::msg("'detail' must be a string"))?
                    .to_string(),
                retry_after_ms: match v.get("retry_after_ms") {
                    None => None,
                    Some(ms) => Some(ms.as_u64().ok_or_else(|| {
                        JsonError::msg("'retry_after_ms' must be a non-negative integer")
                    })?),
                },
            },
            "draining" => Frame::Draining {
                active_jobs: job("active_jobs")?,
            },
            "error" => {
                Frame::Error {
                    code: v
                        .need("code")?
                        .as_str()
                        .and_then(ErrorCode::parse)
                        .ok_or_else(|| JsonError::msg("unknown error code"))?,
                    detail: v
                        .need("detail")?
                        .as_str()
                        .ok_or_else(|| JsonError::msg("'detail' must be a string"))?
                        .to_string(),
                    job: match v.get("job") {
                        None => None,
                        Some(j) => Some(j.as_u64().ok_or_else(|| {
                            JsonError::msg("'job' must be a non-negative integer")
                        })?),
                    },
                }
            }
            "pong" => {
                let counter = |key: &str| match v.get(key) {
                    None => Ok(0),
                    Some(c) => c.as_u64().ok_or_else(|| {
                        JsonError::msg(format!("'{key}' must be a non-negative integer"))
                    }),
                };
                Frame::Pong {
                    journal_hits: counter("journal_hits")?,
                    journal_misses: counter("journal_misses")?,
                }
            }
            "bye" => Frame::Bye,
            other => return Err(JsonError::msg(format!("unknown frame '{other}'"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_adversary::FaultSelection;
    use sg_analysis::{AdversaryFamily, SweepConfig};
    use sg_core::AlgorithmSpec;

    #[test]
    fn requests_round_trip() {
        let plan = SweepPlan::new(
            vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, 7, 2)],
            vec![AdversaryFamily::random_liar(
                FaultSelection::without_source(),
            )],
            5,
        );
        for req in [
            Request::Submit {
                plan: plan.clone(),
                deadline_ms: None,
            },
            Request::Submit {
                plan,
                deadline_ms: Some(2500),
            },
            Request::Cancel { job: 42 },
            Request::Ping,
            Request::Drain,
            Request::Shutdown,
        ] {
            let line = req.to_json().to_string();
            let back = Request::from_json(&Json::parse(&line).unwrap()).unwrap();
            // A plan's families have no `PartialEq` (a tape or replay
            // family holds its strategy), so compare by re-encoding.
            assert_eq!(back.to_json().to_string(), line);
        }
    }

    #[test]
    fn frames_round_trip() {
        let cell = SweepPlan::new(
            vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, 7, 2)],
            vec![AdversaryFamily::no_faults()],
            2,
        )
        .run_with_jobs(1)
        .cells
        .remove(0);
        for frame in [
            Frame::Accepted {
                job: 1,
                cells: 4,
                total_runs: 400,
            },
            Frame::Cell {
                job: 1,
                index: 2,
                cell: Box::new(cell),
            },
            Frame::Summary {
                job: 1,
                cells: 4,
                total_runs: 400,
                report_fingerprint: "40c18433ac711905".to_string(),
                wall_ms: 95.25,
                cached_cells: 3,
            },
            Frame::Cancelled {
                job: 1,
                cells_streamed: 1,
            },
            Frame::Error {
                code: ErrorCode::BadJson,
                detail: "expected ':' after object key (at byte 9)".to_string(),
                job: None,
            },
            Frame::Error {
                code: ErrorCode::JobFailed,
                detail: "worker panic".to_string(),
                job: Some(3),
            },
            Frame::Error {
                code: ErrorCode::DeadlineExceeded,
                detail: "deadline of 50ms exceeded".to_string(),
                job: Some(4),
            },
            Frame::Rejected {
                code: RejectCode::Saturated,
                detail: "job queue full (8 active)".to_string(),
                retry_after_ms: Some(40),
            },
            Frame::Rejected {
                code: RejectCode::Draining,
                detail: "daemon is draining".to_string(),
                retry_after_ms: None,
            },
            Frame::Draining { active_jobs: 2 },
            Frame::Pong {
                journal_hits: 12,
                journal_misses: 5,
            },
            Frame::Bye,
        ] {
            let line = frame.to_json().to_string();
            let back = Frame::from_json(&Json::parse(&line).unwrap()).unwrap();
            assert_eq!(back, frame, "through {line}");
        }
    }

    #[test]
    fn pre_telemetry_pongs_decode_with_zero_counters() {
        let line = "{\"frame\":\"pong\",\"proto\":\"sg-serve/1\"}";
        let Frame::Pong {
            journal_hits,
            journal_misses,
        } = Frame::from_json(&Json::parse(line).unwrap()).unwrap()
        else {
            panic!("not a pong");
        };
        assert_eq!((journal_hits, journal_misses), (0, 0));
    }

    #[test]
    fn pre_journal_summaries_decode_with_zero_cached_cells() {
        let line = "{\"frame\":\"summary\",\"job\":7,\"cells\":4,\"total_runs\":400,\
                    \"report_fingerprint\":\"40c18433ac711905\",\"wall_ms\":95.2}";
        let Frame::Summary { cached_cells, .. } =
            Frame::from_json(&Json::parse(line).unwrap()).unwrap()
        else {
            panic!("not a summary");
        };
        assert_eq!(cached_cells, 0);
    }

    #[test]
    fn proto_mismatch_is_rejected() {
        let line = "{\"op\":\"ping\",\"proto\":\"sg-serve/99\"}";
        assert!(Request::from_json(&Json::parse(line).unwrap()).is_err());
        let ok = "{\"op\":\"ping\",\"proto\":\"sg-serve/1\"}";
        assert!(Request::from_json(&Json::parse(ok).unwrap()).is_ok());
    }

    #[test]
    fn error_codes_round_trip() {
        for code in [
            ErrorCode::BadJson,
            ErrorCode::BadRequest,
            ErrorCode::UnsupportedProto,
            ErrorCode::UnknownJob,
            ErrorCode::Rejected,
            ErrorCode::JobFailed,
            ErrorCode::DeadlineExceeded,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::parse("nope"), None);
    }

    #[test]
    fn reject_codes_round_trip() {
        for code in [RejectCode::Saturated, RejectCode::Draining] {
            assert_eq!(RejectCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(RejectCode::parse("nope"), None);
        // `rejected` the frame and `rejected` the error code are
        // different animals: the former declines work it never ran, the
        // latter reports a plan that could never run at all.
        assert_eq!(ErrorCode::Rejected.as_str(), "rejected");
    }
}
