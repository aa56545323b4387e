//! Client side of `sg-serve/1`: connect, submit, stream, reassemble.
//!
//! [`Client::submit_and_collect`] is the whole round trip: it submits a
//! [`SweepPlan`], folds the streamed cell frames back into a
//! [`SweepReport`] (bit-identical to what `SweepPlan::run` would have
//! produced locally — the wire encoding round-trips exactly), and
//! cross-checks the server's summary fingerprint against one recomputed
//! from the received cells, so wire corruption or a misbehaving server
//! cannot go unnoticed.
//!
//! # Robustness
//!
//! Against a saturated or flaky daemon the client is *bounded*, never
//! hopeful: [`Client::connect_with_retry`] and
//! [`Client::submit_with_retry`] make at most [`RetryPolicy::attempts`]
//! tries with exponential backoff and deterministic jitter (seeded —
//! the workspace is `Date`-free, so the same seed replays the same
//! schedule), honour the server's `retry_after_ms` hint on `saturated`
//! rejections, give up immediately on `draining` (that daemon will not
//! change its mind), and never retry past a job's own `deadline_ms`
//! budget.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use serde::json::Value as Json;
use serde::{FromJson, ToJson};
use sg_analysis::{CellReport, Fingerprint, SweepPlan, SweepReport};

use crate::wire::{ErrorCode, Frame, RejectCode, Request};

/// Anything that can go wrong talking to a daemon.
#[derive(Debug)]
pub enum ServeError {
    /// Transport failure.
    Io(io::Error),
    /// The server sent something the protocol does not allow here.
    Protocol(String),
    /// The server answered with an `error` frame.
    Server {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
    /// The server declined the submit with a `rejected` frame
    /// (admission control); nothing ran and the connection is usable.
    Rejected {
        /// Machine-readable reason (`saturated` or `draining`).
        code: RejectCode,
        /// Human-readable detail.
        detail: String,
        /// The server's back-off hint, when it wants a retry.
        retry_after_ms: Option<u64>,
    },
    /// The job was cancelled before completing.
    Cancelled {
        /// The cancelled job.
        job: u64,
        /// Cell frames received before the cancellation.
        cells_streamed: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o: {e}"),
            ServeError::Protocol(detail) => write!(f, "protocol violation: {detail}"),
            ServeError::Server { code, detail } => {
                write!(f, "server error [{}]: {detail}", code.as_str())
            }
            ServeError::Rejected { code, detail, .. } => {
                write!(f, "submit rejected [{}]: {detail}", code.as_str())
            }
            ServeError::Cancelled {
                job,
                cells_streamed,
            } => write!(f, "job {job} cancelled after {cells_streamed} cell(s)"),
        }
    }
}

/// Bounded exponential backoff with deterministic jitter.
///
/// Delay before retry `k` (0-based) is `base_ms · 2^k`, capped at
/// `max_ms`, then jittered to 50–150% by a [`rand::rngs::StdRng`]
/// seeded from `seed` — no wall clock anywhere, so a given policy
/// replays the same schedule every time (the property the load
/// harness's committed benchmark relies on).
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total tries (first attempt included). 0 behaves as 1.
    pub attempts: u32,
    /// Delay before the first retry, milliseconds.
    pub base_ms: u64,
    /// Ceiling on any single delay, milliseconds.
    pub max_ms: u64,
    /// Jitter seed; submits derive it from the plan's `base_seed`.
    pub seed: u64,
}

impl RetryPolicy {
    /// A sane default: 5 tries, 20 ms → 1 s exponential, jitter from
    /// `seed`.
    pub fn deterministic(seed: u64) -> RetryPolicy {
        RetryPolicy {
            attempts: 5,
            base_ms: 20,
            max_ms: 1_000,
            seed,
        }
    }

    /// The jittered delay before retry `k`, in milliseconds.
    fn delay_ms(&self, k: u32, rng: &mut rand::rngs::StdRng) -> u64 {
        use rand::Rng;
        let exp = self
            .base_ms
            .saturating_mul(1u64.checked_shl(k).unwrap_or(u64::MAX))
            .min(self.max_ms)
            .max(1);
        // 50–150% of the exponential step.
        exp / 2 + rng.gen_range(0..exp.max(1))
    }

    fn rng(&self) -> rand::rngs::StdRng {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(self.seed)
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

enum ClientStream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl ClientStream {
    fn reader(&self) -> io::Result<Box<dyn io::Read + Send>> {
        Ok(match self {
            ClientStream::Tcp(s) => Box::new(s.try_clone()?),
            #[cfg(unix)]
            ClientStream::Unix(s) => Box::new(s.try_clone()?),
        })
    }

    fn writer(&mut self) -> &mut dyn Write {
        match self {
            ClientStream::Tcp(s) => s,
            #[cfg(unix)]
            ClientStream::Unix(s) => s,
        }
    }
}

/// An accepted submission, returned by [`Client::submit`].
#[derive(Clone, Copy, Debug)]
pub struct JobHandle {
    /// Server-assigned job id.
    pub job: u64,
    /// Cells the job will stream.
    pub cells: usize,
    /// Executions the job will perform.
    pub total_runs: u64,
}

/// A completed submission, reassembled client-side.
#[derive(Debug)]
pub struct StreamedReport {
    /// The job that produced it.
    pub job: u64,
    /// The reassembled report — bit-comparable to `SweepPlan::run`.
    pub report: SweepReport,
    /// The fingerprint both sides agreed on.
    pub fingerprint: u64,
    /// Server-measured wall time (accept → last cell), milliseconds.
    pub wall_ms: f64,
    /// Cells the daemon answered from its result journal (0 unless it
    /// runs with `--journal`).
    pub cached_cells: usize,
}

/// Writes `request` as one line in **one** `write`: on an unbuffered
/// socket every separate write is its own syscall and its own wake-up of
/// the daemon's reader, so the line is formatted into `line` first.
fn write_request(
    writer: &mut (impl Write + ?Sized),
    line: &mut String,
    request: &Request,
) -> io::Result<()> {
    use std::fmt::Write as _;
    line.clear();
    // Writing to a `String` cannot fail.
    let _ = writeln!(line, "{}", request.to_json());
    writer.write_all(line.as_bytes())
}

/// One connection to a daemon.
pub struct Client {
    lines: BufReader<Box<dyn io::Read + Send>>,
    stream: ClientStream,
    /// The line being sent or received, reused across calls.
    line: String,
    /// Job-scoped frames that arrived while a request was waiting for
    /// its own answer (a still-streaming job's cells can interleave
    /// with a later submit's `accepted`/`rejected`); [`Client::collect`]
    /// drains these before reading the socket again.
    pending: VecDeque<Frame>,
}

impl Client {
    /// Connects to `addr` (`host:port` or `unix:/path`), retrying until
    /// `timeout` elapses — which doubles as the wait-for-daemon-startup
    /// loop in scripts and CI.
    ///
    /// # Errors
    ///
    /// Returns the last connect error once the deadline passes.
    pub fn connect(addr: &str, timeout: Duration) -> io::Result<Client> {
        let deadline = Instant::now() + timeout;
        loop {
            let attempt = Self::connect_once(addr);
            match attempt {
                Ok(client) => return Ok(client),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    }

    /// Connects with bounded, jittered backoff: at most
    /// `policy.attempts` tries, sleeping `policy`'s deterministic
    /// schedule between them. The bounded sibling of
    /// [`Client::connect`] for scripts that must fail fast with a
    /// clear exit instead of spinning (`sg ping --attempts`).
    ///
    /// # Errors
    ///
    /// Returns the last connect error once attempts are exhausted.
    pub fn connect_with_retry(addr: &str, policy: &RetryPolicy) -> io::Result<Client> {
        let mut rng = policy.rng();
        let attempts = policy.attempts.max(1);
        let mut last = None;
        for k in 0..attempts {
            match Self::connect_once(addr) {
                Ok(client) => return Ok(client),
                Err(e) => last = Some(e),
            }
            if k + 1 < attempts {
                std::thread::sleep(Duration::from_millis(policy.delay_ms(k, &mut rng)));
            }
        }
        Err(last.unwrap_or_else(|| io::Error::other("no connect attempts made")))
    }

    fn connect_once(addr: &str) -> io::Result<Client> {
        #[cfg(unix)]
        if let Some(path) = addr.strip_prefix("unix:") {
            return Self::over(ClientStream::Unix(UnixStream::connect(path)?));
        }
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Self::over(ClientStream::Tcp(stream))
    }

    fn over(stream: ClientStream) -> io::Result<Client> {
        Ok(Client {
            lines: BufReader::new(stream.reader()?),
            stream,
            line: String::new(),
            pending: VecDeque::new(),
        })
    }

    /// Sends one request line.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if the connection is gone.
    pub fn send(&mut self, request: &Request) -> Result<(), ServeError> {
        write_request(self.stream.writer(), &mut self.line, request)?;
        Ok(())
    }

    /// Reads the next frame.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] on EOF and [`ServeError::Protocol`] on
    /// an unparseable line.
    pub fn next_frame(&mut self) -> Result<Frame, ServeError> {
        let line = &mut self.line;
        loop {
            line.clear();
            let n = self.lines.read_line(line)?;
            if n == 0 {
                return Err(ServeError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )));
            }
            let text = line.trim();
            if text.is_empty() {
                continue;
            }
            if let Some(frame) = Frame::cell_from_text(text) {
                return Ok(frame);
            }
            let doc = Json::parse(text)
                .map_err(|e| ServeError::Protocol(format!("unparseable frame: {e}")))?;
            return Frame::from_json(&doc)
                .map_err(|e| ServeError::Protocol(format!("unexpected frame: {e}")));
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Errors if the daemon is unreachable or answers anything but pong.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        self.ping_stats().map(|_| ())
    }

    /// Liveness probe that also returns the daemon's cumulative
    /// result-journal telemetry as `(hits, misses)` — cells served from
    /// the journal vs computed, summed over every submit since startup.
    /// Both are 0 when the daemon runs without `--journal` (or predates
    /// the telemetry fields).
    ///
    /// # Errors
    ///
    /// Errors if the daemon is unreachable or answers anything but pong.
    pub fn ping_stats(&mut self) -> Result<(u64, u64), ServeError> {
        self.send(&Request::Ping)?;
        match self.next_frame()? {
            Frame::Pong {
                journal_hits,
                journal_misses,
            } => Ok((journal_hits, journal_misses)),
            other => Err(ServeError::Protocol(format!(
                "expected pong, got {other:?}"
            ))),
        }
    }

    /// Asks the daemon to exit.
    ///
    /// # Errors
    ///
    /// Errors if the daemon is unreachable or does not acknowledge.
    pub fn shutdown_server(&mut self) -> Result<(), ServeError> {
        self.send(&Request::Shutdown)?;
        match self.next_frame()? {
            Frame::Bye => Ok(()),
            other => Err(ServeError::Protocol(format!("expected bye, got {other:?}"))),
        }
    }

    /// Submits `plan` and waits for the accept frame.
    ///
    /// # Errors
    ///
    /// Surfaces an invalid plan's `error` frame as
    /// [`ServeError::Server`] and an admission-control `rejected` frame
    /// as [`ServeError::Rejected`].
    pub fn submit(&mut self, plan: &SweepPlan) -> Result<JobHandle, ServeError> {
        self.submit_with_deadline(plan, None)
    }

    /// [`Client::submit`] with an optional `deadline_ms` completion
    /// budget, enforced server-side between chunks (≤ 64 runs), where
    /// cancellation is checked too.
    ///
    /// # Errors
    ///
    /// See [`Client::submit`].
    pub fn submit_with_deadline(
        &mut self,
        plan: &SweepPlan,
        deadline_ms: Option<u64>,
    ) -> Result<JobHandle, ServeError> {
        self.send(&Request::Submit {
            plan: plan.clone(),
            deadline_ms,
        })?;
        // A still-streaming job on this connection may interleave its
        // frames with this submit's answer; park those for the job's
        // own `collect` call rather than treating them as violations.
        loop {
            match self.next_frame()? {
                Frame::Accepted {
                    job,
                    cells,
                    total_runs,
                } => {
                    return Ok(JobHandle {
                        job,
                        cells,
                        total_runs,
                    })
                }
                Frame::Rejected {
                    code,
                    detail,
                    retry_after_ms,
                } => {
                    return Err(ServeError::Rejected {
                        code,
                        detail,
                        retry_after_ms,
                    })
                }
                Frame::Error {
                    code,
                    detail,
                    job: None,
                } => return Err(ServeError::Server { code, detail }),
                frame @ (Frame::Cell { .. }
                | Frame::Summary { .. }
                | Frame::Cancelled { .. }
                | Frame::Error { job: Some(_), .. }) => self.pending.push_back(frame),
                other => {
                    return Err(ServeError::Protocol(format!(
                        "expected accepted, got {other:?}"
                    )))
                }
            }
        }
    }

    /// [`Client::submit_with_deadline`] wrapped in bounded retry: a
    /// `saturated` rejection sleeps the larger of the server's
    /// `retry_after_ms` hint and the policy's own jittered backoff,
    /// then resubmits — at most `policy.attempts` times, and never past
    /// the job's `deadline_ms` budget (which spans the whole retry
    /// loop, not each attempt). A `draining` rejection fails
    /// immediately: that daemon will not take the job, ever.
    ///
    /// The policy seed should derive from the plan's `base_seed`
    /// (that is what [`RetryPolicy::deterministic`] callers here do),
    /// keeping the whole schedule replayable.
    ///
    /// # Errors
    ///
    /// The last rejection once attempts (or the deadline budget) are
    /// exhausted; any other error immediately.
    pub fn submit_with_retry(
        &mut self,
        plan: &SweepPlan,
        deadline_ms: Option<u64>,
        policy: &RetryPolicy,
    ) -> Result<JobHandle, ServeError> {
        let started = Instant::now();
        let mut rng = policy.rng();
        let attempts = policy.attempts.max(1);
        let mut last = None;
        for k in 0..attempts {
            match self.submit_with_deadline(plan, deadline_ms) {
                Err(ServeError::Rejected {
                    code: RejectCode::Saturated,
                    detail,
                    retry_after_ms,
                }) => {
                    let wait = retry_after_ms
                        .unwrap_or(0)
                        .max(policy.delay_ms(k, &mut rng));
                    last = Some(ServeError::Rejected {
                        code: RejectCode::Saturated,
                        detail,
                        retry_after_ms,
                    });
                    if k + 1 == attempts {
                        break;
                    }
                    if let Some(budget) = deadline_ms {
                        let spent = started.elapsed().as_millis() as u64;
                        if spent.saturating_add(wait) >= budget {
                            break;
                        }
                    }
                    std::thread::sleep(Duration::from_millis(wait));
                }
                outcome => return outcome,
            }
        }
        Err(last.expect("at least one submit attempt"))
    }

    /// Requests cancellation of `job` (the stream will end with a
    /// `cancelled` frame, surfaced by [`Client::collect`] as
    /// [`ServeError::Cancelled`]).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if the connection is gone.
    pub fn cancel(&mut self, job: u64) -> Result<(), ServeError> {
        self.send(&Request::Cancel { job })
    }

    /// Drains `handle`'s stream to its terminal frame, invoking
    /// `on_cell` per cell (in grid order) and returning the reassembled
    /// report.
    ///
    /// # Errors
    ///
    /// [`ServeError::Cancelled`] if the job was cancelled,
    /// [`ServeError::Server`] if it failed, and
    /// [`ServeError::Protocol`] on out-of-order cells, count mismatches,
    /// or a summary fingerprint that does not match the received cells.
    pub fn collect(
        &mut self,
        handle: JobHandle,
        mut on_cell: impl FnMut(usize, &CellReport),
    ) -> Result<StreamedReport, ServeError> {
        let mut cells: Vec<CellReport> = Vec::with_capacity(handle.cells);
        let mut fingerprint = Fingerprint::new();
        loop {
            let frame = match self.pending.pop_front() {
                Some(parked) => parked,
                None => self.next_frame()?,
            };
            match frame {
                Frame::Cell { job, index, cell } if job == handle.job => {
                    if index != cells.len() {
                        return Err(ServeError::Protocol(format!(
                            "cell {index} arrived out of order (expected {})",
                            cells.len()
                        )));
                    }
                    fingerprint.mix_cell(&cell);
                    on_cell(index, &cell);
                    cells.push(*cell);
                }
                Frame::Summary {
                    job,
                    cells: cell_count,
                    total_runs,
                    report_fingerprint,
                    wall_ms,
                    cached_cells,
                } if job == handle.job => {
                    if cell_count != cells.len() || cell_count != handle.cells {
                        return Err(ServeError::Protocol(format!(
                            "summary says {cell_count} cells, streamed {}",
                            cells.len()
                        )));
                    }
                    if report_fingerprint != fingerprint.hex() {
                        return Err(ServeError::Protocol(format!(
                            "fingerprint mismatch: server {report_fingerprint}, \
                             recomputed {} from the streamed cells",
                            fingerprint.hex()
                        )));
                    }
                    return Ok(StreamedReport {
                        job,
                        report: SweepReport { total_runs, cells },
                        fingerprint: fingerprint.value(),
                        wall_ms,
                        cached_cells,
                    });
                }
                Frame::Cancelled {
                    job,
                    cells_streamed,
                } if job == handle.job => {
                    return Err(ServeError::Cancelled {
                        job,
                        cells_streamed,
                    })
                }
                Frame::Error { code, detail, job } if job == Some(handle.job) => {
                    return Err(ServeError::Server { code, detail })
                }
                other => {
                    return Err(ServeError::Protocol(format!(
                        "unexpected frame while streaming job {}: {other:?}",
                        handle.job
                    )))
                }
            }
        }
    }

    /// [`Client::submit`] + [`Client::collect`] in one call.
    ///
    /// # Errors
    ///
    /// See [`Client::submit`] and [`Client::collect`].
    pub fn submit_and_collect(&mut self, plan: &SweepPlan) -> Result<StreamedReport, ServeError> {
        let handle = self.submit(plan)?;
        self.collect(handle, |_, _| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_adversary::FaultSelection;
    use sg_analysis::{AdversaryFamily, SweepConfig};
    use sg_core::AlgorithmSpec;

    /// Stands in for the socket: takes whatever it is handed and counts
    /// the hand-overs, each of which would be a `write(2)` — and a
    /// wake-up of the daemon's reader — on the real thing.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_request_reaches_the_socket_in_one_write() {
        // A 36-cell grid, nine configs × four families: the submit line's
        // JSON tree has hundreds of `Display` fragments.
        let honest = FaultSelection::without_source;
        let plan = SweepPlan::new(
            vec![SweepConfig::traced(AlgorithmSpec::OptimalKing, 16, 5); 9],
            vec![
                AdversaryFamily::random_liar(honest()),
                AdversaryFamily::crash(honest(), 2),
                AdversaryFamily::silent(honest()),
                AdversaryFamily::chain_revealer(honest(), 2, 2),
            ],
            64,
        );
        assert_eq!(plan.cell_count(), 36);

        let mut line = String::new();
        for request in [
            Request::Submit {
                plan,
                deadline_ms: Some(250),
            },
            Request::Ping,
            Request::Cancel { job: 7 },
        ] {
            let mut socket = CountingWriter::default();
            write_request(&mut socket, &mut line, &request).expect("write");
            assert_eq!(
                socket.writes,
                1,
                "{} bytes reached the socket in {} writes",
                socket.bytes.len(),
                socket.writes
            );
            assert_eq!(
                socket.bytes,
                format!("{}\n", request.to_json()).into_bytes()
            );
        }
    }
}
