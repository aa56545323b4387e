//! The daemon: listener, connection handlers, and the persistent worker
//! pool.
//!
//! # Architecture
//!
//! ```text
//! accept loop ──► two threads per client
//!                   │  reader: NDJSON lines → requests ─┐
//!                   │  event thread ◄───────────────────┘ ◄── worker turns
//!                   │    owns the socket's write half: answers every
//!                   │    queued event (cells reordered into grid order)
//!                   │    into one buffer, one write, then blocks
//!                   ▼
//!                scheduler: round-robin queue of active jobs
//!                   ▲
//! worker pool ──────┘  N threads, each owning ONE SweepScratch for life
//! ```
//!
//! Cells are the unit of work, **turns** the unit of scheduling: a worker
//! pops the front job, claims its next unclaimed cell, requeues the job
//! at the back (so siblings and concurrent jobs interleave fairly), and
//! executes the cell through the sweep engine's
//! [`sg_analysis::CellCursor`] — the same 64-seed chunk executor
//! `SweepPlan::run` fans onto its pool threads — in its own long-lived
//! [`SweepScratch`]: the same scratch across cells, jobs, *and requests*,
//! which is what keeps protocol instances, strategies and lock-step
//! kernels warm daemon-wide. It then keeps claiming from the same job
//! until its turn (`TURN`) is spent or the job's cells run out, and
//! reports the turn's cells to the owning connection as one event — so a
//! grid of 15 µs cells costs one wake-up per turn, not one per cell, while
//! a cell longer than a turn still ships the moment it finishes.
//! Cancellation is checked between chunks, so a cancel lands within one
//! chunk (≤ 64 runs) even mid-cell.
//!
//! # Determinism
//!
//! Cell execution order is scheduling-dependent; cell *content* is not:
//! the sweep engine's coordinate-pure seeding means every run's seed
//! depends only on its grid position, and the pooled executor is pinned
//! bit-identical to the fresh one. Connection handlers re-order
//! completed cells into grid order before streaming, and fold the
//! summary fingerprint in that order — so the summary frame's
//! `report_fingerprint` is bit-identical to `SweepPlan::run` on the same
//! grid, whatever the daemon had running concurrently.
//!
//! # Overload behavior
//!
//! Admission control is enforced on the connection thread, before a job
//! ever reaches the worker pool: a submit that would exceed
//! [`ServeOptions::max_jobs`], [`ServeOptions::max_queued_runs`], or
//! the per-connection cap answers `rejected` (code `saturated`) without
//! waiting on any worker, with a deterministic
//! `retry_after_ms` hint scaled to the backlog. Deadlines ride the same
//! between-chunks check as cancellation, so an expired job stops within
//! one chunk (≤ 64 runs). A reader that stalls while its daemon streams —
//! the slow-loris client — is shed once a write to it makes no progress
//! for `SHED_GRACE_MS` (a send timeout on the accepted socket, behind a
//! send buffer capped at [`ServeOptions::send_buffer`]): its jobs are
//! cancelled and its socket closed, while every other connection and the
//! worker pool continue untouched — only that connection's own event
//! thread ever blocks on its socket. Draining
//! (the `drain` op or `sg serve`'s SIGTERM handler) finishes accepted
//! jobs, rejects new submits with code `draining`, and says `bye`.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::json::Value as Json;
use serde::FromJson;
use sg_analysis::{AdversaryFamily, CellReport, Fingerprint, SweepPlan, SweepScratch};
use sg_journal::{CellKey, Journal};

use crate::wire::{ErrorCode, Frame, RejectCode, Request};

/// Where the daemon listens.
#[derive(Clone, Debug)]
pub enum Bind {
    /// A TCP socket address, e.g. `127.0.0.1:7411` (`:0` picks a free
    /// port — read it back from [`ServerHandle::tcp_addr`]).
    Tcp(String),
    /// A unix-domain socket path (removed and re-created on bind).
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Bind {
    /// Parses a CLI/bench address: `unix:/path` or `host:port`.
    pub fn parse(addr: &str) -> Bind {
        #[cfg(unix)]
        if let Some(path) = addr.strip_prefix("unix:") {
            return Bind::Unix(PathBuf::from(path));
        }
        Bind::Tcp(addr.to_string())
    }
}

/// Daemon tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Worker threads (0 = one per hardware thread).
    pub workers: usize,
    /// Jobs admitted but not yet terminal, daemon-wide (0 = unlimited).
    /// The next submit past the cap answers `rejected`/`saturated`.
    pub max_jobs: usize,
    /// Cap on the summed `total_runs` of active jobs (0 = unlimited) —
    /// the queue's memory/backlog bound, since a job's queue footprint
    /// is proportional to its run count.
    pub max_queued_runs: u64,
    /// Active jobs allowed per connection (0 = unlimited).
    pub max_jobs_per_conn: usize,
    /// Kernel send-buffer cap per accepted connection, in bytes (0 = OS
    /// default). Left alone, Linux auto-grows `SO_SNDBUF` into the
    /// megabytes on loopback, so a stalled reader hides behind kernel
    /// buffering long before a write to it blocks; capping it bounds what
    /// the daemon buffers for a client that has stopped reading — a
    /// reader whose buffer stays full for `SHED_GRACE_MS` is shed, its
    /// jobs cancelled and its socket closed, so one slow reader can
    /// never wedge the daemon or other connections.
    pub send_buffer: usize,
    /// Result-journal directory (`sg serve --journal`). When set, every
    /// submit is first resolved against the journal: cells already
    /// stored under the plan's epoch are streamed back instantly
    /// (in grid order, through the same reorder buffer as computed
    /// cells) and only the delta is scheduled; computed cells are
    /// appended write-through. `None` (the default) disables caching.
    pub journal: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 0,
            max_jobs: 64,
            max_queued_runs: 50_000_000,
            max_jobs_per_conn: 16,
            send_buffer: 256 * 1024,
            journal: None,
        }
    }
}

/// The server's deterministic back-off hint for `saturated` rejections:
/// a pure function of the admitted backlog, so a saturated daemon tells
/// every client the same story and tests can pin it.
fn retry_hint_ms(queued_runs: u64) -> u64 {
    (queued_runs / 200).clamp(10, 2_000)
}

/// What a worker reports back to the owning connection, always sent
/// under the job-core lock so terminal events are unique and ordered.
enum JobEvent {
    /// The cells one worker turn completed (grid indices attached);
    /// `last` marks the turn that finished the job.
    Cells {
        cells: Vec<(usize, Box<CellReport>)>,
        last: bool,
    },
    /// Terminal: the job was cancelled and no further frames will come.
    Cancelled,
    /// Terminal: the job's deadline expired mid-grid.
    DeadlineExceeded,
    /// Terminal: a worker panicked executing this job.
    Failed { detail: String },
}

/// Everything a connection thread can be woken by.
enum ConnEvent {
    /// A parsed request line (or the decode error to report).
    Request(Result<Request, (ErrorCode, String)>),
    /// The client closed or broke the connection.
    Gone,
    /// The daemon finished draining: say `bye` and wind down.
    Stopping,
    /// Progress on a job submitted by this connection.
    Job(u64, JobEvent),
}

/// Mutable per-job scheduling state; one lock per job.
struct JobCore {
    /// Next unclaimed flat cell index.
    next_cell: usize,
    /// Workers currently in a turn on this job.
    outstanding: usize,
    /// Cells fully executed and reported.
    done: usize,
    /// Set by cancel, deadline expiry, or worker panic; stops claiming
    /// and aborts runs.
    cancelled: bool,
    /// Set by whichever worker first notices the deadline passed, so
    /// the terminal frame reports `deadline-exceeded`, not `cancelled`.
    deadline_hit: bool,
    /// Whether a terminal event (`last` turn, `Cancelled`,
    /// `DeadlineExceeded`, `Failed`) has been emitted — exactly one
    /// ever is.
    terminal_sent: bool,
}

/// One submitted grid, shared between the scheduler, workers, and the
/// owning connection.
struct Job {
    id: u64,
    plan: SweepPlan,
    /// Wall-clock completion budget, from the submit's `deadline_ms`.
    deadline: Option<Instant>,
    /// Lock-free fast path for the in-cell cancellation check.
    cancel: AtomicBool,
    core: Mutex<JobCore>,
    events: Sender<ConnEvent>,
    /// Per-cell journal addresses for write-through appends; empty when
    /// the daemon runs without a journal (`None` marks closure-family
    /// cells, which have no wire form to address).
    journal_keys: Vec<Option<CellKey>>,
    /// Per-cell journal-hit mask; empty without a journal. Hit cells
    /// were streamed by the connection thread at accept time and are
    /// never claimed by workers.
    cached: Vec<bool>,
    /// Back-reference for admission bookkeeping at terminal time (weak:
    /// `Shared` owns the queue that owns jobs).
    shared: Weak<Shared>,
}

impl Job {
    fn cell_count(&self) -> usize {
        self.plan.cell_count()
    }

    /// The first claimable (non-cached) cell index at or after `from`;
    /// `cell_count()` when none remain.
    fn next_unclaimed(&self, mut from: usize) -> usize {
        while self.cached.get(from).copied().unwrap_or(false) {
            from += 1;
        }
        from
    }

    /// Whether the job's deadline (if any) has passed. Checked at the
    /// same points as the cancellation flag, so expiry lands within one
    /// chunk (≤ 64 runs) too.
    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Emits the job's unique terminal event and releases its admission
    /// budget. Must be called under the core lock, at most once.
    ///
    /// Event first, release second: releasing the last drained job
    /// broadcasts `Stopping` (→ `bye`) through the same per-connection
    /// channel, and the terminal frame must precede it.
    fn finish(&self, core: &mut JobCore, event: JobEvent) {
        debug_assert!(!core.terminal_sent);
        core.terminal_sent = true;
        let _ = self.events.send(ConnEvent::Job(self.id, event));
        if let Some(shared) = self.shared.upgrade() {
            shared.release(self.plan.total_runs());
        }
    }

    /// The terminal event an aborted (non-panicked) job reports:
    /// deadline expiry wins over plain cancellation.
    fn aborted_event(core: &JobCore) -> JobEvent {
        if core.deadline_hit {
            JobEvent::DeadlineExceeded
        } else {
            JobEvent::Cancelled
        }
    }

    /// Marks the job cancelled; emits the terminal event immediately if
    /// no worker is mid-turn (otherwise the last such worker does).
    fn cancel(&self) {
        let mut core = self.core.lock().expect("job core");
        self.abort(&mut core);
        self.close_if_idle(&mut core);
    }

    /// Stops further claims and aborts runs at their next chunk boundary.
    fn abort(&self, core: &mut JobCore) {
        self.cancel.store(true, Ordering::Relaxed);
        core.cancelled = true;
    }

    /// [`Job::abort`] on behalf of the deadline, so the terminal frame
    /// says `deadline-exceeded`.
    fn expire(&self, core: &mut JobCore) {
        self.abort(core);
        core.deadline_hit = true;
    }

    /// Emits an aborted job's terminal event once no worker is left in it.
    fn close_if_idle(&self, core: &mut JobCore) {
        if core.cancelled && core.outstanding == 0 && !core.terminal_sent {
            let event = Job::aborted_event(core);
            self.finish(core, event);
        }
    }

    /// Claims the next unclaimed cell for the calling worker; `None` when
    /// the job is aborted, out of cells, or found past its deadline here
    /// — before any run of the claim, the cheapest of the deadline checks.
    fn claim(&self, core: &mut JobCore) -> Option<usize> {
        // Journal hits were streamed at accept time; claims hop over
        // them so workers only ever see the delta.
        core.next_cell = self.next_unclaimed(core.next_cell);
        if core.cancelled || core.next_cell >= self.cell_count() {
            return None;
        }
        if self.expired() {
            self.expire(core);
            return None;
        }
        let index = core.next_cell;
        core.next_cell = self.next_unclaimed(index + 1);
        Some(index)
    }
}

/// Scheduler + lifecycle state shared by every thread of one daemon.
struct Shared {
    /// Round-robin queue of jobs with unclaimed cells.
    queue: Mutex<VecDeque<Arc<Job>>>,
    /// Signals workers that the queue changed (or the daemon stops).
    available: Condvar,
    /// Daemon-wide stop flag.
    stop: AtomicBool,
    /// Daemon-wide drain flag: accepted jobs finish, new submits are
    /// rejected with code `draining`, and the last terminal stops the
    /// daemon.
    draining: AtomicBool,
    /// Jobs admitted and not yet terminal.
    active_jobs: AtomicU64,
    /// Summed `total_runs` of active jobs — the admission-control
    /// measure of backlog, released in one piece at terminal time.
    queued_runs: AtomicU64,
    /// Monotonic job-id source.
    next_job: AtomicU64,
    /// Monotonic connection-id source (keys the registry below).
    next_conn: AtomicU64,
    /// Event senders of live connections, so [`Shared::begin_stop`] can
    /// wake every connection loop — a client mid-stream would otherwise
    /// block in `recv()` forever when some other client shuts the
    /// daemon down.
    conns: Mutex<HashMap<u64, Sender<ConnEvent>>>,
    /// Unblocks the accept loop once `stop` is up (self-connect).
    poke: Arc<dyn Fn() + Send + Sync>,
    /// The daemon's result journal (`ServeOptions::journal`): submit
    /// lookups and worker write-through both serialize on this lock.
    journal: Option<Mutex<Journal>>,
    /// Cumulative cells answered from the journal, summed over every
    /// submit since startup (stays 0 without `--journal`). Surfaced in
    /// the `pong` frame and logged when a drain begins.
    journal_hits: AtomicU64,
    /// Cumulative cells that missed the journal and were computed.
    journal_misses: AtomicU64,
    options: ServeOptions,
}

impl Shared {
    /// Enqueues a job for the worker pool.
    fn enqueue(&self, job: Arc<Job>) {
        self.queue.lock().expect("job queue").push_back(job);
        self.available.notify_all();
    }

    /// Blocks until a job is available (or the daemon stops).
    fn next(&self) -> Option<Arc<Job>> {
        let mut queue = self.queue.lock().expect("job queue");
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(job) = queue.pop_front() {
                return Some(job);
            }
            queue = self.available.wait(queue).expect("job queue");
        }
    }

    /// Stops the daemon: raises the flag, wakes idle workers, unblocks
    /// the accept loop, and tells every live connection to wind down
    /// (cancelling its jobs and closing its socket, so streaming
    /// clients see EOF rather than a hang).
    fn begin_stop(&self) {
        self.stop_conns(false);
    }

    /// [`Shared::begin_stop`], but connections say `bye` before closing
    /// — the drain-complete goodbye the protocol promises.
    fn begin_drain_stop(&self) {
        self.stop_conns(true);
    }

    fn stop_conns(&self, say_bye: bool) {
        self.stop.store(true, Ordering::SeqCst);
        self.available.notify_all();
        (self.poke)();
        for tx in self.conns.lock().expect("conn registry").values() {
            let _ = tx.send(if say_bye {
                ConnEvent::Stopping
            } else {
                ConnEvent::Gone
            });
        }
    }

    /// Starts draining: no new submits, and once the active-job count
    /// reaches zero the daemon stops with a `bye` on every connection.
    /// Returns the number of jobs still active. Logs the lifetime
    /// journal telemetry on the way out — the drain is the last moment
    /// an operator can read it off a daemon that is about to exit.
    fn begin_drain(&self) -> u64 {
        self.draining.store(true, Ordering::SeqCst);
        if self.journal.is_some() {
            eprintln!(
                "sg-serve: draining; journal served {} cell(s) from cache, computed {}",
                self.journal_hits.load(Ordering::SeqCst),
                self.journal_misses.load(Ordering::SeqCst),
            );
        }
        let active = self.active_jobs.load(Ordering::SeqCst);
        if active == 0 && !self.stop.load(Ordering::SeqCst) {
            self.begin_drain_stop();
        }
        active
    }

    /// Releases one job's admission budget at terminal time, completing
    /// a pending drain if this was the last active job.
    fn release(&self, total_runs: u64) {
        self.queued_runs.fetch_sub(total_runs, Ordering::SeqCst);
        let was = self.active_jobs.fetch_sub(1, Ordering::SeqCst);
        if was == 1 && self.draining.load(Ordering::SeqCst) && !self.stop.load(Ordering::SeqCst) {
            self.begin_drain_stop();
        }
    }

    /// Reserves admission budget for a submit, or explains the refusal.
    /// Reservation is optimistic fetch-add with rollback, so concurrent
    /// submits on different connections cannot both sneak past a cap.
    fn admit(&self, total_runs: u64) -> Result<(), Frame> {
        if self.draining.load(Ordering::SeqCst) {
            return Err(Frame::Rejected {
                code: RejectCode::Draining,
                detail: "daemon is draining and takes no new jobs".to_string(),
                retry_after_ms: None,
            });
        }
        // Roll back through `release` so a drain that started between
        // our reservation and its failure still sees the final zero.
        let max_jobs = self.options.max_jobs as u64;
        let prev = self.active_jobs.fetch_add(1, Ordering::SeqCst);
        if max_jobs > 0 && prev >= max_jobs {
            let hint = retry_hint_ms(self.queued_runs.load(Ordering::SeqCst));
            self.release(0);
            return Err(Frame::Rejected {
                code: RejectCode::Saturated,
                detail: format!("job queue full ({max_jobs} active jobs)"),
                retry_after_ms: Some(hint),
            });
        }
        let max_runs = self.options.max_queued_runs;
        let prev_runs = self.queued_runs.fetch_add(total_runs, Ordering::SeqCst);
        if max_runs > 0 && prev_runs.saturating_add(total_runs) > max_runs {
            self.release(total_runs);
            return Err(Frame::Rejected {
                code: RejectCode::Saturated,
                detail: format!(
                    "run backlog full ({prev_runs} of {max_runs} queued, job needs {total_runs})"
                ),
                retry_after_ms: Some(retry_hint_ms(prev_runs)),
            });
        }
        Ok(())
    }
}

/// A byte stream the daemon can serve — TCP or unix-domain.
trait Conn: io::Read + io::Write + Send {
    fn try_clone_conn(&self) -> io::Result<Box<dyn Conn>>;

    /// Shuts the underlying connection down for real (both directions,
    /// all clones) — closing one dup'd handle alone would not send the
    /// peer an EOF while the reader thread still holds another.
    fn shutdown_conn(&self);
}

impl Conn for TcpStream {
    fn try_clone_conn(&self) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(self.try_clone()?))
    }

    fn shutdown_conn(&self) {
        let _ = self.shutdown(std::net::Shutdown::Both);
    }
}

#[cfg(unix)]
impl Conn for UnixStream {
    fn try_clone_conn(&self) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(self.try_clone()?))
    }

    fn shutdown_conn(&self) {
        let _ = self.shutdown(std::net::Shutdown::Both);
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// Caps the kernel send buffer of an accepted socket. The kernel
/// otherwise auto-grows `SO_SNDBUF` into the megabytes, letting that
/// many frames pile up for a reader that has stopped reading before a
/// write to it ever blocks and the shed timeout starts. Failure is
/// ignored: the cap is a bound, not a correctness requirement.
#[cfg(target_os = "linux")]
fn cap_send_buffer(fd: i32, bytes: usize) {
    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const i32, optlen: u32) -> i32;
    }
    let value = bytes.min(i32::MAX as usize) as i32;
    let len = std::mem::size_of::<i32>() as u32;
    let _ = unsafe { setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &value, len) };
}

#[cfg(all(unix, not(target_os = "linux")))]
fn cap_send_buffer(_fd: i32, _bytes: usize) {}

impl Listener {
    /// Accepts one connection, with the slow-reader bounds in place: a
    /// send timeout of [`SHED_GRACE_MS`] behind a capped send buffer.
    fn accept(&self, send_buffer: usize) -> io::Result<Box<dyn Conn>> {
        #[cfg(not(unix))]
        let _ = send_buffer;
        let grace = Some(Duration::from_millis(SHED_GRACE_MS));
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nodelay(true).ok();
                stream.set_write_timeout(grace)?;
                #[cfg(unix)]
                if send_buffer > 0 {
                    cap_send_buffer(std::os::fd::AsRawFd::as_raw_fd(&stream), send_buffer);
                }
                Ok(Box::new(stream))
            }
            #[cfg(unix)]
            Listener::Unix(l) => {
                let (stream, _) = l.accept()?;
                stream.set_write_timeout(grace)?;
                if send_buffer > 0 {
                    cap_send_buffer(std::os::fd::AsRawFd::as_raw_fd(&stream), send_buffer);
                }
                Ok(Box::new(stream))
            }
        }
    }

    /// A closure that connects to this listener's address, used to
    /// unblock a blocking `accept` once the stop flag is up. Captures
    /// the *address*, never the listener itself: the accept thread must
    /// stay the socket's only owner, so the socket actually closes (and
    /// late clients get refused instead of parking in the backlog
    /// forever) the moment that thread exits.
    fn poke_fn(&self) -> Arc<dyn Fn() + Send + Sync> {
        match self {
            Listener::Tcp(l) => match l.local_addr() {
                Ok(addr) => Arc::new(move || {
                    let _ = TcpStream::connect(addr);
                }),
                Err(_) => Arc::new(|| {}),
            },
            #[cfg(unix)]
            Listener::Unix(l) => {
                let path = l
                    .local_addr()
                    .ok()
                    .and_then(|addr| addr.as_pathname().map(PathBuf::from));
                Arc::new(move || {
                    if let Some(path) = &path {
                        let _ = UnixStream::connect(path);
                    }
                })
            }
        }
    }
}

/// A running daemon, returned by [`serve`].
pub struct ServerHandle {
    tcp_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound TCP address (for `Bind::Tcp`; `None` on unix sockets).
    /// Binding `:0` and reading the address back is how tests get an
    /// ephemeral port.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Stops the daemon: accept loop, workers, everything. Jobs still
    /// streaming are abandoned (their clients see the connection close).
    pub fn shutdown(mut self) {
        self.stop_all();
    }

    /// A handle that can start a graceful drain from another thread —
    /// `sg serve` wires its SIGTERM watcher to this.
    pub fn drainer(&self) -> Drainer {
        Drainer {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Blocks until the daemon stops — i.e. until some client sends the
    /// `shutdown` op (or the process is signalled). This is `sg serve`'s
    /// foreground mode.
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.stop_all();
    }

    fn stop_all(&mut self) {
        self.shared.begin_stop();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_all();
    }
}

/// Starts a graceful drain on a running daemon (see [`Request::Drain`]
/// for the semantics); cloneable into signal-watcher threads.
#[derive(Clone)]
pub struct Drainer {
    shared: Arc<Shared>,
}

impl Drainer {
    /// Begins the drain; returns the number of jobs still active (the
    /// daemon stops once they finish — immediately when zero).
    pub fn drain(&self) -> u64 {
        self.shared.begin_drain()
    }
}

/// Binds and starts a daemon; returns once it is accepting connections.
///
/// # Errors
///
/// Returns the bind/listen error verbatim (address in use, bad unix
/// path, …).
pub fn serve(bind: &Bind, options: ServeOptions) -> io::Result<ServerHandle> {
    let listener = match bind {
        Bind::Tcp(addr) => Listener::Tcp(TcpListener::bind(addr.as_str())?),
        #[cfg(unix)]
        Bind::Unix(path) => {
            // A stale socket file from a previous daemon blocks bind.
            let _ = std::fs::remove_file(path);
            Listener::Unix(UnixListener::bind(path)?)
        }
    };
    let tcp_addr = match &listener {
        Listener::Tcp(l) => Some(l.local_addr()?),
        #[cfg(unix)]
        Listener::Unix(_) => None,
    };
    let workers = match options.workers {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        w => w,
    };
    let poke = listener.poke_fn();
    let journal = match &options.journal {
        None => None,
        Some(dir) => Some(Mutex::new(
            Journal::open(dir).map_err(|e| io::Error::other(e.to_string()))?,
        )),
    };
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        stop: AtomicBool::new(false),
        draining: AtomicBool::new(false),
        active_jobs: AtomicU64::new(0),
        queued_runs: AtomicU64::new(0),
        next_job: AtomicU64::new(1),
        next_conn: AtomicU64::new(1),
        conns: Mutex::new(HashMap::new()),
        poke,
        journal,
        journal_hits: AtomicU64::new(0),
        journal_misses: AtomicU64::new(0),
        options,
    });

    let worker_handles = (0..workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("sg-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker")
        })
        .collect();

    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::Builder::new()
        .name("sg-serve-accept".to_string())
        .spawn(move || {
            while !accept_shared.stop.load(Ordering::SeqCst) {
                match listener.accept(accept_shared.options.send_buffer) {
                    Ok(conn) => {
                        if accept_shared.stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let shared = Arc::clone(&accept_shared);
                        let _ = std::thread::Builder::new()
                            .name("sg-serve-conn".to_string())
                            .spawn(move || handle_connection(conn, &shared));
                    }
                    Err(_) if accept_shared.stop.load(Ordering::SeqCst) => break,
                    Err(_) => continue,
                }
            }
        })
        .expect("spawn accept loop");

    Ok(ServerHandle {
        tcp_addr,
        shared,
        accept: Some(accept),
        workers: worker_handles,
    })
}

/// How one cell execution ended on a worker.
enum CellRun {
    /// Ran to completion.
    Done(Box<CellReport>),
    /// Stopped at a chunk boundary by the cancellation flag.
    Aborted,
    /// Stopped at a chunk boundary by the job's deadline.
    Expired,
}

/// How long a worker stays on one job before it reports and takes the
/// queue's next: a turn, not a cell, is what the owning connection is
/// woken for. Each report costs a wake chain — worker → event thread →
/// socket → client — measured at ~30 µs of mostly system time, twice the
/// ~15 µs a 64-seed king cell takes to compute; at 250 µs a turn the
/// chain is ≤ 12 % of the work it reports, and a finished cell waits at
/// most that long to ship. Checked between cells, so a cell longer than
/// a turn is a turn of its own.
const TURN: Duration = Duration::from_micros(250);

/// One worker: a long-lived scratch and an endless claim-execute loop.
fn worker_loop(shared: &Shared) {
    let mut scratch = SweepScratch::default();
    while let Some(job) = shared.next() {
        worker_turn(shared, &job, &mut scratch);
    }
}

/// One turn on `job`: claims and executes cells until [`TURN`] is spent,
/// the cells run out, or the job aborts, then reports everything the
/// turn finished in one event under the job-core lock.
fn worker_turn(shared: &Shared, job: &Arc<Job>, scratch: &mut SweepScratch) {
    let (mut index, more) = {
        let mut core = job.core.lock().expect("job core");
        let Some(index) = job.claim(&mut core) else {
            // A deadline noticed by the claim, with no worker left in
            // the job to report it.
            job.close_if_idle(&mut core);
            return;
        };
        core.outstanding += 1;
        (index, core.next_cell < job.cell_count())
    };
    // Requeue before executing, so siblings can claim the job's other
    // cells (and other jobs stay interleaved, turn by turn).
    if more {
        shared.enqueue(Arc::clone(job));
    }

    let started = Instant::now();
    let mut finished = Vec::new();
    let mut failure = None;
    // The journal write-through's line text, reused by every cell of the
    // turn.
    let mut text = String::new();
    loop {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut cursor = job.plan.cell_cursor(index);
            while !cursor.is_done() {
                if job.cancel.load(Ordering::Relaxed) {
                    return CellRun::Aborted;
                }
                if job.expired() {
                    return CellRun::Expired;
                }
                cursor.advance(scratch);
            }
            CellRun::Done(Box::new(cursor.finish()))
        }));
        match outcome {
            Ok(CellRun::Done(cell)) => {
                // Write-through per cell, before the bookkeeping lock:
                // the cell is final either way, and a failed append only
                // costs the next submit a recompute ("absent, never
                // wrong").
                if let Some(journal) = &shared.journal {
                    if let Some(&Some(key)) = job.journal_keys.get(index) {
                        text.clear();
                        cell.write_text(&mut text);
                        let mut journal = journal.lock().expect("journal");
                        if let Err(e) = journal.append_text(key, job.plan.epoch(), &text) {
                            eprintln!("sg-serve: journal append failed: {e}");
                        }
                    }
                }
                finished.push((index, cell));
                if started.elapsed() >= TURN {
                    break;
                }
                let next = job.claim(&mut job.core.lock().expect("job core"));
                match next {
                    Some(next) => index = next,
                    None => break,
                }
            }
            Ok(CellRun::Aborted) => break,
            Ok(CellRun::Expired) => {
                job.expire(&mut job.core.lock().expect("job core"));
                break;
            }
            Err(panic) => {
                // The unwind already dropped everything the chunk had
                // checked out of the scratch's pools; every other buffer
                // is overwritten at the start of each run. Quarantine
                // just the executing key — rebuilding the whole scratch
                // here would throw away every sibling key's warmth.
                let (ci, _) = job.plan.cell_coords(index);
                scratch.evict_instances(job.plan.configs[ci].pool_key());
                failure = Some(
                    panic
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "worker panic".to_string()),
                );
                break;
            }
        }
    }

    // The turn's one report. Cells the turn finished ship even when it
    // ended in an abort or a panic — they are final, and the terminal
    // frame's `cells_streamed` counts what the client really received —
    // but never after the job's terminal event.
    let mut core = job.core.lock().expect("job core");
    core.outstanding -= 1;
    core.done += finished.len();
    if failure.is_some() {
        job.abort(&mut core);
    }
    if core.terminal_sent {
        return;
    }
    if !core.cancelled && core.done == job.cell_count() {
        let last = JobEvent::Cells {
            cells: finished,
            last: true,
        };
        job.finish(&mut core, last);
        return;
    }
    if !finished.is_empty() {
        let turn = JobEvent::Cells {
            cells: finished,
            last: false,
        };
        let _ = job.events.send(ConnEvent::Job(job.id, turn));
    }
    match failure {
        // Only this worker knows the detail: it reports at once, and
        // siblings still mid-turn find the terminal already sent.
        Some(detail) => job.finish(&mut core, JobEvent::Failed { detail }),
        None => job.close_if_idle(&mut core),
    }
}

/// Per-job streaming state on the connection side: reorder buffer,
/// running fingerprint, and frame bookkeeping.
struct StreamState {
    job: Arc<Job>,
    started: Instant,
    /// Completed cells not yet emittable (a lower index is missing).
    /// Journal hits are parked here at accept time, so cached and
    /// computed cells leave through one reorder buffer, in grid order.
    pending: BTreeMap<usize, Box<CellReport>>,
    /// Next grid index to emit.
    next_emit: usize,
    /// Cell frames written so far.
    emitted: usize,
    /// Cells answered from the journal (for the summary frame).
    cached: usize,
    fingerprint: Fingerprint,
}

impl StreamState {
    /// Emits every consecutively-ready pending cell, in grid order,
    /// folding each into the running fingerprint.
    fn emit_ready(&mut self, id: u64, sink: &mut FrameSink) -> Result<(), ConnExit> {
        while let Some(cell) = self.pending.remove(&self.next_emit) {
            self.fingerprint.mix_cell(&cell);
            let index = self.next_emit;
            self.next_emit += 1;
            self.emitted += 1;
            sink.send(&Frame::Cell {
                job: id,
                index,
                cell,
            })?;
        }
        Ok(())
    }

    /// The job's terminal summary frame.
    fn summary(&self, id: u64) -> Frame {
        Frame::Summary {
            job: id,
            cells: self.emitted,
            total_runs: self.job.plan.total_runs(),
            report_fingerprint: self.fingerprint.hex(),
            wall_ms: self.started.elapsed().as_secs_f64() * 1e3,
            cached_cells: self.cached,
        }
    }
}

/// Validates a submitted plan before it reaches the worker pool, so
/// rejections are structured errors instead of worker panics: a grid
/// that cannot run is `rejected`, and a family that names a processor
/// outside some config's system is a `bad-request`.
fn validate_plan(plan: &SweepPlan) -> Result<(), (ErrorCode, String)> {
    if plan.configs.is_empty() || plan.adversaries.is_empty() || plan.seeds_per_cell == 0 {
        return Err((
            ErrorCode::Rejected,
            "empty sweep grid (configs, adversaries, and seeds_per_cell must all be non-empty)"
                .to_string(),
        ));
    }
    for config in &plan.configs {
        config
            .spec
            .validate(config.n, config.t)
            .map_err(|e| (ErrorCode::Rejected, format!("{}: {e}", config.spec.name())))?;
    }
    for family in plan.adversaries.iter().filter_map(AdversaryFamily::family) {
        if let Some(config) = plan.configs.iter().find(|config| !family.fits(config.n)) {
            return Err((
                ErrorCode::BadRequest,
                format!(
                    "{} names a processor outside n = {}",
                    family.name(),
                    config.n
                ),
            ));
        }
    }
    Ok(())
}

/// How a connection's event loop ended.
#[derive(PartialEq, Eq)]
enum ConnExit {
    /// Client left, daemon stopping, or a write failed: flush what is
    /// buffered and close the socket.
    Clean,
    /// Slow-loris shed: a write made no progress for [`SHED_GRACE_MS`]
    /// because the client stopped reading. Close the socket with
    /// whatever is still buffered — the stalled client was not reading
    /// those frames anyway.
    Shed,
    /// This connection received the `shutdown` op: tear down like
    /// `Clean`, then stop the daemon. Deferring `begin_stop` until
    /// after the `bye` is written and the socket has closed gracefully
    /// guarantees the frame reaches the client — stopping first lets
    /// the process exit (and the OS reset the socket) while the `bye`
    /// is still buffered.
    Stop,
}

/// How long a write to a client may make no progress before the
/// connection is shed — the send timeout of every accepted socket. A
/// healthy reader empties kernel buffers in milliseconds, so a send
/// buffer ([`ServeOptions::send_buffer`]) that stays full this long
/// means the client has genuinely stopped reading. (A write the kernel
/// took part of before stalling returns short after one period and
/// times out on the next, so the shed comes within two.)
const SHED_GRACE_MS: u64 = 500;

/// Buffered frame bytes past which [`FrameSink::send`] writes without
/// waiting for the event queue to empty, so a burst — a fully cached
/// grid answers every cell in one event — is streamed, not held.
const FLUSH_BYTES: usize = 64 * 1024;

/// The connection's write half, owned by its event thread: frames are
/// encoded into one reused buffer and leave in one write per wake-up.
/// Only this thread ever blocks on the socket, and for at most
/// [`SHED_GRACE_MS`] without progress.
struct FrameSink {
    conn: Box<dyn Conn>,
    buf: String,
}

impl FrameSink {
    fn send(&mut self, frame: &Frame) -> Result<(), ConnExit> {
        frame.write_text(&mut self.buf);
        self.buf.push('\n');
        if self.buf.len() >= FLUSH_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes the buffered frames. A timed-out write means the client
    /// has stalled while the daemon streams — grounds for shedding it.
    fn flush(&mut self) -> Result<(), ConnExit> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let written = self.conn.write_all(self.buf.as_bytes());
        self.buf.clear();
        written.map_err(|e| match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ConnExit::Shed,
            _ => ConnExit::Clean,
        })
    }
}

/// Serves one client connection to completion.
fn handle_connection(conn: Box<dyn Conn>, shared: &Arc<Shared>) {
    let Ok(read_half) = conn.try_clone_conn() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<ConnEvent>();
    let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    shared
        .conns
        .lock()
        .expect("conn registry")
        .insert(conn_id, tx.clone());
    let reader_tx = tx.clone();
    let reader = std::thread::Builder::new()
        .name("sg-serve-read".to_string())
        .spawn(move || read_requests(read_half, &reader_tx))
        .expect("spawn connection reader");

    let mut sink = FrameSink {
        conn,
        buf: String::new(),
    };
    let exit = connection_loop(&rx, &tx, &mut sink, shared);
    shared.conns.lock().expect("conn registry").remove(&conn_id);
    if exit == ConnExit::Shed {
        eprintln!("sg-serve: shed connection {conn_id}: no read for {SHED_GRACE_MS} ms");
    } else {
        let _ = sink.flush();
    }
    // Shutting the socket down for real sends the client EOF (dropping
    // our handle alone would not, the reader still holds a clone) and
    // unblocks that reader.
    sink.conn.shutdown_conn();
    if exit == ConnExit::Stop {
        // The `bye` is written and the socket closed gracefully — now
        // it is safe to let the daemon (and the process) wind down.
        shared.begin_stop();
    }
    let _ = reader.join();
}

/// Reader half: turns NDJSON lines into [`ConnEvent::Request`]s.
fn read_requests(conn: Box<dyn Conn>, tx: &Sender<ConnEvent>) {
    let mut lines = BufReader::new(conn);
    let mut line = String::new();
    loop {
        line.clear();
        match lines.read_line(&mut line) {
            Ok(0) | Err(_) => {
                let _ = tx.send(ConnEvent::Gone);
                return;
            }
            Ok(_) => {
                let text = line.trim();
                if text.is_empty() {
                    continue;
                }
                let parsed = match Json::parse(text) {
                    Err(e) => Err((ErrorCode::BadJson, e.to_string())),
                    Ok(doc) => Request::from_json(&doc).map_err(|e| {
                        if e.detail.contains("unsupported protocol") {
                            (ErrorCode::UnsupportedProto, e.to_string())
                        } else {
                            (ErrorCode::BadRequest, e.to_string())
                        }
                    }),
                };
                if tx.send(ConnEvent::Request(parsed)).is_err() {
                    return;
                }
            }
        }
    }
}

/// The connection's event loop: requests in, frames out. However the
/// loop ends (client EOF, shed, shutdown), every job the connection
/// still owns is cancelled so workers stop burning time for a client
/// that left.
fn connection_loop(
    rx: &Receiver<ConnEvent>,
    tx: &Sender<ConnEvent>,
    sink: &mut FrameSink,
    shared: &Arc<Shared>,
) -> ConnExit {
    let mut streams: HashMap<u64, StreamState> = HashMap::new();
    let exit = match connection_events(rx, tx, sink, shared, &mut streams) {
        Ok(()) => ConnExit::Clean,
        Err(exit) => exit,
    };
    for state in streams.values() {
        state.job.cancel();
    }
    exit
}

/// The fallible inner loop of [`connection_loop`]; a dead or stalled
/// socket propagates out as [`ConnExit`] and the caller cleans up.
fn connection_events(
    rx: &Receiver<ConnEvent>,
    tx: &Sender<ConnEvent>,
    sink: &mut FrameSink,
    shared: &Arc<Shared>,
    streams: &mut HashMap<u64, StreamState>,
) -> Result<(), ConnExit> {
    // A shutdown raced this connection's registration: wind down now
    // rather than waiting for an event that may never come.
    if shared.stop.load(Ordering::SeqCst) {
        return Ok(());
    }
    loop {
        // Block only with nothing left to say: every event already
        // queued is answered into the sink's buffer first, and the lot
        // leaves in one write.
        let event = match rx.try_recv() {
            Ok(event) => event,
            Err(_) => {
                sink.flush()?;
                match rx.recv() {
                    Ok(event) => event,
                    Err(_) => break,
                }
            }
        };
        match event {
            ConnEvent::Request(Ok(Request::Ping)) => sink.send(&Frame::Pong {
                journal_hits: shared.journal_hits.load(Ordering::SeqCst),
                journal_misses: shared.journal_misses.load(Ordering::SeqCst),
            })?,
            ConnEvent::Request(Ok(Request::Shutdown)) => {
                sink.send(&Frame::Bye)?;
                // Don't begin_stop here: the caller does, after the
                // `bye` is written (see `ConnExit::Stop`).
                return Err(ConnExit::Stop);
            }
            ConnEvent::Request(Ok(Request::Drain)) => {
                // Ack first: the drain frame must precede the `bye`
                // that a zero-job drain triggers immediately.
                let active = shared.active_jobs.load(Ordering::SeqCst);
                sink.send(&Frame::Draining {
                    active_jobs: active,
                })?;
                shared.begin_drain();
            }
            ConnEvent::Request(Ok(Request::Submit { plan, deadline_ms })) => {
                if let Err((code, detail)) = validate_plan(&plan) {
                    sink.send(&Frame::Error {
                        code,
                        detail,
                        job: None,
                    })?;
                    continue;
                }
                let cap = shared.options.max_jobs_per_conn;
                if cap > 0 && streams.len() >= cap {
                    sink.send(&Frame::Rejected {
                        code: RejectCode::Saturated,
                        detail: format!("connection in-flight cap ({cap} jobs) reached"),
                        retry_after_ms: Some(retry_hint_ms(
                            shared.queued_runs.load(Ordering::SeqCst),
                        )),
                    })?;
                    continue;
                }
                let total_runs = plan.total_runs();
                if let Err(rejected) = shared.admit(total_runs) {
                    sink.send(&rejected)?;
                    continue;
                }
                let id = shared.next_job.fetch_add(1, Ordering::Relaxed);
                let cells = plan.cell_count();
                // Resolve the plan against the journal before any worker
                // sees it: hits stream below, only the delta is queued.
                let mut journal_keys = Vec::new();
                let mut hits: Vec<Option<Box<CellReport>>> = Vec::new();
                if let Some(journal) = &shared.journal {
                    journal_keys = plan.cell_keys();
                    let journal = journal.lock().expect("journal");
                    let epoch = plan.epoch();
                    let lookup = |(cell, key): (usize, &Option<_>)| {
                        plan.cached_cell(&journal, epoch, cell, (*key)?)
                            .unwrap_or_else(|warning| {
                                eprintln!("sg-serve: {warning}");
                                None
                            })
                            .map(Box::new)
                    };
                    hits = journal_keys.iter().enumerate().map(lookup).collect();
                }
                let cached: Vec<bool> = hits.iter().map(Option::is_some).collect();
                let cached_count = hits.iter().flatten().count();
                if shared.journal.is_some() {
                    shared
                        .journal_hits
                        .fetch_add(cached_count as u64, Ordering::SeqCst);
                    shared
                        .journal_misses
                        .fetch_add((cells - cached_count) as u64, Ordering::SeqCst);
                }
                let job = Arc::new(Job {
                    id,
                    plan,
                    deadline: deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
                    cancel: AtomicBool::new(false),
                    core: Mutex::new(JobCore {
                        next_cell: 0,
                        outstanding: 0,
                        done: cached_count,
                        cancelled: false,
                        deadline_hit: false,
                        terminal_sent: false,
                    }),
                    events: tx.clone(),
                    journal_keys,
                    cached,
                    shared: Arc::downgrade(shared),
                });
                sink.send(&Frame::Accepted {
                    job: id,
                    cells,
                    total_runs,
                })?;
                let mut state = StreamState {
                    job: Arc::clone(&job),
                    started: Instant::now(),
                    pending: BTreeMap::new(),
                    next_emit: 0,
                    emitted: 0,
                    cached: cached_count,
                    fingerprint: Fingerprint::new(),
                };
                for (index, hit) in hits.into_iter().enumerate() {
                    if let Some(cell) = hit {
                        state.pending.insert(index, cell);
                    }
                }
                state.emit_ready(id, sink)?;
                if cached_count == cells {
                    // Fully warm: no worker will ever touch this job, so
                    // the connection thread owns its terminal frame.
                    // Release before the summary send: both orders put
                    // the summary ahead of any drain-completion `bye`
                    // (frames leave through this thread's sink in call
                    // order), but this one cannot leak the admission
                    // budget if the send fails.
                    job.core.lock().expect("job core").terminal_sent = true;
                    shared.release(total_runs);
                    sink.send(&state.summary(id))?;
                } else {
                    streams.insert(id, state);
                    shared.enqueue(job);
                }
            }
            ConnEvent::Request(Ok(Request::Cancel { job })) => match streams.get(&job) {
                Some(state) => state.job.cancel(),
                None => sink.send(&Frame::Error {
                    code: ErrorCode::UnknownJob,
                    detail: format!("no active job {job} on this connection"),
                    job: Some(job),
                })?,
            },
            ConnEvent::Request(Err((code, detail))) => sink.send(&Frame::Error {
                code,
                detail,
                job: None,
            })?,
            ConnEvent::Gone => break,
            ConnEvent::Stopping => {
                let _ = sink.send(&Frame::Bye);
                break;
            }
            ConnEvent::Job(id, event) => {
                let Some(state) = streams.get_mut(&id) else {
                    continue; // stray event after the job's terminal frame
                };
                match event {
                    JobEvent::Cells { cells, last } => {
                        state.pending.extend(cells);
                        state.emit_ready(id, sink)?;
                        if last {
                            debug_assert!(state.pending.is_empty());
                            let summary = state.summary(id);
                            sink.send(&summary)?;
                            streams.remove(&id);
                        }
                    }
                    JobEvent::Cancelled => {
                        let cells_streamed = state.emitted;
                        sink.send(&Frame::Cancelled {
                            job: id,
                            cells_streamed,
                        })?;
                        streams.remove(&id);
                    }
                    JobEvent::DeadlineExceeded => {
                        let detail = format!(
                            "deadline exceeded after {} of {} cells; streamed cells remain valid",
                            state.emitted,
                            state.job.cell_count()
                        );
                        sink.send(&Frame::Error {
                            code: ErrorCode::DeadlineExceeded,
                            detail,
                            job: Some(id),
                        })?;
                        streams.remove(&id);
                    }
                    JobEvent::Failed { detail } => {
                        sink.send(&Frame::Error {
                            code: ErrorCode::JobFailed,
                            detail,
                            job: Some(id),
                        })?;
                        streams.remove(&id);
                    }
                }
            }
        }
    }
    Ok(())
}
