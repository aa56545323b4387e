//! The five workloads. A *job* is one sweep plan taken to a verified
//! report; each workload turns the run's `--seed` into `VARIANTS` plans
//! with reference fingerprints (set-up) and then serves jobs that cycle
//! through them. README.md says why each workload exists.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::stats::base_seeds;
use crate::sut::{self, Cost, Plan};
use crate::trace::{span, Scope};

pub const NAMES: [&str; 5] = [
    "king-expedite",
    "king-fullround",
    "tree-paper",
    "serve-stream",
    "journal-incremental",
];

/// Base seeds per workload: jobs cycle through this many distinct plans.
pub const VARIANTS: usize = 4;

/// Base seeds whose `king-expedite` grid the journal store holds.
const STORE_SEEDS: usize = 8;

/// A verified job.
pub struct Done {
    /// The runs the job answered for, with their simulated costs.
    pub cost: Cost,
    /// Time the job spent restoring its starting state, which the closed
    /// loop takes off the clock.
    pub untimed: Duration,
}

/// One closed-loop client of a workload.
pub trait Client: Send {
    /// Runs the client's `i`-th job and verifies its result. With a
    /// scope, the job also records its boundary spans — and in-process
    /// jobs run decomposed, one sub-plan per cell.
    fn job(&mut self, i: usize, scope: Option<&mut Scope<'_>>) -> Result<Done, String>;

    /// Exact counts the client's set-up established, reported as
    /// per-layer metrics.
    fn facts(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// A set-up workload: its clients, and the daemon they talk to if any
/// (declared after them, so connections close before it stops).
pub struct Workload {
    pub clients: Vec<Box<dyn Client>>,
    pub daemon: Option<sut::Daemon>,
}

/// Builds workload `name`'s plans and references from `seed`, and
/// whatever it serves them through. Scratch files go under `out`.
pub fn setup(name: &str, seed: u64, out: &Path) -> Result<Workload, String> {
    let in_process = |build: fn(u64) -> Plan| {
        Ok(Workload {
            clients: vec![Box::new(InProcess::new(seed, build))],
            daemon: None,
        })
    };
    match name {
        "king-expedite" => in_process(sut::king_expedite),
        "king-fullround" => in_process(sut::king_fullround),
        "tree-paper" => in_process(sut::tree_paper),
        "serve-stream" => serve_stream(seed, out),
        "journal-incremental" => Ok(Workload {
            clients: vec![Box::new(JournalClient::new(seed, out)?)],
            daemon: None,
        }),
        _ => Err(format!(
            "unknown workload '{name}' (one of: {})",
            NAMES.join(", ")
        )),
    }
}

fn check(what: &str, got: u64, reference: u64) -> Result<(), String> {
    if got == reference {
        Ok(())
    } else {
        Err(format!(
            "{what}: fingerprint {got:016x} does not reproduce the reference {reference:016x}"
        ))
    }
}

/// A plan with the fingerprint every job over it must reproduce:
/// computed in set-up on two fresh threads, whose pools start cold, so
/// the timed path (inline, warm pools) is checked against another one.
struct Checked {
    plan: Plan,
    reference: u64,
}

impl Checked {
    fn new(plan: Plan) -> Checked {
        let reference = sut::run(&plan, 2).fingerprint;
        Checked { plan, reference }
    }
}

// ----------------------------------------------------------- in-process

struct InProcess {
    variants: Vec<(Checked, Vec<sut::Cell>)>,
}

impl InProcess {
    fn new(seed: u64, build: fn(u64) -> Plan) -> InProcess {
        let variants = base_seeds(seed, VARIANTS)
            .into_iter()
            .map(|base| {
                let checked = Checked::new(build(base));
                let cells = sut::cells(&checked.plan);
                (checked, cells)
            })
            .collect();
        InProcess { variants }
    }
}

impl Client for InProcess {
    fn job(&mut self, i: usize, scope: Option<&mut Scope<'_>>) -> Result<Done, String> {
        let (checked, cells) = &self.variants[i % self.variants.len()];
        let (fingerprint, cost) = match scope {
            None => {
                let outcome = sut::run(&checked.plan, 1);
                (outcome.fingerprint, outcome.cost)
            }
            Some(scope) => {
                let mut fold = sut::Fold::new();
                let mut cost = Cost::default();
                for cell in cells {
                    cost.add(scope.span(&cell.label, || fold.run_cell(&cell.plan)));
                }
                (fold.fingerprint(), cost)
            }
        };
        check("report", fingerprint, checked.reference)?;
        Ok(Done {
            cost,
            untimed: Duration::ZERO,
        })
    }
}

// --------------------------------------------------------- serve-stream

/// Closed-loop connections to the daemon; the daemon has one worker.
const SERVE_CLIENTS: usize = 2;

/// Prefix of the failure message of a job the daemon's admission control
/// refused; `serve.rejected` counts these.
pub const REJECTED: &str = "rejected: ";

struct ServeClient {
    connection: sut::Connection,
    variants: Arc<Vec<Checked>>,
    /// Where in the variant cycle this client starts, so the clients are
    /// never all on the same plan.
    offset: usize,
}

fn serve_stream(seed: u64, out: &Path) -> Result<Workload, String> {
    // The path stays relative: a unix socket address holds ~100 bytes.
    let socket = out.join(format!("serve-{}.sock", std::process::id()));
    let daemon = sut::Daemon::start(&socket)?;
    let variants: Arc<Vec<Checked>> = Arc::new(
        base_seeds(seed, VARIANTS)
            .into_iter()
            .map(|base| Checked::new(sut::king_expedite(base)))
            .collect(),
    );
    let mut clients: Vec<Box<dyn Client>> = Vec::new();
    for k in 0..SERVE_CLIENTS {
        clients.push(Box::new(ServeClient {
            connection: daemon.connect()?,
            variants: Arc::clone(&variants),
            offset: k * VARIANTS / SERVE_CLIENTS,
        }));
    }
    Ok(Workload {
        clients,
        daemon: Some(daemon),
    })
}

impl Client for ServeClient {
    fn job(&mut self, i: usize, scope: Option<&mut Scope<'_>>) -> Result<Done, String> {
        let checked = &self.variants[(self.offset + i) % self.variants.len()];
        let served = self.connection.job(&checked.plan).map_err(|e| match e {
            sut::ServeFailure::Rejected(detail) => format!("{REJECTED}{detail}"),
            sut::ServeFailure::Other(detail) => detail,
        })?;
        if let Some(scope) = scope {
            scope.record("serve.submit", served.submitted, served.accepted);
            scope.record("serve.first_cell", served.submitted, served.first_cell);
            scope.record("serve.collect", served.accepted, served.done);
            // The daemon's own accept → last cell wall has no client-side
            // start; it is anchored at the summary frame's arrival.
            let wall = Duration::from_secs_f64(served.server_wall_ms / 1e3);
            let start = served.done.checked_sub(wall).unwrap_or(served.submitted);
            scope.record("serve.server", start, served.done);
        }
        // The served report must equal the in-process one.
        check(
            "served report",
            served.outcome.fingerprint,
            checked.reference,
        )?;
        Ok(Done {
            cost: served.outcome.cost,
            untimed: Duration::ZERO,
        })
    }
}

// -------------------------------------------------- journal-incremental

struct JournalClient {
    dir: PathBuf,
    /// The populated store's files; anything else in `dir` is a job's
    /// own segment and goes before the next job.
    keep: Vec<PathBuf>,
    /// `(grid the store holds, fresh-seed delta it does not)`.
    variants: Vec<(Checked, Checked)>,
}

fn files_in(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let listing = std::fs::read_dir(dir).map_err(|e| format!("list {}: {e}", dir.display()))?;
    let mut files = Vec::new();
    for entry in listing {
        files.push(entry.map_err(|e| e.to_string())?.path());
    }
    Ok(files)
}

/// The grids `journal-incremental`'s store holds, and the fresh-seed
/// deltas it does not; job variant `k` asks for `stored[k]`, then
/// `deltas[k]`.
pub fn journal_plans(seed: u64) -> (Vec<Plan>, Vec<Plan>) {
    let seeds = base_seeds(seed, STORE_SEEDS + VARIANTS);
    let (stored, fresh) = seeds.split_at(STORE_SEEDS);
    (
        stored
            .iter()
            .map(|&base| sut::king_expedite(base))
            .collect(),
        fresh.iter().map(|&base| sut::journal_delta(base)).collect(),
    )
}

impl JournalClient {
    fn new(seed: u64, out: &Path) -> Result<JournalClient, String> {
        let dir = out.join(format!("journal-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (stored, deltas) = journal_plans(seed);
        let mut store = sut::Store::open(&dir)?;
        let mut references = Vec::new();
        for plan in &stored {
            // Two workers: the populating run doubles as the reference.
            references.push(store.run(plan, 2)?.outcome.fingerprint);
        }
        drop(store);
        let variants = stored
            .into_iter()
            .zip(references)
            .zip(deltas)
            .map(|((plan, reference), delta)| (Checked { plan, reference }, Checked::new(delta)))
            .collect();
        Ok(JournalClient {
            keep: files_in(&dir)?,
            dir,
            variants,
        })
    }
}

impl Client for JournalClient {
    fn job(&mut self, i: usize, mut scope: Option<&mut Scope<'_>>) -> Result<Done, String> {
        let (warm, delta) = &self.variants[i % self.variants.len()];
        let scope = &mut scope;
        let timed = (|| {
            let mut store = span(scope, "journal.open", || sut::Store::open(&self.dir))?;
            let hit = span(scope, "journal.warm", || store.run(&warm.plan, 1))?;
            let miss = span(scope, "journal.delta", || store.run(&delta.plan, 1))?;
            span(scope, "journal.close", || drop(store));
            Ok::<_, String>((hit, miss))
        })();

        // Off the clock: delete what the job appended, so every job
        // opens the same store — also after a failed job.
        let cleaning = Instant::now();
        for path in files_in(&self.dir)? {
            if !self.keep.contains(&path) {
                std::fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            }
        }
        let untimed = cleaning.elapsed();
        if let Some(scope) = scope {
            scope.record("journal.cleanup", cleaning, cleaning + untimed);
        }

        let (hit, miss) = timed?;
        let cells = sut::cell_count;
        if (hit.hits, hit.computed) != (cells(&warm.plan), 0) {
            return Err(format!(
                "stored grid: {} hits, {} computed (want all hits)",
                hit.hits, hit.computed
            ));
        }
        if (miss.hits, miss.computed) != (0, cells(&delta.plan)) {
            return Err(format!(
                "fresh delta: {} hits, {} computed (want all computed)",
                miss.hits, miss.computed
            ));
        }
        check("stored grid", hit.outcome.fingerprint, warm.reference)?;
        check("fresh delta", miss.outcome.fingerprint, delta.reference)?;
        let mut cost = hit.outcome.cost;
        cost.add(miss.outcome.cost);
        Ok(Done { cost, untimed })
    }

    /// The populated store's size on disk — exact for a seed, since the
    /// store's lines are a function of it.
    fn facts(&self) -> Vec<(&'static str, f64)> {
        let bytes: u64 = self
            .keep
            .iter()
            .filter_map(|path| std::fs::metadata(path).ok())
            .map(|meta| meta.len())
            .sum();
        vec![("journal.store_kb", bytes as f64 / 1e3)]
    }
}

impl Drop for JournalClient {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}
