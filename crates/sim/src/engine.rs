//! The synchronous execution engine.
//!
//! Implements the paper's model (§2): `n` processors in lockstep rounds
//! over a fully reliable complete network, with a distinguished source and
//! a full-information rushing adversary controlling the faulty set.
//!
//! Each round the engine:
//!
//! 1. collects every honest processor's broadcast;
//! 2. runs *shadow* copies of faulty processors to learn what they would
//!    have sent honestly, and shows both to the adversary;
//! 3. asks the adversary for each faulty sender's row — its payload per
//!    recipient — with one [`Adversary::row`] call per faulty sender;
//! 4. delivers complete inboxes to every processor (real and shadow),
//!    whose packed view a receiver builds only if it asks (below);
//! 5. accounts honest traffic, local work and peak space;
//! 6. consults every correct processor's [`Protocol::round_status`] and
//!    terminates the run early once all of them are ready to decide —
//!    the paper's *expedite* dividend, measurable as
//!    [`Outcome::rounds_used`]` < `[`Outcome::scheduled_rounds`]. Whether
//!    a run may stop early is part of *which execution was asked for*:
//!    [`RunConfig::fixed_length`] clears [`RunConfig::early_stopping`]
//!    and the run executes its full static schedule;
//! 7. consults every correct processor's [`Protocol::next_action`] — the
//!    dynamic-schedule dispatch. The run loop is no longer a fixed
//!    `for round in 1..=total_rounds()`: protocols choose their next
//!    segment at runtime ([`crate::GearAction`]), the engine commits a
//!    gear shift on a unanimous correct-processor proposal (calling
//!    [`Protocol::shift_gear`] on every instance, shadows included), and
//!    the run ends when every correct processor reports its schedule
//!    finished. The default `next_action` replays the static schedule,
//!    so fixed-schedule protocols execute bit-identically to the
//!    pre-dynamic engine; `total_rounds()` stays a hard ceiling the
//!    engine never exceeds. Dynamic dispatch is part of the protocol's
//!    schedule, not an observation optimization, so it stays active
//!    in [`RunConfig::fixed_length`] runs.
//!
//! After the last round it collects the correct processors' decisions
//! and reduces their [`ProcCtx`] folds into [`Outcome::lock_in`] and
//! [`Outcome::discoveries`] — kept whether or not the run records its
//! event log ([`RunConfig::trace`]), so a sweep samples a run without
//! one.
//!
//! # Allocation discipline
//!
//! Large sweeps execute millions of rounds, so the round loop is
//! allocation-lean: all per-round buffers (the round's broadcast
//! tables, the faulty senders' payload rows, the delivery inbox — and the
//! per-processor contexts) live in a [`RunArena`] that is recycled across
//! rounds *and* across runs through a thread-local pool, and protocol
//! *instances* are recycled through the arena's keyed
//! [instance pool](PoolKey) via [`Protocol::reset`] — the factory is only
//! consulted on a pool miss. Set-up and per-round bookkeeping are
//! `O(t·n)`: a run touches the rows of its faulty senders and nothing
//! else of the `n × n` payload matrix. Broadcasts are owned values that
//! move from [`Protocol::outgoing`] into the [`Inbox`], and lies are
//! written in place: the faulty rows persist across rounds and runs, and
//! each [`Adversary::row`] call — the adversary's one lie method —
//! overwrites its sender's row, so a strategy can reuse every slot's
//! buffer ([`crate::reference`] makes the same call into a fresh row). Nothing is reference-counted,
//! so the engine side of a round allocates nothing and does no atomic
//! operation.
//!
//! # Bit-packed binary fast path
//!
//! For binary-domain runs at `n ≤ 64` a delivered inbox has a
//! [`PackedBallots`](crate::PackedBallots) view ([`Inbox::ballots`]):
//! one bit per sender for single-value broadcasts, letting receivers
//! tally majorities and thresholds with `count_ones()` word operations
//! instead of touching `n` payloads. The view is built on demand: once
//! per round, after the broadcast table is filled, the engine stores its
//! base masks in the inbox, and a receiver that asks adds its own
//! entries of the faulty rows (every slot, under cut edges). So the
//! packed and unpacked read paths are bit-identical by construction, and
//! a round whose receivers never ask — a tree round that reads only the
//! source — builds no per-receiver view. The input selects the path
//! (`n > 64` or a wider domain reads payloads); [`crate::reference`],
//! whose inboxes are built by [`Inbox::set`] and so have no view, holds
//! it to that.

use std::cell::RefCell;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::adversary::{Adversary, AdversaryView};
use crate::id::{ProcessId, ProcessSet};
use crate::metrics::{Metrics, RoundStats};
use crate::payload::Payload;
use crate::pool::MruPool;
use crate::protocol::{GearAction, Inbox, ProcCtx, Protocol, RoundStatus, CUT, SENT};
use crate::sig::SigRegistry;
use crate::trace::Trace;
use crate::value::{Value, ValueDomain};

/// Identifies one protocol family + configuration *shape* for instance
/// pooling: two runs may share pooled instances only if their keys are
/// equal. The key must capture everything [`Protocol::reset`] cannot
/// re-derive from its arguments — the algorithm (including block
/// parameters), `n`, `t`, and anything else that shapes the instance's
/// round plan or internal structures.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PoolKey(u64);

impl PoolKey {
    /// FNV-1a over the given words' little-endian bytes
    /// ([`crate::fnv::mix_word`]) — allocation-free, so computing a key
    /// per run costs nothing.
    pub fn of(words: &[u64]) -> Self {
        PoolKey(
            words
                .iter()
                .fold(crate::fnv::OFFSET, |h, &w| crate::fnv::mix_word(h, w)),
        )
    }
}

/// Static parameters of one execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RunConfig {
    /// System size.
    pub n: usize,
    /// Fault bound the protocol is instantiated for.
    pub t: usize,
    /// The distinguished source processor.
    pub source: ProcessId,
    /// The source's initial value.
    pub source_value: Value,
    /// The agreement value domain.
    pub domain: ValueDomain,
    /// Whether to record the event log ([`Outcome::trace`]). The
    /// lock-in and discovery folds ([`Outcome::lock_in`],
    /// [`Outcome::discoveries`]) are kept either way.
    pub trace: bool,
    /// Whether to attach a signature registry (authenticated baselines).
    pub authenticated: bool,
    /// Whether the run may end once every correct processor reports
    /// [`RoundStatus::ReadyToDecide`] (`true` by default). Off, it
    /// executes its full static schedule — the fixed-length behaviour
    /// the `40c18433ac711905` reference fingerprint was recorded under.
    pub early_stopping: bool,
}

impl RunConfig {
    /// A standard configuration: source `P0`, source value 1, binary
    /// domain, no tracing, early stopping.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the implied source index is out of range.
    pub fn new(n: usize, t: usize) -> Self {
        assert!(n > 0, "need at least one processor");
        RunConfig {
            n,
            t,
            source: ProcessId(0),
            source_value: Value(1),
            domain: ValueDomain::binary(),
            trace: false,
            authenticated: false,
            early_stopping: true,
        }
    }

    /// Sets the source's initial value.
    pub fn with_source_value(mut self, v: Value) -> Self {
        self.source_value = v;
        self
    }

    /// Sets the value domain.
    pub fn with_domain(mut self, domain: ValueDomain) -> Self {
        self.domain = domain;
        self
    }

    /// Enables tracing.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Attaches a signature registry for authenticated baselines.
    pub fn with_authentication(mut self) -> Self {
        self.authenticated = true;
        self
    }

    /// Runs the full static schedule: no status-driven early stop.
    pub fn fixed_length(mut self) -> Self {
        self.early_stopping = false;
        self
    }
}

/// The result of one execution.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The configuration that produced this outcome.
    pub config: RunConfig,
    /// The corrupted set the adversary chose.
    pub faulty: ProcessSet,
    /// Decision of each processor; `None` for faulty processors.
    pub decisions: Vec<Option<Value>>,
    /// Rounds actually executed: the round after which every correct
    /// processor was [`RoundStatus::ReadyToDecide`] (status-driven early
    /// stopping) or reported [`GearAction::Finished`] (a dynamically
    /// shortened schedule). Equals [`Outcome::scheduled_rounds`] for a
    /// fixed-schedule run that never stopped early.
    pub rounds_used: usize,
    /// The protocol's worst-case schedule length
    /// (`Protocol::total_rounds`) — for dynamic protocols, the longest
    /// schedule any gear sequence can produce.
    pub scheduled_rounds: usize,
    /// Whether the run terminated before its worst-case schedule ended,
    /// whether by status-driven early stopping or by a dynamic gear
    /// shift shortening the schedule.
    pub early_stopped: bool,
    /// Traffic / computation / space metrics (round-resolved: one
    /// [`RoundStats`] entry per round actually executed).
    pub metrics: Metrics,
    /// Trace events (empty unless tracing was enabled).
    pub trace: Trace,
    /// The system-wide decision lock-in round: over the correct
    /// processors that reported a preferred value, the latest round from
    /// which that value always equalled the processor's decision (0 when
    /// none reported one). Read off each [`ProcCtx`]'s snapshot fold, so
    /// it is there whether or not the run traced; on a traced run it
    /// equals what `sg_analysis::lock_in` walks out of [`Outcome::trace`].
    pub lock_in: usize,
    /// The correct processors' fault discoveries: the `Discovered`
    /// events a traced run records, counted whether or not it traced.
    pub discoveries: u64,
    /// The adversary's strategy name (shared, so pooled sweeps do not
    /// allocate a name per run).
    pub adversary: Arc<str>,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome::buffer()
    }
}

impl Outcome {
    /// An empty, reusable outcome buffer for [`run_into`]: every field is
    /// overwritten by the next run, and the vectors inside (decisions,
    /// per-round metrics, local-ops, trace) keep their capacity across runs — the
    /// streaming path that retires the engine's last per-run result
    /// allocations.
    pub fn buffer() -> Self {
        Outcome {
            config: RunConfig::new(1, 0),
            faulty: ProcessSet::new(1),
            decisions: Vec::new(),
            rounds_used: 0,
            scheduled_rounds: 0,
            early_stopped: false,
            metrics: Metrics::new(0),
            trace: Trace::new(),
            lock_in: 0,
            discoveries: 0,
            adversary: Arc::from(""),
        }
    }

    /// Single pass over the decisions: whether all correct processors
    /// decided the same value, and — when they did — that value (the
    /// first correct processor's decision; `None` when no processor is
    /// correct). [`Outcome::agreement`], [`Outcome::decision`] and
    /// [`Outcome::assert_correct`] are all views of this one scan.
    fn consensus(&self) -> (bool, Option<Value>) {
        let mut seen: Option<Value> = None;
        for (i, d) in self.decisions.iter().enumerate() {
            if self.faulty.contains(ProcessId(i)) {
                continue;
            }
            match (seen, d) {
                (None, Some(v)) => seen = Some(*v),
                (Some(prev), Some(v)) if prev != *v => return (false, None),
                (_, None) => return (false, None),
                _ => {}
            }
        }
        (true, seen)
    }

    /// Whether all correct processors decided on the same value
    /// (the paper's agreement condition).
    pub fn agreement(&self) -> bool {
        self.consensus().0
    }

    /// Whether the validity condition holds: if the source is correct,
    /// every correct processor decided the source's initial value.
    /// Returns `None` when the source is faulty (condition is vacuous).
    pub fn validity(&self) -> Option<bool> {
        if self.faulty.contains(self.config.source) {
            return None;
        }
        let want = self.config.source_value;
        Some(
            self.decisions
                .iter()
                .enumerate()
                .all(|(i, d)| self.faulty.contains(ProcessId(i)) || *d == Some(want)),
        )
    }

    /// The common decision value if agreement holds.
    pub fn decision(&self) -> Option<Value> {
        self.consensus().1
    }

    /// Rounds the run saved against its static schedule — the paper's
    /// expedite quantity (0 unless the run early-stopped).
    pub fn rounds_saved(&self) -> usize {
        self.scheduled_rounds - self.rounds_used
    }

    /// Asserts agreement and validity, panicking with diagnostics
    /// otherwise. Convenient in tests and examples.
    ///
    /// # Panics
    ///
    /// Panics if agreement fails, or if the source is correct and some
    /// correct processor decided a different value.
    pub fn assert_correct(&self) {
        let (agreement, _) = self.consensus();
        assert!(
            agreement,
            "agreement violated (adversary {}, faulty {}): decisions {:?}",
            self.adversary, self.faulty, self.decisions
        );
        if let Some(valid) = self.validity() {
            assert!(
                valid,
                "validity violated (adversary {}, faulty {}, source value {}): decisions {:?}",
                self.adversary, self.faulty, self.config.source_value, self.decisions
            );
        }
    }
}

/// What stays fixed over the rounds of one execution — the part of an
/// [`AdversaryView`] that is not the round's traffic.
struct RunFrame<'a> {
    /// The run's configuration.
    config: &'a RunConfig,
    /// The protocol's schedule ceiling (`Protocol::total_rounds`).
    total_rounds: usize,
    /// The corrupted set the adversary chose for this run.
    faulty: &'a ProcessSet,
    /// Signature registry handle (authenticated baselines only).
    sigs: Option<Arc<Mutex<SigRegistry>>>,
    /// [`Adversary::has_edge_faults`], latched once per run.
    edge_faults: bool,
}

/// One lock-step round of `n` [`Protocol`] instances against one
/// [`Adversary`] — steps 1–4 of the [module docs](self) — with the
/// buffers it needs. [`run_into`] calls [`RoundNet::round`] once per
/// round; [`crate::reference`] is the only other implementation.
///
/// Payloads are not shared: every broadcast moves into the [`Inbox`]'s
/// table, every faulty row is overwritten in place by one
/// [`Adversary::row`] call, and each recipient costs one index write
/// (plus its cut row under edge faults). Every cost is per *fault*, never
/// per *pair*: only the rows of the round's faulty senders are written or
/// read, each rewritten whole every round, and [`RoundNet::begin`]
/// touches `O(n)` slots.
struct RoundNet {
    /// The broadcasts of faulty senders' honest shadows.
    shadow: Vec<Option<Payload>>,
    /// The round's broadcast table and faulty rows (see [`Inbox`]).
    inbox: Inbox,
}

impl Default for RoundNet {
    fn default() -> Self {
        RoundNet {
            shadow: Vec::new(),
            inbox: Inbox::empty(0),
        }
    }
}

impl RoundNet {
    /// Sizes the tables for `n` processors and drops every broadcast
    /// retained from earlier rounds, so none outlives its run. The faulty
    /// rows are kept: every round overwrites the slots it reads, and
    /// their buffers are what the adversary writes the next lies into.
    fn begin(&mut self, n: usize) {
        let inbox = &mut self.inbox;
        for table in [&mut self.shadow, &mut inbox.sent] {
            table.clear();
            table.resize(n, None);
        }
        inbox.route.clear();
        inbox.route.resize(n, SENT);
    }

    /// Executes round `round` for the `n` slots `protocols[i]` /
    /// `ctxs[i]` and returns its honest-traffic accounting.
    ///
    /// # Panics
    ///
    /// Panics if [`RoundNet::begin`] was not called for this `n`.
    fn round(
        &mut self,
        run: &RunFrame<'_>,
        round: usize,
        adversary: &mut dyn Adversary,
        protocols: &mut [Box<dyn Protocol>],
        ctxs: &mut [ProcCtx],
    ) -> RoundStats {
        let (config, faulty, edge_faults) = (run.config, run.faulty, run.edge_faults);
        let n = config.n;
        let RoundNet { shadow, inbox } = self;
        assert_eq!(inbox.n(), n, "begin sized the tables for another n");
        inbox.liars.clear();
        inbox.liars.extend(faulty.iter().map(ProcessId::index));

        // 1. Honest broadcasts and shadow broadcasts, moved into their
        // tables (stored once, not cloned per recipient: EIG payloads are
        // large). Both tables are fully overwritten every round, so reuse
        // leaks nothing.
        for i in 0..n {
            ctxs[i].round = round;
            let out = protocols[i].outgoing(&mut ctxs[i]);
            if faulty.contains(ProcessId(i)) {
                shadow[i] = out;
                inbox.sent[i] = None;
            } else {
                inbox.sent[i] = out;
                shadow[i] = None;
            }
        }

        // 2. Traffic accounting for honest senders (broadcast = n−1 messages).
        let bits_per_value = config.domain.bits_per_value();
        let mut stats = RoundStats {
            round,
            ..RoundStats::default()
        };
        for payload in inbox.sent.iter().flatten() {
            let values = payload.num_values() as u64;
            let bits = payload.bits(bits_per_value);
            let fanout = (n - 1) as u64;
            stats.honest_messages += fanout;
            stats.honest_values += values * fanout;
            stats.honest_bits += bits * fanout;
            stats.max_message_values = stats.max_message_values.max(values);
            stats.max_message_bits = stats.max_message_bits.max(bits);
        }

        // The packed view's base masks over the broadcast table, once per
        // round: binary-domain runs that fit one mask word have one, and
        // a receiver that asks adds its own entries of the faulty rows.
        inbox.pack_ballots(n <= 64 && config.domain.size() == 2, edge_faults);

        // 3. Adversary chooses faulty payloads, seeing all honest traffic.
        let view = AdversaryView {
            round,
            total_rounds: run.total_rounds,
            n,
            t: config.t,
            source: config.source,
            source_value: config.source_value,
            domain: config.domain,
            faulty,
            honest_broadcast: &inbox.sent,
            shadow_broadcast: shadow,
            sigs: run.sigs.clone(),
        };
        // The faulty rows, `lies[k * n + recipient]` for the `k`-th faulty
        // sender: each overwritten in place by one call (the self slot,
        // which `Inbox::from` never reads, left as it is) — senders
        // ascending, and recipients ascending within a row, the
        // `sg-trace/1` call order. Resized only when the fault count or
        // `n` changes.
        inbox.lies.resize(inbox.liars.len() * n, Payload::Missing);
        inbox.route.fill(SENT);
        for (k, &f) in inbox.liars.iter().enumerate() {
            inbox.route[f] = k as u32;
            adversary.row(ProcessId(f), &view, &mut inbox.lies[k * n..(k + 1) * n]);
        }

        // 4. Deliver the one inbox to every processor (incl. shadows):
        // the recipient is an index, and `Inbox::from` resolves its self
        // slot and its entries of the faulty rows. Per-edge faults make
        // honest slots recipient-dependent: then the recipient's cut row
        // is written into the routing — recipients ascending, senders
        // ascending.
        for i in 0..n {
            inbox.me = i;
            if edge_faults {
                for j in (0..n).filter(|&j| j != i && !faulty.contains(ProcessId(j))) {
                    let cut = adversary.edge_cut(ProcessId(j), ProcessId(i), &view);
                    inbox.route[j] = if cut { CUT } else { SENT };
                }
            }
            protocols[i].deliver(inbox, &mut ctxs[i]);
        }
        stats
    }
}

/// How many keyed instance sets an arena retains: enough for the widest
/// rotation a worker cycles through — `tree-paper`'s seven specs, every
/// one of them scalar — so no key is evicted before it comes back,
/// without hoarding memory.
const INSTANCE_CACHE_CAP: usize = 8;

/// Reusable execution buffers: broadcast tables, the faulty payload
/// matrix, the delivery inbox, per-processor contexts, and the keyed
/// protocol-instance pool.
///
/// One arena serves one execution at a time; [`run`] recycles arenas
/// through a thread-local pool so back-to-back runs (the sweep engine's
/// steady state) reuse the same heap blocks. A run overwrites whatever
/// it goes on to read, so no state flows between consecutive runs —
/// `tests/sweep_determinism.rs`, `tests/instance_pool.rs` and
/// `tests/engine_identity.rs` (one arena, changing fault sets and sizes)
/// pin this down.
#[derive(Default)]
pub struct RunArena {
    /// The round's tables and delivery inbox (see [`RoundNet`]).
    net: RoundNet,
    /// Per-processor contexts, re-initialized every run (trace buffers
    /// keep their capacity).
    ctxs: Vec<ProcCtx>,
    /// Pooled protocol-instance sets, keyed by the configuration shape
    /// that produced them.
    instances: MruPool<PoolKey, Vec<Box<dyn Protocol>>, INSTANCE_CACHE_CAP>,
}

impl RunArena {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        RunArena::default()
    }

    /// How many keyed protocol-instance sets are currently warm in this
    /// arena. Long-lived arena owners — the `sg-serve` daemon's worker
    /// threads, which hold one arena for their whole life and reuse it
    /// across requests — use this to report warm-pool state.
    pub fn pooled_instance_sets(&self) -> usize {
        self.instances.len()
    }

    /// Drops the pooled instance set for `key`, if present, leaving every
    /// other key's warmth intact.
    ///
    /// This is the targeted recovery path for a panic that unwound
    /// through a run: the executing key's instances were already taken
    /// out of the pool (and dropped by the unwind), and every
    /// other buffer is fully overwritten at the start of each run, so
    /// quarantining the one key is enough — the arena itself stays
    /// usable and *warm* for unrelated work.
    pub fn evict_instances(&mut self, key: PoolKey) {
        drop(self.instances.take(&key));
    }
}

thread_local! {
    /// Pool of arenas recycled across runs on this thread.
    static ARENA_POOL: RefCell<Vec<RunArena>> = const { RefCell::new(Vec::new()) };
}

/// How many idle arenas each thread keeps (runs never nest deeper than
/// protocol-in-protocol compositions, so a handful is plenty).
const ARENA_POOL_CAP: usize = 4;

/// Runs `body` with an arena checked out of this thread's pool.
fn with_pooled_arena<R>(body: impl FnOnce(&mut RunArena) -> R) -> R {
    let mut arena = ARENA_POOL
        .with(|pool| pool.borrow_mut().pop())
        .unwrap_or_default();
    let out = body(&mut arena);
    ARENA_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < ARENA_POOL_CAP {
            pool.push(arena);
        }
    });
    out
}

/// Runs one execution of `protocol` (instantiated per processor by `mk`)
/// against `adversary`.
///
/// `mk` is called once per processor with its [`ProcessId`]; it must embed
/// the configuration (including the source's initial value for the source
/// processor). Shadow instances for faulty processors are created with the
/// same factory and driven honestly so the adversary can see what an
/// honest version would send.
///
/// Buffers come from this thread's arena pool; see [`RunArena`]. Protocol
/// instances are built fresh — use [`run_pooled`] with a [`PoolKey`] to
/// recycle instances across runs too.
///
/// # Panics
///
/// Panics if protocol instances disagree on `total_rounds` — every
/// processor must follow the same deterministic schedule.
pub fn run<F>(config: &RunConfig, adversary: &mut dyn Adversary, mk: F) -> Outcome
where
    F: Fn(ProcessId) -> Box<dyn Protocol>,
{
    let mut out = Outcome::buffer();
    with_pooled_arena(|arena| run_into(arena, config, adversary, None, mk, &mut out));
    out
}

/// Like [`run`], but recycling protocol instances across runs through the
/// arena's keyed instance pool: on a pool hit every instance is
/// [`Protocol::reset`] instead of rebuilt, and `mk` is only consulted for
/// instances that miss (or refuse the reset). `key` must uniquely
/// identify the protocol family and configuration shape — see
/// [`PoolKey`].
pub fn run_pooled<F>(
    config: &RunConfig,
    adversary: &mut dyn Adversary,
    key: PoolKey,
    mk: F,
) -> Outcome
where
    F: Fn(ProcessId) -> Box<dyn Protocol>,
{
    let mut out = Outcome::buffer();
    with_pooled_arena(|arena| run_into(arena, config, adversary, Some(key), mk, &mut out));
    out
}

/// The engine core, with every buffer caller-held: execution scratch and
/// the keyed instance pool live in `arena`, and the result streams into
/// `out` (see [`Outcome::buffer`]) — every field is overwritten and the
/// result vectors reuse the buffer's capacity. A caller looping over runs
/// with one arena and one buffer performs no steady-state allocations for
/// buffers, instances (given a `key`; `None` builds them fresh every run,
/// as [`run`] does) or results. [`run`] and [`run_pooled`] are this
/// function over a thread-local arena and a fresh buffer, so all three
/// are bit-identical (`tests/instance_pool.rs` pins the reuse path, and
/// `tests/engine_identity.rs` holds it to [`crate::reference`]).
pub fn run_into<F>(
    arena: &mut RunArena,
    config: &RunConfig,
    adversary: &mut dyn Adversary,
    key: Option<PoolKey>,
    mk: F,
    out: &mut Outcome,
) where
    F: Fn(ProcessId) -> Box<dyn Protocol>,
{
    let n = config.n;
    arena.net.begin(n);
    let faulty = adversary.corrupt(n, config.t, config.source);
    assert_eq!(faulty.universe(), n, "fault set universe must match n");

    let sigs = config
        .authenticated
        .then(|| Arc::new(Mutex::new(SigRegistry::new())));

    // Protocol instances: recycled through the keyed pool when a key is
    // given, rebuilt by the factory otherwise (or when an instance
    // refuses its reset).
    let mut protocols = key
        .and_then(|key| arena.instances.take(&key))
        .unwrap_or_default();
    if protocols.len() == n {
        for (i, p) in protocols.iter_mut().enumerate() {
            if !p.reset(ProcessId(i), config) {
                *p = mk(ProcessId(i));
            }
        }
    } else {
        protocols.clear();
        protocols.extend((0..n).map(|i| mk(ProcessId(i))));
    }

    // Per-processor contexts, recycled from the arena (trace buffers
    // keep their capacity across runs).
    arena.ctxs.truncate(n);
    for i in arena.ctxs.len()..n {
        arena.ctxs.push(ProcCtx::new(ProcessId(i)));
    }
    for (i, ctx) in arena.ctxs.iter_mut().enumerate() {
        let p = ProcessId(i);
        ctx.reset(p, config.trace && !faulty.contains(p), sigs.clone());
    }

    let total_rounds = protocols[0].total_rounds();
    for p in &protocols {
        assert_eq!(
            p.total_rounds(),
            total_rounds,
            "all processors must agree on the round schedule"
        );
    }

    // Result storage is reused in place: the caller's buffer keeps its
    // vector capacity across runs, so the steady state allocates nothing
    // for metrics, decisions, or trace.
    out.config = *config;
    out.metrics.reset_for(n);
    out.metrics.per_round.reserve_exact(total_rounds);
    let metrics = &mut out.metrics;
    let early = config.early_stopping;

    let RunArena { net, ctxs, .. } = &mut *arena;
    let frame = RunFrame {
        config,
        total_rounds,
        faulty: &faulty,
        sigs,
        edge_faults: adversary.has_edge_faults(),
    };

    // The dynamic run loop: rounds are issued one at a time, the schedule
    // decided by the processors' `next_action` votes after each round —
    // `total_rounds` is a hard ceiling, never exceeded (the entry guard
    // also makes a zero-round schedule execute zero rounds, like the old
    // `for` loop). Static protocols (the default `next_action`) replay
    // `1..=total_rounds` exactly.
    let mut round = 0;
    let rounds_used = loop {
        if round >= total_rounds {
            break round;
        }
        round += 1;

        // 1–4. Outgoing, accounting, the adversary's rows, delivery.
        let stats = net.round(&frame, round, adversary, &mut protocols, ctxs);
        metrics.per_round.push(stats);

        // 5. Peak-space sampling (honest processors only).
        for i in 0..n {
            if !faulty.contains(ProcessId(i)) {
                metrics.peak_tree_nodes = metrics.peak_tree_nodes.max(protocols[i].space_nodes());
            }
        }

        // 6. Early stopping: terminate once every *correct* processor
        // reports its decision final (faulty processors never gate
        // termination). Reaching the schedule ceiling is not counted
        // as early.
        if early
            && round < total_rounds
            && (0..n).all(|i| {
                faulty.contains(ProcessId(i))
                    || protocols[i].round_status(&ctxs[i]) == RoundStatus::ReadyToDecide
            })
        {
            break round;
        }

        // 7. Dynamic gear dispatch: poll every correct processor's
        // next_action. The run ends when all of them report their
        // schedule finished (or at the `total_rounds` ceiling); a gear
        // shift commits only on a unanimous correct-processor proposal
        // and is then applied to every instance — honest shadows of
        // faulty processors included — so the schedule stays common.
        let mut any_correct = false;
        let mut all_finished = true;
        let mut all_shift = true;
        for i in 0..n {
            if faulty.contains(ProcessId(i)) {
                continue;
            }
            any_correct = true;
            match protocols[i].next_action(&ctxs[i]) {
                GearAction::Round => {
                    all_finished = false;
                    all_shift = false;
                }
                GearAction::ShiftGear => all_finished = false,
                GearAction::Finished => all_shift = false,
            }
        }
        if any_correct && all_finished {
            break round;
        }
        if any_correct && all_shift {
            for i in 0..n {
                protocols[i].shift_gear(&mut ctxs[i]);
            }
        }
    };
    let early_stopped = rounds_used < total_rounds;

    // Decisions (into the reused buffer).
    for ctx in ctxs.iter_mut() {
        ctx.round = 0;
    }
    out.decisions.clear();
    out.decisions.resize(n, None);
    for i in 0..n {
        if !faulty.contains(ProcessId(i)) {
            out.decisions[i] = Some(protocols[i].decide(&mut ctxs[i]));
        }
    }

    // Collect per-processor accounting (a traced run's log sized in one
    // reservation, reusing the buffer's capacity; an untraced run has
    // none to drain) and reduce the correct processors' lock-in and
    // discovery folds.
    out.trace.clear();
    if config.trace {
        out.trace.reserve(ctxs.iter().map(ProcCtx::trace_len).sum());
    }
    out.lock_in = 0;
    out.discoveries = 0;
    for (i, ctx) in ctxs.iter_mut().enumerate() {
        metrics.local_ops[i] = ctx.ops();
        if config.trace {
            ctx.drain_trace_into(&mut out.trace);
        }
        if let Some(decision) = out.decisions[i] {
            let lock_in = ctx.lock_in(decision, rounds_used).unwrap_or(0);
            out.lock_in = out.lock_in.max(lock_in);
            out.discoveries += ctx.discoveries();
        }
    }

    // Return the instances to the pool for the next run of this spec.
    if let Some(key) = key {
        arena.instances.put(key, protocols);
    }

    out.faulty = faulty;
    out.rounds_used = rounds_used;
    out.scheduled_rounds = total_rounds;
    out.early_stopped = early_stopped;
    out.adversary = adversary.name_shared();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::NoFaults;

    /// Runs fault-free on this engine *and* on [`crate::reference`],
    /// asserts the two outcomes are equal field by field, and returns
    /// one: every behaviour pinned below is pinned for both.
    fn run_both<F>(config: &RunConfig, mk: F) -> Outcome
    where
        F: Fn(ProcessId) -> Box<dyn Protocol>,
    {
        let outcome = run(config, &mut NoFaults, &mk);
        let oracle = crate::reference::run(config, &mut NoFaults, &mk);
        assert_eq!(outcome.decisions, oracle.decisions);
        assert_eq!(outcome.faulty, oracle.faulty);
        assert_eq!(outcome.metrics, oracle.metrics);
        assert_eq!(outcome.trace, oracle.trace);
        assert_eq!(outcome.lock_in, oracle.lock_in);
        assert_eq!(outcome.discoveries, oracle.discoveries);
        assert_eq!(outcome.rounds_used, oracle.rounds_used);
        assert_eq!(outcome.scheduled_rounds, oracle.scheduled_rounds);
        assert_eq!(outcome.early_stopped, oracle.early_stopped);
        outcome
    }

    /// A toy 1-round protocol: the source broadcasts its value; everyone
    /// else decides the received value (no fault tolerance).
    struct Toy {
        me: ProcessId,
        source: ProcessId,
        value: Value,
        got: Value,
    }

    impl Protocol for Toy {
        fn total_rounds(&self) -> usize {
            1
        }

        fn outgoing(&mut self, ctx: &mut ProcCtx) -> Option<Payload> {
            ctx.charge(1);
            (self.me == self.source).then(|| Payload::values([self.value]))
        }

        fn deliver(&mut self, inbox: &Inbox, ctx: &mut ProcCtx) {
            ctx.charge(1);
            if self.me != self.source {
                self.got = inbox.from(self.source).value_at(0).unwrap_or_default();
            } else {
                self.got = self.value;
            }
        }

        fn decide(&mut self, _ctx: &mut ProcCtx) -> Value {
            self.got
        }
    }

    fn toy_factory(config: &RunConfig) -> impl Fn(ProcessId) -> Box<dyn Protocol> + '_ {
        move |me| {
            Box::new(Toy {
                me,
                source: config.source,
                value: config.source_value,
                got: Value::DEFAULT,
            })
        }
    }

    #[test]
    fn fault_free_toy_run_agrees() {
        let config = RunConfig::new(4, 0).with_source_value(Value(1));
        let outcome = run_both(&config, toy_factory(&config));
        outcome.assert_correct();
        assert_eq!(outcome.decision(), Some(Value(1)));
        assert_eq!(outcome.rounds_used, 1);
    }

    #[test]
    fn traffic_accounting_counts_broadcast_fanout() {
        let config = RunConfig::new(5, 0);
        let outcome = run_both(&config, toy_factory(&config));
        // Only the source sends: 1 value to each of 4 peers, 1 bit each.
        let r1 = &outcome.metrics.per_round[0];
        assert_eq!(r1.honest_messages, 4);
        assert_eq!(r1.honest_values, 4);
        assert_eq!(r1.honest_bits, 4);
        assert_eq!(r1.max_message_values, 1);
    }

    #[test]
    fn local_ops_recorded_per_processor() {
        let config = RunConfig::new(3, 0);
        let outcome = run_both(&config, toy_factory(&config));
        // Each processor charged 1 in outgoing + 1 in deliver.
        assert_eq!(outcome.metrics.local_ops, vec![2, 2, 2]);
    }

    /// A silent protocol that runs `rounds` rounds and reports ready from
    /// the end of round `ready_after` on.
    struct Lazy {
        rounds: usize,
        ready_after: usize,
    }

    impl Protocol for Lazy {
        fn total_rounds(&self) -> usize {
            self.rounds
        }

        fn outgoing(&mut self, _ctx: &mut ProcCtx) -> Option<Payload> {
            None
        }

        fn deliver(&mut self, _inbox: &Inbox, _ctx: &mut ProcCtx) {}

        fn decide(&mut self, _ctx: &mut ProcCtx) -> Value {
            Value::DEFAULT
        }

        fn round_status(&self, ctx: &ProcCtx) -> RoundStatus {
            if ctx.round >= self.ready_after {
                RoundStatus::ReadyToDecide
            } else {
                RoundStatus::Continue
            }
        }
    }

    fn lazy(rounds: usize, ready_after: usize) -> impl Fn(ProcessId) -> Box<dyn Protocol> {
        move |_| {
            Box::new(Lazy {
                rounds,
                ready_after,
            })
        }
    }

    #[test]
    fn engine_stops_when_all_correct_processors_are_ready() {
        let outcome = run_both(&RunConfig::new(3, 0), lazy(7, 3));
        assert_eq!(outcome.rounds_used, 3);
        assert_eq!(outcome.scheduled_rounds, 7);
        assert!(outcome.early_stopped);
        assert_eq!(outcome.rounds_saved(), 4);
        assert_eq!(outcome.metrics.rounds(), 3);
    }

    #[test]
    fn reaching_the_last_round_is_not_early() {
        let outcome = run_both(&RunConfig::new(3, 0), lazy(4, 4));
        assert_eq!(outcome.rounds_used, 4);
        assert!(!outcome.early_stopped);
        assert_eq!(outcome.rounds_saved(), 0);
    }

    #[test]
    fn fixed_length_runs_ignore_round_status() {
        let outcome = run_both(&RunConfig::new(3, 0).fixed_length(), lazy(7, 2));
        assert_eq!(outcome.rounds_used, 7);
        assert!(!outcome.early_stopped);
        assert_eq!(outcome.metrics.rounds(), 7);
    }

    /// A two-segment dynamic toy: a "slow" segment of `slow_rounds`
    /// silent rounds, then — once `propose_at` is reached — a proposal to
    /// shift into a 2-round "fast" tail, after which it finishes.
    struct Gearish {
        slow_rounds: usize,
        propose_at: usize,
        /// Round at which the shift committed (0 = still in the slow
        /// segment).
        shifted_at: usize,
    }

    impl Gearish {
        fn end(&self) -> usize {
            if self.shifted_at > 0 {
                self.shifted_at + 2
            } else {
                self.slow_rounds
            }
        }
    }

    impl Protocol for Gearish {
        fn total_rounds(&self) -> usize {
            self.slow_rounds
        }

        fn outgoing(&mut self, _ctx: &mut ProcCtx) -> Option<Payload> {
            None
        }

        fn deliver(&mut self, _inbox: &Inbox, _ctx: &mut ProcCtx) {}

        fn decide(&mut self, _ctx: &mut ProcCtx) -> Value {
            Value::DEFAULT
        }

        fn next_action(&self, ctx: &ProcCtx) -> GearAction {
            if ctx.round >= self.end() {
                GearAction::Finished
            } else if self.shifted_at == 0 && ctx.round >= self.propose_at {
                GearAction::ShiftGear
            } else {
                GearAction::Round
            }
        }

        fn shift_gear(&mut self, ctx: &mut ProcCtx) {
            self.shifted_at = ctx.round;
        }
    }

    #[test]
    fn unanimous_shift_proposal_truncates_the_schedule() {
        let outcome = run_both(&RunConfig::new(3, 0), |_| {
            Box::new(Gearish {
                slow_rounds: 12,
                propose_at: 3,
                shifted_at: 0,
            })
        });
        // Shift committed after round 3; the fast tail runs rounds 4-5.
        assert_eq!(outcome.rounds_used, 5);
        assert_eq!(outcome.scheduled_rounds, 12);
        assert!(outcome.early_stopped);
        assert_eq!(outcome.metrics.rounds(), 5);
    }

    #[test]
    fn divergent_proposals_do_not_commit_a_shift() {
        // One processor proposes at round 3, the others at round 5: no
        // unanimous round exists before 5, so the shift lands there and
        // the run ends at round 7.
        let outcome = run_both(&RunConfig::new(3, 0), |me| {
            Box::new(Gearish {
                slow_rounds: 12,
                propose_at: if me == ProcessId(0) { 3 } else { 5 },
                shifted_at: 0,
            })
        });
        assert_eq!(outcome.rounds_used, 7);
        assert!(outcome.early_stopped);
    }

    #[test]
    fn zero_round_schedules_execute_no_rounds() {
        // The old `for round in 1..=0` ran nothing; the dynamic loop's
        // entry guard must preserve that for external implementations.
        let outcome = run_both(&RunConfig::new(3, 0), lazy(0, 0));
        assert_eq!(outcome.rounds_used, 0);
        assert_eq!(outcome.scheduled_rounds, 0);
        assert!(!outcome.early_stopped);
        assert_eq!(outcome.metrics.rounds(), 0);
        assert_eq!(outcome.decisions.len(), 3);
    }

    #[test]
    fn default_next_action_replays_the_static_schedule() {
        let outcome = run_both(&RunConfig::new(3, 0), lazy(4, usize::MAX));
        assert_eq!(outcome.rounds_used, 4);
        assert!(!outcome.early_stopped);
    }

    #[test]
    fn outcome_buffer_reuse_is_bit_identical() {
        let config = RunConfig::new(4, 0).with_source_value(Value(1));
        let fresh = run_both(&config, toy_factory(&config));
        let mut arena = RunArena::new();
        let mut buf = Outcome::buffer();
        // Two runs through the same buffer: the second overwrites every
        // field of the first.
        for _ in 0..2 {
            run_into(
                &mut arena,
                &config,
                &mut NoFaults,
                None,
                toy_factory(&config),
                &mut buf,
            );
        }
        assert_eq!(buf.decisions, fresh.decisions);
        assert_eq!(buf.faulty, fresh.faulty);
        assert_eq!(buf.metrics, fresh.metrics);
        assert_eq!(buf.rounds_used, fresh.rounds_used);
        assert_eq!(buf.scheduled_rounds, fresh.scheduled_rounds);
        assert_eq!(buf.trace, fresh.trace);
    }

    #[test]
    fn agreement_detects_divergence() {
        let config = RunConfig::new(3, 0);
        let mut outcome = run(&config, &mut NoFaults, toy_factory(&config));
        outcome.decisions[2] = Some(Value(0));
        assert!(!outcome.agreement());
        assert_eq!(outcome.decision(), None);
    }
}
