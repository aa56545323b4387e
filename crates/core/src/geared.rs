//! The plan-driven protocol machine.
//!
//! [`GearedProtocol`] interprets a round plan (see [`crate::plan`]) over
//! the paper's two principal data structures — the no-repetition
//! [`IgTree`] and Algorithm C's [`RepTree`] — with one shared auxiliary
//! structure, the fault list `L_p`. Because shifting only converts the
//! principal structure and leaves the auxiliary ones intact (§4), *every*
//! algorithm in the paper (and the hybrid that shifts across all three) is
//! an instance of this one machine with a different plan.
//!
//! The machine stops early on the *echo rule*: at a block's first gather
//! a processor is ready once all but `t` of the echoes it stored repeat
//! its own root. The rule, its four-line soundness argument and the
//! tests it leans on are on [`GearedProtocol`]; the lock-in
//! *measurement* for tree runs lives in `sg_analysis::stability`.

use sg_eigtree::{
    convert, discover_during_conversion_into, discover_ig_into, Claim, DiscoveryReport, FaultList,
    IgTree, Planes, RepTree,
};
use sg_sim::{
    Inbox, Payload, ProcCtx, ProcessId, ProcessSet, Protocol, RoundStatus, RunConfig, SmallWords,
    TraceEvent, Value,
};

use crate::params::Params;
use crate::plan::RoundAction;

/// Empties a claims table and hands its allocation on under another
/// lifetime, so an instance can keep between rounds the table a gather
/// round borrows from its inbox: collecting an emptied `Vec`'s iterator
/// into a `Vec` of the same layout reuses the allocation
/// (`crates/core/tests/alloc_free.rs` holds the toolchain to that).
fn recycle<'a>(mut claims: Vec<Claim<'_>>) -> Vec<Claim<'a>> {
    claims.clear();
    claims
        .into_iter()
        .map(|_| -> Claim<'a> { unreachable!("the table was cleared") })
        .collect()
}

/// The echo rule's threshold (see [`GearedProtocol`]): all but at most `t`
/// of a block's first-gather `echoes` equal the `root` they echo — one
/// popcount of the level's planes.
fn echo_quorum(echoes: &Planes, root: Value, t: usize) -> bool {
    echoes.count(root) + t >= echoes.len()
}

/// One processor's instance of a plan-driven agreement protocol.
///
/// Construct through [`crate::AlgorithmSpec::build`] (or the factory on
/// [`crate::AlgorithmSpec`]) rather than directly; the spec validates
/// parameters and picks the right plan.
///
/// # Early stopping: the echo rule
///
/// The first gather round of every block is a round of *echoes*: each
/// non-source processor relays the root it entered the block with (in the
/// with-repetitions tree the source echoes too). At that round — the one
/// whose delivery makes `tree.deepest_level() == 1`, and
/// [`RoundAction::RepFirstGather`] for Algorithm C — a processor reports
/// [`RoundStatus::ReadyToDecide`] iff at least `n − 1 − t` of the `n − 1`
/// stored level-1 echoes (`n − t` of the `n` intermediates) equal its own
/// root. The source is always ready, and `decide` is unchanged: it
/// returns the root it always returned.
///
/// An echo round holds one slot per sender, so when the engine attaches
/// its [`sg_sim::PackedBallots`] (binary domain, `n ≤ 64`) the round is
/// read as one word — the `ones` mask with `L_p` cleared and the
/// receiver's own root in its own bit — and builds no claims table: the
/// level is stored from the word ([`IgTree::append_echo`],
/// [`RepTree::store_echo`]), and the Fault Discovery Rule and this
/// threshold then run on the stored level as on every other. Without
/// ballots (`n > 64`, wider domains, the reference engine) the level is
/// stored from the senders' claims; `tests/engine_identity.rs` holds the
/// two readings to each other.
///
/// This is sound under the hook contract — a status only has to be final
/// *given that every other correct processor is ready in the same round*
/// (docs/ARCHITECTURE.md, "Early stopping"). Let the source be faulty and
/// `f′ ≤ t − 1` of the other names be faulty too. Two ready processors
/// with different roots would each need at least `n − 1 − t − f′` correct
/// echoers of their own root, two disjoint sets drawn from the
/// `n − 1 − f′` correct non-source names: `n ≤ 1 + 2t + f′ ≤ 3t`,
/// impossible at `n ≥ 3t + 1`. (With a correct source every correct root
/// already is the source's value.) So when all correct processors are
/// ready they entered the block with one common root, and the
/// Persistence Lemma (`tests/lemma_checks.rs`:
/// `persistence_lemma_across_shifts`,
/// `persistence_analogue_in_algorithm_c`) carries that value through
/// every later block, shift and king tail: the fixed-length run decides
/// it too. `tests/echo_rule.rs` checks exactly that, exhaustively.
///
/// The verdict is recomputed at each block's first gather and simply
/// stays latched in between. That is deliberate, not an oversight: were
/// every correct processor latched, the run would already have ended at
/// the round that latched them, so clearing the flag mid-block (or at a
/// conversion) changes no execution. Only [`Protocol::reset`] clears it.
pub struct GearedProtocol {
    params: Params,
    me: ProcessId,
    /// The source's initial value; `Some` iff `me == source`.
    input: Option<Value>,
    /// Whether fault discovery + masking are active (the paper's
    /// "modified" Exponential Algorithm; off only for the plain PSL-style
    /// baseline).
    modified: bool,
    plan: Vec<RoundAction>,
    tree: IgTree,
    rep: RepTree,
    faults: FaultList,
    /// High-water mark of live principal-structure nodes, so the space
    /// bound reflects the gathered tree even though block conversions
    /// shrink it before the engine samples.
    peak_nodes: u64,
    /// The echo rule's verdict at the current block's first gather (see
    /// the type docs); cleared only by `reset`.
    echo_quorum: bool,
    /// Gather-round scratch, so a warm instance gathers without allocating:
    /// the (empty between rounds) claims table.
    claims: Vec<Claim<'static>>,
    /// Discovery scratch, so a warm instance records what it discovers
    /// without allocating: the last discovery rule's report, and the
    /// processors it newly admitted to `L_p`.
    report: DiscoveryReport,
    newly: ProcessSet,
}

impl GearedProtocol {
    /// Builds an instance for processor `me`.
    ///
    /// `input` must be `Some` exactly when `me` is the source.
    ///
    /// # Panics
    ///
    /// Panics if `input.is_some() != (me == params.source)` or the plan is
    /// empty / does not start with [`RoundAction::Initial`].
    pub fn new(
        params: Params,
        me: ProcessId,
        input: Option<Value>,
        modified: bool,
        plan: Vec<RoundAction>,
    ) -> Self {
        assert_eq!(
            input.is_some(),
            me == params.source,
            "exactly the source carries an input"
        );
        assert!(
            matches!(plan.first(), Some(RoundAction::Initial)),
            "plans start with the source's broadcast round"
        );
        GearedProtocol {
            tree: IgTree::new(params.n, params.source),
            rep: RepTree::new(params.n, params.source),
            faults: FaultList::new(params.n),
            params,
            me,
            input,
            modified,
            plan,
            peak_nodes: 0,
            echo_quorum: false,
            claims: Vec::new(),
            report: DiscoveryReport::default(),
            newly: ProcessSet::new(params.n),
        }
    }

    /// Records the current structure sizes into the high-water mark.
    fn note_peak(&mut self) {
        let live = self.tree.node_count() + self.rep.node_count();
        self.peak_nodes = self.peak_nodes.max(live);
    }

    /// This processor's current list `L_p` of discovered faults.
    pub fn fault_list(&self) -> &FaultList {
        &self.faults
    }

    /// The no-repetition information-gathering tree (inspection hook for
    /// executable-lemma tests).
    pub fn tree(&self) -> &IgTree {
        &self.tree
    }

    /// The with-repetitions tree (inspection hook for executable-lemma
    /// tests).
    pub fn rep(&self) -> &RepTree {
        &self.rep
    }

    /// The round plan being interpreted.
    pub fn plan(&self) -> &[RoundAction] {
        &self.plan
    }

    /// The current preferred value (root of the active principal
    /// structure).
    pub fn preferred(&self) -> Value {
        if self.rep_active() {
            self.rep.preferred()
        } else {
            self.tree.root()
        }
    }

    /// Whether the with-repetitions structure is the active one (i.e. the
    /// execution has reached a rep-gather round).
    fn rep_active(&self) -> bool {
        self.rep.has_intermediates()
    }

    fn action(&self, round: usize) -> RoundAction {
        self.plan[round - 1]
    }

    /// A tree level as a broadcast payload: on the binary domain its one
    /// plane's words as they are (inline up to 256 slots, one exact-size
    /// buffer beyond), a plain value vector otherwise.
    fn level_payload(&self, level: &Planes) -> Payload {
        if self.params.domain.size() == 2 {
            assert_eq!(level.planes(), 1, "a binary level holds one plane");
            let plane = level.plane(0);
            let words = if plane.len() <= 4 {
                let mut words = [0; 4];
                words[..plane.len()].copy_from_slice(plane);
                SmallWords::Inline(words)
            } else {
                SmallWords::Heap(plane.to_vec())
            };
            Payload::Bits {
                words,
                len: level.len() as u32,
            }
        } else {
            Payload::Values(level.to_vec())
        }
    }

    /// Every sender's [`Claim`] for this round, indexed by processor, in
    /// the kept table (handed back through [`recycle`]): the receiver's
    /// own, the defaults of a processor in `L_p`, or what the message
    /// carries.
    fn claims<'a>(&mut self, inbox: &'a Inbox) -> Vec<Claim<'a>> {
        // Empty, and `Claim` is covariant: the kept `'static` table
        // shortens to this round's lifetime as is.
        let mut claims: Vec<Claim<'a>> = std::mem::take(&mut self.claims);
        claims.extend((0..self.params.n).map(ProcessId).map(|q| {
            if q == self.me {
                Claim::Own
            } else if self.faults.contains(q) {
                Claim::Defaults
            } else {
                match inbox.from(q) {
                    Payload::Values(vals) => Claim::Values(vals),
                    Payload::Bits { words, len } => Claim::Bits {
                        words: match words {
                            SmallWords::Inline(w) => w,
                            SmallWords::Heap(w) => w,
                        },
                        len: *len as usize,
                    },
                    Payload::Signed(_) | Payload::Missing => Claim::Defaults,
                }
            }
        }));
        claims
    }

    /// An echo round read off the engine's packed ballots, with the §3
    /// rules of [`GearedProtocol::claims`] applied to the `ones` mask: a
    /// sender in `L_p` reads as the default, and the receiver's own slot
    /// holds its `own` root — ahead of `L_p`, since a shadow may list
    /// itself. `None` — read the payload slots —
    /// without ballots (`n > 64`, wider domains, an inbox built with
    /// `Inbox::set`) or for a non-binary `own`.
    fn echo_word(&self, inbox: &Inbox, own: Value) -> Option<u64> {
        let ballots = inbox.ballots()?;
        if own.raw() > 1 {
            return None;
        }
        let bit = 1u64 << self.me.index();
        let listed = self.faults.words()[0];
        Some(ballots.ones & !listed & !bit | u64::from(own.raw()) << self.me.index())
    }

    /// Records the processors the last report discovered: charges its
    /// work, updates `L`, emits trace events, and collects the newly
    /// listed ones in `newly`; returns whether there are any.
    fn admit_discoveries(&mut self, during_conversion: bool, ctx: &mut ProcCtx) -> bool {
        ctx.charge(self.report.ops);
        self.newly.clear();
        for &r in &self.report.discovered {
            if self.faults.insert(r, ctx.round) {
                self.newly.insert(r);
                ctx.emit(TraceEvent::Discovered {
                    suspect: r,
                    during_conversion,
                });
            }
        }
        !self.newly.is_empty()
    }
}

impl Protocol for GearedProtocol {
    fn total_rounds(&self) -> usize {
        self.plan.len()
    }

    fn outgoing(&mut self, ctx: &mut ProcCtx) -> Option<Payload> {
        match self.action(ctx.round) {
            RoundAction::Initial => self.input.map(Payload::single),
            RoundAction::Gather { .. } => {
                if self.me == self.params.source {
                    // The no-repetition tree has no slots labelled by the
                    // source after round 1; it stays silent (§3).
                    None
                } else {
                    let deepest = self.tree.deepest_level();
                    Some(self.level_payload(self.tree.level(deepest)))
                }
            }
            RoundAction::RepFirstGather => Some(Payload::single(self.rep.root())),
            RoundAction::RepGather => Some(self.level_payload(self.rep.intermediates())),
        }
    }

    fn deliver(&mut self, inbox: &Inbox, ctx: &mut ProcCtx) {
        let t = self.params.t;
        let domain = self.params.domain;
        match self.action(ctx.round) {
            RoundAction::Initial => {
                // The source stores its own value; everyone else stores
                // what the source sent (default on anything illegitimate).
                let v = match self.input {
                    Some(v) => v,
                    None => domain.sanitize(
                        inbox
                            .from(self.params.source)
                            .value_at(0)
                            .unwrap_or(Value::DEFAULT),
                    ),
                };
                self.tree.set_root(v);
                self.rep.set_root(v);
                ctx.charge(1);
                ctx.emit(TraceEvent::Preferred { value: v });
            }

            RoundAction::Gather { convert: conv } => {
                // 1. Store the new level, masking known faults as we go: a
                // block's echo round straight off the ballot word when
                // there is one, every other level from the claims.
                let echo = if self.tree.deepest_level() == 0 {
                    self.echo_word(inbox, self.tree.root())
                } else {
                    None
                };
                if let Some(word) = echo {
                    ctx.charge(self.tree.append_echo(word));
                } else {
                    let claims = self.claims(inbox);
                    ctx.charge(self.tree.append_claims(&claims, domain));
                    self.claims = recycle(claims);
                }

                self.note_peak();

                // 2. Fault Discovery Rule on the fresh level, then mask
                // the newly discovered processors' current messages.
                if self.modified {
                    discover_ig_into(&self.tree, t, &self.faults, &mut self.report);
                    if self.admit_discoveries(false, ctx) {
                        let k = self.tree.deepest_level();
                        ctx.charge(self.tree.mask_level(k, &self.newly));
                    }
                }

                // 3. The echo rule, at a block's first gather (before a
                // one-round block's conversion shrinks the echoes away).
                if self.tree.deepest_level() == 1 {
                    self.echo_quorum = echo_quorum(self.tree.level(1), self.tree.root(), t);
                }

                // 4. Block boundary: convert and shrink (the shift).
                if let Some(spec) = conv {
                    let converted = convert(&self.tree, spec.conversion);
                    ctx.charge(converted.ops());
                    if spec.discovery && self.modified {
                        let report = &mut self.report;
                        discover_during_conversion_into(
                            &self.tree,
                            &converted,
                            t,
                            &self.faults,
                            report,
                        );
                        self.admit_discoveries(true, ctx);
                    }
                    let preferred = converted.root().value_or_default();
                    self.tree.shrink_to_root(preferred);
                    // Keep the rep root in sync so a later shift into
                    // Algorithm C starts from the converted preferred
                    // value (the hybrid's B→C boundary).
                    self.rep.set_root(preferred);
                    ctx.shift(spec.conversion.name(), preferred);
                }
            }

            RoundAction::RepFirstGather => {
                if let Some(word) = self.echo_word(inbox, self.rep.root()) {
                    ctx.charge(self.rep.store_echo(word));
                } else {
                    let claims = self.claims(inbox);
                    ctx.charge(self.rep.store_root_claims(&claims, domain));
                    self.claims = recycle(claims);
                }
                if self.modified {
                    self.rep
                        .discover_root_into(t, &self.faults, &mut self.report);
                    if self.admit_discoveries(false, ctx) {
                        ctx.charge(self.rep.mask_intermediates(&self.newly));
                    }
                }
                self.echo_quorum = echo_quorum(self.rep.intermediates(), self.rep.root(), t);
                ctx.emit(TraceEvent::Preferred {
                    value: self.rep.preferred(),
                });
            }

            RoundAction::RepGather => {
                let claims = self.claims(inbox);
                ctx.charge(self.rep.store_leaf_claims(&claims, domain));
                self.claims = recycle(claims);
                self.note_peak();
                if self.modified {
                    self.rep
                        .discover_intermediates_into(t, &self.faults, &mut self.report);
                    if self.admit_discoveries(false, ctx) {
                        ctx.charge(self.rep.mask_leaves(&self.newly));
                    }
                }
                ctx.charge(self.rep.reorder());
                ctx.charge(self.rep.convert_to_intermediates());
                ctx.shift("resolve", self.rep.preferred());
            }
        }
    }

    fn decide(&mut self, ctx: &mut ProcCtx) -> Value {
        // The source decided its own value in round 1 (§3) and never
        // revisits that decision.
        let value = match self.input {
            Some(v) => v,
            None => match self.plan.last() {
                Some(a) if a.is_rep() => self.rep.preferred(),
                _ => self.tree.root(),
            },
        };
        ctx.emit(TraceEvent::Decided { value });
        value
    }

    fn space_nodes(&self) -> u64 {
        self.peak_nodes
            .max(self.tree.node_count() + self.rep.node_count())
    }

    fn round_status(&self, _ctx: &ProcCtx) -> RoundStatus {
        if self.input.is_some() || self.echo_quorum {
            RoundStatus::ReadyToDecide
        } else {
            RoundStatus::Continue
        }
    }

    fn reset(&mut self, id: ProcessId, config: &RunConfig) -> bool {
        // The plan (and hence `t` and the block structure) is keyed by
        // the instance pool; everything else re-derives from `config`.
        let params = Params::from_config(config);
        self.params = params;
        self.me = id;
        self.input = (id == config.source).then_some(config.source_value);
        self.tree.reset(params.n, params.source);
        self.rep.reset(params.n, params.source);
        self.faults.reset(params.n);
        self.newly.clear();
        self.peak_nodes = 0;
        self.echo_quorum = false;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AlgorithmSpec;
    use sg_sim::ValueDomain;

    fn params(n: usize, t: usize) -> Params {
        Params {
            n,
            t,
            source: ProcessId(0),
            domain: ValueDomain::binary(),
        }
    }

    fn proto(n: usize, t: usize, me: usize) -> GearedProtocol {
        let p = params(n, t);
        let input = (me == 0).then_some(Value(1));
        GearedProtocol::new(
            p,
            ProcessId(me),
            input,
            true,
            AlgorithmSpec::Exponential.plan(n, t).expect("tree spec"),
        )
    }

    #[test]
    fn source_broadcasts_only_in_round_1() {
        let mut s = proto(4, 1, 0);
        let mut ctx = ProcCtx::new(ProcessId(0));
        ctx.round = 1;
        assert_eq!(s.outgoing(&mut ctx), Some(Payload::values([Value(1)])));
        let inbox = Inbox::empty(4);
        s.deliver(&inbox, &mut ctx);
        ctx.round = 2;
        assert_eq!(s.outgoing(&mut ctx), None);
    }

    #[test]
    fn non_source_stores_and_echoes_root() {
        let mut p = proto(4, 1, 1);
        let mut ctx = ProcCtx::new(ProcessId(1));
        ctx.round = 1;
        assert_eq!(p.outgoing(&mut ctx), None);
        let mut inbox = Inbox::empty(4);
        inbox.set(ProcessId(0), Payload::values([Value(1)]));
        p.deliver(&inbox, &mut ctx);
        assert_eq!(p.preferred(), Value(1));
        ctx.round = 2;
        assert_eq!(p.outgoing(&mut ctx), Some(Payload::values([Value(1)])));
    }

    #[test]
    fn missing_source_message_defaults() {
        let mut p = proto(4, 1, 2);
        let mut ctx = ProcCtx::new(ProcessId(2));
        ctx.round = 1;
        p.deliver(&Inbox::empty(4), &mut ctx);
        assert_eq!(p.preferred(), Value::DEFAULT);
    }

    #[test]
    #[should_panic(expected = "exactly the source carries an input")]
    fn non_source_with_input_rejected() {
        let p = params(4, 1);
        let _ = GearedProtocol::new(
            p,
            ProcessId(1),
            Some(Value(1)),
            true,
            AlgorithmSpec::Exponential.plan(4, 1).expect("tree spec"),
        );
    }
}
