//! A paper-literal oracle for the tree machine (`GearedProtocol` over
//! `sg-eigtree`), deliberately slow.
//!
//! * The information-gathering tree is a `BTreeMap` from label paths to
//!   values: the path `[p₁, …, p_k]` is the node `s·p₁⋯p_k`, and the
//!   map's lexicographic order on equal-length paths is the canonical
//!   order of a level (ascending ids, depth first).
//! * `resolve` and `resolve'` are the recursive definitions of §3 and
//!   §4.2; a node's children are enumerated from its path, never read off
//!   a layout.
//! * The Fault Discovery Rule (§3), the Rule During Conversion (§4.2) and
//!   the Fault Masking Rule are stated once each, on value lists.
//! * Algorithm C (§4.3) keeps its intermediate vertices and its `n × n`
//!   leaves as maps too, and reorders the leaves by swapping keys.
//! * The echo rule is `GearedProtocol`'s own statement: at a block's
//!   first gather a processor is ready iff all but `t` of its stored
//!   echoes equal its root.
//!
//! [`Paired`] runs the oracle beside a production instance on one inbox
//! and compares, per processor and per round, the outgoing payload, the
//! preferred value (the resolved root), `L_p` with its discovery rounds,
//! the round status (hence the stop round) and the decision.
//!
//! # Deviations
//!
//! Where the code reads the paper one way and a literal reading could
//! take another, the oracle implements both, selected by [`Reading`].
//! [`Reading::CODE`] is what the comparison pins; [`Reading::PAPER`] is
//! the literal one, and `tests/paper_tree_oracle.rs` counts the runs on
//! which it diverges.
//!
//! 1. **Discovery scope.** §3 blames `r` if *some* internal node `αr` of
//!    the tree violates a threshold. The code examines only the parents
//!    of the freshest level (`discover_ig`): an older node's children do
//!    not change, but `L_p` grows, and with it the budget `t − |L_p|`
//!    shrinks, so an old node can cross the threshold later.
//! 2. **Malformed messages.** §3 replaces a message "not of the
//!    appropriate form" by default values. The code reads a vector
//!    positionally: the slots it carries are kept (each sanitized), the
//!    slots it lacks read as the default. Literally, a vector of the
//!    wrong length is defaulted whole.
//! 3. **`⊥` in the Rule During Conversion.** `⊥` is counted as one more
//!    value when Algorithm A's rule looks for the majority among
//!    converted children (so a `⊥` majority blames only the non-`⊥`
//!    dissent). Both readings below do this; the paper does not say.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use shifting_gears::core::plan::ConvertSpec;
use shifting_gears::core::{AlgorithmSpec, GearedProtocol, Params, RoundAction};
use shifting_gears::eigtree::Conversion;
use shifting_gears::sim::{
    Inbox, Payload, ProcCtx, ProcessId, Protocol, RoundStatus, RunConfig, Value, ValueDomain,
};

/// How the oracle reads the two rules the paper leaves open (see the
/// module docs' deviations).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Reading {
    /// Re-examine every internal node at each gather (deviation 1).
    pub every_internal_node: bool,
    /// Default a wrong-length vector whole (deviation 2).
    pub wholesale_malformed: bool,
}

impl Reading {
    /// The code's reading: the comparison holds the code to it.
    pub const CODE: Reading = Reading {
        every_internal_node: false,
        wholesale_malformed: false,
    };
    /// The literal reading.
    pub const PAPER: Reading = Reading {
        every_internal_node: true,
        wholesale_malformed: true,
    };
}

type Path = Vec<usize>;

/// A converted value: `Some(v)`, or `None` for `⊥`.
type Res = Option<Value>;

/// The strict majority of `items`, if any.
fn majority<T: Ord + Copy>(items: &[T]) -> Option<T> {
    let mut counts: BTreeMap<T, usize> = BTreeMap::new();
    for &x in items {
        *counts.entry(x).or_default() += 1;
    }
    counts
        .into_iter()
        .find(|&(_, c)| 2 * c > items.len())
        .map(|(x, _)| x)
}

/// The Fault Discovery Rule's two conditions for one node whose children
/// hold `values`, sent by `labels`, against the list `faults`.
fn violates<T: Ord + Copy>(
    values: &[T],
    labels: &[usize],
    t: usize,
    faults: &BTreeSet<usize>,
) -> bool {
    let Some(m) = majority(values) else {
        return true;
    };
    let dissent = values
        .iter()
        .zip(labels)
        .filter(|&(v, q)| *v != m && !faults.contains(q))
        .count();
    dissent > t.saturating_sub(faults.len())
}

/// One processor's paper-literal tree machine.
pub struct PaperTree {
    n: usize,
    t: usize,
    me: usize,
    source: usize,
    input: Option<Value>,
    domain: ValueDomain,
    modified: bool,
    plan: Vec<RoundAction>,
    reading: Reading,
    /// `tree_p`, every stored node by its label path.
    tree: BTreeMap<Path, Value>,
    depth: usize,
    /// `L_p`: discovered processor → discovery round.
    faults: BTreeMap<usize, usize>,
    /// Algorithm C's root and, once round 2 stored them, `tree(sq)`.
    rep_root: Value,
    rep: Option<BTreeMap<usize, Value>>,
    echo_quorum: bool,
}

impl PaperTree {
    /// Processor `me`'s oracle under `config`, interpreting `plan`.
    pub fn new(
        config: &RunConfig,
        me: ProcessId,
        modified: bool,
        plan: Vec<RoundAction>,
        reading: Reading,
    ) -> Self {
        PaperTree {
            n: config.n,
            t: config.t,
            me: me.index(),
            source: config.source.index(),
            input: (me == config.source).then_some(config.source_value),
            domain: config.domain,
            modified,
            plan,
            reading,
            tree: BTreeMap::new(),
            depth: 0,
            faults: BTreeMap::new(),
            rep_root: Value::DEFAULT,
            rep: None,
            echo_quorum: false,
        }
    }

    fn listed(&self) -> BTreeSet<usize> {
        self.faults.keys().copied().collect()
    }

    /// The labels of the children of `path`: every name not on it and
    /// not the source, ascending.
    fn children(&self, path: &[usize]) -> Vec<usize> {
        (0..self.n)
            .filter(|q| *q != self.source && !path.contains(q))
            .collect()
    }

    /// The processor a node corresponds to: its last label, the source
    /// for the root.
    fn blamed(&self, path: &[usize]) -> usize {
        path.last().copied().unwrap_or(self.source)
    }

    /// Level `k` in canonical order.
    fn level(&self, k: usize) -> Vec<(Path, Value)> {
        self.tree
            .iter()
            .filter(|(p, _)| p.len() == k)
            .map(|(p, &v)| (p.clone(), v))
            .collect()
    }

    /// What sender `q` said about slot `idx` of a `len`-slot vector.
    fn claim(&self, inbox: &Inbox, q: usize, idx: usize, len: usize) -> Value {
        let payload = inbox.from(ProcessId(q));
        let vector = matches!(payload, Payload::Values(_) | Payload::Bits { .. });
        if !vector || (self.reading.wholesale_malformed && payload.num_values() != len) {
            return Value::DEFAULT;
        }
        payload
            .value_at(idx)
            .map_or(Value::DEFAULT, |v| self.domain.sanitize(v))
    }

    /// The preferred value: `resolve(s)` of Algorithm C's tree once it
    /// has intermediates, the root of the no-repetition tree otherwise.
    pub fn preferred(&self) -> Value {
        match &self.rep {
            Some(inter) => {
                let vals: Vec<Value> = inter.values().copied().collect();
                majority(&vals).unwrap_or(Value::DEFAULT)
            }
            None => self.tree[&Vec::new()],
        }
    }

    /// `L_p` as (processor, discovery round) pairs, ascending.
    pub fn fault_list(&self) -> Vec<(ProcessId, usize)> {
        self.faults
            .iter()
            .map(|(&p, &r)| (ProcessId(p), r))
            .collect()
    }

    /// Whether this processor reports ready after the current round.
    pub fn ready(&self) -> bool {
        self.input.is_some() || self.echo_quorum
    }

    /// The values this processor broadcasts in `round`, `None` if silent.
    pub fn outgoing(&self, round: usize) -> Option<Vec<Value>> {
        match self.plan[round - 1] {
            RoundAction::Initial => self.input.map(|v| vec![v]),
            RoundAction::Gather { .. } if self.me == self.source => None,
            RoundAction::Gather { .. } => {
                Some(self.level(self.depth).into_iter().map(|(_, v)| v).collect())
            }
            RoundAction::RepFirstGather => Some(vec![self.rep_root]),
            RoundAction::RepGather => Some(self.rep.as_ref()?.values().copied().collect()),
        }
    }

    fn discover(&mut self, discovered: &[usize], round: usize) {
        for &r in discovered {
            self.faults.entry(r).or_insert(round);
        }
    }

    /// Consumes round `round`'s inbox.
    pub fn deliver(&mut self, inbox: &Inbox, round: usize) {
        match self.plan[round - 1] {
            RoundAction::Initial => {
                let v = self.input.unwrap_or_else(|| {
                    let got = inbox.from(ProcessId(self.source)).value_at(0);
                    self.domain.sanitize(got.unwrap_or(Value::DEFAULT))
                });
                self.tree = BTreeMap::from([(Vec::new(), v)]);
                self.depth = 0;
                self.rep_root = v;
                self.rep = None;
            }
            RoundAction::Gather { convert } => self.gather(inbox, round, convert),
            RoundAction::RepFirstGather => self.rep_first_gather(inbox, round),
            RoundAction::RepGather => self.rep_gather(inbox, round),
        }
    }

    fn gather(&mut self, inbox: &Inbox, round: usize, convert: Option<ConvertSpec>) {
        let listed = self.listed();
        // Information gathering: tree(αq) is what q says α holds, with
        // the known faults masked and the receiver relaying to itself.
        let parents = self.level(self.depth);
        let len = parents.len();
        for (idx, (alpha, own)) in parents.iter().enumerate() {
            for q in self.children(alpha) {
                let v = if q == self.me {
                    *own
                } else if listed.contains(&q) {
                    Value::DEFAULT
                } else {
                    self.claim(inbox, q, idx, len)
                };
                let mut child = alpha.clone();
                child.push(q);
                self.tree.insert(child, v);
            }
        }
        self.depth += 1;

        if self.modified {
            // The Fault Discovery Rule against the snapshot, then masking
            // of the newly discovered processors' current messages.
            let from = if self.reading.every_internal_node {
                0
            } else {
                self.depth - 1
            };
            let mut newly = Vec::new();
            for k in from..self.depth {
                for (alpha, _) in self.level(k) {
                    let r = self.blamed(&alpha);
                    if listed.contains(&r) || newly.contains(&r) {
                        continue;
                    }
                    let labels = self.children(&alpha);
                    let values: Vec<Value> = labels
                        .iter()
                        .map(|&q| {
                            let mut child = alpha.clone();
                            child.push(q);
                            self.tree[&child]
                        })
                        .collect();
                    if violates(&values, &labels, self.t, &listed) {
                        newly.push(r);
                    }
                }
            }
            self.discover(&newly, round);
            for (path, v) in self.tree.iter_mut() {
                if path.len() == self.depth && newly.contains(path.last().expect("deep")) {
                    *v = Value::DEFAULT;
                }
            }
        }

        if self.depth == 1 {
            let root = self.tree[&Vec::new()];
            let echoes = self.level(1);
            let agree = echoes.iter().filter(|(_, v)| *v == root).count();
            self.echo_quorum = agree + self.t >= echoes.len();
        }

        if let Some(spec) = convert {
            let mut converted = BTreeMap::new();
            let root = self.resolve(&[], spec.conversion, &mut converted);
            if spec.discovery && self.modified {
                let listed = self.listed();
                let mut found = Vec::new();
                for (alpha, _) in self.tree.iter().filter(|(p, _)| p.len() < self.depth) {
                    let r = self.blamed(alpha);
                    if listed.contains(&r) || found.contains(&r) {
                        continue;
                    }
                    let labels = self.children(alpha);
                    let values: Vec<Res> = labels
                        .iter()
                        .map(|&q| {
                            let mut child = alpha.clone();
                            child.push(q);
                            converted[&child]
                        })
                        .collect();
                    if violates(&values, &labels, self.t, &listed) {
                        found.push(r);
                    }
                }
                self.discover(&found, round);
            }
            let preferred = root.unwrap_or(Value::DEFAULT);
            self.tree = BTreeMap::from([(Vec::new(), preferred)]);
            self.depth = 0;
            self.rep_root = preferred;
            self.rep = None;
        }
    }

    /// `resolve(α)` / `resolve'(α)` by their recursive definitions,
    /// recording every node's converted value in `out`.
    fn resolve(
        &self,
        alpha: &[usize],
        conversion: Conversion,
        out: &mut BTreeMap<Path, Res>,
    ) -> Res {
        let res = if alpha.len() == self.depth {
            Some(self.tree[alpha])
        } else {
            let kids: Vec<Res> = self
                .children(alpha)
                .into_iter()
                .map(|q| {
                    let mut child = alpha.to_vec();
                    child.push(q);
                    self.resolve(&child, conversion, out)
                })
                .collect();
            match conversion {
                Conversion::Resolve => Some(majority(&kids).flatten().unwrap_or(Value::DEFAULT)),
                Conversion::ResolvePrime { t } => {
                    let mut counts: BTreeMap<Value, usize> = BTreeMap::new();
                    for v in kids.iter().flatten() {
                        *counts.entry(*v).or_default() += 1;
                    }
                    let supported: Vec<Value> = counts
                        .into_iter()
                        .filter(|&(_, c)| c > t)
                        .map(|(v, _)| v)
                        .collect();
                    match supported[..] {
                        [v] => Some(v),
                        _ => None,
                    }
                }
            }
        };
        out.insert(alpha.to_vec(), res);
        res
    }

    fn rep_first_gather(&mut self, inbox: &Inbox, round: usize) {
        let listed = self.listed();
        let mut inter: BTreeMap<usize, Value> = (0..self.n)
            .map(|q| {
                let v = if q == self.me {
                    self.rep_root
                } else if listed.contains(&q) {
                    Value::DEFAULT
                } else {
                    self.claim(inbox, q, 0, 1)
                };
                (q, v)
            })
            .collect();
        if self.modified && !listed.contains(&self.source) {
            let labels: Vec<usize> = (0..self.n).collect();
            let values: Vec<Value> = inter.values().copied().collect();
            if violates(&values, &labels, self.t, &listed) {
                self.discover(&[self.source], round);
                inter.insert(self.source, Value::DEFAULT);
            }
        }
        let agree = inter.values().filter(|&&v| v == self.rep_root).count();
        self.echo_quorum = agree + self.t >= self.n;
        self.rep = Some(inter);
    }

    fn rep_gather(&mut self, inbox: &Inbox, round: usize) {
        let listed = self.listed();
        let inter = self.rep.clone().expect("round 2 stored the intermediates");
        // leaves[(w, r)] = tree(s·w·r): what r says tree(sw) holds.
        let mut leaves: BTreeMap<(usize, usize), Value> = BTreeMap::new();
        for w in 0..self.n {
            for r in 0..self.n {
                let v = if r == self.me {
                    inter[&w]
                } else if listed.contains(&r) {
                    Value::DEFAULT
                } else {
                    self.claim(inbox, r, w, self.n)
                };
                leaves.insert((w, r), v);
            }
        }
        if self.modified {
            let labels: Vec<usize> = (0..self.n).collect();
            let newly: Vec<usize> = (0..self.n)
                .filter(|w| !listed.contains(w))
                .filter(|&w| {
                    let row: Vec<Value> = (0..self.n).map(|r| leaves[&(w, r)]).collect();
                    violates(&row, &labels, self.t, &listed)
                })
                .collect();
            self.discover(&newly, round);
            for ((_, r), v) in leaves.iter_mut() {
                if newly.contains(r) {
                    *v = Value::DEFAULT;
                }
            }
        }
        // Reorder: tree(spq) ↔ tree(sqp); then tree(sq) = resolve(sq).
        let reordered: BTreeMap<(usize, usize), Value> =
            leaves.iter().map(|(&(p, q), &v)| ((q, p), v)).collect();
        let inter = (0..self.n)
            .map(|q| {
                let row: Vec<Value> = (0..self.n).map(|r| reordered[&(q, r)]).collect();
                (q, majority(&row).unwrap_or(Value::DEFAULT))
            })
            .collect();
        self.rep = Some(inter);
    }

    /// The decision after the last round.
    pub fn decide(&self) -> Value {
        match self.input {
            Some(v) => v,
            None if self.plan.last().is_some_and(RoundAction::is_rep) => match &self.rep {
                Some(_) => self.preferred(),
                None => self.rep_root,
            },
            None => self.tree[&Vec::new()],
        }
    }
}

/// The first disagreement of each run the oracle watched, shared by the
/// `n` instances of a run.
pub type Log = Rc<RefCell<Vec<String>>>;

/// The oracle and a production instance on one inbox.
pub struct Paired {
    oracle: PaperTree,
    prod: GearedProtocol,
    log: Log,
}

impl Paired {
    fn mismatch(&self, round: usize, what: &str, oracle: String, code: String) {
        self.unless(oracle == code, round, what, oracle, code);
    }

    fn unless(&self, agree: bool, round: usize, what: &str, oracle: String, code: String) {
        if !agree {
            let mut log = self.log.borrow_mut();
            if log.is_empty() {
                log.push(format!(
                    "P{} round {round}: {what}: oracle {oracle}, code {code}",
                    self.oracle.me
                ));
            }
        }
    }
}

impl Protocol for Paired {
    fn total_rounds(&self) -> usize {
        self.prod.total_rounds()
    }

    fn outgoing(&mut self, ctx: &mut ProcCtx) -> Option<Payload> {
        let sent = self.prod.outgoing(ctx);
        let expected = self.oracle.outgoing(ctx.round).map(Payload::Values);
        let agree = expected == sent;
        self.unless(
            agree,
            ctx.round,
            "outgoing",
            format!("{expected:?}"),
            format!("{sent:?}"),
        );
        sent
    }

    fn deliver(&mut self, inbox: &Inbox, ctx: &mut ProcCtx) {
        self.prod.deliver(inbox, ctx);
        self.oracle.deliver(inbox, ctx.round);
        let round = ctx.round;
        let o = &self.oracle;
        let code_faults: Vec<(ProcessId, usize)> = self
            .prod
            .fault_list()
            .iter()
            .map(|p| (p, self.prod.fault_list().discovered_in(p).expect("listed")))
            .collect();
        self.mismatch(
            round,
            "L_p",
            format!("{:?}", o.fault_list()),
            format!("{code_faults:?}"),
        );
        self.mismatch(
            round,
            "root",
            o.preferred().to_string(),
            self.prod.preferred().to_string(),
        );
        let ready = self.prod.round_status(ctx) == RoundStatus::ReadyToDecide;
        self.mismatch(round, "ready", o.ready().to_string(), ready.to_string());
    }

    fn decide(&mut self, ctx: &mut ProcCtx) -> Value {
        let value = self.prod.decide(ctx);
        self.mismatch(
            ctx.round,
            "decision",
            self.oracle.decide().to_string(),
            value.to_string(),
        );
        value
    }

    fn space_nodes(&self) -> u64 {
        self.prod.space_nodes()
    }

    fn round_status(&self, ctx: &ProcCtx) -> RoundStatus {
        self.prod.round_status(ctx)
    }
}

/// A factory of [`Paired`] instances for a tree spec (one with a plain
/// tree plan), logging into `log`. `None` for specs without one.
pub fn paired_factory(
    spec: AlgorithmSpec,
    config: &RunConfig,
    reading: Reading,
    log: Log,
) -> Option<impl Fn(ProcessId) -> Box<dyn Protocol>> {
    let plan = spec.plan(config.n, config.t)?;
    let modified = !matches!(spec, AlgorithmSpec::PlainExponential);
    let params = Params::from_config(config);
    let config = *config;
    Some(move |me: ProcessId| -> Box<dyn Protocol> {
        let input = (me == config.source).then_some(config.source_value);
        Box::new(Paired {
            oracle: PaperTree::new(&config, me, modified, plan.clone(), reading),
            prod: GearedProtocol::new(params, me, input, modified, plan.clone()),
            log: Rc::clone(&log),
        })
    })
}
