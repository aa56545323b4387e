//! The reference engine: the paper's model (§2) spelled out the slow,
//! obvious way. [`run`] builds every protocol instance and context fresh,
//! fills one fresh complete inbox per recipient per round, attaches no
//! packed ballots, and keeps no arena and no pool. It is the one oracle
//! every fast path of [`crate::engine`] and [`crate::batch`] is held to
//! (`tests/engine_identity.rs`), and shares nothing with them beyond the
//! [`Protocol`] / [`Adversary`] / [`Outcome`] vocabulary.
//!
//! The semantics are the seven steps of the [`crate::engine`] module
//! docs: collect broadcasts (faulty slots run honest *shadows*), account
//! honest traffic, ask the adversary for every (faulty sender, recipient)
//! payload — senders ascending, recipients ascending, self skipped —
//! deliver, sample peak space, stop early once every correct processor is
//! [`RoundStatus::ReadyToDecide`] (unless the configuration is
//! [`RunConfig::fixed_length`]), then tally the correct processors'
//! [`GearAction`] votes: unanimous `Finished` ends the run, unanimous
//! `ShiftGear` shifts every instance.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::adversary::{Adversary, AdversaryView};
use crate::engine::{Outcome, RunConfig};
use crate::id::ProcessId;
use crate::metrics::{Metrics, RoundStats};
use crate::payload::Payload;
use crate::protocol::{GearAction, Inbox, ProcCtx, Protocol, RoundStatus};
use crate::sig::SigRegistry;
use crate::trace::Trace;

/// Runs one execution of the protocol `mk` builds (one instance per
/// processor) against `adversary`, with no reuse of anything.
///
/// # Panics
///
/// Panics if the adversary corrupts the wrong universe or the instances
/// disagree on `total_rounds`.
pub fn run<F>(config: &RunConfig, adversary: &mut dyn Adversary, mk: F) -> Outcome
where
    F: Fn(ProcessId) -> Box<dyn Protocol>,
{
    let n = config.n;
    let faulty = adversary.corrupt(n, config.t, config.source);
    assert_eq!(faulty.universe(), n, "fault set universe must match n");
    let correct: Vec<usize> = (0..n).filter(|&i| !faulty.contains(ProcessId(i))).collect();
    let edge_faults = adversary.has_edge_faults();
    let sigs = config
        .authenticated
        .then(|| Arc::new(Mutex::new(SigRegistry::new())));

    let mut protocols: Vec<Box<dyn Protocol>> = (0..n).map(|i| mk(ProcessId(i))).collect();
    let mut ctxs: Vec<ProcCtx> = (0..n)
        .map(|i| {
            let mut ctx = ProcCtx::new(ProcessId(i));
            if config.trace && correct.contains(&i) {
                ctx = ctx.with_trace();
            }
            match &sigs {
                Some(sigs) => ctx.with_sigs(sigs.clone()),
                None => ctx,
            }
        })
        .collect();
    let total_rounds = protocols[0].total_rounds();
    assert!(
        protocols.iter().all(|p| p.total_rounds() == total_rounds),
        "all processors must agree on the round schedule"
    );

    let mut metrics = Metrics::new(n);
    let bits_per_value = config.domain.bits_per_value();
    let fanout = (n - 1) as u64;
    let mut round = 0;
    while round < total_rounds {
        round += 1;
        for ctx in &mut ctxs {
            ctx.round = round;
        }

        // 1. Every instance's broadcast, split into what correct
        // processors send and what faulty ones would have sent.
        let mut honest = vec![None; n];
        let mut shadow = vec![None; n];
        for i in 0..n {
            let sent = protocols[i].outgoing(&mut ctxs[i]);
            if correct.contains(&i) {
                honest[i] = sent;
            } else {
                shadow[i] = sent;
            }
        }

        // 2. Honest traffic: one broadcast is n − 1 messages.
        let mut stats = RoundStats {
            round,
            ..RoundStats::default()
        };
        for payload in honest.iter().flatten() {
            let values = payload.num_values() as u64;
            let bits = payload.bits(bits_per_value);
            stats.honest_messages += fanout;
            stats.honest_values += values * fanout;
            stats.honest_bits += bits * fanout;
            stats.max_message_values = stats.max_message_values.max(values);
            stats.max_message_bits = stats.max_message_bits.max(bits);
        }
        metrics.per_round.push(stats);

        // 3. The rushing adversary, seeing all of it, picks every faulty
        // payload: `lies[sender][recipient]`.
        let view = AdversaryView {
            round,
            total_rounds,
            n,
            t: config.t,
            source: config.source,
            source_value: config.source_value,
            domain: config.domain,
            faulty: &faulty,
            honest_broadcast: &honest,
            shadow_broadcast: &shadow,
            sigs: sigs.clone(),
        };
        let mut lies: Vec<Vec<Payload>> = vec![Vec::new(); n];
        for f in faulty.iter() {
            for r in 0..n {
                lies[f.index()].push(if r == f.index() {
                    Payload::Missing
                } else {
                    adversary.payload(f, ProcessId(r), &view)
                });
            }
        }

        // 4. One fresh, complete inbox per recipient (shadows included),
        // every slot its own copy.
        for i in 0..n {
            let mut inbox = Inbox::empty(n);
            for j in (0..n).filter(|&j| j != i) {
                let q = ProcessId(j);
                if faulty.contains(q) {
                    inbox.set(q, lies[j][i].clone());
                } else if edge_faults && adversary.edge_cut(q, ProcessId(i), &view) {
                    // The link dropped it; the sender was still charged.
                } else if let Some(payload) = &honest[j] {
                    inbox.set(q, payload.clone());
                }
            }
            protocols[i].deliver(&inbox, &mut ctxs[i]);
        }

        // 5. Peak space, correct processors only.
        for &i in &correct {
            metrics.peak_tree_nodes = metrics.peak_tree_nodes.max(protocols[i].space_nodes());
        }

        // 6. Early stopping; reaching the ceiling is not early.
        let ready = |i: &usize| protocols[*i].round_status(&ctxs[*i]) == RoundStatus::ReadyToDecide;
        if config.early_stopping && round < total_rounds && correct.iter().all(ready) {
            break;
        }

        // 7. Gear votes of the correct processors.
        let votes: Vec<GearAction> = correct
            .iter()
            .map(|&i| protocols[i].next_action(&ctxs[i]))
            .collect();
        let unanimous = |vote| !votes.is_empty() && votes.iter().all(|v| *v == vote);
        if unanimous(GearAction::Finished) {
            break;
        }
        if unanimous(GearAction::ShiftGear) {
            for i in 0..n {
                protocols[i].shift_gear(&mut ctxs[i]);
            }
        }
    }

    let mut decisions = vec![None; n];
    let mut trace = Trace::new();
    for (i, ctx) in ctxs.iter_mut().enumerate() {
        ctx.round = 0;
        if correct.contains(&i) {
            decisions[i] = Some(protocols[i].decide(ctx));
        }
        metrics.local_ops[i] = ctx.ops();
        ctx.drain_trace_into(&mut trace);
    }
    Outcome {
        config: *config,
        faulty,
        decisions,
        rounds_used: round,
        scheduled_rounds: total_rounds,
        early_stopped: round < total_rounds,
        metrics,
        trace,
        adversary: adversary.name_shared(),
    }
}
