//! The adversary interface.
//!
//! The paper's fault model (§2) places *no restriction* on faulty
//! behaviour. We model the strongest standard adversary consistent with
//! that: a **full-information rushing** adversary that, each round, sees
//! every honest processor's broadcast *before* choosing, per faulty sender
//! and per recipient, an arbitrary payload. Concrete strategies live in
//! the `sg-adversary` crate; the trait lives here so the engine can drive
//! them.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::id::{ProcessId, ProcessSet};
use crate::payload::Payload;
use crate::sig::{SigRegistry, SignedRelay};
use crate::value::{Value, ValueDomain};

/// Everything the adversary may see when choosing a faulty payload.
///
/// The view exposes the current round's honest broadcasts (rushing), the
/// *shadow* broadcasts — what each faulty processor would have sent had it
/// been honest — and static system parameters. Strategies that want to be
/// "mostly honest" start from their shadow payload and corrupt it.
pub struct AdversaryView<'a> {
    /// Current 1-based round.
    pub round: usize,
    /// Total rounds the protocol will run.
    pub total_rounds: usize,
    /// System size.
    pub n: usize,
    /// Fault bound the protocol was instantiated with.
    pub t: usize,
    /// The distinguished source processor.
    pub source: ProcessId,
    /// The source's initial value (the adversary knows everything).
    pub source_value: Value,
    /// The agreement value domain.
    pub domain: ValueDomain,
    /// The set of faulty processors.
    pub faulty: &'a ProcessSet,
    /// Honest broadcasts this round, indexed by sender; `None` for faulty
    /// senders and for silent honest senders. A borrow of the round's own
    /// broadcast table: nothing is copied to show it.
    pub honest_broadcast: &'a [Option<Payload>],
    /// What each faulty sender would broadcast if honest, indexed by
    /// sender; `None` for honest senders and for silent shadows.
    pub shadow_broadcast: &'a [Option<Payload>],
    /// Signature registry handle (authenticated baselines only).
    pub sigs: Option<Arc<Mutex<SigRegistry>>>,
}

impl AdversaryView<'_> {
    /// The payload `sender` would broadcast this round if it were honest,
    /// if any.
    pub fn shadow_of(&self, sender: ProcessId) -> Option<&Payload> {
        self.shadow_broadcast[sender.index()].as_ref()
    }

    /// The number of values an honest broadcast from `sender` would carry
    /// this round (0 if it would be silent).
    pub fn expected_len(&self, sender: ProcessId) -> usize {
        self.shadow_of(sender).map_or(0, Payload::num_values)
    }

    /// The honest broadcast of `sender` this round, if any.
    pub fn honest_of(&self, sender: ProcessId) -> Option<&Payload> {
        self.honest_broadcast[sender.index()].as_ref()
    }

    /// Signs `value` as the (faulty) processor `signer`.
    ///
    /// Faulty processors may sign anything as themselves; they cannot
    /// forge others' signatures (the registry enforces this).
    ///
    /// # Panics
    ///
    /// Panics if no signature registry is attached or if `signer` is not
    /// faulty — the adversary may not sign on behalf of honest processors.
    pub fn sign_as(&self, signer: ProcessId, value: Value) -> SignedRelay {
        assert!(
            self.faulty.contains(signer),
            "adversary may only sign as faulty processors"
        );
        let sigs = self.sigs.as_ref().expect("signature registry attached");
        sigs.lock().originate(signer, value)
    }

    /// Extends a valid relay with a faulty processor's signature.
    ///
    /// # Panics
    ///
    /// Panics if no signature registry is attached or `signer` is honest.
    pub fn extend_as(&self, signer: ProcessId, relay: &SignedRelay) -> Option<SignedRelay> {
        assert!(
            self.faulty.contains(signer),
            "adversary may only sign as faulty processors"
        );
        let sigs = self.sigs.as_ref().expect("signature registry attached");
        sigs.lock().extend(relay, signer)
    }
}

/// A Byzantine adversary: picks the fault set, then per round and per
/// (faulty sender, recipient) pair picks an arbitrary payload.
pub trait Adversary {
    /// Short human-readable strategy name for reports.
    fn name(&self) -> String;

    /// The strategy name as a shared string, stored into every
    /// [`crate::Outcome`]. The default allocates via [`Adversary::name`];
    /// poolable strategies override it with a clone of a cached
    /// `Arc<str>` so the per-run name allocation disappears from the
    /// sweep hot path.
    fn name_shared(&self) -> Arc<str> {
        Arc::from(self.name())
    }

    /// Restores this instance to the state a freshly constructed instance
    /// for `seed` would have, returning `true` on success. The sweep
    /// engine's adversary pool calls this to recycle strategy instances
    /// across runs of one family instead of boxing a fresh strategy per
    /// run; a `false` return (the default, so external implementations
    /// keep working unchanged) is a pool miss and the family builds a
    /// replacement.
    ///
    /// Implementations may assume the instance was built with the same
    /// configuration and that `seed` is only its RNG seed: the sweep
    /// engine pools only the strategies of `sg_adversary::Family` values,
    /// which read nothing but their RNG seed from it.
    /// They must restore *exactly* the freshly-constructed state so pooled
    /// and fresh sweeps stay bit-identical.
    fn reseed(&mut self, _seed: u64) -> bool {
        false
    }

    /// Chooses the set of faulty processors for this execution.
    ///
    /// Called once, before round 1. Implementations should corrupt at most
    /// `t` processors if they want the protocol's guarantees to apply —
    /// the engine records but does not enforce the bound, so experiments
    /// can also probe over-threshold behaviour.
    fn corrupt(&mut self, n: usize, t: usize, source: ProcessId) -> ProcessSet;

    /// The payload faulty `sender` sends to `recipient` in the viewed
    /// round. Called once per (sender, recipient) pair per round, in
    /// deterministic order (senders ascending, recipients ascending).
    fn payload(
        &mut self,
        sender: ProcessId,
        recipient: ProcessId,
        view: &AdversaryView<'_>,
    ) -> Payload;

    /// Whether this adversary also attacks *honest* edges (message loss
    /// between correct processors — network partitions, per-edge
    /// omission). The engine latches this once per run, before round 1:
    /// `false` (the default) keeps the delivery loop on its shared-inbox
    /// fast path with zero extra cost, `true` switches the run to
    /// per-recipient inbox fills consulting [`Adversary::edge_cut`] for
    /// every honest edge.
    ///
    /// Cutting an honest edge models link failure, not sender failure:
    /// traffic accounting still charges the sender for the broadcast,
    /// and the sender stays in the correct set for agreement/validity.
    fn has_edge_faults(&self) -> bool {
        false
    }

    /// Returns `true` to drop the honest broadcast from `sender` to
    /// `recipient` in the viewed round (the recipient sees a missing
    /// payload). Consulted once per (honest sender, recipient ≠ sender)
    /// pair per round, in deterministic order (recipients ascending,
    /// senders ascending) — and only when [`Adversary::has_edge_faults`]
    /// was `true` at run start.
    fn edge_cut(
        &mut self,
        _sender: ProcessId,
        _recipient: ProcessId,
        _view: &AdversaryView<'_>,
    ) -> bool {
        false
    }
}

/// The trivial adversary: corrupts nobody.
///
/// Useful as the fault-free baseline in tests and benches.
///
/// # Examples
///
/// ```
/// use sg_sim::{Adversary, NoFaults, ProcessId};
///
/// let mut a = NoFaults;
/// assert!(a.corrupt(7, 2, ProcessId(0)).is_empty());
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFaults;

impl Adversary for NoFaults {
    fn name(&self) -> String {
        "no-faults".to_string()
    }

    fn name_shared(&self) -> Arc<str> {
        static NAME: std::sync::OnceLock<Arc<str>> = std::sync::OnceLock::new();
        NAME.get_or_init(|| Arc::from("no-faults")).clone()
    }

    fn reseed(&mut self, _seed: u64) -> bool {
        // Stateless: any instance is already "fresh" for any seed.
        true
    }

    fn corrupt(&mut self, n: usize, _t: usize, _source: ProcessId) -> ProcessSet {
        ProcessSet::new(n)
    }

    fn payload(
        &mut self,
        _sender: ProcessId,
        _recipient: ProcessId,
        _view: &AdversaryView<'_>,
    ) -> Payload {
        Payload::Missing
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_corrupts_nobody() {
        let mut a = NoFaults;
        let f = a.corrupt(5, 1, ProcessId(0));
        assert!(f.is_empty());
        assert_eq!(a.name(), "no-faults");
    }

    #[test]
    #[should_panic(expected = "only sign as faulty")]
    fn sign_as_honest_rejected() {
        let faulty = ProcessSet::new(4);
        let view = AdversaryView {
            round: 1,
            total_rounds: 3,
            n: 4,
            t: 1,
            source: ProcessId(0),
            source_value: Value(1),
            domain: ValueDomain::binary(),
            faulty: &faulty,
            honest_broadcast: &[],
            shadow_broadcast: &[],
            sigs: None,
        };
        let _ = view.sign_as(ProcessId(1), Value(0));
    }
}
