//! The packed view, built on demand, read slot by slot.
//!
//! The engine stores one round's base masks over the broadcast table in
//! the inbox; `Inbox::ballots()` adds the reader's entries of the faulty
//! rows (or, under cut edges, reads every slot) when a receiver asks.
//! Here a probe protocol asks in every round, for every recipient —
//! shadows of faulty processors included — and checks the view against
//! the masks built slot by slot from `from(j).value_at(0)`. Its
//! broadcasts mix zeros, ones, a two-value payload, an out-of-domain
//! value and silence, so every way a slot can count or not is read. The
//! cases: random liars, `partition` (edge faults), `n = 64` (the widest
//! packed round), and `n = 65` and a three-value domain, which have no
//! view. A clone of each delivered inbox after `Inbox::set` has none
//! either.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use shifting_gears::adversary::{Family, FaultSelection};
use shifting_gears::sim::{
    run, Adversary, Inbox, PackedBallots, Payload, ProcCtx, ProcessId, Protocol, RunConfig, Value,
    ValueDomain,
};

const ROUNDS: usize = 4;

/// Broadcasts a round-dependent mix of payloads and checks every
/// inbox's packed view.
struct Probe {
    me: ProcessId,
    packed: bool,
    checked: Arc<AtomicUsize>,
}

impl Protocol for Probe {
    fn total_rounds(&self) -> usize {
        ROUNDS
    }

    fn outgoing(&mut self, ctx: &mut ProcCtx) -> Option<Payload> {
        match (self.me.index() * 7 + ctx.round * 3) % 5 {
            0 => Some(Payload::single(Value(0))),
            1 => Some(Payload::single(Value(1))),
            2 => Some(Payload::values([Value(1), Value(0)])),
            3 => Some(Payload::single(Value(2))),
            _ => None,
        }
    }

    fn deliver(&mut self, inbox: &Inbox, _ctx: &mut ProcCtx) {
        let slots = self.packed.then(|| {
            let mut slots = PackedBallots::default();
            for j in (0..inbox.n()).map(ProcessId) {
                if let Some(v) = inbox.from(j).value_at(0).filter(|v| v.raw() <= 1) {
                    slots.record(j, v);
                }
            }
            slots
        });
        assert_eq!(inbox.ballots(), slots, "processor {}", self.me);
        let mut edited = inbox.clone();
        edited.set(ProcessId(0), Payload::single(Value(1)));
        assert_eq!(edited.ballots(), None, "a set inbox keeps a view");
        self.checked.fetch_add(1, Ordering::SeqCst);
    }

    fn decide(&mut self, _ctx: &mut ProcCtx) -> Value {
        Value::DEFAULT
    }
}

/// Runs the probe at `config` against `adversary`, expecting a packed
/// view iff `packed`, and asserts every recipient checked every round.
fn probe(config: &RunConfig, adversary: &mut dyn Adversary, packed: bool) {
    let checked = Arc::new(AtomicUsize::new(0));
    let outcome = run(config, adversary, |me| {
        Box::new(Probe {
            me,
            packed,
            checked: checked.clone(),
        })
    });
    assert_eq!(outcome.rounds_used, ROUNDS);
    assert_eq!(checked.load(Ordering::SeqCst), config.n * ROUNDS);
}

fn random_liar(seed: u64) -> Box<dyn Adversary> {
    Family::RandomLiar(FaultSelection::with_source()).strategy(seed)
}

#[test]
fn ballots_equal_the_slots_for_every_reader() {
    for seed in 0..3 {
        probe(&RunConfig::new(16, 5), random_liar(seed).as_mut(), true);
        probe(&RunConfig::new(64, 21), random_liar(seed).as_mut(), true);
    }

    // Cut edges make honest slots differ per reader.
    let mut partition = Family::Partition {
        selection: FaultSelection::without_source(),
        split: 5,
        from: 2,
        to: 3,
    }
    .strategy(0);
    assert!(partition.has_edge_faults());
    probe(&RunConfig::new(16, 5), partition.as_mut(), true);

    // No view past one mask word, or over a wider domain.
    probe(&RunConfig::new(65, 21), random_liar(0).as_mut(), false);
    let ternary = RunConfig::new(16, 5).with_domain(ValueDomain::new(3));
    probe(&ternary, random_liar(0).as_mut(), false);
}
