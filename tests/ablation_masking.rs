//! Ablation: the Fault Discovery + Fault Masking rules are load-bearing.
//!
//! The paper's progress argument for the shifted families (§4.1) runs
//! through global detection and masking: each block without a persistent
//! value must globally detect b−1 new faults, else the adversary can
//! stall past the schedule. This test exhibits a concrete execution in
//! which Algorithm B *without* discovery/masking violates agreement,
//! while the paper's (masked) Algorithm B survives the identical attack.

mod common;

use shifting_gears::core::{AlgorithmSpec, GearedProtocol, Params};
use shifting_gears::sim::{
    Inbox, Payload, ProcCtx, ProcessId, ProcessSet, Protocol, Value, ValueDomain,
};

/// Runs Algorithm B(b) with or without the discovery/masking machinery
/// against a seeded random-liar adversary (faults = P0..P(t−1), i.e. the
/// source is faulty). Returns the correct processors' decisions.
fn run_b_variant(n: usize, t: usize, b: usize, masked: bool, seed: u64) -> Vec<Value> {
    let params = Params {
        n,
        t,
        source: ProcessId(0),
        domain: ValueDomain::binary(),
    };
    let plan = AlgorithmSpec::AlgorithmB { b }
        .plan(n, t)
        .expect("Algorithm B is plan-driven");
    let faulty = ProcessSet::from_members(n, (0..t).map(ProcessId));
    let mut protos: Vec<GearedProtocol> = (0..n)
        .map(|i| {
            let me = ProcessId(i);
            let input = (i == 0).then_some(Value(1));
            GearedProtocol::new(params, me, input, masked, plan.clone())
        })
        .collect();
    let mut ctxs: Vec<ProcCtx> = (0..n).map(|i| ProcCtx::new(ProcessId(i))).collect();
    let mut state = seed;
    let mut rnd = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let rounds = protos[0].total_rounds();
    for round in 1..=rounds {
        for c in ctxs.iter_mut() {
            c.round = round;
        }
        let bx: Vec<Option<Payload>> = (0..n).map(|i| protos[i].outgoing(&mut ctxs[i])).collect();
        for i in 0..n {
            let mut inbox = Inbox::empty(n);
            for j in 0..n {
                if i == j {
                    continue;
                }
                let s = ProcessId(j);
                let payload = if faulty.contains(s) {
                    // Honest-shaped payloads with random bits; the faulty
                    // source also fabricates its round-1 broadcast.
                    let base = bx[j].as_ref().map_or(0, Payload::num_values);
                    let len = base.max(usize::from(j == 0 && round == 1));
                    if len == 0 {
                        Payload::Missing
                    } else {
                        Payload::Values((0..len).map(|_| Value((rnd() % 2) as u16)).collect())
                    }
                } else {
                    bx[j].clone().unwrap_or(Payload::Missing)
                };
                inbox.set(s, payload);
            }
            protos[i].deliver(&inbox, &mut ctxs[i]);
        }
    }
    (0..n)
        .filter(|i| !faulty.contains(ProcessId(*i)))
        .map(|i| protos[i].decide(&mut ctxs[i]))
        .collect()
}

/// Discovered by seed scan: without masking, this execution splits the
/// correct processors' decisions.
const BREAKING: (usize, usize, usize, u64) = (13, 3, 2, 51);

#[test]
fn unmasked_algorithm_b_violates_agreement() {
    let (n, t, b, seed) = BREAKING;
    let decisions = run_b_variant(n, t, b, false, seed);
    assert!(
        decisions.windows(2).any(|w| w[0] != w[1]),
        "expected the pinned counterexample to disagree; got {decisions:?} \
         (if the protocol implementation changed, re-run the seed scan)"
    );
}

#[test]
fn masked_algorithm_b_survives_the_identical_attack() {
    let (n, t, b, seed) = BREAKING;
    let decisions = run_b_variant(n, t, b, true, seed);
    assert!(
        decisions.windows(2).all(|w| w[0] == w[1]),
        "masked Algorithm B must agree: {decisions:?}"
    );
}

#[test]
fn masked_algorithm_b_survives_a_seed_scan() {
    let (n, t, b, _) = BREAKING;
    for seed in 0..100u64 {
        let decisions = run_b_variant(n, t, b, true, seed);
        assert!(
            decisions.windows(2).all(|w| w[0] == w[1]),
            "masked Algorithm B disagreed at seed {seed}: {decisions:?}"
        );
    }
}
