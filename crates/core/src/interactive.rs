//! Interactive consistency and consensus, built from `n` parallel
//! Byzantine-agreement instances.
//!
//! The paper solves the *broadcast* problem (one source); Pease, Shostak
//! & Lamport's original goal — and the standard way to obtain full
//! consensus where every processor has an input — is **interactive
//! consistency**: every processor learns a common vector containing, for
//! each correct processor, that processor's input. We compose it from `n`
//! parallel instances of any of this crate's broadcast algorithms, one
//! per source, using the [`crate::multiplex`] substrate; consensus is the
//! plurality of the agreed vector.

use sg_sim::{Adversary, Outcome, PoolKey, ProcessId, Protocol, RunConfig, Value};

use crate::multiplex::{plurality, Multiplex};
use crate::params::Params;
use crate::spec::AlgorithmSpec;

/// Builds the interactive-consistency protocol instance for processor
/// `me`: `n` parallel `base` instances, instance `i` sourced at `P_i`
/// with `inputs[i]` (only `me`'s own slot is used as an actual input).
///
/// The composite decision is the plurality of the agreed vector (the
/// usual consensus rule); the full vector is retrievable from
/// [`Multiplex::decided_vector`] and is emitted as a trace note.
///
/// # Panics
///
/// Panics if `inputs.len() != params.n` or `base` fails validation.
pub fn interactive_consistency(
    base: AlgorithmSpec,
    params: Params,
    me: ProcessId,
    inputs: &[Value],
) -> Multiplex {
    assert_eq!(inputs.len(), params.n, "one input per processor");
    base.validate(params.n, params.t)
        .unwrap_or_else(|e| panic!("invalid base algorithm: {e}"));
    let mut subs: Vec<Box<dyn Protocol>> = Vec::with_capacity(params.n);
    let mut sub_configs: Vec<RunConfig> = Vec::with_capacity(params.n);
    for i in 0..params.n {
        let source = ProcessId(i);
        let sub_params = Params { source, ..params };
        let input = (me == source).then_some(inputs[i]);
        subs.push(base.build(sub_params, me, input));
        let mut cfg = RunConfig::new(params.n, params.t)
            .with_source_value(inputs[i])
            .with_domain(params.domain);
        cfg.source = source;
        sub_configs.push(cfg);
    }
    Multiplex::new(
        format!("interactive-consistency[{}]", base.name()),
        subs,
        Box::new(plurality),
    )
    .with_sub_configs(sub_configs)
}

/// The instance-pool key for [`run_consensus`]: the base algorithm's key
/// plus the full input vector (sub-instance inputs depend on every slot).
fn consensus_pool_key(base: AlgorithmSpec, config: &RunConfig, inputs: &[Value]) -> PoolKey {
    let mut words: Vec<u64> = Vec::with_capacity(inputs.len() + 2);
    words.push(0x1C0A_11E1); // interactive-consistency namespace
    words.push(base.pool_key(config).raw());
    words.extend(inputs.iter().map(|v| u64::from(v.raw())));
    PoolKey::of(&words)
}

/// Runs interactive consistency (and thereby consensus) over `inputs`
/// against `adversary`, using `base` for each broadcast instance.
///
/// The returned outcome's decisions are the consensus values (plurality
/// of each correct processor's agreed vector); agreement of the vectors
/// themselves is exercised in this module's tests via
/// [`Multiplex::decided_vector`].
///
/// # Panics
///
/// Panics if `inputs.len() != config.n` or the base algorithm fails
/// validation.
pub fn run_consensus(
    base: AlgorithmSpec,
    config: &RunConfig,
    inputs: Vec<Value>,
    adversary: &mut dyn Adversary,
) -> Outcome {
    assert_eq!(inputs.len(), config.n, "one input per processor");
    let params = Params::from_config(config);
    let key = consensus_pool_key(base, config, &inputs);
    sg_sim::run_pooled(config, adversary, key, move |me| {
        Box::new(interactive_consistency(base, params, me, &inputs))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_sim::{Inbox, NoFaults, Payload, ProcCtx, ProcessSet, ValueDomain};

    fn params(n: usize, t: usize) -> Params {
        Params {
            n,
            t,
            source: ProcessId(0),
            domain: ValueDomain::binary(),
        }
    }

    /// Drives `n` interactive-consistency instances directly so the test
    /// can inspect every correct processor's agreed vector.
    fn drive_ic(
        n: usize,
        t: usize,
        inputs: &[Value],
        faulty: &ProcessSet,
        mut lie: impl FnMut(usize, ProcessId, ProcessId, Option<&Payload>) -> Payload,
    ) -> Vec<Multiplex> {
        let mut protos: Vec<Multiplex> = (0..n)
            .map(|i| {
                interactive_consistency(
                    AlgorithmSpec::Exponential,
                    params(n, t),
                    ProcessId(i),
                    inputs,
                )
            })
            .collect();
        let mut ctxs: Vec<ProcCtx> = (0..n).map(|i| ProcCtx::new(ProcessId(i))).collect();
        let rounds = protos[0].total_rounds();
        for round in 1..=rounds {
            for ctx in &mut ctxs {
                ctx.round = round;
            }
            let broadcasts: Vec<Option<Payload>> =
                (0..n).map(|i| protos[i].outgoing(&mut ctxs[i])).collect();
            for i in 0..n {
                let mut inbox = Inbox::empty(n);
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    let sender = ProcessId(j);
                    let payload = if faulty.contains(sender) {
                        lie(round, sender, ProcessId(i), broadcasts[j].as_ref())
                    } else {
                        broadcasts[j].clone().unwrap_or(Payload::Missing)
                    };
                    inbox.set(sender, payload);
                }
                protos[i].deliver(&inbox, &mut ctxs[i]);
            }
        }
        for i in 0..n {
            let _ = protos[i].decide(&mut ctxs[i]);
        }
        protos
    }

    #[test]
    fn vectors_agree_and_contain_correct_inputs() {
        let n = 4;
        let t = 1;
        let inputs = vec![Value(1), Value(0), Value(1), Value(0)];
        let faulty = ProcessSet::from_members(n, [ProcessId(2)]);
        let protos = drive_ic(n, t, &inputs, &faulty, |_r, _s, recipient, shadow| {
            // The faulty processor two-faces every instance.
            match shadow {
                Some(Payload::Values(vals)) if recipient.index() % 2 == 0 => {
                    Payload::Values(vals.iter().map(|v| Value(1 - v.raw())).collect())
                }
                Some(p) => p.clone(),
                None => Payload::Missing,
            }
        });
        let vectors: Vec<&[Value]> = (0..n)
            .filter(|i| !faulty.contains(ProcessId(*i)))
            .map(|i| protos[i].decided_vector().expect("decided"))
            .collect();
        // IC1: all correct processors agree on the whole vector.
        for w in vectors.windows(2) {
            assert_eq!(w[0], w[1], "vectors diverged");
        }
        // IC2: correct processors' slots carry their inputs.
        for i in 0..n {
            if !faulty.contains(ProcessId(i)) {
                assert_eq!(vectors[0][i], inputs[i], "slot {i}");
            }
        }
    }

    #[test]
    fn consensus_on_unanimous_inputs_is_that_value() {
        let config = RunConfig::new(4, 1);
        let inputs = vec![Value(1); 4];
        let outcome = run_consensus(AlgorithmSpec::Exponential, &config, inputs, &mut NoFaults);
        assert!(outcome.agreement());
        assert_eq!(outcome.decision(), Some(Value(1)));
    }

    #[test]
    fn consensus_decisions_agree_under_faults() {
        let config = RunConfig::new(7, 2);
        let inputs = vec![
            Value(1),
            Value(0),
            Value(1),
            Value(1),
            Value(0),
            Value(1),
            Value(0),
        ];
        let mut adversary =
            sg_adversary::Family::RandomLiar(sg_adversary::FaultSelection::without_source())
                .strategy(77);
        let outcome = run_consensus(
            AlgorithmSpec::Exponential,
            &config,
            inputs,
            adversary.as_mut(),
        );
        assert!(outcome.agreement(), "consensus decisions diverged");
    }
}
