//! Multivalued Byzantine agreement over binary instances.
//!
//! The paper treats `|V|` as a constant and notes (§2) that a large value
//! set can be reduced to two elements with Coan's technique at the cost
//! of two rounds. We provide the standard *bit-parallel* reduction
//! instead (see DESIGN.md §5): run `⌈log₂|V|⌉` binary instances of any of
//! the paper's algorithms in parallel — one per bit of the source's value
//! — and reassemble the agreed bits. Same round count as the binary
//! algorithm; message length multiplied by the bit width. Agreement and
//! validity lift bit-wise: every instance agrees, so the reassembled
//! values agree; a correct source's bits are each decided faithfully.

use sg_sim::{Adversary, Outcome, PoolKey, ProcessId, Protocol, RunConfig, Value, ValueDomain};

use crate::multiplex::Multiplex;
use crate::params::Params;
use crate::spec::AlgorithmSpec;

/// Number of binary instances needed for `domain`.
pub fn bits_needed(domain: ValueDomain) -> usize {
    domain.bits_per_value() as usize
}

/// Builds the multivalued broadcast instance for processor `me`: one
/// binary `base` instance per bit of the outer `params.domain`.
///
/// `input` must be `Some` exactly when `me` is the source.
///
/// # Panics
///
/// Panics if the input/source relationship is violated or `base` fails
/// validation at `(n, t)`.
pub fn multivalued_broadcast(
    base: AlgorithmSpec,
    params: Params,
    me: ProcessId,
    input: Option<Value>,
) -> Multiplex {
    assert_eq!(
        input.is_some(),
        me == params.source,
        "exactly the source carries an input"
    );
    base.validate(params.n, params.t)
        .unwrap_or_else(|e| panic!("invalid base algorithm: {e}"));
    let outer_domain = params.domain;
    let bits = bits_needed(outer_domain);
    let sub_params = Params {
        domain: ValueDomain::binary(),
        ..params
    };
    // The source's per-bit inputs: reset re-derives them from these
    // configs, so pooled instances recycle across runs of one source
    // value (the pool key covers it).
    let source_value = input.unwrap_or(Value::DEFAULT);
    let mut subs: Vec<Box<dyn Protocol>> = Vec::with_capacity(bits);
    let mut sub_configs: Vec<RunConfig> = Vec::with_capacity(bits);
    for k in 0..bits {
        let bit = Value((source_value.raw() >> k) & 1);
        let bit_input = input.map(|_| bit);
        subs.push(base.build(sub_params, me, bit_input));
        let mut cfg = RunConfig::new(params.n, params.t).with_source_value(bit);
        cfg.source = params.source;
        sub_configs.push(cfg);
    }
    Multiplex::new(
        format!("multivalued[{}×{}]", base.name(), bits),
        subs,
        Box::new(move |bits_vec: &[Value]| {
            let mut raw: u16 = 0;
            for (k, bit) in bits_vec.iter().enumerate() {
                raw |= (bit.raw() & 1) << k;
            }
            // All correct processors reassemble the same raw value and
            // sanitize identically, so agreement is preserved even for
            // out-of-domain assemblies under a faulty source.
            outer_domain.sanitize(Value(raw))
        }),
    )
    .with_sub_configs(sub_configs)
}

/// Runs multivalued broadcast: the source's `config.source_value` is
/// agreed upon over a non-binary `config.domain`.
///
/// # Panics
///
/// Panics if the base algorithm fails validation.
pub fn run_multivalued(
    base: AlgorithmSpec,
    config: &RunConfig,
    adversary: &mut dyn Adversary,
) -> Outcome {
    let params = Params::from_config(config);
    let source = config.source;
    let source_value = config.source_value;
    // The base key already covers (n, t, domain, source, source value),
    // which determine every per-bit sub-instance; the namespace word
    // keeps multivalued composites apart from plain base instances.
    let key = PoolKey::of(&[0x3B17_5EED, base.pool_key(config).raw()]);
    sg_sim::run_pooled(config, adversary, key, move |me| {
        let input = (me == source).then_some(source_value);
        Box::new(multivalued_broadcast(base, params, me, input))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_adversary::{Family, FaultSelection};
    use sg_sim::NoFaults;

    #[test]
    fn bits_needed_matches_domain_width() {
        assert_eq!(bits_needed(ValueDomain::binary()), 1);
        assert_eq!(bits_needed(ValueDomain::new(5)), 3);
        assert_eq!(bits_needed(ValueDomain::new(256)), 8);
    }

    #[test]
    fn fault_free_multivalued_broadcast() {
        for raw in [0u16, 3, 6] {
            let config = RunConfig::new(7, 2)
                .with_domain(ValueDomain::new(7))
                .with_source_value(Value(raw));
            let outcome = run_multivalued(AlgorithmSpec::Exponential, &config, &mut NoFaults);
            outcome.assert_correct();
            assert_eq!(outcome.decision(), Some(Value(raw)));
        }
    }

    #[test]
    fn multivalued_broadcast_under_faults() {
        for mut adversary in [
            Family::RandomLiar(FaultSelection::with_source()).strategy(5),
            Family::TwoFaced(FaultSelection::without_source()).strategy(0),
        ] {
            let config = RunConfig::new(7, 2)
                .with_domain(ValueDomain::new(6))
                .with_source_value(Value(5));
            let outcome = run_multivalued(AlgorithmSpec::Exponential, &config, adversary.as_mut());
            outcome.assert_correct();
        }
    }

    #[test]
    fn multivalued_over_hybrid_base() {
        let config = RunConfig::new(10, 3)
            .with_domain(ValueDomain::new(4))
            .with_source_value(Value(2));
        let mut adversary = Family::TwoFaced(FaultSelection::without_source()).strategy(0);
        let outcome = run_multivalued(AlgorithmSpec::Hybrid { b: 3 }, &config, adversary.as_mut());
        outcome.assert_correct();
        assert_eq!(outcome.decision(), Some(Value(2)));
    }

    #[test]
    fn out_of_domain_assembly_sanitizes_consistently() {
        // A faulty source can drive the bit instances to assemble a raw
        // value outside the outer domain; all correct processors must
        // still agree (on the sanitized default).
        let config = RunConfig::new(7, 2)
            .with_domain(ValueDomain::new(3)) // 2 bits, raw 3 is invalid
            .with_source_value(Value(1));
        let mut adversary = Family::RandomLiar(FaultSelection::with_source()).strategy(9);
        let outcome = run_multivalued(AlgorithmSpec::Exponential, &config, adversary.as_mut());
        assert!(outcome.agreement());
    }
}
