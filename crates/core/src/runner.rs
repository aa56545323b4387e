//! Convenience entry point: validate, build, and run one execution.

use sg_sim::{Adversary, Outcome, RunArena, RunConfig};

use crate::spec::{AlgorithmSpec, SpecError};

/// Runs `spec` under `config` against `adversary` and returns the
/// engine's [`Outcome`].
///
/// Automatically attaches the signature registry for authenticated
/// baselines.
///
/// # Errors
///
/// Returns a [`SpecError`] if the algorithm cannot run at `(n, t)`.
///
/// # Examples
///
/// ```
/// use sg_core::{execute, AlgorithmSpec};
/// use sg_sim::{NoFaults, RunConfig, Value};
///
/// let config = RunConfig::new(4, 1);
/// let outcome = execute(AlgorithmSpec::Exponential, &config, &mut NoFaults)?;
/// assert!(outcome.agreement());
/// assert_eq!(outcome.decision(), Some(Value(1)));
/// # Ok::<(), sg_core::SpecError>(())
/// ```
pub fn execute(
    spec: AlgorithmSpec,
    config: &RunConfig,
    adversary: &mut dyn Adversary,
) -> Result<Outcome, SpecError> {
    let config = checked_config(spec, config)?;
    // Keyed by spec + configuration shape, so sweeps recycle protocol
    // instances across runs instead of boxing `n` fresh ones per run.
    let key = spec.pool_key(&config);
    Ok(sg_sim::run_pooled(
        &config,
        adversary,
        key,
        spec.factory(&config),
    ))
}

/// Validates `(n, t)` for `spec` and returns the configuration its runs
/// execute under (authenticated where the spec needs signatures).
fn checked_config(spec: AlgorithmSpec, config: &RunConfig) -> Result<RunConfig, SpecError> {
    spec.validate(config.n, config.t)?;
    Ok(if spec.needs_authentication() {
        config.with_authentication()
    } else {
        *config
    })
}

/// [`execute`] with every buffer caller-held (see [`sg_sim::run_into`]):
/// arena, keyed instance pool *and* result storage (an
/// [`sg_sim::Outcome::buffer`]) all live with the caller, so a long-lived
/// worker looping over executions performs no steady-state allocations
/// and keeps its protocol instances warm across runs — and, in the
/// `sg-serve` daemon, across *requests*. This is the sweep executor's
/// scalar path; bit-identical to [`execute`] (`tests/instance_pool.rs`
/// pins pooled/fresh identity).
///
/// # Errors
///
/// Returns a [`SpecError`] if the algorithm cannot run at `(n, t)`.
pub fn execute_into(
    arena: &mut RunArena,
    spec: AlgorithmSpec,
    config: &RunConfig,
    adversary: &mut dyn Adversary,
    out: &mut Outcome,
) -> Result<(), SpecError> {
    let config = checked_config(spec, config)?;
    let key = spec.pool_key(&config);
    let mk = spec.factory(&config);
    sg_sim::run_into(arena, &config, adversary, Some(key), mk, out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_sim::{NoFaults, Value};

    #[test]
    fn fault_free_exponential_agrees_on_source_value() {
        let config = RunConfig::new(4, 1).with_source_value(Value(1));
        let outcome = execute(AlgorithmSpec::Exponential, &config, &mut NoFaults).unwrap();
        outcome.assert_correct();
        assert_eq!(outcome.decision(), Some(Value(1)));
        assert_eq!(outcome.rounds_used, 2);
    }

    #[test]
    fn invalid_parameters_surface_as_errors() {
        let config = RunConfig::new(4, 2);
        assert!(execute(AlgorithmSpec::Exponential, &config, &mut NoFaults).is_err());
    }

    #[test]
    fn all_algorithms_run_fault_free() {
        let cases = [
            (AlgorithmSpec::PlainExponential, 7, 2),
            (AlgorithmSpec::Exponential, 7, 2),
            (AlgorithmSpec::ExponentialPrime, 7, 2),
            (AlgorithmSpec::AlgorithmA { b: 3 }, 16, 5),
            (AlgorithmSpec::AlgorithmB { b: 3 }, 21, 5),
            (AlgorithmSpec::AlgorithmC, 18, 3),
            (AlgorithmSpec::Hybrid { b: 3 }, 16, 5),
            (AlgorithmSpec::PhaseKing, 9, 2),
            (AlgorithmSpec::PhaseQueen, 9, 2),
            (AlgorithmSpec::OptimalKing, 7, 2),
            (AlgorithmSpec::KingShift { b: 3 }, 10, 3),
            (AlgorithmSpec::DynamicKing { b: 3 }, 16, 5),
            (AlgorithmSpec::DolevStrong, 5, 3),
        ];
        for (spec, n, t) in cases {
            let config = RunConfig::new(n, t).with_source_value(Value(1));
            let outcome = execute(spec, &config, &mut NoFaults)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
            outcome.assert_correct();
            assert_eq!(outcome.decision(), Some(Value(1)), "{}", spec.name());
            // The static schedule is always reported; the rounds actually
            // executed may undercut it (fault-free runs of the
            // early-stopping families terminate as soon as every correct
            // processor is ready).
            assert_eq!(
                outcome.scheduled_rounds,
                spec.rounds(n, t),
                "{}",
                spec.name()
            );
            assert!(
                outcome.rounds_used <= outcome.scheduled_rounds,
                "{}",
                spec.name()
            );
            assert_eq!(
                outcome.early_stopped,
                outcome.rounds_used < outcome.scheduled_rounds,
                "{}",
                spec.name()
            );
        }
    }
}
