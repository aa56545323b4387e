//! Recorded scenarios: one run, its adversary trace, and its verdict.
//!
//! A [`Scenario`] (schema `sg-scenario/1`) is the committed-artifact
//! form of one execution: the cell configuration, the full
//! [`AdversaryTrace`] of the faulty behaviour, and the [`Verdict`] the
//! run produced. [`record`] captures one while the wrapped strategy
//! plays; [`replay`] re-executes the trace and returns the fresh
//! verdict, so callers (the `sg replay` subcommand, the corpus
//! regression test, CI's `scenario-corpus` job) can assert that a
//! recorded violation or survival still reproduces bit-exactly.
//!
//! Replay drives [`sg_core::execute`] directly — *not* the sweep
//! executor, which asserts agreement and would turn a recorded
//! violation into a panic. Scenarios are exactly the place where
//! disagreement is a legitimate, preservable result.

use std::sync::Arc;

use serde::json::{JsonError, Value as Json};
use serde::{FromJson, ToJson};
use sg_adversary::{AdversaryTrace, RecordingAdversary, ReplayAdversary, TraceError};
use sg_core::SpecError;
use sg_sim::{Adversary, Outcome, Value};

use crate::montecarlo::{sample_of, Sample};
use crate::SweepConfig;

/// Schema tag for the serialized scenario form.
pub const SCENARIO_SCHEMA: &str = "sg-scenario/1";

/// What one run concluded — the complete drift-detection surface for a
/// replayed scenario. `sample` carries the fingerprint-relevant metrics
/// ([`sample_of`]), so bit-exact reproduction is checked with plain
/// equality.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// Whether all correct processors agreed.
    pub agreement: bool,
    /// The validity condition; `None` when the source was faulty.
    pub validity: Option<bool>,
    /// The common decision, if agreement held.
    pub decision: Option<Value>,
    /// Rounds actually executed.
    pub rounds_used: usize,
    /// Whether the run stopped before its static schedule.
    pub early_stopped: bool,
    /// The fingerprint-relevant metric sample of the run.
    pub sample: Sample,
}

impl Verdict {
    /// Extracts the verdict of a finished run.
    pub fn of(outcome: &Outcome) -> Verdict {
        Verdict {
            agreement: outcome.agreement(),
            validity: outcome.validity(),
            decision: outcome.decision(),
            rounds_used: outcome.rounds_used,
            early_stopped: outcome.early_stopped,
            sample: sample_of(outcome),
        }
    }
}

impl ToJson for Verdict {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("agreement".to_string(), Json::Bool(self.agreement)),
            (
                "validity".to_string(),
                match self.validity {
                    None => Json::Null,
                    Some(v) => Json::Bool(v),
                },
            ),
            (
                "decision".to_string(),
                match self.decision {
                    None => Json::Null,
                    Some(v) => Json::from(u64::from(v.raw())),
                },
            ),
            ("rounds_used".to_string(), Json::from(self.rounds_used)),
            ("early_stopped".to_string(), Json::Bool(self.early_stopped)),
            ("sample".to_string(), self.sample.to_json()),
        ])
    }
}

impl FromJson for Verdict {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let agreement = v
            .need("agreement")?
            .as_bool()
            .ok_or_else(|| JsonError::msg("'agreement' must be a boolean"))?;
        let validity = match v.need("validity")? {
            Json::Null => None,
            other => Some(
                other
                    .as_bool()
                    .ok_or_else(|| JsonError::msg("'validity' must be a boolean or null"))?,
            ),
        };
        let decision = match v.need("decision")? {
            Json::Null => None,
            other => Some(Value(
                other
                    .as_usize()
                    .and_then(|raw| u16::try_from(raw).ok())
                    .ok_or_else(|| JsonError::msg("'decision' must fit u16 or be null"))?,
            )),
        };
        let rounds_used = v
            .need("rounds_used")?
            .as_usize()
            .ok_or_else(|| JsonError::msg("'rounds_used' must be an integer"))?;
        let early_stopped = v
            .need("early_stopped")?
            .as_bool()
            .ok_or_else(|| JsonError::msg("'early_stopped' must be a boolean"))?;
        let sample = Sample::from_json(v.need("sample")?)?;
        Ok(Verdict {
            agreement,
            validity,
            decision,
            rounds_used,
            early_stopped,
            sample,
        })
    }
}

/// One recorded execution: configuration + adversary trace + verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// The cell the run executed (spec, n, t, source value, tracing).
    pub config: SweepConfig,
    /// The verdict the recorded run produced.
    pub verdict: Verdict,
    /// The complete faulty behaviour of the run.
    pub trace: AdversaryTrace,
}

/// Failure of scenario recording or replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioError {
    /// The cell configuration cannot run (spec validation failed).
    Spec(String),
    /// The trace could not be recorded, validated, or replayed.
    Trace(TraceError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Spec(detail) => write!(f, "invalid scenario config: {detail}"),
            ScenarioError::Trace(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<TraceError> for ScenarioError {
    fn from(err: TraceError) -> Self {
        ScenarioError::Trace(err)
    }
}

impl From<SpecError> for ScenarioError {
    fn from(err: SpecError) -> Self {
        ScenarioError::Spec(err.to_string())
    }
}

/// Executes `config` against `adversary`, recording the run into a
/// [`Scenario`].
///
/// The recorded run is bit-identical to an unrecorded one (the recorder
/// forwards every adversary call unchanged), so the captured verdict is
/// exactly what the bare strategy would have produced.
///
/// # Errors
///
/// Returns [`ScenarioError::Spec`] if the cell cannot run and
/// [`ScenarioError::Trace`] if the strategy's behaviour has no
/// serializable form (signed-relay payloads).
pub fn record(
    config: &SweepConfig,
    adversary: Box<dyn Adversary>,
) -> Result<(Scenario, Outcome), ScenarioError> {
    let mut recorder = RecordingAdversary::new(adversary);
    let outcome = sg_core::execute(config.spec, &config.run_config(), &mut recorder)?;
    let trace = recorder.finish()?;
    let scenario = Scenario {
        config: *config,
        verdict: Verdict::of(&outcome),
        trace,
    };
    Ok((scenario, outcome))
}

/// Re-executes a scenario's trace and returns the fresh verdict.
///
/// Callers compare the returned verdict against `scenario.verdict` to
/// detect drift; the run itself never panics on a damaged trace — any
/// divergence from the recorded call sequence surfaces as
/// [`ScenarioError::Trace`].
///
/// The recorded verdict picks the engine mode: a run recorded as
/// [`Verdict::early_stopped`] replays with early stopping, and a run
/// that used its whole schedule replays
/// [`fixed_length`](sg_sim::RunConfig::fixed_length) — the same
/// execution bit for bit, whichever mode recorded it, and one that a
/// stop rule added after the recording (the tree machine's echo rule)
/// cannot cut short of its trace.
///
/// # Errors
///
/// Returns [`ScenarioError::Trace`] for a malformed trace or a replay
/// desync, [`ScenarioError::Spec`] if the cell cannot run.
pub fn replay(scenario: &Scenario) -> Result<Verdict, ScenarioError> {
    let mut replayer = ReplayAdversary::new(Arc::new(scenario.trace.clone()))?;
    let mut run_config = scenario.config.run_config();
    run_config.early_stopping = scenario.verdict.early_stopped;
    let outcome = sg_core::execute(scenario.config.spec, &run_config, &mut replayer)?;
    replayer.verify()?;
    Ok(Verdict::of(&outcome))
}

impl ToJson for Scenario {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".to_string(), Json::from(SCENARIO_SCHEMA)),
            ("config".to_string(), self.config.to_json()),
            ("verdict".to_string(), self.verdict.to_json()),
            ("trace".to_string(), self.trace.to_json()),
        ])
    }
}

impl FromJson for Scenario {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let schema = v
            .need("schema")?
            .as_str()
            .ok_or_else(|| JsonError::msg("scenario schema must be a string"))?;
        if schema != SCENARIO_SCHEMA {
            return Err(JsonError::msg(format!(
                "unsupported scenario schema {schema:?} (want {SCENARIO_SCHEMA:?})"
            )));
        }
        Ok(Scenario {
            config: SweepConfig::from_json(v.need("config")?)?,
            verdict: Verdict::from_json(v.need("verdict")?)?,
            trace: AdversaryTrace::from_json(v.need("trace")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_adversary::{Family, FaultSelection, Move, TapeAdversary};
    use sg_core::AlgorithmSpec;
    use sg_sim::ProcessId;

    fn cell() -> SweepConfig {
        SweepConfig::traced(AlgorithmSpec::OptimalKing, 7, 2)
    }

    #[test]
    fn record_then_replay_reproduces_the_verdict() {
        let adversary = Family::Equivocate {
            selection: FaultSelection::with_source(),
            split: 3,
            start: 1,
        }
        .strategy(0);
        let (scenario, outcome) = record(&cell(), adversary).unwrap();
        assert_eq!(scenario.verdict, Verdict::of(&outcome));
        assert_eq!(replay(&scenario).unwrap(), scenario.verdict);
    }

    #[test]
    fn scenario_json_round_trip_preserves_replay() {
        let adversary = Box::new(
            TapeAdversary::new(
                [ProcessId(0), ProcessId(1)],
                vec![Move::AllOne, Move::Silent, Move::Garbage],
            )
            .unwrap(),
        );
        let (scenario, _) = record(&cell(), adversary).unwrap();
        let text = scenario.to_json().to_string();
        let parsed = Scenario::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, scenario);
        assert_eq!(replay(&parsed).unwrap(), scenario.verdict);
    }

    #[test]
    fn truncated_trace_is_a_structured_error() {
        let adversary = Family::Equivocate {
            selection: FaultSelection::without_source(),
            split: 3,
            start: 1,
        }
        .strategy(0);
        let (mut scenario, _) = record(&cell(), adversary).unwrap();
        scenario
            .trace
            .steps
            .truncate(scenario.trace.steps.len() / 2);
        match replay(&scenario) {
            Err(ScenarioError::Trace(TraceError::Desync(_))) => {}
            other => panic!("expected a desync error, got {other:?}"),
        }
    }

    #[test]
    fn wrong_schema_rejected() {
        let adversary = Family::Equivocate {
            selection: FaultSelection::without_source(),
            split: 3,
            start: 1,
        }
        .strategy(0);
        let (scenario, _) = record(&cell(), adversary).unwrap();
        let mut json = scenario.to_json();
        if let Json::Obj(fields) = &mut json {
            fields[0].1 = Json::from("sg-scenario/9");
        }
        assert!(Scenario::from_json(&json).is_err());
    }
}
