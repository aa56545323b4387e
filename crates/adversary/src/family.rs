//! The named adversary families: one value per family.
//!
//! The paper's fault model lets a faulty processor do anything (§2); a
//! sweep grid, the gauntlet suites and the `sg` CLI sample that space
//! through nineteen named families. A [`Family`] is one of them with its
//! parameters, and it is the one place those parameters are declared:
//! [`Family::strategy`] builds the scalar strategy of one run — one
//! strategy type for every family that corrupts through a
//! [`FaultSelection`], whose payload rule is a match on the variant —
//! [`crate::BatchFamily::new`] reads the lock-step form straight off the
//! variant, and the [`ToJson`] / [`FromJson`] impls below are the
//! family's `sg-serve/1` wire text (the `adversaries` entries of a plan,
//! and what a journal key hashes).

use serde::json::{JsonError, Value as Json};
use serde::{FromJson, ToJson};
use sg_sim::{Adversary, NoFaults, ProcessId};

use crate::strategies::FamilyStrategy;
use crate::{
    AdversaryTrace, EmptyTapeError, FaultSelection, Move, ReplayAdversary, TapeAdversary,
    TraceError,
};

/// A named, wire-portable adversary family.
///
/// Every variant's strategy takes nothing but its RNG seed from the
/// seed it is built for, which is what lets a sweep pool one strategy
/// per family and recycle it through [`Adversary::reseed`] (the one piece
/// of per-run state, `stale-shadow`'s stash of last round's shadows,
/// starts empty at every `reseed` and `corrupt`). The tape and
/// replay variants hold their validated strategy, so an empty tape or a
/// trace that fails [`AdversaryTrace::validate`] is unrepresentable:
/// build them with [`Family::tape`] and [`Family::replay`].
#[derive(Clone, Debug)]
pub enum Family {
    /// [`NoFaults`]: corrupts nobody.
    NoFaults,
    /// Seeded uniform random lies over the selection.
    RandomLiar(FaultSelection),
    /// The round-count stressor: the rank-`k` member is honest until
    /// round `start + k·block` (`block` clamped to ≥ 1), then lies
    /// randomly forever, so each block discovers only the fault it
    /// reveals.
    ChainRevealer {
        /// Who is corrupted.
        selection: FaultSelection,
        /// Round (1-based) the rank-0 member reveals itself.
        start: usize,
        /// Rounds between reveals.
        block: usize,
    },
    /// Honest until `round`, then permanently silent.
    Crash {
        /// Who is corrupted.
        selection: FaultSelection,
        /// First round (1-based) of silence.
        round: usize,
    },
    /// Never sends.
    Silent(FaultSelection),
    /// During rounds `from..=to` every edge crossing the id boundary
    /// `split` is cut, honest edges included (through
    /// [`Adversary::edge_cut`]); members relay their shadow otherwise.
    Partition {
        /// Who is corrupted.
        selection: FaultSelection,
        /// Ids below `split` form one side of the cut.
        split: usize,
        /// First cut round.
        from: usize,
        /// Last cut round.
        to: usize,
    },
    /// Drops every `period`-th (round, sender, recipient) slot, offset by
    /// `phase` (`period` clamped to ≥ 1), and relays the honest shadow
    /// otherwise.
    Omission {
        /// Who is corrupted.
        selection: FaultSelection,
        /// Drop period.
        period: usize,
        /// Drop phase offset.
        phase: usize,
    },
    /// From round `start` on, zeros to recipients below `split` and ones
    /// to the rest.
    Equivocate {
        /// Who is corrupted.
        selection: FaultSelection,
        /// Recipients with ids `< split` hear the all-zeros story.
        split: usize,
        /// First equivocating round (1-based).
        start: usize,
    },
    /// The rank-`k` member turns at round `schedule[k]` and plays its
    /// honest shadow before then; ranks past the schedule never turn. A
    /// turned member tells everyone the flipped source value, as
    /// `collusion` does from round 1.
    Adaptive {
        /// Who is corrupted.
        selection: FaultSelection,
        /// Activation rounds by fault-set rank (ascending id order).
        schedule: Vec<usize>,
    },
    /// The honest story to even recipients and the flipped one to odd
    /// recipients: consistent equivocation by parity, against which the
    /// Correctness Lemma's majority argument must hold.
    TwoFaced(FaultSelection),
    /// A faulty source tells recipient `r` the value `r mod |V|` in round
    /// 1 and repeats that story at the honest length afterwards; the
    /// other members relay their shadow. With the source correct, every
    /// member relays its shadow.
    EquivocatingSource(FaultSelection),
    /// The shadow with exactly one value flipped, at a position that
    /// rotates with the round and recipient: faults the Fault Discovery
    /// Rule may never catch, which the Hidden Fault Lemma says must still
    /// be out-voted.
    Stealth(FaultSelection),
    /// Every member tells recipients below `n/2` all ones and the rest
    /// all zeros, from round 1 at the honest length (a faulty source
    /// sends one value). `equivocate` with its stories swapped and its
    /// split at `n/2`.
    DoubleTalk(FaultSelection),
    /// The source splits the world in round 1 (ones below `n/2`, zeros
    /// above) and relays its shadow afterwards; the rank-`k` non-source
    /// member stays honest until round `start + k·block`, then tells the
    /// `double-talk` story. Undiscovered conspirators inject dissent
    /// after earlier liars were masked, stretching lock-in across blocks.
    StaggeredSplit {
        /// Who is corrupted (the source should be one of them).
        selection: FaultSelection,
        /// Round (1-based) the rank-0 non-source member turns.
        start: usize,
        /// Rounds between turns.
        block: usize,
    },
    /// Every member tells everyone, everywhere, the flipped source value:
    /// one coherent alternative reality, against which the majority
    /// arguments, not the discovery rules, carry the proof.
    Collusion(FaultSelection),
    /// Every member sends the shadow of the round before (missing in its
    /// first round), usually the wrong length: the malformed-message
    /// paths, without randomness.
    StaleShadow(FaultSelection),
    /// The Frontier Lemma's worst case: the members form a chain (the
    /// source first if corrupted, then ascending id), and each lies by
    /// recipient parity about the one tree node above its own position on
    /// that root-to-leaf path, honest everywhere else. A faulty source
    /// tells recipient `r` the value `r mod |V|` in round 1.
    FrontierBreaker(FaultSelection),
    /// A [`TapeAdversary`]: exactly its members, playing its tape.
    Tape(TapeAdversary),
    /// A [`ReplayAdversary`]: every run replays one recorded trace.
    Replay(ReplayAdversary),
}

impl Family {
    /// An enumerated behaviour tape: corrupts exactly `members` and plays
    /// `tape`.
    ///
    /// # Errors
    ///
    /// Returns [`EmptyTapeError`] if `tape` is empty.
    pub fn tape(members: Vec<ProcessId>, tape: Vec<Move>) -> Result<Self, EmptyTapeError> {
        TapeAdversary::new(members, tape).map(Family::Tape)
    }

    /// A recorded scenario: every run replays `trace` bit-exactly.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Malformed`] if the trace fails
    /// [`AdversaryTrace::validate`].
    pub fn replay(trace: AdversaryTrace) -> Result<Self, TraceError> {
        ReplayAdversary::new(trace.into()).map(Family::Replay)
    }

    /// The family's name: its `"family"` tag on the wire and the
    /// adversary column of a sweep report.
    pub fn name(&self) -> &'static str {
        match self {
            Family::NoFaults => "no-faults",
            Family::RandomLiar(_) => "random-liar",
            Family::ChainRevealer { .. } => "chain-revealer",
            Family::Crash { .. } => "crash",
            Family::Silent(_) => "silent",
            Family::Partition { .. } => "partition",
            Family::Omission { .. } => "omission",
            Family::Equivocate { .. } => "equivocate",
            Family::Adaptive { .. } => "adaptive",
            Family::TwoFaced(_) => "two-faced",
            Family::EquivocatingSource(_) => "equivocating-source",
            Family::Stealth(_) => "stealth",
            Family::DoubleTalk(_) => "double-talk",
            Family::StaggeredSplit { .. } => "staggered-split",
            Family::Collusion(_) => "collusion",
            Family::StaleShadow(_) => "stale-shadow",
            Family::FrontierBreaker(_) => "frontier-breaker",
            Family::Tape(_) => "tape",
            Family::Replay(_) => "replay",
        }
    }

    /// The strategy of one run: `seed` is its RNG seed, and only the
    /// seeded families (`random-liar`, `chain-revealer`) read it.
    pub fn strategy(&self, seed: u64) -> Box<dyn Adversary> {
        match self {
            Family::NoFaults => Box::new(NoFaults),
            Family::Tape(tape) => Box::new(tape.clone()),
            Family::Replay(replay) => Box::new(replay.clone()),
            _ => Box::new(FamilyStrategy::new(self.clone(), seed)),
        }
    }

    /// The selection of a family that corrupts through one; `None` for
    /// no faults, a tape and a replay.
    pub(crate) fn selection(&self) -> Option<&FaultSelection> {
        match self {
            Family::RandomLiar(selection)
            | Family::Silent(selection)
            | Family::TwoFaced(selection)
            | Family::EquivocatingSource(selection)
            | Family::Stealth(selection)
            | Family::DoubleTalk(selection)
            | Family::Collusion(selection)
            | Family::StaleShadow(selection)
            | Family::FrontierBreaker(selection)
            | Family::StaggeredSplit { selection, .. }
            | Family::ChainRevealer { selection, .. }
            | Family::Crash { selection, .. }
            | Family::Partition { selection, .. }
            | Family::Omission { selection, .. }
            | Family::Equivocate { selection, .. }
            | Family::Adaptive { selection, .. } => Some(selection),
            Family::NoFaults | Family::Tape(_) | Family::Replay(_) => None,
        }
    }

    /// Whether every processor the family names outright — an explicit
    /// selection's members, a tape's — is one of `0..n`. A replay names
    /// its trace's processors, and a run at another `n` than the trace's
    /// desyncs instead of corrupting anyone.
    pub fn fits(&self, n: usize) -> bool {
        match self {
            Family::Tape(tape) => tape.members().iter().all(|p| p.index() < n),
            _ => self.selection().is_none_or(|selection| selection.fits(n)),
        }
    }
}

fn bad(detail: impl Into<String>) -> JsonError {
    JsonError::msg(detail)
}

fn field_usize(v: &Json, key: &str) -> Result<usize, JsonError> {
    v.need(key)?
        .as_usize()
        .ok_or_else(|| bad(format!("'{key}' must be a non-negative integer")))
}

/// The array at `key`, each item read by `item` or refused with `what`.
fn field_list<T>(
    v: &Json,
    key: &str,
    what: &str,
    item: impl Fn(&Json) -> Option<T>,
) -> Result<Vec<T>, JsonError> {
    v.need(key)?
        .as_arr()
        .ok_or_else(|| bad(format!("'{key}' must be an array")))?
        .iter()
        .map(|e| item(e).ok_or_else(|| bad(what)))
        .collect()
}

impl ToJson for Family {
    /// `{"family":"<name>"}`, then the selection (if any), then the
    /// family's parameters in declaration order.
    fn to_json(&self) -> Json {
        let mut fields = vec![("family".to_string(), Json::from(self.name()))];
        if let Some(selection) = self.selection() {
            fields.push(("selection".to_string(), selection.to_json()));
        }
        let mut push = |key: &str, value: Json| fields.push((key.to_string(), value));
        match self {
            Family::NoFaults
            | Family::RandomLiar(_)
            | Family::Silent(_)
            | Family::TwoFaced(_)
            | Family::EquivocatingSource(_)
            | Family::Stealth(_)
            | Family::DoubleTalk(_)
            | Family::Collusion(_)
            | Family::StaleShadow(_)
            | Family::FrontierBreaker(_) => {}
            Family::ChainRevealer { start, block, .. }
            | Family::StaggeredSplit { start, block, .. } => {
                push("start", Json::from(*start));
                push("block", Json::from(*block));
            }
            Family::Crash { round, .. } => push("round", Json::from(*round)),
            Family::Partition {
                split, from, to, ..
            } => {
                push("split", Json::from(*split));
                push("from", Json::from(*from));
                push("to", Json::from(*to));
            }
            Family::Omission { period, phase, .. } => {
                push("period", Json::from(*period));
                push("phase", Json::from(*phase));
            }
            Family::Equivocate { split, start, .. } => {
                push("split", Json::from(*split));
                push("start", Json::from(*start));
            }
            Family::Adaptive { schedule, .. } => push(
                "schedule",
                Json::Arr(schedule.iter().map(|&r| Json::from(r)).collect()),
            ),
            Family::Tape(tape) => {
                let members = tape.members().iter().map(|p| Json::from(p.index()));
                push("members", Json::Arr(members.collect()));
                let moves = tape.tape().iter().map(|m| Json::from(m.as_str()));
                push("tape", Json::Arr(moves.collect()));
            }
            Family::Replay(replay) => push("trace", replay.trace().to_json()),
        }
        Json::Obj(fields)
    }
}

impl FromJson for Family {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let name = v
            .need("family")?
            .as_str()
            .ok_or_else(|| bad("'family' must be a string"))?;
        let selection = || FaultSelection::from_json(v.need("selection")?);
        Ok(match name {
            "no-faults" => Family::NoFaults,
            "random-liar" => Family::RandomLiar(selection()?),
            "chain-revealer" => Family::ChainRevealer {
                selection: selection()?,
                start: field_usize(v, "start")?,
                block: field_usize(v, "block")?,
            },
            "crash" => Family::Crash {
                selection: selection()?,
                round: field_usize(v, "round")?,
            },
            "silent" => Family::Silent(selection()?),
            "partition" => Family::Partition {
                selection: selection()?,
                split: field_usize(v, "split")?,
                from: field_usize(v, "from")?,
                to: field_usize(v, "to")?,
            },
            "omission" => Family::Omission {
                selection: selection()?,
                period: field_usize(v, "period")?,
                phase: field_usize(v, "phase")?,
            },
            "equivocate" => Family::Equivocate {
                selection: selection()?,
                split: field_usize(v, "split")?,
                start: field_usize(v, "start")?,
            },
            "adaptive" => {
                let schedule = field_list(
                    v,
                    "schedule",
                    "schedule rounds must be integers",
                    Json::as_usize,
                )?;
                Family::Adaptive {
                    selection: selection()?,
                    schedule,
                }
            }
            "two-faced" => Family::TwoFaced(selection()?),
            "equivocating-source" => Family::EquivocatingSource(selection()?),
            "stealth" => Family::Stealth(selection()?),
            "double-talk" => Family::DoubleTalk(selection()?),
            "staggered-split" => Family::StaggeredSplit {
                selection: selection()?,
                start: field_usize(v, "start")?,
                block: field_usize(v, "block")?,
            },
            "collusion" => Family::Collusion(selection()?),
            "stale-shadow" => Family::StaleShadow(selection()?),
            "frontier-breaker" => Family::FrontierBreaker(selection()?),
            "tape" => {
                let members = field_list(v, "members", "tape members must be integers", |e| {
                    e.as_usize().map(ProcessId)
                })?;
                let tape = field_list(v, "tape", "tape entries must be move names", |e| {
                    e.as_str().and_then(Move::from_name)
                })?;
                Family::tape(members, tape).map_err(|e| bad(e.to_string()))?
            }
            "replay" => {
                let trace = AdversaryTrace::from_json(v.need("trace")?)?;
                Family::replay(trace).map_err(|e| bad(e.to_string()))?
            }
            other => return Err(bad(format!("unknown adversary family '{other}'"))),
        })
    }
}
