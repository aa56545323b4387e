//! Execution tracing.
//!
//! Protocols emit structured events (phase starts, shifts, fault
//! discoveries, decisions) through their [`crate::ProcCtx`]. Tracing is
//! opt-in per run; when disabled, `emit` is a no-op and `emit_with` does
//! not build its event, so the hot path stays allocation-free.

use crate::id::ProcessId;
use crate::value::Value;

/// A structured event emitted by a protocol during execution.
#[derive(Clone, PartialEq, Eq, Debug, serde::Serialize, serde::Deserialize)]
pub enum TraceEvent {
    /// A protocol phase began (e.g. the hybrid entering its Algorithm B
    /// phase). `name` identifies the phase.
    PhaseStart {
        /// Human-readable phase name.
        name: String,
    },
    /// A shift operator `shift_{k→j}` was applied: the principal data
    /// structure was converted and shrunk.
    Shift {
        /// The conversion function used ("resolve", "resolve'", …).
        conversion: String,
        /// The processor's preferred value after the shift.
        preferred: Value,
    },
    /// The processor added `suspect` to its list `L_p` of discovered
    /// faulty processors.
    Discovered {
        /// The newly discovered faulty processor.
        suspect: ProcessId,
        /// Whether the discovery happened during conversion
        /// (Algorithm A's extra rule) rather than information gathering.
        during_conversion: bool,
    },
    /// End-of-round preferred value (root of the processor's tree).
    Preferred {
        /// Current preferred value.
        value: Value,
    },
    /// The processor irreversibly decided.
    Decided {
        /// The decision value.
        value: Value,
    },
    /// Free-form annotation for protocol-specific milestones.
    Note {
        /// Annotation text.
        text: String,
    },
}

/// A trace entry: who emitted what, and in which round.
#[derive(Clone, PartialEq, Eq, Debug, serde::Serialize, serde::Deserialize)]
pub struct TraceEntry {
    /// The emitting processor.
    pub who: ProcessId,
    /// The communication round during which the event occurred
    /// (0 for pre-round / decision-time events).
    pub round: usize,
    /// The event.
    pub event: TraceEvent,
}

/// An ordered log of trace entries from one execution.
#[derive(Clone, PartialEq, Eq, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends an entry.
    pub fn push(&mut self, entry: TraceEntry) {
        self.entries.push(entry);
    }

    /// Removes every entry, keeping the buffer capacity (the engine's
    /// outcome-reuse path empties the previous run's trace in place).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Reserves capacity for at least `additional` more entries (the
    /// engine sizes the run trace in one allocation when draining
    /// per-processor buffers).
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
    }

    /// All entries in emission order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Entries emitted by one processor, in order.
    pub fn by(&self, who: ProcessId) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter().filter(move |e| e.who == who)
    }

    /// Entries emitted during one round, in order.
    pub fn in_round(&self, round: usize) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter().filter(move |e| e.round == round)
    }

    /// Whether any entry matches the predicate.
    pub fn any<F: Fn(&TraceEntry) -> bool>(&self, pred: F) -> bool {
        self.entries.iter().any(pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filters_by_processor_and_round() {
        let mut t = Trace::new();
        t.push(TraceEntry {
            who: ProcessId(1),
            round: 2,
            event: TraceEvent::Preferred { value: Value(1) },
        });
        t.push(TraceEntry {
            who: ProcessId(2),
            round: 3,
            event: TraceEvent::Decided { value: Value(0) },
        });
        assert_eq!(t.by(ProcessId(1)).count(), 1);
        assert_eq!(t.in_round(3).count(), 1);
        assert!(t.any(|e| matches!(e.event, TraceEvent::Decided { .. })));
    }
}
