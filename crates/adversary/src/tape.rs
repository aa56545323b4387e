//! Tape-driven adversaries and exhaustive behaviour enumeration.
//!
//! The paper's fault model allows *arbitrary* faulty behaviour, so no
//! finite strategy library can be complete. For small instances, though,
//! the space of *relevant* behaviours is finite and enumerable: each
//! round the adversary writes one payload per (faulty sender, recipient)
//! slot of its rows, in a deterministic order, so an execution is fully
//! determined by the corrupted set plus a finite *tape* of per-slot
//! [`Move`]s. Enumerating all tapes over a move alphabet model-checks an
//! algorithm against every adversary expressible in that alphabet —
//! including every combination of equivocation, silence, garbage and
//! honest play across rounds and recipients.
//!
//! Two alphabets matter in practice:
//!
//! * For protocols whose honest messages carry a **single value** (round 1
//!   of every algorithm; every round of Algorithm C's first gather; king
//!   protocols), [`Move::AllZero`] / [`Move::AllOne`] / [`Move::Silent`]
//!   together express *every* possible behaviour over the binary domain —
//!   a sender can only send 0, 1, something unreadable, or nothing, and
//!   the receivers treat unreadable and nothing identically. Enumeration
//!   over this alphabet is genuinely exhaustive.
//! * For multi-value messages the alphabet is a *structured subset*
//!   (uniform stories, single flips, wrong lengths); enumeration is then a
//!   bounded model check rather than a proof, and is labelled as such in
//!   the tests that use it.

use sg_sim::{Adversary, AdversaryView, Payload, ProcessId, ProcessSet, Value};

use crate::util::{flip, Spare};

/// One tape cell: how a faulty sender treats one (recipient, round) slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Move {
    /// Send exactly what an honest processor would (the shadow payload).
    Honest,
    /// Send nothing.
    Silent,
    /// Send a shadow-length vector of zeros (if the shadow would be
    /// silent, send a single zero instead — spurious traffic).
    AllZero,
    /// Send a shadow-length vector of ones (single one when the shadow
    /// would be silent).
    AllOne,
    /// Send the shadow with its first value flipped within the domain.
    FlipFirst,
    /// Send an unreadable payload (wrong length, out-of-domain values).
    Garbage,
}

/// All moves, in enumeration order.
pub const ALL_MOVES: [Move; 6] = [
    Move::Honest,
    Move::Silent,
    Move::AllZero,
    Move::AllOne,
    Move::FlipFirst,
    Move::Garbage,
];

/// The exhaustive alphabet for single-value binary messages: everything a
/// Byzantine sender can do to a receiver of one binary value.
pub const SINGLE_VALUE_MOVES: [Move; 3] = [Move::Silent, Move::AllZero, Move::AllOne];

impl Move {
    /// The move's wire name, as used by the tape family's JSON encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            Move::Honest => "honest",
            Move::Silent => "silent",
            Move::AllZero => "all-zero",
            Move::AllOne => "all-one",
            Move::FlipFirst => "flip-first",
            Move::Garbage => "garbage",
        }
    }

    /// Parses a wire name back into a move.
    pub fn from_name(name: &str) -> Option<Move> {
        ALL_MOVES.into_iter().find(|m| m.as_str() == name)
    }

    /// Writes this move for `sender` under `view` into `slot`.
    fn write(
        self,
        spare: &mut Spare,
        slot: &mut Payload,
        sender: ProcessId,
        view: &AdversaryView<'_>,
    ) {
        let shadow = view.shadow_of(sender);
        let shadow_len = view.expected_len(sender);
        match self {
            Move::Honest => spare.relay(slot, shadow),
            Move::Silent => spare.silence(slot),
            Move::AllZero => spare.repeated(slot, view.domain, Value(0), shadow_len.max(1)),
            Move::AllOne => spare.repeated(slot, view.domain, Value(1), shadow_len.max(1)),
            Move::FlipFirst if shadow_len == 0 => spare.single(slot, Value(1)),
            Move::FlipFirst => spare.map(slot, view.domain, shadow, |i, v| {
                if i == 0 {
                    flip(view, v)
                } else {
                    v
                }
            }),
            Move::Garbage => {
                spare.values(slot, std::iter::repeat_n(Value(u16::MAX), shadow_len + 3))
            }
        }
    }
}

/// An adversary that plays a fixed tape of [`Move`]s against an explicit
/// corrupted set.
///
/// The engine asks for each faulty row with one [`Adversary::row`] call
/// per faulty sender per round, senders ascending, and the row's slots
/// are written recipients ascending (self skipped), so consuming the tape
/// sequentially assigns each (sender, recipient) slot its own cell; tapes
/// shorter than the slot count repeat from the start.
///
/// # Examples
///
/// ```
/// use sg_adversary::{Move, TapeAdversary};
/// use sg_sim::{Adversary, ProcessId};
///
/// let mut a = TapeAdversary::new([ProcessId(1)], vec![Move::AllOne, Move::Silent]).unwrap();
/// let faulty = a.corrupt(4, 1, ProcessId(0));
/// assert!(faulty.contains(ProcessId(1)));
/// ```
#[derive(Clone, Debug)]
pub struct TapeAdversary {
    members: Vec<ProcessId>,
    tape: Vec<Move>,
    next: usize,
    spare: Spare,
}

/// Error returned by [`TapeAdversary::new`] for an empty tape — there is
/// no move to wrap around to, so the adversary would have no behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EmptyTapeError;

impl std::fmt::Display for EmptyTapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tape must contain at least one move")
    }
}

impl std::error::Error for EmptyTapeError {}

impl TapeAdversary {
    /// An adversary corrupting exactly `members`, playing `tape`.
    ///
    /// # Errors
    ///
    /// Returns [`EmptyTapeError`] if `tape` is empty.
    pub fn new<I: IntoIterator<Item = ProcessId>>(
        members: I,
        tape: Vec<Move>,
    ) -> Result<Self, EmptyTapeError> {
        if tape.is_empty() {
            return Err(EmptyTapeError);
        }
        Ok(TapeAdversary {
            members: members.into_iter().collect(),
            tape,
            next: 0,
            spare: Spare::default(),
        })
    }

    /// The corrupted set the tape plays against.
    pub fn members(&self) -> &[ProcessId] {
        &self.members
    }

    /// The tape being played.
    pub fn tape(&self) -> &[Move] {
        &self.tape
    }
}

impl Adversary for TapeAdversary {
    fn name(&self) -> String {
        format!("tape(len={})", self.tape.len())
    }

    fn reseed(&mut self, _seed: u64) -> bool {
        // Seedless: members and tape are the factory's configuration,
        // so rewinding the cursor restores the fresh state exactly.
        self.next = 0;
        true
    }

    fn corrupt(&mut self, n: usize, _t: usize, _source: ProcessId) -> ProcessSet {
        self.next = 0;
        ProcessSet::from_members(n, self.members.iter().copied())
    }

    fn row(&mut self, sender: ProcessId, view: &AdversaryView<'_>, row: &mut [Payload]) {
        for (r, slot) in row.iter_mut().enumerate() {
            if r != sender.index() {
                let mv = self.tape[self.next % self.tape.len()];
                self.next += 1;
                mv.write(&mut self.spare, slot, sender, view);
            }
        }
    }
}

/// Iterates over every tape of length `len` over `alphabet` — the
/// `|alphabet|^len` behaviours of the exhaustive model check.
///
/// The iteration order is lexicographic in alphabet indices, so failures
/// reproduce deterministically from the reported tape.
///
/// # Panics
///
/// Panics if the alphabet is empty.
pub fn enumerate_tapes(alphabet: &[Move], len: usize) -> TapeEnumerator<'_> {
    assert!(!alphabet.is_empty(), "alphabet must not be empty");
    TapeEnumerator {
        alphabet,
        digits: vec![0; len],
        done: false,
    }
}

/// Iterator returned by [`enumerate_tapes`].
#[derive(Clone, Debug)]
pub struct TapeEnumerator<'a> {
    alphabet: &'a [Move],
    digits: Vec<usize>,
    done: bool,
}

impl Iterator for TapeEnumerator<'_> {
    type Item = Vec<Move>;

    fn next(&mut self) -> Option<Vec<Move>> {
        if self.done {
            return None;
        }
        let tape: Vec<Move> = self.digits.iter().map(|&d| self.alphabet[d]).collect();
        // Increment the base-|alphabet| counter.
        let mut i = 0;
        loop {
            if i == self.digits.len() {
                self.done = true;
                break;
            }
            self.digits[i] += 1;
            if self.digits[i] < self.alphabet.len() {
                break;
            }
            self.digits[i] = 0;
            i += 1;
        }
        Some(tape)
    }
}

/// The number of tape cells one run reads: one per (faulty sender,
/// recipient ≠ sender) slot per round — the natural tape length for an
/// exhaustive check.
pub fn calls_per_run(n: usize, num_faulty: usize, rounds: usize) -> usize {
    num_faulty * (n - 1) * rounds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerator_counts_alphabet_power() {
        let tapes: Vec<_> = enumerate_tapes(&SINGLE_VALUE_MOVES, 3).collect();
        assert_eq!(tapes.len(), 27);
        // All distinct.
        let mut seen = std::collections::HashSet::new();
        for t in &tapes {
            assert!(seen.insert(t.clone()));
        }
    }

    #[test]
    fn enumerator_zero_length_yields_one_empty_tape() {
        let tapes: Vec<_> = enumerate_tapes(&ALL_MOVES, 0).collect();
        assert_eq!(tapes, vec![Vec::<Move>::new()]);
    }

    #[test]
    fn tape_wraps_when_short() {
        let mut a = TapeAdversary::new([ProcessId(1)], vec![Move::Silent]).unwrap();
        let faulty = a.corrupt(4, 1, ProcessId(0));
        assert_eq!(faulty.len(), 1);
        assert_eq!(a.tape().len(), 1);
    }

    #[test]
    fn move_names_round_trip() {
        for m in ALL_MOVES {
            assert_eq!(Move::from_name(m.as_str()), Some(m));
        }
        assert_eq!(Move::from_name("bogus"), None);
    }

    #[test]
    fn calls_per_run_formula() {
        assert_eq!(calls_per_run(4, 1, 2), 6);
        assert_eq!(calls_per_run(7, 2, 3), 36);
    }

    #[test]
    fn empty_tape_rejected() {
        assert_eq!(
            TapeAdversary::new([ProcessId(1)], Vec::new()).unwrap_err(),
            EmptyTapeError
        );
    }
}
