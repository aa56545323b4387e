//! Mask-level differential test of the vector adversary path.
//!
//! Report fingerprints cannot see a wrong lie where it matters most:
//! under a correct source a king run's metric sample does not depend on
//! *what* the liars say (`random-liar` and `chain-revealer` sweeps of
//! `optimal-king` print one fingerprint). So this test compares the
//! lies themselves: for every vector family, over hand-built lane views,
//! the story rows [`BatchFamily::lies`] writes, expanded to one row per
//! sender, must equal — word for word — the masks obtained by asking
//! each lane's scalar strategy ([`Family::strategy`] of the same value)
//! for its [`Adversary::payload`] in the scalar engine's order over the
//! batch's one fault set and classifying `value_at(0)`.
//! For the families whose story depends on the recipient alone
//! (`equivocate`, `adaptive`) the same test holds the sharing: one story
//! per distinct lane mask of the turned members.
//!
//! Word for word holds for every recipient that is not *spent*. A
//! member is spent once no later round relays its shadow — from the
//! round before its turn, and never for `omission`, whose story is its
//! shadow — and a spent recipient is told nothing, since nobody reads
//! what it hears. The test derives the spent set from each case's turn
//! schedule and requires every spent position to be empty.
//!
//! Both domain sizes matter: at `|V| = 2` the random families run the
//! sign-bit branch (each lane's `first_draw >> 63`, `zero` the
//! complement), at `|V| = 3` the `edge_draw` range reduction, while the
//! scalar strategies always reduce with `edge_draw`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sg_adversary::{AdversaryTrace, BatchFamily, Family, FaultSelection, Move};
use sg_sim::batch::{BatchAdversary, LaneView, LiarRows};
use sg_sim::{Adversary, AdversaryView, Payload, ProcessId, ProcessSet, Value, ValueDomain};

const N: usize = 10;
const T: usize = 3;
const ROUNDS: usize = 6;

/// One family under test over a selection — its lock-step form and,
/// through [`Family::strategy`], each lane's scalar strategy — with the
/// round from which the rank-`k` member relays its shadow no more (its
/// turn; `None`: never, as an omission's story is its shadow), and
/// whether its turned members share their story.
struct Case {
    name: &'static str,
    family: fn(FaultSelection) -> Family,
    turn: fn(usize) -> Option<usize>,
    shared: bool,
}

/// The adaptive schedule: shorter than the fault set at `T = 3`, so the
/// last member never turns.
static SCHEDULE: [usize; 2] = [1, 3];

fn cases() -> Vec<Case> {
    vec![
        Case {
            // Silence over a selection that corrupts nobody, whatever
            // the selection says.
            name: "no-faults",
            family: |_| Family::NoFaults,
            turn: |_| Some(0),
            shared: false,
        },
        Case {
            name: "silent",
            family: Family::Silent,
            turn: |_| Some(0),
            shared: false,
        },
        Case {
            name: "crash",
            family: |selection| Family::Crash {
                selection,
                round: 3,
            },
            turn: |_| Some(3),
            shared: false,
        },
        Case {
            name: "omission",
            family: |selection| Family::Omission {
                selection,
                period: 3,
                phase: 1,
            },
            turn: |_| None,
            shared: false,
        },
        Case {
            // Period 0 is clamped to 1 by both forms: every slot drops.
            name: "omission(period 0)",
            family: |selection| Family::Omission {
                selection,
                period: 0,
                phase: 2,
            },
            turn: |_| None,
            shared: false,
        },
        Case {
            name: "equivocate",
            family: |selection| Family::Equivocate {
                selection,
                split: 4,
                start: 2,
            },
            turn: |_| Some(2),
            shared: true,
        },
        Case {
            name: "adaptive",
            family: |selection| Family::Adaptive {
                selection,
                schedule: SCHEDULE.to_vec(),
            },
            turn: |rank| SCHEDULE.get(rank).copied(),
            shared: true,
        },
        Case {
            name: "random-liar",
            family: Family::RandomLiar,
            turn: |_| Some(0),
            shared: false,
        },
        Case {
            name: "chain-revealer",
            family: |selection| Family::ChainRevealer {
                selection,
                start: 2,
                block: 2,
            },
            turn: |rank| Some(2 + 2 * rank),
            shared: false,
        },
        Case {
            // Block 0 is clamped to 1 by both forms.
            name: "chain-revealer(block 0)",
            family: |selection| Family::ChainRevealer {
                selection,
                start: 1,
                block: 0,
            },
            turn: |rank| Some(1 + rank),
            shared: false,
        },
    ]
}

/// The members spent in `round`, derived from the turn schedule alone:
/// those that turn at or before `round + 1`, so that no later round
/// relays their shadow.
fn spent_by_schedule(turn: fn(usize) -> Option<usize>, faulty: &ProcessSet, round: usize) -> u64 {
    faulty
        .iter()
        .enumerate()
        .filter(|&(rank, _)| turn(rank).is_some_and(|turn| turn <= round + 1))
        .fold(0, |spent, (_, f)| spent | 1 << f.index())
}

/// One round's broadcast classification: per slot, the lanes that send,
/// and among those the lanes that send `1` / `0` (the rest send `⊥`).
struct Broadcast {
    present: Vec<u64>,
    one: Vec<u64>,
    zero: Vec<u64>,
}

impl Broadcast {
    /// Random masks with holes (absent lanes) and `⊥` lanes; roughly
    /// one slot in five is entirely silent, one in five entirely `⊥`.
    fn random(rng: &mut StdRng, all: u64) -> Self {
        let mut b = Broadcast {
            present: vec![0; N],
            one: vec![0; N],
            zero: vec![0; N],
        };
        for j in 0..N {
            let shape = rng.gen_range(0u16..5);
            let present = match shape {
                0 => 0,
                1 => all,
                _ => rng.gen::<u64>() & all,
            };
            let valued = if shape == 1 {
                0
            } else {
                present & (rng.gen::<u64>() | rng.gen::<u64>())
            };
            let one = valued & rng.gen::<u64>();
            b.present[j] = present;
            b.one[j] = one;
            b.zero[j] = valued & !one;
        }
        b
    }
}

/// The scalar strategies, one per lane, as the scalar engine asks them:
/// per active lane, split the broadcast into honest and shadow tables by
/// the fault set, then call `payload` for faulty senders ascending ×
/// recipients ascending (self skipped) and classify the first value.
#[allow(clippy::too_many_arguments)]
fn per_lane_oracle(
    lanes: &mut [Box<dyn Adversary>],
    faulty: &ProcessSet,
    round: usize,
    source: ProcessId,
    domain: ValueDomain,
    broadcast: &Broadcast,
    active: u64,
    net_one: &mut [u64],
    net_zero: &mut [u64],
) {
    let wire = [
        Payload::single(Value(1)),
        Payload::single(Value(0)),
        Payload::single(Value(u16::MAX)),
    ];
    for (lane, adversary) in lanes.iter_mut().enumerate() {
        let bit = 1u64 << lane;
        if active & bit == 0 {
            continue;
        }
        let mut honest: Vec<Option<Payload>> = vec![None; N];
        let mut shadow: Vec<Option<Payload>> = vec![None; N];
        for j in 0..N {
            let payload = if broadcast.present[j] & bit == 0 {
                None
            } else if broadcast.one[j] & bit != 0 {
                Some(wire[0].clone())
            } else if broadcast.zero[j] & bit != 0 {
                Some(wire[1].clone())
            } else {
                Some(wire[2].clone())
            };
            if faulty.contains(ProcessId(j)) {
                shadow[j] = payload;
            } else {
                honest[j] = payload;
            }
        }
        let view = AdversaryView {
            round,
            total_rounds: ROUNDS,
            n: N,
            t: T,
            source,
            source_value: Value(1),
            domain,
            faulty,
            honest_broadcast: &honest,
            shadow_broadcast: &shadow,
            sigs: None,
        };
        for f in faulty.iter() {
            for r in 0..N {
                if r == f.index() {
                    continue;
                }
                match adversary.payload(f, ProcessId(r), &view).value_at(0) {
                    Some(Value(1)) => net_one[f.index() * N + r] |= bit,
                    Some(Value(0)) => net_zero[f.index() * N + r] |= bit,
                    _ => {}
                }
            }
        }
    }
}

/// The story rows expanded to the dense sender-major network the oracle
/// writes: each liar's deliveries are its story's row, self skipped.
fn expand(rows: &LiarRows) -> (Vec<u64>, Vec<u64>) {
    let mut one = vec![0u64; N * N];
    let mut zero = vec![0u64; N * N];
    for f in 0..N {
        let Some(s) = rows.story_of(f) else { continue };
        let (story_one, story_zero) = rows.rows(s);
        for r in (0..N).filter(|&r| r != f) {
            one[f * N + r] = story_one[r];
            zero[f * N + r] = story_zero[r];
        }
    }
    (one, zero)
}

/// The shared stories a round must tell: the turned members grouped by
/// the lanes they lie in (`present & active`; every active lane for an
/// adaptive source turned in round 1), one `(mask, members)` per
/// distinct non-empty mask.
fn shared_groups(
    turn: fn(usize) -> Option<usize>,
    adaptive: bool,
    view: &LaneView<'_>,
) -> Vec<(u64, u64)> {
    let mut groups: Vec<(u64, u64)> = Vec::new();
    for (rank, f) in view.faulty.iter().enumerate() {
        if turn(rank).is_none_or(|turn| view.round < turn) {
            continue;
        }
        let mask = if adaptive && view.round == 1 && f == view.source {
            view.active
        } else {
            view.present[f.index()] & view.active
        };
        if mask == 0 {
            continue;
        }
        match groups.iter_mut().find(|(m, _)| *m == mask) {
            Some((_, members)) => *members |= 1 << f.index(),
            None => groups.push((mask, 1 << f.index())),
        }
    }
    groups
}

#[test]
fn vector_lies_equal_the_scalar_strategies_word_for_word() {
    let selections = [
        FaultSelection::without_source(),
        FaultSelection::with_source(),
        FaultSelection::with_source().limit(2),
        FaultSelection::without_source().limit(1),
        FaultSelection::explicit([ProcessId(2), ProcessId(7), ProcessId(9)]),
    ];
    let source = ProcessId(0);
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    let mut compared = 0usize;
    let mut rows = LiarRows::new(N);
    // Shared stories of more than one member seen, per sharing family.
    let mut multi = [0usize; 2];
    // Rounds with a spent member beside a member that still relays.
    let mut contested = 0usize;
    for case in cases() {
        for selection in &selections {
            for domain_size in [2u16, 3] {
                for lane_count in [1usize, 5, 64] {
                    let domain = ValueDomain::new(domain_size);
                    let all = if lane_count == 64 {
                        !0
                    } else {
                        (1u64 << lane_count) - 1
                    };
                    // Non-consecutive seeds: no lane's stream is a
                    // neighbour's plus one.
                    let seeds: Vec<u64> = (0..lane_count).map(|_| rng.gen()).collect();
                    let family = (case.family)(selection.clone());
                    let mut oracle: Vec<Box<dyn Adversary>> =
                        seeds.iter().map(|&seed| family.strategy(seed)).collect();
                    let mut batch = BatchFamily::new(&family, &seeds).expect("a vector shape");

                    // A stale set from a previous batch must be
                    // overwritten.
                    let mut faulty = ProcessSet::from_members(N, [ProcessId(5)]);
                    batch.corrupt(N, T, source, &mut faulty);
                    for scalar in oracle.iter_mut() {
                        assert_eq!(faulty, scalar.corrupt(N, T, source));
                    }

                    for round in 1..=ROUNDS {
                        let broadcast = Broadcast::random(&mut rng, all);
                        let active = match round % 3 {
                            0 => all,
                            _ => rng.gen::<u64>() & all,
                        };
                        let view = LaneView {
                            round,
                            n: N,
                            source,
                            source_value: Value(1),
                            domain,
                            present: &broadcast.present,
                            one: &broadcast.one,
                            zero: &broadcast.zero,
                            faulty: &faulty,
                            active,
                            readers: &|| !0,
                        };
                        rows.clear();
                        batch.lies(&view, &mut rows);
                        let (got_one, got_zero) = expand(&rows);
                        let spent = spent_by_schedule(case.turn, &faulty, round);

                        let mut want_one = vec![0u64; N * N];
                        let mut want_zero = vec![0u64; N * N];
                        per_lane_oracle(
                            &mut oracle,
                            &faulty,
                            round,
                            source,
                            domain,
                            &broadcast,
                            active,
                            &mut want_one,
                            &mut want_zero,
                        );
                        let context = format!(
                            "{} over {selection:?}, |V|={domain_size}, {lane_count} lanes, round {round}",
                            case.name
                        );
                        assert_eq!(rows.spent(), spent, "spent: {context}");
                        let members = faulty.iter().fold(0u64, |m, f| m | 1 << f.index());
                        if spent != 0 && spent != members {
                            contested += 1;
                        }
                        // Every non-spent recipient is told the oracle's
                        // words; every spent one nothing.
                        for f in 0..N {
                            for r in (0..N).filter(|&r| r != f) {
                                let (got, want) = (
                                    (got_one[f * N + r], got_zero[f * N + r]),
                                    (want_one[f * N + r], want_zero[f * N + r]),
                                );
                                if (spent >> r) & 1 == 1 {
                                    assert_eq!(got, (0, 0), "{f}->{r}, spent: {context}");
                                } else {
                                    assert_eq!(got, want, "{f}->{r}: {context}");
                                }
                            }
                        }
                        compared += 1;

                        // Sharing: the turned members' stories are exactly
                        // one per distinct lane mask.
                        if !case.shared {
                            continue;
                        }
                        let adaptive = case.name == "adaptive";
                        let groups = shared_groups(case.turn, adaptive, &view);
                        let turned = groups.iter().fold(0u64, |t, &(_, m)| t | m);
                        let told: Vec<u64> = (0..rows.len())
                            .map(|s| rows.members(s))
                            .filter(|&m| m & turned != 0)
                            .collect();
                        assert_eq!(told.len(), groups.len(), "stories: {context}");
                        for (mask, members) in groups {
                            assert!(told.contains(&members), "{members:#b} share: {context}");
                            if members.count_ones() > 1 {
                                multi[usize::from(adaptive)] += 1;
                            }
                            let _ = mask;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(compared, 10 * 5 * 2 * 3 * ROUNDS);
    // Random presence splits most groups; both sharing families still
    // told some multi-member stories (18 and 5 at this seed).
    assert!(multi.iter().all(|&m| m >= 3), "{multi:?}");
    // The staggered turns spend some members while others still relay
    // (216 rounds at this seed).
    assert!(contested >= 100, "{contested}");
}

/// Under a fully present, fully active view every turned member lies in
/// every lane, so a sharing family tells its story once: one row for
/// all of `equivocate`'s members, one for `adaptive`'s turned ranks
/// while the rank it never turns relays its own shadow.
#[test]
fn a_story_told_in_the_same_lanes_is_written_once() {
    let selection = FaultSelection::with_source;
    let equivocate = Family::Equivocate {
        selection: selection(),
        split: 4,
        start: 2,
    };
    let adaptive = Family::Adaptive {
        selection: selection(),
        schedule: SCHEDULE.to_vec(),
    };
    let seeds = [0u64; 64];
    let full = vec![!0u64; N];
    let none = vec![0u64; N];
    let mut rows = LiarRows::new(N);
    for (family, round, want) in [
        // Shadow rounds: one row per member.
        (&equivocate, 1, vec![0b001, 0b010, 0b100]),
        (&equivocate, 2, vec![0b111]),
        // Slot 0 (the source) turns at round 1, slot 1 at round 3, and
        // slot 2 relays its shadow throughout.
        (&adaptive, 1, vec![0b010, 0b100, 0b001]),
        (&adaptive, 3, vec![0b100, 0b011]),
    ] {
        let mut batch = BatchFamily::new(family, &seeds).expect("a vector shape");
        let mut faulty = ProcessSet::default();
        batch.corrupt(N, T, ProcessId(0), &mut faulty);
        let members: Vec<usize> = faulty.iter().map(ProcessId::index).collect();
        assert_eq!(members, [0, 1, 2]);
        let view = LaneView {
            round,
            n: N,
            source: ProcessId(0),
            source_value: Value(1),
            domain: ValueDomain::binary(),
            present: &full,
            one: &full,
            zero: &none,
            faulty: &faulty,
            active: !0,
            readers: &|| !0,
        };
        rows.clear();
        batch.lies(&view, &mut rows);
        let told: Vec<u64> = (0..rows.len()).map(|s| rows.members(s)).collect();
        assert_eq!(told, want, "{family:?} round {round}");
    }
}

/// The test above is only as strong as its inputs: a draw that never
/// produced a `1` (or a view with no live faulty lane) would pass
/// anything. Random lies over a fully present, fully active view must
/// put a healthy share of lanes in each mask of every recipient that is
/// not spent — every correct one, as a random liar turns at once — and
/// nothing in a spent one's.
#[test]
fn random_lies_populate_both_masks() {
    let seeds: Vec<u64> = (0..64u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let family = Family::RandomLiar(FaultSelection::without_source());
    let mut batch = BatchFamily::new(&family, &seeds).expect("a vector shape");
    let mut faulty = ProcessSet::default();
    batch.corrupt(N, T, ProcessId(0), &mut faulty);
    let full = vec![!0u64; N];
    let none = vec![0u64; N];
    let view = LaneView {
        round: 2,
        n: N,
        source: ProcessId(0),
        source_value: Value(1),
        domain: ValueDomain::binary(),
        present: &full,
        one: &full,
        zero: &none,
        faulty: &faulty,
        active: !0,
        readers: &|| !0,
    };
    let mut rows = LiarRows::new(N);
    batch.lies(&view, &mut rows);
    let (one, zero) = expand(&rows);
    let spent = spent_by_schedule(|_| Some(0), &faulty, view.round);
    assert_eq!(spent.count_ones(), 3);
    assert_eq!(rows.spent(), spent);
    for f in faulty.iter() {
        for r in (0..N).filter(|&r| r != f.index()) {
            let (o, z) = (one[f.index() * N + r], zero[f.index() * N + r]);
            if (spent >> r) & 1 == 1 {
                assert_eq!(
                    (o, z),
                    (0, 0),
                    "edge {f:?}->{r}: a spent recipient is drawn nothing"
                );
                continue;
            }
            assert_eq!(o ^ z, !0, "binary draws are 0 or 1 in every lane");
            assert!(
                (16..=48).contains(&o.count_ones()),
                "edge {f:?}->{r}: {} ones of 64",
                o.count_ones()
            );
        }
    }
}

/// `partition` cuts honest edges, and `tape` and `replay` answer by call
/// order: none has a vector shape, so their chunks run scalar.
#[test]
fn families_without_a_vector_shape_are_declined() {
    let seeds = [0u64; 4];
    let partition = Family::Partition {
        selection: FaultSelection::with_source().limit(1),
        split: 1,
        from: 2,
        to: 3,
    };
    let tape = Family::tape(vec![ProcessId(1)], vec![Move::AllOne]).expect("a tape");
    let trace = AdversaryTrace {
        family: "silent".to_string(),
        n: N,
        t: T,
        faulty: vec![ProcessId(0)],
        steps: Vec::new(),
        cuts: Vec::new(),
    };
    let replay = Family::replay(trace).expect("a valid trace");
    for family in [&partition, &tape, &replay] {
        assert!(
            BatchFamily::new(family, &seeds).is_none(),
            "{}",
            family.name()
        );
    }
    assert!(BatchFamily::new(&Family::NoFaults, &seeds).is_some());
}
