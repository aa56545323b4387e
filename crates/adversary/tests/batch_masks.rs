//! Mask-level differential test of the vector adversary path.
//!
//! Report fingerprints cannot see a wrong lie where it matters most:
//! under a correct source a king run's metric sample does not depend on
//! *what* the liars say (`random-liar` and `chain-revealer` sweeps of
//! `optimal-king` print one fingerprint). So this test compares the
//! lies themselves: for every vector family, over hand-built lane views,
//! the story rows [`BatchFamily::lies`] writes, expanded to one row per
//! sender, must equal — word for word — the masks obtained by asking
//! each lane's scalar [`Adversary::payload`] in the scalar engine's
//! order over the batch's one fault set and classifying `value_at(0)`.
//! For the families whose story depends on the recipient alone
//! (`equivocate`, `adaptive`) the same test holds the sharing: one story
//! per distinct lane mask of the turned members.
//!
//! Both domain sizes matter: at `|V| = 2` the random families run the
//! sign-bit branch (each lane's `first_draw >> 63`, `zero` the
//! complement), at `|V| = 3` the `edge_draw` range reduction, while the
//! scalar strategies always reduce with `edge_draw`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sg_adversary::{
    Adaptive, BatchFamily, ChainRevealer, Crash, Equivocate, FaultSelection, Omission, RandomLiar,
    Silent, VectorFamily,
};
use sg_sim::batch::{BatchAdversary, LaneView, LiarRows};
use sg_sim::{Adversary, AdversaryView, Payload, ProcessId, ProcessSet, Value, ValueDomain};

const N: usize = 10;
const T: usize = 3;
const ROUNDS: usize = 6;

/// One family under test: its vector form over the lane seeds, the
/// scalar strategy of one lane, and — for a family whose members share
/// their story — the round the rank-`k` member turns (`None`: never).
struct Case {
    name: &'static str,
    vector: for<'a> fn(&'a [u64]) -> VectorFamily<'a>,
    scalar: fn(&FaultSelection, u64) -> Box<dyn Adversary>,
    shared_turn: Option<fn(usize) -> Option<usize>>,
}

/// The adaptive schedule: shorter than the fault set at `T = 3`, so the
/// last member never turns.
static SCHEDULE: [usize; 2] = [1, 3];

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "silent",
            vector: |_| VectorFamily::Silent,
            scalar: |sel, _| Box::new(Silent::new(sel.clone())),
            shared_turn: None,
        },
        Case {
            name: "crash",
            vector: |_| VectorFamily::Crash { crash_round: 3 },
            scalar: |sel, _| Box::new(Crash::new(sel.clone(), 3)),
            shared_turn: None,
        },
        Case {
            name: "omission",
            vector: |_| VectorFamily::Omission {
                period: 3,
                phase: 1,
            },
            scalar: |sel, _| Box::new(Omission::new(sel.clone(), 3, 1)),
            shared_turn: None,
        },
        Case {
            name: "equivocate",
            vector: |_| VectorFamily::Equivocate { split: 4, start: 2 },
            scalar: |sel, _| Box::new(Equivocate::new(sel.clone(), 4, 2)),
            shared_turn: Some(|_| Some(2)),
        },
        Case {
            name: "adaptive",
            vector: |_| VectorFamily::Adaptive {
                schedule: &SCHEDULE,
            },
            scalar: |sel, _| Box::new(Adaptive::new(sel.clone(), SCHEDULE.to_vec())),
            shared_turn: Some(|rank| SCHEDULE.get(rank).copied()),
        },
        Case {
            name: "random-liar",
            vector: |seeds| VectorFamily::RandomLiar { seeds },
            scalar: |sel, seed| Box::new(RandomLiar::new(sel.clone(), seed)),
            shared_turn: None,
        },
        Case {
            name: "chain-revealer",
            vector: |seeds| VectorFamily::ChainRevealer {
                seeds,
                reveal_start: 2,
                stride: 2,
            },
            scalar: |sel, seed| Box::new(ChainRevealer::new(sel.clone(), 2, 2, seed)),
            shared_turn: None,
        },
        Case {
            // Stride 0 is clamped to 1 by both constructors.
            name: "chain-revealer(stride 0)",
            vector: |seeds| VectorFamily::ChainRevealer {
                seeds,
                reveal_start: 1,
                stride: 0,
            },
            scalar: |sel, seed| Box::new(ChainRevealer::new(sel.clone(), 1, 0, seed)),
            shared_turn: None,
        },
    ]
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
                    let mut oracle: Vec<Box<dyn Adversary>> = seeds
                        .iter()
                        .map(|&seed| (case.scalar)(selection, seed))
                        .collect();
                    let vector = (case.vector)(&seeds);
                    let mut batch = BatchFamily::new(vector, selection, lane_count);

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
                        };
                        rows.clear();
                        batch.lies(&view, &mut rows);
                        let (got_one, got_zero) = expand(&rows);

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
                        assert_eq!(got_one, want_one, "net_one: {context}");
                        assert_eq!(got_zero, want_zero, "net_zero: {context}");
                        compared += 1;

                        // Sharing: the turned members' stories are exactly
                        // one per distinct lane mask.
                        let Some(turn) = case.shared_turn else {
                            continue;
                        };
                        let adaptive = case.name == "adaptive";
                        let groups = shared_groups(turn, adaptive, &view);
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
    assert_eq!(compared, 8 * 5 * 2 * 3 * ROUNDS);
    // Random presence splits most groups; both sharing families still
    // told some multi-member stories (18 and 5 at this seed).
    assert!(multi.iter().all(|&m| m >= 3), "{multi:?}");
}

/// Under a fully present, fully active view every turned member lies in
/// every lane, so a sharing family tells its story once: one row for
/// all of `equivocate`'s members, one for `adaptive`'s turned ranks
/// while the rank it never turns relays its own shadow.
#[test]
fn a_story_told_in_the_same_lanes_is_written_once() {
    let selection = FaultSelection::with_source();
    let full = vec![!0u64; N];
    let none = vec![0u64; N];
    let mut rows = LiarRows::new(N);
    for (vector, round, want) in [
        // Shadow rounds: one row per member.
        (
            VectorFamily::Equivocate { split: 4, start: 2 },
            1,
            vec![0b001, 0b010, 0b100],
        ),
        (
            VectorFamily::Equivocate { split: 4, start: 2 },
            2,
            vec![0b111],
        ),
        // Slot 0 (the source) turns at round 1, slot 1 at round 3, and
        // slot 2 relays its shadow throughout.
        (
            VectorFamily::Adaptive {
                schedule: &SCHEDULE,
            },
            1,
            vec![0b010, 0b100, 0b001],
        ),
        (
            VectorFamily::Adaptive {
                schedule: &SCHEDULE,
            },
            3,
            vec![0b100, 0b011],
        ),
    ] {
        let mut batch = BatchFamily::new(vector, &selection, 64);
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
        };
        rows.clear();
        batch.lies(&view, &mut rows);
        let told: Vec<u64> = (0..rows.len()).map(|s| rows.members(s)).collect();
        assert_eq!(told, want, "{vector:?} round {round}");
    }
}

/// The test above is only as strong as its inputs: a draw that never
/// produced a `1` (or a view with no live faulty lane) would pass
/// anything. Random lies over a fully present, fully active view must
/// put a healthy share of lanes in each mask.
#[test]
fn random_lies_populate_both_masks() {
    let seeds: Vec<u64> = (0..64u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let selection = FaultSelection::without_source();
    let mut batch = BatchFamily::new(
        VectorFamily::RandomLiar { seeds: &seeds },
        &selection,
        seeds.len(),
    );
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
    };
    let mut rows = LiarRows::new(N);
    batch.lies(&view, &mut rows);
    let (one, zero) = expand(&rows);
    for f in faulty.iter() {
        for r in (0..N).filter(|&r| r != f.index()) {
            let (o, z) = (one[f.index() * N + r], zero[f.index() * N + r]);
            assert_eq!(o ^ z, !0, "binary draws are 0 or 1 in every lane");
            assert!(
                (16..=48).contains(&o.count_ones()),
                "edge {f:?}->{r}: {} ones of 64",
                o.count_ones()
            );
        }
    }
}
