//! The experiment harness: regenerates every table and figure.
//!
//! The paper is a theory paper; its "evaluation" is the set of stated
//! bounds (Proposition 1, Theorems 2–4, the Main Theorem) plus three
//! figures. Each `experiment_*` function runs the relevant algorithm
//! sweep on the simulator under a stress adversary, measures the exact
//! quantities the theorems bound (rounds, message bits, local steps), and
//! tabulates *paper-predicted vs. measured*. `cargo run -p sg-bench --bin
//! repro` prints them all; EXPERIMENTS.md archives the output.

use sg_adversary::{Family, FaultSelection};
use sg_core::schedule::{
    algorithm_a_rounds_bound, algorithm_a_rounds_exact, algorithm_b_rounds_bound,
    algorithm_b_rounds_exact,
};
use sg_core::{t_a, t_b, t_c, AlgorithmSpec, HybridSchedule};
use sg_sim::{RunConfig, TraceEvent, Value};

use crate::bounds::{
    blocked_max_message_values, c_max_message_values, exponential_max_message_values,
};
use crate::coan::{coan_local_ops, coan_max_message_values, coan_rounds};
use crate::sweep::AdversaryFamily;
use crate::table::{fmt_count, Table};

/// How big a sweep to run: `Quick` for CI-style tests, `Full` for the
/// repro binary and EXPERIMENTS.md.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Small parameters, seconds.
    Quick,
    /// The full sweeps reported in EXPERIMENTS.md.
    Full,
}

/// Exact measurements from one execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Measured {
    /// Rounds executed.
    pub rounds: usize,
    /// Largest single honest message, in values.
    pub max_message_values: u64,
    /// Largest single honest message, in bits.
    pub max_message_bits: u64,
    /// Total honest traffic in bits.
    pub total_bits: u64,
    /// Largest per-processor local-computation charge.
    pub max_local_ops: u64,
    /// Peak live tree nodes at any processor.
    pub peak_tree_nodes: u64,
}

/// Runs one execution of `spec` under a chain-revealing stress adversary
/// and returns exact measurements — of the *full schedule*
/// ([`RunConfig::fixed_length`]), which is what the paper's propositions
/// and theorems bound; the stress adversary spares the source, so with
/// early stopping every tree family would end at round 2.
///
/// # Panics
///
/// Panics if the execution violates agreement or validity — experiments
/// double as correctness checks.
pub fn measure(spec: AlgorithmSpec, n: usize, t: usize, seed: u64) -> Measured {
    let config = RunConfig::new(n, t)
        .with_source_value(Value(1))
        .fixed_length();
    let mut adversary =
        AdversaryFamily::chain_revealer(FaultSelection::without_source(), 2, 2).instantiate(seed);
    let outcome = sg_core::execute(spec, &config, adversary.as_mut())
        .unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
    outcome.assert_correct();
    Measured {
        rounds: outcome.rounds_used,
        max_message_values: outcome.metrics.max_message_values(),
        max_message_bits: outcome.metrics.max_message_bits(),
        total_bits: outcome.metrics.total_bits(),
        max_local_ops: outcome.metrics.max_local_ops(),
        peak_tree_nodes: outcome.metrics.peak_tree_nodes,
    }
}

/// Runs a set of measurement cells on the sweep engine's pool (input
/// order preserved, worker count set by `--jobs` /
/// [`crate::sweep::set_jobs`]).
fn measure_cells<T, R, F>(cells: Vec<T>, f: F) -> Vec<(T, R)>
where
    T: Clone + Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(&T) -> R + Send + Sync + 'static,
{
    crate::sweep::sweep_map(cells, move |cell| {
        let result = f(&cell);
        (cell, result)
    })
}

/// EXP-P1 — Proposition 1: the Exponential Algorithm reaches agreement in
/// `t+1` rounds with messages of `O(n^t)` values.
pub fn experiment_p1(scale: Scale) -> Table {
    let cases: Vec<(usize, usize)> = match scale {
        Scale::Quick => vec![(4, 1), (7, 2)],
        Scale::Full => vec![(4, 1), (7, 2), (10, 3), (13, 4)],
    };
    let mut table = Table::new(
        "EXP-P1 — Proposition 1 (Exponential Algorithm)",
        "Rounds are exactly t+1; the largest message carries the deepest \
         gathered level, (n−1)(n−2)⋯(n−t+1) values — exponential in t.",
        vec![
            "n",
            "t",
            "rounds (paper)",
            "rounds (measured)",
            "max msg values (paper)",
            "max msg values (measured)",
            "max local ops",
        ],
    );
    let results = measure_cells(cases, move |&(n, t)| {
        measure(AlgorithmSpec::Exponential, n, t, 11)
    });
    for ((n, t), m) in results {
        table.push_row(vec![
            n.to_string(),
            t.to_string(),
            (t + 1).to_string(),
            m.rounds.to_string(),
            fmt_count(exponential_max_message_values(n, t)),
            fmt_count(m.max_message_values as u128),
            fmt_count(m.max_local_ops as u128),
        ]);
    }
    table
}

/// EXP-T3 — Theorem 3: Algorithm B's rounds / message-length /
/// local-computation trade-off across `b`.
pub fn experiment_t3(scale: Scale) -> Table {
    let cases: Vec<(usize, usize)> = match scale {
        Scale::Quick => {
            vec![(13, 2), (13, 3)]
        }
        Scale::Full => {
            let mut v = Vec::new();
            for n in [17, 21, 29] {
                let t = t_b(n);
                for b in 2..=t.min(4) {
                    v.push((n, b));
                }
            }
            v
        }
    };
    let mut table = Table::new(
        "EXP-T3 — Theorem 3 (Algorithm B)",
        "t = ⌊(n−1)/4⌋. Measured rounds match the exact schedule and never \
         exceed the bound t+1+⌊(t−1)/(b−1)⌋; the largest message carries \
         O(n^b) bits (level b−1 values); local computation stays polynomial.",
        vec![
            "n",
            "t",
            "b",
            "rounds bound (paper)",
            "rounds (measured)",
            "max msg values (paper)",
            "max msg values (measured)",
            "max local ops",
        ],
    );
    let results = measure_cells(cases, move |&(n, b)| {
        measure(AlgorithmSpec::AlgorithmB { b }, n, t_b(n), 13)
    });
    for ((n, b), m) in results {
        let t = t_b(n);
        assert_eq!(m.rounds, algorithm_b_rounds_exact(t, b));
        table.push_row(vec![
            n.to_string(),
            t.to_string(),
            b.to_string(),
            algorithm_b_rounds_bound(t, b).to_string(),
            m.rounds.to_string(),
            fmt_count(blocked_max_message_values(n, b.min(t))),
            fmt_count(m.max_message_values as u128),
            fmt_count(m.max_local_ops as u128),
        ]);
    }
    table
}

/// EXP-T2 — Theorem 2: Algorithm A's trade-off across `b`.
pub fn experiment_t2(scale: Scale) -> Table {
    let cases: Vec<(usize, usize)> = match scale {
        Scale::Quick => vec![(13, 3), (16, 3)],
        Scale::Full => {
            let mut v = Vec::new();
            for n in [16, 22, 31] {
                let t = t_a(n);
                for b in 3..=t.min(4) {
                    v.push((n, b));
                }
            }
            v
        }
    };
    let mut table = Table::new(
        "EXP-T2 — Theorem 2 (Algorithm A)",
        "t = ⌊(n−1)/3⌋. Measured rounds match the exact schedule and never \
         exceed t+2+2⌊(t−1)/(b−2)⌋; messages carry O(n^b) bits; local \
         computation stays polynomial (vs. Coan's exponential).",
        vec![
            "n",
            "t",
            "b",
            "rounds bound (paper)",
            "rounds (measured)",
            "max msg values (paper)",
            "max msg values (measured)",
            "max local ops",
        ],
    );
    let results = measure_cells(cases, move |&(n, b)| {
        measure(AlgorithmSpec::AlgorithmA { b }, n, t_a(n), 17)
    });
    for ((n, b), m) in results {
        let t = t_a(n);
        assert_eq!(m.rounds, algorithm_a_rounds_exact(t, b));
        table.push_row(vec![
            n.to_string(),
            t.to_string(),
            b.to_string(),
            algorithm_a_rounds_bound(t, b).to_string(),
            m.rounds.to_string(),
            fmt_count(blocked_max_message_values(n, b.min(t))),
            fmt_count(m.max_message_values as u128),
            fmt_count(m.max_local_ops as u128),
        ]);
    }
    table
}

/// EXP-T4 — Theorem 4: Algorithm C runs in `t+1` rounds with `O(n)`-value
/// messages and `O(n^2.5)` local computation.
pub fn experiment_t4(scale: Scale) -> Table {
    let cases: Vec<usize> = match scale {
        Scale::Quick => vec![18, 32],
        Scale::Full => vec![18, 32, 50, 72, 98],
    };
    let mut table = Table::new(
        "EXP-T4 — Theorem 4 (Algorithm C)",
        "t = largest value satisfying Proposition 4's constraints (≈ √(n/2)). \
         Rounds are exactly t+1 and the largest message carries n values — \
         constant in t, linear in n.",
        vec![
            "n",
            "t (≈ √(n/2))",
            "rounds (paper)",
            "rounds (measured)",
            "max msg values (paper)",
            "max msg values (measured)",
            "max local ops",
            "O(n^2.5) bound",
        ],
    );
    let results = measure_cells(cases, move |&n| {
        measure(AlgorithmSpec::AlgorithmC, n, t_c(n), 19)
    });
    for (n, m) in results {
        let t = t_c(n);
        table.push_row(vec![
            n.to_string(),
            t.to_string(),
            (t + 1).to_string(),
            m.rounds.to_string(),
            fmt_count(c_max_message_values(n)),
            fmt_count(m.max_message_values as u128),
            fmt_count(m.max_local_ops as u128),
            fmt_count(crate::bounds::c_local_bound(n)),
        ]);
    }
    table
}

/// EXP-T1 — Main Theorem: the hybrid's rounds match
/// `t + 2⌊(t_AB−1)/(b−2)⌋ + ⌊t_BC/(b−1)⌋ + 4` with `O(n^b)`-bit messages.
pub fn experiment_t1(scale: Scale) -> Table {
    let cases: Vec<(usize, usize)> = match scale {
        Scale::Quick => vec![(13, 3), (16, 3)],
        Scale::Full => {
            let mut v = Vec::new();
            for n in [13, 16, 25, 31] {
                let t = t_a(n);
                for b in 3..=t.min(4) {
                    v.push((n, b));
                }
            }
            v
        }
    };
    let mut table = Table::new(
        "EXP-T1 — Main Theorem (Hybrid A→B→C)",
        "t = ⌊(n−1)/3⌋. Measured rounds equal the Main Theorem's closed \
         form; the phase split (k_AB, k_BC, C rounds) is the schedule of \
         Fig. 3; messages stay O(n^b) bits.",
        vec![
            "n",
            "t",
            "b",
            "t_AB/t_AC",
            "k_AB+k_BC+C",
            "rounds (theorem)",
            "rounds (measured)",
            "max msg values (measured)",
            "max local ops",
        ],
    );
    let results = measure_cells(cases, move |&(n, b)| {
        measure(AlgorithmSpec::Hybrid { b }, n, t_a(n), 23)
    });
    for ((n, b), m) in results {
        let s = HybridSchedule::compute(n, b);
        assert_eq!(m.rounds, s.total_rounds());
        table.push_row(vec![
            n.to_string(),
            s.t.to_string(),
            b.to_string(),
            format!("{}/{}", s.t_ab, s.t_ac),
            format!("{}+{}+{}", s.k_ab, s.k_bc, s.c_rounds),
            s.main_theorem_rounds().to_string(),
            m.rounds.to_string(),
            fmt_count(m.max_message_values as u128),
            fmt_count(m.max_local_ops as u128),
        ]);
    }
    table
}

/// EXP-TRADEOFF — the §1/§4 comparison: rounds vs. message length vs.
/// local computation for A, B, the hybrid and the Coan model.
pub fn experiment_tradeoff(scale: Scale) -> Table {
    let n = match scale {
        Scale::Quick => 13,
        Scale::Full => 21,
    };
    let ta = t_a(n);
    let tb = t_b(n);
    let bs: Vec<usize> = match scale {
        Scale::Quick => vec![3],
        Scale::Full => vec![3, 4, 5],
    };
    let mut table = Table::new(
        "EXP-TRADEOFF — rounds vs. message length vs. local computation",
        format!(
            "n = {n}; Algorithm A and the hybrid run at t = {ta}, Algorithm B \
             and the Coan model at t = {tb}. The shifted families match \
             Coan's rounds/message trade-off while keeping local computation \
             polynomial — the Coan column explodes exponentially in n."
        ),
        vec![
            "b",
            "A rounds",
            "hybrid rounds",
            "B rounds",
            "Coan rounds (model)",
            "max msg values (A/B measured)",
            "A max local ops",
            "B max local ops",
            "Coan local ops (model)",
        ],
    );
    let results = measure_cells(bs, move |&b| {
        let a = measure(AlgorithmSpec::AlgorithmA { b }, n, ta, 29);
        let h = measure(AlgorithmSpec::Hybrid { b }, n, ta, 29);
        let bb = measure(AlgorithmSpec::AlgorithmB { b }, n, tb, 29);
        (a, h, bb)
    });
    for (b, (a, h, bb)) in results {
        // Sanity: our measured biggest broadcast stays within the O(n^b)
        // envelope shared with the Coan model.
        assert!(
            (a.max_message_values.max(bb.max_message_values) as u128)
                <= coan_max_message_values(n, b).max(1) * n as u128,
            "message envelope exceeded at b={b}"
        );
        table.push_row(vec![
            b.to_string(),
            a.rounds.to_string(),
            h.rounds.to_string(),
            bb.rounds.to_string(),
            coan_rounds(tb, b).to_string(),
            fmt_count(a.max_message_values.max(bb.max_message_values) as u128),
            fmt_count(a.max_local_ops as u128),
            fmt_count(bb.max_local_ops as u128),
            fmt_count(coan_local_ops(n, b)),
        ]);
    }
    table
}

/// EXP-DOM — §4.4's dominance claim: at equal `(n, t, b)` the hybrid never
/// needs more rounds than Algorithm A, at identical resilience.
pub fn experiment_dominance(scale: Scale) -> Table {
    let ns: Vec<usize> = match scale {
        Scale::Quick => vec![13, 16],
        Scale::Full => vec![13, 16, 25, 31, 43],
    };
    let mut table = Table::new(
        "EXP-DOM — the hybrid dominates Algorithm A (§4.4)",
        "Both tolerate t = ⌊(n−1)/3⌋ with the same message-size bound; the \
         hybrid saves rounds by shifting into B and then C.",
        vec!["n", "t", "b", "A rounds", "hybrid rounds", "saved"],
    );
    for n in ns {
        let t = t_a(n);
        // Dominance is claimed for b < t: at b = t Algorithm A already
        // degenerates to the optimal (t+1)-round Exponential Algorithm.
        for b in 3..t.min(6) {
            let a = algorithm_a_rounds_exact(t, b);
            let h = HybridSchedule::compute(n, b).total_rounds();
            assert!(h <= a, "hybrid must dominate A at n={n} b={b}");
            table.push_row(vec![
                n.to_string(),
                t.to_string(),
                b.to_string(),
                a.to_string(),
                h.to_string(),
                (a - h).to_string(),
            ]);
        }
    }
    table
}

/// EXP-DETECT — the §4 progress argument: under a one-fault-per-block
/// reveal, how quickly each revealed fault becomes *globally* detected.
pub fn experiment_detect(scale: Scale) -> Table {
    let (n, b) = match scale {
        Scale::Quick => (13, 3),
        Scale::Full => (16, 3),
    };
    let t = t_a(n);
    // The full schedule: the source is correct, so the echo rule would
    // end the run at round 2, before the first reveal.
    let config = RunConfig::new(n, t)
        .with_source_value(Value(1))
        .with_trace()
        .fixed_length();
    let mut adversary =
        AdversaryFamily::chain_revealer(FaultSelection::without_source(), 2, b).instantiate(31);
    let outcome = sg_core::execute(AlgorithmSpec::AlgorithmA { b }, &config, adversary.as_mut())
        .expect("valid spec");
    outcome.assert_correct();

    let correct: Vec<usize> = (0..n)
        .filter(|&i| !outcome.faulty.contains(sg_sim::ProcessId(i)))
        .collect();
    let mut table = Table::new(
        "EXP-DETECT — global fault detection under chain reveal (Algorithm A)",
        format!(
            "n = {n}, t = {t}, b = {b}; fault j starts equivocating in round \
             2+{b}j. A fault is globally detected once every correct \
             processor lists it; masked thereafter, it cannot block a \
             persistent value (the paper's per-block progress argument)."
        ),
        vec![
            "fault",
            "reveals in round",
            "first discovery",
            "globally detected by",
            "discovered by #procs",
        ],
    );
    for (rank, f) in outcome.faulty.iter().enumerate() {
        let mut rounds: Vec<usize> = Vec::new();
        for e in outcome.trace.entries() {
            if let TraceEvent::Discovered { suspect, .. } = &e.event {
                if *suspect == f {
                    rounds.push(e.round);
                }
            }
        }
        let discoverers = rounds.len();
        let first = rounds.iter().min().copied();
        let global = (discoverers >= correct.len()).then(|| rounds.iter().max().copied());
        table.push_row(vec![
            f.to_string(),
            (2 + b * rank).to_string(),
            first.map_or("never".to_string(), |r| r.to_string()),
            global.flatten().map_or("—".to_string(), |r| r.to_string()),
            discoverers.to_string(),
        ]);
    }
    table
}

/// EXP-STAB — the detect-or-persist property in action: the round at
/// which every correct processor's preferred value stops changing, as a
/// function of the *actual* number of faults `f ≤ t`. Proposition 4's
/// progress argument says every round of Algorithm C either globally
/// detects a new fault or yields a persistent value; an equivocating
/// source is therefore caught and masked within one round, and the
/// outcome locks in at round 2 no matter how many co-conspirators exist
/// — far inside the fixed `t+1`-round schedule.
pub fn experiment_stability(scale: Scale) -> Table {
    let (n, spec_name, spec): (usize, &str, fn(usize) -> AlgorithmSpec) = match scale {
        Scale::Quick => (18, "algorithm-c", |_| AlgorithmSpec::AlgorithmC),
        Scale::Full => (50, "algorithm-c", |_| AlgorithmSpec::AlgorithmC),
    };
    let t = t_c(n);
    let mut table = Table::new(
        "EXP-STAB — value stabilization vs. actual fault count",
        format!(
            "{spec_name} at n = {n}, t = {t} under an equivocating source \
             plus f−1 honest-shadowing co-conspirators (f = 0 is \
             fault-free). 'Stable from' is the first round after which no \
             correct processor's preferred value changes again. The source \
             is globally detected and masked within one round of its \
             equivocation (Proposition 4's detect-or-persist step), so the \
             outcome locks in at round 2 regardless of f — far inside the \
             fixed t+1-round schedule."
        ),
        vec!["actual faults f", "rounds (schedule)", "stable from round"],
    );
    let cells: Vec<usize> = (0..=t).collect();
    let results = measure_cells(cells, move |&f| {
        let config = RunConfig::new(n, t)
            .with_source_value(Value(1))
            .with_trace()
            .fixed_length();
        let family = if f == 0 {
            Family::NoFaults
        } else {
            Family::EquivocatingSource(FaultSelection::with_source().limit(f))
        };
        let outcome =
            sg_core::execute(spec(f), &config, family.strategy(0).as_mut()).expect("valid");
        outcome.assert_correct();
        // Last round in which any correct processor's traced preferred
        // value differed from its decision.
        let mut last_unstable = 0usize;
        for (i, decision) in outcome.decisions.iter().enumerate() {
            let Some(decision) = decision else { continue };
            for e in outcome.trace.by(sg_sim::ProcessId(i)) {
                let value = match &e.event {
                    TraceEvent::Preferred { value } => Some(*value),
                    TraceEvent::Shift { preferred, .. } => Some(*preferred),
                    _ => None,
                };
                if let Some(v) = value {
                    if v != *decision {
                        last_unstable = last_unstable.max(e.round);
                    }
                }
            }
        }
        (outcome.rounds_used, last_unstable + 1)
    });
    for (f, (rounds, stable_from)) in results {
        table.push_row(vec![
            f.to_string(),
            rounds.to_string(),
            stable_from.to_string(),
        ]);
    }
    table
}

/// EXP-ES — early-deciding head-room vs. actual fault count (the
/// Dolev–Reischuk–Strong early-stopping lens on the hybrid), and what the
/// tree machine's echo rule harvests of it.
///
/// On the fixed schedule the decision value *locks in* early when few
/// faults occur: every block either yields a persistent value or
/// detects-and-masks faults. This sweep varies the number of actually
/// corrupted processors `f` from `0` to `t` under a coordinated
/// adversary and reports the system-wide lock-in round — the round from
/// which no correct processor's preferred value changes again — the
/// head-room to the end of the schedule, and the round at which the same
/// execution ends with early stopping on ([`sg_core::GearedProtocol`]'s echo
/// rule: the first block start at which the echoes already agree).
pub fn experiment_early_stopping(scale: Scale) -> Table {
    let (n, b) = match scale {
        Scale::Quick => (10, 3),
        Scale::Full => (16, 3),
    };
    let t = t_a(n);
    let spec = AlgorithmSpec::Hybrid { b };
    let mut table = Table::new(
        "EXP-ES — decision lock-in vs. actual fault count (DRS early-stopping head-room)",
        format!(
            "hybrid(b={b}) at n = {n}, t = {t} under a coordinated adversary \
             (staggered split-brain, source included, one conspirator \
             activating per block) corrupting exactly f processors (f = 0 is \
             fault-free). 'Lock-in' is \
             the first round after which no correct processor's preferred value \
             changes on the fixed schedule; 'head-room' is the schedule length \
             minus lock-in — the rounds an early-stopping rule \
             (Dolev–Reischuk–Strong 1986, the lineage of Algorithm C) could \
             save. Fault-free runs lock in at round 1 (persistence); attacked \
             runs lock in at the first block boundary, where the shift's \
             conversion restores unanimity — the detect-or-persist structure \
             that makes DRS-style early stopping possible. 'Stopped at' is \
             where the echo rule ends the same execution: one round after the \
             lock-in, at the next block's first echo."
        ),
        vec![
            "actual faults f",
            "rounds (schedule)",
            "lock-in round",
            "head-room",
            "stopped at (echo rule)",
        ],
    );
    let cells: Vec<usize> = (0..=t).collect();
    let results = measure_cells(cells, move |&f| {
        let config = RunConfig::new(n, t)
            .with_source_value(Value(1))
            .with_trace();
        let run = |config: &RunConfig| {
            let family = if f == 0 {
                Family::NoFaults
            } else {
                Family::StaggeredSplit {
                    selection: FaultSelection::with_source().limit(f),
                    start: 2,
                    block: b,
                }
            };
            let outcome =
                sg_core::execute(spec, config, family.strategy(0).as_mut()).expect("valid");
            outcome.assert_correct();
            outcome
        };
        let fixed = run(&config.fixed_length());
        let report = crate::stability::lock_in(&fixed);
        (
            fixed.rounds_used,
            report.system_lock_in().unwrap_or(0),
            report.headroom().unwrap_or(0),
            run(&config).rounds_used,
        )
    });
    for (f, (rounds, lock, headroom, stopped)) in results {
        table.push_row(vec![
            f.to_string(),
            rounds.to_string(),
            lock.to_string(),
            headroom.to_string(),
            stopped.to_string(),
        ]);
    }
    table
}

/// EXP-KING — the §5 king-family extensions against the paper's own
/// algorithms at full `⌊(n−1)/3⌋` resilience.
///
/// Berman–Garay–Perry-style king protocols (the successors §5 surveys)
/// trade rounds for constant-size messages; the A→King shift keeps the
/// paper's fast persistence path while capping the large-message phase at
/// one A block. The shape claim: king messages stay at 1 value for any
/// `n` while A/hybrid messages grow as `O(n^b)`, and the kings pay
/// roughly `3t` rounds for it.
pub fn experiment_king(scale: Scale) -> Table {
    let ns: Vec<usize> = match scale {
        Scale::Quick => vec![10, 16],
        Scale::Full => vec![10, 16, 22, 31],
    };
    let mut table = Table::new(
        "EXP-KING — constant-message king protocols vs. the shifted families (§5)",
        "All algorithms run at t = ⌊(n−1)/3⌋ under the chain-revealing stress \
         adversary. optimal-king is the three-round-per-phase n > 3t Phase King; \
         king-shift(3) runs one Algorithm A block, shifts via resolve', and \
         finishes with optimal-king. King messages stay at O(1) values at every \
         n; the tree algorithms' messages grow polynomially but finish in fewer \
         rounds.",
        vec![
            "n",
            "t",
            "algorithm",
            "rounds",
            "max msg values",
            "total bits",
            "max local ops",
        ],
    );
    let mut cells: Vec<(usize, AlgorithmSpec)> = Vec::new();
    for &n in &ns {
        cells.push((n, AlgorithmSpec::AlgorithmA { b: 3 }));
        cells.push((n, AlgorithmSpec::Hybrid { b: 3 }));
        cells.push((n, AlgorithmSpec::KingShift { b: 3 }));
        cells.push((n, AlgorithmSpec::OptimalKing));
    }
    let results = measure_cells(cells, move |&(n, spec)| measure(spec, n, t_a(n), 13));
    for ((n, spec), m) in results {
        table.push_row(vec![
            n.to_string(),
            t_a(n).to_string(),
            spec.name(),
            m.rounds.to_string(),
            fmt_count(m.max_message_values.into()),
            fmt_count(m.total_bits.into()),
            fmt_count(m.max_local_ops.into()),
        ]);
    }
    table
}

/// EXP-COMPOSE — the shift-composition framework (§6's open question).
///
/// A gallery of compositions fed to the safety validator: accepted ones
/// are executed under the stress adversary and must agree; rejected ones
/// are reported with the violated paper condition.
pub fn experiment_compositions(scale: Scale) -> Table {
    use sg_core::compose::ShiftPlanBuilder;

    let n = 16;
    let t = t_a(n);
    let mut table = Table::new(
        "EXP-COMPOSE — validated shift compositions (§6's open question, operationalized)",
        format!(
            "Each candidate composition at n = {n}, t = {t} is checked against \
             the paper's §4.4 sufficient conditions (detection-ledger entry \
             requirements, terminal conclusiveness). Accepted compositions run \
             under the chain-revealing adversary and must reach agreement; \
             rejected ones report the violated condition. 'A(b=3)x2' means two \
             Algorithm A blocks of 3 gather rounds."
        ),
        vec!["composition", "verdict", "rounds", "agreement"],
    );
    let candidates: Vec<(&str, ShiftPlanBuilder)> = vec![
        (
            "paper hybrid shape",
            ShiftPlanBuilder::new(n, t)
                .a_blocks(3, 2)
                .b_blocks(3, 1)
                .c_tail(4),
        ),
        (
            "A->C (skip B)",
            ShiftPlanBuilder::new(n, t).a_blocks(4, 2).c_tail(2),
        ),
        (
            "A->King",
            ShiftPlanBuilder::new(n, t).a_blocks(3, 1).king_tail(),
        ),
        (
            "mixed-b A(4)->B(2)x2->C",
            ShiftPlanBuilder::new(n, t)
                .a_blocks(4, 1)
                .b_blocks(2, 2)
                .c_tail(3),
        ),
        (
            "terminal exponential-A",
            ShiftPlanBuilder::new(n, t).a_blocks(t, 1),
        ),
        (
            "straight into B (unsafe)",
            ShiftPlanBuilder::new(n, t).b_blocks(3, 3).c_tail(4),
        ),
        (
            "premature C (unsafe)",
            ShiftPlanBuilder::new(n, t).a_blocks(3, 1).c_tail(6),
        ),
        (
            "short C tail (inconclusive)",
            ShiftPlanBuilder::new(n, t).a_blocks(5, 1).c_tail(1),
        ),
    ];
    let full = matches!(scale, Scale::Full);
    for (label, builder) in candidates {
        match builder.build() {
            Ok(composition) => {
                let config = RunConfig::new(n, t).with_source_value(Value(1));
                let mut adversary =
                    AdversaryFamily::chain_revealer(FaultSelection::without_source(), 2, 2)
                        .instantiate(17);
                let outcome = composition.execute(&config, adversary.as_mut());
                let agreement = outcome.agreement() && outcome.validity().unwrap_or(true);
                assert!(agreement, "accepted composition {label} must agree");
                table.push_row(vec![
                    label.to_string(),
                    "safe".to_string(),
                    composition.rounds().to_string(),
                    "yes".to_string(),
                ]);
            }
            Err(e) => {
                let verdict = if full {
                    format!("rejected: {e}")
                } else {
                    "rejected".to_string()
                };
                table.push_row(vec![
                    label.to_string(),
                    verdict,
                    "—".to_string(),
                    "—".to_string(),
                ]);
            }
        }
    }
    table
}

/// EXP-F2/F3 — the executable round plans of Figures 2 and 3.
pub fn plan_figures() -> String {
    let mut out = String::new();
    out.push_str(&sg_core::render_plan(
        "Figure 2 — Algorithm B(b=3), t=5 (n=21)",
        &AlgorithmSpec::AlgorithmB { b: 3 }
            .plan(21, 5)
            .expect("plan"),
    ));
    out.push('\n');
    out.push_str(&sg_core::render_plan(
        "Figure 3 — Hybrid(b=3), n=16 (t=5)",
        &AlgorithmSpec::Hybrid { b: 3 }.plan(16, 5).expect("plan"),
    ));
    out
}

/// The rounds-vs-f table: measured `rounds_used` under the crash, silent
/// and chain-revealer scenario families at every actual fault count
/// `f ≤ t`, with the source correct and with the source among the
/// faulty, comparing the static gear plan (`compose[A(b)×k→King]`)
/// against the `dynamic-king` spec, which runs the same segments with
/// runtime checkpoints — with Dolev–Strong's `min(f+2, t+1)`
/// early-stopping staircase alongside. The scenario adversaries are
/// deterministic (crashes ignore their seed), so each cell is one
/// execution.
pub fn experiment_rounds_vs_f(scale: Scale) -> Table {
    let (n, b) = match scale {
        Scale::Quick => (10, 3),
        Scale::Full => (16, 3),
    };
    let t = t_a(n);
    let blocks = sg_core::dynamic_king_blocks(t, b);
    let static_comp = sg_core::ShiftPlanBuilder::new(n, t)
        .a_blocks(b, blocks)
        .king_tail()
        .build()
        .expect("A-blocks + king tail validate");
    let mut table = Table::new(
        "EXP-RF — rounds used vs. actual fault count (static vs dynamic gear plans)",
        format!(
            "n = {n}, t = {t}, b = {b}: the crash (silent from round 2), \
             silent (never speak) and chain-revealer (staged lies that force \
             tree discoveries) families corrupting exactly f processors — \
             the actual-fault-budget knob of the expedite question — with \
             the source spared ('correct') and with the source the first of \
             the f ('faulty'). 'dolev-strong' is the authenticated baseline \
             whose quiescence rule pins the min(f+2, t+1) lemma; \
             'compose[A(b)x{blocks}->King]' is the static gear plan; \
             'dynamic-king' runs the same segments with runtime checkpoints \
             and shifts into the king tail as soon as a block \
             under-delivers fault detections. What decides the rounds is not f but whether the \
             source lies: a correct source ends every plan at round 2 — the \
             tree prefix's echo rule, before any gear is touched — at every \
             f; a source that merely crashes or stays silent leaves every \
             correct processor with one root and stops there too; only a \
             source that tells different processors different things \
             (chain-revealer) buys the adversary a block: the static plan \
             then stops at the next block's first echo, and dynamic-king \
             there too or — when it shifted at the boundary instead — at \
             its tail's first lock, one round later."
        ),
        vec![
            "source",
            "family",
            "f",
            "min(f+2,t+1)",
            "dolev-strong",
            "static compose",
            "dynamic-king",
        ],
    );
    let cells: Vec<(bool, usize, usize)> = [false, true]
        .into_iter()
        .flat_map(|source_faulty| {
            (0..3usize).flat_map(move |family| {
                (usize::from(source_faulty)..=t).map(move |f| (source_faulty, family, f))
            })
        })
        .collect();
    let results = measure_cells(cells, move |&(source_faulty, family, f)| {
        let config = RunConfig::new(n, t)
            .with_source_value(Value(1))
            .with_trace();
        let family = &scenario_families(source_faulty, f)[family];
        let adversary = || family.strategy(SCENARIO_SEED);
        let run = |spec: AlgorithmSpec| {
            let outcome = sg_core::execute(spec, &config, adversary().as_mut()).expect("valid");
            outcome.assert_correct();
            outcome.rounds_used
        };
        let compose = |comp: &sg_core::ShiftComposition| {
            let outcome = comp.execute(&config, adversary().as_mut());
            outcome.assert_correct();
            outcome.rounds_used
        };
        (
            run(AlgorithmSpec::DolevStrong),
            compose(&static_comp),
            run(AlgorithmSpec::DynamicKing { b }),
        )
    });
    for ((source_faulty, family, f), (ds, stat, dyn_king)) in results {
        table.push_row(vec![
            source_label(source_faulty).to_string(),
            scenario_families(source_faulty, f)[family]
                .name()
                .to_string(),
            f.to_string(),
            (f + 2).min(t + 1).to_string(),
            ds.to_string(),
            stat.to_string(),
            dyn_king.to_string(),
        ]);
    }
    table
}

fn source_label(source_faulty: bool) -> &'static str {
    if source_faulty {
        "faulty"
    } else {
        "correct"
    }
}

/// The scenario families of the rounds-vs-f tables, in column order,
/// each corrupting exactly `f` processors, the source first among them
/// when `source_faulty`.
fn scenario_families(source_faulty: bool, f: usize) -> [Family; 3] {
    let selection = if source_faulty {
        FaultSelection::with_source()
    } else {
        FaultSelection::without_source()
    }
    .limit(f);
    [
        Family::Crash {
            selection: selection.clone(),
            round: 2,
        },
        Family::Silent(selection.clone()),
        // The detection-forcing contrast: staged reveals (from round 1
        // when the source is theirs to lie with).
        Family::ChainRevealer {
            selection,
            start: if source_faulty { 1 } else { 2 },
            block: 2,
        },
    ]
}

/// The seed of every scenario strategy (only chain-revealer reads it).
const SCENARIO_SEED: u64 = 7;

/// The benchmark's `tree-paper` cells — the paper's own algorithms and
/// its gear shifts, `(spec, n)` at `b = 3`, each run at
/// [`AlgorithmSpec::max_resilience`] — shared by the rounds-vs-f table,
/// the tree-family tests and `benches/run_loop.rs`.
pub const TREE_PAPER_CELLS: [(AlgorithmSpec, usize); 7] = [
    (AlgorithmSpec::Exponential, 10),
    (AlgorithmSpec::AlgorithmA { b: 3 }, 13),
    (AlgorithmSpec::AlgorithmB { b: 3 }, 17),
    (AlgorithmSpec::AlgorithmC, 32),
    (AlgorithmSpec::Hybrid { b: 3 }, 16),
    (AlgorithmSpec::KingShift { b: 3 }, 13),
    (AlgorithmSpec::DynamicKing { b: 3 }, 13),
];

/// The tree family's rows of the rounds-vs-f artifact: the seven
/// `tree-paper` specs, each at its benchmark size and maximum
/// resilience, at `f ∈ {0, 1, ⌈t/2⌉, t}` actual faults with the source
/// correct and with the source faulty, under the three scenario
/// families — `rounds_used` with early stopping on, beside the schedule.
pub fn experiment_rounds_vs_f_trees(_scale: Scale) -> Table {
    let mut table = Table::new(
        "EXP-RF-TREE — rounds used by the tree family vs. actual fault count (the echo rule)",
        "The seven tree-paper specs (b = 3), each at its benchmark size and \
         maximum resilience, with exactly f processors corrupted — \
         f ∈ {0, 1, ⌈t/2⌉, t}, the source spared ('correct') or the first \
         of the f ('faulty') — under the crash, silent and chain-revealer \
         families. The tree machine stops at the first block start at which \
         all but t of a processor's echoes repeat its own root. A correct \
         source therefore ends every spec at round 2 whatever f is; so does \
         a source that crashes or stays silent (everyone holds the same \
         root). Only a source that splits the processors (chain-revealer) \
         costs rounds: the blocked specs (A, B, the hybrid, dynamic-king's \
         prefix) stop at their second block's first echo, round 1 + b + 1; \
         king-shift, whose one A block hands over to the king tail, at the \
         tail's first lock one round later; and the single-block specs \
         (Exponential, C) have no second block start and run their schedule."
            .to_string(),
        ["algorithm", "n", "t", "schedule", "source", "f"]
            .into_iter()
            .chain(scenario_families(false, 0).iter().map(Family::name))
            .collect(),
    );
    let mut cells: Vec<(AlgorithmSpec, usize, bool, usize)> = Vec::new();
    for (spec, n) in TREE_PAPER_CELLS {
        let t = spec.max_resilience(n);
        for source_faulty in [false, true] {
            let mut budgets = vec![0, 1, t.div_ceil(2), t];
            budgets.retain(|&f| f >= usize::from(source_faulty));
            budgets.dedup();
            cells.extend(budgets.into_iter().map(|f| (spec, n, source_faulty, f)));
        }
    }
    let results = measure_cells(cells, move |&(spec, n, source_faulty, f)| {
        let config = RunConfig::new(n, spec.max_resilience(n)).with_source_value(Value(1));
        scenario_families(source_faulty, f).map(|family| {
            let mut adversary = family.strategy(SCENARIO_SEED);
            let outcome = sg_core::execute(spec, &config, adversary.as_mut()).expect("valid");
            outcome.assert_correct();
            outcome.rounds_used
        })
    });
    for ((spec, n, source_faulty, f), rounds) in results {
        let t = spec.max_resilience(n);
        let mut row = vec![
            spec.name(),
            n.to_string(),
            t.to_string(),
            spec.rounds(n, t).to_string(),
            source_label(source_faulty).to_string(),
            f.to_string(),
        ];
        row.extend(rounds.iter().map(usize::to_string));
        table.push_row(row);
    }
    table
}

/// Every tabulated experiment at the given scale, in presentation order.
pub fn all_experiments(scale: Scale) -> Vec<Table> {
    vec![
        experiment_p1(scale),
        experiment_t2(scale),
        experiment_t3(scale),
        experiment_t4(scale),
        experiment_t1(scale),
        experiment_tradeoff(scale),
        experiment_dominance(scale),
        experiment_detect(scale),
        experiment_stability(scale),
        experiment_early_stopping(scale),
        experiment_king(scale),
        experiment_compositions(scale),
        experiment_rounds_vs_f(scale),
        experiment_rounds_vs_f_trees(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_experiments_produce_tables() {
        for table in all_experiments(Scale::Quick) {
            assert!(!table.rows.is_empty(), "{} empty", table.title);
        }
    }

    #[test]
    fn plan_figures_cover_both_figures() {
        let text = plan_figures();
        assert!(text.contains("Figure 2"));
        assert!(text.contains("Figure 3"));
        assert!(text.contains("resolve'"));
    }
}
