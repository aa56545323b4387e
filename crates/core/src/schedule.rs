//! Round schedules and the paper's closed-form round counts.
//!
//! The shifted families run in *blocks*: after an initial round, each
//! block gathers for up to `b` rounds and ends with a `shift_{b+1→1}`
//! conversion. This module computes the exact block structure of
//! Algorithm A (§4.2), Algorithm B (§4.1) and the hybrid (§4.4), together
//! with the derived thresholds `t_AB`, `t_AC`, `t_BC` and phase lengths
//! `k_AB`, `k_BC` of the Main Theorem's proof.

use crate::params::t_a;

/// Block structure of one shifted-family phase: the lengths (in gather
/// rounds) of each block; every block ends with a conversion.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BlockPlan {
    /// Gather-round length of each block, in execution order.
    pub blocks: Vec<usize>,
}

impl BlockPlan {
    /// Total gather rounds across all blocks.
    pub fn gather_rounds(&self) -> usize {
        self.blocks.iter().sum()
    }
}

/// Algorithm B's block structure for fault bound `t` and parameter `b`
/// (Fig. 2): `x = ⌊(t−1)/(b−1)⌋` blocks of `b` rounds, plus a final block
/// of `y+1` rounds iff `y = (t−1) mod (b−1) ≠ 0`.
///
/// # Panics
///
/// Panics unless `2 ≤ b < t` (use the Exponential Algorithm for `b ≥ t`).
pub fn algorithm_b_blocks(t: usize, b: usize) -> BlockPlan {
    assert!(b >= 2, "Algorithm B requires b >= 2");
    assert!(b < t, "for b >= t run the Exponential Algorithm instead");
    let x = (t - 1) / (b - 1);
    let y = (t - 1) % (b - 1);
    let mut blocks = vec![b; x];
    if y != 0 {
        blocks.push(y + 1);
    }
    BlockPlan { blocks }
}

/// Algorithm A's block structure for fault bound `t` and parameter `b`
/// (§4.2): `x = ⌊(t−1)/(b−2)⌋` blocks of `b` rounds, plus a final block of
/// `y+2` rounds iff `y = (t−1) mod (b−2) ≠ 0`.
///
/// # Panics
///
/// Panics unless `3 ≤ b < t` (use the Exponential Algorithm for `b ≥ t`;
/// `b = 2` gives no progress guarantee — the paper's time bound is
/// infinite there).
pub fn algorithm_a_blocks(t: usize, b: usize) -> BlockPlan {
    assert!(
        b >= 3,
        "Algorithm A requires b >= 3 for guaranteed progress"
    );
    assert!(b < t, "for b >= t run the Exponential Algorithm instead");
    let x = (t - 1) / (b - 2);
    let y = (t - 1) % (b - 2);
    let mut blocks = vec![b; x];
    if y != 0 {
        blocks.push(y + 2);
    }
    BlockPlan { blocks }
}

/// Exact round count of Algorithm B: `1 +` gather rounds. Matches
/// Theorem 3's `t + 1 + ⌊(t−1)/(b−1)⌋` (one fewer when `(b−1) | (t−1)`).
pub fn algorithm_b_rounds_exact(t: usize, b: usize) -> usize {
    if b >= t {
        return exponential_rounds(t);
    }
    1 + algorithm_b_blocks(t, b).gather_rounds()
}

/// Theorem 3's worst-case round bound for Algorithm B.
pub fn algorithm_b_rounds_bound(t: usize, b: usize) -> usize {
    t + 1 + (t - 1) / (b - 1)
}

/// Exact round count of Algorithm A: `1 +` gather rounds. Matches
/// Theorem 2's `t + 2 + 2⌊(t−1)/(b−2)⌋` (two fewer when `(b−2) | (t−1)`).
pub fn algorithm_a_rounds_exact(t: usize, b: usize) -> usize {
    if b >= t {
        return exponential_rounds(t);
    }
    1 + algorithm_a_blocks(t, b).gather_rounds()
}

/// Theorem 2's worst-case round bound for Algorithm A.
pub fn algorithm_a_rounds_bound(t: usize, b: usize) -> usize {
    t + 2 + 2 * ((t - 1) / (b - 2))
}

/// Round count of the Exponential Algorithm and of Algorithm C
/// (Proposition 1 and Theorem 4): `t + 1`.
pub fn exponential_rounds(t: usize) -> usize {
    t + 1
}

/// The hybrid's derived thresholds and phase lengths (§4.4).
///
/// * `t_ab` — global detections (or persistence) required before shifting
///   A→B: the least value with `n − 2t + t_AB > ⌊(n−1)/2⌋`, which makes
///   Corollary 1 usable after the shift.
/// * `t_ac` — detections required before shifting into C: the least value
///   with `n − t − (t − t_AC)² > n/2` and `n − 2t + t_AC > n/2`, clamped
///   to at least `t_ab`.
/// * `t_bc = t_ac − t_ab` — additional detections B must contribute.
/// * `k_ab = 2 + t_AB + 2⌊(t_AB−1)/(b−2)⌋` rounds of Algorithm A.
/// * `k_bc = 1 + t_BC + ⌊t_BC/(b−1)⌋` rounds of Algorithm B (from its
///   round 2).
/// * `c_rounds = t − t_AC + 1` rounds of Algorithm C (from its round 2).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HybridSchedule {
    /// System size.
    pub n: usize,
    /// Fault bound (`t = t_A(n)`).
    pub t: usize,
    /// Block parameter.
    pub b: usize,
    /// Detections needed before the A→B shift.
    pub t_ab: usize,
    /// Detections needed before the B→C shift.
    pub t_ac: usize,
    /// Additional detections B must contribute (`t_ac − t_ab`).
    pub t_bc: usize,
    /// Rounds spent in Algorithm A.
    pub k_ab: usize,
    /// Rounds spent in Algorithm B.
    pub k_bc: usize,
    /// Rounds spent in Algorithm C.
    pub c_rounds: usize,
    /// Algorithm A phase block structure (gather rounds per block).
    pub a_blocks: Vec<usize>,
    /// Algorithm B phase block structure (gather rounds per block).
    pub b_blocks: Vec<usize>,
}

impl HybridSchedule {
    /// Computes the hybrid schedule for `n` processors with parameter `b`.
    /// The fault bound is `t = t_A(n) = ⌊(n−1)/3⌋`.
    ///
    /// # Panics
    ///
    /// Panics unless `t ≥ 3` (so all three phases are meaningful) and
    /// `3 ≤ b ≤ t`.
    pub fn compute(n: usize, b: usize) -> Self {
        let t = t_a(n);
        assert!(t >= 3, "hybrid needs t_A(n) >= 3, i.e. n >= 10");
        assert!((3..=t).contains(&b), "hybrid needs 3 <= b <= t");

        // Least t_AB with n − 2t + t_AB > ⌊(n−1)/2⌋; at least 1.
        let need = (n - 1) / 2;
        let t_ab = (need + 1 + 2 * t).saturating_sub(n).clamp(1, t);

        // Least t_AC satisfying both Lemma-6 preconditions; at least t_AB.
        let mut t_ac = t;
        for cand in t_ab..=t {
            let d = t - cand;
            // (t − t_AC)² < n/2 − t  ⟺  2d² < n − 2t.
            let sqrt_ok = 2 * d * d < n.saturating_sub(2 * t);
            // n − 2t + t_AC > n/2  ⟺  2(n − 2t + t_AC) > n.
            let majority_ok = 2 * (n - 2 * t + cand) > n;
            if sqrt_ok && majority_ok {
                t_ac = cand;
                break;
            }
        }
        let t_bc = t_ac - t_ab;

        // Phase A: x_A full blocks of b, one partial block of y_A + 2.
        let x_a = (t_ab - 1) / (b - 2);
        let y_a = (t_ab - 1) % (b - 2);
        let mut a_blocks = vec![b; x_a];
        a_blocks.push(y_a + 2);
        let k_ab = 1 + a_blocks.iter().sum::<usize>();
        debug_assert_eq!(k_ab, 2 + t_ab + 2 * x_a);

        // Phase B: x_B full blocks of b, one partial block of y_B + 1.
        let x_b = t_bc / (b - 1);
        let y_b = t_bc % (b - 1);
        let mut b_blocks = vec![b; x_b];
        b_blocks.push(y_b + 1);
        let k_bc = b_blocks.iter().sum::<usize>();
        debug_assert_eq!(k_bc, 1 + t_bc + x_b);

        let c_rounds = t - t_ac + 1;

        HybridSchedule {
            n,
            t,
            b,
            t_ab,
            t_ac,
            t_bc,
            k_ab,
            k_bc,
            c_rounds,
            a_blocks,
            b_blocks,
        }
    }

    /// Total communication rounds: `k_AB + k_BC + (t − t_AC + 1)`.
    pub fn total_rounds(&self) -> usize {
        self.k_ab + self.k_bc + self.c_rounds
    }

    /// The Main Theorem's closed-form round count:
    /// `t + 2⌊(t_AB−1)/(b−2)⌋ + ⌊t_BC/(b−1)⌋ + 4`.
    pub fn main_theorem_rounds(&self) -> usize {
        self.t + 2 * ((self.t_ab - 1) / (self.b - 2)) + self.t_bc / (self.b - 1) + 4
    }
}

/// The Main Theorem's round bound for given `n`, `b` — convenience
/// wrapper around [`HybridSchedule`].
pub fn hybrid_rounds_exact(n: usize, b: usize) -> usize {
    HybridSchedule::compute(n, b).total_rounds()
}

/// A recommended configuration from [`choose_b`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BChoice {
    /// The chosen block parameter.
    pub b: usize,
    /// Exact rounds of the hybrid at this `b`.
    pub rounds: usize,
    /// Largest message in values (`(n−1)⋯(n−b+1)`).
    pub max_message_values: u128,
}

/// Picks the smallest-round hybrid block parameter whose largest message
/// stays within `max_message_values` — the practical form of the paper's
/// rounds-versus-message-length trade-off: callers state their bandwidth
/// budget, the schedule arithmetic answers with the fastest admissible
/// gear train.
///
/// Returns `None` if `n` is too small for the hybrid (`t_A(n) < 3`) or
/// even `b = 3` exceeds the budget.
pub fn choose_b(n: usize, max_message_values: u128) -> Option<BChoice> {
    let t = t_a(n);
    if t < 3 {
        return None;
    }
    let mut best: Option<BChoice> = None;
    for b in 3..=t {
        let mut msg: u128 = 1;
        for j in 1..b {
            msg = msg.saturating_mul((n - j) as u128);
        }
        if msg > max_message_values {
            break; // message size is monotone in b
        }
        let rounds = HybridSchedule::compute(n, b).total_rounds();
        if best.is_none_or(|c| rounds < c.rounds) {
            best = Some(BChoice {
                b,
                rounds,
                max_message_values: msg,
            });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn b_blocks_match_theorem_3() {
        // t = 10, b = 4: x = 3, y = 0 -> 3 blocks of 4; total 1+12 = 13
        // rounds = t + x = 13 (one fewer than the bound 14).
        let plan = algorithm_b_blocks(10, 4);
        assert_eq!(plan.blocks, vec![4, 4, 4]);
        assert_eq!(algorithm_b_rounds_exact(10, 4), 13);
        assert_eq!(algorithm_b_rounds_bound(10, 4), 14);

        // t = 10, b = 3: x = 4, y = 1 -> four blocks of 3 plus one of 2.
        let plan = algorithm_b_blocks(10, 3);
        assert_eq!(plan.blocks, vec![3, 3, 3, 3, 2]);
        assert_eq!(algorithm_b_rounds_exact(10, 3), 15);
        assert_eq!(algorithm_b_rounds_bound(10, 3), 15);
    }

    #[test]
    fn a_blocks_match_theorem_2() {
        // t = 10, b = 5: x = 3, y = 0 -> 3 blocks of 5; 1+15 = 16 rounds,
        // two fewer than the bound 18.
        let plan = algorithm_a_blocks(10, 5);
        assert_eq!(plan.blocks, vec![5, 5, 5]);
        assert_eq!(algorithm_a_rounds_exact(10, 5), 16);
        assert_eq!(algorithm_a_rounds_bound(10, 5), 18);

        // t = 10, b = 4: x = 4, y = 1 -> 4 blocks of 4 plus final of 3.
        let plan = algorithm_a_blocks(10, 4);
        assert_eq!(plan.blocks, vec![4, 4, 4, 4, 3]);
        assert_eq!(algorithm_a_rounds_exact(10, 4), 20);
        assert_eq!(algorithm_a_rounds_bound(10, 4), 20);
    }

    #[test]
    fn exact_never_exceeds_bound() {
        for t in 3..30 {
            for b in 2..t {
                assert!(
                    algorithm_b_rounds_exact(t, b) <= algorithm_b_rounds_bound(t, b),
                    "B t={t} b={b}"
                );
                if b >= 3 {
                    assert!(
                        algorithm_a_rounds_exact(t, b) <= algorithm_a_rounds_bound(t, b),
                        "A t={t} b={b}"
                    );
                }
            }
        }
    }

    #[test]
    fn hybrid_schedule_consistency() {
        for n in [10, 13, 16, 19, 25, 31, 43] {
            let t = t_a(n);
            for b in 3..=t {
                let s = HybridSchedule::compute(n, b);
                assert_eq!(s.t, t);
                assert!(s.t_ab >= 1 && s.t_ab <= s.t_ac && s.t_ac <= t, "{s:?}");
                // Phase lengths match their closed forms.
                assert_eq!(s.k_ab, 2 + s.t_ab + 2 * ((s.t_ab - 1) / (b - 2)));
                assert_eq!(s.k_bc, 1 + s.t_bc + s.t_bc / (b - 1));
                assert_eq!(s.total_rounds(), s.k_ab + s.k_bc + s.t - s.t_ac + 1);
                // Main Theorem closed form agrees with the sum.
                assert_eq!(s.total_rounds(), s.main_theorem_rounds());
                // t_AB makes Corollary 1 usable after the A→B shift.
                assert!(s.n - 2 * s.t + s.t_ab > (s.n - 1) / 2);
                // t_AC satisfies the C-phase preconditions.
                let d = s.t - s.t_ac;
                assert!(2 * d * d < s.n - 2 * s.t, "{s:?}");
                assert!(2 * (s.n - 2 * s.t + s.t_ac) > s.n, "{s:?}");
            }
        }
    }

    #[test]
    fn hybrid_beats_algorithm_a() {
        // §4.4: the hybrid is faster than Algorithm A at equal resilience.
        for n in [16, 25, 31, 43] {
            let t = t_a(n);
            for b in 3..t {
                assert!(
                    hybrid_rounds_exact(n, b) <= algorithm_a_rounds_exact(t, b),
                    "n={n} b={b}: hybrid {} vs A {}",
                    hybrid_rounds_exact(n, b),
                    algorithm_a_rounds_exact(t, b)
                );
            }
        }
    }

    #[test]
    fn t_ab_is_half_t_for_n_3t_plus_1() {
        // For n = 3t+1 the paper's choice is t_AB = ⌊t/2⌋.
        for t in 3..20 {
            let n = 3 * t + 1;
            let s = HybridSchedule::compute(n, 3);
            assert_eq!(s.t_ab, t / 2, "t={t}");
        }
    }

    #[test]
    #[should_panic(expected = "b >= 2")]
    fn b_rejects_b_one() {
        let _ = algorithm_b_blocks(5, 1);
    }

    #[test]
    #[should_panic(expected = "guaranteed progress")]
    fn a_rejects_b_two() {
        let _ = algorithm_a_blocks(5, 2);
    }

    #[test]
    fn tight_budget_forces_small_b() {
        // b = 3 sends level-2 messages of 30·29 = 870 values at n = 31; a
        // budget of exactly 870 admits b = 3 but not b = 4 (870·28).
        let c = choose_b(31, 870).expect("b=3 fits");
        assert_eq!(c.b, 3);
        assert_eq!(c.max_message_values, 870);
        assert_eq!(c.rounds, HybridSchedule::compute(31, 3).total_rounds());
        // Below that, no hybrid configuration fits.
        assert_eq!(choose_b(31, 869), None);
    }

    #[test]
    fn loose_budget_buys_rounds() {
        let tight = choose_b(31, 1_000).unwrap();
        let loose = choose_b(31, 10_000_000).unwrap();
        assert!(loose.rounds <= tight.rounds);
        assert!(loose.b >= tight.b);
    }

    #[test]
    fn budget_is_respected() {
        for budget in [50u128, 1_000, 100_000] {
            if let Some(c) = choose_b(25, budget) {
                assert!(c.max_message_values <= budget);
            }
        }
    }

    #[test]
    fn tiny_systems_are_rejected() {
        assert_eq!(choose_b(7, u128::MAX), None); // t_A(7) = 2 < 3
    }
}
