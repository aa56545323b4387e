//! Minimal ASCII charts for terminal reports.
//!
//! The repro harness and examples render trade-off curves as horizontal
//! bar charts; log-scale bars keep the Coan model's exponential
//! local-computation column on the same screen as our polynomial ones.

/// A labelled series of non-negative quantities.
#[derive(Clone, PartialEq, Debug)]
pub struct Series {
    /// Series label (e.g. "Algorithm A rounds").
    pub label: String,
    /// One (tick label, value) pair per bar.
    pub points: Vec<(String, f64)>,
}

impl Series {
    /// Creates a series from `(tick, value)` pairs.
    pub fn new(label: impl Into<String>, points: impl IntoIterator<Item = (String, f64)>) -> Self {
        Series {
            label: label.into(),
            points: points.into_iter().collect(),
        }
    }
}

/// Renders horizontal bars, linearly scaled to `width` columns.
///
/// # Examples
///
/// ```
/// use sg_analysis::chart::{bar_chart, Series};
///
/// let s = Series::new("rounds", [("b=3".to_string(), 16.0), ("b=4".to_string(), 12.0)]);
/// let text = bar_chart(&[s], 20, false);
/// assert!(text.contains("b=3"));
/// assert!(text.contains('█'));
/// ```
pub fn bar_chart(series: &[Series], width: usize, log_scale: bool) -> String {
    let mut out = String::new();
    let transform = |v: f64| -> f64 {
        if log_scale {
            (v.max(1.0)).log10()
        } else {
            v
        }
    };
    let max = series
        .iter()
        .flat_map(|s| s.points.iter().map(|(_, v)| transform(*v)))
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);
    let tick_width = series
        .iter()
        .flat_map(|s| s.points.iter().map(|(t, _)| t.len()))
        .max()
        .unwrap_or(0);
    for s in series {
        out.push_str(&format!(
            "{}{}:\n",
            s.label,
            if log_scale { " (log scale)" } else { "" }
        ));
        for (tick, v) in &s.points {
            let filled = ((transform(*v) / max) * width as f64).round() as usize;
            let filled = filled.min(width);
            out.push_str(&format!(
                "  {tick:<tick_width$}  {}{} {v}\n",
                "█".repeat(filled),
                " ".repeat(width - filled),
            ));
        }
    }
    out
}

/// Renders the per-round largest-message profile of an execution — the
/// picture of the gears shifting. Each bar is one round's largest honest
/// message in values (log scale: EIG levels grow exponentially while king
/// rounds carry one value).
///
/// # Examples
///
/// ```
/// use sg_analysis::chart::message_profile;
/// use sg_core::{execute, AlgorithmSpec};
/// use sg_sim::{NoFaults, RunConfig};
///
/// let config = RunConfig::new(16, 5);
/// let outcome = execute(AlgorithmSpec::Hybrid { b: 3 }, &config, &mut NoFaults)?;
/// let chart = message_profile(&outcome, 40);
/// assert!(chart.contains("r01"));
/// # Ok::<(), sg_core::SpecError>(())
/// ```
pub fn message_profile(outcome: &sg_sim::Outcome, width: usize) -> String {
    let series = Series::new(
        format!(
            "largest message per round, in values ({})",
            outcome.adversary
        ),
        outcome
            .metrics
            .per_round
            .iter()
            .map(|r| (format!("r{:02}", r.round), r.max_message_values as f64)),
    );
    bar_chart(&[series], width, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> Series {
        Series::new(
            "test",
            [
                ("a".to_string(), 10.0),
                ("bb".to_string(), 5.0),
                ("c".to_string(), 0.0),
            ],
        )
    }

    #[test]
    fn linear_bars_scale_to_max() {
        let text = bar_chart(&[series()], 10, false);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[1].contains(&"█".repeat(10)));
        assert!(lines[2].contains(&"█".repeat(5)));
        assert!(!lines[3].contains('█'));
    }

    #[test]
    fn log_scale_compresses_large_ratios() {
        let s = Series::new(
            "wide",
            [("small".to_string(), 10.0), ("huge".to_string(), 1e12)],
        );
        let text = bar_chart(&[s], 12, true);
        // log10: 1 vs 12 -> the small bar still visible (1 column).
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[1].contains('█'));
        assert!(lines[2].contains(&"█".repeat(12)));
    }

    #[test]
    fn tick_labels_are_aligned() {
        let text = bar_chart(&[series()], 4, false);
        for line in text.lines().skip(1) {
            // "  " + tick padded to 2 + 2 spaces before bars.
            assert!(line.starts_with("  "));
        }
    }

    #[test]
    fn message_profile_shows_gear_shift() {
        use sg_core::{execute, AlgorithmSpec};
        use sg_sim::{NoFaults, RunConfig};
        // The whole schedule: fault-free, the echo rule stops at r02.
        let config = RunConfig::new(16, 5).fixed_length();
        let outcome = execute(AlgorithmSpec::Hybrid { b: 3 }, &config, &mut NoFaults).unwrap();
        let chart = message_profile(&outcome, 30);
        // One bar per round, labelled r01..r12.
        assert!(chart.contains("r01"));
        assert!(chart.contains("r12"));
        // The A-phase peak (r04 carries the depth-3 level) dwarfs the
        // C-phase rounds, which carry O(n) values.
        assert!(chart.lines().count() >= 13);
    }

    #[test]
    fn zero_only_series_does_not_divide_by_zero() {
        let s = Series::new("flat", [("x".to_string(), 0.0)]);
        let text = bar_chart(&[s], 8, false);
        assert!(text.contains('x'));
    }
}
