//! `bench compare <a.json> <b.json>`: is run `b` worse than run `a`?
//! Applies `BENCHMARK.json`'s bounds to every (metric, workload) row of
//! two `results.json` files made with the same seed and settings.

use serde::json::Value as Json;

use crate::catalog::{failed_share, Catalog};
use crate::stats::Better;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    /// Worse by more than the bound, but the passes of either run spread
    /// wider than the bound and their ranges overlap: the runs cannot
    /// tell a regression from noise.
    Unresolved,
    Regression,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "regression",
        }
    }
}

/// One side of a row: the reported value and the range of its passes.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

impl Side {
    fn spread(&self) -> f64 {
        (self.max - self.min) / self.value.abs()
    }
}

/// The rule. An exact metric must be identical. A timed metric of `b`
/// may be worse than `a`'s by the bound's share of `a` (or by the
/// metric's absolute floor, if that is more) and still be `Ok`.
pub fn verdict(a: Side, b: Side, better: Better, bound: f64, floor: f64, exact: bool) -> Verdict {
    if exact {
        return if a.value == b.value {
            Verdict::Ok
        } else {
            Verdict::Regression
        };
    }
    let worse_by = match better {
        Better::Lower => b.value - a.value,
        Better::Higher => a.value - b.value,
    };
    if worse_by <= (bound * a.value.abs()).max(floor) {
        return Verdict::Ok;
    }
    let overlap = a.min <= b.max && b.min <= a.max;
    if overlap && a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Regression
    }
}

fn side(results: &Json, workload: &str, section: &str, name: &str) -> Option<Side> {
    let stat = results
        .get("workloads")?
        .get(workload)?
        .get(section)?
        .get(name)?;
    Some(Side {
        value: stat.get("value")?.as_f64()?,
        min: stat.get("min")?.as_f64()?,
        max: stat.get("max")?.as_f64()?,
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Compares two result files, printing one row per (workload, metric);
/// `Ok(true)` when no row is a regression.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let catalog = Catalog::load()?;
    let (a, b) = (load(path_a)?, load(path_b)?);
    for setting in ["seed", "pass_seconds", "passes"] {
        if a.get(setting) != b.get(setting) {
            return Err(format!(
                "the runs differ in '{setting}': compare runs of one seed and one setting"
            ));
        }
    }
    let failed_share = failed_share();
    let mut rows = 0;
    let mut regressions = 0;
    for workload in &catalog.workloads {
        let end_to_end = catalog.end_to_end.iter().chain([&failed_share]);
        let sections = end_to_end
            .map(|m| ("end_to_end", m))
            .chain(catalog.per_layer.iter().map(|m| ("per_layer", m)));
        for (section, metric) in sections {
            // Per-layer metrics have no bound: only their exact counts
            // are compared.
            if metric.bound.is_none() && !metric.exact() {
                continue;
            }
            let sides = (
                side(&a, workload, section, &metric.name),
                side(&b, workload, section, &metric.name),
            );
            let (Some(side_a), Some(side_b)) = sides else {
                continue;
            };
            let verdict = verdict(
                side_a,
                side_b,
                metric.better,
                metric.bound.unwrap_or(0.0),
                metric.floor(),
                metric.exact(),
            );
            println!(
                "{workload} {} {} {} -> {} {}",
                metric.name,
                metric.unit,
                side_a.value,
                side_b.value,
                verdict.word()
            );
            rows += 1;
            regressions += usize::from(verdict == Verdict::Regression);
        }
    }
    if rows == 0 {
        return Err("the two files share no (workload, metric) row".to_string());
    }
    println!("{rows} rows, {regressions} regression(s)");
    Ok(regressions == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(value: f64) -> Side {
        Side {
            value,
            min: value * 0.99,
            max: value * 1.01,
        }
    }

    #[test]
    fn within_the_bound_is_ok_in_either_direction() {
        let v = |a, b, better| verdict(tight(a), tight(b), better, 0.1, 0.0, false);
        assert_eq!(v(100.0, 109.0, Better::Lower), Verdict::Ok);
        assert_eq!(v(100.0, 111.0, Better::Lower), Verdict::Regression);
        assert_eq!(v(100.0, 50.0, Better::Lower), Verdict::Ok);
        assert_eq!(v(100.0, 91.0, Better::Higher), Verdict::Ok);
        assert_eq!(v(100.0, 89.0, Better::Higher), Verdict::Regression);
        assert_eq!(v(100.0, 500.0, Better::Higher), Verdict::Ok);
    }

    #[test]
    fn a_wide_overlapping_spread_is_unresolved_not_a_regression() {
        let noisy = |value: f64| Side {
            value,
            min: value * 0.8,
            max: value * 1.3,
        };
        let v = |a, b| verdict(a, b, Better::Lower, 0.1, 0.0, false);
        assert_eq!(v(noisy(100.0), noisy(115.0)), Verdict::Unresolved);
        // Wide but disjoint ranges: every pass of b is worse.
        assert_eq!(v(noisy(100.0), noisy(200.0)), Verdict::Regression);
        // Overlapping but tight ranges: the runs can tell.
        let near = |value: f64, max: f64| Side {
            value,
            min: value,
            max,
        };
        assert_eq!(
            v(near(100.0, 113.0), near(112.0, 113.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            v(near(100.0, 104.0), near(112.0, 113.0)),
            Verdict::Regression
        );
    }

    #[test]
    fn floors_forgive_small_absolute_moves_and_exact_forgives_nothing() {
        let v = |a, b, floor, exact| verdict(tight(a), tight(b), Better::Lower, 0.25, floor, exact);
        assert_eq!(v(0.2, 0.4, 0.25, false), Verdict::Ok);
        assert_eq!(v(0.2, 0.5, 0.25, false), Verdict::Regression);
        assert_eq!(v(3.0, 3.0, 0.0, true), Verdict::Ok);
        assert_eq!(v(3.0, 3.0000001, 0.0, true), Verdict::Regression);
        assert_eq!(v(3.0, 2.9, 0.0, true), Verdict::Regression);
    }
}
