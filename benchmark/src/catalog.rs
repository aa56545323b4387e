//! The metric catalog. `BENCHMARK.json` at the repository root is the
//! one place a metric's name, unit, direction and bound are written
//! down; it is compiled in, so the harness cannot drift from it.

use serde::json::Value as Json;

use crate::stats::Better;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Metrics that are counts made by the simulation or by an encoder, not
/// times: at a fixed seed they must repeat bit for bit, between passes
/// and between commits that do not claim them. (`BENCHMARK.json` can
/// only express a relative bound, and the driver varies the seed, so
/// the bounds there are small but not zero; `bench compare` is exact.)
pub const EXACT: [&str; 8] = [
    "rounds_mean",
    "kbits_per_run",
    "local_kops_per_run",
    FAILED_SHARE,
    "core.rounds_mean.king-shift",
    "core.rounds_mean.dynamic-king",
    "analysis.cell_json_bytes",
    "journal.store_kb",
];

/// Reported beside the catalog's end-to-end metrics, but kept out of
/// `BENCHMARK.json`: it is 0 at every healthy commit, which the driver's
/// relative bounds cannot gate. The driver reads the same fact from the
/// result line's `attempted` and `failed`.
pub const FAILED_SHARE: &str = "failed_share";

pub fn failed_share() -> Metric {
    Metric {
        name: FAILED_SHARE.to_string(),
        unit: "ratio".to_string(),
        better: Better::Lower,
        bound: Some(0.0),
    }
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// The share of the baseline by which the metric may get worse
    /// before that is a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

impl Metric {
    /// The absolute change below which a worse value is not a
    /// regression whatever its share: small set-up times and resident
    /// sets move by this much from run to run.
    pub fn floor(&self) -> f64 {
        match self.name.as_str() {
            "setup_s" => 0.25,
            "peak_rss_mb" => 1.0,
            _ => 0.0,
        }
    }

    pub fn exact(&self) -> bool {
        EXACT.contains(&self.name.as_str())
    }
}

pub struct Catalog {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<Metric>, String> {
    let field = |m: &Json, k: &str| {
        m.get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: a {key} metric lacks '{k}'"))
    };
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: no '{key}' list"))?
        .iter()
        .map(|m| {
            Ok(Metric {
                name: field(m, "name")?,
                unit: field(m, "unit")?,
                better: Better::parse(&field(m, "better")?)
                    .ok_or_else(|| format!("BENCHMARK.json: bad 'better' in {key}"))?,
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Catalog {
    pub fn load() -> Result<Catalog, String> {
        let doc = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json: no 'workloads' list")?
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect();
        Ok(Catalog {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no 'run_seconds'")?,
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_meets_the_contract_and_names_the_workloads() {
        let catalog = Catalog::load().expect("BENCHMARK.json parses");
        assert_eq!(catalog.workloads, crate::workloads::NAMES);
        assert!((1.0..=60.0).contains(&catalog.run_seconds));
        let setup = catalog
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is an end-to-end metric");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        for metric in &catalog.end_to_end {
            let bound = metric.bound.expect("every end-to-end metric has a bound");
            assert!((0.0..=0.25).contains(&bound), "{}", metric.name);
            assert!(
                bound <= setup.bound.unwrap(),
                "setup_s has the largest bound"
            );
        }
        assert!(catalog.per_layer.iter().all(|m| m.bound.is_none()));
        let mut names: Vec<&str> = catalog
            .end_to_end
            .iter()
            .chain(&catalog.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        assert!(names.iter().all(|name| name.len() <= 64));
        assert!(!names.contains(&FAILED_SHARE));
        for exact in EXACT {
            assert!(exact == FAILED_SHARE || names.contains(&exact), "{exact}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "metric names are used once");
    }
}
