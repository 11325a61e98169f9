//! Metric and workload names, and the result line a run prints.
//!
//! `BENCHMARK.json` at the repository root is the one place workloads and
//! metrics are declared; the program reads its tables from there.

use crate::json::{self, Value};
use std::fmt::Write as _;
use std::sync::OnceLock;

/// One declared metric.
#[derive(Debug)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
}

/// What `BENCHMARK.json` declares.
#[derive(Debug)]
pub struct Tables {
    /// `(name, why)` of every workload, in the order `run.sh` runs them.
    pub workloads: Vec<(String, String)>,
    /// Reported by every untraced run.
    pub end_to_end: Vec<MetricDef>,
    /// Reported by every traced run; a layer the workload does not exercise
    /// reports 0.
    pub per_layer: Vec<MetricDef>,
}

/// The tables of the `BENCHMARK.json` this binary was built from.
pub fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let text = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: {key} is a string"))
                .to_string()
        };
        let list = |key: &str| doc.get(key).map_or(&[][..], Value::items);
        let metrics = |key: &str| {
            list(key)
                .iter()
                .map(|m| MetricDef {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    better: text(m, "better"),
                })
                .collect()
        };
        Tables {
            workloads: list("workloads")
                .iter()
                .map(|w| (text(w, "name"), text(w, "why")))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    })
}

/// Whether a per-layer metric is a count fixed by the program and its
/// inputs, on which two runs of the same code and seed must agree exactly.
pub fn repeats_exactly(name: &str) -> bool {
    name.ends_with("allocs_per_op")
        || name.ends_with("_events")
        || name == "path.alloc_bytes_per_op"
}

/// What one run of one workload found.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)`; units come from [`tables`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Values beyond the metrics of [`repeats_exactly`] that must repeat
    /// exactly between two runs of the same code and seed (digests), printed
    /// but not part of the result line.
    pub exact: Vec<(String, String)>,
}

impl RunResult {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// A traced result with every per-layer metric present, at 0.
    pub fn per_layer_zeroed() -> RunResult {
        RunResult {
            metrics: tables()
                .per_layer
                .iter()
                .map(|m| (m.name.as_str(), 0.0))
                .collect(),
            ..RunResult::default()
        }
    }

    /// The one-object result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, each metric with its value as measured and its unit.
    pub fn to_json_line(&self, defs: &[MetricDef]) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, def) in defs.iter().enumerate() {
            let value = self.get(&def.name).unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name, value, def.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// One `name value unit` row per metric, for people.
    pub fn to_table(&self, defs: &[MetricDef]) -> String {
        let mut s = String::new();
        for def in defs {
            let value = self.get(&def.name).unwrap_or(0.0);
            let _ = writeln!(s, "  {:<38} {:>18.4} {}", def.name, value, def.unit);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_gives_all_three_tables() {
        let t = tables();
        assert_eq!(t.workloads.len(), 5);
        assert!(t.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(t.per_layer.iter().any(|m| m.name == "path.ledger_ratio"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = RunResult {
            attempted: 10,
            failed: 0,
            ..RunResult::default()
        };
        r.set("ops_per_s", 1234.5678);
        let line = r.to_json_line(&tables().end_to_end);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"ops_per_s\": {\"value\": 1234.5678, \"unit\": \"op/s\"}"));
        assert!(!line.contains('\n'));
    }
}
