//! The names every later change is judged by: the end-to-end metrics
//! with their bounds, and the per-layer metrics of the traced run. They
//! are read from `BENCHMARK.json`, compiled in, so there is one table.

use std::sync::OnceLock;

use serde::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// get worse; a per-layer metric has none.
    pub bound: Option<f64>,
}

struct Tables {
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

fn items<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(a)) => a,
        _ => panic!("BENCHMARK.json: `{key}` is not a list"),
    }
}

fn text(v: &Value, key: &str) -> String {
    match v.get(key) {
        Some(Value::Str(s)) => s.clone(),
        _ => panic!("BENCHMARK.json: `{key}` is not a string"),
    }
}

fn metrics(json: &Value, key: &str) -> Vec<Metric> {
    items(json, key)
        .iter()
        .map(|m| Metric {
            name: text(m, "name"),
            unit: text(m, "unit"),
            better: match text(m, "better").as_str() {
                "higher" => Better::Higher,
                "lower" => Better::Lower,
                other => panic!("BENCHMARK.json: `better` is `{other}`"),
            },
            bound: match m.get("bound") {
                Some(Value::Float(b)) => Some(*b),
                Some(other) => panic!("BENCHMARK.json: `bound` is {other:?}"),
                None => None,
            },
        })
        .collect()
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let json = serde::json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        Tables {
            end_to_end: metrics(&json, "end_to_end"),
            per_layer: metrics(&json, "per_layer"),
        }
    })
}

/// The end-to-end metrics, each with its bound.
pub fn end_to_end() -> &'static [Metric] {
    &tables().end_to_end
}

/// The per-layer metrics of the traced run.
pub fn per_layer() -> &'static [Metric] {
    &tables().per_layer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn benchmark_json_lists_the_workloads_and_bounds_this_binary_has() {
        let json = serde::json::from_str(BENCHMARK_JSON).unwrap();
        let listed: Vec<String> = items(&json, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(listed, ours);
        assert!(end_to_end().iter().all(|m| m.bound.is_some()));
        assert!(per_layer().iter().all(|m| m.bound.is_none()));
        let bound = |name: &str| end_to_end().iter().find(|m| m.name == name).unwrap().bound;
        assert_eq!(bound("setup_s"), Some(0.25));
        assert_eq!(bound("ops_per_s"), Some(0.25));
        assert_eq!(bound("op_p50_us"), Some(0.10));
    }
}
