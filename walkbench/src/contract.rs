//! The metric contract — names, units, directions and regression bounds —
//! read from the repository's `BENCHMARK.json`, so what the benchmark prints
//! and what it is judged against cannot drift apart.

use walksteal_sim_core::Json;

const TEXT: &str = include_str!("../../BENCHMARK.json");

pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

pub struct Contract {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn metrics(doc: &Json, key: &str) -> Vec<Metric> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key:?}"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("BENCHMARK.json {key} entry lacks {k:?}"))
                    .to_string()
            };
            Metric {
                name: field("name"),
                unit: field("unit"),
                lower_is_better: field("better") == "lower",
                bound: m.get("bound").and_then(Json::as_f64),
            }
        })
        .collect()
}

impl Contract {
    pub fn load() -> Contract {
        let doc = Json::parse(TEXT).expect("BENCHMARK.json is valid JSON");
        Contract {
            end_to_end: metrics(&doc, "end_to_end"),
            per_layer: metrics(&doc, "per_layer"),
        }
    }
}
