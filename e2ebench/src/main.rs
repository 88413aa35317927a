//! End-to-end benchmark of the mlbs workspace.
//!
//! ```text
//! mlbs-e2ebench --workload <cold_30k|search_10k|serve_mix> --seed <n>
//!               --seconds <s> --trace <0|1> [--scale full|toy]
//! ```
//!
//! Run from the repository root: metric names and units come from
//! `BENCHMARK.json` there. Each workload makes its inputs from `--seed`,
//! runs its timed phase for `--seconds`, checks every output, and prints
//! as its last line one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. Untraced runs report the end-to-end metrics; traced runs
//! (`--trace 1`) wrap each call the benchmark makes into a layer in a
//! `wsn_obs` span and report the per-layer metrics instead. A failed op is
//! printed to stderr with the seed and op index that reproduce it, and the
//! process exits with 1.

mod check;
mod cold;
mod harness;
mod search;
mod serve;

use std::collections::BTreeMap;

use wsn_serve::Json;

/// Per-layer values a traced run fills in.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn spec_metrics(list: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json in the working directory: {e}"))?;
    let spec = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let entries = spec
        .get(list)
        .and_then(Json::as_arr)
        .ok_or(format!("BENCHMARK.json has no list {list:?}"))?;
    entries
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).map(str::to_string);
            field("name").zip(field("unit")).ok_or(format!(
                "BENCHMARK.json: an entry of {list:?} lacks a name or unit"
            ))
        })
        .collect()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (args, wanted) = match harness::Args::parse(&argv).and_then(|a| {
        let list = if a.trace { "per_layer" } else { "end_to_end" };
        Ok((a, spec_metrics(list)?))
    }) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut layers = Layers::default();
    let out = match args.workload.as_str() {
        "cold_30k" => cold::run(&args, &mut layers),
        "search_10k" => search::run(&args, &mut layers),
        "serve_mix" => serve::run(&args, &mut layers),
        other => {
            eprintln!("error: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    // Traced runs print every per-layer metric, 0 for a layer the workload
    // does not reach; untraced runs must have measured every end-to-end one.
    let measured: BTreeMap<&str, f64> = if args.trace {
        layers.0.into_iter().collect()
    } else {
        out.metrics.iter().copied().collect()
    };
    for name in measured.keys() {
        assert!(
            wanted.iter().any(|(n, _)| n == name),
            "{name} is not a metric of BENCHMARK.json"
        );
    }
    let metrics: Vec<(&str, f64, &str)> = wanted
        .iter()
        .map(|(name, unit)| {
            let value = measured.get(name.as_str()).copied();
            assert!(
                value.is_some() || args.trace,
                "workload {} did not report {name}",
                args.workload
            );
            (name.as_str(), value.unwrap_or(0.0), unit.as_str())
        })
        .collect();
    if !out.print(&args, &metrics) {
        std::process::exit(1);
    }
}
