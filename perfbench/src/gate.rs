//! The correctness gate: what every execution's record must satisfy.

use std::collections::HashMap;

use ba_bench::baseline::{parse_json, Json};
use ba_bench::RunRecord;

use crate::plan::{Cell, Expect, Item, Plan};

type Key = (String, String, u64);

/// Committed records, keyed by (sweep title, cell label, seed).
pub struct Baselines(HashMap<Key, Vec<(String, Option<f64>)>>);

impl Baselines {
    /// Loads the committed sweep reports at `paths` (relative to the
    /// repository root the benchmark runs from).
    pub fn load(paths: &[&str]) -> Result<Baselines, String> {
        let mut map = HashMap::new();
        for path in paths {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let doc = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
            let field = |j, k| field(path, j, k);
            for sweep in field(&doc, "sweeps")?.as_arr().unwrap_or_default() {
                let title = field(sweep, "title")?.as_str().unwrap_or_default().to_string();
                for cell in field(sweep, "cells")?.as_arr().unwrap_or_default() {
                    let label =
                        field(field(cell, "scenario")?, "label")?.as_str().unwrap_or_default();
                    for run in field(cell, "runs")?.as_arr().unwrap_or_default() {
                        let seed = field(run, "seed")?.as_num().unwrap_or(-1.0) as u64;
                        let Json::Obj(values) = field(run, "values")? else {
                            return Err(format!("{path}: run values are not an object"));
                        };
                        let values = values.iter().map(|(k, v)| (k.clone(), v.as_num())).collect();
                        map.insert((title.clone(), label.to_string(), seed), values);
                    }
                }
            }
        }
        Ok(Baselines(map))
    }

    /// The drift of `record` from the committed record of the same
    /// (sweep, cell, seed), if one is committed and they differ.
    fn drift(&self, cell: &Cell, record: &RunRecord) -> Option<String> {
        let key = (cell.sweep.clone(), cell.scenario.label.clone(), record.seed);
        let committed = self.0.get(&key)?;
        if committed.len() != record.values.len() {
            return Some(format!(
                "drifted from the committed baseline: {} observables, committed {}",
                record.values.len(),
                committed.len()
            ));
        }
        committed.iter().zip(&record.values).find_map(|((name, want), (got_name, got))| {
            let same = name == got_name.as_ref() && want.map_or(!got.is_finite(), |w| w == *got);
            (!same).then(|| {
                format!("drifted from the committed baseline: {got_name} = {got}, committed {name} = {want:?}")
            })
        })
    }
}

fn field<'a>(path: &str, json: &'a Json, key: &str) -> Result<&'a Json, String> {
    json.get(key).ok_or_else(|| format!("{path}: no {key:?}"))
}

/// Why `record` (an execution of `cell`) fails the gate, if it does.
pub fn check(cell: &Cell, record: &RunRecord, baselines: &Baselines) -> Option<String> {
    let get = |k: &str| record.get(k).unwrap_or(f64::NAN);
    let quiet = || {
        (get("dropped_sends") != 0.0 || get("corrupt_sends") != 0.0)
            .then(|| "honest execution dropped or corrupted a send".to_string())
    };
    let honest = || {
        if !record.flag("all_ok") {
            Some(format!(
                "honest execution is not all_ok (consistent {}, valid {}, terminated {})",
                get("consistent"),
                get("valid"),
                get("terminated")
            ))
        } else {
            quiet()
        }
    };
    let label = cell.scenario.label.as_str();
    let failure = match cell.expect {
        Expect::Honest => honest(),
        Expect::HonestMined => quiet(),
        Expect::Sparse => honest().or_else(|| {
            let live = get("peak_live_nodes");
            // Written so that a missing gauge (NaN) fails too.
            if live * 10.0 < cell.scenario.n as f64 {
                None
            } else {
                Some(format!(
                    "peak_live_nodes {live} is not below n/10: the run fell back to dense"
                ))
            }
        }),
        Expect::Attack => {
            if label.starts_with("adaptive_eclipse@static") && get("corruptions") != 0.0 {
                Some("the static model must refuse mid-run corruption".to_string())
            } else if label.starts_with("starve_quorum@adaptive") && get("removals") != 0.0 {
                Some("the adaptive model must refuse after-the-fact removal".to_string())
            } else if label.starts_with("eclipse_burst@")
                && (get("corruptions") > cell.scenario.f as f64 || get("removals") != 0.0)
            {
                Some("the composed adversary exceeded its budget or removed a send".to_string())
            } else {
                None
            }
        }
    };
    failure.or_else(|| baselines.drift(cell, record))
}

/// What the benchmark keeps of one execution: the figures it reports and
/// the gate's verdict on it. Digesting each record as soon as it is made
/// keeps the benchmark's own memory out of the peak it reports.
pub struct Digest {
    pub kbits: f64,
    pub rounds: f64,
    pub failure: Option<String>,
}

/// Digests the record of one execution of `item`.
pub fn digest(plan: &Plan, item: Item, record: &RunRecord, baselines: &Baselines) -> Digest {
    Digest {
        kbits: record.get("kbits").unwrap_or(0.0),
        rounds: record.get("rounds").unwrap_or(0.0),
        failure: check(&plan.cells[item.cell], record, baselines),
    }
}
