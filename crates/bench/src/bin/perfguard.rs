//! Perf-regression guard over the committed `BENCH_table1.json` baseline.
//!
//! ```text
//! perfguard <baseline.json> <current.json> [max_regression]
//! ```
//!
//! Compares the per-circuit `seconds_per_iteration` of the freshly
//! regenerated summary against the committed baseline and exits non-zero
//! when any circuit regressed by more than `max_regression` (default 0.25,
//! i.e. 25 %). Circuits present in only one file are reported but do not
//! fail the guard (the tier set may
//! legitimately change across PRs). A zero, negative or non-finite
//! `seconds_per_iteration` on either side is a *hard error* (exit 2): such
//! a ratio could never fail — or always fail — the gate, silently
//! disarming it. CI copies the committed file aside, regenerates it with
//! `table1 --json` under `NCGWS_QUICK=1`, then runs this guard.
//!
//! The two documents are decoded with the workspace's serde derives: only
//! the top-level `circuits` array is read, unknown keys (nested arrays and
//! objects, legacy `threads`/`simd` sections) are ignored, and key order
//! does not matter.

use std::collections::BTreeMap;
use std::process::ExitCode;

use serde::Deserialize;

/// The part of a `BENCH_table1.json` document the guard reads.
#[derive(Deserialize)]
struct Summary {
    circuits: Vec<CircuitRow>,
}

/// One `circuits` row; rows missing either key are skipped.
#[derive(Deserialize)]
struct CircuitRow {
    name: Option<String>,
    seconds_per_iteration: Option<f64>,
}

/// Extracts `name → seconds_per_iteration` from the `"circuits"` array of a
/// `BENCH_table1.json` document (empty when the document does not decode).
fn circuit_timings(json: &str) -> BTreeMap<String, f64> {
    let Ok(summary) = serde_json::from_str::<Summary>(json) else {
        return BTreeMap::new();
    };
    summary
        .circuits
        .into_iter()
        .filter_map(|row| Some((row.name?, row.seconds_per_iteration?)))
        .collect()
}

/// Compares one timing map against its baseline. Returns whether any row
/// regressed beyond `max_regression`.
///
/// # Errors
///
/// A zero, negative or non-finite timing on either side is a hard error:
/// the resulting ratio would be `inf`/`NaN` and could never fail (or would
/// always fail) the gate, so the guard refuses to pretend it checked
/// anything.
fn compare(
    label: &str,
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
    max_regression: f64,
) -> Result<bool, String> {
    let mut failed = false;
    for (name, &base) in baseline {
        match current.get(name) {
            None => eprintln!("perfguard: {label} `{name}` missing from the current run (skipped)"),
            Some(&now) => {
                if !(base.is_finite() && base > 0.0) {
                    return Err(format!(
                        "{label} `{name}`: baseline seconds_per_iteration is {base} — must be \
                         positive and finite for the regression ratio to mean anything"
                    ));
                }
                if !(now.is_finite() && now > 0.0) {
                    return Err(format!(
                        "{label} `{name}`: current seconds_per_iteration is {now} — must be \
                         positive and finite for the regression ratio to mean anything"
                    ));
                }
                let change = now / base - 1.0;
                let verdict = if change > max_regression {
                    failed = true;
                    "REGRESSED"
                } else {
                    "ok"
                };
                println!(
                    "perfguard: {label} {name:<10} {base:.6} -> {now:.6} s/iter ({:+.1}%) {verdict}",
                    change * 100.0
                );
            }
        }
    }
    for name in current.keys() {
        if !baseline.contains_key(name) {
            eprintln!("perfguard: {label} `{name}` is new (no baseline; skipped)");
        }
    }
    Ok(failed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        eprintln!("usage: perfguard <baseline.json> <current.json> [max_regression]");
        return ExitCode::from(2);
    }
    let max_regression: f64 = args
        .get(2)
        .map(|s| s.parse().expect("max_regression must be a number"))
        .unwrap_or(0.25);

    let read = |path: &str| -> String {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("perfguard: cannot read {path}: {e}");
            std::process::exit(2);
        })
    };
    let baseline_doc = read(&args[0]);
    let current_doc = read(&args[1]);
    let baseline = circuit_timings(&baseline_doc);
    let current = circuit_timings(&current_doc);
    if baseline.is_empty() || current.is_empty() {
        eprintln!("perfguard: could not find circuit timings in one of the inputs");
        return ExitCode::from(2);
    }

    let failed = match compare("circuit", &baseline, &current, max_regression) {
        Ok(failed) => failed,
        Err(message) => {
            eprintln!("perfguard: hard error: {message}");
            return ExitCode::from(2);
        }
    };

    if failed {
        eprintln!(
            "perfguard: seconds_per_iteration regressed more than {:.0}% — failing",
            max_regression * 100.0
        );
        ExitCode::FAILURE
    } else {
        println!(
            "perfguard: no circuit regressed more than {:.0}%",
            max_regression * 100.0
        );
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "bench": "table1",
  "quick": true,
  "circuits": [
    { "name": "c432", "components": 640, "seconds_per_iteration": 0.000125, "feasible": true },
    { "name": "c880", "components": 1112, "seconds_per_iteration": 0.000375, "feasible": true }
  ],
  "schedule": [
    { "name": "xl10", "components": 10000, "exact_seconds_per_iteration": 0.0065 }
  ]
}"#;

    /// A nested array (and a nested object) inside a circuit row must not
    /// truncate the section, and rows after it must still be extracted.
    const NESTED: &str = r#"{
  "circuits": [
    { "name": "c432",
      "per_thread_seconds": [0.0001, 0.00008, { "worker": 3, "seconds": 0.007 }],
      "memory": { "name": "not-a-circuit", "buckets": [1, 2] },
      "seconds_per_iteration": 0.000125 },
    { "name": "c880", "seconds_per_iteration": 0.000375 }
  ]
}"#;

    /// Key order inside a row must not matter.
    const OUT_OF_ORDER: &str = r#"{
  "circuits": [
    { "seconds_per_iteration": 0.5, "components": 10, "name": "alpha" },
    { "feasible": false, "name": "beta", "seconds_per_iteration": 0.25 }
  ]
}"#;

    /// Rows without both keys are skipped, not misparsed.
    const MISSING_KEY: &str = r#"{
  "circuits": [
    { "name": "timed", "seconds_per_iteration": 0.5 },
    { "name": "untimed", "components": 10 },
    { "seconds_per_iteration": 0.125, "components": 4 }
  ]
}"#;

    #[test]
    fn timings_are_extracted_per_circuit() {
        let map = circuit_timings(SAMPLE);
        assert_eq!(map.len(), 2);
        assert!((map["c432"] - 0.000125).abs() < 1e-12);
        assert!((map["c880"] - 0.000375).abs() < 1e-12);
    }

    #[test]
    fn schedule_rows_are_not_mixed_in() {
        let map = circuit_timings(SAMPLE);
        assert!(!map.contains_key("xl10"));
    }

    #[test]
    fn nested_arrays_do_not_truncate_the_scan() {
        let map = circuit_timings(NESTED);
        assert_eq!(map.len(), 2, "both circuits must survive the nested row");
        assert!((map["c432"] - 0.000125).abs() < 1e-12);
        assert!((map["c880"] - 0.000375).abs() < 1e-12);
        assert!(
            !map.contains_key("not-a-circuit"),
            "keys of nested objects must not leak into the row"
        );
    }

    #[test]
    fn key_order_does_not_matter() {
        let map = circuit_timings(OUT_OF_ORDER);
        assert_eq!(map.len(), 2);
        assert!((map["alpha"] - 0.5).abs() < 1e-12);
        assert!((map["beta"] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rows_missing_a_key_are_skipped() {
        let map = circuit_timings(MISSING_KEY);
        assert_eq!(map.len(), 1);
        assert!(map.contains_key("timed"));
        assert!(!map.contains_key("untimed"));
    }

    /// Summaries written before the thread and lane sections were dropped
    /// still carry them; their rows are not circuits.
    const LEGACY: &str = r#"{
  "circuits": [
    { "name": "c432", "seconds_per_iteration": 0.000125 }
  ],
  "threads": [
    { "name": "xlw100k", "threads": 2, "seconds_per_iteration": 0.3, "oversubscribed": false }
  ],
  "simd": [
    { "name": "xlw100k", "scalar_seconds_per_iteration": 0.29, "laned_seconds_per_iteration": 0.28 }
  ]
}"#;

    #[test]
    fn legacy_thread_and_lane_sections_are_ignored() {
        let map = circuit_timings(LEGACY);
        assert_eq!(map.len(), 1);
        assert!((map["c432"] - 0.000125).abs() < 1e-12);
    }

    #[test]
    fn only_top_level_keys_name_a_section() {
        // A `circuits` key nested inside another section is not the
        // top-level array.
        let doc = r#"{
  "schedule": [ { "name": "xl10", "circuits": [ { "name": "inner", "seconds_per_iteration": 9.0 } ] } ],
  "circuits": [ { "name": "outer", "seconds_per_iteration": 0.5 } ]
}"#;
        let map = circuit_timings(doc);
        assert_eq!(map.keys().collect::<Vec<_>>(), ["outer"]);
        let nested_only =
            r#"{ "x": { "circuits": [ { "name": "in", "seconds_per_iteration": 1.0 } ] } }"#;
        assert!(circuit_timings(nested_only).is_empty());
    }

    #[test]
    fn committed_baseline_has_a_positive_timing_per_circuit() {
        let baseline = include_str!("../../../../BENCH_table1.json");
        let map = circuit_timings(baseline);
        assert!(!map.is_empty());
        for (name, spi) in &map {
            assert!(spi.is_finite() && *spi > 0.0, "{name}: {spi}");
        }
        assert_eq!(compare("self", &map, &map, 0.25), Ok(false));
    }

    fn map(entries: &[(&str, f64)]) -> BTreeMap<String, f64> {
        entries.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn compare_flags_regressions_and_tolerates_tier_changes() {
        let baseline = map(&[("a", 0.1), ("gone", 0.2)]);
        let current = map(&[("a", 0.1001), ("new", 0.3)]);
        assert_eq!(compare("t", &baseline, &current, 0.25), Ok(false));
        let regressed = map(&[("a", 0.2)]);
        assert_eq!(compare("t", &baseline, &regressed, 0.25), Ok(true));
    }

    #[test]
    fn zero_baseline_is_a_hard_error() {
        let baseline = map(&[("a", 0.0)]);
        let current = map(&[("a", 0.1)]);
        let err = compare("t", &baseline, &current, 0.25).unwrap_err();
        assert!(err.contains("positive and finite"), "{err}");
    }

    #[test]
    fn non_finite_timings_are_hard_errors() {
        let nan_base = map(&[("a", f64::NAN)]);
        let fine = map(&[("a", 0.1)]);
        assert!(compare("t", &nan_base, &fine, 0.25).is_err());
        let inf_now = map(&[("a", f64::INFINITY)]);
        assert!(compare("t", &fine, &inf_now, 0.25).is_err());
        let neg_now = map(&[("a", -0.5)]);
        assert!(compare("t", &fine, &neg_now, 0.25).is_err());
    }
}
