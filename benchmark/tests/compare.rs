//! `compare` against the per-metric bounds.

use std::collections::BTreeMap;

use dr_benchmark::json::Json;
use dr_benchmark::report::{compare, suite_json, Verdict};

/// A suite with one workload reporting `run_wall_s`, `per_node_kb` and
/// `fail_ratio`.
fn suite(run_wall_s: f64, samples: &[f64], per_node_kb: f64, fail_ratio: f64) -> Json {
    let metric = |value: f64, samples: &[f64]| {
        Json::obj([("value", Json::Num(value)), ("samples", Json::nums(samples))])
    };
    let e2e = Json::obj([
        ("run_wall_s", metric(run_wall_s, samples)),
        ("per_node_kb", metric(per_node_kb, &[])),
        ("fail_ratio", metric(fail_ratio, &[])),
    ]);
    let record = Json::obj([("end_to_end", e2e), ("correct", Json::Bool(fail_ratio == 0.0))]);
    let records = BTreeMap::from([("converge_static".to_string(), record)]);
    suite_json(1, 8.0, false, records, BTreeMap::new())
}

fn verdict(rows: &[dr_benchmark::report::CompareRow], metric: &str) -> Verdict {
    rows.iter().find(|r| r.metric == metric).expect("metric compared").verdict
}

#[test]
fn flags_an_eleven_percent_regression_and_ignores_five_percent() {
    let base = suite(1.00, &[], 20.0, 0.0);
    let rows = compare(&base, &suite(1.11, &[], 20.0, 0.0), false);
    assert_eq!(verdict(&rows, "run_wall_s"), Verdict::Regression);
    assert!(rows.iter().any(|r| r.verdict.fails()));

    let rows = compare(&base, &suite(1.05, &[], 20.0, 0.0), false);
    assert_eq!(verdict(&rows, "run_wall_s"), Verdict::Unchanged);
    assert!(!rows.iter().any(|r| r.verdict.fails()));

    let rows = compare(&base, &suite(0.85, &[], 20.0, 0.0), false);
    assert_eq!(verdict(&rows, "run_wall_s"), Verdict::Improved);
}

#[test]
fn a_wide_paired_spread_is_unresolved_not_unchanged() {
    let steady = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
    let base = suite(1.0, &steady, 20.0, 0.0);
    // Same median, but instance by instance the candidate swings +-30 %.
    let noisy = [0.7, 1.3, 0.7, 1.3, 0.7, 1.3];
    let rows = compare(&base, &suite(1.0, &noisy, 20.0, 0.0), false);
    assert_eq!(verdict(&rows, "run_wall_s"), Verdict::Unresolved);
    assert!(!rows.iter().any(|r| r.verdict.fails()), "unresolved is reported, not failed");

    let quiet = [1.01, 0.99, 1.0, 1.02, 0.98, 1.0];
    let rows = compare(&base, &suite(1.0, &quiet, 20.0, 0.0), false);
    assert_eq!(verdict(&rows, "run_wall_s"), Verdict::Unchanged);
}

#[test]
fn exact_metrics_must_repeat_when_the_code_is_the_same() {
    let base = suite(1.0, &[], 20.0, 0.0);
    let drifted = suite(1.0, &[], 20.1, 0.0);
    // Two commits may differ by up to the 2 % bound ...
    assert_eq!(verdict(&compare(&base, &drifted, false), "per_node_kb"), Verdict::Unchanged);
    // ... the same code on the same seed may not differ at all.
    assert_eq!(verdict(&compare(&base, &drifted, true), "per_node_kb"), Verdict::NotExact);
    let worse = suite(1.0, &[], 20.5, 0.0);
    assert_eq!(verdict(&compare(&base, &worse, false), "per_node_kb"), Verdict::Regression);
}

#[test]
fn any_new_failure_is_a_regression() {
    let base = suite(1.0, &[], 20.0, 0.0);
    let rows = compare(&base, &suite(1.0, &[], 20.0, 0.001), false);
    assert_eq!(verdict(&rows, "fail_ratio"), Verdict::Regression);
}

#[test]
fn result_files_round_trip_through_the_json_module() {
    let base = suite(1.0, &[1.0, 2.0], 20.0, 0.0);
    let reparsed = Json::parse(&base.pretty()).expect("pretty output parses");
    assert_eq!(reparsed, base);
    assert_eq!(Json::parse(&base.render()).expect("compact output parses"), base);
    assert!(Json::parse("{\"a\": [1, 2,]}").is_err());
    assert_eq!(Json::parse("\"a\\u0041\\n\"").expect("escapes"), Json::str("aA\n"));
}

#[test]
fn repeated_runs_are_merged_to_medians_and_their_spread_decides() {
    use dr_benchmark::report::merge_runs;
    // One slow spell in each set: the medians agree, the sets do not resolve
    // a 10 % bound.
    let a = merge_runs(&[1.00, 1.30, 1.05].map(|v| suite(v, &[], 20.0, 0.0))).expect("three runs");
    let b = merge_runs(&[1.25, 1.00, 1.02].map(|v| suite(v, &[], 20.0, 0.0))).expect("three runs");
    let rows = compare(&a, &b, true);
    let row = rows.iter().find(|r| r.metric == "run_wall_s").expect("compared");
    assert_eq!((row.a, row.b), (Some(1.05), Some(1.02)));
    assert_eq!(row.verdict, Verdict::Unresolved);
    assert!(row.spread.is_some_and(|s| s > 0.2));

    // A shift larger than both the bound and the runs' own spread resolves.
    let steady = merge_runs(&[1.00, 1.01, 0.99].map(|v| suite(v, &[], 20.0, 0.0))).expect("runs");
    let slower = merge_runs(&[1.20, 1.22, 1.19].map(|v| suite(v, &[], 20.0, 0.0))).expect("runs");
    assert_eq!(verdict(&compare(&steady, &slower, false), "run_wall_s"), Verdict::Regression);
    // A shift inside the runs' own spread does not, whichever way it points.
    let noisy = merge_runs(&[1.00, 1.40, 1.15].map(|v| suite(v, &[], 20.0, 0.0))).expect("runs");
    assert_eq!(verdict(&compare(&steady, &noisy, false), "run_wall_s"), Verdict::Unresolved);

    // An exact metric must repeat in every run of both sets.
    let drifting =
        merge_runs(&[20.0, 20.0, 20.1].map(|kb| suite(1.0, &[], kb, 0.0))).expect("runs");
    assert_eq!(verdict(&compare(&drifting, &drifting, true), "per_node_kb"), Verdict::NotExact);

    let record = steady.get("workloads").and_then(|w| w.get("converge_static")).expect("workload");
    assert_eq!(record.get("correct").and_then(Json::as_bool), Some(true));
    // One failed run makes the merged workload incorrect.
    let failed =
        merge_runs(&[suite(1.0, &[], 20.0, 0.0), suite(1.0, &[], 20.0, 0.5)]).expect("runs");
    let record = failed.get("workloads").and_then(|w| w.get("converge_static")).expect("workload");
    assert_eq!(record.get("correct").and_then(Json::as_bool), Some(false));
}
