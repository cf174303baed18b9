//! The `run` and `compare` front ends, through the binary.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use dr_benchmark::json::Json;
use dr_benchmark::metrics::WORKLOADS;
use dr_benchmark::report::suite_json;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dr-benchmark"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    dir
}

fn read(path: PathBuf) -> Json {
    Json::parse(&std::fs::read_to_string(path).expect("a result file")).expect("JSON")
}

#[test]
fn run_without_trace_succeeds_when_every_workload_is_correct() {
    let out = scratch("run_untraced");
    let status = bin().args(["run", "--quick", "--out"]).arg(&out).status().expect("spawned");
    assert!(status.success(), "run --quick ended with {status}");
    let suite = read(out.join("result.json"));
    for w in WORKLOADS {
        let record = suite.get("workloads").and_then(|ws| ws.get(w.name)).expect(w.name);
        assert_eq!(record.get("correct").and_then(Json::as_bool), Some(true), "{}", w.name);
        assert_eq!(record.get("traced").and_then(Json::as_bool), Some(false), "{}", w.name);
        assert!(record.get("traced_run").is_none(), "{}: no traced run was asked for", w.name);
    }
}

#[test]
fn run_with_trace_nests_the_traced_record_and_ignores_a_stale_one() {
    let out = scratch("run_traced");
    // A record some earlier run left behind, for another seed.
    let stale = Json::obj([("seed", Json::Num(99.0)), ("correct", Json::Bool(true))]);
    std::fs::write(out.join("churn_recover.json"), stale.pretty()).expect("written");
    let status = bin()
        .args(["run", "--quick", "--trace", "--workload", "churn_recover", "--seed", "3", "--out"])
        .arg(&out)
        .status()
        .expect("spawned");
    assert!(status.success(), "run --quick --trace ended with {status}");
    let suite = read(out.join("result.json"));
    let record = suite.get("workloads").and_then(|ws| ws.get("churn_recover")).expect("the record");
    assert_eq!(record.get("seed").and_then(Json::as_f64), Some(3.0));
    let traced = record.get("traced_run").expect("the traced run beside the untraced fields");
    assert_eq!(traced.get("traced").and_then(Json::as_bool), Some(true));
    assert_eq!(traced.get("correct").and_then(Json::as_bool), Some(true));
    assert!(record.get("trace_overhead_ratio").and_then(Json::as_f64).is_some());
}

#[test]
fn same_code_comparison_needs_the_same_seed_duration_and_size() {
    let dir = scratch("compare_same_code");
    let write = |name: &str, seed: u64, seconds: f64| {
        let path = dir.join(name);
        let suite = suite_json(seed, seconds, false, BTreeMap::new(), BTreeMap::new());
        std::fs::write(&path, suite.pretty()).expect("written");
        path
    };
    let (a, same, shorter, other_seed) = (
        write("a.json", 1, 8.0),
        write("same.json", 1, 8.0),
        write("shorter.json", 1, 4.0),
        write("other_seed.json", 2, 8.0),
    );
    let compare = |b: &PathBuf, flag: &[&str]| {
        bin().arg("compare").arg(&a).arg(b).args(flag).status().expect("spawned").success()
    };
    assert!(compare(&same, &["--same-code"]));
    assert!(!compare(&shorter, &["--same-code"]), "the fixed set depends on --seconds");
    assert!(!compare(&other_seed, &["--same-code"]));
    assert!(compare(&shorter, &[]), "two commits may be compared across durations");
}
