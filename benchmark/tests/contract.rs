//! `BENCHMARK.json` at the repository root says what the code does.

use dr_benchmark::json::Json;
use dr_benchmark::metrics::{E2E, LAYERS, WORKLOADS};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    assert!(text.len() <= 64 * 1024, "the file may be at most 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|item| item.get("name").and_then(Json::as_str).expect("a name").to_string())
        .collect()
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn has_exactly_the_contract_keys() {
    let file = benchmark_json();
    let keys: Vec<&str> = file.as_obj().expect("an object").keys().map(String::as_str).collect();
    assert_eq!(keys, ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]);
    let seconds = file.get("run_seconds").and_then(Json::as_f64).expect("run_seconds");
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    assert_eq!(names(&Json::Arr(vec![])).len(), 0);
    let paths = file.get("paths").and_then(Json::as_arr).expect("paths");
    assert_eq!(paths, [Json::str("benchmark")]);
    let command = file.get("command").and_then(Json::as_arr).expect("command");
    assert!(
        command.len() <= 32 && command.iter().all(|c| c.as_str().is_some_and(|s| s.len() <= 200))
    );
}

#[test]
fn workloads_match_the_catalogue() {
    let file = benchmark_json();
    let listed = file.get("workloads").expect("workloads");
    assert_eq!(names(listed), WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
    for (item, spec) in listed.as_arr().expect("a list").iter().zip(WORKLOADS) {
        let why = item.get("why").and_then(Json::as_str).expect("a why");
        assert_eq!(why, spec.why);
        assert!(why.len() <= 200 && !why.contains('\n'), "{}: {} chars", spec.name, why.len());
        assert!(valid_name(spec.name));
    }
}

#[test]
fn end_to_end_metrics_match_the_catalogue() {
    let file = benchmark_json();
    let listed = file.get("end_to_end").expect("end_to_end");
    let driver: Vec<_> = E2E.iter().filter(|s| s.driver_bound.is_some()).collect();
    assert_eq!(names(listed), driver.iter().map(|s| s.name).collect::<Vec<_>>());
    assert!(driver.iter().any(|s| s.name == "setup_s" && s.unit == "s"));
    for (item, spec) in listed.as_arr().expect("a list").iter().zip(driver) {
        assert_eq!(item.get("unit").and_then(Json::as_str), Some(spec.unit), "{}", spec.name);
        assert_eq!(item.get("better").and_then(Json::as_str), Some(spec.better.as_str()));
        let bound = item.get("bound").and_then(Json::as_f64).expect("a bound");
        assert_eq!(Some(bound), spec.driver_bound, "{}", spec.name);
        assert!(bound > 0.0 && bound <= 0.25);
        assert!(valid_name(spec.name) && valid_unit(spec.unit));
        assert_eq!(item.as_obj().expect("an object").len(), 4, "exactly name/unit/better/bound");
    }
}

#[test]
fn per_layer_metrics_match_the_catalogue() {
    let file = benchmark_json();
    let listed = file.get("per_layer").expect("per_layer");
    assert_eq!(names(listed), LAYERS.iter().map(|(name, _)| *name).collect::<Vec<_>>());
    assert!(LAYERS.len() <= 128);
    for (item, (name, unit)) in listed.as_arr().expect("a list").iter().zip(LAYERS) {
        assert_eq!(item.get("unit").and_then(Json::as_str), Some(*unit), "{name}");
        assert!(item
            .get("better")
            .and_then(Json::as_str)
            .is_some_and(|b| b == "lower" || b == "higher"));
        assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
        assert_eq!(item.as_obj().expect("an object").len(), 3, "exactly name/unit/better");
    }
    let mut unique: Vec<&str> =
        LAYERS.iter().map(|(n, _)| *n).chain(E2E.iter().map(|s| s.name)).collect();
    unique.sort_unstable();
    let before = unique.len();
    unique.dedup();
    assert_eq!(before, unique.len(), "a name is used once");
}
