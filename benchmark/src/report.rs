//! Printing results and comparing two of them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::bench::{Ctx, WorkloadResult};
use crate::json::Json;
use crate::metrics::{self, Better, E2E, LAYERS, WORKLOADS};
use crate::stats;
use crate::trace::LayerRow;

/// The human-readable report of one workload run: every end-to-end metric
/// by name with unit, sample count and bound (`n/a` where the workload has
/// no such path), then — on the traced run — every per-layer metric and
/// the span table.
pub fn render_workload(result: &WorkloadResult, ctx: &Ctx, rows: &[LayerRow]) -> String {
    let mut out = String::new();
    let mode = if ctx.traced() { "traced" } else { "untraced" };
    let _ = writeln!(
        out,
        "workload {}  seed {}  {mode}{}  instances {} (fixed set {})  attempted {}  failed {}",
        result.workload,
        ctx.seed,
        if ctx.quick { "  quick" } else { "" },
        result.instances.0,
        result.instances.1,
        result.tally.attempted,
        result.tally.failed,
    );
    for message in &result.tally.messages {
        let _ = writeln!(out, "  FAILED: {message}");
    }
    if ctx.traced() {
        let _ = writeln!(
            out,
            "  (end-to-end numbers below carry probe overhead; use the untraced run)"
        );
    }
    let _ = writeln!(
        out,
        "  {:<26} {:>14} {:<9} {:>6} {:>6}  note",
        "end-to-end metric", "value", "unit", "n", "bound"
    );
    for spec in E2E {
        match result.e2e.get(spec.name) {
            Some(v) => {
                let note = match (v.pct, spec.exact) {
                    (_, true) => "exact on a seed".to_string(),
                    (Some(p), _) if p != 50.0 => format!("p{p}"),
                    (Some(_), _) => "median".to_string(),
                    (None, _) if v.n > 1 => "mean of the middle 60 %".to_string(),
                    (None, _) => String::new(),
                };
                let _ = writeln!(
                    out,
                    "  {:<26} {:>14.4} {:<9} {:>6} {:>5.0}%  {note}",
                    spec.name,
                    v.value,
                    spec.unit,
                    v.n,
                    spec.bound * 100.0
                );
            }
            None => {
                let _ = writeln!(out, "  {:<26} {:>14} {:<9}", spec.name, "n/a", spec.unit);
            }
        }
    }
    for note in &result.notes {
        let _ = writeln!(out, "  note: {note}");
    }
    if ctx.traced() {
        let _ = writeln!(out, "  {:<44} {:>16} unit", "per-layer metric (per instance)", "value");
        for &(name, unit) in LAYERS {
            let value = result.layers.get(name).copied().unwrap_or(0.0);
            let _ = writeln!(out, "  {name:<44} {value:>16.4} {unit}");
        }
        let _ = writeln!(
            out,
            "  {:<36} {:>8} {:>12} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms", "p50_us"
        );
        for r in rows {
            let _ = writeln!(
                out,
                "  {:<36} {:>8} {:>12.3} {:>12.3} {:>12.2}",
                r.name,
                r.count,
                r.total_ns as f64 / 1e6,
                r.self_ns as f64 / 1e6,
                r.p50_ns / 1e3
            );
        }
    }
    out
}

/// The suite-wide matrix: one row per end-to-end metric, one column per
/// workload.
pub fn render_suite(suite: &Json) -> String {
    let mut out = String::new();
    let workloads = suite.get("workloads").and_then(Json::as_obj);
    let _ = write!(out, "{:<24} {:<9}", "metric", "unit");
    for w in WORKLOADS {
        let _ = write!(out, " {:>18}", w.name);
    }
    out.push('\n');
    for spec in E2E {
        let _ = write!(out, "{:<24} {:<9}", spec.name, spec.unit);
        for w in WORKLOADS {
            let value = workloads
                .and_then(|ws| ws.get(w.name))
                .and_then(|r| r.get("end_to_end"))
                .and_then(|e| e.get(spec.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            match value {
                Some(v) => {
                    let _ = write!(out, " {v:>18.4}");
                }
                None => {
                    let _ = write!(out, " {:>18}", "n/a");
                }
            }
        }
        out.push('\n');
    }
    for w in WORKLOADS {
        let ratio = workloads
            .and_then(|ws| ws.get(w.name))
            .and_then(|r| r.get("trace_overhead_ratio"))
            .and_then(Json::as_f64);
        if let Some(ratio) = ratio {
            let record = workloads.and_then(|ws| ws.get(w.name));
            let base = |path: &[&str]| {
                path.iter().try_fold(record?, |j, key| j.get(key)).and_then(Json::as_f64)
            };
            let _ = writeln!(
                out,
                "trace_overhead_ratio {} = {ratio:.3} (traced run_wall_s {:.4} / untraced {:.4})",
                w.name,
                base(&["traced_run", "end_to_end", "run_wall_s", "value"]).unwrap_or(f64::NAN),
                base(&["end_to_end", "run_wall_s", "value"]).unwrap_or(f64::NAN),
            );
        }
    }
    out
}

/// How `compare` judged one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the run-to-run spread is within it too.
    Unchanged,
    /// Better by more than the bound.
    Improved,
    /// Worse by more than the bound.
    Regression,
    /// The run-to-run spread is wider than the bound (so "unchanged" cannot
    /// be claimed) or wider than the shift itself (so neither can
    /// "regression" or "improved").
    Unresolved,
    /// An exact metric that differs although both runs claim the same code.
    NotExact,
    /// Present in only one of the two results.
    Missing,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::NotExact => "NOT EXACT",
            Verdict::Missing => "missing",
        }
    }

    /// True for the verdicts that make `compare` exit non-zero.
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Regression | Verdict::NotExact)
    }
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareRow {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value.
    pub a: Option<f64>,
    /// Candidate value.
    pub b: Option<f64>,
    /// By how much the candidate is worse, as a share of the baseline
    /// (negative = better).
    pub worse_by: f64,
    /// The widest run-to-run spread known: the quartile spread of the paired
    /// per-sample ratios (when both results carry the same number of
    /// samples) and, for results merged from repeated runs, the spread of
    /// each side's own runs.
    pub spread: Option<f64>,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

fn metric_of<'a>(suite: &'a Json, workload: &str, metric: &str) -> Option<&'a Json> {
    suite.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric)
}

fn numbers_of(metric: &Json, key: &str) -> Vec<f64> {
    metric
        .get(key)
        .and_then(Json::as_arr)
        .map(|items| items.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Spread of one side's repeated runs as a share of their median: the
/// quartile spread from four runs up, the full range below that.
fn run_spread(runs: &[f64]) -> Option<f64> {
    if runs.len() >= 4 {
        return stats::quartile_spread(runs);
    }
    let med = stats::median(runs).filter(|m| *m != 0.0)?;
    let (lo, hi) = runs.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    (runs.len() >= 2).then(|| (hi - lo) / med.abs())
}

/// Compare candidate `b` against baseline `a`, one row per workload ×
/// end-to-end metric. With `same_code`, exact metrics must be identical
/// (both results must then come from the same seed and sizes).
pub fn compare(a: &Json, b: &Json, same_code: bool) -> Vec<CompareRow> {
    let mut rows = Vec::new();
    for w in WORKLOADS {
        for spec in E2E {
            let (ma, mb) = (metric_of(a, w.name, spec.name), metric_of(b, w.name, spec.name));
            let value = |m: Option<&Json>| m.and_then(|m| m.get("value")).and_then(Json::as_f64);
            let (va, vb) = (value(ma), value(mb));
            let (Some(x), Some(y)) = (va, vb) else {
                if va.is_some() || vb.is_some() {
                    rows.push(CompareRow {
                        workload: w.name.to_string(),
                        metric: spec.name.to_string(),
                        a: va,
                        b: vb,
                        worse_by: 0.0,
                        spread: None,
                        bound: spec.bound,
                        verdict: Verdict::Missing,
                    });
                }
                continue;
            };
            // Orient every ratio so that > 1 means "candidate is worse".
            let worse_ratio = |x: f64, y: f64| match spec.better {
                Better::Lower => y / x,
                Better::Higher => x / y,
            };
            let worse_by = if x == y {
                0.0
            } else if spec.bound == 0.0 {
                // Absolute bound (fail_ratio): any increase is a regression.
                match spec.better {
                    Better::Lower => y - x,
                    Better::Higher => x - y,
                }
            } else {
                worse_ratio(x, y) - 1.0
            };
            let (ma, mb) = (ma.expect("checked"), mb.expect("checked"));
            let (sa, sb) = (numbers_of(ma, "samples"), numbers_of(mb, "samples"));
            let paired = (sa.len() == sb.len() && sa.len() >= 4)
                .then(|| {
                    let ratios: Vec<f64> =
                        sa.iter().zip(&sb).map(|(&x, &y)| worse_ratio(x, y)).collect();
                    stats::quartile_spread(&ratios)
                })
                .flatten();
            let (ra, rb) = (numbers_of(ma, "runs"), numbers_of(mb, "runs"));
            let spread = [paired, run_spread(&ra), run_spread(&rb)]
                .into_iter()
                .flatten()
                .reduce(f64::max)
                .filter(|_| !spec.exact);
            let repeats = ra.iter().chain(&rb).any(|v| *v != x);
            let shift_resolved = spread.is_none_or(|s| worse_by.abs() > s);
            let verdict = if spec.exact && same_code && (x != y || repeats) {
                Verdict::NotExact
            } else if worse_by > spec.bound {
                if shift_resolved {
                    Verdict::Regression
                } else {
                    Verdict::Unresolved
                }
            } else if worse_by < -spec.bound && spec.bound > 0.0 {
                if shift_resolved {
                    Verdict::Improved
                } else {
                    Verdict::Unresolved
                }
            } else if spread.is_some_and(|s| s > spec.bound) {
                Verdict::Unresolved
            } else {
                Verdict::Unchanged
            };
            rows.push(CompareRow {
                workload: w.name.to_string(),
                metric: spec.name.to_string(),
                a: va,
                b: vb,
                worse_by,
                spread,
                bound: spec.bound,
                verdict,
            });
        }
    }
    rows
}

/// The comparison as a table.
pub fn render_compare(rows: &[CompareRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<20} {:<24} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "baseline", "candidate", "worse by", "spread", "bound"
    );
    let cell = |v: Option<f64>| v.map_or("n/a".to_string(), |v| format!("{v:.4}"));
    for r in rows {
        let spread = r.spread.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
        let _ = writeln!(
            out,
            "{:<20} {:<24} {:>14} {:>14} {:>8.1}% {:>8} {:>6.0}%  {}",
            r.workload,
            r.metric,
            cell(r.a),
            cell(r.b),
            r.worse_by * 100.0,
            spread,
            r.bound * 100.0,
            r.verdict.as_str()
        );
    }
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for r in rows {
        *counts.entry(r.verdict.as_str()).or_insert(0) += 1;
    }
    let summary: Vec<String> = counts.iter().map(|(k, v)| format!("{v} {k}")).collect();
    let _ = writeln!(out, "{}", summary.join(", "));
    out
}

/// The record of a workload whose child process left no usable record
/// (it crashed, was killed, or wrote one for other arguments): incorrect,
/// with `fail_ratio` 1 so that `compare` sees it too.
pub fn failed_record(workload: &str, traced: bool, why: &str) -> Json {
    Json::obj([
        ("workload", Json::str(workload)),
        ("traced", Json::Bool(traced)),
        ("attempted", Json::Num(1.0)),
        ("failed", Json::Num(1.0)),
        ("failures", Json::Arr(vec![Json::str(why)])),
        ("correct", Json::Bool(false)),
        ("end_to_end", Json::obj([("fail_ratio", Json::obj([("value", Json::Num(1.0))]))])),
    ])
}

/// Merge per-workload records (untraced, and traced where present) into
/// the suite record stored as `result.json`; a traced record goes beside
/// the untraced one's fields as `traced_run`.
pub fn suite_json(
    seed: u64,
    seconds: f64,
    quick: bool,
    untraced: BTreeMap<String, Json>,
    mut traced: BTreeMap<String, Json>,
) -> Json {
    let run_wall =
        |record: &Json| record.get("end_to_end")?.get("run_wall_s")?.get("value")?.as_f64();
    let workloads = untraced.into_iter().map(|(name, record)| {
        let Json::Obj(mut fields) = record else { return (name, record) };
        if let Some(t) = traced.remove(&name) {
            if let (Some(on), Some(off)) = (run_wall(&t), run_wall(&Json::Obj(fields.clone()))) {
                fields.insert("trace_overhead_ratio".to_string(), Json::Num(on / off));
            }
            fields.insert("traced_run".to_string(), t);
        }
        (name, Json::Obj(fields))
    });
    let catalogue = E2E.iter().map(|s| {
        let fields = [
            ("unit", Json::str(s.unit)),
            ("better", Json::str(s.better.as_str())),
            ("bound", Json::Num(s.bound)),
            ("exact", Json::Bool(s.exact)),
        ];
        (s.name, Json::obj(fields))
    });
    Json::obj([
        ("suite", Json::str("dr-benchmark")),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("quick", Json::Bool(quick)),
        ("metrics", Json::obj(catalogue)),
        ("workloads", Json::obj(workloads.collect::<Vec<_>>())),
    ])
}

/// Merge repeated runs of the suite into one record: every end-to-end
/// value becomes the median over the runs, the per-run values are kept
/// beside it as `runs` (their spread is the run-to-run noise `compare`
/// weighs a shift against), and a workload is `correct` only if it was in
/// every run. Everything else is the first run's.
pub fn merge_runs(runs: &[Json]) -> Option<Json> {
    let (first, rest) = runs.split_first()?;
    if rest.is_empty() {
        return Some(first.clone());
    }
    let Json::Obj(mut suite) = first.clone() else { return None };
    let Some(Json::Obj(workloads)) = suite.get_mut("workloads") else { return None };
    for (name, record) in workloads.iter_mut() {
        let others: Vec<&Json> =
            rest.iter().filter_map(|r| r.get("workloads")?.get(name)).collect();
        let correct = |r: &Json| r.get("correct").and_then(Json::as_bool) == Some(true);
        let all_correct = correct(record) && others.iter().all(|r| correct(r));
        let Json::Obj(record) = record else { continue };
        record.insert("correct".to_string(), Json::Bool(all_correct));
        let Some(Json::Obj(metrics)) = record.get_mut("end_to_end") else { continue };
        for (metric, entry) in metrics.iter_mut() {
            let value = |r: &Json| r.get("end_to_end")?.get(metric)?.get("value")?.as_f64();
            let Json::Obj(entry) = entry else { continue };
            let mut values: Vec<f64> =
                entry.get("value").and_then(Json::as_f64).into_iter().collect();
            values.extend(others.iter().filter_map(|r| value(r)));
            if let Some(median) = stats::median(&values) {
                entry.insert("value".to_string(), Json::Num(median));
                entry.insert("runs".to_string(), Json::nums(&values));
            }
        }
    }
    Some(Json::Obj(suite))
}

/// True when `name` is one of the six workloads.
pub fn is_workload(name: &str) -> bool {
    metrics::WORKLOADS.iter().any(|w| w.name == name)
}
