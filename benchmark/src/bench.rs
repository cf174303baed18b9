//! What every workload shares: the run context, sample series, the
//! instance budget, and the result record a workload hands back.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::json::Json;
use crate::metrics::{self, E2E, LAYERS};
use crate::oracle::Tally;
use crate::stats;
use crate::trace::{layer_table, LayerRow, Tracer};

/// Inputs of one workload run.
#[derive(Debug)]
pub struct Ctx {
    /// The `--seed`; every generated input derives from it.
    pub seed: u64,
    /// Timed work to accumulate, in seconds (`--seconds`).
    pub seconds: f64,
    /// Quarter-size inputs, one instance, no deadline loop.
    pub quick: bool,
    /// The span recorder (disabled on the untraced run).
    pub tracer: Tracer,
}

impl Ctx {
    /// True on the traced run: extra probes run, end-to-end numbers do not
    /// count.
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// Seed of instance `index` of workload `salt`: a splitmix64 step over
    /// the run seed, so neighbouring seeds and instances share nothing.
    pub fn instance_seed(&self, salt: u64, index: usize) -> u64 {
        let mut z = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt.wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add((index as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// How many instances (set-up + timed body) a workload runs.
///
/// The first `fixed` instances always run; they alone feed the exact
/// metrics and layer counters, so those repeat to the last digit whatever
/// the machine's speed. Further instances run until the timed bodies add
/// up to the requested seconds and feed only the wall-clock medians.
#[derive(Debug)]
pub struct Budget {
    fixed: usize,
    seconds: f64,
    measured: Duration,
    done: usize,
}

impl Budget {
    /// `body_estimate_s` is one timed body's duration on the reference
    /// box; the fixed set is sized to about 80 % of the requested seconds.
    pub fn new(ctx: &Ctx, body_estimate_s: f64) -> Budget {
        if ctx.quick {
            return Budget { fixed: 1, seconds: 0.0, measured: Duration::ZERO, done: 0 };
        }
        let fixed = ((0.8 * ctx.seconds / body_estimate_s).floor() as usize).max(2);
        // The traced run exists for layer attribution, not medians.
        let seconds = if ctx.traced() { 0.0 } else { ctx.seconds };
        Budget { fixed, seconds, measured: Duration::ZERO, done: 0 }
    }

    /// True while another instance is due.
    pub fn more(&self) -> bool {
        self.done < self.fixed || self.measured.as_secs_f64() < self.seconds
    }

    /// True while the instance about to run belongs to the fixed set.
    pub fn in_fixed_set(&self) -> bool {
        self.done < self.fixed
    }

    /// Account one finished instance whose timed body took `body`.
    pub fn finished(&mut self, body: Duration) {
        self.done += 1;
        self.measured += body;
    }

    /// Instances finished so far.
    pub fn done(&self) -> usize {
        self.done
    }

    /// Size of the fixed set.
    pub fn fixed(&self) -> usize {
        self.fixed
    }
}

/// Samples of one metric; the first `fixed` came from the fixed instance
/// set.
#[derive(Debug, Clone, Default)]
pub struct Series {
    samples: Vec<f64>,
    fixed: usize,
}

impl Series {
    /// Record a sample; `in_fixed_set` says whether the instance producing
    /// it belongs to the fixed set.
    pub fn push(&mut self, value: f64, in_fixed_set: bool) {
        self.samples.push(value);
        if in_fixed_set {
            self.fixed = self.samples.len();
        }
    }

    /// All samples.
    pub fn all(&self) -> &[f64] {
        &self.samples
    }

    /// The samples of the fixed instance set.
    pub fn fixed(&self) -> &[f64] {
        &self.samples[..self.fixed]
    }
}

/// One reported end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct E2eValue {
    /// The reported value (a median, a tail percentile, a mean of exact
    /// per-instance values, or a single reading).
    pub value: f64,
    /// Samples behind it.
    pub n: usize,
    /// The percentile reported, for tail metrics.
    pub pct: Option<f64>,
    /// The fixed-set samples, in input order: `compare` pairs them with the
    /// other run's to separate a shift from run-to-run noise.
    pub samples: Vec<f64>,
}

impl E2eValue {
    /// A single reading.
    pub fn single(value: f64) -> E2eValue {
        E2eValue { value, n: 1, pct: None, samples: Vec::new() }
    }

    /// Mean of the middle 60 % of a per-instance wall-clock series. Every
    /// instance is a different input, so the samples spread by 15-40 % for
    /// reasons that are not noise; across seeds the trimmed mean of such a
    /// sample is about a quarter steadier than its median, and it still
    /// ignores a preempted repetition.
    pub fn per_instance(series: &Series) -> Option<E2eValue> {
        Some(E2eValue {
            value: stats::trimmed_mean(series.all(), 0.2)?,
            n: series.all().len(),
            pct: None,
            samples: series.fixed().to_vec(),
        })
    }

    /// Median of a per-operation wall-clock series.
    pub fn median_of(series: &Series) -> Option<E2eValue> {
        Some(E2eValue {
            value: stats::median(series.all())?,
            n: series.all().len(),
            pct: Some(50.0),
            samples: series.fixed().to_vec(),
        })
    }

    /// The highest tail percentile the series supports (see
    /// [`stats::tail_percentile`]); `None` when it supports none.
    pub fn tail_of(series: &Series) -> Option<E2eValue> {
        let pct = stats::tail_percentile(series.all().len())?;
        Some(E2eValue {
            value: stats::percentile(series.all(), pct)?,
            n: series.all().len(),
            pct: Some(pct),
            samples: Vec::new(),
        })
    }

    /// Mean of the middle 60 % of an exact (byte-count) series over the
    /// fixed set.
    pub fn exact_mean_of(series: &Series) -> Option<E2eValue> {
        Some(E2eValue {
            value: stats::trimmed_mean(series.fixed(), 0.2)?,
            n: series.fixed().len(),
            pct: None,
            samples: series.fixed().to_vec(),
        })
    }

    /// Median over the fixed set of an exact series: for values that are
    /// quantised (500 ms sampling) or bimodal (a repair either waits for a
    /// retransmit back-off or does not), where a mean would swing with the
    /// mix.
    pub fn exact_median_of(series: &Series) -> Option<E2eValue> {
        Some(E2eValue {
            value: stats::median(series.fixed())?,
            n: series.fixed().len(),
            pct: Some(50.0),
            samples: series.fixed().to_vec(),
        })
    }
}

/// Accumulates per-layer counters over the fixed instance set.
#[derive(Debug, Default)]
pub struct LayerSums {
    sums: BTreeMap<&'static str, f64>,
}

impl LayerSums {
    /// Add `value` to counter `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_insert(0.0) += value;
    }

    /// Raise counter `name` to at least `value`.
    pub fn max(&mut self, name: &'static str, value: f64) {
        let slot = self.sums.entry(name).or_insert(0.0);
        *slot = slot.max(value);
    }

    /// The accumulated total of `name` (0 when never touched).
    pub fn get(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Every counter divided by `instances`: the per-instance mean.
    pub fn per_instance(&self, instances: usize) -> LayerMap {
        let n = instances.max(1) as f64;
        self.sums.iter().map(|(&k, &v)| (k, v / n)).collect()
    }
}

/// What a workload hands back.
#[derive(Debug)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: &'static str,
    /// Instances run / of which in the fixed set.
    pub instances: (usize, usize),
    /// Attempted / failed operations and oracle checks.
    pub tally: Tally,
    /// End-to-end metrics that apply to this workload.
    pub e2e: BTreeMap<&'static str, E2eValue>,
    /// Per-layer metrics (traced run only; missing names report 0).
    pub layers: LayerMap,
    /// Free-form lines worth printing (limits met, ratios with bases).
    pub notes: Vec<String>,
}

impl WorkloadResult {
    /// The record of `workload` after `budget`'s instances, metrics still
    /// to be filled in.
    pub fn new(workload: &'static str, budget: &Budget, tally: Tally) -> WorkloadResult {
        WorkloadResult {
            workload,
            instances: (budget.done(), budget.fixed()),
            tally,
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Report end-to-end metric `name`, unless its series was empty.
    pub fn put(&mut self, name: &'static str, value: Option<E2eValue>) {
        if let Some(v) = value {
            self.e2e.insert(name, v);
        }
    }

    /// Insert `fail_ratio` and `peak_rss_mb`, which every workload has.
    pub fn finish(&mut self) {
        let ratio = self.tally.failed as f64 / self.tally.attempted.max(1) as f64;
        self.e2e.insert("fail_ratio", E2eValue::single(ratio));
        self.e2e.insert("peak_rss_mb", E2eValue::single(peak_rss_mb()));
    }

    /// True when every operation and every oracle check passed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// The full record, as stored in `out/<workload>.json`.
    pub fn to_json(&self, ctx: &Ctx, tracer_rows: &[LayerRow]) -> Json {
        let e2e = self.e2e.iter().map(|(&name, v)| {
            let spec = metrics::e2e_spec(name).expect("workloads report catalogued metrics");
            let mut fields = vec![
                ("value", Json::Num(v.value)),
                ("unit", Json::str(spec.unit)),
                ("better", Json::str(spec.better.as_str())),
                ("bound", Json::Num(spec.bound)),
                ("exact", Json::Bool(spec.exact)),
                ("n", Json::Num(v.n as f64)),
                ("samples", Json::nums(&v.samples)),
            ];
            if let Some(pct) = v.pct {
                fields.push(("pct", Json::Num(pct)));
            }
            (name, Json::obj(fields))
        });
        let layers = LAYERS.iter().map(|&(name, unit)| {
            let value = self.layers.get(name).copied().unwrap_or(0.0);
            (name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]))
        });
        let spans = tracer_rows.iter().map(|r| {
            Json::obj([
                ("name", Json::str(r.name)),
                ("count", Json::Num(r.count as f64)),
                ("total_ms", Json::Num(r.total_ns as f64 / 1e6)),
                ("self_ms", Json::Num(r.self_ns as f64 / 1e6)),
                ("p50_us", Json::Num(r.p50_ns / 1e3)),
            ])
        });
        let mut fields = vec![
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(ctx.seed as f64)),
            ("seconds", Json::Num(ctx.seconds)),
            ("quick", Json::Bool(ctx.quick)),
            ("traced", Json::Bool(ctx.traced())),
            ("instances", Json::Num(self.instances.0 as f64)),
            ("fixed_instances", Json::Num(self.instances.1 as f64)),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("failures", Json::Arr(self.tally.messages.iter().map(Json::str).collect())),
            ("correct", Json::Bool(self.correct())),
            ("end_to_end", Json::obj(e2e)),
            ("notes", Json::Arr(self.notes.iter().map(Json::str).collect())),
        ];
        if ctx.traced() {
            fields.push(("per_layer", Json::obj(layers)));
            fields.push(("spans", Json::Arr(spans.collect())));
        }
        Json::obj(fields)
    }

    /// The driver's result line: `correct`, `attempted`, `failed`, and the
    /// end-to-end metrics every workload has (untraced) or every per-layer
    /// metric (traced).
    pub fn driver_line(&self, traced: bool) -> Json {
        let metric = |value: f64, unit: &str| {
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
        };
        let metrics: Vec<(&str, Json)> = if traced {
            LAYERS
                .iter()
                .map(|&(name, unit)| {
                    (name, metric(self.layers.get(name).copied().unwrap_or(0.0), unit))
                })
                .collect()
        } else {
            E2E.iter()
                .filter(|spec| spec.driver_bound.is_some())
                .map(|spec| {
                    let v = self.e2e.get(spec.name).map_or(f64::NAN, |v| v.value);
                    (spec.name, metric(v, spec.unit))
                })
                .collect()
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Peak resident set size of this process in MB (`VmHWM`); 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A per-layer metric map, as a workload's traced run fills it.
pub type LayerMap = BTreeMap<&'static str, f64>;

/// `name` in `layers`, 0 when absent.
pub fn layer(layers: &LayerMap, name: &str) -> f64 {
    layers.get(name).copied().unwrap_or(0.0)
}

/// `num / den`, 0 when there is no denominator (a layer the workload does
/// not exercise).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Span name → the layer metric its median duration fills, with the
/// nanoseconds per unit of that metric.
const SPAN_METRICS: &[(&str, &str, f64)] = &[
    ("datalog.parser.parse_program", "datalog.parser.parse_us", 1e3),
    ("core.localize", "core.localize.localize_us", 1e3),
    ("core.harness.issue", "core.harness.issue_us", 1e3),
    ("core.harness.results", "core.harness.results_ms", 1e6),
    ("core.harness.cursor_poll", "core.harness.cursor_poll_us", 1e3),
    ("core.harness.explain", "provenance.explain_us", 1e3),
    ("workloads.topology_gen", "workloads.topology_gen_ms", 1e6),
    ("service.apply.issue", "service.apply.issue_us", 1e3),
    ("service.apply.teardown", "service.apply.teardown_us", 1e3),
    ("service.apply.inject", "service.apply.inject_us", 1e3),
    ("service.apply.subscribe", "service.apply.subscribe_us", 1e3),
    ("service.apply.stats", "service.apply.stats_us", 1e3),
    ("service.advance", "service.advance_ms", 1e6),
    ("service.poll", "service.poll_ms", 1e6),
    ("service.protocol.encode", "service.protocol.encode_delta_us", 1e3),
    ("service.protocol.decode", "service.protocol.decode_delta_us", 1e3),
    ("service.server.connect", "service.server.connect_ms", 1e6),
    ("service.client.request.noop", "service.server.rtt_noop_p50_ms", 1e6),
    ("service.client.request.issue", "service.server.rtt_issue_p50_ms", 1e6),
    ("service.client.request.inject", "service.server.rtt_inject_p50_ms", 1e6),
    ("service.client.request.teardown", "service.server.rtt_teardown_p50_ms", 1e6),
    ("service.client.request.advance5s", "service.server.rtt_advance5s_p50_ms", 1e6),
    ("service.client.poll_pushed", "service.client.poll_pushed_us", 1e3),
];

/// Fill every layer metric that is the median duration of a span name, and
/// the span count. Metrics a workload computed itself are left alone.
pub fn fill_span_metrics(out: &mut LayerMap, tracer: &Tracer) {
    let rows = layer_table(tracer.spans());
    for &(span, metric, ns_per_unit) in SPAN_METRICS {
        if let Some(row) = rows.iter().find(|r| r.name == span) {
            out.entry(metric).or_insert(row.p50_ns / ns_per_unit);
        }
    }
    out.insert("trace.spans", tracer.spans().len() as f64);
}

/// Durations of every span named `name`, in milliseconds.
pub fn span_durations_ms(tracer: &Tracer, name: &str) -> Vec<f64> {
    tracer
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6)
        .collect()
}
