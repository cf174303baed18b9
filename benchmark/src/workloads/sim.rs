//! The four simulator workloads: `converge_static`, `converge_explained`,
//! `churn_recover`, `lossy_recover`.
//!
//! One *instance* is one generated topology. Its set-up generates the
//! topology, computes the Floyd–Warshall oracle, measures issue → first
//! route in 100 ms simulated steps, and plays the scenario once with
//! 500 ms result sampling (convergence time, recovery times, oracle
//! check) — that pass doubles as the warm-up. The timed body then replays
//! the same deterministic scenario on a bare `RoutingHarness` with no
//! sampling, and its own results are checked against the oracle again.

use std::time::{Duration, Instant};

use declarative_routing::baselines::{PathVectorConfig, PathVectorNode};
use declarative_routing::datalog::eval::EvalConfig;
use declarative_routing::datalog::{Database, Evaluator};
use declarative_routing::engine::harness::{QueryHandle, RoutingHarness};
use declarative_routing::engine::scenario::{Probe, QueryDef, ScenarioBuilder};
use declarative_routing::engine::{NetMsg, ProcessorStats, ReliabilityConfig};
use declarative_routing::netsim::{
    EventSource, FaultPlan, LinkFaults, SimConfig, SimDuration, SimTime, Simulator, Topology,
};
use declarative_routing::protocols::best_path;
use declarative_routing::service::BEST_PATH_PROGRAM;
use declarative_routing::types::{NodeId, Tuple, Value};
use declarative_routing::workloads::{
    ChurnSchedule, OverlayKind, OverlayParams, TransitStubParams,
};

use crate::bench::{
    fill_span_metrics, layer, ratio, Budget, Ctx, E2eValue, LayerMap, LayerSums, Series,
    WorkloadResult,
};
use crate::oracle::{Route, ShortestPaths, Tally};
use crate::span;
use crate::stats;
use crate::trace::Tracer;

/// Which simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// Cold all-pairs Best-Path, lossless.
    Static,
    /// Same with provenance recording and explanations.
    Explained,
    /// Dense overlay, two fail/join cycles, lossless.
    Churn,
    /// Dense overlay, one cycle, lossy wire with the reliable transport.
    Lossy,
}

impl SimKind {
    fn name(self) -> &'static str {
        match self {
            SimKind::Static => "converge_static",
            SimKind::Explained => "converge_explained",
            SimKind::Churn => "churn_recover",
            SimKind::Lossy => "lossy_recover",
        }
    }

    fn salt(self) -> u64 {
        self as u64 + 1
    }

    /// One timed body on the reference box, seconds (sizes the fixed set).
    fn body_estimate_s(self) -> f64 {
        match self {
            SimKind::Static => 0.13,
            SimKind::Explained => 0.26,
            SimKind::Churn => 0.10,
            SimKind::Lossy => 0.12,
        }
    }

    fn churn_cycles(self) -> usize {
        match self {
            SimKind::Churn => 2,
            SimKind::Lossy => 1,
            _ => 0,
        }
    }
}

const SAMPLE: SimDuration = SimDuration::from_millis(500);
const FIRST_ROUTE_STEP: SimDuration = SimDuration::from_millis(100);
const CONVERGE_HORIZON: SimTime = SimTime::from_secs(60);
const CHURN_START: SimTime = SimTime::from_secs(120);
const CHURN_INTERVAL: SimDuration = SimDuration::from_secs(60);
/// Simulated time left after the last rejoin for routes to settle. On the
/// lossy wire repair rides on retransmit back-off: with 120 s, 7 of 40
/// overlays still held a few routes above the optimum; with 200 s none of
/// 40 did, with 400 s none of 300.
const CHURN_SETTLE: SimDuration = SimDuration::from_secs(120);
const LOSSY_SETTLE: SimDuration = SimDuration::from_secs(400);
/// Explain every this-many-th finite route.
const EXPLAIN_EVERY: usize = 20;
/// Share of the routes checked in a lossy run that may be detours. One of
/// 266 24-node overlays ended with one, none of some 700 16-node ones; a
/// run checks about 17 000 routes, so this admits a few unlucky overlays
/// and no more.
const DETOUR_SHARE: f64 = 0.005;
/// Size of the one overlay the traced lossy run adds, with its lossless
/// twin: the sizing prototype's, to show what the 16-node instances keep of
/// the lossy / lossless ratio (`--quick`: half of it).
const LARGE_OVERLAY_NODES: usize = 36;

/// One generated input.
#[derive(Clone)]
struct Instance {
    topology: Topology,
    oracle: ShortestPaths,
    schedule: Option<ChurnSchedule>,
    faults: Option<FaultPlan>,
    /// Time of the last scheduled change (issue, or the last rejoin).
    last_event: SimTime,
    horizon: SimTime,
}

fn generate(kind: SimKind, quick: bool, seed: u64) -> Topology {
    match kind {
        SimKind::Static | SimKind::Explained => {
            // One transit domain: 4 transit nodes with two 8-node stubs
            // each (68 nodes); quick: one 5-node stub each (24 nodes). Many
            // small graphs per run rather than few large ones: the work one
            // graph takes varies by 16 % (CV) with its wiring.
            let (stubs, per_stub) = if quick { (1, 5) } else { (2, 8) };
            TransitStubParams {
                domains: 1,
                stubs_per_transit_node: stubs,
                nodes_per_stub: per_stub,
                seed,
                ..TransitStubParams::default()
            }
            .generate()
        }
        SimKind::Churn | SimKind::Lossy => OverlayParams {
            nodes: if quick { 10 } else { 16 },
            ..OverlayParams::planetlab(OverlayKind::DenseUunet, seed)
        }
        .generate(),
    }
}

fn instance(kind: SimKind, quick: bool, seed: u64, tracer: &mut Tracer) -> Instance {
    let topology = span!(tracer, "workloads.topology_gen", generate(kind, quick, seed));
    instance_over(kind, topology, seed)
}

/// The scenario of `kind` over `topology`.
fn instance_over(kind: SimKind, topology: Topology, seed: u64) -> Instance {
    let oracle = ShortestPaths::of(&topology);
    let cycles = kind.churn_cycles();
    let schedule = (cycles > 0).then(|| {
        ChurnSchedule::alternating(
            topology.num_nodes(),
            0.1,
            CHURN_START,
            CHURN_INTERVAL,
            cycles,
            seed,
        )
    });
    let faults = (kind == SimKind::Lossy).then(|| {
        FaultPlan::new(seed).uniform(LinkFaults::none().with_drop(0.05).with_duplicate(0.10))
    });
    let last_event = schedule.as_ref().map_or(SimTime::ZERO, ChurnSchedule::end_time);
    let horizon = match kind {
        SimKind::Static | SimKind::Explained => CONVERGE_HORIZON,
        SimKind::Churn => last_event + CHURN_SETTLE,
        SimKind::Lossy => last_event + LOSSY_SETTLE,
    };
    Instance { topology, oracle, schedule, faults, last_event, horizon }
}

fn new_harness(inst: &Instance) -> RoutingHarness {
    match &inst.faults {
        Some(plan) => {
            let mut h = RoutingHarness::with_reliability(
                inst.topology.clone(),
                ReliabilityConfig::default(),
            );
            h.set_fault_plan(plan.clone());
            h
        }
        None => RoutingHarness::new(inst.topology.clone()),
    }
}

fn issue(h: &mut RoutingHarness, provenance: bool, tracer: &mut Tracer) -> QueryHandle {
    let program = span!(tracer, "datalog.parser.parse_program", best_path());
    span!(tracer, "core.harness.issue", h.issue(program).provenance(provenance).submit())
        .expect("the Best-Path program localizes")
}

fn schedule_churn(h: &mut RoutingHarness, inst: &Instance) {
    if let Some(schedule) = &inst.schedule {
        for event in EventSource::<NetMsg>::events_for(schedule, &inst.topology) {
            event.schedule(h.sim_mut());
        }
    }
}

fn is_finite_route(t: &Tuple) -> bool {
    t.field(3).and_then(Value::as_cost).is_some_and(|c| c.is_finite())
}

/// Issue → first finite route visible at the issuer, stepping the
/// simulator 100 ms at a time. Wall-clock, so it includes the step checks.
fn first_route(inst: &Instance, provenance: bool, tally: &mut Tally) -> Duration {
    let mut h = new_harness(inst);
    let mut silent = Tracer::new(false);
    let start = Instant::now();
    let handle = issue(&mut h, provenance, &mut silent);
    let issuer = NodeId::new(0);
    let mut t = SimTime::ZERO;
    let limit = SimTime::from_secs(30);
    while t < limit {
        t += FIRST_ROUTE_STEP;
        h.run_until(t);
        if handle.raw_results_at(&h, issuer).iter().any(is_finite_route) {
            tally.pass();
            return start.elapsed();
        }
    }
    tally.fail("no finite route at the issuer within 30 simulated seconds");
    start.elapsed()
}

/// What the sampled verification pass observed.
struct Verified {
    /// Last change of the result multiset, relative to the last event.
    converged_s: Option<f64>,
    recoveries: Vec<f64>,
    events: u64,
}

/// The query's finite results against the oracle. Returns how many there
/// are and how many are detours: real paths that cost more than the optimum,
/// tolerated only on the lossy wire, where a rare overlay still holds a few
/// 400 simulated seconds after the rejoin (README, open findings). The
/// caller bounds their share.
fn check_results(
    what: &str,
    inst: &Instance,
    h: &RoutingHarness,
    handle: &QueryHandle,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> (usize, u64) {
    match span!(tracer, "core.harness.results", handle.finite_results(h)) {
        Ok(routes) => {
            let lossy = inst.faults.is_some();
            let (check, detours) =
                inst.oracle.check_routes_with(what, routes.iter().map(Route::from), lossy);
            tally.merge(check);
            (routes.len(), detours)
        }
        Err(e) => {
            tally.fail(format!("{what}: results do not decode: {e}"));
            (0, 0)
        }
    }
}

/// Play the scenario once with 500 ms result sampling.
fn verify(kind: SimKind, inst: &Instance, tally: &mut Tally) -> Verified {
    let mut silent = Tracer::new(false);
    if inst.schedule.is_none() {
        // `QueryDef` has no provenance switch, so the convergence probe is
        // written out here: sample (count, cost sum) of the finite results
        // every 500 ms, skipping steps in which the simulator dispatched
        // nothing, and keep the time of the last change.
        let mut h = new_harness(inst);
        let handle = issue(&mut h, kind == SimKind::Explained, &mut silent);
        let mut t = SimTime::ZERO;
        let mut seen_events = u64::MAX;
        let mut signature: Option<(usize, u64)> = None;
        let mut converged = None;
        while t < inst.horizon {
            t += SAMPLE;
            h.run_until(t);
            let events = h.sim().events_processed();
            if events == seen_events {
                continue;
            }
            seen_events = events;
            let Ok(routes) = handle.finite_results(&h) else { break };
            let cost_sum: f64 = routes.iter().map(|r| r.cost.value()).sum();
            let now = Some((routes.len(), cost_sum.to_bits()));
            if now != signature {
                signature = now;
                converged = Some(t.as_secs_f64());
            }
        }
        check_results("sampled pass", inst, &h, &handle, &mut silent, tally);
        return Verified {
            converged_s: converged,
            recoveries: Vec::new(),
            events: h.sim().events_processed(),
        };
    }

    let mut scenario = ScenarioBuilder::over(inst.topology.clone())
        .query(QueryDef::new(best_path()))
        .source(inst.schedule.as_ref().expect("checked above"))
        .sample_every(SAMPLE)
        .sample_from(SimTime::ZERO)
        .until(inst.horizon)
        .probes([Probe::ResultSets, Probe::Recovery]);
    if let Some(plan) = &inst.faults {
        scenario = scenario.faults(plan.clone());
    }
    match scenario.execute() {
        Ok(run) => {
            check_results("sampled pass", inst, &run.harness, &run.handles[0], &mut silent, tally);
            let last_event = inst.last_event.as_secs_f64();
            Verified {
                converged_s: run.report.queries[0]
                    .converged_at
                    .map(|at| (at.as_secs_f64() - last_event).max(0.0)),
                recoveries: run.report.recovery_times(),
                events: run.harness.sim().events_processed(),
            }
        }
        Err(e) => {
            tally.fail(format!("scenario failed: {e}"));
            Verified { converged_s: None, recoveries: Vec::new(), events: 0 }
        }
    }
}

/// What one timed body left behind.
struct BodyRun {
    harness: RoutingHarness,
    handle: QueryHandle,
    wall: Duration,
    run_until: Duration,
    /// Events dispatched when `run_until` returned (explaining adds more:
    /// proofs fetch remote records over the simulated wire).
    events: u64,
    explained: usize,
    explain_steps: usize,
    explain_failures: Vec<String>,
}

/// The timed body: deploy, issue, run to the horizon (explain on the
/// explained variant). Nothing in here inspects results except `explain`,
/// which is the workload.
fn body(kind: SimKind, inst: &Instance, provenance: bool, tracer: &mut Tracer) -> BodyRun {
    tracer.next_req();
    let op = tracer.begin("op.rep");
    let start = Instant::now();
    let mut harness = new_harness(inst);
    let handle = issue(&mut harness, provenance, tracer);
    schedule_churn(&mut harness, inst);
    let run_start = Instant::now();
    span!(tracer, "core.harness.run_until", harness.run_until(inst.horizon));
    let run_until = run_start.elapsed();
    let events = harness.sim().events_processed();

    let (mut explained, mut explain_steps, mut explain_failures) = (0, 0, Vec::new());
    if kind == SimKind::Explained && provenance {
        let rows = span!(tracer, "core.harness.results", handle.raw_results(&harness));
        for row in rows.iter().filter(|t| is_finite_route(t)).step_by(EXPLAIN_EVERY) {
            explained += 1;
            match span!(tracer, "core.harness.explain", harness.explain(handle.id(), row)) {
                Ok(tree) if tree.is_fully_resolved() => explain_steps += tree.steps().len(),
                Ok(_) => explain_failures.push(format!("proof of {row:?} has unresolved leaves")),
                Err(e) => explain_failures.push(format!("explain {row:?}: {e}")),
            }
        }
    }
    let wall = start.elapsed();
    tracer.end(op);
    BodyRun { harness, handle, wall, run_until, events, explained, explain_steps, explain_failures }
}

fn add_processor_stats(layers: &mut LayerSums, s: &ProcessorStats) {
    layers.add("core.processor.tuples_derived", s.tuples_derived as f64);
    layers.add("core.processor.tuples_pruned", s.tuples_pruned as f64);
    layers.add("core.processor.tuples_sent", s.tuples_sent as f64);
    layers.add("core.processor.tuples_received", s.tuples_received as f64);
    layers.add("core.processor.tombstones_collapsed", s.tombstones_collapsed as f64);
    layers.add("core.processor.prune_evicted", s.prune_evicted as f64);
    layers.add("core.processor.tuples_rejected", s.tuples_rejected as f64);
    layers.add("core.processor.batches", s.batches as f64);
    layers.add("core.processor.retransmits", s.retransmits as f64);
    layers.add("core.processor.dups_dropped", s.dups_dropped as f64);
    layers.add("core.processor.acks_sent", s.acks_sent as f64);
    layers.add("core.processor.gaps_skipped", s.gaps_skipped as f64);
    layers.add("provenance.recorded", s.prov_recorded as f64);
}

/// The hand-coded path-vector protocol on the same topology: the cost of
/// simulator dispatch with no Datalog in the loop.
fn path_vector_probe(inst: &Instance, layers: &mut LayerSums, tracer: &mut Tracer) -> u64 {
    let n = inst.topology.num_nodes();
    let apps = (0..n).map(|_| PathVectorNode::new(PathVectorConfig::default())).collect();
    let mut sim = Simulator::new(inst.topology.clone(), apps, SimConfig::default());
    let start = Instant::now();
    let token = tracer.begin("baselines.path_vector.run");
    let mut t = SimTime::ZERO;
    let mut signature = (0usize, 0u64);
    let mut converged = 0.0;
    while t < inst.horizon {
        t += SAMPLE;
        sim.run_until(t);
        let routes: usize = sim.apps().map(PathVectorNode::reachable_destinations).sum();
        let cost: f64 = sim
            .apps()
            .flat_map(|a| a.routes().values())
            .filter(|r| r.cost.is_finite())
            .map(|r| r.cost.value())
            .sum();
        if (routes, cost.to_bits()) != signature {
            signature = (routes, cost.to_bits());
            converged = t.as_secs_f64();
        }
    }
    tracer.end(token);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    layers.add("baselines.path_vector.wall_ms", wall_ms);
    layers.add("baselines.path_vector.per_node_kb", sim.metrics().per_node_overhead_kb());
    layers.add("baselines.path_vector.converged_sim_s", converged);
    sim.events_processed()
}

/// Centralized evaluation of the same program over the same link table.
fn central_eval_probe(
    inst: &Instance,
    layers: &mut LayerSums,
    tracer: &mut Tracer,
    tally: &mut Tally,
) {
    let mut db = Database::new();
    for (a, b, p) in inst.topology.all_links() {
        db.insert(Tuple::new(
            "link",
            vec![Value::Node(a), Value::Node(b), Value::from(p.cost.value())],
        ));
    }
    let config = EvalConfig { aggregate_selections: true, ..EvalConfig::default() };
    let evaluator =
        Evaluator::with_config(best_path(), config).expect("the Best-Path program stratifies");
    let start = Instant::now();
    let stats = span!(tracer, "datalog.eval.run", evaluator.run(&mut db));
    layers.add("datalog.eval.central_ms", start.elapsed().as_secs_f64() * 1e3);
    match stats {
        Ok(s) => {
            layers.add("datalog.eval.rule_firings", s.rule_firings as f64);
            layers.add("datalog.eval.tuples_derived", s.tuples_derived as f64);
            layers.add("datalog.eval.tuples_pruned", s.tuples_pruned as f64);
            layers.add("datalog.eval.iterations", s.iterations as f64);
            let routes =
                db.tuples("bestPath").into_iter().filter(is_finite_route).filter_map(|t| {
                    Some(Route {
                        src: t.node_at(0)?.index() as u32,
                        dst: t.node_at(1)?.index() as u32,
                        cost: t.field(3)?.as_cost()?.value(),
                        path: Vec::new(),
                    })
                });
            tally.merge(inst.oracle.check_routes("centralized evaluation", routes));
        }
        Err(e) => tally.fail(format!("centralized evaluation failed: {e}")),
    }
}

/// Tear the query down, let the flood settle, and count what is left.
fn teardown_probe(
    run: &mut BodyRun,
    layers: &mut LayerSums,
    tracer: &mut Tracer,
    tally: &mut Tally,
) {
    let start = Instant::now();
    let at = run.harness.now();
    span!(tracer, "core.harness.teardown", run.harness.teardown(run.handle.id(), at));
    span!(
        tracer,
        "core.harness.teardown_settle",
        run.harness.run_until(at + SimDuration::from_secs(30))
    );
    layers.add("core.harness.teardown_settle_ms", start.elapsed().as_secs_f64() * 1e3);
    let f = run.harness.state_footprint();
    let residue = f.instances
        + f.stored_tuples
        + f.pending_tuples
        + f.prune_entries
        + f.shared_relations
        + f.shared_tuples
        + f.prov_records;
    layers.add("core.footprint.residue", residue as f64);
    tally.check(residue == 0, || format!("teardown left {residue} entries behind: {f:?}"));
}

/// One large overlay on the lossy wire and on a lossless one (traced
/// `lossy_recover` only): the ratio at the sizing prototype's size, next to
/// the one the small instances report.
fn large_overlay_probe(ctx: &Ctx, out: &mut LayerMap, notes: &mut Vec<String>, tally: &mut Tally) {
    let nodes = if ctx.quick { LARGE_OVERLAY_NODES / 2 } else { LARGE_OVERLAY_NODES };
    let seed = ctx.instance_seed(SimKind::Lossy.salt(), usize::MAX - 1);
    let topology =
        OverlayParams { nodes, ..OverlayParams::planetlab(OverlayKind::DenseUunet, seed) }
            .generate();
    let lossy = instance_over(SimKind::Lossy, topology, seed);
    let lossless = Instance { faults: None, ..lossy.clone() };
    let mut silent = Tracer::new(false);
    let mut wall_ms = [0.0; 2];
    for (inst, ms) in [&lossy, &lossless].into_iter().zip(&mut wall_ms) {
        let run = body(SimKind::Lossy, inst, false, &mut silent);
        *ms = run.wall.as_secs_f64() * 1e3;
        let (routes, detours) =
            check_results("large overlay", inst, &run.harness, &run.handle, &mut silent, tally);
        tally.check(detours as f64 <= DETOUR_SHARE * routes as f64, || {
            format!("large overlay: {detours} of {routes} routes are detours")
        });
    }
    let [lossy_ms, lossless_ms] = wall_ms;
    out.insert("core.processor.large_lossy_ms", lossy_ms);
    out.insert("core.processor.large_lossless_ms", lossless_ms);
    out.insert("core.processor.large_lossy_over_lossless_wall", ratio(lossy_ms, lossless_ms));
    notes.push(format!(
        "core.processor.large_lossy_over_lossless_wall = {:.2} at {nodes} nodes (lossy body {lossy_ms:.1} ms / lossless {lossless_ms:.1} ms)",
        ratio(lossy_ms, lossless_ms)
    ));
}

/// Per-instance means over the fixed set that only feed ratios.
struct PerInstance {
    body_ms: f64,
    run_ms: f64,
    routes: f64,
    explained: f64,
    pv_events: f64,
}

/// Fill the layer metrics that are quotients of others, and say each
/// headline ratio with both of its bases in a note.
fn derive_layers(out: &mut LayerMap, notes: &mut Vec<String>, p: &PerInstance) {
    let quotient = |out: &mut LayerMap, name: &'static str, num: f64, den: f64| {
        out.insert(name, ratio(num, den));
    };
    out.insert("core.harness.run_until_ms", p.run_ms);
    out.insert("datalog.parser.program_bytes", BEST_PATH_PROGRAM.len() as f64);
    let events = layer(out, "netsim.sim.events");
    quotient(out, "netsim.sim.us_per_event", p.run_ms * 1e3, events);
    let (bytes, messages) =
        (layer(out, "netsim.metrics.bytes"), layer(out, "netsim.metrics.messages"));
    quotient(out, "netsim.metrics.bytes_per_message", bytes, messages);
    let (derived, pruned) =
        (layer(out, "core.processor.tuples_derived"), layer(out, "core.processor.tuples_pruned"));
    quotient(out, "core.processor.prune_ratio", pruned, derived + pruned);
    quotient(out, "core.processor.derived_per_route", derived, p.routes);
    let (changed, scanned) = (
        layer(out, "core.harness.cursor_changed_tuples"),
        layer(out, "core.harness.cursor_scanned_tuples"),
    );
    quotient(out, "core.harness.cursor_useful_ratio", changed, scanned);
    let recorded = layer(out, "provenance.recorded");
    quotient(out, "provenance.records_per_route", recorded, p.routes);
    let steps = layer(out, "provenance.explain_steps");
    quotient(out, "provenance.explain_steps", steps, p.explained);
    let pv_ms = layer(out, "baselines.path_vector.wall_ms");
    quotient(out, "netsim.sim.bare_us_per_event", pv_ms * 1e3, p.pv_events);

    // (ratio, numerator, what it is, reference layer, what that is)
    let headline = [
        (
            "datalog.eval.distributed_over_central",
            p.run_ms,
            "run_until",
            "datalog.eval.central_ms",
            "centralized Evaluator::run",
        ),
        (
            "baselines.declarative_over_pv_wall",
            p.body_ms,
            "declarative body",
            "baselines.path_vector.wall_ms",
            "path-vector",
        ),
        (
            "provenance.on_over_off_wall",
            p.run_ms,
            "run_until recording on",
            "provenance.off_run_ms",
            "recording off",
        ),
        (
            "core.processor.lossy_over_lossless_wall",
            p.body_ms,
            "lossy body",
            "core.processor.lossless_ref_ms",
            "lossless",
        ),
    ];
    for (name, num, num_is, reference, reference_is) in headline {
        let den = layer(out, reference);
        quotient(out, name, num, den);
        if den > 0.0 {
            notes.push(format!(
                "{name} = {:.2} ({num_is} {num:.1} ms / {reference_is} {den:.1} ms)",
                ratio(num, den)
            ));
        }
    }
}

/// Run one simulator workload.
pub fn run(kind: SimKind, ctx: &mut Ctx) -> WorkloadResult {
    let provenance = kind == SimKind::Explained;
    let mut budget = Budget::new(ctx, kind.body_estimate_s());
    let mut tally = Tally::default();
    let mut layers = LayerSums::default();
    let (mut setup, mut wall, mut first, mut converged, mut per_node_kb, mut recoveries) = (
        Series::default(),
        Series::default(),
        Series::default(),
        Series::default(),
        Series::default(),
        Series::default(),
    );
    let mut run_until_ms = Series::default();
    // Totals over the fixed set that only feed ratios.
    let (mut routes_total, mut explained_total, mut pv_events) = (0usize, 0usize, 0u64);
    // Detours tolerated on the lossy wire: in the whole run, of how many
    // routes, and in the fixed set alone.
    let (mut detours, mut routes_checked, mut detours_fixed) = (0u64, 0u64, 0u64);

    let workload_token = ctx.tracer.begin("workload");
    while budget.more() {
        let fixed = budget.in_fixed_set();
        let seed = ctx.instance_seed(kind.salt(), budget.done());

        // Set-up: input, oracle, first-route probe, sampled warm-up pass.
        let setup_start = Instant::now();
        let inst = instance(kind, ctx.quick, seed, &mut ctx.tracer);
        first.push(first_route(&inst, provenance, &mut tally).as_secs_f64() * 1e3, fixed);
        let verified = verify(kind, &inst, &mut tally);
        setup.push(setup_start.elapsed().as_secs_f64(), fixed);
        match verified.converged_s {
            Some(s) => converged.push(s, fixed),
            None => tally.fail("the result set never settled"),
        }
        for r in &verified.recoveries {
            recoveries.push(*r, fixed);
        }

        // Timed body, then its own output against the oracle.
        let mut run = body(kind, &inst, provenance, &mut ctx.tracer);
        budget.finished(run.wall);
        wall.push(run.wall.as_secs_f64(), fixed);
        per_node_kb.push(run.harness.per_node_overhead_kb(), fixed);
        let (routes, above) = check_results(
            "timed body",
            &inst,
            &run.harness,
            &run.handle,
            &mut ctx.tracer,
            &mut tally,
        );
        detours += above;
        routes_checked += routes as u64;
        tally.attempted += (run.explained - run.explain_failures.len()) as u64;
        for failure in std::mem::take(&mut run.explain_failures) {
            tally.fail(failure);
        }
        let events = run.events;
        tally.check(events == verified.events, || {
            format!("sampled pass dispatched {} events, timed body {events}", verified.events)
        });
        let stats = run.harness.processor_stats();
        tally.check(provenance || stats.prov_recorded == 0, || {
            format!("{} provenance records written with recording off", stats.prov_recorded)
        });

        if fixed {
            run_until_ms.push(run.run_until.as_secs_f64() * 1e3, true);
            routes_total += routes;
            detours_fixed += above;
            layers.add("core.processor.routes_above_optimum", above as f64);
            add_processor_stats(&mut layers, &stats);
            layers.add("core.harness.results_tuples", routes as f64);
            layers.add("provenance.explain_steps", run.explain_steps as f64);
            explained_total += run.explained;
            let f = run.harness.state_footprint();
            layers.add("core.footprint.stored_tuples", f.stored_tuples as f64);
            layers.add("core.footprint.prune_entries", f.prune_entries as f64);
            layers.add("core.footprint.pending_tuples", f.pending_tuples as f64);
            layers.add("core.footprint.prov_records", f.prov_records as f64);
            let m = run.harness.sim().metrics();
            layers.add("netsim.sim.events", events as f64);
            layers.add("netsim.metrics.messages", m.total_messages() as f64);
            layers.add("netsim.metrics.bytes", m.total_bytes() as f64);
            layers.add("netsim.metrics.dropped_fault", m.dropped_fault() as f64);
            layers.add("netsim.metrics.dropped_node_down", m.dropped_node_down() as f64);
            layers.add("netsim.metrics.dropped_no_link", m.dropped_no_link() as f64);
            layers.add("workloads.nodes", inst.topology.num_nodes() as f64);
            layers.add("workloads.links", inst.topology.num_links() as f64);
        }

        // Probes that perturb timing or cost a repetition: traced run only.
        if ctx.traced() {
            let mut cursor = run.handle.cursor();
            let delta = span!(ctx.tracer, "core.harness.cursor_poll", cursor.poll(&run.harness));
            layers.add("core.harness.cursor_scanned_tuples", routes as f64);
            layers.add("core.harness.cursor_changed_tuples", delta.len() as f64);
            match kind {
                SimKind::Static => {
                    central_eval_probe(&inst, &mut layers, &mut ctx.tracer, &mut tally);
                    pv_events += path_vector_probe(&inst, &mut layers, &mut ctx.tracer);
                }
                SimKind::Explained => {
                    central_eval_probe(&inst, &mut layers, &mut ctx.tracer, &mut tally);
                    let off = body(kind, &inst, false, &mut Tracer::new(false));
                    layers.add("provenance.off_run_ms", off.run_until.as_secs_f64() * 1e3);
                }
                SimKind::Lossy => {
                    let lossless = Instance { faults: None, ..inst.clone() };
                    let reference = body(kind, &lossless, false, &mut Tracer::new(false));
                    layers
                        .add("core.processor.lossless_ref_ms", reference.wall.as_secs_f64() * 1e3);
                }
                SimKind::Churn => {}
            }
            teardown_probe(&mut run, &mut layers, &mut ctx.tracer, &mut tally);
        }
    }
    if ctx.traced() {
        super::frontend_probe(&mut ctx.tracer);
    }
    ctx.tracer.end(workload_token);
    if kind == SimKind::Lossy {
        tally.check(detours as f64 <= DETOUR_SHARE * routes_checked as f64, || {
            format!(
                "{detours} of {routes_checked} routes are detours, more than {} %",
                DETOUR_SHARE * 100.0
            )
        });
    }

    let mut result = WorkloadResult::new(kind.name(), &budget, tally);
    result.put("setup_s", E2eValue::per_instance(&setup));
    result.put("run_wall_s", E2eValue::per_instance(&wall));
    result.put("first_route_wall_ms", E2eValue::per_instance(&first));
    result.put("converged_sim_s", E2eValue::exact_median_of(&converged));
    result.put("per_node_kb", E2eValue::exact_mean_of(&per_node_kb));
    if kind.churn_cycles() > 0 {
        result.put("recovery_sim_s", E2eValue::exact_median_of(&recoveries));
    }
    if kind == SimKind::Lossy {
        result.put("routes_above_optimum", Some(E2eValue::single(detours_fixed as f64)));
        result.notes.push(format!(
            "{detours} of {routes_checked} routes in {} overlays were detours when the run ended: real paths dearer than the optimum, tolerated on the lossy wire up to {} %",
            budget.done(),
            DETOUR_SHARE * 100.0
        ));
    }

    if ctx.traced() {
        let n = budget.fixed() as f64;
        let per_instance = PerInstance {
            body_ms: stats::mean(wall.fixed()).unwrap_or(0.0) * 1e3,
            run_ms: stats::mean(run_until_ms.fixed()).unwrap_or(0.0),
            routes: routes_total as f64 / n,
            explained: explained_total as f64 / n,
            pv_events: pv_events as f64 / n,
        };
        let mut out = layers.per_instance(budget.fixed());
        derive_layers(&mut out, &mut result.notes, &per_instance);
        if kind == SimKind::Lossy {
            large_overlay_probe(ctx, &mut out, &mut result.notes, &mut result.tally);
        }
        out.insert("trace.run_wall_s", E2eValue::per_instance(&wall).map_or(0.0, |v| v.value));
        fill_span_metrics(&mut out, &ctx.tracer);
        result.layers = out;
    }
    result
}
