//! `svc_fanout`: the read-heavy service path, no sockets.
//!
//! One *instance* is one direct `RoutingService` over the default ring
//! topology with many sessions subscribed to the same few long-lived
//! Best-Path queries. Set-up issues the queries, subscribes every session,
//! converges for 20 simulated seconds and checks every session's replayed
//! view against the oracle. The timed body is a run of 200 ms ticks; every
//! fifth tick a ring-link cost flip is injected into the next query, so each
//! query is flipped at most once. A tick is
//! `advance` + draining every outbox + encoding and decoding every frame,
//! which is what a transport does with them.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use declarative_routing::engine::harness::ResultCursor;
use declarative_routing::netsim::SimDuration;
use declarative_routing::service::protocol::WireTuple;
use declarative_routing::service::{
    default_topology, IssueOptions, Request, Response, RoutingService, ServiceConfig,
    BEST_PATH_PROGRAM,
};

use crate::bench::{
    fill_span_metrics, layer, ratio, span_durations_ms, Budget, Ctx, E2eValue, LayerSums, Series,
    WorkloadResult,
};
use crate::oracle::{adds_finite_route, wire_route, ReplayView, ShortestPaths, Tally};
use crate::span;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::svc::{footprint_residue, link_fact, stat_field, Codec, Mix};

const SALT: u64 = 6;
const STEP_MS: u64 = 200;
const WARMUP_MS: u64 = 20_000;
const FLIP_EVERY: usize = 5;
const QUERIES: usize = 4;
/// The daemon's default real-time tick: the budget one service tick has.
const TICK_BUDGET_MS: f64 = 10.0;

/// Sizes of one instance.
struct Size {
    nodes: usize,
    sessions: usize,
    ticks: usize,
}

/// One session's replayed views, one per query.
type Views = BTreeMap<u64, ReplayView>;

/// A service with its sessions, the views they rebuilt, and each query's
/// injected link costs.
struct Deployment {
    svc: RoutingService,
    sids: Vec<u64>,
    qids: Vec<u64>,
    views: Vec<Views>,
    overrides: BTreeMap<u64, BTreeMap<(u32, u32), f64>>,
    now_ms: u64,
}

impl Deployment {
    fn advance(&mut self, millis: u64, tracer: &mut Tracer) {
        span!(tracer, "service.advance", self.svc.advance(SimDuration::from_millis(millis)));
        self.now_ms += millis;
    }

    /// Drain every session's outbox without the codec (set-up and
    /// settling, untimed) and apply the frames.
    fn drain_and_apply(&mut self) -> bool {
        let mut any_route = false;
        for (sid, views) in self.sids.iter().zip(self.views.iter_mut()) {
            for frame in self.svc.drain_outbox(*sid, usize::MAX) {
                any_route |= adds_finite_route(&frame);
                if let Response::Delta { qid, .. } = &frame {
                    views.entry(*qid).or_default().apply(&frame);
                }
            }
        }
        any_route
    }

    /// Hold every session's view of every query against the oracle, no
    /// detour tolerated (before the first link flip).
    fn check_views(&self, what: &str, nodes: usize, tally: &mut Tally) {
        let oracle = ShortestPaths::of(&default_topology(nodes));
        for &qid in &self.qids {
            for (s, views) in self.views.iter().enumerate() {
                match views.get(&qid) {
                    Some(view) => {
                        let label = format!("{what}: session {s} query {qid}");
                        tally.merge(oracle.check_routes(&label, view.finite_routes()));
                        tally.check(view.bad_removals == 0, || {
                            format!("{label}: {} deltas removed rows never held", view.bad_removals)
                        });
                    }
                    None => tally.fail(format!("{what}: session {s} saw no delta of query {qid}")),
                }
            }
        }
    }
}

impl Deployment {
    /// The oracle for query `qid`'s link costs as injected so far.
    fn oracle_of(&self, qid: u64, nodes: usize) -> ShortestPaths {
        let base = default_topology(nodes);
        let links = base.all_links().map(|(a, b, p)| {
            let (a, b) = (a.index() as u32, b.index() as u32);
            let cost = self.overrides.get(&qid).and_then(|o| o.get(&(a, b)));
            (a, b, cost.copied().unwrap_or(p.cost.value()))
        });
        ShortestPaths::from_links(nodes, links)
    }

    /// What the engine stores for query `qid`: a fresh cursor's first poll
    /// is the whole result multiset.
    fn stored(&self, qid: u64) -> Vec<WireTuple> {
        let rows = ResultCursor::new(qid).poll(self.svc.harness()).added;
        rows.iter().map(WireTuple::from_tuple).collect()
    }

    /// After the flips: every session's replayed view must equal the
    /// engine's own result set, so the delta streams add up to exactly what
    /// the deployment stores; and that result set must be the oracle's for
    /// the link costs injected into the query.
    fn check_views_after_flips(&self, nodes: usize, tally: &mut Tally) {
        for &qid in &self.qids {
            let stored = self.stored(qid);
            for (s, views) in self.views.iter().enumerate() {
                let same = views.get(&qid).is_some_and(|view| view.holds_exactly(&stored));
                tally.check(same, || {
                    format!("session {s}: replayed deltas of query {qid} differ from the stored results")
                });
            }
            let finite = stored.iter().filter_map(wire_route).filter(|r| r.cost.is_finite());
            let what = format!("query {qid} after the flips");
            tally.merge(self.oracle_of(qid, nodes).check_routes(&what, finite));
        }
    }

    /// Traced run only, after everything else was checked: *raise* one link
    /// cost per query, settle, and count the stored routes that are no
    /// longer the oracle's (README, open finding 5). The timed body only
    /// ever lowers costs, which the engine gets right.
    fn routes_wrong_after_increase(
        &mut self,
        mix: &mut Mix,
        nodes: usize,
        tally: &mut Tally,
    ) -> u64 {
        for &qid in &self.qids.clone() {
            let from = mix.below(nodes as u32);
            let to = (from + 1) % nodes as u32;
            let costs = self.overrides.entry(qid).or_default();
            let cost = costs.get(&(from, to)).copied().unwrap_or(1.0) * 4.0;
            costs.insert((from, to), cost);
            let inject =
                Request::InjectFacts { qid, node: from, facts: vec![link_fact(from, to, cost)] };
            let resp = self.svc.apply(self.sids[0], inject);
            tally.check(matches!(resp, Response::Injected { .. }), || {
                format!("inject refused: {resp:?}")
            });
        }
        self.advance(5_000, &mut Tracer::new(false));
        self.drain_and_apply();
        let mut wrong = 0;
        for &qid in &self.qids {
            let stored = self.stored(qid);
            let finite = stored.iter().filter_map(wire_route).filter(|r| r.cost.is_finite());
            wrong += self.oracle_of(qid, nodes).check_routes("", finite).failed;
        }
        wrong
    }
}

/// Build the deployment: sessions, queries, subscriptions, convergence.
/// Returns it with the wall-clock from the first issue to the first finite
/// route in a subscriber's hands.
fn deploy(size: &Size, tally: &mut Tally) -> Option<(Deployment, f64)> {
    let mut svc = RoutingService::new(default_topology(size.nodes), ServiceConfig::default());
    let sids: Vec<u64> = (0..size.sessions).map(|i| svc.connect(&format!("sub-{i}")).0).collect();
    let issue_start = Instant::now();
    let mut qids = Vec::new();
    for q in 0..QUERIES {
        let options = IssueOptions {
            issuer: (q * size.nodes / QUERIES) as u32,
            name: format!("fanout-{q}"),
            ..IssueOptions::default()
        };
        let issue = Request::IssueQuery { program: BEST_PATH_PROGRAM.to_string(), options };
        match svc.apply(sids[0], issue) {
            Response::Issued { qid } => {
                tally.pass();
                qids.push(qid);
            }
            other => {
                tally.fail(format!("issue refused: {other:?}"));
                return None;
            }
        }
    }
    for &sid in &sids {
        for &qid in &qids {
            let ok =
                matches!(svc.apply(sid, Request::Subscribe { qid }), Response::Subscribed { .. });
            tally.check(ok, || format!("session {sid} could not subscribe to query {qid}"));
        }
    }
    let mut dep = Deployment {
        svc,
        sids,
        qids,
        views: vec![Views::new(); size.sessions],
        overrides: BTreeMap::new(),
        now_ms: 0,
    };
    let mut silent = Tracer::new(false);
    let mut first_route_ms = None;
    while dep.now_ms < WARMUP_MS {
        // 200 ms steps until the first route shows, then one long advance.
        let step = if first_route_ms.is_some() { WARMUP_MS - dep.now_ms } else { STEP_MS };
        dep.advance(step, &mut silent);
        if dep.drain_and_apply() && first_route_ms.is_none() {
            first_route_ms = Some(issue_start.elapsed().as_secs_f64() * 1e3);
        }
    }
    dep.check_views("after warm-up", size.nodes, tally);
    match first_route_ms {
        Some(ms) => Some((dep, ms)),
        None => {
            tally.fail("no subscriber saw a finite route during warm-up");
            None
        }
    }
}

/// Samples shared by every instance of a run.
#[derive(Default)]
struct Ticks {
    tick_ms: Series,
    link_to_delta_ms: Series,
    converged_s: Series,
    lagged: u64,
    /// Traced run only: delta frames byte-identical to another frame of the
    /// same tick, and rows a cursor had to rescan to produce the deltas.
    duplicate_frames: u64,
    scanned_rows: u64,
}

/// The timed body: `size.ticks` ticks, a flip of the next query every fifth.
/// Returns the frames delivered.
#[allow(clippy::too_many_arguments)]
fn body(
    dep: &mut Deployment,
    size: &Size,
    mix: &mut Mix,
    ticks: &mut Ticks,
    codec: &mut Codec,
    layers: &mut LayerSums,
    fixed: bool,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> u64 {
    let traced = tracer.enabled();
    let mut buf = Vec::new();
    let mut delivered = 0u64;
    // The open flip: when it was injected (wall, simulated) and which
    // sessions have yet to see a delta for it.
    let mut flip: Option<(Instant, u64)> = None;
    let mut waiting: BTreeSet<usize> = BTreeSet::new();
    let mut last_delta_ms: Option<u64> = None;
    let mut received: Vec<Vec<Response>> = vec![Vec::new(); dep.sids.len()];

    let mut tick_frames: BTreeSet<Vec<u8>> = BTreeSet::new();

    for tick in 0..size.ticks {
        tracer.next_req();
        let op = tracer.begin("op.tick");
        let tick_start = Instant::now();
        if tick % FLIP_EVERY == 0 {
            if let (Some((_, at_ms)), Some(last)) = (flip, last_delta_ms) {
                ticks.converged_s.push(last.saturating_sub(at_ms) as f64 / 1e3, fixed);
            }
            // A flip halves the cost of one ring link in one query, and
            // each query is flipped once in an instance's life: the engine
            // mishandles a raised cost, and it can lose one of two changes
            // that are under way in the same query (README, open finding 5).
            let qid = dep.qids[tick / FLIP_EVERY];
            let from = mix.below(size.nodes as u32);
            let to = (from + 1) % size.nodes as u32;
            let cost = 0.5;
            dep.overrides.entry(qid).or_default().insert((from, to), cost);
            let inject =
                Request::InjectFacts { qid, node: from, facts: vec![link_fact(from, to, cost)] };
            let resp = span!(tracer, "service.apply.inject", dep.svc.apply(dep.sids[0], inject));
            tally.check(matches!(resp, Response::Injected { .. }), || {
                format!("inject refused: {resp:?}")
            });
            flip = Some((Instant::now(), dep.now_ms));
            waiting = (0..dep.sids.len()).collect();
            last_delta_ms = None;
        }
        dep.advance(STEP_MS, tracer);
        for (s, &sid) in dep.sids.iter().enumerate() {
            layers.max("service.outbox.depth_max", dep.svc.outbox_len(sid) as f64);
            let frames =
                span!(tracer, "service.drain_outbox", dep.svc.drain_outbox(sid, usize::MAX));
            for frame in &frames {
                match codec.roundtrip(frame, &mut buf, tracer) {
                    Some(decoded) => received[s].push(decoded),
                    None => tally.fail("a frame the service produced does not decode"),
                }
                if traced && !tick_frames.insert(buf.clone()) {
                    ticks.duplicate_frames += 1;
                }
            }
            if !frames.is_empty() && waiting.remove(&s) {
                if let Some((injected, _)) = flip {
                    ticks.link_to_delta_ms.push(injected.elapsed().as_secs_f64() * 1e3, fixed);
                }
            }
        }
        ticks.tick_ms.push(tick_start.elapsed().as_secs_f64() * 1e3, fixed);
        tracer.end(op);

        // Untimed: replay what arrived.
        for (views, frames) in dep.views.iter_mut().zip(received.iter_mut()) {
            for frame in frames.drain(..) {
                delivered += 1;
                match &frame {
                    Response::Delta { qid, now_millis, .. } => {
                        last_delta_ms = Some(*now_millis);
                        views.entry(*qid).or_default().apply(&frame);
                    }
                    Response::Lagged { .. } => ticks.lagged += 1,
                    _ => {}
                }
            }
        }
        if traced {
            tick_frames.clear();
            // Every poll rebuilds the query's whole result multiset.
            ticks.scanned_rows +=
                dep.views.iter().flat_map(BTreeMap::values).map(ReplayView::len).sum::<usize>()
                    as u64;
            // A zero-step advance right after a real one changes nothing in
            // the deployment: its whole cost is polling every subscription.
            span!(tracer, "service.poll", dep.svc.advance(SimDuration::ZERO));
            let stray: usize = dep.sids.iter().map(|&sid| dep.svc.outbox_len(sid)).sum();
            tally.check(stray == 0, || format!("a zero-step advance queued {stray} frames"));
        }
    }
    if let (Some((_, at_ms)), Some(last)) = (flip, last_delta_ms) {
        ticks.converged_s.push(last.saturating_sub(at_ms) as f64 / 1e3, fixed);
    }
    tally.check(waiting.is_empty(), || {
        format!("{} sessions saw no delta after the last flip", waiting.len())
    });
    delivered
}

fn per_node_kb(dep: &mut Deployment) -> Option<f64> {
    match dep.svc.apply(dep.sids[0], Request::Stats) {
        Response::Stats { lines } => stat_field(&lines, "overhead", "per_node_kb"),
        _ => None,
    }
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) -> WorkloadResult {
    let size = if ctx.quick {
        Size { nodes: 16, sessions: 8, ticks: 2 * FLIP_EVERY }
    } else {
        Size { nodes: 32, sessions: 32, ticks: QUERIES * FLIP_EVERY }
    };
    let mut budget = Budget::new(ctx, 1.9);
    let mut tally = Tally::default();
    let mut layers = LayerSums::default();
    let mut ticks = Ticks::default();
    let mut codec = Codec::default();
    let (mut setup, mut wall, mut first, mut kb, mut frames_per_s) = (
        Series::default(),
        Series::default(),
        Series::default(),
        Series::default(),
        Series::default(),
    );

    let workload_token = ctx.tracer.begin("workload");
    while budget.more() {
        let fixed = budget.in_fixed_set();
        let mut mix = Mix::new(ctx.instance_seed(SALT, budget.done()));

        let setup_start = Instant::now();
        let Some((mut dep, first_route_ms)) = deploy(&size, &mut tally) else { break };
        setup.push(setup_start.elapsed().as_secs_f64(), fixed);
        first.push(first_route_ms, fixed);
        let kb_before = per_node_kb(&mut dep);

        let body_start = Instant::now();
        let delivered = body(
            &mut dep,
            &size,
            &mut mix,
            &mut ticks,
            &mut codec,
            &mut layers,
            fixed,
            &mut ctx.tracer,
            &mut tally,
        );
        let body_wall = body_start.elapsed();
        budget.finished(body_wall);
        wall.push(body_wall.as_secs_f64(), fixed);
        frames_per_s.push(delivered as f64 / body_wall.as_secs_f64(), fixed);
        if let (Some(before), Some(after)) = (kb_before, per_node_kb(&mut dep)) {
            kb.push(after - before, fixed);
        }

        // Let the last flips settle, then every view against the oracle.
        let mut silent = Tracer::new(false);
        dep.advance(5_000, &mut silent);
        dep.drain_and_apply();
        dep.check_views_after_flips(size.nodes, &mut tally);
        if ctx.traced() && fixed {
            let wrong = dep.routes_wrong_after_increase(&mut mix, size.nodes, &mut tally);
            layers.add("core.processor.routes_wrong_after_increase", wrong as f64);
        }

        // Unwind: every query torn down, nothing left behind.
        for &qid in &dep.qids.clone() {
            let resp = dep.svc.apply(dep.sids[0], Request::TeardownQuery { qid });
            tally.check(matches!(resp, Response::TornDown { .. }), || {
                format!("teardown refused: {resp:?}")
            });
        }
        dep.advance(5_000, &mut silent);
        dep.drain_and_apply();
        let stats = match dep.svc.apply(dep.sids[0], Request::Stats) {
            Response::Stats { lines } => lines,
            _ => Vec::new(),
        };
        let (issued, torn_down) = (
            stat_field(&stats, "service", "queries_issued"),
            stat_field(&stats, "service", "queries_torn_down"),
        );
        tally.check(issued.is_some() && issued == torn_down, || {
            format!("issued {issued:?} queries but tore down {torn_down:?}")
        });
        let residue = footprint_residue(&stats);
        tally.check(residue == Some(0.0), || {
            format!("state footprint after the final teardown is {residue:?}, not empty")
        });
        let prov = stat_field(&stats, "processor", "prov_recorded");
        tally.check(prov == Some(0.0), || {
            format!("{prov:?} provenance records written with recording off")
        });
        let emptied = dep.views.iter().flat_map(BTreeMap::values).all(ReplayView::is_empty);
        tally.check(emptied, || "a subscriber still holds rows of a torn-down query".to_string());
        if fixed {
            layers.add("core.footprint.residue", residue.unwrap_or(0.0));
            layers.add("service.errors", stat_field(&stats, "service", "errors").unwrap_or(0.0));
            layers.add("workloads.nodes", size.nodes as f64);
        }
    }
    ctx.tracer.end(workload_token);

    let mut result = WorkloadResult::new("svc_fanout", &budget, tally);
    result.put("setup_s", E2eValue::per_instance(&setup));
    result.put("run_wall_s", E2eValue::per_instance(&wall));
    result.put("first_route_wall_ms", E2eValue::per_instance(&first));
    result.put("converged_sim_s", E2eValue::exact_median_of(&ticks.converged_s));
    result.put("per_node_kb", E2eValue::exact_mean_of(&kb));
    result.put("link_to_delta_p50_ms", E2eValue::median_of(&ticks.link_to_delta_ms));
    result.put("link_to_delta_tail_ms", E2eValue::tail_of(&ticks.link_to_delta_ms));
    result.put("tick_p50_ms", E2eValue::median_of(&ticks.tick_ms));
    result.put("tick_tail_ms", E2eValue::tail_of(&ticks.tick_ms));
    result.put("delta_frames_per_s", E2eValue::per_instance(&frames_per_s));

    if let Some(p50) = stats::median(ticks.tick_ms.all()) {
        let verdict = if p50 <= TICK_BUDGET_MS { "met" } else { "NOT met" };
        result.notes.push(format!(
            "tick_p50_ms = {p50:.2} ms at {} sessions x {QUERIES} queries; the daemon's {TICK_BUDGET_MS} ms tick budget is {verdict}",
            size.sessions
        ));
    }
    if ctx.traced() {
        let mut out = layers.per_instance(budget.fixed());
        // The maximum is not a per-instance sum.
        out.insert("service.outbox.depth_max", layers.get("service.outbox.depth_max"));
        out.insert("service.lagged", ticks.lagged as f64);
        codec.report(budget.fixed(), &mut out);
        fill_span_metrics(&mut out, &ctx.tracer);
        out.insert("trace.run_wall_s", E2eValue::per_instance(&wall).map_or(0.0, |v| v.value));
        let (frames, tuples) =
            (layer(&out, "service.protocol.frames"), layer(&out, "service.protocol.delta_tuples"));
        let n = budget.fixed() as f64;
        let scanned = ticks.scanned_rows as f64 / n;
        out.insert(
            "service.protocol.duplicate_frame_ratio",
            ratio(ticks.duplicate_frames as f64 / n, frames),
        );
        out.insert("core.harness.cursor_scanned_tuples", scanned);
        out.insert("core.harness.cursor_changed_tuples", frames * tuples);
        out.insert("core.harness.cursor_useful_ratio", ratio(frames * tuples, scanned));
        let poll_ms = layer(&out, "service.poll_ms");
        let tick_ms = stats::median(&span_durations_ms(&ctx.tracer, "op.tick")).unwrap_or(0.0);
        out.insert("service.poll_share", ratio(poll_ms, tick_ms));
        out.insert(
            "core.harness.cursor_poll_us",
            ratio(poll_ms * 1e3, (size.sessions * QUERIES) as f64),
        );
        result.notes.push(format!(
            "core.processor.routes_wrong_after_increase = {:.1} per instance: stored routes that are not the oracle's after one link cost per query was raised",
            layer(&out, "core.processor.routes_wrong_after_increase")
        ));
        result.notes.push(format!(
            "service.poll_share = {:.2} (zero-step advance {poll_ms:.2} ms / traced tick {tick_ms:.2} ms) at {} sessions",
            ratio(poll_ms, tick_ms),
            size.sessions
        ));
        result.layers = out;
    }
    result
}
