//! `svc_lifecycle`: the write-heavy service path over loopback TCP.
//!
//! One *instance* is one in-process `serve` on `127.0.0.1:0` with a
//! one-hour tick, so simulated time moves only when the client says so
//! and the request content is deterministic. One load thread drives two
//! connections in a closed loop (each call waits for its reply): `A`
//! issues, advances the clock, injects, reads stats and tears down; `B`
//! subscribes and then only reads. The request sequence of a round is
//! fixed (it never depends on when a push arrives), so simulated time and
//! every counter repeat exactly; where a round is entitled to a delta it
//! waits for it, which is how push latency gets measured.

use std::time::{Duration, Instant};

use declarative_routing::service::{
    default_topology, serve, Client, IssueOptions, Request, Response, RoutingService, ServerConfig,
    ServiceConfig, TcpTransport, BEST_PATH_PROGRAM,
};

use crate::bench::{
    fill_span_metrics, layer, span_durations_ms, Budget, Ctx, E2eValue, LayerSums, Series,
    WorkloadResult,
};
use crate::oracle::{adds_finite_route, ReplayView, ShortestPaths, Tally};
use crate::span;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::svc::{footprint_residue, link_fact, stat_field, Codec, Mix};

const SALT: u64 = 5;
/// 200 ms advances after the issue; the first delta arrives within them.
const STEPS_AFTER_ISSUE: usize = 3;
/// 200 ms advances after the link injection.
const STEPS_AFTER_INJECT: usize = 2;
const STEP_MS: u64 = 200;
const WARMUP_ROUNDS: usize = 2;

type Tcp = Client<TcpTransport>;

/// Per-round samples, shared by every instance of a run.
#[derive(Default)]
struct Rounds {
    first_route_ms: Series,
    converged_s: Series,
    link_to_delta_ms: Series,
    requests: u64,
    pushes: u64,
}

/// What `B` has seen of the round's query.
struct Watch {
    qid: u64,
    view: ReplayView,
    /// When the first delta adding a finite route arrived.
    first_route_at: Option<Instant>,
    /// When the first delta since the last [`Watch::rearm`] arrived.
    next_delta_at: Option<Instant>,
}

impl Watch {
    fn rearm(&mut self) {
        self.next_delta_at = None;
    }
}

struct Conns {
    a: Tcp,
    b: Tcp,
    /// Simulated time as of `A`'s last advance, ms.
    now_ms: u64,
}

/// How long `B` waits for a push the round is entitled to.
const PUSH_TIMEOUT: Duration = Duration::from_secs(3);

impl Conns {
    /// One request on `client`, spanned and tallied.
    fn request(
        client: &mut Tcp,
        name: &'static str,
        req: &Request,
        rounds: &mut Rounds,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) -> Option<Response> {
        rounds.requests += 1;
        match span!(tracer, name, client.request(req)) {
            Ok(resp) => {
                tally.pass();
                Some(resp)
            }
            Err(e) => {
                tally.fail(format!("{name}: {e}"));
                None
            }
        }
    }

    /// `A` advances the clock by `millis`, then `B` takes what has arrived.
    fn advance(
        &mut self,
        name: &'static str,
        millis: u64,
        watch: &mut Watch,
        rounds: &mut Rounds,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) {
        let req = Request::Advance { millis };
        if let Some(Response::Advanced { now_millis }) =
            Conns::request(&mut self.a, name, &req, rounds, tracer, tally)
        {
            self.now_ms = now_millis;
        }
        self.pump(watch, rounds, tracer, tally);
    }

    /// Read whatever pushes `B`'s socket holds (without blocking) into
    /// `watch`. Pushes about another query — there are none once a round
    /// has waited for its teardown delta — are dropped.
    fn pump(
        &mut self,
        watch: &mut Watch,
        rounds: &mut Rounds,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) {
        let pushed = match span!(tracer, "service.client.poll_pushed", self.b.poll_pushed()) {
            Ok(pushed) => pushed,
            Err(e) => {
                tally.fail(format!("poll_pushed: {e}"));
                return;
            }
        };
        let now = Instant::now();
        rounds.pushes += pushed.len() as u64;
        for push in pushed {
            if !matches!(&push, Response::Delta { qid, .. } if *qid == watch.qid) {
                continue;
            }
            watch.next_delta_at.get_or_insert(now);
            if adds_finite_route(&push) {
                watch.first_route_at.get_or_insert(now);
            }
            watch.view.apply(&push);
        }
    }

    /// Pump until `done(watch)` holds or [`PUSH_TIMEOUT`] passes. The server
    /// pushes only when its request queue runs empty, so a delta can trail
    /// the reply that caused it; the short sleeps are that idle moment.
    fn wait(
        &mut self,
        watch: &mut Watch,
        done: impl Fn(&Watch) -> bool,
        rounds: &mut Rounds,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) -> bool {
        let start = Instant::now();
        loop {
            if done(watch) {
                return true;
            }
            if start.elapsed() > PUSH_TIMEOUT {
                return false;
            }
            std::thread::sleep(Duration::from_micros(100));
            self.pump(watch, rounds, tracer, tally);
        }
    }
}

/// One issue → subscribe → converge → inject → stats → teardown round.
#[allow(clippy::too_many_arguments)]
fn round(
    conns: &mut Conns,
    mix: &mut Mix,
    nodes: u32,
    oracle: &ShortestPaths,
    rounds: &mut Rounds,
    fixed: bool,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Option<Vec<String>> {
    tracer.next_req();
    let op = tracer.begin("op.round");
    let issuer = mix.below(nodes);
    let flip_from = mix.below(nodes);

    let issue_start = Instant::now();
    let issued_at_ms = conns.now_ms;
    let options = IssueOptions { issuer, name: "bench".to_string(), ..IssueOptions::default() };
    let issue = Request::IssueQuery { program: BEST_PATH_PROGRAM.to_string(), options };
    let Some(Response::Issued { qid }) =
        Conns::request(&mut conns.a, "service.client.request.issue", &issue, rounds, tracer, tally)
    else {
        tracer.end(op);
        return None;
    };
    let subscribe = Request::Subscribe { qid };
    Conns::request(
        &mut conns.b,
        "service.client.request.subscribe",
        &subscribe,
        rounds,
        tracer,
        tally,
    );
    let mut watch =
        Watch { qid, view: ReplayView::default(), first_route_at: None, next_delta_at: None };

    for _ in 0..STEPS_AFTER_ISSUE {
        conns.advance("service.client.request.advance", STEP_MS, &mut watch, rounds, tracer, tally);
    }
    conns.wait(&mut watch, |w| w.first_route_at.is_some(), rounds, tracer, tally);
    match watch.first_route_at {
        Some(at) => {
            tally.pass();
            rounds.first_route_ms.push((at - issue_start).as_secs_f64() * 1e3, fixed);
        }
        None => tally.fail(format!("no finite route of query {qid} reached the subscriber")),
    }

    // Let the query converge, then hold the subscriber's replayed view
    // against the oracle.
    conns.advance("service.client.request.advance5s", 5_000, &mut watch, rounds, tracer, tally);
    let converged = |w: &Watch| oracle.check_routes("", w.view.finite_routes()).failed == 0;
    conns.wait(&mut watch, converged, rounds, tracer, tally);
    tally.merge(oracle.check_routes("subscriber view", watch.view.finite_routes()));
    if let Some(last) = watch.view.last_delta_millis {
        rounds.converged_s.push(last.saturating_sub(issued_at_ms) as f64 / 1e3, fixed);
    }

    // A link-cost flip through the query's dataflow, and the delta it causes.
    let flip_to = (flip_from + 1) % nodes;
    let inject = Request::InjectFacts {
        qid,
        node: flip_from,
        facts: vec![link_fact(flip_from, flip_to, 4.0)],
    };
    watch.rearm();
    Conns::request(&mut conns.a, "service.client.request.inject", &inject, rounds, tracer, tally);
    let inject_done = Instant::now();
    for _ in 0..STEPS_AFTER_INJECT {
        conns.advance("service.client.request.advance", STEP_MS, &mut watch, rounds, tracer, tally);
    }
    conns.wait(&mut watch, |w| w.next_delta_at.is_some(), rounds, tracer, tally);
    match watch.next_delta_at {
        Some(at) => {
            tally.pass();
            let ms = at.saturating_duration_since(inject_done).as_secs_f64() * 1e3;
            rounds.link_to_delta_ms.push(ms, fixed);
        }
        None => tally.fail(format!("the link flip on query {qid} produced no delta")),
    }

    let stats = match Conns::request(
        &mut conns.a,
        "service.client.request.stats",
        &Request::Stats,
        rounds,
        tracer,
        tally,
    ) {
        Some(Response::Stats { lines }) => Some(lines),
        _ => None,
    };

    let teardown = Request::TeardownQuery { qid };
    Conns::request(
        &mut conns.a,
        "service.client.request.teardown",
        &teardown,
        rounds,
        tracer,
        tally,
    );
    conns.advance("service.client.request.advance2s", 2_000, &mut watch, rounds, tracer, tally);
    conns.wait(&mut watch, |w| w.view.is_empty(), rounds, tracer, tally);
    tally.check(watch.view.is_empty(), || {
        format!("{} rows of torn-down query {qid} still in the subscriber's view", watch.view.len())
    });
    tally.check(watch.view.bad_removals == 0, || {
        format!("{} deltas removed rows the subscriber never held", watch.view.bad_removals)
    });
    tracer.end(op);
    stats
}

/// Direct `RoutingService::apply` timings: the same requests with no
/// sockets, threads or codec in the way.
fn inproc_probe(nodes: usize, rounds: usize, seed: u64, tracer: &mut Tracer, tally: &mut Tally) {
    let mut svc = RoutingService::new(default_topology(nodes), ServiceConfig::default());
    let (a, _) = svc.connect("probe-a");
    let (b, _) = svc.connect("probe-b");
    let mut mix = Mix::new(seed);
    for _ in 0..rounds {
        let issuer = mix.below(nodes as u32);
        let from = mix.below(nodes as u32);
        let options = IssueOptions { issuer, ..IssueOptions::default() };
        let issue = Request::IssueQuery { program: BEST_PATH_PROGRAM.to_string(), options };
        let Response::Issued { qid } = span!(tracer, "service.apply.issue", svc.apply(a, issue))
        else {
            tally.fail("in-process issue refused");
            return;
        };
        span!(tracer, "service.apply.subscribe", svc.apply(b, Request::Subscribe { qid }));
        span!(
            tracer,
            "service.advance",
            svc.advance(declarative_routing::netsim::SimDuration::from_secs(5))
        );
        let fact = link_fact(from, (from + 1) % nodes as u32, 4.0);
        let inject = Request::InjectFacts { qid, node: from, facts: vec![fact] };
        span!(tracer, "service.apply.inject", svc.apply(a, inject));
        span!(tracer, "service.apply.stats", svc.apply(a, Request::Stats));
        span!(tracer, "service.apply.teardown", svc.apply(a, Request::TeardownQuery { qid }));
        svc.advance(declarative_routing::netsim::SimDuration::from_secs(2));
        svc.drain_outbox(b, usize::MAX);
    }
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) -> WorkloadResult {
    let nodes: usize = if ctx.quick { 8 } else { 16 };
    let rounds_per_instance = if ctx.quick { 3 } else { 8 };
    let oracle = ShortestPaths::of(&default_topology(nodes));
    let mut budget = Budget::new(ctx, 0.45);
    let mut tally = Tally::default();
    let mut layers = LayerSums::default();
    let mut rounds = Rounds::default();
    let (mut setup, mut wall, mut ops_per_s, mut per_node_kb) =
        (Series::default(), Series::default(), Series::default(), Series::default());
    let mut codec = Codec::default();

    let workload_token = ctx.tracer.begin("workload");
    while budget.more() {
        let fixed = budget.in_fixed_set();
        let seed = ctx.instance_seed(SALT, budget.done());
        let mut mix = Mix::new(seed);

        // Set-up: server, two connections, warm-up rounds.
        let setup_start = Instant::now();
        let config = ServerConfig { tick: Duration::from_secs(3600), ..ServerConfig::default() };
        let server = match serve("127.0.0.1:0", default_topology(nodes), config) {
            Ok(server) => server,
            Err(e) => {
                tally.fail(format!("serve on loopback: {e}"));
                break;
            }
        };
        let addr = server.addr().to_string();
        let connect = |name: &str, tracer: &mut Tracer| {
            span!(
                tracer,
                "service.server.connect",
                TcpTransport::dial(&addr)
                    .map_err(|e| e.to_string())
                    .and_then(|t| { Client::connect(t, name).map_err(|e| e.to_string()) })
            )
        };
        let (a, b) =
            match (connect("bench-a", &mut ctx.tracer), connect("bench-b", &mut ctx.tracer)) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(e), _) | (_, Err(e)) => {
                    tally.fail(format!("connect over loopback: {e}"));
                    server.shutdown();
                    server.join();
                    break;
                }
            };
        let mut conns = Conns { a, b, now_ms: 0 };
        if ctx.traced() {
            // Round trips with no subscription anywhere: the server's floor.
            let noop = Request::Advance { millis: 0 };
            let mut unused = Rounds::default();
            for _ in 0..50 {
                Conns::request(
                    &mut conns.a,
                    "service.client.request.noop",
                    &noop,
                    &mut unused,
                    &mut ctx.tracer,
                    &mut tally,
                );
            }
        }
        let mut warmup = Rounds::default();
        let mut silent = Tracer::new(false);
        for _ in 0..WARMUP_ROUNDS {
            round(
                &mut conns,
                &mut mix,
                nodes as u32,
                &oracle,
                &mut warmup,
                false,
                &mut silent,
                &mut tally,
            );
        }
        setup.push(setup_start.elapsed().as_secs_f64(), fixed);

        // Timed body.
        let requests_before = rounds.requests;
        let body_start = Instant::now();
        let mut last_stats = None;
        for _ in 0..rounds_per_instance {
            let stats = round(
                &mut conns,
                &mut mix,
                nodes as u32,
                &oracle,
                &mut rounds,
                fixed,
                &mut ctx.tracer,
                &mut tally,
            );
            last_stats = stats.or(last_stats);
        }
        let body = body_start.elapsed();
        budget.finished(body);
        wall.push(body.as_secs_f64(), fixed);
        ops_per_s.push((rounds.requests - requests_before) as f64 / body.as_secs_f64(), fixed);

        // What the deployment looks like once everything is torn down.
        let final_stats = match Conns::request(
            &mut conns.a,
            "service.client.request.stats",
            &Request::Stats,
            &mut Rounds::default(),
            &mut Tracer::new(false),
            &mut tally,
        ) {
            Some(Response::Stats { lines }) => lines,
            _ => Vec::new(),
        };
        let issued = stat_field(&final_stats, "service", "queries_issued");
        let torn_down = stat_field(&final_stats, "service", "queries_torn_down");
        tally.check(issued.is_some() && issued == torn_down, || {
            format!("issued {issued:?} queries but tore down {torn_down:?}")
        });
        let residue = footprint_residue(&final_stats);
        tally.check(residue == Some(0.0), || {
            format!("state footprint after the final teardown is {residue:?}, not empty")
        });
        let prov = stat_field(&final_stats, "processor", "prov_recorded");
        tally.check(prov == Some(0.0), || {
            format!("{prov:?} provenance records written with recording off")
        });
        if let Some(kb) = stat_field(&final_stats, "overhead", "per_node_kb") {
            per_node_kb.push(kb, fixed);
        }
        if fixed {
            layers.add("core.footprint.residue", residue.unwrap_or(0.0));
            layers.add(
                "service.errors",
                stat_field(&final_stats, "service", "errors").unwrap_or(0.0),
            );
            if let Some(lines) = &last_stats {
                for (layer, field) in [
                    ("core.footprint.stored_tuples", "stored_tuples"),
                    ("core.footprint.prune_entries", "prune_entries"),
                    ("core.footprint.pending_tuples", "pending_tuples"),
                    ("core.footprint.prov_records", "prov_records"),
                ] {
                    layers.add(layer, stat_field(lines, "footprint", field).unwrap_or(0.0));
                }
            }
            for (layer, field) in [
                ("core.processor.tuples_derived", "tuples_derived"),
                ("core.processor.tuples_pruned", "tuples_pruned"),
                ("core.processor.tuples_sent", "tuples_sent"),
                ("core.processor.tuples_received", "tuples_received"),
                ("core.processor.tombstones_collapsed", "tombstones_collapsed"),
                ("core.processor.prune_evicted", "prune_evicted"),
                ("core.processor.tuples_rejected", "tuples_rejected"),
                ("core.processor.batches", "batches"),
            ] {
                layers.add(layer, stat_field(&final_stats, "processor", field).unwrap_or(0.0));
            }
            layers.add("workloads.nodes", nodes as f64);
        }

        if let Err(e) = conns.a.shutdown_server() {
            tally.fail(format!("shutdown: {e}"));
            server.shutdown();
        }
        server.join();

        if ctx.traced() {
            inproc_probe(nodes, rounds_per_instance, seed, &mut ctx.tracer, &mut tally);
        }
    }
    if ctx.traced() {
        // What one converged result set costs to encode and decode.
        codec.probe(nodes, &mut ctx.tracer);
        super::frontend_probe(&mut ctx.tracer);
    }
    ctx.tracer.end(workload_token);

    let mut result = WorkloadResult::new("svc_lifecycle", &budget, tally);
    result.put("setup_s", E2eValue::per_instance(&setup));
    result.put("run_wall_s", E2eValue::per_instance(&wall));
    result.put("first_route_wall_ms", E2eValue::median_of(&rounds.first_route_ms));
    result.put("converged_sim_s", E2eValue::exact_median_of(&rounds.converged_s));
    result.put("per_node_kb", E2eValue::exact_mean_of(&per_node_kb));
    result.put("lifecycle_ops_per_s", E2eValue::per_instance(&ops_per_s));
    result.put("link_to_delta_p50_ms", E2eValue::median_of(&rounds.link_to_delta_ms));
    result.put("link_to_delta_tail_ms", E2eValue::tail_of(&rounds.link_to_delta_ms));

    if ctx.traced() {
        let mut out = layers.per_instance(budget.fixed());
        out.insert("service.client.pushes_stashed", rounds.pushes as f64 / budget.fixed() as f64);
        out.insert("datalog.parser.program_bytes", BEST_PATH_PROGRAM.len() as f64);
        codec.report(1, &mut out);
        fill_span_metrics(&mut out, &ctx.tracer);
        out.insert("trace.run_wall_s", E2eValue::per_instance(&wall).map_or(0.0, |v| v.value));
        let noop = span_durations_ms(&ctx.tracer, "service.client.request.noop");
        if let Some(tail) = stats::tail_percentile(noop.len()) {
            out.insert(
                "service.server.rtt_noop_tail_ms",
                stats::percentile(&noop, tail).unwrap_or(0.0),
            );
        }
        let (tcp_ms, inproc_us) =
            (layer(&out, "service.server.rtt_issue_p50_ms"), layer(&out, "service.apply.issue_us"));
        if inproc_us > 0.0 {
            let ratio = tcp_ms * 1e3 / inproc_us;
            out.insert("service.server.tcp_over_inproc_issue", ratio);
            result.notes.push(format!(
                "service.server.tcp_over_inproc_issue = {ratio:.2} (issue over TCP {:.1} us / direct apply {inproc_us:.1} us)",
                tcp_ms * 1e3
            ));
        }
        result.layers = out;
    }
    result
}
