use super::*;
use dr_datalog::parse_program;
use dr_netsim::LinkParams;
use dr_types::{Cost, CostEntry, Value};

pub(crate) const BEST_PATH: &str = r#"
    #key(link, 0, 1).
    #key(path, 0, 1, 2).
    #key(bestPathCost, 0, 1).
    #key(bestPath, 0, 1).
    NR1: path(@S,D,P,C) :- link(@S,D,C), P = f_initPath(S,D).
    NR2: path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2),
         C = C1 + C2, P = f_prepend(S,P2), f_inPath(P2,S) = false.
    NR3: path(@S,D,P,C) :- link(@S,W,C1), path(@S,D,P,C2),
         f_inPath(P,W) = true, C1 = infinity, C = infinity.
    BPR1: bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).
    BPR2: bestPath(@S,D,P,C) :- bestPathCost(@S,D,C), path(@S,D,P,C).
    Query: bestPath(@S,D,P,C).
"#;

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

/// The five-node network of the paper's Figure 3 (a=0, b=1, c=2, d=3,
/// e=4), unit link costs.
fn figure3_topology() -> Topology {
    let mut t = Topology::new(5);
    for (a, b) in [(0u32, 1u32), (0, 2), (1, 3), (2, 3), (3, 4)] {
        t.add_bidirectional(
            n(a),
            n(b),
            LinkParams::with_latency_ms(10.0).with_cost(Cost::new(1.0)),
        );
    }
    t
}

fn line_topology(k: usize) -> Topology {
    let mut t = Topology::new(k);
    for i in 0..k - 1 {
        t.add_bidirectional(
            n(i as u32),
            n(i as u32 + 1),
            LinkParams::with_latency_ms(10.0).with_cost(Cost::new(1.0)),
        );
    }
    t
}

fn best_path_of(
    harness: &RoutingHarness,
    handle: &QueryHandle<RouteEntry>,
    s: u32,
    d: u32,
) -> Option<RouteEntry> {
    handle
        .results_at(harness, n(s))
        .expect("results decode as routes")
        .into_iter()
        .find(|r| r.src == n(s) && r.dst == n(d))
}

#[test]
fn distributed_best_path_converges_on_figure3() {
    let program = parse_program(BEST_PATH).unwrap();
    let mut harness = RoutingHarness::new(figure3_topology());
    let handle = harness.issue(program).submit().unwrap();
    harness.run_until(SimTime::from_secs(30));

    // Every node has a best path to every other node (5 * 4 = 20).
    let results = handle.finite_results(&harness).unwrap();
    assert_eq!(results.len(), 20, "expected all-pairs best paths, got {}", results.len());

    // Node a (0) reaches e (4) in 3 hops at cost 3.
    let route = best_path_of(&harness, &handle, 0, 4).unwrap();
    assert_eq!(route.cost, Cost::new(3.0));
    assert_eq!(route.path.len(), 4);
    assert_eq!(route.path.head(), Some(n(0)));
    assert_eq!(route.path.last(), Some(n(4)));

    // The forwarding table at a points toward b or c for destination e.
    let fwd = handle.forwarding_table(&harness, n(0));
    let next = fwd[&n(4)];
    assert!(next == n(1) || next == n(2));

    // Communication actually happened.
    assert!(harness.sim().metrics().total_bytes() > 0);
    assert!(harness.per_node_overhead_kb() > 0.0);
}

#[test]
fn distributed_result_matches_centralized_evaluation() {
    // The distributed execution must agree with the centralized
    // evaluator on bestPathCost values.
    let program = parse_program(BEST_PATH).unwrap();
    let mut harness = RoutingHarness::new(figure3_topology());
    let handle = harness.issue(program).from(n(3)).submit().unwrap();
    harness.run_until(SimTime::from_secs(30));

    let mut central_db = dr_datalog::Database::new();
    for (a, b) in [(0u32, 1u32), (0, 2), (1, 3), (2, 3), (3, 4)] {
        for (s, d) in [(a, b), (b, a)] {
            central_db.insert(Tuple::new(
                "link",
                vec![Value::Node(n(s)), Value::Node(n(d)), Value::Cost(Cost::new(1.0))],
            ));
        }
    }
    dr_datalog::Evaluator::new(parse_program(BEST_PATH).unwrap())
        .unwrap()
        .run(&mut central_db)
        .unwrap();
    let central: Vec<CostEntry> = central_db
        .tuples("bestPathCost")
        .iter()
        .map(|t| CostEntry::from_tuple(t).unwrap())
        .collect();

    for src in 0..5u32 {
        for dst in 0..5u32 {
            if src == dst {
                continue;
            }
            let distributed = best_path_of(&harness, &handle, src, dst).map(|r| r.cost);
            let reference =
                central.iter().find(|e| e.src == n(src) && e.dst == n(dst)).map(|e| e.cost);
            assert_eq!(distributed, reference, "cost mismatch for {src}->{dst}");
        }
    }
}

#[test]
fn sampled_scenario_detects_stabilization() {
    let report = crate::scenario::ScenarioBuilder::over(line_topology(4))
        .query(crate::scenario::QueryDef::new(parse_program(BEST_PATH).unwrap()))
        .sample_every(SimDuration::from_millis(500))
        .until(SimTime::from_secs(20))
        .run()
        .unwrap();
    let query = &report.queries[0];
    let converged = query.converged_at.expect("query should converge");
    assert!(converged < SimTime::from_secs(20));
    assert_eq!(query.samples.last().map(|s| s.results), Some(12)); // 4*3 pairs
    assert!(report.per_node_overhead_kb > 0.0);
    // samples are monotone in time
    assert!(query.samples.windows(2).all(|w| w[0].time < w[1].time));
}

#[test]
fn link_failure_triggers_incremental_recovery() {
    // Square: 0-1-3 and 0-2-3, plus spur 3-4 (figure 3 shape). Fail node
    // 3's neighbor link by failing node 1; route 0->3 must switch to via
    // 2 without reissuing the query.
    let program = parse_program(BEST_PATH).unwrap();
    let mut harness = RoutingHarness::new(figure3_topology());
    let handle = harness.issue(program).submit().unwrap();
    harness.run_until(SimTime::from_secs(30));
    let before = best_path_of(&harness, &handle, 0, 3).unwrap();
    assert_eq!(before.cost, Cost::new(2.0));

    // Fail node 1 at t=30s; give the system time to recompute.
    harness.sim_mut().schedule_node_fail(SimTime::from_secs(30), n(1));
    harness.run_until(SimTime::from_secs(60));

    let after = best_path_of(&harness, &handle, 0, 3).unwrap();
    assert_eq!(after.cost, Cost::new(2.0), "route should recover via node 2: {after:?}");
    assert!(after.traverses(n(2)), "recovered path must avoid node 1: {after:?}");
    assert!(!after.traverses(n(1)));

    // Paths from 0 to 4 also recover (via 2).
    let to_e = best_path_of(&harness, &handle, 0, 4).unwrap();
    assert_eq!(to_e.cost, Cost::new(3.0));
    assert!(!to_e.traverses(n(1)));
}

#[test]
fn link_cost_increase_recomputes_routes() {
    // Triangle 0-1-2 with a heavy direct edge 0-2; after the light path
    // through 1 gets expensive, the direct edge wins.
    let mut topo = Topology::new(3);
    topo.add_bidirectional(n(0), n(1), LinkParams::with_latency_ms(5.0).with_cost(Cost::new(1.0)));
    topo.add_bidirectional(n(1), n(2), LinkParams::with_latency_ms(5.0).with_cost(Cost::new(1.0)));
    topo.add_bidirectional(n(0), n(2), LinkParams::with_latency_ms(5.0).with_cost(Cost::new(5.0)));
    let program = parse_program(BEST_PATH).unwrap();
    let mut harness = RoutingHarness::new(topo);
    let handle = harness.issue(program).submit().unwrap();
    harness.run_until(SimTime::from_secs(20));
    let before = best_path_of(&harness, &handle, 0, 2).unwrap();
    assert_eq!(before.cost, Cost::new(2.0));
    assert_eq!(before.path.len(), 3);

    // Make 1->2 (and 2->1) expensive.
    for (a, b) in [(1u32, 2u32), (2, 1)] {
        harness.sim_mut().schedule_link_metric_change(
            SimTime::from_secs(20),
            n(a),
            n(b),
            LinkParams::with_latency_ms(5.0).with_cost(Cost::new(50.0)),
        );
    }
    harness.run_until(SimTime::from_secs(60));
    let after = best_path_of(&harness, &handle, 0, 2).unwrap();
    assert_eq!(
        after.cost,
        Cost::new(5.0),
        "direct route should win after the cost increase: {after:?}"
    );
    assert_eq!(after.path.len(), 2);
}

#[test]
fn aggregate_selections_reduce_traffic_but_keep_answers() {
    let program = parse_program(BEST_PATH).unwrap();

    let run = |agg: bool| {
        let mut harness = RoutingHarness::new(figure3_topology());
        let handle = harness.issue(program.clone()).aggregate_selections(agg).submit().unwrap();
        harness.run_until(SimTime::from_secs(40));
        let mut costs: Vec<(NodeId, NodeId, u64)> = handle
            .finite_results(&harness)
            .unwrap()
            .into_iter()
            .map(|r| (r.src, r.dst, r.cost.value() as u64))
            .collect();
        costs.sort();
        (harness.sim().metrics().total_bytes(), costs)
    };

    let (bytes_opt, costs_opt) = run(true);
    let (bytes_plain, costs_plain) = run(false);
    assert_eq!(costs_opt, costs_plain, "optimization must not change best paths");
    assert!(
        bytes_opt <= bytes_plain,
        "aggregate selections should not increase traffic ({bytes_opt} vs {bytes_plain})"
    );
}

#[test]
fn issuing_from_any_node_reaches_the_whole_network() {
    // Dissemination is by flooding: issuing at the far end of a line
    // still installs the query everywhere.
    let program = parse_program(BEST_PATH).unwrap();
    let mut harness = RoutingHarness::new(line_topology(5));
    let handle = harness.issue(program).from(n(4)).submit().unwrap();
    harness.run_until(SimTime::from_secs(30));
    for i in 0..5u32 {
        assert!(
            harness.sim().app(n(i)).installed_queries().contains(&handle.id()),
            "node {i} never installed the query"
        );
    }
    assert_eq!(handle.finite_results(&harness).unwrap().len(), 20);
}

#[test]
fn unknown_query_id_is_ignored() {
    let mut harness = RoutingHarness::new(line_topology(2));
    harness.sim_mut().inject(SimTime::ZERO, n(0), NetMsg::Install { qid: 999 });
    harness.run_to_quiescence();
    assert!(harness.sim().app(n(0)).installed_queries().is_empty());
}

#[test]
fn builder_records_the_canonical_spec() {
    let program = parse_program(BEST_PATH).unwrap();
    let mut harness = RoutingHarness::new(line_topology(2));
    let handle = harness
        .issue(program)
        .from(n(1))
        .at(SimTime::from_secs(1))
        .named("spec-check")
        .replicated(["magicDsts"])
        .aggregate_selections(false)
        .sharing(true)
        .cache_relation("latCache")
        .fact(Tuple::new("magicDsts", vec![Value::Node(n(1))]))
        .submit()
        .unwrap();
    assert_eq!(handle.name(), "spec-check");
    let spec = harness.library().get(handle.id()).expect("spec registered");
    assert_eq!(spec.name, "spec-check");
    assert!(!spec.aggregate_selections);
    assert!(spec.share_results);
    assert_eq!(spec.cache_relation, "latCache");
    assert_eq!(spec.replicated, vec!["magicDsts".to_string()]);
    assert_eq!(spec.facts.len(), 1);
}

#[test]
fn a_rule_failing_at_evaluation_is_counted_and_spares_the_other_rules() {
    // The extra rule adds two node addresses: every evaluation of it fails
    // on the operand types, which used to vanish without a trace — at one
    // site for plain rules, at another for aggregates.
    let program = |extra_rule: &str| {
        parse_program(&BEST_PATH.replace("Query:", &format!("{extra_rule}\n Query:"))).unwrap()
    };
    let outcome = |extra_rule: &str| {
        let mut harness = RoutingHarness::new(line_topology(4));
        let handle = harness.issue(program(extra_rule)).submit().unwrap();
        harness.run_until(SimTime::from_secs(30));
        let mut routes = handle.raw_results(&harness);
        routes.sort();
        (routes, harness.processor_stats().eval_errors)
    };
    let healthy = outcome("");
    assert_eq!(healthy.0.len(), 12); // 4*3 ordered pairs
    assert_eq!(healthy.1, 0);
    for bad_rule in [
        "BAD: broken(@S,D,X) :- link(@S,D,C), X = S + D.",
        "BAD: worst(@S,max<X>) :- link(@S,D,C), X = S + D.",
    ] {
        let failing = outcome(bad_rule);
        assert_eq!(healthy.0, failing.0, "the healthy rules' results are unaffected");
        assert!(failing.1 > 0, "the failing rule's evaluations are counted: {bad_rule}");
    }
    // A call to a function no node registers fails on every evaluation, so
    // it is refused at the door instead.
    let mut harness = RoutingHarness::new(line_topology(4));
    let unknown = "BAD: broken(@S,D,X) :- link(@S,D,C), X = f_noSuchFunction(S,D).";
    let err = harness.issue(program(unknown)).submit().unwrap_err();
    assert!(matches!(err, dr_types::Error::Planning(_)), "{err}");
}

#[test]
fn handle_view_retyping_projects_reachability() {
    use dr_types::ReachEntry;
    let program = parse_program(BEST_PATH).unwrap();
    let mut harness = RoutingHarness::new(line_topology(3));
    let handle = harness.issue(program).submit().unwrap();
    harness.run_until(SimTime::from_secs(30));
    let reach: Vec<ReachEntry> = handle.with_view::<ReachEntry>().results(&harness).unwrap();
    assert_eq!(reach.len(), 6); // 3*2 ordered pairs
    let routes = handle.results(&harness).unwrap();
    assert_eq!(reach.len(), routes.len());
}

#[test]
fn mismatched_view_is_a_decode_error_not_a_silent_count() {
    // Regression for the Fig. 6-9 count inflation: typing a route-shaped
    // query with a 3-ary cost view must surface Error::Decode from
    // finite_results, not silently count malformed rows as finite.
    let program = parse_program(BEST_PATH).unwrap();
    let mut harness = RoutingHarness::new(line_topology(3));
    let handle = harness.issue(program).submit_view::<CostEntry>().unwrap();
    harness.run_until(SimTime::from_secs(30));
    let err = handle.finite_results(&harness).unwrap_err();
    assert!(matches!(err, dr_types::Error::Decode(_)), "{err}");
    let err = handle.average_cost(&harness).unwrap_err();
    assert!(matches!(err, dr_types::Error::Decode(_)), "{err}");
}

#[test]
fn negated_atom_delta_recomputes_aggregate() {
    // Regression: the per-batch aggregate trigger must fire when the
    // only delta of the batch is on a *negated* body atom. The rule
    // keeps, per (S, D), the cheapest candidate whose via-node is not
    // suppressed; suppressing the current winner must promote the
    // runner-up even though no positive atom changed.
    let program = parse_program(
        r#"
        A1: best(@S,D,min<C>) :- cand(@S,D,Z,C), !suppressed(@S,Z).
        Query: best(@S,D,C).
        "#,
    )
    .unwrap();
    let cand = |z: u32, c: f64| {
        Tuple::new(
            "cand",
            vec![Value::Node(n(0)), Value::Node(n(1)), Value::Node(n(z)), Value::from(c)],
        )
    };
    let mut harness = RoutingHarness::new(line_topology(2));
    let handle =
        harness.issue(program).from(n(0)).facts(vec![cand(7, 2.0), cand(8, 5.0)]).submit().unwrap();
    harness.run_until(SimTime::from_secs(5));
    let qid = handle.id();
    let best = harness.sim().app(n(0)).tuples(qid, "best");
    assert_eq!(best.len(), 1);
    assert_eq!(best[0].field(2).and_then(Value::as_cost), Some(Cost::new(2.0)));

    // Suppress the winner's via-node: arrives as a delta on the negated
    // relation only.
    let suppress = Tuple::new("suppressed", vec![Value::Node(n(0)), Value::Node(n(7))]);
    harness.sim_mut().inject(
        SimTime::from_secs(5),
        n(0),
        NetMsg::Tuples { qid, seq: None, batch: vec![(suppress, None)] },
    );
    harness.run_until(SimTime::from_secs(10));
    let best = harness.sim().app(n(0)).tuples(qid, "best");
    assert_eq!(best.len(), 1, "aggregate output stays keyed per (S,D): {best:?}");
    assert_eq!(
        best[0].field(2).and_then(Value::as_cost),
        Some(Cost::new(5.0)),
        "suppressing the minimum's via-node must promote the runner-up"
    );
}

#[test]
fn teardown_unwinds_every_node_and_the_library() {
    let program = parse_program(BEST_PATH).unwrap();
    let mut harness = RoutingHarness::new(figure3_topology());
    let baseline = harness.state_footprint();
    assert!(baseline.is_empty());

    let handle = harness.issue(program).submit().unwrap();
    harness.run_until(SimTime::from_secs(30));
    assert_eq!(handle.finite_results(&harness).unwrap().len(), 20);
    assert!(!harness.state_footprint().is_empty());
    assert!(harness.library().get(handle.id()).is_some());

    harness.teardown(handle.id(), SimTime::from_secs(30));
    harness.run_to_quiescence();

    for i in 0..5u32 {
        let app = harness.sim().app(n(i));
        assert!(app.installed_queries().is_empty(), "node {i} kept the instance");
        assert!(app.is_torn_down(handle.id()));
        assert_eq!(app.pending_tuples(handle.id()), 0);
        assert_eq!(app.prune_entries(handle.id()), 0);
    }
    assert!(harness.library().get(handle.id()).is_none(), "spec must leave the library");
    assert_eq!(harness.state_footprint(), baseline, "teardown left residue");
    assert!(handle.raw_results(&harness).is_empty());

    // A late Install flood for the dead query must not resurrect it.
    harness.sim_mut().inject(SimTime::from_secs(61), n(2), NetMsg::Install { qid: handle.id() });
    harness.run_to_quiescence();
    assert!(harness.sim().app(n(2)).installed_queries().is_empty());
}

#[test]
fn teardown_drops_shared_cache_with_last_user() {
    let program = parse_program(BEST_PATH).unwrap();
    let mut harness = RoutingHarness::new(figure3_topology());
    let shared = harness.issue(program.clone()).sharing(true).submit().unwrap();
    harness.run_until(SimTime::from_secs(30));
    let cached: usize = (0..5u32).map(|i| harness.sim().app(n(i)).best_path_cache().len()).sum();
    assert!(cached > 0, "sharing run must populate the cache");

    harness.teardown(shared.id(), SimTime::from_secs(30));
    harness.run_to_quiescence();
    for i in 0..5u32 {
        assert!(harness.sim().app(n(i)).best_path_cache().is_empty(), "node {i} kept cache");
    }
    assert!(harness.state_footprint().is_empty());

    // The engine stays fully usable: a fresh query converges as usual.
    let fresh = harness.issue(program).at(SimTime::from_secs(62)).submit().unwrap();
    harness.run_until(SimTime::from_secs(100));
    assert_eq!(fresh.finite_results(&harness).unwrap().len(), 20);
}

#[test]
fn node_down_during_teardown_is_lazily_torn_down_on_rejoin() {
    // Node 1 misses the teardown flood (it is down when the flood
    // runs); when it rejoins and starts shipping tuples for the dead
    // query, its neighbors answer with a Teardown and the straggler
    // unwinds too.
    let program = parse_program(BEST_PATH).unwrap();
    let mut harness = RoutingHarness::new(figure3_topology());
    let handle = harness.issue(program).submit().unwrap();
    harness.run_until(SimTime::from_secs(30));

    harness.sim_mut().schedule_node_fail(SimTime::from_secs(30), n(1));
    harness.run_until(SimTime::from_secs(40));
    harness.teardown(handle.id(), SimTime::from_secs(40));
    harness.run_until(SimTime::from_secs(50));
    assert!(
        harness.sim().app(n(1)).installed_queries().contains(&handle.id()),
        "down node cannot have seen the teardown yet"
    );

    // Rejoining alone moves no tuples (the refreshed link upserts are
    // no-ops); the repair fires on the first actual traffic for the
    // dead query — here a link-cost change that makes node 1 ship its
    // updated link tuple to a neighbor that already saw the teardown.
    harness.sim_mut().schedule_node_join(SimTime::from_secs(50), n(1));
    harness.run_until(SimTime::from_secs(55));
    for (a, b) in [(1u32, 0u32), (0, 1)] {
        harness.sim_mut().schedule_link_metric_change(
            SimTime::from_secs(55),
            n(a),
            n(b),
            LinkParams::with_latency_ms(10.0).with_cost(Cost::new(2.0)),
        );
    }
    harness.run_to_quiescence();
    assert!(harness.sim().app(n(1)).installed_queries().is_empty());
    assert!(harness.sim().app(n(1)).is_torn_down(handle.id()));
    assert!(harness.state_footprint().is_empty(), "{:?}", harness.state_footprint());
}

#[test]
fn explain_materializes_distributed_proof_tree() {
    let program = parse_program(BEST_PATH).unwrap();
    let mut harness = RoutingHarness::new(figure3_topology());
    let handle = harness.issue(program).provenance(true).submit().unwrap();
    harness.run_until(SimTime::from_secs(30));
    let qid = handle.id();

    // Explain the 3-hop route a -> e (0 -> 4): its proof spans several
    // nodes, so the tree must be stitched together with ProvFetch
    // round trips.
    let route = harness
        .sim()
        .app(n(0))
        .tuples(qid, "bestPath")
        .into_iter()
        .find(|t| t.field(1) == Some(&Value::Node(n(4))))
        .expect("route 0 -> 4 derived");
    let tree = harness.explain(qid, &route).expect("explainable");
    assert_eq!(tree.tuple(), &route);
    assert!(tree.is_fully_resolved(), "no Missing nodes in a live route:\n{tree}");
    // A 3-hop path needs at least NR1 + 2x NR2 + the BPR2 join.
    assert!(tree.depth() >= 4, "depth {} too shallow:\n{tree}", tree.depth());
    // Every leaf is a live base link fact.
    let leaves = tree.leaves();
    assert!(!leaves.is_empty());
    for leaf in &leaves {
        // Either the link fact itself or its shipped cache copy
        // ("link__to_NR2"), which aliases the same base fact.
        assert!(leaf.relation().starts_with("link"), "unexpected base fact {leaf:?}");
    }
    // The proof names more than one deriving node.
    let nodes: std::collections::BTreeSet<NodeId> =
        tree.steps().into_iter().map(|s| s.node).collect();
    assert!(nodes.len() > 1, "expected a distributed proof, got {nodes:?}");
    assert!(harness.processor_stats().prov_fetches > 0, "remote pointers were fetched");
}

#[test]
fn explain_errors_are_typed() {
    let program = parse_program(BEST_PATH).unwrap();
    let mut harness = RoutingHarness::new(line_topology(3));
    let bogus = Tuple::new("bestPath", vec![Value::Node(n(0))]);

    // Unknown query id.
    assert_eq!(harness.explain(99, &bogus), Err(ExplainError::UnknownQuery));

    // Issued without provenance recording.
    let handle = harness.issue(program.clone()).submit().unwrap();
    harness.run_until(SimTime::from_secs(10));
    assert_eq!(harness.explain(handle.id(), &bogus), Err(ExplainError::NotRecorded));

    // Recorded, but the tuple does not exist anywhere.
    let handle2 = harness.issue(program).provenance(true).submit().unwrap();
    harness.run_until(SimTime::from_secs(20));
    assert_eq!(harness.explain(handle2.id(), &bogus), Err(ExplainError::NoSuchTuple));

    // A real route explains fine ...
    let route = harness
        .sim()
        .app(n(0))
        .tuples(handle2.id(), "bestPath")
        .into_iter()
        .next()
        .expect("some route");
    assert!(harness.explain(handle2.id(), &route).is_ok());

    // ... until teardown, after which the query is typed as torn down.
    let at = harness.now();
    harness.teardown(handle2.id(), at);
    harness.run_to_quiescence();
    assert_eq!(harness.explain(handle2.id(), &route), Err(ExplainError::TornDown));
}

#[test]
fn explain_diff_reports_route_change_after_link_failure() {
    let program = parse_program(BEST_PATH).unwrap();
    let mut harness = RoutingHarness::new(figure3_topology());
    let handle = harness.issue(program).provenance(true).submit().unwrap();
    harness.run_until(SimTime::from_secs(30));
    let qid = handle.id();
    let route = |h: &RoutingHarness, d: u32| {
        h.sim()
            .app(n(0))
            .tuples(qid, "bestPath")
            .into_iter()
            .find(|t| t.field(1) == Some(&Value::Node(n(d))))
            .expect("route exists")
    };

    let before_tuple = route(&harness, 3);
    let before = harness.explain(qid, &before_tuple).unwrap();

    // Fail node 1: the a->d route re-derives through c (node 2).
    harness.sim_mut().schedule_node_fail(SimTime::from_secs(31), n(1));
    harness.run_until(SimTime::from_secs(60));
    let after_tuple = route(&harness, 3);
    let after = harness.explain(qid, &after_tuple).unwrap();

    let diff = dr_provenance::diff_explanations(&before, &after);
    if before_tuple == after_tuple {
        assert!(diff.removed.is_empty() && diff.added.is_empty());
    } else {
        assert!(
            !diff.removed.is_empty() || !diff.added.is_empty(),
            "a rerouted path must change the explanation"
        );
        // No step of the new proof fires on the failed node.
        assert!(diff.added.iter().all(|s| s.node != n(1)), "{diff:?}");
    }
}

#[test]
fn converged_at_helper() {
    use super::converged_at;
    let mk =
        |t: u64, r: usize, c: f64| Sample { time: SimTime::from_secs(t), results: r, avg_cost: c };
    assert_eq!(converged_at(&[]), None);
    assert_eq!(converged_at(&[mk(1, 0, 0.0)]), None);
    let samples = vec![mk(1, 2, 5.0), mk(2, 4, 4.0), mk(3, 4, 4.0), mk(4, 4, 4.0)];
    assert_eq!(converged_at(&samples), Some(SimTime::from_secs(2)));
    let still_changing = vec![mk(1, 2, 5.0), mk(2, 4, 4.0)];
    assert_eq!(converged_at(&still_changing), Some(SimTime::from_secs(2)));
}
