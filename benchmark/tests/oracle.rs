//! The oracles reject wrong output.

use declarative_routing::engine::harness::RoutingHarness;
use declarative_routing::netsim::SimTime;
use declarative_routing::protocols::best_path;
use declarative_routing::service::protocol::{WireTuple, WireValue};
use declarative_routing::service::{default_topology, Response};
use dr_benchmark::oracle::{ReplayView, Route, ShortestPaths};

fn converged_routes() -> (ShortestPaths, Vec<Route>) {
    let topology = default_topology(8);
    let oracle = ShortestPaths::of(&topology);
    let mut harness = RoutingHarness::new(topology);
    let handle = harness.issue(best_path()).submit().expect("Best-Path localizes");
    harness.run_until(SimTime::from_secs(30));
    let routes = handle.finite_results(&harness).expect("routes decode");
    (oracle, routes.iter().map(Route::from).collect())
}

#[test]
fn oracle_accepts_the_engine_and_rejects_a_corrupted_route() {
    let (oracle, mut routes) = converged_routes();
    let clean = oracle.check_routes("clean", routes.clone());
    assert_eq!(clean.failed, 0, "{:?}", clean.messages);
    assert_eq!(clean.attempted, 8 * 7 + 1, "one check per route plus the count check");

    routes[3].cost += 1.0;
    let corrupted = oracle.check_routes("corrupted", routes.clone());
    // The wrong cost fails, and so does the count of distinct correct routes.
    assert_eq!(corrupted.failed, 2, "{:?}", corrupted.messages);
    assert!(corrupted.messages[0].contains("the oracle says"), "{:?}", corrupted.messages);

    routes[3].cost -= 1.0;
    routes.pop();
    assert_eq!(oracle.check_routes("missing", routes.clone()).failed, 1, "a missing route");
    routes.push(routes[0].clone());
    assert!(oracle.check_routes("duplicate", routes).failed >= 1, "a route reported twice");
}

#[test]
fn a_tolerated_detour_must_be_a_real_path_with_its_real_cost() {
    // A square with one diagonal: 0 -> 2 costs 1 direct, 2 around a corner.
    let sides = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0), (0, 2, 1.0)];
    let oracle = ShortestPaths::from_links(4, sides);
    assert_eq!(oracle.path_cost(&[0, 1, 2]), Some(2.0));
    assert_eq!(oracle.path_cost(&[0, 3]), None, "3 -> 0 exists, 0 -> 3 does not");
    let route = |cost: f64, path: &[u32]| Route { src: 0, dst: 2, cost, path: path.to_vec() };
    // Only the 0 -> 2 entry varies; the count check fails alike in every
    // case (the other eleven pairs are missing), so look at the route's own.
    let verdict = |r: Route, tolerate: bool| {
        let (tally, detours) = oracle.check_routes_with("detour", [r], tolerate);
        (tally.failed - 1, detours)
    };
    assert_eq!(verdict(route(1.0, &[0, 2]), true), (0, 0), "the optimum is no detour");
    assert_eq!(verdict(route(2.0, &[0, 1, 2]), true), (0, 1), "a real, dearer path");
    assert_eq!(verdict(route(2.0, &[0, 1, 2]), false), (1, 0), "not tolerated unless asked");
    assert_eq!(verdict(route(7.0, &[0, 1, 2]), true), (1, 0), "a cost the path does not have");
    assert_eq!(verdict(route(2.0, &[0, 3, 2]), true), (1, 0), "a path over a missing link");
    assert_eq!(verdict(route(2.0, &[1, 2]), true), (1, 0), "a path that starts elsewhere");
    assert_eq!(verdict(route(0.5, &[0, 2]), true), (1, 0), "cheaper than possible");
}

#[test]
fn floyd_warshall_handles_directed_costs_and_unreachable_nodes() {
    // 0 -> 1 -> 2 cheap one way, expensive back; 3 is isolated.
    let oracle =
        ShortestPaths::from_links(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 10.0), (0, 2, 5.0)]);
    assert_eq!(oracle.cost(0, 2), 2.0);
    assert_eq!(oracle.cost(2, 1), 11.0);
    assert!(oracle.cost(0, 3).is_infinite());
    assert_eq!(oracle.reachable_pairs(), 6);
}

fn route(src: u32, dst: u32, cost: f64) -> WireTuple {
    WireTuple {
        relation: "bestPath".to_string(),
        values: vec![
            WireValue::Node(src),
            WireValue::Node(dst),
            WireValue::Path(vec![src, dst]),
            WireValue::Cost(cost),
        ],
    }
}

#[test]
fn replay_applies_deltas_and_notices_a_removal_it_never_saw() {
    let delta = |added: Vec<WireTuple>, removed: Vec<WireTuple>| Response::Delta {
        qid: 1,
        now_millis: 200,
        added,
        removed,
    };
    let mut view = ReplayView::default();
    view.apply(&delta(
        vec![route(0, 1, 1.0), route(0, 1, 1.0), route(1, 0, f64::INFINITY)],
        vec![],
    ));
    assert_eq!(view.len(), 3, "a multiset: the same row may be stored twice");
    assert_eq!(view.finite_routes().len(), 2);
    view.apply(&delta(vec![route(0, 1, 4.0)], vec![route(0, 1, 1.0)]));
    assert!(view.holds_exactly(&[route(0, 1, 1.0), route(0, 1, 4.0), route(1, 0, f64::INFINITY)]));
    assert!(!view.holds_exactly(&[route(0, 1, 1.0), route(0, 1, 4.0)]));
    assert_eq!(view.bad_removals, 0);
    view.apply(&delta(vec![], vec![route(5, 6, 1.0)]));
    assert_eq!(view.bad_removals, 1);
    assert_eq!(view.last_delta_millis, Some(200));
}
