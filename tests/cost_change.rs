//! Known-wrong cost-change fixtures: small topologies on which a finite link
//! cost increase leaves `best_path()` (aggregate selections on) with one
//! route that never heals.
//!
//! Each fixture is asserted *still wrong*: the stale or detoured row is
//! pinned exactly, and so is the count of routes that differ from Dijkstra
//! on the final topology. A change that fixes a fixture flips its
//! assertions, and that diff is its proof.
//!
//! Shared setup: links are bidirectional with equal cost both ways and 5 ms
//! latency; the query is issued from node 0 at t = 0 and converges for 60 s;
//! the changes are directed and start at 60 s; the run ends at 300 s.

use declarative_routing::engine::harness::RoutingHarness;
use declarative_routing::netsim::{LinkParams, SimTime, Topology};
use declarative_routing::protocols::best_path;
use declarative_routing::types::{Cost, NodeId, RouteEntry};

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

fn params(cost: f64) -> LinkParams {
    LinkParams::with_latency_ms(5.0).with_cost(Cost::new(cost))
}

/// One directed link change: `(at_ms, from, to, new_cost)`.
type Change = (u64, u32, u32, f64);

/// Run a fixture, check that every ordered pair ends with a finite route at
/// its source, and return the routes whose cost differs from Dijkstra over
/// the final topology.
fn run(nodes: usize, links: &[(u32, u32, f64)], changes: &[Change]) -> Vec<RouteEntry> {
    let mut topo = Topology::new(nodes);
    for &(a, b, cost) in links {
        topo.add_bidirectional(n(a), n(b), params(cost));
    }
    let mut harness = RoutingHarness::new(topo);
    let handle = harness
        .issue(best_path())
        .from(n(0))
        .at(SimTime::ZERO)
        .aggregate_selections(true)
        .submit()
        .expect("best-path localizes");
    harness.run_until(SimTime::from_secs(60));
    for &(at_ms, from, to, cost) in changes {
        harness.sim_mut().schedule_link_metric_change(
            SimTime::from_millis(at_ms),
            n(from),
            n(to),
            params(cost),
        );
    }
    harness.run_until(SimTime::from_secs(300));

    let topology = harness.sim().topology();
    let mut wrong = Vec::new();
    let mut finite = 0;
    for src in topology.nodes() {
        let optimum = topology.cost_distances(src);
        for route in handle.results_at(&harness, src).expect("routes decode") {
            if route.src != src || !route.cost.is_finite() {
                continue;
            }
            finite += 1;
            if optimum.get(&route.dst) != Some(&route.cost.value()) {
                wrong.push(route);
            }
        }
    }
    assert_eq!(finite, nodes * (nodes - 1), "every ordered pair keeps a finite route");
    wrong
}

/// Assert the one wrong route: `src→dst via path` at `cost`.
fn assert_one_wrong(wrong: &[RouteEntry], path: &[u32], cost: f64) {
    let path: Vec<NodeId> = path.iter().copied().map(n).collect();
    assert_eq!(wrong.len(), 1, "exactly one route is wrong: {wrong:?}");
    let route = &wrong[0];
    assert_eq!((route.src, route.dst), (path[0], *path.last().unwrap()));
    assert_eq!(route.path.nodes(), path.as_slice());
    assert_eq!(route.cost, Cost::new(cost));
}

/// F1, one directed raise, stale: `[2,3,0]` and `[2,3,1,0]` tie at 4 in
/// node 2's prune group (2, 0, next hop 3). After 2→3 rises to 4 the kept
/// row still says 4; its real cost is 7 and the optimum is 5.
#[test]
fn f1_one_raise_leaves_a_stale_route() {
    let links = [(0, 1, 2.0), (1, 2, 3.0), (2, 3, 1.0), (0, 3, 3.0), (1, 3, 1.0)];
    let wrong = run(4, &links, &[(60_000, 2, 3, 4.0)]);
    assert_one_wrong(&wrong, &[2, 3, 0], 4.0);
}

/// F2, one link changed twice in one batch, stale: 3→0 goes to 4, then
/// back to 3 after 50 ms. `2→0 via [2,3,0]` stays at 6; its real cost, and
/// the optimum, is 5.
#[test]
fn f2_two_changes_in_one_batch_leave_a_stale_route() {
    let links = [(0, 1, 3.0), (1, 2, 3.0), (2, 3, 2.0), (0, 3, 1.0)];
    let wrong = run(4, &links, &[(60_000, 3, 0, 4.0), (60_050, 3, 0, 3.0)]);
    assert_one_wrong(&wrong, &[2, 3, 0], 6.0);
}

/// F3, symmetric raise, detour: 1↔2 rises to 8. `0→2 via [0,1,2]` stays
/// at its real cost 10; the optimum, via [0,1,3,2], is 7.
#[test]
fn f3_symmetric_raise_leaves_a_detour() {
    let links = [(0, 1, 2.0), (1, 2, 2.0), (2, 3, 3.0), (3, 4, 4.0), (0, 4, 4.0), (1, 3, 2.0)];
    let wrong = run(5, &links, &[(60_000, 1, 2, 8.0), (60_000, 2, 1, 8.0)]);
    assert_one_wrong(&wrong, &[0, 1, 2], 10.0);
}
