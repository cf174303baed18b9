//! Workspace-wiring smoke tests: the façade's re-exports resolve to the same
//! crates the workspace builds, and the declarative engine converges to
//! shortest paths on a small ring.

use declarative_routing::engine::harness::RoutingHarness;
use declarative_routing::netsim::{LinkParams, SimTime, Topology};
use declarative_routing::protocols::best_path;
use declarative_routing::types::{Cost, NodeId};

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

/// A ring of `k` nodes with unit link costs. With odd `k`, every pair has a
/// unique shortest direction, so next hops are unambiguous.
fn ring(k: u32) -> Topology {
    let mut t = Topology::new(k as usize);
    for i in 0..k {
        t.add_bidirectional(
            n(i),
            n((i + 1) % k),
            LinkParams::with_latency_ms(10.0).with_cost(Cost::new(1.0)),
        );
    }
    t
}

/// The façade's re-exported types are the workspace crates' types (not
/// copies): a `dr_types::NodeId` is a `declarative_routing::types::NodeId`.
#[test]
fn facade_reexports_are_the_workspace_crates() {
    let a: dr_types::NodeId = n(3);
    let b: declarative_routing::types::NodeId = dr_types::NodeId::new(3);
    assert_eq!(a, b);
    let c: dr_types::Cost = declarative_routing::types::Cost::new(1.5);
    assert_eq!(c.value(), 1.5);
    // ... including the typed result views and the engine's handle type.
    let route: dr_types::RouteEntry = declarative_routing::types::RouteEntry {
        src: n(0),
        dst: n(1),
        path: declarative_routing::types::PathVector::from_nodes(vec![n(0), n(1)]),
        cost: Cost::new(1.0),
    };
    let _tuple: declarative_routing::types::Tuple = route.to_tuple();
}

/// `best_path()` executed as a distributed query converges, on a 7-node
/// ring, to Dijkstra's cost for every pair and to the next hop in the
/// shorter direction around the ring.
#[test]
fn best_path_matches_dijkstra_on_a_ring() {
    const K: u32 = 7;

    let topology = ring(K);
    let mut harness = RoutingHarness::new(topology.clone());
    let handle = harness.issue(best_path()).from(n(0)).at(SimTime::ZERO).submit().unwrap();
    harness.run_until(SimTime::from_secs(60));
    let results = handle.finite_results(&harness).unwrap();
    assert_eq!(
        results.len(),
        (K * (K - 1)) as usize,
        "declarative best-path must converge to all-pairs routes"
    );

    for src in 0..K {
        let distances = topology.cost_distances(n(src));
        let fwd = handle.forwarding_table(&harness, n(src));
        let routes = handle.results_at(&harness, n(src)).unwrap();
        for dst in 0..K {
            if src == dst {
                continue;
            }
            let declarative_cost = routes
                .iter()
                .find(|r| r.src == n(src) && r.dst == n(dst))
                .map(|r| r.cost)
                .unwrap_or_else(|| panic!("declarative query found no route {src}->{dst}"));
            let dijkstra_cost = Cost::new(distances[&n(dst)]);
            assert_eq!(
                declarative_cost, dijkstra_cost,
                "cost mismatch for {src}->{dst}: declarative {declarative_cost} vs Dijkstra {dijkstra_cost}"
            );
            // K is odd, so exactly one direction around the ring is shorter.
            let clockwise = (dst + K - src) % K;
            let next = if clockwise < K - clockwise { (src + 1) % K } else { (src + K - 1) % K };
            assert_eq!(fwd.get(&n(dst)), Some(&n(next)), "next-hop mismatch for {src}->{dst}");
        }
    }
}
