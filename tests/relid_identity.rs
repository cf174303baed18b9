//! Tests for the interned relation-identity layer: intern→resolve
//! round-trips, cross-node agreement (every node that plans the same query
//! binds the identical relation set in its catalog, including when the
//! query arrives via piggy-backed installation), and the receive path
//! dropping tuples whose relation the query does not bind.

use declarative_routing::engine::harness::RoutingHarness;
use declarative_routing::engine::localize::{localize, LocalizedProgram};
use declarative_routing::engine::processor::NetMsg;
use declarative_routing::engine::QueryId;
use declarative_routing::netsim::{LinkParams, SimTime, Topology};
use declarative_routing::protocols::{best_path, dynamic_source_routing, link_state};
use declarative_routing::types::{Cost, NodeId, RelId, Tuple, Value};
use proptest::prelude::*;

fn n(i: u32) -> NodeId {
    NodeId::new(i)
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

/// A relation-name strategy: nonempty identifier-shaped names, prefixed so
/// the test never collides with relations other tests intern.
fn rel_name() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_]{0,24}".prop_map(|s| format!("relid_pt_{s}"))
}

proptest! {
    /// Interning is idempotent and resolution round-trips the exact name.
    #[test]
    fn intern_resolve_round_trip(name in rel_name()) {
        let id = RelId::intern(&name);
        prop_assert_eq!(id.name(), name.as_str());
        prop_assert_eq!(RelId::intern(&name), id);
        prop_assert_eq!(RelId::lookup(&name), Some(id));
        // Tuples carry the same identity.
        let t = Tuple::new(&name, vec![Value::Int(1)]);
        prop_assert_eq!(t.rel(), id);
        prop_assert_eq!(t.relation(), name.as_str());
    }
}

/// The relations a localized program's catalog binds, in name order.
fn bound(program: &LocalizedProgram) -> Vec<RelId> {
    program.catalog.relations().map(|info| info.id).collect()
}

/// Localizing the same program on different "nodes" (independent localize
/// calls, as every processor deployment performs at plan time) binds the
/// identical relation set — the property that lets the wire format ship
/// bare ids without negotiation.
#[test]
fn independent_localizations_agree_on_bindings() {
    for program in [best_path(), dynamic_source_routing(), link_state()] {
        let a = localize(&program, &[]).expect("program localizes");
        let b = localize(&program, &[]).expect("program localizes");
        assert_eq!(bound(&a), bound(&b), "two plans of the same program bind different relations");
        assert!(!a.catalog.is_empty());
        // The catalog covers everything the query can store or ship: result
        // relations and every ship spec's source and cache relation.
        for rel in &a.result_relations {
            assert!(a.catalog.get(*rel).is_some());
        }
        for ship in &a.ships {
            assert!(a.catalog.get(ship.source_relation).is_some());
            assert!(a.catalog.get(ship.cache_relation).is_some());
        }
    }
}

/// Two processors in one deployment install the same query — one through
/// the flooded `Install`, one through piggy-backed installation (§3.5:
/// tuples for a not-yet-known query arrive first) — and bind the same
/// relation set, so tuples shipped between them decode identically.
#[test]
fn piggy_backed_install_derives_identical_bindings() {
    let mut harness = RoutingHarness::new(line_topology(3));
    let handle = harness.issue(best_path()).from(n(0)).submit().expect("query issues");
    let qid = handle.id();

    // Deliver a tuple batch for the (registered but not yet flooded-to-2)
    // query directly to the far node before any Install reaches it: the
    // processor must install the query on the fly.
    let link =
        Tuple::new("link", vec![Value::Node(n(2)), Value::Node(n(1)), Value::Cost(Cost::new(1.0))]);
    harness.sim_mut().inject(
        SimTime::ZERO,
        n(2),
        NetMsg::Tuples { qid, seq: None, batch: vec![(link, None)] },
    );
    harness.run_until(SimTime::from_secs(30));

    for i in 0..3u32 {
        assert!(
            harness.sim().app(n(i)).installed_queries().contains(&qid),
            "node {i} never installed the query"
        );
    }
    // All nodes run the identical spec, so their catalog is the spec's; the
    // piggy-backed node converged to the same routes, proving the ids it
    // decoded match the ids its peers encoded.
    let spec = harness.library().get(qid).expect("spec registered");
    let reference = localize(&best_path(), &[]).expect("localizes");
    assert_eq!(bound(&spec.program), bound(&reference));
    let routes = handle.finite_results(&harness).expect("routes decode");
    assert_eq!(routes.len(), 6, "3-node line converges to all ordered pairs");
}

/// A shipped tuple whose relation id the query's catalog does not bind (a
/// stale id from an older query version, or garbage) is dropped and
/// counted, never stored into a phantom table.
#[test]
fn stale_relation_id_is_rejected_on_receive() {
    let mut harness = RoutingHarness::new(line_topology(2));
    let handle = harness.issue(best_path()).from(n(0)).submit().expect("query issues");
    let qid = handle.id();
    harness.run_until(SimTime::from_secs(10));
    assert_eq!(harness.processor_stats().tuples_rejected, 0);

    let bogus = Tuple::new(
        "relid_stale_never_in_any_program",
        vec![Value::Node(n(1)), Value::Node(n(0)), Value::Cost(Cost::new(1.0))],
    );
    harness.sim_mut().inject(
        SimTime::from_secs(10),
        n(1),
        NetMsg::Tuples { qid, seq: None, batch: vec![(bogus.clone(), None)] },
    );
    harness.run_until(SimTime::from_secs(20));

    let stats = harness.processor_stats();
    assert_eq!(stats.tuples_rejected, 1, "the stale-id tuple must be rejected");
    assert!(
        harness.sim().app(n(1)).tuples(qid, bogus.relation()).is_empty(),
        "rejected tuple must not be stored"
    );
    // The query itself keeps working.
    assert_eq!(handle.finite_results(&harness).expect("routes decode").len(), 2);
}

/// Tuples sent for an unknown query id install nothing and decode nothing
/// (the piggy-back path only fires for queries the library actually knows).
#[test]
fn tuples_for_unknown_query_are_ignored() {
    let mut harness = RoutingHarness::new(line_topology(2));
    let link =
        Tuple::new("link", vec![Value::Node(n(1)), Value::Node(n(0)), Value::Cost(Cost::new(1.0))]);
    let unknown: QueryId = 4242;
    harness.sim_mut().inject(
        SimTime::ZERO,
        n(1),
        NetMsg::Tuples { qid: unknown, seq: None, batch: vec![(link, None)] },
    );
    harness.run_to_quiescence();
    assert!(harness.sim().app(n(1)).installed_queries().is_empty());
}
