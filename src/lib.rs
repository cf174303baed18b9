//! # declarative-routing
//!
//! A from-scratch Rust reproduction of *"Declarative Routing: Extensible
//! Routing with Declarative Queries"* (Loo, Hellerstein, Stoica,
//! Ramakrishnan — SIGCOMM 2005): routing protocols are written as recursive
//! Datalog queries and executed as distributed dataflows by a query
//! processor running on every node of a (simulated) network.
//!
//! This crate is a façade that re-exports the workspace's building blocks:
//!
//! * [`datalog`] — the Datalog dialect: parser, semi-naïve evaluator, safety
//!   analysis, query rewrites.
//! * [`netsim`] — the deterministic discrete-event network simulator.
//! * [`engine`] — the distributed query processor (localization, per-node
//!   execution, incremental maintenance, multi-query sharing) and the
//!   experiment harness.
//! * [`protocols`] — every protocol from the paper as a ready-made query.
//! * [`provenance`] — derivation provenance: per-tuple derivation records
//!   and the [`provenance::DerivationTree`] proof trees behind
//!   `RoutingHarness::explain`.
//! * [`baselines`] — the hand-coded path-vector baseline.
//! * [`workloads`] — topologies, RTT models, churn and query workloads.
//! * [`service`] — the long-lived routing service: client sessions issue,
//!   tear down, and subscribe to queries over a framed protocol (in-process
//!   for tests, TCP via the `dr-serviced` daemon), with a line-oriented
//!   JSON stats endpoint.
//!
//! Queries are issued through the harness's fluent builder and observed
//! through the typed [`engine::harness::QueryHandle`] it returns; results
//! decode into views such as [`types::RouteEntry`] instead of positional
//! tuple fields. Whole experiments — topology + event timeline (query
//! issuance, churn, link dynamics) + typed probes — are described
//! declaratively with [`engine::scenario::ScenarioBuilder`] and run into a
//! plain-data [`engine::scenario::ScenarioReport`]:
//!
//! ```no_run
//! use declarative_routing::engine::harness::RoutingHarness;
//! use declarative_routing::netsim::SimTime;
//! use declarative_routing::protocols::best_path;
//! use declarative_routing::types::NodeId;
//! use declarative_routing::workloads::TransitStubParams;
//!
//! let topology = TransitStubParams::sized(100, 42).generate();
//! let mut harness = RoutingHarness::new(topology);
//! let handle = harness
//!     .issue(best_path())
//!     .from(NodeId::new(0))
//!     .at(SimTime::ZERO)
//!     .submit()
//!     .unwrap();
//! harness.run_until(SimTime::from_secs(60));
//! let routes = handle.finite_results(&harness).unwrap(); // Vec<RouteEntry>
//! println!("routes: {}", routes.len());
//! for route in routes.iter().take(3) {
//!     println!("{} -> {} via {} (cost {})", route.src, route.dst, route.path, route.cost);
//! }
//! ```
//!
//! ## Delivery guarantees on an unreliable wire
//!
//! Handing [`netsim::FaultPlan`] to a scenario makes the wire adversarial
//! (seeded drops, duplicates, reordering, bursts) and turns on the
//! processor's loss-tolerant transport; the protocol still converges to
//! exactly the lossless fixed point:
//!
//! ```
//! use std::collections::BTreeMap;
//!
//! use declarative_routing::engine::scenario::{QueryDef, ScenarioBuilder, ScenarioRun};
//! use declarative_routing::netsim::{FaultPlan, LinkFaults, SimTime};
//! use declarative_routing::protocols::best_path;
//! use declarative_routing::types::NodeId;
//! use declarative_routing::workloads::{OverlayKind, OverlayParams};
//!
//! let topology = OverlayParams { nodes: 8, ..OverlayParams::planetlab(OverlayKind::DenseUunet, 7) }
//!     .generate();
//!
//! // What the wire may do: drop 5% of messages and deliver another 10% twice,
//! // deterministically derived from the seed.
//! let faults = FaultPlan::new(7).uniform(LinkFaults::none().with_drop(0.05).with_duplicate(0.10));
//!
//! let run = |plan: Option<FaultPlan>| -> ScenarioRun {
//!     let mut scenario = ScenarioBuilder::over(topology.clone()).query(QueryDef::new(best_path()));
//!     if let Some(plan) = plan {
//!         scenario = scenario.faults(plan); // also enables the reliable transport
//!     }
//!     scenario.until(SimTime::from_secs(45)).execute().unwrap()
//! };
//! let routes = |r: &ScenarioRun| -> BTreeMap<(NodeId, NodeId), u64> {
//!     (0..8u32)
//!         .map(NodeId::new)
//!         .flat_map(|node| r.handles[0].results_at(&r.harness, node).unwrap())
//!         .filter(|route| route.cost.is_finite())
//!         .map(|route| ((route.src, route.dst), (route.cost.value() * 1000.0).round() as u64))
//!         .collect()
//! };
//!
//! let lossy = run(Some(faults));
//! let clean = run(None);
//! assert_eq!(routes(&lossy), routes(&clean), "same fixed point despite loss");
//!
//! // The transport did real work to get there.
//! let stats = lossy.harness.processor_stats();
//! assert!(stats.retransmits > 0 && stats.dups_dropped > 0 && stats.acks_sent > 0);
//! ```
//!
//! ## Explaining routes
//!
//! Issuing with `.provenance(true)` records, for every derived tuple,
//! which rule fired on which node from which body tuples. `explain`
//! stitches those records — following cross-node pointers over the
//! simulated wire — into a [`provenance::DerivationTree`] proof whose
//! leaves are base link facts, and [`provenance::diff_explanations`]
//! reports exactly which rule firings a reroute removed and added:
//!
//! ```
//! use declarative_routing::engine::harness::RoutingHarness;
//! use declarative_routing::netsim::{LinkParams, SimTime, Topology};
//! use declarative_routing::protocols::best_path;
//! use declarative_routing::provenance::diff_explanations;
//! use declarative_routing::types::{Cost, NodeId, Value};
//!
//! // A square: two equal-cost two-hop routes 0 -> 3, via 1 or via 2.
//! let mut topology = Topology::new(4);
//! for (a, b) in [(0u32, 1u32), (0, 2), (1, 3), (2, 3)] {
//!     topology.add_bidirectional(
//!         NodeId::new(a),
//!         NodeId::new(b),
//!         LinkParams::with_latency_ms(10.0).with_cost(Cost::new(1.0)),
//!     );
//! }
//! let mut harness = RoutingHarness::new(topology);
//! let handle = harness.issue(best_path()).provenance(true).submit().unwrap();
//! harness.run_until(SimTime::from_secs(30));
//!
//! // Explain node 0's route to node 3: a multi-node proof tree.
//! let qid = handle.id();
//! let route = |h: &RoutingHarness| {
//!     h.sim()
//!         .app(NodeId::new(0))
//!         .tuples(qid, "bestPath")
//!         .into_iter()
//!         .find(|t| {
//!             t.field(1) == Some(&Value::Node(NodeId::new(3)))
//!                 && t.field(3).and_then(Value::as_cost).is_some_and(|c| c.is_finite())
//!         })
//!         .unwrap()
//! };
//! let before_route = route(&harness);
//! let before = harness.explain(qid, &before_route).unwrap();
//! assert!(before.is_fully_resolved());
//!
//! // Fail whichever node the proof goes through and re-explain: the diff
//! // lists the firings the reroute removed and added, and no added step
//! // fires on the failed node.
//! let via = if before.steps().iter().any(|s| s.node == NodeId::new(1)) { 1 } else { 2 };
//! harness.sim_mut().schedule_node_fail(SimTime::from_secs(30), NodeId::new(via));
//! harness.run_until(SimTime::from_secs(60));
//! let after = harness.explain(qid, &route(&harness)).unwrap();
//! let diff = diff_explanations(&before, &after);
//! assert!(!diff.removed.is_empty() && !diff.added.is_empty());
//! assert!(diff.added.iter().all(|step| step.node != NodeId::new(via)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dr_baselines as baselines;
pub use dr_core as engine;
pub use dr_datalog as datalog;
pub use dr_netsim as netsim;
pub use dr_protocols as protocols;
pub use dr_provenance as provenance;
pub use dr_service as service;
pub use dr_types as types;
pub use dr_workloads as workloads;
