//! # dr-core
//!
//! The distributed declarative routing engine — the paper's primary
//! contribution. Every network node runs a [`QueryProcessor`] (the
//! counterpart of the paper's per-node PIER instance): it keeps a neighbor
//! table fed by the routing infrastructure, accepts routing protocols
//! expressed as Datalog queries, executes them as distributed dataflows by
//! exchanging tuples with neighboring processors, and installs the results
//! in a forwarding table.
//!
//! The moving parts:
//!
//! * [`localize`] — turns a parsed [`dr_datalog::Program`] into per-node
//!   dataflows: rules whose body atoms live at different addresses are split
//!   into a local join at an *anchor* node plus tuple-shipping "clouds"
//!   (paper §3.3, Figure 2).
//! * [`query`] — a [`QuerySpec`] bundles the localized program with runtime
//!   options (aggregate selections, result sharing, lifetime); a
//!   [`QueryLibrary`] is the catalog of specs every node knows about, so
//!   that query dissemination only needs to flood an identifier.
//! * [`processor`] — the [`QueryProcessor`] node application: batching,
//!   semi-naïve incremental recomputation on base-table updates (paper §8),
//!   multi-query sharing through the `bestPathCache` table (§7.3), and
//!   forwarding-state installation. It is the dataflow core; four private
//!   sibling modules hold what the dataflow is built from and re-export
//!   their public names through it: `wire` (the [`NetMsg`] vocabulary and
//!   its byte accounting), `transport` (the sans-IO reliable-stream state
//!   machine), `admission` (aggregate selections, §7.1, with the §8
//!   tombstone/revival rules) and `lifecycle` (per-query state, install,
//!   teardown, lazy repair).
//! * [`harness`] — glue for experiments: build a simulator over a topology,
//!   issue queries through the fluent [`IssueBuilder`], and observe typed
//!   results, convergence, and communication statistics through
//!   [`QueryHandle`]s.
//! * [`scenario`] — declarative experiment descriptions: a
//!   [`ScenarioBuilder`] composes a topology, an event timeline (query
//!   issuance, churn, link dynamics, injections), and typed [`Probe`]s,
//!   and [`Scenario::run`] plays it out into a [`ScenarioReport`].
//!
//! # Example
//!
//! Issue the paper's Best-Path query (rules NR1/NR2/BPR1/BPR2) over a
//! three-node line and read the routes back as typed [`dr_types::RouteEntry`]
//! values:
//!
//! ```
//! use dr_core::harness::RoutingHarness;
//! use dr_datalog::parse_program;
//! use dr_netsim::{LinkParams, SimTime, Topology};
//! use dr_types::{Cost, NodeId};
//!
//! let program = parse_program(
//!     r#"
//!     #key(link, 0, 1).
//!     #key(path, 0, 1, 2).
//!     #key(bestPathCost, 0, 1).
//!     #key(bestPath, 0, 1).
//!     NR1: path(@S,D,P,C) :- link(@S,D,C), P = f_initPath(S,D).
//!     NR2: path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2),
//!          C = C1 + C2, P = f_prepend(S,P2), f_inPath(P2,S) = false.
//!     BPR1: bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).
//!     BPR2: bestPath(@S,D,P,C) :- bestPathCost(@S,D,C), path(@S,D,P,C).
//!     Query: bestPath(@S,D,P,C).
//!     "#,
//! )?;
//!
//! // 0 -- 1 -- 2, unit costs.
//! let mut topology = Topology::new(3);
//! for i in 0..2u32 {
//!     topology.add_bidirectional(
//!         NodeId::new(i),
//!         NodeId::new(i + 1),
//!         LinkParams::with_latency_ms(10.0).with_cost(Cost::new(1.0)),
//!     );
//! }
//!
//! let mut harness = RoutingHarness::new(topology);
//! let handle = harness.issue(program).from(NodeId::new(0)).at(SimTime::ZERO).submit()?;
//! harness.run_until(SimTime::from_secs(30));
//!
//! let routes = handle.finite_results(&harness)?; // Vec<RouteEntry>
//! assert_eq!(routes.len(), 6); // all ordered pairs of the line
//! let end_to_end = routes.iter().find(|r| r.src == NodeId::new(0) && r.dst == NodeId::new(2));
//! assert_eq!(end_to_end.map(|r| r.cost), Some(Cost::new(2.0)));
//! # Ok::<(), dr_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
pub mod harness;
mod lifecycle;
pub mod localize;
pub mod processor;
pub mod query;
pub mod results;
pub mod scenario;
mod stats;
mod transport;
mod wire;

pub use dr_provenance::{
    diff_explanations, DerivationStep, DerivationTree, ExplanationDiff, ProvId, ProvRecord,
    ProvRef, ProvStore,
};
pub use harness::{
    ExplainError, IssueBuilder, QueryHandle, ResultCursor, ResultLogStats, ResultsDelta,
    RoutingHarness, Sample,
};
pub use localize::{LocalizedProgram, LocalizedRule, ShipSpec};
pub use processor::{
    NetMsg, ProcessorConfig, ProcessorStats, ProvTag, QueryProcessor, ReliabilityConfig,
    StateFootprint,
};
pub use query::{QueryDef, QueryId, QueryLibrary, QuerySpec};
pub use scenario::{Probe, QueryReport, Scenario, ScenarioBuilder, ScenarioReport, ScenarioRun};
