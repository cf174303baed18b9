//! # dr-service
//!
//! A long-lived routing service over the declarative-routing engine: one
//! resident topology and query deployment ([`RoutingService`] wrapping a
//! `dr_core::RoutingHarness`), multiplexed across client *sessions* that
//! issue queries, tear them down, inject facts, subscribe to result
//! streams, and read a metrics snapshot — the paper's vision of routing
//! *as a service* (§2) made operational.
//!
//! The pieces:
//!
//! * [`protocol`] — the framed wire protocol: length-prefixed frames
//!   carrying tagged [`Request`]/[`Response`] payloads. Decoding is total;
//!   malformed bytes produce typed [`protocol::ProtoError`]s, never panics.
//! * [`service`] — sessions, per-session query quotas, drop-time teardown
//!   (a disconnecting session's queries are really unwound across the
//!   deployment, not leaked), bounded subscriber queues with explicit
//!   [`Response::Lagged`] notices, the line-oriented JSON stats endpoint —
//!   and [`Connections`], the one sans-IO connection state machine: the
//!   ordered connection table, the `Connect`-first rule, and per connection
//!   one queue of encoded frames with a soft limit (pushes wait in the
//!   session outbox above it) and a hard one (a peer owed more direct
//!   replies than that is told [`ErrorCode::Overloaded`] and closed).
//! * [`transport`] — two carriers for the same frames: a deterministic
//!   single-threaded in-process hub for tests and benchmarks (a few lines
//!   over [`Connections`]), and a blocking TCP stream for the daemon's
//!   clients and its reader threads.
//! * [`server`] — the engine behind `dr-serviced`, the other shell over
//!   [`Connections`]: one event-driven engine thread that blocks on a
//!   single event channel until the next tick and hands frames to writers
//!   with `try_send` only, so it neither polls nor waits on a client.
//!   Acceptor, reader and writer threads sit at the byte boundary because
//!   this crate forbids `unsafe`, `std` has no `poll(2)`, and no
//!   `libc`/`mio` is vendored.
//! * [`client`] — a typed client that works over either transport.
//! * [`backoff`] — bounded exponential retry for dialing a daemon that is
//!   still coming up (or briefly away): refused connections follow a
//!   deterministic doubling-and-capped schedule instead of failing the
//!   run on the first refusal.
//! * [`load`] — the seeded issue/teardown/inject mix behind `dr-load` and
//!   the `sustained_churn_qps` benchmark.
//!
//! ## Example: an in-process service session
//!
//! ```
//! use dr_service::protocol::IssueOptions;
//! use dr_service::service::{default_topology, ServiceConfig};
//! use dr_service::transport::InProcHub;
//! use dr_service::{Client, BEST_PATH_PROGRAM};
//!
//! // A resident 8-node deployment, exposed in-process.
//! let hub = InProcHub::new(default_topology(8), ServiceConfig::default());
//!
//! // Connect a session, issue the paper's Best-Path query, subscribe.
//! let mut session = Client::connect(hub.connect(), "example").unwrap();
//! let qid = session.issue(BEST_PATH_PROGRAM, IssueOptions::default()).unwrap();
//! session.subscribe(qid).unwrap();
//!
//! // Advance simulated time; routes converge and arrive as deltas.
//! session.advance(10_000).unwrap();
//! let pushed = session.poll_pushed().unwrap();
//! assert!(!pushed.is_empty(), "convergence must produce result deltas");
//!
//! // Tear the query down: the deployment unwinds to its baseline state.
//! session.teardown(qid).unwrap();
//! session.advance(10_000).unwrap();
//! let stats = session.stats().unwrap();
//! assert!(stats.iter().any(|l| l.contains("\"live_queries\":0")));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod client;
pub mod load;
pub mod protocol;
pub mod server;
pub mod service;
pub mod transport;

pub use backoff::Backoff;
pub use client::{Client, ClientError};
pub use load::{LoadOptions, LoadReport};
pub use protocol::{ErrorCode, IssueOptions, ProtoError, Request, Response};
pub use server::{serve, ServerConfig, ServerHandle};
pub use service::{default_topology, Connections, RoutingService, ServiceConfig};
pub use transport::{InProcHub, TcpTransport, Transport, TransportError};

/// The paper's continuous Best-Path program (§5.1 with the §8 maintenance
/// rule NR3): the canonical query `dr-load`, the benchmarks, and the
/// examples issue.
pub const BEST_PATH_PROGRAM: &str = r#"
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
