//! The routing service proper: sessions, query lifecycle, subscriptions.
//!
//! [`RoutingService`] wraps one resident [`RoutingHarness`] (topology +
//! deployed queries) and multiplexes any number of client *sessions* over
//! it. It is transport-agnostic and single-threaded: requests go through
//! [`RoutingService::apply`] and push [`Response`]s (`Delta` / `Lagged`)
//! queue in each session's bounded outbox.
//!
//! [`Connections`] is the one connection state machine over it, shared by
//! the in-process hub and the TCP daemon: which connection speaks for which
//! session, the `Connect`-first rule, and one bounded queue of encoded
//! frames per connection. It does no I/O — a shell feeds it decoded
//! requests and takes frames out — so all backpressure policy lives here
//! and is tested with no socket; a transport is a dumb frame carrier.
//!
//! ## Ownership and lifecycle
//!
//! A session owns the queries it issues: only the owner may tear one down
//! or inject facts into it, and a per-session quota caps how many live
//! queries a session may hold. When a session disconnects (or its
//! connection drops), every query it still owns is torn down across the
//! deployment — the service equivalent of a crashing client not leaking
//! dataflows into the engine forever.
//!
//! ## Subscriptions and backpressure
//!
//! A subscription is a [`ResultCursor`] polled after every time advance:
//! an offset into the query's result change log, which every subscriber of
//! the query shares, so a tick costs the changes it reports rather than the
//! result sets it watches. Deltas queue in the owning session's outbox,
//! bounded by [`ServiceConfig::subscriber_queue_cap`]. When the outbox is
//! full the cursor is simply *not advanced* — the unseen changes coalesce
//! (memory stays bounded by the result-set size, not the update history:
//! a cursor the log was truncated past catches up from one snapshot) and a
//! [`Response::Lagged`] with the number of skipped polls precedes the next
//! delta once the subscriber catches up.
//!
//! A connection's frame queue has two limits. Pushes move out of the
//! session outbox only while the queue holds fewer than
//! `subscriber_queue_cap` frames (the *soft* limit: a slow subscriber backs
//! up into its outbox and lags, nothing is lost). Direct replies are always
//! queued, up to [`REPLY_CAP_FACTOR`] times as many (the *hard* limit): a
//! peer that keeps sending requests and never reads has what it was owed
//! replaced by one [`ErrorCode::Overloaded`] notice and is closed.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;

use dr_core::{ExplainError, NetMsg, QueryId, ResultCursor, RoutingHarness};
use dr_datalog::{parse_program, Program};
use dr_netsim::{SimDuration, Topology};
use dr_types::NodeId;

use crate::protocol::{
    flatten_tree, frame_response, ErrorCode, IssueOptions, Request, Response, WireTuple,
};

/// Tuning knobs of a [`RoutingService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum live queries a single session may own at once.
    pub max_queries_per_session: usize,
    /// Maximum queued push responses (deltas/lags) per session before the
    /// service stops advancing that session's cursors. Also the soft limit
    /// of a connection's frame queue — pushes wait in the outbox above it —
    /// and, times [`REPLY_CAP_FACTOR`], its hard limit.
    pub subscriber_queue_cap: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig { max_queries_per_session: 64, subscriber_queue_cap: 256 }
    }
}

/// A connection may be owed this many times `subscriber_queue_cap` frames
/// before it counts as not reading (1024 direct replies by default).
pub const REPLY_CAP_FACTOR: usize = 4;

/// One subscription: a cursor and the number of polls skipped while the
/// session's outbox was full.
#[derive(Debug)]
struct Subscription {
    cursor: ResultCursor,
    missed: u64,
}

/// Per-session state.
#[derive(Debug)]
struct Session {
    /// Queries this session issued and still owns.
    queries: BTreeSet<QueryId>,
    /// Subscriptions, keyed by query (one cursor per query per session).
    subs: BTreeMap<QueryId, Subscription>,
    /// Queued push responses awaiting transport drain.
    outbox: VecDeque<Response>,
}

/// Aggregate service counters (exposed via `Stats` and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Sessions opened over the service's lifetime.
    pub sessions_opened: u64,
    /// Sessions closed (disconnected).
    pub sessions_closed: u64,
    /// Queries issued.
    pub queries_issued: u64,
    /// Queries torn down (explicitly or at disconnect).
    pub queries_torn_down: u64,
    /// Facts injected via `InjectFacts`.
    pub facts_injected: u64,
    /// Requests that produced an error response.
    pub errors: u64,
    /// Push responses (deltas, lag notices) queued into session outboxes.
    pub pushes_queued: u64,
}

/// A long-lived routing service: one resident deployment, many sessions.
pub struct RoutingService {
    harness: RoutingHarness,
    config: ServiceConfig,
    sessions: BTreeMap<u64, Session>,
    /// Owner of each live query.
    owners: BTreeMap<QueryId, u64>,
    next_session: u64,
    counters: ServiceCounters,
    shutdown_requested: bool,
}

impl RoutingService {
    /// Build a service over `topology` with `config`.
    pub fn new(topology: Topology, config: ServiceConfig) -> RoutingService {
        RoutingService {
            harness: RoutingHarness::new(topology),
            config,
            sessions: BTreeMap::new(),
            owners: BTreeMap::new(),
            next_session: 1,
            counters: ServiceCounters::default(),
            shutdown_requested: false,
        }
    }

    /// The resident harness (tests compare against a single-harness oracle).
    pub fn harness(&self) -> &RoutingHarness {
        &self.harness
    }

    /// Mutable access to the resident harness — the escape hatch embedders
    /// use to schedule simulator events (churn, link dynamics) that have no
    /// wire request.
    pub fn harness_mut(&mut self) -> &mut RoutingHarness {
        &mut self.harness
    }

    /// Aggregate lifetime counters.
    pub fn counters(&self) -> ServiceCounters {
        self.counters
    }

    /// True once a client asked the service to shut down.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_requested
    }

    /// Number of currently open sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Number of currently live queries across all sessions.
    pub fn live_queries(&self) -> usize {
        self.owners.len()
    }

    /// Open a session. The transport calls this on `Request::Connect`; the
    /// client's name is not kept.
    pub fn connect(&mut self, _client: &str) -> (u64, Response) {
        let sid = self.next_session;
        self.next_session += 1;
        self.sessions.insert(
            sid,
            Session { queries: BTreeSet::new(), subs: BTreeMap::new(), outbox: VecDeque::new() },
        );
        self.counters.sessions_opened += 1;
        let resp = Response::Connected {
            session: sid,
            nodes: self.harness.sim().topology().num_nodes() as u32,
            now_millis: self.harness.now().as_millis_f64() as u64,
        };
        (sid, resp)
    }

    /// Close a session, tearing down every query it still owns.
    pub fn disconnect(&mut self, sid: u64) {
        let Some(session) = self.sessions.remove(&sid) else { return };
        self.counters.sessions_closed += 1;
        for qid in session.queries {
            self.owners.remove(&qid);
            let at = self.harness.now();
            self.harness.teardown(qid, at);
            self.counters.queries_torn_down += 1;
        }
    }

    /// Apply one request on behalf of session `sid` and return the direct
    /// response. Push responses (deltas) go to the session outbox instead.
    pub fn apply(&mut self, sid: u64, req: Request) -> Response {
        if !self.sessions.contains_key(&sid) {
            return self.error(ErrorCode::NotConnected, "no such session");
        }
        match req {
            Request::Connect { .. } => {
                self.error(ErrorCode::BadRequest, "session already connected")
            }
            Request::IssueQuery { program, options } => self.issue(sid, &program, options),
            Request::TeardownQuery { qid } => self.teardown(sid, qid),
            Request::InjectFacts { qid, node, facts } => self.inject(sid, qid, node, &facts),
            Request::Subscribe { qid } => self.subscribe(sid, qid),
            Request::Stats => Response::Stats { lines: self.stats_lines() },
            Request::Advance { millis } => {
                self.advance(SimDuration::from_millis(millis));
                Response::Advanced { now_millis: self.harness.now().as_millis_f64() as u64 }
            }
            Request::Shutdown => {
                self.shutdown_requested = true;
                Response::ShuttingDown
            }
            Request::Explain { qid, tuple } => self.explain(qid, &tuple),
        }
    }

    fn error(&mut self, code: ErrorCode, message: impl Into<String>) -> Response {
        self.counters.errors += 1;
        Response::Error { code, message: message.into() }
    }

    fn issue(&mut self, sid: u64, program: &str, options: IssueOptions) -> Response {
        let session = self.sessions.get(&sid).expect("checked by apply");
        if session.queries.len() >= self.config.max_queries_per_session {
            let cap = self.config.max_queries_per_session;
            return self.error(
                ErrorCode::QuotaExceeded,
                format!("session already owns {cap} live queries"),
            );
        }
        let issuer = NodeId::new(options.issuer);
        if options.issuer as usize >= self.harness.sim().topology().num_nodes() {
            return self.error(
                ErrorCode::BadRequest,
                format!("issuer node {} outside the topology", options.issuer),
            );
        }
        let parsed = match parse_program(program) {
            Ok(p) => p,
            Err(e) => return self.error(ErrorCode::Parse, e.to_string()),
        };
        if let Some(name) = first_unbound(&parsed, &options) {
            return self.error(
                ErrorCode::BadRequest,
                format!("the program does not bind relation {name:?}"),
            );
        }
        let at = self.harness.now();
        let submitted = self
            .harness
            .issue(parsed)
            .from(issuer)
            .at(at)
            .named(&options.name)
            .replicated(options.replicated.iter().map(String::as_str))
            .aggregate_selections(options.aggregate_selections)
            .sharing(options.share_results)
            .cache_relation(&options.cache_relation)
            .facts(options.facts.iter().map(WireTuple::to_tuple).collect())
            .provenance(options.record_provenance)
            .submit();
        match submitted {
            Ok(handle) => {
                let qid = handle.id();
                self.sessions.get_mut(&sid).expect("checked").queries.insert(qid);
                self.owners.insert(qid, sid);
                self.counters.queries_issued += 1;
                Response::Issued { qid }
            }
            Err(e) => self.error(ErrorCode::Parse, e.to_string()),
        }
    }

    fn teardown(&mut self, sid: u64, qid: QueryId) -> Response {
        match self.owners.get(&qid) {
            None => self.error(ErrorCode::UnknownQuery, format!("no live query {qid}")),
            Some(&owner) if owner != sid => {
                self.error(ErrorCode::NotOwner, format!("query {qid} belongs to session {owner}"))
            }
            Some(_) => {
                self.owners.remove(&qid);
                let session = self.sessions.get_mut(&sid).expect("checked by apply");
                session.queries.remove(&qid);
                let at = self.harness.now();
                self.harness.teardown(qid, at);
                self.counters.queries_torn_down += 1;
                Response::TornDown { qid }
            }
        }
    }

    fn inject(&mut self, sid: u64, qid: QueryId, node: u32, facts: &[WireTuple]) -> Response {
        match self.owners.get(&qid) {
            None => self.error(ErrorCode::UnknownQuery, format!("no live query {qid}")),
            Some(&owner) if owner != sid => {
                self.error(ErrorCode::NotOwner, format!("query {qid} belongs to session {owner}"))
            }
            Some(_) => {
                if node as usize >= self.harness.sim().topology().num_nodes() {
                    return self
                        .error(ErrorCode::BadRequest, format!("node {node} outside the topology"));
                }
                let spec = self.harness.library().get(qid);
                let unbound =
                    facts.iter().find(|f| !spec.as_ref().is_some_and(|s| s.binds(&f.relation)));
                if let Some(fact) = unbound {
                    return self.unbound(qid, &fact.relation);
                }
                let batch: Vec<_> = facts.iter().map(|f| (f.to_tuple(), None)).collect();
                let count = batch.len() as u32;
                let at = self.harness.now();
                self.harness.sim_mut().inject(
                    at,
                    NodeId::new(node),
                    NetMsg::Tuples { qid, seq: None, batch },
                );
                self.counters.facts_injected += u64::from(count);
                Response::Injected { qid, count }
            }
        }
    }

    /// Refuse a client tuple whose relation query `qid` does not bind.
    /// Checked before the tuple is built, so the name is never interned.
    fn unbound(&mut self, qid: QueryId, relation: &str) -> Response {
        self.error(
            ErrorCode::BadRequest,
            format!("query {qid} does not bind relation {relation:?}"),
        )
    }

    /// Materialize a derivation tree. Explanations are read-only, so any
    /// connected session may ask about any live query (not just its own);
    /// the harness types the failure modes — unknown/torn-down queries and
    /// tuples nobody stores come back as errors, never a wedge or a panic.
    fn explain(&mut self, qid: QueryId, tuple: &WireTuple) -> Response {
        let Some(spec) = self.harness.library().get(qid) else {
            return self.error(ErrorCode::UnknownQuery, ExplainError::UnknownQuery.to_string());
        };
        if !spec.binds(&tuple.relation) {
            return self.unbound(qid, &tuple.relation);
        }
        let t = tuple.to_tuple();
        match self.harness.explain(qid, &t) {
            Ok(tree) => Response::Explanation { qid, nodes: flatten_tree(&tree) },
            Err(e @ (ExplainError::UnknownQuery | ExplainError::TornDown)) => {
                self.error(ErrorCode::UnknownQuery, e.to_string())
            }
            Err(e) => self.error(ErrorCode::BadRequest, e.to_string()),
        }
    }

    fn subscribe(&mut self, sid: u64, qid: QueryId) -> Response {
        if !self.owners.contains_key(&qid) {
            return self.error(ErrorCode::UnknownQuery, format!("no live query {qid}"));
        }
        let session = self.sessions.get_mut(&sid).expect("checked by apply");
        session.subs.insert(qid, Subscription { cursor: ResultCursor::new(qid), missed: 0 });
        Response::Subscribed { qid }
    }

    /// Advance simulated time and poll every subscription once.
    pub fn advance(&mut self, step: SimDuration) {
        let until = self.harness.now() + step;
        self.harness.run_until(until);
        self.poll_subscriptions();
    }

    /// Poll every subscription whose session outbox has room; count a
    /// missed round for the ones that don't. A subscription ends with its
    /// query: once the query is torn down and the subscriber has been told
    /// of the removal of every result it was ever sent (however many polls
    /// the teardown flood took), it is dropped instead of being polled on
    /// every tick forever.
    fn poll_subscriptions(&mut self) {
        let cap = self.config.subscriber_queue_cap;
        let now_millis = self.harness.now().as_millis_f64() as u64;
        let pushes_queued = &mut self.counters.pushes_queued;
        for Session { subs, outbox, .. } in self.sessions.values_mut() {
            subs.retain(|&qid, sub| {
                if outbox.len() >= cap {
                    sub.missed += 1;
                    return true;
                }
                let delta = sub.cursor.poll(&self.harness);
                if !delta.is_empty() {
                    *pushes_queued += 1 + u64::from(sub.missed > 0);
                    if sub.missed > 0 {
                        outbox.push_back(Response::Lagged { qid, missed: sub.missed });
                        sub.missed = 0;
                    }
                    outbox.push_back(Response::Delta {
                        qid,
                        now_millis,
                        added: delta.added.iter().map(WireTuple::from_tuple).collect(),
                        removed: delta.removed.iter().map(WireTuple::from_tuple).collect(),
                    });
                }
                self.owners.contains_key(&qid) || !sub.cursor.holds_nothing()
            });
        }
    }

    /// Pop up to `max` queued push responses for session `sid`. Transports
    /// call this with however much room they have; what stays queued keeps
    /// exerting backpressure on the session's cursors.
    pub fn drain_outbox(&mut self, sid: u64, max: usize) -> Vec<Response> {
        let Some(session) = self.sessions.get_mut(&sid) else { return Vec::new() };
        let n = session.outbox.len().min(max);
        session.outbox.drain(..n).collect()
    }

    /// Queued push responses for session `sid`.
    pub fn outbox_len(&self, sid: u64) -> usize {
        self.sessions.get(&sid).map_or(0, |s| s.outbox.len())
    }

    /// The line-oriented JSON stats snapshot: one self-describing object
    /// per line (`type` discriminates), so `grep`/`jq` pipelines can
    /// consume it without a streaming JSON parser.
    pub fn stats_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        let now_ms = self.harness.now().as_millis_f64();
        let c = &self.counters;
        lines.push(format!(
            "{{\"type\":\"service\",\"now_ms\":{now_ms:.1},\"sessions\":{},\"live_queries\":{},\
             \"sessions_opened\":{},\"queries_issued\":{},\"queries_torn_down\":{},\
             \"facts_injected\":{},\"errors\":{}}}",
            self.sessions.len(),
            self.owners.len(),
            c.sessions_opened,
            c.queries_issued,
            c.queries_torn_down,
            c.facts_injected,
            c.errors,
        ));
        lines.push(json_counters("processor", self.harness.processor_stats().fields()));
        lines.push(json_counters("footprint", self.harness.state_footprint().fields()));
        lines.push(format!(
            "{{\"type\":\"overhead\",\"per_node_kb\":{:.3}}}",
            self.harness.per_node_overhead_kb()
        ));
        lines.push(json_counters("results", self.harness.result_log_stats().fields()));
        for (start, bytes_per_node_s) in self.harness.sim().metrics().per_node_bandwidth_series() {
            lines.push(format!(
                "{{\"type\":\"bandwidth\",\"t_s\":{:.1},\"bytes_per_node_s\":{:.1}}}",
                start.as_secs_f64(),
                bytes_per_node_s,
            ));
        }
        lines
    }
}

/// Names one connection of a [`Connections`] table.
pub type ConnId = u64;

/// What became of an event's direct reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub enum Reply {
    /// The reply is in the connection's queue.
    Queued,
    /// The queue was at its hard limit: the connection's session is torn
    /// down, its queue holds one [`ErrorCode::Overloaded`] notice, and the
    /// shell should stop reading from the peer.
    Overflow,
    /// The connection is closed (or unknown); the event was not applied.
    Dropped,
}

dr_core::counters! {
    /// Connection-level counters, reported as the `server` stats line.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ServerCounters {
        /// Connections opened.
        pub accepted: u64,
        /// Connections closed, whichever side ended them.
        pub closed: u64,
        /// Connections closed for exceeding the hard queue limit.
        pub overflow_disconnects: u64,
        /// Undecodable payloads and frames answered with `BadRequest`.
        pub malformed: u64,
        /// Times the shell's loop blocked and woke (0 for the in-process hub,
        /// which never sleeps).
        pub wakeups: u64,
        /// Connection events handled: opens, requests, malformed payloads, closes.
        pub events: u64,
    }
}

#[derive(Debug, Default)]
struct Conn {
    /// The session this connection authenticated as (after `Connect`).
    session: Option<u64>,
    /// Encoded frames the shell has not taken yet — direct replies and
    /// pushes, in the order the peer must see them.
    queue: VecDeque<Vec<u8>>,
    /// Closed: no event is applied and no push queued; the entry is dropped
    /// once its queue has been taken.
    closing: bool,
}

/// The sans-IO connection state machine over a [`RoutingService`]: an
/// ordered connection table in which every connection has an optional
/// session and a bounded queue of outgoing frames. A shell (the in-process
/// hub, the TCP engine loop) reports what its peers did — [`open`],
/// [`on_request`], [`on_malformed`], [`close`] — and the passing of
/// simulated time ([`advance`]), then carries away what [`take_frame`]
/// hands it. Nothing here blocks, sleeps or touches a socket.
///
/// [`open`]: Connections::open
/// [`on_request`]: Connections::on_request
/// [`on_malformed`]: Connections::on_malformed
/// [`close`]: Connections::close
/// [`advance`]: Connections::advance
/// [`take_frame`]: Connections::take_frame
pub struct Connections {
    service: RoutingService,
    conns: BTreeMap<ConnId, Conn>,
    /// Connections that gained frames since [`Connections::take_ready`].
    ready: BTreeSet<ConnId>,
    /// The subset of `ready` that gained a direct reply.
    replied: BTreeSet<ConnId>,
    next_conn: ConnId,
    push_cap: usize,
    reply_cap: usize,
    counters: ServerCounters,
}

impl Connections {
    /// Start a service over `topology` with an empty connection table.
    pub fn new(topology: Topology, config: ServiceConfig) -> Connections {
        let push_cap = config.subscriber_queue_cap.max(1);
        let reply_cap = REPLY_CAP_FACTOR * push_cap;
        Connections {
            service: RoutingService::new(topology, config),
            conns: BTreeMap::new(),
            ready: BTreeSet::new(),
            replied: BTreeSet::new(),
            next_conn: 1,
            push_cap,
            reply_cap,
            counters: ServerCounters::default(),
        }
    }

    /// The service behind the table.
    pub fn service(&self) -> &RoutingService {
        &self.service
    }

    /// Mutable access to the service (tests and load drivers schedule
    /// simulator events through it).
    pub fn service_mut(&mut self) -> &mut RoutingService {
        &mut self.service
    }

    /// Connection-level counters.
    pub fn counters(&self) -> ServerCounters {
        self.counters
    }

    /// The shell's loop blocked and woke once more.
    pub fn note_wakeup(&mut self) {
        self.counters.wakeups += 1;
    }

    /// A peer connected; it has no session until it sends `Connect`.
    pub fn open(&mut self) -> ConnId {
        let id = self.next_conn;
        self.next_conn += 1;
        self.conns.insert(id, Conn::default());
        self.counters.accepted += 1;
        self.counters.events += 1;
        id
    }

    /// One frame's worth from connection `id`: a decoded request, or why
    /// the payload did not decode.
    pub fn on_frame(&mut self, id: ConnId, frame: Result<Request, String>) -> Reply {
        match frame {
            Ok(req) => self.on_request(id, req),
            Err(message) => self.on_malformed(id, message),
        }
    }

    /// Apply one decoded request from connection `id`: queue its direct
    /// reply, then the pushes it caused (for every connection), so a delta
    /// never trails behind requests that were merely queued after its cause.
    pub fn on_request(&mut self, id: ConnId, req: Request) -> Reply {
        self.counters.events += 1;
        let admitted = self.admit(id);
        if admitted != Reply::Queued {
            return admitted;
        }
        let pushes_before = self.service.counters.pushes_queued;
        let session = &mut self.conns.get_mut(&id).expect("admitted").session;
        let mut resp = match (*session, req) {
            (None, Request::Connect { client }) => {
                let (sid, resp) = self.service.connect(&client);
                *session = Some(sid);
                resp
            }
            (None, _) => Response::Error {
                code: ErrorCode::NotConnected,
                message: "the first request must be Connect".to_string(),
            },
            (Some(sid), req) => self.service.apply(sid, req),
        };
        if let Response::Stats { lines } = &mut resp {
            lines.push(self.server_line());
        }
        self.enqueue(id, &resp);
        if self.service.counters.pushes_queued != pushes_before {
            self.drain_outboxes();
        }
        Reply::Queued
    }

    /// Connection `id` sent bytes that do not decode; answer `BadRequest`.
    pub fn on_malformed(&mut self, id: ConnId, message: String) -> Reply {
        self.counters.events += 1;
        let admitted = self.admit(id);
        if admitted == Reply::Queued {
            self.counters.malformed += 1;
            self.enqueue(id, &Response::Error { code: ErrorCode::BadRequest, message });
        }
        admitted
    }

    /// The peer is gone, or must not be heard any more: tear down the
    /// session (and with it every query it owns) exactly once. Frames
    /// already queued stay takeable; the entry goes with the last of them.
    pub fn close(&mut self, id: ConnId) {
        self.counters.events += 1;
        self.shut(id);
    }

    /// Advance simulated time by `step` and queue the pushes that causes.
    pub fn advance(&mut self, step: SimDuration) {
        self.service.advance(step);
        self.drain_outboxes();
    }

    /// Move pushes from session outboxes into connection queues, in table
    /// order, each while its queue is under the soft limit. What stays in
    /// an outbox keeps exerting backpressure on that session's cursors.
    pub fn drain_outboxes(&mut self) {
        for (&id, conn) in &mut self.conns {
            if fill(&mut self.service, conn, self.push_cap) {
                self.ready.insert(id);
            }
        }
    }

    /// Take the next frame (length prefix included) queued for connection
    /// `id`; the room this makes is refilled from the session's outbox.
    pub fn take_frame(&mut self, id: ConnId) -> Option<Vec<u8>> {
        let conn = self.conns.get_mut(&id)?;
        fill(&mut self.service, conn, self.push_cap);
        let frame = conn.queue.pop_front();
        if conn.closing && conn.queue.is_empty() {
            self.forget(id);
        }
        frame
    }

    /// The connections that gained frames since the last call: those that
    /// gained only pushes first, then those owed a direct reply, each group
    /// in table order. A shell that flushes in this order hands a request's
    /// pushes to the other subscribers' writers before the requester's
    /// reply goes out, so they see the change no later than the requester.
    pub fn take_ready(&mut self) -> Vec<ConnId> {
        let replied = std::mem::take(&mut self.replied);
        let (mut owed, mut order): (Vec<ConnId>, Vec<ConnId>) =
            std::mem::take(&mut self.ready).into_iter().partition(|id| replied.contains(id));
        order.append(&mut owed);
        order
    }

    /// Frames queued for connection `id` and not taken yet.
    #[cfg(test)]
    fn queued(&self, id: ConnId) -> usize {
        self.conns.get(&id).map_or(0, |conn| conn.queue.len())
    }

    /// True once `id` is closed and every frame queued for it was taken.
    pub fn is_gone(&self, id: ConnId) -> bool {
        !self.conns.contains_key(&id)
    }

    /// Drop connection `id` and whatever is still queued for it: the shell
    /// can no longer deliver anything.
    pub fn discard(&mut self, id: ConnId) {
        self.shut(id);
        self.forget(id);
    }

    fn forget(&mut self, id: ConnId) {
        self.conns.remove(&id);
        self.ready.remove(&id);
        self.replied.remove(&id);
    }

    fn shut(&mut self, id: ConnId) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        if !conn.closing {
            conn.closing = true;
            self.counters.closed += 1;
            if let Some(sid) = conn.session.take() {
                self.service.disconnect(sid);
            }
        }
        if conn.queue.is_empty() {
            self.forget(id);
        }
    }

    /// Whether connection `id` may be answered: not if it is closed, and a
    /// queue at the hard limit closes it here.
    fn admit(&mut self, id: ConnId) -> Reply {
        match self.conns.get_mut(&id) {
            None => Reply::Dropped,
            Some(conn) if conn.closing => Reply::Dropped,
            Some(conn) if conn.queue.len() >= self.reply_cap => {
                let held = conn.queue.len();
                conn.queue.clear();
                self.counters.overflow_disconnects += 1;
                self.enqueue(
                    id,
                    &Response::Error {
                        code: ErrorCode::Overloaded,
                        message: format!("{held} frames queued and the peer is not reading"),
                    },
                );
                self.shut(id);
                Reply::Overflow
            }
            Some(_) => Reply::Queued,
        }
    }

    fn enqueue(&mut self, id: ConnId, resp: &Response) {
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.queue.push_back(frame_response(resp));
            self.ready.insert(id);
            self.replied.insert(id);
        }
    }

    fn server_line(&self) -> String {
        let c = &self.counters;
        let open = std::iter::once(("connections_open", c.accepted - c.closed));
        json_counters("server", open.chain(c.fields()))
    }
}

/// One line of the stats snapshot: `{"type":"<kind>","<name>":<value>,...}`,
/// the counters in the order given.
fn json_counters(kind: &str, fields: impl Iterator<Item = (&'static str, u64)>) -> String {
    let mut line = format!("{{\"type\":\"{kind}\"");
    for (name, value) in fields {
        write!(line, ",\"{name}\":{value}").expect("writing to a String cannot fail");
    }
    line.push('}');
    line
}

/// The first relation `options` names that `program` does not bind: a
/// non-default cache relation the program never mentions, or a fact's or
/// replicated relation that is neither mentioned, `link`, nor the cache
/// relation (the set a node's receive path accepts). Only the program text
/// is consulted, so a refused request interns no client-sent name.
fn first_unbound<'a>(program: &Program, options: &'a IssueOptions) -> Option<&'a str> {
    let mentioned = program.all_relations();
    let cache = options.cache_relation.as_str();
    if cache != IssueOptions::default().cache_relation && !mentioned.contains(cache) {
        return Some(cache);
    }
    let facts = options.facts.iter().map(|fact| fact.relation.as_str());
    let mut names = facts.chain(options.replicated.iter().map(String::as_str));
    names.find(|&name| name != "link" && name != cache && !mentioned.contains(name))
}

/// Move pushes from `conn`'s session outbox into its queue while the queue
/// is under `cap`; true if any moved.
fn fill(service: &mut RoutingService, conn: &mut Conn, cap: usize) -> bool {
    let Some(sid) = conn.session else { return false };
    let pushes = service.drain_outbox(sid, cap.saturating_sub(conn.queue.len()));
    conn.queue.extend(pushes.iter().map(frame_response));
    !pushes.is_empty()
}

/// A small deterministic topology for service defaults and examples: an
/// `n`-node ring of unit-cost links plus cross-ring chords every four
/// nodes, giving alternate paths so link updates and churn actually
/// reroute.
pub fn default_topology(n: usize) -> Topology {
    use dr_netsim::LinkParams;
    let n = n.max(2);
    let mut topo = Topology::new(n);
    let link = || LinkParams::with_latency_ms(5.0).with_cost(dr_types::Cost::new(1.0));
    for i in 0..n {
        let a = NodeId::new(i as u32);
        let b = NodeId::new(((i + 1) % n) as u32);
        topo.add_bidirectional(a, b, link());
    }
    for i in (0..n).step_by(4) {
        let far = (i + n / 2) % n;
        if far != i && !topo.has_link(NodeId::new(i as u32), NodeId::new(far as u32)) {
            topo.add_bidirectional(NodeId::new(i as u32), NodeId::new(far as u32), link());
        }
    }
    topo
}

#[cfg(test)]
#[path = "service_tests.rs"]
mod tests;
