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
use dr_datalog::parse_program;
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
    client: String,
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

    /// Open a session. The transport calls this on `Request::Connect`.
    pub fn connect(&mut self, client: &str) -> (u64, Response) {
        let sid = self.next_session;
        self.next_session += 1;
        self.sessions.insert(
            sid,
            Session {
                client: client.to_string(),
                queries: BTreeSet::new(),
                subs: BTreeMap::new(),
                outbox: VecDeque::new(),
            },
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

    /// Materialize a derivation tree. Explanations are read-only, so any
    /// connected session may ask about any live query (not just its own);
    /// the harness types the failure modes — unknown/torn-down queries and
    /// tuples nobody stores come back as errors, never a wedge or a panic.
    fn explain(&mut self, qid: QueryId, tuple: &WireTuple) -> Response {
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

    /// The connected client names (diagnostics).
    pub fn client_names(&self) -> Vec<String> {
        self.sessions.values().map(|s| s.client.clone()).collect()
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

    /// The connections that gained frames since the last call, in table order.
    pub fn take_ready(&mut self) -> BTreeSet<ConnId> {
        std::mem::take(&mut self.ready)
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
mod tests {
    use super::*;

    const BEST_PATH: &str = crate::BEST_PATH_PROGRAM;

    fn service(nodes: usize) -> RoutingService {
        RoutingService::new(default_topology(nodes), ServiceConfig::default())
    }

    #[test]
    fn wire_default_options_are_the_engines_issuance_defaults() {
        // `IssueOptions::default` spells the defaults again because it is
        // the wire format's; it must not drift from `QueryDef`'s.
        let mut svc = service(4);
        let (sid, _) = svc.connect("t");
        let issue =
            Request::IssueQuery { program: BEST_PATH.into(), options: IssueOptions::default() };
        let Response::Issued { qid } = svc.apply(sid, issue) else { panic!("issue refused") };
        let wire = svc.harness().library().get(qid).expect("spec registered");
        let def = dr_core::QueryDef::new(parse_program(BEST_PATH).unwrap());
        let engine = dr_core::QuerySpec::new(qid, def).unwrap();
        assert_eq!(wire.name, engine.name);
        assert_eq!(wire.aggregate_selections, engine.aggregate_selections);
        assert_eq!(wire.share_results, engine.share_results);
        assert_eq!(wire.cache_relation, engine.cache_relation);
        assert_eq!(wire.replicated, engine.replicated);
        assert_eq!(wire.facts, engine.facts);
        assert_eq!(wire.record_provenance, engine.record_provenance);
    }

    #[test]
    fn issue_advance_subscribe_teardown_lifecycle() {
        let mut svc = service(8);
        let (sid, resp) = svc.connect("t");
        assert!(matches!(resp, Response::Connected { nodes: 8, .. }));

        let resp = svc.apply(
            sid,
            Request::IssueQuery {
                program: BEST_PATH.to_string(),
                options: IssueOptions::default(),
            },
        );
        let Response::Issued { qid } = resp else { panic!("{resp:?}") };

        assert!(matches!(svc.apply(sid, Request::Subscribe { qid }), Response::Subscribed { .. }));
        svc.apply(sid, Request::Advance { millis: 10_000 });
        let pushed = svc.drain_outbox(sid, usize::MAX);
        assert!(
            pushed.iter().any(|r| matches!(r, Response::Delta { added, .. } if !added.is_empty())),
            "expected a non-empty delta, got {pushed:?}"
        );

        assert!(matches!(
            svc.apply(sid, Request::TeardownQuery { qid }),
            Response::TornDown { .. }
        ));
        svc.apply(sid, Request::Advance { millis: 10_000 });
        assert_eq!(svc.live_queries(), 0);
        assert!(svc.harness().state_footprint().is_empty());
    }

    #[test]
    fn subscription_ends_with_its_query() {
        let mut svc = service(8);
        let (sid, _) = svc.connect("t");
        let issue = Request::IssueQuery {
            program: BEST_PATH.to_string(),
            options: IssueOptions::default(),
        };
        let Response::Issued { qid } = svc.apply(sid, issue) else { panic!("issue failed") };
        svc.apply(sid, Request::Subscribe { qid });
        svc.apply(sid, Request::Advance { millis: 10_000 });
        let (mut added, mut removed) = (0, 0);
        for push in svc.drain_outbox(sid, usize::MAX) {
            let Response::Delta { added: a, removed: r, .. } = push else {
                panic!("unexpected push {push:?}");
            };
            added += a.len();
            removed += r.len();
        }
        let routes = added - removed;
        assert!(routes > 0);

        svc.apply(sid, Request::TeardownQuery { qid });
        // The first poll after the teardown reports every route removed and
        // retires the cursor with it; the second advance has nothing to poll.
        svc.apply(sid, Request::Advance { millis: 10_000 });
        assert!(svc.sessions[&sid].subs.is_empty(), "dead subscription still polled");
        svc.apply(sid, Request::Advance { millis: 10_000 });
        let pushed = svc.drain_outbox(sid, usize::MAX);
        let [Response::Delta { qid: q, added, removed, .. }] = pushed.as_slice() else {
            panic!("expected exactly one removal delta, got {pushed:?}");
        };
        assert_eq!(*q, qid);
        assert!(added.is_empty());
        assert_eq!(removed.len(), routes);
    }

    #[test]
    fn explain_round_trip_and_typed_failures() {
        let mut svc = service(8);
        let (sid, _) = svc.connect("explainer");

        // Unknown query: typed error, not a wedge.
        let bogus = WireTuple { relation: "bestPath".into(), values: vec![] };
        assert!(matches!(
            svc.apply(sid, Request::Explain { qid: 123, tuple: bogus.clone() }),
            Response::Error { code: ErrorCode::UnknownQuery, .. }
        ));

        // A query issued *without* provenance recording is a BadRequest.
        let Response::Issued { qid: plain } = svc.apply(
            sid,
            Request::IssueQuery {
                program: BEST_PATH.to_string(),
                options: IssueOptions::default(),
            },
        ) else {
            panic!("issue failed")
        };
        svc.apply(sid, Request::Advance { millis: 5_000 });
        assert!(matches!(
            svc.apply(sid, Request::Explain { qid: plain, tuple: bogus.clone() }),
            Response::Error { code: ErrorCode::BadRequest, .. }
        ));

        // With recording on, a derived route explains into a rebuildable
        // flat tree whose root is the asked-about tuple.
        let Response::Issued { qid } = svc.apply(
            sid,
            Request::IssueQuery {
                program: BEST_PATH.to_string(),
                options: IssueOptions { record_provenance: true, ..IssueOptions::default() },
            },
        ) else {
            panic!("issue failed")
        };
        svc.apply(sid, Request::Subscribe { qid });
        svc.apply(sid, Request::Advance { millis: 10_000 });
        let route = svc
            .drain_outbox(sid, usize::MAX)
            .into_iter()
            .find_map(|r| match r {
                Response::Delta { added, .. } => added.into_iter().find(|t| {
                    t.values
                        .iter()
                        .any(|v| matches!(v, crate::protocol::WireValue::Cost(c) if c.is_finite()))
                }),
                _ => None,
            })
            .expect("a finite route was pushed");
        let resp = svc.apply(sid, Request::Explain { qid, tuple: route.clone() });
        let Response::Explanation { qid: got, nodes } = resp else { panic!("{resp:?}") };
        assert_eq!(got, qid);
        let tree = crate::protocol::tree_from_flat(&nodes).expect("well-formed flat tree");
        assert_eq!(tree.tuple(), &route.to_tuple());
        assert!(tree.is_fully_resolved(), "{tree}");

        // After teardown the same request is typed UnknownQuery.
        svc.apply(sid, Request::TeardownQuery { qid });
        svc.apply(sid, Request::Advance { millis: 10_000 });
        assert!(matches!(
            svc.apply(sid, Request::Explain { qid, tuple: route }),
            Response::Error { code: ErrorCode::UnknownQuery, .. }
        ));
        // Explain state does not outlive the query.
        assert_eq!(svc.harness().state_footprint().prov_records, 0);
    }

    #[test]
    fn quota_ownership_and_unknown_query_errors() {
        let mut svc = RoutingService::new(
            default_topology(4),
            ServiceConfig { max_queries_per_session: 1, ..ServiceConfig::default() },
        );
        let (alice, _) = svc.connect("alice");
        let (bob, _) = svc.connect("bob");
        let issue =
            |options: IssueOptions| Request::IssueQuery { program: BEST_PATH.to_string(), options };

        let Response::Issued { qid } = svc.apply(alice, issue(IssueOptions::default())) else {
            panic!("first issue must succeed")
        };
        assert!(matches!(
            svc.apply(alice, issue(IssueOptions::default())),
            Response::Error { code: ErrorCode::QuotaExceeded, .. }
        ));
        assert!(matches!(
            svc.apply(bob, Request::TeardownQuery { qid }),
            Response::Error { code: ErrorCode::NotOwner, .. }
        ));
        assert!(matches!(
            svc.apply(alice, Request::TeardownQuery { qid: 999 }),
            Response::Error { code: ErrorCode::UnknownQuery, .. }
        ));
        assert!(matches!(
            svc.apply(alice, Request::TeardownQuery { qid }),
            Response::TornDown { .. }
        ));
        // Teardown frees quota: a new issue succeeds.
        assert!(matches!(
            svc.apply(alice, issue(IssueOptions::default())),
            Response::Issued { .. }
        ));
    }

    #[test]
    fn disconnect_tears_down_owned_queries() {
        let mut svc = service(6);
        let (sid, _) = svc.connect("ephemeral");
        let Response::Issued { .. } = svc.apply(
            sid,
            Request::IssueQuery {
                program: BEST_PATH.to_string(),
                options: IssueOptions::default(),
            },
        ) else {
            panic!("issue failed")
        };
        svc.apply(sid, Request::Advance { millis: 5_000 });
        assert!(!svc.harness().state_footprint().is_empty());

        svc.disconnect(sid);
        // Time must keep flowing for the teardown flood to propagate; a
        // surviving session (or the server tick) provides that.
        let (other, _) = svc.connect("survivor");
        svc.apply(other, Request::Advance { millis: 10_000 });
        assert_eq!(svc.live_queries(), 0);
        assert!(svc.harness().state_footprint().is_empty());
    }

    #[test]
    fn slow_subscriber_lags_and_memory_stays_bounded() {
        let mut svc = RoutingService::new(
            default_topology(8),
            ServiceConfig { subscriber_queue_cap: 2, ..ServiceConfig::default() },
        );
        let (sid, _) = svc.connect("slow");
        let Response::Issued { qid } = svc.apply(
            sid,
            Request::IssueQuery {
                program: BEST_PATH.to_string(),
                options: IssueOptions::default(),
            },
        ) else {
            panic!("issue failed")
        };
        svc.apply(sid, Request::Subscribe { qid });
        svc.apply(sid, Request::Advance { millis: 10_000 });

        // Never drained: keep perturbing a link so every poll has changes.
        let link = |cost: f64| {
            dr_netsim::LinkParams::with_latency_ms(5.0).with_cost(dr_types::Cost::new(cost))
        };
        for round in 0..20u64 {
            let at = svc.harness().now();
            let cost = if round % 2 == 0 { 10.0 } else { 1.0 };
            svc.harness.sim_mut().schedule_link_metric_change(
                at,
                NodeId::new(0),
                NodeId::new(1),
                link(cost),
            );
            svc.apply(sid, Request::Advance { millis: 2_000 });
        }
        assert!(svc.outbox_len(sid) <= 2, "outbox must stay bounded");

        // Catching up yields a Lagged notice before the coalesced delta.
        let drained = svc.drain_outbox(sid, usize::MAX);
        let at = svc.harness().now();
        svc.harness.sim_mut().schedule_link_metric_change(
            at,
            NodeId::new(0),
            NodeId::new(1),
            link(3.0),
        );
        svc.apply(sid, Request::Advance { millis: 5_000 });
        let caught_up = svc.drain_outbox(sid, usize::MAX);
        let lagged = caught_up.iter().find_map(|r| match r {
            Response::Lagged { missed, .. } => Some(*missed),
            _ => None,
        });
        assert!(
            lagged.is_some_and(|m| m > 0),
            "expected Lagged after starved polls; drained={drained:?} caught_up={caught_up:?}"
        );
    }

    // --- the connection state machine, with no socket anywhere -----------

    /// A table whose queues hold `push_cap` pushes (soft limit) and
    /// `REPLY_CAP_FACTOR * push_cap` frames in all (hard limit).
    fn table(push_cap: usize) -> Connections {
        let config = ServiceConfig { subscriber_queue_cap: push_cap, ..ServiceConfig::default() };
        Connections::new(default_topology(8), config)
    }

    /// Take and decode everything queued for `id`.
    fn taken(table: &mut Connections, id: ConnId) -> Vec<Response> {
        std::iter::from_fn(|| table.take_frame(id))
            .map(|frame| Response::decode(&frame[4..]).expect("a well-formed frame"))
            .collect()
    }

    /// Apply `req` on `id` and return its direct reply, which must be the
    /// only frame queued.
    fn call(table: &mut Connections, id: ConnId, req: Request) -> Response {
        assert_eq!(table.on_request(id, req), Reply::Queued);
        let mut replies = taken(table, id);
        assert_eq!(replies.len(), 1, "{replies:?}");
        replies.remove(0)
    }

    /// Open a connection and a session on it; returns (connection, session).
    fn connected(table: &mut Connections, name: &str) -> (ConnId, u64) {
        let id = table.open();
        let resp = call(table, id, Request::Connect { client: name.to_string() });
        let Response::Connected { session, .. } = resp else { panic!("{resp:?}") };
        (id, session)
    }

    fn issue_best_path(table: &mut Connections, id: ConnId) -> u64 {
        let issue = Request::IssueQuery {
            program: BEST_PATH.to_string(),
            options: IssueOptions::default(),
        };
        let resp = call(table, id, issue);
        let Response::Issued { qid } = resp else { panic!("{resp:?}") };
        qid
    }

    fn flip_link(table: &mut Connections, id: ConnId, qid: u64, cost: f64) {
        let fact = WireTuple {
            relation: "link".to_string(),
            values: vec![
                crate::protocol::WireValue::Node(0),
                crate::protocol::WireValue::Node(1),
                crate::protocol::WireValue::Cost(cost),
            ],
        };
        let resp = call(table, id, Request::InjectFacts { qid, node: 0, facts: vec![fact] });
        assert!(matches!(resp, Response::Injected { .. }), "{resp:?}");
    }

    #[test]
    fn connect_comes_first_and_malformed_payloads_are_survived() {
        let mut table = table(4);
        let id = table.open();
        assert!(matches!(
            call(&mut table, id, Request::Stats),
            Response::Error { code: ErrorCode::NotConnected, .. }
        ));
        assert_eq!(table.on_malformed(id, "malformed request: junk".to_string()), Reply::Queued);
        assert!(matches!(
            taken(&mut table, id).as_slice(),
            [Response::Error { code: ErrorCode::BadRequest, .. }]
        ));
        let connect = Request::Connect { client: "late".to_string() };
        assert!(matches!(call(&mut table, id, connect), Response::Connected { .. }));

        let Response::Stats { lines } = call(&mut table, id, Request::Stats) else {
            panic!("stats refused")
        };
        let line = |kind: &str| {
            let tag = format!("{{\"type\":\"{kind}\"");
            lines.iter().find(|l| l.starts_with(&tag)).expect("line present").as_str()
        };
        assert_eq!(
            line("processor"),
            "{\"type\":\"processor\",\"tuples_received\":0,\"tuples_sent\":0,\
             \"tuples_derived\":0,\"tuples_pruned\":0,\"tombstones_collapsed\":0,\
             \"tuples_rejected\":0,\"prune_evicted\":0,\"batches\":0,\
             \"retransmits\":0,\"dups_dropped\":0,\"acks_sent\":0,\
             \"gaps_skipped\":0,\"prov_recorded\":0,\"prov_fetches\":0,\"eval_errors\":0}"
        );
        assert_eq!(
            line("footprint"),
            "{\"type\":\"footprint\",\"instances\":0,\"stored_tuples\":0,\
             \"pending_tuples\":0,\"prune_entries\":0,\"shared_relations\":0,\
             \"shared_tuples\":0,\"prov_records\":0}"
        );
        assert_eq!(
            line("results"),
            "{\"type\":\"results\",\"changes_logged\":0,\"entries_read\":0,\
             \"resyncs\":0,\"rows_rescanned\":0,\"truncations\":0}"
        );
        assert_eq!(
            lines.last().map(String::as_str),
            Some(
                "{\"type\":\"server\",\"connections_open\":1,\"accepted\":1,\"closed\":0,\
                 \"overflow_disconnects\":0,\"malformed\":1,\"wakeups\":0,\"events\":5}"
            )
        );
        // An event for a connection the table never opened is dropped.
        assert_eq!(table.on_request(99, Request::Stats), Reply::Dropped);
    }

    #[test]
    fn a_reply_precedes_the_pushes_it_caused_and_later_replies_follow_them() {
        let mut table = table(16);
        let (a, _) = connected(&mut table, "a");
        let (b, _) = connected(&mut table, "b");
        let qid = issue_best_path(&mut table, a);
        for id in [a, b] {
            let resp = call(&mut table, id, Request::Subscribe { qid });
            assert!(matches!(resp, Response::Subscribed { .. }), "{resp:?}");
        }
        table.take_ready();

        // `a` pipelines two requests; nobody takes a frame in between.
        assert_eq!(table.on_request(a, Request::Advance { millis: 10_000 }), Reply::Queued);
        assert_eq!(table.on_request(a, Request::Stats), Reply::Queued);
        assert_eq!(table.take_ready().into_iter().collect::<Vec<_>>(), [a, b]);

        let to_a = taken(&mut table, a);
        assert!(matches!(to_a.first(), Some(Response::Advanced { .. })), "{to_a:?}");
        assert!(matches!(to_a.last(), Some(Response::Stats { .. })), "{to_a:?}");
        let deltas = &to_a[1..to_a.len() - 1];
        assert!(!deltas.is_empty(), "the advance converged the query: {to_a:?}");
        assert!(deltas.iter().all(|r| matches!(r, Response::Delta { .. })), "{to_a:?}");
        // The other subscriber was handed the same deltas by `a`'s request.
        assert_eq!(taken(&mut table, b), deltas);
    }

    #[test]
    fn pushes_stop_at_the_soft_cap_and_resume_when_frames_are_taken() {
        const CAP: usize = 2;
        let mut table = table(CAP);
        let (driver, _) = connected(&mut table, "driver");
        let (slow, slow_sid) = connected(&mut table, "slow");
        let qid = issue_best_path(&mut table, driver);
        assert!(matches!(
            call(&mut table, slow, Request::Subscribe { qid }),
            Response::Subscribed { .. }
        ));
        for round in 0..12u32 {
            flip_link(&mut table, driver, qid, [6.0, 1.0][round as usize % 2]);
            let advanced = call(&mut table, driver, Request::Advance { millis: 2_000 });
            assert!(matches!(advanced, Response::Advanced { .. }), "{advanced:?}");
            assert!(table.queued(slow) <= CAP, "queue over the soft cap at round {round}");
            assert!(table.service().outbox_len(slow_sid) <= CAP, "outbox over its cap");
        }
        assert_eq!(table.queued(slow), CAP);
        assert_eq!(table.service().outbox_len(slow_sid), CAP, "the rest backed up behind it");

        // Taking frames makes room; the outbox follows them out, in order.
        let backlog = taken(&mut table, slow);
        assert_eq!(backlog.len(), 2 * CAP, "{backlog:?}");
        assert_eq!(table.service().outbox_len(slow_sid), 0);
        flip_link(&mut table, driver, qid, 9.0);
        let advanced = call(&mut table, driver, Request::Advance { millis: 2_000 });
        assert!(matches!(advanced, Response::Advanced { .. }), "{advanced:?}");
        let caught_up = taken(&mut table, slow);
        assert!(
            matches!(
                caught_up.as_slice(),
                [Response::Lagged { missed, .. }, Response::Delta { .. }] if *missed > 0
            ),
            "{caught_up:?}"
        );
    }

    #[test]
    fn overflow_is_a_return_value_and_sheds_the_connection() {
        const HARD: usize = REPLY_CAP_FACTOR;
        let mut table = table(1);
        let (id, _) = connected(&mut table, "pipeliner");
        issue_best_path(&mut table, id);
        let (other, _) = connected(&mut table, "bystander");

        for _ in 0..HARD {
            assert_eq!(table.on_request(id, Request::Stats), Reply::Queued);
        }
        assert_eq!(table.on_request(id, Request::Stats), Reply::Overflow);
        assert_eq!(table.on_request(id, Request::Stats), Reply::Dropped);
        assert_eq!(table.on_malformed(id, "junk".to_string()), Reply::Dropped);

        // The session and its query are gone at once; the peer is owed
        // exactly the notice, and the entry goes once that is taken.
        assert_eq!(table.service().session_count(), 1);
        assert_eq!(table.service().live_queries(), 0);
        assert!(!table.is_gone(id));
        assert!(matches!(
            taken(&mut table, id).as_slice(),
            [Response::Error { code: ErrorCode::Overloaded, .. }]
        ));
        assert!(table.is_gone(id));
        let c = table.counters();
        assert_eq!((c.accepted, c.closed, c.overflow_disconnects), (2, 1, 1));
        // Nobody else noticed.
        assert!(matches!(call(&mut table, other, Request::Stats), Response::Stats { .. }));
    }

    #[test]
    fn close_tears_down_the_sessions_queries_once() {
        let mut table = table(4);
        let (id, _) = connected(&mut table, "ephemeral");
        let issue = Request::IssueQuery {
            program: BEST_PATH.to_string(),
            options: IssueOptions::default(),
        };
        // The `Issued` reply is still queued when the peer goes away.
        assert_eq!(table.on_request(id, issue), Reply::Queued);
        table.close(id);
        table.close(id);
        let c = table.service().counters();
        assert_eq!((c.sessions_closed, c.queries_torn_down), (1, 1));
        assert_eq!(table.counters().closed, 1);
        assert_eq!(table.on_request(id, Request::Stats), Reply::Dropped);

        assert!(!table.is_gone(id), "a queued frame outlives the session");
        assert!(matches!(taken(&mut table, id).as_slice(), [Response::Issued { .. }]));
        assert!(table.is_gone(id));
        table.close(id);
        assert_eq!(table.service().counters().sessions_closed, 1);

        // `discard` is the close of a peer that can take nothing more.
        let (gone, _) = connected(&mut table, "dropped");
        assert_eq!(table.on_request(gone, Request::Stats), Reply::Queued);
        table.discard(gone);
        assert!(table.is_gone(gone));
        assert!(table.take_ready().is_empty(), "no frames left to flush");
        assert_eq!(table.service().session_count(), 0);
    }
}
