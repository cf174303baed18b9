//! The per-node query processor (the paper's Figure 1 box).
//!
//! Each [`QueryProcessor`] is a [`NodeApp`] driven by the network simulator.
//! It keeps the node's neighbor table in sync with link events from the
//! routing infrastructure, accepts query installations (disseminated by
//! flooding, with piggy-backed installation when tuples for a not-yet-known
//! query arrive first — §3.5), and executes every installed query as a
//! distributed dataflow:
//!
//! * received and locally derived tuples are batched; every 200 ms (the
//!   paper's batch interval, §9.1.1) the node runs a local semi-naïve
//!   fixpoint over its localized rules, one [`dr_datalog::eval::round`] —
//!   the delta schedule the centralized evaluator runs too — per step,
//! * derived tuples whose home is another node are shipped there, and
//!   tuples required by remote joins are shipped to the join's anchor node
//!   according to the program's [`crate::localize::ShipSpec`]s (the
//!   Figure 2 "clouds"),
//! * aggregate selections (§7.1) prune dominated tuples before they are
//!   stored or shipped — with per-next-hop granularity so that alternate
//!   routes survive for failure recovery (§8),
//! * link failures and metric changes arrive as neighbor-table updates and
//!   are folded into the same incremental dataflow (cost-∞ poisoning),
//! * completed best paths can be written into the node-local, cross-query
//!   `bestPathCache` table and installed along the reverse path, enabling
//!   the multi-query sharing of §7.3.
//!
//! This file is the dataflow itself — route, evaluate, ship. The message
//! vocabulary, the reliable transport, the aggregate-selection gate and the
//! query lifecycle live in the sibling modules `wire`, `transport`,
//! `admission` and `lifecycle`.

use crate::admission::{Admission, Verdict};
use crate::lifecycle::Instance;
use crate::query::{QueryId, QueryLibrary, QuerySpec};
use crate::transport::Streams;
use dr_datalog::builtins::Builtins;
use dr_datalog::database::{Database, Scan};
use dr_datalog::eval::{self, FiringLog, RelationSource};
use dr_netsim::{Context, LinkEvent, NodeApp, SimDuration};
use dr_provenance::{ProvId, ProvRef, ProvStore};
use dr_types::hash::HashMap;
use dr_types::{Cost, NodeId, PathVector, RelId, Tuple, TupleKey, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

pub use crate::stats::{ProcessorStats, StateFootprint};
pub use crate::transport::ReliabilityConfig;
pub use crate::wire::{NetMsg, ProvTag, StreamSeq};

/// How often buffered tuples are processed (the paper uses 200 ms).
const BATCH_INTERVAL: SimDuration = SimDuration::from_millis(200);

/// Name of the neighbor-table relation exposed to queries.
const LINK_RELATION: &str = "link";

/// Configuration shared by every processor in a deployment.
#[derive(Debug, Clone)]
pub struct ProcessorConfig {
    /// The query library all nodes share.
    pub library: Arc<QueryLibrary>,
    /// Loss-tolerant tuple transport. `None` (the default) is the legacy
    /// fire-and-forget wire: batches carry no sequence numbers, nothing is
    /// acknowledged or retransmitted, and the wire accounting is unchanged.
    /// `Some` turns on per-(peer, query) sequence-numbered streams with
    /// cumulative acks, retransmission and duplicate suppression — required
    /// for exact result multisets over lossy links.
    pub reliability: Option<ReliabilityConfig>,
}

impl ProcessorConfig {
    /// Standard configuration around a query library.
    pub fn new(library: Arc<QueryLibrary>) -> ProcessorConfig {
        ProcessorConfig { library, reliability: None }
    }
}

/// Read-through view over the query-local database and the node's shared
/// (cross-query) tables. Chains borrowing cursors over both stores without
/// materializing either.
struct Overlay<'a> {
    local: &'a Database,
    shared: &'a Database,
}

impl RelationSource for Overlay<'_> {
    fn scan(&self, relation: RelId) -> Scan<'_> {
        self.local.scan(relation).chain(self.shared.scan(relation))
    }

    fn probe(&self, relation: RelId, field: usize, value: &Value) -> Scan<'_> {
        self.local.probe(relation, field, value).chain(self.shared.probe(relation, field, value))
    }

    fn probe_key(&self, key: &TupleKey, fields: &[usize]) -> Scan<'_> {
        self.local.probe_key(key, fields).chain(self.shared.probe_key(key, fields))
    }
}

/// The per-node query processor.
pub struct QueryProcessor {
    pub(crate) config: ProcessorConfig,
    /// Interned id of [`LINK_RELATION`], resolved once so per-update link
    /// tuples never hash the name.
    link_rel: RelId,
    pub(crate) node: NodeId,
    builtins: Builtins,
    /// Current neighbor table: neighbor → link cost (∞ when down).
    pub(crate) neighbors: BTreeMap<NodeId, Cost>,
    /// Cross-query shared tables (`bestPathCache`).
    pub(crate) shared: Database,
    pub(crate) instances: BTreeMap<QueryId, Instance>,
    /// Queries this node has torn down. Used to forward a teardown flood
    /// exactly once (whether or not the instance was ever installed here)
    /// and to refuse late `Install`/piggy-backed installations of a dead
    /// query. Query ids are never reused, so the set only grows with the
    /// number of queries ever torn down — a few bytes per lifecycle.
    pub(crate) torn_down: BTreeSet<QueryId>,
    /// Pending batch timer id, so a retransmit timer firing is not mistaken
    /// for the batch tick (and vice versa).
    batch_timer: Option<u64>,
    /// Pending retransmit-scan timer id.
    retx_timer: Option<u64>,
    /// The reliable transport's per-(hop, query) stream state.
    pub(crate) streams: Streams,
    stats: ProcessorStats,
}

/// Everything one ingest pass wants sent once it is done.
#[derive(Default)]
struct Outbox {
    /// Tuples to ship, per destination, each with the provenance tag the
    /// receiver should alias it to.
    ship: BTreeMap<NodeId, Vec<(Tuple, ProvTag)>>,
    /// First hops of reverse-path cache installations (§7.3).
    installs: Vec<(NodeId, NetMsg)>,
}

/// How a tuple entering [`QueryProcessor::route_tuple`] got here, for
/// provenance bookkeeping (ignored unless the query records provenance).
pub(crate) enum ProvAction {
    /// Derived by a local rule firing: record it in the arena. Carries the
    /// rule's index in the localized program and the body tuples the
    /// firing joined, in planned join order.
    Fired(u32, Vec<Tuple>),
    /// Arrived over the wire carrying a pointer to its deriving node's
    /// record: alias it.
    Wire((NodeId, ProvId)),
}

/// The store-side pointer for a wire tag held at node `me`.
fn prov_ref(me: NodeId, (origin, id): (NodeId, ProvId)) -> ProvRef {
    if origin == me {
        ProvRef::Local(id)
    } else {
        ProvRef::Remote(origin, id)
    }
}

/// Put `msg` on the wire to `to`, charged at its wire size.
pub(crate) fn send(ctx: &mut Context<'_, NetMsg>, to: NodeId, msg: NetMsg) {
    let size = msg.wire_size();
    ctx.send(to, msg, size);
}

impl QueryProcessor {
    /// Create a processor with the given deployment configuration.
    pub fn new(config: ProcessorConfig) -> QueryProcessor {
        // The shared store starts empty: cache relations (and their upsert
        // keys) are declared by the installation of the first query that
        // shares through them, and dropped again when their last user is
        // torn down — a long-lived service node holds no residue of
        // queries that no longer exist.
        let streams = Streams::new(config.reliability);
        QueryProcessor {
            config,
            link_rel: RelId::intern(LINK_RELATION),
            node: NodeId::new(0),
            builtins: Builtins::standard(),
            neighbors: BTreeMap::new(),
            shared: Database::new(),
            instances: BTreeMap::new(),
            torn_down: BTreeSet::new(),
            batch_timer: None,
            retx_timer: None,
            streams,
            stats: ProcessorStats::default(),
        }
    }

    /// Runtime counters.
    pub fn stats(&self) -> &ProcessorStats {
        &self.stats
    }

    /// The ids of the queries installed at this node.
    pub fn installed_queries(&self) -> Vec<QueryId> {
        self.instances.keys().copied().collect()
    }

    /// All tuples of `relation` stored at this node for query `qid`.
    pub fn tuples(&self, qid: QueryId, relation: &str) -> Vec<Tuple> {
        self.instances.get(&qid).map(|i| i.db.sorted_tuples(relation)).unwrap_or_default()
    }

    /// The result tuples (of all `Query:` relations) stored at this node.
    pub fn results(&self, qid: QueryId) -> Vec<Tuple> {
        let Some(instance) = self.instances.get(&qid) else { return Vec::new() };
        let mut out = Vec::new();
        for &rel in &instance.spec.program.result_relations {
            out.extend(instance.db.sorted_tuples(rel));
        }
        out
    }

    /// Contents of the cross-query `bestPathCache` table.
    pub fn best_path_cache(&self) -> Vec<Tuple> {
        self.shared.sorted_tuples(crate::query::DEFAULT_CACHE_RELATION)
    }

    /// The forwarding table induced by query `qid`: destination → next hop,
    /// extracted from result tuples that carry a path vector (field layout
    /// `(S, D, P, C)`) or an explicit next-hop field (`(S, D, Z, C)`).
    pub fn forwarding_table(&self, qid: QueryId) -> BTreeMap<NodeId, NodeId> {
        let mut out = BTreeMap::new();
        let Some(instance) = self.instances.get(&qid) else { return out };
        for &rel in &instance.spec.program.result_relations {
            // Of several rows for one destination the greatest decides,
            // whatever order the store yields them in.
            let mut deciding: BTreeMap<NodeId, (&Tuple, NodeId)> = BTreeMap::new();
            for t in instance.db.scan(rel) {
                let Some((dest, next)) = self.next_hop(t) else { continue };
                let entry = deciding.entry(dest).or_insert((t, next));
                if t > entry.0 {
                    *entry = (t, next);
                }
            }
            out.extend(deciding.into_iter().map(|(dest, (_, next))| (dest, next)));
        }
        out
    }

    /// The forwarding entry (destination, next hop) result row `t` stands
    /// for, if it is a finite route from this node.
    fn next_hop(&self, t: &Tuple) -> Option<(NodeId, NodeId)> {
        if t.node_at(0) != Some(self.node) {
            return None;
        }
        let dest = t.node_at(1)?;
        let cost = t.fields().last().and_then(Value::as_cost).unwrap_or(Cost::ZERO);
        if cost.is_infinite() {
            return None;
        }
        let next = match t.field(2)? {
            Value::Path(p) if p.len() >= 2 => p.nodes()[1],
            Value::Node(n) => *n,
            _ => return None,
        };
        Some((dest, next))
    }

    /// Number of aggregate-selection prune-state entries currently held for
    /// query `qid` (regression hook for the churn tests: the map must not
    /// grow monotonically across fail/join cycles).
    pub fn prune_entries(&self, qid: QueryId) -> usize {
        self.instances.get(&qid).map_or(0, |i| i.admission.entries())
    }

    /// True when this node has processed a teardown for `qid` (and will
    /// refuse to reinstall it).
    pub fn is_torn_down(&self, qid: QueryId) -> bool {
        self.torn_down.contains(&qid)
    }

    /// Number of tuples sitting in query `qid`'s pending (delta) buffers.
    pub fn pending_tuples(&self, qid: QueryId) -> usize {
        self.instances.get(&qid).map_or(0, Instance::pending_len)
    }

    /// Sizes of everything this node currently stores on behalf of queries
    /// (see [`StateFootprint`]).
    pub fn state_footprint(&self) -> StateFootprint {
        let mut f = StateFootprint {
            instances: self.instances.len(),
            shared_relations: self.shared.relation_count(),
            shared_tuples: self.shared.total_tuples(),
            ..StateFootprint::default()
        };
        for instance in self.instances.values() {
            f.stored_tuples += instance.db.total_tuples();
            f.pending_tuples += instance.pending_len();
            f.prune_entries += instance.admission.entries();
            f.prov_records += instance.prov.as_ref().map_or(0, ProvStore::residue);
        }
        f
    }

    /// The provenance store of query `qid` at this node (`None` when the
    /// query is not installed here or does not record provenance).
    pub fn provenance(&self, qid: QueryId) -> Option<&ProvStore> {
        self.instances.get(&qid).and_then(|i| i.prov.as_ref())
    }

    /// True when this node currently stores `tuple` in `qid`'s local
    /// database (used by `explain` to locate a route's home node).
    pub fn stores_tuple(&self, qid: QueryId, tuple: &Tuple) -> bool {
        self.instances.get(&qid).is_some_and(|i| i.db.contains(tuple))
    }

    /// True when this node currently has `qid` installed.
    pub fn has_query(&self, qid: QueryId) -> bool {
        self.instances.contains_key(&qid)
    }

    // -- internals ----------------------------------------------------------

    pub(crate) fn link_tuple(&self, neighbor: NodeId, cost: Cost) -> Tuple {
        Tuple::from_rel(
            self.link_rel,
            vec![Value::Node(self.node), Value::Node(neighbor), Value::Cost(cost)],
        )
    }

    pub(crate) fn schedule_batch(&mut self, ctx: &mut Context<'_, NetMsg>) {
        if self.batch_timer.is_none() {
            self.batch_timer = Some(ctx.set_timer(BATCH_INTERVAL));
        }
    }

    /// Arm the retransmit-scan timer while the transport has batches in
    /// flight and no scan is pending.
    fn arm_retransmit(&mut self, ctx: &mut Context<'_, NetMsg>) {
        if self.retx_timer.is_none() {
            self.retx_timer = self.streams.scan_after().map(|after| ctx.set_timer(after));
        }
    }

    /// The one way tuples enter a query's dataflow at this node: pass each
    /// through the admission gate and store or ship it
    /// ([`QueryProcessor::route_tuple`]), then put everything that wants
    /// sending on the wire.
    pub(crate) fn ingest(
        &mut self,
        ctx: &mut Context<'_, NetMsg>,
        qid: QueryId,
        tuples: impl IntoIterator<Item = (Tuple, Option<ProvAction>)>,
    ) {
        let mut out = Outbox::default();
        for (tuple, prov) in tuples {
            self.route_tuple(qid, tuple, prov, &mut out);
        }
        self.flush(ctx, qid, out);
    }

    /// Store or forward one tuple for query `qid`.
    ///
    /// `prov` describes where the tuple came from for provenance purposes
    /// (a local rule firing, or a wire tag from its deriving node); it is
    /// ignored — and should be `None` — unless the query records
    /// provenance. Only *admitted* tuples are bound: dominated and
    /// collapsed derivations leave no provenance residue, and a keyed
    /// upsert forgets the displaced tuple's record, so the store tracks
    /// exactly the live routing state.
    fn route_tuple(
        &mut self,
        qid: QueryId,
        tuple: Tuple,
        prov: Option<ProvAction>,
        out: &mut Outbox,
    ) {
        let me = self.node;
        let Some(instance) = self.instances.get_mut(&qid) else { return };
        let program = Arc::clone(&instance.spec.program);
        let relation = tuple.rel();

        // Aggregate-selection pruning (per next-hop granularity).
        if instance.spec.aggregate_selections {
            match instance.admission.check(&program, &instance.db, &tuple, me) {
                Verdict::Admit => {}
                Verdict::Poisoned => self.stats.prune_evicted += 1,
                Verdict::Dominated => {
                    self.stats.tuples_pruned += 1;
                    return;
                }
                Verdict::TombstoneCollapsed => {
                    self.stats.tuples_pruned += 1;
                    self.stats.tombstones_collapsed += 1;
                    return;
                }
            }
        }

        // Bind the admitted tuple's provenance. A firing is recorded at the
        // deriving node even when the tuple's home is remote: the shipped
        // copy links back here, and `ProvFetch` resolves the pointer on
        // demand. A wire tag is only aliased into the store if the tuple is
        // actually stored below — a tuple merely relayed onward must not
        // leave a binding at the relay.
        let mut tag: ProvTag = None;
        let mut alias: Option<ProvRef> = None;
        if let Some(store) = instance.prov.as_mut() {
            match prov {
                Some(ProvAction::Fired(rule, body)) => {
                    let resolve = |b: Tuple| {
                        let r = store.resolve(&b);
                        (b, r)
                    };
                    let body_refs = body.into_iter().map(resolve).collect();
                    let id = store.record(tuple.clone(), rule, me, self.stats.batches, body_refs);
                    self.stats.prov_recorded += 1;
                    tag = Some((me, id));
                }
                Some(ProvAction::Wire(wire)) => {
                    tag = Some(wire);
                    alias = Some(prov_ref(me, wire));
                }
                None => {}
            }
        }

        let home = tuple.node_at(program.catalog.location_field(relation));
        if let Some(home) = home.filter(|&h| h != me && !program.is_replicated(relation)) {
            out.ship.entry(home).or_default().push((tuple, tag));
            return;
        }
        if !instance.store(tuple.clone(), alias) {
            return;
        }
        self.stats.tuples_derived += 1;

        // Ship copies required by remote joins (the Figure 2 clouds). A
        // copy proves nothing new: it aliases the source tuple's own
        // provenance.
        for ship in program.ships_for(relation) {
            let Some(dest) = tuple.node_at(ship.target_field) else { continue };
            let copy = Tuple::from_rel(ship.cache_relation, tuple.fields().to_vec());
            if dest == me {
                instance.store(copy, tag.map(|t| prov_ref(me, t)));
            } else {
                out.ship.entry(dest).or_default().push((copy, tag));
            }
        }

        // Multi-query sharing (§7.3): a completed best path `(S, D, P, C)`
        // goes into the shared cache, and — when it starts here and has
        // intermediate nodes to cache at — is installed along its own
        // reverse path.
        if !instance.spec.share_results || !program.result_relations.contains(&relation) {
            return;
        }
        let cache = instance.cache_rel;
        let (Some(src), Some(dest)) = (tuple.node_at(0), tuple.node_at(1)) else { return };
        let path = tuple.field(2).and_then(Value::as_path);
        let cost = tuple.field(3).and_then(Value::as_cost);
        let (4, Some(path), Some(cost)) = (tuple.arity(), path, cost) else { return };
        self.shared.insert(Tuple::from_rel(
            cache,
            vec![Value::Node(src), Value::Node(dest), Value::Path(path.clone()), Value::Cost(cost)],
        ));
        if src == me && path.len() >= 3 && !cost.is_infinite() {
            out.installs.push(self.cache_install_hop(cache, dest, path.nodes(), cost));
        }
    }

    /// The next hop of a reverse-path cache installation: `path` runs from
    /// this node to `dest` at `cost`; its second node receives the rest.
    fn cache_install_hop(
        &self,
        cache: RelId,
        dest: NodeId,
        path: &[NodeId],
        cost: Cost,
    ) -> (NodeId, NetMsg) {
        let next = path[1];
        let link_cost = self.neighbors.get(&next).copied().unwrap_or(Cost::ZERO);
        let remaining = Cost::new((cost.value() - link_cost.value()).max(0.0));
        (next, NetMsg::CacheInstall { cache, dest, suffix: path[1..].to_vec(), cost: remaining })
    }

    fn handle_cache_install(
        &mut self,
        ctx: &mut Context<'_, NetMsg>,
        cache: RelId,
        dest: NodeId,
        suffix: Vec<NodeId>,
        cost: Cost,
    ) {
        if suffix.first() != Some(&self.node) || suffix.len() < 2 {
            return;
        }
        if suffix.len() > 2 {
            let (next, msg) = self.cache_install_hop(cache, dest, &suffix, cost);
            send(ctx, next, msg);
        }
        let path = Value::Path(PathVector::from_nodes(suffix));
        self.shared.insert(Tuple::from_rel(
            cache,
            vec![Value::Node(self.node), Value::Node(dest), path, Value::Cost(cost)],
        ));
    }

    /// Send what an ingest pass queued: one batch per destination through
    /// the transport, then the cache installations.
    fn flush(&mut self, ctx: &mut Context<'_, NetMsg>, qid: QueryId, out: Outbox) {
        for (dest, batch) in out.ship {
            self.stats.tuples_sent += batch.len() as u64;
            // Nodes only exchange messages with direct neighbors. Cache
            // shipping (the Figure 2 clouds) always targets a neighbor by
            // construction; home shipping of derived tuples usually does
            // too (right recursion ships one hop back toward the source).
            // When the home is further away — e.g. DSR-style left recursion
            // storing paths at the source — the tuple is relayed hop by hop
            // along the reverse of its own path vector, exactly the
            // "reverse path" shipping the paper describes for DSR and
            // Best-Path-Pairs.
            let hop = if self.neighbors.contains_key(&dest) {
                Some(dest)
            } else {
                relay_hop(self.node, dest, &batch, &self.neighbors)
            };
            match hop {
                Some(hop) => {
                    let msg = self.streams.send(ctx.now(), hop, qid, batch);
                    send(ctx, hop, msg);
                    self.arm_retransmit(ctx);
                }
                // No way to make progress toward the home node: drop. Not
                // sequenced — retransmitting into a black hole buys nothing.
                None => send(ctx, dest, NetMsg::Tuples { qid, seq: None, batch }),
            }
        }
        for (next, msg) in out.installs {
            send(ctx, next, msg);
        }
    }

    /// One round of `qid`'s local semi-naïve fixpoint: the engine's shared
    /// [`eval::round`] over every rule and the deltas pending since the last
    /// round. Returns what was derived, each tuple with the firing that
    /// produced it when the query records provenance. `None` once nothing
    /// is pending.
    fn evaluate_round(&mut self, qid: QueryId) -> Option<Vec<(Tuple, Option<ProvAction>)>> {
        let instance = self.instances.get_mut(&qid).filter(|i| i.has_pending())?;
        for (rel, field) in instance.replan_once_grown() {
            self.shared.declare_index(rel, field);
        }
        let deltas = std::mem::take(&mut instance.pending);
        let compiled = Arc::clone(&instance.compiled);
        let source = Overlay { local: &instance.db, shared: &self.shared };

        // Firing log of this round, head tuple → (rule index, body tuples),
        // kept only when the query records provenance. Aggregate winners
        // keep the fields of the raw derivation they won with, so the
        // head-keyed lookup resolves them too.
        let mut log = instance.prov.is_some().then(FiringLog::new);
        let mut firings: HashMap<Tuple, (u32, Vec<Tuple>)> = HashMap::default();
        // A rule that fails at evaluation time derives nothing this round
        // and is counted; the query's other rules carry on.
        let round = eval::round(compiled.iter().enumerate(), Some(&deltas), |ri, plan, delta| {
            let derived = match log.as_mut() {
                Some(log) => plan.evaluate_traced(&self.builtins, &source, delta, log),
                None => plan.evaluate(&self.builtins, &source, delta),
            }?;
            if let Some(log) = log.as_mut() {
                for firing in log.firings.drain(..) {
                    firings.insert(firing.head, (ri as u32, firing.body));
                }
            }
            Ok(derived)
        });
        self.stats.eval_errors += round.errors.len() as u64;

        // Only force a re-join when the tuple is already the stored value
        // (a genuinely new/changed value is routed by the caller and
        // becomes a delta anyway).
        for tuple in round.forced {
            if instance.db.contains(&tuple) {
                instance.pending.entry(tuple.rel()).or_default().push(tuple);
            }
        }
        let with_firing = |tuple: Tuple| {
            let fired = firings.get(&tuple).map(|(ri, body)| ProvAction::Fired(*ri, body.clone()));
            (tuple, fired)
        };
        Some(round.derived.into_iter().map(with_firing).collect())
    }

    fn process_batches(&mut self, ctx: &mut Context<'_, NetMsg>) {
        self.stats.batches += 1;
        let qids: Vec<QueryId> = self.instances.keys().copied().collect();
        for qid in qids {
            if let Some(instance) = self.instances.get_mut(&qid) {
                let program = &instance.spec.program;
                let idle = !instance.has_pending();
                for t in
                    instance.admission.begin_batch(idle, program, &instance.db, &self.neighbors)
                {
                    instance.pending.entry(t.rel()).or_default().push(t);
                }
            }
            // Local fixpoint: keep draining deltas until nothing new is
            // produced locally, shipping once at the end.
            let mut out = Outbox::default();
            while let Some(derived) = self.evaluate_round(qid) {
                for (tuple, fired) in derived {
                    self.route_tuple(qid, tuple, fired, &mut out);
                }
            }
            self.flush(ctx, qid, out);
        }
    }

    /// True when a received tuple's relation is one this query's catalog
    /// binds, its cache relation, or the deployment-wide neighbor-table
    /// relation: the decode step of the wire format.
    fn tuple_decodes(&self, qid: QueryId, tuple: &Tuple) -> bool {
        let rel = tuple.rel();
        rel == self.link_rel
            || self.instances.get(&qid).is_some_and(|instance| {
                instance.spec.program.catalog.get(rel).is_some() || rel == instance.cache_rel
            })
    }

    /// Apply a neighbor-table change to every installed query (a keyed
    /// upsert of the corresponding `link` tuple, which the next batch folds
    /// into the dataflow — §8's incremental recomputation).
    fn apply_link_update(&mut self, ctx: &mut Context<'_, NetMsg>, neighbor: NodeId, cost: Cost) {
        let prev = self.neighbors.insert(neighbor, cost);
        let revived = cost.is_finite() && prev.is_none_or(|c| c.is_infinite());
        let qids: Vec<QueryId> = self.instances.keys().copied().collect();
        for qid in qids {
            let link = self.link_tuple(neighbor, cost);
            self.ingest(ctx, qid, [(link, None)]);
        }
        if revived {
            self.instances.values_mut().for_each(|i| i.reinject_copies_from(neighbor));
        }
        if !self.instances.is_empty() {
            self.schedule_batch(ctx);
        }
    }

    /// Apply one arrived batch of tuples for `qid` (already past teardown
    /// and duplicate checks): piggy-backed installation, cost-ordering for
    /// the admission gate, catalog decode, ingest, batch scheduling.
    fn deliver(
        &mut self,
        ctx: &mut Context<'_, NetMsg>,
        from: NodeId,
        qid: QueryId,
        mut batch: Vec<(Tuple, ProvTag)>,
    ) {
        // Piggy-backed installation: tuples for an unknown query install it
        // on the fly (§3.5).
        if !self.instances.contains_key(&qid) {
            self.install(ctx, qid);
            // Still not installed: the spec never reached this node's
            // library (it was partitioned away during the Install flood).
            // Ask the sender to re-offer the query — the receive-side
            // counterpart of the lazy teardown repair. Self-limiting: one
            // request per batch that finds the query unknown.
            if !self.instances.contains_key(&qid) && !self.torn_down.contains(&qid) {
                send(ctx, from, NetMsg::QueryRequest { qid });
            }
        }
        self.stats.tuples_received += batch.len() as u64;
        if let Some(spec) = self.instances.get(&qid).map(|i| &i.spec) {
            if spec.aggregate_selections {
                Admission::sort_batch(&spec.program, &mut batch);
            }
        }
        // Decode the shipped relation tags against the query's symbol
        // catalog: a tuple whose id the catalog does not bind (a stale id
        // from an older query version, or garbage) is dropped instead of
        // silently creating a phantom table.
        let before = batch.len();
        batch.retain(|(tuple, _)| self.tuple_decodes(qid, tuple));
        self.stats.tuples_rejected += (before - batch.len()) as u64;
        self.ingest(ctx, qid, batch.into_iter().map(|(t, tag)| (t, tag.map(ProvAction::Wire))));
        self.schedule_batch(ctx);
    }

    /// Serve a provenance-record fetch: look the id up in `qid`'s arena and
    /// reply to the requester. A pruned record (or a torn-down / unknown
    /// query) yields a `None` reply, which the explaining side renders as
    /// an unresolved pointer rather than an error.
    fn handle_prov_fetch(
        &mut self,
        ctx: &mut Context<'_, NetMsg>,
        qid: QueryId,
        id: ProvId,
        requester: NodeId,
    ) {
        self.stats.prov_fetches += 1;
        let record = self.provenance(qid).and_then(|store| store.get(id)).cloned().map(Box::new);
        send(ctx, requester, NetMsg::ProvReply { qid, node: self.node, id, record });
    }
}

impl QuerySpec {
    /// True when tuples of relation `name` may enter this query's dataflow:
    /// the set a node's receive path accepts (its catalog's relations, its
    /// cache relation, and the deployment-wide `link` table). Looks `name`
    /// up without interning it, so checking a name from outside the process
    /// leaves no trace in the interner.
    pub fn binds(&self, name: &str) -> bool {
        name == LINK_RELATION
            || name == self.cache_relation
            || RelId::lookup(name).is_some_and(|rel| self.program.catalog.get(rel).is_some())
    }
}

/// Find a neighbor one step closer to `dest` along the path vector of any
/// of the tuples being shipped.
fn relay_hop(
    me: NodeId,
    dest: NodeId,
    batch: &[(Tuple, ProvTag)],
    neighbors: &BTreeMap<NodeId, Cost>,
) -> Option<NodeId> {
    for (tuple, _) in batch {
        for field in tuple.fields() {
            let Value::Path(path) = field else { continue };
            let nodes = path.nodes();
            let me_pos = nodes.iter().position(|&n| n == me);
            let dest_pos = nodes.iter().position(|&n| n == dest);
            if let (Some(a), Some(b)) = (me_pos, dest_pos) {
                if a == b {
                    continue;
                }
                let step = if b > a { a + 1 } else { a - 1 };
                let hop = nodes[step];
                if neighbors.contains_key(&hop) {
                    return Some(hop);
                }
            }
        }
    }
    None
}

impl NodeApp for QueryProcessor {
    type Message = NetMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        self.node = ctx.id();
        self.neighbors =
            ctx.neighbors().into_iter().map(|(nb, params)| (nb, params.cost)).collect();
    }

    fn on_join(&mut self, ctx: &mut Context<'_, NetMsg>) {
        // Warm restart: refresh the neighbor table and replay it into every
        // installed query so routes through this node are recomputed.
        self.node = ctx.id();
        for (nb, params) in ctx.neighbors() {
            self.apply_link_update(ctx, nb, params.cost);
            // The restart kept the old neighbor table, so the upsert above
            // sees no ∞→finite transition — force the copy re-injection
            // that a detected revival would have done. The node's own
            // stored state survived the outage unchanged (no deltas), yet
            // every route *through* it was tombstoned at its peers; without
            // re-running the copy joins those routes are never re-derived.
            if params.cost.is_finite() {
                self.instances.values_mut().for_each(|i| i.reinject_copies_from(nb));
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, NetMsg>, from: NodeId, msg: NetMsg) {
        match msg {
            NetMsg::Install { qid } => {
                if !self.refuse_if_torn_down(ctx, from, qid) {
                    self.install(ctx, qid);
                }
            }
            NetMsg::Tuples { qid, seq, batch } => {
                if self.refuse_if_torn_down(ctx, from, qid) {
                    return;
                }
                // Legacy fire-and-forget batch: apply directly.
                let Some(header) = seq else { return self.deliver(ctx, from, qid, batch) };
                let received = self.streams.receive(from, qid, header, batch);
                self.stats.dups_dropped += u64::from(received.duplicate);
                self.stats.gaps_skipped += received.gaps_skipped;
                for ready in received.ready {
                    self.deliver(ctx, from, qid, ready);
                }
                // Acknowledge even a duplicate, so the sender stops resending.
                send(ctx, from, received.ack);
                self.stats.acks_sent += 1;
            }
            NetMsg::Ack { qid, cumulative } => self.streams.on_ack(from, qid, cumulative),
            NetMsg::QueryRequest { qid } => self.handle_query_request(ctx, from, qid),
            NetMsg::ProvFetch { qid, id, requester } => {
                self.handle_prov_fetch(ctx, qid, id, requester);
            }
            NetMsg::ProvReply { qid, node, id, record } => {
                let store = self.instances.get_mut(&qid).and_then(|i| i.prov.as_mut());
                if let (Some(store), Some(record)) = (store, record) {
                    store.remember_fetched(node, id, *record);
                }
            }
            NetMsg::Teardown { qid } => self.teardown(ctx, qid),
            NetMsg::CacheInstall { cache, dest, suffix, cost } => {
                self.handle_cache_install(ctx, cache, dest, suffix, cost);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, NetMsg>, timer: u64) {
        if Some(timer) == self.batch_timer {
            self.batch_timer = None;
            self.process_batches(ctx);
            // Every local fixpoint ran dry, so nothing is pending — but
            // queued revivals keep the timer armed: they only run in a batch
            // that starts idle, so they need a next batch to run in.
            if self.instances.values().any(|i| i.admission.revivals_queued()) {
                self.schedule_batch(ctx);
            }
        } else if Some(timer) == self.retx_timer {
            self.retx_timer = None;
            let resends = self.streams.scan(ctx.now());
            self.stats.retransmits += resends.len() as u64;
            for (hop, msg) in resends {
                send(ctx, hop, msg);
            }
            self.arm_retransmit(ctx);
        }
        // Any other id is a stale timer from before a fail/rejoin: ignore.
    }

    fn on_link_event(&mut self, ctx: &mut Context<'_, NetMsg>, event: LinkEvent) {
        let (neighbor, cost) = match event {
            LinkEvent::MetricChanged { neighbor, params }
            | LinkEvent::NeighborUp { neighbor, params } => (neighbor, params.cost),
            LinkEvent::NeighborDown { neighbor } => (neighbor, Cost::INFINITY),
        };
        self.apply_link_update(ctx, neighbor, cost);
    }
}
