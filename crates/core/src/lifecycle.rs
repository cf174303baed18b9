//! The life of a query at one node: the per-query [`Instance`] state, its
//! installation (flooded, piggy-backed, or lazily repaired) and its
//! teardown.

use crate::admission::Admission;
use crate::localize::LocalizedProgram;
use crate::processor::{send, NetMsg, QueryProcessor};
use crate::query::{QueryId, QueryLibrary, QuerySpec};
use dr_datalog::ast::{HeadTerm, Term};
use dr_datalog::database::Database;
use dr_datalog::eval::RuleEval;
use dr_netsim::Context;
use dr_provenance::{ProvRef, ProvStore};
use dr_types::hash::HashMap;
use dr_types::{NodeId, RelId, Tuple, Value};
use std::sync::Arc;

/// Local-store row count below which an instance keeps its static plans.
///
/// Re-planning compiles every rule of the query again (a few µs per rule,
/// per node); on stores this small a bad join order costs less than the
/// compile, so short-lived pair queries on sparse nodes would pay more to
/// plan than to run. Stores that grow past the floor — protocol-style
/// queries that accumulate paths and advertisements — re-plan once and
/// amortize the compile over every subsequent batch.
const REPLAN_MIN_ROWS: usize = 192;

/// Per-installed-query state. The instance owns everything the query
/// accumulates at this node, so dropping it releases all of it.
pub(crate) struct Instance {
    pub(crate) spec: Arc<QuerySpec>,
    pub(crate) db: Database,
    /// Compiled evaluation plans, one per localized rule (same order as
    /// `spec.program.rules`). Installation starts from the spec's shared
    /// statically-compiled plans (every local table is empty then, so they
    /// are identical across nodes); once the local store grows past
    /// [`REPLAN_MIN_ROWS`] the instance re-plans once against real
    /// cardinalities and swaps in its own vector.
    pub(crate) compiled: Arc<Vec<RuleEval>>,
    /// Whether the one-shot cardinality re-plan has happened.
    replanned: bool,
    /// Deltas accumulated since the last batch, keyed by interned relation.
    pub(crate) pending: HashMap<RelId, Vec<Tuple>>,
    /// Aggregate-selection (prune / revival) state.
    pub(crate) admission: Admission,
    /// Interned id of the spec's cross-query cache relation.
    pub(crate) cache_rel: RelId,
    /// Derivation-provenance arena, allocated only when the spec asks for
    /// recording ([`QuerySpec::record_provenance`]). `None` means the query
    /// runs the exact pre-provenance hot path: no store, no per-firing
    /// bookkeeping, empty wire tags. Owned by the instance so teardown
    /// drops every record with the rest of the query's state.
    pub(crate) prov: Option<ProvStore>,
    /// The deployment's library, for the query's result change log: every
    /// change to a result relation of `db` is reported there.
    library: Arc<QueryLibrary>,
}

impl Instance {
    fn new(spec: Arc<QuerySpec>, library: Arc<QueryLibrary>) -> Instance {
        let mut db = Database::new();
        for (rel, keys) in spec.program.key_declarations() {
            db.declare_key(rel, keys);
        }
        // Aggregate outputs are keyed by their group-by columns so that
        // recomputation replaces the previous value instead of accumulating.
        for lrule in &spec.program.rules {
            let head = &lrule.rule.head;
            if head.has_aggregate() {
                let group: Vec<usize> = head
                    .terms
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| matches!(t, HeadTerm::Plain(_)))
                    .map(|(i, _)| i)
                    .collect();
                db.declare_key(head.relation.as_str(), group);
            }
        }
        // Reuse the spec's statically compiled plans (shared across nodes)
        // and declare the secondary indexes their probes will hit, so
        // per-batch evaluation joins against stored, incrementally-
        // maintained indexes instead of re-gathering and re-hashing table
        // contents.
        let compiled = spec.static_plans();
        for (rel, field) in compiled.iter().flat_map(RuleEval::probe_fields) {
            db.declare_index(rel, field);
        }
        library.results().installed(spec.id);
        Instance {
            db,
            library,
            compiled,
            replanned: false,
            pending: HashMap::default(),
            admission: Admission::default(),
            cache_rel: RelId::intern(&spec.cache_relation),
            prov: spec.record_provenance.then(ProvStore::new),
            spec,
        }
    }

    /// Re-compile every rule plan against the local store's cardinalities,
    /// the first time a batch runs with at least [`REPLAN_MIN_ROWS`] stored
    /// tuples. Installation-time plans are static — every table is empty at
    /// that point — so this is where joins get re-ordered by real row
    /// counts. One shot per query: local relation sizes stay within an
    /// order of magnitude after the initial fill, and re-planning per batch
    /// would thrash the plan cache.
    ///
    /// Returns the new plans' probe fields (empty when nothing was
    /// re-planned) so the caller can mirror the index declarations onto the
    /// shared (cross-query) store.
    pub(crate) fn replan_once_grown(&mut self) -> Vec<(RelId, usize)> {
        if self.replanned || self.db.total_tuples() < REPLAN_MIN_ROWS {
            return Vec::new();
        }
        let stats = self.db.cardinalities();
        if stats.is_empty() {
            return Vec::new();
        }
        let rules = self.spec.program.rules.iter();
        self.compiled = Arc::new(rules.map(|l| RuleEval::with_stats(&l.rule, &stats)).collect());
        let fields: Vec<(RelId, usize)> =
            self.compiled.iter().flat_map(RuleEval::probe_fields).collect();
        for &(rel, field) in &fields {
            self.db.declare_index(rel, field);
        }
        self.replanned = true;
        fields
    }

    pub(crate) fn has_pending(&self) -> bool {
        self.pending.values().any(|v| !v.is_empty())
    }

    pub(crate) fn pending_len(&self) -> usize {
        self.pending.values().map(Vec::len).sum()
    }

    /// The stored rows of every result (`Query:`) relation, in no order.
    pub(crate) fn result_rows(&self) -> impl Iterator<Item = &Tuple> {
        self.spec.program.result_relations.iter().flat_map(|&rel| self.db.scan(rel))
    }

    /// Keyed insert into the local store. A tuple that is new becomes a
    /// pending delta (and takes `alias` as its provenance binding, when the
    /// query records provenance); a tuple it displaces takes its provenance
    /// with it. A change to a result relation goes to the query's result
    /// log as `+new -old`. Returns whether the tuple was new.
    pub(crate) fn store(&mut self, tuple: Tuple, alias: Option<ProvRef>) -> bool {
        let outcome = self.db.insert(tuple.clone());
        if outcome.added && self.spec.program.result_relations.contains(&tuple.rel()) {
            self.library.results().stored(self.spec.id, &tuple, outcome.replaced.as_ref());
        }
        if let Some(store) = self.prov.as_mut() {
            if let Some(old) = &outcome.replaced {
                store.forget(old);
            }
            if let (true, Some(alias)) = (outcome.added, alias) {
                store.alias(tuple.clone(), alias);
            }
        }
        if outcome.added {
            self.pending.entry(tuple.rel()).or_default().push(tuple);
        }
        outcome.added
    }

    /// Re-fire the remote joins across a revived adjacency: re-inject, as
    /// deltas, every finite shipped-copy tuple stored here whose owner is
    /// `neighbor`.
    ///
    /// While the adjacency was dead, the owner's ∞ copy-refresh (shipped
    /// when it poisoned its side of the link) never arrived — there was no
    /// link to carry it. After the link comes back the owner re-ships its
    /// finite copy, but that re-ship is byte-identical to what this node
    /// still stores, so the keyed insert reports nothing new and the rules
    /// joining against the copy never re-run. The visible symptom is a
    /// partition that never fully heals: both sides recompute routes to the
    /// cut endpoints themselves (those flow from genuine `link` deltas) but
    /// the stored-path sets never re-flood across the cut. Re-injecting the
    /// surviving copies as deltas re-runs those joins against the full
    /// stored state, which is exactly the re-flood the heal needs. Copies
    /// holding an ∞ field are skipped: they were deltas when they arrived,
    /// their joins already ran, and replaying a poison could tombstone a
    /// route that is currently valid.
    pub(crate) fn reinject_copies_from(&mut self, neighbor: NodeId) {
        for ship in &self.spec.program.ships {
            let loc = self.spec.program.catalog.location_field(ship.source_relation);
            let copies: Vec<Tuple> = self
                .db
                .scan(ship.cache_relation)
                .filter(|t| {
                    t.node_at(loc) == Some(neighbor)
                        && t.fields().iter().all(|v| !v.is_infinite_cost())
                })
                .cloned()
                .collect();
            if !copies.is_empty() {
                self.pending.entry(ship.cache_relation).or_default().extend(copies);
            }
        }
    }
}

/// The ground facts of `program` that node `me` should store: all-constant
/// fact rules become tuples, kept when the fact's relation is replicated,
/// carries no location annotation, or is homed at `me`.
fn program_facts(program: &LocalizedProgram, me: NodeId) -> Vec<Tuple> {
    let mut out = Vec::new();
    for fact in &program.facts {
        let head = &fact.head;
        let constant = |t: &HeadTerm| match t.as_plain() {
            Some(Term::Const(v)) => Some(v.clone()),
            _ => None,
        };
        let Some(values) = head.terms.iter().map(constant).collect::<Option<Vec<Value>>>() else {
            continue;
        };
        let tuple = Tuple::new(&head.relation, values);
        // Derive the home exactly like route_tuple will (catalog location
        // field), so a kept fact is always stored locally, never re-shipped.
        let home = tuple.node_at(program.catalog.location_field(tuple.rel()));
        if program.is_replicated(tuple.rel()) || home.is_none() || home == Some(me) {
            out.push(tuple);
        }
    }
    out
}

impl QueryProcessor {
    /// Install `qid` from the shared library, flood the installation on,
    /// and seed the instance with its base tuples.
    pub(crate) fn install(&mut self, ctx: &mut Context<'_, NetMsg>, qid: QueryId) {
        // A torn-down query never reinstalls: late Install floods and
        // piggy-backed installations race the teardown flood, and losing
        // that race must not resurrect the query on some nodes.
        if self.torn_down.contains(&qid) || self.instances.contains_key(&qid) {
            return;
        }
        let Some(spec) = self.config.library.get(qid) else { return };
        if spec.share_results {
            self.shared.declare_key(spec.cache_relation.as_str(), vec![0, 1]);
        }
        let instance = Instance::new(Arc::clone(&spec), Arc::clone(&self.config.library));
        // Mirror the plans' probe-field declarations onto the shared
        // (cross-query) store, so joins against cache relations such as
        // `bestPathCache` are index-served on both sides of the overlay.
        // Declarations for relations the shared store never materializes
        // stay pending and cost nothing.
        for (rel, field) in instance.compiled.iter().flat_map(RuleEval::probe_fields) {
            self.shared.declare_index(rel, field);
        }
        self.instances.insert(qid, instance);

        // Flood the installation to all neighbors.
        let size = spec.program.dissemination_size();
        for &nb in self.neighbors.keys() {
            ctx.send(nb, NetMsg::Install { qid }, size);
        }

        // The query's base tuples: its own facts (replicated relations
        // everywhere, others only at their home node); the program's ground
        // facts (constant rules such as the `magicSources` / `magicDsts` of
        // a pair query — every node runs this, so nothing needs shipping);
        // and the neighbor table as `link` tuples.
        let links = self.neighbors.iter().map(|(&nb, &cost)| self.link_tuple(nb, cost));
        let facts = spec.facts.iter().cloned().chain(program_facts(&spec.program, self.node));
        let base: Vec<_> = facts.chain(links).map(|t| (t, None)).collect();
        self.ingest(ctx, qid, base);
        self.schedule_batch(ctx);
    }

    /// Handle a teardown flood: unwind every trace of `qid` at this node
    /// and forward the teardown to all neighbors exactly once (nodes that
    /// never installed the query still forward, so the flood crosses them).
    pub(crate) fn teardown(&mut self, ctx: &mut Context<'_, NetMsg>, qid: QueryId) {
        if !self.torn_down.insert(qid) {
            return; // already unwound and forwarded
        }
        // The instance owns everything the query accumulated here — stored
        // tuples, pending deltas, prune state, compiled plans — and the
        // spec `Arc` (static plans, catalog) is freed when the last
        // node lets go. The shared cache relation goes with its last user:
        // no remaining query could refresh the paths it holds. The result
        // rows that die with the instance leave through the result log.
        if let Some(instance) = self.instances.remove(&qid) {
            self.config.library.results().torn_down(qid, instance.result_rows().cloned());
            if !self.instances.values().any(|i| i.cache_rel == instance.cache_rel) {
                self.shared.drop_relation(instance.cache_rel);
            }
        }
        self.streams.drop_query(qid);
        // The spec leaves the shared library here, at the nodes, not at the
        // issuer: removing it when the teardown is *injected* would race
        // in-flight Install floods that still need `library.get(qid)`. The
        // call is idempotent — whichever node handles the flood first wins.
        self.config.library.remove(qid);
        for &nb in self.neighbors.keys() {
            send(ctx, nb, NetMsg::Teardown { qid });
        }
    }

    /// Lazy teardown repair: a peer that missed the teardown flood (it was
    /// down at the time) and still talks about the dead query learns of the
    /// teardown the moment it reaches anyone who saw it. Returns true when
    /// `qid` is torn down here (and `from` has been told so).
    pub(crate) fn refuse_if_torn_down(
        &self,
        ctx: &mut Context<'_, NetMsg>,
        from: NodeId,
        qid: QueryId,
    ) -> bool {
        let dead = self.torn_down.contains(&qid);
        if dead {
            send(ctx, from, NetMsg::Teardown { qid });
        }
        dead
    }

    /// A peer saw tuples for a query it does not know: re-offer the
    /// installation if we hold the spec, or propagate the teardown if the
    /// query is dead.
    pub(crate) fn handle_query_request(
        &mut self,
        ctx: &mut Context<'_, NetMsg>,
        from: NodeId,
        qid: QueryId,
    ) {
        if self.refuse_if_torn_down(ctx, from, qid) {
            return;
        }
        let Some(instance) = self.instances.get(&qid) else { return };
        // Re-register the spec with the shared library from our own
        // instance before replying, so the peer's `install` finds it even if
        // the library entry is gone (in a real deployment the spec would
        // travel inside the reply; the library is the wire here).
        self.config.library.restore(Arc::clone(&instance.spec));
        ctx.send(from, NetMsg::Install { qid }, instance.spec.program.dissemination_size());
    }
}
