//! Experiment harness: glue between topologies, the simulator, and the
//! query processors.
//!
//! The paper's evaluation repeatedly performs the same choreography: build a
//! topology, start a query processor on every node, issue one or more
//! queries from chosen nodes, let the system run (optionally injecting link
//! updates and churn), and measure convergence latency, per-node
//! communication overhead, average path cost, and recovery time.
//! [`RoutingHarness`] packages that choreography for the figures/tables
//! binaries in `dr-bench`, the examples, and the integration tests.
//!
//! # Issuing queries
//!
//! Queries are issued through the fluent [`IssueBuilder`] returned by
//! [`RoutingHarness::issue`], and observed through the typed
//! [`QueryHandle`] the builder returns:
//!
//! ```ignore
//! let handle = harness
//!     .issue(best_path())
//!     .from(NodeId::new(0))
//!     .at(SimTime::ZERO)
//!     .submit()?;                       // -> QueryHandle<RouteEntry>
//! harness.run_until(SimTime::from_secs(30));
//! for route in handle.finite_results(&harness)? {
//!     println!("{} -> {} costs {}", route.src, route.dst, route.cost);
//! }
//! ```
//!
//! The handle is a lightweight, clonable token — it borrows nothing, so the
//! harness stays freely mutable between observations.

use crate::processor::{NetMsg, ProcessorConfig, ProcessorStats, QueryProcessor, StateFootprint};
use crate::query::{QueryDef, QueryId, QueryLibrary, QuerySpec};
pub use crate::results::{ResultCursor, ResultLogStats, ResultsDelta};
use dr_datalog::ast::Program;
use dr_netsim::{SimConfig, SimDuration, SimTime, Simulator, Topology};
use dr_provenance::{DerivationTree, ProvId, ProvRecord, ProvRef};
use dr_types::hash::HashSet;
use dr_types::view::{CostView, FromTuple};
use dr_types::{NodeId, Result, RouteEntry, Tuple};
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::Arc;

/// A sample of the global result-set state at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Simulated time of the snapshot.
    pub time: SimTime,
    /// Number of result tuples with finite cost across all nodes.
    pub results: usize,
    /// Average cost of those result tuples (the paper's AvgPathRTT when the
    /// metric is RTT), or 0 when there are none.
    pub avg_cost: f64,
}

/// A typed handle to an issued query.
///
/// The handle names the query (its [`QueryId`]) and fixes the *view* `T`
/// its results decode into — [`RouteEntry`] for path-shaped protocols (the
/// default), [`dr_types::CostEntry`], [`dr_types::ReachEntry`],
/// [`dr_types::TreeEdge`], or any other [`FromTuple`] implementation.
///
/// Handles hold no borrow on the harness; every observation method takes
/// the harness explicitly, so issuing further queries, scheduling churn,
/// and advancing simulated time all stay possible while handles are alive.
pub struct QueryHandle<T = RouteEntry> {
    qid: QueryId,
    name: Arc<str>,
    _view: PhantomData<fn() -> T>,
}

impl<T> Clone for QueryHandle<T> {
    fn clone(&self) -> Self {
        QueryHandle { qid: self.qid, name: Arc::clone(&self.name), _view: PhantomData }
    }
}

impl<T> std::fmt::Debug for QueryHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryHandle").field("qid", &self.qid).field("name", &self.name).finish()
    }
}

impl<T> QueryHandle<T> {
    /// The underlying query id (as disseminated over the network).
    pub fn id(&self) -> QueryId {
        self.qid
    }

    /// The human-readable query name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Reinterpret the handle under a different result view — e.g. read the
    /// (src, dst) projection of a route query as `ReachEntry`s.
    pub fn with_view<U: FromTuple>(&self) -> QueryHandle<U> {
        QueryHandle { qid: self.qid, name: Arc::clone(&self.name), _view: PhantomData }
    }

    /// The raw, undecoded result tuples across every node (escape hatch for
    /// shapes without a view).
    pub fn raw_results(&self, harness: &RoutingHarness) -> Vec<Tuple> {
        harness.collect_results(self.qid)
    }

    /// The raw result tuples stored at `node`.
    pub fn raw_results_at(&self, harness: &RoutingHarness, node: NodeId) -> Vec<Tuple> {
        harness.sim.app(node).results(self.qid)
    }

    /// The forwarding table `node` derived from this query.
    pub fn forwarding_table(
        &self,
        harness: &RoutingHarness,
        node: NodeId,
    ) -> BTreeMap<NodeId, NodeId> {
        harness.sim.app(node).forwarding_table(self.qid)
    }

    /// A fresh [`ResultCursor`] over this query's deployment-wide result
    /// set. The first poll reports every current result as added.
    pub fn cursor(&self) -> ResultCursor {
        ResultCursor::new(self.qid)
    }
}

impl<T: FromTuple> QueryHandle<T> {
    /// All results of this query across every node, decoded as `T`.
    ///
    /// A tuple that does not match `T`'s shape is a
    /// [`dr_types::Error::Decode`] — never a silently skipped row.
    pub fn results(&self, harness: &RoutingHarness) -> Result<Vec<T>> {
        dr_types::view::decode_all(&self.raw_results(harness))
    }

    /// The results stored at `node`, decoded as `T`.
    pub fn results_at(&self, harness: &RoutingHarness, node: NodeId) -> Result<Vec<T>> {
        dr_types::view::decode_all(&self.raw_results_at(harness, node))
    }
}

impl<T: CostView> QueryHandle<T> {
    /// The results whose cost is finite (the paper's "routes found" count;
    /// rule NR3 derives infinite-cost tombstones during route repair).
    pub fn finite_results(&self, harness: &RoutingHarness) -> Result<Vec<T>> {
        Ok(self.results(harness)?.into_iter().filter(|r| r.cost().is_finite()).collect())
    }

    /// The average cost over all finite results (AvgPathRTT when link costs
    /// are RTTs), or 0 when there are none.
    pub fn average_cost(&self, harness: &RoutingHarness) -> Result<f64> {
        Ok(average_cost_of(&self.finite_results(harness)?))
    }
}

pub(crate) fn average_cost_of<T: CostView>(finite: &[T]) -> f64 {
    if finite.is_empty() {
        return 0.0;
    }
    finite.iter().map(|r| r.cost().value()).sum::<f64>() / finite.len() as f64
}

/// Fluent specification of a query issuance, created by
/// [`RoutingHarness::issue`]: a [`QueryDef`] bound to the harness it will be
/// submitted on. Every option and its default is [`QueryDef`]'s. Call
/// [`IssueBuilder::submit`] to localize the program, register the canonical
/// [`QuerySpec`], and disseminate the query.
#[must_use = "the query is only issued when submit() is called"]
pub struct IssueBuilder<'h> {
    harness: &'h mut RoutingHarness,
    def: QueryDef,
}

impl<'h> IssueBuilder<'h> {
    fn with(mut self, set: impl FnOnce(QueryDef) -> QueryDef) -> Self {
        self.def = set(self.def);
        self
    }

    /// See [`QueryDef::from`].
    #[allow(clippy::should_implement_trait)] // fluent DSL: `.from(node)` reads as prose
    pub fn from(self, issuer: NodeId) -> Self {
        self.with(|d| d.from(issuer))
    }

    /// See [`QueryDef::at`].
    pub fn at(self, at: SimTime) -> Self {
        self.with(|d| d.at(at))
    }

    /// See [`QueryDef::named`].
    pub fn named(self, name: impl Into<String>) -> Self {
        self.with(|d| d.named(name))
    }

    /// See [`QueryDef::replicated`].
    pub fn replicated<I, S>(self, relations: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.with(|d| d.replicated(relations))
    }

    /// See [`QueryDef::aggregate_selections`].
    pub fn aggregate_selections(self, on: bool) -> Self {
        self.with(|d| d.aggregate_selections(on))
    }

    /// See [`QueryDef::sharing`].
    pub fn sharing(self, on: bool) -> Self {
        self.with(|d| d.sharing(on))
    }

    /// See [`QueryDef::cache_relation`].
    pub fn cache_relation(self, relation: impl Into<String>) -> Self {
        self.with(|d| d.cache_relation(relation))
    }

    /// See [`QueryDef::provenance`].
    pub fn provenance(self, on: bool) -> Self {
        self.with(|d| d.provenance(on))
    }

    /// See [`QueryDef::facts`].
    pub fn facts(self, facts: Vec<Tuple>) -> Self {
        self.with(|d| d.facts(facts))
    }

    /// See [`QueryDef::fact`].
    pub fn fact(self, fact: Tuple) -> Self {
        self.with(|d| d.fact(fact))
    }

    /// Localize, register, and disseminate the query; results decode as
    /// [`RouteEntry`] (the shape of every best-path-family protocol).
    pub fn submit(self) -> Result<QueryHandle<RouteEntry>> {
        self.submit_view()
    }

    /// Like [`IssueBuilder::submit`], but type the handle with a different
    /// result view (e.g. `ReachEntry` for `reachable(@S,D)` results).
    pub fn submit_view<T: FromTuple>(self) -> Result<QueryHandle<T>> {
        self.harness.submit(self.def)
    }
}

/// Harness wrapping a simulator full of query processors.
pub struct RoutingHarness {
    sim: Simulator<QueryProcessor>,
    library: Arc<QueryLibrary>,
    next_qid: QueryId,
}

impl RoutingHarness {
    /// Build a harness over `topology` with default processor and simulator
    /// configuration.
    pub fn new(topology: Topology) -> RoutingHarness {
        RoutingHarness::with_transport(topology, None)
    }

    /// Build a harness whose processors run the loss-tolerant reliable
    /// transport (sequence-numbered tuple batches with cumulative acks and
    /// retransmission) — required for exact result multisets when a
    /// [`dr_netsim::FaultPlan`] makes the wire lossy.
    pub fn with_reliability(
        topology: Topology,
        reliability: crate::processor::ReliabilityConfig,
    ) -> RoutingHarness {
        RoutingHarness::with_transport(topology, Some(reliability))
    }

    /// Build a harness with (optionally) the reliable transport — the
    /// general constructor behind [`RoutingHarness::new`] /
    /// [`RoutingHarness::with_reliability`].
    pub fn with_transport(
        topology: Topology,
        reliability: Option<crate::processor::ReliabilityConfig>,
    ) -> RoutingHarness {
        let library = Arc::new(QueryLibrary::new());
        let mut config = ProcessorConfig::new(Arc::clone(&library));
        config.reliability = reliability;
        let apps = (0..topology.num_nodes()).map(|_| QueryProcessor::new(config.clone())).collect();
        let sim = Simulator::new(topology, apps, SimConfig::default());
        RoutingHarness { sim, library, next_qid: 1 }
    }

    /// Install a deterministic fault plan on the underlying simulator
    /// (seeded loss / duplication / reordering / burst outages, applied at
    /// delivery time). Convenience over `sim_mut().set_fault_plan(..)`.
    pub fn set_fault_plan(&mut self, plan: dr_netsim::FaultPlan) {
        self.sim.set_fault_plan(plan);
    }

    /// The shared query library.
    pub fn library(&self) -> &Arc<QueryLibrary> {
        &self.library
    }

    /// The underlying simulator.
    pub fn sim(&self) -> &Simulator<QueryProcessor> {
        &self.sim
    }

    /// Mutable access to the underlying simulator (for churn / link-update
    /// schedules).
    pub fn sim_mut(&mut self) -> &mut Simulator<QueryProcessor> {
        &mut self.sim
    }

    /// Start issuing `program` as a query: returns a fluent builder whose
    /// [`IssueBuilder::submit`] localizes the program, registers the
    /// canonical [`QuerySpec`], disseminates the query, and returns a typed
    /// [`QueryHandle`].
    pub fn issue(&mut self, program: Program) -> IssueBuilder<'_> {
        IssueBuilder { harness: self, def: QueryDef::new(program) }
    }

    /// Issue `def`: localize its program, register the canonical
    /// [`QuerySpec`] under the next query id, and inject the install flood
    /// at the def's issuer and time.
    pub(crate) fn submit<T: FromTuple>(&mut self, def: QueryDef) -> Result<QueryHandle<T>> {
        let (issuer, at) = (def.issuer, def.at);
        let spec = self.library.register(QuerySpec::new(self.next_qid, def)?);
        self.next_qid += 1;
        self.sim.inject(at, issuer, NetMsg::Install { qid: spec.id });
        Ok(QueryHandle { qid: spec.id, name: Arc::from(spec.name.as_str()), _view: PhantomData })
    }

    /// Tear down an issued query across the whole deployment.
    ///
    /// A [`NetMsg::Teardown`] flood is injected at `from` at time `at`;
    /// every node that handles it unwinds the query's engine state — the
    /// instance with its stored tuples, pending delta buffers, prune maps,
    /// and compiled plans; the shared cache relation when this query was
    /// its last user; and the library's spec entry (which releases the
    /// localized program, its catalog, and the statically compiled
    /// plans once the last node lets go of the `Arc`). Late messages for
    /// the query are dropped rather than resurrecting it. Run the
    /// simulation past `at` (plus flood propagation time) for the teardown
    /// to take effect everywhere.
    pub fn teardown_from(&mut self, qid: QueryId, from: NodeId, at: SimTime) {
        self.sim.inject(at, from, NetMsg::Teardown { qid });
    }

    /// [`RoutingHarness::teardown_from`] node 0 (by convention never
    /// failed by the churn schedules).
    pub fn teardown(&mut self, qid: QueryId, at: SimTime) {
        self.teardown_from(qid, NodeId::new(0), at);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Deployment-wide engine-state footprint, summed over every node (the
    /// teardown regression hook; see [`StateFootprint`]).
    pub fn state_footprint(&self) -> StateFootprint {
        let mut total = StateFootprint::default();
        for app in self.sim.apps() {
            total.merge(&app.state_footprint());
        }
        total
    }

    /// Run the simulation until `until` (events after that stay queued).
    pub fn run_until(&mut self, until: SimTime) {
        self.sim.run_until(until);
    }

    /// Run until no events remain.
    pub fn run_to_quiescence(&mut self) {
        self.sim.run_to_quiescence();
    }

    /// All result tuples of `qid` across every node: the one snapshot
    /// routine, behind [`QueryHandle::raw_results`] and every
    /// [`ResultCursor`] resynchronisation.
    pub(crate) fn collect_results(&self, qid: QueryId) -> Vec<Tuple> {
        let mut out = Vec::new();
        for app in self.sim.apps() {
            out.extend(app.results(qid));
        }
        out
    }

    /// How many nodes hold an instance of `qid`.
    pub(crate) fn installed_nodes(&self, qid: QueryId) -> usize {
        self.sim.apps().filter(|app| app.has_query(qid)).count()
    }

    /// Exact counters of the result change logs behind every
    /// [`ResultCursor`]: changes logged, entries read, resynchronisations
    /// and the rows they rescanned, truncations.
    pub fn result_log_stats(&self) -> ResultLogStats {
        self.library.results().stats()
    }

    /// Per-node communication overhead in KB since the start of the run.
    pub fn per_node_overhead_kb(&self) -> f64 {
        self.sim.metrics().per_node_overhead_kb()
    }

    /// Deployment-wide processor counters, summed over every node: tuples
    /// derived/shipped/pruned and the ∞-tombstones collapsed during
    /// incremental maintenance (§8). The derived-tuple total is the number
    /// the churn regression tests budget against.
    pub fn processor_stats(&self) -> ProcessorStats {
        let mut total = ProcessorStats::default();
        for app in self.sim.apps() {
            total.merge(app.stats());
        }
        total
    }

    /// Explain how `tuple` was derived under query `qid`: materialize the
    /// full distributed proof tree rooted at the tuple's stored copy.
    ///
    /// The query must have been issued with [`IssueBuilder::provenance`]
    /// turned on. Local derivation records are read directly from their
    /// node's provenance store; cross-node pointers — a shipped tuple
    /// carries a `(node, ProvId)` reference back to its deriving node — are
    /// resolved on demand with a [`NetMsg::ProvFetch`] round trip over the
    /// simulated (and therefore faultable) wire, with bounded retries, so
    /// explanation works under the same loss the routes themselves survived.
    /// A pointer that never resolves (record pruned, node unreachable)
    /// renders as [`DerivationTree::Missing`] rather than failing the whole
    /// explanation.
    ///
    /// Advances simulated time by up to a few hundred milliseconds per
    /// remote fetch; route state is unaffected.
    pub fn explain(
        &mut self,
        qid: QueryId,
        tuple: &Tuple,
    ) -> std::result::Result<DerivationTree, ExplainError> {
        let nodes = self.sim.topology().num_nodes();
        let mut installed = false;
        let mut recording = false;
        let mut home = None;
        for i in 0..nodes {
            let node = NodeId::new(i as u32);
            let app = self.sim.app(node);
            if app.is_torn_down(qid) {
                return Err(ExplainError::TornDown);
            }
            if app.has_query(qid) {
                installed = true;
                recording = recording || app.provenance(qid).is_some();
                if home.is_none() && app.stores_tuple(qid, tuple) {
                    home = Some(node);
                }
            }
        }
        if !installed {
            return Err(ExplainError::UnknownQuery);
        }
        if !recording {
            return Err(ExplainError::NotRecorded);
        }
        let home = home.ok_or(ExplainError::NoSuchTuple)?;
        let root = self
            .sim
            .app(home)
            .provenance(qid)
            .map(|store| store.resolve(tuple))
            .unwrap_or(ProvRef::Base);
        let mut on_path = HashSet::default();
        Ok(self.build_tree(qid, home, tuple.clone(), root, &mut on_path, 0))
    }

    /// Materialize the proof tree hanging off one provenance reference.
    /// `node` is the node the reference was found on (`Local` ids resolve in
    /// its store; for `Remote` pointers it acts as the fetch requester).
    /// `on_path` holds the records on the current root-to-leaf path — a
    /// repeat means a cycle in (necessarily corrupt) provenance, rendered as
    /// `Missing` instead of recursing forever.
    fn build_tree(
        &mut self,
        qid: QueryId,
        node: NodeId,
        tuple: Tuple,
        prov: ProvRef,
        on_path: &mut HashSet<(NodeId, ProvId)>,
        depth: usize,
    ) -> DerivationTree {
        const MAX_DEPTH: usize = 256;
        match prov {
            ProvRef::Base => DerivationTree::Base { tuple },
            ProvRef::Local(id) => {
                if depth >= MAX_DEPTH || !on_path.insert((node, id)) {
                    return DerivationTree::Missing { tuple, node, id };
                }
                let record = self.sim.app(node).provenance(qid).and_then(|s| s.get(id)).cloned();
                let tree = match record {
                    Some(rec) => self.tree_from_record(qid, rec, tuple, on_path, depth),
                    None => DerivationTree::Missing { tuple, node, id },
                };
                on_path.remove(&(node, id));
                tree
            }
            ProvRef::Remote(owner, id) => {
                if depth >= MAX_DEPTH || !on_path.insert((owner, id)) {
                    return DerivationTree::Missing { tuple, node: owner, id };
                }
                let tree = match self.fetch_remote(qid, node, owner, id) {
                    Some(rec) => self.tree_from_record(qid, rec, tuple, on_path, depth),
                    None => DerivationTree::Missing { tuple, node: owner, id },
                };
                on_path.remove(&(owner, id));
                tree
            }
        }
    }

    /// Expand a derivation record into a `Derived` tree node. Body
    /// references are interpreted relative to the record's deriving node.
    fn tree_from_record(
        &mut self,
        qid: QueryId,
        record: ProvRecord,
        tuple: Tuple,
        on_path: &mut HashSet<(NodeId, ProvId)>,
        depth: usize,
    ) -> DerivationTree {
        let rule = self.rule_label(qid, record.rule);
        let rec_node = record.node;
        let mut children = Vec::with_capacity(record.body.len());
        for (body_tuple, body_ref) in record.body {
            children.push(self.build_tree(qid, rec_node, body_tuple, body_ref, on_path, depth + 1));
        }
        DerivationTree::Derived { tuple, rule, node: rec_node, children }
    }

    /// Resolve a remote provenance pointer by asking its owner over the
    /// wire: inject a [`NetMsg::ProvFetch`] at `owner`, run the simulation
    /// briefly so the [`NetMsg::ProvReply`] can travel (or be dropped by
    /// the fault plan), and read the requester's fetched-record cache.
    /// Bounded retries tolerate reply loss.
    fn fetch_remote(
        &mut self,
        qid: QueryId,
        requester: NodeId,
        owner: NodeId,
        id: ProvId,
    ) -> Option<ProvRecord> {
        if requester == owner {
            return self.sim.app(owner).provenance(qid).and_then(|s| s.get(id)).cloned();
        }
        let cached = |sim: &Simulator<QueryProcessor>| {
            sim.app(requester).provenance(qid).and_then(|s| s.fetched(owner, id)).cloned()
        };
        if let Some(rec) = cached(&self.sim) {
            return Some(rec);
        }
        for _ in 0..8 {
            let at = self.sim.now();
            self.sim.inject(at, owner, NetMsg::ProvFetch { qid, id, requester });
            self.sim.run_until(at + SimDuration::from_millis(50));
            if let Some(rec) = cached(&self.sim) {
                return Some(rec);
            }
        }
        None
    }

    /// The label of rule `rule` of query `qid` ("NR2", "BPR1", …), falling
    /// back to the rule index when the program left the rule unnamed or the
    /// spec is gone.
    fn rule_label(&self, qid: QueryId, rule: u32) -> String {
        self.library
            .get(qid)
            .and_then(|spec| {
                spec.program.rules.get(rule as usize).and_then(|lr| lr.rule.name.clone())
            })
            .unwrap_or_else(|| format!("rule{rule}"))
    }
}

/// Why [`RoutingHarness::explain`] could not produce a derivation tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExplainError {
    /// The query id is not installed on any node (never issued, or the id
    /// is simply unknown).
    UnknownQuery,
    /// The query was torn down; its provenance stores died with it.
    TornDown,
    /// The query was issued without [`IssueBuilder::provenance`], so there
    /// is nothing to explain from.
    NotRecorded,
    /// No node currently stores the tuple (never derived, or pruned away).
    NoSuchTuple,
}

impl std::fmt::Display for ExplainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExplainError::UnknownQuery => write!(f, "query is not installed on any node"),
            ExplainError::TornDown => write!(f, "query was torn down"),
            ExplainError::NotRecorded => write!(f, "query was issued without provenance recording"),
            ExplainError::NoSuchTuple => write!(f, "no node stores the tuple"),
        }
    }
}

impl std::error::Error for ExplainError {}

/// The earliest sample time after which neither the result count nor the
/// average cost changes again.
pub(crate) fn converged_at(samples: &[Sample]) -> Option<SimTime> {
    if samples.is_empty() {
        return None;
    }
    let last = samples.last().expect("non-empty");
    if last.results == 0 {
        return None;
    }
    let mut converged = last.time;
    for pair in samples.windows(2).rev() {
        let (prev, cur) = (&pair[0], &pair[1]);
        if prev.results == cur.results && (prev.avg_cost - cur.avg_cost).abs() < 1e-9 {
            converged = prev.time;
        } else {
            break;
        }
    }
    Some(converged)
}

#[cfg(test)]
#[path = "harness_tests.rs"]
pub(crate) mod tests;
