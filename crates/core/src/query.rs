//! Query issuances, specifications and the per-deployment query library.
//!
//! A [`QueryDef`] describes one issuance — the program and every option,
//! with their defaults — and [`QuerySpec::new`] localizes it into the spec
//! the nodes execute. A [`QuerySpec`] is one routing protocol or route
//! request: a localized program plus runtime options (aggregate
//! selections, result sharing) and per-issuance facts (e.g. the
//! `magicSources` / `magicDsts` constants of a Best-Path-Pairs query). The [`QueryLibrary`] maps query identifiers to
//! specs; every node holds the same library, so disseminating a query over
//! the network only requires flooding its identifier and facts — mirroring
//! the paper's observation (§3.5) that queries may be "baked in" or
//! disseminated on first use.

use crate::localize::{localize, LocalizedProgram};
use crate::results::ResultLogs;
use dr_datalog::ast::Program;
use dr_datalog::eval::RuleEval;
use dr_netsim::SimTime;
use dr_types::{NodeId, Result, Tuple};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Identifier of an issued query.
pub type QueryId = u64;

/// The cross-query cache table a sharing query uses unless told otherwise.
pub(crate) const DEFAULT_CACHE_RELATION: &str = "bestPathCache";

/// A query issuance as plain data: the program plus every option an
/// issuance has. It is the one place the options and their defaults are
/// declared — [`crate::IssueBuilder`] wraps one, a
/// [`crate::ScenarioBuilder`] replays a list of them in order, and
/// [`QuerySpec::new`] turns one into the spec the nodes execute.
///
/// Defaults mirror the paper's common case: issued from node 0 at t=0,
/// aggregate selections on (§7.1), sharing off, no replicated relations, no
/// extra facts, no provenance.
#[derive(Debug, Clone)]
pub struct QueryDef {
    program: Program,
    pub(crate) issuer: NodeId,
    pub(crate) at: SimTime,
    name: String,
    replicated: Vec<String>,
    aggregate_selections: bool,
    share_results: bool,
    cache_relation: String,
    facts: Vec<Tuple>,
    record_provenance: bool,
}

impl QueryDef {
    /// A query issuance of `program` with the default options.
    pub fn new(program: Program) -> QueryDef {
        QueryDef {
            program,
            issuer: NodeId::new(0),
            at: SimTime::ZERO,
            name: "query".to_string(),
            replicated: Vec::new(),
            aggregate_selections: true,
            share_results: false,
            cache_relation: DEFAULT_CACHE_RELATION.to_string(),
            facts: Vec::new(),
            record_provenance: false,
        }
    }

    /// The node that issues (and floods) the query. Default: node 0.
    #[allow(clippy::should_implement_trait)] // fluent DSL: `.from(node)` reads as prose
    pub fn from(mut self, issuer: NodeId) -> Self {
        self.issuer = issuer;
        self
    }

    /// The simulated time at which the query is injected. Default: t=0.
    pub fn at(mut self, at: SimTime) -> Self {
        self.at = at;
        self
    }

    /// Human-readable name for reports, logs and experiment output.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Relations replicated to every node during dissemination (query
    /// constants such as `magicSources` / `magicDsts`).
    pub fn replicated<I, S>(mut self, relations: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.replicated = relations.into_iter().map(Into::into).collect();
        self
    }

    /// Toggle the aggregate-selections optimization (§7.1). Default: on.
    pub fn aggregate_selections(mut self, on: bool) -> Self {
        self.aggregate_selections = on;
        self
    }

    /// Toggle multi-query result sharing through the cache relation (§7.3).
    /// Default: off.
    pub fn sharing(mut self, on: bool) -> Self {
        self.share_results = on;
        self
    }

    /// Override the cross-query cache relation (queries computing different
    /// metrics must not share each other's costs, §9.1.3).
    pub fn cache_relation(mut self, relation: impl Into<String>) -> Self {
        self.cache_relation = relation.into();
        self
    }

    /// Record derivation provenance for this query, enabling
    /// [`crate::RoutingHarness::explain`]. Default: off (the evaluation hot
    /// path then stays byte-identical to a build without provenance).
    pub fn provenance(mut self, on: bool) -> Self {
        self.record_provenance = on;
        self
    }

    /// Facts installed together with the query (replicated relations go to
    /// every node, located facts only to the node they name).
    pub fn facts(mut self, facts: Vec<Tuple>) -> Self {
        self.facts = facts;
        self
    }

    /// Append one fact.
    pub fn fact(mut self, fact: Tuple) -> Self {
        self.facts.push(fact);
        self
    }
}

/// A query (routing protocol or route request) ready for distributed
/// execution.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Unique identifier used in dissemination and tuple messages.
    pub id: QueryId,
    /// Human-readable name for logs and experiment output.
    pub name: String,
    /// The localized program.
    pub program: Arc<LocalizedProgram>,
    /// Enable the aggregate-selections optimization (§7.1) for this query.
    pub aggregate_selections: bool,
    /// Share results across queries through a node-local cache table
    /// (§7.3): completed best paths are cached, and cached sub-paths are
    /// reused by later queries that consult the cache.
    pub share_results: bool,
    /// Name of the cross-query cache table used when `share_results` is on.
    /// Queries computing different link metrics should use different cache
    /// relations so they never share each other's (incomparable) costs —
    /// the paper's mixed-workload observation that "only queries that
    /// compute the same metric are likely to benefit from sharing" (§9.1.3).
    pub cache_relation: String,
    /// Relations whose facts are replicated to every node during
    /// dissemination (query constants such as `magicSources` / `magicDsts`).
    /// Recorded here so the spec is the single canonical description of an
    /// issuance; the localized program already bakes the rewrite in.
    pub replicated: Vec<String>,
    /// Facts installed when the query is disseminated. Facts of replicated
    /// relations are installed at every node; other facts are installed only
    /// at the node named by their location field.
    pub facts: Vec<Tuple>,
    /// Record derivation provenance for this query: every rule firing is
    /// written into a per-node arena (see `dr_provenance::ProvStore`) and
    /// shipped tuples carry a `(node, ProvId)` pointer back to their
    /// deriving node, enabling distributed route explanations. Off by
    /// default — when off, no store is allocated and the evaluation hot
    /// path is byte-identical to a build without provenance.
    pub record_provenance: bool,
    /// Statically compiled rule plans, built lazily on the first
    /// installation and shared by every node instance of this spec. Every
    /// local table is empty at installation time, so the static plans are
    /// identical across nodes — compiling them per node would repeat the
    /// same work `O(nodes)` times (see [`QuerySpec::static_plans`]).
    static_plans: OnceLock<Arc<Vec<RuleEval>>>,
}

impl QuerySpec {
    /// Localize `def`'s program and record its options as the canonical
    /// spec of issuance `id`.
    pub fn new(id: QueryId, def: QueryDef) -> Result<QuerySpec> {
        let replicated: Vec<&str> = def.replicated.iter().map(String::as_str).collect();
        let program = Arc::new(localize(&def.program, &replicated)?);
        Ok(QuerySpec {
            id,
            name: def.name,
            program,
            aggregate_selections: def.aggregate_selections,
            share_results: def.share_results,
            cache_relation: def.cache_relation,
            replicated: def.replicated,
            facts: def.facts,
            record_provenance: def.record_provenance,
            static_plans: OnceLock::new(),
        })
    }

    /// The statically compiled evaluation plans, one per localized rule
    /// (same order as `program.rules`). Compiled on first call and cached on
    /// the spec: the library hands the same `Arc<QuerySpec>` to every node,
    /// so a deployment compiles each query once instead of once per node.
    /// Instances that later re-plan against real cardinalities swap in their
    /// own plan vector and leave the shared one untouched.
    pub fn static_plans(&self) -> Arc<Vec<RuleEval>> {
        Arc::clone(self.static_plans.get_or_init(|| {
            Arc::new(self.program.rules.iter().map(|lrule| RuleEval::new(&lrule.rule)).collect())
        }))
    }
}

/// The set of query specs known to every node in a deployment.
///
/// The library is shared (via `Arc`) by every node's processor and by the
/// experiment harness, which keeps registering new queries while the
/// simulation runs; it therefore uses interior mutability. Being the one
/// thing all of them share, it also carries the queries' result change logs
/// (see [`crate::results`]): the nodes write them, result cursors read them.
#[derive(Debug, Default)]
pub struct QueryLibrary {
    specs: std::sync::RwLock<HashMap<QueryId, Arc<QuerySpec>>>,
    results: ResultLogs,
}

impl QueryLibrary {
    /// An empty library.
    pub fn new() -> QueryLibrary {
        QueryLibrary::default()
    }

    /// The per-query result change logs.
    pub(crate) fn results(&self) -> &ResultLogs {
        &self.results
    }

    /// Register a spec; replaces any previous spec with the same id.
    pub fn register(&self, spec: QuerySpec) -> Arc<QuerySpec> {
        let arc = Arc::new(spec);
        self.specs.write().expect("query library lock poisoned").insert(arc.id, Arc::clone(&arc));
        arc
    }

    /// Look up a spec by id.
    pub fn get(&self, id: QueryId) -> Option<Arc<QuerySpec>> {
        self.specs.read().expect("query library lock poisoned").get(&id).cloned()
    }

    /// Number of registered specs.
    pub fn len(&self) -> usize {
        self.specs.read().expect("query library lock poisoned").len()
    }

    /// True when the library has no specs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Re-register an already-shared spec under its own id (lazy install
    /// repair: a node answering a `QueryRequest` puts the spec back so the
    /// requester's installation finds it). No-op if the id is already bound.
    pub fn restore(&self, spec: Arc<QuerySpec>) {
        self.specs.write().expect("query library lock poisoned").entry(spec.id).or_insert(spec);
    }

    /// Remove a spec (e.g. when its query's lifetime expires).
    pub fn remove(&self, id: QueryId) -> Option<Arc<QuerySpec>> {
        self.specs.write().expect("query library lock poisoned").remove(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_datalog::parse_program;
    use dr_types::Value;

    fn sample_def() -> QueryDef {
        let p = parse_program(
            r#"
            NR1: path(@S,D,P,C) :- link(@S,D,C), P = f_initPath(S,D).
            Query: path(@S,D,P,C).
            "#,
        )
        .unwrap();
        QueryDef::new(p)
    }

    fn spec(id: QueryId, name: &str) -> QuerySpec {
        QuerySpec::new(id, sample_def().named(name)).unwrap()
    }

    #[test]
    fn spec_builder_options() {
        let def = sample_def()
            .named("best-path")
            .aggregate_selections(false)
            .sharing(true)
            .fact(Tuple::new("magicSources", vec![Value::Node(NodeId::new(3))]));
        let spec = QuerySpec::new(7, def).unwrap();
        assert_eq!(spec.id, 7);
        assert_eq!(spec.name, "best-path");
        assert!(!spec.aggregate_selections);
        assert!(spec.share_results);
        assert_eq!(spec.facts.len(), 1);
    }

    #[test]
    fn defaults_enable_aggregate_selections_only() {
        let spec = QuerySpec::new(1, sample_def()).unwrap();
        assert_eq!(spec.name, "query");
        assert_eq!(spec.cache_relation, "bestPathCache");
        assert!(spec.aggregate_selections);
        assert!(!spec.share_results);
        assert!(spec.replicated.is_empty());
        assert!(spec.facts.is_empty());
        assert!(!spec.record_provenance);
        assert!(QuerySpec::new(2, sample_def().provenance(true)).unwrap().record_provenance);
    }

    #[test]
    fn library_register_get_remove() {
        let lib = QueryLibrary::new();
        assert!(lib.is_empty());
        lib.register(spec(1, "a"));
        lib.register(spec(2, "b"));
        assert_eq!(lib.len(), 2);
        assert_eq!(lib.get(1).unwrap().name, "a");
        assert!(lib.get(9).is_none());
        assert!(lib.remove(1).is_some());
        assert!(lib.get(1).is_none());
        assert_eq!(lib.len(), 1);
    }

    #[test]
    fn register_replaces_existing_id() {
        let lib = QueryLibrary::new();
        lib.register(spec(1, "old"));
        lib.register(spec(1, "new"));
        assert_eq!(lib.len(), 1);
        assert_eq!(lib.get(1).unwrap().name, "new");
    }

    #[test]
    fn library_is_shareable_across_nodes() {
        let lib = Arc::new(QueryLibrary::new());
        let other = Arc::clone(&lib);
        lib.register(spec(5, "shared"));
        assert_eq!(other.get(5).unwrap().name, "shared");
    }
}
