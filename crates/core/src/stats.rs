//! What a processor counts and what it holds: the runtime counters and
//! the state-footprint audit, as plain mergeable records.

/// Runtime counters of one processor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcessorStats {
    /// Tuples received from other nodes.
    pub tuples_received: u64,
    /// Tuples shipped to other nodes.
    pub tuples_sent: u64,
    /// Tuples derived locally (after pruning).
    pub tuples_derived: u64,
    /// Tuples suppressed by aggregate selections.
    pub tuples_pruned: u64,
    /// ∞-cost tombstones collapsed during incremental maintenance (§8):
    /// dominated infinite-cost derivations dropped instead of being stored,
    /// shipped, and re-joined.
    pub tombstones_collapsed: u64,
    /// Received tuples dropped because their relation tag is not bound by
    /// the query's symbol catalog (a stale or corrupt wire id).
    pub tuples_rejected: u64,
    /// Aggregate-selection prune-state entries evicted because the ∞-cost
    /// tombstone of their recorded best arrived (keeps the per-query prune
    /// map bounded under churn). An entry is never evicted any earlier — it
    /// may back a *shipped* best whose tombstone must still pass the
    /// admission gate.
    pub prune_evicted: u64,
    /// Number of batch-processing rounds executed.
    pub batches: u64,
    /// Sequence-numbered tuple batches resent by the reliable transport.
    pub retransmits: u64,
    /// Duplicate tuple batches discarded by the reliable transport (already
    /// applied or already buffered).
    pub dups_dropped: u64,
    /// Cumulative acknowledgments sent by the reliable transport.
    pub acks_sent: u64,
    /// Sequence numbers the reliable transport gave up waiting for: the
    /// sender advertised it had abandoned them (`StreamSeq::base` moved
    /// past), or the reorder buffer overflowed behind them. Soft-state
    /// repair owns whatever they carried.
    pub gaps_skipped: u64,
    /// Derivation records written into provenance arenas (zero unless a
    /// query was issued with provenance recording on).
    pub prov_recorded: u64,
    /// Provenance-record fetches served for remote explanation requests.
    pub prov_fetches: u64,
}

impl ProcessorStats {
    /// Accumulate another processor's counters into this one (used by the
    /// harness to report deployment-wide totals).
    pub fn merge(&mut self, other: &ProcessorStats) {
        self.tuples_received += other.tuples_received;
        self.tuples_sent += other.tuples_sent;
        self.tuples_derived += other.tuples_derived;
        self.tuples_pruned += other.tuples_pruned;
        self.tombstones_collapsed += other.tombstones_collapsed;
        self.tuples_rejected += other.tuples_rejected;
        self.prune_evicted += other.prune_evicted;
        self.batches += other.batches;
        self.retransmits += other.retransmits;
        self.dups_dropped += other.dups_dropped;
        self.acks_sent += other.acks_sent;
        self.gaps_skipped += other.gaps_skipped;
        self.prov_recorded += other.prov_recorded;
        self.prov_fetches += other.prov_fetches;
    }
}

/// Sizes of everything a node currently stores on behalf of queries.
///
/// The residue audit of the query lifecycle: tearing a query down must
/// return every counter to its pre-issue value, otherwise a long-lived
/// service leaks a little engine state per issue→teardown cycle. The
/// teardown regression tests pin this by comparing footprints taken before
/// issuing and after tearing down.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateFootprint {
    /// Installed query instances.
    pub instances: usize,
    /// Tuples stored across all per-query databases.
    pub stored_tuples: usize,
    /// Tuples waiting in per-query pending (delta) buffers.
    pub pending_tuples: usize,
    /// Aggregate-selection prune-state entries across all queries.
    pub prune_entries: usize,
    /// Relations materialized in the shared (cross-query) store.
    pub shared_relations: usize,
    /// Tuples held by the shared (cross-query) store.
    pub shared_tuples: usize,
    /// Provenance-store residue across all queries: live derivation
    /// records, tuple→provenance bindings, and cached fetched records.
    /// Zero for queries that do not record provenance; must return to zero
    /// when a recording query is torn down (Explain state must not leak
    /// across the query lifecycle).
    pub prov_records: usize,
}

impl StateFootprint {
    /// Accumulate another node's footprint (deployment-wide totals).
    pub fn merge(&mut self, other: &StateFootprint) {
        self.instances += other.instances;
        self.stored_tuples += other.stored_tuples;
        self.pending_tuples += other.pending_tuples;
        self.prune_entries += other.prune_entries;
        self.shared_relations += other.shared_relations;
        self.shared_tuples += other.shared_tuples;
        self.prov_records += other.prov_records;
    }

    /// True when nothing is stored at all.
    pub fn is_empty(&self) -> bool {
        *self == StateFootprint::default()
    }
}
