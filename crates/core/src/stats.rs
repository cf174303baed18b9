//! What a processor counts and what it holds: the runtime counters and
//! the state-footprint audit, as plain mergeable records.

/// Declares a record of counters once: the struct as written, a `merge`
/// that adds another record field by field, and `fields()`, every counter
/// as `(name, value)` in declaration order (what the service's `Stats`
/// lines are rendered from). Adding a counter is one line in the struct.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident: $ty:ty, )*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        impl $name {
            /// Accumulate another record into this one (deployment-wide
            /// totals are the sum over every node).
            pub fn merge(&mut self, other: &$name) {
                $( self.$field += other.$field; )*
            }

            /// Every counter as `(name, value)`, in declaration order.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$( (stringify!($field), self.$field as u64), )*].into_iter()
            }
        }
    };
}

counters! {
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
        /// Received tuples dropped because their relation is not bound by
        /// the query's catalog (a stale or corrupt wire id).
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
        /// Rule or aggregate evaluations that failed at run time (an
        /// unregistered function, arithmetic on a non-numeric value). The
        /// failing rule derives nothing that round; the query's other rules are
        /// unaffected.
        pub eval_errors: u64,
    }
}

counters! {
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
}

impl StateFootprint {
    /// True when nothing is stored at all.
    pub fn is_empty(&self) -> bool {
        *self == StateFootprint::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_declared_counter_is_merged_and_listed_in_declaration_order() {
        let mut total = StateFootprint { instances: 1, prov_records: 2, ..Default::default() };
        total.merge(&StateFootprint { instances: 10, stored_tuples: 5, ..Default::default() });
        let names = "instances stored_tuples pending_tuples prune_entries shared_relations \
                     shared_tuples prov_records";
        let values = [11, 5, 0, 0, 0, 0, 2];
        assert!(total.fields().eq(names.split(' ').zip(values)));
        assert_eq!(ProcessorStats::default().fields().last(), Some(("eval_errors", 0)));
    }
}
