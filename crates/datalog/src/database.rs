//! In-memory tuple storage with incremental secondary indexes.
//!
//! A [`Database`] holds one [`Table`] per relation, stored in a dense slab
//! indexed by the relation's interned [`RelId`] — looking a table up never
//! hashes or compares a relation *name*. Name-based entry points accept
//! `impl Into<RelId>`, so `db.scan("link")` and `db.scan(rel_id)` both work;
//! hot paths pass the id. Tables support set
//! insertion (for fixpoint evaluation) and keyed upserts (for the
//! incremental base-table updates of paper §8: "these updates result in the
//! addition of tuples into base tables, or the replacement of existing base
//! tuples that have the same unique key").
//!
//! # Storage layout
//!
//! Tuples live in an append-only slab (`Vec<Option<Tuple>>`); the slot
//! position is the tuple's [`TupleId`]. Secondary indexes (declared per
//! field with [`Table::declare_index`], normally driven by the probe fields
//! a rule plan chooses) map a field value to the ids of the tuples carrying
//! it. Removals blank the slot and leave index postings behind as
//! tombstones — a probe skips blanked slots for free, and the table compacts
//! (rebuilding slab and indexes) once dead slots outnumber live ones, so
//! maintenance is amortized O(1) per update.
//!
//! Readers never materialize: [`Table::scan`] and [`Table::probe`] return a
//! borrowing [`Scan`] cursor over the slab, which is also what the rule
//! evaluator's join loop consumes (see `RelationSource` in `eval`).

use dr_types::hash::HashMap;
use dr_types::{RelId, Tuple, TupleId, TupleKey, Value};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// A borrowing cursor over stored tuples: the zero-copy replacement for the
/// old `scan(&self) -> Vec<Tuple>` API. Yields `&Tuple` without cloning.
///
/// The variants cover every way tuples are sourced during evaluation: whole
/// tables, index probes, semi-naïve delta slices, and chained overlays of
/// two stores (`Scan::chain`).
#[derive(Debug)]
pub enum Scan<'a> {
    /// No tuples.
    Empty,
    /// A slice of tuples (semi-naïve deltas).
    Slice(std::slice::Iter<'a, Tuple>),
    /// Every live slot of a table's slab.
    Slots(std::slice::Iter<'a, Option<Tuple>>),
    /// Index-probe hits: posting ids resolved against the slab (blanked
    /// slots are tombstoned postings and are skipped).
    Probe {
        /// The owning table's slab.
        slots: &'a [Option<Tuple>],
        /// Posting list of the probed value.
        ids: std::slice::Iter<'a, TupleId>,
    },
    /// Hits of a transient index over a tuple slice (the evaluator builds
    /// one per call over semi-naïve delta sets).
    Hits {
        /// The indexed slice.
        tuples: &'a [Tuple],
        /// Positions of the matching tuples within the slice.
        ids: std::slice::Iter<'a, usize>,
    },
    /// Two cursors chained back to back (local ∪ shared overlays).
    Chain(Box<Scan<'a>>, Box<Scan<'a>>),
}

impl<'a> Scan<'a> {
    /// Chain `self` with `other`, yielding all of `self` first.
    pub fn chain(self, other: Scan<'a>) -> Scan<'a> {
        match (self, other) {
            (Scan::Empty, s) | (s, Scan::Empty) => s,
            (a, b) => Scan::Chain(Box::new(a), Box::new(b)),
        }
    }
}

impl<'a> Iterator for Scan<'a> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        match self {
            Scan::Empty => None,
            Scan::Slice(it) => it.next(),
            Scan::Slots(it) => {
                for slot in it {
                    if let Some(t) = slot.as_ref() {
                        return Some(t);
                    }
                }
                None
            }
            Scan::Probe { slots, ids } => {
                for id in ids {
                    if let Some(t) = slots[id.index()].as_ref() {
                        return Some(t);
                    }
                }
                None
            }
            Scan::Hits { tuples, ids } => ids.next().map(|&i| &tuples[i]),
            Scan::Chain(a, b) => a.next().or_else(|| b.next()),
        }
    }
}

/// One relation's stored tuples plus its upsert key and secondary indexes.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Key field positions used for upserts; empty = set semantics.
    key_fields: Vec<usize>,
    /// Slab of tuples; the slot index is the tuple's [`TupleId`]. Slots are
    /// blanked on removal and only reused after compaction, so index
    /// postings never dangle onto a different tuple.
    slots: Vec<Option<Tuple>>,
    /// Exact-tuple lookup (contains / dedup / removal).
    ids: HashMap<Tuple, TupleId>,
    /// Key → current tuple id, maintained only when `key_fields` is
    /// non-empty.
    by_key: HashMap<TupleKey, TupleId>,
    /// Declared secondary indexes: field position → value → posting ids.
    /// Postings are append-only between compactions (removals tombstone).
    indexes: BTreeMap<usize, HashMap<Value, Vec<TupleId>>>,
    /// Number of blanked slots since the last compaction.
    dead: usize,
}

impl Table {
    /// Create a table with the given upsert key (empty = set semantics).
    pub fn with_key(key_fields: Vec<usize>) -> Table {
        Table { key_fields, ..Table::default() }
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the table holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// True when the exact tuple is present.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.ids.contains_key(t)
    }

    /// Iterate over all tuples (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// All tuples, sorted (deterministic order for output / tests).
    pub fn sorted(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self.iter().cloned().collect();
        v.sort();
        v
    }

    /// Borrowing cursor over every stored tuple.
    pub fn scan(&self) -> Scan<'_> {
        Scan::Slots(self.slots.iter())
    }

    /// The tuple currently stored under `key`, if any (keyed tables only).
    pub fn get_by_key(&self, key: &TupleKey) -> Option<&Tuple> {
        self.by_key.get(key).and_then(|id| self.slots[id.index()].as_ref())
    }

    /// The field positions declared for upserts.
    pub fn key_fields(&self) -> &[usize] {
        &self.key_fields
    }

    /// Declare (and immediately build) a secondary index on `field`. A
    /// no-op when the index already exists. Probes on undeclared fields
    /// fall back to a full scan.
    pub fn declare_index(&mut self, field: usize) {
        if self.indexes.contains_key(&field) {
            return;
        }
        let mut index: HashMap<Value, Vec<TupleId>> = HashMap::default();
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(t) = slot {
                if let Some(v) = t.field(field) {
                    index.entry(v.clone()).or_default().push(TupleId::new(i));
                }
            }
        }
        self.indexes.insert(field, index);
    }

    /// The field positions that currently have a secondary index.
    pub fn indexed_fields(&self) -> Vec<usize> {
        self.indexes.keys().copied().collect()
    }

    /// Number of distinct values in the secondary index on `field`, if one
    /// is declared. Tombstoned postings still count their key, so this is
    /// an (over-)estimate between compactions — fine for planning.
    pub fn distinct_count(&self, field: usize) -> Option<usize> {
        self.indexes.get(&field).map(HashMap::len)
    }

    /// Borrowing cursor over the tuples whose `field` equals `value`.
    ///
    /// Served from the secondary index when one is declared on `field`;
    /// otherwise falls back to a full scan (the contract is "at least the
    /// matching tuples" — join loops re-check the probe field on match, so
    /// over-approximation is safe).
    pub fn probe(&self, field: usize, value: &Value) -> Scan<'_> {
        match self.indexes.get(&field) {
            Some(index) => match index.get(value) {
                Some(ids) => Scan::Probe { slots: &self.slots, ids: ids.iter() },
                None => Scan::Empty,
            },
            None => self.scan(),
        }
    }

    /// Insert a tuple.
    ///
    /// With set semantics this is plain set insertion. With a declared key,
    /// a tuple whose key matches an existing tuple *replaces* it (upsert);
    /// the result reports both what was removed and whether anything new
    /// appeared, so callers can propagate deltas.
    pub fn insert(&mut self, t: Tuple) -> InsertOutcome {
        // Blanking a slot keeps the slab's length, so the new tuple's id is
        // known before the key's previous holder (if any) is displaced.
        let id = TupleId::new(self.slots.len());
        // One lookup both rejects a duplicate and files a new tuple.
        let t = match self.ids.entry(t) {
            Entry::Occupied(_) => return InsertOutcome { added: false, replaced: None },
            Entry::Vacant(slot) => {
                let t = slot.key().clone();
                slot.insert(id);
                t
            }
        };
        let replaced = if self.key_fields.is_empty() {
            None
        } else {
            self.by_key.insert(t.key(&self.key_fields), id).map(|old_id| {
                let old = self.blank_slot(old_id);
                self.ids.remove(&old);
                old
            })
        };
        for (&field, index) in self.indexes.iter_mut() {
            if let Some(v) = t.field(field) {
                index.entry(v.clone()).or_default().push(id);
            }
        }
        self.slots.push(Some(t));
        self.maybe_compact();
        InsertOutcome { added: true, replaced }
    }

    /// Remove a tuple exactly. Returns true when it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        let Some(id) = self.ids.remove(t) else { return false };
        self.blank_slot(id);
        if !self.key_fields.is_empty() {
            self.by_key.remove(&t.key(&self.key_fields));
        }
        self.maybe_compact();
        true
    }

    /// Blank slot `id`, returning the tuple it held. Panics when the slot is
    /// already empty (internal invariant: callers hold a live id).
    fn blank_slot(&mut self, id: TupleId) -> Tuple {
        self.dead += 1;
        self.slots[id.index()].take().expect("live tuple id points at an occupied slot")
    }

    /// Rebuild slab, lookups, and indexes once tombstones dominate. The
    /// threshold keeps compaction amortized O(1) per removal.
    fn maybe_compact(&mut self) {
        if self.dead <= 16 || self.dead <= self.ids.len() {
            return;
        }
        let live: Vec<Tuple> = self.slots.drain(..).flatten().collect();
        self.ids.clear();
        self.by_key.clear();
        for index in self.indexes.values_mut() {
            index.clear();
        }
        self.dead = 0;
        for (i, t) in live.iter().enumerate() {
            let id = TupleId::new(i);
            self.ids.insert(t.clone(), id);
            if !self.key_fields.is_empty() {
                self.by_key.insert(t.key(&self.key_fields), id);
            }
            for (&field, index) in self.indexes.iter_mut() {
                if let Some(v) = t.field(field) {
                    index.entry(v.clone()).or_default().push(id);
                }
            }
        }
        self.slots = live.into_iter().map(Some).collect();
    }
}

/// Result of a [`Table::insert`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertOutcome {
    /// True when the table's contents changed (a new tuple is now stored).
    pub added: bool,
    /// The tuple displaced by a keyed upsert, if any.
    pub replaced: Option<Tuple>,
}

/// Table cardinality statistics snapshotted from a [`Database`] for the
/// join planner: row counts per relation plus distinct-value counts per
/// indexed field (an index's selectivity is `rows / distinct`).
///
/// Relations with no entry are *unknown*, not empty — derived relations are
/// usually empty at planning time, and treating them as free would order
/// them first for exactly the wrong reason.
#[derive(Debug, Clone, Default)]
pub struct CardStats {
    rows: HashMap<RelId, usize>,
    distinct: HashMap<(RelId, usize), usize>,
    /// Declared upsert-key fields per keyed relation. Unlike row counts,
    /// keys are schema: they are reported even for empty tables, so plans
    /// can compile key probes against derived relations that only fill up
    /// during the fixpoint.
    keys: HashMap<RelId, Vec<usize>>,
}

impl CardStats {
    /// An empty (everything-unknown) set of statistics.
    pub fn new() -> CardStats {
        CardStats::default()
    }

    /// True when no relation has a known row count.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Known row count of `rel`, if any.
    pub fn rows(&self, rel: RelId) -> Option<usize> {
        self.rows.get(&rel).copied()
    }

    /// Known distinct-value count of `rel.field`, if that field is indexed.
    pub fn distinct(&self, rel: RelId, field: usize) -> Option<usize> {
        self.distinct.get(&(rel, field)).copied()
    }

    /// Record a row count (tests and external planners build synthetic
    /// stats through this).
    pub fn set_rows(&mut self, rel: impl Into<RelId>, rows: usize) {
        self.rows.insert(rel.into(), rows);
    }

    /// Record a distinct-value count for `rel.field`.
    pub fn set_distinct(&mut self, rel: impl Into<RelId>, field: usize, distinct: usize) {
        self.distinct.insert((rel.into(), field), distinct);
    }

    /// The declared upsert-key fields of `rel`, if it is keyed. A keyed
    /// relation stores at most one tuple per key projection, so a probe
    /// that binds every key field yields at most one candidate.
    pub fn key_of(&self, rel: RelId) -> Option<&[usize]> {
        self.keys.get(&rel).map(Vec::as_slice)
    }

    /// Record the upsert-key fields of a keyed relation.
    pub fn set_key(&mut self, rel: impl Into<RelId>, fields: Vec<usize>) {
        self.keys.insert(rel.into(), fields);
    }
}

/// A collection of tables, one per relation, indexed densely by [`RelId`].
#[derive(Debug, Clone, Default)]
pub struct Database {
    /// Slot `rel.index()` holds the table of relation `rel`. Slots for ids
    /// this database never touched stay `None`.
    tables: Vec<Option<Table>>,
    /// Interned ids of the relations that currently have a table, in
    /// creation order (kept so enumeration never walks empty slots).
    present: Vec<RelId>,
    /// Indexes declared before their relation had a table (they are applied
    /// when the table first appears).
    pending_indexes: HashMap<RelId, BTreeSet<usize>>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// The table slot for `rel`, if this database ever created it.
    fn slot(&self, rel: RelId) -> Option<&Table> {
        self.tables.get(rel.index()).and_then(Option::as_ref)
    }

    /// The table for `rel`, creating it (with pending index declarations
    /// applied) when absent. The hot path — table already present — is a
    /// bounds check and a slot read; pending declarations are only
    /// consulted on first creation.
    fn slot_mut_or_create(&mut self, rel: RelId) -> &mut Table {
        if self.tables.len() <= rel.index() {
            self.tables.resize_with(rel.index() + 1, || None);
        }
        if self.tables[rel.index()].is_none() {
            let mut table = Table::default();
            if let Some(fields) = self.pending_indexes.remove(&rel) {
                for f in fields {
                    table.declare_index(f);
                }
            }
            self.tables[rel.index()] = Some(table);
            self.present.push(rel);
        }
        self.tables[rel.index()].as_mut().expect("just ensured")
    }

    /// Declare the upsert key of a relation, creating its table if needed.
    /// Must be called before tuples of that relation are inserted if keyed
    /// semantics are wanted.
    pub fn declare_key(&mut self, relation: impl Into<RelId>, key_fields: Vec<usize>) {
        let rel = relation.into();
        let table = self.slot_mut_or_create(rel);
        if table.is_empty() {
            let indexed = table.indexed_fields();
            *table = Table::with_key(key_fields);
            for f in indexed {
                table.declare_index(f);
            }
        } else {
            // Rebuild under the new key, preserving declared indexes.
            let tuples: Vec<Tuple> = table.iter().cloned().collect();
            let mut new_table = Table::with_key(key_fields);
            for f in table.indexed_fields() {
                new_table.declare_index(f);
            }
            for t in tuples {
                new_table.insert(t);
            }
            *table = new_table;
        }
    }

    /// Declare a secondary index on `relation.field`. When the relation has
    /// no table yet the declaration is remembered and applied as soon as
    /// the table exists, so callers need not order declarations.
    pub fn declare_index(&mut self, relation: impl Into<RelId>, field: usize) {
        let rel = relation.into();
        match self.tables.get_mut(rel.index()).and_then(Option::as_mut) {
            Some(table) => table.declare_index(field),
            None => {
                self.pending_indexes.entry(rel).or_default().insert(field);
            }
        }
    }

    /// The table for `relation`, if it exists.
    pub fn table(&self, relation: impl Into<RelId>) -> Option<&Table> {
        self.slot(relation.into())
    }

    /// Snapshot cardinality statistics for the join planner: row counts for
    /// every non-empty relation, distinct counts for every indexed field.
    /// Empty tables are deliberately left unknown (see [`CardStats`]).
    pub fn cardinalities(&self) -> CardStats {
        let mut stats = CardStats::new();
        for &rel in &self.present {
            let Some(table) = self.slot(rel) else { continue };
            if !table.key_fields().is_empty() {
                stats.set_key(rel, table.key_fields().to_vec());
            }
            if table.is_empty() {
                continue;
            }
            stats.set_rows(rel, table.len());
            for field in table.indexed_fields() {
                if let Some(d) = table.distinct_count(field) {
                    stats.set_distinct(rel, field, d);
                }
            }
        }
        stats
    }

    /// Insert a tuple into its relation's table (created on demand with set
    /// semantics).
    pub fn insert(&mut self, t: Tuple) -> InsertOutcome {
        self.slot_mut_or_create(t.rel()).insert(t)
    }

    /// Remove an exact tuple. Returns true when it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        self.tables
            .get_mut(t.rel().index())
            .and_then(Option::as_mut)
            .map(|tb| tb.remove(t))
            .unwrap_or(false)
    }

    /// Borrowing cursor over all tuples of `relation`.
    pub fn scan(&self, relation: impl Into<RelId>) -> Scan<'_> {
        self.slot(relation.into()).map(Table::scan).unwrap_or(Scan::Empty)
    }

    /// Borrowing cursor over the tuples of `relation` whose `field` equals
    /// `value` (index-served when declared; see [`Table::probe`]).
    pub fn probe(&self, relation: impl Into<RelId>, field: usize, value: &Value) -> Scan<'_> {
        self.slot(relation.into()).map(|t| t.probe(field, value)).unwrap_or(Scan::Empty)
    }

    /// All tuples of a relation (empty if the relation has no table).
    /// Materializes; hot paths should prefer [`Database::scan`].
    pub fn tuples(&self, relation: impl Into<RelId>) -> Vec<Tuple> {
        self.slot(relation.into()).map(|t| t.iter().cloned().collect()).unwrap_or_default()
    }

    /// All tuples of a relation in sorted order.
    pub fn sorted_tuples(&self, relation: impl Into<RelId>) -> Vec<Tuple> {
        self.slot(relation.into()).map(|t| t.sorted()).unwrap_or_default()
    }

    /// The tuple stored under `key`, if any (keyed relations only). The key
    /// carries its relation's interned id, so no separate relation argument
    /// is needed.
    pub fn get_by_key(&self, key: &TupleKey) -> Option<&Tuple> {
        self.slot(key.rel()).and_then(|t| t.get_by_key(key))
    }

    /// Borrowing cursor over (at least) the tuples whose declared-key
    /// projection equals `key`. When the stored table's key matches
    /// `fields` this is an upsert-map lookup (at most one hit); when the
    /// key layout changed since the caller planned, it over-approximates
    /// with a single-field probe — safe, since join loops re-check every
    /// field on match.
    pub fn probe_key(&self, key: &TupleKey, fields: &[usize]) -> Scan<'_> {
        let Some(table) = self.slot(key.rel()) else { return Scan::Empty };
        if table.key_fields() == fields {
            return match table.get_by_key(key) {
                Some(t) => Scan::Slice(std::slice::from_ref(t).iter()),
                None => Scan::Empty,
            };
        }
        match (fields.first(), key.values().first()) {
            (Some(&f), Some(v)) => table.probe(f, v),
            _ => table.scan(),
        }
    }

    /// Number of tuples stored in `relation`.
    pub fn count(&self, relation: impl Into<RelId>) -> usize {
        self.slot(relation.into()).map(|t| t.len()).unwrap_or(0)
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.present.iter().filter_map(|&r| self.slot(r)).map(Table::len).sum()
    }

    /// True when the exact tuple is stored.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.slot(t.rel()).map(|tb| tb.contains(t)).unwrap_or(false)
    }

    /// Drop a relation's table entirely — tuples, upsert key, and secondary
    /// indexes. Nothing survives: the slot returns to the never-touched
    /// state, so long-lived stores (the per-node cross-query cache of a
    /// resident service) shed the whole footprint of a torn-down query
    /// instead of keeping empty index skeletons around forever. Returns the number of tuples dropped.
    pub fn drop_relation(&mut self, relation: impl Into<RelId>) -> usize {
        let rel = relation.into();
        self.pending_indexes.remove(&rel);
        let dropped = match self.tables.get_mut(rel.index()) {
            Some(slot) => slot.take().map(|t| t.len()).unwrap_or(0),
            None => return 0,
        };
        self.present.retain(|&r| r != rel);
        dropped
    }

    /// Number of relations that currently have a table.
    pub fn relation_count(&self) -> usize {
        self.present.len()
    }

    /// Names of all relations that currently have a table, sorted (the
    /// dense id order is an interning artifact; names keep enumeration
    /// deterministic for output and tests).
    pub fn relations(&self) -> impl Iterator<Item = &'static str> {
        let mut names: Vec<&'static str> = self.present.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_types::NodeId;

    fn link(s: u32, d: u32, c: f64) -> Tuple {
        Tuple::new(
            "link",
            vec![Value::Node(NodeId::new(s)), Value::Node(NodeId::new(d)), Value::from(c)],
        )
    }

    #[test]
    fn set_semantics_deduplicate() {
        let mut db = Database::new();
        assert!(db.insert(link(1, 2, 3.0)).added);
        assert!(!db.insert(link(1, 2, 3.0)).added);
        assert!(db.insert(link(1, 2, 4.0)).added); // different cost = different tuple
        assert_eq!(db.count("link"), 2);
        assert_eq!(db.total_tuples(), 2);
    }

    #[test]
    fn keyed_upsert_replaces_matching_key() {
        let mut db = Database::new();
        db.declare_key("link", vec![0, 1]);
        assert!(db.insert(link(1, 2, 3.0)).added);
        let out = db.insert(link(1, 2, 9.0));
        assert!(out.added);
        assert_eq!(out.replaced, Some(link(1, 2, 3.0)));
        assert_eq!(db.count("link"), 1);
        assert!(db.contains(&link(1, 2, 9.0)));
        assert!(!db.contains(&link(1, 2, 3.0)));
        // identical re-insert is a no-op
        let out = db.insert(link(1, 2, 9.0));
        assert!(!out.added);
        assert!(out.replaced.is_none());
    }

    #[test]
    fn declare_key_rebuilds_existing_table() {
        let mut db = Database::new();
        db.insert(link(1, 2, 3.0));
        db.insert(link(1, 2, 4.0));
        assert_eq!(db.count("link"), 2);
        db.declare_key("link", vec![0, 1]);
        // one of the two survives; a further upsert keeps the table at 1
        assert_eq!(db.count("link"), 1);
        db.insert(link(1, 2, 7.0));
        assert_eq!(db.count("link"), 1);
    }

    #[test]
    fn remove_frees_the_key_slot() {
        let mut db = Database::new();
        db.declare_key("link", vec![0, 1]);
        db.insert(link(1, 2, 3.0));
        db.insert(link(2, 3, 1.0));
        assert!(db.remove(&link(1, 2, 3.0)));
        assert!(!db.remove(&link(1, 2, 3.0)));
        assert_eq!(db.count("link"), 1);
        // after remove the key slot is free again
        assert!(db.insert(link(1, 2, 5.0)).replaced.is_none());
        assert!(!db.remove(&Tuple::new("nosuch", vec![])));
    }

    #[test]
    fn sorted_is_deterministic() {
        let mut db = Database::new();
        db.insert(link(3, 4, 1.0));
        db.insert(link(1, 2, 1.0));
        db.insert(link(2, 3, 1.0));
        let sorted = db.sorted_tuples("link");
        assert_eq!(sorted.len(), 3);
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        assert!(db.sorted_tuples("nosuch").is_empty());
    }

    #[test]
    fn relations_lists_tables() {
        let mut db = Database::new();
        db.insert(link(1, 2, 1.0));
        db.insert(Tuple::new("path", vec![Value::Int(1)]));
        let rels: Vec<&str> = db.relations().collect();
        assert_eq!(rels, vec!["link", "path"]);
    }

    #[test]
    fn probe_uses_declared_index() {
        let mut db = Database::new();
        db.declare_index("link", 0);
        db.insert(link(1, 2, 3.0));
        db.insert(link(1, 3, 4.0));
        db.insert(link(2, 3, 5.0));
        let hits: Vec<&Tuple> = db.probe("link", 0, &Value::Node(NodeId::new(1))).collect();
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|t| t.node_at(0) == Some(NodeId::new(1))));
        // Probe on an un-indexed field over-approximates (full scan).
        assert_eq!(db.probe("link", 1, &Value::Node(NodeId::new(3))).count(), 3);
        // Unknown value on an indexed field is empty, as is an unknown
        // relation.
        assert_eq!(db.probe("link", 0, &Value::Node(NodeId::new(9))).count(), 0);
        assert_eq!(db.probe("nosuch", 0, &Value::Int(0)).count(), 0);
    }

    #[test]
    fn index_declared_before_table_exists_applies_on_first_insert() {
        let mut db = Database::new();
        db.declare_index("link", 1);
        db.insert(link(1, 3, 1.0));
        db.insert(link(2, 3, 1.0));
        db.insert(link(2, 4, 1.0));
        assert_eq!(db.table("link").unwrap().indexed_fields(), vec![1]);
        let hits: Vec<&Tuple> = db.probe("link", 1, &Value::Node(NodeId::new(3))).collect();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn index_survives_upserts_and_removals() {
        let mut db = Database::new();
        db.declare_key("link", vec![0, 1]);
        db.declare_index("link", 0);
        db.insert(link(1, 2, 3.0));
        db.insert(link(1, 3, 4.0));
        // Upsert replaces — the index must stop reporting the old tuple.
        db.insert(link(1, 2, 9.0));
        let hits: Vec<&Tuple> = db.probe("link", 0, &Value::Node(NodeId::new(1))).collect();
        assert_eq!(hits.len(), 2);
        assert!(hits.contains(&&link(1, 2, 9.0)));
        assert!(!hits.contains(&&link(1, 2, 3.0)));
        db.remove(&link(1, 3, 4.0));
        assert_eq!(db.probe("link", 0, &Value::Node(NodeId::new(1))).count(), 1);
    }

    #[test]
    fn compaction_preserves_contents_and_indexes() {
        let mut db = Database::new();
        db.declare_key("pair", vec![0]);
        db.declare_index("pair", 1);
        // Churn one key hard enough to trigger compaction several times.
        for i in 0..200i64 {
            db.insert(Tuple::new("pair", vec![Value::Int(7), Value::Int(i % 3)]));
        }
        assert_eq!(db.count("pair"), 1);
        let last = Tuple::new("pair", vec![Value::Int(7), Value::Int(199 % 3)]);
        assert!(db.contains(&last));
        let hits: Vec<&Tuple> = db.probe("pair", 1, &Value::Int(199 % 3)).collect();
        assert_eq!(hits, vec![&last]);
        // The slab actually shrank (compaction ran).
        assert!(db.table("pair").unwrap().slots.len() < 100);
    }

    #[test]
    fn scan_chain_concatenates() {
        let mut a = Database::new();
        let mut b = Database::new();
        a.insert(link(1, 2, 1.0));
        b.insert(link(3, 4, 1.0));
        let chained: Vec<&Tuple> = a.scan("link").chain(b.scan("link")).collect();
        assert_eq!(chained.len(), 2);
        assert_eq!(a.scan("nosuch").chain(b.scan("link")).count(), 1);
    }

    #[test]
    fn get_by_key_returns_current_tuple() {
        let mut db = Database::new();
        db.declare_key("link", vec![0, 1]);
        db.insert(link(1, 2, 3.0));
        let key = link(1, 2, 99.0).key(&[0, 1]);
        assert_eq!(db.get_by_key(&key), Some(&link(1, 2, 3.0)));
        db.insert(link(1, 2, 9.0));
        assert_eq!(db.get_by_key(&key), Some(&link(1, 2, 9.0)));
        db.remove(&link(1, 2, 9.0));
        assert_eq!(db.get_by_key(&key), None);
    }
}
