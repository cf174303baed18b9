//! Derivation provenance for declarative routing.
//!
//! The paper's pitch is that routes are *derived facts*; this crate gives a
//! deployment the vocabulary to answer "why is this the best path, and why
//! did it change?". Every derived tuple can carry a compact
//! [`ProvRecord`] — which rule fired, on which node, during which batch,
//! from which body tuples — stored in an arena-backed [`ProvStore`] whose
//! lifetime is tied to the tuple's own: a pruned tuple forgets its record,
//! a torn-down query drops its whole store.
//!
//! Cross-node derivations do not copy proof trees around; a shipped tuple
//! links back to its deriving node as a `(node, ProvId)` pointer
//! ([`ProvRef::Remote`]) that is resolved on demand. Materializing the full
//! distributed proof yields a [`DerivationTree`]; two trees (say, before
//! and after a link failure) are compared with [`diff_explanations`].
//!
//! The engine integration lives in `dr-core` (recording, shipping,
//! fetching, the `explain` entry point); this crate is deliberately small
//! and depends only on `dr-types`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dr_types::hash::HashMap;
use std::collections::BTreeSet;
use std::fmt;

use dr_types::{NodeId, Tuple};

/// Handle of one derivation record inside a node's [`ProvStore`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProvId(pub u32);

impl fmt::Display for ProvId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Where a body tuple's own derivation lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProvRef {
    /// A base fact (network link, injected constant, shipped copy of a
    /// base fact): it has no deriving rule, it is simply *in* the store.
    Base,
    /// Derived on this node; the record is in the local arena.
    Local(ProvId),
    /// Derived on another node; resolve by asking `node` for `id`.
    Remote(NodeId, ProvId),
}

/// One rule firing: the compact "why" of a single derived tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvRecord {
    /// The derived tuple itself.
    pub tuple: Tuple,
    /// Index of the firing rule in the query's localized program (both
    /// ends of a [`ProvRef::Remote`] pointer share the program, so an
    /// index resolves anywhere).
    pub rule: u32,
    /// The node the rule fired on.
    pub node: NodeId,
    /// Batch timestamp (simulated milliseconds) of the firing.
    pub batch: u64,
    /// The body tuples the firing joined, each with its own provenance.
    pub body: Vec<(Tuple, ProvRef)>,
}

/// Arena-backed per-(node, query) provenance store.
///
/// Records live in a slab (the [`ProvId`] is the slot index); a side index
/// maps stored tuples to their [`ProvRef`] so admission and pruning are
/// O(1). Slots freed by [`ProvStore::forget`] are reused. Dropping the
/// store (with its owning query instance) drops every record at once —
/// provenance never outlives the state it explains.
#[derive(Debug, Default)]
pub struct ProvStore {
    records: Vec<Option<ProvRecord>>,
    free: Vec<u32>,
    by_tuple: HashMap<Tuple, ProvRef>,
    /// Remote records pulled over the wire, cached per `(node, id)` so
    /// repeated explanations (and lossy retries) are idempotent.
    fetched: HashMap<(NodeId, ProvId), ProvRecord>,
}

impl ProvStore {
    /// An empty store.
    pub fn new() -> ProvStore {
        ProvStore::default()
    }

    /// Record a rule firing for `tuple` and index it as [`ProvRef::Local`].
    /// Any previous binding of the tuple (a re-derivation) is replaced.
    pub fn record(
        &mut self,
        tuple: Tuple,
        rule: u32,
        node: NodeId,
        batch: u64,
        body: Vec<(Tuple, ProvRef)>,
    ) -> ProvId {
        self.release(&tuple);
        let record = ProvRecord { tuple: tuple.clone(), rule, node, batch, body };
        let id = match self.free.pop() {
            Some(slot) => {
                self.records[slot as usize] = Some(record);
                ProvId(slot)
            }
            None => {
                self.records.push(Some(record));
                ProvId(self.records.len() as u32 - 1)
            }
        };
        self.by_tuple.insert(tuple, ProvRef::Local(id));
        id
    }

    /// Bind `tuple` to an existing provenance (a shipped copy pointing at
    /// its origin, or a received tuple pointing at its deriving node).
    pub fn alias(&mut self, tuple: Tuple, prov: ProvRef) {
        self.release(&tuple);
        self.by_tuple.insert(tuple, prov);
    }

    /// The provenance of `tuple`; unknown tuples are base facts.
    pub fn resolve(&self, tuple: &Tuple) -> ProvRef {
        self.by_tuple.get(tuple).copied().unwrap_or(ProvRef::Base)
    }

    /// Look up a record by arena id.
    pub fn get(&self, id: ProvId) -> Option<&ProvRecord> {
        self.records.get(id.0 as usize).and_then(Option::as_ref)
    }

    /// Drop `tuple`'s provenance (the tuple was pruned, replaced, or
    /// invalidated). Frees the arena slot if the binding was local.
    pub fn forget(&mut self, tuple: &Tuple) {
        self.release(tuple);
        self.by_tuple.remove(tuple);
    }

    fn release(&mut self, tuple: &Tuple) {
        if let Some(ProvRef::Local(id)) = self.by_tuple.get(tuple) {
            if self.records[id.0 as usize].take().is_some() {
                self.free.push(id.0);
            }
        }
    }

    /// Cache a record fetched from `node` (idempotent).
    pub fn remember_fetched(&mut self, node: NodeId, id: ProvId, record: ProvRecord) {
        self.fetched.insert((node, id), record);
    }

    /// A previously fetched remote record.
    pub fn fetched(&self, node: NodeId, id: ProvId) -> Option<&ProvRecord> {
        self.fetched.get(&(node, id))
    }

    /// Live records in the arena.
    pub fn live_records(&self) -> usize {
        self.records.iter().filter(|slot| slot.is_some()).count()
    }

    /// Everything the store holds: live records, tuple bindings, and the
    /// fetched-record cache. This is the residue a state-footprint audit
    /// counts — it must reach zero when the owning query unwinds.
    pub fn residue(&self) -> usize {
        self.live_records() + self.by_tuple.len() + self.fetched.len()
    }

    /// True when the store holds nothing at all.
    pub fn is_empty(&self) -> bool {
        self.residue() == 0
    }
}

/// A materialized (possibly distributed) proof tree for one derived tuple.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum DerivationTree {
    /// A leaf: a base fact with no deriving rule.
    Base {
        /// The base fact.
        tuple: Tuple,
    },
    /// An internal node: a rule firing and the proofs of its body.
    Derived {
        /// The derived tuple.
        tuple: Tuple,
        /// Label of the firing rule (resolved from the rule index).
        rule: String,
        /// The node the rule fired on.
        node: NodeId,
        /// Proofs of the body tuples, in body order.
        children: Vec<DerivationTree>,
    },
    /// A remote pointer that could not be resolved (the record was pruned
    /// or its node is gone). Explanations of live routes never contain
    /// this; it keeps partially-unwound deployments inspectable.
    Missing {
        /// The tuple whose derivation is unavailable.
        tuple: Tuple,
        /// The node that held the record.
        node: NodeId,
        /// The arena id that no longer resolves.
        id: ProvId,
    },
}

impl DerivationTree {
    /// The tuple this (sub)tree proves.
    pub fn tuple(&self) -> &Tuple {
        match self {
            DerivationTree::Base { tuple }
            | DerivationTree::Derived { tuple, .. }
            | DerivationTree::Missing { tuple, .. } => tuple,
        }
    }

    /// Total nodes in the tree.
    pub fn size(&self) -> usize {
        match self {
            DerivationTree::Derived { children, .. } => {
                1 + children.iter().map(DerivationTree::size).sum::<usize>()
            }
            _ => 1,
        }
    }

    /// Longest root-to-leaf path (a single leaf has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            DerivationTree::Derived { children, .. } => {
                1 + children.iter().map(DerivationTree::depth).max().unwrap_or(0)
            }
            _ => 1,
        }
    }

    /// The base-fact leaves, left to right.
    pub fn leaves(&self) -> Vec<&Tuple> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves<'t>(&'t self, out: &mut Vec<&'t Tuple>) {
        match self {
            DerivationTree::Base { tuple } | DerivationTree::Missing { tuple, .. } => {
                out.push(tuple)
            }
            DerivationTree::Derived { children, .. } => {
                for child in children {
                    child.collect_leaves(out);
                }
            }
        }
    }

    /// True when every leaf is a resolved base fact (no [`Missing`]
    /// pointers anywhere).
    ///
    /// [`Missing`]: DerivationTree::Missing
    pub fn is_fully_resolved(&self) -> bool {
        match self {
            DerivationTree::Base { .. } => true,
            DerivationTree::Missing { .. } => false,
            DerivationTree::Derived { children, .. } => {
                children.iter().all(DerivationTree::is_fully_resolved)
            }
        }
    }

    /// Every rule firing in the tree as a flat, comparable step set.
    pub fn steps(&self) -> BTreeSet<DerivationStep> {
        let mut out = BTreeSet::new();
        self.collect_steps(&mut out);
        out
    }

    fn collect_steps(&self, out: &mut BTreeSet<DerivationStep>) {
        if let DerivationTree::Derived { tuple, rule, node, children } = self {
            out.insert(DerivationStep {
                node: *node,
                rule: rule.clone(),
                head: tuple.clone(),
                body: children.iter().map(|c| c.tuple().clone()).collect(),
            });
            for child in children {
                child.collect_steps(out);
            }
        }
    }

    /// Structural well-formedness: every internal edge passes `check_edge`
    /// (typically: re-firing the named rule on exactly the body tuples
    /// re-derives the head) and every base leaf passes `check_base`
    /// (typically: the fact is still live in some node's store). Returns
    /// the first violation as a human-readable message.
    pub fn validate<E, B>(&self, check_edge: &E, check_base: &B) -> Result<(), String>
    where
        E: Fn(&str, NodeId, &[Tuple], &Tuple) -> bool,
        B: Fn(&Tuple) -> bool,
    {
        match self {
            DerivationTree::Base { tuple } => {
                if check_base(tuple) {
                    Ok(())
                } else {
                    Err(format!("leaf {tuple} is not a live base fact"))
                }
            }
            DerivationTree::Missing { tuple, node, id } => {
                Err(format!("unresolved remote derivation of {tuple} ({node} {id})"))
            }
            DerivationTree::Derived { tuple, rule, node, children } => {
                let body: Vec<Tuple> = children.iter().map(|c| c.tuple().clone()).collect();
                if !check_edge(rule, *node, &body, tuple) {
                    return Err(format!("rule {rule} on {node} does not re-derive {tuple}"));
                }
                for child in children {
                    child.validate(check_edge, check_base)?;
                }
                Ok(())
            }
        }
    }

    fn render(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            DerivationTree::Base { tuple } => writeln!(f, "{pad}{tuple}"),
            DerivationTree::Missing { tuple, node, id } => {
                writeln!(f, "{pad}{tuple}  [unresolved @{node} {id}]")
            }
            DerivationTree::Derived { tuple, rule, node, children } => {
                writeln!(f, "{pad}{tuple}  [{rule} @{node}]")?;
                for child in children {
                    child.render(f, indent + 1)?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for DerivationTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(f, 0)
    }
}

/// One rule firing extracted from a tree, in comparable form.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct DerivationStep {
    /// The node the rule fired on.
    pub node: NodeId,
    /// Label of the firing rule.
    pub rule: String,
    /// The derived tuple.
    pub head: Tuple,
    /// The body tuples the firing joined.
    pub body: Vec<Tuple>,
}

impl fmt::Display for DerivationStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @{} : {} :- ", self.rule, self.node, self.head)?;
        for (i, tuple) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{tuple}")?;
        }
        Ok(())
    }
}

/// What changed between two explanations of "the same" route.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExplanationDiff {
    /// Firings present only in the *before* tree (derivation steps the
    /// change invalidated).
    pub removed: Vec<DerivationStep>,
    /// Firings present only in the *after* tree (steps the change
    /// introduced).
    pub added: Vec<DerivationStep>,
}

impl ExplanationDiff {
    /// True when both trees use exactly the same firings.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty()
    }
}

impl fmt::Display for ExplanationDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for step in &self.removed {
            writeln!(f, "- {step}")?;
        }
        for step in &self.added {
            writeln!(f, "+ {step}")?;
        }
        Ok(())
    }
}

/// Compare two derivation trees (typically the same route explained before
/// and after churn) as sets of rule firings.
pub fn diff_explanations(before: &DerivationTree, after: &DerivationTree) -> ExplanationDiff {
    let old = before.steps();
    let new = after.steps();
    ExplanationDiff {
        removed: old.difference(&new).cloned().collect(),
        added: new.difference(&old).cloned().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_types::Value;

    fn t(rel: &str, fields: Vec<i64>) -> Tuple {
        Tuple::new(rel, fields.into_iter().map(Value::Int).collect())
    }

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn arena_records_resolves_and_forgets() {
        let mut store = ProvStore::new();
        assert!(store.is_empty());

        let link = t("link", vec![0, 1]);
        let path = t("path", vec![0, 1, 1]);
        let id = store.record(path.clone(), 0, n(0), 200, vec![(link.clone(), ProvRef::Base)]);
        assert_eq!(store.resolve(&path), ProvRef::Local(id));
        assert_eq!(store.resolve(&link), ProvRef::Base);
        assert_eq!(store.get(id).unwrap().rule, 0);
        assert_eq!(store.live_records(), 1);

        // Re-deriving the same tuple replaces its record in place.
        let id2 = store.record(path.clone(), 1, n(0), 400, vec![(link.clone(), ProvRef::Base)]);
        assert_eq!(store.live_records(), 1);
        assert_eq!(store.get(id2).unwrap().rule, 1);

        store.forget(&path);
        assert_eq!(store.resolve(&path), ProvRef::Base);
        assert!(store.is_empty(), "forget must free the slot and the binding");

        // Freed slots are reused: the arena does not grow under churn.
        let id3 = store.record(path, 2, n(0), 600, vec![(link, ProvRef::Base)]);
        assert_eq!(id3.0, id2.0, "freed slot must be reused");
    }

    #[test]
    fn aliases_and_fetched_records_count_as_residue() {
        let mut store = ProvStore::new();
        let copy = t("link__to_NR2", vec![0, 1]);
        store.alias(copy.clone(), ProvRef::Remote(n(3), ProvId(7)));
        assert_eq!(store.resolve(&copy), ProvRef::Remote(n(3), ProvId(7)));
        assert_eq!(store.residue(), 1);

        let rec = ProvRecord {
            tuple: t("path", vec![3, 1, 2]),
            rule: 0,
            node: n(3),
            batch: 200,
            body: Vec::new(),
        };
        store.remember_fetched(n(3), ProvId(7), rec.clone());
        assert_eq!(store.fetched(n(3), ProvId(7)), Some(&rec));
        assert_eq!(store.residue(), 2);

        store.forget(&copy);
        assert_eq!(store.residue(), 1, "fetched cache persists until the store drops");
    }

    fn sample_tree() -> DerivationTree {
        DerivationTree::Derived {
            tuple: t("path", vec![0, 2, 2]),
            rule: "NR2".to_string(),
            node: n(1),
            children: vec![
                DerivationTree::Base { tuple: t("link", vec![0, 1]) },
                DerivationTree::Derived {
                    tuple: t("path", vec![1, 2, 1]),
                    rule: "NR1".to_string(),
                    node: n(1),
                    children: vec![DerivationTree::Base { tuple: t("link", vec![1, 2]) }],
                },
            ],
        }
    }

    #[test]
    fn tree_shape_accessors() {
        let tree = sample_tree();
        assert_eq!(tree.size(), 4);
        assert_eq!(tree.depth(), 3);
        assert_eq!(tree.leaves().len(), 2);
        assert!(tree.is_fully_resolved());
        assert_eq!(tree.steps().len(), 2);

        let missing =
            DerivationTree::Missing { tuple: t("path", vec![9, 9, 9]), node: n(4), id: ProvId(0) };
        assert!(!missing.is_fully_resolved());
    }

    #[test]
    fn validate_checks_edges_and_leaves() {
        let tree = sample_tree();
        let all_edges = |_: &str, _: NodeId, _: &[Tuple], _: &Tuple| true;
        let all_base = |_: &Tuple| true;
        assert!(tree.validate(&all_edges, &all_base).is_ok());

        let no_nr1 = |rule: &str, _: NodeId, _: &[Tuple], _: &Tuple| rule != "NR1";
        let err = tree.validate(&no_nr1, &all_base).unwrap_err();
        assert!(err.contains("NR1"), "violation names the failing rule: {err}");

        let no_base = |_: &Tuple| false;
        assert!(tree.validate(&all_edges, &no_base).is_err());
    }

    #[test]
    fn diff_reports_changed_firings_only() {
        let before = sample_tree();
        assert!(diff_explanations(&before, &before).is_empty());

        // Reroute: the inner hop derives through a different rule firing.
        let after = DerivationTree::Derived {
            tuple: t("path", vec![0, 2, 2]),
            rule: "NR2".to_string(),
            node: n(1),
            children: vec![
                DerivationTree::Base { tuple: t("link", vec![0, 1]) },
                DerivationTree::Derived {
                    tuple: t("path", vec![1, 2, 1]),
                    rule: "NR1".to_string(),
                    node: n(3),
                    children: vec![DerivationTree::Base { tuple: t("link", vec![1, 3]) }],
                },
            ],
        };
        let diff = diff_explanations(&before, &after);
        assert_eq!(diff.removed.len(), 1);
        assert_eq!(diff.added.len(), 1);
        assert_eq!(diff.removed[0].node, n(1));
        assert_eq!(diff.added[0].node, n(3));
        let rendered = diff.to_string();
        assert!(rendered.contains("- NR1") && rendered.contains("+ NR1"), "{rendered}");
    }
}
