//! Relation catalog: schema information about every table a program touches.
//!
//! The catalog records, per relation:
//! * whether it is a **base** table (fed from outside the query processor,
//!   like `link` or `excludeNode`) or a **derived** table (defined by rules),
//! * the position of its **location attribute** (which field holds the node
//!   address that stores the tuple — the paper's underlined field),
//! * its **primary key** (the paper's "unique key", used for keyed upserts
//!   during incremental maintenance, §8).

use crate::ast::{Expr, Literal, Program};
use crate::builtins::Builtins;
use dr_types::hash::HashMap;
use dr_types::{Error, RelId, Result};
use std::sync::OnceLock;

/// Schema information for one relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationInfo {
    /// Interned relation id (the catalog produces interned programs: every
    /// relation a program touches is interned when its schema is recorded).
    pub id: RelId,
    /// Arity (number of fields), when known.
    pub arity: Option<usize>,
    /// Position of the location attribute (defaults to 0: the first field,
    /// matching every example in the paper).
    pub location_field: usize,
    /// Field positions forming the primary key. Empty means "all fields"
    /// (pure set semantics).
    pub key_fields: Vec<usize>,
    /// True when the relation is a base table (never defined by a rule head).
    pub is_base: bool,
}

impl RelationInfo {
    /// A derived relation with default location (field 0) and set semantics.
    pub fn derived(name: impl Into<RelId>) -> RelationInfo {
        RelationInfo {
            id: name.into(),
            arity: None,
            location_field: 0,
            key_fields: Vec::new(),
            is_base: false,
        }
    }

    /// A base relation with default location (field 0) and set semantics.
    pub fn base(name: impl Into<RelId>) -> RelationInfo {
        RelationInfo { is_base: true, ..RelationInfo::derived(name) }
    }

    /// The relation's name (resolved from the interned id).
    pub fn name(&self) -> &'static str {
        self.id.name()
    }

    /// The key fields to use for upserts: the declared primary key, or all
    /// fields when none is declared.
    pub fn effective_key(&self, arity: usize) -> Vec<usize> {
        if self.key_fields.is_empty() {
            (0..arity).collect()
        } else {
            self.key_fields.clone()
        }
    }
}

/// The catalog: interned [`RelId`] → [`RelationInfo`]. Name-based entry
/// points accept `impl Into<RelId>`, so both `catalog.get("link")` and
/// `catalog.get(rel_id)` work; runtime lookups on hot paths pass the id.
///
/// Building a catalog *interns the program*: every relation the program
/// names gets its dense id, and all schema lookups afterwards are by id.
///
/// ```
/// use dr_datalog::{parse_program, Catalog};
/// use dr_types::RelId;
///
/// let program = parse_program(
///     r#"
///     #key(path, 0, 1, 2).
///     NR1: path(@S,D,P,C) :- link(@S,D,C), P = f_initPath(S,D).
///     Query: path(@S,D,P,C).
///     "#,
/// )?;
/// let catalog = Catalog::from_program(&program)?;
///
/// // Schema lookups work by name or by interned id — same entry.
/// let path = RelId::intern("path");
/// assert_eq!(catalog.get("path"), catalog.get(path));
/// assert_eq!(catalog.key_fields(path, 4), vec![0, 1, 2]);
/// assert!(catalog.is_base("link"));
/// assert!(!catalog.is_base(path));
/// # Ok::<(), dr_types::Error>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    relations: HashMap<RelId, RelationInfo>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Build a catalog from a program: derived vs base classification from
    /// rule heads, location fields from `@` annotations, keys from
    /// `#key(...)` pragmas.
    ///
    /// Conflicting location annotations for the same relation are an error —
    /// the paper stores each relation at exactly one address attribute. So
    /// are a call to a function outside [`Builtins::standard`] and a rule
    /// without a body whose head is not ground. Both engines build their
    /// catalog here, so they accept the same programs.
    pub fn from_program(program: &Program) -> Result<Catalog> {
        admit(program)?;
        let mut cat = Catalog::new();
        let derived = program.derived_relations();

        for rel in program.all_relations() {
            let info = if derived.contains(rel) {
                RelationInfo::derived(rel)
            } else {
                RelationInfo::base(rel)
            };
            cat.relations.insert(info.id, info);
        }

        // Record arity + location annotations from heads and body atoms.
        let mut observe = |rel: &str, arity: usize, loc: Option<usize>| -> Result<()> {
            let info = cat
                .relations
                .get_mut(&RelId::intern(rel))
                .expect("all_relations covers every atom relation");
            match info.arity {
                None => info.arity = Some(arity),
                Some(a) if a != arity => {
                    return Err(Error::planning(format!(
                        "relation {rel} used with arity {arity} and {a}"
                    )))
                }
                Some(_) => {}
            }
            if let Some(l) = loc {
                if info.arity.map(|a| l >= a).unwrap_or(false) {
                    return Err(Error::planning(format!(
                        "relation {rel}: location field {l} out of range"
                    )));
                }
                info.location_field = l;
            }
            Ok(())
        };

        for rule in &program.rules {
            observe(&rule.head.relation, rule.head.arity(), rule.head.location)?;
            for lit in &rule.body {
                if let crate::ast::Literal::Atom(a) | crate::ast::Literal::NegAtom(a) = lit {
                    observe(&a.relation, a.arity(), a.location)?;
                }
            }
        }
        for q in &program.queries {
            observe(&q.relation, q.arity(), q.location)?;
        }

        for (rel, keys) in &program.key_pragmas {
            let id = RelId::intern(rel);
            let info = cat.relations.entry(id).or_insert_with(|| RelationInfo::base(id));
            if let Some(a) = info.arity {
                if keys.iter().any(|&k| k >= a) {
                    return Err(Error::planning(format!(
                        "relation {rel}: key field out of range (arity {a})"
                    )));
                }
            }
            info.key_fields = keys.clone();
        }

        Ok(cat)
    }

    /// Declare or replace a relation's schema explicitly.
    pub fn declare(&mut self, info: RelationInfo) {
        self.relations.insert(info.id, info);
    }

    /// Set the primary key of a relation (creating a base entry if missing).
    pub fn set_key(&mut self, relation: impl Into<RelId>, key_fields: Vec<usize>) {
        let id = relation.into();
        self.relations.entry(id).or_insert_with(|| RelationInfo::base(id)).key_fields = key_fields;
    }

    /// Look up a relation by name or interned id.
    pub fn get(&self, relation: impl Into<RelId>) -> Option<&RelationInfo> {
        self.relations.get(&relation.into())
    }

    /// The location field of a relation (default 0 when unknown).
    pub fn location_field(&self, relation: impl Into<RelId>) -> usize {
        self.get(relation).map(|i| i.location_field).unwrap_or(0)
    }

    /// The primary key of a relation given a concrete arity.
    pub fn key_fields(&self, relation: impl Into<RelId>, arity: usize) -> Vec<usize> {
        match self.get(relation) {
            Some(info) => info.effective_key(arity),
            None => (0..arity).collect(),
        }
    }

    /// True when the relation is a base table.
    pub fn is_base(&self, relation: impl Into<RelId>) -> bool {
        self.get(relation).map(|i| i.is_base).unwrap_or(true)
    }

    /// Iterate over all relations in the catalog, in name order (the dense
    /// id order is an interning artifact; names keep output deterministic).
    pub fn relations(&self) -> impl Iterator<Item = &RelationInfo> {
        let mut infos: Vec<&RelationInfo> = self.relations.values().collect();
        infos.sort_unstable_by_key(|i| i.name());
        infos.into_iter()
    }

    /// Number of relations known to the catalog.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

/// Refuse, once per program, what neither engine could run: a call to a
/// function outside the standard builtins (no engine registers others, so
/// every evaluation of the rule would fail), and a body-less rule whose head
/// is not ground (no engine can derive a tuple from it).
fn admit(program: &Program) -> Result<()> {
    static STANDARD: OnceLock<Builtins> = OnceLock::new();
    let standard = STANDARD.get_or_init(Builtins::standard);
    fn calls_known(expr: &Expr, standard: &Builtins) -> Result<()> {
        match expr {
            Expr::Term(_) => Ok(()),
            Expr::Call { func, args } => {
                if !standard.contains(func) {
                    return Err(Error::planning(format!("unknown function {func}")));
                }
                args.iter().try_for_each(|a| calls_known(a, standard))
            }
            Expr::BinOp { lhs, rhs, .. } => {
                calls_known(lhs, standard)?;
                calls_known(rhs, standard)
            }
        }
    }
    for rule in &program.rules {
        if rule.body.is_empty() && !rule.is_fact() {
            return Err(Error::planning(format!(
                "{}: a rule without a body must have a ground head",
                rule.head
            )));
        }
        for lit in &rule.body {
            match lit {
                Literal::Atom(_) | Literal::NegAtom(_) => {}
                Literal::Compare { lhs, rhs, .. } => {
                    calls_known(lhs, standard)?;
                    calls_known(rhs, standard)?;
                }
                Literal::Assign { expr, .. } => calls_known(expr, standard)?,
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    const NR: &str = r#"
        NR1: path(@S,D,P,C) :- link(@S,D,C), P = f_initPath(S,D).
        NR2: path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2),
             C = C1 + C2, P = f_prepend(S,P2), f_inPath(P2,S) = false.
        #key(path, 0, 1, 2).
        Query: path(@S,D,P,C).
    "#;

    #[test]
    fn classifies_base_and_derived() {
        let p = parse_program(NR).unwrap();
        let c = Catalog::from_program(&p).unwrap();
        assert!(c.is_base("link"));
        assert!(!c.is_base("path"));
        assert_eq!(c.get("path").unwrap().arity, Some(4));
        assert_eq!(c.get("link").unwrap().arity, Some(3));
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn records_location_and_keys() {
        let p = parse_program(NR).unwrap();
        let c = Catalog::from_program(&p).unwrap();
        assert_eq!(c.location_field("path"), 0);
        assert_eq!(c.location_field("link"), 0);
        assert_eq!(c.key_fields("path", 4), vec![0, 1, 2]);
        // link has no pragma: all fields are the key
        assert_eq!(c.key_fields("link", 3), vec![0, 1, 2]);
        // unknown relation defaults
        assert_eq!(c.key_fields("mystery", 2), vec![0, 1]);
        assert!(c.is_base("mystery"));
    }

    #[test]
    fn arity_conflicts_are_rejected() {
        let bad = r#"
            r1: p(@X,Y) :- q(@X,Y).
            r2: p(@X,Y,Z) :- q(@X,Y), s(@Y,Z).
        "#;
        let p = parse_program(bad).unwrap();
        assert!(Catalog::from_program(&p).is_err());
    }

    #[test]
    fn key_pragma_out_of_range_is_rejected() {
        let bad = r#"
            r1: p(@X,Y) :- q(@X,Y).
            #key(p, 0, 5).
        "#;
        let p = parse_program(bad).unwrap();
        assert!(Catalog::from_program(&p).is_err());
    }

    #[test]
    fn unknown_functions_and_open_facts_are_refused() {
        for bad in
            ["q(@X,Z) :- s(@X,Y), Z = f_nope(Y).", "q(@X) :- s(@X,Y), f_nope(Y) = 1.", "p(@X)."]
        {
            let p = parse_program(bad).unwrap();
            let err = Catalog::from_program(&p).unwrap_err();
            assert!(matches!(err, Error::Planning(_)), "{bad}: {err}");
        }
        let ok = parse_program("p(@#1). q(@X,Z) :- s(@X,Y), Z = f_size(f_initPath(X,Y)).");
        assert!(Catalog::from_program(&ok.unwrap()).is_ok());
    }

    #[test]
    fn manual_declarations() {
        let mut c = Catalog::new();
        c.declare(RelationInfo {
            id: RelId::intern("nextHop"),
            arity: Some(4),
            location_field: 0,
            key_fields: vec![0, 1],
            is_base: false,
        });
        c.set_key("link", vec![0, 1]);
        assert_eq!(c.key_fields("nextHop", 4), vec![0, 1]);
        assert_eq!(c.key_fields("link", 3), vec![0, 1]);
        assert_eq!(c.relations().count(), 2);
    }

    #[test]
    fn effective_key_defaults_to_all_fields() {
        let info = RelationInfo::derived("p");
        assert_eq!(info.effective_key(3), vec![0, 1, 2]);
        let keyed = RelationInfo { key_fields: vec![1], ..RelationInfo::derived("p") };
        assert_eq!(keyed.effective_key(3), vec![1]);
    }
}
