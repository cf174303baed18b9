//! Rule localization: from a location-annotated Datalog program to per-node
//! dataflows with explicit tuple shipping.
//!
//! The paper's execution model (§3.3–3.4) stores every tuple at the node
//! named by its address attribute and rewrites each rule so that all joins
//! are evaluated at a single node, with "clouds" shipping the tuples that
//! have to travel. For the Network-Reachability rule NR2
//!
//! ```text
//! path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2), ...
//! ```
//!
//! the link tuples are shipped to their destination (`link.D` cloud) and
//! cached there (the paper's `l'` tuples), the join runs at `Z`, and the
//! derived `path` tuples are shipped back to their source (`path.S` cloud).
//!
//! [`localize`] reproduces exactly this: it picks an **anchor** body atom
//! whose location variable appears in every other (non-co-located) body
//! atom, rewrites those other atoms to read from per-rule *cache relations*,
//! and emits [`ShipSpec`]s telling the runtime which tuples to ship where.
//! Head tuples whose location differs from the anchor are shipped by the
//! runtime to their home node.
//!
//! Small relations that hold query constants (`magicSources`, `magicDsts`,
//! `excludeNode`, multicast membership) can be declared *replicated*: their
//! contents are broadcast with the query itself, so their atoms are treated
//! as local everywhere and never constrain anchor selection.

use dr_datalog::ast::{Atom, Literal, Program, Rule, Term};
use dr_datalog::catalog::Catalog;
use dr_datalog::rewrite::{aggregate_selections, AggSelection};
use dr_types::{Error, RelId, Result};
use std::collections::{BTreeSet, HashMap};

/// A shipping requirement: copies of `source_relation` tuples must be sent
/// to the node named by their `target_field` and stored there under
/// `cache_relation` (the paper's `l'` cached tuples).
///
/// Relations are interned [`RelId`]s — the runtime consults ship specs once
/// per stored tuple, so they must never carry heap strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShipSpec {
    /// Relation whose home-stored tuples are shipped.
    pub source_relation: RelId,
    /// Cache table at the receiving node.
    pub cache_relation: RelId,
    /// Field of the shipped tuple that names the receiving node.
    pub target_field: usize,
}

/// One rule after localization: every body atom is either stored locally at
/// the evaluating node, a cache relation fed by a [`ShipSpec`], or a
/// replicated relation.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalizedRule {
    /// The rewritten rule (cache relations substituted into the body).
    pub rule: Rule,
    /// The variable of the body that names the evaluating node, when the
    /// rule has location annotations (facts and fully-replicated rules have
    /// none).
    pub eval_location_var: Option<String>,
}

/// A whole program after localization.
#[derive(Debug, Clone)]
pub struct LocalizedProgram {
    /// Localized, non-fact rules in evaluation order.
    pub rules: Vec<LocalizedRule>,
    /// Ground facts (installed at query issue time; facts of replicated
    /// relations are broadcast to every node).
    pub facts: Vec<Rule>,
    /// Shipping requirements, deduplicated.
    pub ships: Vec<ShipSpec>,
    /// Catalog of the original program (location fields, keys, base/derived),
    /// extended with entries for the cache relations. It binds every
    /// relation the query can store or ship: a node drops a received tuple
    /// whose relation it does not bind (see `NetMsg::Tuples`).
    pub catalog: Catalog,
    /// Relations whose contents are replicated to every participating node.
    pub replicated: BTreeSet<RelId>,
    /// Aggregate-selection opportunities detected in the program (§7.1).
    pub agg_selections: Vec<AggSelection>,
    /// The query (result) relations named by `Query:` statements.
    pub result_relations: Vec<RelId>,
    /// Ship specs grouped by source relation (runtime lookup table for
    /// [`LocalizedProgram::ships_for`]).
    ships_by_source: HashMap<RelId, Vec<ShipSpec>>,
}

impl LocalizedProgram {
    /// Relations that should be treated with keyed-upsert semantics, as
    /// `(relation, key fields)` pairs from the program's `#key` pragmas.
    pub fn key_declarations(&self) -> Vec<(RelId, Vec<usize>)> {
        self.catalog
            .relations()
            .filter(|info| !info.key_fields.is_empty())
            .map(|info| (info.id, info.key_fields.clone()))
            .collect()
    }

    /// The ship specs whose source is `relation`.
    pub fn ships_for(&self, relation: RelId) -> &[ShipSpec] {
        self.ships_by_source.get(&relation).map(Vec::as_slice).unwrap_or(&[])
    }

    /// True when `relation` is replicated to all nodes.
    pub fn is_replicated(&self, relation: RelId) -> bool {
        self.replicated.contains(&relation)
    }

    /// Estimated wire size of disseminating this query (rule count based;
    /// used to charge bandwidth for query flooding).
    pub fn dissemination_size(&self) -> usize {
        64 + 48 * (self.rules.len() + self.facts.len())
    }
}

/// Localize `program`, treating `replicated` relations as broadcast to every
/// node.
pub fn localize(program: &Program, replicated: &[&str]) -> Result<LocalizedProgram> {
    let mut catalog = Catalog::from_program(program)?;
    let agg_selections = aggregate_selections(program);
    let replicated: BTreeSet<RelId> = replicated.iter().map(|s| RelId::intern(s)).collect();

    let mut rules = Vec::new();
    let mut facts = Vec::new();
    let mut ships: Vec<ShipSpec> = Vec::new();

    for (rule_idx, rule) in program.rules.iter().enumerate() {
        if rule.body.is_empty() {
            facts.push(rule.clone());
            continue;
        }
        let rule_label = rule.name.clone().unwrap_or_else(|| format!("rule{rule_idx}"));

        // Gather body atoms (positive and negated) with their location
        // variables.
        let positive: Vec<&Atom> = rule.positive_atoms();
        let negated: Vec<&Atom> = rule
            .body
            .iter()
            .filter_map(|l| match l {
                Literal::NegAtom(a) => Some(a),
                _ => None,
            })
            .collect();
        // Location variable of an atom, from its annotation or the catalog.
        fn atom_loc_var(
            atom: &Atom,
            replicated: &BTreeSet<RelId>,
            catalog: &Catalog,
        ) -> Option<String> {
            if replicated.contains(&RelId::intern(&atom.relation)) {
                return None;
            }
            let field = atom.location.unwrap_or_else(|| catalog.location_field(&atom.relation));
            match atom.terms.get(field) {
                Some(Term::Var(v)) => Some(v.clone()),
                _ => None,
            }
        }
        let loc_var = |atom: &Atom| atom_loc_var(atom, &replicated, &catalog);

        // Distinct location variables among non-replicated atoms.
        let mut loc_vars: Vec<String> = Vec::new();
        for atom in positive.iter().chain(negated.iter()) {
            if let Some(v) = loc_var(atom) {
                if !loc_vars.contains(&v) {
                    loc_vars.push(v);
                }
            }
        }

        if loc_vars.len() <= 1 {
            // Already local (or fully replicated/ground locations).
            rules.push(LocalizedRule {
                rule: rule.clone(),
                eval_location_var: loc_vars.into_iter().next(),
            });
            continue;
        }

        // Choose the anchor: a location variable such that every positive
        // atom either lives there or mentions it (so its tuples can be
        // shipped there), and every negated atom already lives there
        // (absence of a tuple cannot be shipped).
        let anchor = loc_vars
            .iter()
            .find(|candidate| {
                let positives_ok = positive.iter().all(|atom| match loc_var(atom) {
                    None => true, // replicated or constant location: fine
                    Some(v) if v == **candidate => true,
                    Some(_) => atom.variables().contains(&candidate.as_str()),
                });
                let negations_ok = negated.iter().all(|atom| match loc_var(atom) {
                    None => true,
                    Some(v) => v == **candidate,
                });
                positives_ok && negations_ok
            })
            .cloned()
            .ok_or_else(|| {
                Error::planning(format!(
                    "rule {rule_label}: cannot localize — no body atom's location variable \
                     appears in all other body atoms"
                ))
            })?;

        // Rewrite non-anchor atoms to cache relations and record ship specs.
        let mut new_body: Vec<Literal> = Vec::new();
        for lit in &rule.body {
            match lit {
                Literal::Atom(atom) => {
                    let lv = atom_loc_var(atom, &replicated, &catalog);
                    match lv {
                        Some(v) if v != anchor => {
                            // Ship this atom's tuples to the anchor node.
                            let target_field = atom
                                .terms
                                .iter()
                                .position(|t| t.as_var() == Some(anchor.as_str()))
                                .ok_or_else(|| {
                                    Error::planning(format!(
                                        "rule {rule_label}: atom {} does not mention anchor \
                                         variable {anchor}",
                                        atom.relation
                                    ))
                                })?;
                            let cache_relation = format!("{}__to_{}", atom.relation, rule_label);
                            let source_rel = RelId::intern(&atom.relation);
                            let cache_rel = RelId::intern(&cache_relation);
                            if !ships.iter().any(|s: &ShipSpec| {
                                s.source_relation == source_rel && s.cache_relation == cache_rel
                            }) {
                                ships.push(ShipSpec {
                                    source_relation: source_rel,
                                    cache_relation: cache_rel,
                                    target_field,
                                });
                            }
                            let mut cached_atom = atom.clone();
                            cached_atom.relation = cache_relation;
                            // The cache tuple is stored at the anchor node.
                            cached_atom.location = Some(target_field);
                            // Register the cache relation in the catalog with
                            // the same key as its source and the new location.
                            let source_info = catalog.get(source_rel).cloned();
                            catalog.declare(dr_datalog::catalog::RelationInfo {
                                id: cache_rel,
                                arity: source_info.as_ref().and_then(|i| i.arity),
                                location_field: target_field,
                                key_fields: source_info.map(|i| i.key_fields).unwrap_or_default(),
                                is_base: false,
                            });
                            new_body.push(Literal::Atom(cached_atom));
                        }
                        _ => new_body.push(lit.clone()),
                    }
                }
                Literal::NegAtom(atom) => {
                    // Negated atoms must already be local to the anchor or
                    // replicated — we cannot ship "absence of a tuple".
                    match atom_loc_var(atom, &replicated, &catalog) {
                        Some(v) if v != anchor => {
                            return Err(Error::planning(format!(
                                "rule {rule_label}: negated atom {} is not co-located with \
                                 the anchor {anchor} and cannot be shipped",
                                atom.relation
                            )))
                        }
                        _ => new_body.push(lit.clone()),
                    }
                }
                other => new_body.push(other.clone()),
            }
        }

        rules.push(LocalizedRule {
            rule: Rule { name: rule.name.clone(), head: rule.head.clone(), body: new_body },
            eval_location_var: Some(anchor),
        });
    }

    let result_relations: Vec<RelId> =
        program.queries.iter().map(|q| RelId::intern(&q.relation)).collect();

    let mut ships_by_source: HashMap<RelId, Vec<ShipSpec>> = HashMap::new();
    for ship in &ships {
        ships_by_source.entry(ship.source_relation).or_default().push(*ship);
    }

    Ok(LocalizedProgram {
        rules,
        facts,
        ships,
        catalog,
        replicated,
        agg_selections,
        result_relations,
        ships_by_source,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_datalog::parse_program;

    const BEST_PATH: &str = r#"
        #key(link, 0, 1).
        #key(path, 0, 1, 2).
        #key(bestPathCost, 0, 1).
        #key(bestPath, 0, 1).
        NR1: path(@S,D,P,C) :- link(@S,D,C), P = f_initPath(S,D).
        NR2: path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2),
             C = C1 + C2, P = f_prepend(S,P2), f_inPath(P2,S) = false.
        BPR1: bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).
        BPR2: bestPath(@S,D,P,C) :- bestPathCost(@S,D,C), path(@S,D,P,C).
        Query: bestPath(@S,D,P,C).
    "#;

    const DSR: &str = r#"
        NR1: path(@S,D,P,C) :- link(@S,D,C), P = f_initPath(S,D).
        DSR1: path(@S,D,P,C) :- path(@S,Z,P1,C1), link(@Z,D,C2),
              C = C1 + C2, P = f_append(P1,D), f_inPath(P1,D) = false.
        Query: path(@S,D,P,C).
    "#;

    #[test]
    fn right_recursion_ships_links_to_destination() {
        let program = parse_program(BEST_PATH).unwrap();
        let localized = localize(&program, &[]).unwrap();

        // NR1, BPR1, BPR2 are local; NR2 needs a ship.
        assert_eq!(localized.rules.len(), 4);
        assert_eq!(localized.ships.len(), 1);
        let ship = &localized.ships[0];
        assert_eq!(ship.source_relation.name(), "link");
        assert_eq!(ship.target_field, 1, "links ship to their destination field");
        assert_eq!(ship.cache_relation.name(), "link__to_NR2");

        // NR2's body now reads the cache relation and is anchored at Z.
        let nr2 = localized.rules.iter().find(|r| r.rule.name.as_deref() == Some("NR2")).unwrap();
        assert_eq!(nr2.eval_location_var.as_deref(), Some("Z"));
        assert_eq!(nr2.rule.body[0].as_atom().unwrap().relation, "link__to_NR2");
        assert_eq!(nr2.rule.body[1].as_atom().unwrap().relation, "path");

        // NR1 stays anchored at S with its original body.
        let nr1 = localized.rules.iter().find(|r| r.rule.name.as_deref() == Some("NR1")).unwrap();
        assert_eq!(nr1.eval_location_var.as_deref(), Some("S"));
        assert_eq!(nr1.rule.body[0].as_atom().unwrap().relation, "link");

        // Result relation captured from the Query statement.
        assert_eq!(localized.result_relations, vec![dr_types::RelId::intern("bestPath")]);
        // The catalog binds every relation, including the minted cache
        // relation.
        assert!(localized.catalog.get(ship.cache_relation).is_some());
        assert!(localized.catalog.get("path").is_some());
        // Key pragmas survive into the catalog.
        assert!(localized
            .key_declarations()
            .iter()
            .any(|(r, k)| r.name() == "bestPath" && k == &vec![0, 1]));
        // The cache relation inherits link's key and locates at field 1.
        let cache = localized.catalog.get("link__to_NR2").unwrap();
        assert_eq!(cache.location_field, 1);
        assert_eq!(cache.key_fields, vec![0, 1]);
    }

    #[test]
    fn left_recursion_ships_paths_to_their_destination() {
        let program = parse_program(DSR).unwrap();
        let localized = localize(&program, &[]).unwrap();
        assert_eq!(localized.ships.len(), 1);
        let ship = &localized.ships[0];
        assert_eq!(ship.source_relation.name(), "path");
        // path(@S,Z,P1,C1): the anchor is Z (the link's location), which is
        // field 1 of the path tuple — "newly computed path tuples [are]
        // shipped by their destination fields" (paper §5.3).
        assert_eq!(ship.target_field, 1);
        let dsr1 = localized.rules.iter().find(|r| r.rule.name.as_deref() == Some("DSR1")).unwrap();
        assert_eq!(dsr1.eval_location_var.as_deref(), Some("Z"));
        assert_eq!(dsr1.rule.body[0].as_atom().unwrap().relation, "path__to_DSR1");
    }

    #[test]
    fn co_located_rules_need_no_shipping() {
        let src = r#"
            PBR1: permitPath(@S,D,P,C) :- path(@S,D,P,C), excludeNode(@S,W),
                  f_inPath(P,W) = false.
        "#;
        let localized = localize(&parse_program(src).unwrap(), &[]).unwrap();
        assert!(localized.ships.is_empty());
        assert_eq!(localized.rules[0].eval_location_var.as_deref(), Some("S"));
        assert_eq!(localized.rules[0].rule, parse_program(src).unwrap().rules[0]);
    }

    #[test]
    fn facts_are_separated() {
        let src = r#"
            magicSources(#3).
            BPP1: path(@S,D,P,C) :- magicSources(@S), link(@S,D,C), P = f_initPath(S,D).
        "#;
        let localized = localize(&parse_program(src).unwrap(), &[]).unwrap();
        assert_eq!(localized.facts.len(), 1);
        assert_eq!(localized.rules.len(), 1);
        assert!(localized.ships.is_empty());
    }

    #[test]
    fn unlocalizable_rule_is_rejected() {
        // Neither atom mentions the other's location variable.
        let src = "r1: out(@X,Y) :- p(@X,A), q(@Y,B).";
        let err = localize(&parse_program(src).unwrap(), &[]).unwrap_err();
        assert!(matches!(err, Error::Planning(_)));
    }

    #[test]
    fn replication_makes_global_filters_local() {
        // Without replication this rule is not localizable (magicDst's
        // location D3 appears nowhere else); with magicDst replicated it
        // anchors at Z like plain left recursion.
        let src = r#"
            BPPS1: path(@S,D,P,C) :- magicDst(@D3), path(@S,Z,P1,C1), link(@Z,D,C2),
                   !bestPathCache(@Z,D3,P3,C3), C = C1 + C2, P = f_append(P1,D).
        "#;
        let program = parse_program(src).unwrap();
        assert!(localize(&program, &[]).is_err());
        let localized = localize(&program, &["magicDst"]).unwrap();
        assert!(localized.is_replicated(dr_types::RelId::intern("magicDst")));
        let rule = &localized.rules[0];
        assert_eq!(rule.eval_location_var.as_deref(), Some("Z"));
        // path is shipped to Z, link and the negated cache stay local.
        assert_eq!(localized.ships.len(), 1);
        assert_eq!(localized.ships[0].source_relation.name(), "path");
    }

    #[test]
    fn negation_anchors_at_its_own_location_when_possible() {
        // The negated table lives at D; the positive link can be shipped to
        // D, so the rule anchors there.
        let src = r#"
            r1: out(@S,D) :- link(@S,D,C), !busy(@D,X).
        "#;
        let localized = localize(&parse_program(src).unwrap(), &[]).unwrap();
        assert_eq!(localized.rules[0].eval_location_var.as_deref(), Some("D"));
        assert_eq!(localized.ships.len(), 1);
        assert_eq!(localized.ships[0].source_relation.name(), "link");
    }

    #[test]
    fn unshippable_negation_is_rejected() {
        // The negated table lives at W, which no positive atom mentions, and
        // anchoring anywhere else would require shipping an absence.
        let src = r#"
            r1: out(@S) :- link(@S,D,C), !busy(@W,S).
        "#;
        let err = localize(&parse_program(src).unwrap(), &[]).unwrap_err();
        assert!(matches!(err, Error::Planning(_)));
    }

    #[test]
    fn link_state_flooding_localizes() {
        let src = r#"
            LS1: floodLink(@S,S,D,C,S) :- link(@S,D,C).
            LS2: floodLink(@M,S,D,C,N) :- link(@N,M,C1), floodLink(@N,S,D,C,W), M != W.
            Query: floodLink(@M,S,D,C,N).
        "#;
        let localized = localize(&parse_program(src).unwrap(), &[]).unwrap();
        // LS2: both atoms are at N already — no shipping; the head (at M) is
        // shipped by the runtime when it is produced.
        assert!(localized.ships.is_empty());
        let ls2 = localized.rules.iter().find(|r| r.rule.name.as_deref() == Some("LS2")).unwrap();
        assert_eq!(ls2.eval_location_var.as_deref(), Some("N"));
    }

    #[test]
    fn dissemination_size_scales_with_rule_count() {
        let small = localize(&parse_program("r1: p(@X) :- q(@X).").unwrap(), &[]).unwrap();
        let large = localize(&parse_program(BEST_PATH).unwrap(), &[]).unwrap();
        assert!(large.dissemination_size() > small.dissemination_size());
    }

    #[test]
    fn ships_for_filters_by_source() {
        let localized = localize(&parse_program(BEST_PATH).unwrap(), &[]).unwrap();
        assert_eq!(localized.ships_for(dr_types::RelId::intern("link")).len(), 1);
        assert!(localized.ships_for(dr_types::RelId::intern("path")).is_empty());
    }

    #[test]
    fn aggregate_selections_are_propagated() {
        let localized = localize(&parse_program(BEST_PATH).unwrap(), &[]).unwrap();
        assert_eq!(localized.agg_selections.len(), 1);
        assert_eq!(localized.agg_selections[0].input_relation.name(), "path");
    }
}
