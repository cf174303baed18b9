//! The reference evaluator: the oracle the compiled engine is checked
//! against.
//!
//! [`evaluate_rule_reference`] evaluates a rule the obvious way: a
//! name-keyed [`Bindings`] map cloned per candidate, body atoms joined in
//! written order, no planning, no probes. The engine never calls it;
//! `tests/property_based.rs` and the `eval` unit tests compare
//! [`RuleEval::evaluate`](super::RuleEval::evaluate) against it, so it is
//! kept as simple as possible rather than fast.

use super::RelationSource;
use crate::ast::{Atom, Expr, Head, HeadTerm, Literal, Rule, Term};
use crate::builtins::Builtins;
use crate::database::Scan;
use dr_types::hash::HashMap;
use dr_types::{Error, RelId, Result, Tuple, Value};

/// A variable substitution built up while evaluating a rule body.
///
/// This name-keyed map is the *reference* representation: the compiled
/// evaluator works on dense frames instead and never touches it.
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    map: HashMap<String, Value>,
}

impl Bindings {
    /// An empty substitution.
    pub fn new() -> Bindings {
        Bindings::default()
    }

    /// The value bound to `var`, if any.
    pub fn get(&self, var: &str) -> Option<&Value> {
        self.map.get(var)
    }

    /// Bind `var` to `value`; returns false (and leaves the binding intact)
    /// when `var` is already bound to a *different* value.
    pub fn bind(&mut self, var: &str, value: Value) -> bool {
        match self.map.get(var) {
            Some(existing) => *existing == value,
            None => {
                self.map.insert(var.to_string(), value);
                true
            }
        }
    }

    /// True when `var` has a binding.
    pub fn is_bound(&self, var: &str) -> bool {
        self.map.contains_key(var)
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no variables are bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Evaluate an expression under a substitution.
pub fn eval_expr(expr: &Expr, bindings: &Bindings, builtins: &Builtins) -> Result<Value> {
    match expr {
        Expr::Term(Term::Const(v)) => Ok(v.clone()),
        Expr::Term(Term::Var(v)) => {
            bindings.get(v).cloned().ok_or_else(|| Error::eval(format!("unbound variable {v}")))
        }
        Expr::Call { func, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_expr(a, bindings, builtins)?);
            }
            builtins.call(func, &vals)
        }
        Expr::BinOp { op, lhs, rhs } => {
            let l = eval_expr(lhs, bindings, builtins)?;
            let r = eval_expr(rhs, bindings, builtins)?;
            Builtins::arith(*op, &l, &r)
        }
    }
}

/// Try to unify an atom's terms against a tuple's fields, extending
/// `bindings`. Returns false on mismatch (bindings may be partially extended;
/// callers clone before attempting).
fn unify_atom(atom: &Atom, tuple: &Tuple, bindings: &mut Bindings) -> bool {
    if atom.arity() != tuple.arity() {
        return false;
    }
    for (term, value) in atom.terms.iter().zip(tuple.fields()) {
        match term {
            Term::Const(c) => {
                if c != value {
                    return false;
                }
            }
            Term::Var(v) => {
                if !bindings.bind(v, value.clone()) {
                    return false;
                }
            }
        }
    }
    true
}

/// Evaluate `rule` with the *reference* algorithm (see the module docs).
/// Semantically identical to [`RuleEval::evaluate`](super::RuleEval::evaluate);
/// the property tests pin this.
pub fn evaluate_rule_reference<S: RelationSource>(
    rule: &Rule,
    builtins: &Builtins,
    source: &S,
    delta: Option<(usize, &[Tuple])>,
) -> Result<Vec<Tuple>> {
    let positive: Vec<&Atom> = rule.positive_atoms();
    let positive_rels: Vec<RelId> = positive.iter().map(|a| RelId::intern(&a.relation)).collect();
    let constraints: Vec<&Literal> = rule.body.iter().filter(|l| l.is_constraint()).collect();
    let neg: Vec<(&Atom, RelId)> = rule
        .body
        .iter()
        .filter_map(|l| match l {
            Literal::NegAtom(a) => Some((a, RelId::intern(&a.relation))),
            _ => None,
        })
        .collect();
    let head_rel = RelId::intern(&rule.head.relation);

    let mut out = Vec::new();
    let mut bindings = Bindings::new();
    let mut applied = vec![false; constraints.len()];
    if !reference_apply_ready(&constraints, builtins, &mut applied, &mut bindings)? {
        return Ok(out);
    }
    reference_join(
        rule,
        &positive,
        &positive_rels,
        &constraints,
        &neg,
        head_rel,
        builtins,
        source,
        delta,
        0,
        &applied,
        &bindings,
        &mut out,
    )?;
    Ok(out)
}

/// Apply every not-yet-applied constraint whose variables are all bound.
/// Returns false if a constraint evaluated to false (dead branch).
fn reference_apply_ready(
    constraints: &[&Literal],
    builtins: &Builtins,
    applied: &mut [bool],
    bindings: &mut Bindings,
) -> Result<bool> {
    let mut progress = true;
    while progress {
        progress = false;
        for (i, lit) in constraints.iter().enumerate() {
            if applied[i] {
                continue;
            }
            match lit {
                Literal::Assign { var, expr } => {
                    if expr.variables().iter().all(|v| bindings.is_bound(v)) {
                        let val = eval_expr(expr, bindings, builtins)?;
                        applied[i] = true;
                        progress = true;
                        if !bindings.bind(var, val) {
                            return Ok(false);
                        }
                    }
                }
                Literal::Compare { op, lhs, rhs } => {
                    let ready = lhs.variables().iter().all(|v| bindings.is_bound(v))
                        && rhs.variables().iter().all(|v| bindings.is_bound(v));
                    if ready {
                        let l = eval_expr(lhs, bindings, builtins)?;
                        let r = eval_expr(rhs, bindings, builtins)?;
                        applied[i] = true;
                        progress = true;
                        if !op.eval(&l, &r) {
                            return Ok(false);
                        }
                    }
                }
                other => unreachable!("{other} is not a constraint"),
            }
        }
    }
    Ok(true)
}

#[allow(clippy::too_many_arguments)]
fn reference_join<S: RelationSource>(
    rule: &Rule,
    positive: &[&Atom],
    positive_rels: &[RelId],
    constraints: &[&Literal],
    neg: &[(&Atom, RelId)],
    head_rel: RelId,
    builtins: &Builtins,
    source: &S,
    delta: Option<(usize, &[Tuple])>,
    depth: usize,
    applied: &[bool],
    bindings: &Bindings,
    out: &mut Vec<Tuple>,
) -> Result<()> {
    if depth == positive.len() {
        // Unapplied constraints mean some variable never got bound: unsafe.
        for (i, lit) in constraints.iter().enumerate() {
            if !applied[i] {
                return Err(Error::eval(format!(
                    "rule {}: constraint `{lit}` has unbound variables",
                    rule.name.as_deref().unwrap_or("<unnamed>")
                )));
            }
        }
        for (atom, rel) in neg {
            if source.scan(*rel).any(|t| matches_bound(atom, t, bindings)) {
                return Ok(());
            }
        }
        out.push(head_tuple_from_bindings(&rule.head, head_rel, bindings, rule.name.as_deref())?);
        return Ok(());
    }
    let atom = positive[depth];
    let candidates: Scan<'_> = match delta {
        Some((di, dt)) if di == depth => Scan::Slice(dt.iter()),
        _ => source.scan(positive_rels[depth]),
    };
    for tuple in candidates {
        if !matches_bound(atom, tuple, bindings) {
            continue;
        }
        let mut next = bindings.clone();
        if !unify_atom(atom, tuple, &mut next) {
            continue;
        }
        let mut next_applied = applied.to_vec();
        if !reference_apply_ready(constraints, builtins, &mut next_applied, &mut next)? {
            continue;
        }
        reference_join(
            rule,
            positive,
            positive_rels,
            constraints,
            neg,
            head_rel,
            builtins,
            source,
            delta,
            depth + 1,
            &next_applied,
            &next,
            out,
        )?;
    }
    Ok(())
}

/// True when `tuple` agrees with every constant and every already-bound
/// variable of `atom`; unbound variables are wildcards. The join rejects a
/// candidate with it before cloning the bindings; a negated atom holds
/// when no stored tuple passes it.
fn matches_bound(atom: &Atom, tuple: &Tuple, bindings: &Bindings) -> bool {
    atom.arity() == tuple.arity()
        && atom.terms.iter().zip(tuple.fields()).all(|(term, value)| match term {
            Term::Const(c) => c == value,
            Term::Var(v) => bindings.get(v).is_none_or(|bound| bound == value),
        })
}

/// Construct a head tuple from bindings; aggregate positions carry the raw
/// value of the aggregated variable. The head relation arrives pre-interned
/// so no name is hashed per derived tuple.
fn head_tuple_from_bindings(
    head: &Head,
    head_rel: RelId,
    bindings: &Bindings,
    rule_name: Option<&str>,
) -> Result<Tuple> {
    let mut fields = Vec::with_capacity(head.terms.len());
    for term in &head.terms {
        let value = match term {
            HeadTerm::Plain(Term::Const(c)) => c.clone(),
            HeadTerm::Plain(Term::Var(v)) | HeadTerm::Agg(_, v) => {
                bindings.get(v).cloned().ok_or_else(|| {
                    Error::eval(format!(
                        "rule {}: head variable {v} is not bound by the body",
                        rule_name.unwrap_or("<unnamed>")
                    ))
                })?
            }
        };
        fields.push(value);
    }
    Ok(Tuple::from_rel(head_rel, fields))
}
