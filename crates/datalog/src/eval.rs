//! Rule evaluation and the centralized semi-naïve fixpoint engine.
//!
//! Two layers live here:
//!
//! * [`RuleEval`] evaluates a *single* rule against any [`RelationSource`].
//!   A `RuleEval` is a *compiled plan*: construction interns the rule's
//!   variables into dense frame slots, orders the body atoms by estimated
//!   join cost (exhaustive permutation search fed by [`CardStats`] when
//!   the caller has them — declared upsert keys compile into at-most-one-
//!   hit key probes), compiles every atom into positional field ops,
//!   schedules each constraint at the earliest join depth where its
//!   variables are bound (constant-only constraints run once per call,
//!   outside the join loop entirely), and lowers the head into slot reads.
//!   Evaluation then runs over a single mutable frame (`Vec<Value>` indexed
//!   by slot) — no per-candidate map cloning, no name hashing — borrowing
//!   candidate tuples straight out of the source through [`Scan`] cursors.
//!   The distributed processor in `dr-core` reuses this layer directly:
//!   each network node evaluates its localized rules against its local
//!   tables through the same plans.
//! * [`Evaluator`] runs a whole program to fixpoint on a [`Database`] using
//!   stratified semi-naïve evaluation (paper §3.3's "semi-naïve fixpoint
//!   evaluation"), with optional naïve mode (for the ablation benchmark) and
//!   the aggregate-selections optimization of §7.1. Each run re-plans the
//!   program's rules against the database's current cardinalities.
//!
//! The old name-keyed [`Bindings`] map survives at the parse/debug boundary
//! and powers [`evaluate_rule_reference`], a deliberately simple reference
//! implementation the property tests check the compiled path against.

use crate::ast::{
    AggFunc, ArithOp, Atom, CompareOp, Expr, Head, HeadTerm, Literal, Program, Rule, Term,
};
use crate::builtins::{BuiltinFn, Builtins};
use crate::catalog::Catalog;
use crate::database::{CardStats, Database, Scan};
use crate::rewrite::{aggregate_selections, AggSelection};
use crate::stratify::{stratify, Stratification};
use dr_types::{Error, RelId, Result, Tuple, TupleKey, Value};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

// ---------------------------------------------------------------------------
// Bindings (parse/debug boundary + reference evaluator)
// ---------------------------------------------------------------------------

/// A variable substitution built up while evaluating a rule body.
///
/// This name-keyed map is the *reference* representation: the compiled
/// evaluator works on dense frames instead and never touches it. It remains
/// the convenient structure for tests, debugging, and one-off evaluation.
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

// ---------------------------------------------------------------------------
// Relation sources
// ---------------------------------------------------------------------------

/// Anything that can supply the current contents of a relation *by
/// reference*. The centralized [`Database`] implements it; so does the
/// local ∪ shared overlay of the distributed processor (which chains two
/// stores without materializing either).
///
/// Relations are addressed by interned [`RelId`] — the join loop probes a
/// source once per candidate binding, so lookups must never hash a name.
pub trait RelationSource {
    /// Borrowing cursor over all tuples currently stored for `relation`.
    fn scan(&self, relation: RelId) -> Scan<'_>;

    /// Borrowing cursor over (at least) the tuples of `relation` whose
    /// `field` equals `value`. Implementations backed by a secondary index
    /// return only the hits; the default falls back to a full scan — the
    /// contract is over-approximation, since join loops re-check the probe
    /// field when unifying.
    fn probe(&self, relation: RelId, field: usize, value: &Value) -> Scan<'_> {
        let _ = (field, value);
        self.scan(relation)
    }

    /// Borrowing cursor over (at least) the tuples whose declared-key
    /// fields (`fields`, the key declaration the plan compiled against)
    /// equal `key.values()`. Stores that maintain a matching upsert map
    /// serve this with at most one hit; the default over-approximates with
    /// a single-field probe — safe, since join loops re-check every field.
    fn probe_key(&self, key: &TupleKey, fields: &[usize]) -> Scan<'_> {
        match (fields.first(), key.values().first()) {
            (Some(&f), Some(v)) => self.probe(key.rel(), f, v),
            _ => self.scan(key.rel()),
        }
    }
}

impl RelationSource for Database {
    fn scan(&self, relation: RelId) -> Scan<'_> {
        Database::scan(self, relation)
    }

    fn probe(&self, relation: RelId, field: usize, value: &Value) -> Scan<'_> {
        Database::probe(self, relation, field, value)
    }

    fn probe_key(&self, key: &TupleKey, fields: &[usize]) -> Scan<'_> {
        Database::probe_key(self, key, fields)
    }
}

// ---------------------------------------------------------------------------
// Compiled plan representation
// ---------------------------------------------------------------------------

/// How a planned atom locates its candidate tuples: probe a stored index on
/// `field` with either a compile-time constant or the current value of a
/// frame slot bound by earlier atoms.
#[derive(Debug, Clone, PartialEq)]
enum ProbeKey {
    Const(Value),
    Slot(usize),
}

impl ProbeKey {
    /// The probe value under the current frame.
    fn resolve<'a>(&'a self, frame: &'a [Value]) -> &'a Value {
        match self {
            ProbeKey::Const(c) => c,
            ProbeKey::Slot(s) => &frame[*s],
        }
    }
}

/// One positional operation matching an atom field against the frame.
/// Ops run in order: constants first, then tests on slots bound by earlier
/// atoms, then the atom's own binds/tests in field order (so duplicate
/// variables within one atom test against the field that bound them).
#[derive(Debug, Clone, PartialEq)]
enum FieldOp {
    /// Field must equal a compile-time constant.
    Check { field: usize, value: Value },
    /// Field must equal an already-bound slot.
    Test { field: usize, slot: usize },
    /// First occurrence: write the field into its slot.
    Bind { field: usize, slot: usize },
}

/// How a planned atom locates its candidate tuples.
#[derive(Debug, Clone, PartialEq)]
enum ProbeSpec {
    /// Probe a single-field secondary index.
    Field(usize, ProbeKey),
    /// Probe the relation's declared upsert key: every key field is a
    /// constant or a slot bound by earlier atoms, so the keyed store
    /// yields at most one candidate.
    Key { fields: Vec<usize>, values: Vec<ProbeKey> },
}

impl ProbeSpec {
    /// Hash of the probe's value(s) under the current frame — the lookup
    /// key into the per-call delta index. Hash collisions are harmless:
    /// the join loop re-checks every field op on each candidate.
    fn delta_hash(&self, frame: &[Value]) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        match self {
            ProbeSpec::Field(_, key) => key.resolve(frame).hash(&mut h),
            ProbeSpec::Key { values, .. } => {
                for key in values {
                    key.resolve(frame).hash(&mut h);
                }
            }
        }
        h.finish()
    }

    /// Hash of a delta tuple's values at the probe's field positions, or
    /// `None` when the tuple is too short to have them (it could never
    /// match the atom anyway).
    fn tuple_hash(&self, t: &Tuple) -> Option<u64> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        match self {
            ProbeSpec::Field(field, _) => t.field(*field)?.hash(&mut h),
            ProbeSpec::Key { fields, .. } => {
                for &field in fields {
                    t.field(field)?.hash(&mut h);
                }
            }
        }
        Some(h.finish())
    }
}

/// A positive body atom compiled against the frame layout.
#[derive(Debug, Clone)]
struct AtomPlan {
    rel: RelId,
    arity: usize,
    ops: Vec<FieldOp>,
    probe: Option<ProbeSpec>,
}

/// An expression lowered onto frame slots; function names are resolved to
/// dense indices into the plan's function table (looked up in the
/// [`Builtins`] once per `evaluate` call, not per invocation).
#[derive(Debug, Clone)]
enum SlotExpr {
    Const(Value),
    Slot(usize),
    Call { func: usize, args: Vec<SlotExpr> },
    BinOp { op: ArithOp, lhs: Box<SlotExpr>, rhs: Box<SlotExpr> },
}

/// A constraint scheduled at a specific join depth.
#[derive(Debug, Clone)]
enum Step {
    /// `X = expr` where `X` was unbound: compute and bind.
    Bind { slot: usize, expr: SlotExpr },
    /// `X = expr` where `X` is already bound: equality test.
    Test { slot: usize, expr: SlotExpr },
    /// A comparison filter.
    Filter { op: CompareOp, lhs: SlotExpr, rhs: SlotExpr },
}

/// One field condition of a compiled negated atom. Fields whose variable is
/// never bound by the positive part are wildcards and compile to no op.
#[derive(Debug, Clone)]
enum NegOp {
    Check { field: usize, value: Value },
    Test { field: usize, slot: usize },
}

/// A negated body atom compiled against the frame layout.
#[derive(Debug, Clone)]
struct NegPlan {
    rel: RelId,
    arity: usize,
    ops: Vec<NegOp>,
    probe: Option<(usize, ProbeKey)>,
}

/// How one head field is produced from a completed frame.
#[derive(Debug, Clone)]
enum HeadOp {
    Const(Value),
    Slot(usize),
    /// The head variable is never bound by the body; emitting through this
    /// op reports the unsafe rule.
    Unbound(String),
}

/// The join order and probe choices a [`RuleEval`] compiled to, exposed so
/// tests can pin planner decisions and tools can explain them.
///
/// Positions are *planned* positions; [`JoinPlan::atom_order`] maps each
/// back to the original body occurrence index (the indexing used by
/// semi-naïve deltas and [`RuleEval::positive_atoms`]).
#[derive(Debug, Clone)]
pub struct JoinPlan {
    order: Vec<usize>,
    labels: Vec<String>,
    probes: Vec<Option<usize>>,
    keys: Vec<Option<Vec<usize>>>,
    slot_names: Vec<String>,
    used_stats: bool,
}

impl JoinPlan {
    /// Planned join order as original positive-atom occurrence indices:
    /// `atom_order()[p]` is the body occurrence joined at depth `p`.
    pub fn atom_order(&self) -> &[usize] {
        &self.order
    }

    /// Probe field per planned atom (parallel to [`JoinPlan::atom_order`]);
    /// `None` means a full scan. A key probe (see [`JoinPlan::key_probes`])
    /// reports its first key field here.
    pub fn probes(&self) -> &[Option<usize>] {
        &self.probes
    }

    /// Key-probe fields per planned atom (parallel to
    /// [`JoinPlan::atom_order`]): `Some(fields)` when the atom is served
    /// by its relation's declared upsert key (at most one candidate per
    /// outer binding), `None` when it scans or probes a single field.
    pub fn key_probes(&self) -> &[Option<Vec<usize>>] {
        &self.keys
    }

    /// The rule's variables in slot order — the frame layout.
    pub fn slot_names(&self) -> &[String] {
        &self.slot_names
    }

    /// Number of frame slots the rule uses.
    pub fn slot_count(&self) -> usize {
        self.slot_names.len()
    }

    /// True when the plan was costed from table statistics
    /// ([`RuleEval::with_stats`]) rather than the static heuristic.
    pub fn used_stats(&self) -> bool {
        self.used_stats
    }
}

impl fmt::Display for JoinPlan {
    /// Renders as the join pipeline, e.g. `link ⋈ path[0]` — a probed atom
    /// shows its probe field in brackets, a key-probed atom all of its key
    /// fields (`shortestCost[0,1]`), a scanned atom just its name.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (label, probe)) in self.labels.iter().zip(&self.probes).enumerate() {
            if i > 0 {
                write!(f, " ⋈ ")?;
            }
            match (&self.keys[i], probe) {
                (Some(fields), _) => {
                    write!(f, "{label}[")?;
                    for (j, kf) in fields.iter().enumerate() {
                        if j > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{kf}")?;
                    }
                    write!(f, "]")?;
                }
                (None, Some(field)) => write!(f, "{label}[{field}]")?,
                (None, None) => write!(f, "{label}")?,
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Single-rule evaluation (compiled path)
// ---------------------------------------------------------------------------

/// Observer of individual rule firings during [`RuleEval`] evaluation.
///
/// The join calls [`enter`](FiringSink::enter) when a candidate tuple
/// survives its atom's field ops and scheduled constraints,
/// [`exit`](FiringSink::exit) when the join backtracks past it, and
/// [`fired`](FiringSink::fired) when a complete binding emits a head tuple
/// — at which point the entered-and-not-exited tuples are exactly the
/// positive body of the firing (in planned join order).
///
/// Evaluation is generic over the sink, so the default [`NoTrace`]
/// monomorphizes to the exact pre-provenance hot path: no branch, no
/// allocation, no cost when recording is off.
pub trait FiringSink {
    /// A candidate tuple joined at the current depth.
    fn enter(&mut self, tuple: &Tuple);
    /// The join backtracked past the most recently entered tuple.
    fn exit(&mut self);
    /// A complete binding emitted `head`.
    fn fired(&mut self, head: &Tuple);
}

/// The do-nothing sink: compiles away entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTrace;

impl FiringSink for NoTrace {
    #[inline(always)]
    fn enter(&mut self, _tuple: &Tuple) {}
    #[inline(always)]
    fn exit(&mut self) {}
    #[inline(always)]
    fn fired(&mut self, _head: &Tuple) {}
}

/// One recorded rule firing: a head tuple and the positive body tuples the
/// join bound to produce it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Firing {
    /// The derived head tuple (raw: aggregate positions ungrouped).
    pub head: Tuple,
    /// The positive body tuples, in planned join order.
    pub body: Vec<Tuple>,
}

/// A [`FiringSink`] that records every firing (the provenance hook).
#[derive(Debug, Clone, Default)]
pub struct FiringLog {
    stack: Vec<Tuple>,
    /// The firings observed so far.
    pub firings: Vec<Firing>,
}

impl FiringLog {
    /// An empty log.
    pub fn new() -> FiringLog {
        FiringLog::default()
    }
}

impl FiringSink for FiringLog {
    fn enter(&mut self, tuple: &Tuple) {
        self.stack.push(tuple.clone());
    }
    fn exit(&mut self) {
        self.stack.pop();
    }
    fn fired(&mut self, head: &Tuple) {
        self.firings.push(Firing { head: head.clone(), body: self.stack.clone() });
    }
}

/// Compiled evaluator for a single rule.
///
/// Construction analyses the rule once: variables are interned into dense
/// frame slots, the join planner orders the positive atoms by estimated
/// selectivity, every atom/constraint/negation/head term is lowered into
/// positional ops against the frame, and each probe field is recorded so
/// stores can declare the matching secondary index. Evaluation then runs a
/// nested-loop join over a single reusable frame, borrowing tuples straight
/// out of the [`RelationSource`] through [`Scan`] cursors; nothing is
/// gathered, re-hashed, or cloned per candidate.
///
/// # Example: inspecting the compiled plan
///
/// ```
/// use dr_datalog::{parse_program, RuleEval};
///
/// let program = parse_program(
///     "NR2: path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2), \
///      C = C1 + C2, P = f_prepend(S,P2), f_inPath(P2,S) = false.",
/// )
/// .unwrap();
/// let compiled = RuleEval::new(&program.rules[0]);
/// let plan = compiled.plan();
/// // `link` is joined first (fewer unbound variables), then `path` is
/// // probed on field 0 with the `Z` binding `link` produced.
/// assert_eq!(plan.atom_order(), &[0, 1]);
/// assert_eq!(plan.probes(), &[None, Some(0)]);
/// assert_eq!(plan.to_string(), "link ⋈ path[0]");
/// ```
#[derive(Debug, Clone)]
pub struct RuleEval {
    rule: Rule,
    /// Positive body atoms, in *body* order (delta positions refer to these).
    positive: Vec<Atom>,
    /// Interned relation of each positive atom, in body order.
    positive_rels: Vec<RelId>,
    /// Interned relation the head derives into.
    head_rel: RelId,
    /// Frame layout: slot index → variable name.
    slot_names: Vec<String>,
    /// Compiled positive atoms in *planned* order.
    atoms: Vec<AtomPlan>,
    /// Original occurrence index → planned position.
    planned_of: Vec<usize>,
    /// `steps[d]` runs once `d` planned atoms have matched; `steps[0]` runs
    /// once per evaluation, before the join loop.
    steps: Vec<Vec<Step>>,
    /// Constraints whose variables are never all bound; reaching a full
    /// match with any of these reports the rule as unsafe.
    unsafe_constraints: Vec<Literal>,
    /// Compiled negated atoms, checked after the positive join completes.
    negs: Vec<NegPlan>,
    /// Interned relation of each negated atom.
    neg_rels: Vec<RelId>,
    /// Head emission program.
    head_ops: Vec<HeadOp>,
    /// Function-name table for [`SlotExpr::Call`] resolution.
    func_names: Vec<String>,
    /// The planner's decisions, for introspection and pinning tests.
    plan: JoinPlan,
}

/// Rows assumed for a relation the statistics know nothing about (absent or
/// empty at plan time — usually a derived relation that will fill up during
/// the fixpoint, so "unknown" must not read as "cheap").
const UNKNOWN_ROWS: u64 = 1024;
/// Selectivity divisor assumed for a probe whose field has no distinct-count
/// statistic.
const DEFAULT_PROBE_FANOUT: u64 = 16;

/// Bodies of up to this many positive atoms are ordered by exhaustive
/// minimum-cost permutation search; wider bodies fall back to the one-step
/// greedy heuristic (n! would bite, and such rules are vanishingly rare).
const EXHAUSTIVE_PLAN_LIMIT: usize = 6;

/// Estimated candidate tuples `atom` yields *per outer binding*, given
/// which slots are bound: 1 when the relation's declared key is fully
/// bound (the upsert map yields at most one hit), `rows / distinct` for a
/// single-field index probe, `rows` for a full scan. Returned alongside
/// the number of still-unbound variable occurrences (the greedy fallback's
/// tiebreak).
fn estimate_hits(
    atom: &Atom,
    rel: RelId,
    bound: &[bool],
    slot_of: &HashMap<String, usize>,
    stats: Option<&CardStats>,
) -> (u64, usize) {
    let term_bound = |t: &Term| match t {
        Term::Const(_) => true,
        Term::Var(v) => bound[slot_of[v.as_str()]],
    };
    let unbound = atom.terms.iter().filter(|t| !term_bound(t)).count();
    let key_served = stats.and_then(|s| s.key_of(rel)).is_some_and(|kf| {
        !kf.is_empty() && kf.iter().all(|&f| atom.terms.get(f).is_some_and(&term_bound))
    });
    if key_served {
        return (1, unbound);
    }
    let rows = stats
        .and_then(|s| s.rows(rel))
        .filter(|&r| r > 0)
        .map(|r| r as u64)
        .unwrap_or(UNKNOWN_ROWS);
    match atom.terms.iter().position(term_bound) {
        Some(f) => {
            let divisor = stats
                .and_then(|s| s.distinct(rel, f))
                .filter(|&d| d > 0)
                .map(|d| d as u64)
                .unwrap_or(DEFAULT_PROBE_FANOUT);
            ((rows / divisor).max(1), unbound)
        }
        None => (rows.max(1), unbound),
    }
}

/// Planning-time simulation of [`schedule_ready_constraints`]'s binding
/// effect: assignments whose right side is fully bound bind their target,
/// chains included. Filters bind nothing.
fn bind_ready_assigns(
    constraints: &[Literal],
    bound: &mut [bool],
    slot_of: &HashMap<String, usize>,
) {
    let mut progress = true;
    while progress {
        progress = false;
        for lit in constraints {
            if let Literal::Assign { var, expr } = lit {
                let slot = slot_of[var.as_str()];
                if !bound[slot] && expr.variables().iter().all(|v| bound[slot_of[*v]]) {
                    bound[slot] = true;
                    progress = true;
                }
            }
        }
    }
}

/// Depth-first permutation search for the cheapest join order. Step cost is
/// the estimated number of bindings reaching the step times the step's
/// per-binding hits; the total is the sum over steps. Permutations are
/// visited in lexicographic (body) order and only a strictly cheaper one
/// replaces the incumbent, so cost ties resolve to the earliest body order.
#[allow(clippy::too_many_arguments)]
fn search_orders(
    positive: &[Atom],
    rels: &[RelId],
    constraints: &[Literal],
    slot_of: &HashMap<String, usize>,
    stats: Option<&CardStats>,
    bound: &mut Vec<bool>,
    used: &mut Vec<bool>,
    order: &mut Vec<usize>,
    prefix_rows: u128,
    cost: u128,
    best: &mut Option<(u128, Vec<usize>)>,
) {
    if let Some((best_cost, _)) = best {
        if cost >= *best_cost {
            return;
        }
    }
    if order.len() == positive.len() {
        *best = Some((cost, order.clone()));
        return;
    }
    for occ in 0..positive.len() {
        if used[occ] {
            continue;
        }
        let (hits, _) = estimate_hits(&positive[occ], rels[occ], bound, slot_of, stats);
        let step_cost = prefix_rows.saturating_mul(u128::from(hits.max(1)));
        let saved_bound = bound.clone();
        for t in &positive[occ].terms {
            if let Term::Var(v) = t {
                bound[slot_of[v.as_str()]] = true;
            }
        }
        bind_ready_assigns(constraints, bound, slot_of);
        used[occ] = true;
        order.push(occ);
        search_orders(
            positive,
            rels,
            constraints,
            slot_of,
            stats,
            bound,
            used,
            order,
            step_cost,
            cost.saturating_add(step_cost),
            best,
        );
        order.pop();
        used[occ] = false;
        *bound = saved_bound;
    }
}

/// Choose the join order for a rule body: exhaustive permutation search up
/// to [`EXHAUSTIVE_PLAN_LIMIT`] atoms, one-step greedy (cheapest next atom
/// by `(hits, unbound, occurrence)`) beyond. `init_bound` is the binding
/// state after the once-per-call constraint steps; it is not mutated.
fn plan_order(
    positive: &[Atom],
    rels: &[RelId],
    constraints: &[Literal],
    init_bound: &[bool],
    slot_of: &HashMap<String, usize>,
    stats: Option<&CardStats>,
) -> Vec<usize> {
    let n = positive.len();
    let mut bound = init_bound.to_vec();
    if n <= EXHAUSTIVE_PLAN_LIMIT {
        let mut best = None;
        search_orders(
            positive,
            rels,
            constraints,
            slot_of,
            stats,
            &mut bound,
            &mut vec![false; n],
            &mut Vec::with_capacity(n),
            1,
            0,
            &mut best,
        );
        return best.map(|(_, order)| order).unwrap_or_default();
    }
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    while !remaining.is_empty() {
        let mut best: Option<(u64, usize, usize)> = None;
        for &occ in &remaining {
            let (hits, unbound) = estimate_hits(&positive[occ], rels[occ], &bound, slot_of, stats);
            let key = (hits, unbound, occ);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        let occ = best.expect("remaining is non-empty").2;
        remaining.retain(|&o| o != occ);
        for t in &positive[occ].terms {
            if let Term::Var(v) = t {
                bound[slot_of[v.as_str()]] = true;
            }
        }
        bind_ready_assigns(constraints, &mut bound, slot_of);
        order.push(occ);
    }
    order
}

/// Lower an expression onto frame slots, interning called function names
/// into `func_names`. Callers guarantee every variable has a slot.
fn compile_expr(
    expr: &Expr,
    slot_of: &HashMap<String, usize>,
    func_names: &mut Vec<String>,
) -> SlotExpr {
    match expr {
        Expr::Term(Term::Const(v)) => SlotExpr::Const(v.clone()),
        Expr::Term(Term::Var(v)) => SlotExpr::Slot(slot_of[v.as_str()]),
        Expr::Call { func, args } => {
            let id = match func_names.iter().position(|n| n == func) {
                Some(i) => i,
                None => {
                    func_names.push(func.clone());
                    func_names.len() - 1
                }
            };
            SlotExpr::Call {
                func: id,
                args: args.iter().map(|a| compile_expr(a, slot_of, func_names)).collect(),
            }
        }
        Expr::BinOp { op, lhs, rhs } => SlotExpr::BinOp {
            op: *op,
            lhs: Box::new(compile_expr(lhs, slot_of, func_names)),
            rhs: Box::new(compile_expr(rhs, slot_of, func_names)),
        },
    }
}

/// Schedule every not-yet-scheduled constraint whose variables are all
/// bound, updating `bound` as assignments bind new slots (which can make
/// further constraints ready — hence the progress loop, mirroring the
/// reference evaluator's eager application).
fn schedule_ready_constraints(
    constraints: &[Literal],
    scheduled: &mut [bool],
    bound: &mut [bool],
    slot_of: &HashMap<String, usize>,
    func_names: &mut Vec<String>,
) -> Vec<Step> {
    let mut out = Vec::new();
    let mut progress = true;
    while progress {
        progress = false;
        for (i, lit) in constraints.iter().enumerate() {
            if scheduled[i] {
                continue;
            }
            match lit {
                Literal::Assign { var, expr } => {
                    if expr.variables().iter().all(|v| bound[slot_of[*v]]) {
                        scheduled[i] = true;
                        progress = true;
                        let compiled = compile_expr(expr, slot_of, func_names);
                        let slot = slot_of[var.as_str()];
                        if bound[slot] {
                            out.push(Step::Test { slot, expr: compiled });
                        } else {
                            bound[slot] = true;
                            out.push(Step::Bind { slot, expr: compiled });
                        }
                    }
                }
                Literal::Compare { op, lhs, rhs } => {
                    let ready = lhs.variables().iter().all(|v| bound[slot_of[*v]])
                        && rhs.variables().iter().all(|v| bound[slot_of[*v]]);
                    if ready {
                        scheduled[i] = true;
                        progress = true;
                        out.push(Step::Filter {
                            op: *op,
                            lhs: compile_expr(lhs, slot_of, func_names),
                            rhs: compile_expr(rhs, slot_of, func_names),
                        });
                    }
                }
                other => unreachable!("{other} is not a constraint"),
            }
        }
    }
    out
}

/// Compile one positive atom against the frame: choose its probe from the
/// currently bound slots (a fully-bound declared key beats any single
/// field — the keyed store yields at most one candidate), emit field ops,
/// and mark its variables bound.
fn compile_atom(
    atom: &Atom,
    rel: RelId,
    bound: &mut [bool],
    slot_of: &HashMap<String, usize>,
    stats: Option<&CardStats>,
) -> AtomPlan {
    let term_key = |term: &Term| match term {
        Term::Const(c) => Some(ProbeKey::Const(c.clone())),
        Term::Var(v) => {
            let slot = slot_of[v.as_str()];
            bound[slot].then_some(ProbeKey::Slot(slot))
        }
    };
    let key_probe = stats.and_then(|s| s.key_of(rel)).and_then(|kf| {
        if kf.is_empty() {
            return None;
        }
        let values: Option<Vec<ProbeKey>> =
            kf.iter().map(|&f| term_key(atom.terms.get(f)?)).collect();
        Some(ProbeSpec::Key { fields: kf.to_vec(), values: values? })
    });
    let probe = key_probe.or_else(|| {
        atom.terms
            .iter()
            .enumerate()
            .find_map(|(field, term)| term_key(term).map(|k| ProbeSpec::Field(field, k)))
    });
    let mut checks = Vec::new();
    let mut tests = Vec::new();
    let mut writes = Vec::new();
    let mut newly: Vec<usize> = Vec::new();
    for (field, term) in atom.terms.iter().enumerate() {
        match term {
            Term::Const(c) => checks.push(FieldOp::Check { field, value: c.clone() }),
            Term::Var(v) => {
                let slot = slot_of[v.as_str()];
                if bound[slot] {
                    tests.push(FieldOp::Test { field, slot });
                } else if newly.contains(&slot) {
                    writes.push(FieldOp::Test { field, slot });
                } else {
                    newly.push(slot);
                    writes.push(FieldOp::Bind { field, slot });
                }
            }
        }
    }
    for slot in newly {
        bound[slot] = true;
    }
    let mut ops = checks;
    ops.extend(tests);
    ops.extend(writes);
    AtomPlan { rel, arity: atom.arity(), ops, probe }
}

/// Per-call evaluation environment: the resolved function table plus the
/// tuple source and optional semi-naïve delta (already mapped to its
/// *planned* position, with a per-call index over the delta slice).
struct Env<'a, S> {
    funcs: Vec<Option<BuiltinFn>>,
    source: &'a S,
    delta: Option<(usize, &'a [Tuple])>,
    /// Probe-value hash → positions in the delta slice. Keyed by hash so
    /// single-field and composite-key probes share one shape; collisions
    /// are harmless (the join re-checks every field op per candidate).
    delta_index: Option<HashMap<u64, Vec<usize>>>,
}

impl RuleEval {
    /// Compile `rule` into a reusable evaluation plan, ordering joins with
    /// static estimates only (every relation unknown-sized; cost ties
    /// resolve to body order).
    pub fn new(rule: &Rule) -> RuleEval {
        RuleEval::compile(rule, None)
    }

    /// Compile `rule` with table statistics: the planner searches join
    /// orders for the cheapest total cost (`rows / distinct` per probe,
    /// `rows` per scan, 1 per fully-bound declared-key probe), so the most
    /// selective access path drives each join depth.
    pub fn with_stats(rule: &Rule, stats: &CardStats) -> RuleEval {
        RuleEval::compile(rule, Some(stats))
    }

    fn compile(rule: &Rule, stats: Option<&CardStats>) -> RuleEval {
        let positive: Vec<Atom> = rule.positive_atoms().into_iter().cloned().collect();
        let positive_rels: Vec<RelId> =
            positive.iter().map(|a| RelId::intern(&a.relation)).collect();
        let constraints: Vec<Literal> =
            rule.body.iter().filter(|l| l.is_constraint()).cloned().collect();
        let neg_atoms: Vec<Atom> = rule
            .body
            .iter()
            .filter_map(|l| match l {
                Literal::NegAtom(a) => Some(a.clone()),
                _ => None,
            })
            .collect();
        let head_rel = RelId::intern(&rule.head.relation);

        // Frame layout: one dense slot per distinct variable.
        let slot_names: Vec<String> = rule.variables().into_iter().map(String::from).collect();
        let slot_of: HashMap<String, usize> =
            slot_names.iter().enumerate().map(|(i, n)| (n.clone(), i)).collect();

        let mut bound = vec![false; slot_names.len()];
        let mut scheduled = vec![false; constraints.len()];
        let mut func_names: Vec<String> = Vec::new();

        // Constraints evaluable before any atom (constants-only, and
        // assignment chains off them) run once per call: steps[0].
        let mut steps = Vec::with_capacity(positive.len() + 1);
        steps.push(schedule_ready_constraints(
            &constraints,
            &mut scheduled,
            &mut bound,
            &slot_of,
            &mut func_names,
        ));

        // Join planning: pick the cheapest order (exhaustive permutation
        // search for small bodies, greedy beyond), then compile each atom
        // in that order, scheduling newly-ready constraints between atoms.
        let order = plan_order(&positive, &positive_rels, &constraints, &bound, &slot_of, stats);
        let mut atoms = Vec::with_capacity(positive.len());
        for &occ in &order {
            atoms.push(compile_atom(
                &positive[occ],
                positive_rels[occ],
                &mut bound,
                &slot_of,
                stats,
            ));
            steps.push(schedule_ready_constraints(
                &constraints,
                &mut scheduled,
                &mut bound,
                &slot_of,
                &mut func_names,
            ));
        }
        let mut planned_of = vec![0usize; order.len()];
        for (pos, &occ) in order.iter().enumerate() {
            planned_of[occ] = pos;
        }
        let unsafe_constraints: Vec<Literal> = constraints
            .iter()
            .zip(&scheduled)
            .filter(|(_, &s)| !s)
            .map(|(l, _)| l.clone())
            .collect();

        // Negations run after the whole positive part, against the final
        // bound set; unbound fields are wildcards.
        let neg_rels: Vec<RelId> = neg_atoms.iter().map(|a| RelId::intern(&a.relation)).collect();
        let negs: Vec<NegPlan> = neg_atoms
            .iter()
            .zip(&neg_rels)
            .map(|(atom, &rel)| {
                let mut probe = None;
                for (field, term) in atom.terms.iter().enumerate() {
                    let key = match term {
                        Term::Const(c) => Some(ProbeKey::Const(c.clone())),
                        Term::Var(v) => {
                            let slot = slot_of[v.as_str()];
                            bound[slot].then_some(ProbeKey::Slot(slot))
                        }
                    };
                    if let Some(k) = key {
                        probe = Some((field, k));
                        break;
                    }
                }
                let mut ops = Vec::new();
                for (field, term) in atom.terms.iter().enumerate() {
                    match term {
                        Term::Const(c) => ops.push(NegOp::Check { field, value: c.clone() }),
                        Term::Var(v) => {
                            let slot = slot_of[v.as_str()];
                            if bound[slot] {
                                ops.push(NegOp::Test { field, slot });
                            }
                            // unbound: wildcard, no op
                        }
                    }
                }
                NegPlan { rel, arity: atom.arity(), ops, probe }
            })
            .collect();

        let head_ops: Vec<HeadOp> = rule
            .head
            .terms
            .iter()
            .map(|term| match term {
                HeadTerm::Plain(Term::Const(c)) => HeadOp::Const(c.clone()),
                HeadTerm::Plain(Term::Var(v)) | HeadTerm::Agg(_, v) => match slot_of.get(v) {
                    Some(&slot) if bound[slot] => HeadOp::Slot(slot),
                    _ => HeadOp::Unbound(v.clone()),
                },
            })
            .collect();

        let plan = JoinPlan {
            labels: order.iter().map(|&occ| positive[occ].relation.clone()).collect(),
            probes: atoms
                .iter()
                .map(|a| {
                    a.probe.as_ref().map(|p| match p {
                        ProbeSpec::Field(f, _) => *f,
                        ProbeSpec::Key { fields, .. } => fields[0],
                    })
                })
                .collect(),
            keys: atoms
                .iter()
                .map(|a| match &a.probe {
                    Some(ProbeSpec::Key { fields, .. }) => Some(fields.clone()),
                    _ => None,
                })
                .collect(),
            order,
            slot_names: slot_names.clone(),
            used_stats: stats.is_some(),
        };

        RuleEval {
            rule: rule.clone(),
            positive,
            positive_rels,
            head_rel,
            slot_names,
            atoms,
            planned_of,
            steps,
            unsafe_constraints,
            negs,
            neg_rels,
            head_ops,
            func_names,
            plan,
        }
    }

    /// The rule being evaluated.
    pub fn rule(&self) -> &Rule {
        &self.rule
    }

    /// The positive body atoms, in delta-occurrence (body) order.
    pub fn positive_atoms(&self) -> &[Atom] {
        &self.positive
    }

    /// The interned relation of each positive atom, in delta-occurrence
    /// order (parallel to [`RuleEval::positive_atoms`]).
    pub fn positive_rels(&self) -> &[RelId] {
        &self.positive_rels
    }

    /// The interned relation of each negated body atom.
    pub fn neg_rels(&self) -> &[RelId] {
        &self.neg_rels
    }

    /// The interned relation this rule's head derives into.
    pub fn head_rel(&self) -> RelId {
        self.head_rel
    }

    /// The join order and probe choices this plan compiled to.
    pub fn plan(&self) -> &JoinPlan {
        &self.plan
    }

    /// The `(relation, field)` pairs this plan probes — the secondary
    /// indexes a store should declare so every probe is index-served.
    pub fn probe_fields(&self) -> Vec<(RelId, usize)> {
        self.atoms
            .iter()
            .filter_map(|a| match a.probe.as_ref()? {
                ProbeSpec::Field(f, _) => Some((a.rel, *f)),
                // Key probes are served by the upsert map itself; declare
                // the first key field for sources that can only field-probe.
                ProbeSpec::Key { fields, .. } => Some((a.rel, fields[0])),
            })
            .chain(self.negs.iter().filter_map(|n| n.probe.as_ref().map(|(f, _)| (n.rel, *f))))
            .collect()
    }

    /// Evaluate the rule against `source`.
    ///
    /// `delta` optionally replaces the tuples of the `i`-th **positive atom
    /// occurrence** (0-based, in body order, counting only positive atoms)
    /// with a delta set — this is the semi-naïve trick: the occurrence
    /// ranges over newly derived tuples only. The plan maps the occurrence
    /// to its planned join position internally.
    ///
    /// Returns *raw head tuples*: for aggregate heads the aggregate position
    /// carries the ungrouped value of the aggregated variable; use
    /// [`apply_aggregate`] to group.
    pub fn evaluate<S: RelationSource>(
        &self,
        builtins: &Builtins,
        source: &S,
        delta: Option<(usize, &[Tuple])>,
    ) -> Result<Vec<Tuple>> {
        self.evaluate_with(builtins, source, delta, &mut NoTrace)
    }

    /// [`evaluate`](RuleEval::evaluate), additionally recording every rule
    /// firing into `log` (head tuple + the body tuples that produced it).
    /// This is the provenance entry point; the plain path stays on the
    /// [`NoTrace`] monomorphization and pays nothing.
    pub fn evaluate_traced<S: RelationSource>(
        &self,
        builtins: &Builtins,
        source: &S,
        delta: Option<(usize, &[Tuple])>,
        log: &mut FiringLog,
    ) -> Result<Vec<Tuple>> {
        self.evaluate_with(builtins, source, delta, log)
    }

    fn evaluate_with<S: RelationSource, T: FiringSink>(
        &self,
        builtins: &Builtins,
        source: &S,
        delta: Option<(usize, &[Tuple])>,
        sink: &mut T,
    ) -> Result<Vec<Tuple>> {
        let mut out = Vec::new();
        // Resolve the function table once per call; an unknown function only
        // errors if a join path actually invokes it.
        let funcs: Vec<Option<BuiltinFn>> =
            self.func_names.iter().map(|n| builtins.get(n).cloned()).collect();
        // Map the delta occurrence (body order) to its planned position.
        let delta = delta.and_then(|(occ, dt)| self.planned_of.get(occ).map(|&p| (p, dt)));
        // The delta slice has no stored index; when its atom has a probe,
        // hash the probe value(s) once per call so the join probes it in
        // O(hits) instead of re-walking the slice per outer binding.
        let delta_index: Option<HashMap<u64, Vec<usize>>> = delta.and_then(|(p, dt)| {
            let probe = self.atoms[p].probe.as_ref()?;
            let mut idx: HashMap<u64, Vec<usize>> = HashMap::new();
            for (i, t) in dt.iter().enumerate() {
                if let Some(h) = probe.tuple_hash(t) {
                    idx.entry(h).or_default().push(i);
                }
            }
            Some(idx)
        });
        let env = Env { funcs, source, delta, delta_index };
        // One frame for the whole evaluation; the filler is never read
        // because reads only target statically-bound slots.
        let mut frame = vec![Value::Bool(false); self.slot_names.len()];
        if self.run_steps(&env, 0, &mut frame)? {
            self.join(&env, 0, &mut frame, &mut out, sink)?;
        }
        Ok(out)
    }

    /// Run the constraint steps scheduled at depth `idx`. Returns false when
    /// a filter or equality test rejects the current frame.
    fn run_steps<S: RelationSource>(
        &self,
        env: &Env<'_, S>,
        idx: usize,
        frame: &mut [Value],
    ) -> Result<bool> {
        for step in &self.steps[idx] {
            match step {
                Step::Bind { slot, expr } => {
                    let v = self.eval_slot(env, expr, frame)?;
                    frame[*slot] = v;
                }
                Step::Test { slot, expr } => {
                    let v = self.eval_slot(env, expr, frame)?;
                    if frame[*slot] != v {
                        return Ok(false);
                    }
                }
                Step::Filter { op, lhs, rhs } => {
                    let l = self.eval_slot(env, lhs, frame)?;
                    let r = self.eval_slot(env, rhs, frame)?;
                    if !op.eval(&l, &r) {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }

    /// Evaluate a compiled expression against the frame.
    fn eval_slot<S: RelationSource>(
        &self,
        env: &Env<'_, S>,
        expr: &SlotExpr,
        frame: &[Value],
    ) -> Result<Value> {
        match expr {
            SlotExpr::Const(v) => Ok(v.clone()),
            SlotExpr::Slot(s) => Ok(frame[*s].clone()),
            SlotExpr::Call { func, args } => {
                let f = env.funcs[*func].as_ref().ok_or_else(|| {
                    Error::eval(format!("unknown function {}", self.func_names[*func]))
                })?;
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval_slot(env, a, frame)?);
                }
                f(&vals)
            }
            SlotExpr::BinOp { op, lhs, rhs } => {
                let l = self.eval_slot(env, lhs, frame)?;
                let r = self.eval_slot(env, rhs, frame)?;
                Builtins::arith(*op, &l, &r)
            }
        }
    }

    fn join<S: RelationSource, T: FiringSink>(
        &self,
        env: &Env<'_, S>,
        depth: usize,
        frame: &mut [Value],
        out: &mut Vec<Tuple>,
        sink: &mut T,
    ) -> Result<()> {
        if depth == self.atoms.len() {
            return self.finish(env, frame, out, sink);
        }
        let ap = &self.atoms[depth];
        // Candidate tuples: the delta slice (through its per-call index
        // when the probe value is bound) for the delta position, a stored
        // index probe otherwise, full scan as the fallback. All variants
        // borrow — nothing is materialized.
        let candidates: Scan<'_> = match env.delta {
            Some((dp, dt)) if dp == depth => match (&ap.probe, &env.delta_index) {
                (Some(spec), Some(idx)) => match idx.get(&spec.delta_hash(frame)) {
                    Some(ids) => Scan::Hits { tuples: dt, ids: ids.iter() },
                    None => Scan::Empty,
                },
                _ => Scan::Slice(dt.iter()),
            },
            _ => match &ap.probe {
                Some(ProbeSpec::Field(f, key)) => env.source.probe(ap.rel, *f, key.resolve(frame)),
                Some(ProbeSpec::Key { fields, values }) => {
                    let key: Vec<Value> = values.iter().map(|k| k.resolve(frame).clone()).collect();
                    env.source.probe_key(&TupleKey::new(ap.rel, key), fields)
                }
                None => env.source.scan(ap.rel),
            },
        };
        'cand: for tuple in candidates {
            if tuple.arity() != ap.arity {
                continue;
            }
            let fields = tuple.fields();
            for op in &ap.ops {
                match op {
                    FieldOp::Check { field, value } => {
                        if &fields[*field] != value {
                            continue 'cand;
                        }
                    }
                    FieldOp::Test { field, slot } => {
                        if fields[*field] != frame[*slot] {
                            continue 'cand;
                        }
                    }
                    FieldOp::Bind { field, slot } => {
                        frame[*slot] = fields[*field].clone();
                    }
                }
            }
            if !self.run_steps(env, depth + 1, frame)? {
                continue;
            }
            sink.enter(tuple);
            let descended = self.join(env, depth + 1, frame, out, sink);
            sink.exit();
            descended?;
        }
        Ok(())
    }

    /// All positive atoms joined and every scheduled constraint applied:
    /// report unsafe constraints, check negations, emit the head tuple.
    fn finish<S: RelationSource, T: FiringSink>(
        &self,
        env: &Env<'_, S>,
        frame: &[Value],
        out: &mut Vec<Tuple>,
        sink: &mut T,
    ) -> Result<()> {
        if let Some(lit) = self.unsafe_constraints.first() {
            return Err(Error::eval(format!(
                "rule {}: constraint `{lit}` has unbound variables",
                self.rule.name.as_deref().unwrap_or("<unnamed>")
            )));
        }
        for np in &self.negs {
            if self.neg_has_match(env, np, frame) {
                return Ok(());
            }
        }
        let mut fields = Vec::with_capacity(self.head_ops.len());
        for op in &self.head_ops {
            match op {
                HeadOp::Const(v) => fields.push(v.clone()),
                HeadOp::Slot(s) => fields.push(frame[*s].clone()),
                HeadOp::Unbound(v) => {
                    return Err(Error::eval(format!(
                        "rule {}: head variable {v} is not bound by the body",
                        self.rule.name.as_deref().unwrap_or("<unnamed>")
                    )))
                }
            }
        }
        let head = Tuple::from_rel(self.head_rel, fields);
        sink.fired(&head);
        out.push(head);
        Ok(())
    }

    fn neg_has_match<S: RelationSource>(
        &self,
        env: &Env<'_, S>,
        np: &NegPlan,
        frame: &[Value],
    ) -> bool {
        let candidates = match &np.probe {
            Some((f, ProbeKey::Const(c))) => env.source.probe(np.rel, *f, c),
            Some((f, ProbeKey::Slot(s))) => env.source.probe(np.rel, *f, &frame[*s]),
            None => env.source.scan(np.rel),
        };
        'outer: for t in candidates {
            if t.arity() != np.arity {
                continue;
            }
            let fields = t.fields();
            for op in &np.ops {
                match op {
                    NegOp::Check { field, value } => {
                        if &fields[*field] != value {
                            continue 'outer;
                        }
                    }
                    NegOp::Test { field, slot } => {
                        if fields[*field] != frame[*slot] {
                            continue 'outer;
                        }
                    }
                }
            }
            return true;
        }
        false
    }
}

/// Evaluate `rule` against `source` with optional semi-naïve `delta`,
/// handling negated atoms by consulting `source`.
///
/// This compiles a throwaway [`RuleEval`] plan; callers on hot paths (the
/// [`Evaluator`], the distributed processor) compile once and reuse.
pub fn evaluate_rule<S: RelationSource>(
    rule: &Rule,
    builtins: &Builtins,
    source: &S,
    delta: Option<(usize, &[Tuple])>,
) -> Result<Vec<Tuple>> {
    RuleEval::new(rule).evaluate(builtins, source, delta)
}

// ---------------------------------------------------------------------------
// Reference (name-keyed) evaluator
// ---------------------------------------------------------------------------

/// Evaluate `rule` with the *reference* algorithm: name-keyed [`Bindings`]
/// cloned per candidate, body atoms joined in written order, no planning,
/// no probes. Semantically identical to [`RuleEval::evaluate`] (the
/// property tests pin this); kept for differential testing and debugging,
/// never used on hot paths.
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
            if negation_has_match(atom, *rel, bindings, source) {
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
        if !atom_prematch(atom, tuple, bindings) {
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

/// Quick rejection test before bindings are cloned for a candidate tuple:
/// every constant and every already-bound variable of `atom` must match the
/// tuple. Unbound variables are ignored (they bind during full unification).
fn atom_prematch(atom: &Atom, tuple: &Tuple, bindings: &Bindings) -> bool {
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
                if let Some(bound) = bindings.get(v) {
                    if bound != value {
                        return false;
                    }
                }
            }
        }
    }
    true
}

fn negation_has_match<S: RelationSource>(
    atom: &Atom,
    rel: RelId,
    bindings: &Bindings,
    source: &S,
) -> bool {
    'outer: for t in source.scan(rel) {
        if t.arity() != atom.arity() {
            continue;
        }
        for (term, value) in atom.terms.iter().zip(t.fields()) {
            match term {
                Term::Const(c) => {
                    if c != value {
                        continue 'outer;
                    }
                }
                Term::Var(v) => {
                    if let Some(bound) = bindings.get(v) {
                        if bound != value {
                            continue 'outer;
                        }
                    }
                    // unbound variable: wildcard
                }
            }
        }
        return true;
    }
    false
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

/// Group raw head tuples of an aggregate rule and compute the aggregate.
///
/// `head` must contain exactly one aggregate term; plain head positions form
/// the group-by key. `head_rel` is the head relation's pre-interned id
/// (compiled plans carry it as [`RuleEval::head_rel`]), so per-batch calls
/// never touch the intern table.
pub fn apply_aggregate(head: &Head, head_rel: RelId, raw: &[Tuple]) -> Result<Vec<Tuple>> {
    let (func, _, agg_pos) = head
        .aggregate()
        .ok_or_else(|| Error::eval("apply_aggregate called on a non-aggregate head"))?;

    let mut groups: HashMap<Vec<Value>, Vec<Value>> = HashMap::new();
    for t in raw {
        let mut key = Vec::with_capacity(t.arity() - 1);
        for (i, v) in t.fields().iter().enumerate() {
            if i != agg_pos {
                key.push(v.clone());
            }
        }
        let agg_val = t
            .field(agg_pos)
            .cloned()
            .ok_or_else(|| Error::eval("aggregate position missing in raw tuple"))?;
        groups.entry(key).or_default().push(agg_val);
    }

    let mut out = Vec::with_capacity(groups.len());
    for (key, values) in groups {
        let agg_value = match func {
            AggFunc::Min => values
                .iter()
                .cloned()
                .min_by(|a, b| a.compare_numeric(b))
                .ok_or_else(|| Error::eval("empty aggregate group"))?,
            AggFunc::Max => values
                .iter()
                .cloned()
                .max_by(|a, b| a.compare_numeric(b))
                .ok_or_else(|| Error::eval("empty aggregate group"))?,
            AggFunc::Count => Value::Int(values.len() as i64),
            AggFunc::Sum => {
                let mut acc = dr_types::Cost::ZERO;
                for v in &values {
                    acc = acc
                        + v.as_cost().ok_or_else(|| Error::eval("sum over non-numeric value"))?;
                }
                Value::Cost(acc)
            }
        };
        // Reassemble fields in head order.
        let mut fields = Vec::with_capacity(head.terms.len());
        let mut key_iter = key.into_iter();
        for (i, _) in head.terms.iter().enumerate() {
            if i == agg_pos {
                fields.push(agg_value.clone());
            } else {
                fields
                    .push(key_iter.next().ok_or_else(|| Error::eval("group key arity mismatch"))?);
            }
        }
        out.push(Tuple::from_rel(head_rel, fields));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Whole-program evaluator
// ---------------------------------------------------------------------------

/// Configuration for the centralized evaluator.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Use semi-naïve evaluation (true, the default) or naïve re-evaluation
    /// of every rule each iteration (for the ablation benchmark).
    pub semi_naive: bool,
    /// Enable the aggregate-selections optimization of paper §7.1: tuples
    /// that cannot improve a downstream `min`/`max` aggregate are pruned as
    /// soon as they are derived.
    pub aggregate_selections: bool,
    /// Hard cap on fixpoint iterations per stratum; exceeded means the query
    /// does not terminate on this input (paper §6's unsafe queries).
    pub max_iterations: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig { semi_naive: true, aggregate_selections: false, max_iterations: 100_000 }
    }
}

/// Statistics from one evaluator run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Total fixpoint iterations across all strata.
    pub iterations: usize,
    /// Number of rule evaluations performed.
    pub rule_firings: usize,
    /// Number of new tuples added to the database.
    pub tuples_derived: usize,
    /// Number of tuples suppressed by aggregate selections.
    pub tuples_pruned: usize,
    /// Number of strata evaluated.
    pub strata: usize,
}

/// The centralized stratified semi-naïve evaluator.
#[derive(Debug, Clone)]
pub struct Evaluator {
    program: Program,
    catalog: Catalog,
    stratification: Stratification,
    builtins: Builtins,
    config: EvalConfig,
    agg_selections: Vec<AggSelection>,
    /// One statically-planned [`RuleEval`] per program rule (same indexing
    /// as `program.rules`), built at construction. [`Evaluator::run`]
    /// re-plans against the database's cardinalities when it has any.
    compiled: Vec<RuleEval>,
}

impl Evaluator {
    /// Build an evaluator with default configuration and the standard
    /// builtin library.
    pub fn new(program: Program) -> Result<Evaluator> {
        Evaluator::with_config(program, EvalConfig::default())
    }

    /// Build an evaluator with a custom configuration.
    pub fn with_config(program: Program, config: EvalConfig) -> Result<Evaluator> {
        let catalog = Catalog::from_program(&program)?;
        let stratification = stratify(&program)?;
        let agg_selections = aggregate_selections(&program);
        let compiled = program.rules.iter().map(RuleEval::new).collect();
        Ok(Evaluator {
            program,
            catalog,
            stratification,
            builtins: Builtins::standard(),
            config,
            agg_selections,
            compiled,
        })
    }

    /// Replace the builtin function library (e.g. to register custom metric
    /// composition functions before running).
    pub fn set_builtins(&mut self, builtins: Builtins) {
        self.builtins = builtins;
    }

    /// The catalog derived from the program.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The program being evaluated.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The statically-compiled plans, one per program rule.
    pub fn plans(&self) -> &[RuleEval] {
        &self.compiled
    }

    /// Run the program to fixpoint on `db`. Base tables must already be
    /// populated; facts from the program are inserted automatically.
    pub fn run(&self, db: &mut Database) -> Result<EvalStats> {
        let mut stats =
            EvalStats { strata: self.stratification.num_strata(), ..Default::default() };

        // Declare keys from pragmas so derived relations honour upserts.
        for (rel, keys) in &self.program.key_pragmas {
            db.declare_key(rel, keys.clone());
        }

        // Re-plan against the database's current cardinalities (populated
        // base tables make join ordering meaningful); fall back to the
        // static plans on an empty database.
        let card = db.cardinalities();
        let plans: Vec<RuleEval> = if card.is_empty() {
            self.compiled.clone()
        } else {
            self.program.rules.iter().map(|r| RuleEval::with_stats(r, &card)).collect()
        };

        // Declare the secondary indexes the plans will probe, so every join
        // hits an incrementally-maintained index instead of re-hashing
        // relation contents per rule firing.
        for plan in &plans {
            for (rel, field) in plan.probe_fields() {
                db.declare_index(rel, field);
            }
        }

        // Insert ground facts.
        for rule in &self.program.rules {
            if rule.is_fact() {
                let t = head_tuple_from_bindings(
                    &rule.head,
                    RelId::intern(&rule.head.relation),
                    &Bindings::new(),
                    rule.name.as_deref(),
                )?;
                if db.insert(t).added {
                    stats.tuples_derived += 1;
                }
            }
        }

        // Track best-so-far per aggregate-selection group.
        let mut best: HashMap<(RelId, Vec<Value>), Value> = HashMap::new();

        for stratum_rules in &self.stratification.strata_rules {
            let rules: Vec<&RuleEval> =
                stratum_rules.iter().map(|&i| &plans[i]).filter(|c| !c.rule().is_fact()).collect();
            if rules.is_empty() {
                continue;
            }
            let (agg_rules, normal_rules): (Vec<&RuleEval>, Vec<&RuleEval>) =
                rules.iter().partition(|c| c.rule().head.has_aggregate());

            // Aggregate rules read only lower strata: evaluate once.
            for plan in &agg_rules {
                stats.rule_firings += 1;
                let raw = plan.evaluate(&self.builtins, db, None)?;
                for t in apply_aggregate(&plan.rule().head, plan.head_rel(), &raw)? {
                    if db.insert(t).added {
                        stats.tuples_derived += 1;
                    }
                }
            }

            // Fixpoint over the stratum's ordinary rules.
            self.fixpoint(&normal_rules, db, &mut best, &mut stats)?;
        }
        Ok(stats)
    }

    fn fixpoint(
        &self,
        rules: &[&RuleEval],
        db: &mut Database,
        best: &mut HashMap<(RelId, Vec<Value>), Value>,
        stats: &mut EvalStats,
    ) -> Result<()> {
        if rules.is_empty() {
            return Ok(());
        }
        // Which relations are derived by this stratum (candidates for deltas).
        let stratum_derived: Vec<RelId> = rules.iter().map(|c| c.head_rel()).collect();

        // Iteration 0: evaluate every rule in full.
        let mut delta: HashMap<RelId, Vec<Tuple>> = HashMap::new();
        for plan in rules {
            stats.rule_firings += 1;
            let derived = plan.evaluate(&self.builtins, db, None)?;
            for t in derived {
                self.try_insert(db, t, best, &mut delta, stats);
            }
        }
        stats.iterations += 1;

        // Semi-naïve iterations.
        let mut iterations = 1usize;
        while !delta.is_empty() {
            if iterations >= self.config.max_iterations {
                return Err(Error::eval(format!(
                    "fixpoint did not terminate within {} iterations",
                    self.config.max_iterations
                )));
            }
            iterations += 1;
            stats.iterations += 1;

            let current_delta = std::mem::take(&mut delta);
            for plan in rules {
                if !self.config.semi_naive {
                    // Naïve mode: re-evaluate the whole rule.
                    stats.rule_firings += 1;
                    let derived = plan.evaluate(&self.builtins, db, None)?;
                    for t in derived {
                        self.try_insert(db, t, best, &mut delta, stats);
                    }
                    continue;
                }
                // Semi-naïve: one evaluation per positive occurrence of a
                // relation that changed this round.
                for (i, &rel) in plan.positive_rels().iter().enumerate() {
                    if !stratum_derived.contains(&rel) {
                        continue;
                    }
                    let Some(dt) = current_delta.get(&rel) else { continue };
                    if dt.is_empty() {
                        continue;
                    }
                    stats.rule_firings += 1;
                    let derived = plan.evaluate(&self.builtins, db, Some((i, dt)))?;
                    for t in derived {
                        self.try_insert(db, t, best, &mut delta, stats);
                    }
                }
            }
        }
        Ok(())
    }

    /// Insert a derived tuple, honouring aggregate selections; record it in
    /// the delta map when it is new.
    fn try_insert(
        &self,
        db: &mut Database,
        t: Tuple,
        best: &mut HashMap<(RelId, Vec<Value>), Value>,
        delta: &mut HashMap<RelId, Vec<Tuple>>,
        stats: &mut EvalStats,
    ) {
        if self.config.aggregate_selections {
            if let Some(sel) = self.agg_selections.iter().find(|s| s.input_relation == t.rel()) {
                let key: Vec<Value> =
                    sel.group_fields.iter().filter_map(|&i| t.field(i).cloned()).collect();
                if let Some(value) = t.field(sel.value_field) {
                    let map_key = (t.rel(), key);
                    match best.get(&map_key) {
                        Some(existing) => {
                            // ∞-cost derivations all tie; keeping every one
                            // enumerates the whole path space during §8
                            // poisoning. One ∞ tombstone per group carries
                            // the same information, so further ties
                            // collapse.
                            let tie_at_infinity =
                                value.is_infinite_cost() && existing.is_infinite_cost();
                            let keep = !tie_at_infinity
                                && sel.func.rank(value, existing) != std::cmp::Ordering::Greater;
                            if !keep {
                                stats.tuples_pruned += 1;
                                return;
                            }
                            best.insert(map_key, value.clone());
                        }
                        None => {
                            best.insert(map_key, value.clone());
                        }
                    }
                }
            }
        }
        // Duplicate derivations dominate dense fixpoints; check membership
        // before paying the clone that a delta entry needs.
        if db.contains(&t) {
            return;
        }
        stats.tuples_derived += 1;
        let rel = t.rel();
        db.insert(t.clone());
        delta.entry(rel).or_default().push(t);
    }
}

#[cfg(test)]
#[path = "eval_tests.rs"]
mod tests;
