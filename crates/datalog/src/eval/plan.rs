//! Compiled rule plans and the join planner.
//!
//! [`RuleEval::new`] / [`RuleEval::with_stats`] analyse a rule once: its
//! variables are interned into dense frame slots, the body atoms are ordered
//! by estimated join cost (exhaustive permutation search fed by
//! [`CardStats`] when the caller has them — declared upsert keys compile
//! into at-most-one-hit key probes), every atom is compiled into positional
//! field ops, each constraint is scheduled at the earliest join depth where
//! its variables are bound (constant-only constraints run once per call,
//! outside the join loop entirely), and the head is lowered into slot reads.
//! Running the plan is the `join` module's job.

use crate::ast::{ArithOp, Atom, CompareOp, Expr, HeadTerm, Literal, Rule, Term};
use crate::database::CardStats;
use dr_types::hash::{FastState, HashMap};
use dr_types::{RelId, Tuple, Value};
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};

/// How a planned atom locates its candidate tuples: probe a stored index on
/// `field` with either a compile-time constant or the current value of a
/// frame slot bound by earlier atoms.
#[derive(Debug, Clone, PartialEq)]
pub(super) enum ProbeKey {
    Const(Value),
    Slot(usize),
}

impl ProbeKey {
    /// The probe value under the current frame.
    pub(super) fn resolve<'a>(&'a self, frame: &'a [Value]) -> &'a Value {
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
pub(super) enum FieldOp {
    /// Field must equal a compile-time constant.
    Check { field: usize, value: Value },
    /// Field must equal an already-bound slot.
    Test { field: usize, slot: usize },
    /// First occurrence: write the field into its slot.
    Bind { field: usize, slot: usize },
}

/// How a planned atom locates its candidate tuples.
#[derive(Debug, Clone, PartialEq)]
pub(super) enum ProbeSpec {
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
    pub(super) fn delta_hash(&self, frame: &[Value]) -> u64 {
        let mut h = FastState::default().build_hasher();
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
    pub(super) fn tuple_hash(&self, t: &Tuple) -> Option<u64> {
        let mut h = FastState::default().build_hasher();
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
pub(super) struct AtomPlan {
    pub(super) rel: RelId,
    pub(super) arity: usize,
    pub(super) ops: Vec<FieldOp>,
    pub(super) probe: Option<ProbeSpec>,
}

/// An expression lowered onto frame slots; function names are resolved to
/// dense indices into the plan's function table (looked up in the
/// [`Builtins`] once per `evaluate` call, not per invocation).
#[derive(Debug, Clone)]
pub(super) enum SlotExpr {
    Const(Value),
    Slot(usize),
    Call { func: usize, args: Vec<SlotExpr> },
    BinOp { op: ArithOp, lhs: Box<SlotExpr>, rhs: Box<SlotExpr> },
}

/// A constraint scheduled at a specific join depth.
#[derive(Debug, Clone)]
pub(super) enum Step {
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
pub(super) enum NegOp {
    Check { field: usize, value: Value },
    Test { field: usize, slot: usize },
}

/// A negated body atom compiled against the frame layout.
#[derive(Debug, Clone)]
pub(super) struct NegPlan {
    pub(super) rel: RelId,
    pub(super) arity: usize,
    pub(super) ops: Vec<NegOp>,
    pub(super) probe: Option<(usize, ProbeKey)>,
}

/// How one head field is produced from a completed frame.
#[derive(Debug, Clone)]
pub(super) enum HeadOp {
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

/// Compiled evaluator for a single rule.
///
/// Construction analyses the rule once: variables are interned into dense
/// frame slots, the join planner orders the positive atoms by estimated
/// selectivity, every atom/constraint/negation/head term is lowered into
/// positional ops against the frame, and each probe field is recorded so
/// stores can declare the matching secondary index. Evaluation then runs a
/// nested-loop join over a single reusable frame, borrowing tuples straight
/// out of the [`RelationSource`](super::RelationSource) through [`Scan`](crate::database::Scan) cursors; nothing is
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
    pub(super) rule: Rule,
    /// Positive body atoms, in *body* order (delta positions refer to these).
    positive: Vec<Atom>,
    /// Interned relation of each positive atom, in body order.
    positive_rels: Vec<RelId>,
    /// Interned relation the head derives into.
    pub(super) head_rel: RelId,
    /// Frame layout: slot index → variable name.
    pub(super) slot_names: Vec<String>,
    /// Compiled positive atoms in *planned* order.
    pub(super) atoms: Vec<AtomPlan>,
    /// Original occurrence index → planned position.
    pub(super) planned_of: Vec<usize>,
    /// `steps[d]` runs once `d` planned atoms have matched; `steps[0]` runs
    /// once per evaluation, before the join loop.
    pub(super) steps: Vec<Vec<Step>>,
    /// Constraints whose variables are never all bound; reaching a full
    /// match with any of these reports the rule as unsafe.
    pub(super) unsafe_constraints: Vec<Literal>,
    /// Compiled negated atoms, checked after the positive join completes.
    pub(super) negs: Vec<NegPlan>,
    /// Interned relation of each negated atom.
    neg_rels: Vec<RelId>,
    /// Head emission program.
    pub(super) head_ops: Vec<HeadOp>,
    /// Function-name table for [`SlotExpr::Call`] resolution.
    pub(super) func_names: Vec<String>,
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

/// The probe value `term` supplies once the `bound` slots are set: its
/// constant, or the slot of a variable bound earlier. `None` for a variable
/// that is still unbound.
fn probe_key(term: &Term, bound: &[bool], slot_of: &HashMap<String, usize>) -> Option<ProbeKey> {
    match term {
        Term::Const(c) => Some(ProbeKey::Const(c.clone())),
        Term::Var(v) => {
            let slot = slot_of[v.as_str()];
            bound[slot].then_some(ProbeKey::Slot(slot))
        }
    }
}

/// The first field of `atom` that [`probe_key`] can probe, with its key:
/// the single-field probe of a positive atom without a bound declared key,
/// and of every negated atom.
fn field_probe(
    atom: &Atom,
    bound: &[bool],
    slot_of: &HashMap<String, usize>,
) -> Option<(usize, ProbeKey)> {
    atom.terms
        .iter()
        .enumerate()
        .find_map(|(field, term)| probe_key(term, bound, slot_of).map(|k| (field, k)))
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
    let key_probe = stats.and_then(|s| s.key_of(rel)).and_then(|kf| {
        if kf.is_empty() {
            return None;
        }
        let values: Option<Vec<ProbeKey>> =
            kf.iter().map(|&f| probe_key(atom.terms.get(f)?, bound, slot_of)).collect();
        Some(ProbeSpec::Key { fields: kf.to_vec(), values: values? })
    });
    let probe = key_probe
        .or_else(|| field_probe(atom, bound, slot_of).map(|(f, k)| ProbeSpec::Field(f, k)));
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
                let probe = field_probe(atom, &bound, &slot_of);
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
}
