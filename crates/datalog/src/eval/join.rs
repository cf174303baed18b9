//! Join execution: a compiled [`RuleEval`] run against a [`RelationSource`].
//!
//! Evaluation runs a nested-loop join over a single mutable frame
//! (`Vec<Value>` indexed by slot) — no per-candidate map cloning, no name
//! hashing — borrowing candidate tuples straight out of the source through
//! [`Scan`] cursors. The distributed processor in `dr-core` reuses this
//! layer directly: each network node evaluates its localized rules against
//! its local tables through the same plans.

use super::plan::{FieldOp, HeadOp, NegOp, NegPlan, ProbeKey, ProbeSpec, RuleEval, SlotExpr, Step};
use crate::ast::Rule;
use crate::builtins::{BuiltinFn, Builtins};
use crate::database::{Database, Scan};
use dr_types::hash::HashMap;
use dr_types::{Error, RelId, Result, Tuple, TupleKey, Value};

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
    /// [`apply_aggregate`](super::apply_aggregate) to group.
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
            let mut idx: HashMap<u64, Vec<usize>> = HashMap::default();
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
/// [`Evaluator`](super::Evaluator), the distributed processor) compile once and reuse.
pub fn evaluate_rule<S: RelationSource>(
    rule: &Rule,
    builtins: &Builtins,
    source: &S,
    delta: Option<(usize, &[Tuple])>,
) -> Result<Vec<Tuple>> {
    RuleEval::new(rule).evaluate(builtins, source, delta)
}
