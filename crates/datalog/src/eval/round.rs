//! One semi-naïve round, the engine's single delta schedule: which rule runs
//! against which delta occurrence, and when an aggregate is re-grouped. The
//! centralized [`Evaluator`](super::Evaluator) and the per-node processor in
//! `dr-core` both run their rules through [`round`].

use super::RuleEval;
use crate::ast::{AggFunc, Head};
use dr_types::hash::HashMap;
use dr_types::{Error, RelId, Result, Tuple, Value};

/// What one [`round`] produced.
#[derive(Debug, Default)]
pub struct Round {
    /// Every tuple the round's evaluations returned, aggregate rows included.
    pub derived: Vec<Tuple>,
    /// The re-grouped aggregate rows (also in `derived`). Their group's
    /// inputs changed, so rules consuming the aggregate must re-join against
    /// them even when the value itself is unchanged (§8).
    pub forced: Vec<Tuple>,
    /// One entry per failed evaluation, `(rule index, error)`; the round's
    /// other rules carry on.
    pub errors: Vec<(usize, Error)>,
}

/// Run one round of `rules` (each paired with the index errors report it
/// under) through `eval(rule_idx, plan, delta)`, which evaluates one rule
/// (see [`RuleEval::evaluate`]) against whatever source the caller holds and
/// returns what it adds to [`Round::derived`]. A caller may store those
/// tuples itself and return none, so later rules of the same round already
/// see them; the centralized evaluator does.
///
/// `deltas: None` is a full round, every rule evaluated in full. With
/// `Some`, a non-aggregate rule is evaluated once per positive atom
/// occurrence whose relation has a non-empty delta, that occurrence ranging
/// over the delta only. An aggregate rule is evaluated in full and re-grouped
/// through [`apply_aggregate`] in a full round, or when any positive or
/// negated input has a delta (a lower-stratum negated relation changes which
/// rows feed it).
pub fn round<'p>(
    rules: impl IntoIterator<Item = (usize, &'p RuleEval)>,
    deltas: Option<&HashMap<RelId, Vec<Tuple>>>,
    mut eval: impl FnMut(usize, &RuleEval, Option<(usize, &[Tuple])>) -> Result<Vec<Tuple>>,
) -> Round {
    let mut out = Round::default();
    let record = |out: &mut Round, ri, result: Result<Vec<Tuple>>| match result {
        Ok(tuples) => out.derived.extend(tuples),
        Err(e) => out.errors.push((ri, e)),
    };
    for (ri, plan) in rules {
        let head = &plan.rule().head;
        if head.has_aggregate() {
            let mut inputs = plan.positive_rels().iter().chain(plan.neg_rels());
            if deltas.is_some_and(|d| !inputs.any(|r| d.contains_key(r))) {
                continue;
            }
            let grouped =
                eval(ri, plan, None).and_then(|raw| apply_aggregate(head, plan.head_rel(), &raw));
            if let Ok(grouped) = &grouped {
                out.forced.extend_from_slice(grouped);
            }
            record(&mut out, ri, grouped);
        } else if let Some(deltas) = deltas {
            for (i, rel) in plan.positive_rels().iter().enumerate() {
                if let Some(delta) = deltas.get(rel).filter(|d| !d.is_empty()) {
                    record(&mut out, ri, eval(ri, plan, Some((i, delta))));
                }
            }
        } else {
            record(&mut out, ri, eval(ri, plan, None));
        }
    }
    out
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

    // Group key: the tuple's fields without the aggregate position.
    let mut groups: HashMap<Vec<Value>, Vec<Value>> = HashMap::default();
    for t in raw {
        if agg_pos >= t.arity() {
            return Err(Error::eval("aggregate position missing in raw tuple"));
        }
        let mut key = t.fields().to_vec();
        let value = key.remove(agg_pos);
        groups.entry(key).or_default().push(value);
    }

    let mut out = Vec::with_capacity(groups.len());
    for (mut fields, values) in groups {
        let agg_value = match func {
            AggFunc::Min => values.into_iter().min_by(|a, b| a.compare_numeric(b)),
            AggFunc::Max => values.into_iter().max_by(|a, b| a.compare_numeric(b)),
            AggFunc::Count => Some(Value::Int(values.len() as i64)),
            AggFunc::Sum => {
                Some(Value::Cost(values.iter().try_fold(dr_types::Cost::ZERO, |acc, v| {
                    v.as_cost()
                        .map(|c| acc + c)
                        .ok_or_else(|| Error::eval("sum over non-numeric value"))
                })?))
            }
        };
        fields.insert(agg_pos, agg_value.ok_or_else(|| Error::eval("empty aggregate group"))?);
        out.push(Tuple::from_rel(head_rel, fields));
    }
    Ok(out)
}
