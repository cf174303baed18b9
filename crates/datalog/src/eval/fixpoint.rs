//! The centralized fixpoint: a whole program run to completion on one
//! [`Database`] with stratified semi-naïve evaluation (paper §3.3) and the
//! aggregate selections of §7.1.

use super::RuleEval;
use crate::ast::{AggFunc, Head, Program, Rule};
use crate::builtins::Builtins;
use crate::catalog::Catalog;
use crate::database::Database;
use crate::rewrite::{aggregate_selections, AggSelection};
use crate::stratify::{stratify, Stratification};
use dr_types::hash::HashMap;
use dr_types::{Error, RelId, Result, Tuple, Value};

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

    let mut groups: HashMap<Vec<Value>, Vec<Value>> = HashMap::default();
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

/// Configuration for the centralized evaluator.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Use semi-naïve evaluation (true, the default) or naïve re-evaluation
    /// of every rule each iteration, the reference the semi-naïve mode is
    /// tested against.
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
        for t in self.program.rules.iter().filter_map(Rule::fact_tuple) {
            if db.insert(t).added {
                stats.tuples_derived += 1;
            }
        }

        // Track best-so-far per aggregate-selection group.
        let mut best: HashMap<(RelId, Vec<Value>), Value> = HashMap::default();

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
        let mut delta: HashMap<RelId, Vec<Tuple>> = HashMap::default();
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
