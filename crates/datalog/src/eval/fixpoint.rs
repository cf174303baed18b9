//! The centralized fixpoint: a whole program run to completion on one
//! [`Database`] with stratified semi-naïve evaluation (paper §3.3) and the
//! aggregate selections of §7.1, one [`round`] at a time.

use super::round::round;
use super::RuleEval;
use crate::ast::{Program, Rule};
use crate::builtins::Builtins;
use crate::catalog::Catalog;
use crate::database::Database;
use crate::rewrite::{aggregate_selections, AggSelection};
use crate::stratify::{stratify, Stratification};
use dr_types::hash::HashMap;
use dr_types::{Error, RelId, Result, Tuple, Value};

/// Configuration for the centralized evaluator.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Use semi-naïve evaluation (true, the default) or naïve mode, which
    /// runs a full [`round`](super::round()) on every iteration: every rule
    /// re-evaluated in full. Naïve mode is the reference the semi-naïve
    /// mode is tested against.
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
            let (agg_rules, normal_rules): (Vec<(usize, &RuleEval)>, Vec<_>) = stratum_rules
                .iter()
                .map(|&i| (i, &plans[i]))
                .filter(|(_, c)| !c.rule().is_fact())
                .partition(|(_, c)| c.rule().head.has_aggregate());

            // Aggregate rules read only lower strata: one full round
            // evaluates each of them once.
            let grouped = round(agg_rules, None, |_, plan, delta| {
                stats.rule_firings += 1;
                plan.evaluate(&self.builtins, db, delta)
            });
            first_error(grouped.errors)?;
            for t in grouped.derived {
                if db.insert(t).added {
                    stats.tuples_derived += 1;
                }
            }
            if normal_rules.is_empty() {
                continue;
            }

            // Fixpoint over the stratum's ordinary rules: a full round, then
            // semi-naïve rounds over what the previous one added (naïve
            // mode: a full round every iteration) until nothing is new.
            // Each derivation is stored as soon as its rule has run, so
            // later rules of the same round already join against it.
            let mut last: Option<HashMap<RelId, Vec<Tuple>>> = None;
            for iteration in 1.. {
                let mut delta: HashMap<RelId, Vec<Tuple>> = HashMap::default();
                let schedule = last.as_ref().filter(|_| self.config.semi_naive);
                let fired = round(normal_rules.iter().copied(), schedule, |_, plan, d| {
                    stats.rule_firings += 1;
                    for t in plan.evaluate(&self.builtins, db, d)? {
                        self.try_insert(db, t, &mut best, &mut delta, &mut stats);
                    }
                    Ok(Vec::new())
                });
                first_error(fired.errors)?;
                stats.iterations += 1;
                if delta.is_empty() {
                    break;
                }
                if iteration >= self.config.max_iterations {
                    return Err(Error::eval(format!(
                        "fixpoint did not terminate within {} iterations",
                        self.config.max_iterations
                    )));
                }
                last = Some(delta);
            }
        }
        Ok(stats)
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

/// The first failure of a round, if any.
fn first_error(errors: Vec<(usize, Error)>) -> Result<()> {
    errors.into_iter().next().map_or(Ok(()), |(_, e)| Err(e))
}
