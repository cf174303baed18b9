//! Rule evaluation and the centralized semi-naïve fixpoint engine.
//!
//! The engine is one idea in four layers, one file each:
//!
//! * `plan` compiles a *single* rule into a [`RuleEval`]: variables become
//!   dense frame slots, the join planner orders the body atoms by estimated
//!   cost (fed by [`CardStats`](crate::database::CardStats) when the caller
//!   has them), and every atom, constraint, negation and head term is
//!   lowered into positional ops. [`JoinPlan`] exposes the decisions.
//! * `join` runs a compiled plan against any [`RelationSource`] over one
//!   reusable frame, optionally restricted to a semi-naïve delta and
//!   observed by a [`FiringSink`] (the provenance hook). The distributed
//!   processor in `dr-core` runs each node's localized rules through it.
//! * `round` is the engine's one delta schedule: [`round()`] decides which
//!   rule runs against which semi-naïve delta occurrence and when an
//!   aggregate is re-grouped ([`apply_aggregate`]). The distributed
//!   processor's per-batch round and the centralized fixpoint both call it.
//! * `fixpoint` holds the [`Evaluator`], which runs a whole program to
//!   fixpoint on a [`Database`](crate::database::Database) using stratified
//!   semi-naïve evaluation (paper §3.3's "semi-naïve fixpoint evaluation")
//!   and the aggregate-selections optimization of §7.1, one round at a
//!   time. Its naïve mode runs a full round on every iteration; it is the
//!   reference the semi-naïve mode is tested against.
//!
//! [`reference`](mod@reference) is not part of the engine: it is a deliberately simple
//! name-keyed evaluator, the oracle `tests/property_based.rs` and this
//! module's unit tests compare the compiled path against.

mod fixpoint;
mod join;
mod plan;
pub mod reference;
mod round;

pub use fixpoint::{EvalConfig, EvalStats, Evaluator};
pub use join::{evaluate_rule, Firing, FiringLog, FiringSink, NoTrace, RelationSource};
pub use plan::{JoinPlan, RuleEval};
pub use reference::evaluate_rule_reference;
pub use round::{apply_aggregate, round, Round};

#[cfg(test)]
mod tests;
