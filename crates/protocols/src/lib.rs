//! # dr-protocols
//!
//! Every routing protocol the paper expresses as a declarative query
//! (§3 and §5), packaged as builder functions that return parsed
//! [`Program`]s ready for centralized evaluation (`dr-datalog`) or
//! distributed execution (`dr-core`).
//!
//! | Paper | Builder |
//! |---|---|
//! | Network-Reachability (§3.2) | [`reachability::network_reachability`] |
//! | Distance-Vector + split horizon / poison reverse (§3.6) | [`distance_vector::distance_vector`], [`distance_vector::distance_vector_poison_reverse`] |
//! | Best-Path with pluggable metric (§5.1) | [`best_path::best_path`], [`best_path::best_path_for_metric`] |
//! | QoS-constrained Best-Path (§5.1) | [`best_path::best_path_with_cost_bound`] |
//! | Policy-Based Routing (§5.2) | [`policy::policy_routing`] |
//! | Dynamic Source Routing (§5.3) | [`dsr::dynamic_source_routing`] |
//! | Link-State flooding (§5.4) | [`link_state::link_state`] |
//! | Source-Specific Multicast (§5.5) | [`multicast::source_specific_multicast`] |
//! | Best-Path-Pairs (magic sets + left recursion, §7.2) | [`pairs::best_path_pairs`] |
//! | Best-Path-Pairs-Share (§7.3) | [`pairs::best_path_pairs_share`] |
//!
//! The concrete rules follow the paper's, with the syntactic adaptations
//! documented in `dr-datalog::parser` (the `@` location annotation and the
//! `f_initPath`/`f_prepend`/`f_append` spellings of `f_concatPath`). Rules
//! NR3/DV-poison that the paper introduces for incremental maintenance of
//! long-lived routes (§8) are included in the continuous variants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod best_path;
pub mod distance_vector;
pub mod dsr;
pub mod link_state;
pub mod multicast;
pub mod pairs;
pub mod policy;
pub mod reachability;

pub use best_path::{best_path, best_path_for_metric, best_path_with_cost_bound, PathMetric};
pub use distance_vector::{distance_vector, distance_vector_poison_reverse};
pub use dsr::dynamic_source_routing;
pub use link_state::link_state;
pub use multicast::source_specific_multicast;
pub use pairs::{best_path_pairs, best_path_pairs_share};
pub use policy::policy_routing;
pub use reachability::network_reachability;

use dr_datalog::ast::Program;
use dr_datalog::parse_program;

/// Interned ids of the relation vocabulary the built-in protocols share.
///
/// Every builder in this crate returns an *interned* program — parsing
/// mints the dense [`dr_types::RelId`] of every relation it names — and
/// these accessors hand consumers (experiments, tests, custom tooling) the
/// same ids without spelling the names twice. Each call is a pure intern
/// lookup.
pub mod rels {
    use dr_types::RelId;

    /// `link(@S,D,C)` — the neighbor-table base relation every protocol
    /// joins against.
    pub fn link() -> RelId {
        RelId::intern("link")
    }

    /// `path(@S,D,P,C)` — the path-vector relation of the Best-Path family.
    pub fn path() -> RelId {
        RelId::intern("path")
    }

    /// `bestPath(@S,D,P,C)` — the Best-Path result relation.
    pub fn best_path() -> RelId {
        RelId::intern("bestPath")
    }

    /// `bestPathCache(@N,D,P,C)` — the default cross-query sharing cache
    /// (§7.3).
    pub fn best_path_cache() -> RelId {
        RelId::intern("bestPathCache")
    }

    /// `magicSources(@S)` — the magic-sets seed relation (§7.2).
    pub fn magic_sources() -> RelId {
        RelId::intern("magicSources")
    }

    /// `magicDsts(@D)` — the pair-query destination filter (§7.2).
    pub fn magic_dsts() -> RelId {
        RelId::intern("magicDsts")
    }
}

/// Parse a protocol source string, panicking on error.
///
/// Protocol sources are compile-time constants written in this crate; a
/// parse failure is a bug in the crate, not a runtime condition, so the
/// builders unwrap through this helper (and the test suite parses every
/// protocol).
pub(crate) fn parse(src: &str) -> Program {
    parse_program(src).unwrap_or_else(|e| panic!("invalid built-in protocol source: {e}\n{src}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_datalog::{check_safety, Evaluator};

    /// Every protocol program must parse, stratify, and pass the paper's
    /// safety/termination analysis (§6).
    #[test]
    fn all_protocols_are_safe_and_evaluable() {
        let programs: Vec<(&str, Program)> = vec![
            ("network_reachability", network_reachability()),
            ("best_path", best_path()),
            ("best_path_bw", best_path_for_metric(PathMetric::WidestPath)),
            ("best_path_hops", best_path_for_metric(PathMetric::HopCount)),
            ("best_path_qos", best_path_with_cost_bound(50.0)),
            ("distance_vector", distance_vector(16.0)),
            ("dv_poison", distance_vector_poison_reverse(16.0)),
            ("dsr", dynamic_source_routing()),
            ("link_state", link_state()),
            ("policy", policy_routing()),
            ("multicast", source_specific_multicast(dr_types::NodeId::new(0), "g1")),
            ("pairs", best_path_pairs(dr_types::NodeId::new(0), dr_types::NodeId::new(1))),
            (
                "pairs_share",
                best_path_pairs_share(
                    dr_types::NodeId::new(0),
                    dr_types::NodeId::new(1),
                    "bestPathCache",
                ),
            ),
        ];
        for (name, program) in programs {
            assert!(!program.rules.is_empty(), "{name} has no rules");
            let report = check_safety(&program);
            assert!(report.is_safe(), "{name} failed the safety analysis: {report}");
            // Each program must also be accepted by the evaluator (catalog +
            // stratification succeed).
            Evaluator::new(program).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}
