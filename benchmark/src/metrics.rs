//! The metric catalogue: every end-to-end metric with unit, direction and
//! regression bound, every per-layer metric name, and the six workloads.
//! `BENCHMARK.json` at the repository root repeats the driver-facing part
//! of this file; `tests/contract.rs` pins the two together.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How one end-to-end metric is judged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E2eSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit, in the driver's alphabet (letters, digits, `_/%.-`).
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// `compare` calls it a regression.
    pub bound: f64,
    /// Simulated-time or byte counts: deterministic given the seed, so two
    /// runs of the same code on the same seed must agree to the last digit.
    pub exact: bool,
    /// Defined on all six workloads and therefore reported on the driver's
    /// result line (`BENCHMARK.json` lists exactly these). Its bound there
    /// is `driver_bound`, which has to absorb what `bound` does not: other
    /// seeds are other inputs, and this shared box has minute-long slow
    /// spells of up to 1.6x (README, "Steadiness across seeds").
    pub driver_bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
    driver_bound: Option<f64>,
) -> E2eSpec {
    E2eSpec { name, unit, better, bound, exact, driver_bound }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, in report order.
pub const E2E: &[E2eSpec] = &[
    e2e("setup_s", "s", Lower, 0.25, false, Some(0.25)),
    e2e("run_wall_s", "s", Lower, 0.10, false, Some(0.25)),
    e2e("first_route_wall_ms", "ms", Lower, 0.10, false, Some(0.25)),
    e2e("converged_sim_s", "sim_sec", Lower, 0.02, true, Some(0.25)),
    e2e("per_node_kb", "KB", Lower, 0.02, true, Some(0.25)),
    e2e("recovery_sim_s", "sim_sec", Lower, 0.02, true, None),
    e2e("lifecycle_ops_per_s", "ops/s", Higher, 0.10, false, None),
    e2e("link_to_delta_p50_ms", "ms", Lower, 0.10, false, None),
    e2e("link_to_delta_tail_ms", "ms", Lower, 0.25, false, None),
    e2e("tick_p50_ms", "ms", Lower, 0.10, false, None),
    e2e("tick_tail_ms", "ms", Lower, 0.15, false, None),
    e2e("delta_frames_per_s", "frames/s", Higher, 0.10, false, None),
    e2e("peak_rss_mb", "MB", Lower, 0.10, false, Some(0.25)),
    e2e("routes_above_optimum", "count", Lower, 0.0, true, None),
    e2e("fail_ratio", "ratio", Lower, 0.0, true, None),
];

/// The spec of end-to-end metric `name`.
pub fn e2e_spec(name: &str) -> Option<&'static E2eSpec> {
    E2E.iter().find(|s| s.name == name)
}

/// One workload and why it exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Workload name.
    pub name: &'static str,
    /// One line: which layer does the work.
    pub why: &'static str,
}

/// The six workloads, in suite order.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "converge_static",
        why: "cold all-pairs Best-Path on transit-stub graphs, lossless: insert-only rule evaluation does the work, transport and service are idle",
    },
    WorkloadSpec {
        name: "converge_explained",
        why: "same query with provenance recording on, then explain every 20th route: the traced evaluator path and ProvStore writes",
    },
    WorkloadSpec {
        name: "churn_recover",
        why: "dense overlay under two fail/join cycles, lossless: retraction-heavy, tombstones, revival and prune eviction dominate (4:1 pruned:derived)",
    },
    WorkloadSpec {
        name: "lossy_recover",
        why: "same overlay, one cycle, 5% drop + 10% duplicate wire: sequencing, acks, retransmit scan and reorder buffer do the extra work",
    },
    WorkloadSpec {
        name: "svc_lifecycle",
        why: "issue/subscribe/advance/inject/stats/teardown rounds over two loopback TCP connections, closed loop: parse, localize, install, server hand-offs, codec",
    },
    WorkloadSpec {
        name: "svc_fanout",
        why: "32 sessions subscribed to the same 4 queries on a direct RoutingService: cursor rescans and per-subscriber re-encoding dominate each tick",
    },
];

/// Every per-layer metric the traced run reports, in report order. A
/// workload that does not exercise a layer reports 0 for its metrics.
pub const LAYERS: &[(&str, &str)] = &[
    ("datalog.parser.parse_us", "us"),
    ("datalog.parser.program_bytes", "bytes"),
    ("datalog.eval.central_ms", "ms"),
    ("datalog.eval.rule_firings", "count"),
    ("datalog.eval.tuples_derived", "count"),
    ("datalog.eval.tuples_pruned", "count"),
    ("datalog.eval.iterations", "count"),
    ("datalog.eval.distributed_over_central", "ratio"),
    ("core.localize.localize_us", "us"),
    ("core.harness.issue_us", "us"),
    ("core.harness.run_until_ms", "ms"),
    ("core.harness.results_ms", "ms"),
    ("core.harness.results_tuples", "count"),
    ("core.harness.cursor_poll_us", "us"),
    ("core.harness.cursor_scanned_tuples", "count"),
    ("core.harness.cursor_changed_tuples", "count"),
    ("core.harness.cursor_useful_ratio", "ratio"),
    ("core.harness.teardown_settle_ms", "ms"),
    ("core.processor.tuples_derived", "count"),
    ("core.processor.tuples_pruned", "count"),
    ("core.processor.tuples_sent", "count"),
    ("core.processor.tuples_received", "count"),
    ("core.processor.tombstones_collapsed", "count"),
    ("core.processor.prune_evicted", "count"),
    ("core.processor.tuples_rejected", "count"),
    ("core.processor.batches", "count"),
    ("core.processor.retransmits", "count"),
    ("core.processor.dups_dropped", "count"),
    ("core.processor.acks_sent", "count"),
    ("core.processor.gaps_skipped", "count"),
    ("core.processor.prune_ratio", "ratio"),
    ("core.processor.derived_per_route", "ratio"),
    ("core.processor.routes_above_optimum", "count"),
    ("core.processor.routes_wrong_after_increase", "count"),
    ("core.processor.lossless_ref_ms", "ms"),
    ("core.processor.lossy_over_lossless_wall", "ratio"),
    ("core.processor.large_lossy_ms", "ms"),
    ("core.processor.large_lossless_ms", "ms"),
    ("core.processor.large_lossy_over_lossless_wall", "ratio"),
    ("core.footprint.stored_tuples", "count"),
    ("core.footprint.prune_entries", "count"),
    ("core.footprint.pending_tuples", "count"),
    ("core.footprint.prov_records", "count"),
    ("core.footprint.residue", "count"),
    ("netsim.sim.events", "count"),
    ("netsim.sim.us_per_event", "us"),
    ("netsim.sim.bare_us_per_event", "us"),
    ("netsim.metrics.messages", "count"),
    ("netsim.metrics.bytes", "bytes"),
    ("netsim.metrics.bytes_per_message", "bytes"),
    ("netsim.metrics.dropped_fault", "count"),
    ("netsim.metrics.dropped_node_down", "count"),
    ("netsim.metrics.dropped_no_link", "count"),
    ("baselines.path_vector.wall_ms", "ms"),
    ("baselines.path_vector.per_node_kb", "KB"),
    ("baselines.path_vector.converged_sim_s", "sim_sec"),
    ("baselines.declarative_over_pv_wall", "ratio"),
    ("provenance.recorded", "count"),
    ("provenance.records_per_route", "ratio"),
    ("provenance.off_run_ms", "ms"),
    ("provenance.on_over_off_wall", "ratio"),
    ("provenance.explain_us", "us"),
    ("provenance.explain_steps", "count"),
    ("service.apply.issue_us", "us"),
    ("service.apply.teardown_us", "us"),
    ("service.apply.inject_us", "us"),
    ("service.apply.subscribe_us", "us"),
    ("service.apply.stats_us", "us"),
    ("service.advance_ms", "ms"),
    ("service.poll_ms", "ms"),
    ("service.poll_share", "ratio"),
    ("service.outbox.depth_max", "count"),
    ("service.lagged", "count"),
    ("service.errors", "count"),
    ("service.protocol.encode_delta_us", "us"),
    ("service.protocol.decode_delta_us", "us"),
    ("service.protocol.delta_bytes", "bytes"),
    ("service.protocol.delta_tuples", "count"),
    ("service.protocol.frames", "count"),
    ("service.protocol.bytes_out", "bytes"),
    ("service.protocol.duplicate_frame_ratio", "ratio"),
    ("service.server.connect_ms", "ms"),
    ("service.server.rtt_noop_p50_ms", "ms"),
    ("service.server.rtt_noop_tail_ms", "ms"),
    ("service.server.rtt_issue_p50_ms", "ms"),
    ("service.server.rtt_inject_p50_ms", "ms"),
    ("service.server.rtt_teardown_p50_ms", "ms"),
    ("service.server.rtt_advance5s_p50_ms", "ms"),
    ("service.server.tcp_over_inproc_issue", "ratio"),
    ("service.client.poll_pushed_us", "us"),
    ("service.client.pushes_stashed", "count"),
    ("workloads.topology_gen_ms", "ms"),
    ("workloads.nodes", "count"),
    ("workloads.links", "count"),
    ("trace.run_wall_s", "s"),
    ("trace.spans", "count"),
];
