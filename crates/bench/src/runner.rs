//! Shared experiment plumbing: running the all-pairs Best-Path query (as a
//! one-line scenario) or the hand-coded path-vector baseline to
//! convergence, and formatting result series.

use dr_baselines::{PathVectorConfig, PathVectorNode};
use dr_core::scenario::{QueryDef, ScenarioBuilder, ScenarioReport};
use dr_netsim::{SimConfig, SimDuration, SimTime, Simulator, Topology};
use dr_protocols::best_path;

/// True when the `DR_FULL` environment variable requests paper-scale runs.
pub fn full_scale() -> bool {
    std::env::var("DR_FULL").map(|v| v == "1" || v.eq_ignore_ascii_case("true")).unwrap_or(false)
}

/// A named series of (x, y) points, printed as CSV.
#[derive(Debug, Clone)]
pub struct Series {
    /// Name of the series (legend label in the paper's figure).
    pub name: String,
    /// The data points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Create an empty series.
    pub fn new(name: impl Into<String>) -> Series {
        Series { name: name.into(), points: Vec::new() }
    }

    /// Create a series from `(x, y)` points.
    pub fn from_points(name: impl Into<String>, points: &[(f64, f64)]) -> Series {
        Series { name: name.into(), points: points.to_vec() }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Print one or more series as CSV to stdout, merging rows on x.
    ///
    /// Rows are produced by a k-way merge over every series' (ascending) x
    /// values: each row takes the smallest pending x and fills the cell of
    /// every series that has a point at exactly that x, leaving the others
    /// empty. Series with different axes therefore interleave correctly
    /// instead of silently borrowing the first series' x column (which
    /// used to skew figure CSVs whenever axes diverged).
    ///
    /// Panics on a non-finite x value — that is a generator bug, and a NaN
    /// axis cell would silently never merge.
    pub fn print_table(x_label: &str, series: &[Series]) {
        print!("{x_label}");
        for s in series {
            print!(",{}", s.name);
        }
        println!();
        for (x, cells) in Series::merge_rows(series) {
            print!("{x:.3}");
            for cell in cells {
                match cell {
                    Some(y) => print!(",{y:.3}"),
                    None => print!(","),
                }
            }
            println!();
        }
    }

    /// The k-way merge behind [`Series::print_table`]: rows of
    /// `(x, one cell per series)`, where a cell is `None` when that series
    /// has no point at this row's x.
    pub fn merge_rows(series: &[Series]) -> Vec<(f64, Vec<Option<f64>>)> {
        let mut cursor = vec![0usize; series.len()];
        let mut rows = Vec::new();
        loop {
            let mut x: Option<f64> = None;
            for (s, &c) in series.iter().zip(&cursor) {
                if let Some((sx, _)) = s.points.get(c) {
                    assert!(
                        sx.is_finite(),
                        "Series::print_table: non-finite x {sx} in series {:?}",
                        s.name
                    );
                    x = Some(match x {
                        None => *sx,
                        Some(m) => m.min(*sx),
                    });
                }
            }
            let Some(x) = x else { break };
            let mut row = Vec::with_capacity(series.len());
            for (s, c) in series.iter().zip(cursor.iter_mut()) {
                match s.points.get(*c) {
                    Some((sx, y)) if *sx == x => {
                        row.push(Some(*y));
                        *c += 1;
                    }
                    _ => row.push(None),
                }
            }
            rows.push((x, row));
        }
        rows
    }
}

/// Result of running a routing computation to convergence.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Convergence latency in seconds of simulated time (from query issue to
    /// the last change of the result set), when the run converged.
    pub convergence_s: Option<f64>,
    /// Per-node communication overhead in KB over the whole run.
    pub per_node_kb: f64,
    /// Number of finite-cost result tuples (routes) at the end.
    pub routes: usize,
    /// Average result cost at the end (AvgPathRTT when costs are RTTs).
    pub avg_cost: f64,
}

impl RunOutcome {
    /// Read the outcome of a single-query scenario report.
    pub fn of(report: &ScenarioReport) -> RunOutcome {
        let q = report.queries.first().expect("scenario issued a query");
        RunOutcome {
            convergence_s: q.converged_at.map(|t| t.as_secs_f64()),
            per_node_kb: report.per_node_overhead_kb,
            routes: q.final_results(),
            avg_cost: q.final_avg_cost(),
        }
    }
}

/// Run the all-pairs Best-Path query (issued at node 0 at t=0) over
/// `topology` until `horizon`, sampling every `sample` to detect
/// convergence.
pub fn run_best_path_query(
    topology: Topology,
    horizon: SimTime,
    sample: SimDuration,
) -> RunOutcome {
    let report = ScenarioBuilder::over(topology)
        .query(QueryDef::new(best_path()))
        .sample_every(sample)
        .until(horizon)
        .run()
        .expect("best-path scenario must localize and decode");
    RunOutcome::of(&report)
}

/// Run the hand-coded path-vector baseline over `topology` until `horizon`,
/// sampling every `sample`.
pub fn run_path_vector_baseline(
    topology: Topology,
    horizon: SimTime,
    sample: SimDuration,
) -> RunOutcome {
    let n = topology.num_nodes();
    let apps: Vec<PathVectorNode> =
        (0..n).map(|_| PathVectorNode::new(PathVectorConfig::default())).collect();
    let mut sim = Simulator::new(topology, apps, SimConfig::default());

    let mut last_state = (0usize, 0.0f64);
    let mut converged_at: Option<f64> = None;
    let mut t = SimTime::ZERO;
    while t < horizon {
        t += sample;
        sim.run_until(t);
        let routes: usize = sim.apps().map(|a| a.reachable_destinations()).sum();
        let total_cost: f64 = sim
            .apps()
            .flat_map(|a| a.routes().values())
            .filter(|r| r.cost.is_finite())
            .map(|r| r.cost.value())
            .sum();
        let avg = if routes > 0 { total_cost / routes as f64 } else { 0.0 };
        if (routes, avg) != last_state {
            last_state = (routes, avg);
            converged_at = Some(t.as_secs_f64());
        }
    }
    RunOutcome {
        convergence_s: converged_at,
        per_node_kb: sim.metrics().per_node_overhead_kb(),
        routes: last_state.0,
        avg_cost: last_state.1,
    }
}

/// Finite best-path costs per (src, dst), read from each node's own store,
/// in integer milli-cost (so two runs can be compared exactly — identical
/// float sums round identically).
pub fn route_cost_map(
    harness: &dr_core::harness::RoutingHarness,
    handle: &dr_core::harness::QueryHandle,
    num_nodes: usize,
) -> std::collections::BTreeMap<(dr_types::NodeId, dr_types::NodeId), u64> {
    let mut out = std::collections::BTreeMap::new();
    for i in 0..num_nodes as u32 {
        let node = dr_types::NodeId::new(i);
        for route in handle.results_at(harness, node).expect("routes decode") {
            if route.src != node || !route.cost.is_finite() {
                continue;
            }
            out.insert((route.src, route.dst), (route.cost.value() * 1000.0).round() as u64);
        }
    }
    out
}

/// Average link RTT (cost metric) of a topology.
pub fn average_link_rtt(topology: &Topology) -> f64 {
    let mut total = 0.0;
    let mut count = 0usize;
    for (_, _, p) in topology.all_links() {
        if p.cost.is_finite() {
            total += p.cost.value();
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_workloads::TransitStubParams;

    #[test]
    fn series_table_prints_aligned_columns() {
        let mut a = Series::new("query");
        a.push(100.0, 1.5);
        a.push(200.0, 2.5);
        let mut b = Series::new("pv");
        b.push(100.0, 1.0);
        b.push(200.0, 2.0);
        // just exercise the printer; output goes to stdout
        Series::print_table("nodes", &[a, b]);
    }

    #[test]
    fn series_table_merges_mismatched_axes() {
        // Regression: the printer used to take x values from the first
        // series only and pad the rest positionally, silently skewing any
        // figure whose series sampled different x values. The merge is
        // exercised here; the row structure is pinned by merge_rows below.
        let mut a = Series::new("a");
        a.push(1.0, 10.0);
        a.push(3.0, 30.0);
        let mut b = Series::new("b");
        b.push(2.0, 20.0);
        b.push(3.0, 31.0);
        b.push(4.0, 40.0);
        Series::print_table("x", &[a, b]);
    }

    #[test]
    fn mismatched_axes_merge_on_x_instead_of_position() {
        let a = Series::from_points("a", &[(1.0, 10.0), (3.0, 30.0)]);
        let b = Series::from_points("b", &[(2.0, 20.0), (3.0, 31.0), (4.0, 40.0)]);
        let rows = Series::merge_rows(&[a, b]);
        assert_eq!(
            rows,
            vec![
                (1.0, vec![Some(10.0), None]),
                (2.0, vec![None, Some(20.0)]),
                (3.0, vec![Some(30.0), Some(31.0)]),
                (4.0, vec![None, Some(40.0)]),
            ]
        );
        // Shared axes collapse to one row per x (the common figure case).
        let a = Series::from_points("a", &[(1.0, 10.0), (2.0, 11.0)]);
        let b = Series::from_points("b", &[(1.0, 20.0), (2.0, 21.0)]);
        let rows = Series::merge_rows(&[a, b]);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|(_, cells)| cells.iter().all(Option::is_some)));
    }

    #[test]
    fn query_and_baseline_agree_on_a_small_network() {
        let topo = TransitStubParams {
            domains: 1,
            transit_nodes_per_domain: 2,
            stubs_per_transit_node: 1,
            nodes_per_stub: 4,
            ..TransitStubParams::default()
        }
        .generate();
        let n = topo.num_nodes();
        let q =
            run_best_path_query(topo.clone(), SimTime::from_secs(60), SimDuration::from_secs(1));
        let pv = run_path_vector_baseline(topo, SimTime::from_secs(60), SimDuration::from_secs(1));
        assert_eq!(q.routes, n * (n - 1), "query must find all pairs");
        assert_eq!(pv.routes, n * (n - 1), "baseline must find all pairs");
        // both optimise the same metric, so average path costs agree closely
        assert!(
            (q.avg_cost - pv.avg_cost).abs() < 1e-6,
            "query avg {} vs baseline avg {}",
            q.avg_cost,
            pv.avg_cost
        );
        assert!(q.convergence_s.is_some());
        assert!(q.per_node_kb > 0.0);
        assert!(pv.per_node_kb > 0.0);
    }

    #[test]
    fn average_link_rtt_matches_topology() {
        let topo = TransitStubParams::sized(100, 3).generate();
        let avg = average_link_rtt(&topo);
        assert!(avg > 0.0 && avg < 50.0);
        assert_eq!(average_link_rtt(&dr_netsim::Topology::new(3)), 0.0);
    }
}
