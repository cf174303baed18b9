//! One function per experiment of the paper's evaluation (§9).
//!
//! Every experiment is a declarative scenario — a
//! [`dr_core::scenario::ScenarioBuilder`] chain composing the topology, the
//! event timeline (query streams, churn, link-RTT dynamics), and the typed
//! probes the figure plots — so a new experiment is one builder chain, not
//! a new hand-driven sampling loop. Every function returns printable
//! [`Series`] or rows and is wrapped by a thin binary in `src/bin/`, which
//! prints every figure and table built from that experiment's runs; no
//! simulation runs twice. Scales default to a laptop-friendly "quick"
//! configuration; `DR_FULL=1` switches to the paper's parameters.

use crate::runner::{
    average_link_rtt, full_scale, route_cost_map, run_best_path_query, run_path_vector_baseline,
    Series,
};
use dr_core::scenario::{Probe, QueryDef, ScenarioBuilder};
use dr_netsim::{FaultPlan, LinkFaults, LinkParams, SimDuration, SimTime, Topology};
use dr_protocols::{best_path, best_path_pairs, best_path_pairs_share};
use dr_types::NodeId;
use dr_workloads::{
    ChurnSchedule, LinkRttSchedule, MixedWorkload, OverlayKind, OverlayParams, PairWorkload,
    TransitStubParams,
};

// ---------------------------------------------------------------------------
// Figure 5 — network diameter vs number of nodes
// ---------------------------------------------------------------------------

/// Figure 5: diameter (latency of the longest shortest path, ms) of
/// transit-stub topologies as the node count grows.
pub fn fig05_diameter() -> Vec<Series> {
    let sizes: Vec<usize> =
        if full_scale() { vec![100, 200, 400, 600, 800, 1000] } else { vec![100, 200, 300, 400] };
    let runs = if full_scale() { 5 } else { 3 };
    let mut mean = Series::new("diameter_ms");
    let mut stddev = Series::new("stddev_ms");
    for &size in &sizes {
        let samples: Vec<f64> = (0..runs)
            .map(|r| {
                TransitStubParams::sized(size, 100 + r as u64).generate().diameter_latency_ms()
            })
            .collect();
        let m = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|s| (s - m) * (s - m)).sum::<f64>() / samples.len() as f64;
        mean.push(size as f64, m);
        stddev.push(size as f64, var.sqrt());
    }
    vec![mean, stddev]
}

// ---------------------------------------------------------------------------
// Figure 6 — convergence latency vs number of nodes (Query vs PV)
// ---------------------------------------------------------------------------

/// Figure 6: convergence latency of the all-pairs Best-Path query compared
/// against the hand-coded path-vector protocol, on growing transit-stub
/// networks. Also reports the per-node communication overhead of both.
pub fn fig06_convergence() -> Vec<Series> {
    let sizes: Vec<usize> =
        if full_scale() { vec![100, 200, 400, 600, 800, 1000] } else { vec![50, 100, 150] };
    let horizon = SimTime::from_secs(if full_scale() { 120 } else { 90 });
    let sample = SimDuration::from_millis(500);

    let mut query_latency = Series::new("query_convergence_s");
    let mut pv_latency = Series::new("pv_convergence_s");
    let mut query_overhead = Series::new("query_kb_per_node");
    let mut pv_overhead = Series::new("pv_kb_per_node");
    for &size in &sizes {
        let topo = TransitStubParams::sized(size, 7).generate();
        let q = run_best_path_query(topo.clone(), horizon, sample);
        let pv = run_path_vector_baseline(topo, horizon, sample);
        query_latency.push(size as f64, q.convergence_s.unwrap_or(f64::NAN));
        pv_latency.push(size as f64, pv.convergence_s.unwrap_or(f64::NAN));
        query_overhead.push(size as f64, q.per_node_kb);
        pv_overhead.push(size as f64, pv.per_node_kb);
    }
    vec![query_latency, pv_latency, query_overhead, pv_overhead]
}

// ---------------------------------------------------------------------------
// Figures 7 / 8 / 9 — source/destination query streams
// ---------------------------------------------------------------------------

/// Strategy for executing a stream of source/destination route requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairStrategy {
    /// One Best-Path-Pairs query per request, no sharing.
    NoShare,
    /// One Best-Path-Pairs-Share query per request, sharing results through
    /// `bestPathCache`.
    Share,
}

impl PairStrategy {
    /// Label used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            PairStrategy::NoShare => "Pair-NoShare",
            PairStrategy::Share => "Pair-Share",
        }
    }
}

/// Parameters of a pair-query stream experiment.
#[derive(Debug, Clone)]
pub struct PairStreamParams {
    /// Network size (transit-stub).
    pub nodes: usize,
    /// Number of route requests to issue.
    pub queries: usize,
    /// Fraction of nodes eligible as destinations (Fig. 8's "X% Dst").
    pub destination_fraction: f64,
    /// Simulated time between consecutive requests.
    pub spacing: SimDuration,
    /// Record the cumulative overhead every this many queries.
    pub checkpoint_every: usize,
    /// RNG seed for the workload and topology.
    pub seed: u64,
}

impl Default for PairStreamParams {
    fn default() -> Self {
        if full_scale() {
            PairStreamParams {
                nodes: 200,
                queries: 300,
                destination_fraction: 1.0,
                spacing: SimDuration::from_secs(15),
                checkpoint_every: 20,
                seed: 11,
            }
        } else {
            PairStreamParams {
                nodes: 60,
                queries: 60,
                destination_fraction: 1.0,
                spacing: SimDuration::from_secs(5),
                checkpoint_every: 10,
                seed: 11,
            }
        }
    }
}

/// Turn a per-checkpoint overhead scenario into the figure's series: the
/// q-th query's cumulative per-node KB, every `checkpoint_every` queries.
///
/// The scenario samples the overhead probe once per request slot, so the
/// (q-1)-th sample is the overhead right after the q-th request's slot —
/// exactly what the old hand-driven loop recorded.
fn checkpoint_series(name: &str, overhead: &[(f64, f64)], checkpoint_every: usize) -> Series {
    let mut series = Series::new(name);
    for (idx, (_, kb)) in overhead.iter().enumerate() {
        let q = idx + 1;
        if q % checkpoint_every == 0 {
            series.push(q as f64, *kb);
        }
    }
    series
}

/// The "All Pairs" line: one all-pairs query serves every request, so its
/// overhead does not depend on how many requests it serves and the series
/// is flat at `kb` on every checkpoint of `params`.
fn all_pairs_series(kb: f64, params: &PairStreamParams) -> Series {
    let mut series = Series::new("All Pairs");
    for q in (params.checkpoint_every..=params.queries).step_by(params.checkpoint_every) {
        series.push(q as f64, kb);
    }
    series
}

/// Run a stream of pair queries under `strategy` and return the cumulative
/// per-node overhead (KB) after every checkpoint.
pub fn run_pair_stream(strategy: PairStrategy, params: &PairStreamParams) -> Series {
    let topo = TransitStubParams::sized(params.nodes, params.seed).generate();
    let mut workload = PairWorkload::with_destination_fraction(
        params.nodes,
        params.destination_fraction,
        params.seed,
    );
    let mut defs = Vec::with_capacity(params.queries);
    for q in 1..=params.queries {
        let (src, dst) = workload.next_pair();
        let def = match strategy {
            PairStrategy::NoShare => QueryDef::new(best_path_pairs(src, dst))
                .named(format!("pair-{q}"))
                .replicated(["magicDsts"]),
            PairStrategy::Share => QueryDef::new(best_path_pairs_share(src, dst, "bestPathCache"))
                .named(format!("pair-share-{q}"))
                .replicated(["magicDsts"])
                .sharing(true),
        };
        defs.push(def.from(src).at(SimTime::ZERO + params.spacing.times(q as u64 - 1)));
    }
    let report = ScenarioBuilder::over(topo)
        .queries(defs)
        .probes([Probe::OverheadSeries])
        .sample_every(params.spacing)
        .until(SimTime::ZERO + params.spacing.times(params.queries as u64))
        .run()
        .expect("pair-stream scenario must localize");
    checkpoint_series(strategy.label(), &report.overhead_series, params.checkpoint_every)
}

/// Figures 7, 8 and 9, returned as `(fig07, fig08, fig09)`. Each distinct
/// stream runs once and feeds every figure that plots it.
///
/// - Fig. 7: per-node overhead vs number of requests for All-Pairs,
///   Pair-NoShare and Pair-Share.
/// - Fig. 8: the sharing strategy over a longer stream with progressively
///   restricted destination pools (all destinations, 20%, 1% in the paper;
///   20% and 5% at quick scale), plus the All-Pairs reference. Its
///   All-Pairs line is Fig. 7's run: same topology and horizon, only the
///   checkpoints differ. Its Pair-Share streams run on their own: the
///   120-query stream's overhead at query 60 (107.579 KB at quick scale) is
///   not the 60-query stream's (107.569 KB).
/// - Fig. 9: the mixed-metric workload (65% latency + three other metrics),
///   with and without the mid-stream switch to a single metric (Mix2),
///   against Fig. 7's Pair-NoShare and Pair-Share streams.
pub fn pair_streams() -> (Vec<Series>, Vec<Series>, Vec<Series>) {
    let params = PairStreamParams::default();
    let topo = TransitStubParams::sized(params.nodes, params.seed).generate();
    let horizon = SimTime::from_secs(if full_scale() { 120 } else { 90 });
    let all_pairs_kb = run_best_path_query(topo, horizon, SimDuration::from_secs(1)).per_node_kb;
    let no_share = run_pair_stream(PairStrategy::NoShare, &params);
    let share = run_pair_stream(PairStrategy::Share, &params);
    let fig07 = vec![all_pairs_series(all_pairs_kb, &params), no_share.clone(), share.clone()];

    let long = PairStreamParams {
        queries: if full_scale() { 2000 } else { 120 },
        checkpoint_every: if full_scale() { 100 } else { 20 },
        ..params.clone()
    };
    let fractions: Vec<(f64, &str)> = if full_scale() {
        vec![(1.0, "Pair-Share"), (0.2, "Pair-Share (20% Dst)"), (0.01, "Pair-Share (1% Dst)")]
    } else {
        vec![(1.0, "Pair-Share"), (0.2, "Pair-Share (20% Dst)"), (0.05, "Pair-Share (5% Dst)")]
    };
    let mut fig08 = vec![all_pairs_series(all_pairs_kb, &long)];
    for (fraction, label) in fractions {
        let params = PairStreamParams { destination_fraction: fraction, ..long.clone() };
        let mut series = run_pair_stream(PairStrategy::Share, &params);
        series.name = label.to_string();
        fig08.push(series);
    }

    let mut fig09 = vec![no_share, share];
    for (label, switch) in [
        ("Pair-Share-Mix", None),
        ("Pair-Share-Mix2", Some(if full_scale() { 150 } else { params.queries / 2 })),
    ] {
        fig09.push(run_mixed_stream(label, switch, &params));
    }
    (fig07, fig08, fig09)
}

fn run_mixed_stream(label: &str, switch: Option<usize>, params: &PairStreamParams) -> Series {
    let topo = TransitStubParams::sized(params.nodes, params.seed).generate();
    let mut workload = MixedWorkload::new(params.nodes, switch, params.seed);
    let mut defs = Vec::with_capacity(params.queries);
    for q in 1..=params.queries {
        let (src, dst, metric) = workload.next_query();
        let cache = metric.cache_relation();
        defs.push(
            QueryDef::new(best_path_pairs_share(src, dst, cache))
                .named(format!("{label}-{q}-{metric:?}"))
                .replicated(["magicDsts"])
                .sharing(true)
                .cache_relation(cache)
                .from(src)
                .at(SimTime::ZERO + params.spacing.times(q as u64 - 1)),
        );
    }
    let report = ScenarioBuilder::over(topo)
        .queries(defs)
        .probes([Probe::OverheadSeries])
        .sample_every(params.spacing)
        .until(SimTime::ZERO + params.spacing.times(params.queries as u64))
        .run()
        .expect("mixed-stream scenario must localize");
    checkpoint_series(label, &report.overhead_series, params.checkpoint_every)
}

// ---------------------------------------------------------------------------
// Tables 1 & 2 — overlay RTTs
// ---------------------------------------------------------------------------

/// One row of Tables 1/2.
#[derive(Debug, Clone)]
pub struct OverlayRttRow {
    /// Topology name.
    pub topology: String,
    /// Average link RTT (ms).
    pub avg_link_rtt: f64,
    /// Average shortest-path RTT (ms) computed by the all-pairs query.
    pub avg_path_rtt: f64,
    /// Number of computed paths.
    pub paths: usize,
}

/// Tables 1 and 2: average link RTT and average best-path RTT for the three
/// overlay topologies, under the baseline and the "heavier load" measurement
/// period.
pub fn tab01_02_overlay_rtt() -> Vec<OverlayRttRow> {
    let nodes = if full_scale() { 72 } else { 36 };
    let horizon = SimTime::from_secs(if full_scale() { 240 } else { 180 });
    let mut rows = Vec::new();
    let configs = [
        (OverlayKind::SparseRandom, 1.0, "Sparse-Random"),
        (OverlayKind::DenseRandom, 1.0, "Dense-Random"),
        (OverlayKind::DenseRandom, 1.2, "Dense-Random (loaded)"),
        (OverlayKind::DenseUunet, 1.2, "Dense-UUNET (loaded)"),
    ];
    for (kind, load, label) in configs {
        let params =
            OverlayParams { nodes, load_factor: load, ..OverlayParams::planetlab(kind, 21) };
        let topo = params.generate();
        let link_rtt = average_link_rtt(&topo);
        let outcome = run_best_path_query(topo, horizon, SimDuration::from_secs(2));
        rows.push(OverlayRttRow {
            topology: label.to_string(),
            avg_link_rtt: link_rtt,
            avg_path_rtt: outcome.avg_cost,
            paths: outcome.routes,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Figures 10 & 11 — query execution on the emulated PlanetLab overlays
// ---------------------------------------------------------------------------

/// Figures 10 and 11: AvgPathRTT over time during query execution, and
/// per-node bandwidth over time, for the Sparse-Random and Dense-Random
/// overlays. Returns `(avg_path_rtt_series, bandwidth_series)`.
pub fn fig10_11_planetlab() -> (Vec<Series>, Vec<Series>) {
    let nodes = if full_scale() { 72 } else { 36 };
    let horizon = SimTime::from_secs(if full_scale() { 180 } else { 120 });
    let mut rtt_series = Vec::new();
    let mut bw_series = Vec::new();
    for kind in [OverlayKind::SparseRandom, OverlayKind::DenseRandom] {
        let params = OverlayParams { nodes, ..OverlayParams::planetlab(kind, 33) };
        let report = ScenarioBuilder::over(params.generate())
            .query(QueryDef::new(best_path()))
            .sample_every(SimDuration::from_secs(2))
            .until(horizon)
            .probe(Probe::Bandwidth)
            .run()
            .expect("planetlab scenario must localize and decode");
        let mut rtt = Series::new(kind.name());
        for s in &report.queries[0].samples {
            rtt.push(s.time.as_secs_f64(), s.avg_cost);
        }
        rtt_series.push(rtt);
        let mut bw = Series::new(format!("{} (KBps/node)", kind.name()));
        for (t, bytes_per_s) in &report.bandwidth {
            bw.push(*t, bytes_per_s / 1024.0);
        }
        bw_series.push(bw);
    }
    (rtt_series, bw_series)
}

// ---------------------------------------------------------------------------
// Figures 12/13 and Table 3 — path adaptation under RTT fluctuation
// ---------------------------------------------------------------------------

/// Result of one adaptation run: one Table 3 row, and for Dense-Random also
/// the series of Fig. 12 (raw) or Fig. 13 (smoothed).
#[derive(Debug, Clone)]
pub struct AdaptationOutcome {
    /// AvgPathRTT over time.
    pub avg_path_rtt: Series,
    /// AvgLinkRTT (as reported to the query processors) over time.
    pub avg_link_rtt: Series,
    /// Fraction of (source, destination) pairs whose best path never changed
    /// after the initial convergence.
    pub stable_fraction: f64,
    /// Average number of best-path changes per pair.
    pub avg_changes: f64,
    /// Steady-state per-node bandwidth (bytes per second) during the update
    /// phase.
    pub steady_state_bps: f64,
    /// Overlay name.
    pub topology: String,
    /// Whether Jacobson/Karels smoothing was applied.
    pub smoothed: bool,
}

/// Figures 12/13 + Table 3: run the continuous all-pairs shortest-RTT query
/// on a random overlay while a [`LinkRttSchedule`] periodically refreshes
/// link RTT measurements (raw or smoothed), and measure how the computed
/// paths track the fluctuations and how stable they are.
pub fn adaptation_experiment(kind: OverlayKind, smoothed: bool, seed: u64) -> AdaptationOutcome {
    let nodes = if full_scale() { 72 } else { 36 };
    let rounds = if full_scale() { 10 } else { 6 };
    let round_interval = SimDuration::from_secs(if full_scale() { 300 } else { 40 });
    let warmup = SimTime::from_secs(if full_scale() { 180 } else { 120 });

    let params = OverlayParams { nodes, ..OverlayParams::planetlab(kind, seed) };
    let measurements =
        LinkRttSchedule::new(warmup, round_interval, rounds, smoothed, seed ^ 0x5eed);
    let report = ScenarioBuilder::over(params.generate())
        .query(QueryDef::new(best_path()))
        .source(&measurements)
        .sample_from(warmup)
        .sample_every(round_interval)
        .until(warmup + round_interval.times(rounds as u64))
        .probes([Probe::PathRtt, Probe::LinkRtt, Probe::PathChanges])
        .run()
        .expect("adaptation scenario must localize and decode");

    let changes = report.path_changes.as_ref().expect("PathChanges probe enabled");
    AdaptationOutcome {
        avg_path_rtt: Series::from_points(
            format!("AvgPathRTT ({})", kind.name()),
            &report.path_rtt,
        ),
        avg_link_rtt: Series::from_points("AvgLinkRTT", &report.link_rtt),
        stable_fraction: changes.stable_fraction(),
        avg_changes: changes.avg_changes(),
        steady_state_bps: report.window.per_node_bps,
        topology: kind.name().to_string(),
        smoothed,
    }
}

/// Table 3: the four stability rows (Sparse/Dense random, raw and smoothed).
/// The Dense-Random runs' series are Figures 12 (raw) and 13 (smoothed).
pub fn tab03_stability() -> Vec<AdaptationOutcome> {
    let mut rows = Vec::new();
    for kind in [OverlayKind::SparseRandom, OverlayKind::DenseRandom] {
        for smoothed in [false, true] {
            rows.push(adaptation_experiment(kind, smoothed, 51));
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Figures 14/15 and Table 4 — churn
// ---------------------------------------------------------------------------

/// Result of one churn run.
#[derive(Debug, Clone)]
pub struct ChurnOutcome {
    /// AvgPathRTT over time (the Fig. 14 curve for this failure fraction).
    pub avg_path_rtt: Series,
    /// Average path recovery time in seconds (Table 4). Per §9.1, recovery
    /// times exclude the failure-detection delay.
    pub avg_recovery_s: f64,
    /// Median recovery time in seconds.
    pub median_recovery_s: f64,
    /// Fraction of affected paths that needed ≥ 10 s to recover.
    pub slow_recovery_fraction: f64,
    /// Per-node bandwidth (bytes/s) during the churn phase.
    pub churn_bps: f64,
    /// The failure fraction used.
    pub fraction: f64,
    /// Overlay name.
    pub topology: String,
}

/// Figures 14/15 + Table 4: run the continuous query on an overlay and
/// inject alternating fail/join churn affecting `fraction` of the nodes.
pub fn churn_experiment(kind: OverlayKind, fraction: f64, seed: u64) -> ChurnOutcome {
    let nodes = if full_scale() { 72 } else { 36 };
    let cycles = if full_scale() { 4 } else { 2 };
    let interval = SimDuration::from_secs(if full_scale() { 150 } else { 60 });
    let warmup = SimTime::from_secs(if full_scale() { 180 } else { 120 });

    let params = OverlayParams { nodes, ..OverlayParams::planetlab(kind, seed) };
    let schedule =
        ChurnSchedule::alternating(nodes, fraction, warmup, interval, cycles, seed ^ 0xc0de);
    let report = ScenarioBuilder::over(params.generate())
        .query(QueryDef::new(best_path()))
        .source(&schedule)
        .sample_from(warmup)
        .sample_every(SimDuration::from_secs(1))
        .until(schedule.end_time() + interval)
        .probes([Probe::PathRtt, Probe::Recovery])
        .run()
        .expect("churn scenario must localize and decode");

    let mut recoveries = report.recovery_times();
    recoveries.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let avg_recovery = if recoveries.is_empty() {
        0.0
    } else {
        recoveries.iter().sum::<f64>() / recoveries.len() as f64
    };
    let median = if recoveries.is_empty() { 0.0 } else { recoveries[recoveries.len() / 2] };
    let slow = if recoveries.is_empty() {
        0.0
    } else {
        recoveries.iter().filter(|&&r| r >= 10.0).count() as f64 / recoveries.len() as f64
    };
    ChurnOutcome {
        avg_path_rtt: Series::from_points(
            format!("{} ({:.0}% nodes)", kind.name(), fraction * 100.0),
            &report.path_rtt,
        ),
        avg_recovery_s: avg_recovery,
        median_recovery_s: median,
        slow_recovery_fraction: slow,
        churn_bps: report.window.per_node_bps,
        fraction,
        topology: kind.name().to_string(),
    }
}

/// Table 4: recovery statistics under churn for several failure fractions
/// on the Dense-UUNET overlay, whose AvgPathRTT curves are Figure 14 (and
/// the close-up of Figure 15), plus the Dense-Random comparison the paper
/// describes in prose.
pub fn tab04_recovery() -> Vec<ChurnOutcome> {
    let fractions: &[f64] = if full_scale() { &[0.05, 0.1, 0.2] } else { &[0.1, 0.2] };
    let mut rows: Vec<ChurnOutcome> =
        fractions.iter().map(|&f| churn_experiment(OverlayKind::DenseUunet, f, 77)).collect();
    rows.push(churn_experiment(OverlayKind::DenseRandom, 0.1, 78));
    rows
}

// ---------------------------------------------------------------------------
// Partition / heal convergence (ROADMAP: "network partitions and heals")
// ---------------------------------------------------------------------------

/// Result of one partition/heal run.
#[derive(Debug, Clone)]
pub struct PartitionHealOutcome {
    /// AvgPathRTT over time through the partition (t=120 s) and the heal
    /// (t=240 s).
    pub avg_path_rtt: Series,
    /// Number of nodes severed onto the minority side of the cut.
    pub side_nodes: usize,
    /// Whether the mid-partition routes equal the union of the two
    /// side-subgraph oracles exactly (each side converges independently).
    pub mid_partition_exact: bool,
    /// Finite routes found mid-partition (intra-side pairs only).
    pub mid_partition_routes: usize,
    /// Finite routes crossing the cut mid-partition — must be zero once the
    /// invalidation wave has run.
    pub cross_cut_routes_mid: usize,
    /// Whether the post-heal routes equal a from-scratch recomputation on
    /// the whole topology exactly.
    pub post_heal_exact: bool,
    /// Finite routes after the heal.
    pub post_heal_routes: usize,
}

/// Partition a transit-stub overlay into two halves mid-query, pin that each
/// half re-converges to exactly its side-subgraph oracle (and that no
/// cross-cut route survives), then heal the cut and pin that the final
/// routes equal a from-scratch recomputation on the whole topology.
pub fn partition_heal_experiment(nodes: usize, seed: u64) -> PartitionHealOutcome {
    // `sized` only scales in whole ~100-node domains; below that, shrink the
    // per-domain structure instead (transit nodes × (1 + 3 stubs × 3 nodes)).
    let params = if nodes >= 100 {
        TransitStubParams::sized(nodes, seed)
    } else {
        TransitStubParams {
            domains: 1,
            transit_nodes_per_domain: (nodes / 10).max(2),
            stubs_per_transit_node: 3,
            nodes_per_stub: 3,
            seed,
            ..TransitStubParams::default()
        }
    };
    let topo = params.generate();
    let n = topo.num_nodes();
    let side: Vec<NodeId> = (n as u32 / 2..n as u32).map(NodeId::new).collect();
    let in_side = |node: NodeId| side.contains(&node);
    let warmup = SimTime::from_secs(120);
    let split = SimTime::from_secs(120);
    let rejoin = SimTime::from_secs(240);
    let end = SimTime::from_secs(360);

    // Run 1: partition only, stopped mid-partition.
    let mid = ScenarioBuilder::over(topo.clone())
        .query(QueryDef::new(best_path()))
        .partition(split, side.clone())
        .probes([])
        .sample_every(SimDuration::from_secs(10))
        .until(rejoin)
        .execute()
        .expect("partition scenario must localize and decode");
    let mid_map = route_cost_map(&mid.harness, &mid.handles[0], n);

    // Side-subgraph oracle: Dijkstra over the topology with every cut link
    // removed. A severed side may itself fall apart into islands (stub
    // nodes cut off from their transit hub); a graph oracle handles that
    // naturally where an engine re-run would not — the install flood of a
    // fresh query cannot reach the other islands, but the partitioned run
    // installed the query everywhere *before* the cut.
    let mut cut = Topology::new(n);
    for (a, b, p) in topo.all_links() {
        if in_side(a) == in_side(b) {
            cut.add_link(a, b, LinkParams { ..*p });
        }
    }
    let mut oracle_map = std::collections::BTreeMap::new();
    for src in cut.nodes() {
        for (dst, cost) in cut.cost_distances(src) {
            if dst != src {
                oracle_map.insert((src, dst), (cost * 1000.0).round() as u64);
            }
        }
    }
    let cross_cut_routes_mid = mid_map.keys().filter(|(a, b)| in_side(*a) != in_side(*b)).count();
    let mid_partition_exact = mid_map == oracle_map;

    // Run 2: partition then heal, sampled for the figure's RTT curve.
    let healed = ScenarioBuilder::over(topo.clone())
        .query(QueryDef::new(best_path()))
        .partition(split, side.clone())
        .heal(rejoin)
        .probes([Probe::PathRtt])
        .sample_every(SimDuration::from_secs(5))
        .until(end)
        .execute()
        .expect("partition/heal scenario must localize and decode");
    let healed_map = route_cost_map(&healed.harness, &healed.handles[0], n);

    let scratch = ScenarioBuilder::over(topo)
        .query(QueryDef::new(best_path()))
        .probes([])
        .sample_every(SimDuration::from_secs(60))
        .until(warmup)
        .execute()
        .expect("full-topology oracle must localize and decode");
    let scratch_map = route_cost_map(&scratch.harness, &scratch.handles[0], n);

    PartitionHealOutcome {
        avg_path_rtt: Series::from_points("AvgPathRTT", &healed.report.path_rtt),
        side_nodes: side.len(),
        mid_partition_exact,
        mid_partition_routes: mid_map.len(),
        cross_cut_routes_mid,
        post_heal_exact: healed_map == scratch_map,
        post_heal_routes: healed_map.len(),
    }
}

/// The partition/heal figure: quick scale splits a ~40-node transit-stub
/// graph, `DR_FULL=1` a ~100-node one.
pub fn fig_partition_heal() -> PartitionHealOutcome {
    partition_heal_experiment(if full_scale() { 100 } else { 40 }, 13)
}

// ---------------------------------------------------------------------------
// Chaos smoke — churn under a lossy wire vs the lossless oracle
// ---------------------------------------------------------------------------

/// Result of the chaos smoke run (the CI gate for the loss-tolerant
/// transport).
#[derive(Debug, Clone)]
pub struct ChaosSmokeOutcome {
    /// Finite routes at the end of the faulty run.
    pub routes: usize,
    /// Whether the faulty run's final routes equal the lossless run's with
    /// the identical churn timeline.
    pub matches_oracle: bool,
    /// Messages the fault plan destroyed (must be > 0 or the run proved
    /// nothing).
    pub dropped_fault: u64,
    /// Retransmissions the reliable transport performed.
    pub retransmits: u64,
    /// Duplicate batches suppressed at receivers.
    pub dups_dropped: u64,
}

/// The fig14/15 quick-scale churn workload on a 16-node Dense-UUNET overlay
/// under 5% loss + 10% duplication, compared against a lossless run with
/// the identical churn schedule. The alternating schedule ends with every
/// node rejoined, so both runs must converge to the same routes — the
/// hostile wire has to be invisible.
pub fn chaos_churn_smoke() -> ChaosSmokeOutcome {
    let nodes = 16;
    let seed = 77;
    let warmup = SimTime::from_secs(120);
    let interval = SimDuration::from_secs(60);
    let params = OverlayParams { nodes, ..OverlayParams::planetlab(OverlayKind::DenseUunet, seed) };
    let topo = params.generate();
    let schedule = ChurnSchedule::alternating(nodes, 0.2, warmup, interval, 2, seed ^ 0xc0de);
    let end = schedule.end_time() + interval;

    let faults =
        FaultPlan::new(seed).uniform(LinkFaults::none().with_drop(0.05).with_duplicate(0.10));
    let faulty = ScenarioBuilder::over(topo.clone())
        .query(QueryDef::new(best_path()))
        .source(&schedule)
        .faults(faults)
        .probes([])
        .sample_every(SimDuration::from_secs(10))
        .until(end)
        .execute()
        .expect("chaotic churn scenario must localize and decode");
    let faulty_map = route_cost_map(&faulty.harness, &faulty.handles[0], nodes);

    let lossless = ScenarioBuilder::over(topo)
        .query(QueryDef::new(best_path()))
        .source(&schedule)
        .probes([])
        .sample_every(SimDuration::from_secs(10))
        .until(end)
        .execute()
        .expect("lossless churn scenario must localize and decode");
    let lossless_map = route_cost_map(&lossless.harness, &lossless.handles[0], nodes);

    let stats = faulty.harness.processor_stats();
    ChaosSmokeOutcome {
        routes: faulty_map.len(),
        matches_oracle: faulty_map == lossless_map,
        dropped_fault: faulty.harness.sim().metrics().dropped_fault(),
        retransmits: stats.retransmits,
        dups_dropped: stats.dups_dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_strategy_labels() {
        assert_eq!(all_pairs_series(1.0, &PairStreamParams::default()).name, "All Pairs");
        assert_eq!(PairStrategy::NoShare.label(), "Pair-NoShare");
        assert_eq!(PairStrategy::Share.label(), "Pair-Share");
    }

    #[test]
    fn fig05_series_are_monotone_in_size() {
        let series = fig05_diameter();
        assert_eq!(series.len(), 2);
        let diameters = &series[0];
        assert!(diameters.points.len() >= 3);
        // Diameter never shrinks dramatically as the network grows.
        assert!(diameters.points.last().unwrap().1 >= diameters.points.first().unwrap().1);
        for (_, d) in &diameters.points {
            assert!(*d > 0.0);
        }
    }

    #[test]
    fn default_pair_stream_params_scale_with_env() {
        let p = PairStreamParams::default();
        assert!(p.nodes >= 60);
        assert!(p.queries >= 60);
        assert!(p.checkpoint_every > 0);
    }

    #[test]
    fn partition_heal_converges_per_side_and_recovers() {
        let o = partition_heal_experiment(20, 13);
        assert!(o.side_nodes > 0);
        assert_eq!(o.cross_cut_routes_mid, 0, "cross-cut routes must die mid-partition");
        assert!(o.mid_partition_exact, "each side must match its side-subgraph oracle");
        assert!(o.post_heal_exact, "post-heal routes must match the from-scratch oracle");
        assert!(o.post_heal_routes > o.mid_partition_routes);
    }

    #[test]
    fn checkpoint_series_maps_samples_to_query_counts() {
        let overhead: Vec<(f64, f64)> = (1..=8).map(|i| (i as f64 * 5.0, i as f64)).collect();
        let series = checkpoint_series("s", &overhead, 3);
        assert_eq!(series.points, vec![(3.0, 3.0), (6.0, 6.0)]);
    }
}
