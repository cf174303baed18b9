//! Declarative scenarios: one builder chain per experiment.
//!
//! The paper's entire evaluation (§9, Figs. 5–15, Tabs. 1–4) repeats one
//! choreography with different topologies, event schedules, and
//! measurements: build a topology, issue one or more queries, perturb the
//! world while time advances, and sample what the deployment computes. A
//! [`Scenario`] captures that choreography as *data*:
//!
//! * a topology,
//! * an **event timeline** — query issuance at chosen times
//!   ([`QueryDef`]), plus any [`dr_netsim::timeline::TimelineEvent`]s:
//!   node fail/join (churn schedules), link-metric changes (RTT
//!   measurement/jitter schedules from `dr-workloads`), and ad-hoc
//!   [`NetMsg`] injections, and
//! * **typed probes** ([`Probe`]) — result-set samples with convergence
//!   detection, the churn-aware AvgPathRTT series, reported AvgLinkRTT,
//!   per-path recovery times (the §9.1 definition: failure *detection*
//!   delay is excluded), path-change counting, the netsim bandwidth
//!   time-series, a per-node-overhead series, and processor counters.
//!
//! [`Scenario::run`] executes the timeline deterministically and returns a
//! [`ScenarioReport`]; [`Scenario::execute`] additionally hands back the
//! harness and the typed [`QueryHandle`]s for follow-on inspection
//! (forwarding tables, per-node stores). Same builder + same seeds ⇒ the
//! same report, byte for byte.
//!
//! # Example
//!
//! Heal a failed node on a triangle and measure the recovery:
//!
//! ```
//! use dr_core::scenario::{Probe, QueryDef, ScenarioBuilder};
//! use dr_datalog::parse_program;
//! use dr_netsim::{LinkParams, SimDuration, SimTime, Topology};
//! use dr_types::{Cost, NodeId};
//!
//! let program = parse_program(
//!     r#"
//!     #key(link, 0, 1).
//!     #key(path, 0, 1, 2).
//!     #key(bestPathCost, 0, 1).
//!     #key(bestPath, 0, 1).
//!     NR1: path(@S,D,P,C) :- link(@S,D,C), P = f_initPath(S,D).
//!     NR2: path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2),
//!          C = C1 + C2, P = f_prepend(S,P2), f_inPath(P2,S) = false.
//!     NR3: path(@S,D,P,C) :- link(@S,W,C1), path(@S,D,P,C2),
//!          f_inPath(P,W) = true, C1 = infinity, C = infinity.
//!     BPR1: bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).
//!     BPR2: bestPath(@S,D,P,C) :- bestPathCost(@S,D,C), path(@S,D,P,C).
//!     Query: bestPath(@S,D,P,C).
//!     "#,
//! )?;
//!
//! // Triangle: cheap route 0-1-2, expensive direct edge 0-2.
//! let mut topology = Topology::new(3);
//! let link = |ms: f64, c: f64| LinkParams::with_latency_ms(ms).with_cost(Cost::new(c));
//! topology.add_bidirectional(NodeId::new(0), NodeId::new(1), link(5.0, 1.0));
//! topology.add_bidirectional(NodeId::new(1), NodeId::new(2), link(5.0, 1.0));
//! topology.add_bidirectional(NodeId::new(0), NodeId::new(2), link(5.0, 5.0));
//!
//! let report = ScenarioBuilder::over(topology)
//!     .query(QueryDef::new(program).named("triangle-best-path"))
//!     .fail(SimTime::from_secs(20), NodeId::new(1))
//!     .sample_every(SimDuration::from_secs(1))
//!     .until(SimTime::from_secs(40))
//!     .probe(Probe::Recovery)
//!     .run()?;
//!
//! assert!(report.queries[0].converged_at.is_some());
//! // The 0 -> 2 route healed onto the direct edge; the reported recovery
//! // time excludes the failure-detection delay (§9.1).
//! let healed = report.recoveries.iter().find(|r| r.dst == NodeId::new(2)).unwrap();
//! assert!(healed.recovery_s >= 0.0);
//! # Ok::<(), dr_types::Error>(())
//! ```

use crate::harness::{average_cost_of, converged_at, QueryHandle, RoutingHarness, Sample};
use crate::processor::{NetMsg, ProcessorStats, ReliabilityConfig};
pub use crate::query::QueryDef;
use dr_netsim::timeline::{EventSource, TimelineEvent};
use dr_netsim::{FaultPlan, LinkParams, SimDuration, SimTime, Topology};
use dr_types::view::CostView;
use dr_types::{Error, NodeId, Result, RouteEntry};
use std::collections::{BTreeMap, BTreeSet};

/// The measurements a scenario records while its timeline plays out.
///
/// Every probe samples at the scenario's cadence inside its sampling
/// window; what each one computes is pinned to the paper's definitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Per-query finite-result samples (count + average cost) with
    /// convergence detection — the measurement behind Figs. 6 and 10.
    /// Enabled by default; costs one result-set decode per query per
    /// sample, so disable it (`probes([...])`) for large query streams.
    ResultSets,
    /// The AvgPathRTT series of the tracked query, excluding pairs whose
    /// endpoints are currently failed and routes traversing a currently
    /// failed node (Figs. 12–15).
    PathRtt,
    /// The reported AvgLinkRTT series: the mean link cost as of each
    /// sample, replayed from the timeline's link-change events (Figs.
    /// 12/13's reference curve).
    LinkRtt,
    /// Per-path recovery times under churn (§9.1, Table 4): a pair starts
    /// pending when a timeline failure breaks its current route, and
    /// recovers at the first sample where it again has a finite route
    /// avoiding every currently-failed node. The reported
    /// [`Recovery::recovery_s`] *excludes* the failure-detection delay,
    /// per the paper's definition.
    Recovery,
    /// Best-path change counting for the tracked query (Table 3): pairs
    /// whose path differs between consecutive samples, measured against
    /// the pair set present when the sampling window opened.
    PathChanges,
    /// The per-node bandwidth time-series from the netsim [`dr_netsim::Metrics`]
    /// (Fig. 11).
    Bandwidth,
    /// Cumulative per-node communication overhead (KB) at every sample —
    /// the Figs. 7–9 measurement for query streams.
    OverheadSeries,
    /// Deployment-wide [`ProcessorStats`] at every sample (derivation /
    /// tombstone budgets for regression tests).
    ProcessorStats,
}

/// One recovered path (the §9.1 recovery-time measurement).
#[derive(Debug, Clone, PartialEq)]
pub struct Recovery {
    /// Route source.
    pub src: NodeId,
    /// Route destination.
    pub dst: NodeId,
    /// When the breaking failure happened.
    pub failed_at: SimTime,
    /// The sample time at which the pair had a valid route again.
    pub recovered_at: SimTime,
    /// Recovery time in seconds, **excluding** the failure-detection delay
    /// (the paper measures from when the routing infrastructure notices
    /// the failure, not from the failure itself).
    pub recovery_s: f64,
}

/// Path-stability counters (Table 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathChangeStats {
    /// Pairs present when the sampling window opened.
    pub pairs: usize,
    /// Pairs whose best path changed at least once.
    pub changed_pairs: usize,
    /// Total best-path changes across all pairs.
    pub total_changes: usize,
}

impl PathChangeStats {
    /// Fraction of pairs whose best path never changed.
    pub fn stable_fraction(&self) -> f64 {
        1.0 - self.changed_pairs as f64 / self.pairs.max(1) as f64
    }

    /// Average number of best-path changes per pair.
    pub fn avg_changes(&self) -> f64 {
        self.total_changes as f64 / self.pairs.max(1) as f64
    }
}

/// One resolved timeline event, as recorded in the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// When the event fired.
    pub time: SimTime,
    /// Short description ("fail n3", "link n1->n2 cost 42", ...).
    pub summary: String,
}

/// Byte accounting over the sampling window (`sample_from` → end of run).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// When the sampling window opened.
    pub start: SimTime,
    /// Simulated time when the run ended.
    pub end: SimTime,
    /// Bytes sent deployment-wide during the window.
    pub bytes: u64,
    /// Average per-node bandwidth during the window (bytes per second) —
    /// Table 3's steady-state and Table 4's churn bandwidth.
    pub per_node_bps: f64,
}

/// What one query computed over the run.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReport {
    /// The query's name (from its [`QueryDef`]).
    pub name: String,
    /// Result-set samples (empty unless [`Probe::ResultSets`] is enabled).
    pub samples: Vec<Sample>,
    /// The earliest sampled time after which the result set never changed
    /// again, if the query converged at all.
    pub converged_at: Option<SimTime>,
}

impl QueryReport {
    /// The final sampled result count (0 when nothing was sampled).
    pub fn final_results(&self) -> usize {
        self.samples.last().map(|s| s.results).unwrap_or(0)
    }

    /// The final sampled average cost (0 when nothing was sampled).
    pub fn final_avg_cost(&self) -> f64 {
        self.samples.last().map(|s| s.avg_cost).unwrap_or(0.0)
    }
}

/// Everything a scenario measured. Plain data: deriving [`PartialEq`] (and
/// comparing `Debug` renderings) is how the determinism tests pin that
/// equal builders with equal seeds reproduce equal runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Per-query reports, in issuance order.
    pub queries: Vec<QueryReport>,
    /// The resolved timeline, in execution order.
    pub events: Vec<EventRecord>,
    /// AvgPathRTT series `(time_s, ms)` of the tracked query
    /// ([`Probe::PathRtt`]).
    pub path_rtt: Vec<(f64, f64)>,
    /// Reported AvgLinkRTT series `(time_s, ms)` ([`Probe::LinkRtt`]).
    pub link_rtt: Vec<(f64, f64)>,
    /// Recovered paths ([`Probe::Recovery`]), in recovery order.
    pub recoveries: Vec<Recovery>,
    /// Path-stability counters ([`Probe::PathChanges`]).
    pub path_changes: Option<PathChangeStats>,
    /// Cumulative per-node overhead series `(time_s, KB)`
    /// ([`Probe::OverheadSeries`]).
    pub overhead_series: Vec<(f64, f64)>,
    /// Per-node bandwidth series `(time_s, bytes/s)` ([`Probe::Bandwidth`]).
    pub bandwidth: Vec<(f64, f64)>,
    /// Deployment-wide processor counters per sample
    /// ([`Probe::ProcessorStats`]).
    pub stats_series: Vec<(f64, ProcessorStats)>,
    /// Total per-node communication overhead (KB) over the whole run.
    pub per_node_overhead_kb: f64,
    /// Byte accounting over the sampling window.
    pub window: WindowStats,
}

impl ScenarioReport {
    /// The recovery times in seconds, in recovery order (Table 4 input).
    pub fn recovery_times(&self) -> Vec<f64> {
        self.recoveries.iter().map(|r| r.recovery_s).collect()
    }
}

/// A finished run: the report plus the live harness and typed handles for
/// follow-on inspection (forwarding tables, per-node result stores,
/// processor internals).
pub struct ScenarioRun {
    /// Everything the probes measured.
    pub report: ScenarioReport,
    /// The harness, positioned at the end of the run.
    pub harness: RoutingHarness,
    /// One typed handle per [`QueryDef`], in issuance order.
    pub handles: Vec<QueryHandle<RouteEntry>>,
}

/// Fluent constructor for a [`Scenario`]. Start with
/// [`ScenarioBuilder::over`], add queries / timeline events / probes, and
/// finish with [`run`](ScenarioBuilder::run) or
/// [`execute`](ScenarioBuilder::execute).
#[must_use = "a scenario only runs when run()/execute() is called"]
pub struct ScenarioBuilder {
    topology: Topology,
    queries: Vec<QueryDef>,
    events: Vec<TimelineEvent<NetMsg>>,
    sample_every: SimDuration,
    sample_from: SimTime,
    horizon: SimTime,
    probes: Vec<Probe>,
    tracked: usize,
    fault_plan: Option<FaultPlan>,
    reliability: Option<ReliabilityConfig>,
}

impl ScenarioBuilder {
    /// A scenario over `topology` with the defaults: 200 ms batch
    /// interval, sampling every second from t=0 until t=60 s, and the
    /// [`Probe::ResultSets`] probe.
    pub fn over(topology: Topology) -> ScenarioBuilder {
        ScenarioBuilder {
            topology,
            queries: Vec::new(),
            events: Vec::new(),
            sample_every: SimDuration::from_secs(1),
            sample_from: SimTime::ZERO,
            horizon: SimTime::from_secs(60),
            probes: vec![Probe::ResultSets],
            tracked: 0,
            fault_plan: None,
            reliability: None,
        }
    }

    /// Run the scenario over an unreliable wire: install a seeded
    /// [`FaultPlan`] (probabilistic loss, duplication, reordering, burst
    /// outages, applied deterministically at delivery time) and switch the
    /// processors to the loss-tolerant reliable transport so result
    /// multisets stay exact. Without this call nothing changes: no RNG is
    /// consumed and the wire accounting is byte-identical to the lossless
    /// runs.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        if self.reliability.is_none() {
            self.reliability = Some(ReliabilityConfig::default());
        }
        self
    }

    /// Override the reliable-transport tuning (or enable it without any
    /// faults — e.g. to measure its overhead on a clean wire).
    pub fn reliability(mut self, config: ReliabilityConfig) -> Self {
        self.reliability = Some(config);
        self
    }

    /// Add one query issuance to the timeline.
    pub fn query(mut self, def: QueryDef) -> Self {
        self.queries.push(def);
        self
    }

    /// Add a batch of query issuances (e.g. a generated request stream).
    pub fn queries(mut self, defs: impl IntoIterator<Item = QueryDef>) -> Self {
        self.queries.extend(defs);
        self
    }

    /// Add every event of an [`EventSource`] (a `ChurnSchedule`,
    /// `LinkRttSchedule`, `LinkJitterSchedule`, or a plain `Vec` of
    /// events) to the timeline.
    pub fn source<S: EventSource<NetMsg> + ?Sized>(mut self, source: &S) -> Self {
        self.events.extend(source.events_for(&self.topology));
        self
    }

    /// Add one timeline event.
    pub fn event(mut self, event: TimelineEvent<NetMsg>) -> Self {
        self.events.push(event);
        self
    }

    /// Fail `node` at `at`.
    pub fn fail(self, at: SimTime, node: NodeId) -> Self {
        self.event(TimelineEvent::NodeFail { at, node })
    }

    /// Rejoin `node` at `at`.
    pub fn join(self, at: SimTime, node: NodeId) -> Self {
        self.event(TimelineEvent::NodeJoin { at, node })
    }

    /// Change the directed link `from → to` to `params` at `at`.
    pub fn link_change(self, at: SimTime, from: NodeId, to: NodeId, params: LinkParams) -> Self {
        self.event(TimelineEvent::LinkChange { at, from, to, params })
    }

    /// Deliver `msg` to `node` at `at` (ad-hoc [`NetMsg`] injection).
    pub fn inject(self, at: SimTime, node: NodeId, msg: NetMsg) -> Self {
        self.event(TimelineEvent::Inject { at, node, msg })
    }

    /// Partition the network at `at`: `side` is severed from the rest,
    /// cross-cut traffic drops, and cut-link endpoints observe
    /// `NeighborDown` after the detection delay.
    pub fn partition(self, at: SimTime, side: Vec<NodeId>) -> Self {
        self.event(TimelineEvent::Partition { at, side })
    }

    /// Heal the active partition at `at` (cut-link endpoints observe
    /// `NeighborUp`).
    pub fn heal(self, at: SimTime) -> Self {
        self.event(TimelineEvent::Heal { at })
    }

    /// The sampling cadence of every probe. Default: 1 s.
    pub fn sample_every(mut self, interval: SimDuration) -> Self {
        self.sample_every = interval;
        self
    }

    /// When sampling starts (the warm-up boundary: the run advances here
    /// in one step, probes only fire afterwards). Default: t=0.
    pub fn sample_from(mut self, from: SimTime) -> Self {
        self.sample_from = from;
        self
    }

    /// When the run ends. Default: t=60 s.
    ///
    /// The run advances in whole sampling steps from `sample_from`, so
    /// when the cadence does not divide the window the final sample (and
    /// [`WindowStats::end`]) lands up to one cadence *past* this horizon —
    /// the same semantics as the hand-driven loops this API replaces,
    /// which is what keeps the figure outputs byte-identical. A horizon at
    /// or before `sample_from` ends the run at `sample_from` with no
    /// samples (used by churn scenarios whose schedule came out empty).
    pub fn until(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }

    /// Enable one additional probe.
    pub fn probe(mut self, probe: Probe) -> Self {
        if !self.probes.contains(&probe) {
            self.probes.push(probe);
        }
        self
    }

    /// Replace the probe set (e.g. drop the default [`Probe::ResultSets`]
    /// for large query streams).
    pub fn probes(mut self, probes: impl IntoIterator<Item = Probe>) -> Self {
        self.probes = Vec::new();
        for p in probes {
            if !self.probes.contains(&p) {
                self.probes.push(p);
            }
        }
        self
    }

    /// Which query the route-level probes (PathRtt / Recovery /
    /// PathChanges) observe. Default: the first.
    pub fn track_query(mut self, index: usize) -> Self {
        self.tracked = index;
        self
    }

    /// Validate and freeze the scenario.
    pub fn build(self) -> Result<Scenario> {
        if self.sample_every == SimDuration::ZERO {
            return Err(Error::config("scenario sampling cadence must be positive"));
        }
        let route_probes = [Probe::PathRtt, Probe::Recovery, Probe::PathChanges]
            .iter()
            .any(|p| self.probes.contains(p));
        if route_probes && self.tracked >= self.queries.len() {
            return Err(Error::config(format!(
                "route-level probes track query #{} but the scenario issues {} queries",
                self.tracked,
                self.queries.len()
            )));
        }
        Ok(Scenario { spec: self })
    }

    /// Build and run, returning the report.
    pub fn run(self) -> Result<ScenarioReport> {
        self.build()?.run()
    }

    /// Build and run, returning the report plus harness and handles.
    pub fn execute(self) -> Result<ScenarioRun> {
        self.build()?.execute()
    }
}

/// A validated, runnable scenario (see [`ScenarioBuilder`]).
pub struct Scenario {
    spec: ScenarioBuilder,
}

impl Scenario {
    /// Run the scenario and return its report.
    pub fn run(self) -> Result<ScenarioReport> {
        Ok(self.execute()?.report)
    }

    /// Run the scenario, returning the report plus the live harness and
    /// typed query handles.
    pub fn execute(self) -> Result<ScenarioRun> {
        let spec = self.spec;
        let num_nodes = spec.topology.num_nodes();
        let want = |p: Probe| spec.probes.contains(&p);
        let route_probes =
            want(Probe::PathRtt) || want(Probe::Recovery) || want(Probe::PathChanges);

        // Initial link costs, for the AvgLinkRTT replay.
        let mut link_costs: BTreeMap<(NodeId, NodeId), f64> = if want(Probe::LinkRtt) {
            spec.topology.all_links().map(|(a, b, p)| ((a, b), p.cost.value())).collect()
        } else {
            BTreeMap::new()
        };

        let mut events = spec.events;
        events.sort_by_key(|e| e.time()); // stable: same-time events keep source order

        let mut harness = RoutingHarness::with_transport(spec.topology, spec.reliability);
        if let Some(plan) = spec.fault_plan {
            harness.set_fault_plan(plan);
        }
        let detection_s = harness.sim().config().failure_detection_delay.as_secs_f64();

        let mut handles = Vec::with_capacity(spec.queries.len());
        for def in spec.queries {
            handles.push(harness.submit(def)?);
        }

        // Warm up to the sampling window, then schedule the timeline. This
        // split reproduces the hand-driven choreography it replaces
        // (converge first, then apply churn), so events at exactly the
        // window boundary are observed by the first sample, not the warmup.
        for event in events.iter().filter(|e| e.time() < spec.sample_from) {
            event.schedule(harness.sim_mut());
        }
        harness.run_until(spec.sample_from);
        for event in events.iter().filter(|e| e.time() >= spec.sample_from) {
            event.schedule(harness.sim_mut());
        }

        let tracked = if route_probes { handles.get(spec.tracked).cloned() } else { None };
        let window_start_bytes = harness.sim().metrics().total_bytes();

        let mut samples: Vec<Vec<Sample>> = vec![Vec::new(); handles.len()];
        let mut path_rtt: Vec<(f64, f64)> = Vec::new();
        let mut link_rtt: Vec<(f64, f64)> = Vec::new();
        let mut recoveries: Vec<Recovery> = Vec::new();
        let mut overhead_series: Vec<(f64, f64)> = Vec::new();
        let mut stats_series: Vec<(f64, ProcessorStats)> = Vec::new();

        let mut down: BTreeSet<NodeId> = BTreeSet::new();
        let mut pending: BTreeMap<(NodeId, NodeId), SimTime> = BTreeMap::new();
        let mut changes: BTreeMap<(NodeId, NodeId), usize> = BTreeMap::new();
        let mut last_paths: Option<BTreeMap<(NodeId, NodeId), RouteEntry>> = None;
        let mut initial_pairs = 0usize;
        if want(Probe::PathChanges) {
            let handle = tracked.as_ref().expect("validated by build()");
            let initial = best_paths(&harness, handle)?;
            initial_pairs = initial.len();
            last_paths = Some(initial);
        }

        let mut evt_idx = 0usize;
        let mut link_idx = 0usize;
        let mut t = spec.sample_from;
        while t < spec.horizon {
            t += spec.sample_every;
            harness.run_until(t);

            // Decode the tracked query's result set once per step: the
            // route probes read the (src, dst)-keyed snapshot, and the
            // result-set probe reuses the same decode for its sample
            // instead of paying a second one.
            let mut tracked_sample: Option<Sample> = None;
            let snapshot = match &tracked {
                Some(handle) => {
                    let finite = handle.finite_results(&harness)?;
                    if want(Probe::ResultSets) {
                        tracked_sample = Some(Sample {
                            time: harness.sim().now(),
                            results: finite.len(),
                            avg_cost: average_cost_of(&finite),
                        });
                    }
                    Some(
                        finite.into_iter().map(|r| ((r.src, r.dst), r)).collect::<BTreeMap<_, _>>(),
                    )
                }
                None => None,
            };

            // Timeline bookkeeping: fold events up to this sample into the
            // down-set; a batch of same-time failures marks the routes it
            // breaks as pending recoveries.
            while evt_idx < events.len() && events[evt_idx].time() <= t {
                match &events[evt_idx] {
                    TimelineEvent::NodeFail { at, .. } => {
                        let batch_at = *at;
                        let mut victims: Vec<NodeId> = Vec::new();
                        while let Some(TimelineEvent::NodeFail { at, node }) = events.get(evt_idx) {
                            if *at != batch_at {
                                break;
                            }
                            victims.push(*node);
                            evt_idx += 1;
                        }
                        down.extend(victims.iter().copied());
                        if want(Probe::Recovery) {
                            if let Some(snap) = &snapshot {
                                for (pair, route) in snap {
                                    if victims.iter().any(|v| route.traverses(*v))
                                        && !down.contains(&pair.0)
                                        && !down.contains(&pair.1)
                                    {
                                        pending.insert(*pair, batch_at);
                                    }
                                }
                            }
                        }
                    }
                    TimelineEvent::NodeJoin { node, .. } => {
                        down.remove(node);
                        evt_idx += 1;
                    }
                    _ => evt_idx += 1,
                }
            }

            if want(Probe::Recovery) && !pending.is_empty() {
                if let Some(snap) = &snapshot {
                    let mut recovered: Vec<(NodeId, NodeId)> = Vec::new();
                    for (pair, failed_at) in &pending {
                        if let Some(route) = snap.get(pair) {
                            if !down.iter().any(|f| route.traverses(*f)) {
                                let gross = (t - *failed_at).as_secs_f64();
                                recoveries.push(Recovery {
                                    src: pair.0,
                                    dst: pair.1,
                                    failed_at: *failed_at,
                                    recovered_at: t,
                                    recovery_s: (gross - detection_s).max(0.0),
                                });
                                recovered.push(*pair);
                            }
                        }
                    }
                    for pair in recovered {
                        pending.remove(&pair);
                    }
                }
            }

            if want(Probe::ResultSets) {
                for (i, handle) in handles.iter().enumerate() {
                    let sample = match &mut tracked_sample {
                        Some(_) if i == spec.tracked => tracked_sample.take().expect("checked"),
                        _ => sample_query(&harness, handle)?,
                    };
                    samples[i].push(sample);
                }
            }

            if want(Probe::PathRtt) {
                let snap = snapshot.as_ref().expect("route probes computed a snapshot");
                let valid: Vec<f64> = snap
                    .iter()
                    .filter(|(pair, route)| {
                        !down.contains(&pair.0)
                            && !down.contains(&pair.1)
                            && !down.iter().any(|f| route.traverses(*f))
                    })
                    .map(|(_, route)| route.cost.value())
                    .collect();
                let avg = if valid.is_empty() {
                    0.0
                } else {
                    valid.iter().sum::<f64>() / valid.len() as f64
                };
                path_rtt.push((t.as_secs_f64(), avg));
            }

            if want(Probe::LinkRtt) {
                // "As of just before this sample": a change scheduled at
                // exactly the sample boundary belongs to the next round.
                while link_idx < events.len() && events[link_idx].time() < t {
                    if let TimelineEvent::LinkChange { from, to, params, .. } = &events[link_idx] {
                        link_costs.insert((*from, *to), params.cost.value());
                    }
                    link_idx += 1;
                }
                let avg = link_costs.values().sum::<f64>() / link_costs.len().max(1) as f64;
                link_rtt.push((t.as_secs_f64(), avg));
            }

            if want(Probe::PathChanges) {
                let snap = snapshot.as_ref().expect("route probes computed a snapshot");
                if let Some(last) = &last_paths {
                    for (pair, route) in snap {
                        if let Some(old) = last.get(pair) {
                            if old.path != route.path {
                                *changes.entry(*pair).or_insert(0) += 1;
                            }
                        }
                    }
                }
            }

            if want(Probe::OverheadSeries) {
                overhead_series.push((t.as_secs_f64(), harness.per_node_overhead_kb()));
            }

            if want(Probe::ProcessorStats) {
                stats_series.push((t.as_secs_f64(), harness.processor_stats()));
            }

            // Nothing reads the snapshot after this point: seed the next
            // step's path-change comparison by moving it, not cloning.
            if want(Probe::PathChanges) {
                last_paths = snapshot;
            }
        }

        let end = harness.sim().now();
        let window_bytes = harness.sim().metrics().total_bytes() - window_start_bytes;
        let elapsed = (end - spec.sample_from).as_secs_f64().max(1e-9);
        let window = WindowStats {
            start: spec.sample_from,
            end,
            bytes: window_bytes,
            per_node_bps: window_bytes as f64 / elapsed / num_nodes.max(1) as f64,
        };

        let bandwidth = if want(Probe::Bandwidth) {
            harness
                .sim()
                .metrics()
                .per_node_bandwidth_series()
                .into_iter()
                .map(|(at, bps)| (at.as_secs_f64(), bps))
                .collect()
        } else {
            Vec::new()
        };

        let queries = handles
            .iter()
            .zip(samples)
            .map(|(handle, samples)| QueryReport {
                name: handle.name().to_string(),
                converged_at: converged_at(&samples),
                samples,
            })
            .collect();

        let report = ScenarioReport {
            queries,
            events: events
                .iter()
                .map(|e| EventRecord { time: e.time(), summary: e.summary() })
                .collect(),
            path_rtt,
            link_rtt,
            recoveries,
            path_changes: want(Probe::PathChanges).then_some(PathChangeStats {
                pairs: initial_pairs,
                changed_pairs: changes.len(),
                total_changes: changes.values().sum(),
            }),
            overhead_series,
            bandwidth,
            stats_series,
            per_node_overhead_kb: harness.per_node_overhead_kb(),
            window,
        };
        Ok(ScenarioRun { report, harness, handles })
    }
}

/// One result-set sample of `handle` at the harness's current instant:
/// finite-result count and average cost. This is the probe behind
/// [`Probe::ResultSets`].
pub fn sample_query<T: CostView>(
    harness: &RoutingHarness,
    handle: &QueryHandle<T>,
) -> Result<Sample> {
    let finite = handle.finite_results(harness)?;
    Ok(Sample {
        time: harness.sim().now(),
        results: finite.len(),
        avg_cost: average_cost_of(&finite),
    })
}

/// The tracked query's finite best routes, keyed by (source, destination).
fn best_paths(
    harness: &RoutingHarness,
    handle: &QueryHandle<RouteEntry>,
) -> Result<BTreeMap<(NodeId, NodeId), RouteEntry>> {
    Ok(handle.finite_results(harness)?.into_iter().map(|r| ((r.src, r.dst), r)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_datalog::parse_program;
    use dr_netsim::SimConfig;
    use dr_types::{Cost, Value};

    const BEST_PATH: &str = r#"
        #key(link, 0, 1).
        #key(path, 0, 1, 2).
        #key(bestPathCost, 0, 1).
        #key(bestPath, 0, 1).
        NR1: path(@S,D,P,C) :- link(@S,D,C), P = f_initPath(S,D).
        NR2: path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2),
             C = C1 + C2, P = f_prepend(S,P2), f_inPath(P2,S) = false.
        NR3: path(@S,D,P,C) :- link(@S,W,C1), path(@S,D,P,C2),
             f_inPath(P,W) = true, C1 = infinity, C = infinity.
        BPR1: bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).
        BPR2: bestPath(@S,D,P,C) :- bestPathCost(@S,D,C), path(@S,D,P,C).
        Query: bestPath(@S,D,P,C).
    "#;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn best_path_def() -> QueryDef {
        QueryDef::new(parse_program(BEST_PATH).unwrap())
    }

    /// Triangle with a cheap two-hop route 0-1-2 and an expensive direct
    /// edge 0-2 (routes heal onto the direct edge when node 1 fails).
    fn triangle() -> Topology {
        let mut t = Topology::new(3);
        let link = |c: f64| LinkParams::with_latency_ms(5.0).with_cost(Cost::new(c));
        t.add_bidirectional(n(0), n(1), link(1.0));
        t.add_bidirectional(n(1), n(2), link(1.0));
        t.add_bidirectional(n(0), n(2), link(5.0));
        t
    }

    fn line(k: usize) -> Topology {
        let mut t = Topology::new(k);
        for i in 0..k - 1 {
            t.add_bidirectional(
                n(i as u32),
                n(i as u32 + 1),
                LinkParams::with_latency_ms(10.0).with_cost(Cost::new(1.0)),
            );
        }
        t
    }

    #[test]
    fn scenario_runs_a_plain_convergence_experiment() {
        let report = ScenarioBuilder::over(line(4))
            .query(best_path_def().named("line"))
            .sample_every(SimDuration::from_millis(500))
            .until(SimTime::from_secs(20))
            .run()
            .unwrap();
        assert_eq!(report.queries.len(), 1);
        let q = &report.queries[0];
        assert_eq!(q.name, "line");
        assert_eq!(q.final_results(), 12); // 4*3 pairs
        assert!(q.converged_at.expect("converges") < SimTime::from_secs(20));
        assert!(report.per_node_overhead_kb > 0.0);
        assert!(report.events.is_empty());
        // samples are monotone in time
        assert!(q.samples.windows(2).all(|w| w[0].time < w[1].time));
    }

    #[test]
    fn scenario_queries_can_record_provenance() {
        let mut run = ScenarioBuilder::over(line(4))
            .query(best_path_def().provenance(true))
            .until(SimTime::from_secs(20))
            .execute()
            .unwrap();
        let qid = run.handles[0].id();
        let route = run.handles[0]
            .raw_results_at(&run.harness, n(0))
            .into_iter()
            .find(|t| t.field(1) == Some(&Value::Node(n(3))))
            .expect("route 0 -> 3 derived");
        let tree = run.harness.explain(qid, &route).expect("explainable");
        assert!(tree.is_fully_resolved(), "no Missing nodes in a live route:\n{tree}");
        assert!(run.harness.processor_stats().prov_recorded > 0);
    }

    #[test]
    fn recovery_probe_excludes_failure_detection_delay() {
        let run = ScenarioBuilder::over(triangle())
            .query(best_path_def())
            .fail(SimTime::from_secs(20), n(1))
            .sample_every(SimDuration::from_secs(1))
            .until(SimTime::from_secs(40))
            .probe(Probe::Recovery)
            .execute()
            .unwrap();
        let report = &run.report;
        // Routes 0->2 and 2->0 traversed node 1 and heal onto the direct
        // edge; pairs with node 1 as an endpoint are never pending.
        assert!(!report.recoveries.is_empty());
        let detection_s = SimConfig::default().failure_detection_delay.as_secs_f64();
        for r in &report.recoveries {
            assert_ne!(r.src, n(1));
            assert_ne!(r.dst, n(1));
            assert_eq!(r.failed_at, SimTime::from_secs(20));
            let gross = (r.recovered_at - r.failed_at).as_secs_f64();
            assert!(
                (r.recovery_s - (gross - detection_s)).abs() < 1e-12,
                "recovery_s {} must be the gross sample delta {} minus the \
                 detection delay {} (§9.1)",
                r.recovery_s,
                gross,
                detection_s
            );
        }
        // The triangle heals within the first sample after the failure.
        let healed = report.recoveries.iter().find(|r| r.src == n(0) && r.dst == n(2)).unwrap();
        assert_eq!(healed.recovered_at, SimTime::from_secs(21));
        assert!((healed.recovery_s - (1.0 - detection_s)).abs() < 1e-12);
        // And the healed route is the direct edge.
        let route = run.handles[0]
            .finite_results(&run.harness)
            .unwrap()
            .into_iter()
            .find(|r| r.src == n(0) && r.dst == n(2))
            .unwrap();
        assert!(!route.traverses(n(1)));
        assert_eq!(route.cost, Cost::new(5.0));
    }

    #[test]
    fn path_rtt_probe_excludes_failed_nodes() {
        let report = ScenarioBuilder::over(triangle())
            .query(best_path_def())
            .fail(SimTime::from_secs(20), n(1))
            .join(SimTime::from_secs(30), n(1))
            .sample_from(SimTime::from_secs(10))
            .sample_every(SimDuration::from_secs(5))
            .until(SimTime::from_secs(40))
            .probes([Probe::PathRtt])
            .run()
            .unwrap();
        assert_eq!(report.path_rtt.len(), 6); // 15,20,25,30,35,40
        let at = |s: f64| report.path_rtt.iter().find(|(x, _)| *x == s).unwrap().1;
        // Converged triangle: all 6 ordered pairs, avg (1+1+2)*2/6 = 4/3.
        assert!((at(15.0) - 4.0 / 3.0).abs() < 1e-9);
        // The failure is observed by its boundary sample: node 1's pairs
        // are excluded and the 0<->2 routes still traverse it, so no pair
        // is valid yet.
        assert_eq!(at(20.0), 0.0);
        // Down phase: only 0<->2 remain, healed onto the direct edge.
        assert!((at(25.0) - 5.0).abs() < 1e-9);
        // After the rejoin all six pairs are valid again. Neighbors of the
        // rejoined node re-inject their stored link tuples as deltas (the
        // same up-transition repair that heals partitions), so 0<->2 also
        // re-converges from the direct edge back onto the 2-hop path
        // through node 1: avg (1+1+1+1+2+2)/6 — the converged-triangle
        // optimum with the doubled 0<->2 legs.
        assert!((at(40.0) - 8.0 / 6.0).abs() < 1e-9);
        // The resolved timeline is recorded.
        assert_eq!(report.events.len(), 2);
        assert!(report.events[0].summary.contains("fail"));
        assert!(report.events[1].summary.contains("join"));
    }

    #[test]
    fn overhead_and_stats_series_probe_every_sample() {
        let report = ScenarioBuilder::over(line(3))
            .query(best_path_def())
            .sample_every(SimDuration::from_secs(5))
            .until(SimTime::from_secs(20))
            .probes([Probe::OverheadSeries, Probe::ProcessorStats, Probe::Bandwidth])
            .run()
            .unwrap();
        assert_eq!(report.overhead_series.len(), 4);
        assert!(report.overhead_series.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(report.stats_series.len(), 4);
        assert!(report.stats_series.last().unwrap().1.tuples_derived > 0);
        assert!(!report.bandwidth.is_empty());
        // No result-set probe was requested.
        assert!(report.queries[0].samples.is_empty());
        assert_eq!(report.queries[0].converged_at, None);
    }

    #[test]
    fn sampling_window_bounds_the_window_stats() {
        let report = ScenarioBuilder::over(line(3))
            .query(best_path_def())
            .sample_from(SimTime::from_secs(10))
            .sample_every(SimDuration::from_secs(5))
            .until(SimTime::from_secs(30))
            .run()
            .unwrap();
        assert_eq!(report.window.start, SimTime::from_secs(10));
        assert_eq!(report.window.end, SimTime::from_secs(30));
        // The line converges within the warmup, so the window sees little
        // to no traffic — and certainly less than the whole run.
        let total_bytes = (report.per_node_overhead_kb * 1024.0 * 3.0).round() as u64;
        assert!(report.window.bytes <= total_bytes);
        // Samples cover only the window.
        let q = &report.queries[0];
        assert_eq!(q.samples.len(), 4);
        assert!(q.samples.iter().all(|s| s.time > SimTime::from_secs(10)));
    }

    #[test]
    fn build_validation_rejects_broken_scenarios() {
        let err = ScenarioBuilder::over(line(2))
            .query(best_path_def())
            .sample_every(SimDuration::ZERO)
            .build()
            .err()
            .expect("zero cadence is invalid");
        assert!(matches!(err, Error::Config(_)), "{err}");

        let err = ScenarioBuilder::over(line(2))
            .probe(Probe::PathRtt)
            .build()
            .err()
            .expect("route probes need a tracked query");
        assert!(matches!(err, Error::Config(_)), "{err}");
    }

    #[test]
    fn scenario_probe_matches_manual_sampling() {
        // Scenario path.
        let report = ScenarioBuilder::over(line(4))
            .query(best_path_def())
            .sample_every(SimDuration::from_millis(500))
            .until(SimTime::from_secs(20))
            .run()
            .unwrap();
        // Hand-rolled sampling loop over an identical deployment: the
        // scenario probe must be exactly this, nothing more.
        let mut harness = RoutingHarness::new(line(4));
        let handle = harness.issue(parse_program(BEST_PATH).unwrap()).submit().unwrap();
        let mut samples = Vec::new();
        let mut t = SimTime::ZERO;
        while t < SimTime::from_secs(20) {
            t += SimDuration::from_millis(500);
            harness.run_until(t);
            samples.push(sample_query(&harness, &handle).unwrap());
        }
        assert_eq!(samples, report.queries[0].samples);
    }
}
