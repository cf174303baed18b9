//! The discrete-event simulator core.
//!
//! A [`Simulator`] owns one application instance (a [`NodeApp`]) per network
//! node plus the *world*: simulated clock, topology, per-link FIFO queues,
//! the event queue, liveness flags, and [`Metrics`]. Applications interact
//! with the world exclusively through the [`Context`] passed to their
//! callbacks — sending messages, setting timers, and reading their neighbor
//! table — which keeps them deterministic and easy to test.
//!
//! The model matches the paper's simulator (§9.1): messages experience a
//! per-link propagation latency plus a transmission delay (`size /
//! bandwidth`) and FIFO queueing on each directed link; node failures are
//! detected by neighbors after a configurable detection delay (the paper
//! excludes detection time from its recovery-time metric, and so do we).

use crate::fault::{FaultAction, FaultPlan, FaultState};
use crate::metrics::Metrics;
use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkParams, Topology};
use dr_types::hash::HashMap;
use dr_types::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Something a node observes about one of its adjacent links (the paper's
/// neighbor-table updates: "link failures, new links, or link metric
/// changes", §2).
#[derive(Debug, Clone, PartialEq)]
pub enum LinkEvent {
    /// The metric / latency of the link to `neighbor` changed.
    MetricChanged {
        /// The other endpoint.
        neighbor: NodeId,
        /// The new link parameters.
        params: LinkParams,
    },
    /// The neighbor failed or the link went down.
    NeighborDown {
        /// The other endpoint.
        neighbor: NodeId,
    },
    /// The neighbor (re)joined.
    NeighborUp {
        /// The other endpoint.
        neighbor: NodeId,
        /// The link parameters after the rejoin.
        params: LinkParams,
    },
}

/// Per-node application logic driven by the simulator.
pub trait NodeApp: Sized {
    /// The message type exchanged between nodes.
    type Message: Clone;

    /// Called once when the simulation starts.
    fn on_start(&mut self, _ctx: &mut Context<'_, Self::Message>) {}

    /// Called when a node rejoins after a failure. Defaults to `on_start`.
    fn on_join(&mut self, ctx: &mut Context<'_, Self::Message>) {
        self.on_start(ctx);
    }

    /// Called when a message from `from` arrives.
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Self::Message>,
        from: NodeId,
        msg: Self::Message,
    );

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Context<'_, Self::Message>, _timer: u64) {}

    /// Called when an adjacent link changes (failure, rejoin, metric change).
    fn on_link_event(&mut self, _ctx: &mut Context<'_, Self::Message>, _event: LinkEvent) {}
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// How long after a node fails its neighbors notice (via the routing
    /// infrastructure's periodic pings).
    pub failure_detection_delay: SimDuration,
    /// Bucket width of the bandwidth time series in [`Metrics`].
    pub metrics_bucket: SimDuration,
    /// Hard cap on processed events (guards against runaway protocols).
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            failure_detection_delay: SimDuration::from_millis(100),
            metrics_bucket: SimDuration::from_secs(1),
            max_events: u64::MAX,
        }
    }
}

/// The kinds of scheduled events.
#[derive(Debug, Clone)]
enum EventKind<M> {
    /// `faulted` marks copies re-queued by the fault layer (a duplicate or
    /// a delayed original) so faults are applied at most once per arrival.
    Deliver {
        to: NodeId,
        from: NodeId,
        msg: M,
        faulted: bool,
    },
    Timer {
        node: NodeId,
        id: u64,
    },
    LinkNotify {
        node: NodeId,
        event: LinkEvent,
    },
    LinkMetricChange {
        from: NodeId,
        to: NodeId,
        params: LinkParams,
    },
    NodeFail {
        node: NodeId,
    },
    NodeJoin {
        node: NodeId,
    },
    Partition {
        side: Vec<NodeId>,
    },
    Heal,
}

struct Event<M> {
    time: SimTime,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// The world state shared by all nodes (everything except the applications
/// themselves).
struct World<M> {
    now: SimTime,
    topology: Topology,
    node_up: Vec<bool>,
    queue: BinaryHeap<Reverse<Event<M>>>,
    metrics: Metrics,
    config: SimConfig,
    next_seq: u64,
    next_timer: u64,
    /// Per directed link: when the link becomes free for the next
    /// transmission (FIFO queueing).
    link_busy_until: HashMap<(NodeId, NodeId), SimTime>,
    events_processed: u64,
    /// The installed fault plan plus its RNG, if any. `None` means the wire
    /// is perfect and no RNG is ever consulted.
    faults: Option<FaultState>,
    /// When a partition is active: which side each node is on. Messages
    /// crossing the cut are dropped as fault drops.
    partition: Option<Vec<bool>>,
}

impl<M> World<M> {
    fn push(&mut self, time: SimTime, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(Event { time, seq, kind }));
    }
}

/// The per-callback handle a [`NodeApp`] uses to interact with the world.
pub struct Context<'a, M> {
    node: NodeId,
    world: &'a mut World<M>,
}

impl<'a, M: Clone> Context<'a, M> {
    /// The node this callback runs on.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// The node's current neighbor table: outgoing links and their
    /// parameters, restricted to live neighbors.
    pub fn neighbors(&self) -> Vec<(NodeId, LinkParams)> {
        self.world
            .topology
            .neighbors(self.node)
            .into_iter()
            .filter(|(n, _)| self.world.node_up.get(n.index()).copied().unwrap_or(false))
            .collect()
    }

    /// Send `msg` of `bytes` wire size to `neighbor`.
    ///
    /// The message is dropped (and counted as such) when there is no link,
    /// the neighbor is down, or the sender itself is down. Delivery time is
    /// `max(now, link free) + bytes/bandwidth + latency`.
    pub fn send(&mut self, neighbor: NodeId, msg: M, bytes: usize) {
        let now = self.world.now;
        let from = self.node;
        let Some(params) = self.world.topology.link(from, neighbor).copied() else {
            self.world.metrics.record_drop_no_link();
            return;
        };
        let up = |n: NodeId, w: &World<M>| w.node_up.get(n.index()).copied().unwrap_or(false);
        if !up(from, self.world) || !up(neighbor, self.world) {
            self.world.metrics.record_drop_node_down();
            return;
        }
        self.world.metrics.record_send(now, from, bytes);
        let tx = SimDuration::from_millis_f64(bytes as f64 / params.bandwidth_bps * 1000.0);
        let busy =
            self.world.link_busy_until.get(&(from, neighbor)).copied().unwrap_or(SimTime::ZERO);
        let start = if busy > now { busy } else { now };
        let free_at = start + tx;
        self.world.link_busy_until.insert((from, neighbor), free_at);
        let arrival = free_at + params.latency;
        self.world.push(arrival, EventKind::Deliver { to: neighbor, from, msg, faulted: false });
    }

    /// Deliver `msg` to this node itself after `delay` (a local, free event —
    /// no bandwidth is charged). Useful for periodic local processing.
    pub fn send_self(&mut self, msg: M, delay: SimDuration) {
        let time = self.world.now + delay;
        let node = self.node;
        self.world.push(time, EventKind::Deliver { to: node, from: node, msg, faulted: false });
    }

    /// Arm a timer that fires after `delay`; returns its id.
    pub fn set_timer(&mut self, delay: SimDuration) -> u64 {
        let id = self.world.next_timer;
        self.world.next_timer += 1;
        let time = self.world.now + delay;
        let node = self.node;
        self.world.push(time, EventKind::Timer { node, id });
        id
    }
}

/// The discrete-event simulator.
pub struct Simulator<A: NodeApp> {
    apps: Vec<A>,
    world: World<A::Message>,
    started: bool,
}

impl<A: NodeApp> Simulator<A> {
    /// Create a simulator over `topology` with one application per node.
    ///
    /// Panics when `apps.len() != topology.num_nodes()` — that is a harness
    /// bug, not a runtime condition.
    pub fn new(topology: Topology, apps: Vec<A>, config: SimConfig) -> Simulator<A> {
        assert_eq!(
            apps.len(),
            topology.num_nodes(),
            "one application instance per topology node is required"
        );
        let num_nodes = topology.num_nodes();
        Simulator {
            apps,
            world: World {
                now: SimTime::ZERO,
                node_up: vec![true; num_nodes],
                metrics: Metrics::new(num_nodes, config.metrics_bucket),
                queue: BinaryHeap::new(),
                config,
                topology,
                next_seq: 0,
                next_timer: 0,
                link_busy_until: HashMap::default(),
                events_processed: 0,
                faults: None,
                partition: None,
            },
            started: false,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// The simulator configuration (detection delay, metrics bucket, event
    /// cap). Probes that reason about failure detection — the §9.1
    /// recovery-time definition excludes the detection delay — read it from
    /// here instead of assuming the default.
    pub fn config(&self) -> &SimConfig {
        &self.world.config
    }

    /// The metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.world.metrics
    }

    /// The topology (reflecting any link-metric changes applied so far).
    pub fn topology(&self) -> &Topology {
        &self.world.topology
    }

    /// Immutable access to a node's application.
    pub fn app(&self, node: NodeId) -> &A {
        &self.apps[node.index()]
    }

    /// Iterate over all applications.
    pub fn apps(&self) -> impl Iterator<Item = &A> {
        self.apps.iter()
    }

    /// True when `node` is currently up.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.world.node_up.get(node.index()).copied().unwrap_or(false)
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.world.events_processed
    }

    /// Schedule delivery of `msg` to `to` at absolute time `at` (external
    /// injection, e.g. issuing a query). No bandwidth is charged; `from` is
    /// recorded as the node itself.
    pub fn inject(&mut self, at: SimTime, to: NodeId, msg: A::Message) {
        self.world.push(at, EventKind::Deliver { to, from: to, msg, faulted: false });
    }

    /// Install a [`FaultPlan`]: from now on, arriving wire messages are
    /// subject to the plan's per-link drop/duplicate/reorder/burst faults.
    /// Self-deliveries (timers, injections, `send_self`) are never faulted.
    ///
    /// Installing an [inert](FaultPlan::is_inert) plan — or none at all —
    /// leaves delivery behavior bit-for-bit identical to a fault-free run.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.world.faults = Some(FaultState::new(plan));
    }

    /// Schedule a partition at time `at`: nodes in `side` are severed from
    /// the rest of the network. Messages crossing the cut are dropped (and
    /// counted as fault drops); each live endpoint of a cut link observes
    /// `NeighborDown` after the failure-detection delay, so both sides
    /// reconverge independently. A new partition replaces any active one.
    pub fn schedule_partition(&mut self, at: SimTime, side: Vec<NodeId>) {
        self.world.push(at, EventKind::Partition { side });
    }

    /// Schedule the end of the active partition at time `at`: cut links
    /// carry traffic again and their endpoints observe `NeighborUp` after
    /// the failure-detection delay. A no-op if no partition is active.
    pub fn schedule_heal(&mut self, at: SimTime) {
        self.world.push(at, EventKind::Heal);
    }

    /// True while a partition is active.
    pub fn is_partitioned(&self) -> bool {
        self.world.partition.is_some()
    }

    /// Schedule a change of the directed link `from → to` to `params` at
    /// time `at`. The owning endpoint (`from`) is notified via
    /// [`NodeApp::on_link_event`].
    pub fn schedule_link_metric_change(
        &mut self,
        at: SimTime,
        from: NodeId,
        to: NodeId,
        params: LinkParams,
    ) {
        self.world.push(at, EventKind::LinkMetricChange { from, to, params });
    }

    /// Schedule a fail-stop failure of `node` at time `at`.
    pub fn schedule_node_fail(&mut self, at: SimTime, node: NodeId) {
        self.world.push(at, EventKind::NodeFail { node });
    }

    /// Schedule `node` rejoining at time `at`.
    pub fn schedule_node_join(&mut self, at: SimTime, node: NodeId) {
        self.world.push(at, EventKind::NodeJoin { node });
    }

    /// Invoke `on_start` on every node (at the current simulated time).
    /// Called automatically by [`run_until`](Self::run_until) if needed.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.apps.len() {
            let node = NodeId::from(i);
            let mut ctx = Context { node, world: &mut self.world };
            self.apps[i].on_start(&mut ctx);
        }
    }

    /// Process a single event. Returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(event)) = self.world.queue.pop() else {
            return false;
        };
        self.world.now = event.time;
        self.world.events_processed += 1;
        self.dispatch(event.kind);
        true
    }

    /// Run until the event queue is empty or simulated time exceeds `until`.
    /// Events scheduled after `until` remain queued.
    pub fn run_until(&mut self, until: SimTime) {
        self.start();
        while let Some(Reverse(ev)) = self.world.queue.peek() {
            if ev.time > until {
                break;
            }
            if self.world.events_processed >= self.world.config.max_events {
                break;
            }
            self.step();
        }
        if self.world.now < until {
            self.world.now = until;
        }
    }

    /// Run until the event queue drains completely.
    pub fn run_to_quiescence(&mut self) {
        self.start();
        while self.world.events_processed < self.world.config.max_events && self.step() {}
    }

    fn dispatch(&mut self, kind: EventKind<A::Message>) {
        match kind {
            EventKind::Deliver { to, from, msg, faulted } => {
                if !self.is_up(to) {
                    self.world.metrics.record_drop_node_down();
                    return;
                }
                // Self-deliveries (timers, injections, send_self) bypass the
                // wire entirely and are never faulted.
                if from != to {
                    if let Some(side) = &self.world.partition {
                        let cut = side.get(from.index()) != side.get(to.index());
                        if cut {
                            self.world.metrics.record_drop_fault();
                            return;
                        }
                    }
                    if !faulted {
                        if let Some(faults) = &mut self.world.faults {
                            let now = self.world.now;
                            match faults.on_arrival(from, to, now) {
                                FaultAction::Deliver => {}
                                FaultAction::Drop => {
                                    self.world.metrics.record_drop_fault();
                                    return;
                                }
                                FaultAction::Delay(extra) => {
                                    self.world.push(
                                        now + extra,
                                        EventKind::Deliver { to, from, msg, faulted: true },
                                    );
                                    return;
                                }
                                FaultAction::Duplicate(extra) => {
                                    self.world.push(
                                        now + extra,
                                        EventKind::Deliver {
                                            to,
                                            from,
                                            msg: msg.clone(),
                                            faulted: true,
                                        },
                                    );
                                }
                            }
                        }
                    }
                }
                let mut ctx = Context { node: to, world: &mut self.world };
                self.apps[to.index()].on_message(&mut ctx, from, msg);
            }
            EventKind::Timer { node, id } => {
                if !self.is_up(node) {
                    return;
                }
                let mut ctx = Context { node, world: &mut self.world };
                self.apps[node.index()].on_timer(&mut ctx, id);
            }
            EventKind::LinkNotify { node, event } => {
                if !self.is_up(node) {
                    return;
                }
                let mut ctx = Context { node, world: &mut self.world };
                self.apps[node.index()].on_link_event(&mut ctx, event);
            }
            EventKind::LinkMetricChange { from, to, params } => {
                if let Some(p) = self.world.topology.link_mut(from, to) {
                    *p = params;
                }
                if self.is_up(from) && self.is_up(to) {
                    let now = self.world.now;
                    self.world.push(
                        now,
                        EventKind::LinkNotify {
                            node: from,
                            event: LinkEvent::MetricChanged { neighbor: to, params },
                        },
                    );
                }
            }
            EventKind::NodeFail { node } => {
                if let Some(up) = self.world.node_up.get_mut(node.index()) {
                    if !*up {
                        return;
                    }
                    *up = false;
                }
                // Neighbors with a link *to* the failed node detect the
                // failure after the detection delay.
                let detect_at = self.world.now + self.world.config.failure_detection_delay;
                let notify: Vec<NodeId> = self
                    .world
                    .topology
                    .all_links()
                    .filter(|(_, to, _)| *to == node)
                    .map(|(from, _, _)| from)
                    .collect();
                for neighbor in notify {
                    self.world.push(
                        detect_at,
                        EventKind::LinkNotify {
                            node: neighbor,
                            event: LinkEvent::NeighborDown { neighbor: node },
                        },
                    );
                }
            }
            EventKind::NodeJoin { node } => {
                if let Some(up) = self.world.node_up.get_mut(node.index()) {
                    if *up {
                        return;
                    }
                    *up = true;
                }
                // The node restarts its application logic...
                let mut ctx = Context { node, world: &mut self.world };
                self.apps[node.index()].on_join(&mut ctx);
                // ...and neighbors learn the link is back.
                let detect_at = self.world.now + self.world.config.failure_detection_delay;
                let notify: Vec<(NodeId, LinkParams)> = self
                    .world
                    .topology
                    .all_links()
                    .filter(|(_, to, _)| *to == node)
                    .map(|(from, _, p)| (from, *p))
                    .collect();
                for (neighbor, params) in notify {
                    self.world.push(
                        detect_at,
                        EventKind::LinkNotify {
                            node: neighbor,
                            event: LinkEvent::NeighborUp { neighbor: node, params },
                        },
                    );
                }
            }
            EventKind::Partition { side } => {
                let mut membership = vec![false; self.world.topology.num_nodes()];
                for node in side {
                    if let Some(slot) = membership.get_mut(node.index()) {
                        *slot = true;
                    }
                }
                self.world.partition = Some(membership);
                // Each live endpoint of a cut link detects its neighbor as
                // down after the detection delay, so both sides drop the
                // severed adjacencies from their routing state.
                let detect_at = self.world.now + self.world.config.failure_detection_delay;
                for (owner, neighbor) in self.cut_links() {
                    if self.is_up(owner) {
                        self.world.push(
                            detect_at,
                            EventKind::LinkNotify {
                                node: owner,
                                event: LinkEvent::NeighborDown { neighbor },
                            },
                        );
                    }
                }
            }
            EventKind::Heal => {
                let cut = self.cut_links();
                if self.world.partition.take().is_none() {
                    return;
                }
                let detect_at = self.world.now + self.world.config.failure_detection_delay;
                for (owner, neighbor) in cut {
                    if !self.is_up(owner) || !self.is_up(neighbor) {
                        continue;
                    }
                    let Some(params) = self.world.topology.link(owner, neighbor).copied() else {
                        continue;
                    };
                    self.world.push(
                        detect_at,
                        EventKind::LinkNotify {
                            node: owner,
                            event: LinkEvent::NeighborUp { neighbor, params },
                        },
                    );
                }
            }
        }
    }

    /// The directed links whose endpoints sit on opposite sides of the
    /// active partition, as `(owner, neighbor)` pairs. Empty when no
    /// partition is active.
    fn cut_links(&self) -> Vec<(NodeId, NodeId)> {
        let Some(side) = &self.world.partition else {
            return Vec::new();
        };
        self.world
            .topology
            .all_links()
            .filter(|(from, to, _)| side.get(from.index()) != side.get(to.index()))
            .map(|(from, to, _)| (from, to))
            .collect()
    }
}

#[cfg(test)]
#[path = "sim_tests.rs"]
mod tests;
