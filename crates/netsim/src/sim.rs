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
mod tests {
    use super::*;
    use crate::topology::LinkParams;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// A flooding app: on start, node 0 sends a counter to all neighbors;
    /// every node records what it received and forwards counter-1 while
    /// positive.
    #[derive(Default)]
    struct Flood {
        received: Vec<(NodeId, u32)>,
        link_events: Vec<LinkEvent>,
        timers_fired: usize,
    }

    impl NodeApp for Flood {
        type Message = u32;

        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            if ctx.id() == n(0) {
                let neighbors = ctx.neighbors();
                for (nb, _) in neighbors {
                    ctx.send(nb, 3, 100);
                }
            }
        }

        fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: NodeId, msg: u32) {
            self.received.push((from, msg));
            if msg > 0 {
                for (nb, _) in ctx.neighbors() {
                    if nb != from {
                        ctx.send(nb, msg - 1, 100);
                    }
                }
            }
        }

        fn on_timer(&mut self, _ctx: &mut Context<'_, u32>, _timer: u64) {
            self.timers_fired += 1;
        }

        fn on_link_event(&mut self, _ctx: &mut Context<'_, u32>, event: LinkEvent) {
            self.link_events.push(event);
        }
    }

    fn line(k: usize, ms: f64) -> Topology {
        let mut t = Topology::new(k);
        for i in 0..k - 1 {
            t.add_bidirectional(n(i as u32), n(i as u32 + 1), LinkParams::with_latency_ms(ms));
        }
        t
    }

    fn make_sim(k: usize, ms: f64) -> Simulator<Flood> {
        let topo = line(k, ms);
        let apps = (0..k).map(|_| Flood::default()).collect();
        Simulator::new(topo, apps, SimConfig::default())
    }

    #[test]
    fn messages_propagate_with_latency() {
        let mut sim = make_sim(4, 10.0);
        sim.run_to_quiescence();
        // node 1 got the initial 3, node 2 got 2, node 3 got 1
        assert_eq!(sim.app(n(1)).received, vec![(n(0), 3)]);
        assert_eq!(sim.app(n(2)).received, vec![(n(1), 2)]);
        assert_eq!(sim.app(n(3)).received, vec![(n(2), 1)]);
        // message to node 3 traversed three 10 ms links (plus tiny tx delay)
        let t = sim.now().as_millis_f64();
        assert!((30.0..32.0).contains(&t), "final time {t} out of range");
        assert!(sim.events_processed() > 0);
    }

    #[test]
    fn metrics_account_bytes_per_node() {
        let mut sim = make_sim(3, 1.0);
        sim.run_to_quiescence();
        // node 0 sent one 100-byte message, node 1 forwarded one; node 2's
        // only neighbor is the sender, so it forwards nothing.
        assert_eq!(sim.metrics().bytes_sent_by(n(0)), 100);
        assert_eq!(sim.metrics().bytes_sent_by(n(1)), 100);
        assert_eq!(sim.metrics().bytes_sent_by(n(2)), 0);
        assert_eq!(sim.metrics().total_messages(), 2);
        assert!((sim.metrics().per_node_overhead_kb() - 200.0 / 3.0 / 1024.0).abs() < 1e-9);
    }

    #[test]
    fn run_until_stops_at_time_boundary() {
        let mut sim = make_sim(4, 10.0);
        sim.run_until(SimTime::from_millis(15));
        // only the first hop has been delivered
        assert_eq!(sim.app(n(1)).received.len(), 1);
        assert_eq!(sim.app(n(2)).received.len(), 0);
        assert_eq!(sim.now(), SimTime::from_millis(15));
        // continue to the end
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.app(n(3)).received.len(), 1);
    }

    #[test]
    fn failed_nodes_do_not_receive_and_neighbors_are_notified() {
        let mut sim = make_sim(4, 10.0);
        sim.schedule_node_fail(SimTime::from_millis(5), n(2));
        sim.run_to_quiescence();
        // node 2 fails before the flood reaches it
        assert!(sim.app(n(2)).received.is_empty());
        assert!(sim.app(n(3)).received.is_empty());
        assert!(!sim.is_up(n(2)));
        // node 1 sees node 2 as down, so it never forwards past it
        assert_eq!(sim.metrics().total_messages(), 1);
        // neighbors 1 and 3 observe NeighborDown
        assert!(sim
            .app(n(1))
            .link_events
            .iter()
            .any(|e| matches!(e, LinkEvent::NeighborDown { neighbor } if *neighbor == n(2))));
        assert!(sim
            .app(n(3))
            .link_events
            .iter()
            .any(|e| matches!(e, LinkEvent::NeighborDown { neighbor } if *neighbor == n(2))));
    }

    #[test]
    fn rejoin_restores_liveness_and_notifies() {
        let mut sim = make_sim(3, 1.0);
        sim.schedule_node_fail(SimTime::from_millis(2), n(2));
        sim.schedule_node_join(SimTime::from_millis(50), n(2));
        sim.run_to_quiescence();
        assert!(sim.is_up(n(2)));
        assert!(sim
            .app(n(1))
            .link_events
            .iter()
            .any(|e| matches!(e, LinkEvent::NeighborUp { neighbor, .. } if *neighbor == n(2))));
        // duplicate fail/join events are idempotent
        let mut sim2 = make_sim(2, 1.0);
        sim2.schedule_node_fail(SimTime::from_millis(1), n(1));
        sim2.schedule_node_fail(SimTime::from_millis(2), n(1));
        sim2.schedule_node_join(SimTime::from_millis(3), n(1));
        sim2.schedule_node_join(SimTime::from_millis(4), n(1));
        sim2.run_to_quiescence();
        assert!(sim2.is_up(n(1)));
    }

    #[test]
    fn link_metric_change_notifies_owner() {
        let mut sim = make_sim(2, 1.0);
        sim.schedule_link_metric_change(
            SimTime::from_millis(5),
            n(0),
            n(1),
            LinkParams::with_latency_ms(42.0),
        );
        sim.run_to_quiescence();
        assert_eq!(sim.topology().link(n(0), n(1)).unwrap().latency, SimDuration::from_millis(42));
        assert!(sim.app(n(0)).link_events.iter().any(|e| matches!(
            e,
            LinkEvent::MetricChanged { neighbor, params } if *neighbor == n(1) && params.latency == SimDuration::from_millis(42)
        )));
        // the reverse direction is untouched
        assert_eq!(sim.topology().link(n(1), n(0)).unwrap().latency, SimDuration::from_millis(1));
    }

    #[test]
    fn timers_fire_for_live_nodes_only() {
        struct TimerApp {
            fired: usize,
        }
        impl NodeApp for TimerApp {
            type Message = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                ctx.set_timer(SimDuration::from_millis(10));
                ctx.set_timer(SimDuration::from_millis(20));
            }
            fn on_message(&mut self, _: &mut Context<'_, ()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, _: &mut Context<'_, ()>, _: u64) {
                self.fired += 1;
            }
        }
        let mut topo = Topology::new(2);
        topo.add_bidirectional(n(0), n(1), LinkParams::default());
        let mut sim = Simulator::new(
            topo,
            vec![TimerApp { fired: 0 }, TimerApp { fired: 0 }],
            SimConfig::default(),
        );
        sim.schedule_node_fail(SimTime::from_millis(15), n(1));
        sim.run_to_quiescence();
        assert_eq!(sim.app(n(0)).fired, 2);
        assert_eq!(sim.app(n(1)).fired, 1); // second timer suppressed by failure
    }

    #[test]
    fn inject_delivers_external_messages() {
        let mut sim = make_sim(2, 1.0);
        sim.inject(SimTime::from_millis(100), n(1), 0);
        sim.run_to_quiescence();
        assert!(sim.app(n(1)).received.contains(&(n(1), 0)));
        // injection charges no bandwidth
        assert_eq!(sim.metrics().bytes_sent_by(n(1)), 0);
    }

    #[test]
    fn send_self_schedules_local_delivery() {
        struct SelfApp {
            got: Vec<u32>,
        }
        impl NodeApp for SelfApp {
            type Message = u32;
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.send_self(7, SimDuration::from_millis(3));
            }
            fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: NodeId, msg: u32) {
                assert_eq!(from, ctx.id());
                self.got.push(msg);
            }
        }
        let mut topo = Topology::new(1);
        topo.add_link(n(0), n(0), LinkParams::default());
        let mut sim =
            Simulator::new(Topology::new(1), vec![SelfApp { got: vec![] }], SimConfig::default());
        let _ = topo;
        sim.run_to_quiescence();
        assert_eq!(sim.app(n(0)).got, vec![7]);
        assert_eq!(sim.now(), SimTime::from_millis(3));
    }

    #[test]
    fn transmission_delay_and_fifo_queueing() {
        // 1 Mbps link (=125000 B/s): a 12500-byte message takes 100 ms to
        // transmit. Two back-to-back messages queue.
        struct Burst;
        impl NodeApp for Burst {
            type Message = u32;
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                if ctx.id() == n(0) {
                    ctx.send(n(1), 1, 12_500);
                    ctx.send(n(1), 2, 12_500);
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, u32>, _: NodeId, _: u32) {}
        }
        let mut topo = Topology::new(2);
        topo.add_bidirectional(
            n(0),
            n(1),
            LinkParams::with_latency_ms(10.0).with_bandwidth_bps(125_000.0),
        );
        let mut sim = Simulator::new(topo, vec![Burst, Burst], SimConfig::default());
        sim.run_to_quiescence();
        // first arrives at 100 (tx) + 10 (lat) = 110 ms; second at 200 + 10 = 210 ms
        assert_eq!(sim.now(), SimTime::from_millis(210));
    }

    #[test]
    fn send_to_missing_link_is_dropped() {
        struct Lonely;
        impl NodeApp for Lonely {
            type Message = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                ctx.send(n(5), (), 10);
            }
            fn on_message(&mut self, _: &mut Context<'_, ()>, _: NodeId, _: ()) {}
        }
        let mut sim = Simulator::new(Topology::new(1), vec![Lonely], SimConfig::default());
        sim.run_to_quiescence();
        assert_eq!(sim.metrics().dropped_messages(), 1);
        assert_eq!(sim.metrics().total_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "one application instance per topology node")]
    fn mismatched_app_count_panics() {
        let _ = Simulator::new(Topology::new(3), vec![Flood::default()], SimConfig::default());
    }

    #[test]
    fn full_drop_fault_black_holes_the_link() {
        use crate::fault::{FaultPlan, LinkFaults};
        let mut sim = make_sim(2, 1.0);
        sim.set_fault_plan(FaultPlan::new(1).uniform(LinkFaults::none().with_drop(1.0)));
        sim.run_to_quiescence();
        // node 0's flood message was sent but eaten at delivery time.
        assert_eq!(sim.metrics().total_messages(), 1);
        assert!(sim.app(n(1)).received.is_empty());
        assert_eq!(sim.metrics().dropped_fault(), 1);
        assert_eq!(sim.metrics().dropped_messages(), 1);
    }

    #[test]
    fn inert_fault_plan_changes_nothing() {
        use crate::fault::FaultPlan;
        let mut plain = make_sim(4, 10.0);
        plain.run_to_quiescence();
        let mut faulty = make_sim(4, 10.0);
        faulty.set_fault_plan(FaultPlan::new(123));
        faulty.run_to_quiescence();
        assert_eq!(plain.now(), faulty.now());
        assert_eq!(plain.events_processed(), faulty.events_processed());
        for i in 0..4 {
            assert_eq!(plain.app(n(i)).received, faulty.app(n(i)).received);
        }
        assert_eq!(faulty.metrics().dropped_fault(), 0);
    }

    #[test]
    fn duplicate_fault_delivers_twice() {
        use crate::fault::{FaultPlan, LinkFaults};
        let mut sim = make_sim(2, 1.0);
        sim.set_fault_plan(FaultPlan::new(2).uniform(LinkFaults::none().with_duplicate(1.0)));
        sim.run_to_quiescence();
        // the single flood message arrives twice; the duplicate is itself
        // not re-duplicated (faults apply once per wire arrival).
        assert_eq!(sim.app(n(1)).received, vec![(n(0), 3), (n(0), 3)]);
        assert_eq!(sim.metrics().total_messages(), 1);
    }

    #[test]
    fn reorder_fault_lets_later_traffic_overtake() {
        use crate::fault::{FaultPlan, LinkFaults};
        // A 1.0 reorder probability delays every message by a random extra
        // amount; delivery still happens, just later.
        let mut sim = make_sim(2, 1.0);
        sim.set_fault_plan(
            FaultPlan::new(3)
                .uniform(LinkFaults::none().with_reorder(1.0, SimDuration::from_millis(30))),
        );
        sim.run_to_quiescence();
        assert_eq!(sim.app(n(1)).received, vec![(n(0), 3)]);
        // latency 1 ms + extra delay in (0, 30] ms
        let t = sim.now().as_millis_f64();
        assert!(t > 1.0 && t <= 32.0, "delayed delivery time {t} out of range");
    }

    #[test]
    fn burst_outage_drops_only_inside_the_window() {
        use crate::fault::{FaultPlan, LinkFaults};
        let mut sim = make_sim(2, 1.0);
        sim.set_fault_plan(FaultPlan::new(4).uniform(
            LinkFaults::none().with_burst(SimTime::from_millis(100), SimTime::from_millis(200)),
        ));
        sim.inject(SimTime::from_millis(50), n(0), 1); // triggers a forward at ~51 ms: delivered
        sim.inject(SimTime::from_millis(150), n(0), 1); // forward lands in the outage: dropped
        sim.run_to_quiescence();
        // the start-of-run flood message and the pre-outage forward arrive;
        // only the forward inside the window is eaten.
        assert_eq!(sim.app(n(1)).received.len(), 2);
        assert_eq!(sim.metrics().dropped_fault(), 1);
    }

    #[test]
    fn partition_severs_cut_and_heal_restores() {
        let mut sim = make_sim(4, 1.0);
        // cut {0,1} | {2,3} before the flood starts; heal later.
        sim.schedule_partition(SimTime::ZERO, vec![n(0), n(1)]);
        sim.schedule_heal(SimTime::from_secs(1));
        sim.run_until(SimTime::from_millis(500));
        assert!(sim.is_partitioned());
        // flood reached node 1 but died at the 1-2 cut
        assert_eq!(sim.app(n(1)).received, vec![(n(0), 3)]);
        assert!(sim.app(n(2)).received.is_empty());
        assert_eq!(sim.metrics().dropped_fault(), 1);
        // both endpoints of the cut link observed NeighborDown
        assert!(sim
            .app(n(1))
            .link_events
            .iter()
            .any(|e| matches!(e, LinkEvent::NeighborDown { neighbor } if *neighbor == n(2))));
        assert!(sim
            .app(n(2))
            .link_events
            .iter()
            .any(|e| matches!(e, LinkEvent::NeighborDown { neighbor } if *neighbor == n(1))));
        sim.run_to_quiescence();
        assert!(!sim.is_partitioned());
        // after the heal both endpoints observe NeighborUp
        assert!(sim
            .app(n(1))
            .link_events
            .iter()
            .any(|e| matches!(e, LinkEvent::NeighborUp { neighbor, .. } if *neighbor == n(2))));
        assert!(sim
            .app(n(2))
            .link_events
            .iter()
            .any(|e| matches!(e, LinkEvent::NeighborUp { neighbor, .. } if *neighbor == n(1))));
        // intra-side traffic was never faulted
        assert_eq!(sim.metrics().dropped_no_link(), 0);
        assert_eq!(sim.metrics().dropped_node_down(), 0);
    }

    #[test]
    fn heal_without_partition_is_a_noop() {
        let mut sim = make_sim(2, 1.0);
        sim.schedule_heal(SimTime::from_millis(1));
        sim.run_to_quiescence();
        assert!(!sim.is_partitioned());
        assert_eq!(sim.app(n(1)).received.len(), 1);
    }

    #[test]
    fn max_events_caps_runaway_protocols() {
        // Two nodes ping-ponging forever.
        struct PingPong;
        impl NodeApp for PingPong {
            type Message = u32;
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                if ctx.id() == n(0) {
                    ctx.send(n(1), 0, 10);
                }
            }
            fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: NodeId, msg: u32) {
                ctx.send(from, msg + 1, 10);
            }
        }
        let mut topo = Topology::new(2);
        topo.add_bidirectional(n(0), n(1), LinkParams::default());
        let cfg = SimConfig { max_events: 500, ..SimConfig::default() };
        let mut sim = Simulator::new(topo, vec![PingPong, PingPong], cfg);
        sim.run_to_quiescence();
        assert!(sim.events_processed() <= 500);
    }
}
