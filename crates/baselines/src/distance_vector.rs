//! A classic distance-vector protocol (RIP-style) with split horizon and
//! poison reverse, hand-coded against the simulator. Unlike the path-vector
//! baseline it advertises only (destination, cost) pairs — the traditional
//! "batches together a vector of costs" behaviour the paper contrasts with
//! its per-tuple execution (§3.6).

use dr_netsim::{Context, LinkEvent, NodeApp, SimDuration};
use dr_types::hash::HashMap;
use dr_types::{Cost, NodeId};
use std::collections::BTreeMap;

/// A distance-vector advertisement: destination → advertised cost.
#[derive(Debug, Clone)]
pub struct DistanceVector {
    entries: Vec<(NodeId, Cost)>,
}

impl DistanceVector {
    /// Wire size estimate (8 bytes per entry plus header).
    pub fn wire_size(&self) -> usize {
        16 + 8 * self.entries.len()
    }
}

/// Configuration of the distance-vector baseline.
#[derive(Debug, Clone)]
pub struct DistanceVectorConfig {
    /// Advertisement batching interval.
    pub advertisement_interval: SimDuration,
    /// Cost treated as unreachable (RIP's 16).
    pub infinity: Cost,
}

impl Default for DistanceVectorConfig {
    fn default() -> Self {
        DistanceVectorConfig {
            advertisement_interval: SimDuration::from_millis(200),
            infinity: Cost::new(1e6),
        }
    }
}

/// The per-node distance-vector protocol instance.
pub struct DistanceVectorNode {
    config: DistanceVectorConfig,
    id: NodeId,
    /// destination → (next hop, cost)
    routes: BTreeMap<NodeId, (NodeId, Cost)>,
    /// (neighbor, destination) → cost advertised by that neighbor.
    heard: HashMap<(NodeId, NodeId), Cost>,
    neighbors: BTreeMap<NodeId, Cost>,
    dirty: bool,
    advert_scheduled: bool,
}

impl DistanceVectorNode {
    /// Create a node with the given configuration.
    pub fn new(config: DistanceVectorConfig) -> DistanceVectorNode {
        DistanceVectorNode {
            config,
            id: NodeId::new(0),
            routes: BTreeMap::new(),
            heard: HashMap::default(),
            neighbors: BTreeMap::new(),
            dirty: false,
            advert_scheduled: false,
        }
    }

    /// destination → (next hop, cost) routing table.
    pub fn routes(&self) -> &BTreeMap<NodeId, (NodeId, Cost)> {
        &self.routes
    }

    /// The next hop and cost toward `dest`, if reachable.
    pub fn route_to(&self, dest: NodeId) -> Option<(NodeId, Cost)> {
        self.routes.get(&dest).copied().filter(|(_, c)| c.is_finite())
    }

    /// Number of destinations with a finite route.
    pub fn reachable_destinations(&self) -> usize {
        self.routes.values().filter(|(_, c)| c.is_finite()).count()
    }

    fn recompute(&mut self) -> bool {
        let mut new_routes: BTreeMap<NodeId, (NodeId, Cost)> = BTreeMap::new();
        for (&nb, &cost) in &self.neighbors {
            if cost.is_finite() {
                new_routes.insert(nb, (nb, cost));
            }
        }
        for ((nb, dest), &cost) in &self.heard {
            let Some(&link_cost) = self.neighbors.get(nb) else { continue };
            if !link_cost.is_finite() {
                continue;
            }
            let total = link_cost + cost;
            if total >= self.config.infinity {
                continue;
            }
            match new_routes.get(dest) {
                Some((_, existing)) if *existing <= total => {}
                _ => {
                    new_routes.insert(*dest, (*nb, total));
                }
            }
        }
        new_routes.remove(&self.id);
        let changed = new_routes != self.routes;
        self.routes = new_routes;
        changed
    }

    /// Build the advertisement for one neighbor, applying split horizon with
    /// poison reverse: routes learned through that neighbor are advertised
    /// back with infinite cost.
    fn advertisement_for(&self, neighbor: NodeId) -> DistanceVector {
        DistanceVector {
            entries: self
                .routes
                .iter()
                .map(
                    |(&dest, &(next, cost))| {
                        if next == neighbor {
                            (dest, self.config.infinity)
                        } else {
                            (dest, cost)
                        }
                    },
                )
                .collect(),
        }
    }

    fn schedule_advert(&mut self, ctx: &mut Context<'_, DistanceVector>) {
        if !self.advert_scheduled {
            self.advert_scheduled = true;
            ctx.set_timer(self.config.advertisement_interval);
        }
    }
}

impl NodeApp for DistanceVectorNode {
    type Message = DistanceVector;

    fn on_start(&mut self, ctx: &mut Context<'_, DistanceVector>) {
        self.id = ctx.id();
        self.neighbors = ctx.neighbors().into_iter().map(|(nb, p)| (nb, p.cost)).collect();
        self.recompute();
        self.dirty = true;
        self.schedule_advert(ctx);
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, DistanceVector>,
        from: NodeId,
        msg: DistanceVector,
    ) {
        self.heard.retain(|(nb, _), _| *nb != from);
        for (dest, cost) in msg.entries {
            let stored = if cost >= self.config.infinity { Cost::INFINITY } else { cost };
            self.heard.insert((from, dest), stored);
        }
        if self.recompute() {
            self.dirty = true;
            self.schedule_advert(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, DistanceVector>, _timer: u64) {
        self.advert_scheduled = false;
        if !self.dirty {
            return;
        }
        self.dirty = false;
        let neighbors: Vec<NodeId> = self.neighbors.keys().copied().collect();
        for nb in neighbors {
            let advert = self.advertisement_for(nb);
            let size = advert.wire_size();
            ctx.send(nb, advert, size);
        }
    }

    fn on_link_event(&mut self, ctx: &mut Context<'_, DistanceVector>, event: LinkEvent) {
        match event {
            LinkEvent::MetricChanged { neighbor, params } => {
                self.neighbors.insert(neighbor, params.cost);
            }
            LinkEvent::NeighborDown { neighbor } => {
                self.neighbors.insert(neighbor, Cost::INFINITY);
                self.heard.retain(|(nb, _), _| *nb != neighbor);
            }
            LinkEvent::NeighborUp { neighbor, params } => {
                self.neighbors.insert(neighbor, params.cost);
            }
        }
        self.recompute();
        self.dirty = true;
        self.schedule_advert(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_netsim::{LinkParams, SimConfig, SimTime, Simulator, Topology};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
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

    fn build(topology: Topology) -> Simulator<DistanceVectorNode> {
        let apps = (0..topology.num_nodes())
            .map(|_| DistanceVectorNode::new(DistanceVectorConfig::default()))
            .collect();
        Simulator::new(topology, apps, SimConfig::default())
    }

    #[test]
    fn converges_on_a_line() {
        let mut sim = build(line(5));
        sim.run_until(SimTime::from_secs(30));
        for i in 0..5u32 {
            assert_eq!(sim.app(n(i)).reachable_destinations(), 4, "node {i}");
        }
        assert_eq!(sim.app(n(0)).route_to(n(4)), Some((n(1), Cost::new(4.0))));
        assert_eq!(sim.app(n(4)).route_to(n(0)), Some((n(3), Cost::new(4.0))));
    }

    #[test]
    fn split_horizon_poisons_reverse_advertisements() {
        let mut node = DistanceVectorNode::new(DistanceVectorConfig::default());
        node.id = n(1);
        node.neighbors.insert(n(0), Cost::new(1.0));
        node.neighbors.insert(n(2), Cost::new(1.0));
        node.heard.insert((n(2), n(3)), Cost::new(1.0));
        node.recompute();
        // Route to 3 goes via 2; advertising back to 2 must poison it.
        let to_2 = node.advertisement_for(n(2));
        let entry = to_2.entries.iter().find(|(d, _)| *d == n(3)).unwrap();
        assert!(entry.1 >= node.config.infinity);
        // ...but the same route advertised to 0 carries the real cost.
        let to_0 = node.advertisement_for(n(0));
        let entry = to_0.entries.iter().find(|(d, _)| *d == n(3)).unwrap();
        assert_eq!(entry.1, Cost::new(2.0));
    }

    #[test]
    fn recovers_from_failure_without_counting_to_infinity() {
        // Square 0-1, 1-3, 0-2, 2-3: fail node 1, route 0->3 flips to via 2.
        let mut t = Topology::new(4);
        for (a, b) in [(0u32, 1u32), (1, 3), (0, 2), (2, 3)] {
            t.add_bidirectional(
                n(a),
                n(b),
                LinkParams::with_latency_ms(10.0).with_cost(Cost::new(1.0)),
            );
        }
        let mut sim = build(t);
        sim.run_until(SimTime::from_secs(20));
        assert_eq!(sim.app(n(0)).route_to(n(3)).unwrap().1, Cost::new(2.0));
        sim.schedule_node_fail(SimTime::from_secs(20), n(1));
        sim.run_until(SimTime::from_secs(60));
        let (next, cost) = sim.app(n(0)).route_to(n(3)).unwrap();
        assert_eq!(next, n(2));
        assert_eq!(cost, Cost::new(2.0));
    }

    #[test]
    fn unreachable_destinations_eventually_disappear() {
        let mut sim = build(line(3));
        sim.run_until(SimTime::from_secs(20));
        assert!(sim.app(n(0)).route_to(n(2)).is_some());
        sim.schedule_node_fail(SimTime::from_secs(20), n(2));
        sim.run_until(SimTime::from_secs(120));
        assert!(sim.app(n(0)).route_to(n(2)).is_none());
    }

    #[test]
    fn advertisement_wire_size() {
        let dv = DistanceVector { entries: vec![(n(1), Cost::new(1.0)), (n(2), Cost::new(2.0))] };
        assert_eq!(dv.wire_size(), 32);
    }
}
