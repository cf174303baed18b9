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
