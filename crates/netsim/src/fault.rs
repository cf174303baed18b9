//! Deterministic fault injection for the simulated wire.
//!
//! The base simulator delivers every message exactly once, in FIFO order
//! per link — an idealization the paper's soft-state arguments (§8) never
//! rely on. A [`FaultPlan`] makes the wire adversarial in a reproducible
//! way: per-link probabilistic drop, duplication, reordering (an extra
//! random delay applied to individual messages), and timed burst outages,
//! all driven by one seeded RNG so a given `(plan, workload)` pair replays
//! identically.
//!
//! Faults are applied at *delivery* time by the [`Simulator`]: a message
//! still pays its transmission and propagation delay (and is counted in
//! [`Metrics`](crate::Metrics) as sent), then the plan decides whether the
//! copy that arrives is dropped, delayed further, or accompanied by a
//! duplicate. Self-deliveries (timers, injections, `send_self`) are never
//! faulted — only real wire traffic is.
//!
//! A simulator with **no** plan installed never consults an RNG and
//! schedules exactly the events it always did, so fault-free runs are
//! byte-identical to runs of older builds.
//!
//! [`Simulator`]: crate::Simulator

use crate::time::{SimDuration, SimTime};
use dr_types::hash::HashMap;
use dr_types::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The fault behavior of one directed link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFaults {
    /// Probability that an arriving message is silently discarded.
    pub drop: f64,
    /// Probability that an arriving message is delivered twice (the
    /// duplicate arrives a random extra delay later).
    pub duplicate: f64,
    /// Probability that an arriving message is held back by a random extra
    /// delay, letting later traffic on the link overtake it.
    pub reorder: f64,
    /// Maximum extra delay for reordered messages and duplicates; the
    /// actual delay is sampled uniformly from `(0, max_extra_delay]`.
    pub max_extra_delay: SimDuration,
    /// Timed outage windows `[start, end)` during which every message on
    /// the link is dropped.
    pub bursts: Vec<(SimTime, SimTime)>,
}

impl LinkFaults {
    /// A fault-free link (all probabilities zero, no outages).
    pub fn none() -> LinkFaults {
        LinkFaults {
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            max_extra_delay: SimDuration::from_millis(50),
            bursts: Vec::new(),
        }
    }

    /// Set the drop probability.
    pub fn with_drop(mut self, p: f64) -> LinkFaults {
        assert!((0.0..=1.0).contains(&p), "drop probability out of range: {p}");
        self.drop = p;
        self
    }

    /// Set the duplication probability.
    pub fn with_duplicate(mut self, p: f64) -> LinkFaults {
        assert!((0.0..=1.0).contains(&p), "duplicate probability out of range: {p}");
        self.duplicate = p;
        self
    }

    /// Set the reorder probability and the maximum extra delay applied to
    /// reordered messages (also used for duplicate offsets).
    pub fn with_reorder(mut self, p: f64, max_extra_delay: SimDuration) -> LinkFaults {
        assert!((0.0..=1.0).contains(&p), "reorder probability out of range: {p}");
        assert!(max_extra_delay > SimDuration::ZERO, "reorder delay must be positive");
        self.reorder = p;
        self.max_extra_delay = max_extra_delay;
        self
    }

    /// Add a burst outage window `[start, end)`.
    pub fn with_burst(mut self, start: SimTime, end: SimTime) -> LinkFaults {
        assert!(start < end, "burst window must be non-empty");
        self.bursts.push((start, end));
        self
    }

    /// True when a burst outage covers `at`.
    pub fn burst_active(&self, at: SimTime) -> bool {
        self.bursts.iter().any(|(s, e)| at >= *s && at < *e)
    }

    /// True when this link can never perturb a message.
    pub fn is_none(&self) -> bool {
        self.drop == 0.0 && self.duplicate == 0.0 && self.reorder == 0.0 && self.bursts.is_empty()
    }
}

impl Default for LinkFaults {
    fn default() -> LinkFaults {
        LinkFaults::none()
    }
}

/// A seeded, deterministic description of how the wire misbehaves.
///
/// The plan holds a default [`LinkFaults`] applied to every directed link
/// plus per-link overrides. Install it with
/// [`Simulator::set_fault_plan`](crate::Simulator::set_fault_plan).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    default: LinkFaults,
    per_link: HashMap<(NodeId, NodeId), LinkFaults>,
}

impl FaultPlan {
    /// A plan with the given RNG seed and no faults anywhere.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, default: LinkFaults::none(), per_link: HashMap::default() }
    }

    /// Apply `faults` to every directed link (per-link overrides still win).
    pub fn uniform(mut self, faults: LinkFaults) -> FaultPlan {
        self.default = faults;
        self
    }

    /// Override the faults of the directed link `from → to`.
    pub fn link(mut self, from: NodeId, to: NodeId, faults: LinkFaults) -> FaultPlan {
        self.per_link.insert((from, to), faults);
        self
    }

    /// Override the faults of both directions between `a` and `b`.
    pub fn link_bidirectional(self, a: NodeId, b: NodeId, faults: LinkFaults) -> FaultPlan {
        self.link(a, b, faults.clone()).link(b, a, faults)
    }

    /// The RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The faults governing the directed link `from → to`.
    pub fn faults_for(&self, from: NodeId, to: NodeId) -> &LinkFaults {
        self.per_link.get(&(from, to)).unwrap_or(&self.default)
    }

    /// True when no link anywhere can perturb a message (the plan is
    /// behaviorally inert).
    pub fn is_inert(&self) -> bool {
        self.default.is_none() && self.per_link.values().all(LinkFaults::is_none)
    }
}

/// What the fault layer decided to do with one arriving message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultAction {
    /// Deliver normally.
    Deliver,
    /// Silently discard.
    Drop,
    /// Hold the message back; deliver after the extra delay.
    Delay(SimDuration),
    /// Deliver now and also deliver a duplicate after the extra delay.
    Duplicate(SimDuration),
}

/// The runtime state of an installed plan: the plan plus its RNG.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    rng: StdRng,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> FaultState {
        let rng = StdRng::seed_from_u64(plan.seed);
        FaultState { plan, rng }
    }

    /// Decide the fate of a message arriving on `from → to` at `now`.
    ///
    /// Consults the RNG only for fault classes with non-zero probability,
    /// so an inert plan perturbs neither delivery nor the random stream.
    pub(crate) fn on_arrival(&mut self, from: NodeId, to: NodeId, now: SimTime) -> FaultAction {
        let f = self.plan.faults_for(from, to);
        if f.burst_active(now) {
            return FaultAction::Drop;
        }
        if f.drop > 0.0 && self.rng.gen_bool(f.drop) {
            return FaultAction::Drop;
        }
        if f.reorder > 0.0 && self.rng.gen_bool(f.reorder) {
            return FaultAction::Delay(self.sample_extra(f.max_extra_delay));
        }
        if f.duplicate > 0.0 && self.rng.gen_bool(f.duplicate) {
            return FaultAction::Duplicate(self.sample_extra(f.max_extra_delay));
        }
        FaultAction::Deliver
    }

    fn sample_extra(&mut self, max: SimDuration) -> SimDuration {
        let max_us = max.as_micros().max(1);
        SimDuration::from_micros(self.rng.gen_range(1..max_us + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn defaults_are_inert() {
        let plan = FaultPlan::new(7);
        assert!(plan.is_inert());
        assert!(plan.faults_for(n(0), n(1)).is_none());
        assert_eq!(plan.seed(), 7);
    }

    #[test]
    fn per_link_overrides_win_over_default() {
        let plan = FaultPlan::new(1).uniform(LinkFaults::none().with_drop(0.1)).link(
            n(0),
            n(1),
            LinkFaults::none(),
        );
        assert_eq!(plan.faults_for(n(0), n(1)).drop, 0.0);
        assert_eq!(plan.faults_for(n(1), n(0)).drop, 0.1);
        assert!(!plan.is_inert());
    }

    #[test]
    fn bidirectional_override_covers_both_directions() {
        let plan =
            FaultPlan::new(1).link_bidirectional(n(2), n(3), LinkFaults::none().with_drop(0.5));
        assert_eq!(plan.faults_for(n(2), n(3)).drop, 0.5);
        assert_eq!(plan.faults_for(n(3), n(2)).drop, 0.5);
    }

    #[test]
    fn burst_windows_are_half_open() {
        let f = LinkFaults::none()
            .with_burst(SimTime::from_secs(10), SimTime::from_secs(20))
            .with_burst(SimTime::from_secs(30), SimTime::from_secs(31));
        assert!(!f.burst_active(SimTime::from_secs(9)));
        assert!(f.burst_active(SimTime::from_secs(10)));
        assert!(f.burst_active(SimTime::from_secs(19)));
        assert!(!f.burst_active(SimTime::from_secs(20)));
        assert!(f.burst_active(SimTime::from_secs(30)));
        assert!(!f.is_none());
    }

    #[test]
    fn inert_state_always_delivers_without_consuming_rng() {
        let mut state = FaultState::new(FaultPlan::new(42));
        let before = format!("{:?}", state.rng);
        for i in 0..50 {
            assert_eq!(state.on_arrival(n(0), n(1), SimTime::from_millis(i)), FaultAction::Deliver);
        }
        assert_eq!(format!("{:?}", state.rng), before, "inert plan must not touch the RNG");
    }

    #[test]
    fn full_drop_always_drops() {
        let plan = FaultPlan::new(3).uniform(LinkFaults::none().with_drop(1.0));
        let mut state = FaultState::new(plan);
        for _ in 0..20 {
            assert_eq!(state.on_arrival(n(0), n(1), SimTime::ZERO), FaultAction::Drop);
        }
    }

    #[test]
    fn decisions_replay_for_a_seed() {
        let plan = || {
            FaultPlan::new(9).uniform(
                LinkFaults::none()
                    .with_drop(0.3)
                    .with_duplicate(0.3)
                    .with_reorder(0.3, SimDuration::from_millis(20)),
            )
        };
        let mut a = FaultState::new(plan());
        let mut b = FaultState::new(plan());
        for i in 0..200 {
            let t = SimTime::from_millis(i);
            assert_eq!(a.on_arrival(n(0), n(1), t), b.on_arrival(n(0), n(1), t));
        }
    }

    #[test]
    fn extra_delays_stay_within_bounds() {
        let plan = FaultPlan::new(5)
            .uniform(LinkFaults::none().with_reorder(1.0, SimDuration::from_millis(10)));
        let mut state = FaultState::new(plan);
        for _ in 0..100 {
            match state.on_arrival(n(0), n(1), SimTime::ZERO) {
                FaultAction::Delay(d) => {
                    assert!(d > SimDuration::ZERO && d <= SimDuration::from_millis(10), "{d:?}");
                }
                other => panic!("expected Delay, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "drop probability out of range")]
    fn out_of_range_probability_panics() {
        let _ = LinkFaults::none().with_drop(1.5);
    }
}
