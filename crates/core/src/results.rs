//! How results leave the engine: as deltas, from a per-query change log.
//!
//! Result rows enter and leave a node's store at exactly two places — the
//! keyed insert every stored tuple goes through, and the teardown that drops
//! a node's instance — and both append the signed change (`+new`, `-old`) to
//! one deployment-wide log per query, held by the [`QueryLibrary`] every
//! processor and the harness already share. A [`ResultCursor`] is an offset
//! into that log: a poll folds the entries past the offset into a net
//! multiset change, so an idle poll is O(1) and a busy one O(changes), however
//! many cursors watch the query.
//!
//! The log limits itself, with no setting:
//!
//! * it is **dormant** — nothing appended, nothing allocated — until some
//!   cursor's first poll, so a deployment nobody observes pays one atomic
//!   load per stored result row;
//! * it is **truncated** when it outgrows twice the query's live result
//!   rows (with a floor of 64 rows): entries some cursor has already read
//!   are dropped, oldest first, down to half the bound;
//! * it goes **dormant again** when more than a whole bound of entries sits
//!   unread (every cursor was abandoned, or one burst outgrew the bound);
//! * it is **dropped** when the last node holding the query tears it down.
//!
//! A cursor that finds its offset truncated away, or no log at all,
//! *resynchronises*: it diffs its own mirror of what it has reported against
//! one snapshot of the deployment's stored results — the same snapshot
//! routine behind the first poll and [`QueryHandle::raw_results`] — and
//! wakes the log. That costs what every poll used to cost, O(result rows).
//!
//! [`QueryLibrary`]: crate::query::QueryLibrary
//! [`QueryHandle::raw_results`]: crate::harness::QueryHandle::raw_results

use crate::harness::RoutingHarness;
use crate::query::QueryId;
use dr_types::hash::HashMap;
use dr_types::Tuple;
use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{self, AtomicUsize};
use std::sync::Mutex;

/// A log may hold this many entries per live result row of its query before
/// it is truncated. Past one entry per row a lagging cursor is better off
/// resynchronising than reading on, so the factor only has to leave room for
/// the half that truncation keeps.
const LOG_ROWS_FACTOR: usize = 2;

/// Row count below which the bound stops shrinking: a query that is still
/// converging (or being torn down) has few rows and many changes.
const LOG_MIN_ROWS: usize = 64;

/// Result-set changes observed between two [`ResultCursor`] polls.
///
/// Result tuples disappear as well as appear — keyed upserts replace a
/// route's row when a better path wins, ∞-tombstones poison rows during
/// recovery, and teardown removes the whole set — so a streaming consumer
/// needs both directions to mirror the result set incrementally.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultsDelta {
    /// Result tuples that appeared since the last poll.
    pub added: Vec<Tuple>,
    /// Result tuples that disappeared since the last poll.
    pub removed: Vec<Tuple>,
}

impl ResultsDelta {
    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Total number of changed rows.
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len()
    }
}

crate::counters! {
    /// Exact, deployment-wide counters of the result change logs (they outlive
    /// the logs they counted).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ResultLogStats {
        /// Signed changes appended by the nodes.
        pub changes_logged: u64,
        /// Log entries folded into deltas, summed over every cursor.
        pub entries_read: u64,
        /// Polls answered from a snapshot instead of the log: first polls,
        /// cursors truncated past, polls of a query with no log.
        pub resyncs: u64,
        /// Stored result rows those snapshots visited.
        pub rows_rescanned: u64,
        /// Times a log outgrew its bound (and was cut back or put to sleep).
        pub truncations: u64,
    }
}

/// Where a cursor stands in a log: which activation of it, and the absolute
/// index of the next entry to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LogPosition {
    epoch: u64,
    offset: u64,
}

/// The active change log of one query.
#[derive(Debug)]
struct ResultLog {
    /// Which activation this is; offsets of an earlier one mean nothing here.
    epoch: u64,
    /// Absolute index of `entries[0]`.
    base: u64,
    /// Signed changes, oldest first: the tuple and whether it was added.
    entries: VecDeque<(Tuple, bool)>,
    /// The furthest any cursor has read.
    read_to: u64,
    /// Result rows stored across the deployment.
    live: usize,
    /// Nodes holding an instance of the query.
    installed: usize,
}

impl ResultLog {
    fn end(&self) -> u64 {
        self.base + self.entries.len() as u64
    }

    fn push(&mut self, tuple: Tuple, added: bool) {
        self.live = if added { self.live + 1 } else { self.live.saturating_sub(1) };
        self.entries.push_back((tuple, added));
    }

    /// Cut an overgrown log back: drop entries some cursor has read, oldest
    /// first, down to half the bound. Returns false when more than a whole
    /// bound of entries is still unread — the log should go dormant.
    fn enforce_bound(&mut self, stats: &mut ResultLogStats) -> bool {
        let bound = LOG_ROWS_FACTOR * self.live.max(LOG_MIN_ROWS);
        if self.entries.len() <= bound {
            return true;
        }
        stats.truncations += 1;
        let read = self.read_to.saturating_sub(self.base) as usize;
        let dropped = read.min(self.entries.len() - bound / 2);
        self.entries.drain(..dropped);
        self.base += dropped as u64;
        self.entries.len() <= bound
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// The active logs; a query with no entry is dormant.
    logs: HashMap<QueryId, ResultLog>,
    /// Activations so far, the source of [`ResultLog::epoch`].
    activations: u64,
    stats: ResultLogStats,
}

/// Every query's result change log (see the module documentation).
#[derive(Debug, Default)]
pub(crate) struct ResultLogs {
    /// `inner.logs.len()`, readable without the lock: while nothing is
    /// observed the nodes' write path stops here.
    active: AtomicUsize,
    inner: Mutex<Inner>,
}

impl ResultLogs {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("result log lock poisoned")
    }

    /// Run `write` on `qid`'s log if it is active, then hold the log to its
    /// bound.
    fn write_active(&self, qid: QueryId, write: impl FnOnce(&mut ResultLog)) {
        if self.active.load(atomic::Ordering::SeqCst) == 0 {
            return;
        }
        let mut inner = self.lock();
        let Inner { logs, stats, .. } = &mut *inner;
        let Some(log) = logs.get_mut(&qid) else { return };
        let before = log.end();
        write(log);
        stats.changes_logged += log.end() - before;
        if log.installed == 0 || !log.enforce_bound(stats) {
            logs.remove(&qid);
            self.active.store(logs.len(), atomic::Ordering::SeqCst);
        }
    }

    /// A node stored result row `added`, displacing `replaced`.
    pub(crate) fn stored(&self, qid: QueryId, added: &Tuple, replaced: Option<&Tuple>) {
        self.write_active(qid, |log| {
            if let Some(old) = replaced {
                log.push(old.clone(), false);
            }
            log.push(added.clone(), true);
        });
    }

    /// A node installed the query.
    pub(crate) fn installed(&self, qid: QueryId) {
        self.write_active(qid, |log| log.installed += 1);
    }

    /// A node tore the query down, dropping result rows `rows` (walked only
    /// when the log is active). The last node's teardown drops the log.
    pub(crate) fn torn_down(&self, qid: QueryId, rows: impl Iterator<Item = Tuple>) {
        self.write_active(qid, |log| {
            rows.for_each(|row| log.push(row, false));
            log.installed = log.installed.saturating_sub(1);
        });
    }

    /// Fold the entries from `at` on into `net` (tuple → signed count) and
    /// return the position after them; `None`, with `net` untouched, when
    /// there is no log to read or `at` was truncated away.
    fn read(
        &self,
        qid: QueryId,
        at: LogPosition,
        net: &mut BTreeMap<Tuple, isize>,
    ) -> Option<LogPosition> {
        let mut inner = self.lock();
        let Inner { logs, stats, .. } = &mut *inner;
        let log =
            logs.get_mut(&qid).filter(|log| log.epoch == at.epoch && log.base <= at.offset)?;
        let unread = log.entries.range((at.offset - log.base) as usize..);
        stats.entries_read += unread.len() as u64;
        for (tuple, added) in unread {
            *net.entry(tuple.clone()).or_insert(0) += if *added { 1 } else { -1 };
        }
        log.read_to = log.end();
        Some(LogPosition { offset: log.end(), ..at })
    }

    /// A cursor resynchronised against a snapshot of `rows` result rows on
    /// `installed` nodes: wake the query's log if it is dormant and any node
    /// could write to it, and return the position that snapshot is current
    /// at (`None` when there is nothing to follow).
    fn attach(&self, qid: QueryId, rows: usize, installed: usize) -> Option<LogPosition> {
        let mut inner = self.lock();
        inner.stats.resyncs += 1;
        inner.stats.rows_rescanned += rows as u64;
        if installed > 0 && !inner.logs.contains_key(&qid) {
            inner.activations += 1;
            let log = ResultLog {
                epoch: inner.activations,
                base: 0,
                entries: VecDeque::new(),
                read_to: 0,
                live: rows,
                installed,
            };
            inner.logs.insert(qid, log);
            self.active.store(inner.logs.len(), atomic::Ordering::SeqCst);
        }
        let log = inner.logs.get_mut(&qid)?;
        log.read_to = log.end();
        Some(LogPosition { epoch: log.epoch, offset: log.end() })
    }

    pub(crate) fn stats(&self) -> ResultLogStats {
        self.lock().stats
    }
}

/// An incremental view over one query's deployment-wide result set.
///
/// The cursor is a position in the query's result change log (see the
/// [module documentation](self)) plus a mirror of the result multiset it
/// has reported so far. [`ResultCursor::poll`] folds the log entries past
/// the position into the net change and returns it, added and removed rows
/// each in tuple order: an idle poll costs O(1), a busy one O(changes), and
/// any number of cursors on one query share the one log. Polling is
/// pull-based and the cursor holds no borrow on the harness, so a
/// long-lived service can keep thousands of cursors (one per subscriber)
/// and poll them after each batch of simulated time.
///
/// A subscriber that stops polling sees a larger, coalesced delta later. If
/// the log was meanwhile truncated past its position (or went dormant, or
/// was dropped with the query) the cursor resynchronises instead: it diffs
/// the mirror against one snapshot of the stored results, at O(result rows)
/// — which is also what the very first poll does, reporting every current
/// result as added. The deltas are the same either way; the mirror is what
/// bounds a subscriber's memory to the size of the result set rather than
/// the length of the update history.
#[derive(Debug, Clone)]
pub struct ResultCursor {
    qid: QueryId,
    /// The result multiset reported so far (tuple → multiplicity; the same
    /// row may legitimately be stored at several nodes).
    seen: BTreeMap<Tuple, usize>,
    /// Where in the log `seen` is current. `None` before the first poll and
    /// while the query has no log to follow.
    at: Option<LogPosition>,
}

impl ResultCursor {
    /// A fresh cursor over `qid`'s deployment-wide result set, equivalent
    /// to [`QueryHandle::cursor`](crate::harness::QueryHandle::cursor) for
    /// callers that hold only the id (e.g. a service subscribing on behalf
    /// of a remote client).
    pub fn new(qid: QueryId) -> ResultCursor {
        ResultCursor { qid, seen: BTreeMap::new(), at: None }
    }

    /// The query this cursor observes.
    pub fn query(&self) -> QueryId {
        self.qid
    }

    /// True when every row the cursor has reported added it has since
    /// reported removed — its consumer holds nothing.
    pub fn holds_nothing(&self) -> bool {
        self.seen.is_empty()
    }

    /// Report how the query's result set changed since the last poll, and
    /// advance the cursor.
    pub fn poll(&mut self, harness: &RoutingHarness) -> ResultsDelta {
        let logs = harness.library().results();
        let mut net = BTreeMap::new();
        match self.at.and_then(|at| logs.read(self.qid, at, &mut net)) {
            Some(at) => {
                self.at = Some(at);
                self.report(net)
            }
            None => self.resync(harness),
        }
    }

    /// Turn the net change read from the log into a delta and apply it to
    /// the mirror.
    fn report(&mut self, net: BTreeMap<Tuple, isize>) -> ResultsDelta {
        let mut delta = ResultsDelta::default();
        for (tuple, change) in net {
            let copies = change.unsigned_abs();
            match change.cmp(&0) {
                Ordering::Equal => continue,
                Ordering::Greater => {
                    *self.seen.entry(tuple.clone()).or_insert(0) += copies;
                    delta.added.extend(std::iter::repeat_n(tuple, copies));
                }
                Ordering::Less => {
                    let held = self.seen.get_mut(&tuple).filter(|held| **held >= copies);
                    let held = held.expect("the log removes only rows it reported added");
                    *held -= copies;
                    if *held == 0 {
                        self.seen.remove(&tuple);
                    }
                    delta.removed.extend(std::iter::repeat_n(tuple, copies));
                }
            }
        }
        delta
    }

    /// Diff the mirror against a snapshot of the stored results, and follow
    /// the log from the state that snapshot shows.
    fn resync(&mut self, harness: &RoutingHarness) -> ResultsDelta {
        let rows = harness.collect_results(self.qid);
        let logs = harness.library().results();
        self.at = logs.attach(self.qid, rows.len(), harness.installed_nodes(self.qid));
        let mut current: BTreeMap<Tuple, usize> = BTreeMap::new();
        for t in rows {
            *current.entry(t).or_insert(0) += 1;
        }
        let mut delta = ResultsDelta::default();
        for (t, &now) in &current {
            let before = self.seen.get(t).copied().unwrap_or(0);
            delta.added.extend(std::iter::repeat_n(t, now.saturating_sub(before)).cloned());
        }
        for (t, &before) in &self.seen {
            let now = current.get(t).copied().unwrap_or(0);
            delta.removed.extend(std::iter::repeat_n(t, before.saturating_sub(now)).cloned());
        }
        self.seen = current;
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::tests::BEST_PATH;
    use crate::harness::QueryHandle;
    use dr_datalog::parse_program;
    use dr_netsim::{LinkParams, SimTime, Topology};
    use dr_types::{Cost, NodeId, Value};
    use proptest::prelude::*;

    /// What a log of a query with at most [`LOG_MIN_ROWS`] live rows may hold.
    const SMALL_BOUND: u64 = (LOG_ROWS_FACTOR * LOG_MIN_ROWS) as u64;
    const TICK_MS: u64 = 500;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn link(cost: u32) -> LinkParams {
        LinkParams::with_latency_ms(10.0).with_cost(Cost::new(f64::from(cost)))
    }

    /// The reference: the rescan every poll used to be. It rebuilds the
    /// deployment-wide result multiset from a snapshot and diffs it against
    /// the previous one — no log, no position.
    #[derive(Default)]
    struct RescanCursor {
        seen: BTreeMap<Tuple, usize>,
    }

    impl RescanCursor {
        fn poll(&mut self, harness: &RoutingHarness, qid: QueryId) -> ResultsDelta {
            let mut current: BTreeMap<Tuple, usize> = BTreeMap::new();
            for t in harness.collect_results(qid) {
                *current.entry(t).or_insert(0) += 1;
            }
            let mut delta = ResultsDelta::default();
            for (t, &now) in &current {
                let before = self.seen.get(t).copied().unwrap_or(0);
                for _ in before..now {
                    delta.added.push(t.clone());
                }
            }
            for (t, &before) in &self.seen {
                let now = current.get(t).copied().unwrap_or(0);
                for _ in now..before {
                    delta.removed.push(t.clone());
                }
            }
            self.seen = current;
            delta
        }
    }

    /// A log cursor and its reference, polled at the same instants.
    struct Pair {
        name: &'static str,
        cursor: ResultCursor,
        reference: RescanCursor,
    }

    impl Pair {
        fn new(name: &'static str, handle: &QueryHandle) -> Pair {
            Pair { name, cursor: handle.cursor(), reference: RescanCursor::default() }
        }

        fn poll(&mut self, harness: &RoutingHarness, tick: usize) {
            let expected = self.reference.poll(harness, self.cursor.query());
            let got = self.cursor.poll(harness);
            assert_eq!(
                got, expected,
                "cursor `{}` diverged from the rescan at tick {tick}",
                self.name
            );
            assert_eq!(self.cursor.seen, self.reference.seen, "mirror of `{}`", self.name);
        }
    }

    /// A connected overlay: a chain over `nodes` plus `extra` chords.
    fn overlay(nodes: u32, extra: &[(u32, u32, u32)]) -> (Topology, Vec<(u32, u32)>) {
        let mut edges: Vec<(u32, u32, u32)> =
            (0..nodes - 1).map(|i| (i, i + 1, 1 + i % 3)).collect();
        for &(a, b, cost) in extra {
            let (a, b) = (a % nodes, b % nodes);
            if a != b && !edges.iter().any(|&(x, y, _)| (x, y) == (a, b) || (x, y) == (b, a)) {
                edges.push((a, b, cost));
            }
        }
        let mut topology = Topology::new(nodes as usize);
        for &(a, b, cost) in &edges {
            topology.add_bidirectional(n(a), n(b), link(cost));
        }
        (topology, edges.into_iter().map(|(a, b, _)| (a, b)).collect())
    }

    /// One timeline event, decoded from the generated numbers: fail a node
    /// (never the issuer, which floods the teardown), rejoin it two ticks
    /// later, or set a link to a new finite cost.
    fn schedule(
        harness: &mut RoutingHarness,
        nodes: u32,
        edges: &[(u32, u32)],
        event: (u32, u32, u32, u32),
    ) {
        let (tick, kind, pick, cost) = event;
        let at = SimTime::from_millis(u64::from(tick) * TICK_MS + 50);
        if kind == 0 {
            let node = n(1 + pick % (nodes - 1));
            harness.sim_mut().schedule_node_fail(at, node);
            harness
                .sim_mut()
                .schedule_node_join(at + dr_netsim::SimDuration::from_millis(2 * TICK_MS), node);
        } else {
            let (a, b) = edges[pick as usize % edges.len()];
            for (from, to) in [(a, b), (b, a)] {
                harness.sim_mut().schedule_link_metric_change(at, n(from), n(to), link(cost));
            }
        }
    }

    /// Drive one deployment through `events` and a teardown at
    /// `teardown_tick`, with four cursors on the one query polled at
    /// different cadences, each held against its rescan reference at every
    /// poll. Returns the log counters at the end.
    fn differential_run(
        nodes: u32,
        extra: &[(u32, u32, u32)],
        events: &[(u32, u32, u32, u32)],
        ticks: usize,
        teardown_tick: usize,
    ) -> ResultLogStats {
        let (topology, edges) = overlay(nodes, extra);
        let mut harness = RoutingHarness::new(topology);
        let handle = harness.issue(parse_program(BEST_PATH).unwrap()).submit().unwrap();
        for &event in events {
            schedule(&mut harness, nodes, &edges, event);
        }
        let late_tick = ticks / 3;
        // `stale` polls twice early, then not again until most of the
        // timeline has gone through the log.
        let stale_until = ticks * 3 / 4;
        let mut every_tick = Pair::new("every tick", &handle);
        let mut every_7th = Pair::new("every 7th tick", &handle);
        let mut stale = Pair::new("stale", &handle);
        let mut late: Option<Pair> = None;
        for tick in 0..ticks {
            if tick == teardown_tick {
                let at = harness.now();
                harness.teardown(handle.id(), at);
            }
            harness.run_until(SimTime::from_millis((tick as u64 + 1) * TICK_MS));
            every_tick.poll(&harness, tick);
            if tick % 7 == 0 {
                every_7th.poll(&harness, tick);
            }
            if tick < 2 || tick >= stale_until {
                stale.poll(&harness, tick);
            }
            if tick == late_tick {
                late = Some(Pair::new("created late", &handle));
            }
            if let Some(late) = late.as_mut() {
                late.poll(&harness, tick);
            }
        }
        harness.result_log_stats()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Whatever the overlay and the timeline, every cursor's every
        /// delta equals the rescan's, element order included.
        #[test]
        fn cursor_deltas_equal_the_rescan(
            nodes in 4u32..9,
            extra in prop::collection::vec((0u32..9, 0u32..9, 1u32..8), 0..6),
            events in prop::collection::vec((2u32..40, 0u32..2, 0u32..64, 1u32..12), 0..10),
            teardown_tick in 20usize..44,
        ) {
            differential_run(nodes, &extra, &events, 48, teardown_tick);
        }
    }

    /// A busy timeline on the largest overlay the proptest draws: the log is
    /// truncated while `every tick` keeps reading, so `stale` and `every 7th`
    /// find their offsets gone and resynchronise — to the same deltas.
    #[test]
    fn truncated_cursors_resynchronise_to_the_same_deltas() {
        let extra = [(0, 4, 2), (1, 6, 3), (2, 7, 1), (3, 7, 2)];
        let events: Vec<(u32, u32, u32, u32)> =
            (2..40).map(|tick| (tick, tick % 3 % 2, tick * 7, 1 + tick % 9)).collect();
        let stats = differential_run(8, &extra, &events, 48, 44);
        assert!(stats.truncations > 0, "the timeline never outgrew the log: {stats:?}");
        // First polls account for four resyncs, the polls of the torn-down
        // query for a few more; a truncated cursor adds to those.
        assert!(stats.resyncs > 4, "{stats:?}");
        assert!(stats.entries_read > 0 && stats.changes_logged > SMALL_BOUND, "{stats:?}");
    }

    /// A node that is down misses the teardown flood and keeps its instance,
    /// so the query's log outlives the flood: the other nodes' rows must
    /// leave through it, and the straggler's when it is told on rejoining.
    #[test]
    fn a_teardown_that_spans_polls_streams_out_through_the_log() {
        let down_over_the_teardown = [(5, 0, 2, 0), (9, 1, 2, 5)];
        differential_run(6, &[(0, 3, 2)], &down_over_the_teardown, 14, 6);
    }

    /// Settle an 8-node overlay, then flip link costs for `rounds` seconds.
    /// `observe` is called once after convergence and once a second after.
    fn churned(
        rounds: u32,
        mut observe: impl FnMut(&RoutingHarness, &QueryHandle),
    ) -> RoutingHarness {
        let (topology, edges) = overlay(8, &[(0, 4, 2), (1, 6, 3), (2, 7, 1)]);
        let mut harness = RoutingHarness::new(topology);
        let handle = harness.issue(parse_program(BEST_PATH).unwrap()).submit().unwrap();
        harness.run_until(SimTime::from_secs(10));
        observe(&harness, &handle);
        for round in 0..rounds {
            let at = SimTime::from_secs(10 + u64::from(round));
            let (a, b) = edges[round as usize % edges.len()];
            for (from, to) in [(a, b), (b, a)] {
                harness.sim_mut().schedule_link_metric_change(
                    at,
                    n(from),
                    n(to),
                    link(1 + round % 7),
                );
            }
            harness.run_until(at + dr_netsim::SimDuration::from_secs(1));
            observe(&harness, &handle);
        }
        harness
    }

    #[test]
    fn a_deployment_nobody_polls_logs_nothing() {
        let mut harness = churned(20, |harness, handle| {
            // Snapshots are not observers.
            assert!(!handle.raw_results(harness).is_empty());
        });
        harness.teardown(1, SimTime::from_secs(30));
        harness.run_to_quiescence();
        assert_eq!(harness.result_log_stats(), ResultLogStats::default());
        let logs = harness.library().results();
        assert_eq!(logs.active.load(atomic::Ordering::SeqCst), 0);
        assert!(logs.lock().logs.is_empty());
    }

    #[test]
    fn an_abandoned_cursor_cannot_grow_the_log_past_its_bound() {
        // The same timeline twice: once with a cursor that keeps polling,
        // which counts the changes, once with a cursor polled a single time.
        let mut reader = None;
        let read = churned(150, |harness, handle| {
            reader.get_or_insert_with(|| handle.cursor()).poll(harness);
        });
        let changes = read.result_log_stats().changes_logged;
        assert!(changes >= 10 * SMALL_BOUND, "only {changes} changes: lengthen the timeline");

        let mut abandoned = None;
        let unread = churned(150, |harness, handle| {
            if abandoned.is_none() {
                abandoned = Some(handle.cursor());
                abandoned.as_mut().unwrap().poll(harness);
            }
        });
        let stats = unread.result_log_stats();
        // One store appends at most two entries past the bound before the
        // log notices and goes dormant.
        assert!(stats.changes_logged <= SMALL_BOUND + 2, "{stats:?}");
        assert_eq!(stats.truncations, 1, "{stats:?}");
        assert!(unread.library().results().lock().logs.is_empty(), "the log must be dormant");

        // The cursor it left behind still catches up, from one snapshot.
        let mut cursor = abandoned.unwrap();
        let mut reference = RescanCursor { seen: cursor.seen.clone() };
        assert_eq!(cursor.poll(&unread), reference.poll(&unread, cursor.query()));
        assert_eq!(unread.result_log_stats().resyncs, stats.resyncs + 1);
    }

    #[test]
    fn truncation_keeps_the_newest_half_for_readers_that_lag() {
        let logs = ResultLogs::default();
        let row = |i: u64| Tuple::new("r", vec![Value::Int(i as i64)]);
        let start = logs.attach(7, 0, 1).expect("a node holds the query");
        // One row, replaced over and over: the bound stays at its floor while
        // the log fills to one entry short of it. A fast reader takes them all.
        logs.stored(7, &row(0), None);
        for i in 1..SMALL_BOUND / 2 {
            logs.stored(7, &row(i), Some(&row(i - 1)));
        }
        let mut net = BTreeMap::new();
        let fast = logs.read(7, start, &mut net).expect("nothing truncated yet");
        assert_eq!(fast.offset, SMALL_BOUND - 1);
        net.retain(|_, change| *change != 0);
        assert_eq!(net, BTreeMap::from([(row(SMALL_BOUND / 2 - 1), 1)]));
        // One more replacement outgrows the bound: read entries go, oldest
        // first, down to half of it.
        logs.stored(7, &row(SMALL_BOUND / 2), Some(&row(SMALL_BOUND / 2 - 1)));
        assert_eq!(logs.stats().truncations, 1);
        assert_eq!(logs.lock().logs[&7].entries.len() as u64, SMALL_BOUND / 2);
        // A reader inside the kept half reads on; one behind it must resync.
        let kept = LogPosition { offset: fast.offset + 2 - SMALL_BOUND / 2, ..fast };
        let read_before = logs.stats().entries_read;
        assert!(logs.read(7, kept, &mut BTreeMap::new()).is_some());
        assert_eq!(logs.stats().entries_read - read_before, SMALL_BOUND / 2);
        assert_eq!(logs.read(7, start, &mut BTreeMap::new()), None);
        // The last teardown drops the log, whatever is unread.
        logs.torn_down(7, std::iter::empty());
        assert!(logs.lock().logs.is_empty());
        assert_eq!(logs.read(7, fast, &mut BTreeMap::new()), None);
    }

    #[test]
    fn cursor_streams_added_and_removed_results() {
        let (topology, _) = overlay(5, &[(0, 2, 1), (1, 3, 1)]);
        let mut harness = RoutingHarness::new(topology);
        let handle = harness.issue(parse_program(BEST_PATH).unwrap()).submit().unwrap();
        let mut cursor = handle.cursor();
        assert!(cursor.poll(&harness).is_empty(), "nothing ran yet");

        harness.run_until(SimTime::from_secs(30));
        let first = cursor.poll(&harness);
        assert_eq!(first.added.len(), handle.raw_results(&harness).len());
        assert!(first.removed.is_empty());
        assert!(cursor.poll(&harness).is_empty(), "converged: second poll is empty");

        // A failure rewrites routes through node 1: the cursor reports both
        // directions of the change.
        harness.sim_mut().schedule_node_fail(SimTime::from_secs(30), n(1));
        harness.run_until(SimTime::from_secs(60));
        let repair = cursor.poll(&harness);
        assert!(!repair.added.is_empty() && !repair.removed.is_empty(), "{repair:?}");

        // Node 1 comes back; routes through it return. Replaying the deltas
        // reproduces the current result set exactly.
        harness.sim_mut().schedule_node_join(SimTime::from_secs(60), n(1));
        harness.run_until(SimTime::from_secs(90));
        let heal = cursor.poll(&harness);
        let mut mirror: BTreeMap<Tuple, usize> = BTreeMap::new();
        for t in first.added.iter().chain(&repair.added).chain(&heal.added) {
            *mirror.entry(t.clone()).or_insert(0) += 1;
        }
        for t in repair.removed.iter().chain(&heal.removed) {
            let count = mirror.get_mut(t).expect("removed tuple was reported added");
            *count -= 1;
            if *count == 0 {
                mirror.remove(t);
            }
        }
        let mut truth: BTreeMap<Tuple, usize> = BTreeMap::new();
        for t in handle.raw_results(&harness) {
            *truth.entry(t).or_insert(0) += 1;
        }
        assert_eq!(mirror, truth, "cursor deltas must mirror the result set");
        assert!(!cursor.holds_nothing());

        // Teardown drains the rest.
        harness.teardown(handle.id(), SimTime::from_secs(90));
        harness.run_to_quiescence();
        let drained = cursor.poll(&harness);
        assert!(drained.added.is_empty());
        assert_eq!(drained.removed.len(), truth.values().sum::<usize>());
        assert!(cursor.holds_nothing());
    }
}
