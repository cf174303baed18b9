//! Service-level integration: many concurrent sessions multiplexed over
//! one resident deployment, compared against a single-harness oracle
//! driven with the identical schedule, plus the backpressure contract.

use std::collections::BTreeMap;

use dr_core::{ResultCursor, RoutingHarness};
use dr_netsim::{EventSource, SimDuration, SimTime};
use dr_service::protocol::{IssueOptions, Response, WireTuple, WireValue};
use dr_service::service::default_topology;
use dr_service::transport::InProcHub;
use dr_service::{Client, Request, RoutingService, ServiceConfig, BEST_PATH_PROGRAM};
use dr_types::Tuple;
use dr_workloads::ChurnSchedule;

const NODES: usize = 8;
const SESSIONS: usize = 100;
const STEP_MS: u64 = 500;
const STEPS: usize = 40; // 20 s simulated, past the churn schedule's end
const TEARDOWN_AT_STEP: usize = 10;
const TORN_SESSIONS: usize = 20;

fn churn() -> ChurnSchedule {
    // Fail 20% of the 8 nodes at 2 s, rejoin at 5 s, again at 8 s / 11 s.
    ChurnSchedule::alternating(
        NODES,
        0.2,
        SimTime::from_millis(2_000),
        SimDuration::from_millis(3_000),
        2,
        5,
    )
}

fn apply_delta(mirror: &mut BTreeMap<Tuple, usize>, added: &[WireTuple], removed: &[WireTuple]) {
    for t in added {
        *mirror.entry(t.to_tuple()).or_insert(0) += 1;
    }
    for t in removed {
        let tuple = t.to_tuple();
        match mirror.get_mut(&tuple) {
            Some(n) if *n > 1 => *n -= 1,
            Some(_) => {
                mirror.remove(&tuple);
            }
            None => panic!("delta removed a tuple the mirror never saw: {tuple:?}"),
        }
    }
}

fn multiset(tuples: Vec<Tuple>) -> BTreeMap<Tuple, usize> {
    let mut out = BTreeMap::new();
    for t in tuples {
        *out.entry(t).or_insert(0) += 1;
    }
    out
}

/// One hundred concurrent sessions issue, subscribe, and (some) tear down
/// while the deployment churns. Every session's streamed mirror must end
/// equal to what a single harness, driven with the identical schedule,
/// computes for the corresponding query.
#[test]
fn hundred_sessions_under_churn_match_single_harness_oracle() {
    let hub = InProcHub::new(default_topology(NODES), ServiceConfig::default());
    hub.with_service(|svc| {
        let topology = svc.harness().sim().topology().clone();
        for event in churn().events_for(&topology) {
            event.schedule(svc.harness_mut().sim_mut());
        }
    });

    // The oracle: same topology, same churn, same issue schedule, one
    // harness driven directly.
    let mut oracle = RoutingHarness::new(default_topology(NODES));
    {
        let topology = oracle.sim().topology().clone();
        for event in churn().events_for(&topology) {
            event.schedule(oracle.sim_mut());
        }
    }

    let mut driver = Client::connect(hub.connect(), "driver").expect("driver connects");
    let mut clients = Vec::with_capacity(SESSIONS);
    let mut qids = Vec::with_capacity(SESSIONS);
    let mut oracle_qids = Vec::with_capacity(SESSIONS);
    for i in 0..SESSIONS {
        let mut client = Client::connect(hub.connect(), &format!("s{i}")).expect("connect");
        let issuer = (i % NODES) as u32;
        let qid = client
            .issue(
                BEST_PATH_PROGRAM,
                IssueOptions { issuer, name: format!("q{i}"), ..IssueOptions::default() },
            )
            .expect("issue");
        client.subscribe(qid).expect("subscribe");
        qids.push(qid);
        clients.push(client);

        let at = oracle.now();
        let handle = oracle
            .issue(dr_datalog::parse_program(BEST_PATH_PROGRAM).expect("parse"))
            .from(dr_types::NodeId::new(issuer))
            .at(at)
            .named(format!("q{i}"))
            .submit()
            .expect("oracle issue");
        oracle_qids.push(handle.id());
    }
    assert_eq!(qids, oracle_qids, "service and oracle must allocate identical query ids");

    let mut mirrors: Vec<BTreeMap<Tuple, usize>> = vec![BTreeMap::new(); SESSIONS];
    for step in 0..STEPS {
        if step == TEARDOWN_AT_STEP {
            for i in 0..TORN_SESSIONS {
                clients[i].teardown(qids[i]).expect("teardown");
                let at = oracle.now();
                oracle.teardown(qids[i], at);
            }
        }
        driver.advance(STEP_MS).expect("advance");
        oracle.run_until(SimTime::from_millis((step as u64 + 1) * STEP_MS));
        for (i, client) in clients.iter_mut().enumerate() {
            for push in client.poll_pushed().expect("poll") {
                match push {
                    Response::Delta { added, removed, .. } => {
                        apply_delta(&mut mirrors[i], &added, &removed);
                    }
                    Response::Lagged { .. } => {
                        panic!("default queue cap must not lag this workload")
                    }
                    other => panic!("unexpected push {other:?}"),
                }
            }
        }
    }

    for (i, mirror) in mirrors.iter().enumerate() {
        let expected = multiset(ResultCursor::new(oracle_qids[i]).poll(&oracle).added);
        if i < TORN_SESSIONS {
            assert!(
                mirror.is_empty() && expected.is_empty(),
                "session {i}: torn-down query must stream down to nothing \
                 (mirror {} rows, oracle {} rows)",
                mirror.len(),
                expected.len()
            );
        } else {
            assert_eq!(
                mirror, &expected,
                "session {i}: streamed mirror diverged from the oracle harness"
            );
            assert!(!mirror.is_empty(), "session {i}: converged query cannot be empty");
        }
    }

    // The service really multiplexed: one deployment, 101 sessions, and
    // the engine's footprint matches the oracle's exactly.
    hub.with_service(|svc| {
        assert_eq!(svc.session_count(), SESSIONS + 1);
        assert_eq!(svc.live_queries(), SESSIONS - TORN_SESSIONS);
        assert_eq!(svc.harness().state_footprint(), oracle.state_footprint());
        let c = svc.counters();
        assert_eq!(c.queries_issued, SESSIONS as u64);
        assert_eq!(c.queries_torn_down, TORN_SESSIONS as u64);
    });
}

/// A subscriber that stops reading gets bounded buffering and an explicit
/// `Lagged` notice once it catches up — not an unbounded queue.
#[test]
fn slow_subscriber_is_bounded_and_told_it_lagged() {
    const CAP: usize = 2;
    let hub = InProcHub::new(
        default_topology(NODES),
        ServiceConfig { subscriber_queue_cap: CAP, ..ServiceConfig::default() },
    );
    let mut driver = Client::connect(hub.connect(), "driver").expect("driver connects");
    let mut slow = Client::connect(hub.connect(), "slow").expect("slow connects");
    // The driver owns the query and keeps its routes moving; the slow
    // session only subscribes — and then goes completely silent, so
    // nothing drains its push queue.
    let qid = driver.issue(BEST_PATH_PROGRAM, IssueOptions::default()).expect("issue");
    slow.subscribe(qid).expect("subscribe");
    driver.advance(10_000).expect("converge");

    let slow_sid = slow.session();
    for round in 0..30u64 {
        let cost = if round % 2 == 0 { 6.0 } else { 1.0 };
        let fact = WireTuple {
            relation: "link".to_string(),
            values: vec![WireValue::Node(0), WireValue::Node(1), WireValue::Cost(cost)],
        };
        driver.inject_facts(qid, 0, vec![fact]).expect("inject");
        driver.advance(1_000).expect("advance");
        // Memory bound: the session outbox never exceeds its cap no matter
        // how long the subscriber stays silent.
        hub.with_service(|svc| {
            assert!(svc.outbox_len(slow_sid) <= CAP, "outbox exceeded its cap at round {round}");
        });
    }

    // Catch up: drain everything buffered, then provoke one more delta.
    let first_drain = slow.poll_pushed().expect("drain");
    assert!(
        first_drain.len() <= 2 * CAP + 2,
        "a lagging subscriber must not accumulate unbounded pushes, got {}",
        first_drain.len()
    );
    let fact = WireTuple {
        relation: "link".to_string(),
        values: vec![WireValue::Node(0), WireValue::Node(1), WireValue::Cost(9.0)],
    };
    driver.inject_facts(qid, 0, vec![fact]).expect("inject");
    driver.advance(2_000).expect("advance");
    let caught_up = slow.poll_pushed().expect("drain");
    let missed = caught_up.iter().find_map(|r| match r {
        Response::Lagged { missed, .. } => Some(*missed),
        _ => None,
    });
    assert!(
        missed.is_some_and(|m| m > 0),
        "the service must report how many delta rounds were coalesced; got {caught_up:?}"
    );
}

fn issue_best_path(svc: &mut RoutingService, sid: u64) -> u64 {
    let issue = Request::IssueQuery {
        program: BEST_PATH_PROGRAM.to_string(),
        options: IssueOptions::default(),
    };
    match svc.apply(sid, issue) {
        Response::Issued { qid } => qid,
        other => panic!("issue refused: {other:?}"),
    }
}

fn flip_link(svc: &mut RoutingService, sid: u64, qid: u64, cost: f64) {
    let fact = WireTuple {
        relation: "link".to_string(),
        values: vec![WireValue::Node(0), WireValue::Node(1), WireValue::Cost(cost)],
    };
    let resp = svc.apply(sid, Request::InjectFacts { qid, node: 0, facts: vec![fact] });
    assert!(matches!(resp, Response::Injected { .. }), "{resp:?}");
}

/// Once the deployment is quiet, a tick over a hundred subscriptions costs
/// nothing per subscriber: no log entry is read and no stored row rescanned.
#[test]
fn idle_tick_reads_no_log_entries_and_rescans_no_rows() {
    let mut svc = RoutingService::new(default_topology(NODES), ServiceConfig::default());
    let sids: Vec<u64> = (0..SESSIONS).map(|i| svc.connect(&format!("s{i}")).0).collect();
    let qid = issue_best_path(&mut svc, sids[0]);
    for &sid in &sids {
        assert!(matches!(svc.apply(sid, Request::Subscribe { qid }), Response::Subscribed { .. }));
    }
    svc.advance(SimDuration::from_millis(10_000));
    for &sid in &sids {
        assert!(!svc.drain_outbox(sid, usize::MAX).is_empty(), "every subscriber saw the routes");
    }

    let before = svc.harness().result_log_stats();
    // Each subscriber's first poll was its one snapshot.
    assert_eq!(before.resyncs, SESSIONS as u64, "{before:?}");
    svc.advance(SimDuration::ZERO);
    assert_eq!(svc.harness().result_log_stats(), before, "an idle tick must not touch the log");
    assert!(sids.iter().all(|&sid| svc.outbox_len(sid) == 0));

    // A change is read once per subscriber, and still nothing is rescanned.
    flip_link(&mut svc, sids[0], qid, 6.0);
    svc.advance(SimDuration::from_millis(2_000));
    let after = svc.harness().result_log_stats();
    let logged = after.changes_logged - before.changes_logged;
    assert!(logged > 0);
    assert_eq!(after.entries_read - before.entries_read, logged * SESSIONS as u64);
    assert_eq!((after.resyncs, after.rows_rescanned), (before.resyncs, before.rows_rescanned));
}

/// A subscriber whose outbox stays full while the log is truncated past its
/// cursor catches up from one snapshot: `Lagged`, then a single coalesced
/// delta that takes its view to exactly what the deployment stores.
#[test]
fn subscriber_truncated_past_catches_up_with_one_coalesced_delta() {
    const CAP: usize = 2;
    let config = ServiceConfig { subscriber_queue_cap: CAP, ..ServiceConfig::default() };
    let mut svc = RoutingService::new(default_topology(NODES), config);
    let (reader, _) = svc.connect("reader");
    let (slow, _) = svc.connect("slow");
    let qid = issue_best_path(&mut svc, reader);
    for sid in [reader, slow] {
        assert!(matches!(svc.apply(sid, Request::Subscribe { qid }), Response::Subscribed { .. }));
    }
    svc.advance(SimDuration::from_millis(10_000));

    // The reader drains every round, so the log stays awake and is cut back
    // behind it; the slow session never drains, so after CAP deltas its
    // cursor stops moving and the log is truncated past it.
    let mut round = 0u32;
    while svc.harness().result_log_stats().truncations < 2 {
        round += 1;
        assert!(round < 400, "the log never outgrew its bound");
        flip_link(&mut svc, reader, qid, if round.is_multiple_of(2) { 1.0 } else { 6.0 });
        svc.advance(SimDuration::from_millis(1_000));
        svc.drain_outbox(reader, usize::MAX);
        assert!(svc.outbox_len(slow) <= CAP);
    }

    let mut view = BTreeMap::new();
    for push in svc.drain_outbox(slow, usize::MAX) {
        let Response::Delta { added, removed, .. } = push else { panic!("unexpected {push:?}") };
        apply_delta(&mut view, &added, &removed);
    }
    let before = svc.harness().result_log_stats();
    svc.advance(SimDuration::ZERO);
    let after = svc.harness().result_log_stats();
    assert_eq!(after.resyncs, before.resyncs + 1, "the slow cursor must have been truncated past");
    assert_eq!(after.entries_read, before.entries_read);

    let pushed = svc.drain_outbox(slow, usize::MAX);
    let [Response::Lagged { missed, .. }, Response::Delta { added, removed, .. }] =
        pushed.as_slice()
    else {
        panic!("expected Lagged then one delta, got {pushed:?}");
    };
    assert!(*missed > 0);
    // `apply_delta` panics on the removal of a row the view never held.
    apply_delta(&mut view, added, removed);
    assert_eq!(view, multiset(ResultCursor::new(qid).poll(svc.harness()).added));
}

/// Dropping a client connection closes its session and really unwinds its
/// queries from the deployment.
#[test]
fn dropped_connection_tears_down_its_queries() {
    let hub = InProcHub::new(default_topology(NODES), ServiceConfig::default());
    let mut driver = Client::connect(hub.connect(), "driver").expect("driver connects");
    {
        let mut ephemeral = Client::connect(hub.connect(), "ephemeral").expect("connect");
        ephemeral.issue(BEST_PATH_PROGRAM, IssueOptions::default()).expect("issue");
        driver.advance(5_000).expect("converge");
        hub.with_service(|svc| {
            assert_eq!(svc.live_queries(), 1);
            assert!(!svc.harness().state_footprint().is_empty());
        });
    } // drop closes the connection

    driver.advance(10_000).expect("let the teardown flood settle");
    hub.with_service(|svc| {
        assert_eq!(svc.live_queries(), 0);
        assert!(
            svc.harness().state_footprint().is_empty(),
            "a dropped session must not leak engine state"
        );
        assert_eq!(svc.harness().library().len(), 0);
    });
}

/// A client's relation name is checked against the query at the door:
/// `InjectFacts` and `Explain` naming a relation the query does not bind
/// answer `BadRequest` naming it, inject nothing, and leave the name
/// uninterned; `link` facts are still delivered and counted.
#[test]
fn unbound_relations_are_refused_without_interning_them() {
    let mut svc = RoutingService::new(default_topology(NODES), ServiceConfig::default());
    let (sid, _) = svc.connect("door");
    let qid = issue_best_path(&mut svc, sid);
    svc.apply(sid, Request::Advance { millis: 5_000 });
    let fresh = |name: &str| WireTuple {
        relation: name.to_string(),
        values: vec![WireValue::Node(0), WireValue::Node(1), WireValue::Cost(1.0)],
    };
    let refused = |resp: Response, name: &str| match resp {
        Response::Error { code: dr_service::ErrorCode::BadRequest, message } => {
            assert!(message.contains(name), "{message}")
        }
        other => panic!("expected BadRequest, got {other:?}"),
    };

    let inject_name = "door_inject_never_bound";
    let facts = vec![fresh("link"), fresh(inject_name)];
    refused(svc.apply(sid, Request::InjectFacts { qid, node: 0, facts }), inject_name);
    let explain_name = "door_explain_never_bound";
    refused(svc.apply(sid, Request::Explain { qid, tuple: fresh(explain_name) }), explain_name);
    assert_eq!(dr_types::RelId::lookup(inject_name), None);
    assert_eq!(dr_types::RelId::lookup(explain_name), None);
    assert_eq!(svc.counters().facts_injected, 0, "a refused batch delivers nothing");

    let facts = vec![fresh("link"), fresh("link")];
    let resp = svc.apply(sid, Request::InjectFacts { qid, node: 0, facts });
    assert_eq!(resp, Response::Injected { qid, count: 2 });
    svc.apply(sid, Request::Advance { millis: 1_000 });
    assert_eq!(svc.harness().processor_stats().tuples_rejected, 0);
}

/// `IssueQuery` is checked at the same door: a fact, a replicated relation
/// or a non-default cache relation the program does not bind answers
/// `BadRequest` naming it, issues nothing, and leaves the name uninterned.
#[test]
fn an_issue_naming_unbound_relations_is_refused_without_interning_them() {
    let mut svc = RoutingService::new(default_topology(NODES), ServiceConfig::default());
    let (sid, _) = svc.connect("door");
    let fact = |name: &str| WireTuple {
        relation: name.to_string(),
        values: vec![WireValue::Node(0), WireValue::Node(1), WireValue::Cost(1.0)],
    };
    let issue = |options| Request::IssueQuery { program: BEST_PATH_PROGRAM.to_string(), options };
    let refused = [
        (
            "zz_fact_fresh",
            IssueOptions { facts: vec![fact("link"), fact("zz_fact_fresh")], ..Default::default() },
        ),
        (
            "zz_repl_fresh",
            IssueOptions { replicated: vec!["zz_repl_fresh".into()], ..Default::default() },
        ),
        (
            "zz_cache_fresh",
            IssueOptions { cache_relation: "zz_cache_fresh".into(), ..Default::default() },
        ),
    ];
    for (name, options) in refused {
        match svc.apply(sid, issue(options)) {
            Response::Error { code: dr_service::ErrorCode::BadRequest, message } => {
                assert!(message.contains(name), "{message}")
            }
            other => panic!("expected BadRequest for {name}, got {other:?}"),
        }
        assert_eq!(dr_types::RelId::lookup(name), None);
    }
    assert_eq!(svc.live_queries(), 0);

    let bound = IssueOptions {
        facts: vec![fact("link")],
        replicated: vec!["link".into()],
        ..Default::default()
    };
    assert!(matches!(svc.apply(sid, issue(bound)), Response::Issued { .. }));
}
