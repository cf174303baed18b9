use super::*;

const BEST_PATH: &str = crate::BEST_PATH_PROGRAM;

fn service(nodes: usize) -> RoutingService {
    RoutingService::new(default_topology(nodes), ServiceConfig::default())
}

#[test]
fn wire_default_options_are_the_engines_issuance_defaults() {
    // `IssueOptions::default` spells the defaults again because it is
    // the wire format's; it must not drift from `QueryDef`'s.
    let mut svc = service(4);
    let (sid, _) = svc.connect("t");
    let issue = Request::IssueQuery { program: BEST_PATH.into(), options: IssueOptions::default() };
    let Response::Issued { qid } = svc.apply(sid, issue) else { panic!("issue refused") };
    let wire = svc.harness().library().get(qid).expect("spec registered");
    let def = dr_core::QueryDef::new(parse_program(BEST_PATH).unwrap());
    let engine = dr_core::QuerySpec::new(qid, def).unwrap();
    assert_eq!(wire.name, engine.name);
    assert_eq!(wire.aggregate_selections, engine.aggregate_selections);
    assert_eq!(wire.share_results, engine.share_results);
    assert_eq!(wire.cache_relation, engine.cache_relation);
    assert_eq!(wire.replicated, engine.replicated);
    assert_eq!(wire.facts, engine.facts);
    assert_eq!(wire.record_provenance, engine.record_provenance);
}

#[test]
fn issue_advance_subscribe_teardown_lifecycle() {
    let mut svc = service(8);
    let (sid, resp) = svc.connect("t");
    assert!(matches!(resp, Response::Connected { nodes: 8, .. }));

    let resp = svc.apply(
        sid,
        Request::IssueQuery { program: BEST_PATH.to_string(), options: IssueOptions::default() },
    );
    let Response::Issued { qid } = resp else { panic!("{resp:?}") };

    assert!(matches!(svc.apply(sid, Request::Subscribe { qid }), Response::Subscribed { .. }));
    svc.apply(sid, Request::Advance { millis: 10_000 });
    let pushed = svc.drain_outbox(sid, usize::MAX);
    assert!(
        pushed.iter().any(|r| matches!(r, Response::Delta { added, .. } if !added.is_empty())),
        "expected a non-empty delta, got {pushed:?}"
    );

    assert!(matches!(svc.apply(sid, Request::TeardownQuery { qid }), Response::TornDown { .. }));
    svc.apply(sid, Request::Advance { millis: 10_000 });
    assert_eq!(svc.live_queries(), 0);
    assert!(svc.harness().state_footprint().is_empty());
}

#[test]
fn subscription_ends_with_its_query() {
    let mut svc = service(8);
    let (sid, _) = svc.connect("t");
    let issue =
        Request::IssueQuery { program: BEST_PATH.to_string(), options: IssueOptions::default() };
    let Response::Issued { qid } = svc.apply(sid, issue) else { panic!("issue failed") };
    svc.apply(sid, Request::Subscribe { qid });
    svc.apply(sid, Request::Advance { millis: 10_000 });
    let (mut added, mut removed) = (0, 0);
    for push in svc.drain_outbox(sid, usize::MAX) {
        let Response::Delta { added: a, removed: r, .. } = push else {
            panic!("unexpected push {push:?}");
        };
        added += a.len();
        removed += r.len();
    }
    let routes = added - removed;
    assert!(routes > 0);

    svc.apply(sid, Request::TeardownQuery { qid });
    // The first poll after the teardown reports every route removed and
    // retires the cursor with it; the second advance has nothing to poll.
    svc.apply(sid, Request::Advance { millis: 10_000 });
    assert!(svc.sessions[&sid].subs.is_empty(), "dead subscription still polled");
    svc.apply(sid, Request::Advance { millis: 10_000 });
    let pushed = svc.drain_outbox(sid, usize::MAX);
    let [Response::Delta { qid: q, added, removed, .. }] = pushed.as_slice() else {
        panic!("expected exactly one removal delta, got {pushed:?}");
    };
    assert_eq!(*q, qid);
    assert!(added.is_empty());
    assert_eq!(removed.len(), routes);
}

#[test]
fn explain_round_trip_and_typed_failures() {
    let mut svc = service(8);
    let (sid, _) = svc.connect("explainer");

    // Unknown query: typed error, not a wedge.
    let bogus = WireTuple { relation: "bestPath".into(), values: vec![] };
    assert!(matches!(
        svc.apply(sid, Request::Explain { qid: 123, tuple: bogus.clone() }),
        Response::Error { code: ErrorCode::UnknownQuery, .. }
    ));

    // A query issued *without* provenance recording is a BadRequest.
    let Response::Issued { qid: plain } = svc.apply(
        sid,
        Request::IssueQuery { program: BEST_PATH.to_string(), options: IssueOptions::default() },
    ) else {
        panic!("issue failed")
    };
    svc.apply(sid, Request::Advance { millis: 5_000 });
    assert!(matches!(
        svc.apply(sid, Request::Explain { qid: plain, tuple: bogus.clone() }),
        Response::Error { code: ErrorCode::BadRequest, .. }
    ));

    // With recording on, a derived route explains into a rebuildable
    // flat tree whose root is the asked-about tuple.
    let Response::Issued { qid } = svc.apply(
        sid,
        Request::IssueQuery {
            program: BEST_PATH.to_string(),
            options: IssueOptions { record_provenance: true, ..IssueOptions::default() },
        },
    ) else {
        panic!("issue failed")
    };
    svc.apply(sid, Request::Subscribe { qid });
    svc.apply(sid, Request::Advance { millis: 10_000 });
    let route = svc
        .drain_outbox(sid, usize::MAX)
        .into_iter()
        .find_map(|r| match r {
            Response::Delta { added, .. } => added.into_iter().find(|t| {
                t.values
                    .iter()
                    .any(|v| matches!(v, crate::protocol::WireValue::Cost(c) if c.is_finite()))
            }),
            _ => None,
        })
        .expect("a finite route was pushed");
    let resp = svc.apply(sid, Request::Explain { qid, tuple: route.clone() });
    let Response::Explanation { qid: got, nodes } = resp else { panic!("{resp:?}") };
    assert_eq!(got, qid);
    let tree = crate::protocol::tree_from_flat(&nodes).expect("well-formed flat tree");
    assert_eq!(tree.tuple(), &route.to_tuple());
    assert!(tree.is_fully_resolved(), "{tree}");

    // After teardown the same request is typed UnknownQuery.
    svc.apply(sid, Request::TeardownQuery { qid });
    svc.apply(sid, Request::Advance { millis: 10_000 });
    assert!(matches!(
        svc.apply(sid, Request::Explain { qid, tuple: route }),
        Response::Error { code: ErrorCode::UnknownQuery, .. }
    ));
    // Explain state does not outlive the query.
    assert_eq!(svc.harness().state_footprint().prov_records, 0);
}

#[test]
fn quota_ownership_and_unknown_query_errors() {
    let mut svc = RoutingService::new(
        default_topology(4),
        ServiceConfig { max_queries_per_session: 1, ..ServiceConfig::default() },
    );
    let (alice, _) = svc.connect("alice");
    let (bob, _) = svc.connect("bob");
    let issue =
        |options: IssueOptions| Request::IssueQuery { program: BEST_PATH.to_string(), options };

    let Response::Issued { qid } = svc.apply(alice, issue(IssueOptions::default())) else {
        panic!("first issue must succeed")
    };
    assert!(matches!(
        svc.apply(alice, issue(IssueOptions::default())),
        Response::Error { code: ErrorCode::QuotaExceeded, .. }
    ));
    assert!(matches!(
        svc.apply(bob, Request::TeardownQuery { qid }),
        Response::Error { code: ErrorCode::NotOwner, .. }
    ));
    assert!(matches!(
        svc.apply(alice, Request::TeardownQuery { qid: 999 }),
        Response::Error { code: ErrorCode::UnknownQuery, .. }
    ));
    assert!(matches!(svc.apply(alice, Request::TeardownQuery { qid }), Response::TornDown { .. }));
    // Teardown frees quota: a new issue succeeds.
    assert!(matches!(svc.apply(alice, issue(IssueOptions::default())), Response::Issued { .. }));
}

#[test]
fn disconnect_tears_down_owned_queries() {
    let mut svc = service(6);
    let (sid, _) = svc.connect("ephemeral");
    let Response::Issued { .. } = svc.apply(
        sid,
        Request::IssueQuery { program: BEST_PATH.to_string(), options: IssueOptions::default() },
    ) else {
        panic!("issue failed")
    };
    svc.apply(sid, Request::Advance { millis: 5_000 });
    assert!(!svc.harness().state_footprint().is_empty());

    svc.disconnect(sid);
    // Time must keep flowing for the teardown flood to propagate; a
    // surviving session (or the server tick) provides that.
    let (other, _) = svc.connect("survivor");
    svc.apply(other, Request::Advance { millis: 10_000 });
    assert_eq!(svc.live_queries(), 0);
    assert!(svc.harness().state_footprint().is_empty());
}

#[test]
fn slow_subscriber_lags_and_memory_stays_bounded() {
    let mut svc = RoutingService::new(
        default_topology(8),
        ServiceConfig { subscriber_queue_cap: 2, ..ServiceConfig::default() },
    );
    let (sid, _) = svc.connect("slow");
    let Response::Issued { qid } = svc.apply(
        sid,
        Request::IssueQuery { program: BEST_PATH.to_string(), options: IssueOptions::default() },
    ) else {
        panic!("issue failed")
    };
    svc.apply(sid, Request::Subscribe { qid });
    svc.apply(sid, Request::Advance { millis: 10_000 });

    // Never drained: keep perturbing a link so every poll has changes.
    let link = |cost: f64| {
        dr_netsim::LinkParams::with_latency_ms(5.0).with_cost(dr_types::Cost::new(cost))
    };
    for round in 0..20u64 {
        let at = svc.harness().now();
        let cost = if round % 2 == 0 { 10.0 } else { 1.0 };
        svc.harness.sim_mut().schedule_link_metric_change(
            at,
            NodeId::new(0),
            NodeId::new(1),
            link(cost),
        );
        svc.apply(sid, Request::Advance { millis: 2_000 });
    }
    assert!(svc.outbox_len(sid) <= 2, "outbox must stay bounded");

    // Catching up yields a Lagged notice before the coalesced delta.
    let drained = svc.drain_outbox(sid, usize::MAX);
    let at = svc.harness().now();
    svc.harness.sim_mut().schedule_link_metric_change(
        at,
        NodeId::new(0),
        NodeId::new(1),
        link(3.0),
    );
    svc.apply(sid, Request::Advance { millis: 5_000 });
    let caught_up = svc.drain_outbox(sid, usize::MAX);
    let lagged = caught_up.iter().find_map(|r| match r {
        Response::Lagged { missed, .. } => Some(*missed),
        _ => None,
    });
    assert!(
        lagged.is_some_and(|m| m > 0),
        "expected Lagged after starved polls; drained={drained:?} caught_up={caught_up:?}"
    );
}

// --- the connection state machine, with no socket anywhere -----------

/// A table whose queues hold `push_cap` pushes (soft limit) and
/// `REPLY_CAP_FACTOR * push_cap` frames in all (hard limit).
fn table(push_cap: usize) -> Connections {
    let config = ServiceConfig { subscriber_queue_cap: push_cap, ..ServiceConfig::default() };
    Connections::new(default_topology(8), config)
}

/// Take and decode everything queued for `id`.
fn taken(table: &mut Connections, id: ConnId) -> Vec<Response> {
    std::iter::from_fn(|| table.take_frame(id))
        .map(|frame| Response::decode(&frame[4..]).expect("a well-formed frame"))
        .collect()
}

/// Apply `req` on `id` and return its direct reply, which must be the
/// only frame queued.
fn call(table: &mut Connections, id: ConnId, req: Request) -> Response {
    assert_eq!(table.on_request(id, req), Reply::Queued);
    let mut replies = taken(table, id);
    assert_eq!(replies.len(), 1, "{replies:?}");
    replies.remove(0)
}

/// Open a connection and a session on it; returns (connection, session).
fn connected(table: &mut Connections, name: &str) -> (ConnId, u64) {
    let id = table.open();
    let resp = call(table, id, Request::Connect { client: name.to_string() });
    let Response::Connected { session, .. } = resp else { panic!("{resp:?}") };
    (id, session)
}

fn issue_best_path(table: &mut Connections, id: ConnId) -> u64 {
    let issue =
        Request::IssueQuery { program: BEST_PATH.to_string(), options: IssueOptions::default() };
    let resp = call(table, id, issue);
    let Response::Issued { qid } = resp else { panic!("{resp:?}") };
    qid
}

fn flip_link(table: &mut Connections, id: ConnId, qid: u64, cost: f64) {
    let fact = WireTuple {
        relation: "link".to_string(),
        values: vec![
            crate::protocol::WireValue::Node(0),
            crate::protocol::WireValue::Node(1),
            crate::protocol::WireValue::Cost(cost),
        ],
    };
    let resp = call(table, id, Request::InjectFacts { qid, node: 0, facts: vec![fact] });
    assert!(matches!(resp, Response::Injected { .. }), "{resp:?}");
}

#[test]
fn connect_comes_first_and_malformed_payloads_are_survived() {
    let mut table = table(4);
    let id = table.open();
    assert!(matches!(
        call(&mut table, id, Request::Stats),
        Response::Error { code: ErrorCode::NotConnected, .. }
    ));
    assert_eq!(table.on_malformed(id, "malformed request: junk".to_string()), Reply::Queued);
    assert!(matches!(
        taken(&mut table, id).as_slice(),
        [Response::Error { code: ErrorCode::BadRequest, .. }]
    ));
    let connect = Request::Connect { client: "late".to_string() };
    assert!(matches!(call(&mut table, id, connect), Response::Connected { .. }));

    let Response::Stats { lines } = call(&mut table, id, Request::Stats) else {
        panic!("stats refused")
    };
    let line = |kind: &str| {
        let tag = format!("{{\"type\":\"{kind}\"");
        lines.iter().find(|l| l.starts_with(&tag)).expect("line present").as_str()
    };
    assert_eq!(
        line("processor"),
        "{\"type\":\"processor\",\"tuples_received\":0,\"tuples_sent\":0,\
         \"tuples_derived\":0,\"tuples_pruned\":0,\"tombstones_collapsed\":0,\
         \"tuples_rejected\":0,\"prune_evicted\":0,\"batches\":0,\
         \"retransmits\":0,\"dups_dropped\":0,\"acks_sent\":0,\
         \"gaps_skipped\":0,\"prov_recorded\":0,\"prov_fetches\":0,\"eval_errors\":0}"
    );
    assert_eq!(
        line("footprint"),
        "{\"type\":\"footprint\",\"instances\":0,\"stored_tuples\":0,\
         \"pending_tuples\":0,\"prune_entries\":0,\"shared_relations\":0,\
         \"shared_tuples\":0,\"prov_records\":0}"
    );
    assert_eq!(
        line("results"),
        "{\"type\":\"results\",\"changes_logged\":0,\"entries_read\":0,\
         \"resyncs\":0,\"rows_rescanned\":0,\"truncations\":0}"
    );
    assert_eq!(
        lines.last().map(String::as_str),
        Some(
            "{\"type\":\"server\",\"connections_open\":1,\"accepted\":1,\"closed\":0,\
             \"overflow_disconnects\":0,\"malformed\":1,\"wakeups\":0,\"events\":5}"
        )
    );
    // An event for a connection the table never opened is dropped.
    assert_eq!(table.on_request(99, Request::Stats), Reply::Dropped);
}

#[test]
fn a_reply_precedes_the_pushes_it_caused_and_later_replies_follow_them() {
    let mut table = table(16);
    let (a, _) = connected(&mut table, "a");
    let (b, _) = connected(&mut table, "b");
    let qid = issue_best_path(&mut table, a);
    for id in [a, b] {
        let resp = call(&mut table, id, Request::Subscribe { qid });
        assert!(matches!(resp, Response::Subscribed { .. }), "{resp:?}");
    }
    table.take_ready();

    // `a` pipelines two requests; nobody takes a frame in between.
    assert_eq!(table.on_request(a, Request::Advance { millis: 10_000 }), Reply::Queued);
    assert_eq!(table.on_request(a, Request::Stats), Reply::Queued);
    // `b` holds only pushes, so it is handed over before `a`'s replies.
    assert_eq!(table.take_ready(), [b, a]);

    let to_a = taken(&mut table, a);
    assert!(matches!(to_a.first(), Some(Response::Advanced { .. })), "{to_a:?}");
    assert!(matches!(to_a.last(), Some(Response::Stats { .. })), "{to_a:?}");
    let deltas = &to_a[1..to_a.len() - 1];
    assert!(!deltas.is_empty(), "the advance converged the query: {to_a:?}");
    assert!(deltas.iter().all(|r| matches!(r, Response::Delta { .. })), "{to_a:?}");
    // The other subscriber was handed the same deltas by `a`'s request.
    assert_eq!(taken(&mut table, b), deltas);
}

#[test]
fn pushes_stop_at_the_soft_cap_and_resume_when_frames_are_taken() {
    const CAP: usize = 2;
    let mut table = table(CAP);
    let (driver, _) = connected(&mut table, "driver");
    let (slow, slow_sid) = connected(&mut table, "slow");
    let qid = issue_best_path(&mut table, driver);
    assert!(matches!(
        call(&mut table, slow, Request::Subscribe { qid }),
        Response::Subscribed { .. }
    ));
    for round in 0..12u32 {
        flip_link(&mut table, driver, qid, [6.0, 1.0][round as usize % 2]);
        let advanced = call(&mut table, driver, Request::Advance { millis: 2_000 });
        assert!(matches!(advanced, Response::Advanced { .. }), "{advanced:?}");
        assert!(table.queued(slow) <= CAP, "queue over the soft cap at round {round}");
        assert!(table.service().outbox_len(slow_sid) <= CAP, "outbox over its cap");
    }
    assert_eq!(table.queued(slow), CAP);
    assert_eq!(table.service().outbox_len(slow_sid), CAP, "the rest backed up behind it");

    // Taking frames makes room; the outbox follows them out, in order.
    let backlog = taken(&mut table, slow);
    assert_eq!(backlog.len(), 2 * CAP, "{backlog:?}");
    assert_eq!(table.service().outbox_len(slow_sid), 0);
    flip_link(&mut table, driver, qid, 9.0);
    let advanced = call(&mut table, driver, Request::Advance { millis: 2_000 });
    assert!(matches!(advanced, Response::Advanced { .. }), "{advanced:?}");
    let caught_up = taken(&mut table, slow);
    assert!(
        matches!(
            caught_up.as_slice(),
            [Response::Lagged { missed, .. }, Response::Delta { .. }] if *missed > 0
        ),
        "{caught_up:?}"
    );
}

#[test]
fn overflow_is_a_return_value_and_sheds_the_connection() {
    const HARD: usize = REPLY_CAP_FACTOR;
    let mut table = table(1);
    let (id, _) = connected(&mut table, "pipeliner");
    issue_best_path(&mut table, id);
    let (other, _) = connected(&mut table, "bystander");

    for _ in 0..HARD {
        assert_eq!(table.on_request(id, Request::Stats), Reply::Queued);
    }
    assert_eq!(table.on_request(id, Request::Stats), Reply::Overflow);
    assert_eq!(table.on_request(id, Request::Stats), Reply::Dropped);
    assert_eq!(table.on_malformed(id, "junk".to_string()), Reply::Dropped);

    // The session and its query are gone at once; the peer is owed
    // exactly the notice, and the entry goes once that is taken.
    assert_eq!(table.service().session_count(), 1);
    assert_eq!(table.service().live_queries(), 0);
    assert!(!table.is_gone(id));
    assert!(matches!(
        taken(&mut table, id).as_slice(),
        [Response::Error { code: ErrorCode::Overloaded, .. }]
    ));
    assert!(table.is_gone(id));
    let c = table.counters();
    assert_eq!((c.accepted, c.closed, c.overflow_disconnects), (2, 1, 1));
    // Nobody else noticed.
    assert!(matches!(call(&mut table, other, Request::Stats), Response::Stats { .. }));
}

#[test]
fn close_tears_down_the_sessions_queries_once() {
    let mut table = table(4);
    let (id, _) = connected(&mut table, "ephemeral");
    let issue =
        Request::IssueQuery { program: BEST_PATH.to_string(), options: IssueOptions::default() };
    // The `Issued` reply is still queued when the peer goes away.
    assert_eq!(table.on_request(id, issue), Reply::Queued);
    table.close(id);
    table.close(id);
    let c = table.service().counters();
    assert_eq!((c.sessions_closed, c.queries_torn_down), (1, 1));
    assert_eq!(table.counters().closed, 1);
    assert_eq!(table.on_request(id, Request::Stats), Reply::Dropped);

    assert!(!table.is_gone(id), "a queued frame outlives the session");
    assert!(matches!(taken(&mut table, id).as_slice(), [Response::Issued { .. }]));
    assert!(table.is_gone(id));
    table.close(id);
    assert_eq!(table.service().counters().sessions_closed, 1);

    // `discard` is the close of a peer that can take nothing more.
    let (gone, _) = connected(&mut table, "dropped");
    assert_eq!(table.on_request(gone, Request::Stats), Reply::Queued);
    table.discard(gone);
    assert!(table.is_gone(gone));
    assert!(table.take_ready().is_empty(), "no frames left to flush");
    assert_eq!(table.service().session_count(), 0);
}
