//! The TCP daemon end to end, over `127.0.0.1:0`: the same lifecycle the
//! in-process hub serves, the error paths of a confused peer, waking and
//! ticking, and a peer that never reads being shed while another session
//! keeps being served. No test sleeps for more than a millisecond at a time.

use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dr_service::protocol::{frame_request, IssueOptions, WireTuple, WireValue};
use dr_service::{
    default_topology, serve, Client, ErrorCode, InProcHub, Request, Response, ServerConfig,
    ServerHandle, ServiceConfig, TcpTransport, Transport, TransportError, BEST_PATH_PROGRAM,
};

const NODES: usize = 8;
const HOUR: Duration = Duration::from_secs(3600);
/// How long a test waits for something the server owes it.
const PATIENCE: Duration = Duration::from_secs(3);

fn start(tick: Duration, service: ServiceConfig) -> ServerHandle {
    let config = ServerConfig { service, tick, ..ServerConfig::default() };
    serve("127.0.0.1:0", default_topology(NODES), config).expect("bind a loopback port")
}

fn dial(server: &ServerHandle) -> TcpTransport {
    TcpTransport::dial(&server.addr().to_string()).expect("dial the server")
}

fn session(server: &ServerHandle, name: &str) -> Client<TcpTransport> {
    Client::connect(dial(server), name).expect("open a session")
}

/// `join` must return; a server that fails to stop fails the test instead of
/// hanging it.
fn join_promptly(server: ServerHandle) {
    let (done, joined) = mpsc::channel();
    std::thread::spawn(move || {
        server.join();
        done.send(()).ok();
    });
    joined.recv_timeout(PATIENCE).expect("the engine did not stop");
}

fn roundtrip(transport: &mut TcpTransport, req: &Request) -> Response {
    let mut payload = Vec::new();
    req.encode(&mut payload);
    transport.send_frame(&payload).expect("send");
    Response::decode(&transport.recv_frame().expect("a reply")).expect("a well-formed reply")
}

/// A numeric field of the `server` stats line.
fn server_stat<T: Transport>(client: &mut Client<T>, field: &str) -> u64 {
    let lines = client.stats().expect("stats");
    let line = lines.iter().find(|l| l.contains("\"type\":\"server\"")).expect("a server line");
    let (_, rest) = line.split_once(&format!("\"{field}\":")).expect("the field");
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("a number")
}

fn link_cost(cost: f64) -> WireTuple {
    WireTuple {
        relation: "link".to_string(),
        values: vec![WireValue::Node(0), WireValue::Node(1), WireValue::Cost(cost)],
    }
}

/// Poll `client` (1 ms naps) until a push satisfies `wanted`.
fn await_push<T: Transport>(client: &mut Client<T>, wanted: impl Fn(&Response) -> bool) {
    let deadline = Instant::now() + PATIENCE;
    loop {
        if client.poll_pushed().expect("poll").iter().any(&wanted) {
            return;
        }
        assert!(Instant::now() < deadline, "the push never arrived");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Issue → subscribe → advance → teardown → advance, returning every push.
/// `stats` after each advance is the barrier: its reply is queued behind
/// the deltas the advance caused, so they are all in hand when it returns.
fn lifecycle_pushes<T: Transport>(client: &mut Client<T>) -> Vec<Response> {
    let qid = client.issue(BEST_PATH_PROGRAM, IssueOptions::default()).expect("issue");
    client.subscribe(qid).expect("subscribe");
    client.advance(10_000).expect("advance");
    client.stats().expect("stats");
    let mut pushes = client.poll_pushed().expect("poll");
    assert!(!pushes.is_empty(), "convergence must produce deltas");
    client.teardown(qid).expect("teardown");
    client.advance(10_000).expect("advance");
    client.stats().expect("stats");
    pushes.extend(client.poll_pushed().expect("poll"));
    pushes
}

#[test]
fn the_lifecycle_over_tcp_matches_the_in_process_hub() {
    let hub = InProcHub::new(default_topology(NODES), ServiceConfig::default());
    let expected = lifecycle_pushes(&mut Client::connect(hub.connect(), "hub").expect("connect"));

    let server = start(HOUR, ServiceConfig::default());
    let mut client = session(&server, "tcp");
    assert_eq!(client.nodes(), NODES as u32);
    assert_eq!(lifecycle_pushes(&mut client), expected);
    let stats = client.stats().expect("stats");
    assert!(stats.iter().any(|l| l.contains("\"live_queries\":0")), "{stats:?}");

    client.shutdown_server().expect("shutdown acknowledged");
    join_promptly(server);
}

#[test]
fn a_confused_peer_gets_typed_errors_and_keeps_its_connection() {
    let server = start(HOUR, ServiceConfig::default());
    let mut peer = dial(&server);

    // A request before `Connect`.
    let resp = roundtrip(&mut peer, &Request::Stats);
    assert!(matches!(resp, Response::Error { code: ErrorCode::NotConnected, .. }), "{resp:?}");
    // A well-framed payload that is not a request.
    peer.send_frame(&[0xEE, 1, 2, 3]).expect("send");
    let resp = Response::decode(&peer.recv_frame().expect("a reply")).expect("decodes");
    assert!(matches!(resp, Response::Error { code: ErrorCode::BadRequest, .. }), "{resp:?}");
    // The connection survived both.
    let resp = roundtrip(&mut peer, &Request::Connect { client: "patient".to_string() });
    assert!(matches!(resp, Response::Connected { nodes: 8, .. }), "{resp:?}");

    // A length prefix no frame may have: one error, then the server hangs up.
    let mut raw = TcpStream::connect(server.addr()).expect("dial");
    raw.write_all(&u32::MAX.to_le_bytes()).expect("write");
    let mut raw = TcpTransport::from_stream(raw);
    let resp = Response::decode(&raw.recv_frame().expect("the notice")).expect("decodes");
    assert!(
        matches!(&resp, Response::Error { code: ErrorCode::BadRequest, message } if message.contains("frame")),
        "{resp:?}"
    );
    assert!(matches!(raw.recv_frame(), Err(TransportError::Closed)));

    // Both closes are counted once the engine has seen them.
    drop(peer);
    let mut observer = session(&server, "observer");
    let deadline = Instant::now() + PATIENCE;
    while server_stat(&mut observer, "closed") < 2 {
        assert!(Instant::now() < deadline, "closed connections were never reaped");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(server_stat(&mut observer, "connections_open"), 1);
    assert_eq!(server_stat(&mut observer, "malformed"), 2);

    server.shutdown();
    join_promptly(server);
}

#[test]
fn an_idle_engine_sleeps_until_it_is_woken() {
    let server = start(HOUR, ServiceConfig::default());
    let mut client = session(&server, "idle");
    let before = server_stat(&mut client, "wakeups");
    std::thread::sleep(Duration::from_millis(3));
    let after = server_stat(&mut client, "wakeups");
    // The second request itself woke the engine; nothing else did.
    assert!(after - before <= 1, "{} wake-ups with no tick and no traffic", after - before);

    // With an hour until the next tick, only being woken explains a prompt exit.
    server.shutdown();
    join_promptly(server);
}

#[test]
fn ticks_push_deltas_with_no_client_advance() {
    let server = start(Duration::from_millis(5), ServiceConfig::default());
    let mut client = session(&server, "ticked");
    let wakeups = server_stat(&mut client, "wakeups");
    let qid = client.issue(BEST_PATH_PROGRAM, IssueOptions::default()).expect("issue");
    client.subscribe(qid).expect("subscribe");
    await_push(
        &mut client,
        |push| matches!(push, Response::Delta { added, .. } if !added.is_empty()),
    );
    assert!(server_stat(&mut client, "wakeups") > wakeups, "ticks are wake-ups");
    client.shutdown_server().expect("shutdown acknowledged");
    join_promptly(server);
}

/// A server whose connections may be owed 512 frames, a healthy subscribed session, and a
/// peer that connected, pipelined `Stats` requests without ever reading, and
/// has just been shed for it. While that built up — a few megabytes of
/// replies fill the socket buffers, the writer thread blocks, the replies
/// behind it pile up to the hard limit — every round of the healthy session
/// was answered and its link flip reached it as a delta.
fn shed_a_peer_that_never_reads() -> (ServerHandle, Client<TcpTransport>, TcpStream) {
    let limits = ServiceConfig { subscriber_queue_cap: 128, ..Default::default() };
    let server = start(HOUR, limits);
    let mut good = session(&server, "good");
    let qid = good.issue(BEST_PATH_PROGRAM, IssueOptions::default()).expect("issue");
    good.subscribe(qid).expect("subscribe");
    good.advance(10_000).expect("converge");
    good.stats().expect("barrier");
    good.poll_pushed().expect("poll");

    let mut stalled = TcpStream::connect(server.addr()).expect("dial");
    let connect = Request::Connect { client: "stalled".to_string() };
    stalled.write_all(&frame_request(&connect)).expect("write");
    let burst = frame_request(&Request::Stats).repeat(256);
    // How much the kernel buffers before the stall shows is the host's choice.
    let deadline = Instant::now() + 5 * PATIENCE;
    let mut round = 0u32;
    while server_stat(&mut good, "overflow_disconnects") == 0 {
        assert!(Instant::now() < deadline, "the stalled peer was never shed");
        stalled.write_all(&burst).expect("the server keeps reading requests");
        round += 1;
        let cost = [1.0, 6.0][round as usize % 2];
        good.inject_facts(qid, 0, vec![link_cost(cost)]).expect("inject");
        good.advance(2_000).expect("advance");
        good.stats().expect("barrier");
        let pushed = good.poll_pushed().expect("poll");
        assert!(
            pushed.iter().any(|p| matches!(p, Response::Delta { .. })),
            "round {round}: the flip's delta did not reach the good session: {pushed:?}"
        );
    }
    assert_eq!(server_stat(&mut good, "overflow_disconnects"), 1);
    (server, good, stalled)
}

#[test]
fn a_peer_that_never_reads_is_shed_while_others_are_served() {
    let (server, mut good, stalled) = shed_a_peer_that_never_reads();

    // When it finally reads, the stalled peer finds the replies the socket
    // already held, then the typed notice, then end of stream.
    let mut stalled = TcpTransport::from_stream(stalled);
    let mut last = None;
    let closed = loop {
        match stalled.recv_frame() {
            Ok(payload) => last = Some(Response::decode(&payload).expect("decodes")),
            Err(e) => break e,
        }
    };
    assert!(matches!(closed, TransportError::Closed), "{closed}");
    assert!(matches!(last, Some(Response::Error { code: ErrorCode::Overloaded, .. })), "{last:?}");

    good.shutdown_server().expect("shutdown acknowledged");
    join_promptly(server);
}

#[test]
fn shutdown_does_not_wait_for_a_peer_that_never_reads() {
    let (server, mut good, _stalled) = shed_a_peer_that_never_reads();
    // The stalled peer's writer is still blocked on its full socket.
    good.shutdown_server().expect("shutdown acknowledged");
    join_promptly(server);
}
