//! The TCP daemon: `dr-serviced`'s engine.
//!
//! Plain `std::net` with one reader and one writer thread per connection
//! and a single *engine* thread that owns the [`RoutingService`] — the
//! engine is the only thread that touches routing state, so the service
//! itself stays single-threaded and deterministic; concurrency lives
//! entirely at the byte boundary.
//!
//! The engine loop alternates between three duties: accepting connections
//! (non-blocking), applying decoded requests from the shared event queue,
//! and ticking — every `tick` of real time it advances simulated time by
//! `step` and drains session outboxes toward the writer threads. Writer
//! queues are bounded; when one is full the undelivered push is parked
//! (one frame per connection) and the session outbox backs up, which is
//! exactly the condition under which the service stops advancing that
//! subscriber's cursors and later emits `Lagged`.

use std::collections::HashMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dr_netsim::{SimDuration, Topology};

use crate::protocol::{frame, ErrorCode, FrameBuf, Request, Response};
use crate::service::{RoutingService, ServiceConfig};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Service-level policy (quotas, queue caps).
    pub service: ServiceConfig,
    /// Real-time interval between engine ticks.
    pub tick: Duration,
    /// Simulated time advanced per tick.
    pub step: SimDuration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            service: ServiceConfig::default(),
            tick: Duration::from_millis(10),
            step: SimDuration::from_millis(200),
        }
    }
}

/// What a reader thread tells the engine.
enum ConnEvent {
    Request(u64, Request),
    Malformed(u64, String),
    Closed(u64),
}

struct ConnState {
    session: Option<u64>,
    writer: SyncSender<Vec<u8>>,
    /// A push frame the writer queue had no room for; retried before the
    /// outbox drains further so delta order is preserved.
    parked: Option<Vec<u8>>,
    stream: TcpStream,
}

/// A running server; dropping the handle does not stop it — use
/// [`ServerHandle::shutdown`] or send [`Request::Shutdown`] from a client.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    engine: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the engine to stop after its current tick.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Wait for the engine to exit (after [`ServerHandle::shutdown`] or a
    /// client-sent `Shutdown` request).
    pub fn join(mut self) {
        if let Some(engine) = self.engine.take() {
            engine.join().ok();
        }
    }
}

/// Bind `addr` and serve a routing deployment over `topology`.
pub fn serve(
    addr: &str,
    topology: Topology,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let engine = std::thread::Builder::new()
        .name("dr-service-engine".to_string())
        .spawn(move || engine_loop(listener, topology, config, stop2))
        .expect("spawn engine thread");
    Ok(ServerHandle { addr: local, stop, engine: Some(engine) })
}

fn engine_loop(
    listener: TcpListener,
    topology: Topology,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
) {
    let mut service = RoutingService::new(topology, config.service.clone());
    let queue_cap = config.service.subscriber_queue_cap.max(1);
    let (event_tx, event_rx): (mpsc::Sender<ConnEvent>, Receiver<ConnEvent>) = mpsc::channel();
    let mut conns: HashMap<u64, ConnState> = HashMap::new();
    let mut next_conn: u64 = 1;
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    let mut writers: Vec<JoinHandle<()>> = Vec::new();
    let mut next_tick = Instant::now() + config.tick;

    loop {
        // 1. Accept new connections.
        while let Ok((stream, _)) = listener.accept() {
            configure_accepted(&stream);
            let id = next_conn;
            next_conn += 1;
            let (writer_tx, writer_rx) = mpsc::sync_channel::<Vec<u8>>(queue_cap);
            let write_stream = match stream.try_clone() {
                Ok(s) => s,
                Err(_) => continue,
            };
            writers.push(spawn_writer(id, write_stream, writer_rx));
            let read_stream = match stream.try_clone() {
                Ok(s) => s,
                Err(_) => continue,
            };
            readers.push(spawn_reader(id, read_stream, event_tx.clone()));
            conns.insert(id, ConnState { session: None, writer: writer_tx, parked: None, stream });
        }

        // 2. Apply decoded requests.
        while let Ok(event) = event_rx.try_recv() {
            match event {
                ConnEvent::Request(id, req) => {
                    let Some(conn) = conns.get_mut(&id) else { continue };
                    let resp = match (conn.session, req) {
                        (None, Request::Connect { client }) => {
                            let (sid, resp) = service.connect(&client);
                            conn.session = Some(sid);
                            resp
                        }
                        (None, _) => Response::Error {
                            code: ErrorCode::NotConnected,
                            message: "the first request must be Connect".to_string(),
                        },
                        (Some(sid), req) => service.apply(sid, req),
                    };
                    // Direct responses block on the writer queue: a client
                    // that issued a request is reading its socket.
                    let mut buf = Vec::new();
                    resp.encode(&mut buf);
                    conn.writer.send(frame(&buf)).ok();
                }
                ConnEvent::Malformed(id, message) => {
                    if let Some(conn) = conns.get(&id) {
                        let mut buf = Vec::new();
                        Response::Error { code: ErrorCode::BadRequest, message }.encode(&mut buf);
                        conn.writer.send(frame(&buf)).ok();
                    }
                }
                ConnEvent::Closed(id) => {
                    if let Some(conn) = conns.remove(&id) {
                        if let Some(sid) = conn.session {
                            service.disconnect(sid);
                        }
                    }
                }
            }
        }

        // 3. Tick: advance simulated time, push deltas outward.
        let now = Instant::now();
        if now >= next_tick {
            service.advance(config.step);
            while now >= next_tick {
                next_tick += config.tick;
            }
        }
        for conn in conns.values_mut() {
            let Some(sid) = conn.session else { continue };
            if let Some(parked) = conn.parked.take() {
                match conn.writer.try_send(parked) {
                    Ok(()) => {}
                    Err(TrySendError::Full(parked)) => {
                        conn.parked = Some(parked);
                        continue;
                    }
                    Err(TrySendError::Disconnected(_)) => continue,
                }
            }
            'drain: while service.outbox_len(sid) > 0 {
                for resp in service.drain_outbox(sid, 1) {
                    let mut buf = Vec::new();
                    resp.encode(&mut buf);
                    match conn.writer.try_send(frame(&buf)) {
                        Ok(()) => {}
                        Err(TrySendError::Full(f)) => {
                            conn.parked = Some(f);
                            break 'drain;
                        }
                        Err(TrySendError::Disconnected(_)) => break 'drain,
                    }
                }
            }
        }

        if stop.load(Ordering::SeqCst) || service.shutdown_requested() {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    // Shut only the *read* half so blocked reader threads wake up; the
    // write half must stay open until the writer threads drain their
    // queues, or the final response (the `ShuttingDown` ack) is lost.
    for conn in conns.values() {
        conn.stream.shutdown(std::net::Shutdown::Read).ok();
    }
    drop(conns); // drops the writer senders: writers drain, flush, exit
    for t in writers {
        t.join().ok();
    }
    for t in readers {
        t.join().ok();
    }
}

/// Socket options of an accepted connection, inherited by the reader's and
/// writer's clones of it. Responses and deltas are small frames written
/// whole, so Nagle's algorithm would only hold each one back for the peer's
/// delayed ACK (~40 ms on loopback).
fn configure_accepted(stream: &TcpStream) {
    stream.set_nodelay(true).ok();
}

fn spawn_reader(id: u64, mut stream: TcpStream, tx: mpsc::Sender<ConnEvent>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("dr-service-read-{id}"))
        .spawn(move || {
            let mut fb = FrameBuf::new();
            let mut scratch = [0u8; 64 * 1024];
            loop {
                match stream.read(&mut scratch) {
                    Ok(0) | Err(_) => {
                        tx.send(ConnEvent::Closed(id)).ok();
                        return;
                    }
                    Ok(n) => fb.extend(&scratch[..n]),
                }
                loop {
                    match fb.next_frame() {
                        Ok(Some(payload)) => match Request::decode(&payload) {
                            Ok(req) => {
                                tx.send(ConnEvent::Request(id, req)).ok();
                            }
                            Err(e) => {
                                tx.send(ConnEvent::Malformed(
                                    id,
                                    format!("malformed request: {e}"),
                                ))
                                .ok();
                            }
                        },
                        Ok(None) => break,
                        Err(e) => {
                            // Unrecoverable framing state (oversized
                            // length): report and close.
                            tx.send(ConnEvent::Malformed(id, format!("malformed frame: {e}"))).ok();
                            tx.send(ConnEvent::Closed(id)).ok();
                            return;
                        }
                    }
                }
            }
        })
        .expect("spawn reader thread")
}

fn spawn_writer(id: u64, mut stream: TcpStream, rx: Receiver<Vec<u8>>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("dr-service-write-{id}"))
        .spawn(move || {
            use std::io::Write;
            for frame in rx {
                if stream.write_all(&frame).is_err() {
                    return;
                }
            }
        })
        .expect("spawn writer thread")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_sockets_have_nodelay_set() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(!accepted.nodelay().unwrap(), "the platform default is Nagle on");
        configure_accepted(&accepted);
        assert!(accepted.nodelay().unwrap());
        // The reader and writer threads work on clones of the same socket.
        assert!(accepted.try_clone().unwrap().nodelay().unwrap());
    }
}
