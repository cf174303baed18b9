//! The TCP daemon: `dr-serviced`'s engine.
//!
//! One *engine* thread owns the [`Connections`] state machine (and through
//! it the `RoutingService`): it is the only thread that touches routing
//! state, so the service stays single-threaded and deterministic. The
//! engine is event-driven — it blocks on one channel of connection events
//! until the next tick deadline, so an idle daemon wakes only to tick —
//! and it never blocks on a client: every hand-off to a writer is a
//! `try_send` (the `send`s below post to the unbounded event channel,
//! which cannot block).
//!
//! Threads live at the byte boundary only: an acceptor blocked in
//! `accept`, and per connection a reader blocked in `read` (it reassembles
//! and decodes frames, then posts requests) and a writer blocked on its
//! bounded frame channel (it posts a wake when the engine was refused room
//! and there is room again). They are threads rather than one readiness
//! loop because the crate is `#![forbid(unsafe_code)]`, `std` has no
//! `poll(2)`, and no `libc`/`mio` is vendored. A connection's two threads
//! are joined when each reports it is done; the acceptor is joined at
//! shutdown, woken by a self-connect.
//!
//! Everything about sessions, ordering and queue limits is
//! [`Connections`]'s and is shared with the in-process hub: a slow
//! subscriber backs up into its outbox and lags (soft limit); a peer that
//! pipelines requests and never reads is told `Overloaded` and closed (hard
//! limit) while every other session keeps being served.

use std::collections::btree_map::{BTreeMap, Entry};
use std::io::Write;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dr_netsim::{SimDuration, Topology};

use crate::protocol::Request;
use crate::service::{ConnId, Connections, Reply, ServiceConfig};
use crate::transport::{TcpTransport, Transport, TransportError};

/// Frames a writer thread holds between the engine and the socket. Small:
/// the queue that counts against the limits is the one in [`Connections`].
const WRITER_DEPTH: usize = 32;

/// How long a shutdown lets writers finish towards peers that are reading.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(1);

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

/// What the other threads tell the engine.
enum ConnEvent {
    Accepted(TcpStream),
    /// One frame's worth: a decoded request, or why it did not decode.
    Frame(ConnId, Result<Request, String>),
    /// The reader saw end of stream, an error, or an unframeable prefix.
    ReaderDone(ConnId),
    /// The writer drained a dropped channel, or a write failed.
    WriterDone(ConnId),
    /// The writer was refused room earlier and has room again.
    Writable(ConnId),
    Shutdown,
}

/// The engine's handle on one connection's socket and threads.
struct ConnIo {
    stream: TcpStream,
    /// Dropped once nothing more will be sent, so the writer drains and exits.
    writer: Option<SyncSender<Vec<u8>>>,
    /// A frame the writer had no room for; it goes first next time.
    parked: Option<Vec<u8>>,
    /// Set by the engine when refused, cleared by the writer when it wakes it.
    room_wanted: Arc<AtomicBool>,
    reader_thread: Option<JoinHandle<()>>,
    writer_thread: Option<JoinHandle<()>>,
}

impl ConnIo {
    /// Start connection `id`'s reader and writer threads over `stream`.
    fn start(id: ConnId, stream: TcpStream, events: &Sender<ConnEvent>) -> std::io::Result<ConnIo> {
        let requests = TcpTransport::from_stream(stream.try_clone()?);
        let write_half = stream.try_clone()?;
        let (writer, frames) = mpsc::sync_channel(WRITER_DEPTH);
        let room_wanted = Arc::new(AtomicBool::new(false));
        Ok(ConnIo {
            stream,
            writer: Some(writer),
            parked: None,
            reader_thread: Some(spawn_reader(id, requests, events.clone())),
            writer_thread: Some(spawn_writer(
                id,
                write_half,
                frames,
                Arc::clone(&room_wanted),
                events.clone(),
            )),
            room_wanted,
        })
    }

    /// Hand the writer as many of the connection's queued frames as it has
    /// room for, in order. Never blocks.
    fn flush(&mut self, id: ConnId, table: &mut Connections) {
        let Some(writer) = &self.writer else { return };
        while let Some(frame) = self.parked.take().or_else(|| table.take_frame(id)) {
            // A writer that is gone takes nothing more; its `WriterDone`
            // discards the rest.
            let Err(TrySendError::Full(frame)) = writer.try_send(frame) else { continue };
            // Ask for a wake, then look again: the writer may have made
            // room (and blocked on the empty channel) in between.
            self.room_wanted.store(true, Ordering::SeqCst);
            if let Err(TrySendError::Full(frame)) = writer.try_send(frame) {
                self.parked = Some(frame);
                return;
            }
        }
        if table.is_gone(id) {
            self.writer = None;
        }
    }
}

/// A running server; dropping the handle does not stop it — use
/// [`ServerHandle::shutdown`] or send [`Request::Shutdown`] from a client.
pub struct ServerHandle {
    addr: SocketAddr,
    events: Sender<ConnEvent>,
    engine: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wake the engine and ask it to stop.
    pub fn shutdown(&self) {
        self.events.send(ConnEvent::Shutdown).ok();
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
    let local = listener.local_addr()?;
    let (events, inbox) = mpsc::channel();
    let engine_events = events.clone();
    let engine = std::thread::Builder::new()
        .name("dr-service-engine".to_string())
        .spawn(move || engine_loop(listener, local, topology, config, engine_events, inbox))
        .expect("spawn engine thread");
    Ok(ServerHandle { addr: local, events, engine: Some(engine) })
}

fn engine_loop(
    listener: TcpListener,
    local: SocketAddr,
    topology: Topology,
    config: ServerConfig,
    events: Sender<ConnEvent>,
    inbox: Receiver<ConnEvent>,
) {
    let ServerConfig { service, tick, step } = config;
    let mut table = Connections::new(topology, service);
    let mut io: BTreeMap<ConnId, ConnIo> = BTreeMap::new();
    let stopping = Arc::new(AtomicBool::new(false));
    let acceptor = spawn_acceptor(listener, events.clone(), Arc::clone(&stopping));
    let mut next_tick = Instant::now() + tick;

    loop {
        // Block only when nothing is queued, and then until the next tick.
        let event = inbox.try_recv().ok().or_else(|| {
            let idle = next_tick.saturating_duration_since(Instant::now());
            let event = inbox.recv_timeout(idle).ok();
            table.note_wakeup();
            event
        });
        match event {
            Some(ConnEvent::Accepted(stream)) => {
                let id = table.open();
                match ConnIo::start(id, stream, &events) {
                    Ok(conn) => drop(io.insert(id, conn)),
                    Err(_) => table.discard(id),
                }
            }
            Some(ConnEvent::Frame(id, frame)) => {
                if let (Reply::Overflow, Some(conn)) = (table.on_frame(id, frame), io.get(&id)) {
                    // A connection shed for overflow is not read from again.
                    conn.stream.shutdown(Shutdown::Read).ok();
                }
            }
            Some(ConnEvent::ReaderDone(id)) => {
                table.close(id);
                if let Entry::Occupied(mut entry) = io.entry(id) {
                    let conn = entry.get_mut();
                    join(&mut conn.reader_thread);
                    // With nothing left to send the writer can go at once.
                    conn.flush(id, &mut table);
                    if conn.writer_thread.is_none() {
                        entry.remove();
                    }
                }
            }
            Some(ConnEvent::WriterDone(id)) => {
                table.discard(id);
                if let Entry::Occupied(mut entry) = io.entry(id) {
                    let conn = entry.get_mut();
                    join(&mut conn.writer_thread);
                    // Ends the reader too, if the peer has not.
                    conn.stream.shutdown(Shutdown::Both).ok();
                    if conn.reader_thread.is_none() {
                        entry.remove();
                    }
                }
            }
            Some(ConnEvent::Writable(id)) => {
                if let Some(conn) = io.get_mut(&id) {
                    conn.flush(id, &mut table);
                }
            }
            Some(ConnEvent::Shutdown) => break,
            None => {}
        }

        let now = Instant::now();
        if now >= next_tick {
            table.advance(step);
            while now >= next_tick {
                next_tick += tick;
            }
        }
        for id in table.take_ready() {
            if let Some(conn) = io.get_mut(&id) {
                conn.flush(id, &mut table);
            }
        }

        if table.service().shutdown_requested() {
            break;
        }
    }

    // Wake the acceptor out of `accept` with a connection it will not keep.
    stopping.store(true, Ordering::SeqCst);
    if TcpStream::connect(loopback_of(local)).is_ok() {
        acceptor.join().ok();
    }
    // Readers wake when the read half closes. Writers get a grace period to
    // drain their channels — the `ShuttingDown` ack must not be lost — and
    // whoever is still not reading after it (or was not before) is cut off:
    // no client can hold up this join.
    for conn in io.values_mut() {
        let stalled = conn.parked.is_some();
        conn.stream.shutdown(if stalled { Shutdown::Both } else { Shutdown::Read }).ok();
        conn.writer = None;
    }
    let deadline = Instant::now() + SHUTDOWN_GRACE;
    while io.values().any(|conn| conn.writer_thread.is_some()) {
        match inbox.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(ConnEvent::WriterDone(id)) => {
                if let Some(conn) = io.get_mut(&id) {
                    join(&mut conn.writer_thread);
                }
            }
            Ok(_) => {}
            Err(_) => break,
        }
    }
    for conn in io.values_mut() {
        conn.stream.shutdown(Shutdown::Both).ok();
        join(&mut conn.writer_thread);
        join(&mut conn.reader_thread);
    }
}

fn join(thread: &mut Option<JoinHandle<()>>) {
    if let Some(thread) = thread.take() {
        thread.join().ok();
    }
}

/// Where to reach a listener bound to `local` from this host.
fn loopback_of(local: SocketAddr) -> SocketAddr {
    let ip = match local {
        SocketAddr::V4(a) if a.ip().is_unspecified() => Ipv4Addr::LOCALHOST.into(),
        SocketAddr::V6(a) if a.ip().is_unspecified() => Ipv6Addr::LOCALHOST.into(),
        other => other.ip(),
    };
    SocketAddr::new(ip, local.port())
}

fn spawn_acceptor(
    listener: TcpListener,
    events: Sender<ConnEvent>,
    stopping: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("dr-service-accept".to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                if stopping.load(Ordering::SeqCst) {
                    return;
                }
                match stream {
                    Ok(stream) => {
                        events.send(ConnEvent::Accepted(stream)).ok();
                    }
                    // Out of descriptors, or the peer already gone.
                    Err(_) => std::thread::yield_now(),
                }
            }
        })
        .expect("spawn acceptor thread")
}

fn spawn_reader(
    id: ConnId,
    mut requests: TcpTransport,
    events: Sender<ConnEvent>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("dr-service-read-{id}"))
        .spawn(move || {
            loop {
                let frame = match requests.recv_frame() {
                    Ok(payload) => {
                        Request::decode(&payload).map_err(|e| format!("malformed request: {e}"))
                    }
                    // Unrecoverable framing state (oversized length): report and close.
                    Err(TransportError::Proto(e)) => {
                        let why = format!("malformed frame: {e}");
                        events.send(ConnEvent::Frame(id, Err(why))).ok();
                        break;
                    }
                    Err(_) => break,
                };
                events.send(ConnEvent::Frame(id, frame)).ok();
            }
            events.send(ConnEvent::ReaderDone(id)).ok();
        })
        .expect("spawn reader thread")
}

fn spawn_writer(
    id: ConnId,
    mut stream: TcpStream,
    frames: Receiver<Vec<u8>>,
    room_wanted: Arc<AtomicBool>,
    events: Sender<ConnEvent>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("dr-service-write-{id}"))
        .spawn(move || {
            for frame in frames {
                // Taking a frame made room; tell the engine if it was refused.
                if room_wanted.swap(false, Ordering::SeqCst) {
                    events.send(ConnEvent::Writable(id)).ok();
                }
                if stream.write_all(&frame).is_err() {
                    break;
                }
            }
            events.send(ConnEvent::WriterDone(id)).ok();
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
        let (events, _inbox) = mpsc::channel();
        let conn = ConnIo::start(1, accepted, &events).unwrap();
        // The reader and writer threads work on clones of the same socket.
        assert!(conn.stream.nodelay().unwrap());
    }
}
