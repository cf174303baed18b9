//! Frame transports: how encoded [`Request`]/[`crate::Response`] frames travel.
//!
//! A transport is deliberately dumb — it moves opaque frames and reports
//! closure. Sessions, queue limits and backpressure policy live in
//! [`crate::service::Connections`], the one connection state machine both
//! the hub here and the [`crate::server`] engine loop are shells over.
//!
//! Two implementations:
//!
//! * [`InProcHub`] / [`InProcConn`] — a single-threaded, deterministic
//!   in-process transport. Frames still round-trip through the real byte
//!   codec, but delivery is synchronous queue shuffling, so tests can
//!   multiplex hundreds of sessions with reproducible interleavings and
//!   no real time.
//! * [`TcpTransport`] — a blocking `std::net` stream for clients of the
//!   [`crate::server`] daemon.

use std::cell::RefCell;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::rc::Rc;

use dr_netsim::Topology;

use crate::protocol::{frame, FrameBuf, ProtoError, Request};
use crate::service::{ConnId, Connections, Reply, RoutingService, ServiceConfig};

/// Why a transport operation failed.
#[derive(Debug)]
pub enum TransportError {
    /// The peer closed the connection (or the server shut down).
    Closed,
    /// A frame failed the length-prefix discipline (e.g. oversized).
    Proto(ProtoError),
    /// An I/O error from the underlying socket.
    Io(std::io::Error),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "connection closed"),
            TransportError::Proto(e) => write!(f, "framing error: {e}"),
            TransportError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<ProtoError> for TransportError {
    fn from(e: ProtoError) -> TransportError {
        TransportError::Proto(e)
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> TransportError {
        TransportError::Io(e)
    }
}

/// A bidirectional frame pipe between a client and a service.
pub trait Transport {
    /// Send one frame payload (the transport adds the length prefix).
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), TransportError>;

    /// Receive the next frame payload, waiting for it.
    ///
    /// On the in-process transport "waiting" means pumping the service —
    /// if no frame can possibly arrive the call fails with
    /// [`TransportError::Closed`] rather than hanging.
    fn recv_frame(&mut self) -> Result<Vec<u8>, TransportError>;

    /// Receive the next frame payload if one is already available.
    fn try_recv_frame(&mut self) -> Result<Option<Vec<u8>>, TransportError>;
}

// ---------------------------------------------------------------------------
// In-process transport
// ---------------------------------------------------------------------------

/// A deterministic in-process service endpoint: the thinnest possible shell
/// over [`Connections`].
///
/// Cloning the hub clones a handle to the *same* service. Connections are
/// created with [`InProcHub::connect`]; everything is single-threaded and
/// synchronous: a [`Transport::send_frame`] applies the request inline, so
/// by the time it returns the direct response (and every push it caused)
/// is already queued.
#[derive(Clone)]
pub struct InProcHub {
    inner: Rc<RefCell<Connections>>,
}

impl InProcHub {
    /// Start a service over `topology` and expose it in-process.
    pub fn new(topology: Topology, config: ServiceConfig) -> InProcHub {
        InProcHub { inner: Rc::new(RefCell::new(Connections::new(topology, config))) }
    }

    /// Open a new (not yet connected) transport to the service.
    pub fn connect(&self) -> InProcConn {
        let id = self.inner.borrow_mut().open();
        InProcConn { hub: Rc::clone(&self.inner), id }
    }

    /// Distribute queued pushes to their connections (implicit in every
    /// send and receive; explicit for tests that advanced the service
    /// behind the hub's back).
    pub fn pump(&self) {
        self.inner.borrow_mut().drain_outboxes();
    }

    /// Run `f` against the underlying service (inspection and scheduling
    /// of simulator events in tests and load drivers).
    pub fn with_service<R>(&self, f: impl FnOnce(&mut RoutingService) -> R) -> R {
        f(self.inner.borrow_mut().service_mut())
    }
}

/// One in-process connection. Dropping it closes the session (the service
/// tears down every query the session still owns).
pub struct InProcConn {
    hub: Rc<RefCell<Connections>>,
    id: ConnId,
}

impl Transport for InProcConn {
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        let frame = Request::decode(payload).map_err(|e| format!("malformed request: {e}"));
        match self.hub.borrow_mut().on_frame(self.id, frame) {
            Reply::Dropped => Err(TransportError::Closed),
            Reply::Queued | Reply::Overflow => Ok(()),
        }
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, TransportError> {
        // Synchronous transport: nothing queued means nothing will ever
        // arrive without another request.
        self.try_recv_frame()?.ok_or(TransportError::Closed)
    }

    fn try_recv_frame(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        // The queue keeps the length prefix for wire fidelity; strip it.
        Ok(self.hub.borrow_mut().take_frame(self.id).map(|framed| framed[4..].to_vec()))
    }
}

impl Drop for InProcConn {
    fn drop(&mut self) {
        self.hub.borrow_mut().discard(self.id);
    }
}

// ---------------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------------

/// Bytes asked of the socket per `read`.
const READ_CHUNK: usize = 64 * 1024;

/// A blocking TCP frame transport: the client side of [`crate::server`], and
/// what each of the server's reader threads reads requests through.
pub struct TcpTransport {
    stream: TcpStream,
    buf: FrameBuf,
    /// Read scratch, on the heap so that moving the transport (or a client
    /// holding it) moves a pointer rather than [`READ_CHUNK`] bytes.
    scratch: Box<[u8]>,
}

impl TcpTransport {
    /// Connect to a `dr-serviced` endpoint, e.g. `"127.0.0.1:7117"`.
    pub fn dial(addr: &str) -> Result<TcpTransport, TransportError> {
        Ok(TcpTransport::from_stream(TcpStream::connect(addr)?))
    }

    /// Wrap an already-connected stream (the server's per-connection side).
    /// Frames here are small and written whole, so Nagle's algorithm would
    /// only hold each one back for the peer's delayed ACK (~40 ms on
    /// loopback): it is switched off, for every clone of the socket.
    pub fn from_stream(stream: TcpStream) -> TcpTransport {
        stream.set_nodelay(true).ok();
        TcpTransport { stream, buf: FrameBuf::new(), scratch: vec![0; READ_CHUNK].into() }
    }
}

impl Transport for TcpTransport {
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.stream.write_all(&frame(payload))?;
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, TransportError> {
        loop {
            if let Some(payload) = self.buf.next_frame()? {
                return Ok(payload);
            }
            let n = self.stream.read(&mut self.scratch)?;
            if n == 0 {
                return Err(TransportError::Closed);
            }
            self.buf.extend(&self.scratch[..n]);
        }
    }

    fn try_recv_frame(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        if let Some(payload) = self.buf.next_frame()? {
            return Ok(Some(payload));
        }
        self.stream.set_nonblocking(true)?;
        let read = self.stream.read(&mut self.scratch);
        self.stream.set_nonblocking(false)?;
        match read {
            Ok(0) => Err(TransportError::Closed),
            Ok(n) => {
                self.buf.extend(&self.scratch[..n]);
                self.buf.next_frame().map_err(TransportError::from)
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(TransportError::Io(e)),
        }
    }
}
