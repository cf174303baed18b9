//! The service's framed wire protocol.
//!
//! Every message travels as one *frame*: a little-endian `u32` payload
//! length followed by that many payload bytes. The payload is a tagged
//! binary encoding of one [`Request`] or [`Response`] — tag byte, then the
//! variant's fields with fixed-width integers (LE), length-prefixed UTF-8
//! strings, and length-prefixed vectors. Relation identity crosses the
//! service boundary as the relation *name*: interned [`dr_types::RelId`]s
//! are process-local (see the `NetMsg::Tuples` wire notes in dr-core), so
//! tuples are (de)interned at the edge.
//!
//! The wire is declared once. Every field type has one wire form, its
//! private `Wire` impl, and every message variant is written once, with its
//! tag byte, in a `messages!` declaration that emits the enum together with
//! its `encode` / `decode`.
//!
//! Decoding is total: malformed input — truncated payloads, unknown tags,
//! invalid UTF-8, oversized frames, trailing garbage — yields a typed
//! [`ProtoError`], never a panic, so a confused or hostile peer cannot take
//! the server down. [`FrameBuf`] is the incremental reassembler for stream
//! transports, where one `read` may carry half a frame or three.

use dr_types::{Cost, NodeId, PathVector, Tuple, Value};

/// Hard upper bound on a frame's payload size (16 MiB). A length prefix
/// above this is rejected before any allocation, so a hostile peer cannot
/// make the server reserve arbitrary memory with four bytes.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Why a frame or payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The payload ended before the structure it encodes did.
    Truncated,
    /// A frame's length prefix exceeds [`MAX_FRAME`].
    FrameTooLarge {
        /// The declared payload length.
        declared: usize,
    },
    /// An unknown tag byte for the structure being decoded.
    BadTag {
        /// What was being decoded (e.g. `"Request"`, `"Value"`).
        kind: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// The payload decoded fully but bytes were left over — a framing bug
    /// or corruption, rejected rather than silently ignored.
    TrailingBytes {
        /// How many bytes were left.
        extra: usize,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "payload truncated"),
            ProtoError::FrameTooLarge { declared } => {
                write!(f, "frame of {declared} bytes exceeds the {MAX_FRAME}-byte limit")
            }
            ProtoError::BadTag { kind, tag } => write!(f, "unknown {kind} tag {tag:#04x}"),
            ProtoError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            ProtoError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a complete payload")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

// ---------------------------------------------------------------------------
// The codec: every field type knows its one wire form
// ---------------------------------------------------------------------------

/// A type with one wire form: [`Wire::put`] appends it to a payload and
/// [`Wire::take`] reads it back. Integers and floats are fixed-width
/// little-endian, a `bool` is one byte, and strings and vectors are a `u32`
/// count followed by their elements.
trait Wire: Sized {
    /// The fewest bytes one encoded element is counted as when a declared
    /// element count is checked against the bytes left, so a corrupt count
    /// cannot drive a huge pre-allocation.
    const MIN_BYTES: usize;

    /// Append the wire form of `self` to `buf`.
    fn put(&self, buf: &mut Vec<u8>);

    /// Read one value; running out of bytes is [`ProtoError::Truncated`].
    fn take(r: &mut Reader<'_>) -> Result<Self, ProtoError>;
}

/// Borrowing reader over a payload.
struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    #[inline]
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.bytes.len() < n {
            return Err(ProtoError::Truncated);
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    /// A declared count of `T` elements, bounded by the bytes remaining.
    #[inline]
    fn count<T: Wire>(&mut self) -> Result<usize, ProtoError> {
        let n = u32::take(self)? as usize;
        if n.saturating_mul(T::MIN_BYTES) > self.bytes.len() {
            return Err(ProtoError::Truncated);
        }
        Ok(n)
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes { extra: self.bytes.len() })
        }
    }
}

/// Implement [`Wire`] for fixed-width numbers as their little-endian bytes.
macro_rules! fixed_width {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();

            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn take(r: &mut Reader<'_>) -> Result<$t, ProtoError> {
                let bytes = r.bytes(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("sized")))
            }
        }
    )*};
}

fixed_width!(u8, u32, u64, i64, f64);

impl Wire for bool {
    const MIN_BYTES: usize = 1;

    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        u8::from(*self).put(buf);
    }

    #[inline]
    fn take(r: &mut Reader<'_>) -> Result<bool, ProtoError> {
        Ok(u8::take(r)? != 0)
    }
}

impl Wire for String {
    const MIN_BYTES: usize = 4;

    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        buf.extend_from_slice(self.as_bytes());
    }

    #[inline]
    fn take(r: &mut Reader<'_>) -> Result<String, ProtoError> {
        let len = r.count::<u8>()?;
        String::from_utf8(r.bytes(len)?.to_vec()).map_err(|_| ProtoError::BadUtf8)
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;

    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        for item in self {
            item.put(buf);
        }
    }

    #[inline]
    fn take(r: &mut Reader<'_>) -> Result<Vec<T>, ProtoError> {
        let n = r.count::<T>()?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::take(r)?);
        }
        Ok(items)
    }
}

/// Implement [`Wire`] for structs as their fields, in the order listed.
macro_rules! wire_struct {
    ($($name:ident [$min:expr] { $($field:ident),* })*) => {$(
        impl Wire for $name {
            const MIN_BYTES: usize = $min;

            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                $(self.$field.put(buf);)*
            }

            #[inline]
            fn take(r: &mut Reader<'_>) -> Result<$name, ProtoError> {
                Ok($name { $($field: Wire::take(r)?),* })
            }
        }
    )*};
}

/// Declare a tagged enum and its codec at once: each variant is written
/// with its tag byte, and travels as that byte followed by its fields.
///
/// Enums of struct and unit variants are messages and get a public
/// `encode` / `decode` of one complete payload. Enums of one-field tuple
/// variants are values nested in messages; `as "Kind"` names them in
/// [`ProtoError::BadTag`].
macro_rules! messages {
    (
        $(#[$meta:meta])*
        pub enum $enum:ident as $kind:literal {
            $($(#[$vmeta:meta])* $tag:literal => $variant:ident($ty:ty),)*
        }
    ) => {
        $(#[$meta])*
        pub enum $enum {
            $($(#[$vmeta])* $variant($ty),)*
        }

        impl Wire for $enum {
            const MIN_BYTES: usize = 1;

            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                match self {
                    $($enum::$variant(v) => {
                        u8::put(&$tag, buf);
                        v.put(buf);
                    })*
                }
            }

            #[inline]
            fn take(r: &mut Reader<'_>) -> Result<$enum, ProtoError> {
                Ok(match u8::take(r)? {
                    $($tag => $enum::$variant(Wire::take(r)?),)*
                    tag => return Err(ProtoError::BadTag { kind: $kind, tag }),
                })
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub enum $enum:ident {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $variant:ident $({
                    $($(#[$fmeta:meta])* $field:ident: $fty:ty,)*
                })?,
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum $enum {
            $($(#[$vmeta])* $variant $({ $($(#[$fmeta])* $field: $fty,)* })?,)*
        }

        impl $enum {
            /// Append this message's tagged payload to `buf`.
            pub fn encode(&self, buf: &mut Vec<u8>) {
                match self {
                    $($enum::$variant $({ $($field),* })? => {
                        u8::put(&$tag, buf);
                        $($($field.put(buf);)*)?
                    })*
                }
            }

            /// Decode one message from a complete payload.
            pub fn decode(bytes: &[u8]) -> Result<$enum, ProtoError> {
                let mut r = Reader { bytes };
                let message = match u8::take(&mut r)? {
                    $($tag => $enum::$variant $({ $($field: Wire::take(&mut r)?),* })?,)*
                    tag => return Err(ProtoError::BadTag { kind: stringify!($enum), tag }),
                };
                r.finish()?;
                Ok(message)
            }
        }
    };
}

/// Machine-readable reason of a [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The submitted program failed to parse or localize.
    Parse = 0,
    /// The session hit its installed-query quota.
    QuotaExceeded = 1,
    /// The named query does not exist (never issued, or already torn down).
    UnknownQuery = 2,
    /// The query exists but belongs to another session.
    NotOwner = 3,
    /// The request is structurally valid but semantically unusable (e.g. a
    /// node id outside the topology).
    BadRequest = 4,
    /// The request must follow a successful `Connect` on this connection.
    NotConnected = 5,
    /// The connection queued more direct replies than the server holds for
    /// a peer that is not reading; it is closed after this notice.
    Overloaded = 6,
}

impl Wire for ErrorCode {
    const MIN_BYTES: usize = 1;

    fn put(&self, buf: &mut Vec<u8>) {
        (*self as u8).put(buf);
    }

    fn take(r: &mut Reader<'_>) -> Result<ErrorCode, ProtoError> {
        Ok(match u8::take(r)? {
            0 => ErrorCode::Parse,
            1 => ErrorCode::QuotaExceeded,
            2 => ErrorCode::UnknownQuery,
            3 => ErrorCode::NotOwner,
            4 => ErrorCode::BadRequest,
            5 => ErrorCode::NotConnected,
            6 => ErrorCode::Overloaded,
            tag => return Err(ProtoError::BadTag { kind: "ErrorCode", tag }),
        })
    }
}

/// Options of an `IssueQuery` request — the wire twin of the harness's
/// `IssueBuilder` knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct IssueOptions {
    /// Human-readable query name.
    pub name: String,
    /// The node that issues (floods) the query.
    pub issuer: u32,
    /// Relations replicated to every node during dissemination.
    pub replicated: Vec<String>,
    /// Aggregate-selections optimization (§7.1).
    pub aggregate_selections: bool,
    /// Multi-query result sharing (§7.3).
    pub share_results: bool,
    /// Cross-query cache relation used when sharing.
    pub cache_relation: String,
    /// Facts installed with the query.
    pub facts: Vec<WireTuple>,
    /// Record derivation provenance, enabling `Explain` requests against
    /// this query (costs memory proportional to the derivation count).
    pub record_provenance: bool,
}

impl Default for IssueOptions {
    fn default() -> IssueOptions {
        IssueOptions {
            name: "query".to_string(),
            issuer: 0,
            replicated: Vec::new(),
            aggregate_selections: true,
            share_results: false,
            cache_relation: "bestPathCache".to_string(),
            facts: Vec::new(),
            record_provenance: false,
        }
    }
}

/// One node of a derivation tree in the flat wire encoding of
/// [`Response::Explanation`].
///
/// Trees cross the wire as a vector of nodes with *child indexes* instead
/// of nesting, so decoding is depth-safe: no recursion, no
/// attacker-controlled stack growth. The root is index 0 and every child
/// index is strictly greater than its parent's, which rules out cycles and
/// lets [`tree_from_flat`] rebuild bottom-up in one reverse pass.
#[derive(Debug, Clone, PartialEq)]
pub struct WireDerivation {
    /// Node kind: 0 = base fact, 1 = derived, 2 = missing (an unresolved
    /// remote pointer).
    pub kind: u8,
    /// The tuple this node proves.
    pub tuple: WireTuple,
    /// Label of the firing rule (derived nodes; empty otherwise).
    pub rule: String,
    /// The deriving node (derived), or the node that held the unresolved
    /// record (missing). Zero for base facts.
    pub node: u32,
    /// The provenance-arena id that failed to resolve (missing nodes only).
    pub prov_id: u32,
    /// Indexes of the children in the flat vector (derived nodes only).
    pub children: Vec<u32>,
}

/// A tuple as it crosses the service boundary: relation *name* plus values
/// (interner ids are meaningless outside the process).
#[derive(Debug, Clone, PartialEq)]
pub struct WireTuple {
    /// Relation name.
    pub relation: String,
    /// Field values.
    pub values: Vec<WireValue>,
}

impl WireTuple {
    /// Intern into an engine tuple.
    pub fn to_tuple(&self) -> Tuple {
        Tuple::new(&self.relation, self.values.iter().map(WireValue::to_value).collect())
    }

    /// Encode an engine tuple for the wire.
    pub fn from_tuple(t: &Tuple) -> WireTuple {
        WireTuple {
            relation: t.rel().name().to_string(),
            values: t.fields().iter().map(WireValue::from_value).collect(),
        }
    }
}

// The bracketed count is the struct's `MIN_BYTES`. It may undercount the
// smallest encoding, which only weakens the count check, but must never
// exceed it, or a valid payload would be refused as truncated.
wire_struct! {
    IssueOptions [23] {
        name, issuer, replicated, aggregate_selections, share_results, cache_relation, facts,
        record_provenance
    }
    WireDerivation [21] { kind, tuple, rule, node, prov_id, children }
    WireTuple [5] { relation, values }
}

messages! {
    /// A value as it crosses the service boundary.
    #[derive(Debug, Clone, PartialEq)]
    pub enum WireValue as "Value" {
        /// A node id.
        0 => Node(u32),
        /// A link/path cost (∞ encodes as `f64::INFINITY`).
        1 => Cost(f64),
        /// An integer.
        2 => Int(i64),
        /// A boolean.
        3 => Bool(bool),
        /// A string.
        4 => Str(String),
        /// A path vector.
        5 => Path(Vec<u32>),
    }
}

impl WireValue {
    /// Convert into an engine value.
    pub fn to_value(&self) -> Value {
        match self {
            WireValue::Node(n) => Value::Node(NodeId(*n)),
            WireValue::Cost(c) => Value::Cost(Cost::new(*c)),
            WireValue::Int(i) => Value::Int(*i),
            WireValue::Bool(b) => Value::Bool(*b),
            WireValue::Str(s) => Value::str(s),
            WireValue::Path(nodes) => {
                Value::Path(PathVector::from_nodes(nodes.iter().map(|&n| NodeId(n)).collect()))
            }
        }
    }

    /// Convert from an engine value.
    pub fn from_value(v: &Value) -> WireValue {
        match v {
            Value::Node(n) => WireValue::Node(n.0),
            Value::Cost(c) => WireValue::Cost(c.value()),
            Value::Int(i) => WireValue::Int(*i),
            Value::Bool(b) => WireValue::Bool(*b),
            Value::Str(s) => WireValue::Str(s.to_string()),
            Value::Path(p) => WireValue::Path(p.nodes().iter().map(|n| n.0).collect()),
        }
    }
}

messages! {
    /// A client-to-server message.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request {
        /// Open a session. Must be the first request on a connection.
        1 => Connect {
            /// Client name (informational; the service does not keep it).
            client: String,
        },
        /// Parse, localize, and disseminate a query; the session owns it.
        2 => IssueQuery {
            /// The query program (same dialect the harness accepts).
            program: String,
            /// Issue options.
            options: IssueOptions,
        },
        /// Tear the query down across the deployment (must be session-owned).
        3 => TeardownQuery {
            /// The query to tear down.
            qid: u64,
        },
        /// Inject base-table facts at a node (e.g. link-metric updates).
        4 => InjectFacts {
            /// Query whose dataflow receives the facts.
            qid: u64,
            /// Node the facts are delivered to.
            node: u32,
            /// The facts.
            facts: Vec<WireTuple>,
        },
        /// Stream result-set deltas of a query to this session.
        5 => Subscribe {
            /// The query to observe.
            qid: u64,
        },
        /// Fetch the line-oriented JSON stats snapshot.
        6 => Stats,
        /// Advance simulated time by `millis` (the in-process transport's
        /// deterministic clock; the TCP server also ticks on its own).
        7 => Advance {
            /// Simulated milliseconds to advance.
            millis: u64,
        },
        /// Ask the server to shut down cleanly.
        8 => Shutdown,
        /// Explain how a derived tuple came to be: materialize the distributed
        /// proof tree of `tuple` under the (provenance-recording) query `qid`.
        9 => Explain {
            /// The query whose derivation is asked about.
            qid: u64,
            /// The derived tuple to explain.
            tuple: WireTuple,
        },
    }
}

messages! {
    /// A server-to-client message.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response {
        /// Session opened.
        1 => Connected {
            /// The session id.
            session: u64,
            /// Number of nodes in the resident topology.
            nodes: u32,
            /// Current simulated time in ms.
            now_millis: u64,
        },
        /// Query issued and disseminating.
        2 => Issued {
            /// The new query's id.
            qid: u64,
        },
        /// Teardown flood injected.
        3 => TornDown {
            /// The torn-down query.
            qid: u64,
        },
        /// Facts injected.
        4 => Injected {
            /// The receiving query.
            qid: u64,
            /// How many facts were delivered.
            count: u32,
        },
        /// Subscription registered; deltas follow as the clock advances.
        5 => Subscribed {
            /// The observed query.
            qid: u64,
        },
        /// A batch of result-set changes for a subscribed query.
        6 => Delta {
            /// The observed query.
            qid: u64,
            /// Simulated time of the snapshot.
            now_millis: u64,
            /// Result rows that appeared.
            added: Vec<WireTuple>,
            /// Result rows that disappeared.
            removed: Vec<WireTuple>,
        },
        /// The subscriber fell behind: `missed` delta rounds were coalesced
        /// into the next `Delta` instead of being queued unboundedly.
        7 => Lagged {
            /// The observed query.
            qid: u64,
            /// Coalesced delta rounds.
            missed: u64,
        },
        /// Stats snapshot: one JSON object per line.
        8 => Stats {
            /// The lines.
            lines: Vec<String>,
        },
        /// Simulated time advanced.
        9 => Advanced {
            /// New simulated time in ms.
            now_millis: u64,
        },
        /// The request failed.
        10 => Error {
            /// Machine-readable reason.
            code: ErrorCode,
            /// Human-readable detail.
            message: String,
        },
        /// The server acknowledges a `Shutdown` and is about to exit.
        11 => ShuttingDown,
        /// The proof tree answering an `Explain` request, flat-encoded (root is
        /// index 0; see [`WireDerivation`]).
        12 => Explanation {
            /// The explained query.
            qid: u64,
            /// The tree nodes; rebuild with [`tree_from_flat`].
            nodes: Vec<WireDerivation>,
        },
    }
}

/// Flatten a derivation tree into the wire encoding: breadth-first, so the
/// root is index 0 and every child index is strictly greater than its
/// parent's.
pub fn flatten_tree(tree: &dr_core::DerivationTree) -> Vec<WireDerivation> {
    use dr_core::DerivationTree as T;
    let mut out: Vec<WireDerivation> = Vec::new();
    let mut queue: std::collections::VecDeque<&T> = std::collections::VecDeque::new();
    queue.push_back(tree);
    // First pass: assign indexes in BFS order.
    let mut order: Vec<&T> = Vec::new();
    while let Some(t) = queue.pop_front() {
        order.push(t);
        if let T::Derived { children, .. } = t {
            for c in children {
                queue.push_back(c);
            }
        }
    }
    // Second pass: emit nodes; children of the i-th BFS node occupy the
    // next free indexes after everything queued before them.
    let mut next_child = 1u32;
    for t in &order {
        match t {
            T::Base { tuple } => out.push(WireDerivation {
                kind: 0,
                tuple: WireTuple::from_tuple(tuple),
                rule: String::new(),
                node: 0,
                prov_id: 0,
                children: Vec::new(),
            }),
            T::Derived { tuple, rule, node, children } => {
                let ids: Vec<u32> = (next_child..next_child + children.len() as u32).collect();
                next_child += children.len() as u32;
                out.push(WireDerivation {
                    kind: 1,
                    tuple: WireTuple::from_tuple(tuple),
                    rule: rule.clone(),
                    node: node.0,
                    prov_id: 0,
                    children: ids,
                });
            }
            T::Missing { tuple, node, id } => out.push(WireDerivation {
                kind: 2,
                tuple: WireTuple::from_tuple(tuple),
                rule: String::new(),
                node: node.0,
                prov_id: id.0,
                children: Vec::new(),
            }),
        }
    }
    out
}

/// Rebuild a [`dr_core::DerivationTree`] from its flat wire encoding.
///
/// Returns `None` for structurally invalid encodings: an empty vector, a
/// child index out of bounds or not strictly greater than its parent's
/// (which would permit cycles), an unknown kind byte, or a child claimed
/// by two parents. Runs without recursion, so a hostile peer cannot
/// overflow the stack with a deep tree.
pub fn tree_from_flat(nodes: &[WireDerivation]) -> Option<dr_core::DerivationTree> {
    use dr_core::DerivationTree as T;
    if nodes.is_empty() {
        return None;
    }
    let mut claimed = vec![false; nodes.len()];
    for (i, n) in nodes.iter().enumerate() {
        for &c in &n.children {
            let c = c as usize;
            if c <= i || c >= nodes.len() || claimed[c] {
                return None;
            }
            claimed[c] = true;
        }
    }
    // Build bottom-up: children always live at higher indexes, so a single
    // reverse pass has every subtree ready when its parent needs it.
    let mut built: Vec<Option<T>> = (0..nodes.len()).map(|_| None).collect();
    for (i, n) in nodes.iter().enumerate().rev() {
        let tuple = n.tuple.to_tuple();
        let tree = match n.kind {
            0 => T::Base { tuple },
            1 => {
                let mut children = Vec::with_capacity(n.children.len());
                for &c in &n.children {
                    children.push(built[c as usize].take()?);
                }
                T::Derived { tuple, rule: n.rule.clone(), node: NodeId(n.node), children }
            }
            2 => T::Missing { tuple, node: NodeId(n.node), id: dr_core::ProvId(n.prov_id) },
            _ => return None,
        };
        built[i] = Some(tree);
    }
    built[0].take()
}

/// Wrap a payload in a length-prefixed frame.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Encode straight into a frame: the length prefix is reserved up front and
/// patched in once the payload's size is known, so the message is built once.
fn framed(encode: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = vec![0u8; 4];
    encode(&mut out);
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
    out
}

/// Encode a request as a ready-to-send frame.
pub fn frame_request(req: &Request) -> Vec<u8> {
    framed(|buf| req.encode(buf))
}

/// Encode a response as a ready-to-send frame.
pub fn frame_response(resp: &Response) -> Vec<u8> {
    framed(|buf| resp.encode(buf))
}

/// Incremental frame reassembler for stream transports.
///
/// Feed it whatever byte chunks the socket yields; [`FrameBuf::next_frame`]
/// returns complete payloads as they become available. A declared length
/// beyond [`MAX_FRAME`] is rejected *before* buffering the body.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
}

impl FrameBuf {
    /// An empty reassembler.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Append raw bytes read from the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame payload, if one is buffered.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ProtoError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let declared = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
        if declared > MAX_FRAME {
            return Err(ProtoError::FrameTooLarge { declared });
        }
        if self.buf.len() < 4 + declared {
            return Ok(None);
        }
        let payload = self.buf[4..4 + declared].to_vec();
        self.buf.drain(..4 + declared);
        Ok(Some(payload))
    }

    /// Bytes currently buffered (tests and diagnostics).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_frame_is_its_payload_behind_a_length_prefix() {
        let req = Request::InjectFacts {
            qid: 42,
            node: 5,
            facts: vec![WireTuple {
                relation: "link".into(),
                values: vec![WireValue::Node(5), WireValue::Cost(f64::INFINITY)],
            }],
        };
        let resp = Response::Stats { lines: vec!["{\"type\":\"service\"}".into()] };
        let (mut req_payload, mut resp_payload) = (Vec::new(), Vec::new());
        req.encode(&mut req_payload);
        resp.encode(&mut resp_payload);
        assert_eq!(frame_request(&req), frame(&req_payload));
        assert_eq!(frame_response(&resp), frame(&resp_payload));
    }

    #[test]
    fn derivation_tree_flattens_and_rebuilds() {
        use dr_core::DerivationTree as T;
        use dr_types::NodeId;
        let leaf = |rel: &str| T::Base { tuple: Tuple::new(rel, vec![Value::Int(1)]) };
        let tree = T::Derived {
            tuple: Tuple::new("bestPath", vec![Value::Int(0)]),
            rule: "BPR2".into(),
            node: NodeId(0),
            children: vec![
                T::Derived {
                    tuple: Tuple::new("path", vec![Value::Int(0)]),
                    rule: "NR2".into(),
                    node: NodeId(1),
                    children: vec![leaf("link"), leaf("link")],
                },
                T::Missing {
                    tuple: Tuple::new("path", vec![Value::Int(2)]),
                    node: NodeId(2),
                    id: dr_core::ProvId(9),
                },
            ],
        };
        let flat = flatten_tree(&tree);
        assert_eq!(flat.len(), 5);
        assert_eq!(tree_from_flat(&flat), Some(tree));

        // Structural garbage is rejected, not panicked on.
        assert_eq!(tree_from_flat(&[]), None);
        let mut cyclic = flat.clone();
        cyclic[0].children = vec![0]; // self-loop
        assert_eq!(tree_from_flat(&cyclic), None);
        let mut oob = flat.clone();
        oob[0].children = vec![99];
        assert_eq!(tree_from_flat(&oob), None);
        let mut shared = flat.clone();
        shared[0].children = vec![1, 1]; // one child, two parents
        assert_eq!(tree_from_flat(&shared), None);
        let mut badkind = flat;
        badkind[1].kind = 7;
        assert_eq!(tree_from_flat(&badkind), None);
    }

    #[test]
    fn frame_buf_reassembles_split_frames() {
        let f1 = frame_request(&Request::Stats);
        let f2 = frame_request(&Request::Advance { millis: 7 });
        let stream: Vec<u8> = f1.iter().chain(&f2).copied().collect();
        let mut fb = FrameBuf::new();
        // Feed one byte at a time: frames must come out whole, in order.
        let mut frames = Vec::new();
        for b in stream {
            fb.extend(&[b]);
            while let Some(p) = fb.next_frame().unwrap() {
                frames.push(p);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(Request::decode(&frames[0]), Ok(Request::Stats));
        assert_eq!(Request::decode(&frames[1]), Ok(Request::Advance { millis: 7 }));
        assert_eq!(fb.buffered(), 0);
    }
}
