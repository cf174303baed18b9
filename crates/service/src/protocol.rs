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

impl ErrorCode {
    fn from_tag(tag: u8) -> Result<ErrorCode, ProtoError> {
        Ok(match tag {
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

/// A value as it crosses the service boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum WireValue {
    /// A node id.
    Node(u32),
    /// A link/path cost (∞ encodes as `f64::INFINITY`).
    Cost(f64),
    /// An integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// A path vector.
    Path(Vec<u32>),
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

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a session. Must be the first request on a connection.
    Connect {
        /// Client name for logs and stats.
        client: String,
    },
    /// Parse, localize, and disseminate a query; the session owns it.
    IssueQuery {
        /// The query program (same dialect the harness accepts).
        program: String,
        /// Issue options.
        options: IssueOptions,
    },
    /// Tear the query down across the deployment (must be session-owned).
    TeardownQuery {
        /// The query to tear down.
        qid: u64,
    },
    /// Inject base-table facts at a node (e.g. link-metric updates).
    InjectFacts {
        /// Query whose dataflow receives the facts.
        qid: u64,
        /// Node the facts are delivered to.
        node: u32,
        /// The facts.
        facts: Vec<WireTuple>,
    },
    /// Stream result-set deltas of a query to this session.
    Subscribe {
        /// The query to observe.
        qid: u64,
    },
    /// Fetch the line-oriented JSON stats snapshot.
    Stats,
    /// Advance simulated time by `millis` (the in-process transport's
    /// deterministic clock; the TCP server also ticks on its own).
    Advance {
        /// Simulated milliseconds to advance.
        millis: u64,
    },
    /// Ask the server to shut down cleanly.
    Shutdown,
    /// Explain how a derived tuple came to be: materialize the distributed
    /// proof tree of `tuple` under the (provenance-recording) query `qid`.
    Explain {
        /// The query whose derivation is asked about.
        qid: u64,
        /// The derived tuple to explain.
        tuple: WireTuple,
    },
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Session opened.
    Connected {
        /// The session id.
        session: u64,
        /// Number of nodes in the resident topology.
        nodes: u32,
        /// Current simulated time in ms.
        now_millis: u64,
    },
    /// Query issued and disseminating.
    Issued {
        /// The new query's id.
        qid: u64,
    },
    /// Teardown flood injected.
    TornDown {
        /// The torn-down query.
        qid: u64,
    },
    /// Facts injected.
    Injected {
        /// The receiving query.
        qid: u64,
        /// How many facts were delivered.
        count: u32,
    },
    /// Subscription registered; deltas follow as the clock advances.
    Subscribed {
        /// The observed query.
        qid: u64,
    },
    /// A batch of result-set changes for a subscribed query.
    Delta {
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
    Lagged {
        /// The observed query.
        qid: u64,
        /// Coalesced delta rounds.
        missed: u64,
    },
    /// Stats snapshot: one JSON object per line.
    Stats {
        /// The lines.
        lines: Vec<String>,
    },
    /// Simulated time advanced.
    Advanced {
        /// New simulated time in ms.
        now_millis: u64,
    },
    /// The request failed.
    Error {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The server acknowledges a `Shutdown` and is about to exit.
    ShuttingDown,
    /// The proof tree answering an `Explain` request, flat-encoded (root is
    /// index 0; see [`WireDerivation`]).
    Explanation {
        /// The explained query.
        qid: u64,
        /// The tree nodes; rebuild with [`tree_from_flat`].
        nodes: Vec<WireDerivation>,
    },
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

// ---------------------------------------------------------------------------
// Encoding primitives
// ---------------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    put_u8(buf, v as u8);
}

/// Borrowing reader over a payload. Every `take_*` checks remaining length;
/// running out is [`ProtoError::Truncated`].
struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.bytes.len() < n {
            return Err(ProtoError::Truncated);
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn i64(&mut self) -> Result<i64, ProtoError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, ProtoError> {
        Ok(self.u8()? != 0)
    }

    /// A declared element count, sanity-bounded by the bytes actually
    /// remaining so a corrupt count cannot drive a huge pre-allocation.
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize, ProtoError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.bytes.len() {
            return Err(ProtoError::Truncated);
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::BadUtf8)
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes { extra: self.bytes.len() })
        }
    }
}

fn put_value(buf: &mut Vec<u8>, v: &WireValue) {
    match v {
        WireValue::Node(n) => {
            put_u8(buf, 0);
            put_u32(buf, *n);
        }
        WireValue::Cost(c) => {
            put_u8(buf, 1);
            put_f64(buf, *c);
        }
        WireValue::Int(i) => {
            put_u8(buf, 2);
            put_i64(buf, *i);
        }
        WireValue::Bool(b) => {
            put_u8(buf, 3);
            put_bool(buf, *b);
        }
        WireValue::Str(s) => {
            put_u8(buf, 4);
            put_str(buf, s);
        }
        WireValue::Path(nodes) => {
            put_u8(buf, 5);
            put_u32(buf, nodes.len() as u32);
            for n in nodes {
                put_u32(buf, *n);
            }
        }
    }
}

fn take_value(r: &mut Reader<'_>) -> Result<WireValue, ProtoError> {
    Ok(match r.u8()? {
        0 => WireValue::Node(r.u32()?),
        1 => WireValue::Cost(r.f64()?),
        2 => WireValue::Int(r.i64()?),
        3 => WireValue::Bool(r.bool()?),
        4 => WireValue::Str(r.string()?),
        5 => {
            let n = r.count(4)?;
            let mut nodes = Vec::with_capacity(n);
            for _ in 0..n {
                nodes.push(r.u32()?);
            }
            WireValue::Path(nodes)
        }
        tag => return Err(ProtoError::BadTag { kind: "Value", tag }),
    })
}

fn put_wire_tuple(buf: &mut Vec<u8>, t: &WireTuple) {
    put_str(buf, &t.relation);
    put_u32(buf, t.values.len() as u32);
    for v in &t.values {
        put_value(buf, v);
    }
}

fn take_wire_tuple(r: &mut Reader<'_>) -> Result<WireTuple, ProtoError> {
    let relation = r.string()?;
    let n = r.count(1)?;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(take_value(r)?);
    }
    Ok(WireTuple { relation, values })
}

fn put_tuples(buf: &mut Vec<u8>, tuples: &[WireTuple]) {
    put_u32(buf, tuples.len() as u32);
    for t in tuples {
        put_wire_tuple(buf, t);
    }
}

fn take_tuples(r: &mut Reader<'_>) -> Result<Vec<WireTuple>, ProtoError> {
    let n = r.count(5)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(take_wire_tuple(r)?);
    }
    Ok(out)
}

fn put_derivation(buf: &mut Vec<u8>, d: &WireDerivation) {
    put_u8(buf, d.kind);
    put_wire_tuple(buf, &d.tuple);
    put_str(buf, &d.rule);
    put_u32(buf, d.node);
    put_u32(buf, d.prov_id);
    put_u32(buf, d.children.len() as u32);
    for c in &d.children {
        put_u32(buf, *c);
    }
}

fn take_derivation(r: &mut Reader<'_>) -> Result<WireDerivation, ProtoError> {
    let kind = r.u8()?;
    let tuple = take_wire_tuple(r)?;
    let rule = r.string()?;
    let node = r.u32()?;
    let prov_id = r.u32()?;
    let n = r.count(4)?;
    let mut children = Vec::with_capacity(n);
    for _ in 0..n {
        children.push(r.u32()?);
    }
    Ok(WireDerivation { kind, tuple, rule, node, prov_id, children })
}

fn put_derivations(buf: &mut Vec<u8>, nodes: &[WireDerivation]) {
    put_u32(buf, nodes.len() as u32);
    for d in nodes {
        put_derivation(buf, d);
    }
}

fn take_derivations(r: &mut Reader<'_>) -> Result<Vec<WireDerivation>, ProtoError> {
    let n = r.count(21)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(take_derivation(r)?);
    }
    Ok(out)
}

fn put_strings(buf: &mut Vec<u8>, items: &[String]) {
    put_u32(buf, items.len() as u32);
    for s in items {
        put_str(buf, s);
    }
}

fn take_strings(r: &mut Reader<'_>) -> Result<Vec<String>, ProtoError> {
    let n = r.count(4)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.string()?);
    }
    Ok(out)
}

impl Request {
    /// Append this request's tagged payload to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Connect { client } => {
                put_u8(buf, 1);
                put_str(buf, client);
            }
            Request::IssueQuery { program, options } => {
                put_u8(buf, 2);
                put_str(buf, program);
                put_str(buf, &options.name);
                put_u32(buf, options.issuer);
                put_strings(buf, &options.replicated);
                put_bool(buf, options.aggregate_selections);
                put_bool(buf, options.share_results);
                put_str(buf, &options.cache_relation);
                put_tuples(buf, &options.facts);
                put_bool(buf, options.record_provenance);
            }
            Request::TeardownQuery { qid } => {
                put_u8(buf, 3);
                put_u64(buf, *qid);
            }
            Request::InjectFacts { qid, node, facts } => {
                put_u8(buf, 4);
                put_u64(buf, *qid);
                put_u32(buf, *node);
                put_tuples(buf, facts);
            }
            Request::Subscribe { qid } => {
                put_u8(buf, 5);
                put_u64(buf, *qid);
            }
            Request::Stats => put_u8(buf, 6),
            Request::Advance { millis } => {
                put_u8(buf, 7);
                put_u64(buf, *millis);
            }
            Request::Shutdown => put_u8(buf, 8),
            Request::Explain { qid, tuple } => {
                put_u8(buf, 9);
                put_u64(buf, *qid);
                put_wire_tuple(buf, tuple);
            }
        }
    }

    /// Decode one request from a complete payload.
    pub fn decode(bytes: &[u8]) -> Result<Request, ProtoError> {
        let mut r = Reader::new(bytes);
        let req = match r.u8()? {
            1 => Request::Connect { client: r.string()? },
            2 => {
                let program = r.string()?;
                let name = r.string()?;
                let issuer = r.u32()?;
                let replicated = take_strings(&mut r)?;
                let aggregate_selections = r.bool()?;
                let share_results = r.bool()?;
                let cache_relation = r.string()?;
                let facts = take_tuples(&mut r)?;
                let record_provenance = r.bool()?;
                Request::IssueQuery {
                    program,
                    options: IssueOptions {
                        name,
                        issuer,
                        replicated,
                        aggregate_selections,
                        share_results,
                        cache_relation,
                        facts,
                        record_provenance,
                    },
                }
            }
            3 => Request::TeardownQuery { qid: r.u64()? },
            4 => {
                Request::InjectFacts { qid: r.u64()?, node: r.u32()?, facts: take_tuples(&mut r)? }
            }
            5 => Request::Subscribe { qid: r.u64()? },
            6 => Request::Stats,
            7 => Request::Advance { millis: r.u64()? },
            8 => Request::Shutdown,
            9 => Request::Explain { qid: r.u64()?, tuple: take_wire_tuple(&mut r)? },
            tag => return Err(ProtoError::BadTag { kind: "Request", tag }),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Append this response's tagged payload to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Connected { session, nodes, now_millis } => {
                put_u8(buf, 1);
                put_u64(buf, *session);
                put_u32(buf, *nodes);
                put_u64(buf, *now_millis);
            }
            Response::Issued { qid } => {
                put_u8(buf, 2);
                put_u64(buf, *qid);
            }
            Response::TornDown { qid } => {
                put_u8(buf, 3);
                put_u64(buf, *qid);
            }
            Response::Injected { qid, count } => {
                put_u8(buf, 4);
                put_u64(buf, *qid);
                put_u32(buf, *count);
            }
            Response::Subscribed { qid } => {
                put_u8(buf, 5);
                put_u64(buf, *qid);
            }
            Response::Delta { qid, now_millis, added, removed } => {
                put_u8(buf, 6);
                put_u64(buf, *qid);
                put_u64(buf, *now_millis);
                put_tuples(buf, added);
                put_tuples(buf, removed);
            }
            Response::Lagged { qid, missed } => {
                put_u8(buf, 7);
                put_u64(buf, *qid);
                put_u64(buf, *missed);
            }
            Response::Stats { lines } => {
                put_u8(buf, 8);
                put_strings(buf, lines);
            }
            Response::Advanced { now_millis } => {
                put_u8(buf, 9);
                put_u64(buf, *now_millis);
            }
            Response::Error { code, message } => {
                put_u8(buf, 10);
                put_u8(buf, *code as u8);
                put_str(buf, message);
            }
            Response::ShuttingDown => put_u8(buf, 11),
            Response::Explanation { qid, nodes } => {
                put_u8(buf, 12);
                put_u64(buf, *qid);
                put_derivations(buf, nodes);
            }
        }
    }

    /// Decode one response from a complete payload.
    pub fn decode(bytes: &[u8]) -> Result<Response, ProtoError> {
        let mut r = Reader::new(bytes);
        let resp = match r.u8()? {
            1 => Response::Connected { session: r.u64()?, nodes: r.u32()?, now_millis: r.u64()? },
            2 => Response::Issued { qid: r.u64()? },
            3 => Response::TornDown { qid: r.u64()? },
            4 => Response::Injected { qid: r.u64()?, count: r.u32()? },
            5 => Response::Subscribed { qid: r.u64()? },
            6 => Response::Delta {
                qid: r.u64()?,
                now_millis: r.u64()?,
                added: take_tuples(&mut r)?,
                removed: take_tuples(&mut r)?,
            },
            7 => Response::Lagged { qid: r.u64()?, missed: r.u64()? },
            8 => Response::Stats { lines: take_strings(&mut r)? },
            9 => Response::Advanced { now_millis: r.u64()? },
            10 => Response::Error { code: ErrorCode::from_tag(r.u8()?)?, message: r.string()? },
            11 => Response::ShuttingDown,
            12 => Response::Explanation { qid: r.u64()?, nodes: take_derivations(&mut r)? },
            tag => return Err(ProtoError::BadTag { kind: "Response", tag }),
        };
        r.finish()?;
        Ok(resp)
    }
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
    fn request_round_trips() {
        let reqs = vec![
            Request::Connect { client: "load-0".into() },
            Request::IssueQuery {
                program: "Query: path(@S,D,P,C).".into(),
                options: IssueOptions {
                    name: "bp".into(),
                    issuer: 3,
                    replicated: vec!["magicDsts".into()],
                    aggregate_selections: false,
                    share_results: true,
                    cache_relation: "latCache".into(),
                    facts: vec![WireTuple {
                        relation: "magicDsts".into(),
                        values: vec![WireValue::Node(7)],
                    }],
                    record_provenance: true,
                },
            },
            Request::TeardownQuery { qid: 42 },
            Request::InjectFacts {
                qid: 42,
                node: 5,
                facts: vec![WireTuple {
                    relation: "link".into(),
                    values: vec![
                        WireValue::Node(5),
                        WireValue::Node(6),
                        WireValue::Cost(f64::INFINITY),
                    ],
                }],
            },
            Request::Subscribe { qid: 42 },
            Request::Stats,
            Request::Advance { millis: 200 },
            Request::Shutdown,
            Request::Explain {
                qid: 42,
                tuple: WireTuple {
                    relation: "bestPath".into(),
                    values: vec![
                        WireValue::Node(0),
                        WireValue::Node(3),
                        WireValue::Path(vec![0, 1, 3]),
                        WireValue::Cost(2.0),
                    ],
                },
            },
        ];
        for req in reqs {
            let mut payload = Vec::new();
            req.encode(&mut payload);
            assert_eq!(Request::decode(&payload), Ok(req.clone()), "{req:?}");
        }
    }

    #[test]
    fn response_round_trips() {
        let resps = vec![
            Response::Connected { session: 1, nodes: 16, now_millis: 0 },
            Response::Issued { qid: 9 },
            Response::Delta {
                qid: 9,
                now_millis: 400,
                added: vec![WireTuple {
                    relation: "bestPath".into(),
                    values: vec![
                        WireValue::Node(0),
                        WireValue::Node(3),
                        WireValue::Path(vec![0, 1, 3]),
                        WireValue::Cost(2.0),
                    ],
                }],
                removed: vec![],
            },
            Response::Lagged { qid: 9, missed: 17 },
            Response::Stats { lines: vec!["{\"type\":\"service\"}".into()] },
            Response::Error { code: ErrorCode::QuotaExceeded, message: "quota".into() },
            Response::Error { code: ErrorCode::Overloaded, message: "not reading".into() },
            Response::ShuttingDown,
            Response::Explanation {
                qid: 9,
                nodes: vec![
                    WireDerivation {
                        kind: 1,
                        tuple: WireTuple { relation: "bestPath".into(), values: vec![] },
                        rule: "BPR2".into(),
                        node: 0,
                        prov_id: 0,
                        children: vec![1, 2],
                    },
                    WireDerivation {
                        kind: 0,
                        tuple: WireTuple { relation: "link".into(), values: vec![] },
                        rule: String::new(),
                        node: 0,
                        prov_id: 0,
                        children: vec![],
                    },
                    WireDerivation {
                        kind: 2,
                        tuple: WireTuple { relation: "path".into(), values: vec![] },
                        rule: String::new(),
                        node: 3,
                        prov_id: 17,
                        children: vec![],
                    },
                ],
            },
        ];
        for resp in resps {
            let mut payload = Vec::new();
            resp.encode(&mut payload);
            assert_eq!(Response::decode(&payload), Ok(resp.clone()), "{resp:?}");
            assert_eq!(frame_response(&resp), frame(&payload), "prefix patched in: {resp:?}");
        }
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

    #[test]
    fn oversized_frame_is_rejected_before_buffering() {
        let mut fb = FrameBuf::new();
        fb.extend(&(u32::MAX).to_le_bytes());
        assert!(matches!(fb.next_frame(), Err(ProtoError::FrameTooLarge { .. })));
    }

    #[test]
    fn truncation_and_garbage_are_typed_errors() {
        let mut payload = Vec::new();
        Request::Connect { client: "x".into() }.encode(&mut payload);
        for cut in 0..payload.len() {
            let err = Request::decode(&payload[..cut]);
            assert!(err.is_err(), "cut at {cut} must fail");
        }
        let mut trailing = payload.clone();
        trailing.push(0xFF);
        assert_eq!(Request::decode(&trailing), Err(ProtoError::TrailingBytes { extra: 1 }));
        assert!(matches!(
            Request::decode(&[0xEE]),
            Err(ProtoError::BadTag { kind: "Request", tag: 0xEE })
        ));
        // A corrupt element count larger than the remaining bytes must not
        // allocate or loop — it is Truncated.
        let mut bad = Vec::new();
        Request::InjectFacts { qid: 1, node: 0, facts: vec![] }.encode(&mut bad);
        let len = bad.len();
        bad[len - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Request::decode(&bad), Err(ProtoError::Truncated));
        // Invalid UTF-8 in a string field.
        let mut utf = vec![1u8]; // Connect tag
        utf.extend_from_slice(&2u32.to_le_bytes());
        utf.extend_from_slice(&[0xC0, 0x80]);
        assert_eq!(Request::decode(&utf), Err(ProtoError::BadUtf8));
    }
}
