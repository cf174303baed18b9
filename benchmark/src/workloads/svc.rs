//! What the two service workloads share: the seeded operation mix, the
//! link-flip fact, reading the `Stats` lines, and the codec counters.

use declarative_routing::netsim::SimDuration;
use declarative_routing::service::protocol::{WireTuple, WireValue};
use declarative_routing::service::{
    default_topology, IssueOptions, Request, Response, RoutingService, ServiceConfig,
    BEST_PATH_PROGRAM,
};

use crate::bench::LayerMap;
use crate::json::Json;
use crate::span;
use crate::trace::Tracer;

/// A tiny deterministic generator for the operation mix (issuer, flipped
/// link): xorshift64*, seeded per instance.
pub struct Mix(u64);

impl Mix {
    pub fn new(seed: u64) -> Mix {
        Mix(seed | 1)
    }

    pub fn below(&mut self, n: u32) -> u32 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        ((self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) % u64::from(n.max(1))) as u32
    }
}

/// `link(@from, to, cost)` as a wire fact.
pub fn link_fact(from: u32, to: u32, cost: f64) -> WireTuple {
    WireTuple {
        relation: "link".to_string(),
        values: vec![WireValue::Node(from), WireValue::Node(to), WireValue::Cost(cost)],
    }
}

/// Numeric `field` of the first stats line whose `type` is `kind`.
pub fn stat_field(lines: &[String], kind: &str, field: &str) -> Option<f64> {
    lines
        .iter()
        .filter_map(|line| Json::parse(line).ok())
        .find(|obj| obj.get("type").and_then(Json::as_str) == Some(kind))
        .and_then(|obj| obj.get(field).and_then(Json::as_f64))
}

/// Everything the footprint line counts, summed: zero once every query is
/// torn down and the floods have settled.
pub fn footprint_residue(lines: &[String]) -> Option<f64> {
    let fields = [
        "instances",
        "stored_tuples",
        "pending_tuples",
        "prune_entries",
        "shared_relations",
        "shared_tuples",
        "prov_records",
    ];
    fields.iter().map(|f| stat_field(lines, "footprint", f)).sum()
}

/// Encode/decode cost of delta frames, measured on frames the benchmark
/// obtained from a direct service (the TCP path's frames are decoded inside
/// `Client`, out of the benchmark's sight).
#[derive(Default)]
pub struct Codec {
    frames: u64,
    bytes: u64,
    tuples: u64,
}

impl Codec {
    /// Encode then decode `frame`, spanned; returns the encoded bytes.
    pub fn roundtrip(
        &mut self,
        frame: &Response,
        buf: &mut Vec<u8>,
        tracer: &mut Tracer,
    ) -> Option<Response> {
        buf.clear();
        span!(tracer, "service.protocol.encode", frame.encode(buf));
        let decoded = span!(tracer, "service.protocol.decode", Response::decode(buf)).ok();
        if let Response::Delta { added, removed, .. } = frame {
            self.frames += 1;
            self.bytes += buf.len() as u64;
            self.tuples += (added.len() + removed.len()) as u64;
        }
        decoded
    }

    /// Feed the counters from one converging query on a direct service.
    pub fn probe(&mut self, nodes: usize, tracer: &mut Tracer) {
        let mut svc = RoutingService::new(default_topology(nodes), ServiceConfig::default());
        let (sid, _) = svc.connect("codec");
        let issue = Request::IssueQuery {
            program: BEST_PATH_PROGRAM.to_string(),
            options: IssueOptions::default(),
        };
        let Response::Issued { qid } = svc.apply(sid, issue) else { return };
        svc.apply(sid, Request::Subscribe { qid });
        let mut buf = Vec::new();
        for _ in 0..25 {
            svc.advance(SimDuration::from_millis(200));
            for frame in svc.drain_outbox(sid, usize::MAX) {
                self.roundtrip(&frame, &mut buf, tracer);
            }
        }
    }

    /// Fill the `service.protocol.*` counters: frames and bytes per
    /// instance, bytes and tuples per frame.
    pub fn report(&self, instances: usize, out: &mut LayerMap) {
        let per_frame =
            |total: u64| if self.frames > 0 { total as f64 / self.frames as f64 } else { 0.0 };
        out.insert("service.protocol.frames", self.frames as f64 / instances.max(1) as f64);
        out.insert("service.protocol.bytes_out", self.bytes as f64 / instances.max(1) as f64);
        out.insert("service.protocol.delta_bytes", per_frame(self.bytes));
        out.insert("service.protocol.delta_tuples", per_frame(self.tuples));
    }
}
