//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps every call it makes into the engine's public
//! surface in a span; nothing inside the engine is instrumented. Spans
//! nest by call order (`begin`/`end` form a stack), all spans of one
//! operation share a `req` id, and nothing is written until the workload
//! has ended. A disabled tracer records nothing, so the untraced run pays
//! one branch per call site.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the recording.
    pub id: u32,
    /// The span that was open when this one began.
    pub parent: Option<u32>,
    /// Operation id shared by every span of one request / tick / repetition.
    pub req: u64,
    /// Layer-qualified name, e.g. `core.harness.run_until`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Token returned by [`Tracer::begin`]; hand it back to [`Tracer::end`].
#[must_use]
#[derive(Debug, Clone, Copy)]
pub struct SpanToken(Option<u32>);

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    req: u64,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), req: 0 }
    }

    /// True when spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a new operation: spans begun from now on carry a fresh `req`.
    pub fn next_req(&mut self) {
        self.req += 1;
    }

    /// Open a span named `name` under the currently open span.
    pub fn begin(&mut self, name: &'static str) -> SpanToken {
        if !self.enabled {
            return SpanToken(None);
        }
        let id = self.spans.len() as u32;
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            req: self.req,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(id);
        SpanToken(Some(id))
    }

    /// Close the span `token` refers to (and any child left open).
    pub fn end(&mut self, token: SpanToken) {
        let Some(id) = token.0 else { return };
        let now = self.origin.elapsed().as_nanos() as u64;
        while let Some(open) = self.stack.pop() {
            self.spans[open as usize].end_ns = now;
            if open == id {
                break;
            }
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, parent, s.req, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Run `$body` inside a span named `$name` on tracer `$tr`.
#[macro_export]
macro_rules! span {
    ($tr:expr, $name:expr, $body:expr) => {{
        let token = $tr.begin($name);
        let out = $body;
        $tr.end(token);
        out
    }};
}

/// Per-name aggregate of a recording.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded under this name.
    pub count: usize,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of self times, ns (see [`self_times`]).
    pub self_ns: u64,
    /// Median span duration, ns.
    pub p50_ns: f64,
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children. Children may overlap one another (the
/// union of their intervals is subtracted, not the sum) and are clipped to
/// the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let duration = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&s.id) else { return duration };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            duration.saturating_sub(covered)
        })
        .collect()
}

/// The per-layer table: one row per span name, sorted by name.
pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let duration = s.end_ns.saturating_sub(s.start_ns);
        let row = by_name.entry(s.name).or_default();
        row.0.push(duration as f64);
        row.1 += duration;
        row.2 += self_ns;
    }
    by_name
        .into_iter()
        .map(|(name, (durations, total_ns, self_ns))| LayerRow {
            name,
            count: durations.len(),
            total_ns,
            self_ns,
            p50_ns: stats::median(&durations).unwrap_or(0.0),
        })
        .collect()
}
