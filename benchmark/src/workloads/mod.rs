//! The six workloads. Each runs instances (set-up + timed body) until its
//! [`crate::bench::Budget`] is spent and hands back a
//! [`crate::bench::WorkloadResult`].

pub mod fanout;
pub mod lifecycle;
pub mod sim;
mod svc;

use declarative_routing::datalog::parse_program;
use declarative_routing::engine::localize::localize;
use declarative_routing::service::BEST_PATH_PROGRAM;

use crate::bench::{Ctx, WorkloadResult};
use crate::span;
use crate::trace::Tracer;

/// Parse and localize the Best-Path text a few times: what the front end
/// costs each time a query is issued (traced run only).
fn frontend_probe(tracer: &mut Tracer) {
    for _ in 0..16 {
        let program =
            span!(tracer, "datalog.parser.parse_program", parse_program(BEST_PATH_PROGRAM))
                .expect("the Best-Path text parses");
        span!(tracer, "core.localize", localize(&program, &[]))
            .expect("the Best-Path program localizes");
    }
}

/// Run workload `name`; `None` when there is no such workload.
pub fn run(name: &str, ctx: &mut Ctx) -> Option<WorkloadResult> {
    let mut result = match name {
        "converge_static" => sim::run(sim::SimKind::Static, ctx),
        "converge_explained" => sim::run(sim::SimKind::Explained, ctx),
        "churn_recover" => sim::run(sim::SimKind::Churn, ctx),
        "lossy_recover" => sim::run(sim::SimKind::Lossy, ctx),
        "svc_lifecycle" => lifecycle::run(ctx),
        "svc_fanout" => fanout::run(ctx),
        _ => return None,
    };
    result.finish();
    Some(result)
}
