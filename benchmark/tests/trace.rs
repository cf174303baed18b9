//! Span self-time arithmetic.

use dr_benchmark::trace::{layer_table, self_times, Span, Tracer};

fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
    Span { id, parent, req: 1, name, start_ns, end_ns }
}

#[test]
fn self_time_subtracts_nested_children_once() {
    // op [0,100] > run [10,70] > eval [20,50]; op also > results [80,95].
    let spans = [
        span(0, None, "op", 0, 100),
        span(1, Some(0), "run", 10, 70),
        span(2, Some(1), "eval", 20, 50),
        span(3, Some(0), "results", 80, 95),
    ];
    // A grandchild is its parent's business, not its grandparent's.
    assert_eq!(self_times(&spans), vec![100 - 60 - 15, 60 - 30, 30, 15]);
}

#[test]
fn overlapping_children_are_subtracted_as_a_union_and_clipped() {
    // Children [10,40] and [30,60] overlap by 10; [90,130] sticks out of the
    // parent by 30.
    let spans = [
        span(0, None, "op", 0, 100),
        span(1, Some(0), "a", 10, 40),
        span(2, Some(0), "b", 30, 60),
        span(3, Some(0), "c", 90, 130),
    ];
    assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
}

#[test]
fn layer_table_groups_by_name() {
    let spans = [
        span(0, None, "op", 0, 100),
        span(1, Some(0), "call", 10, 20),
        span(2, Some(0), "call", 30, 60),
    ];
    let rows = layer_table(&spans);
    let call = rows.iter().find(|r| r.name == "call").expect("a row per name");
    assert_eq!((call.count, call.total_ns, call.self_ns), (2, 40, 40));
    assert_eq!(call.p50_ns, 20.0);
    let op = rows.iter().find(|r| r.name == "op").expect("a row per name");
    assert_eq!(op.self_ns, 60);
}

#[test]
fn tracer_nests_by_call_order_and_shares_req_within_an_operation() {
    let mut tracer = Tracer::new(true);
    tracer.next_req();
    let op = tracer.begin("op");
    let inner = tracer.begin("inner");
    tracer.end(inner);
    tracer.end(op);
    tracer.next_req();
    let next = tracer.begin("op");
    tracer.end(next);
    let spans = tracer.spans();
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!((spans[0].req, spans[1].req, spans[2].req), (1, 1, 2));
    assert_eq!(spans[2].parent, None);
    assert!(spans[0].end_ns >= spans[1].end_ns);
    assert_eq!(tracer.to_jsonl().lines().count(), 3);

    let mut off = Tracer::new(false);
    let token = off.begin("op");
    off.end(token);
    assert!(off.spans().is_empty(), "a disabled tracer records nothing");
}
