use super::reference::{eval_expr, Bindings};
use super::*;
use crate::ast::{AggFunc, Expr, Head, HeadTerm, Term};
use crate::builtins::Builtins;
use crate::database::{CardStats, Database};
use crate::parser::parse_program;
use dr_types::{Cost, NodeId, PathVector, RelId, Tuple, Value};

fn node(i: u32) -> Value {
    Value::Node(NodeId::new(i))
}

fn link(s: u32, d: u32, c: f64) -> Tuple {
    Tuple::new("link", vec![node(s), node(d), Value::from(c)])
}

/// The 5-node example network of the paper's Figure 3:
/// a->b, a->c, b->d, c->d, d->e (undirected in the figure; we insert
/// both directions where needed by the test).
fn figure3_links(db: &mut Database) {
    for (s, d) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)] {
        db.insert(link(s, d, 1.0));
    }
}

const NETWORK_REACHABILITY: &str = r#"
    NR1: path(@S,D,P,C) :- link(@S,D,C), P = f_initPath(S,D).
    NR2: path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2),
         C = C1 + C2, P = f_prepend(S,P2), f_inPath(P2,S) = false.
    Query: path(@S,D,P,C).
"#;

const BEST_PATH: &str = r#"
    NR1: path(@S,D,P,C) :- link(@S,D,C), P = f_initPath(S,D).
    NR2: path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2),
         C = C1 + C2, P = f_prepend(S,P2), f_inPath(P2,S) = false.
    BPR1: bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).
    BPR2: bestPath(@S,D,P,C) :- bestPathCost(@S,D,C), path(@S,D,P,C).
    Query: bestPath(@S,D,P,C).
"#;

#[test]
fn bindings_bind_and_conflict() {
    let mut b = Bindings::new();
    assert!(b.is_empty());
    assert!(b.bind("X", Value::Int(1)));
    assert!(b.bind("X", Value::Int(1)));
    assert!(!b.bind("X", Value::Int(2)));
    assert!(b.is_bound("X"));
    assert!(!b.is_bound("Y"));
    assert_eq!(b.len(), 1);
    assert_eq!(b.get("X"), Some(&Value::Int(1)));
}

#[test]
fn expr_evaluation() {
    let builtins = Builtins::standard();
    let mut b = Bindings::new();
    b.bind("C1", Value::from(2.0));
    b.bind("C2", Value::from(3.0));
    let e = Expr::BinOp {
        op: crate::ast::ArithOp::Add,
        lhs: Box::new(Expr::var("C1")),
        rhs: Box::new(Expr::var("C2")),
    };
    assert_eq!(eval_expr(&e, &b, &builtins).unwrap(), Value::from(5.0));
    assert!(eval_expr(&Expr::var("missing"), &b, &builtins).is_err());
    let call = Expr::call("f_sum", vec![Expr::var("C1"), Expr::constant(1.0)]);
    assert_eq!(eval_expr(&call, &b, &builtins).unwrap(), Value::from(3.0));
}

#[test]
fn network_reachability_computes_transitive_closure() {
    let program = parse_program(NETWORK_REACHABILITY).unwrap();
    let eval = Evaluator::new(program).unwrap();
    let mut db = Database::new();
    figure3_links(&mut db);
    let stats = eval.run(&mut db).unwrap();
    assert!(stats.tuples_derived > 0);
    assert!(stats.iterations >= 2);

    let paths = db.tuples("path");
    // a (0) reaches e (4) via b-d and c-d: both 3-hop paths must exist.
    let a_to_e: Vec<&Tuple> = paths
        .iter()
        .filter(|t| t.node_at(0) == Some(NodeId::new(0)) && t.node_at(1) == Some(NodeId::new(4)))
        .collect();
    assert_eq!(a_to_e.len(), 2, "expected two distinct a->e paths, got {a_to_e:?}");
    for t in &a_to_e {
        assert_eq!(t.field(3).and_then(Value::as_cost), Some(Cost::new(3.0)));
    }
    // no cyclic paths anywhere
    for t in &paths {
        let p = t.field(2).and_then(Value::as_path).unwrap();
        assert!(!p.has_cycle(), "cyclic path derived: {t}");
    }
}

#[test]
fn paper_figure3_tuple_is_derived() {
    // p(a,d,[a,c,d],2) from the worked example in §3.4.
    let program = parse_program(NETWORK_REACHABILITY).unwrap();
    let eval = Evaluator::new(program).unwrap();
    let mut db = Database::new();
    figure3_links(&mut db);
    eval.run(&mut db).unwrap();
    let expected = Tuple::new(
        "path",
        vec![
            node(0),
            node(3),
            Value::Path(PathVector::from_nodes(vec![
                NodeId::new(0),
                NodeId::new(2),
                NodeId::new(3),
            ])),
            Value::from(2.0),
        ],
    );
    assert!(db.contains(&expected));
}

#[test]
fn best_path_selects_minimum_cost() {
    let program = parse_program(BEST_PATH).unwrap();
    let eval = Evaluator::new(program).unwrap();
    let mut db = Database::new();
    // Two routes 0->2: direct cost 10, via 1 cost 2+3=5.
    db.insert(link(0, 2, 10.0));
    db.insert(link(0, 1, 2.0));
    db.insert(link(1, 2, 3.0));
    eval.run(&mut db).unwrap();

    let best: Vec<Tuple> = db
        .tuples("bestPath")
        .into_iter()
        .filter(|t| t.node_at(0) == Some(NodeId::new(0)) && t.node_at(1) == Some(NodeId::new(2)))
        .collect();
    assert_eq!(best.len(), 1);
    assert_eq!(best[0].field(3).and_then(Value::as_cost), Some(Cost::new(5.0)));
    let p = best[0].field(2).and_then(Value::as_path).unwrap();
    assert_eq!(p.nodes(), &[NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
}

#[test]
fn aggregate_selections_prune_but_preserve_best_paths() {
    let program = parse_program(BEST_PATH).unwrap();
    let cfg = EvalConfig { aggregate_selections: true, ..EvalConfig::default() };
    let eval_opt = Evaluator::with_config(parse_program(BEST_PATH).unwrap(), cfg).unwrap();
    let eval_base = Evaluator::new(program).unwrap();

    let mut db_base = Database::new();
    let mut db_opt = Database::new();
    for db in [&mut db_base, &mut db_opt] {
        figure3_links(db);
        // extra expensive parallel edges to give the optimizer something to prune
        db.insert(link(0, 3, 10.0));
        db.insert(link(1, 4, 20.0));
    }
    let s_base = eval_base.run(&mut db_base).unwrap();
    let s_opt = eval_opt.run(&mut db_opt).unwrap();

    assert!(s_opt.tuples_pruned > 0, "optimizer never pruned anything");
    assert!(s_opt.tuples_derived <= s_base.tuples_derived);

    // Best-path answers agree.
    let mut base_best = db_base.sorted_tuples("bestPathCost");
    let mut opt_best = db_opt.sorted_tuples("bestPathCost");
    base_best.sort();
    opt_best.sort();
    assert_eq!(base_best, opt_best);
}

#[test]
fn naive_and_semi_naive_agree() {
    let naive_cfg = EvalConfig { semi_naive: false, ..EvalConfig::default() };
    let e_naive =
        Evaluator::with_config(parse_program(NETWORK_REACHABILITY).unwrap(), naive_cfg).unwrap();
    let e_semi = Evaluator::new(parse_program(NETWORK_REACHABILITY).unwrap()).unwrap();

    let mut db1 = Database::new();
    let mut db2 = Database::new();
    figure3_links(&mut db1);
    figure3_links(&mut db2);
    let s1 = e_naive.run(&mut db1).unwrap();
    let s2 = e_semi.run(&mut db2).unwrap();
    assert_eq!(db1.sorted_tuples("path"), db2.sorted_tuples("path"));
    // naive mode performs at least as many rule firings
    assert!(s1.rule_firings >= s2.rule_firings);
}

#[test]
fn non_terminating_query_is_caught() {
    // Reachability *without* the cycle check on a cyclic graph would
    // grow paths forever; the iteration cap turns that into an error.
    let src = r#"
        NR1: path(@S,D,P,C) :- link(@S,D,C), P = f_initPath(S,D).
        NR2: path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2),
             C = C1 + C2, P = f_prepend(S,P2).
    "#;
    let cfg = EvalConfig { max_iterations: 20, ..EvalConfig::default() };
    let eval = Evaluator::with_config(parse_program(src).unwrap(), cfg).unwrap();
    let mut db = Database::new();
    db.insert(link(0, 1, 1.0));
    db.insert(link(1, 0, 1.0));
    assert!(eval.run(&mut db).is_err());
}

#[test]
fn facts_are_inserted() {
    let src = r#"
        magicSources(#1).
        magicSources(#2).
        out(@S) :- magicSources(@S).
    "#;
    let eval = Evaluator::new(parse_program(src).unwrap()).unwrap();
    let mut db = Database::new();
    eval.run(&mut db).unwrap();
    assert_eq!(db.count("magicSources"), 2);
    assert_eq!(db.count("out"), 2);
}

#[test]
fn negation_filters_matches() {
    let src = r#"
        r1: candidate(@S,D) :- link(@S,D,C).
        r2: allowed(@S,D) :- candidate(@S,D), !excludeNode(@S,D).
    "#;
    let eval = Evaluator::new(parse_program(src).unwrap()).unwrap();
    let mut db = Database::new();
    db.insert(link(0, 1, 1.0));
    db.insert(link(0, 2, 1.0));
    db.insert(Tuple::new("excludeNode", vec![node(0), node(2)]));
    eval.run(&mut db).unwrap();
    let allowed = db.sorted_tuples("allowed");
    assert_eq!(allowed.len(), 1);
    assert_eq!(allowed[0].node_at(1), Some(NodeId::new(1)));
}

#[test]
fn negation_with_wildcard_fields() {
    // !cache(S, D, P, C) where P and C are not bound elsewhere: the
    // negation fails if *any* cache entry exists for (S, D).
    let src = r#"
        r1: need(@S,D) :- request(@S,D), !cache(@S,D,P,C).
    "#;
    let eval = Evaluator::new(parse_program(src).unwrap()).unwrap();
    let mut db = Database::new();
    db.insert(Tuple::new("request", vec![node(1), node(2)]));
    db.insert(Tuple::new("request", vec![node(1), node(3)]));
    db.insert(Tuple::new(
        "cache",
        vec![node(1), node(2), Value::Path(PathVector::nil()), Value::from(1.0)],
    ));
    eval.run(&mut db).unwrap();
    let need = db.sorted_tuples("need");
    assert_eq!(need.len(), 1);
    assert_eq!(need[0].node_at(1), Some(NodeId::new(3)));
}

#[test]
fn comparison_constraints_filter() {
    let src = r#"
        r1: cheap(@S,D,C) :- link(@S,D,C), C < 5.
        r2: notself(@S,D) :- link(@S,D,C), S != D.
    "#;
    let eval = Evaluator::new(parse_program(src).unwrap()).unwrap();
    let mut db = Database::new();
    db.insert(link(0, 1, 2.0));
    db.insert(link(0, 2, 9.0));
    db.insert(link(3, 3, 1.0));
    eval.run(&mut db).unwrap();
    assert_eq!(db.count("cheap"), 2); // (0,1) and (3,3)
    assert_eq!(db.count("notself"), 2); // (0,1) and (0,2)
}

#[test]
fn unsafe_rule_reports_error() {
    // Head variable X never bound.
    let src = "r1: out(@X,Y) :- q(@X), Y = Z + 1.";
    let eval = Evaluator::new(parse_program(src).unwrap()).unwrap();
    let mut db = Database::new();
    db.insert(Tuple::new("q", vec![node(0)]));
    assert!(eval.run(&mut db).is_err());
}

#[test]
fn apply_aggregate_groups_correctly() {
    let head = Head {
        relation: "shortest".into(),
        terms: vec![
            HeadTerm::Plain(Term::var("S")),
            HeadTerm::Plain(Term::var("D")),
            HeadTerm::Agg(AggFunc::Min, "C".into()),
        ],
        location: Some(0),
    };
    let raw = vec![
        Tuple::new("shortest", vec![node(0), node(1), Value::from(5.0)]),
        Tuple::new("shortest", vec![node(0), node(1), Value::from(3.0)]),
        Tuple::new("shortest", vec![node(0), node(2), Value::from(7.0)]),
    ];
    let mut out = apply_aggregate(&head, RelId::intern(&head.relation), &raw).unwrap();
    out.sort();
    assert_eq!(out.len(), 2);
    assert_eq!(out[0].field(2).and_then(Value::as_cost), Some(Cost::new(3.0)));
    assert_eq!(out[1].field(2).and_then(Value::as_cost), Some(Cost::new(7.0)));

    // count and sum
    let head_count = Head {
        relation: "deg".into(),
        terms: vec![HeadTerm::Plain(Term::var("S")), HeadTerm::Agg(AggFunc::Count, "D".into())],
        location: Some(0),
    };
    let raw =
        vec![Tuple::new("deg", vec![node(0), node(1)]), Tuple::new("deg", vec![node(0), node(2)])];
    let out = apply_aggregate(&head_count, RelId::intern(&head_count.relation), &raw).unwrap();
    assert_eq!(out[0].field(1), Some(&Value::Int(2)));

    let head_sum = Head {
        relation: "total".into(),
        terms: vec![HeadTerm::Plain(Term::var("S")), HeadTerm::Agg(AggFunc::Sum, "C".into())],
        location: Some(0),
    };
    let raw = vec![
        Tuple::new("total", vec![node(0), Value::from(1.5)]),
        Tuple::new("total", vec![node(0), Value::from(2.5)]),
    ];
    let out = apply_aggregate(&head_sum, RelId::intern(&head_sum.relation), &raw).unwrap();
    assert_eq!(out[0].field(1).and_then(Value::as_cost), Some(Cost::new(4.0)));
}

#[test]
fn evaluate_rule_with_delta_limits_matches() {
    let program = parse_program(NETWORK_REACHABILITY).unwrap();
    let builtins = Builtins::standard();
    let mut db = Database::new();
    figure3_links(&mut db);
    // Seed with one-hop paths.
    let nr1 = program.rule("NR1").unwrap();
    let one_hop = evaluate_rule(nr1, &builtins, &db, None).unwrap();
    assert_eq!(one_hop.len(), 5);
    for t in &one_hop {
        db.insert(t.clone());
    }
    // Delta = only the path starting at node 3 (d->e).
    let delta: Vec<Tuple> =
        one_hop.iter().filter(|t| t.node_at(0) == Some(NodeId::new(3))).cloned().collect();
    let nr2 = program.rule("NR2").unwrap();
    // positive atom occurrence 1 is `path(@Z,D,P2,C2)`
    let derived = evaluate_rule(nr2, &builtins, &db, Some((1, &delta))).unwrap();
    // Only extensions of d->e are derived: b->d->e and c->d->e.
    assert_eq!(derived.len(), 2);
    for t in &derived {
        assert_eq!(t.node_at(1), Some(NodeId::new(4)));
    }
}

#[test]
fn traced_evaluation_records_firings_without_changing_results() {
    let program = parse_program(NETWORK_REACHABILITY).unwrap();
    let builtins = Builtins::standard();
    let mut db = Database::new();
    figure3_links(&mut db);
    let nr1 = RuleEval::new(program.rule("NR1").unwrap());
    let one_hop = nr1.evaluate(&builtins, &db, None).unwrap();
    for t in &one_hop {
        db.insert(t.clone());
    }

    let nr2 = RuleEval::new(program.rule("NR2").unwrap());
    let plain = nr2.evaluate(&builtins, &db, None).unwrap();
    let mut log = FiringLog::new();
    let traced = nr2.evaluate_traced(&builtins, &db, None, &mut log).unwrap();
    assert_eq!(plain, traced, "tracing must not perturb evaluation");
    assert_eq!(log.firings.len(), traced.len(), "one firing per emitted head");

    for (firing, head) in log.firings.iter().zip(&traced) {
        assert_eq!(&firing.head, head);
        // NR2 joins exactly one link and one path tuple.
        assert_eq!(firing.body.len(), 2, "NR2 has two positive atoms: {firing:?}");
        let rels: Vec<&str> = firing.body.iter().map(|t| t.relation()).collect();
        assert!(rels.contains(&"link") && rels.contains(&"path"), "{rels:?}");
        // The firing is re-derivable: evaluating the rule against only the
        // body tuples re-produces the head.
        let mut tiny = Database::new();
        for t in &firing.body {
            tiny.insert(t.clone());
        }
        let again = nr2.evaluate(&builtins, &tiny, None).unwrap();
        assert!(again.contains(head), "body {:?} must re-derive {head}", firing.body);
    }

    // Delta-restricted tracing records only delta-driven firings.
    let delta: Vec<Tuple> =
        one_hop.iter().filter(|t| t.node_at(0) == Some(NodeId::new(3))).cloned().collect();
    let mut log = FiringLog::new();
    let narrowed = nr2.evaluate_traced(&builtins, &db, Some((1, &delta)), &mut log).unwrap();
    assert_eq!(narrowed.len(), 2);
    assert_eq!(log.firings.len(), 2);
    for firing in &log.firings {
        assert!(
            firing.body.iter().any(|t| delta.contains(t)),
            "every delta firing joins a delta tuple: {firing:?}"
        );
    }
}

#[test]
fn distance_vector_rules_produce_next_hops() {
    let src = r#"
        #key(nextHop, 0, 1).
        DV1: path(@S,D,D,C) :- link(@S,D,C).
        DV2: path(@S,D,Z,C) :- link(@S,Z,C1), path(@Z,D,W,C2), C = C1 + C2, W != S, C < 100.
        DV3: shortestCost(@S,D,min<C>) :- path(@S,D,Z,C).
        DV4: nextHop(@S,D,Z,C) :- path(@S,D,Z,C), shortestCost(@S,D,C).
        Query: nextHop(@S,D,Z,C).
    "#;
    let eval = Evaluator::new(parse_program(src).unwrap()).unwrap();
    let mut db = Database::new();
    // triangle with a shortcut: 0-1 cost 1, 1-2 cost 1, 0-2 cost 5
    for (s, d, c) in [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0), (0, 2, 5.0), (2, 0, 5.0)]
    {
        db.insert(link(s, d, c));
    }
    eval.run(&mut db).unwrap();
    let hops: Vec<Tuple> = db
        .tuples("nextHop")
        .into_iter()
        .filter(|t| t.node_at(0) == Some(NodeId::new(0)) && t.node_at(1) == Some(NodeId::new(2)))
        .collect();
    assert_eq!(hops.len(), 1, "nextHop should be keyed on (S,D): {hops:?}");
    // best next hop from 0 to 2 is via 1 at cost 2
    assert_eq!(hops[0].node_at(2), Some(NodeId::new(1)));
    assert_eq!(hops[0].field(3).and_then(Value::as_cost), Some(Cost::new(2.0)));
}

// --- compiled-plan tests -----------------------------------------------

#[test]
fn join_plan_exposes_order_probes_and_frame() {
    let program = parse_program(NETWORK_REACHABILITY).unwrap();
    let nr2 = program.rule("NR2").unwrap();
    let compiled = RuleEval::new(nr2);
    let plan = compiled.plan();
    assert_eq!(plan.atom_order(), &[0, 1]);
    assert_eq!(plan.probes(), &[None, Some(0)]);
    assert!(!plan.used_stats());
    assert_eq!(plan.to_string(), "link ⋈ path[0]");
    // Frame layout: body variables in first-occurrence order.
    assert_eq!(plan.slot_names(), &["S", "Z", "C1", "D", "P2", "C2", "C", "P"]);
    assert_eq!(plan.slot_count(), 8);
}

#[test]
fn planner_pins_link_state_orderings() {
    // The flooding and local-route rules from dr-protocols' link-state
    // program (inlined: dr-protocols depends on this crate).
    let src = r#"
        LS2: floodLink(@M,S,D,C,N) :- link(@N,M,C1), floodLink(@N,S,D,C,W), M != W.
        LSP2: lsPath(@M,D,P,C) :- lsPath(@M,Z,P1,C1), floodLink(@M,Z,D,C2,W2),
              C = C1 + C2, P = f_append(P1,D), f_inPath(P1,D) = false.
    "#;
    let program = parse_program(src).unwrap();

    // LS2: `link` has fewer unbound variables, so it leads; the recursive
    // `floodLink` is then probed on field 0 with the shared N binding.
    let ls2 = RuleEval::new(program.rule("LS2").unwrap());
    assert_eq!(ls2.plan().atom_order(), &[0, 1]);
    assert_eq!(ls2.plan().probes(), &[None, Some(0)]);
    assert_eq!(ls2.plan().to_string(), "link ⋈ floodLink[0]");

    // LSP2 statically keeps body order for the same reason.
    let lsp2 = RuleEval::new(program.rule("LSP2").unwrap());
    assert_eq!(lsp2.plan().atom_order(), &[0, 1]);
    assert_eq!(lsp2.plan().probes(), &[None, Some(0)]);
}

#[test]
fn planner_reorders_with_stats() {
    // With cardinalities the planner flips LSP2: scanning the small
    // floodLink table and probing the large lsPath table beats the static
    // body order.
    let src = r#"
        LSP2: lsPath(@M,D,P,C) :- lsPath(@M,Z,P1,C1), floodLink(@M,Z,D,C2,W2),
              C = C1 + C2, P = f_append(P1,D), f_inPath(P1,D) = false.
    "#;
    let program = parse_program(src).unwrap();
    let mut stats = CardStats::new();
    stats.set_rows("lsPath", 10_000);
    stats.set_rows("floodLink", 50);
    let plan = RuleEval::with_stats(program.rule("LSP2").unwrap(), &stats);
    assert!(plan.plan().used_stats());
    assert_eq!(plan.plan().atom_order(), &[1, 0]);
    assert_eq!(plan.plan().to_string(), "floodLink ⋈ lsPath[0]");
    // The flipped plan still computes the same tuples.
    let static_plan = RuleEval::new(program.rule("LSP2").unwrap());
    let mut db = Database::new();
    for (m, z, c) in [(0u32, 1u32, 1.0), (1, 2, 1.0)] {
        db.insert(Tuple::new(
            "floodLink",
            vec![node(m), node(z), node(z), Value::from(c), node(m)],
        ));
        db.insert(Tuple::new(
            "lsPath",
            vec![
                node(m),
                node(z),
                Value::Path(PathVector::from_nodes(vec![NodeId::new(m), NodeId::new(z)])),
                Value::from(c),
            ],
        ));
    }
    let builtins = Builtins::standard();
    let mut a = plan.evaluate(&builtins, &db, None).unwrap();
    let mut b = static_plan.evaluate(&builtins, &db, None).unwrap();
    a.sort();
    b.sort();
    assert_eq!(a, b);
}

#[test]
fn planner_uses_key_probes_for_upsert_keyed_relations() {
    // DV4 of the distance-vector protocol: `shortestCost` is keyed on
    // (0,1) = (S,D), both bound once `path` is scanned — the planner must
    // serve it from the upsert map (at most one hit) instead of scanning
    // it first and probing the huge `path` table.
    let src = "DV4: nextHop(@S,D,Z,C) :- path(@S,D,Z,C), shortestCost(@S,D,C), S != D.";
    let program = parse_program(src).unwrap();
    let mut stats = CardStats::new();
    stats.set_key("shortestCost", vec![0, 1]);
    let plan = RuleEval::with_stats(program.rule("DV4").unwrap(), &stats);
    assert_eq!(plan.plan().atom_order(), &[0, 1]);
    assert_eq!(plan.plan().key_probes(), &[None, Some(vec![0, 1])]);
    assert_eq!(plan.plan().to_string(), "path ⋈ shortestCost[0,1]");

    // A key-probed plan computes the same tuples as the static plan, both
    // in full and when driven by a delta on the keyed atom.
    let static_plan = RuleEval::new(program.rule("DV4").unwrap());
    let mut db = Database::new();
    db.declare_key("shortestCost", vec![0, 1]);
    for (s, d, z, c) in [(0u32, 2u32, 1u32, 2.0), (0, 2, 3, 4.0), (1, 2, 2, 1.0), (2, 2, 2, 0.0)] {
        db.insert(Tuple::new("path", vec![node(s), node(d), node(z), Value::from(c)]));
    }
    let costs: Vec<Tuple> = [(0u32, 2u32, 2.0), (1, 2, 1.0), (2, 2, 0.0)]
        .iter()
        .map(|&(s, d, c)| Tuple::new("shortestCost", vec![node(s), node(d), Value::from(c)]))
        .collect();
    for t in &costs {
        db.insert(t.clone());
    }
    let builtins = Builtins::standard();
    let mut a = plan.evaluate(&builtins, &db, None).unwrap();
    let mut b = static_plan.evaluate(&builtins, &db, None).unwrap();
    a.sort();
    b.sort();
    assert_eq!(a, b);
    assert!(!a.is_empty());
    let mut da = plan.evaluate(&builtins, &db, Some((1, &costs))).unwrap();
    let mut db_ = static_plan.evaluate(&builtins, &db, Some((1, &costs))).unwrap();
    da.sort();
    db_.sort();
    assert_eq!(da, db_);
    assert_eq!(da, a);
}

#[test]
fn planner_joins_constant_probes_first() {
    // `start` can be probed on its constant first field before anything is
    // bound, so the planner hoists it ahead of the scan of `hop`.
    let src = "r: out(@D) :- hop(@Z,D), start(#5,Z).";
    let program = parse_program(src).unwrap();
    let plan = RuleEval::new(&program.rules[0]);
    assert_eq!(plan.plan().atom_order(), &[1, 0]);
    assert_eq!(plan.plan().probes(), &[Some(0), Some(0)]);
    assert_eq!(plan.plan().to_string(), "start[0] ⋈ hop[0]");

    let mut db = Database::new();
    db.insert(Tuple::new("start", vec![node(5), node(1)]));
    db.insert(Tuple::new("start", vec![node(6), node(2)]));
    db.insert(Tuple::new("hop", vec![node(1), node(7)]));
    db.insert(Tuple::new("hop", vec![node(2), node(8)]));
    let builtins = Builtins::standard();
    let out = plan.evaluate(&builtins, &db, None).unwrap();
    assert_eq!(out, vec![Tuple::new("out", vec![node(7)])]);
}

#[test]
fn compiled_and_reference_paths_agree() {
    let program = parse_program(NETWORK_REACHABILITY).unwrap();
    let builtins = Builtins::standard();
    let mut db = Database::new();
    figure3_links(&mut db);
    let nr1 = program.rule("NR1").unwrap();
    let one_hop = evaluate_rule(nr1, &builtins, &db, None).unwrap();
    for t in &one_hop {
        db.insert(t.clone());
    }
    let nr2 = program.rule("NR2").unwrap();
    // Full evaluation and every delta occurrence must agree with the
    // name-keyed reference implementation.
    for delta in [None, Some((0usize, &one_hop[..2])), Some((1usize, &one_hop[..3]))] {
        let mut fast = evaluate_rule(nr2, &builtins, &db, delta).unwrap();
        let mut slow = evaluate_rule_reference(nr2, &builtins, &db, delta).unwrap();
        fast.sort();
        slow.sort();
        assert_eq!(fast, slow);
    }
}

#[test]
fn evaluator_exposes_compiled_plans() {
    let program = parse_program(BEST_PATH).unwrap();
    let eval = Evaluator::new(program).unwrap();
    // One plan per program rule, in program order.
    assert_eq!(eval.plans().len(), eval.program().rules.len());
    let nr2 = eval.plans().iter().find(|p| p.rule().name.as_deref() == Some("NR2")).unwrap();
    assert_eq!(nr2.plan().to_string(), "link ⋈ path[0]");
}

/// Run `src` on the Figure 3 network, every link in both directions, and
/// return the evaluator's work counters.
fn figure3_stats(src: &str, semi_naive: bool, aggregate_selections: bool) -> EvalStats {
    let cfg = EvalConfig { semi_naive, aggregate_selections, ..EvalConfig::default() };
    let eval = Evaluator::with_config(parse_program(src).unwrap(), cfg).unwrap();
    let mut db = Database::new();
    for (s, d) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)] {
        db.insert(link(s, d, 1.0));
        db.insert(link(d, s, 1.0));
    }
    eval.run(&mut db).unwrap()
}

#[test]
fn eval_stats_are_pinned() {
    // Exact work counters: a change to the delta schedule, the order rules
    // see each other's tuples, or the selection gate moves one of these.
    let stats = |iterations, rule_firings, tuples_derived, tuples_pruned, strata| EvalStats {
        iterations,
        rule_firings,
        tuples_derived,
        tuples_pruned,
        strata,
    };
    assert_eq!(figure3_stats(BEST_PATH, true, false), stats(6, 7, 84, 0, 2));
    assert_eq!(figure3_stats(BEST_PATH, true, true), stats(5, 6, 72, 10, 2));
    assert_eq!(figure3_stats(BEST_PATH, false, false), stats(6, 11, 84, 0, 2));
    assert_eq!(figure3_stats(BEST_PATH, false, true), stats(5, 9, 72, 18, 2));
    assert_eq!(figure3_stats(NETWORK_REACHABILITY, true, false), stats(4, 5, 38, 0, 1));
}
