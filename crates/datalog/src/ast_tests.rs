use super::*;
use dr_types::NodeId;

fn simple_rule() -> Rule {
    // path(@S,D,P,C) :- link(@S,D,C), P = f_initPath(S,D).
    Rule::named(
        "NR1",
        Head::plain(
            "path",
            vec![Term::var("S"), Term::var("D"), Term::var("P"), Term::var("C")],
            Some(0),
        ),
        vec![
            Literal::Atom(Atom::with_location(
                "link",
                vec![Term::var("S"), Term::var("D"), Term::var("C")],
                0,
            )),
            Literal::Assign {
                var: "P".into(),
                expr: Expr::call("f_initPath", vec![Expr::var("S"), Expr::var("D")]),
            },
        ],
    )
}

#[test]
fn atom_variables_deduplicate_and_preserve_order() {
    let a =
        Atom::new("r", vec![Term::var("X"), Term::var("Y"), Term::var("X"), Term::constant(1i64)]);
    assert_eq!(a.variables(), vec!["X", "Y"]);
}

#[test]
fn atom_location_var() {
    let a = Atom::with_location("link", vec![Term::var("S"), Term::var("D")], 0);
    assert_eq!(a.location_var(), Some("S"));
    let b = Atom::new("link", vec![Term::var("S"), Term::var("D")]);
    assert_eq!(b.location_var(), None);
}

#[test]
fn compare_op_numeric_and_structural() {
    assert!(CompareOp::Lt.eval(&Value::Int(1), &Value::from(2.0)));
    assert!(CompareOp::Ne.eval(&Value::str("a"), &Value::str("b")));
    assert!(CompareOp::Eq.eval(&Value::from(3.0), &Value::Int(3)));
    assert!(CompareOp::Ge.eval(&Value::Int(3), &Value::Int(3)));
    assert!(!CompareOp::Gt.eval(&Value::Int(3), &Value::Int(3)));
    assert!(CompareOp::Le.eval(&Value::Int(2), &Value::Int(3)));
}

#[test]
fn expr_variable_collection() {
    let e = Expr::BinOp {
        op: ArithOp::Add,
        lhs: Box::new(Expr::var("C1")),
        rhs: Box::new(Expr::call("f_min", vec![Expr::var("C2"), Expr::var("C1")])),
    };
    assert_eq!(e.variables(), vec!["C1", "C2"]);
    assert!(e.has_call());
    assert!(!Expr::var("X").has_call());
}

#[test]
fn head_aggregate_detection() {
    let h = Head {
        relation: "bestPathCost".into(),
        terms: vec![
            HeadTerm::Plain(Term::var("S")),
            HeadTerm::Plain(Term::var("D")),
            HeadTerm::Agg(AggFunc::Min, "C".into()),
        ],
        location: Some(0),
    };
    assert!(h.has_aggregate());
    let (f, v, i) = h.aggregate().unwrap();
    assert_eq!(f, AggFunc::Min);
    assert_eq!(v, "C");
    assert_eq!(i, 2);
    assert_eq!(h.plain_variables(), vec!["S", "D"]);
    assert_eq!(h.location_var(), Some("S"));
}

#[test]
fn rule_introspection() {
    let r = simple_rule();
    assert!(!r.is_fact());
    assert_eq!(r.body_relations(), vec!["link"]);
    assert!(!r.is_directly_recursive());
    assert!(r.uses_functions());

    let rec = Rule::new(
        Head::plain("path", vec![Term::var("S")], None),
        vec![Literal::Atom(Atom::new("path", vec![Term::var("S")]))],
    );
    assert!(rec.is_directly_recursive());
    assert!(!rec.uses_functions());
}

#[test]
fn fact_detection() {
    let f = Rule::new(
        Head::plain("magicSources", vec![Term::constant(Value::Node(NodeId::new(2)))], None),
        vec![],
    );
    assert!(f.is_fact());
    let not_fact = Rule::new(Head::plain("magicSources", vec![Term::var("X")], None), vec![]);
    assert!(!not_fact.is_fact());
}

#[test]
fn fact_tuple_is_some_exactly_for_facts() {
    let two = Value::Node(NodeId::new(2));
    let f = Rule::new(Head::plain("magicSources", vec![Term::constant(two.clone())], None), vec![]);
    assert_eq!(f.fact_tuple(), Some(Tuple::new("magicSources", vec![two])));
    // A body-less rule with a head variable is no fact: neither the
    // distributed install nor the centralized evaluator seeds it.
    let open = Rule::new(Head::plain("magicSources", vec![Term::var("X")], None), vec![]);
    assert_eq!(open.fact_tuple(), None);
    assert!(!open.is_fact());
    assert_eq!(simple_rule().fact_tuple(), None);
}

#[test]
fn program_relation_classification() {
    let mut p = Program::new();
    p.rules.push(simple_rule());
    p.queries.push(Atom::new(
        "path",
        vec![Term::var("S"), Term::var("D"), Term::var("P"), Term::var("C")],
    ));
    let derived: Vec<_> = p.derived_relations().into_iter().collect();
    let base: Vec<_> = p.base_relations().into_iter().collect();
    assert_eq!(derived, vec!["path"]);
    assert_eq!(base, vec!["link"]);
    assert!(p.all_relations().contains("path"));
    assert_eq!(p.rule("NR1").unwrap().name.as_deref(), Some("NR1"));
    assert!(p.rule("ZZZ").is_none());
}

#[test]
fn include_concatenates_programs() {
    let mut a = Program::new();
    a.rules.push(simple_rule());
    let mut b = Program::new();
    b.rules.push(simple_rule());
    b.key_pragmas.push(("path".into(), vec![0, 1, 2]));
    a.include(&b);
    assert_eq!(a.len(), 2);
    assert_eq!(a.key_pragmas.len(), 1);
    assert!(!a.is_empty());
}

#[test]
fn display_round_trip_shapes() {
    let r = simple_rule();
    let s = r.to_string();
    assert!(s.starts_with("NR1: path(@S,D,P,C) :- link(@S,D,C)"));
    assert!(s.ends_with('.'));
    let h = Head {
        relation: "bestPathCost".into(),
        terms: vec![HeadTerm::Plain(Term::var("S")), HeadTerm::Agg(AggFunc::Min, "C".into())],
        location: Some(0),
    };
    assert_eq!(h.to_string(), "bestPathCost(@S,min<C>)");
}

#[test]
fn agg_func_parsing_and_properties() {
    assert_eq!(AggFunc::from_name("MIN"), Some(AggFunc::Min));
    assert_eq!(AggFunc::from_name("sum"), Some(AggFunc::Sum));
    assert_eq!(AggFunc::from_name("median"), None);
    assert!(AggFunc::Min.is_monotonic_selection());
    assert!(AggFunc::Max.is_monotonic_selection());
    assert!(!AggFunc::Count.is_monotonic_selection());
    assert!(!AggFunc::Sum.is_monotonic_selection());
}
