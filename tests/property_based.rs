//! Property-based tests (proptest) over the core data structures and
//! invariants: path-vector algebra, cost arithmetic, the typed-view
//! (`FromTuple`) round-trip, the parser round-trip, the equivalence of naïve
//! and semi-naïve evaluation, the equivalence of compiled (frame-based) and
//! reference (name-keyed) rule evaluation, the left/right recursion rewrite,
//! the aggregate-selections optimization, and parser totality (no input
//! panics the parser or the localizer).

use declarative_routing::datalog::eval::EvalConfig;
use declarative_routing::datalog::rewrite::flip_program_recursion;
use declarative_routing::datalog::{
    parse_program, Builtins, Database, Evaluator, Expr, Literal, Program,
};
use declarative_routing::engine::localize::localize;
use declarative_routing::protocols::{best_path, network_reachability};
use declarative_routing::types::{
    Cost, CostEntry, Error, FromTuple, NodeId, PathVector, RouteEntry, Tuple, Value,
};
use proptest::prelude::*;

fn node_vec() -> impl Strategy<Value = Vec<NodeId>> {
    prop::collection::vec(0u32..20, 0..8).prop_map(|v| v.into_iter().map(NodeId::new).collect())
}

/// A random small undirected graph: list of (a, b, cost) edges over ≤ 8
/// nodes, always including a spanning chain so it is connected.
fn small_graph() -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    (2usize..6, prop::collection::vec((0u32..6, 0u32..6, 1u32..10u32), 0..6)).prop_map(
        |(n, extra)| {
            let mut edges = Vec::new();
            for i in 0..(n as u32 - 1) {
                edges.push((i, i + 1, 1.0 + i as f64));
            }
            for (a, b, c) in extra {
                let (a, b) = (a % n as u32, b % n as u32);
                if a != b {
                    edges.push((a, b, c as f64));
                }
            }
            edges
        },
    )
}

fn link_db(edges: &[(u32, u32, f64)]) -> Database {
    let mut db = Database::new();
    db.declare_key("link", vec![0, 1]);
    for &(a, b, c) in edges {
        for (s, d) in [(a, b), (b, a)] {
            db.insert(Tuple::new(
                "link",
                vec![Value::Node(NodeId::new(s)), Value::Node(NodeId::new(d)), Value::from(c)],
            ));
        }
    }
    db
}

/// Whole statements for `parser_and_localizer_never_panic` to combine, so
/// many of its inputs parse and reach the localizer: the Best-Path rules,
/// facts, pragmas and queries, and statements that parse but should be
/// refused later (arity clashes, unbound heads, out-of-range keys, a
/// remote negation, an unknown function).
const STATEMENTS: &[&str] = &[
    "NR1: path(@S,D,P,C) :- link(@S,D,C), P = f_initPath(S,D).",
    "NR2: path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2), C = C1 + C2, \
     P = f_prepend(S,P2), f_inPath(P2,S) = false.",
    "BPR1: bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).",
    "BPR2: bestPath(@S,D,P,C) :- bestPathCost(@S,D,C), path(@S,D,P,C).",
    "hops(@S,count<D>) :- path(@S,D,P,C).",
    "total(@S,sum<C>) :- link(@S,D,C).",
    "r(@X,Y) :- s(@X,Y), !t(@Y,_).",
    "r(@X,Y) :- s(@Y,X).",
    "q(@X,Z) :- s(@X,Y), Z = f_nope(Y).",
    "p(@X).",
    "path(@a,b).",
    "magicSources(#2).",
    "#key(path, 0, 1).",
    "#key(path, 9).",
    "#key(s).",
    "Query: bestPath(@S,D,P,C).",
    "Query: r(@X,Y).",
    "% comment\n",
    "\n",
];

/// Fragments of program text spliced into the statements at random: single
/// tokens and the lexer's edge cases — escapes, `%` and `//` comments
/// against `/* */` (which the dialect does not have), nested and
/// unterminated block comments, unterminated strings, out-of-range
/// literals, stray `@`, `:-`, `.` and `#`.
const FRAGMENTS: &[&str] = &[
    "path",
    "link",
    "f_initPath",
    "min<",
    "count<",
    "S",
    "_",
    "(",
    ")",
    ",",
    ".",
    ":-",
    ":",
    "@",
    "!",
    "=",
    "!=",
    "<",
    ">=",
    "+",
    "-",
    "*",
    "/",
    "#",
    "#key",
    "#4294967296",
    "99999999999999999999",
    "1.5",
    "1.",
    "infinity",
    "nil",
    "Query:",
    "\"str\"",
    "\"esc\\\"aped\"",
    "\"\\n\\t\\u{0}\"",
    "\"unterminated",
    "% prolog comment\n",
    "%",
    "// line comment\n",
    "//",
    "/* block */",
    "/* outer /* nested */ still */",
    "/* unterminated",
    "*/",
    "é",
    " ",
    "\n",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Prepending then taking the tail returns the original path; length and
    /// membership behave like the list they model.
    #[test]
    fn path_vector_prepend_tail_roundtrip(nodes in node_vec(), extra in 0u32..20) {
        let p = PathVector::from_nodes(nodes.clone());
        let extra = NodeId::new(extra);
        let grown = p.prepend(extra);
        prop_assert_eq!(grown.len(), p.len() + 1);
        prop_assert_eq!(grown.head(), Some(extra));
        prop_assert_eq!(grown.tail(), p.clone());
        prop_assert!(grown.contains(extra));
        for n in &nodes {
            prop_assert!(grown.contains(*n));
        }
    }

    /// `join` concatenates, deduplicating exactly one junction node.
    #[test]
    fn path_vector_join_lengths(a in node_vec(), b in node_vec()) {
        let pa = PathVector::from_nodes(a.clone());
        let pb = PathVector::from_nodes(b.clone());
        let joined = pa.join(&pb);
        let dedup = usize::from(!a.is_empty() && !b.is_empty() && a.last() == b.first());
        prop_assert_eq!(joined.len(), a.len() + b.len() - dedup);
    }

    /// Cost ordering is total and addition is monotone and commutative
    /// (modulo the saturating ∞ behaviour).
    #[test]
    fn cost_arithmetic_properties(a in 0.0f64..1e9, b in 0.0f64..1e9) {
        let ca = Cost::new(a);
        let cb = Cost::new(b);
        prop_assert_eq!(ca + cb, cb + ca);
        prop_assert!(ca + cb >= ca);
        prop_assert!(ca + cb >= cb);
        prop_assert!(ca.min(cb) <= ca.max(cb));
        prop_assert!((ca + Cost::INFINITY).is_infinite());
    }

    /// Printing a parsed program and re-parsing it yields the same rules.
    #[test]
    fn parser_display_roundtrip(bound in 1u32..100, seed_rel in "[a-z][a-z0-9]{0,6}") {
        let src = format!(
            r#"
            r1: {rel}(@S,D,P,C) :- link(@S,D,C), P = f_initPath(S,D), C < {bound}.
            r2: {rel}(@S,D,P,C) :- link(@S,Z,C1), {rel}(@Z,D,P2,C2),
                C = C1 + C2, P = f_prepend(S,P2), f_inPath(P2,S) = false.
            best(@S,D,min<C>) :- {rel}(@S,D,P,C).
            Query: best(@S,D,C).
            "#,
            rel = seed_rel,
            bound = bound
        );
        let p1 = parse_program(&src).unwrap();
        let p2 = parse_program(&p1.to_string()).unwrap();
        prop_assert_eq!(p1.rules.len(), p2.rules.len());
        prop_assert_eq!(p1.queries, p2.queries);
        for (a, b) in p1.rules.iter().zip(p2.rules.iter()) {
            prop_assert_eq!(&a.head, &b.head);
            prop_assert_eq!(a.body.len(), b.body.len());
        }
    }

    /// Naïve and semi-naïve evaluation produce identical path sets on random
    /// graphs (the §3.3 evaluation-strategy ablation).
    #[test]
    fn naive_and_semi_naive_agree(edges in small_graph()) {
        let program = network_reachability();
        let mut semi_db = link_db(&edges);
        let mut naive_db = link_db(&edges);
        Evaluator::new(program.clone()).unwrap().run(&mut semi_db).unwrap();
        Evaluator::with_config(
            program,
            EvalConfig { semi_naive: false, ..EvalConfig::default() },
        )
        .unwrap()
        .run(&mut naive_db)
        .unwrap();
        prop_assert_eq!(semi_db.sorted_tuples("path"), naive_db.sorted_tuples("path"));
    }

    /// Compiled frame-based evaluation ([`RuleEval`]'s slot/plan path) is
    /// result-identical to the retained name-keyed reference path on
    /// randomized rules — arithmetic, comparisons, negation, builtin calls,
    /// constant probes, permuted body orders — over random graphs, both in
    /// full evaluation and for every semi-naïve delta occurrence.
    #[test]
    fn compiled_evaluation_matches_reference(
        edges in small_graph(),
        template in 0usize..4,
        bound in 1u32..15,
        flip_raw in 0usize..2,
    ) {
        use declarative_routing::datalog::eval::{evaluate_rule, evaluate_rule_reference};
        use declarative_routing::datalog::Builtins;

        let flip = flip_raw == 1;
        let k = bound % 6;
        let src = match (template, flip) {
            (0, false) => "r: two(@S,D,C) :- link(@S,Z,C1), link(@Z,D,C2), C = C1 + C2, S != D.".to_string(),
            (0, true) => "r: two(@S,D,C) :- link(@Z,D,C2), link(@S,Z,C1), C = C1 + C2, S != D.".to_string(),
            (1, false) => format!("r: offer(@S,D) :- link(@S,D,C), !deny(@S,D), C < {bound}."),
            (1, true) => format!("r: offer(@S,D) :- C < {bound}, link(@S,D,C), !deny(@S,D)."),
            (2, false) => "r: ext(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2), C = C1 + C2, P = f_prepend(S,P2), f_inPath(P2,S) = false.".to_string(),
            (2, true) => "r: ext(@S,D,P,C) :- path(@Z,D,P2,C2), link(@S,Z,C1), C = C1 + C2, P = f_prepend(S,P2), f_inPath(P2,S) = false.".to_string(),
            (3, false) => format!("r: out(@D,C) :- link(#{k},Z,C1), link(@Z,D,C2), C = C1 + C2."),
            _ => format!("r: out(@D,C) :- link(@Z,D,C2), link(#{k},Z,C1), C = C1 + C2."),
        };

        let builtins = Builtins::standard();
        let mut db = link_db(&edges);
        // Seed `path` with one-hop paths and `deny` with half the edges so
        // the recursion and negation templates have something to join.
        let seed = parse_program("NR1: path(@S,D,P,C) :- link(@S,D,C), P = f_initPath(S,D).").unwrap();
        for t in evaluate_rule(&seed.rules[0], &builtins, &db, None).unwrap() {
            db.insert(t);
        }
        for (i, &(a, b, _)) in edges.iter().enumerate() {
            if i % 2 == 0 {
                db.insert(Tuple::new(
                    "deny",
                    vec![Value::Node(NodeId::new(a)), Value::Node(NodeId::new(b))],
                ));
            }
        }

        let program = parse_program(&src).unwrap();
        let rule = &program.rules[0];
        let mut fast = evaluate_rule(rule, &builtins, &db, None).unwrap();
        let mut slow = evaluate_rule_reference(rule, &builtins, &db, None).unwrap();
        fast.sort();
        slow.sort();
        prop_assert_eq!(fast, slow);

        // Every positive-atom occurrence, fed a partial delta of its relation.
        for (occ, atom) in rule.positive_atoms().iter().enumerate() {
            let tuples = db.tuples(atom.relation.as_str());
            let delta: Vec<Tuple> = tuples.iter().take(tuples.len() / 2 + 1).cloned().collect();
            let mut fast = evaluate_rule(rule, &builtins, &db, Some((occ, &delta))).unwrap();
            let mut slow =
                evaluate_rule_reference(rule, &builtins, &db, Some((occ, &delta))).unwrap();
            fast.sort();
            slow.sort();
            prop_assert_eq!(fast, slow);
        }
    }

    /// The left/right recursion flip (§5.3) preserves best-path answers on
    /// random graphs.
    #[test]
    fn recursion_flip_preserves_best_paths(edges in small_graph()) {
        let right = best_path();
        let left = flip_program_recursion(&right);
        let mut right_db = link_db(&edges);
        let mut left_db = link_db(&edges);
        Evaluator::new(right).unwrap().run(&mut right_db).unwrap();
        Evaluator::new(left).unwrap().run(&mut left_db).unwrap();
        prop_assert_eq!(
            right_db.sorted_tuples("bestPathCost"),
            left_db.sorted_tuples("bestPathCost")
        );
    }

    /// Aggregate selections prune work but never change the best-path costs
    /// (§7.1's correctness requirement).
    #[test]
    fn aggregate_selections_preserve_answers(edges in small_graph()) {
        let mut plain_db = link_db(&edges);
        let mut opt_db = link_db(&edges);
        Evaluator::new(best_path()).unwrap().run(&mut plain_db).unwrap();
        let stats = Evaluator::with_config(
            best_path(),
            EvalConfig { aggregate_selections: true, ..EvalConfig::default() },
        )
        .unwrap()
        .run(&mut opt_db)
        .unwrap();
        prop_assert_eq!(
            plain_db.sorted_tuples("bestPathCost"),
            opt_db.sorted_tuples("bestPathCost")
        );
        prop_assert!(stats.tuples_derived <= plain_db.total_tuples());
    }

    /// The best-path cost between two nodes never exceeds the direct link
    /// cost between them, and equals Dijkstra's answer on the same graph.
    #[test]
    fn best_path_cost_is_optimal(edges in small_graph()) {
        let mut db = link_db(&edges);
        Evaluator::new(best_path()).unwrap().run(&mut db).unwrap();

        // Reference shortest paths via the simulator's Dijkstra.
        let mut topo = declarative_routing::netsim::Topology::new(
            edges.iter().flat_map(|(a, b, _)| [*a as usize + 1, *b as usize + 1]).max().unwrap_or(1),
        );
        for &(a, b, c) in &edges {
            topo.add_bidirectional(
                NodeId::new(a),
                NodeId::new(b),
                declarative_routing::netsim::LinkParams::with_latency_ms(c).with_cost(Cost::new(c)),
            );
        }
        for t in db.tuples("bestPathCost") {
            let entry = CostEntry::from_tuple(&t).expect("bestPathCost is cost-shaped");
            if !entry.cost.is_finite() {
                continue;
            }
            let reference = topo.cost_distances(entry.src).get(&entry.dst).copied();
            prop_assert_eq!(
                Some(entry.cost.value()),
                reference,
                "pair {}->{}",
                entry.src,
                entry.dst
            );
        }
    }

    /// `RouteEntry -> Tuple -> RouteEntry` is the identity for every
    /// well-formed route, whatever the path and cost.
    #[test]
    fn route_entry_tuple_round_trip(
        src in 0u32..50,
        dst in 0u32..50,
        path in node_vec(),
        cost in 0.0f64..1e9,
    ) {
        let entry = RouteEntry {
            src: NodeId::new(src),
            dst: NodeId::new(dst),
            path: PathVector::from_nodes(path),
            cost: Cost::new(cost),
        };
        let decoded = RouteEntry::from_tuple(&entry.to_tuple()).unwrap();
        prop_assert_eq!(decoded, entry);
    }

    /// Decoding fails with `Error::Decode` (never panics, never guesses) on
    /// any tuple whose arity is not 4.
    #[test]
    fn route_entry_rejects_wrong_arity(raw_arity in 0usize..7) {
        // Skip over the well-formed arity (4): 0,1,2,3,5,6,7.
        let arity = if raw_arity >= 4 { raw_arity + 1 } else { raw_arity };
        let fields: Vec<Value> = (0..arity).map(|i| Value::Node(NodeId::new(i as u32))).collect();
        let tuple = Tuple::new("bestPath", fields);
        prop_assert!(matches!(RouteEntry::from_tuple(&tuple), Err(Error::Decode(_))));
    }

    /// Decoding fails with `Error::Decode` when any field has the wrong
    /// type, whichever field it is.
    #[test]
    fn route_entry_rejects_type_mismatch(slot in 0usize..4) {
        // Start from a well-formed route tuple, then poison one slot with a
        // value of the wrong type.
        let mut fields = vec![
            Value::Node(NodeId::new(1)),
            Value::Node(NodeId::new(2)),
            Value::Path(PathVector::from_nodes(vec![NodeId::new(1), NodeId::new(2)])),
            Value::Cost(Cost::new(1.0)),
        ];
        fields[slot] = Value::Bool(true);
        let tuple = Tuple::new("bestPath", fields);
        prop_assert!(matches!(RouteEntry::from_tuple(&tuple), Err(Error::Decode(_))));
    }

    /// The cost-shaped view round-trips and rejects the route shape.
    #[test]
    fn cost_entry_tuple_round_trip(src in 0u32..50, dst in 0u32..50, cost in 0.0f64..1e9) {
        let entry = CostEntry {
            src: NodeId::new(src),
            dst: NodeId::new(dst),
            cost: Cost::new(cost),
        };
        let decoded = CostEntry::from_tuple(&entry.to_tuple()).unwrap();
        prop_assert_eq!(decoded, entry);
        // Widening the tuple by one field makes it undecodable again.
        let mut fields = entry.to_tuple().fields().to_vec();
        fields.push(Value::Int(0));
        let widened = Tuple::new("bestPathCost", fields);
        prop_assert!(matches!(CostEntry::from_tuple(&widened), Err(Error::Decode(_))));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `parse_program` is total: any mix of statements and fragments parses
    /// or returns a parse error, and a program that parses localizes or
    /// returns an error, never a panic. A program that localizes calls only
    /// standard builtins and has no body-less rule with a non-ground head.
    #[test]
    fn parser_and_localizer_never_panic(
        statements in prop::collection::vec(0usize..STATEMENTS.len(), 0..8),
        soup in prop::collection::vec(0usize..FRAGMENTS.len(), 0..6),
        at in 0usize..16,
    ) {
        let soup: String = soup.iter().map(|&i| FRAGMENTS[i]).collect();
        let mut parts: Vec<&str> = statements.iter().map(|&i| STATEMENTS[i]).collect();
        // Half the cases splice the soup in at a statement boundary; the
        // rest are whole statements only.
        if at < 8 {
            parts.insert(at.min(parts.len()), &soup);
        }
        if let Ok(program) = parse_program(&parts.concat()) {
            if localize(&program, &[]).is_ok() {
                // Localizing is the door: what it lets through calls only
                // standard builtins, and every body-less rule is a fact.
                let standard = Builtins::standard();
                for func in called_functions(&program) {
                    prop_assert!(standard.contains(func), "{func} passed the door");
                }
                for rule in program.rules.iter().filter(|r| r.body.is_empty()) {
                    prop_assert!(rule.is_fact(), "{rule} passed the door");
                }
            }
        }
    }
}

/// Every function name a program's rules call, nested calls included.
fn called_functions(program: &Program) -> Vec<&str> {
    fn walk<'a>(expr: &'a Expr, out: &mut Vec<&'a str>) {
        match expr {
            Expr::Term(_) => {}
            Expr::Call { func, args } => {
                out.push(func);
                args.iter().for_each(|a| walk(a, out));
            }
            Expr::BinOp { lhs, rhs, .. } => {
                walk(lhs, out);
                walk(rhs, out);
            }
        }
    }
    let mut out = Vec::new();
    for lit in program.rules.iter().flat_map(|r| &r.body) {
        match lit {
            Literal::Atom(_) | Literal::NegAtom(_) => {}
            Literal::Compare { lhs, rhs, .. } => {
                walk(lhs, &mut out);
                walk(rhs, &mut out);
            }
            Literal::Assign { expr, .. } => walk(expr, &mut out),
        }
    }
    out
}
