//! Abstract syntax for the declarative routing Datalog dialect.
//!
//! A [`Program`] is a set of named [`Rule`]s plus optional query atoms and
//! ground facts. Each rule has a [`Head`] (possibly containing aggregate
//! terms such as `min<C>`) and a body of [`Literal`]s: positive or negated
//! relation atoms, comparisons, and assignments whose right-hand sides may
//! call built-in functions.
//!
//! Location annotations (`@`) mark which argument of an atom is the network
//! address that stores the tuple — the underlined field in the paper's
//! notation. They are semantically irrelevant for centralized evaluation and
//! drive rule localization in the distributed planner (`dr-core`).

use dr_types::Value;
use std::collections::BTreeSet;
use std::fmt;

/// A term appearing in an atom argument position.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A variable, conventionally starting with an upper-case letter.
    Var(String),
    /// A ground constant.
    Const(Value),
}

impl Term {
    /// Convenience constructor for a variable term.
    pub fn var(name: impl Into<String>) -> Term {
        Term::Var(name.into())
    }

    /// Convenience constructor for a constant term.
    pub fn constant(v: impl Into<Value>) -> Term {
        Term::Const(v.into())
    }

    /// The variable name, if this term is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }

    /// True when the term is a constant.
    pub fn is_const(&self) -> bool {
        matches!(self, Term::Const(_))
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

/// A relation atom: `path(@S,D,P,C)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// Relation (table) name.
    pub relation: String,
    /// Argument terms in positional order.
    pub terms: Vec<Term>,
    /// Index of the `@`-annotated location argument, if any.
    pub location: Option<usize>,
}

impl Atom {
    /// Build an atom without a location annotation.
    pub fn new(relation: impl Into<String>, terms: Vec<Term>) -> Atom {
        Atom { relation: relation.into(), terms, location: None }
    }

    /// Build an atom whose `loc`-th argument is the storage address.
    pub fn with_location(relation: impl Into<String>, terms: Vec<Term>, loc: usize) -> Atom {
        Atom { relation: relation.into(), terms, location: Some(loc) }
    }

    /// Number of arguments.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// The variable that names this atom's storage location, if the location
    /// argument is a variable.
    pub fn location_var(&self) -> Option<&str> {
        self.location.and_then(|i| self.terms.get(i)).and_then(Term::as_var)
    }

    /// All variable names appearing in the atom, in first-occurrence order.
    pub fn variables(&self) -> Vec<&str> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for t in &self.terms {
            if let Term::Var(v) = t {
                if seen.insert(v.as_str()) {
                    out.push(v.as_str());
                }
            }
        }
        out
    }

    /// True when the atom contains no variables.
    pub fn is_ground(&self) -> bool {
        self.terms.iter().all(Term::is_const)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            if Some(i) == self.location {
                write!(f, "@")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// Comparison operators usable in rule bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareOp {
    /// `=` used as an equality test (when both sides are bound).
    Eq,
    /// `!=` (the paper's `≠`).
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CompareOp {
    /// Evaluate the comparison on two values; numeric types compare
    /// numerically, everything else structurally.
    pub fn eval(self, lhs: &Value, rhs: &Value) -> bool {
        use std::cmp::Ordering::*;
        let ord = lhs.compare_numeric(rhs);
        match self {
            CompareOp::Eq => ord == Equal,
            CompareOp::Ne => ord != Equal,
            CompareOp::Lt => ord == Less,
            CompareOp::Le => ord != Greater,
            CompareOp::Gt => ord == Greater,
            CompareOp::Ge => ord != Less,
        }
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "!=",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// Arithmetic operators usable in expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// Addition (saturating on infinite costs).
    Add,
    /// Subtraction (clamped at zero for costs).
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        };
        write!(f, "{s}")
    }
}

/// An expression: a term, a built-in function call, or arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A bare term (variable or constant).
    Term(Term),
    /// A call to a built-in function, e.g. `f_prepend(S,P2)`.
    Call {
        /// Function name (starts with `f_` by convention).
        func: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// Binary arithmetic, e.g. `C1 + C2`.
    BinOp {
        /// The operator.
        op: ArithOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

impl Expr {
    /// Convenience constructor for a variable expression.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Term(Term::var(name))
    }

    /// Convenience constructor for a constant expression.
    pub fn constant(v: impl Into<Value>) -> Expr {
        Expr::Term(Term::constant(v))
    }

    /// Convenience constructor for a function call.
    pub fn call(func: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Call { func: func.into(), args }
    }

    /// Collect every variable mentioned by the expression into `out`.
    pub fn collect_vars<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Term(Term::Var(v)) => {
                if !out.contains(&v.as_str()) {
                    out.push(v);
                }
            }
            Expr::Term(Term::Const(_)) => {}
            Expr::Call { args, .. } => {
                for a in args {
                    a.collect_vars(out);
                }
            }
            Expr::BinOp { lhs, rhs, .. } => {
                lhs.collect_vars(out);
                rhs.collect_vars(out);
            }
        }
    }

    /// The variables mentioned by the expression.
    pub fn variables(&self) -> Vec<&str> {
        let mut v = Vec::new();
        self.collect_vars(&mut v);
        v
    }

    /// True when the expression contains a function call anywhere.
    pub fn has_call(&self) -> bool {
        match self {
            Expr::Term(_) => false,
            Expr::Call { .. } => true,
            Expr::BinOp { lhs, rhs, .. } => lhs.has_call() || rhs.has_call(),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Term(t) => write!(f, "{t}"),
            Expr::Call { func, args } => {
                write!(f, "{func}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::BinOp { op, lhs, rhs } => write!(f, "{lhs} {op} {rhs}"),
        }
    }
}

/// A body literal.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// A positive relation atom that must be satisfied.
    Atom(Atom),
    /// A negated relation atom (`!p(...)`, the paper's `¬p(...)`); satisfied
    /// when no matching tuple exists. Requires stratification.
    NegAtom(Atom),
    /// A comparison between two expressions, e.g. `W != S` or `C < 10`.
    Compare {
        /// Comparison operator.
        op: CompareOp,
        /// Left expression.
        lhs: Expr,
        /// Right expression.
        rhs: Expr,
    },
    /// An assignment `X = expr`; binds `X` if unbound, otherwise acts as an
    /// equality test (this mirrors the paper's use of `=`).
    Assign {
        /// Variable being bound.
        var: String,
        /// Defining expression.
        expr: Expr,
    },
}

impl Literal {
    /// The atom, if the literal is a positive atom.
    pub fn as_atom(&self) -> Option<&Atom> {
        match self {
            Literal::Atom(a) => Some(a),
            _ => None,
        }
    }

    /// True for the non-atom body literals (assignments and comparisons) —
    /// the constraints the compiled evaluator schedules between joins.
    pub fn is_constraint(&self) -> bool {
        matches!(self, Literal::Assign { .. } | Literal::Compare { .. })
    }

    /// All variables referenced by the literal.
    pub fn variables(&self) -> Vec<&str> {
        match self {
            Literal::Atom(a) | Literal::NegAtom(a) => a.variables(),
            Literal::Compare { lhs, rhs, .. } => {
                let mut v = lhs.variables();
                for x in rhs.variables() {
                    if !v.contains(&x) {
                        v.push(x);
                    }
                }
                v
            }
            Literal::Assign { var, expr } => {
                let mut v = vec![var.as_str()];
                for x in expr.variables() {
                    if !v.contains(&x) {
                        v.push(x);
                    }
                }
                v
            }
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Atom(a) => write!(f, "{a}"),
            Literal::NegAtom(a) => write!(f, "!{a}"),
            Literal::Compare { op, lhs, rhs } => write!(f, "{lhs} {op} {rhs}"),
            Literal::Assign { var, expr } => write!(f, "{var} = {expr}"),
        }
    }
}

/// Aggregate functions usable in rule heads (paper's `min<C>`, `AGG<C>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Minimum of the aggregated values.
    Min,
    /// Maximum of the aggregated values.
    Max,
    /// Count of derivations per group.
    Count,
    /// Sum of the aggregated values.
    Sum,
}

impl AggFunc {
    /// Parse an aggregate function name.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        match name.to_ascii_lowercase().as_str() {
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            _ => None,
        }
    }

    /// True for aggregates whose running value can prune dominated inputs
    /// (the prerequisite for the paper's aggregate-selection optimization).
    pub fn is_monotonic_selection(self) -> bool {
        matches!(self, AggFunc::Min | AggFunc::Max)
    }

    /// The aggregate's preference between two values: `Less` when `a` is the
    /// better one (smaller under `min`, larger under `max`), `Equal` on a
    /// tie — and always for `count`/`sum`, which prefer nothing. This is the
    /// one definition of "at least as good" every aggregate-selection gate
    /// shares: a candidate survives its group's best `b` iff
    /// `rank(a, b) != Greater`.
    pub fn rank(self, a: &Value, b: &Value) -> std::cmp::Ordering {
        match self {
            AggFunc::Min => a.compare_numeric(b),
            AggFunc::Max => a.compare_numeric(b).reverse(),
            AggFunc::Count | AggFunc::Sum => std::cmp::Ordering::Equal,
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
        };
        write!(f, "{s}")
    }
}

/// A term in a rule head: either a plain term or an aggregate over a body
/// variable (`min<C>`).
#[derive(Debug, Clone, PartialEq)]
pub enum HeadTerm {
    /// An ordinary term copied from the body bindings.
    Plain(Term),
    /// An aggregate of a body variable across all derivations that agree on
    /// the plain head terms (the group-by key).
    Agg(AggFunc, String),
}

impl HeadTerm {
    /// The plain term, if this head term is not an aggregate.
    pub fn as_plain(&self) -> Option<&Term> {
        match self {
            HeadTerm::Plain(t) => Some(t),
            HeadTerm::Agg(..) => None,
        }
    }
}

impl fmt::Display for HeadTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeadTerm::Plain(t) => write!(f, "{t}"),
            HeadTerm::Agg(func, v) => write!(f, "{func}<{v}>"),
        }
    }
}

/// A rule head: relation, head terms, optional location annotation.
#[derive(Debug, Clone, PartialEq)]
pub struct Head {
    /// Relation being defined.
    pub relation: String,
    /// Head terms in positional order.
    pub terms: Vec<HeadTerm>,
    /// Index of the `@`-annotated location argument, if any.
    pub location: Option<usize>,
}

impl Head {
    /// Build a head without aggregates from plain terms.
    pub fn plain(relation: impl Into<String>, terms: Vec<Term>, location: Option<usize>) -> Head {
        Head {
            relation: relation.into(),
            terms: terms.into_iter().map(HeadTerm::Plain).collect(),
            location,
        }
    }

    /// Number of head arguments.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// True when the head contains at least one aggregate term.
    pub fn has_aggregate(&self) -> bool {
        self.terms.iter().any(|t| matches!(t, HeadTerm::Agg(..)))
    }

    /// The aggregate (function, variable, position) if the head has one.
    pub fn aggregate(&self) -> Option<(AggFunc, &str, usize)> {
        self.terms.iter().enumerate().find_map(|(i, t)| match t {
            HeadTerm::Agg(f, v) => Some((*f, v.as_str(), i)),
            HeadTerm::Plain(_) => None,
        })
    }

    /// Variables appearing in plain head terms (the group-by key when the
    /// head has aggregates).
    pub fn plain_variables(&self) -> Vec<&str> {
        let mut out = Vec::new();
        for t in &self.terms {
            if let HeadTerm::Plain(Term::Var(v)) = t {
                if !out.contains(&v.as_str()) {
                    out.push(v.as_str());
                }
            }
        }
        out
    }

    /// The variable naming the head's storage location, if annotated and a
    /// variable.
    pub fn location_var(&self) -> Option<&str> {
        self.location
            .and_then(|i| self.terms.get(i))
            .and_then(HeadTerm::as_plain)
            .and_then(Term::as_var)
    }

    /// View the head as an [`Atom`] (aggregates become variables named after
    /// their aggregated variable). Useful for dependency analysis.
    pub fn as_atom(&self) -> Atom {
        Atom {
            relation: self.relation.clone(),
            terms: self
                .terms
                .iter()
                .map(|t| match t {
                    HeadTerm::Plain(t) => t.clone(),
                    HeadTerm::Agg(_, v) => Term::Var(v.clone()),
                })
                .collect(),
            location: self.location,
        }
    }
}

impl fmt::Display for Head {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            if Some(i) == self.location {
                write!(f, "@")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// A single Datalog rule `head :- body.`
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Optional rule label (`NR1`, `DV2`, ...).
    pub name: Option<String>,
    /// The rule head.
    pub head: Head,
    /// The rule body; empty for ground facts.
    pub body: Vec<Literal>,
}

impl Rule {
    /// Build an unnamed rule.
    pub fn new(head: Head, body: Vec<Literal>) -> Rule {
        Rule { name: None, head, body }
    }

    /// Build a named rule.
    pub fn named(name: impl Into<String>, head: Head, body: Vec<Literal>) -> Rule {
        Rule { name: Some(name.into()), head, body }
    }

    /// True when the rule body is empty and the head is ground (a fact).
    pub fn is_fact(&self) -> bool {
        self.body.is_empty()
            && self.head.terms.iter().all(|t| matches!(t, HeadTerm::Plain(Term::Const(_))))
    }

    /// All positive body atoms in order.
    pub fn positive_atoms(&self) -> Vec<&Atom> {
        self.body.iter().filter_map(Literal::as_atom).collect()
    }

    /// All distinct variable names in the rule — body literals first, then
    /// the head — in first-occurrence order. The compiled evaluator interns
    /// this list into dense frame slots.
    pub fn variables(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for lit in &self.body {
            for v in lit.variables() {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        for term in &self.head.terms {
            let v = match term {
                HeadTerm::Plain(Term::Var(v)) => Some(v.as_str()),
                HeadTerm::Agg(_, v) => Some(v.as_str()),
                HeadTerm::Plain(Term::Const(_)) => None,
            };
            if let Some(v) = v {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// The relations this rule reads (positively or under negation).
    pub fn body_relations(&self) -> Vec<&str> {
        let mut out = Vec::new();
        for lit in &self.body {
            if let Literal::Atom(a) | Literal::NegAtom(a) = lit {
                if !out.contains(&a.relation.as_str()) {
                    out.push(a.relation.as_str());
                }
            }
        }
        out
    }

    /// True when the rule (directly) depends on its own head relation.
    pub fn is_directly_recursive(&self) -> bool {
        self.body_relations().contains(&self.head.relation.as_str())
    }

    /// True when any body literal uses a built-in function call.
    pub fn uses_functions(&self) -> bool {
        self.body.iter().any(|lit| match lit {
            Literal::Compare { lhs, rhs, .. } => lhs.has_call() || rhs.has_call(),
            Literal::Assign { expr, .. } => expr.has_call(),
            _ => false,
        })
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(n) = &self.name {
            write!(f, "{n}: ")?;
        }
        write!(f, "{}", self.head)?;
        if !self.body.is_empty() {
            write!(f, " :- ")?;
            for (i, lit) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{lit}")?;
            }
        }
        write!(f, ".")
    }
}

/// A complete Datalog program: rules, queries, and pragmas.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// The rules (including facts).
    pub rules: Vec<Rule>,
    /// The query atoms (`Query: path(@S,D,P,C).`); these name the result
    /// relations whose tuples are reported to the issuer.
    pub queries: Vec<Atom>,
    /// Primary-key pragmas: relation name → key field positions.
    pub key_pragmas: Vec<(String, Vec<usize>)>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Append another program's rules, queries and pragmas (the paper's
    /// `#include` macro).
    pub fn include(&mut self, other: &Program) {
        self.rules.extend(other.rules.iter().cloned());
        self.queries.extend(other.queries.iter().cloned());
        self.key_pragmas.extend(other.key_pragmas.iter().cloned());
    }

    /// Names of all relations defined by rule heads.
    pub fn derived_relations(&self) -> BTreeSet<&str> {
        self.rules.iter().map(|r| r.head.relation.as_str()).collect()
    }

    /// Names of all relations read by bodies but never defined by a head —
    /// these are base tables fed from outside (e.g. `link`, `excludeNode`).
    pub fn base_relations(&self) -> BTreeSet<&str> {
        let derived = self.derived_relations();
        let mut out = BTreeSet::new();
        for r in &self.rules {
            for rel in r.body_relations() {
                if !derived.contains(rel) {
                    out.insert(rel);
                }
            }
        }
        out
    }

    /// All relation names mentioned anywhere in the program.
    pub fn all_relations(&self) -> BTreeSet<&str> {
        let mut out = self.derived_relations();
        out.extend(self.base_relations());
        for q in &self.queries {
            out.insert(q.relation.as_str());
        }
        out
    }

    /// Find a rule by its label.
    pub fn rule(&self, name: &str) -> Option<&Rule> {
        self.rules.iter().find(|r| r.name.as_deref() == Some(name))
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when the program has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        for q in &self.queries {
            writeln!(f, "Query: {q}.")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
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
        let a = Atom::new(
            "r",
            vec![Term::var("X"), Term::var("Y"), Term::var("X"), Term::constant(1i64)],
        );
        assert_eq!(a.variables(), vec!["X", "Y"]);
        assert!(!a.is_ground());
        let g = Atom::new("r", vec![Term::constant(Value::Node(NodeId::new(1)))]);
        assert!(g.is_ground());
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
}
