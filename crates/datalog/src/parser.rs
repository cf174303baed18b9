//! Parser for the declarative routing Datalog dialect.
//!
//! ## Concrete syntax
//!
//! ```text
//! // comments run to end of line; % also starts a comment (Prolog style)
//! NR1: path(@S,D,P,C) :- link(@S,D,C), P = f_initPath(S,D).
//! NR2: path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2),
//!      C = C1 + C2, P = f_prepend(S,P2), f_inPath(P2,S) = false.
//! BPR1: bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).
//! PBR1: permitPath(@S,D,P,C) :- path(@S,D,P,C), excludeNode(@S,W),
//!       f_inPath(P,W) = false.
//! DV5:  path(@S,D,Z,infinity) :- link(@S,Z,C1), path(@Z,D,S,C2).
//! magicSources(#2).
//! #key(nextHop, 0, 1).
//! Query: bestPath(@S,D,P,C).
//! ```
//!
//! * Identifiers starting with an upper-case letter are **variables**;
//!   `_` is an anonymous variable (each occurrence is fresh).
//! * `@` before an argument marks the relation's location attribute
//!   (the paper's underlined field).
//! * `#<int>` is a node-address constant, numbers are int/cost constants,
//!   `infinity`/`inf` is the infinite cost, `true`/`false` are booleans,
//!   `nil` is the empty path vector, `"..."` is a string constant, and any
//!   other lower-case identifier is a symbolic (string) constant — matching
//!   the paper's use of `a`, `b`, `gid` as constants.
//! * A rule may be prefixed by a label (`NR1:`). The reserved label `Query`
//!   introduces a query atom instead of a rule.
//! * `#key(rel, i, j, ...)` declares the primary key of a relation by field
//!   positions.
//! * Negated atoms are written with a leading `!` (the paper's `¬`).

use crate::ast::{
    AggFunc, ArithOp, Atom, CompareOp, Expr, Head, HeadTerm, Literal, Program, Rule, Term,
};
use dr_types::{Cost, Error, NodeId, PathVector, Result, Value};

/// Parse a complete program from source text.
pub fn parse_program(src: &str) -> Result<Program> {
    let program = Parser::new(src)?.parse_program()?;
    // Produce an *interned* program: every relation the program names gets
    // its dense `RelId` minted here, so downstream plan-time interning
    // (catalog construction, rule compilation, localization) is a pure
    // lookup and the runtime never interns on a hot path.
    for rel in program.all_relations() {
        dr_types::RelId::intern(rel);
    }
    for (rel, _) in &program.key_pragmas {
        dr_types::RelId::intern(rel);
    }
    Ok(program)
}

/// Parse a single rule (without trailing rules); convenience for tests and
/// programmatic rule construction.
pub fn parse_rule(src: &str) -> Result<Rule> {
    let program = parse_program(src)?;
    program.rules.into_iter().next().ok_or_else(|| Error::parse("expected exactly one rule"))
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String), // foo, Bar, f_concatPath
    Int(i64),      // 42
    Float(f64),    // 1.5
    Str(String),   // "abc"
    NodeLit(u32),  // #3
    LParen,
    RParen,
    Comma,
    Dot,
    ColonDash, // :-
    Colon,
    At,
    Bang,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    Plus,
    Minus,
    Star,
    Slash,
    Hash, // for #key pragma
}

#[derive(Debug, Clone)]
struct SpannedTok {
    tok: Tok,
    line: usize,
    col: usize,
}

struct Lexer<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer { chars: src.chars().peekable(), line: 1, col: 1 }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next();
        if let Some(ch) = c {
            if ch == '\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
        }
        c
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        Error::parse(format!("{} at line {}, column {}", msg.into(), self.line, self.col))
    }

    fn tokenize(mut self) -> Result<Vec<SpannedTok>> {
        let mut out = Vec::new();
        loop {
            // skip whitespace and comments
            loop {
                match self.chars.peek() {
                    Some(c) if c.is_whitespace() => {
                        self.bump();
                    }
                    Some('/') => {
                        // Only a comment when followed by another '/'.
                        let mut clone = self.chars.clone();
                        clone.next();
                        if clone.peek() == Some(&'/') {
                            while let Some(c) = self.bump() {
                                if c == '\n' {
                                    break;
                                }
                            }
                        } else {
                            break;
                        }
                    }
                    Some('%') => {
                        while let Some(c) = self.bump() {
                            if c == '\n' {
                                break;
                            }
                        }
                    }
                    _ => break,
                }
            }
            let (line, col) = (self.line, self.col);
            let c = match self.chars.peek() {
                None => break,
                Some(c) => *c,
            };
            let tok = match c {
                '(' => {
                    self.bump();
                    Tok::LParen
                }
                ')' => {
                    self.bump();
                    Tok::RParen
                }
                ',' => {
                    self.bump();
                    Tok::Comma
                }
                '.' => {
                    self.bump();
                    Tok::Dot
                }
                '@' => {
                    self.bump();
                    Tok::At
                }
                '+' => {
                    self.bump();
                    Tok::Plus
                }
                '-' => {
                    self.bump();
                    Tok::Minus
                }
                '*' => {
                    self.bump();
                    Tok::Star
                }
                '/' => {
                    self.bump();
                    Tok::Slash
                }
                ':' => {
                    self.bump();
                    if self.chars.peek() == Some(&'-') {
                        self.bump();
                        Tok::ColonDash
                    } else {
                        Tok::Colon
                    }
                }
                '!' => {
                    self.bump();
                    if self.chars.peek() == Some(&'=') {
                        self.bump();
                        Tok::Ne
                    } else {
                        Tok::Bang
                    }
                }
                '<' => {
                    self.bump();
                    if self.chars.peek() == Some(&'=') {
                        self.bump();
                        Tok::Le
                    } else {
                        Tok::Lt
                    }
                }
                '>' => {
                    self.bump();
                    if self.chars.peek() == Some(&'=') {
                        self.bump();
                        Tok::Ge
                    } else {
                        Tok::Gt
                    }
                }
                '=' => {
                    self.bump();
                    Tok::Eq
                }
                '"' => {
                    self.bump();
                    let mut s = String::new();
                    loop {
                        match self.bump() {
                            Some('"') => break,
                            Some(ch) => s.push(ch),
                            None => return Err(self.err("unterminated string literal")),
                        }
                    }
                    Tok::Str(s)
                }
                '#' => {
                    self.bump();
                    // #123 node literal, or #ident pragma (e.g. #key)
                    match self.chars.peek() {
                        Some(d) if d.is_ascii_digit() => {
                            let mut n: u32 = 0;
                            while let Some(d) = self.chars.peek() {
                                if let Some(dig) = d.to_digit(10) {
                                    n = n.saturating_mul(10).saturating_add(dig);
                                    self.bump();
                                } else {
                                    break;
                                }
                            }
                            Tok::NodeLit(n)
                        }
                        Some(a) if a.is_ascii_alphabetic() => Tok::Hash,
                        _ => return Err(self.err("expected digits or identifier after '#'")),
                    }
                }
                c if c.is_ascii_digit() => {
                    let mut s = String::new();
                    let mut is_float = false;
                    while let Some(&d) = self.chars.peek() {
                        if d.is_ascii_digit() {
                            s.push(d);
                            self.bump();
                        } else if d == '.' {
                            // Lookahead: "1." followed by non-digit is int + Dot.
                            let mut clone = self.chars.clone();
                            clone.next();
                            match clone.peek() {
                                Some(d2) if d2.is_ascii_digit() => {
                                    is_float = true;
                                    s.push('.');
                                    self.bump();
                                }
                                _ => break,
                            }
                        } else {
                            break;
                        }
                    }
                    if is_float {
                        Tok::Float(s.parse().map_err(|_| self.err("bad float literal"))?)
                    } else {
                        Tok::Int(s.parse().map_err(|_| self.err("bad integer literal"))?)
                    }
                }
                c if c.is_ascii_alphabetic() || c == '_' => {
                    let mut s = String::new();
                    while let Some(&d) = self.chars.peek() {
                        if d.is_ascii_alphanumeric() || d == '_' {
                            s.push(d);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    Tok::Ident(s)
                }
                other => return Err(self.err(format!("unexpected character '{other}'"))),
            };
            out.push(SpannedTok { tok, line, col });
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    anon_counter: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Parser> {
        Ok(Parser { toks: Lexer::new(src).tokenize()?, pos: 0, anon_counter: 0 })
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|s| &s.tok)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err_here(&self, msg: impl Into<String>) -> Error {
        match self.toks.get(self.pos.min(self.toks.len().saturating_sub(1))) {
            Some(t) => Error::parse(format!("{} at line {}, column {}", msg.into(), t.line, t.col)),
            None => Error::parse(format!("{} at end of input", msg.into())),
        }
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<()> {
        if self.peek() == Some(&tok) {
            self.bump();
            Ok(())
        } else {
            Err(self.err_here(format!("expected {what}")))
        }
    }

    fn parse_program(&mut self) -> Result<Program> {
        let mut program = Program::new();
        while self.peek().is_some() {
            if self.peek() == Some(&Tok::Hash) {
                self.parse_pragma(&mut program)?;
                continue;
            }
            self.parse_statement(&mut program)?;
        }
        Ok(program)
    }

    fn parse_pragma(&mut self, program: &mut Program) -> Result<()> {
        self.expect(Tok::Hash, "'#'")?;
        let name = match self.bump() {
            Some(Tok::Ident(s)) => s,
            _ => return Err(self.err_here("expected pragma name after '#'")),
        };
        match name.as_str() {
            "key" => {
                self.expect(Tok::LParen, "'('")?;
                let rel = match self.bump() {
                    Some(Tok::Ident(s)) => s,
                    _ => return Err(self.err_here("expected relation name in #key")),
                };
                let mut fields = Vec::new();
                while self.peek() == Some(&Tok::Comma) {
                    self.bump();
                    match self.bump() {
                        Some(Tok::Int(i)) if i >= 0 => fields.push(i as usize),
                        _ => return Err(self.err_here("expected field position in #key")),
                    }
                }
                self.expect(Tok::RParen, "')'")?;
                self.expect(Tok::Dot, "'.'")?;
                program.key_pragmas.push((rel, fields));
                Ok(())
            }
            other => Err(self.err_here(format!("unknown pragma #{other}"))),
        }
    }

    /// Parse one rule, fact, or query statement.
    fn parse_statement(&mut self, program: &mut Program) -> Result<()> {
        // Optional label: `Ident :` not followed by `-` (that would be `:-`).
        let mut label: Option<String> = None;
        if let (Some(Tok::Ident(name)), Some(Tok::Colon)) = (self.peek(), self.peek2()) {
            let name = name.clone();
            self.bump();
            self.bump();
            if name == "Query" || name == "query" {
                let atom = self.parse_atom()?;
                self.expect(Tok::Dot, "'.' after query atom")?;
                program.queries.push(atom);
                return Ok(());
            }
            label = Some(name);
        }

        let head = self.parse_head()?;
        let body = if self.peek() == Some(&Tok::ColonDash) {
            self.bump();
            self.parse_body()?
        } else {
            Vec::new()
        };
        self.expect(Tok::Dot, "'.' at end of rule")?;
        program.rules.push(Rule { name: label, head, body });
        Ok(())
    }

    fn parse_head(&mut self) -> Result<Head> {
        let relation = match self.bump() {
            Some(Tok::Ident(s)) => s,
            _ => return Err(self.err_here("expected relation name in rule head")),
        };
        self.expect(Tok::LParen, "'(' after head relation")?;
        let mut terms = Vec::new();
        let mut location = None;
        if self.peek() != Some(&Tok::RParen) {
            loop {
                let mut at = false;
                if self.peek() == Some(&Tok::At) {
                    self.bump();
                    at = true;
                }
                let term = self.parse_head_term()?;
                if at {
                    if location.is_some() {
                        return Err(self.err_here("multiple '@' annotations in head"));
                    }
                    location = Some(terms.len());
                }
                terms.push(term);
                if self.peek() == Some(&Tok::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen, "')' after head arguments")?;
        Ok(Head { relation, terms, location })
    }

    fn parse_head_term(&mut self) -> Result<HeadTerm> {
        // Aggregate form: ident '<' Var '>'
        if let (Some(Tok::Ident(name)), Some(Tok::Lt)) = (self.peek(), self.peek2()) {
            if let Some(agg) = AggFunc::from_name(name) {
                self.bump();
                self.bump();
                let var = match self.bump() {
                    Some(Tok::Ident(v)) if starts_upper(&v) => v,
                    _ => return Err(self.err_here("expected variable inside aggregate <...>")),
                };
                self.expect(Tok::Gt, "'>' closing aggregate")?;
                return Ok(HeadTerm::Agg(agg, var));
            }
        }
        Ok(HeadTerm::Plain(self.parse_term()?))
    }

    fn parse_body(&mut self) -> Result<Vec<Literal>> {
        let mut body = Vec::new();
        loop {
            body.push(self.parse_literal()?);
            if self.peek() == Some(&Tok::Comma) {
                self.bump();
            } else {
                break;
            }
        }
        Ok(body)
    }

    fn parse_literal(&mut self) -> Result<Literal> {
        // Negated atom
        if self.peek() == Some(&Tok::Bang) {
            self.bump();
            let atom = self.parse_atom()?;
            return Ok(Literal::NegAtom(atom));
        }
        // Positive atom: Ident '(' ... but NOT a function call used in a
        // comparison (functions start with f_ by convention) and not an
        // aggregate. We decide by trying: if the identifier is followed by
        // '(' and is not a registered-function-style name appearing in a
        // comparison context, we must look ahead for a comparison operator
        // after the closing paren.
        if let (Some(Tok::Ident(_)), Some(Tok::LParen)) = (self.peek(), self.peek2()) {
            // Tentatively parse as an expression (handles `f_foo(...) = X`).
            // If that fails (e.g. because the arguments use `@` location
            // annotations) or the call is not followed by a comparison
            // operator, re-parse from the snapshot as a plain atom.
            let snapshot = self.pos;
            match self.parse_expr() {
                Ok(expr) => match self.peek() {
                    Some(Tok::Eq) | Some(Tok::Ne) | Some(Tok::Lt) | Some(Tok::Le)
                    | Some(Tok::Gt) | Some(Tok::Ge) => {
                        let op = self.parse_compare_op()?;
                        let rhs = self.parse_expr()?;
                        return Ok(Literal::Compare { op, lhs: expr, rhs });
                    }
                    _ => {
                        self.pos = snapshot;
                        let atom = self.parse_atom()?;
                        return Ok(Literal::Atom(atom));
                    }
                },
                Err(_) => {
                    self.pos = snapshot;
                    let atom = self.parse_atom()?;
                    return Ok(Literal::Atom(atom));
                }
            }
        }
        // Otherwise: an assignment/comparison starting with a term.
        let lhs = self.parse_expr()?;
        let op = self.parse_compare_op()?;
        let rhs = self.parse_expr()?;
        if op == CompareOp::Eq {
            if let Expr::Term(Term::Var(v)) = &lhs {
                return Ok(Literal::Assign { var: v.clone(), expr: rhs });
            }
        }
        Ok(Literal::Compare { op, lhs, rhs })
    }

    fn parse_compare_op(&mut self) -> Result<CompareOp> {
        let op = match self.peek() {
            Some(Tok::Eq) => CompareOp::Eq,
            Some(Tok::Ne) => CompareOp::Ne,
            Some(Tok::Lt) => CompareOp::Lt,
            Some(Tok::Le) => CompareOp::Le,
            Some(Tok::Gt) => CompareOp::Gt,
            Some(Tok::Ge) => CompareOp::Ge,
            _ => return Err(self.err_here("expected comparison operator")),
        };
        self.bump();
        Ok(op)
    }

    fn parse_atom(&mut self) -> Result<Atom> {
        let relation = match self.bump() {
            Some(Tok::Ident(s)) => s,
            _ => return Err(self.err_here("expected relation name")),
        };
        self.expect(Tok::LParen, "'(' after relation name")?;
        let mut terms = Vec::new();
        let mut location = None;
        if self.peek() != Some(&Tok::RParen) {
            loop {
                let mut at = false;
                if self.peek() == Some(&Tok::At) {
                    self.bump();
                    at = true;
                }
                let term = self.parse_term()?;
                if at {
                    if location.is_some() {
                        return Err(self.err_here("multiple '@' annotations in atom"));
                    }
                    location = Some(terms.len());
                }
                terms.push(term);
                if self.peek() == Some(&Tok::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen, "')' after atom arguments")?;
        Ok(Atom { relation, terms, location })
    }

    fn parse_term(&mut self) -> Result<Term> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(self.ident_to_term(s)),
            Some(Tok::Int(i)) => Ok(Term::Const(Value::Int(i))),
            Some(Tok::Float(f)) => Ok(Term::Const(Value::Cost(Cost::new(f)))),
            Some(Tok::Str(s)) => Ok(Term::Const(Value::str(s))),
            Some(Tok::NodeLit(n)) => Ok(Term::Const(Value::Node(NodeId::new(n)))),
            _ => Err(self.err_here("expected term")),
        }
    }

    fn ident_to_term(&mut self, s: String) -> Term {
        if s == "_" {
            self.anon_counter += 1;
            return Term::Var(format!("_anon{}", self.anon_counter));
        }
        if starts_upper(&s) || s.starts_with('_') {
            return Term::Var(s);
        }
        match s.as_str() {
            "nil" => Term::Const(Value::Path(PathVector::nil())),
            "infinity" | "inf" => Term::Const(Value::Cost(Cost::INFINITY)),
            "true" => Term::Const(Value::Bool(true)),
            "false" => Term::Const(Value::Bool(false)),
            _ => Term::Const(Value::str(s)),
        }
    }

    /// Expressions: term | f_name(args) | expr (+|-|*|/) expr  (left assoc,
    /// no precedence — the paper never mixes operators in one expression).
    fn parse_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_primary_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => ArithOp::Add,
                Some(Tok::Minus) => ArithOp::Sub,
                Some(Tok::Star) => ArithOp::Mul,
                Some(Tok::Slash) => ArithOp::Div,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_primary_expr()?;
            lhs = Expr::BinOp { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn parse_primary_expr(&mut self) -> Result<Expr> {
        // Function call?
        if let (Some(Tok::Ident(_)), Some(Tok::LParen)) = (self.peek(), self.peek2()) {
            let Some(Tok::Ident(name)) = self.bump() else {
                return Err(self.err_here("expected a function name"));
            };
            self.expect(Tok::LParen, "'('")?;
            let mut args = Vec::new();
            if self.peek() != Some(&Tok::RParen) {
                loop {
                    args.push(self.parse_expr()?);
                    if self.peek() == Some(&Tok::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            self.expect(Tok::RParen, "')' closing call")?;
            return Ok(Expr::Call { func: name, args });
        }
        Ok(Expr::Term(self.parse_term()?))
    }
}

fn starts_upper(s: &str) -> bool {
    s.chars().next().map(|c| c.is_ascii_uppercase()).unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_network_reachability() {
        let src = r#"
            // Network-Reachability query (paper section 3.2)
            NR1: path(@S,D,P,C) :- link(@S,D,C), P = f_initPath(S,D).
            NR2: path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2),
                 C = C1 + C2, P = f_prepend(S,P2), f_inPath(P2,S) = false.
            Query: path(@S,D,P,C).
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.queries.len(), 1);
        let nr1 = p.rule("NR1").unwrap();
        assert_eq!(nr1.head.relation, "path");
        assert_eq!(nr1.head.location, Some(0));
        assert_eq!(nr1.body.len(), 2);
        let nr2 = p.rule("NR2").unwrap();
        assert_eq!(nr2.body.len(), 5);
        assert!(nr2.is_directly_recursive());
        // last literal is the cycle check comparison
        match &nr2.body[4] {
            Literal::Compare { op, lhs, rhs } => {
                assert_eq!(*op, CompareOp::Eq);
                assert!(matches!(lhs, Expr::Call { func, .. } if func == "f_inPath"));
                assert_eq!(rhs, &Expr::constant(false));
            }
            other => panic!("expected comparison, got {other:?}"),
        }
    }

    #[test]
    fn parses_aggregates_in_head() {
        let src = "BPR1: bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).";
        let p = parse_program(src).unwrap();
        let head = &p.rules[0].head;
        assert!(head.has_aggregate());
        let (f, v, i) = head.aggregate().unwrap();
        assert_eq!(f, AggFunc::Min);
        assert_eq!(v, "C");
        assert_eq!(i, 2);
    }

    #[test]
    fn parses_negation_and_inequality() {
        let src = r#"
            BPPS1: path(@S,D,P,C) :- magicDst(@D3), path(@S,Z,P1,C1), link(@Z,D,C2),
                   !bestPathCache(@Z,D3,P3,C3), C = C1 + C2, P = f_append(P1,D).
            DV2: path(@S,D,Z,C) :- link(@S,Z,C1), path(@Z,D,W,C2), C = C1 + C2, W != S.
        "#;
        let p = parse_program(src).unwrap();
        let bpps1 = p.rule("BPPS1").unwrap();
        assert!(bpps1
            .body
            .iter()
            .any(|l| matches!(l, Literal::NegAtom(a) if a.relation == "bestPathCache")));
        let dv2 = p.rule("DV2").unwrap();
        assert!(dv2.body.iter().any(|l| matches!(l, Literal::Compare { op: CompareOp::Ne, .. })));
    }

    #[test]
    fn parses_constants() {
        let src = r#"
            magicSources(#2).
            magicSources(#3).
            f1: p(@X,C) :- q(@X), C = 5.
            f2: r(@X,C) :- q(@X), C = 2.5.
            f3: s(@X,P) :- q(@X), P = nil.
            f4: t(@X,C) :- q(@X), C = infinity.
            f5: u(@X,G) :- q(@X), G = "group1".
            f6: v(@X,G) :- q(@X), G = gid.
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.rules.len(), 8);
        assert!(p.rules[0].is_fact());
        assert_eq!(
            p.rules[0].head.terms[0],
            HeadTerm::Plain(Term::Const(Value::Node(NodeId::new(2))))
        );
        let c5 = p.rule("f1").unwrap();
        assert!(matches!(
            &c5.body[1],
            Literal::Assign { expr: Expr::Term(Term::Const(Value::Int(5))), .. }
        ));
        let f4 = p.rule("f4").unwrap();
        assert!(matches!(
            &f4.body[1],
            Literal::Assign { expr: Expr::Term(Term::Const(Value::Cost(c))), .. } if c.is_infinite()
        ));
        let f5 = p.rule("f5").unwrap();
        assert!(matches!(
            &f5.body[1],
            Literal::Assign { expr: Expr::Term(Term::Const(Value::Str(_))), .. }
        ));
        let f6 = p.rule("f6").unwrap();
        assert!(matches!(
            &f6.body[1],
            Literal::Assign { expr: Expr::Term(Term::Const(Value::Str(_))), .. }
        ));
    }

    #[test]
    fn parses_key_pragma() {
        let src = r#"
            #key(nextHop, 0, 1).
            #key(link, 0, 1).
            DV4: nextHop(@S,D,Z,C) :- path(@S,D,Z,C), shortestCost(@S,D,C).
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.key_pragmas.len(), 2);
        assert_eq!(p.key_pragmas[0], ("nextHop".to_string(), vec![0, 1]));
    }

    #[test]
    fn anonymous_variables_are_fresh() {
        let src = "r1: out(@X) :- q(@X,_,_).";
        let p = parse_program(src).unwrap();
        let atom = p.rules[0].body[0].as_atom().unwrap();
        let v1 = atom.terms[1].as_var().unwrap();
        let v2 = atom.terms[2].as_var().unwrap();
        assert_ne!(v1, v2);
    }

    #[test]
    fn arithmetic_chains_are_left_associative() {
        let src = "r1: p(@X,C) :- q(@X,A,B), C = A + B + 1.";
        let p = parse_program(src).unwrap();
        match &p.rules[0].body[1] {
            Literal::Assign { expr: Expr::BinOp { op: ArithOp::Add, lhs, .. }, .. } => {
                assert!(matches!(**lhs, Expr::BinOp { op: ArithOp::Add, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn query_statement_is_captured() {
        let p = parse_program("Query: nextHop(@S,D,Z,C).").unwrap();
        assert!(p.rules.is_empty());
        assert_eq!(p.queries.len(), 1);
        assert_eq!(p.queries[0].relation, "nextHop");
        assert_eq!(p.queries[0].location, Some(0));
    }

    #[test]
    fn query_with_bound_constant() {
        let p = parse_program("Query: path(@#7, D, P, C).").unwrap();
        assert_eq!(p.queries[0].terms[0], Term::Const(Value::Node(NodeId::new(7))));
    }

    #[test]
    fn error_reports_position() {
        let err = parse_program("r1: p(@X) :- q(@X)").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line"), "got: {msg}");

        assert!(parse_program("r1: p(@X :- q(@X).").is_err());
        assert!(parse_program("r1: p(@X) :- .").is_err());
        assert!(parse_program("#bogus(p).").is_err());
        assert!(parse_program("r1: p(@X) :- q(@X), $.").is_err());
        assert!(parse_program(r#"r1: p(@X) :- q(@X), Y = "unterminated."#).is_err());
    }

    #[test]
    fn comments_are_skipped() {
        let src = r#"
            % prolog style comment
            // C style comment
            r1: p(@X) :- q(@X). // trailing comment
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.rules.len(), 1);
    }

    #[test]
    fn parse_rule_helper() {
        let r = parse_rule("DV1: path(@S,D,D,C) :- link(@S,D,C).").unwrap();
        assert_eq!(r.name.as_deref(), Some("DV1"));
        assert_eq!(r.head.arity(), 4);
        assert!(parse_rule("// nothing").is_err());
    }

    #[test]
    fn display_roundtrip_reparses() {
        let src = r#"
            NR1: path(@S,D,P,C) :- link(@S,D,C), P = f_initPath(S,D).
            NR2: path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2),
                 C = C1 + C2, P = f_prepend(S,P2), f_inPath(P2,S) = false.
            BPR1: bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).
            BPR2: bestPath(@S,D,P,C) :- bestPathCost(@S,D,C), path(@S,D,P,C).
            Query: bestPath(@S,D,P,C).
        "#;
        let p1 = parse_program(src).unwrap();
        let printed = p1.to_string();
        let p2 = parse_program(&printed).unwrap();
        assert_eq!(p1.rules.len(), p2.rules.len());
        assert_eq!(p1.queries, p2.queries);
        for (a, b) in p1.rules.iter().zip(p2.rules.iter()) {
            assert_eq!(a.head, b.head);
            assert_eq!(a.body.len(), b.body.len());
        }
    }

    #[test]
    fn multiple_at_annotations_rejected() {
        assert!(parse_program("r1: p(@X,@Y) :- q(@X,Y).").is_err());
        assert!(parse_program("r1: p(X,Y) :- q(@X,@Y).").is_err());
    }
}
