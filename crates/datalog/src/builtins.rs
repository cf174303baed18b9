//! Built-in function library.
//!
//! The paper augments core Datalog with "a limited set of function calls ...
//! including boolean predicates, arithmetic computations and simple list
//! manipulation" (§3.1). This module implements every function used by the
//! paper's example programs plus a few generic helpers, and lets callers
//! register additional functions (the extensibility hook mentioned in §6).
//!
//! | Paper | Here | Meaning |
//! |---|---|---|
//! | `f_concatPath(link(S,D,C), nil)` | `f_initPath(S,D)` | one-hop path `[S,D]` |
//! | `f_concatPath(link(S,Z,C), P2)` | `f_prepend(S,P2)` | prepend link source |
//! | `f_concatPath(P1, link(Z,D,C))` | `f_append(P1,D)` | append link destination |
//! | `f_concatPath(P1, P2)` | `f_concat(P1,P2)` | splice two path vectors |
//! | `f_inPath(P,S)` | `f_inPath(P,S)` | membership test |
//! | `f_head(P)` / `f_tail(P)` / `f_isEmpty(P)` | same | list inspection |
//! | `f_compute(C1,C2)` | `f_sum` / `f_min` / `f_max` | metric composition |
//! | `f_size(P)` | `f_size(P)` | number of nodes in path |

use crate::ast::ArithOp;
use dr_types::hash::HashMap;
use dr_types::{Cost, Error, PathVector, Result, Value};
use std::sync::Arc;

/// Signature of a built-in function: total over well-typed inputs, returning
/// an [`Error::Eval`] on arity or type mismatch.
pub type BuiltinFn = Arc<dyn Fn(&[Value]) -> Result<Value> + Send + Sync>;

/// A registry of built-in functions, preloaded with the paper's `f_*`
/// library. Cloning shares the registrations.
#[derive(Clone)]
pub struct Builtins {
    funcs: HashMap<String, BuiltinFn>,
}

impl std::fmt::Debug for Builtins {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&str> = self.funcs.keys().map(String::as_str).collect();
        names.sort_unstable();
        f.debug_struct("Builtins").field("functions", &names).finish()
    }
}

fn arity_err(name: &str, want: usize, got: usize) -> Error {
    Error::eval(format!("{name}: expected {want} arguments, got {got}"))
}

fn type_err(name: &str, want: &str, got: &Value) -> Error {
    Error::eval(format!("{name}: expected {want}, got {} ({got})", got.type_name()))
}

fn need_path<'a>(name: &str, v: &'a Value) -> Result<&'a PathVector> {
    v.as_path().ok_or_else(|| type_err(name, "path", v))
}

fn need_node(name: &str, v: &Value) -> Result<dr_types::NodeId> {
    v.as_node().ok_or_else(|| type_err(name, "node", v))
}

fn need_cost(name: &str, v: &Value) -> Result<Cost> {
    v.as_cost().ok_or_else(|| type_err(name, "cost", v))
}

impl Default for Builtins {
    fn default() -> Self {
        Builtins::standard()
    }
}

impl Builtins {
    /// An empty registry with no functions at all (useful for testing the
    /// "core Datalog" polynomial fragment of §6).
    pub fn empty() -> Builtins {
        Builtins { funcs: HashMap::default() }
    }

    /// The standard library used by the paper's programs.
    pub fn standard() -> Builtins {
        let mut b = Builtins::empty();

        b.register("f_initPath", |args| {
            if args.len() != 2 {
                return Err(arity_err("f_initPath", 2, args.len()));
            }
            let s = need_node("f_initPath", &args[0])?;
            let d = need_node("f_initPath", &args[1])?;
            Ok(Value::Path(PathVector::from_nodes(vec![s, d])))
        });

        b.register("f_prepend", |args| {
            if args.len() != 2 {
                return Err(arity_err("f_prepend", 2, args.len()));
            }
            let n = need_node("f_prepend", &args[0])?;
            let p = need_path("f_prepend", &args[1])?;
            Ok(Value::Path(p.prepend(n)))
        });

        b.register("f_append", |args| {
            if args.len() != 2 {
                return Err(arity_err("f_append", 2, args.len()));
            }
            let p = need_path("f_append", &args[0])?;
            let n = need_node("f_append", &args[1])?;
            Ok(Value::Path(p.append(n)))
        });

        b.register("f_concat", |args| {
            if args.len() != 2 {
                return Err(arity_err("f_concat", 2, args.len()));
            }
            let a = need_path("f_concat", &args[0])?;
            let c = need_path("f_concat", &args[1])?;
            Ok(Value::Path(a.join(c)))
        });

        b.register("f_inPath", |args| {
            if args.len() != 2 {
                return Err(arity_err("f_inPath", 2, args.len()));
            }
            let p = need_path("f_inPath", &args[0])?;
            let n = need_node("f_inPath", &args[1])?;
            Ok(Value::Bool(p.contains(n)))
        });

        b.register("f_head", |args| {
            if args.len() != 1 {
                return Err(arity_err("f_head", 1, args.len()));
            }
            let p = need_path("f_head", &args[0])?;
            p.head().map(Value::Node).ok_or_else(|| Error::eval("f_head: empty path"))
        });

        b.register("f_tail", |args| {
            if args.len() != 1 {
                return Err(arity_err("f_tail", 1, args.len()));
            }
            let p = need_path("f_tail", &args[0])?;
            Ok(Value::Path(p.tail()))
        });

        b.register("f_last", |args| {
            if args.len() != 1 {
                return Err(arity_err("f_last", 1, args.len()));
            }
            let p = need_path("f_last", &args[0])?;
            p.last().map(Value::Node).ok_or_else(|| Error::eval("f_last: empty path"))
        });

        b.register("f_isEmpty", |args| {
            if args.len() != 1 {
                return Err(arity_err("f_isEmpty", 1, args.len()));
            }
            let p = need_path("f_isEmpty", &args[0])?;
            Ok(Value::Bool(p.is_empty()))
        });

        b.register("f_size", |args| {
            if args.len() != 1 {
                return Err(arity_err("f_size", 1, args.len()));
            }
            let p = need_path("f_size", &args[0])?;
            Ok(Value::Int(p.len() as i64))
        });

        b.register("f_hops", |args| {
            if args.len() != 1 {
                return Err(arity_err("f_hops", 1, args.len()));
            }
            let p = need_path("f_hops", &args[0])?;
            Ok(Value::Int(p.hops() as i64))
        });

        b.register("f_hasCycle", |args| {
            if args.len() != 1 {
                return Err(arity_err("f_hasCycle", 1, args.len()));
            }
            let p = need_path("f_hasCycle", &args[0])?;
            Ok(Value::Bool(p.has_cycle()))
        });

        b.register("f_sum", |args| {
            if args.len() != 2 {
                return Err(arity_err("f_sum", 2, args.len()));
            }
            let a = need_cost("f_sum", &args[0])?;
            let c = need_cost("f_sum", &args[1])?;
            Ok(Value::Cost(a + c))
        });

        b.register("f_min", |args| {
            if args.len() != 2 {
                return Err(arity_err("f_min", 2, args.len()));
            }
            let a = need_cost("f_min", &args[0])?;
            let c = need_cost("f_min", &args[1])?;
            Ok(Value::Cost(a.min(c)))
        });

        b.register("f_max", |args| {
            if args.len() != 2 {
                return Err(arity_err("f_max", 2, args.len()));
            }
            let a = need_cost("f_max", &args[0])?;
            let c = need_cost("f_max", &args[1])?;
            Ok(Value::Cost(a.max(c)))
        });

        b
    }

    /// Register (or replace) a function under `name`.
    pub fn register<F>(&mut self, name: impl Into<String>, f: F)
    where
        F: Fn(&[Value]) -> Result<Value> + Send + Sync + 'static,
    {
        self.funcs.insert(name.into(), Arc::new(f));
    }

    /// True when `name` is a registered function.
    pub fn contains(&self, name: &str) -> bool {
        self.funcs.contains_key(name)
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// True when no functions are registered.
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }

    /// The registered implementation of `name`, if any. Compiled rule plans
    /// resolve their function table through this once per evaluation, so the
    /// join loop never hashes a function name.
    pub fn get(&self, name: &str) -> Option<&BuiltinFn> {
        self.funcs.get(name)
    }

    /// Invoke a function by name.
    pub fn call(&self, name: &str, args: &[Value]) -> Result<Value> {
        match self.get(name) {
            Some(f) => f(args),
            None => Err(Error::eval(format!("unknown function {name}"))),
        }
    }

    /// Evaluate a binary arithmetic operator on two values. Costs and
    /// integers mix freely; the result is a [`Value::Cost`] unless both
    /// operands are integers.
    pub fn arith(op: ArithOp, lhs: &Value, rhs: &Value) -> Result<Value> {
        if let (Some(a), Some(b)) = (lhs.as_int(), rhs.as_int()) {
            let r = match op {
                ArithOp::Add => a.checked_add(b),
                ArithOp::Sub => a.checked_sub(b),
                ArithOp::Mul => a.checked_mul(b),
                ArithOp::Div => {
                    if b == 0 {
                        return Err(Error::eval("integer division by zero"));
                    }
                    a.checked_div(b)
                }
            };
            return r.map(Value::Int).ok_or_else(|| Error::eval("integer arithmetic overflow"));
        }
        let a = lhs.as_cost().ok_or_else(|| type_err("arithmetic", "numeric", lhs))?;
        let b = rhs.as_cost().ok_or_else(|| type_err("arithmetic", "numeric", rhs))?;
        let r = match op {
            ArithOp::Add => a.value() + b.value(),
            ArithOp::Sub => a.value() - b.value(),
            ArithOp::Mul => a.value() * b.value(),
            ArithOp::Div => {
                if b.value() == 0.0 {
                    return Err(Error::eval("division by zero"));
                }
                a.value() / b.value()
            }
        };
        Ok(Value::Cost(Cost::new(r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_types::NodeId;

    fn n(i: u32) -> Value {
        Value::Node(NodeId::new(i))
    }

    fn path(ids: &[u32]) -> Value {
        Value::Path(PathVector::from_nodes(ids.iter().map(|&i| NodeId::new(i)).collect()))
    }

    #[test]
    fn standard_library_is_populated() {
        let b = Builtins::standard();
        for f in [
            "f_initPath",
            "f_prepend",
            "f_append",
            "f_concat",
            "f_inPath",
            "f_head",
            "f_tail",
            "f_last",
            "f_isEmpty",
            "f_size",
            "f_hops",
            "f_hasCycle",
            "f_sum",
            "f_min",
            "f_max",
        ] {
            assert!(b.contains(f), "missing builtin {f}");
        }
        assert!(!b.is_empty());
        assert!(Builtins::empty().is_empty());
    }

    #[test]
    fn path_construction_functions() {
        let b = Builtins::standard();
        assert_eq!(b.call("f_initPath", &[n(1), n(2)]).unwrap(), path(&[1, 2]));
        assert_eq!(b.call("f_prepend", &[n(0), path(&[1, 2])]).unwrap(), path(&[0, 1, 2]));
        assert_eq!(b.call("f_append", &[path(&[1, 2]), n(3)]).unwrap(), path(&[1, 2, 3]));
        assert_eq!(b.call("f_concat", &[path(&[1, 2]), path(&[2, 3])]).unwrap(), path(&[1, 2, 3]));
    }

    #[test]
    fn path_inspection_functions() {
        let b = Builtins::standard();
        assert_eq!(b.call("f_inPath", &[path(&[1, 2]), n(2)]).unwrap(), Value::Bool(true));
        assert_eq!(b.call("f_inPath", &[path(&[1, 2]), n(5)]).unwrap(), Value::Bool(false));
        assert_eq!(b.call("f_head", &[path(&[4, 5])]).unwrap(), n(4));
        assert_eq!(b.call("f_last", &[path(&[4, 5])]).unwrap(), n(5));
        assert_eq!(b.call("f_tail", &[path(&[4, 5])]).unwrap(), path(&[5]));
        assert_eq!(b.call("f_isEmpty", &[path(&[])]).unwrap(), Value::Bool(true));
        assert_eq!(b.call("f_size", &[path(&[1, 2, 3])]).unwrap(), Value::Int(3));
        assert_eq!(b.call("f_hops", &[path(&[1, 2, 3])]).unwrap(), Value::Int(2));
        assert_eq!(b.call("f_hasCycle", &[path(&[1, 2, 1])]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn head_of_empty_path_is_an_error() {
        let b = Builtins::standard();
        assert!(b.call("f_head", &[path(&[])]).is_err());
        assert!(b.call("f_last", &[path(&[])]).is_err());
    }

    #[test]
    fn cost_functions() {
        let b = Builtins::standard();
        assert_eq!(
            b.call("f_sum", &[Value::from(1.5), Value::from(2.5)]).unwrap(),
            Value::from(4.0)
        );
        assert_eq!(
            b.call("f_min", &[Value::from(1.5), Value::from(2.5)]).unwrap(),
            Value::from(1.5)
        );
        assert_eq!(b.call("f_max", &[Value::from(1.5), Value::Int(3)]).unwrap(), Value::from(3.0));
        assert_eq!(
            b.call("f_sum", &[Value::Cost(Cost::INFINITY), Value::from(1.0)]).unwrap(),
            Value::Cost(Cost::INFINITY)
        );
    }

    #[test]
    fn arity_and_type_errors() {
        let b = Builtins::standard();
        assert!(b.call("f_initPath", &[n(1)]).is_err());
        assert!(b.call("f_prepend", &[path(&[1]), path(&[2])]).is_err());
        assert!(b.call("f_sum", &[n(1), Value::from(1.0)]).is_err());
        assert!(b.call("f_nonexistent", &[]).is_err());
    }

    #[test]
    fn custom_registration_overrides() {
        let mut b = Builtins::standard();
        b.register("f_double", |args| {
            let c = args[0].as_cost().unwrap();
            Ok(Value::Cost(Cost::new(c.value() * 2.0)))
        });
        assert_eq!(b.call("f_double", &[Value::from(2.0)]).unwrap(), Value::from(4.0));
    }

    #[test]
    fn arithmetic_mixes_int_and_cost() {
        assert_eq!(
            Builtins::arith(ArithOp::Add, &Value::Int(1), &Value::Int(2)).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            Builtins::arith(ArithOp::Add, &Value::Int(1), &Value::from(2.0)).unwrap(),
            Value::from(3.0)
        );
        assert_eq!(
            Builtins::arith(ArithOp::Mul, &Value::from(2.0), &Value::from(3.0)).unwrap(),
            Value::from(6.0)
        );
        assert!(Builtins::arith(ArithOp::Div, &Value::Int(1), &Value::Int(0)).is_err());
        assert!(Builtins::arith(ArithOp::Div, &Value::from(1.0), &Value::from(0.0)).is_err());
        assert!(Builtins::arith(ArithOp::Add, &n(1), &Value::Int(1)).is_err());
    }

    #[test]
    fn subtraction_clamps_costs_at_zero() {
        let r = Builtins::arith(ArithOp::Sub, &Value::from(1.0), &Value::from(5.0)).unwrap();
        assert_eq!(r, Value::Cost(Cost::ZERO));
    }

    #[test]
    fn debug_lists_functions() {
        let b = Builtins::standard();
        let dbg = format!("{b:?}");
        assert!(dbg.contains("f_inPath"));
    }
}
