//! Evaluation of guard expressions against an environment.

use crate::ast::{BinOp, Expr, UnOp};
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Errors produced while evaluating an expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A variable was not bound in the environment.
    UndefinedVariable(String),
    /// A function was not registered in the environment.
    UnknownFunction(String),
    /// An operator was applied to operands of the wrong type.
    TypeMismatch {
        /// The operation attempted.
        op: String,
        /// Description of the operand types found.
        found: String,
    },
    /// A function was called with the wrong number of arguments.
    ArityMismatch {
        /// Function name.
        function: String,
        /// Expected argument count.
        expected: usize,
        /// Actual argument count.
        found: usize,
    },
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// A registered function reported a domain error.
    FunctionError {
        /// Function name.
        function: String,
        /// The function's message.
        message: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UndefinedVariable(v) => write!(f, "undefined variable '{v}'"),
            EvalError::UnknownFunction(n) => write!(f, "unknown function '{n}'"),
            EvalError::TypeMismatch { op, found } => {
                write!(f, "type mismatch: cannot apply {op} to {found}")
            }
            EvalError::ArityMismatch {
                function,
                expected,
                found,
            } => write!(
                f,
                "function '{function}' expects {expected} argument(s), got {found}"
            ),
            EvalError::DivisionByZero => write!(f, "division by zero"),
            EvalError::FunctionError { function, message } => {
                write!(f, "function '{function}' failed: {message}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// Resolution of variables and functions during evaluation.
///
/// Coordinators implement this over the variable set of a composite-service
/// instance; tests and examples use [`MapEnv`].
pub trait Env {
    /// Resolves a dotted variable path (e.g. `["booking", "price"]`).
    fn get_var(&self, path: &[String]) -> Option<Value>;

    /// Calls a registered predicate/function.
    fn call(&self, name: &str, args: &[Value]) -> Result<Value, EvalError>;
}

/// Signature of registered functions.
pub type NativeFn = Arc<dyn Fn(&[Value]) -> Result<Value, EvalError> + Send + Sync>;

/// A hash-map-backed [`Env`] with a function registry.
///
/// Dotted paths resolve against the flat map using the joined name
/// (`"booking.price"`), falling back to the first segment so that an entire
/// record stored under `booking` does not shadow a specific entry.
///
/// The standard library of guard functions (see [`MapEnv::with_builtins`])
/// covers the generic predicates used across the examples; domain predicates
/// such as `domestic` or `near` are registered by the application, exactly
/// as the original platform required the composer to supply condition
/// evaluation code.
#[derive(Clone, Default)]
pub struct MapEnv {
    vars: HashMap<String, Value>,
    fns: HashMap<String, NativeFn>,
}

impl MapEnv {
    /// An empty environment (no variables, no functions).
    pub fn new() -> Self {
        Self::default()
    }

    /// An environment pre-loaded with the builtin function library:
    /// `len`, `contains`, `starts_with`, `ends_with`, `lower`, `upper`,
    /// `min`, `max`, `abs`, `defined`.
    pub fn with_builtins() -> Self {
        let mut env = Self::new();
        env.register_builtins();
        env
    }

    /// Binds a variable.
    pub fn set(&mut self, name: impl Into<String>, value: Value) {
        self.vars.insert(name.into(), value);
    }

    /// Removes a variable binding.
    pub fn unset(&mut self, name: &str) {
        self.vars.remove(name);
    }

    /// Copies all bindings from an iterator.
    pub fn set_all(&mut self, vars: impl IntoIterator<Item = (String, Value)>) {
        self.vars.extend(vars);
    }

    /// Registers a native function under `name`.
    pub fn register_fn<F>(&mut self, name: impl Into<String>, f: F)
    where
        F: Fn(&[Value]) -> Result<Value, EvalError> + Send + Sync + 'static,
    {
        self.fns.insert(name.into(), Arc::new(f));
    }

    /// Registers a pre-wrapped native function (used to share registries).
    pub fn register_shared(&mut self, name: impl Into<String>, f: NativeFn) {
        self.fns.insert(name.into(), f);
    }

    /// Returns the registered function names (sorted), for diagnostics.
    pub fn function_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.fns.keys().cloned().collect();
        names.sort();
        names
    }

    /// Read access to the variable map.
    pub fn vars(&self) -> &HashMap<String, Value> {
        &self.vars
    }

    fn register_builtins(&mut self) {
        for (name, f) in BUILTINS {
            self.register_fn(name, f);
        }
    }
}

/// Resolves a variable path through `lookup`, the naming rule every
/// [`Env`] over named variables follows: a single name is looked up as
/// is; a dotted path looks up the joined name first, then falls back to a
/// record under its first segment.
pub fn resolve<'v>(path: &[String], lookup: impl Fn(&str) -> Option<&'v Value>) -> Option<Value> {
    match path {
        [name] => lookup(name),
        _ => lookup(&path.join(".")).or_else(|| path.first().and_then(|first| lookup(first))),
    }
    .cloned()
}

/// Signature of a builtin function.
pub type BuiltinFn = fn(&[Value]) -> Result<Value, EvalError>;

/// The builtin function named `name` (see [`MapEnv::with_builtins`] for
/// the set). The table is static, so an environment that resolves calls
/// through it builds nothing per evaluation.
pub fn builtin(name: &str) -> Option<BuiltinFn> {
    BUILTINS.iter().find(|(n, _)| *n == name).map(|(_, f)| *f)
}

fn arity(function: &str, expected: usize, args: &[Value]) -> Result<(), EvalError> {
    if args.len() != expected {
        Err(EvalError::ArityMismatch {
            function: function.to_string(),
            expected,
            found: args.len(),
        })
    } else {
        Ok(())
    }
}

/// The builtin function library, by name.
const BUILTINS: [(&str, BuiltinFn); 10] = [
    ("len", |args| {
        arity("len", 1, args)?;
        match &args[0] {
            Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
            Value::List(l) => Ok(Value::Int(l.len() as i64)),
            other => Err(EvalError::TypeMismatch {
                op: "len".into(),
                found: other.type_name().into(),
            }),
        }
    }),
    ("contains", |args| {
        arity("contains", 2, args)?;
        match (&args[0], &args[1]) {
            (Value::Str(hay), Value::Str(needle)) => Ok(Value::Bool(hay.contains(needle))),
            (Value::List(items), needle) => {
                Ok(Value::Bool(items.iter().any(|i| i.loose_eq(needle))))
            }
            (a, b) => Err(EvalError::TypeMismatch {
                op: "contains".into(),
                found: format!("{}, {}", a.type_name(), b.type_name()),
            }),
        }
    }),
    ("starts_with", |args| {
        arity("starts_with", 2, args)?;
        match (&args[0], &args[1]) {
            (Value::Str(s), Value::Str(p)) => Ok(Value::Bool(s.starts_with(p.as_str()))),
            (a, b) => Err(EvalError::TypeMismatch {
                op: "starts_with".into(),
                found: format!("{}, {}", a.type_name(), b.type_name()),
            }),
        }
    }),
    ("ends_with", |args| {
        arity("ends_with", 2, args)?;
        match (&args[0], &args[1]) {
            (Value::Str(s), Value::Str(p)) => Ok(Value::Bool(s.ends_with(p.as_str()))),
            (a, b) => Err(EvalError::TypeMismatch {
                op: "ends_with".into(),
                found: format!("{}, {}", a.type_name(), b.type_name()),
            }),
        }
    }),
    ("lower", |args| {
        arity("lower", 1, args)?;
        match &args[0] {
            Value::Str(s) => Ok(Value::Str(s.to_lowercase())),
            other => Err(EvalError::TypeMismatch {
                op: "lower".into(),
                found: other.type_name().into(),
            }),
        }
    }),
    ("upper", |args| {
        arity("upper", 1, args)?;
        match &args[0] {
            Value::Str(s) => Ok(Value::Str(s.to_uppercase())),
            other => Err(EvalError::TypeMismatch {
                op: "upper".into(),
                found: other.type_name().into(),
            }),
        }
    }),
    ("min", |args| {
        arity("min", 2, args)?;
        numeric_pair("min", &args[0], &args[1], |a, b| a.min(b))
    }),
    ("max", |args| {
        arity("max", 2, args)?;
        numeric_pair("max", &args[0], &args[1], |a, b| a.max(b))
    }),
    ("abs", |args| {
        arity("abs", 1, args)?;
        match &args[0] {
            Value::Int(i) => Ok(Value::Int(i.abs())),
            Value::Float(f) => Ok(Value::Float(f.abs())),
            other => Err(EvalError::TypeMismatch {
                op: "abs".into(),
                found: other.type_name().into(),
            }),
        }
    }),
    ("defined", |args| {
        arity("defined", 1, args)?;
        Ok(Value::Bool(!matches!(args[0], Value::Null)))
    }),
];

fn numeric_pair(
    op: &str,
    a: &Value,
    b: &Value,
    f: impl Fn(f64, f64) -> f64,
) -> Result<Value, EvalError> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(Value::Int(f(*x as f64, *y as f64) as i64)),
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => Ok(Value::Float(f(x, y))),
            _ => Err(EvalError::TypeMismatch {
                op: op.to_string(),
                found: format!("{}, {}", a.type_name(), b.type_name()),
            }),
        },
    }
}

impl Env for MapEnv {
    fn get_var(&self, path: &[String]) -> Option<Value> {
        resolve(path, |name| self.vars.get(name))
    }

    fn call(&self, name: &str, args: &[Value]) -> Result<Value, EvalError> {
        match self.fns.get(name) {
            Some(f) => f(args),
            None => Err(EvalError::UnknownFunction(name.to_string())),
        }
    }
}

impl Expr {
    /// Evaluates the expression in `env`.
    ///
    /// `and`/`or` short-circuit and require boolean operands; arithmetic
    /// promotes int to float; `==`/`!=` use [`Value::loose_eq`]; ordering is
    /// defined for numbers and for strings.
    pub fn eval(&self, env: &dyn Env) -> Result<Value, EvalError> {
        match self {
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Var(path) => env
                .get_var(path)
                .ok_or_else(|| EvalError::UndefinedVariable(path.join("."))),
            Expr::Call { name, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.eval(env)?);
                }
                env.call(name, &vals)
            }
            Expr::Unary { op, expr } => {
                let v = expr.eval(env)?;
                match op {
                    UnOp::Not => match v {
                        Value::Bool(b) => Ok(Value::Bool(!b)),
                        other => Err(EvalError::TypeMismatch {
                            op: "not".into(),
                            found: other.type_name().into(),
                        }),
                    },
                    UnOp::Neg => match v {
                        Value::Int(i) => Ok(Value::Int(-i)),
                        Value::Float(f) => Ok(Value::Float(-f)),
                        other => Err(EvalError::TypeMismatch {
                            op: "-".into(),
                            found: other.type_name().into(),
                        }),
                    },
                }
            }
            Expr::Binary { op, left, right } => match op {
                BinOp::And => match left.eval(env)? {
                    Value::Bool(false) => Ok(Value::Bool(false)),
                    Value::Bool(true) => expect_bool("and", right.eval(env)?),
                    other => Err(EvalError::TypeMismatch {
                        op: "and".into(),
                        found: other.type_name().into(),
                    }),
                },
                BinOp::Or => match left.eval(env)? {
                    Value::Bool(true) => Ok(Value::Bool(true)),
                    Value::Bool(false) => expect_bool("or", right.eval(env)?),
                    other => Err(EvalError::TypeMismatch {
                        op: "or".into(),
                        found: other.type_name().into(),
                    }),
                },
                BinOp::Eq => Ok(Value::Bool(left.eval(env)?.loose_eq(&right.eval(env)?))),
                BinOp::Ne => Ok(Value::Bool(!left.eval(env)?.loose_eq(&right.eval(env)?))),
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    let l = left.eval(env)?;
                    let r = right.eval(env)?;
                    let ord = compare(*op, &l, &r)?;
                    Ok(Value::Bool(ord))
                }
                BinOp::Add => {
                    let l = left.eval(env)?;
                    let r = right.eval(env)?;
                    match (&l, &r) {
                        (Value::Str(a), Value::Str(b)) => {
                            let mut s = String::with_capacity(a.len() + b.len());
                            s.push_str(a);
                            s.push_str(b);
                            Ok(Value::Str(s))
                        }
                        (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_add(*b))),
                        _ => arith("+", &l, &r, |a, b| a + b),
                    }
                }
                BinOp::Sub => {
                    let l = left.eval(env)?;
                    let r = right.eval(env)?;
                    if let (Value::Int(a), Value::Int(b)) = (&l, &r) {
                        return Ok(Value::Int(a.wrapping_sub(*b)));
                    }
                    arith("-", &l, &r, |a, b| a - b)
                }
                BinOp::Mul => {
                    let l = left.eval(env)?;
                    let r = right.eval(env)?;
                    if let (Value::Int(a), Value::Int(b)) = (&l, &r) {
                        return Ok(Value::Int(a.wrapping_mul(*b)));
                    }
                    arith("*", &l, &r, |a, b| a * b)
                }
                BinOp::Div => {
                    let l = left.eval(env)?;
                    let r = right.eval(env)?;
                    if let (Value::Int(a), Value::Int(b)) = (&l, &r) {
                        if *b == 0 {
                            return Err(EvalError::DivisionByZero);
                        }
                        return Ok(Value::Int(a.wrapping_div(*b)));
                    }
                    arith("/", &l, &r, |a, b| a / b)
                }
                BinOp::Rem => {
                    let l = left.eval(env)?;
                    let r = right.eval(env)?;
                    if let (Value::Int(a), Value::Int(b)) = (&l, &r) {
                        if *b == 0 {
                            return Err(EvalError::DivisionByZero);
                        }
                        return Ok(Value::Int(a.wrapping_rem(*b)));
                    }
                    arith("%", &l, &r, |a, b| a % b)
                }
            },
        }
    }

    /// Evaluates the expression and requires a boolean result — the form
    /// used for guards: routing tables reject non-boolean conditions.
    pub fn eval_bool(&self, env: &dyn Env) -> Result<bool, EvalError> {
        match self.eval(env)? {
            Value::Bool(b) => Ok(b),
            other => Err(EvalError::TypeMismatch {
                op: "guard".into(),
                found: other.type_name().into(),
            }),
        }
    }
}

fn expect_bool(op: &str, v: Value) -> Result<Value, EvalError> {
    match v {
        Value::Bool(_) => Ok(v),
        other => Err(EvalError::TypeMismatch {
            op: op.into(),
            found: other.type_name().into(),
        }),
    }
}

fn arith(op: &str, l: &Value, r: &Value, f: impl Fn(f64, f64) -> f64) -> Result<Value, EvalError> {
    match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => Ok(Value::Float(f(a, b))),
        _ => Err(EvalError::TypeMismatch {
            op: op.to_string(),
            found: format!("{}, {}", l.type_name(), r.type_name()),
        }),
    }
}

fn compare(op: BinOp, l: &Value, r: &Value) -> Result<bool, EvalError> {
    let ord = match (l, r) {
        (Value::Str(a), Value::Str(b)) => a.cmp(b),
        _ => match (l.as_f64(), r.as_f64()) {
            (Some(a), Some(b)) => a.partial_cmp(&b).ok_or(EvalError::TypeMismatch {
                op: op.symbol().into(),
                found: "NaN".into(),
            })?,
            _ => {
                return Err(EvalError::TypeMismatch {
                    op: op.symbol().into(),
                    found: format!("{}, {}", l.type_name(), r.type_name()),
                })
            }
        },
    };
    Ok(match op {
        BinOp::Lt => ord == std::cmp::Ordering::Less,
        BinOp::Le => ord != std::cmp::Ordering::Greater,
        BinOp::Gt => ord == std::cmp::Ordering::Greater,
        BinOp::Ge => ord != std::cmp::Ordering::Less,
        _ => unreachable!("compare called with non-comparison operator"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn env() -> MapEnv {
        let mut e = MapEnv::with_builtins();
        e.set("destination", Value::str("Sydney"));
        e.set("price", Value::Int(120));
        e.set("budget", Value::Float(150.0));
        e.set("confirmed", Value::Bool(true));
        e.set("booking.price", Value::Int(99));
        e.register_fn("domestic", |args| {
            let city = args[0].as_str().unwrap_or("");
            Ok(Value::Bool(matches!(
                city,
                "Sydney" | "Melbourne" | "Brisbane" | "Perth"
            )))
        });
        e
    }

    fn eval_str(s: &str) -> Result<Value, EvalError> {
        parse(s).unwrap().eval(&env())
    }

    #[test]
    fn evaluates_paper_guard() {
        assert_eq!(
            eval_str("domestic(destination)").unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_str("not domestic(destination)").unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn arithmetic_and_comparison() {
        assert_eq!(eval_str("price + 30 <= budget").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("price * 2 > budget").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("7 % 3").unwrap(), Value::Int(1));
        assert_eq!(eval_str("7 / 2").unwrap(), Value::Int(3));
        assert_eq!(eval_str("7.0 / 2").unwrap(), Value::Float(3.5));
    }

    #[test]
    fn string_operations() {
        assert_eq!(eval_str("\"syd\" + \"ney\"").unwrap(), Value::str("sydney"));
        assert_eq!(
            eval_str("lower(destination) == \"sydney\"").unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_str("starts_with(destination, \"Syd\")").unwrap(),
            Value::Bool(true)
        );
        assert_eq!(eval_str("len(destination)").unwrap(), Value::Int(6));
        assert_eq!(
            eval_str("destination < \"Tokyo\"").unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn short_circuit_skips_errors() {
        // `missing` is undefined but never evaluated.
        assert_eq!(eval_str("false and missing").unwrap(), Value::Bool(false));
        assert_eq!(eval_str("true or missing").unwrap(), Value::Bool(true));
        // but is evaluated when reached
        assert!(matches!(
            eval_str("true and missing"),
            Err(EvalError::UndefinedVariable(v)) if v == "missing"
        ));
    }

    #[test]
    fn loose_numeric_equality() {
        assert_eq!(eval_str("price == 120.0").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("price != 121").unwrap(), Value::Bool(true));
    }

    #[test]
    fn dotted_variable_resolution() {
        assert_eq!(eval_str("booking.price == 99").unwrap(), Value::Bool(true));
    }

    #[test]
    fn division_by_zero() {
        assert_eq!(eval_str("1 / 0"), Err(EvalError::DivisionByZero));
        assert_eq!(eval_str("1 % 0"), Err(EvalError::DivisionByZero));
        // Float division by zero yields inf, matching IEEE semantics.
        assert_eq!(eval_str("1.0 / 0").unwrap(), Value::Float(f64::INFINITY));
    }

    #[test]
    fn type_errors_are_reported() {
        assert!(matches!(
            eval_str("1 and true"),
            Err(EvalError::TypeMismatch { .. })
        ));
        assert!(matches!(
            eval_str("not 3"),
            Err(EvalError::TypeMismatch { .. })
        ));
        assert!(matches!(
            eval_str("\"a\" - 1"),
            Err(EvalError::TypeMismatch { .. })
        ));
        assert!(matches!(
            eval_str("true < false"),
            Err(EvalError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn unknown_function() {
        assert_eq!(
            eval_str("nope(1)"),
            Err(EvalError::UnknownFunction("nope".into()))
        );
    }

    #[test]
    fn builtin_arity_checked() {
        assert!(matches!(
            eval_str("len()"),
            Err(EvalError::ArityMismatch { .. })
        ));
        assert!(matches!(
            eval_str("min(1)"),
            Err(EvalError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn builtin_min_max_abs() {
        assert_eq!(eval_str("min(3, 5)").unwrap(), Value::Int(3));
        assert_eq!(eval_str("max(3, 5.5)").unwrap(), Value::Float(5.5));
        assert_eq!(eval_str("abs(-4)").unwrap(), Value::Int(4));
    }

    #[test]
    fn builtin_contains_on_lists_and_strings() {
        assert_eq!(eval_str("contains([1,2,3], 2)").unwrap(), Value::Bool(true));
        assert_eq!(
            eval_str("contains([1,2,3], 2.0)").unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_str("contains(\"Sydney\", \"dn\")").unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn builtin_defined() {
        assert_eq!(eval_str("defined(destination)").unwrap(), Value::Bool(true));
        let mut e = env();
        e.set("maybe", Value::Null);
        assert_eq!(
            parse("defined(maybe)").unwrap().eval(&e).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn eval_bool_rejects_non_boolean_guards() {
        let g = parse("price + 1").unwrap();
        assert!(matches!(
            g.eval_bool(&env()),
            Err(EvalError::TypeMismatch { .. })
        ));
        let g2 = parse("confirmed").unwrap();
        assert!(g2.eval_bool(&env()).unwrap());
    }

    #[test]
    fn eval_error_display() {
        let e = EvalError::ArityMismatch {
            function: "f".into(),
            expected: 2,
            found: 1,
        };
        assert!(e.to_string().contains("expects 2"));
    }
}
