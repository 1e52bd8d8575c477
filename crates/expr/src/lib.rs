//! # selfserv-expr
//!
//! The guard/condition expression language of the SELF-SERV platform.
//!
//! Statechart transitions in SELF-SERV carry ECA-rule conditions such as
//! `domestic(destination)` or `not near(major_attraction, accommodation)`
//! (Figure 2 of the paper). The service deployer copies these conditions
//! into routing-table preconditions and postprocessings, and coordinators
//! evaluate them at run time against the variables carried inside
//! notification messages.
//!
//! This crate provides:
//!
//! * [`Value`] — the dynamic value type flowing through compositions
//!   (null / bool / int / float / string / list),
//! * [`Expr`] — the expression AST with a round-trippable [`std::fmt::Display`],
//! * [`parse`] — a Pratt parser for the surface syntax,
//! * [`Expr::eval`] — evaluation against an [`Env`] that resolves
//!   variables and (application-registered) predicate functions,
//! * [`MapEnv`] — a ready-made environment backed by hash maps, and
//!   [`builtin`] — the builtin functions it registers, for environments
//!   that resolve calls themselves, and [`resolve`] — the rule by which
//!   a variable path names a variable.
//!
//! ## Syntax
//!
//! ```text
//! expr   := or
//! or     := and ( ('or' | '||') and )*
//! and    := cmp ( ('and' | '&&') cmp )*
//! cmp    := add ( ('=='|'!='|'<'|'<='|'>'|'>=') add )?
//! add    := mul ( ('+'|'-') mul )*
//! mul    := unary ( ('*'|'/'|'%') unary )*
//! unary  := ('not' | '!' | '-') unary | primary
//! primary:= literal | name '(' args ')' | name ('.' name)* | '(' expr ')'
//! ```
//!
//! ## Example
//!
//! ```
//! use selfserv_expr::{parse, MapEnv, Value};
//!
//! let guard = parse("not near(major_attraction, accommodation)").unwrap();
//! let mut env = MapEnv::new();
//! env.set("major_attraction", Value::str("Blue Mountains"));
//! env.set("accommodation", Value::str("Sydney CBD"));
//! env.register_fn("near", |args| {
//!     Ok(Value::Bool(args[0] == args[1])) // toy geography
//! });
//! assert_eq!(guard.eval(&env).unwrap(), Value::Bool(true));
//! ```

mod ast;
mod eval;
mod parser;
mod value;

pub use ast::{BinOp, Expr, UnOp};
pub use eval::{builtin, resolve, BuiltinFn, Env, EvalError, MapEnv, NativeFn};
pub use parser::{parse, ParseError};
pub use value::Value;

#[cfg(test)]
mod proptests;
