//! The shared guard-function library distributed with a deployment.
//!
//! Guards like `domestic(destination)` reference predicates the composer
//! supplies. In the original platform this code shipped inside the
//! downloaded `Coordinator` class; here a [`FunctionLibrary`] is cloned
//! into every coordinator and wrapper at deployment time.

use selfserv_expr::{Env, EvalError, NativeFn, Value};
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Arc;

/// A named collection of native guard functions. Cheap to clone.
#[derive(Clone, Default)]
pub struct FunctionLibrary {
    fns: HashMap<String, NativeFn>,
}

impl FunctionLibrary {
    /// An empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a function.
    pub fn register<F>(&mut self, name: impl Into<String>, f: F)
    where
        F: Fn(&[Value]) -> Result<Value, EvalError> + Send + Sync + 'static,
    {
        self.fns.insert(name.into(), Arc::new(f));
    }

    /// Registered function names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.fns.keys().cloned().collect();
        names.sort();
        names
    }

    /// True when `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.fns.contains_key(name)
    }

    /// An evaluation environment that reads `vars` in place, with the
    /// builtin function set plus this library (a library function shadows
    /// a builtin of the same name). Building it copies nothing.
    pub fn env<'a>(&'a self, vars: &'a BTreeMap<String, Value>) -> InstanceEnv<'a> {
        InstanceEnv {
            vars,
            functions: self,
        }
    }

    /// The travel scenario's predicate library:
    /// [`selfserv_statechart::travel::domestic`] and
    /// [`selfserv_statechart::travel::near`].
    pub fn travel() -> Self {
        let mut lib = Self::new();
        lib.register("domestic", selfserv_statechart::travel::domestic);
        lib.register("near", selfserv_statechart::travel::near);
        lib
    }
}

/// An instance's variables and a [`FunctionLibrary`], borrowed for the
/// evaluation of guards, actions and input mappings. Names resolve by
/// [`selfserv_expr::resolve`], as in [`selfserv_expr::MapEnv`].
pub struct InstanceEnv<'a> {
    vars: &'a BTreeMap<String, Value>,
    functions: &'a FunctionLibrary,
}

impl Env for InstanceEnv<'_> {
    fn get_var(&self, path: &[String]) -> Option<Value> {
        selfserv_expr::resolve(path, |name| self.vars.get(name))
    }

    fn call(&self, name: &str, args: &[Value]) -> Result<Value, EvalError> {
        if let Some(f) = self.functions.fns.get(name) {
            return f(args);
        }
        match selfserv_expr::builtin(name) {
            Some(f) => f(args),
            None => Err(EvalError::UnknownFunction(name.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfserv_expr::parse;

    #[test]
    fn env_includes_vars_builtins_and_library() {
        let mut lib = FunctionLibrary::new();
        lib.register("double", |args| {
            Ok(Value::Int(args[0].as_f64().unwrap_or(0.0) as i64 * 2))
        });
        let mut vars = BTreeMap::new();
        vars.insert("x".to_string(), Value::Int(21));
        let env = lib.env(&vars);
        assert_eq!(
            parse("double(x)").unwrap().eval(&env).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            parse("len(\"ab\")").unwrap().eval(&env).unwrap(),
            Value::Int(2)
        );
    }

    /// The borrowed environment resolves every name exactly as a
    /// `MapEnv` loaded with the same variables and library does.
    #[test]
    fn instance_env_resolves_names_as_map_env_does() {
        use selfserv_expr::MapEnv;
        let mut lib = FunctionLibrary::travel();
        lib.register("double", |args| {
            Ok(Value::Int(args[0].as_f64().unwrap_or(0.0) as i64 * 2))
        });
        // A library function shadows the builtin of the same name.
        lib.register("len", |_| Ok(Value::Int(-1)));
        let mut vars = BTreeMap::new();
        vars.insert("x".to_string(), Value::Int(21));
        vars.insert("destination".to_string(), Value::str("Perth"));
        vars.insert("booking".to_string(), Value::str("whole record"));
        vars.insert("booking.price".to_string(), Value::Int(99));
        vars.insert("maybe".to_string(), Value::Null);
        let mut map_env = MapEnv::with_builtins();
        for (k, v) in &vars {
            map_env.set(k.clone(), v.clone());
        }
        for (name, f) in &lib.fns {
            map_env.register_shared(name.clone(), Arc::clone(f));
        }
        let env = lib.env(&vars);
        for src in [
            "booking.price",
            "booking.missing",
            "booking",
            "x.y.z",
            "ghost",
            "ghost.field",
            "x * 2 + 1",
            "min(3, 5.5)",
            "max(x, 30)",
            "abs(-4)",
            "upper(destination)",
            "contains(destination, \"er\")",
            "starts_with(destination, \"P\")",
            "ends_with(destination, \"h\")",
            "lower(\"AB\")",
            "defined(maybe)",
            "min(1)",
            "upper(3)",
            "len(destination)",
            "double(x)",
            "domestic(destination)",
            "near(\"Blue Mountains\", destination)",
            "nope(1)",
        ] {
            let expr = parse(src).unwrap();
            assert_eq!(expr.eval(&env), expr.eval(&map_env), "{src}");
        }
        assert_eq!(
            parse("len(destination)").unwrap().eval(&env),
            Ok(Value::Int(-1))
        );
        assert_eq!(
            parse("booking.missing").unwrap().eval(&env),
            Ok(Value::str("whole record"))
        );
        assert_eq!(
            parse("nope(1)").unwrap().eval(&env),
            Err(EvalError::UnknownFunction("nope".into()))
        );
        assert_eq!(
            parse("ghost.field").unwrap().eval(&env),
            Err(EvalError::UndefinedVariable("ghost.field".into()))
        );
    }

    #[test]
    fn names_and_contains() {
        let lib = FunctionLibrary::travel();
        assert!(lib.contains("domestic"));
        assert!(lib.contains("near"));
        assert_eq!(
            lib.names(),
            vec!["domestic".to_string(), "near".to_string()]
        );
    }

    #[test]
    fn travel_predicates_work() {
        let lib = FunctionLibrary::travel();
        let mut vars = BTreeMap::new();
        vars.insert("destination".to_string(), Value::str("Perth"));
        let env = lib.env(&vars);
        assert_eq!(
            parse("domestic(destination)").unwrap().eval(&env).unwrap(),
            Value::Bool(true)
        );
        vars.insert("destination".to_string(), Value::str("Tokyo"));
        let env = lib.env(&vars);
        assert_eq!(
            parse("domestic(destination)").unwrap().eval(&env).unwrap(),
            Value::Bool(false)
        );
    }
}
