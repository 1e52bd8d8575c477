//! Deep structural cases for the routing cascade: compounds inside
//! concurrents inside compounds, and completion cascades that cross two
//! final states with conjoined guards.

use selfserv::core::{Deployer, EchoService, ServiceBackend, SyntheticService};
use selfserv::net::{Network, NetworkConfig};
use selfserv::runtime::Executor;
use selfserv::statechart::{StatechartBuilder, TaskDef, TransitionDef};
use selfserv::wsdl::{MessageDoc, ParamType};
use selfserv_expr::Value;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

fn echo_backends(names: &[&str]) -> HashMap<String, Arc<dyn ServiceBackend>> {
    names
        .iter()
        .map(|n| {
            (
                n.to_string(),
                Arc::new(EchoService::new(*n)) as Arc<dyn ServiceBackend>,
            )
        })
        .collect()
}

/// concurrent(P) { region0: compound(C) { t1 → f }, region1: t2 → f } → t3
#[test]
fn compound_inside_concurrent_executes() {
    let exec = Executor::new(2);
    let sc = StatechartBuilder::new("MixedNest")
        .variable("payload", ParamType::Str)
        .initial("P")
        .concurrent("P", "Parallel", vec![("left", "C"), ("right", "t2")])
        .compound_in("P", 0, "C", "Left Compound", "t1")
        .task_in(
            "C",
            TaskDef::new("t1", "Inner")
                .service("S1", "run")
                .input("p", "payload"),
        )
        .final_in("C", 0, "cf")
        .final_in("P", 0, "lf")
        .task_in_region(
            "P",
            1,
            TaskDef::new("t2", "Right")
                .service("S2", "run")
                .input("p", "payload"),
        )
        .final_in("P", 1, "rf")
        .task(
            TaskDef::new("t3", "After")
                .service("S3", "run")
                .input("p", "payload")
                .output("echoed_by", "last"),
        )
        .final_state("F")
        .transition(TransitionDef::new("a", "t1", "cf"))
        .transition(TransitionDef::new("b", "C", "lf"))
        .transition(TransitionDef::new("c", "t2", "rf"))
        .transition(TransitionDef::new("d", "P", "t3"))
        .transition(TransitionDef::new("e", "t3", "F"))
        .build()
        .unwrap();
    assert!(sc.validate().is_ok(), "{:?}", sc.validate().issues);
    let plan = selfserv::routing::generate(&sc).unwrap();
    assert!(selfserv::routing::verify_plan(&plan).is_empty());

    let net = Network::new(NetworkConfig::instant());
    let dep = Deployer::new(&net)
        .with_executor(exec.handle())
        .deploy(&sc, &echo_backends(&["S1", "S2", "S3"]))
        .unwrap();
    let out = dep
        .execute(
            MessageDoc::request("execute").with("payload", Value::str("x")),
            Duration::from_secs(10),
        )
        .unwrap();
    assert_eq!(out.get_str("last"), Some("S3"));
    drop(dep);
    exec.shutdown();
}

/// A completion cascade crossing two final states with a guard chain:
/// task w inside compound Inner inside compound Outer; Inner→Outer-final is
/// guarded, so the wrapper's precondition carries the conjoined condition.
#[test]
fn double_final_cascade_with_guard_chain() {
    let exec = Executor::new(2);
    let build = |skip_tail: &str| {
        StatechartBuilder::new(format!("Cascade{skip_tail}"))
            .variable("mode", ParamType::Str)
            .initial("Outer")
            .compound("Outer", "Outer", "Inner")
            .compound_in("Outer", 0, "Inner", "Inner", "w")
            .task_in(
                "Inner",
                TaskDef::new("w", "Work")
                    .service("W", "run")
                    .input("m", "mode"),
            )
            .final_in("Inner", 0, "inf")
            .task_in(
                "Outer",
                TaskDef::new("extra", "Extra")
                    .service("X", "run")
                    .output("echoed_by", "extra_by"),
            )
            .final_in("Outer", 0, "outf")
            .task(
                TaskDef::new("tail", "Tail")
                    .service("T", "run")
                    .output("echoed_by", "tail_by"),
            )
            .final_state("F")
            .transition(TransitionDef::new("t1", "w", "inf"))
            // Inner completed: either jump straight to Outer's final
            // (cascade crosses two finals) or detour via `extra`.
            .transition(TransitionDef::new("t2", "Inner", "outf").guard("mode == \"fast\""))
            .transition(TransitionDef::new("t3", "Inner", "extra").guard("mode != \"fast\""))
            .transition(TransitionDef::new("t4", "extra", "outf"))
            // Outer completed: either run the tail or finish directly.
            .transition(TransitionDef::new("t5", "Outer", "tail").guard("mode != \"skip\""))
            .transition(TransitionDef::new("t6", "Outer", "F").guard("mode == \"skip\""))
            .transition(TransitionDef::new("t7", "tail", "F"))
            .build()
            .unwrap()
    };
    let sc = build("A");
    let plan = selfserv::routing::generate(&sc).unwrap();
    assert!(
        selfserv::routing::verify_plan(&plan).is_empty(),
        "{:?}",
        selfserv::routing::verify_plan(&plan)
    );
    // The tail's precondition via the fast path must carry the conjoined
    // guard chain (Inner-done fast AND Outer-exit non-skip).
    let tail_table = plan.table(&"tail".into()).unwrap();
    assert!(
        tail_table
            .preconditions
            .iter()
            .any(|p| p.condition.as_ref().is_some_and(|c| {
                let s = c.to_string();
                s.contains("fast") && s.contains("skip")
            })),
        "{tail_table:?}"
    );

    let net = Network::new(NetworkConfig::instant());
    let dep = Deployer::new(&net)
        .with_executor(exec.handle())
        .deploy(&sc, &echo_backends(&["W", "X", "T"]))
        .unwrap();
    // fast: w → (cascade) → tail, no extra.
    let out = dep
        .execute(
            MessageDoc::request("execute").with("mode", Value::str("fast")),
            Duration::from_secs(10),
        )
        .unwrap();
    assert_eq!(out.get_str("tail_by"), Some("T"));
    assert!(out.get("extra_by").is_none());
    // slow: w → extra → tail.
    let out = dep
        .execute(
            MessageDoc::request("execute").with("mode", Value::str("scenic")),
            Duration::from_secs(10),
        )
        .unwrap();
    assert_eq!(out.get_str("extra_by"), Some("X"));
    assert_eq!(out.get_str("tail_by"), Some("T"));
    // skip: w (fast=false → extra) → outer-final with skip → straight to F.
    let out = dep
        .execute(
            MessageDoc::request("execute").with("mode", Value::str("skip")),
            Duration::from_secs(10),
        )
        .unwrap();
    assert_eq!(out.get_str("extra_by"), Some("X"));
    assert!(out.get("tail_by").is_none());
    drop(dep);
    exec.shutdown();
}

/// Concurrent directly inside a concurrent region: the inner AND-join must
/// resolve before the outer one.
#[test]
fn concurrent_inside_concurrent() {
    let exec = Executor::new(2);
    let sc = StatechartBuilder::new("NestedAnd")
        .variable("payload", ParamType::Str)
        .initial("P")
        .concurrent("P", "Outer", vec![("a", "Q"), ("b", "tb")])
        .concurrent_in("P", 0, "Q", "Inner", vec![("qa", "t1"), ("qb", "t2")])
        .task_in_region("Q", 0, TaskDef::new("t1", "A1").service("S1", "run"))
        .final_in("Q", 0, "qf1")
        .task_in_region("Q", 1, TaskDef::new("t2", "A2").service("S2", "run"))
        .final_in("Q", 1, "qf2")
        .final_in("P", 0, "pfa")
        .task_in_region("P", 1, TaskDef::new("tb", "B").service("S3", "run"))
        .final_in("P", 1, "pfb")
        .final_state("F")
        .transition(TransitionDef::new("x1", "t1", "qf1"))
        .transition(TransitionDef::new("x2", "t2", "qf2"))
        .transition(TransitionDef::new("x3", "Q", "pfa"))
        .transition(TransitionDef::new("x4", "tb", "pfb"))
        .transition(TransitionDef::new("x5", "P", "F"))
        .build()
        .unwrap();
    let plan = selfserv::routing::generate(&sc).unwrap();
    assert!(selfserv::routing::verify_plan(&plan).is_empty());
    // The wrapper must wait for BOTH inner-region labels plus the outer
    // sibling region.
    let fin = &plan.wrapper.finish_alternatives;
    assert!(fin.iter().any(|p| p.labels.len() == 3), "{fin:?}");

    let net = Network::new(NetworkConfig::instant());
    let counters: Vec<Arc<SyntheticService>> = (1..=3)
        .map(|i| Arc::new(SyntheticService::new(format!("S{i}"))))
        .collect();
    let mut backends: HashMap<String, Arc<dyn ServiceBackend>> = HashMap::new();
    for (i, c) in counters.iter().enumerate() {
        backends.insert(
            format!("S{}", i + 1),
            Arc::clone(c) as Arc<dyn ServiceBackend>,
        );
    }
    let dep = Deployer::new(&net)
        .with_executor(exec.handle())
        .deploy(&sc, &backends)
        .unwrap();
    dep.execute(
        MessageDoc::request("execute").with("payload", Value::str("p")),
        Duration::from_secs(10),
    )
    .unwrap();
    for c in &counters {
        assert_eq!(c.invocation_count(), 1);
    }
    drop(dep);
    exec.shutdown();
}
