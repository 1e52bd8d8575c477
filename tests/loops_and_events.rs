//! Cyclic statecharts (retry loops) and external ECA events — the parts of
//! the statechart formalism beyond plain DAG workflows.

use selfserv::core::{Deployer, EchoService, ServiceBackend, SyntheticService};
use selfserv::net::{Network, NetworkConfig};
use selfserv::runtime::Executor;
use selfserv::statechart::{StatechartBuilder, TaskDef, TransitionDef};
use selfserv::wsdl::{MessageDoc, ParamType};
use selfserv_expr::Value;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// attempt-until-limit loop: Work → Check → (back to Work | Done).
fn retry_chart(limit: i64) -> selfserv::statechart::Statechart {
    StatechartBuilder::new(format!("Retry{limit}"))
        .variable("attempts", ParamType::Int)
        .variable_init("attempts", ParamType::Int, Value::Int(0))
        .initial("work")
        .task(
            TaskDef::new("work", "Work")
                .service("Worker", "run")
                .input("n", "attempts"),
        )
        .choice("check", "Check")
        .final_state("done")
        .transition(TransitionDef::new("t1", "work", "check").action("attempts", "attempts + 1"))
        .transition(
            TransitionDef::new("t_retry", "check", "work").guard(format!("attempts < {limit}")),
        )
        .transition(
            TransitionDef::new("t_done", "check", "done").guard(format!("attempts >= {limit}")),
        )
        .build()
        .unwrap()
}

#[test]
fn retry_loop_runs_the_task_repeatedly() {
    let exec = Executor::new(2);
    let net = Network::new(NetworkConfig::instant());
    let worker = Arc::new(SyntheticService::new("Worker"));
    let mut backends: HashMap<String, Arc<dyn ServiceBackend>> = HashMap::new();
    backends.insert(
        "Worker".into(),
        Arc::clone(&worker) as Arc<dyn ServiceBackend>,
    );
    let dep = Deployer::new(&net)
        .with_executor(exec.handle())
        .deploy(&retry_chart(4), &backends)
        .unwrap();
    let out = dep
        .execute(MessageDoc::request("execute"), Duration::from_secs(10))
        .unwrap();
    assert_eq!(out.get("attempts"), Some(&Value::Int(4)));
    assert_eq!(worker.invocation_count(), 4);
    drop(dep);
    exec.shutdown();
}

#[test]
fn loop_labels_are_consumed_so_reentry_is_clean() {
    let exec = Executor::new(2);
    // Two instances through the same loop must not steal each other's
    // notifications.
    let net = Network::new(NetworkConfig::instant());
    let mut backends: HashMap<String, Arc<dyn ServiceBackend>> = HashMap::new();
    backends.insert("Worker".into(), Arc::new(EchoService::new("Worker")));
    let dep = Arc::new(
        Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&retry_chart(3), &backends)
            .unwrap(),
    );
    let mut handles = Vec::new();
    for _ in 0..4 {
        let dep = Arc::clone(&dep);
        handles.push(std::thread::spawn(move || {
            let out = dep
                .execute(MessageDoc::request("execute"), Duration::from_secs(10))
                .unwrap();
            assert_eq!(out.get("attempts"), Some(&Value::Int(3)));
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    drop(dep);
    exec.shutdown();
}

#[test]
fn loops_agree_between_p2p_and_central() {
    let exec = Executor::new(2);
    use selfserv::core::{
        naming, CentralConfig, CentralizedOrchestrator, FunctionLibrary, ServiceHost,
    };
    let sc = retry_chart(5);
    // P2P.
    let net = Network::new(NetworkConfig::instant());
    let mut backends: HashMap<String, Arc<dyn ServiceBackend>> = HashMap::new();
    backends.insert("Worker".into(), Arc::new(EchoService::new("Worker")));
    let dep = Deployer::new(&net)
        .with_executor(exec.handle())
        .deploy(&sc, &backends)
        .unwrap();
    let p2p = dep
        .execute(MessageDoc::request("execute"), Duration::from_secs(10))
        .unwrap();
    // Central.
    let net = Network::new(NetworkConfig::instant());
    let node = naming::service_host("Worker");
    let _host = ServiceHost::spawn_on(
        &net,
        &exec.handle(),
        node.clone(),
        Arc::new(EchoService::new("Worker")),
    )
    .unwrap();
    let central = CentralizedOrchestrator::spawn_on(
        &net,
        &exec.handle(),
        CentralConfig {
            statechart: sc,
            functions: FunctionLibrary::new(),
            service_nodes: HashMap::from([("Worker".to_string(), node)]),
        },
    )
    .unwrap();
    let cen = central
        .execute(MessageDoc::request("execute"), Duration::from_secs(10))
        .unwrap();
    assert_eq!(p2p.get("attempts"), cen.get("attempts"));
    drop((central, _host, dep));
    exec.shutdown();
}

#[test]
fn event_gated_transition_waits_for_external_event() {
    // prepare → (on 'approved') → ship: the ship state must not start
    // until the event is raised, even though prepare completed.
    let exec = Executor::new(2);
    let net = Network::new(NetworkConfig::instant());
    let sc = StatechartBuilder::new("Approval")
        .variable("order", ParamType::Str)
        .initial("prepare")
        .task(
            TaskDef::new("prepare", "Prepare")
                .service("Prep", "run")
                .input("o", "order"),
        )
        .task(
            TaskDef::new("ship", "Ship")
                .service("Ship", "run")
                .input("o", "order"),
        )
        .final_state("done")
        .transition(TransitionDef::new("t1", "prepare", "ship").event("approved"))
        .transition(TransitionDef::new("t2", "ship", "done"))
        .build()
        .unwrap();
    let ship_counter = Arc::new(SyntheticService::new("Ship"));
    let mut backends: HashMap<String, Arc<dyn ServiceBackend>> = HashMap::new();
    backends.insert("Prep".into(), Arc::new(EchoService::new("Prep")));
    backends.insert(
        "Ship".into(),
        Arc::clone(&ship_counter) as Arc<dyn ServiceBackend>,
    );
    let dep = Arc::new(
        Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&sc, &backends)
            .unwrap(),
    );

    let dep2 = Arc::clone(&dep);
    let run = std::thread::spawn(move || {
        dep2.execute(
            MessageDoc::request("execute").with("order", Value::str("o-1")),
            Duration::from_secs(10),
        )
    });
    // Give prepare time to complete; ship must still be waiting.
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        ship_counter.invocation_count(),
        0,
        "ship ran before approval"
    );
    // Raise the event: the instance completes.
    dep.raise_event("approved", None);
    let out = run.join().unwrap().unwrap();
    assert_eq!(ship_counter.invocation_count(), 1);
    assert_eq!(out.get_str("order"), Some("o-1"));
    drop(dep);
    exec.shutdown();
}

#[test]
fn unraised_event_stalls_the_instance() {
    let exec = Executor::new(2);
    let net = Network::new(NetworkConfig::instant());
    let sc = StatechartBuilder::new("NeverApproved")
        .variable("order", ParamType::Str)
        .initial("prepare")
        .task(TaskDef::new("prepare", "Prepare").service("Prep", "run"))
        .task(TaskDef::new("ship", "Ship").service("Ship", "run"))
        .final_state("done")
        .transition(TransitionDef::new("t1", "prepare", "ship").event("approved"))
        .transition(TransitionDef::new("t2", "ship", "done"))
        .build()
        .unwrap();
    let mut backends: HashMap<String, Arc<dyn ServiceBackend>> = HashMap::new();
    backends.insert("Prep".into(), Arc::new(EchoService::new("Prep")));
    backends.insert("Ship".into(), Arc::new(EchoService::new("Ship")));
    let dep = Deployer::new(&net)
        .with_executor(exec.handle())
        .deploy(&sc, &backends)
        .unwrap();
    let err = dep
        .execute(MessageDoc::request("execute"), Duration::from_millis(400))
        .unwrap_err();
    assert!(matches!(err, selfserv::core::ExecError::Timeout));
    drop(dep);
    exec.shutdown();
}
