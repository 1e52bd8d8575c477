//! P2P (routing-table) execution and the centralized interpreter must
//! produce the same results on the same charts — the decentralization is
//! an implementation strategy, not a semantics change.

use selfserv::core::{
    naming, CentralConfig, CentralizedOrchestrator, Deployer, EchoService, FunctionLibrary,
    ServiceBackend, ServiceHost,
};
use selfserv::net::{Network, NetworkConfig};
use selfserv::runtime::Executor;
use selfserv::statechart::{synth, Statechart};
use selfserv::wsdl::MessageDoc;
use selfserv_expr::Value;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

fn run_both(sc: &Statechart, input: MessageDoc) -> (MessageDoc, MessageDoc) {
    // P2P.
    let exec = Executor::new(2);
    let net = Network::new(NetworkConfig::instant());
    let mut backends: HashMap<String, Arc<dyn ServiceBackend>> = HashMap::new();
    for name in sc.referenced_services() {
        backends.insert(name.clone(), Arc::new(EchoService::new(name)));
    }
    let dep = Deployer::new(&net)
        .with_executor(exec.handle())
        .deploy(sc, &backends)
        .unwrap();
    let p2p = dep.execute(input.clone(), Duration::from_secs(20)).unwrap();

    // Central.
    let net = Network::new(NetworkConfig::instant());
    let mut hosts = Vec::new();
    let mut service_nodes = HashMap::new();
    for name in sc.referenced_services() {
        let node = naming::service_host(&name);
        hosts.push(
            ServiceHost::spawn_on(
                &net,
                &exec.handle(),
                node.clone(),
                Arc::new(EchoService::new(name.clone())),
            )
            .unwrap(),
        );
        service_nodes.insert(name, node);
    }
    let central = CentralizedOrchestrator::spawn_on(
        &net,
        &exec.handle(),
        CentralConfig {
            statechart: sc.clone(),
            functions: FunctionLibrary::new(),
            service_nodes,
        },
    )
    .unwrap();
    let cen = central.execute(input, Duration::from_secs(20)).unwrap();
    drop((dep, hosts, central));
    exec.shutdown();
    (p2p, cen)
}

/// Compares the domain variables (ignoring runtime bookkeeping params).
fn assert_same_outcome(a: &MessageDoc, b: &MessageDoc) {
    let domain = |m: &MessageDoc| -> Vec<(String, String)> {
        m.iter()
            .filter(|(k, _)| !k.starts_with('_') && *k != "served_by" && *k != "echoed_by")
            .map(|(k, v)| (k.to_string(), v.to_lexical()))
            .collect()
    };
    assert_eq!(domain(a), domain(b));
}

#[test]
fn sequences_agree() {
    for n in [1usize, 3, 7] {
        let sc = synth::sequence(n);
        let input = MessageDoc::request("execute").with("payload", Value::str("data"));
        let (p, c) = run_both(&sc, input);
        assert_same_outcome(&p, &c);
    }
}

#[test]
fn xor_branches_agree() {
    for branch in 0..4i64 {
        let sc = synth::xor_choice(4);
        let input = MessageDoc::request("execute")
            .with("payload", Value::str("data"))
            .with("branch", Value::Int(branch));
        let (p, c) = run_both(&sc, input);
        assert_same_outcome(&p, &c);
    }
}

#[test]
fn parallel_and_nested_agree() {
    for sc in [synth::parallel(4), synth::nested(3), synth::ladder(3, 2)] {
        let input = MessageDoc::request("execute").with("payload", Value::str("data"));
        let (p, c) = run_both(&sc, input);
        assert_same_outcome(&p, &c);
    }
}

#[test]
fn guarded_arithmetic_chart_agrees() {
    use selfserv::statechart::{StatechartBuilder, TaskDef, TransitionDef};
    use selfserv::wsdl::ParamType;
    // A chart with actions and guards over computed values.
    let sc = StatechartBuilder::new("Arith")
        .variable("n", ParamType::Int)
        .variable("total", ParamType::Int)
        .initial("start")
        .choice("start", "Start")
        .task(
            TaskDef::new("small", "Small")
                .service("SvcA", "run")
                .input("x", "n"),
        )
        .task(
            TaskDef::new("big", "Big")
                .service("SvcB", "run")
                .input("x", "n"),
        )
        .final_state("f")
        .transition(
            TransitionDef::new("t1", "start", "small")
                .guard("n * 2 <= 10")
                .action("total", "n * 2"),
        )
        .transition(
            TransitionDef::new("t2", "start", "big")
                .guard("n * 2 > 10")
                .action("total", "n * n"),
        )
        .transition(TransitionDef::new("t3", "small", "f"))
        .transition(TransitionDef::new("t4", "big", "f"))
        .build()
        .unwrap();
    for n in [2i64, 5, 6, 100] {
        let input = MessageDoc::request("execute").with("n", Value::Int(n));
        let (p, c) = run_both(&sc, input);
        assert_same_outcome(&p, &c);
        let expected = if n * 2 <= 10 { n * 2 } else { n * n };
        assert_eq!(p.get("total"), Some(&Value::Int(expected)));
    }
}
