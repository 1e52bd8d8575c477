//! Randomly nested statecharts executed end-to-end: the P2P deployment and
//! the centralized interpreter must complete and agree on the data flow.

use selfserv::core::{
    naming, CentralConfig, CentralizedOrchestrator, Deployer, EchoService, FunctionLibrary,
    ServiceBackend, ServiceHost,
};
use selfserv::net::{Network, NetworkConfig};
use selfserv::runtime::Executor;
use selfserv::statechart::synth;
use selfserv::wsdl::MessageDoc;
use selfserv_expr::Value;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

fn input() -> MessageDoc {
    MessageDoc::request("execute")
        .with("payload", Value::str("rnd"))
        .with("branch", Value::Int(1))
}

#[test]
fn random_charts_execute_p2p() {
    let exec = Executor::new(2);
    for seed in 0..12u64 {
        let sc = synth::recursive(seed, 10, 3);
        let net = Network::new(NetworkConfig::instant());
        let mut backends: HashMap<String, Arc<dyn ServiceBackend>> = HashMap::new();
        for name in sc.referenced_services() {
            backends.insert(name.clone(), Arc::new(EchoService::new(name)));
        }
        let dep = Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&sc, &backends)
            .unwrap();
        let out = dep
            .execute(input(), Duration::from_secs(20))
            .unwrap_or_else(|e| panic!("seed {seed} ({}): {e}", sc.name));
        assert_eq!(out.get_str("payload"), Some("rnd"), "seed {seed}");
    }
    exec.shutdown();
}

#[test]
fn random_charts_agree_with_central() {
    let exec = Executor::new(2);
    for seed in 12..20u64 {
        let sc = synth::recursive(seed, 8, 3);
        // P2P.
        let net = Network::new(NetworkConfig::instant());
        let mut backends: HashMap<String, Arc<dyn ServiceBackend>> = HashMap::new();
        for name in sc.referenced_services() {
            backends.insert(name.clone(), Arc::new(EchoService::new(name)));
        }
        let dep = Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&sc, &backends)
            .unwrap();
        let p2p = dep.execute(input(), Duration::from_secs(20)).unwrap();
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
        let cen = central.execute(input(), Duration::from_secs(20)).unwrap();
        assert_eq!(
            p2p.get_str("payload"),
            cen.get_str("payload"),
            "seed {seed} ({})",
            sc.name
        );
    }
    exec.shutdown();
}
