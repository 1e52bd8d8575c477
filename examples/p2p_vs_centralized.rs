//! The paper's core architectural claim, measured: peer-to-peer
//! orchestration spreads coordination load that a centralized engine
//! concentrates on itself.
//!
//! ```text
//! cargo run --release --example p2p_vs_centralized
//! ```

use selfserv::core::{
    naming, CentralConfig, CentralizedOrchestrator, Deployer, EchoService, FunctionLibrary,
    ServiceBackend, ServiceHost,
};
use selfserv::net::{Network, NetworkConfig};
use selfserv::runtime::{Executor, ExecutorHandle};
use selfserv::statechart::synth;
use selfserv::wsdl::MessageDoc;
use selfserv_expr::Value;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

const INSTANCES: usize = 100;

fn main() {
    println!("sequence(N), {INSTANCES} instances — messages through the hottest node\n");
    println!(
        "{:>4} | {:>18} | {:>18} | ratio",
        "N", "p2p hottest coord", "central engine"
    );
    println!("{}", "-".repeat(60));
    let exec = Executor::new(2);
    for n in [2usize, 4, 8, 16, 32] {
        let p2p = run_p2p(&exec.handle(), n);
        let central = run_central(&exec.handle(), n);
        println!(
            "{n:>4} | {:>18} | {:>18} | {:.1}x",
            p2p,
            central,
            central as f64 / p2p.max(1) as f64
        );
    }
    exec.shutdown();
    println!(
        "\nthe centralized engine handles ~2 messages per component per instance;\n\
         the hottest SELF-SERV coordinator stays flat regardless of N — the paper's claim."
    );
}

fn input(i: usize) -> MessageDoc {
    MessageDoc::request("execute").with("payload", Value::str(format!("case-{i}")))
}

fn run_p2p(exec: &ExecutorHandle, n: usize) -> u64 {
    let net = Network::new(NetworkConfig::instant());
    let sc = synth::sequence(n);
    let mut backends: HashMap<String, Arc<dyn ServiceBackend>> = HashMap::new();
    for i in 0..n {
        let name = synth::synth_service_name(i);
        backends.insert(name.clone(), Arc::new(EchoService::new(name)));
    }
    let dep = Deployer::new(&net)
        .with_executor(exec.clone())
        .deploy(&sc, &backends)
        .unwrap();
    net.reset_metrics();
    for i in 0..INSTANCES {
        dep.execute(input(i), Duration::from_secs(30)).unwrap();
    }
    net.metrics()
        .busiest_matching(|name| name.contains(".coord."))
        .map(|m| m.handled())
        .unwrap_or(0)
}

fn run_central(exec: &ExecutorHandle, n: usize) -> u64 {
    let net = Network::new(NetworkConfig::instant());
    let sc = synth::sequence(n);
    let mut hosts = Vec::new();
    let mut service_nodes = HashMap::new();
    for i in 0..n {
        let name = synth::synth_service_name(i);
        let node = naming::service_host(&name);
        hosts.push(
            ServiceHost::spawn_on(
                &net,
                exec,
                node.clone(),
                Arc::new(EchoService::new(name.clone())),
            )
            .unwrap(),
        );
        service_nodes.insert(name, node);
    }
    let central = CentralizedOrchestrator::spawn_on(
        &net,
        exec,
        CentralConfig {
            statechart: sc.clone(),
            functions: FunctionLibrary::new(),
            service_nodes,
        },
    )
    .unwrap();
    net.reset_metrics();
    for i in 0..INSTANCES {
        central.execute(input(i), Duration::from_secs(30)).unwrap();
    }
    net.metrics()
        .busiest_matching(|name| name.ends_with(".central"))
        .map(|m| m.handled())
        .unwrap_or(0)
}
