//! A composite surviving scheduled chaos: a seeded fault schedule delays
//! coordinator traffic and crashes the preferred provider's host
//! mid-execution, the community fails over to the surviving member, and
//! after the scheduled restart the revived provider serves again.
//!
//! ```text
//! cargo run --release --example chaos_demo           # seed 7
//! cargo run --release --example chaos_demo -- 42     # any other seed
//! ```
//!
//! The same seed always expands to the same fault schedule — rerun with
//! the seed printed below and the identical crash/restart/delay sequence
//! replays (the deterministic engine behind `tests/chaos.rs`).

use selfserv::community::{
    Community, CommunityClient, CommunityServer, CommunityServerConfig, Member, MemberId,
    QosProfile, RoundRobin,
};
use selfserv::core::{naming, Deployer, ServiceBackend, ServiceHost, SyntheticService};
use selfserv::net::{
    ChaosConfig, ChaosController, FaultSchedule, KindRule, Network, NetworkConfig, NodeId,
};
use selfserv::runtime::Executor;
use selfserv::statechart::{StatechartBuilder, TaskDef, TransitionDef};
use selfserv::wsdl::{MessageDoc, OperationDef, ParamType};
use selfserv_expr::Value;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(7);
    let net = Network::new(NetworkConfig::instant());
    let exec = Executor::new(2);

    // A community of two workers. Alpha is slow enough that the scheduled
    // crash lands while it is serving; beta is the failover target.
    let community = CommunityServer::spawn_on(
        &net,
        &exec.handle(),
        naming::community("Workers").as_str(),
        Community::new("Workers", "chaos demo workers").with_operation(OperationDef::new("run")),
        Arc::new(RoundRobin::new()),
        CommunityServerConfig {
            member_timeout: Duration::from_millis(120),
            ..Default::default()
        },
    )
    .expect("community spawns");
    let mut hosts = Vec::new();
    let admin = CommunityClient::connect(&net, "admin", community.node().clone()).unwrap();
    for (id, latency_ms) in [("alpha", 40u64), ("beta", 5)] {
        let node = format!("svc.{id}");
        let backend: Arc<dyn ServiceBackend> =
            Arc::new(SyntheticService::new(id).with_latency(Duration::from_millis(latency_ms)));
        hosts.push(ServiceHost::spawn_on(&net, &exec.handle(), node.as_str(), backend).unwrap());
        admin
            .join(&Member {
                id: MemberId(id.to_string()),
                provider: id.to_string(),
                endpoint: NodeId::new(node),
                qos: QosProfile::default(),
            })
            .unwrap();
    }

    // One composite whose single task routes through the community.
    let chart = StatechartBuilder::new("ChaosComposite")
        .variable("payload", ParamType::Str)
        .initial("w")
        .task(
            TaskDef::new("w", "Work")
                .community("Workers", "run")
                .input("payload", "payload")
                .output("served_by", "worker"),
        )
        .final_state("f")
        .transition(TransitionDef::new("t", "w", "f"))
        .build()
        .unwrap();
    let dep = Deployer::new(&net)
        .with_executor(exec.handle())
        .deploy(&chart, &HashMap::new())
        .expect("composite deploys");

    // The seeded schedule: light jitter on coordinator traffic, plus a
    // timed crash of alpha's host mid-run and its restart 300 ms in.
    let config = ChaosConfig::default()
        .rule(KindRule::for_kind("coord.").delay(
            0.15,
            Duration::from_millis(1),
            Duration::from_millis(3),
        ))
        .crash(Duration::from_millis(20), "svc.alpha")
        .restart(Duration::from_millis(300), "svc.alpha");
    let schedule = FaultSchedule::sample(seed, config);
    println!("=== chaos schedule (seed {seed}) ===");
    for event in schedule.node_events() {
        println!(
            "  {:?} {} @{}ms",
            event.fault,
            event.node,
            event.at.as_millis()
        );
    }

    net.install_chaos(Arc::clone(&schedule));
    let controller = ChaosController::start(&schedule, Arc::new(net.clone()));
    println!("\n=== executing through the crash window ===");
    let started = Instant::now();
    let mut workers = Vec::new();
    while started.elapsed() < Duration::from_millis(450) {
        let t0 = Instant::now();
        let out = dep
            .execute(
                MessageDoc::request("execute").with("payload", Value::str("job")),
                Duration::from_secs(5),
            )
            .expect("failover keeps the composite completing");
        let worker = out.get_str("worker").unwrap_or("?").to_string();
        println!(
            "  +{:3}ms composite completed in {:3}ms, served by {worker}",
            started.elapsed().as_millis(),
            t0.elapsed().as_millis(),
        );
        workers.push(worker);
    }
    controller.stop();
    net.clear_chaos();

    assert!(
        workers.iter().any(|w| w == "beta"),
        "failover to beta never happened"
    );
    println!("\n=== after the scheduled restart ===");
    let mut revived = Vec::new();
    for _ in 0..6 {
        let out = dep
            .execute(
                MessageDoc::request("execute").with("payload", Value::str("job")),
                Duration::from_secs(5),
            )
            .expect("revived deployment serves");
        revived.push(out.get_str("worker").unwrap_or("?").to_string());
    }
    println!(
        "  6 post-restart executions served by: {}",
        revived.join(", ")
    );
    assert!(
        revived.iter().any(|w| w == "alpha"),
        "alpha never served again after its scheduled restart"
    );
    println!("\nevery execution completed: the crash cost latency (member timeout");
    println!("+ failover), never correctness — and the restart put alpha back in rotation.");
    println!("replay this exact run: cargo run --release --example chaos_demo -- {seed}");

    // Print the full replayable fault log, the same artifact the chaos
    // harness minimizes on a violation.
    println!("\n=== recorded fault events ===");
    for event in schedule.events() {
        println!("  {event}");
    }
    dep.undeploy();
    drop((hosts, community));
    exec.shutdown();
}
