//! Multi-process deployment with zero manual wiring: this example spawns
//! **a second OS process** of itself, hands it exactly one seed address,
//! and deploys a composite service whose only task is served by a
//! community living in that other process.
//!
//! ```text
//! cargo run --example discovery_multiprocess
//! ```
//!
//! * The **consumer** (parent process) creates a `TcpTransport` hub, runs
//!   `selfserv-discovery` on it, and re-executes itself as the provider,
//!   passing its hub's listener address on the command line — the
//!   only deployment knowledge that ever crosses the process boundary.
//! * The **provider** (child process) seeds its own discovery node with
//!   that address. The handshake swaps both registries; gossip keeps them
//!   converged. It then hosts the `Booking` community and a member
//!   service — names the parent learns without any `register_peer` call.
//! * The consumer waits for the community's name to surface, deploys a
//!   composite bound to it, and executes: coordinator (parent) →
//!   community (child) → member (child) → back, every hop a named rpc
//!   across real process boundaries.

use selfserv::community::{
    Community, CommunityClient, CommunityServer, CommunityServerConfig, Member, MemberId,
    QosProfile, RoundRobin,
};
use selfserv::core::{naming, Deployer, EchoService, ServiceHost};
use selfserv::expr::Value;
use selfserv::net::{NodeId, TcpTransport, Transport};
use selfserv::runtime::Executor;
use selfserv::statechart::{StatechartBuilder, TaskDef, TransitionDef};
use selfserv::wsdl::{MessageDoc, OperationDef, ParamType};
use selfserv::xml::Element;
use selfserv_discovery::{DiscoveryConfig, PeerDiscovery};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

const COMMUNITY: &str = "Booking";
const PROVIDER_CTL: &str = "demo.provider-ctl";

fn discovery_config() -> DiscoveryConfig {
    // Demo-friendly cadence: sub-second convergence, visible but quick
    // failure detection.
    DiscoveryConfig::default().with_cadence(Duration::from_millis(50))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("--provider") => provider(args[2].parse().expect("seed address argument")),
        _ => consumer(),
    }
}

/// Kills the provider process on drop unless the happy path already
/// reaped it — a consumer panic (e.g. a timed-out wait) must not leave an
/// orphan blocking CI on inherited stdio.
struct ChildGuard(Option<std::process::Child>);

impl ChildGuard {
    /// Hands the child back for a graceful `wait`, disarming the guard.
    fn disarm(mut self) -> std::process::Child {
        self.0.take().expect("guard still armed")
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The child process: joins the network through the seed address and
/// hosts the community + member until told to exit.
fn provider(seed: SocketAddr) {
    let hub = TcpTransport::new();
    let exec = Executor::new(2);
    let disc = PeerDiscovery::spawn_on(&hub, &exec.handle(), discovery_config().with_seed(seed))
        .expect("spawn provider discovery");
    let community = CommunityServer::spawn_on(
        &hub,
        &exec.handle(),
        naming::community(COMMUNITY).as_str(),
        Community::new(COMMUNITY, "multi-process demo community")
            .with_operation(OperationDef::new("book")),
        Arc::new(RoundRobin::new()),
        CommunityServerConfig::default(),
    )
    .expect("spawn community");
    let host = ServiceHost::spawn_on(
        &hub,
        &exec.handle(),
        "svc.bookings",
        Arc::new(EchoService::new(format!(
            "provider-pid-{}",
            std::process::id()
        ))),
    )
    .expect("spawn member host");
    let admin = CommunityClient::connect(&hub, "provider.admin", community.node().clone())
        .expect("connect admin");
    admin
        .join(&Member {
            id: MemberId("m1".into()),
            provider: "demo provider".into(),
            endpoint: NodeId::new("svc.bookings"),
            qos: QosProfile::default(),
        })
        .expect("join member");
    println!("[provider {}] community up, serving", std::process::id());

    // Park on a control endpoint until the consumer says goodbye.
    let ctl = Transport::connect(&hub, NodeId::new(PROVIDER_CTL)).expect("connect ctl");
    loop {
        match ctl.recv() {
            Ok(env) if env.kind == "demo.exit" => {
                println!("[provider {}] exiting", std::process::id());
                break;
            }
            Ok(_) => {}
            Err(_) => break,
        }
    }
    drop((host, community, disc));
    exec.shutdown();
}

/// The parent process: spawns the provider, deploys against its
/// community, executes, shuts everything down.
fn consumer() {
    let hub = TcpTransport::new();
    let exec = Executor::new(2);
    let disc = PeerDiscovery::spawn_on(&hub, &exec.handle(), discovery_config())
        .expect("spawn consumer discovery");
    println!(
        "[consumer {}] discovery listening on {} — spawning provider process",
        std::process::id(),
        disc.seed_addr()
    );
    let child = ChildGuard(Some(
        std::process::Command::new(std::env::current_exe().expect("own path"))
            .arg("--provider")
            .arg(disc.seed_addr().to_string())
            .spawn()
            .expect("spawn provider process"),
    ));

    // One seed address later, the provider's names gossip in.
    let community_node = naming::community(COMMUNITY);
    assert!(
        disc.wait_until_bound(community_node.as_str(), Duration::from_secs(30)),
        "provider's community never surfaced"
    );
    println!(
        "[consumer {}] learned {} peers: {:?}",
        std::process::id(),
        disc.directory().names().len(),
        disc.directory()
            .names()
            .iter()
            .map(|n| n.as_str().to_string())
            .collect::<Vec<_>>()
    );

    // Deploy a composite whose single task delegates to that community.
    let statechart = StatechartBuilder::new("MultiProcessBooking")
        .variable("payload", ParamType::Str)
        .initial("b")
        .task(
            TaskDef::new("b", "Book")
                .community(COMMUNITY, "book")
                .input("payload", "payload")
                .output("echoed_by", "worker"),
        )
        .final_state("f")
        .transition(TransitionDef::new("t", "b", "f"))
        .build()
        .expect("valid statechart");
    let dep = Deployer::new(&hub)
        .with_executor(exec.handle())
        .deploy(&statechart, &HashMap::new())
        .expect("deploy across processes");
    for i in 0..3 {
        let out = dep
            .execute(
                MessageDoc::request("execute").with("payload", Value::str(format!("trip-{i}"))),
                Duration::from_secs(10),
            )
            .expect("cross-process execution");
        println!(
            "[consumer {}] execution {i}: payload={:?} served_by={:?}",
            std::process::id(),
            out.get_str("payload").unwrap_or("?"),
            out.get_str("worker").unwrap_or("?")
        );
        assert_eq!(out.get_str("payload"), Some(format!("trip-{i}").as_str()));
        assert!(out
            .get_str("worker")
            .is_some_and(|w| w.starts_with("provider-pid-")));
    }
    drop(dep);

    // Tell the provider to exit — by name, across the process boundary.
    assert!(disc.wait_until_bound(PROVIDER_CTL, Duration::from_secs(10)));
    let goodbye = Transport::connect(&hub, NodeId::new("consumer.ctl")).expect("connect ctl");
    goodbye
        .send(PROVIDER_CTL, "demo.exit", Element::new("bye"))
        .expect("send exit");
    let status = child.disarm().wait().expect("provider exit status");
    assert!(status.success(), "provider exited cleanly");
    println!(
        "[consumer {}] done — provider exited cleanly",
        std::process::id()
    );
    drop(disc);
    exec.shutdown();
}
