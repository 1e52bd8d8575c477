//! Cross-process community replication: two replicas of ONE community run
//! in **two separate OS processes** with no shared membership state —
//! every join and leave crosses the process boundary as gossiped,
//! versioned membership rows.
//!
//! ```text
//! cargo run --example community_multiprocess
//! ```
//!
//! * The **parent** process hosts replica 0 (`community.Jobs`) on its own
//!   hub, joins a member through it, and re-executes itself as the child,
//!   handing over exactly one discovery seed address.
//! * The **child** process hosts replica 1 (`Jobs.r1`) plus its own
//!   member. It joins that member through its *local* replica, then polls
//!   its own table until the parent's member surfaces — a row it can only
//!   have received via membership gossip, because nothing else connects
//!   the two tables.
//! * The parent symmetrically waits until the child's member appears in
//!   replica 0, then deploys a composite and executes it until both
//!   members — one per process — have served.
//! * Finally the parent *leaves* its member and tells the child to exit;
//!   the child refuses to exit cleanly until it has seen the tombstone,
//!   so a successful child exit status proves deletions converge too.

use selfserv::community::{
    Community, CommunityClient, CommunityServer, CommunityServerConfig, Member, MemberId,
    QosProfile, ReplicationConfig, RoundRobin,
};
use selfserv::core::{naming, Deployer, EchoService, ServiceHost};
use selfserv::expr::Value;
use selfserv::net::{NodeId, TcpTransport, Transport};
use selfserv::runtime::{Executor, ExecutorHandle};
use selfserv::statechart::{StatechartBuilder, TaskDef, TransitionDef};
use selfserv::wsdl::{MessageDoc, OperationDef, ParamType};
use selfserv::xml::Element;
use selfserv_discovery::{DiscoveryConfig, DiscoveryHandle, PeerDiscovery};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const COMMUNITY: &str = "Jobs";
const CHILD_CTL: &str = "xproc.child-ctl";

fn discovery_config() -> DiscoveryConfig {
    DiscoveryConfig::default().with_cadence(Duration::from_millis(50))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("--replica") => child(args[2].parse().expect("seed address argument")),
        _ => parent(),
    }
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

/// One replica of the community, pinned to this process's hub and run on
/// `exec`. The
/// discovery directory is the only way a replica learns where its
/// siblings live — there is no static wiring across the processes.
fn spawn_replica(
    hub: &TcpTransport,
    exec: &ExecutorHandle,
    disc: &DiscoveryHandle,
    index: usize,
) -> selfserv::community::CommunityServerHandle {
    CommunityServer::spawn_replica_on(
        hub,
        exec,
        naming::community(COMMUNITY).as_str(),
        index,
        2,
        Community::new(COMMUNITY, "cross-process demo community")
            .with_operation(OperationDef::new("work")),
        Arc::new(RoundRobin::new()),
        CommunityServerConfig {
            replication: ReplicationConfig {
                directory: Some(disc.directory().clone()),
                gossip_interval: Some(Duration::from_millis(50)),
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("replica spawns")
}

/// Kills the child process on drop unless the happy path already reaped
/// it — a parent panic must not leave an orphan holding stdio open.
struct ChildGuard(Option<std::process::Child>);

impl ChildGuard {
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

/// The child process: hosts replica 1 and its own member, observes the
/// parent's membership through gossip alone.
fn child(seed: SocketAddr) {
    let pid = std::process::id();
    let hub = TcpTransport::new();
    let exec = Executor::new(2);
    let disc = PeerDiscovery::spawn_on(&hub, &exec.handle(), discovery_config().with_seed(seed))
        .expect("spawn child discovery");
    let replica = spawn_replica(&hub, &exec.handle(), &disc, 1);
    let host = ServiceHost::spawn_on(
        &hub,
        &exec.handle(),
        "svc.jobs-child",
        Arc::new(EchoService::new(format!("child-pid-{pid}"))),
    )
    .expect("spawn child member host");
    // Join through the LOCAL replica — the parent only ever hears about
    // this row as a gossiped membership delta.
    let admin = CommunityClient::connect(&hub, "child.admin", replica.node().clone())
        .expect("connect child admin");
    admin
        .join(&Member {
            id: MemberId("child".into()),
            provider: format!("child process {pid}"),
            endpoint: NodeId::new("svc.jobs-child"),
            qos: QosProfile::default(),
        })
        .expect("join child member");

    // The parent joined ITS member through replica 0; that row reaching
    // this table is the cross-process gossip observation.
    assert!(
        wait_until(Duration::from_secs(30), || {
            replica
                .membership()
                .read()
                .member(&MemberId("parent".into()))
                .is_some()
        }),
        "child never observed the parent's member via gossip"
    );
    println!("[child {pid}] observed parent's member via membership gossip");

    // Park until the parent says goodbye — but refuse to exit before the
    // parent's LEAVE has tombstoned its member here, so our clean exit
    // status is the parent's proof that deletions converge.
    let ctl = Transport::connect(&hub, NodeId::new(CHILD_CTL)).expect("connect ctl");
    loop {
        match ctl.recv() {
            Ok(env) if env.kind == "xproc.exit" => {
                assert!(
                    wait_until(Duration::from_secs(10), || {
                        replica
                            .membership()
                            .read()
                            .member(&MemberId("parent".into()))
                            .is_none()
                    }),
                    "parent's leave never reached the child as a tombstone"
                );
                println!("[child {pid}] parent's leave tombstoned here — exiting");
                break;
            }
            Ok(_) => {}
            Err(_) => break,
        }
    }
    drop((host, replica, disc));
    exec.shutdown();
}

/// The parent process: hosts replica 0, drives the demo.
fn parent() {
    let pid = std::process::id();
    let hub = TcpTransport::new();
    let exec = Executor::new(2);
    let disc = PeerDiscovery::spawn_on(&hub, &exec.handle(), discovery_config())
        .expect("spawn parent discovery");
    let replica = spawn_replica(&hub, &exec.handle(), &disc, 0);
    let host = ServiceHost::spawn_on(
        &hub,
        &exec.handle(),
        "svc.jobs-parent",
        Arc::new(EchoService::new(format!("parent-pid-{pid}"))),
    )
    .expect("spawn parent member host");
    let admin = CommunityClient::connect(&hub, "parent.admin", replica.node().clone())
        .expect("connect parent admin");
    let parent_member = Member {
        id: MemberId("parent".into()),
        provider: format!("parent process {pid}"),
        endpoint: NodeId::new("svc.jobs-parent"),
        qos: QosProfile::default(),
    };
    admin.join(&parent_member).expect("join parent member");

    println!("[parent {pid}] replica 0 up — spawning replica 1 as a separate OS process");
    let child = ChildGuard(Some(
        std::process::Command::new(std::env::current_exe().expect("own path"))
            .arg("--replica")
            .arg(disc.seed_addr().to_string())
            .spawn()
            .expect("spawn child process"),
    ));

    // The child joins its member through replica 1 over there; the row
    // lands here as a gossiped delta — replica 0 never saw that join rpc.
    assert!(
        wait_until(Duration::from_secs(30), || replica.member_count() == 2),
        "parent never observed the child's member via gossip"
    );
    println!("[parent {pid}] observed child's member via membership gossip");
    // The deployer's replica probe must also find Jobs.r1 across the
    // process boundary before composites route to it.
    let r1 = naming::community_replica(COMMUNITY, 1);
    assert!(
        disc.wait_until_bound(r1.as_str(), Duration::from_secs(30)),
        "replica 1's name never surfaced via discovery"
    );

    let statechart = StatechartBuilder::new("CrossProcessJobs")
        .variable("payload", ParamType::Str)
        .initial("w")
        .task(
            TaskDef::new("w", "Work")
                .community(COMMUNITY, "work")
                .input("payload", "payload")
                .output("echoed_by", "worker"),
        )
        .final_state("f")
        .transition(TransitionDef::new("t", "w", "f"))
        .build()
        .expect("valid statechart");
    let dep = Deployer::new(&hub)
        .with_executor(exec.handle())
        .deploy(&statechart, &HashMap::new())
        .expect("deploy against the replicated community");

    // Round-robin over a converged table must rotate across BOTH
    // members — i.e. both OS processes serve — within a few executions.
    let mut served = std::collections::HashSet::new();
    for i in 0..16 {
        let out = dep
            .execute(
                MessageDoc::request("execute").with("payload", Value::str(format!("job-{i}"))),
                Duration::from_secs(10),
            )
            .expect("cross-process execution");
        let worker = out.get_str("worker").unwrap_or("?").to_string();
        println!("[parent {pid}] job-{i} served_by={worker}");
        served.insert(worker);
        if served.len() == 2 {
            break;
        }
    }
    assert!(
        served.iter().any(|w| w.starts_with("parent-pid-"))
            && served.iter().any(|w| w.starts_with("child-pid-")),
        "both processes' members should serve, saw only {served:?}"
    );
    drop(dep);

    // The child binds its control node only once it has seen our member
    // live; leaving before that could tombstone the row before it ever
    // arrived there live, and the child would wait for it forever.
    assert!(disc.wait_until_bound(CHILD_CTL, Duration::from_secs(30)));
    // Leave through replica 0, then ask the child to exit: it only exits
    // cleanly once the tombstone has gossiped over.
    admin.leave(&parent_member.id).expect("leave parent member");
    let goodbye = Transport::connect(&hub, NodeId::new("parent.ctl")).expect("connect ctl");
    goodbye
        .send(CHILD_CTL, "xproc.exit", Element::new("bye"))
        .expect("send exit");
    let status = child.disarm().wait().expect("child exit status");
    assert!(status.success(), "child exited cleanly");
    println!("[parent {pid}] done — both directions of membership gossip verified");
    drop((host, replica, disc));
    exec.shutdown();
}
