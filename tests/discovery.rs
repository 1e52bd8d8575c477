//! Peer discovery & membership end-to-end: seed-address bootstrap across
//! `TcpTransport` hubs, gossip convergence at network scale, and failure
//! detection feeding community selection and the execution monitor.
//!
//! These are the acceptance scenarios of the discovery subsystem:
//! * two hubs linked by **one seed address** — no `register_peer`
//!   anywhere — complete a full composite deployment whose task delegates
//!   through a community hosted in the *other* hub, with rpc round trips
//!   crossing the hub boundary in both directions;
//! * sixteen hubs seeded in a line converge to byte-identical directories
//!   on every hub;
//! * a hub killed mid-deployment is suspected, then evicted, within the
//!   configured budget; community selection stops picking its members and
//!   executions keep succeeding on the survivors.

use selfserv::community::{
    Community, CommunityClient, CommunityServer, CommunityServerConfig, Member, MemberId,
    QosProfile, RoundRobin,
};
use selfserv::core::{
    naming, Deployer, EchoService, ExecutionMonitor, MonitorOptions, ServiceHost,
};
use selfserv::expr::Value;
use selfserv::net::{LivenessProbe, NodeId, PeerStatus, TcpTransport, Transport};
use selfserv::runtime::Executor;
use selfserv::statechart::{Statechart, StatechartBuilder, TaskDef, TransitionDef};
use selfserv::wsdl::{MessageDoc, OperationDef, ParamType};
use selfserv_discovery::{DiscoveryConfig, DiscoveryHandle, PeerDiscovery};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fast(unit_ms: u64) -> DiscoveryConfig {
    DiscoveryConfig::default().with_cadence(Duration::from_millis(unit_ms))
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

/// A one-task composite delegating through the `Booking` community.
fn booking_composite(name: &str) -> Statechart {
    StatechartBuilder::new(name)
        .variable("payload", ParamType::Str)
        .initial("b")
        .task(
            TaskDef::new("b", "Book")
                .community("Booking", "book")
                .input("payload", "payload")
                .output("echoed_by", "worker"),
        )
        .final_state("f")
        .transition(TransitionDef::new("t", "b", "f"))
        .build()
        .unwrap()
}

fn member(id: &str, endpoint: &str) -> Member {
    Member {
        id: MemberId(id.into()),
        provider: id.into(),
        endpoint: NodeId::new(endpoint),
        qos: QosProfile::default(),
    }
}

/// Two processes' worth of hubs, one seed address, zero `register_peer`
/// calls: hub B hosts the community and its member service, hub A deploys
/// and executes the composite. Every community invocation is a
/// coordinator-on-A → community-on-B → member-on-B → back chain of rpc
/// round trips across the hub boundary.
#[test]
fn one_seed_address_deploys_a_composite_across_two_hubs() {
    let exec = Executor::new(2);
    let hub_a = TcpTransport::new();
    let hub_b = TcpTransport::new();
    let disc_a = PeerDiscovery::spawn_on(&hub_a, &exec.handle(), fast(25)).unwrap();
    let disc_b = PeerDiscovery::spawn_on(
        &hub_b,
        &exec.handle(),
        fast(25).with_seed(disc_a.seed_addr()),
    )
    .unwrap();

    // Hub B: the provider process — community + one member service.
    let community = CommunityServer::spawn_on(
        &hub_b,
        &exec.handle(),
        naming::community("Booking").as_str(),
        Community::new("Booking", "cross-hub booking").with_operation(OperationDef::new("book")),
        Arc::new(RoundRobin::new()),
        CommunityServerConfig::default(),
    )
    .unwrap();
    let _host = ServiceHost::spawn_on(
        &hub_b,
        &exec.handle(),
        "svc.bookings",
        Arc::new(EchoService::new("bookings-on-b")),
    )
    .unwrap();
    let admin = CommunityClient::connect(&hub_b, "admin", community.node().clone()).unwrap();
    admin.join(&member("m1", "svc.bookings")).unwrap();

    // Hub A: the consumer process. It has only the seed address; wait for
    // gossip to surface the community, then deploy against it.
    assert!(
        disc_a.wait_until_bound(
            naming::community("Booking").as_str(),
            Duration::from_secs(10)
        ),
        "gossip delivers the community's name to the deploying hub"
    );
    let dep = Deployer::new(&hub_a)
        .with_executor(exec.handle())
        .deploy(&booking_composite("CrossHub"), &HashMap::new())
        .unwrap();
    for i in 0..3 {
        let out = dep
            .execute(
                MessageDoc::request("execute").with("payload", Value::str(format!("p{i}"))),
                Duration::from_secs(10),
            )
            .unwrap();
        assert_eq!(out.get_str("payload"), Some(format!("p{i}").as_str()));
        assert_eq!(
            out.get_str("worker"),
            Some("bookings-on-b"),
            "the task was served by the member in the other process"
        );
    }
    drop(dep);
    drop(admin);
    drop(community);
    drop(disc_b);
    drop((_host, disc_a));
    exec.shutdown();
}

/// Sixteen hubs, each seeded only with its predecessor's address (a line —
/// the worst diameter a connected seed graph can have). Anti-entropy must
/// converge every directory to the same entry set: same names, same
/// addresses, same owners, same versions.
#[test]
fn sixteen_hub_line_topology_converges_to_identical_directories() {
    let exec = Executor::new(2);
    const N: usize = 16;
    let mut hubs = Vec::with_capacity(N);
    let mut discs: Vec<DiscoveryHandle> = Vec::with_capacity(N);
    let mut endpoints = Vec::with_capacity(N);
    for i in 0..N {
        let hub = TcpTransport::new();
        // One application node per hub, so convergence is about real
        // registrations, not just the discovery endpoints themselves.
        endpoints.push(Transport::connect(&hub, NodeId::new(format!("node.{i}"))).unwrap());
        let mut config = fast(50);
        if let Some(prev) = discs.last() {
            config = config.with_seed(prev.seed_addr());
        }
        discs.push(PeerDiscovery::spawn_on(&hub, &exec.handle(), config).unwrap());
        hubs.push(hub);
    }
    let converged = wait_until(Duration::from_secs(60), || {
        let expect_names = 2 * N; // N app nodes + N discovery nodes
        discs
            .iter()
            .all(|d| d.directory().names().len() == expect_names)
            && discs
                .iter()
                .all(|d| d.directory().fingerprint() == discs[0].directory().fingerprint())
    });
    assert!(converged, "line topology gossip converged within budget");
    let reference = discs[0].directory().snapshot();
    assert_eq!(reference.len(), 2 * N);
    for (i, disc) in discs.iter().enumerate() {
        assert_eq!(
            disc.directory().snapshot(),
            reference,
            "hub {i} holds the same directory as hub 0"
        );
    }
    // The directory is not just convergent but *routable*: the two line
    // ends, 15 hops apart in the seed graph, rpc each other directly.
    let last = endpoints.pop().unwrap();
    let first = &endpoints[0];
    let server = std::thread::spawn(move || {
        let req = last.recv().unwrap();
        last.reply(&req, "pong", selfserv::xml::Element::new("pong"))
            .unwrap();
    });
    let reply = first
        .rpc(
            format!("node.{}", N - 1),
            "ping",
            selfserv::xml::Element::new("ping"),
            Duration::from_secs(5),
        )
        .unwrap();
    assert_eq!(reply.kind, "pong");
    server.join().unwrap();
    exec.shutdown();
}

/// Failure detection under a mid-deployment hub kill: the dead hub's
/// member is suspected, then evicted within the suspicion budget; the
/// community's liveness gate stops selecting it; executions keep
/// succeeding on the surviving member; the monitor records the whole
/// transition.
#[test]
fn killed_hub_is_evicted_and_community_selection_drops_its_members() {
    let exec = Executor::new(2);
    let hub_a = TcpTransport::new();
    let hub_b = TcpTransport::new();
    // 25 ms cadence → suspected after 150 ms of silence, evicted after
    // 300 ms. The assertion budget below is the eviction timeout plus
    // generous scheduler slack.
    let monitor =
        ExecutionMonitor::spawn_with(&hub_a, &exec.handle(), "monitor", MonitorOptions::default())
            .unwrap();
    let disc_a = PeerDiscovery::spawn_on(
        &hub_a,
        &exec.handle(),
        fast(25).with_monitor(monitor.node().clone()),
    )
    .unwrap();
    let disc_b = PeerDiscovery::spawn_on(
        &hub_b,
        &exec.handle(),
        fast(25).with_seed(disc_a.seed_addr()),
    )
    .unwrap();

    // Community lives on the surviving hub A, with the failure detector's
    // directory as its liveness view. One member local, one on doomed B.
    let community = CommunityServer::spawn_on(
        &hub_a,
        &exec.handle(),
        naming::community("Booking").as_str(),
        Community::new("Booking", "").with_operation(OperationDef::new("book")),
        Arc::new(RoundRobin::new()),
        CommunityServerConfig {
            member_timeout: Duration::from_millis(500),
            liveness: Some(disc_a.liveness()),
            ..Default::default()
        },
    )
    .unwrap();
    let _local = ServiceHost::spawn_on(
        &hub_a,
        &exec.handle(),
        "svc.local",
        Arc::new(EchoService::new("local-member")),
    )
    .unwrap();
    let remote = ServiceHost::spawn_on(
        &hub_b,
        &exec.handle(),
        "svc.remote",
        Arc::new(EchoService::new("remote-member")),
    )
    .unwrap();
    assert!(disc_a.wait_until_bound("svc.remote", Duration::from_secs(10)));
    let admin = CommunityClient::connect(&hub_a, "admin", community.node().clone()).unwrap();
    admin.join(&member("a-local", "svc.local")).unwrap();
    admin.join(&member("b-remote", "svc.remote")).unwrap();

    // Deploy and prove the composite works while both hubs are alive.
    let dep = Deployer::new(&hub_a)
        .with_executor(exec.handle())
        .deploy(&booking_composite("Survivable"), &HashMap::new())
        .unwrap();
    let out = dep
        .execute(
            MessageDoc::request("execute").with("payload", Value::str("warm")),
            Duration::from_secs(10),
        )
        .unwrap();
    assert!(out.get_str("worker").is_some());

    // Kill hub B mid-deployment: its discovery node, its member host.
    let b_hub_id = hub_b.hub_id();
    disc_b.stop();
    remote.stop();

    // Within the suspicion/eviction budget, A's detector walks the
    // ladder and the directory reflects it.
    let dir_a = disc_a.directory().clone();
    assert!(
        wait_until(Duration::from_secs(10), || {
            dir_a.status_of("svc.remote") == PeerStatus::Evicted
        }),
        "the killed hub's member was evicted (status: {:?})",
        dir_a.status_of("svc.remote")
    );

    // Community selection now never picks the evicted member: round-robin
    // over {local, remote} would alternate, so ten straight local serves
    // prove the gate.
    let client = CommunityClient::connect(&hub_a, "probe", community.node().clone()).unwrap();
    for _ in 0..10 {
        let resp = client
            .invoke(&MessageDoc::request("book").with("payload", Value::str("x")))
            .unwrap();
        assert_eq!(resp.get_str("echoed_by"), Some("local-member"));
    }

    // The deployment keeps executing after the kill.
    for i in 0..3 {
        let out = dep
            .execute(
                MessageDoc::request("execute").with("payload", Value::str(format!("k{i}"))),
                Duration::from_secs(10),
            )
            .unwrap();
        assert_eq!(out.get_str("worker"), Some("local-member"));
    }

    // The monitor ingested the liveness trail: suspicion, then eviction,
    // attributed to B's hub and naming its member.
    assert!(
        wait_until(Duration::from_secs(5), || {
            monitor.peer_status("svc.remote") == Some(PeerStatus::Evicted)
        }),
        "monitor learned the eviction"
    );
    let events = monitor.liveness_events();
    assert!(events
        .iter()
        .any(|e| e.hub == b_hub_id && e.status == PeerStatus::Suspected));
    assert!(events.iter().any(|e| e.hub == b_hub_id
        && e.status == PeerStatus::Evicted
        && e.names.contains(&NodeId::new("svc.remote"))));
    drop((dep, _local, community, disc_a, monitor));
    exec.shutdown();
}
