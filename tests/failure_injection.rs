//! Failure injection across the stack: dead coordinators, dead central
//! engines, community member failures, partitions.

use selfserv::community::{
    Community, CommunityClient, CommunityServer, CommunityServerConfig, Member, MemberId,
    QosProfile, RoundRobin,
};
use selfserv::core::{
    kinds, naming, CentralConfig, CentralizedOrchestrator, Deployer, Deployment, EchoService,
    ExecutionMonitor, FailingService, FunctionLibrary, MonitorOptions, ServiceBackend, ServiceHost,
};
use selfserv::net::{
    ChaosConfig, FaultSchedule, KindRule, Network, NetworkConfig, NodeId, TcpTransport, Transport,
};
use selfserv::registry::{FindQuery, RegistryClient, RegistryServer, UddiRegistry};
use selfserv::runtime::Executor;
use selfserv::statechart::synth;
use selfserv::wsdl::{MessageDoc, OperationDef, ServiceDescription};
use selfserv::xml::Element;
use selfserv_expr::Value;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn backends(n: usize) -> HashMap<String, Arc<dyn ServiceBackend>> {
    let mut map: HashMap<String, Arc<dyn ServiceBackend>> = HashMap::new();
    for i in 0..n {
        let name = synth::synth_service_name(i);
        map.insert(name.clone(), Arc::new(EchoService::new(name)));
    }
    map
}

fn input(i: usize) -> MessageDoc {
    MessageDoc::request("execute")
        .with("payload", Value::str(format!("p{i}")))
        .with("branch", Value::Int((i % 3) as i64))
}

#[test]
fn dead_coordinator_stalls_only_instances_that_need_it() {
    let exec = Executor::new(2);
    let net = Network::new(NetworkConfig::instant());
    let sc = synth::xor_choice(3);
    let dep = Deployer::new(&net)
        .with_executor(exec.handle())
        .deploy(&sc, &backends(3))
        .unwrap();
    // Kill the branch-2 coordinator.
    net.kill(&naming::coordinator(&sc.name, &"s2".into()));
    let mut ok = 0;
    let mut timed_out = 0;
    for i in 0..9 {
        match dep.execute(input(i), Duration::from_millis(600)) {
            Ok(_) => ok += 1,
            Err(selfserv::core::ExecError::Timeout) => timed_out += 1,
            Err(other) => panic!("unexpected error {other}"),
        }
    }
    // branch = i % 3; branch 2 (i = 2, 5, 8) needs the dead coordinator.
    assert_eq!(ok, 6);
    assert_eq!(timed_out, 3);
    drop(dep);
    exec.shutdown();
}

#[test]
fn dead_central_engine_kills_everything() {
    let exec = Executor::new(2);
    let net = Network::new(NetworkConfig::instant());
    let sc = synth::sequence(3);
    let mut hosts = Vec::new();
    let mut service_nodes = HashMap::new();
    for i in 0..3 {
        let name = synth::synth_service_name(i);
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
            statechart: sc,
            functions: FunctionLibrary::new(),
            service_nodes,
            community_nodes: HashMap::new(),
        },
    )
    .unwrap();
    central.execute(input(0), Duration::from_secs(5)).unwrap();
    net.kill(central.node());
    for i in 0..4 {
        let err = central
            .execute(input(i), Duration::from_millis(300))
            .unwrap_err();
        assert!(
            matches!(err, selfserv::core::ExecError::Timeout),
            "central dead → everything times out, got {err}"
        );
    }
    drop(central);
    exec.shutdown();
}

#[test]
fn revived_coordinator_serves_new_instances() {
    let exec = Executor::new(2);
    let net = Network::new(NetworkConfig::instant());
    let sc = synth::sequence(2);
    let dep = Deployer::new(&net)
        .with_executor(exec.handle())
        .deploy(&sc, &backends(2))
        .unwrap();
    let victim = naming::coordinator(&sc.name, &"s1".into());
    net.kill(&victim);
    assert!(dep.execute(input(0), Duration::from_millis(300)).is_err());
    net.revive(&victim);
    dep.execute(input(1), Duration::from_secs(5)).unwrap();
    drop(dep);
    exec.shutdown();
}

#[test]
fn partition_between_coordinators_stalls_downstream() {
    let exec = Executor::new(2);
    let net = Network::new(NetworkConfig::instant());
    let sc = synth::sequence(3);
    let dep = Deployer::new(&net)
        .with_executor(exec.handle())
        .deploy(&sc, &backends(3))
        .unwrap();
    let a = naming::coordinator(&sc.name, &"s0".into());
    let b = naming::coordinator(&sc.name, &"s1".into());
    net.partition(&a, &b);
    assert!(dep.execute(input(0), Duration::from_millis(400)).is_err());
    net.heal(&a, &b);
    dep.execute(input(1), Duration::from_secs(5)).unwrap();
    drop(dep);
    exec.shutdown();
}

#[test]
fn community_failover_inside_composite_execution() {
    let exec = Executor::new(2);
    let net = Network::new(NetworkConfig::instant());
    // Community with one failing and one healthy member.
    let community = CommunityServer::spawn_on(
        &net,
        &exec.handle(),
        naming::community("Workers").as_str(),
        Community::new("Workers", "").with_operation(OperationDef::new("run")),
        Arc::new(RoundRobin::new()),
        CommunityServerConfig {
            member_timeout: Duration::from_millis(300),
            ..Default::default()
        },
    )
    .unwrap();
    let _bad = ServiceHost::spawn_on(
        &net,
        &exec.handle(),
        "svc.bad-member",
        Arc::new(FailingService::new("bad", "always fails")),
    )
    .unwrap();
    let _good = ServiceHost::spawn_on(
        &net,
        &exec.handle(),
        "svc.good-member",
        Arc::new(EchoService::new("good")),
    )
    .unwrap();
    let admin = CommunityClient::connect(&net, "admin", community.node().clone()).unwrap();
    for (id, ep) in [("a-bad", "svc.bad-member"), ("b-good", "svc.good-member")] {
        admin
            .join(&Member {
                id: MemberId(id.into()),
                provider: id.into(),
                endpoint: NodeId::new(ep),
                qos: QosProfile::default(),
            })
            .unwrap();
    }

    // A composite whose single task goes through the community.
    use selfserv::statechart::{StatechartBuilder, TaskDef, TransitionDef};
    use selfserv::wsdl::ParamType;
    let sc = StatechartBuilder::new("CommunityComposite")
        .variable("payload", ParamType::Str)
        .initial("w")
        .task(
            TaskDef::new("w", "Work")
                .community("Workers", "run")
                .input("payload", "payload")
                .output("echoed_by", "worker"),
        )
        .final_state("f")
        .transition(TransitionDef::new("t", "w", "f"))
        .build()
        .unwrap();
    let dep = Deployer::new(&net)
        .with_executor(exec.handle())
        .deploy(&sc, &HashMap::new())
        .unwrap();
    // Round-robin hits the failing member on alternating calls; failover
    // must mask every one of them.
    for i in 0..6 {
        let out = dep
            .execute(
                MessageDoc::request("execute").with("payload", Value::str(format!("p{i}"))),
                Duration::from_secs(5),
            )
            .unwrap();
        assert_eq!(out.get_str("worker"), Some("good"));
    }
    drop((dep, _good, _bad, community));
    exec.shutdown();
}

#[test]
fn lossy_network_degrades_but_does_not_wedge_the_platform() {
    let exec = Executor::new(2);
    // With 30% loss and no retransmission some instances stall (and time
    // out), but completed ones are correct and the actors survive to serve
    // a lossless epoch afterwards.
    let net = Network::new(NetworkConfig::instant());
    let sc = synth::sequence(3);
    let dep = Deployer::new(&net)
        .with_executor(exec.handle())
        .deploy(&sc, &backends(3))
        .unwrap();
    let loss = ChaosConfig::default().rule(KindRule::all().drop(0.3));
    let schedule = FaultSchedule::sample(13, loss);
    net.install_chaos(Arc::clone(&schedule));
    for i in 0..10 {
        if let Ok(out) = dep.execute(input(i), Duration::from_millis(300)) {
            assert_eq!(out.get_str("payload"), Some(format!("p{i}").as_str()));
        }
    }
    assert!(schedule.fault_count() > 0, "the lossy epoch lost messages");
    net.clear_chaos();
    let out = dep.execute(input(99), Duration::from_secs(5)).unwrap();
    assert_eq!(out.get_str("payload"), Some("p99"));
    drop(dep);
    exec.shutdown();
}

/// The wrapper and coordinator nodes of a deployment.
fn composite_nodes(dep: &Deployment) -> Vec<NodeId> {
    let mut nodes = vec![dep.wrapper_node().clone()];
    nodes.extend(
        dep.plan()
            .tables
            .keys()
            .map(|state| naming::coordinator(dep.composite(), state)),
    );
    nodes
}

/// Polls `done` every 5 ms until it holds or `timeout` passes.
fn eventually(timeout: Duration, done: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

#[test]
fn hostile_stop_kinds_stop_nothing() {
    let exec = Executor::new(2);
    // A node stops only through its handle. The stop kinds components
    // once honoured are unrelated traffic now: an anonymous peer that
    // sends them stops no coordinator, wrapper, host, central engine,
    // monitor, community replica or registry.
    let net = Network::new(NetworkConfig::instant());
    let monitor =
        ExecutionMonitor::spawn_with(&net, &exec.handle(), "monitor", MonitorOptions::default())
            .unwrap();
    let sc = synth::sequence(3);
    let dep = Deployer::new(&net)
        .with_executor(exec.handle())
        .with_monitor(monitor.node().clone())
        .deploy(&sc, &backends(3))
        .unwrap();
    let mut hosts = Vec::new();
    let mut service_nodes = HashMap::new();
    for i in 0..3 {
        let name = synth::synth_service_name(i);
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
            community_nodes: HashMap::new(),
        },
    )
    .unwrap();
    let community = CommunityServer::spawn_on(
        &net,
        &exec.handle(),
        naming::community("Workers").as_str(),
        Community::new("Workers", "").with_operation(OperationDef::new("run")),
        Arc::new(RoundRobin::new()),
        CommunityServerConfig::default(),
    )
    .unwrap();
    let mut workers =
        CommunityClient::connect(&net, "workers-client", community.node().clone()).unwrap();
    workers.timeout = Duration::from_secs(2);
    workers
        .join(&Member {
            id: MemberId("echo".into()),
            provider: "echo".into(),
            endpoint: hosts[0].node().clone(),
            qos: QosProfile::default(),
        })
        .unwrap();
    let registry =
        RegistryServer::spawn_on(&net, &exec.handle(), "uddi", Arc::new(UddiRegistry::new()))
            .unwrap();
    let mut uddi = RegistryClient::connect(&net, "uddi-client", "uddi").unwrap();
    uddi.timeout = Duration::from_secs(2);
    let business = uddi.save_business("Acme Travel", "ops@acme").unwrap();
    uddi.save_service(
        &business,
        "travel",
        &ServiceDescription::new("Flight Booking", "Acme Travel"),
        None,
    )
    .unwrap();

    let hostile = net.connect_anonymous("hostile");
    let mut actors = composite_nodes(&dep);
    actors.extend([
        hosts[1].node().clone(),
        central.node().clone(),
        monitor.node().clone(),
    ]);
    for node in &actors {
        hostile
            .send(node.clone(), "actor.stop", Element::new("stop"))
            .unwrap();
    }
    // A stray stop kind gets the answer any unknown kind gets.
    let reply = hostile
        .rpc(
            community.node().clone(),
            "community.stop",
            Element::new("stop"),
            Duration::from_secs(2),
        )
        .expect("the community answers a stray stop kind");
    assert_eq!(reply.kind, "community.fault");
    let reply = hostile
        .rpc(
            "uddi",
            "registry.stop",
            Element::new("stop"),
            Duration::from_secs(2),
        )
        .expect("the registry answers a stray stop kind");
    assert_eq!(reply.kind, "uddi.fault");

    // Each target serves its next request.
    let out = dep.execute(input(0), Duration::from_secs(2)).unwrap();
    assert_eq!(out.get_str("payload"), Some("p0"));
    assert!(
        eventually(Duration::from_secs(2), || monitor.event_count() > 0),
        "the monitor records the execution's trace"
    );
    let reply = hostile
        .rpc(
            hosts[1].node().clone(),
            kinds::INVOKE,
            MessageDoc::request("op").to_xml(),
            Duration::from_secs(2),
        )
        .unwrap();
    assert!(!MessageDoc::from_xml(&reply.body).unwrap().is_fault());
    let out = central.execute(input(1), Duration::from_secs(2)).unwrap();
    assert_eq!(out.get_str("payload"), Some("p1"));
    let out = workers.invoke(&MessageDoc::request("run")).unwrap();
    assert!(!out.is_fault());
    let hits = uddi
        .find(&FindQuery::any().service_name("Flight Booking"))
        .unwrap();
    assert_eq!(hits.len(), 1);

    actors.extend([community.node().clone(), registry.node().clone()]);
    for node in &actors {
        assert!(net.is_connected(node.as_str()), "{node} is still connected");
    }
    drop((registry, community, central, dep, monitor));
    exec.shutdown();
}

#[test]
fn hostile_stop_kinds_stop_nothing_over_tcp() {
    let exec = Executor::new(2);
    // The same from a second hub: one frame on a hub connection stops no
    // coordinator on the first hub.
    let hub_a = TcpTransport::new();
    let hub_b = TcpTransport::new();
    let dep = Deployer::new(&hub_a)
        .with_executor(exec.handle())
        .deploy(&synth::sequence(2), &backends(2))
        .unwrap();
    let coordinator = naming::coordinator(dep.composite(), &"s1".into());
    let hostile = hub_b.connect_anonymous("hostile");
    hub_b.register_peer(
        coordinator.clone(),
        hub_a.addr_of(coordinator.as_str()).unwrap(),
    );
    hostile
        .send(coordinator.clone(), "actor.stop", Element::new("stop"))
        .unwrap();
    // Once the frame is in the coordinator's mailbox, everything sent to
    // it afterwards queues behind it.
    assert!(
        eventually(Duration::from_secs(5), || hub_a
            .metrics()
            .node(coordinator.as_str())
            .is_some_and(|m| m.received >= 1)),
        "the frame reaches the coordinator"
    );
    for i in 0..3 {
        dep.execute(input(i), Duration::from_secs(2)).unwrap();
    }
    assert!(hub_a.is_connected(coordinator.as_str()));
    drop(dep);
    exec.shutdown();
}

#[test]
fn a_kill_ends_when_its_node_leaves() {
    let exec = Executor::new(2);
    // A kill belongs to the node that was killed: undeploying a killed
    // coordinator frees its name alive, so a redeploy serves.
    let net = Network::new(NetworkConfig::instant());
    let sc = synth::sequence(2);
    let dep = Deployer::new(&net)
        .with_executor(exec.handle())
        .deploy(&sc, &backends(2))
        .unwrap();
    let victim = naming::coordinator(&sc.name, &"s1".into());
    net.kill(&victim);
    assert!(dep.execute(input(0), Duration::from_millis(300)).is_err());
    dep.undeploy();
    assert!(!net.is_dead(&victim));
    let dep = Deployer::new(&net)
        .with_executor(exec.handle())
        .deploy(&sc, &backends(2))
        .unwrap();
    for i in 1..4 {
        dep.execute(input(i), Duration::from_secs(5)).unwrap();
    }
    assert!(!net.is_dead(&victim));
    drop(dep);
    exec.shutdown();
}

#[test]
fn a_kill_ends_when_its_node_leaves_raw_endpoint() {
    // The same with no component handle in between: the endpoint's drop
    // alone clears the kill.
    let net = Network::new(NetworkConfig::instant());
    let sender = net.connect_anonymous("sender");
    let raw = net.connect("raw").unwrap();
    net.kill(raw.node());
    drop(raw);
    assert!(!net.is_dead(&NodeId::new("raw")));
    let raw = net.connect("raw").unwrap();
    sender.send("raw", "ping", Element::new("ping")).unwrap();
    let got = raw
        .recv_timeout(Duration::from_secs(5))
        .expect("a reconnected name is delivered to");
    assert_eq!(got.kind, "ping");
}
