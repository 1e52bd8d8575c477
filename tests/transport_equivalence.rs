//! Transport equivalence: the same composite services execute
//! byte-identically over the in-process simulation fabric and over real
//! TCP sockets.
//!
//! This is the acceptance test for the transport seam: every platform
//! component (coordinators, wrapper, community, registry, service hosts)
//! is spawned against `&dyn Transport`, so swapping [`Network`] for
//! [`TcpTransport`] must change *nothing* about the computation — only the
//! wire. Output documents are compared after stripping `_elapsed_ms`, the
//! single wall-clock-dependent field.

use selfserv::core::{
    AccommodationChoice, Deployer, EchoService, ServiceBackend, TravelDemo, TravelDemoConfig,
};
use selfserv::net::{Network, NetworkConfig, TcpTransport, Transport};
use selfserv::runtime::{Executor, ExecutorHandle};
use selfserv::statechart::{Statechart, StatechartBuilder, TaskDef, TransitionDef};
use selfserv::wsdl::{MessageDoc, ParamType};
use selfserv_expr::Value;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::normalized;

/// The quickstart composite: quote a price, then confirm or escalate.
fn quickstart_chart() -> Statechart {
    StatechartBuilder::new("Quote And Confirm")
        .variable("item", ParamType::Str)
        .variable("amount", ParamType::Int)
        .initial("Quote")
        .task(
            TaskDef::new("Quote", "Quote Price")
                .service("Pricing", "quote")
                .input("item", "item")
                .input("amount", "amount")
                .output("echoed_by", "quoted_by"),
        )
        .task(
            TaskDef::new("Confirm", "Confirm Order")
                .service("Orders", "confirm")
                .input("item", "item")
                .output("echoed_by", "confirmed_by"),
        )
        .task(
            TaskDef::new("Escalate", "Escalate To Human")
                .service("Helpdesk", "escalate")
                .input("item", "item"),
        )
        .final_state("Done")
        .transition(TransitionDef::new("t1", "Quote", "Confirm").guard("amount <= 100"))
        .transition(TransitionDef::new("t2", "Quote", "Escalate").guard("amount > 100"))
        .transition(TransitionDef::new("t3", "Confirm", "Done"))
        .transition(TransitionDef::new("t4", "Escalate", "Done"))
        .build()
        .expect("well-formed statechart")
}

/// The exact normalized outputs the thread-per-node seed path produced
/// for the quickstart workload (captured before the worker-pool runtime
/// replaced per-node threads). The runtime refactor must keep every
/// transport byte-identical to these.
const QUICKSTART_GOLDEN: [&str; 2] = [
    "<message operation=\"execute\" kind=\"response\">\
     <param name=\"_instance\" type=\"string\">i1</param>\
     <param name=\"amount\" type=\"int\">12</param>\
     <param name=\"confirmed_by\" type=\"string\">Orders</param>\
     <param name=\"item\" type=\"string\">coffee beans</param>\
     <param name=\"quoted_by\" type=\"string\">Pricing</param>\
     </message>",
    "<message operation=\"execute\" kind=\"response\">\
     <param name=\"_instance\" type=\"string\">i2</param>\
     <param name=\"amount\" type=\"int\">5000</param>\
     <param name=\"item\" type=\"string\">espresso machines</param>\
     <param name=\"quoted_by\" type=\"string\">Pricing</param>\
     </message>",
];

/// Runs the quickstart composite (both guard branches) over `net` and
/// returns the normalized outputs plus a per-named-node traffic census.
fn run_quickstart(
    net: &dyn Transport,
    exec: &ExecutorHandle,
) -> (Vec<String>, Vec<(String, u64, u64)>) {
    run_quickstart_with(net, Deployer::new(net).with_executor(exec.clone()))
}

/// Same, with a caller-configured deployer (e.g. pinned to an explicit
/// executor).
fn run_quickstart_with(
    net: &dyn Transport,
    deployer: Deployer,
) -> (Vec<String>, Vec<(String, u64, u64)>) {
    let mut backends: HashMap<String, Arc<dyn ServiceBackend>> = HashMap::new();
    for name in ["Pricing", "Orders", "Helpdesk"] {
        backends.insert(name.to_string(), Arc::new(EchoService::new(name)));
    }
    let deployment = deployer
        .deploy(&quickstart_chart(), &backends)
        .expect("deploys");
    net.reset_metrics();
    let mut outputs = Vec::new();
    for (item, amount) in [("coffee beans", 12), ("espresso machines", 5000)] {
        let out = deployment
            .execute(
                MessageDoc::request("execute")
                    .with("item", Value::str(item))
                    .with("amount", Value::Int(amount)),
                Duration::from_secs(10),
            )
            .expect("executes");
        outputs.push(normalized(&out));
    }
    // Census before undeploy (which sends nothing): the counts are the
    // execution traffic. Anonymous
    // (`~`) client/reply nodes are transport bookkeeping, not protocol.
    // TCP delivery counters are updated by reader threads after the reply
    // reaches the caller, so poll until the census stops moving.
    let census = settled_census(net);
    deployment.undeploy();
    (outputs, census)
}

fn census(net: &dyn Transport) -> Vec<(String, u64, u64)> {
    net.metrics()
        .nodes
        .iter()
        .filter(|n| !n.node.as_str().contains('~'))
        .map(|n| (n.node.as_str().to_string(), n.sent, n.received))
        .collect()
}

fn settled_census(net: &dyn Transport) -> Vec<(String, u64, u64)> {
    let mut last = census(net);
    for _ in 0..40 {
        std::thread::sleep(Duration::from_millis(25));
        let next = census(net);
        if next == last {
            return next;
        }
        last = next;
    }
    last
}

/// Runs the travel scenario (domestic and international bookings, far
/// accommodation so car rental and the community both engage) over `net`.
fn run_travel(net: &dyn Transport, exec: &ExecutorHandle) -> Vec<String> {
    let demo = TravelDemo::launch(
        net,
        exec,
        TravelDemoConfig {
            accommodation: AccommodationChoice::FarFromAttraction,
            ..Default::default()
        },
    )
    .expect("demo launches");
    let mut outputs = Vec::new();
    for (customer, destination) in [("Eileen", "Sydney"), ("Quan", "Hong Kong")] {
        let out = demo
            .book_trip(customer, destination, "2002-08-20", "2002-08-27")
            .expect("booking succeeds");
        outputs.push(normalized(&out));
    }
    outputs
}

#[test]
fn quickstart_outputs_identical_over_fabric_and_tcp() {
    let exec = Executor::new(2);
    let fabric = Network::new(NetworkConfig::instant());
    let tcp = TcpTransport::new();
    let (fabric_out, fabric_census) = run_quickstart(&fabric, &exec.handle());
    let (tcp_out, tcp_census) = run_quickstart(&tcp, &exec.handle());
    assert_eq!(
        fabric_out, tcp_out,
        "output documents must be byte-identical"
    );
    // The small order confirmed, the large one escalated — on both wires.
    assert!(fabric_out[0].contains("confirmed_by"));
    assert!(!fabric_out[1].contains("confirmed_by"));
    // The coordination protocol itself is also identical: every named node
    // sent and received exactly the same number of messages.
    assert_eq!(
        fabric_census, tcp_census,
        "per-node traffic must match across transports"
    );
    // And both match the thread-per-node seed path, byte for byte.
    assert_eq!(fabric_out, QUICKSTART_GOLDEN, "seed-path golden");
    exec.shutdown();
}

#[test]
fn quickstart_on_a_pinned_4_worker_executor_matches_the_seed_golden() {
    // Pinning the whole deployment onto a 4-worker executor (instead of
    // the 2 workers the other cases name) changes scheduling only —
    // outputs and per-node protocol traffic stay byte-identical to the
    // thread-per-node seed path, on both transports.
    let exec = Executor::new(4);

    let fabric = Network::new(NetworkConfig::instant());
    let (fabric_out, fabric_census) =
        run_quickstart_with(&fabric, Deployer::new(&fabric).with_executor(exec.handle()));
    let tcp = TcpTransport::new();
    let (tcp_out, tcp_census) =
        run_quickstart_with(&tcp, Deployer::new(&tcp).with_executor(exec.handle()));

    assert_eq!(fabric_out, QUICKSTART_GOLDEN, "fabric on pinned executor");
    assert_eq!(tcp_out, QUICKSTART_GOLDEN, "tcp on pinned executor");
    assert_eq!(
        fabric_census, tcp_census,
        "per-node traffic must match across transports on a pinned executor"
    );
    exec.shutdown();
}

#[test]
fn travel_scenario_outputs_identical_over_fabric_and_tcp() {
    let exec = Executor::new(2);
    let fabric = Network::new(NetworkConfig::instant());
    let tcp = TcpTransport::new();
    let fabric_out = run_travel(&fabric, &exec.handle());
    let tcp_out = run_travel(&tcp, &exec.handle());
    assert_eq!(fabric_out, tcp_out, "travel outputs must be byte-identical");
    // Sanity: the runs actually exercised the interesting paths.
    assert!(fabric_out[0].contains("QF-"), "domestic flight booked");
    assert!(
        fabric_out[0].contains("CAR-"),
        "far accommodation rents a car"
    );
    assert!(fabric_out[1].contains("GW-"), "international flight booked");
    assert!(fabric_out[1].contains("POL-"), "international trip insured");
    exec.shutdown();
}

#[test]
fn rpc_round_trips_between_hubs_linked_only_by_register_peer() {
    let exec = Executor::new(2);
    // Two TcpTransport hubs model two OS processes. They share nothing but
    // name → address registrations exchanged "out of band" in both
    // directions. A full request/response must round-trip by name: the
    // request frame carries the caller's node name as the reply address,
    // and the responder's reply is an ordinary named send routed back
    // across the hub boundary. (Before the persistent reply demultiplexer
    // this was impossible: replies targeted caller-local ephemeral names
    // that the remote hub had never heard of.)
    use selfserv::net::TcpTransport as Hub;
    use selfserv::registry::{FindQuery, RegistryClient, RegistryServer, UddiRegistry};
    use selfserv::wsdl::ServiceDescription;

    let hub_a = Hub::new();
    let hub_b = Hub::new();
    let store = Arc::new(UddiRegistry::new());
    let server =
        RegistryServer::spawn_on(&hub_b, &exec.handle(), "uddi", Arc::clone(&store)).unwrap();
    let client = RegistryClient::connect(&hub_a, "manager", "uddi").unwrap();
    // Exchange addresses both ways: requests flow a→b, replies b→a.
    hub_a.register_peer("uddi", hub_b.addr_of("uddi").unwrap());
    hub_b.register_peer("manager", hub_a.addr_of("manager").unwrap());

    // The full registry protocol — four rpc round trips — runs across the
    // process-shaped boundary.
    let business = client.save_business("Acme Travel", "ops@acme").unwrap();
    let desc = ServiceDescription::new("Flight Booking", "Acme Travel");
    let key = client
        .save_service(&business, "travel", &desc, None)
        .unwrap();
    let hits = client
        .find(&FindQuery::any().service_name("Flight Booking"))
        .unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].key(), key);
    let fetched = client.get_service(&key).unwrap();
    assert_eq!(fetched.description.name, "Flight Booking");
    server.stop();
    exec.shutdown();
}

#[test]
fn tcp_deployment_survives_repeated_cycles() {
    // Deploy/undeploy repeatedly on one TcpTransport: names must free up
    // and accept threads must be joined (no listener leaks blocking
    // rebinds, no stale connections delivering to dead nodes).
    let exec = Executor::new(2);
    let tcp = TcpTransport::new();
    for round in 0..3 {
        let (outputs, _) = run_quickstart(&tcp, &exec.handle());
        assert_eq!(outputs.len(), 2, "round {round} produced both outputs");
    }
    exec.shutdown();
}
