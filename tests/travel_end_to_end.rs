//! End-to-end integration of the full Section-4 demo: registry, community,
//! P2P deployment, both guard branches, metrics.

use selfserv::core::{AccommodationChoice, TravelDemo, TravelDemoConfig};
use selfserv::net::{Network, NetworkConfig};
use selfserv::registry::{FindQuery, RegistryClient};
use selfserv::runtime::Executor;
use selfserv::wsdl::MessageDoc;
use selfserv_expr::Value;
use std::time::Duration;

#[test]
fn domestic_near_accommodation_skips_car_rental() {
    let exec = Executor::new(2);
    let net = Network::new(NetworkConfig::instant());
    let demo = TravelDemo::launch(&net, &exec.handle(), TravelDemoConfig::default()).unwrap();
    let out = demo
        .book_trip("Eileen", "Sydney", "2002-08-20", "2002-08-27")
        .unwrap();
    assert!(out
        .get_str("flight_confirmation")
        .unwrap()
        .starts_with("QF-"));
    assert_eq!(out.get_str("accommodation"), Some("Sydney CBD Hotel"));
    assert!(out.get("car_confirmation").is_none());
    assert!(out.get("insurance_policy").is_none());
    drop(demo);
    exec.shutdown();
}

#[test]
fn international_far_accommodation_rents_car_and_insures() {
    let exec = Executor::new(2);
    let net = Network::new(NetworkConfig::instant());
    let demo = TravelDemo::launch(
        &net,
        &exec.handle(),
        TravelDemoConfig {
            accommodation: AccommodationChoice::FarFromAttraction,
            ..Default::default()
        },
    )
    .unwrap();
    let out = demo
        .book_trip("Quan", "Hong Kong", "2002-08-20", "2002-09-01")
        .unwrap();
    assert!(out
        .get_str("flight_confirmation")
        .unwrap()
        .starts_with("GW-"));
    assert!(out.get_str("insurance_policy").unwrap().starts_with("POL-"));
    assert!(out.get_str("car_confirmation").unwrap().starts_with("CAR-"));
    assert_eq!(out.get_str("accommodation"), Some("Bondi Hostel"));
    drop(demo);
    exec.shutdown();
}

#[test]
fn composite_discoverable_and_executable_via_remote_registry_lookup() {
    let exec = Executor::new(2);
    let net = Network::new(NetworkConfig::instant());
    let demo = TravelDemo::launch(&net, &exec.handle(), TravelDemoConfig::default()).unwrap();
    // A remote end user searches the registry over the fabric (Figure 3's
    // Search panel), then executes via the discovered binding.
    let client = RegistryClient::connect(&net, "end-user", "uddi").unwrap();
    let hits = client
        .find(&FindQuery::any().service_name("Travel Planning"))
        .unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].name(), "Travel Planning");
    // The hit lists the service; its record, binding included, is fetched
    // by key (UDDI's find, then get).
    let record = client.get_service(&hits[0].key()).unwrap();
    assert_eq!(record.description.name, "Travel Planning");
    let endpoint = record
        .description
        .primary_binding()
        .unwrap()
        .endpoint
        .clone();
    assert_eq!(endpoint, demo.deployment.wrapper_node().as_str());

    let user = net.connect("end-user-exec").unwrap();
    let input = MessageDoc::request("execute")
        .with("customer", Value::str("Boualem"))
        .with("destination", Value::str("Melbourne"))
        .with("departure_date", Value::str("2002-09-01"))
        .with("return_date", Value::str("2002-09-08"));
    let reply = user
        .rpc(
            endpoint.as_str(),
            "wrapper.execute",
            input.to_xml(),
            Duration::from_secs(10),
        )
        .unwrap();
    let out = MessageDoc::from_xml(&reply.body).unwrap();
    assert!(!out.is_fault(), "{:?}", out.fault_reason());
    assert_eq!(
        out.get_str("major_attraction"),
        Some("Queen Victoria Market")
    );
    drop(demo);
    exec.shutdown();
}

#[test]
fn concurrent_bookings_do_not_interfere() {
    let exec = Executor::new(2);
    let net = Network::new(NetworkConfig::instant());
    let demo = TravelDemo::launch(
        &net,
        &exec.handle(),
        TravelDemoConfig {
            accommodation: AccommodationChoice::Mixed,
            ..Default::default()
        },
    )
    .unwrap();
    let demo = std::sync::Arc::new(demo);
    let mut handles = Vec::new();
    for i in 0..12 {
        let demo = std::sync::Arc::clone(&demo);
        handles.push(std::thread::spawn(move || {
            let destination = if i % 2 == 0 { "Sydney" } else { "Hong Kong" };
            let customer = format!("Customer{i}");
            let out = demo
                .book_trip(&customer, destination, "2002-08-20", "2002-08-27")
                .unwrap();
            // Data flow isolation: each instance's inputs survive intact.
            assert_eq!(out.get_str("customer"), Some(customer.as_str()));
            let expect_prefix = if i % 2 == 0 { "QF-" } else { "GW-" };
            assert!(out
                .get_str("flight_confirmation")
                .unwrap()
                .starts_with(expect_prefix));
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    drop(demo);
    exec.shutdown();
}

#[test]
fn coordination_is_peer_to_peer_not_through_wrapper() {
    let exec = Executor::new(2);
    let net = Network::new(NetworkConfig::instant());
    let demo = TravelDemo::launch(&net, &exec.handle(), TravelDemoConfig::default()).unwrap();
    net.reset_metrics();
    demo.book_trip("Eileen", "Sydney", "2002-08-20", "2002-08-27")
        .unwrap();
    let m = net.metrics();
    // The wrapper receives exactly: the execute request + the two region
    // completion notifications that feed its AND-join finish alternative
    // (near() holds, so CR is skipped and the wrapper itself joins).
    let wrapper = m.node("travel-planning.wrapper").unwrap();
    assert_eq!(wrapper.received, 3, "{wrapper:?}");
    // Coordinators exchanged completion notifications directly.
    let coord_traffic: u64 = m
        .nodes
        .iter()
        .filter(|n| n.node.as_str().contains(".coord."))
        .map(|n| n.sent)
        .sum();
    assert!(
        coord_traffic >= 5,
        "expected P2P notifications, got {coord_traffic}"
    );
    drop(demo);
    exec.shutdown();
}

#[test]
fn travel_works_over_lossy_lan_with_latency() {
    let exec = Executor::new(2);
    // A LAN with latency (no loss — the protocol has no retransmission,
    // like the original's raw sockets).
    let net = Network::new(NetworkConfig::lan());
    let demo = TravelDemo::launch(
        &net,
        &exec.handle(),
        TravelDemoConfig {
            service_latency: Duration::from_millis(2),
            ..Default::default()
        },
    )
    .unwrap();
    let out = demo
        .book_trip("Eileen", "Sydney", "2002-08-20", "2002-08-27")
        .unwrap();
    assert!(out.get("_elapsed_ms").is_some());
    drop(demo);
    exec.shutdown();
}

#[test]
fn monitored_travel_run_produces_a_complete_trace() {
    let exec = Executor::new(2);
    use selfserv::core::{
        Deployer, ExecutionMonitor, FunctionLibrary, MonitorOptions, ServiceBackend, TraceKind,
    };
    use selfserv::statechart::travel;
    use std::collections::HashMap;
    use std::sync::Arc;

    let net = Network::new(NetworkConfig::instant());
    let monitor =
        ExecutionMonitor::spawn_with(&net, &exec.handle(), "monitor", MonitorOptions::default())
            .unwrap();
    // Deploy the travel chart manually (no community — use a direct
    // accommodation backend) so the monitor hook can be exercised without
    // the full demo.
    let sc = {
        // Rebind AB to a direct service for this test.
        let mut sc = travel::travel_statechart();
        let ab = sc.state_str("AB").unwrap().clone();
        let mut ab2 = ab;
        if let selfserv::statechart::StateKind::Task(spec) = &mut ab2.kind {
            spec.binding = selfserv::statechart::ServiceBinding::Service {
                service: "DirectAccommodation".into(),
                operation: "bookAccommodation".into(),
            };
        }
        sc.insert_state(ab2);
        sc
    };
    let mut backends: HashMap<String, Arc<dyn ServiceBackend>> = HashMap::new();
    use selfserv::core::travel_backends::*;
    backends.insert(
        travel::services::DOMESTIC_FLIGHT.into(),
        Arc::new(FlightBookingService::domestic(Duration::ZERO)),
    );
    backends.insert(
        travel::services::INTERNATIONAL_FLIGHT.into(),
        Arc::new(FlightBookingService::international(Duration::ZERO)),
    );
    backends.insert(
        travel::services::TRAVEL_INSURANCE.into(),
        Arc::new(InsuranceService::new(Duration::ZERO)),
    );
    backends.insert(
        travel::services::ATTRACTION_SEARCH.into(),
        Arc::new(AttractionSearchService::new(Duration::ZERO)),
    );
    backends.insert(
        travel::services::CAR_RENTAL.into(),
        Arc::new(CarRentalService::new(Duration::ZERO)),
    );
    backends.insert(
        "DirectAccommodation".into(),
        Arc::new(AccommodationService::new(
            "Direct",
            "Bondi Hostel",
            85.0,
            Duration::ZERO,
        )),
    );
    let dep = Deployer::new(&net)
        .with_executor(exec.handle())
        .with_functions(FunctionLibrary::travel())
        .with_monitor(monitor.node().clone())
        .deploy(&sc, &backends)
        .unwrap();
    let out = dep
        .execute(
            MessageDoc::request("execute")
                .with("customer", Value::str("Eileen"))
                .with("destination", Value::str("Sydney"))
                .with("departure_date", Value::str("2002-08-20"))
                .with("return_date", Value::str("2002-08-27")),
            Duration::from_secs(10),
        )
        .unwrap();
    assert!(
        out.get_str("car_confirmation").is_some(),
        "Bondi is far → CR runs"
    );
    std::thread::sleep(Duration::from_millis(100));

    let instance = monitor.instances()[0];
    let trace = monitor.trace(instance);
    let activated: Vec<&str> = trace
        .iter()
        .filter(|e| e.kind == TraceKind::Activated)
        .map(|e| e.participant.as_str())
        .collect();
    // Domestic branch via Bondi: FC, DFB, AB, AS, CR all activate; the
    // international states never do.
    for expected in ["FC", "DFB", "AB", "AS", "CR"] {
        assert!(
            activated.contains(&expected),
            "{expected} missing from {activated:?}"
        );
    }
    assert!(!activated.contains(&"IFB"));
    assert!(!activated.contains(&"TI"));
    // Lifecycle events bracket the run.
    assert!(trace.iter().any(|e| e.kind == TraceKind::InstanceStarted));
    assert!(trace.iter().any(|e| e.kind == TraceKind::InstanceFinished));
    // Every activation has a matching completion.
    let completed = trace
        .iter()
        .filter(|e| e.kind == TraceKind::Completed)
        .count();
    assert_eq!(completed, activated.len());
    drop((dep, monitor));
    exec.shutdown();
}
