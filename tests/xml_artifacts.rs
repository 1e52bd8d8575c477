//! Everything the platform stores or ships is XML: prove that deploying
//! *from the XML document* (the editor's output) behaves identically to
//! deploying from the in-memory model, and that routing plans survive
//! their XML round trip intact.

use selfserv::core::{Deployer, EchoService, ServiceBackend};
use selfserv::net::{Network, NetworkConfig};
use selfserv::routing::RoutingPlan;
use selfserv::runtime::Executor;
use selfserv::statechart::{synth, travel, Statechart};
use selfserv::wsdl::MessageDoc;
use selfserv_expr::Value;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn deploy_from_xml_document() {
    let exec = Executor::new(2);
    // The service editor hands the deployer an XML document, not an AST.
    let xml = synth::sequence(3).to_xml().to_pretty_xml();
    let parsed = Statechart::from_xml_str(&xml).unwrap();
    let net = Network::new(NetworkConfig::instant());
    let mut backends: HashMap<String, Arc<dyn ServiceBackend>> = HashMap::new();
    for name in parsed.referenced_services() {
        backends.insert(name.clone(), Arc::new(EchoService::new(name)));
    }
    let dep = Deployer::new(&net)
        .with_executor(exec.handle())
        .deploy(&parsed, &backends)
        .unwrap();
    let out = dep
        .execute(
            MessageDoc::request("execute").with("payload", Value::str("via-xml")),
            Duration::from_secs(5),
        )
        .unwrap();
    assert_eq!(out.get_str("payload"), Some("via-xml"));
    drop(dep);
    exec.shutdown();
}

#[test]
fn routing_plans_round_trip_for_all_families() {
    for sc in [
        synth::sequence(6),
        synth::xor_choice(4),
        synth::parallel(4),
        synth::nested(3),
        synth::ladder(3, 2),
        travel::travel_statechart(),
    ] {
        let plan = selfserv::routing::generate(&sc).unwrap();
        let xml = plan.to_xml().to_pretty_xml();
        let back = RoutingPlan::from_xml(&selfserv::xml::parse(&xml).unwrap()).unwrap();
        assert_eq!(back, plan, "plan for {} mutated through XML", sc.name);
    }
}

#[test]
fn travel_statechart_xml_matches_paper_vocabulary() {
    // The document the editor would show for Figure 2 contains the paper's
    // guard expressions and state names.
    let xml = travel::travel_statechart().to_xml().to_pretty_xml();
    for needle in [
        "domestic(destination)",
        "not domestic(destination)",
        "near(major_attraction, accommodation)",
        "Accommodation Booking",
        "International Travel Arrangements",
        "Car Rental",
        "kind=\"concurrent\"",
        "community=\"AccommodationBooking\"",
    ] {
        assert!(
            xml.contains(needle),
            "statechart XML lacks {needle:?}:\n{xml}"
        );
    }
}

#[test]
fn generated_tables_are_consistent_for_travel() {
    let plan = selfserv::routing::generate(&travel::travel_statechart()).unwrap();
    let problems = selfserv::routing::verify_plan(&plan);
    assert!(problems.is_empty(), "{problems:?}");
    // And after an XML round trip, still consistent.
    let back = RoutingPlan::from_xml(&plan.to_xml()).unwrap();
    assert!(selfserv::routing::verify_plan(&back).is_empty());
}

#[test]
fn message_documents_survive_fabric_transport() {
    use selfserv::net::tcp::{read_frame, write_frame};
    use selfserv::net::{Envelope, MessageId, NodeId};
    // A full invocation message through the TCP framing.
    let msg = MessageDoc::request("bookFlight")
        .with("customer", Value::str("Eileen & co <travel>"))
        .with("budget", Value::Float(1500.25))
        .with(
            "legs",
            Value::List(vec![Value::str("SYD"), Value::str("HKG")]),
        );
    let env = Envelope {
        id: MessageId(9),
        from: NodeId::new("a"),
        to: NodeId::new("b"),
        kind: "invoke".into(),
        correlation: None,
        body: msg.to_xml(),
    };
    let mut buf = Vec::new();
    write_frame(&mut buf, &env).unwrap();
    let back = read_frame(&mut buf.as_slice()).unwrap();
    let decoded = MessageDoc::from_xml(&back.body).unwrap();
    assert_eq!(decoded, msg);
}
