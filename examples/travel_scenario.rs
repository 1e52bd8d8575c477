//! The paper's Section 4 demo, end to end: register providers, define and
//! deploy the travel composite, locate it through the discovery engine,
//! and execute bookings on both guard branches.
//!
//! ```text
//! cargo run --example travel_scenario
//! ```

use selfserv::core::{AccommodationChoice, TravelDemo, TravelDemoConfig};
use selfserv::net::{Network, NetworkConfig};
use selfserv::registry::FindQuery;
use selfserv::runtime::Executor;
use std::time::Duration;

fn main() {
    // A WAN-ish fabric: 5–25 ms per hop, like providers spread across the
    // Internet, with 5 ms of work inside each provider.
    let net = Network::new(NetworkConfig::wan());
    let exec = Executor::new(2);
    let demo = TravelDemo::launch(
        &net,
        &exec.handle(),
        TravelDemoConfig {
            service_latency: Duration::from_millis(5),
            accommodation: AccommodationChoice::Mixed,
            ..Default::default()
        },
    )
    .expect("demo launches");

    // ---- Locating services (the Search panel of Figure 3) ----
    println!("=== discovery engine contents ===");
    for record in demo.manager.registry().find(&FindQuery::any()) {
        println!(
            "  [{}] {:30} by {:20} ops: {}",
            record.key,
            record.description.name,
            record.provider_name,
            record
                .description
                .operations
                .iter()
                .map(|o| o.name.clone())
                .collect::<Vec<_>>()
                .join(", "),
        );
    }
    let travel = &demo
        .manager
        .registry()
        .find(&FindQuery::any().operation("execute"))[0];
    println!(
        "\ncomposite '{}' is bound to fabric endpoint '{}'",
        travel.description.name,
        travel.description.primary_binding().unwrap().endpoint
    );

    // ---- Routing tables (what the deployer uploaded) ----
    println!("\n=== routing table of the Car Rental coordinator ===");
    let cr_table = demo.deployment.plan().table(&"CR".into()).unwrap();
    println!("{}", cr_table.to_xml().to_pretty_xml());

    // ---- Executing (the Execute button) ----
    println!("=== booking a domestic trip (Sydney) ===");
    let out = demo
        .book_trip("Eileen Mak", "Sydney", "2002-08-20", "2002-08-27")
        .expect("domestic booking succeeds");
    print_booking(&out);

    println!("\n=== booking an international trip (Hong Kong) ===");
    let out = demo
        .book_trip("Quan Sheng", "Hong Kong", "2002-08-20", "2002-09-01")
        .expect("international booking succeeds");
    print_booking(&out);

    // ---- What the peers did ----
    let metrics = net.metrics();
    println!("\n=== peer-to-peer traffic (per coordinator) ===");
    for node in &metrics.nodes {
        if node.node.as_str().contains(".coord.") {
            println!(
                "  {:40} sent {:3} received {:3}",
                node.node.as_str(),
                node.sent,
                node.received
            );
        }
    }
    let wrapper = metrics.node("travel-planning.wrapper").unwrap();
    println!(
        "  wrapper handled {} messages — coordination ran peer-to-peer, not through it",
        wrapper.handled()
    );
    drop(demo);
    exec.shutdown();
}

fn print_booking(out: &selfserv::wsdl::MessageDoc) {
    let field = |k: &str| out.get_str(k).unwrap_or("—").to_string();
    println!("  flight        : {}", field("flight_confirmation"));
    println!(
        "  flight price  : {}",
        out.get("flight_price")
            .map(|v| v.to_string())
            .unwrap_or_default()
    );
    println!("  insurance     : {}", field("insurance_policy"));
    println!("  accommodation : {}", field("accommodation"));
    println!("  attraction    : {}", field("major_attraction"));
    println!("  car rental    : {}", field("car_confirmation"));
    println!(
        "  elapsed       : {} ms",
        out.get("_elapsed_ms")
            .map(|v| v.to_string())
            .unwrap_or_default()
    );
}
