//! Service communities in action: QoS-aware member selection, execution
//! history, and transparent failover when a provider dies mid-run.
//!
//! ```text
//! cargo run --example community_failover
//! ```

use selfserv::community::{
    Community, CommunityClient, CommunityServer, CommunityServerConfig, HistoryAware, Member,
    MemberId, QosProfile,
};
use selfserv::core::{ServiceBackend, ServiceHost, SyntheticService};
use selfserv::net::{Network, NetworkConfig, NodeId};
use selfserv::runtime::Executor;
use selfserv::wsdl::{MessageDoc, OperationDef, Param, ParamType};
use selfserv_expr::Value;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let net = Network::new(NetworkConfig::instant());
    let exec = Executor::new(2);

    // A community of accommodation providers with very different quality.
    let community = CommunityServer::spawn_on(
        &net,
        &exec.handle(),
        "community.accommodation",
        Community::new("AccommodationBooking", "hotels & hostels").with_operation(
            OperationDef::new("bookAccommodation")
                .with_input(Param::required("customer", ParamType::Str))
                .with_input(Param::required("city", ParamType::Str)),
        ),
        Arc::new(HistoryAware::default()),
        CommunityServerConfig {
            member_timeout: Duration::from_millis(300),
            ..Default::default()
        },
    )
    .expect("community spawns");
    let client = CommunityClient::connect(&net, "travel-agent", "community.accommodation").unwrap();

    // Three members: a fast hotel, a slow hostel, and a "liar" that
    // advertises 5 ms but actually takes 80 ms.
    let mut hosts = Vec::new();
    for (id, actual_ms, advertised_ms, rate) in [
        ("cbd-hotel", 10u64, 10.0, 210.0),
        ("bondi-hostel", 60, 60.0, 85.0),
        ("bargain-inn", 80, 5.0, 60.0),
    ] {
        let node = format!("svc.{id}");
        let backend: Arc<dyn ServiceBackend> = Arc::new(
            SyntheticService::new(id)
                .with_latency(Duration::from_millis(actual_ms))
                .with_output("nightly_rate", Value::Float(rate)),
        );
        hosts.push(ServiceHost::spawn_on(&net, &exec.handle(), node.as_str(), backend).unwrap());
        client
            .join(&Member {
                id: MemberId(id.to_string()),
                provider: id.to_string(),
                endpoint: NodeId::new(node),
                qos: QosProfile::default()
                    .with_duration_ms(advertised_ms)
                    .with_cost(rate),
            })
            .unwrap();
    }

    let request = MessageDoc::request("bookAccommodation")
        .with("customer", Value::str("Eileen"))
        .with("city", Value::str("Sydney"));

    println!("=== first 10 bookings (history builds up, the liar gets demoted) ===");
    for i in 0..10 {
        let out = client.invoke(&request).expect("booking succeeds");
        println!(
            "  booking {:2} served by {}",
            i + 1,
            out.get_str("served_by").unwrap()
        );
    }
    println!("\n=== member statistics observed by the community ===");
    for (id, stats) in community.history().all() {
        println!(
            "  {:14} completed {:3}  ewma latency {:6.1} ms  success {:.2}",
            id.to_string(),
            stats.completed,
            stats.latency_ewma_ms.unwrap_or(0.0),
            stats.success_ewma,
        );
    }

    // Kill the currently-preferred member: the community fails over.
    println!("\n=== killing svc.bondi-hostel (the current favourite) mid-service ===");
    net.kill(&NodeId::new("svc.bondi-hostel"));
    let mut served = Vec::new();
    for _ in 0..5 {
        let out = client
            .invoke(&request)
            .expect("failover keeps bookings working");
        served.push(out.get_str("served_by").unwrap().to_string());
    }
    println!("  5 more bookings served by: {}", served.join(", "));
    assert!(served.iter().all(|s| s != "bondi-hostel"));
    println!("\nno booking was lost: the community retried with live members,");
    println!("and the timeouts it observed now count against the dead member's history.");
    drop((hosts, community));
    exec.shutdown();
}
