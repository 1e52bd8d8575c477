//! Quickstart: define a tiny composite service, deploy it peer-to-peer,
//! and execute it.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use selfserv::core::{Deployer, EchoService, ServiceBackend};
use selfserv::net::{Network, NetworkConfig};
use selfserv::runtime::Executor;
use selfserv::statechart::{StatechartBuilder, TaskDef, TransitionDef};
use selfserv::wsdl::{MessageDoc, ParamType};
use selfserv_expr::Value;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // 1. Define a composite service declaratively, as the service editor
    //    would: quote a price, then either confirm or escalate.
    let statechart = StatechartBuilder::new("Quote And Confirm")
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
        .expect("well-formed statechart");

    // The editor's XML translation (bottom-right panel of Figure 2).
    println!("--- statechart XML (excerpt) ---");
    let xml = statechart.to_xml().to_pretty_xml();
    for line in xml.lines().take(12) {
        println!("{line}");
    }
    println!("... ({} lines total)\n", xml.lines().count());

    // 2. The pool of services: three trivial providers.
    let net = Network::new(NetworkConfig::instant());
    let mut backends: HashMap<String, Arc<dyn ServiceBackend>> = HashMap::new();
    for name in ["Pricing", "Orders", "Helpdesk"] {
        backends.insert(name.to_string(), Arc::new(EchoService::new(name)));
    }

    // 3. Deploy: routing tables are generated from the statechart and one
    //    coordinator is spawned per state, plus the composite wrapper, all
    //    on a 2-worker executor this program owns.
    let exec = Executor::new(2);
    let deployment = Deployer::new(&net)
        .with_executor(exec.handle())
        .deploy(&statechart, &backends)
        .expect("deploys");
    println!(
        "deployed '{}' with {} coordinators",
        deployment.composite(),
        deployment.coordinator_count()
    );
    println!(
        "routing plan: {} precondition alternatives, {} notification routes\n",
        deployment.plan().total_preconditions(),
        deployment.plan().total_notifications()
    );

    // 4. Execute — the small order takes the Confirm branch…
    let out = deployment
        .execute(
            MessageDoc::request("execute")
                .with("item", Value::str("coffee beans"))
                .with("amount", Value::Int(12)),
            Duration::from_secs(5),
        )
        .expect("small order succeeds");
    println!(
        "small order  → confirmed_by = {:?}",
        out.get_str("confirmed_by")
    );
    assert!(out.get_str("confirmed_by").is_some());

    // …and the big one escalates.
    let out = deployment
        .execute(
            MessageDoc::request("execute")
                .with("item", Value::str("espresso machines"))
                .with("amount", Value::Int(5000)),
            Duration::from_secs(5),
        )
        .expect("big order succeeds");
    println!(
        "large order → confirmed_by = {:?} (escalated instead)",
        out.get_str("confirmed_by")
    );
    assert!(out.get_str("confirmed_by").is_none());

    // 5. The fabric counted every message each peer handled.
    let metrics = net.metrics();
    println!("\n--- per-node message counts ---");
    for node in &metrics.nodes {
        if node.handled() > 0 && !node.node.as_str().contains('~') {
            println!(
                "{:40} sent {:3}  received {:3}",
                node.node.as_str(),
                node.sent,
                node.received
            );
        }
    }
    drop(deployment);
    exec.shutdown();
}
