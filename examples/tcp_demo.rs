//! The same XML envelopes over real TCP sockets — the platform's protocol
//! is transport-agnostic ("exchanged through Java sockets" in the
//! original).
//!
//! Part 1 drives the raw wire format by hand (length-prefixed XML frames
//! over a plain `std::net` connection). Part 2 runs an *entire composite deployment* —
//! coordinators, wrapper, service hosts — over [`TcpTransport`], the
//! socket implementation of the platform's `Transport` seam.
//!
//! ```text
//! cargo run --example tcp_demo
//! ```

use selfserv::core::{Deployer, EchoService, ServiceBackend};
use selfserv::net::tcp::{read_frame, write_frame};
use selfserv::net::{Envelope, MessageId, NodeId, TcpTransport, Transport};
use selfserv::runtime::Executor;
use selfserv::statechart::{StatechartBuilder, TaskDef, TransitionDef};
use selfserv::wsdl::{MessageDoc, ParamType};
use selfserv_expr::Value;
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    raw_frames_demo();
    platform_over_tcp_demo();
}

/// A two-state composite deployed and executed entirely over TCP sockets.
fn platform_over_tcp_demo() {
    println!("\n--- part 2: a composite service over TcpTransport ---");
    let tcp = TcpTransport::new();
    let statechart = StatechartBuilder::new("Socket Pipeline")
        .variable("item", ParamType::Str)
        .initial("Quote")
        .task(
            TaskDef::new("Quote", "Quote")
                .service("Pricing", "quote")
                .input("item", "item")
                .output("echoed_by", "quoted_by"),
        )
        .task(
            TaskDef::new("Confirm", "Confirm")
                .service("Orders", "confirm")
                .input("item", "item")
                .output("echoed_by", "confirmed_by"),
        )
        .final_state("Done")
        .transition(TransitionDef::new("t1", "Quote", "Confirm"))
        .transition(TransitionDef::new("t2", "Confirm", "Done"))
        .build()
        .expect("well-formed statechart");
    let mut backends: HashMap<String, Arc<dyn ServiceBackend>> = HashMap::new();
    for name in ["Pricing", "Orders"] {
        backends.insert(name.to_string(), Arc::new(EchoService::new(name)));
    }
    let exec = Executor::new(2);
    let deployment = Deployer::new(&tcp)
        .with_executor(exec.handle())
        .deploy(&statechart, &backends)
        .expect("deploys");
    // Every node of the hub is reached through the hub's one listener.
    for node in tcp.node_names() {
        if let Some(addr) = tcp.addr_of(node.as_str()) {
            println!("  {node:32} reached via the hub at {addr}");
        }
    }
    let out = deployment
        .execute(
            MessageDoc::request("execute").with("item", Value::str("coffee beans")),
            Duration::from_secs(10),
        )
        .expect("executes over sockets");
    println!(
        "  executed over sockets → quoted_by={:?} confirmed_by={:?}",
        out.get_str("quoted_by"),
        out.get_str("confirmed_by"),
    );
    assert_eq!(out.get_str("confirmed_by"), Some("Orders"));
    println!("the full coordinator protocol ran over a real TCP listener.");
    drop(deployment);
    exec.shutdown();
}

/// The wire format by hand: one length-prefixed XML frame each way over a
/// plain `std::net` connection.
fn raw_frames_demo() {
    println!("--- part 1: raw length-prefixed frames ---");
    // A "provider" listening on a real socket.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind provider");
    let provider_addr = listener.local_addr().expect("provider address");
    println!("provider listening on {provider_addr}");

    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept client");
        let request = read_frame(&mut stream).expect("receive invocation");
        println!("provider received {} from {}", request.kind, request.from);
        let input = MessageDoc::from_xml(&request.body).unwrap();
        let reply = MessageDoc::response(input.operation.clone())
            .with("confirmation", Value::str("TCP-0042"))
            .with(
                "echo_city",
                input.get("city").cloned().unwrap_or(Value::Null),
            );
        // The reply is the next frame on the same connection.
        let reply_env = Envelope {
            id: MessageId(2),
            from: request.to.clone(),
            to: request.from.clone(),
            kind: "invoke.result".into(),
            correlation: Some(request.id),
            body: reply.to_xml(),
        };
        write_frame(&mut stream, &reply_env).expect("send reply");
    });

    // The "client" side: one length-prefixed XML frame to the provider,
    // then the reply frame back.
    let request = Envelope {
        id: MessageId(1),
        from: NodeId::new("tcp.client"),
        to: NodeId::new("tcp.provider"),
        kind: "invoke".into(),
        correlation: None,
        body: MessageDoc::request("bookAccommodation")
            .with("customer", Value::str("Eileen"))
            .with("city", Value::str("Sydney"))
            .to_xml(),
    };
    let mut stream = TcpStream::connect(provider_addr).expect("connect to provider");
    write_frame(&mut stream, &request).expect("send invocation");
    let reply = read_frame(&mut stream).expect("receive reply");
    let msg = MessageDoc::from_xml(&reply.body).unwrap();
    println!(
        "client got {} → confirmation={} echo_city={}",
        reply.kind,
        msg.get_str("confirmation").unwrap(),
        msg.get_str("echo_city").unwrap(),
    );
    server.join().unwrap();
    assert_eq!(reply.correlation, Some(request.id));
    assert_eq!(msg.get_str("confirmation"), Some("TCP-0042"));
    println!("same envelopes, real sockets — transport independence demonstrated.");
}
