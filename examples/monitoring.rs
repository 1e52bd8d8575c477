//! Execution monitoring: watch a composite-service instance unfold across
//! its distributed coordinators — the platform-side equivalent of the
//! demo's "Execution Result" panel — and read the same run back through
//! the Prometheus `/metrics` endpoint an operator would scrape.
//!
//! ```text
//! cargo run --example monitoring
//! ```

use selfserv::core::{
    Deployer, EchoService, ExecutionMonitor, FunctionLibrary, InstanceId, MonitorMetrics,
    MonitorOptions, ServiceBackend, SyntheticService,
};
use selfserv::net::{Network, NetworkConfig};
use selfserv::obs::{http_get, parse, MetricsServer, Registry};
use selfserv::runtime::Executor;
use selfserv::statechart::synth;
use selfserv::wsdl::MessageDoc;
use selfserv_expr::Value;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let net = Network::new(NetworkConfig::instant());
    // The monitor, the coordinators and the wrapper all run on this pool.
    let exec = Executor::new(2);

    // A monitor wired to a metrics registry: every trace it ingests also
    // feeds lifecycle counters and latency histograms, and the registry is
    // served over HTTP exactly as Prometheus would scrape it.
    let registry = Registry::new();
    let metrics = MonitorMetrics::register(&registry, &[("deployment", "demo")]);
    let monitor = ExecutionMonitor::spawn_with(
        &net,
        &exec.handle(),
        "monitor",
        MonitorOptions {
            metrics: Some(metrics),
            max_traces: None,
        },
    )
    .expect("monitor spawns");
    let server = MetricsServer::serve(registry, "127.0.0.1:0").expect("metrics endpoint binds");
    println!("serving metrics at http://{}/metrics\n", server.addr());

    // A fork-join pipeline with visible service times, deployed with
    // tracing enabled.
    let sc = synth::ladder(3, 2);
    let mut backends: HashMap<String, Arc<dyn ServiceBackend>> = HashMap::new();
    for (i, name) in sc.referenced_services().into_iter().enumerate() {
        let backend: Arc<dyn ServiceBackend> = if i % 2 == 0 {
            Arc::new(
                SyntheticService::new(name.clone())
                    .with_latency(Duration::from_millis(15 + 10 * (i as u64 % 3))),
            )
        } else {
            Arc::new(EchoService::new(name.clone()))
        };
        backends.insert(name, backend);
    }
    let deployment = Deployer::new(&net)
        .with_executor(exec.handle())
        .with_functions(FunctionLibrary::new())
        .with_monitor(monitor.node().clone())
        .deploy(&sc, &backends)
        .expect("deploys");

    println!(
        "executing eight instances of '{}' with tracing on…\n",
        deployment.composite()
    );
    for i in 0..8 {
        deployment
            .execute(
                MessageDoc::request("execute").with("payload", Value::str(format!("case-{i}"))),
                Duration::from_secs(10),
            )
            .expect("execution succeeds");
    }
    // Traces are fire-and-forget; give the monitor a beat to drain.
    std::thread::sleep(Duration::from_millis(100));

    for instance in monitor.instances().into_iter().take(2) {
        println!("{}", monitor.render_timeline(instance));
    }
    println!("collected {} events total", monitor.event_count());

    // The trace shows the AND-regions of each stage activating together
    // and the stage-1 lanes waiting for the full stage-0 join.
    let first = monitor.trace(InstanceId(1));
    let activations = first
        .iter()
        .filter(|e| e.kind == selfserv::core::TraceKind::Activated)
        .count();
    println!("instance i1 activated {activations} states (3 lanes × 2 stages = 6)");

    // The same run, queried from the monitor's trace log: monotonic
    // timestamps make per-instance end-to-end latency a subtraction.
    let lat = monitor
        .instance_latency_us(InstanceId(1))
        .expect("finished instance has a latency");
    println!("instance i1 end-to-end latency: {lat} µs");

    // …and scraped over HTTP, the way an external dashboard sees it. The
    // exposition parses back into (name, labels, value) samples; latency
    // histograms export p50/p99/p999 quantiles plus sum and count.
    let text = http_get(server.addr(), "/metrics", Duration::from_secs(2)).expect("scrape");
    let expo = parse::parse(&text).expect("exposition parses");
    expo.validate().expect("exposition is well-formed");
    let demo = [("deployment", "demo")];
    let quantile = |q: &str| {
        expo.value(
            "selfserv_instance_latency_us",
            &[("deployment", "demo"), ("quantile", q)],
        )
        .unwrap_or(0.0)
    };
    println!("\nscraped from /metrics:");
    println!(
        "  instances: {} started, {} finished, {} open",
        expo.value("selfserv_instances_started_total", &demo)
            .unwrap_or(0.0),
        expo.value("selfserv_instances_finished_total", &demo)
            .unwrap_or(0.0),
        expo.value("selfserv_instances_open", &demo).unwrap_or(0.0),
    );
    println!(
        "  instance latency µs: p50 {} / p99 {} / p999 {} over {} samples",
        quantile("0.5"),
        quantile("0.99"),
        quantile("0.999"),
        expo.value("selfserv_instance_latency_us_count", &demo)
            .unwrap_or(0.0),
    );
    println!(
        "  phase latency µs:    p50 {} over {} coordinator phases",
        expo.value(
            "selfserv_phase_latency_us",
            &[("deployment", "demo"), ("quantile", "0.5")],
        )
        .unwrap_or(0.0),
        expo.value("selfserv_phase_latency_us_count", &demo)
            .unwrap_or(0.0),
    );
    drop((deployment, monitor));
    exec.shutdown();
}
