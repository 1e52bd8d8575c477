//! A fixed pool stays fixed: backends that sleep to simulate service time
//! run on threads of their own, never on a pool worker, so a 1-worker
//! executor serves many slow calls at once without growing.
//!
//! Sixteen concurrent calls of a 50 ms backend go through one 1-worker
//! executor: eight straight to a `ServiceHost`, eight through a deployed
//! coordinator. They overlap (the batch takes about one service time, not
//! sixteen), `live_workers()` equals `workers()` at every sample, and
//! `blocked_workers()` — the blocking calls in flight — climbs to at least
//! eight and drains back to zero.
//!
//! No component escapes to a pool its caller did not name: the travel demo,
//! a service manager, a monitor and a centralized engine all run on one
//! 1-worker executor, and the process has exactly one executor worker
//! thread while they run and none once that executor is shut down.

use selfserv::core::{
    kinds, naming, CentralConfig, CentralizedOrchestrator, Deployer, EchoService, ExecutionMonitor,
    FunctionLibrary, MonitorOptions, ServiceBackend, ServiceHost, ServiceManager, SyntheticService,
    TravelDemo, TravelDemoConfig,
};
use selfserv::net::{Network, NetworkConfig};
use selfserv::runtime::Executor;
use selfserv::statechart::{synth, StatechartBuilder, TaskDef, TransitionDef};
use selfserv::wsdl::{MessageDoc, ParamType};
use selfserv_expr::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const CALLS: usize = 8;
const LATENCY: Duration = Duration::from_millis(50);

/// Each test owns the process's executor threads while it runs: the
/// tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn blocking_backends_run_beside_a_one_worker_pool() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let exec = Executor::new(1);
    let handle = exec.handle();
    let net = Network::new(NetworkConfig::instant());
    let backend = Arc::new(SyntheticService::new("Slow").with_latency(LATENCY));
    let slow: Arc<dyn ServiceBackend> = Arc::clone(&backend) as Arc<dyn ServiceBackend>;

    let host = ServiceHost::spawn_on(&net, &handle, "svc.slow", Arc::clone(&slow)).unwrap();
    let chart = StatechartBuilder::new("Fixed pool")
        .variable("served_by", ParamType::Str)
        .initial("s0")
        .task(
            TaskDef::new("s0", "Slow")
                .service("Slow", "op")
                .output("served_by", "served_by"),
        )
        .final_state("f")
        .transition(TransitionDef::new("t", "s0", "f"))
        .build()
        .expect("well-formed chart");
    let backends: HashMap<String, Arc<dyn ServiceBackend>> =
        HashMap::from([("Slow".to_string(), slow)]);
    let deployment = Deployer::new(&net)
        .with_executor(handle.clone())
        .deploy(&chart, &backends)
        .expect("deploys");
    let client = net.connect("client").unwrap();

    // Sample the pool's gauges for the whole run.
    let running = Arc::new(AtomicBool::new(true));
    let max_blocked = Arc::new(AtomicUsize::new(0));
    let sampler = {
        let handle = handle.clone();
        let running = Arc::clone(&running);
        let max_blocked = Arc::clone(&max_blocked);
        std::thread::spawn(move || {
            // Every sample's live worker count, as the range it spanned.
            let (mut fewest, mut most) = (usize::MAX, 0);
            while running.load(Ordering::SeqCst) {
                let live = handle.live_workers();
                fewest = fewest.min(live);
                most = most.max(live);
                max_blocked.fetch_max(handle.blocked_workers(), Ordering::SeqCst);
                std::thread::sleep(Duration::from_micros(200));
            }
            (fewest, most)
        })
    };

    let t0 = Instant::now();
    for _ in 0..CALLS {
        client
            .send(
                "svc.slow",
                kinds::INVOKE,
                MessageDoc::request("op").to_xml(),
            )
            .unwrap();
        deployment
            .submit(MessageDoc::request("execute"))
            .expect("submits");
    }
    for _ in 0..CALLS {
        let reply = client
            .recv_timeout(Duration::from_secs(5))
            .expect("host replies");
        assert_eq!(reply.kind, kinds::INVOKE_RESULT);
        let reply = MessageDoc::from_xml(&reply.body).unwrap();
        assert!(!reply.is_fault(), "{reply:?}");
        assert_eq!(reply.get_str("served_by"), Some("Slow"));
    }
    for _ in 0..CALLS {
        let (_, out) = deployment
            .collect_result(Duration::from_secs(5))
            .expect("instance completes");
        let out = out.expect("instance succeeds");
        assert_eq!(out.get("served_by"), Some(&Value::str("Slow")));
    }
    let elapsed = t0.elapsed();

    // The gauge drains once the last call's thread returns.
    let drained = Instant::now();
    while handle.blocked_workers() > 0 && drained.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_millis(1));
    }
    running.store(false, Ordering::SeqCst);
    let live = sampler.join().unwrap();

    assert_eq!(backend.invocation_count(), 2 * CALLS as u64);
    assert!(
        elapsed < 5 * LATENCY,
        "{} calls of {LATENCY:?} on one worker must overlap: {elapsed:?}",
        2 * CALLS
    );
    assert_eq!(
        live,
        (handle.workers(), handle.workers()),
        "sampled live workers (fewest, most) must be the configured count"
    );
    let max_blocked = max_blocked.load(Ordering::SeqCst);
    assert!(
        (CALLS..=2 * CALLS).contains(&max_blocked),
        "blocking calls in flight peaked at {max_blocked}"
    );
    assert_eq!(handle.blocked_workers(), 0, "blocking calls drained");
    assert_eq!(handle.live_workers(), handle.workers());

    deployment.undeploy();
    host.stop();
    exec.shutdown();
}

/// Threads of this process named as executor workers (`selfserv-exec-worker`,
/// which `comm` truncates to 15 bytes), read from `/proc/self/task`.
fn executor_workers() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("selfserv-exec-w"))
        .count()
}

/// [`executor_workers`] once it reads `expected`, or after two seconds: a
/// joined thread may still be listed for a moment after `join` returns,
/// a pool that nobody shuts down stays listed.
fn settled_executor_workers(expected: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let workers = executor_workers();
        if workers == expected || Instant::now() >= deadline {
            return workers;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn every_component_runs_on_the_executor_its_caller_names() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(
        settled_executor_workers(0),
        0,
        "no executor runs before the test"
    );
    let exec = Executor::new(1);
    let handle = exec.handle();
    let net = Network::new(NetworkConfig::instant());

    let manager = ServiceManager::start_on(&net, &handle, "uddi.standalone").unwrap();
    let demo = TravelDemo::launch(&net, &handle, TravelDemoConfig::default()).unwrap();
    let monitor =
        ExecutionMonitor::spawn_with(&net, &handle, "monitor", MonitorOptions::default()).unwrap();
    let chart = synth::sequence(1);
    let service = synth::synth_service_name(0);
    let node = naming::service_host(&service);
    let host = ServiceHost::spawn_on(
        &net,
        &handle,
        node.clone(),
        Arc::new(EchoService::new(service.clone())),
    )
    .unwrap();
    let central = CentralizedOrchestrator::spawn_on(
        &net,
        &handle,
        CentralConfig {
            statechart: chart,
            functions: FunctionLibrary::new(),
            service_nodes: HashMap::from([(service, node)]),
            community_nodes: HashMap::new(),
        },
    )
    .unwrap();

    let trip = demo
        .book_trip("Eileen", "Sydney", "2002-08-20", "2002-08-27")
        .expect("trip booked");
    assert!(trip.get_str("flight_confirmation").is_some(), "{trip:?}");
    central
        .execute(
            MessageDoc::request("execute").with("payload", Value::str("p")),
            Duration::from_secs(5),
        )
        .expect("central instance completes");
    assert_eq!(
        settled_executor_workers(1),
        1,
        "the named 1-worker executor is the only pool"
    );

    drop((central, host, monitor, demo, manager));
    exec.shutdown();
    assert_eq!(
        settled_executor_workers(0),
        0,
        "no worker outlives its executor"
    );
}
