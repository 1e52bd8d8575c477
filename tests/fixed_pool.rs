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

use selfserv::core::{kinds, Deployer, ServiceBackend, ServiceHost, SyntheticService};
use selfserv::net::{Network, NetworkConfig};
use selfserv::runtime::Executor;
use selfserv::statechart::{StatechartBuilder, TaskDef, TransitionDef};
use selfserv::wsdl::{MessageDoc, ParamType};
use selfserv_expr::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CALLS: usize = 8;
const LATENCY: Duration = Duration::from_millis(50);

#[test]
fn blocking_backends_run_beside_a_one_worker_pool() {
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
