//! Scale acceptance for the shared worker-pool node runtime:
//!
//! * `deploy_256_composites_on_4_workers_with_bounded_threads` — node
//!   *count* is thread-independent: a 256-composite deployment (512
//!   platform nodes) runs on a fixed-size 4-worker executor with an OS
//!   thread count independent of node count, outputs byte-identical to
//!   the thread-per-node seed path.
//! * `thousands_of_inflight_invocations_block_zero_workers` — in-flight
//!   invocation count is thread-independent too: 2048 instances all
//!   simultaneously awaiting a slow backend reply on the same 4-worker
//!   executor, with zero blocked workers and an OS thread count that does
//!   not scale with the number of awaiting instances (the
//!   continuation-passing coordinator; a coordinator that waited on its
//!   replies would hold ~2048 threads). Outputs stay byte-identical to the
//!   blocking path's goldens.
//! * `real_community_server_parks_2048_delegations_without_threads` —
//!   same shape through the *real* community server: 2048 instances'
//!   delegations each held open across two chained rpcs (coordinator →
//!   community server → member) with zero blocked workers, and both
//!   `in_flight_rpcs` and the community's delegation gauge draining to
//!   zero after release (nothing leaks).
//!
//! The tests count `/proc/self/status` threads, so they serialize on a
//! shared lock (libtest would otherwise run them concurrently and each
//! would see the other's pool) and re-read their baseline after acquiring
//! it.

use selfserv::community::{
    Community, CommunityClient, CommunityServer, CommunityServerConfig, Member, MemberId,
    QosProfile, RoundRobin,
};
use selfserv::core::{Deployer, Deployment, EchoService, ServiceBackend};
use selfserv::net::{Envelope, MessageId, Network, NetworkConfig, NodeId};
use selfserv::runtime::{Executor, Flow, NodeCtx, NodeLogic};
use selfserv::statechart::{Statechart, StatechartBuilder, TaskDef, TransitionDef};
use selfserv::wsdl::{MessageDoc, OperationDef, ParamType};
use selfserv::xml::Element;
use selfserv_expr::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::normalized;

const COMPOSITES: usize = 256;
const WORKERS: usize = 4;

/// Serializes the thread-counting tests (see module docs).
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Current OS thread count of this process (0 when /proc is unavailable —
/// the count assertions are then skipped, the functional ones are not).
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))?
                .split_whitespace()
                .nth(1)?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

/// One single-task composite, uniquely named per index.
fn chart(i: usize) -> Statechart {
    StatechartBuilder::new(format!("Scale {i}"))
        .variable("payload", ParamType::Str)
        .variable("served_by", ParamType::Str)
        .initial("s0")
        .task(
            TaskDef::new("s0", "Svc")
                .service("Echo", "op")
                .input("payload", "payload")
                .output("echoed_by", "served_by"),
        )
        .final_state("f")
        .transition(TransitionDef::new("t", "s0", "f"))
        .build()
        .expect("well-formed chart")
}

/// The exact response document the thread-per-node seed path produced for
/// this workload (instance `i<n>` on each composite's own wrapper, inputs
/// echoed back, `echoed_by` captured into `served_by`).
fn expected_output(instance: u64, payload: &str) -> String {
    format!(
        "<message operation=\"execute\" kind=\"response\">\
         <param name=\"_instance\" type=\"string\">i{instance}</param>\
         <param name=\"payload\" type=\"string\">{payload}</param>\
         <param name=\"served_by\" type=\"string\">Echo</param>\
         </message>"
    )
}

#[test]
fn deploy_256_composites_on_4_workers_with_bounded_threads() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let baseline = thread_count();

    let exec = Executor::new(WORKERS);
    let net = Network::new(NetworkConfig::instant());
    let mut backends: HashMap<String, Arc<dyn ServiceBackend>> = HashMap::new();
    backends.insert("Echo".to_string(), Arc::new(EchoService::new("Echo")));

    let deployments: Vec<Deployment> = (0..COMPOSITES)
        .map(|i| {
            Deployer::new(&net)
                .with_executor(exec.handle())
                .deploy(&chart(i), &backends)
                .expect("deploys")
        })
        .collect();
    // 256 wrappers + 256 coordinators are live platform nodes...
    assert_eq!(
        net.node_names().len(),
        2 * COMPOSITES,
        "wrapper + coordinator per composite"
    );
    // ...yet the process gained only the pool (workers + timer thread);
    // nothing scales with node count. Generous slack for harness threads.
    if baseline > 0 {
        let after_deploy = thread_count();
        assert!(
            after_deploy <= baseline + WORKERS + 1 + 4,
            "idle nodes must not own threads: {baseline} -> {after_deploy}"
        );
    }

    // Execute every composite: sequentially for half, then a concurrent
    // burst for the other half (8 client threads), checking outputs are
    // byte-identical to the thread-per-node seed path throughout.
    let mut peak = 0usize;
    for (i, dep) in deployments.iter().enumerate().take(COMPOSITES / 2) {
        let out = dep
            .execute(
                MessageDoc::request("execute").with("payload", Value::str(format!("p{i}"))),
                Duration::from_secs(20),
            )
            .expect("executes");
        assert_eq!(normalized(&out), expected_output(1, &format!("p{i}")));
        peak = peak.max(thread_count());
    }
    let deployments = Arc::new(deployments);
    std::thread::scope(|s| {
        for t in 0..8 {
            let deployments = Arc::clone(&deployments);
            s.spawn(move || {
                let mut idx = COMPOSITES / 2 + t;
                while idx < COMPOSITES {
                    let out = deployments[idx]
                        .execute(
                            MessageDoc::request("execute")
                                .with("payload", Value::str(format!("p{idx}"))),
                            Duration::from_secs(20),
                        )
                        .expect("concurrent execute completes");
                    assert_eq!(normalized(&out), expected_output(1, &format!("p{idx}")));
                    idx += 8;
                }
            });
        }
    });
    peak = peak.max(thread_count());

    if baseline > 0 {
        // Peak budget: pool + timer + our 8 client threads, with slack for
        // harness threads (the pool is fixed and the echo backend does not
        // block) — two orders of magnitude under the 512 threads the seed
        // model would hold here.
        assert!(
            peak <= baseline + WORKERS + 1 + 32,
            "thread peak {peak} exceeds pool + client threads budget (baseline {baseline})"
        );
        assert!(
            peak < 2 * COMPOSITES,
            "thread count must not scale with node count"
        );
        // After the load stops, the client threads have ended and the
        // count returns to the pool's.
        let t0 = Instant::now();
        let mut settled = thread_count();
        while settled > baseline + WORKERS + 1 + 4 && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(50));
            settled = thread_count();
        }
        assert!(
            settled <= baseline + WORKERS + 1 + 4,
            "threads must return to the pool's after the burst: {baseline} -> {settled}"
        );
    }

    // Tear everything down; the names free and the executor drains.
    for dep in Arc::try_unwrap(deployments).expect("sole owner") {
        dep.undeploy();
    }
    assert_eq!(net.node_names().len(), 0, "all nodes freed");
    exec.shutdown();
}

/// How many instances the in-flight test holds blocked at once (the
/// acceptance floor is 2048).
const INFLIGHT: usize = 2048;

/// A responder node that gates its replies: requests of `invoke_kind`
/// stash until the test sends `release`, so the test controls exactly
/// when all awaiting instances are simultaneously blocked. Pure
/// `NodeLogic` — the responder itself parks no thread either. Stands in
/// for a whole community (`community.invoke`/`community.result`) in one
/// test and for a community *member* (`invoke`/`invoke.result`, behind
/// the real community server) in the other.
struct GatedResponder {
    invoke_kind: &'static str,
    result_kind: &'static str,
    stashed: Vec<Envelope>,
    stash_count: Arc<AtomicUsize>,
    released: bool,
}

impl GatedResponder {
    fn new(
        invoke_kind: &'static str,
        result_kind: &'static str,
        stash_count: Arc<AtomicUsize>,
    ) -> GatedResponder {
        GatedResponder {
            invoke_kind,
            result_kind,
            stashed: Vec::new(),
            stash_count,
            released: false,
        }
    }

    fn reply(&self, ctx: &NodeCtx<'_>, request: &Envelope) {
        let op = MessageDoc::from_xml(&request.body)
            .map(|m| m.operation)
            .unwrap_or_else(|_| "op".to_string());
        // Same response shape as the blocking-path EchoService workload:
        // the coordinator captures `echoed_by` into `served_by`.
        let response = MessageDoc::response(op).with("echoed_by", Value::str("Echo"));
        let _ = ctx
            .endpoint()
            .reply(request, self.result_kind, response.to_xml());
    }
}

impl NodeLogic for GatedResponder {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) -> Flow {
        if env.kind == self.invoke_kind {
            if self.released {
                self.reply(ctx, &env);
            } else {
                self.stashed.push(env);
                self.stash_count.fetch_add(1, Ordering::SeqCst);
            }
        } else if env.kind == "release" {
            self.released = true;
            for request in std::mem::take(&mut self.stashed) {
                self.reply(ctx, &request);
            }
        }
        Flow::Continue
    }
}

/// One community-task composite: `s0` delegates `op` to `community`.
fn inflight_chart(name: &str, community: &str) -> Statechart {
    StatechartBuilder::new(name)
        .variable("payload", ParamType::Str)
        .variable("served_by", ParamType::Str)
        .initial("s0")
        .task(
            TaskDef::new("s0", "Svc")
                .community(community, "op")
                .input("payload", "payload")
                .output("echoed_by", "served_by"),
        )
        .final_state("f")
        .transition(TransitionDef::new("t", "s0", "f"))
        .build()
        .expect("well-formed chart")
}

#[test]
fn thousands_of_inflight_invocations_block_zero_workers() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let baseline = thread_count();

    let exec = Executor::new(WORKERS);
    let net = Network::new(NetworkConfig::instant());

    // The gated community must be connected before deploy-time binding
    // resolution sees it.
    let stash_count = Arc::new(AtomicUsize::new(0));
    let community = exec.handle().spawn_node(
        net.connect("community.slow").expect("community connects"),
        GatedResponder::new(
            "community.invoke",
            "community.result",
            Arc::clone(&stash_count),
        ),
    );

    let mut deployer = Deployer::new(&net).with_executor(exec.handle());
    deployer.invoke_timeout = Duration::from_secs(120); // nobody times out mid-test
    let dep = deployer
        .deploy(&inflight_chart("Inflight", "slow"), &HashMap::new())
        .expect("deploys");

    // Fire every instance without blocking anything: one submitting
    // thread, zero threads waiting on replies.
    let mut expect: HashMap<MessageId, (u64, String)> = HashMap::new();
    for i in 0..INFLIGHT {
        let payload = format!("p{i}");
        let id = dep
            .submit(MessageDoc::request("execute").with("payload", Value::str(&payload)))
            .expect("submit accepted");
        // One client sender delivers FIFO, so the wrapper numbers
        // instances in submit order — the same ids the blocking path
        // produced for this workload.
        expect.insert(id, (i as u64 + 1, payload));
    }

    // Wait until every single instance is simultaneously parked inside
    // the community, i.e. 2048 invocations are in flight at once.
    let t0 = Instant::now();
    while stash_count.load(Ordering::SeqCst) < INFLIGHT && t0.elapsed() < Duration::from_secs(60) {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        stash_count.load(Ordering::SeqCst),
        INFLIGHT,
        "all instances reached the backend"
    );

    // The acceptance claim: N≫workers instances awaiting replies cost no
    // threads. The pool is exactly its configured size, no blocking section
    // is in flight, and the process thread count is independent of
    // INFLIGHT (a coordinator that waited on its replies would hold ~2048
    // threads at this point).
    assert_eq!(exec.handle().live_workers(), WORKERS, "fixed pool size");
    assert_eq!(exec.handle().blocked_workers(), 0, "no blocking sections");
    if baseline > 0 {
        let awaiting = thread_count();
        assert!(
            awaiting <= baseline + WORKERS + 1 + 8,
            "2048 in-flight invocations must not own threads: {baseline} -> {awaiting}"
        );
        assert!(
            awaiting < INFLIGHT / 4,
            "thread count must not scale with in-flight invocations"
        );
    }

    // Release the backend and collect every completion, checking each
    // output byte-identical to the blocking path's golden for this
    // workload.
    net.connect("release-client")
        .expect("release client connects")
        .send("community.slow", "release", Element::new("go"))
        .expect("release accepted");
    let mut collected = 0usize;
    while collected < INFLIGHT {
        let (id, outcome) = dep
            .collect_result(Duration::from_secs(60))
            .expect("completion arrives");
        let out = outcome.expect("instance completes cleanly");
        let (instance, payload) = expect.remove(&id).expect("known submission");
        assert_eq!(normalized(&out), expected_output(instance, &payload));
        collected += 1;
    }
    assert!(expect.is_empty(), "every submission completed exactly once");

    dep.undeploy();
    community.stop();
    exec.shutdown();
}

#[test]
fn real_community_server_parks_2048_delegations_without_threads() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let baseline = thread_count();

    let exec = Executor::new(WORKERS);
    let net = Network::new(NetworkConfig::instant());

    // The real community server — the continuation-passing delegation
    // path — fronting one gated member: every instance's invocation is
    // held open across *two* chained rpcs (coordinator → community,
    // community → member) with nobody blocking anywhere.
    let stash_count = Arc::new(AtomicUsize::new(0));
    let member = exec.handle().spawn_node(
        net.connect("svc.gated-member").expect("member connects"),
        GatedResponder::new("invoke", "invoke.result", Arc::clone(&stash_count)),
    );
    let community = CommunityServer::spawn_on(
        &net,
        &exec.handle(),
        "community.gated",
        Community::new("Gated", "").with_operation(OperationDef::new("op")),
        Arc::new(RoundRobin::new()),
        CommunityServerConfig {
            member_timeout: Duration::from_secs(120), // nobody times out mid-test
            ..Default::default()
        },
    )
    .expect("community spawns");
    let admin =
        CommunityClient::connect(&net, "admin", community.node().clone()).expect("admin connects");
    admin
        .join(&Member {
            id: MemberId("gated".into()),
            provider: "gated".into(),
            endpoint: NodeId::new("svc.gated-member"),
            qos: QosProfile::default(),
        })
        .expect("member joins");

    let mut deployer = Deployer::new(&net).with_executor(exec.handle());
    deployer.invoke_timeout = Duration::from_secs(120);
    let dep = deployer
        .deploy(
            &inflight_chart("InflightCommunity", "gated"),
            &HashMap::new(),
        )
        .expect("deploys");

    let mut expect: HashMap<MessageId, (u64, String)> = HashMap::new();
    for i in 0..INFLIGHT {
        let payload = format!("p{i}");
        let id = dep
            .submit(MessageDoc::request("execute").with("payload", Value::str(&payload)))
            .expect("submit accepted");
        expect.insert(id, (i as u64 + 1, payload));
    }

    // Wait until every delegation has traversed the community server and
    // parked inside the member.
    let t0 = Instant::now();
    while stash_count.load(Ordering::SeqCst) < INFLIGHT && t0.elapsed() < Duration::from_secs(120) {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        stash_count.load(Ordering::SeqCst),
        INFLIGHT,
        "every delegation reached the member"
    );
    assert_eq!(
        community.in_flight_delegations(),
        INFLIGHT,
        "the community server tracks every open delegation"
    );

    // The tentpole claim: 2048 coordinator→community rpcs plus 2048
    // community→member rpcs are simultaneously open, the pool is exactly
    // its configured size, and no blocking section is in flight — a
    // delegate() loop that waited on each reply would hold a thread per
    // delegation here.
    assert_eq!(exec.handle().live_workers(), WORKERS, "fixed pool size");
    assert_eq!(exec.handle().blocked_workers(), 0, "no blocking sections");
    assert_eq!(
        exec.handle().in_flight_rpcs(),
        2 * INFLIGHT,
        "one open rpc per hop per instance"
    );
    if baseline > 0 {
        let awaiting = thread_count();
        assert!(
            awaiting <= baseline + WORKERS + 1 + 8,
            "2048 open delegations must not own threads: {baseline} -> {awaiting}"
        );
    }

    // Release the member; every instance completes byte-identical to the
    // blocking path's golden for this workload.
    net.connect("release-client")
        .expect("release client connects")
        .send("svc.gated-member", "release", Element::new("go"))
        .expect("release accepted");
    let mut collected = 0usize;
    while collected < INFLIGHT {
        let (id, outcome) = dep
            .collect_result(Duration::from_secs(60))
            .expect("completion arrives");
        let out = outcome.expect("instance completes cleanly");
        let (instance, payload) = expect.remove(&id).expect("known submission");
        assert_eq!(normalized(&out), expected_output(instance, &payload));
        collected += 1;
    }
    assert!(expect.is_empty(), "every submission completed exactly once");

    // Nothing leaked: both rpc hops unwound and the community's gauge is
    // back to zero.
    assert_eq!(exec.handle().in_flight_rpcs(), 0, "rpcs drained to zero");
    assert_eq!(community.in_flight_delegations(), 0, "delegations drained");

    dep.undeploy();
    community.stop();
    member.stop();
    exec.shutdown();
}
