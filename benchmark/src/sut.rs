//! The adapter: the only file that names the system under test. Workloads,
//! drivers and probes call these functions and never a product crate, so a
//! change to the product's API breaks this file and nothing else. It uses
//! the narrowest public surface that works and measures strictly from
//! outside: public functions, `Transport::metrics`, executor and community
//! gauges, `MonitorHandle::trace`.

use crate::trace::{now_us, record_service, ServiceSink};
use selfserv_community::{
    Community, CommunityClient, CommunityMetrics, CommunityServer, CommunityServerConfig,
    CommunityServerHandle, DelegationMode, Member, MemberId, MembershipGossip, QosProfile,
    ReplicationConfig, RoundRobin,
};
use selfserv_core::{
    naming, Deployer, Deployment, ExecutionMonitor, InstanceId, MonitorHandle, MonitorMetrics,
    MonitorOptions, ServiceBackend, TraceKind,
};
use selfserv_discovery::{DiscoveryConfig, DiscoveryHandle, PeerDiscovery};
use selfserv_expr::{MapEnv, Value};
use selfserv_net::{
    Endpoint, Envelope, GossipPayloads, MessageId, MetricsSnapshot, Network, NetworkConfig, NodeId,
    TcpTransport, Transport,
};
use selfserv_registry::{BusinessKey, FindQuery, RegistryClient, RegistryServer, UddiRegistry};
use selfserv_runtime::{
    Executor, ExecutorHandle, Flow, NodeCtx, NodeHandle, NodeLogic, TimerToken,
};
use selfserv_statechart::{synth, ServiceBinding, StateKind, Statechart};
use selfserv_wsdl::{Binding, MessageDoc, OperationDef, Param, ParamType, ServiceDescription};
use selfserv_xml::Element;
use std::collections::{BTreeMap, HashMap};
use std::io::Cursor;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Documents
// ---------------------------------------------------------------------------

/// The parameter document executions take and return.
pub type Doc = MessageDoc;

pub fn input_doc(payload: &str, branch: i64) -> Doc {
    MessageDoc::request("execute")
        .with("payload", Value::str(payload))
        .with("branch", Value::Int(branch))
}

pub fn with_payload(doc: &Doc, payload: &str) -> Doc {
    let mut out = doc.clone();
    out.set("payload", Value::str(payload));
    out
}

pub fn payload_of(doc: &Doc) -> Option<&str> {
    doc.get_str("payload")
}

/// Removes the fields that differ between two correct executions of the
/// same input (`_elapsed_ms`, `_instance`; the same two `tests/chaos.rs`
/// strips) and returns the instance number the wrapper assigned.
pub fn strip_volatile(doc: Doc) -> (Doc, Option<u64>) {
    let instance = doc
        .get_str("_instance")
        .and_then(|s| InstanceId::decode(s).ok())
        .map(|i| i.0);
    let mut out = MessageDoc::request(doc.operation.clone());
    out.kind = doc.kind;
    for (k, v) in doc.iter() {
        if k != "_elapsed_ms" && k != "_instance" {
            out.set(k, v.clone());
        }
    }
    (out, instance)
}

/// The instance tag a traced run writes into the first eight payload bytes
/// (see `driver::tagged_payload`), as members and backends read it back.
fn payload_tag(doc: &Doc) -> Option<u64> {
    payload_of(doc)
        .and_then(|p| p.get(..8))
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
}

// ---------------------------------------------------------------------------
// Benchmark-owned services: they answer with exactly the request's
// parameters, so every output is a function of the input alone, and they
// observe their own service time when the run is traced.
// ---------------------------------------------------------------------------

fn echo_reply(request: &Doc) -> Doc {
    let mut out = MessageDoc::response(request.operation.clone());
    for (k, v) in request.iter() {
        out.set(k, v.clone());
    }
    out
}

/// Zero-latency backend co-located with its coordinator (`fabric_direct`,
/// `compose_deploy`).
struct EchoBackend {
    sink: ServiceSink,
}

impl ServiceBackend for EchoBackend {
    fn invoke(&self, _operation: &str, input: &Doc) -> Result<Doc, String> {
        let start = now_us();
        let out = echo_reply(input);
        record_service(&self.sink, payload_tag(input), start);
        Ok(out)
    }

    fn may_block(&self) -> bool {
        false
    }

    fn name(&self) -> &str {
        "bench-echo"
    }
}

fn echo_backends(sc: &Statechart, sink: &ServiceSink) -> HashMap<String, Arc<dyn ServiceBackend>> {
    sc.referenced_services()
        .into_iter()
        .map(|name| {
            let backend: Arc<dyn ServiceBackend> = Arc::new(EchoBackend { sink: sink.clone() });
            (name, backend)
        })
        .collect()
}

/// Community member that answers every `invoke` about `hold` after it
/// arrived, from a timer: no worker parks for the service time. Requests
/// arriving while the timer is armed ride the same flush, as in the stress
/// harness this workload descends from. `hold == 0` answers inline.
struct DelayMember {
    hold: Duration,
    holding: Vec<(Envelope, u64)>,
    armed: bool,
    sink: ServiceSink,
}

const FLUSH: TimerToken = TimerToken(1);

impl DelayMember {
    fn answer(&self, ctx: &NodeCtx<'_>, request: &Envelope, arrived_us: u64) {
        let (reply, tag) = match MessageDoc::from_xml(&request.body) {
            Ok(msg) => (echo_reply(&msg), payload_tag(&msg)),
            Err(e) => (MessageDoc::fault("invoke", e.to_string()), None),
        };
        let _ = ctx.endpoint().reply(
            request,
            selfserv_community::kinds::MEMBER_RESULT,
            reply.to_xml(),
        );
        record_service(&self.sink, tag, arrived_us);
    }
}

impl NodeLogic for DelayMember {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) -> Flow {
        if env.kind != selfserv_community::kinds::MEMBER_INVOKE {
            return Flow::Continue;
        }
        let arrived = now_us();
        if self.hold.is_zero() {
            self.answer(ctx, &env, arrived);
            return Flow::Continue;
        }
        self.holding.push((env, arrived));
        if !self.armed {
            self.armed = true;
            ctx.set_timer(self.hold, FLUSH);
        }
        Flow::Continue
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: TimerToken) -> Flow {
        self.armed = false;
        for (request, arrived) in std::mem::take(&mut self.holding) {
            self.answer(ctx, &request, arrived);
        }
        Flow::Continue
    }
}

fn spawn_member(
    net: &dyn Transport,
    exec: &ExecutorHandle,
    node: &str,
    hold: Duration,
    sink: &ServiceSink,
) -> NodeHandle {
    let endpoint = net.connect(NodeId::new(node)).expect("member connects");
    exec.spawn_node(
        endpoint,
        DelayMember {
            hold,
            holding: Vec::new(),
            armed: false,
            sink: sink.clone(),
        },
    )
}

// ---------------------------------------------------------------------------
// Charts
// ---------------------------------------------------------------------------

pub fn chart_fabric_sequence() -> Statechart {
    synth::sequence(8)
}

pub fn chart_fabric_parallel() -> Statechart {
    synth::parallel(8)
}

/// The stress harness's basic charts.
pub fn chart_tcp_sequence() -> Statechart {
    synth::sequence(3)
}

pub fn chart_tcp_parallel() -> Statechart {
    synth::parallel(2)
}

/// The 12-state chart `compose_deploy` decodes and deploys: a choice state
/// with ten guarded task branches and a final state, so decode, guard
/// parsing, validation, routing generation and ten coordinator spawns all
/// take part.
pub fn chart_compose() -> Statechart {
    synth::xor_choice(10)
}

pub fn chart_xml(sc: &Statechart) -> String {
    sc.to_xml().to_xml()
}

/// Rewrites every `Service` task binding to the given community (operation
/// preserved), so executions delegate instead of invoking a co-located
/// backend.
fn rebind_to_community(sc: &Statechart, community: &str) -> Statechart {
    let mut out = sc.clone();
    let ids: Vec<_> = out.states().map(|s| s.id.clone()).collect();
    for id in ids {
        let Some(state) = out.state(&id) else {
            continue;
        };
        let mut state = state.clone();
        if let StateKind::Task(spec) = &mut state.kind {
            if let ServiceBinding::Service { operation, .. } = &spec.binding {
                spec.binding = ServiceBinding::Community {
                    community: community.to_string(),
                    operation: operation.clone(),
                };
                out.insert_state(state);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Targets: one deployed composite a driver submits to and collects from
// ---------------------------------------------------------------------------

/// A coordinator phase of one instance, rebuilt from the monitor's trace,
/// on the benchmark's clock.
pub struct Phase {
    pub state: String,
    pub start_us: u64,
    pub end_us: u64,
}

pub struct Target {
    deployment: Deployment,
    /// One monitor per deployment: instance ids restart at 1 in every
    /// wrapper, so a shared monitor would merge unrelated traces.
    monitor: Option<(MonitorHandle, Arc<MonitorMetrics>)>,
}

impl Target {
    pub fn submit(&self, input: &Doc) -> Result<u64, String> {
        self.deployment
            .submit(input.clone())
            .map(|id| id.0)
            .map_err(|e| e.to_string())
    }

    /// The next completion: the submission id it answers and the outcome.
    /// `None` when nothing completes within `timeout`.
    pub fn collect(&self, timeout: Duration) -> Option<(u64, Result<Doc, String>)> {
        self.deployment
            .collect_result(timeout)
            .ok()
            .map(|(MessageId(id), outcome)| (id, outcome.map_err(|e| e.to_string())))
    }

    pub fn execute(&self, input: &Doc) -> Result<Doc, String> {
        self.deployment
            .execute(input.clone(), Duration::from_secs(10))
            .map_err(|e| e.to_string())
    }

    /// Phases (`Activated` to `Completed` per state) of one instance. Empty
    /// when the run is untraced or the monitor has evicted the instance.
    pub fn phases(&self, instance: u64) -> Vec<Phase> {
        let Some((monitor, _)) = &self.monitor else {
            return Vec::new();
        };
        let offset = monitor_clock_offset_us();
        let on_bench_clock = |at_us: u64| (at_us as i64 - offset).max(0) as u64;
        let mut open: HashMap<String, u64> = HashMap::new();
        let mut phases = Vec::new();
        for event in monitor.trace(InstanceId(instance)) {
            match event.kind {
                TraceKind::Activated => {
                    open.insert(event.participant, event.at_us);
                }
                TraceKind::Completed => {
                    if let Some(start) = open.remove(&event.participant) {
                        phases.push(Phase {
                            state: event.participant,
                            start_us: on_bench_clock(start),
                            end_us: on_bench_clock(event.at_us),
                        });
                    }
                }
                _ => {}
            }
        }
        phases
    }

    fn monitor_events(&self) -> u64 {
        self.monitor
            .as_ref()
            .map_or(0, |(m, _)| m.event_count() as u64)
    }

    /// Server-side instance latency (wrapper start to finish): the
    /// monitor's `selfserv_instance_latency_us` histogram.
    fn server_latency(&self) -> Option<selfserv_obs::HistogramSnapshot> {
        let (_, metrics) = self.monitor.as_ref()?;
        Some(metrics.instance_latency_us.snapshot())
    }

    fn teardown(self) {
        self.deployment.undeploy();
        if let Some((monitor, _)) = self.monitor {
            monitor.stop();
        }
    }
}

/// `mono_us()` (the clock trace events are stamped with) minus the
/// benchmark clock, sampled once.
fn monitor_clock_offset_us() -> i64 {
    static OFFSET: std::sync::OnceLock<i64> = std::sync::OnceLock::new();
    *OFFSET.get_or_init(|| selfserv_core::mono_us() as i64 - now_us() as i64)
}

/// Deploys `sc` on `net`/`exec`; with `traced`, attaches a monitor of its
/// own. Bounded trace retention keeps a traced window's memory flat.
fn deploy_target(
    net: &dyn Transport,
    exec: &ExecutorHandle,
    sc: &Statechart,
    backends: &HashMap<String, Arc<dyn ServiceBackend>>,
    liveness: Option<&DiscoveryHandle>,
    traced: bool,
) -> Target {
    let mut deployer = Deployer::new(net).with_executor(exec.clone());
    if let Some(disc) = liveness {
        deployer = deployer.with_liveness(disc.liveness());
    }
    let monitor = traced.then(|| {
        let node = format!("monitor.{}", naming::slug(&sc.name));
        let registry = selfserv_obs::Registry::new();
        let metrics = MonitorMetrics::register(&registry, &[]);
        let handle = ExecutionMonitor::spawn_with(
            net,
            exec,
            &node,
            MonitorOptions {
                metrics: Some(Arc::clone(&metrics)),
                max_traces: Some(8192),
            },
        )
        .expect("monitor spawns");
        (handle, metrics)
    });
    if let Some((m, _)) = &monitor {
        deployer = deployer.with_monitor(m.node().clone());
    }
    let deployment = deployer.deploy(sc, backends).expect("chart deploys");
    Target {
        deployment,
        monitor,
    }
}

// ---------------------------------------------------------------------------
// Census and gauges: what the layers counted, read from outside
// ---------------------------------------------------------------------------

/// Cumulative counters; subtract two snapshots to scope them to a window.
#[derive(Debug, Clone, Default)]
pub struct Census {
    pub frames_sent: u64,
    pub bytes_sent: u64,
    pub writev_calls: u64,
    pub backpressure_waits: u64,
    pub frames_dropped: u64,
    pub stale_replies: u64,
    /// Messages sent, by the role of the sending node (`wrapper`,
    /// `coordinator`, `community`, `member`, `client`, `monitor`,
    /// `discovery`, `registry`, `other`). Transport-agnostic: the fabric
    /// counts these too.
    pub messages_by_role: BTreeMap<&'static str, u64>,
    pub steals: u64,
    pub delegations: u64,
    pub failovers: u64,
    pub community_faults: u64,
    pub monitor_events: u64,
}

impl Census {
    pub fn since(&self, earlier: &Census) -> Census {
        let mut messages_by_role = self.messages_by_role.clone();
        for (role, n) in &mut messages_by_role {
            *n = n.saturating_sub(earlier.messages_by_role.get(role).copied().unwrap_or(0));
        }
        Census {
            frames_sent: self.frames_sent.saturating_sub(earlier.frames_sent),
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            writev_calls: self.writev_calls.saturating_sub(earlier.writev_calls),
            backpressure_waits: self
                .backpressure_waits
                .saturating_sub(earlier.backpressure_waits),
            frames_dropped: self.frames_dropped.saturating_sub(earlier.frames_dropped),
            stale_replies: self.stale_replies.saturating_sub(earlier.stale_replies),
            messages_by_role,
            steals: self.steals.saturating_sub(earlier.steals),
            delegations: self.delegations.saturating_sub(earlier.delegations),
            failovers: self.failovers.saturating_sub(earlier.failovers),
            community_faults: self
                .community_faults
                .saturating_sub(earlier.community_faults),
            monitor_events: self.monitor_events.saturating_sub(earlier.monitor_events),
        }
    }

    pub fn messages(&self) -> u64 {
        self.messages_by_role.values().sum()
    }

    pub fn messages_of(&self, role: &str) -> u64 {
        self.messages_by_role.get(role).copied().unwrap_or(0)
    }

    fn add_transport(&mut self, snap: &MetricsSnapshot) {
        self.frames_sent += snap.io.frames_sent;
        self.bytes_sent += snap.io.bytes_sent;
        self.writev_calls += snap.io.writev_calls;
        self.backpressure_waits += snap.io.backpressure_waits;
        self.frames_dropped += snap.io.frames_dropped;
        for node in &snap.nodes {
            *self
                .messages_by_role
                .entry(role_of(node.node.as_str()))
                .or_default() += node.sent;
        }
    }
}

fn role_of(node: &str) -> &'static str {
    if node.ends_with(".wrapper") {
        "wrapper"
    } else if node.contains(".coord.") {
        "coordinator"
    } else if node.starts_with("community.") {
        "community"
    } else if node.starts_with("member.") {
        "member"
    } else if node.starts_with("client~") {
        "client"
    } else if node.starts_with("monitor.") {
        "monitor"
    } else if node.starts_with("disc.") {
        "discovery"
    } else if node.starts_with("registry") {
        "registry"
    } else {
        "other"
    }
}

/// Instantaneous values a sampler thread takes the maximum of.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
    pub run_queue_depth: usize,
    pub blocked_workers: usize,
    pub admission_queue_depth: usize,
}

impl Gauges {
    pub fn max(self, other: Gauges) -> Gauges {
        Gauges {
            run_queue_depth: self.run_queue_depth.max(other.run_queue_depth),
            blocked_workers: self.blocked_workers.max(other.blocked_workers),
            admission_queue_depth: self.admission_queue_depth.max(other.admission_queue_depth),
        }
    }
}

// ---------------------------------------------------------------------------
// Rigs: a workload's topology, built and torn down as a unit
// ---------------------------------------------------------------------------

/// A built topology with its deployed targets.
pub trait Rig: Send + Sync {
    fn targets(&self) -> &[Target];
    fn census(&self) -> Census;
    fn gauges(&self) -> Gauges;
    /// Community delegation latency p50 (admission to caller reply), µs.
    fn delegation_p50_us(&self) -> f64;
    fn teardown(self: Box<Self>);

    fn monitor_events(&self) -> u64 {
        self.targets().iter().map(Target::monitor_events).sum()
    }

    /// Server-side instance latency p50 over all targets, µs (log-bucket
    /// resolution: it is the product's own histogram).
    fn server_latency_p50_us(&self) -> f64 {
        p50_of(self.targets().iter().filter_map(Target::server_latency))
    }
}

/// p50 of the merged histograms; 0 when they hold no sample.
fn p50_of(snapshots: impl Iterator<Item = selfserv_obs::HistogramSnapshot>) -> f64 {
    let merged = snapshots.fold(selfserv_obs::HistogramSnapshot::empty(), |acc, s| {
        acc.merge(&s)
    });
    if merged.count() == 0 {
        0.0
    } else {
        merged.p50() as f64
    }
}

/// `fabric_direct`: the in-process fabric at zero latency, tasks bound
/// directly to echo backends. No sockets, no XML parse, no community.
pub struct FabricRig {
    net: Network,
    exec: Executor,
    targets: Vec<Target>,
}

impl FabricRig {
    pub fn build(workers: usize, charts: &[Statechart], sink: &ServiceSink) -> FabricRig {
        let net = Network::new(NetworkConfig::instant());
        let exec = Executor::new(workers);
        let traced = sink.is_some();
        let targets = charts
            .iter()
            .map(|sc| {
                let backends = echo_backends(sc, sink);
                deploy_target(&net, &exec.handle(), sc, &backends, None, traced)
            })
            .collect();
        FabricRig { net, exec, targets }
    }
}

impl Rig for FabricRig {
    fn targets(&self) -> &[Target] {
        &self.targets
    }

    fn census(&self) -> Census {
        let mut census = Census::default();
        census.add_transport(&Transport::metrics(&self.net));
        census.steals = self.exec.handle().steals();
        census.monitor_events = self.monitor_events();
        census
    }

    fn gauges(&self) -> Gauges {
        let exec = self.exec.handle();
        Gauges {
            run_queue_depth: exec.run_queue_depth(),
            blocked_workers: exec.blocked_workers(),
            admission_queue_depth: 0,
        }
    }

    fn delegation_p50_us(&self) -> f64 {
        0.0
    }

    fn teardown(self: Box<Self>) {
        for target in self.targets {
            target.teardown();
        }
        self.exec.shutdown();
    }
}

struct Hub {
    net: TcpTransport,
    exec: Executor,
    disc: DiscoveryHandle,
    payloads: GossipPayloads,
    replicas: Vec<CommunityServerHandle>,
    members: Vec<NodeHandle>,
}

/// The TCP workloads' topology, the stress harness's: `hubs` `TcpTransport`
/// hubs in this process joined by discovery from hub 0's seed address; hub
/// `i` owns community `bench-h<i>` with `members` delay members, whose
/// replica `j` is pinned to hub `(i+j) % hubs`; hub `i` deploys chart `i`
/// with every task delegated to the *neighbour* hub's community, so every
/// invocation crosses between hubs.
pub struct TcpRig {
    hubs: Vec<Hub>,
    targets: Vec<Target>,
    community_metrics: Vec<Arc<CommunityMetrics>>,
}

pub struct TcpShape {
    pub workers_per_hub: usize,
    pub members: usize,
    pub replicas: usize,
    pub hold: Duration,
}

fn community_name(hub: usize) -> String {
    format!("bench-h{hub}")
}

impl TcpRig {
    /// `charts[i]` is deployed on hub `i`; the number of charts is the
    /// number of hubs.
    pub fn build(shape: &TcpShape, charts: &[Statechart], sink: &ServiceSink) -> TcpRig {
        let n = charts.len();
        let mut hubs: Vec<Hub> = Vec::with_capacity(n);
        for h in 0..n {
            let net = TcpTransport::new();
            let exec = Executor::new(shape.workers_per_hub);
            let payloads = GossipPayloads::new();
            let mut cfg = DiscoveryConfig::default().with_payloads(payloads.clone());
            if let Some(first) = hubs.first() {
                cfg = cfg.with_seed(first.disc.seed_addr());
            }
            let disc = PeerDiscovery::spawn_on(&net, &exec.handle(), cfg).expect("discovery");
            let members = (0..shape.members)
                .map(|m| {
                    let node = format!("member.h{h}.m{m}");
                    spawn_member(&net, &exec.handle(), &node, shape.hold, sink)
                })
                .collect();
            hubs.push(Hub {
                net,
                exec,
                disc,
                payloads,
                replicas: Vec::new(),
                members,
            });
        }

        let mut community_metrics = Vec::new();
        for i in 0..n {
            let name = community_name(i);
            let base = naming::community(&name);
            // One metric family per community, shared by its replicas (they
            // are one logical community), on a registry of the benchmark's.
            let metrics = CommunityMetrics::register(&selfserv_obs::Registry::new(), &[]);
            community_metrics.push(Arc::clone(&metrics));
            for j in 0..shape.replicas {
                let host = &mut hubs[(i + j) % n];
                let replica = CommunityServer::spawn_replica_on(
                    &host.net,
                    &host.exec.handle(),
                    base.as_str(),
                    j,
                    shape.replicas,
                    Community::new(name.clone(), "benchmark community"),
                    Arc::new(RoundRobin::new()),
                    CommunityServerConfig {
                        mode: DelegationMode::Proxy,
                        member_timeout: Duration::from_secs(60),
                        max_attempts: 2,
                        max_in_flight: usize::MAX,
                        liveness: Some(host.disc.liveness()),
                        metrics: Some(Arc::clone(&metrics)),
                        replication: ReplicationConfig {
                            peers: Vec::new(),
                            directory: Some(host.disc.directory().clone()),
                            gossip_interval: None,
                        },
                    },
                )
                .expect("community replica spawns");
                host.payloads.register(MembershipGossip::new(
                    base.as_str(),
                    Arc::clone(replica.membership()),
                ));
                host.replicas.push(replica);
            }
        }

        // Members join through the rpc path real providers use; then every
        // replica, on whichever hub, must have learned the full member set.
        for (i, hub) in hubs.iter().enumerate() {
            let client = CommunityClient::connect(
                &hub.net,
                &format!("ctl.join.h{i}"),
                naming::community(&community_name(i)),
            )
            .expect("join client connects");
            for m in 0..shape.members {
                let node = format!("member.h{i}.m{m}");
                client
                    .join(&Member {
                        id: MemberId(node.clone()),
                        provider: format!("hub-{i}"),
                        endpoint: NodeId::new(&node),
                        qos: QosProfile::default(),
                    })
                    .expect("member joins");
            }
        }
        converge(&hubs, "membership", |hub| {
            hub.replicas
                .iter()
                .all(|replica| replica.member_count() >= shape.members)
        });

        // Deploy only once gossip has made every replica and every member
        // routable from every hub: the deployer must see the full replica
        // set, and a replica pinned to another hub must reach the members.
        let traced = sink.is_some();
        let mut targets = Vec::new();
        let names: Vec<NodeId> = (0..n)
            .flat_map(|i| {
                let replicas = (0..shape.replicas)
                    .map(move |r| naming::community_replica(&community_name(i), r));
                let members =
                    (0..shape.members).map(move |m| NodeId::new(format!("member.h{i}.m{m}")));
                replicas.chain(members)
            })
            .collect();
        converge(&hubs, "directories", |hub| {
            names
                .iter()
                .all(|name| hub.disc.directory().is_bound(name.as_str()))
        });
        for (h, sc) in charts.iter().enumerate() {
            let mut sc = rebind_to_community(sc, &community_name((h + 1) % n));
            sc.name = format!("{}-h{h}", sc.name);
            let hub = &hubs[h];
            targets.push(deploy_target(
                &hub.net,
                &hub.exec.handle(),
                &sc,
                &HashMap::new(),
                Some(&hub.disc),
                traced,
            ));
        }
        TcpRig {
            hubs,
            targets,
            community_metrics,
        }
    }
}

/// Waits until `done` holds on every hub, stepping discovery on all of them
/// meanwhile (`inject_tick`: one gossip round and one sweep, now). Set-up
/// time then measures the work of converging, not where in its 250 ms
/// gossip period each hub happened to be.
fn converge(hubs: &[Hub], what: &str, done: impl Fn(&Hub) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !hubs.iter().all(&done) {
        assert!(Instant::now() < deadline, "{what} did not converge");
        for hub in hubs {
            let _ = hub.disc.inject_tick();
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

impl Rig for TcpRig {
    fn targets(&self) -> &[Target] {
        &self.targets
    }

    fn census(&self) -> Census {
        let mut census = Census::default();
        for hub in &self.hubs {
            census.add_transport(&Transport::metrics(&hub.net));
            census.stale_replies += hub.net.stale_replies_dropped();
            census.steals += hub.exec.handle().steals();
        }
        for m in &self.community_metrics {
            census.delegations += m.delegations.get();
            census.failovers += m.failovers.get();
            census.community_faults += m.faults.get();
        }
        census.monitor_events = self.monitor_events();
        census
    }

    fn gauges(&self) -> Gauges {
        let mut g = Gauges::default();
        for hub in &self.hubs {
            let exec = hub.exec.handle();
            g.run_queue_depth += exec.run_queue_depth();
            g.blocked_workers += exec.blocked_workers();
            g.admission_queue_depth += hub
                .replicas
                .iter()
                .map(CommunityServerHandle::admission_queue_depth)
                .sum::<usize>();
        }
        g
    }

    fn delegation_p50_us(&self) -> f64 {
        p50_of(
            self.community_metrics
                .iter()
                .map(|m| m.delegation_latency_us.snapshot()),
        )
    }

    fn teardown(self: Box<Self>) {
        for target in self.targets {
            target.teardown();
        }
        for mut hub in self.hubs {
            for replica in hub.replicas.drain(..) {
                replica.stop();
            }
            for member in hub.members.drain(..) {
                member.stop();
            }
            hub.disc.stop();
            hub.exec.shutdown();
        }
    }
}

// ---------------------------------------------------------------------------
// compose_deploy: the composer's path
// ---------------------------------------------------------------------------

/// A registry server pre-seeded with `services` services, on the fabric.
pub struct ComposeRig {
    net: Network,
    exec: Executor,
    store: Arc<UddiRegistry>,
    server: Option<selfserv_registry::RegistryServerHandle>,
    chart_xml: String,
    sink: ServiceSink,
}

/// One registry query of the composer: by operation or by category.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Query {
    Operation(String),
    Category(&'static str),
}

pub const CATEGORIES: [&str; 5] = [
    "flight-booking",
    "accommodation",
    "car-rental",
    "insurance",
    "search",
];
/// Seeded services offer `op0` … `op49`.
pub const SEEDED_OPERATIONS: usize = 50;

impl Query {
    fn to_find(&self) -> FindQuery {
        match self {
            Query::Operation(op) => FindQuery::any().operation(op.clone()),
            Query::Category(c) => FindQuery::any().category(*c),
        }
    }
}

/// Seeds `n` services across `n/10 + 1` providers with the name, operation
/// and category variety of the repository's registry benches.
fn seed_registry(n: usize) -> UddiRegistry {
    let reg = UddiRegistry::new();
    let businesses: Vec<BusinessKey> = (0..n / 10 + 1)
        .map(|b| {
            reg.save_business(format!("Provider{b:04}"), "ops@example")
                .key
        })
        .collect();
    for i in 0..n {
        let b = i % businesses.len();
        let desc = ServiceDescription::new(format!("Service{i:05}"), format!("Provider{b:04}"))
            .with_operation(
                OperationDef::new(format!("op{}", i % SEEDED_OPERATIONS))
                    .with_input(Param::required("arg", ParamType::Str)),
            )
            .with_operation(OperationDef::new("describe"))
            .with_binding(Binding::fabric(format!("svc.n{i}")));
        reg.save_service(&businesses[b], CATEGORIES[i % CATEGORIES.len()], desc, None)
            .expect("seed publish");
    }
    reg
}

/// Per-step wall time of one composer iteration, µs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ComposeSteps {
    pub find_us: f64,
    pub save_us: f64,
    pub decode_us: f64,
    pub deploy_us: f64,
    pub execute_us: f64,
    pub undeploy_us: f64,
}

pub struct ComposeOutcome {
    pub steps: ComposeSteps,
    /// Hits of each find, in query order.
    pub hits: Vec<usize>,
    pub output: Doc,
}

impl ComposeRig {
    pub fn build(workers: usize, services: usize, sink: &ServiceSink) -> ComposeRig {
        Self::serving(workers, Arc::new(seed_registry(services)), sink)
    }

    fn serving(workers: usize, store: Arc<UddiRegistry>, sink: &ServiceSink) -> ComposeRig {
        let net = Network::new(NetworkConfig::instant());
        let exec = Executor::new(workers);
        let server =
            RegistryServer::spawn_on(&net, &exec.handle(), "registry.bench", Arc::clone(&store))
                .expect("registry server spawns");
        ComposeRig {
            net,
            exec,
            store,
            server: Some(server),
            chart_xml: chart_xml(&chart_compose()),
            sink: sink.clone(),
        }
    }

    /// A composer: its own registry client and provider identity.
    pub fn composer(&self, index: usize) -> Composer<'_> {
        let client = RegistryClient::connect(
            &self.net,
            &format!("composer.{index}"),
            NodeId::new("registry.bench"),
        )
        .expect("registry client connects");
        let business = client
            .save_business(&format!("Composer{index}"), "composer@example")
            .expect("composer registers");
        Composer {
            rig: self,
            client,
            business,
        }
    }

    pub fn service_count(&self) -> usize {
        self.store.service_count()
    }

    pub fn census(&self) -> Census {
        let mut census = Census::default();
        census.add_transport(&Transport::metrics(&self.net));
        census.steals = self.exec.handle().steals();
        census
    }

    pub fn gauges(&self) -> Gauges {
        let exec = self.exec.handle();
        Gauges {
            run_queue_depth: exec.run_queue_depth(),
            blocked_workers: exec.blocked_workers(),
            admission_queue_depth: 0,
        }
    }

    pub fn teardown(mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
        self.exec.shutdown();
    }
}

pub struct Composer<'a> {
    rig: &'a ComposeRig,
    client: RegistryClient,
    business: BusinessKey,
}

impl Composer<'_> {
    /// How many services a query finds (the reference for output checks).
    pub fn hits(&self, query: &Query) -> Result<usize, String> {
        self.client
            .find(&query.to_find())
            .map(|found| found.len())
            .map_err(|e| e.to_string())
    }

    /// One iteration of the composer's path: find component services,
    /// publish the new composite, decode its statechart, deploy it, run it
    /// once, tear it down (and withdraw the publication, so the registry
    /// stays the size it was seeded at).
    pub fn iteration(
        &self,
        queries: &[Query],
        composite: &str,
        input: &Doc,
    ) -> Result<ComposeOutcome, String> {
        let mut steps = ComposeSteps::default();
        let mut lap = Lap::start();

        let hits = queries
            .iter()
            .map(|q| self.hits(q))
            .collect::<Result<Vec<_>, _>>()?;
        steps.find_us = lap.split_us();

        let description = ServiceDescription::new(composite, "composer")
            .with_operation(
                OperationDef::new("execute").with_input(Param::required("payload", ParamType::Str)),
            )
            .with_binding(Binding::fabric(naming::wrapper(composite).as_str()));
        let key = self
            .client
            .save_service(&self.business, "composite", &description, None)
            .map_err(|e| e.to_string())?;
        steps.save_us = lap.split_us();

        let mut sc = Statechart::from_xml_str(&self.rig.chart_xml).map_err(|e| e.to_string())?;
        sc.name = composite.to_string();
        steps.decode_us = lap.split_us();

        let backends = echo_backends(&sc, &self.rig.sink);
        let deployment = Deployer::new(&self.rig.net)
            .with_executor(self.rig.exec.handle())
            .deploy(&sc, &backends)
            .map_err(|e| e.to_string())?;
        steps.deploy_us = lap.split_us();

        let output = deployment
            .execute(input.clone(), Duration::from_secs(10))
            .map_err(|e| e.to_string());
        steps.execute_us = lap.split_us();

        deployment.undeploy();
        let withdrawn = self.client.delete_service(&key).map_err(|e| e.to_string());
        steps.undeploy_us = lap.split_us();

        withdrawn?;
        Ok(ComposeOutcome {
            steps,
            hits,
            output: output?,
        })
    }
}

struct Lap(Instant);

impl Lap {
    fn start() -> Lap {
        Lap(Instant::now())
    }

    fn split_us(&mut self) -> f64 {
        let now = Instant::now();
        let us = now.duration_since(self.0).as_secs_f64() * 1e6;
        self.0 = now;
        us
    }
}

// ---------------------------------------------------------------------------
// Probe subjects: one public function (or the smallest assembly that runs
// it) per per-layer probe. Each `*_subject` builds its input once; the
// closure it returns is what `probes.rs` times.
// ---------------------------------------------------------------------------

/// The envelope a coordinator sends to a community for one task of the TCP
/// workloads: the modal frame of `tcp_small` (and `tcp_big`, by payload).
pub fn sample_envelope(payload: &str) -> Envelope {
    Envelope {
        id: MessageId(48_213),
        from: NodeId::new("synthseq3-h0.coord.s1"),
        to: NodeId::new("community.bench-h1"),
        kind: selfserv_community::kinds::INVOKE.to_string(),
        correlation: None,
        body: MessageDoc::request("run")
            .with("payload", Value::str(payload))
            .to_xml(),
    }
}

pub fn envelope_text(env: &Envelope) -> String {
    env.to_xml().to_xml()
}

pub fn xml_parse(text: &str) -> Element {
    selfserv_xml::parse(text).expect("probe frame parses")
}

pub fn xml_write(element: &Element) -> String {
    element.to_xml()
}

pub fn envelope_encode(env: &Envelope) -> Element {
    env.to_xml()
}

pub fn envelope_decode(element: &Element) -> Envelope {
    Envelope::from_xml(element).expect("probe envelope decodes")
}

pub fn frame_write(buf: &mut Vec<u8>, env: &Envelope) {
    buf.clear();
    selfserv_net::tcp::write_frame(buf, env).expect("write to a Vec");
}

pub fn frame_read(frame: &[u8]) -> Envelope {
    selfserv_net::tcp::read_frame(&mut Cursor::new(frame)).expect("probe frame reads")
}

pub fn msgdoc_encode(doc: &Doc) -> Element {
    doc.to_xml()
}

pub fn msgdoc_decode(element: &Element) -> Doc {
    MessageDoc::from_xml(element).expect("probe document decodes")
}

/// A guard of the synthetic charts.
pub const SAMPLE_GUARD: &str = "branch == 1";

pub fn expr_parse(src: &str) -> selfserv_expr::Expr {
    selfserv_expr::parse(src).expect("probe guard parses")
}

pub fn expr_env() -> MapEnv {
    let mut env = MapEnv::with_builtins();
    env.set("branch", Value::Int(1));
    env.set("payload", Value::str("x"));
    env
}

pub fn expr_eval(expr: &selfserv_expr::Expr, env: &MapEnv) -> bool {
    expr.eval_bool(env).expect("probe guard evaluates")
}

pub fn statechart_decode(xml: &str) -> Statechart {
    Statechart::from_xml_str(xml).expect("probe chart decodes")
}

pub fn statechart_validate(sc: &Statechart) -> bool {
    sc.validate().is_ok()
}

pub fn routing_generate(sc: &Statechart) -> selfserv_routing::RoutingPlan {
    selfserv_routing::generate(sc).expect("probe chart routes")
}

pub fn routing_plan_roundtrip(plan: &selfserv_routing::RoutingPlan) -> usize {
    let text = plan.to_xml().to_xml();
    let back = selfserv_routing::RoutingPlan::from_xml(&xml_parse(&text)).expect("plan decodes");
    back.total_notifications()
}

/// The registry store alone (no server, no transport).
pub struct RegistrySubject {
    store: Arc<UddiRegistry>,
    business: BusinessKey,
}

impl RegistrySubject {
    pub fn seeded(services: usize) -> RegistrySubject {
        let store = Arc::new(seed_registry(services));
        let business = store.save_business("ProbeProvider", "probe@example").key;
        RegistrySubject { store, business }
    }

    pub fn find(&self, operation: usize) -> usize {
        self.store
            .find(&FindQuery::any().operation(format!("op{}", operation % SEEDED_OPERATIONS)))
            .len()
    }

    /// Publishes one service; returns the key [`RegistrySubject::delete`]
    /// takes (deleting outside the timed section keeps the store's size).
    pub fn save(&self, i: usize) -> selfserv_registry::ServiceKey {
        let desc = ServiceDescription::new(format!("Probe{i}"), "ProbeProvider")
            .with_operation(OperationDef::new("execute"))
            .with_binding(Binding::fabric(format!("probe.n{i}")));
        self.store
            .save_service(&self.business, "composite", desc, None)
            .expect("probe publish")
    }

    pub fn delete(&self, key: &selfserv_registry::ServiceKey) {
        self.store.delete_service(key).expect("probe delete");
    }

    /// A second handle for a writer thread.
    pub fn share(&self) -> RegistrySubject {
        RegistrySubject {
            store: Arc::clone(&self.store),
            business: self.business.clone(),
        }
    }
}

/// Node that answers every message with its own body.
struct EchoNode;

impl NodeLogic for EchoNode {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) -> Flow {
        let _ = ctx.endpoint().reply(&env, "probe.echo", env.body.clone());
        Flow::Continue
    }
}

/// Node that reports when each message reached `on_message`, how late each
/// 2 ms timer fired, and what a burst of messages cost its worker in CPU.
struct StampNode {
    arrivals: mpsc::Sender<Instant>,
    lateness: mpsc::Sender<Duration>,
    burst_cpu_ms: mpsc::Sender<f64>,
    timer_due: Option<Instant>,
    /// Messages of the current burst still to come, and the worker's CPU
    /// time when its first message arrived.
    burst: Option<(usize, f64)>,
}

const TIMER_PROBE_DELAY: Duration = Duration::from_millis(2);

impl NodeLogic for StampNode {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) -> Flow {
        if env.kind == "probe.timer" {
            self.timer_due = Some(Instant::now() + TIMER_PROBE_DELAY);
            ctx.set_timer(TIMER_PROBE_DELAY, TimerToken(7));
        } else if env.kind == "probe.burst" {
            // The first message of a burst carries its length. The pool has
            // one worker, so its thread's CPU time is this node's.
            let (left, cpu_at_first) = self.burst.take().unwrap_or_else(|| {
                let len = env
                    .body
                    .attr("len")
                    .and_then(|n| n.parse().ok())
                    .unwrap_or(1);
                (len, crate::procfs::thread_cpu_ms())
            });
            if left > 1 {
                self.burst = Some((left - 1, cpu_at_first));
            } else {
                let _ = self
                    .burst_cpu_ms
                    .send(crate::procfs::thread_cpu_ms() - cpu_at_first);
            }
        } else {
            let _ = self.arrivals.send(Instant::now());
        }
        Flow::Continue
    }

    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _timer: TimerToken) -> Flow {
        if let Some(due) = self.timer_due.take() {
            let _ = self
                .lateness
                .send(Instant::now().saturating_duration_since(due));
        }
        Flow::Continue
    }
}

/// An echo node and a caller endpoint on one transport: a round trip is
/// `send` → executor → `on_message` → `reply` → caller's `recv`.
pub struct RttSubject {
    caller: Endpoint,
    echo: NodeHandle,
    exec: Executor,
    body: Element,
}

impl RttSubject {
    pub fn fabric() -> RttSubject {
        Self::on(&Network::new(NetworkConfig::instant()))
    }

    pub fn tcp() -> RttSubject {
        Self::on(&TcpTransport::new())
    }

    fn on(net: &dyn Transport) -> RttSubject {
        let exec = Executor::new(1);
        let endpoint = net
            .connect(NodeId::new("probe.echo"))
            .expect("echo connects");
        let echo = exec.handle().spawn_node(endpoint, EchoNode);
        let caller = net
            .connect(NodeId::new("probe.caller"))
            .expect("caller connects");
        let body = sample_envelope(&"x".repeat(64)).body;
        RttSubject {
            caller,
            echo,
            exec,
            body,
        }
    }

    pub fn round_trip(&self) {
        self.caller
            .rpc(
                NodeId::new("probe.echo"),
                "probe.ping",
                self.body.clone(),
                Duration::from_secs(5),
            )
            .expect("probe round trip");
    }

    pub fn teardown(self) {
        self.echo.stop();
        drop(self.caller);
        self.exec.shutdown();
    }
}

/// Node that counts the messages of a burst and says when the last came.
/// It holds the first message until the gate opens, so the rest of the burst
/// queues up behind it and is then drained without the worker ever going
/// idle: the cost of a message on a busy system, not of a wake-up per
/// message.
struct CountNode {
    left: usize,
    gate: mpsc::Receiver<()>,
    done: mpsc::Sender<()>,
}

impl NodeLogic for CountNode {
    fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, env: Envelope) -> Flow {
        if self.left == 0 {
            self.left = env
                .body
                .attr("len")
                .and_then(|n| n.parse().ok())
                .unwrap_or(1);
            // Nothing else runs on this probe's one-worker pool.
            let _ = self.gate.recv_timeout(Duration::from_secs(60));
        }
        self.left -= 1;
        if self.left == 0 {
            let _ = self.done.send(());
        }
        Flow::Continue
    }
}

/// A sender and a counting node on one transport: what one message costs
/// the whole process in CPU, end to end through that transport.
pub struct BurstSubject {
    sender: Endpoint,
    node: NodeHandle,
    exec: Executor,
    gate: mpsc::Sender<()>,
    done: mpsc::Receiver<()>,
}

impl BurstSubject {
    pub fn fabric() -> BurstSubject {
        Self::on(&Network::new(NetworkConfig::instant()))
    }

    pub fn tcp() -> BurstSubject {
        Self::on(&TcpTransport::new())
    }

    fn on(net: &dyn Transport) -> BurstSubject {
        let exec = Executor::new(1);
        let (done_tx, done) = mpsc::channel();
        let (gate, gate_rx) = mpsc::channel();
        let endpoint = net
            .connect(NodeId::new("probe.count"))
            .expect("counter connects");
        let node = exec.handle().spawn_node(
            endpoint,
            CountNode {
                left: 0,
                gate: gate_rx,
                done: done_tx,
            },
        );
        let sender = net
            .connect(NodeId::new("probe.burst"))
            .expect("sender connects");
        BurstSubject {
            sender,
            node,
            exec,
            gate,
            done,
        }
    }

    /// Process CPU (every thread: sender, connection writer and reader,
    /// executor worker) per message of a one-way burst of `len` messages
    /// carrying `payload`, µs.
    pub fn cpu_us_per_message(&self, len: usize, payload: &str) -> f64 {
        let body = sample_envelope(payload)
            .body
            .with_attr("len", len.to_string());
        let before = crate::procfs::live_threads_cpu_ms();
        for _ in 0..len {
            self.sender
                .send(NodeId::new("probe.count"), "probe.burst", body.clone())
                .expect("probe burst");
        }
        self.gate.send(()).expect("counter is alive");
        self.done
            .recv_timeout(Duration::from_secs(60))
            .expect("probe burst drains");
        (crate::procfs::live_threads_cpu_ms() - before) * 1e3 / len as f64
    }

    pub fn teardown(self) {
        self.node.stop();
        drop(self.sender);
        self.exec.shutdown();
    }
}

/// A stamping node on the fabric, for scheduling and timer lateness.
pub struct RuntimeSubject {
    sender: Endpoint,
    node: NodeHandle,
    exec: Executor,
    arrivals: mpsc::Receiver<Instant>,
    lateness: mpsc::Receiver<Duration>,
    burst_cpu_ms: mpsc::Receiver<f64>,
}

impl RuntimeSubject {
    pub fn build() -> RuntimeSubject {
        let net = Network::new(NetworkConfig::instant());
        let exec = Executor::new(1);
        let (arrivals_tx, arrivals) = mpsc::channel();
        let (lateness_tx, lateness) = mpsc::channel();
        let (burst_tx, burst_cpu_ms) = mpsc::channel();
        let endpoint = net.connect("probe.stamp").expect("stamp connects");
        let node = exec.handle().spawn_node(
            endpoint,
            StampNode {
                arrivals: arrivals_tx,
                lateness: lateness_tx,
                burst_cpu_ms: burst_tx,
                timer_due: None,
                burst: None,
            },
        );
        let sender = net.connect("probe.sender").expect("sender connects");
        RuntimeSubject {
            sender,
            node,
            exec,
            arrivals,
            lateness,
            burst_cpu_ms,
        }
    }

    /// Time from `send` to the node's `on_message`, µs.
    pub fn post_to_run_us(&self) -> f64 {
        let t0 = Instant::now();
        self.sender
            .send(NodeId::new("probe.stamp"), "probe.post", Element::new("p"))
            .expect("probe post");
        let arrived = self
            .arrivals
            .recv_timeout(Duration::from_secs(5))
            .expect("probe post arrives");
        arrived.saturating_duration_since(t0).as_secs_f64() * 1e6
    }

    /// Worker-thread CPU per message of a burst of `len` messages posted
    /// back to back (wake, dequeue, mailbox drain, an empty `on_message`),
    /// µs. The sender's own cost is not in it.
    pub fn dispatch_cpu_us(&self, len: usize) -> f64 {
        let body = Element::new("b").with_attr("len", len.to_string());
        for _ in 0..len {
            self.sender
                .send(NodeId::new("probe.stamp"), "probe.burst", body.clone())
                .expect("probe burst");
        }
        let cpu_ms = self
            .burst_cpu_ms
            .recv_timeout(Duration::from_secs(30))
            .expect("probe burst drains");
        cpu_ms * 1e3 / len as f64
    }

    /// How late a 2 ms timer fired, µs.
    pub fn timer_lag_us(&self) -> f64 {
        self.sender
            .send(NodeId::new("probe.stamp"), "probe.timer", Element::new("t"))
            .expect("probe timer kick");
        self.lateness
            .recv_timeout(Duration::from_secs(5))
            .expect("probe timer fires")
            .as_secs_f64()
            * 1e6
    }

    pub fn teardown(self) {
        self.node.stop();
        drop(self.sender);
        self.exec.shutdown();
    }
}

/// A registry server on the fabric with a client, for the rpc-path find.
pub struct RegistryRpcSubject {
    rig: ComposeRig,
    client: RegistryClient,
}

impl RegistryRpcSubject {
    /// Serves the store `subject` already seeded.
    pub fn build(subject: &RegistrySubject) -> RegistryRpcSubject {
        let rig = ComposeRig::serving(1, Arc::clone(&subject.store), &None);
        let client = RegistryClient::connect(&rig.net, "probe.registry-client", "registry.bench")
            .expect("registry client connects");
        RegistryRpcSubject { rig, client }
    }

    pub fn find(&self, operation: usize) -> usize {
        self.client
            .find(&FindQuery::any().operation(format!("op{}", operation % SEEDED_OPERATIONS)))
            .expect("probe rpc find")
            .len()
    }

    pub fn teardown(self) {
        drop(self.client);
        self.rig.teardown();
    }
}

/// A one-task chart on the fabric (the wrapper + coordinator floor), and
/// the compose chart for deploy/undeploy timing.
pub struct CoreSubject {
    net: Network,
    exec: Executor,
    seq1: Option<Target>,
    compose_chart: Statechart,
    input: Doc,
}

impl CoreSubject {
    pub fn build() -> CoreSubject {
        let net = Network::new(NetworkConfig::instant());
        let exec = Executor::new(1);
        let sc = synth::sequence(1);
        let seq1 = deploy_target(
            &net,
            &exec.handle(),
            &sc,
            &echo_backends(&sc, &None),
            None,
            false,
        );
        CoreSubject {
            net,
            exec,
            seq1: Some(seq1),
            compose_chart: chart_compose(),
            input: input_doc("probe", 1),
        }
    }

    pub fn execute_seq1(&self) {
        self.seq1
            .as_ref()
            .expect("deployed until teardown")
            .execute(&self.input)
            .expect("probe execute");
    }

    /// Deploys and undeploys the compose chart once; returns both times, µs.
    pub fn deploy_undeploy_us(&self) -> (f64, f64) {
        let backends = echo_backends(&self.compose_chart, &None);
        let mut lap = Lap::start();
        let deployment = Deployer::new(&self.net)
            .with_executor(self.exec.handle())
            .deploy(&self.compose_chart, &backends)
            .expect("probe deploy");
        let deploy = lap.split_us();
        deployment.undeploy();
        (deploy, lap.split_us())
    }

    pub fn teardown(mut self) {
        if let Some(t) = self.seq1.take() {
            t.teardown();
        }
        self.exec.shutdown();
    }
}

/// Client → community server → zero-latency member, on the fabric.
pub struct DelegateSubject {
    client: CommunityClient,
    server: CommunityServerHandle,
    member: NodeHandle,
    exec: Executor,
    request: Doc,
}

impl DelegateSubject {
    pub fn build() -> DelegateSubject {
        let net = Network::new(NetworkConfig::instant());
        let exec = Executor::new(1);
        let member = spawn_member(&net, &exec.handle(), "member.probe", Duration::ZERO, &None);
        let node = naming::community("probe");
        let server = CommunityServer::spawn_on(
            &net,
            &exec.handle(),
            node.as_str(),
            Community::new("probe", "probe community"),
            Arc::new(RoundRobin::new()),
            CommunityServerConfig::default(),
        )
        .expect("probe community spawns");
        let client =
            CommunityClient::connect(&net, "probe.delegator", node).expect("client connects");
        client
            .join(&Member {
                id: MemberId("member.probe".into()),
                provider: "probe".into(),
                endpoint: NodeId::new("member.probe"),
                qos: QosProfile::default(),
            })
            .expect("probe member joins");
        DelegateSubject {
            client,
            server,
            member,
            exec,
            request: MessageDoc::request("run").with("payload", Value::str("x".repeat(64))),
        }
    }

    pub fn delegate(&self) {
        self.client.invoke(&self.request).expect("probe delegation");
    }

    pub fn teardown(self) {
        drop(self.client);
        self.server.stop();
        self.member.stop();
        self.exec.shutdown();
    }
}

/// Two hubs, the second seeded with the first's address: time until each
/// can route to a node connected on the other, ms.
pub fn discovery_converge_ms() -> f64 {
    let execs = [Executor::new(1), Executor::new(1)];
    let nets = [TcpTransport::new(), TcpTransport::new()];
    let _nodes: Vec<Endpoint> = nets
        .iter()
        .enumerate()
        .map(|(i, net)| {
            Transport::connect(net, NodeId::new(format!("probe.peer{i}"))).expect("peer connects")
        })
        .collect();
    let start = Instant::now();
    let first = PeerDiscovery::spawn_on(&nets[0], &execs[0].handle(), DiscoveryConfig::default())
        .expect("discovery spawns");
    let second = PeerDiscovery::spawn_on(
        &nets[1],
        &execs[1].handle(),
        DiscoveryConfig::default().with_seed(first.seed_addr()),
    )
    .expect("discovery spawns");
    let bound = first.wait_until_bound("probe.peer1", Duration::from_secs(30))
        && second.wait_until_bound("probe.peer0", Duration::from_secs(30));
    let ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(bound, "probe hubs never converged");
    first.stop();
    second.stop();
    drop(_nodes);
    for exec in execs {
        exec.shutdown();
    }
    ms
}

/// A metrics registry shaped like one hub's (transport, executor and
/// monitor families registered the way the product registers them).
pub struct ObsSubject {
    registry: selfserv_obs::Registry,
    histogram: Arc<selfserv_obs::Histogram>,
    _exec: Executor,
}

impl ObsSubject {
    pub fn build() -> ObsSubject {
        let registry = selfserv_obs::Registry::new();
        let labels = [("hub", "h0")];
        TcpTransport::new().register_metrics(&registry, &labels);
        let exec = Executor::new(1);
        exec.handle().register_metrics(&registry, &labels);
        let monitor = MonitorMetrics::register(&registry, &labels);
        let community = CommunityMetrics::register(&registry, &labels);
        for v in 1..2000u64 {
            monitor.instance_latency_us.record(v * 7);
            community.delegation_latency_us.record(v * 3);
        }
        ObsSubject {
            registry,
            histogram: Arc::clone(&monitor.instance_latency_us),
            _exec: exec,
        }
    }

    pub fn record(&self, v: u64) {
        self.histogram.record(v);
    }

    pub fn render(&self) -> String {
        self.registry.render()
    }

    pub fn teardown(self) {
        self._exec.shutdown();
    }
}

pub fn obs_parse(text: &str) -> usize {
    selfserv_obs::parse::parse(text)
        .expect("exposition parses")
        .samples
        .len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compose_chart_has_twelve_states_and_survives_its_xml() {
        let chart = chart_compose();
        assert_eq!(chart.state_count(), 12);
        assert_eq!(statechart_decode(&chart_xml(&chart)).state_count(), 12);
    }

    #[test]
    fn volatile_fields_are_stripped_and_the_instance_is_returned() {
        let mut doc = echo_reply(&input_doc("payload-bytes", 2));
        doc.set("_elapsed_ms", Value::Int(17));
        doc.set("_instance", Value::str("i42"));
        let (stripped, instance) = strip_volatile(doc);
        assert_eq!(instance, Some(42));
        assert_eq!(stripped, echo_reply(&input_doc("payload-bytes", 2)));
    }

    #[test]
    fn nodes_are_classified_by_the_naming_conventions() {
        assert_eq!(role_of("synthseq3-h0.wrapper"), "wrapper");
        assert_eq!(role_of("synthseq3-h0.coord.s1"), "coordinator");
        assert_eq!(role_of("community.bench-h1.r1"), "community");
        assert_eq!(role_of("member.h0.m3"), "member");
        assert_eq!(role_of("client~abc-1"), "client");
        assert_eq!(role_of("disc.1234"), "discovery");
        assert_eq!(role_of("ctl.join.h0"), "other");
    }
}
