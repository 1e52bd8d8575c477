//! The community as a network service: membership and delegation over the
//! fabric.
//!
//! A community node accepts `community.invoke` requests, chooses a member
//! via its [`SelectionPolicy`], and delegates. Two delegation modes are
//! provided (experiment E6 compares their hop counts):
//!
//! * [`DelegationMode::Proxy`] — the community forwards the request to the
//!   member and relays the reply (caller sees one hop; community carries
//!   the payload twice);
//! * [`DelegationMode::Redirect`] — the community returns the chosen
//!   member's endpoint and the caller invokes it directly (community stays
//!   off the data path, as a pure broker).
//!
//! On member failure (fault or timeout) the community retries the remaining
//! members — the failover behaviour that keeps composite services running
//! when a provider disappears (experiment E5).
//!
//! Delegation is **continuation-passing**: an invocation never parks an
//! executor worker. `community.invoke` selects a member and fires the
//! member rpc with [`NodeCtx::rpc_async`]; the reply (or its deadline,
//! riding the runtime's timer heap) re-enters the node in
//! [`NodeLogic::on_rpc_done`], which either relays the response to the
//! caller or fails over to the next candidate. A community node therefore
//! sustains thousands of in-flight delegations on a fixed worker pool and
//! starts no thread for them: `blocked_workers`, which counts blocking
//! backend calls on threads of their own, stays zero regardless of member
//! latency.

use crate::history::{ExecutionHistory, Outcome};
use crate::membership::{Community, CommunityError, Member, MemberId, QosProfile};
use crate::policy::{SelectionContext, SelectionPolicy};
use crate::replication::{
    member_from_xml, member_to_xml, membership_body, membership_rows, MemberEntry, MembershipState,
};
use parking_lot::RwLock;
use selfserv_net::{
    ConnectError, Endpoint, Envelope, LivenessProbe, NodeId, PeerDirectory, PeerStatus, ReplicaSet,
    Transport,
};
use selfserv_obs::{Counter, Histogram, Registry};
use selfserv_runtime::{
    ExecutorHandle, Flow, NodeCtx, NodeHandle, NodeLogic, RpcDone, RpcToken, TimerToken,
};
use selfserv_wsdl::{MessageDoc, OperationDef};
use selfserv_xml::Element;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Message kinds of the community protocol.
///
/// None of them stops a server: a replica stops only through its handle
/// (a runtime stop event), so no peer can stop it by sending it a frame.
pub mod kinds {
    /// Invoke a generic operation through the community.
    pub const INVOKE: &str = "community.invoke";
    /// Join as a member.
    pub const JOIN: &str = "community.join";
    /// Leave the community.
    pub const LEAVE: &str = "community.leave";
    /// Successful reply (body: response message or redirect).
    pub const RESULT: &str = "community.result";
    /// Failure reply.
    pub const FAULT: &str = "community.fault";
    /// Re-advertise an existing member's data (typically new QoS figures).
    pub const UPDATE: &str = "community.update";
    /// The invocation kind member wrappers must answer.
    pub const MEMBER_INVOKE: &str = "invoke";
    /// The member wrapper's reply kind.
    pub const MEMBER_RESULT: &str = "invoke.result";
    /// Replica anti-entropy push: one replica's full membership snapshot,
    /// answered by [`MDELTA`] when the receiver holds fresher rows.
    pub const MSYNC: &str = "community.msync";
    /// Replica anti-entropy pull half (also the eager join/leave push):
    /// exactly the membership rows the receiver was missing.
    pub const MDELTA: &str = "community.mdelta";
    /// Deterministic clock injection: runs one membership gossip round
    /// immediately, exactly as if the replication timer had fired
    /// (without re-arming it). Convergence tests use this to step
    /// replication at a controlled cadence. Carries no body.
    pub const MTICK: &str = "community.mtick";
}

/// Hot-path metrics of a community server, updated lock-free from the
/// delegation state machine. One instance is typically shared by every
/// replica of a community (replicas are one logical community), while the
/// per-replica gauges live on [`CommunityServerHandle::register_metrics`].
pub struct CommunityMetrics {
    /// End-to-end proxy delegation latency in microseconds, admission to
    /// caller reply — successful delegations only (failover time included).
    pub delegation_latency_us: Arc<Histogram>,
    /// Delegations accepted: proxy attempts fired plus redirects issued.
    pub delegations: Arc<Counter>,
    /// Failovers: member attempts that failed and were retried on another
    /// member.
    pub failovers: Arc<Counter>,
    /// Delegations that resolved with a fault to the caller.
    pub faults: Arc<Counter>,
}

impl CommunityMetrics {
    /// Registers the community metric family under `labels` (typically
    /// `{community="..."}` plus the hub) and returns the shared handle to
    /// hang off [`CommunityServerConfig::metrics`].
    pub fn register(registry: &Registry, labels: &[(&str, &str)]) -> Arc<CommunityMetrics> {
        Arc::new(CommunityMetrics {
            delegation_latency_us: registry.histogram(
                "selfserv_community_delegation_latency_us",
                "End-to-end proxy delegation latency in microseconds (successes only).",
                labels,
            ),
            delegations: registry.counter(
                "selfserv_community_delegations_total",
                "Delegations accepted (proxied or redirected).",
                labels,
            ),
            failovers: registry.counter(
                "selfserv_community_failovers_total",
                "Member attempts that failed and were retried on another member.",
                labels,
            ),
            faults: registry.counter(
                "selfserv_community_faults_total",
                "Delegations that resolved with a fault to the caller.",
                labels,
            ),
        })
    }
}

/// How the community hands a request to the chosen member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelegationMode {
    /// Forward the request and relay the reply.
    Proxy,
    /// Tell the caller which member to contact.
    Redirect,
}

/// How a replica finds and synchronizes its sibling replicas. A replica
/// with neither static peers nor a directory is **unreplicated**: no
/// gossip timer is armed and no redirect targets exist, exactly the old
/// single-server behaviour.
#[derive(Clone, Default)]
pub struct ReplicationConfig {
    /// Statically known sibling replica nodes (the spawn helpers fill
    /// this with the `<base>` / `<base>.rN` naming family). The replica's
    /// own name is ignored if present.
    pub peers: Vec<NodeId>,
    /// A hub directory to discover siblings through: every gossip round
    /// re-scans it for the replica's naming family, so replicas hosted on
    /// hubs that joined later (learned via discovery gossip) enter the
    /// sync set without reconfiguration.
    pub directory: Option<PeerDirectory>,
    /// Anti-entropy cadence. `None` uses [`ReplicationConfig::DEFAULT_GOSSIP_INTERVAL`].
    pub gossip_interval: Option<Duration>,
}

impl ReplicationConfig {
    /// The default anti-entropy cadence between replicas.
    pub const DEFAULT_GOSSIP_INTERVAL: Duration = Duration::from_millis(200);

    /// True when this replica synchronizes with anyone.
    pub fn is_active(&self) -> bool {
        !self.peers.is_empty() || self.directory.is_some()
    }

    fn interval(&self) -> Duration {
        self.gossip_interval
            .unwrap_or(Self::DEFAULT_GOSSIP_INTERVAL)
    }
}

/// Configuration of a [`CommunityServer`].
#[derive(Clone)]
pub struct CommunityServerConfig {
    /// Delegation mode.
    pub mode: DelegationMode,
    /// Per-member invocation deadline in proxy mode.
    pub member_timeout: Duration,
    /// Maximum number of *different* members tried before faulting.
    pub max_attempts: usize,
    /// Admission cap: the maximum number of delegations this server keeps
    /// in flight at once. Invocations beyond the cap queue in arrival
    /// order and are admitted as slots free up — backpressure that bounds
    /// the load one community replica pushes onto its member pool.
    /// Defaults to unbounded (`usize::MAX`).
    pub max_in_flight: usize,
    /// A failure detector's view of peer liveness (e.g. the
    /// `selfserv-discovery` directory of the community's hub). When set,
    /// members whose endpoints are **evicted** are removed from candidacy
    /// entirely, and **suspected** ones are deprioritized: the policy
    /// selects among healthy members first and falls back to suspected
    /// ones only when no healthy member exists. `None` keeps the old
    /// behaviour (every registered member is a candidate).
    pub liveness: Option<Arc<dyn LivenessProbe>>,
    /// Shared counters/histogram the delegation machine updates. `None`
    /// (the default) records nothing; replicas of one community normally
    /// share a single [`CommunityMetrics`] so their samples aggregate.
    pub metrics: Option<Arc<CommunityMetrics>>,
    /// How this replica synchronizes membership with its siblings. The
    /// default is unreplicated.
    pub replication: ReplicationConfig,
}

impl Default for CommunityServerConfig {
    fn default() -> Self {
        CommunityServerConfig {
            mode: DelegationMode::Proxy,
            member_timeout: Duration::from_secs(5),
            max_attempts: 3,
            max_in_flight: usize::MAX,
            liveness: None,
            metrics: None,
            replication: ReplicationConfig::default(),
        }
    }
}

/// Selection directives (`weight_*` parameters) are consumed by the
/// community, not forwarded to members.
fn strip_directives(msg: &MessageDoc) -> MessageDoc {
    let mut out = MessageDoc::request(msg.operation.clone());
    for (k, v) in msg.iter() {
        if !k.starts_with("weight_") {
            out.set(k, v.clone());
        }
    }
    out
}

/// One proxy delegation awaiting a member reply. Keyed by the `RpcToken`
/// of the outstanding member rpc; the whole retry loop lives in
/// [`CommunityLogic::on_rpc_done`] transitions, never on a worker's stack.
struct PendingDelegation {
    /// The caller's original `community.invoke` envelope (replied to with
    /// `send_correlated` once the delegation resolves either way).
    request: Envelope,
    /// The parsed invocation, directives intact — selection policies read
    /// `weight_*` parameters from it on every failover re-selection.
    msg: MessageDoc,
    /// The request forwarded to members (directives stripped), reused
    /// verbatim across failover attempts.
    forwarded: Element,
    /// The member currently serving the attempt.
    member: Member,
    /// Every member already tried (including `member`) — excluded from
    /// re-selection so `max_attempts` counts *different* members.
    tried: Vec<MemberId>,
    /// Start of the current attempt, for the history's latency sample.
    attempt_started: Instant,
    /// Admission time of the whole delegation, for the end-to-end latency
    /// sample (spans every failover attempt).
    delegation_started: Instant,
}

/// The membership-replication timer (namespace disjoint from the member
/// rpc tokens, which are `RpcToken`s).
const MEMBERSHIP_GOSSIP_TIMER: TimerToken = TimerToken(1);

/// The `<base>` of a replica's naming family: `community.x.r2` → `community.x`;
/// names without a numeric `.rN` suffix are their own base.
fn replica_base(name: &str) -> &str {
    if let Some((base, suffix)) = name.rsplit_once(".r") {
        if !suffix.is_empty() && suffix.bytes().all(|b| b.is_ascii_digit()) {
            return base;
        }
    }
    name
}

/// Replica `i`'s node name in the `<base>` / `<base>.rN` convention
/// (replica 0 is the base name itself — the name callers bind to).
fn replica_name(base: &str, i: usize) -> String {
    if i == 0 {
        base.to_string()
    } else {
        format!("{base}.r{i}")
    }
}

/// A running community node: a continuation-passing delegation machine.
struct CommunityLogic {
    /// The community's name (fault messages, sync-body headers).
    name: String,
    /// The generic operations this community offers (static descriptor
    /// data; an empty list accepts any operation).
    operations: Vec<OperationDef>,
    /// This replica's own membership table. Shared with the handle for
    /// assertions and direct seeding — never with another replica.
    membership: Arc<RwLock<MembershipState>>,
    history: Arc<ExecutionHistory>,
    policy: Arc<dyn SelectionPolicy>,
    config: CommunityServerConfig,
    /// In-flight proxy delegations, keyed by member-rpc token.
    pending: HashMap<RpcToken, PendingDelegation>,
    /// Invocations parked behind the `max_in_flight` admission cap.
    waiting: VecDeque<Envelope>,
    /// Monotonic token source for member rpcs.
    next_token: u64,
    /// Mirror of `pending.len() + waiting.len()` shared with the handle —
    /// the audit gauge for in-flight delegations.
    gauge: Arc<AtomicUsize>,
    /// Mirror of `waiting.len()` alone — the admission-queue depth gauge.
    queued: Arc<AtomicUsize>,
}

/// Spawner for community servers.
pub struct CommunityServer;

/// Handle to a spawned [`CommunityServer`].
pub struct CommunityServerHandle {
    membership: Arc<RwLock<MembershipState>>,
    history: Arc<ExecutionHistory>,
    gauge: Arc<AtomicUsize>,
    queued: Arc<AtomicUsize>,
    handle: NodeHandle,
}

impl CommunityServerHandle {
    /// The community's node name.
    pub fn node(&self) -> &NodeId {
        self.handle.node()
    }

    /// Audit gauge: delegations currently in flight (awaiting a member
    /// reply) plus invocations queued behind the admission cap. Zero once
    /// the server is idle — leak checks assert it drains.
    pub fn in_flight_delegations(&self) -> usize {
        self.gauge.load(Ordering::Relaxed)
    }

    /// Invocations currently parked behind the `max_in_flight` admission
    /// cap (a subset of [`Self::in_flight_delegations`]).
    pub fn admission_queue_depth(&self) -> usize {
        self.queued.load(Ordering::Relaxed)
    }

    /// Registers this replica's gauges: delegations in flight, admission
    /// queue depth, and current member count. The `replica` label (or any
    /// other distinguishing label) must differ between replicas — the
    /// shared [`CommunityMetrics`] aggregates, these gauges do not.
    pub fn register_metrics(&self, registry: &Registry, labels: &[(&str, &str)]) {
        let gauge = Arc::clone(&self.gauge);
        registry.gauge_fn(
            "selfserv_community_in_flight",
            "Delegations awaiting a member reply plus invocations queued for admission.",
            labels,
            move || gauge.load(Ordering::Relaxed) as f64,
        );
        let queued = Arc::clone(&self.queued);
        registry.gauge_fn(
            "selfserv_community_admission_queue_depth",
            "Invocations parked behind the max_in_flight admission cap.",
            labels,
            move || queued.load(Ordering::Relaxed) as f64,
        );
        let membership = Arc::clone(&self.membership);
        registry.gauge_fn(
            "selfserv_community_members",
            "Members currently registered with the community.",
            labels,
            move || membership.read().member_count() as f64,
        );
    }

    /// This replica's own membership table (for assertions, direct
    /// seeding, and hooking up a [`crate::replication::MembershipGossip`]
    /// payload). Replicas do **not** share it — convergence is gossip's
    /// job.
    pub fn membership(&self) -> &Arc<RwLock<MembershipState>> {
        &self.membership
    }

    /// Live members this replica currently knows.
    pub fn member_count(&self) -> usize {
        self.membership.read().member_count()
    }

    /// Shared view of the execution history.
    pub fn history(&self) -> &Arc<ExecutionHistory> {
        &self.history
    }

    /// Stops the server and waits until its name is free. Delegations
    /// still in flight are cancelled: their callers time out.
    pub fn stop(self) {
        self.handle.stop();
    }
}

impl Drop for CommunityServerHandle {
    fn drop(&mut self) {
        self.handle.stop();
    }
}

impl CommunityServer {
    /// Spawns a community server on `node_name`, over any [`Transport`],
    /// scheduled on `exec`.
    pub fn spawn_on(
        net: &dyn Transport,
        exec: &ExecutorHandle,
        node_name: &str,
        community: Community,
        policy: Arc<dyn SelectionPolicy>,
        config: CommunityServerConfig,
    ) -> Result<CommunityServerHandle, ConnectError> {
        let endpoint = net.connect(NodeId::new(node_name))?;
        Ok(Self::spawn_logic(exec, endpoint, community, policy, config))
    }

    /// Spawns `replicas` community servers, each with its **own**
    /// membership table and execution history: replica 0 takes
    /// `node_name` itself, replica `i` takes `<node_name>.r<i>` (the
    /// convention callers' replica routing probes for). Nothing is shared
    /// — a join or leave through any replica reaches the others as
    /// versioned membership rows (an eager push plus periodic
    /// anti-entropy), the same way it would reach a replica on another
    /// hub or in another process. Every replica runs on `exec`.
    pub fn spawn_replicas_on(
        net: &dyn Transport,
        exec: &ExecutorHandle,
        node_name: &str,
        replicas: usize,
        community: Community,
        policy: Arc<dyn SelectionPolicy>,
        config: CommunityServerConfig,
    ) -> Result<Vec<CommunityServerHandle>, ConnectError> {
        let total = replicas.max(1);
        (0..total)
            .map(|i| {
                Self::spawn_replica_on(
                    net,
                    exec,
                    node_name,
                    i,
                    total,
                    community.clone(),
                    Arc::clone(&policy),
                    config.clone(),
                )
            })
            .collect()
    }

    /// Spawns **one** replica of a community — the entry point for
    /// pinning replicas to distinct hubs or processes. Replica `index` of
    /// `total` takes the `<base>` / `<base>.rN` name and gets every
    /// sibling name as a static replication peer (on top of whatever
    /// `config.replication` already carries); names resolve wherever the
    /// siblings actually run, because the transport routes by name. Pass
    /// the hub's directory in `config.replication.directory` to also pick
    /// up replicas spawned later on hubs discovered via gossip.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn_replica_on(
        net: &dyn Transport,
        exec: &ExecutorHandle,
        base_name: &str,
        index: usize,
        total: usize,
        community: Community,
        policy: Arc<dyn SelectionPolicy>,
        mut config: CommunityServerConfig,
    ) -> Result<CommunityServerHandle, ConnectError> {
        let name = replica_name(base_name, index);
        for i in 0..total.max(1) {
            if i == index {
                continue;
            }
            let peer = NodeId::new(replica_name(base_name, i));
            if !config.replication.peers.contains(&peer) {
                config.replication.peers.push(peer);
            }
        }
        let endpoint = net.connect(NodeId::new(&name))?;
        Ok(Self::spawn_logic(exec, endpoint, community, policy, config))
    }

    /// The common spawn tail: seeds this replica's private membership
    /// table from the community descriptor's member set and starts the
    /// node.
    fn spawn_logic(
        exec: &ExecutorHandle,
        endpoint: Endpoint,
        community: Community,
        policy: Arc<dyn SelectionPolicy>,
        config: CommunityServerConfig,
    ) -> CommunityServerHandle {
        let membership = Arc::new(RwLock::new(MembershipState::seeded_from(&community)));
        let history = Arc::new(ExecutionHistory::new());
        let gauge = Arc::new(AtomicUsize::new(0));
        let queued = Arc::new(AtomicUsize::new(0));
        let logic = CommunityLogic {
            name: community.name.clone(),
            operations: community.operations.clone(),
            membership: Arc::clone(&membership),
            history: Arc::clone(&history),
            policy,
            config,
            pending: HashMap::new(),
            waiting: VecDeque::new(),
            next_token: 0,
            gauge: Arc::clone(&gauge),
            queued: Arc::clone(&queued),
        };
        CommunityServerHandle {
            membership,
            history,
            gauge,
            queued,
            handle: exec.spawn_node(endpoint, logic),
        }
    }
}

impl NodeLogic for CommunityLogic {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.config.replication.is_active() {
            ctx.set_timer(self.config.replication.interval(), MEMBERSHIP_GOSSIP_TIMER);
        }
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, request: Envelope) -> Flow {
        match request.kind.as_str() {
            kinds::JOIN => {
                let reply = self.handle_join(ctx, &request.body);
                self.send_reply(ctx, &request, reply);
            }
            kinds::LEAVE => {
                let reply = self.handle_leave(ctx, &request.body);
                self.send_reply(ctx, &request, reply);
            }
            kinds::UPDATE => {
                let reply = self.handle_update(ctx, &request.body);
                self.send_reply(ctx, &request, reply);
            }
            kinds::INVOKE => {
                if self.pending.len() >= self.config.max_in_flight {
                    self.waiting.push_back(request);
                    self.sync_gauge();
                } else {
                    self.start_delegation(ctx, request);
                }
            }
            // Replica membership sync — fire-and-forget between replicas,
            // so protocol errors are dropped, never faulted back.
            // A snapshot (`MSYNC`) is answered with exactly the rows its
            // sender was missing; a delta merges silently.
            kinds::MSYNC | kinds::MDELTA => {
                if let Some((community, rows)) = membership_rows(&request.body) {
                    if community == self.name {
                        let is_delta = request.kind == kinds::MDELTA;
                        let missing = self.membership.write().respond(rows, is_delta);
                        if !missing.is_empty() {
                            let body = membership_body(&self.name, &missing);
                            let _ = ctx
                                .endpoint()
                                .send(request.from.clone(), kinds::MDELTA, body);
                        }
                    }
                }
            }
            kinds::MTICK => self.membership_gossip(ctx),
            other => {
                let err = CommunityError::Protocol(format!("unknown kind {other:?}"));
                self.send_reply(ctx, &request, Err(err));
            }
        }
        Flow::Continue
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: TimerToken) -> Flow {
        if timer == MEMBERSHIP_GOSSIP_TIMER {
            self.membership_gossip(ctx);
            ctx.set_timer(self.config.replication.interval(), MEMBERSHIP_GOSSIP_TIMER);
        }
        Flow::Continue
    }

    /// A member rpc resolved (reply, timeout, or send failure): relay the
    /// response, or fail over to the next candidate — the continuation of
    /// the old blocking retry loop.
    fn on_rpc_done(&mut self, ctx: &mut NodeCtx<'_>, done: RpcDone) -> Flow {
        if let Some(pending) = self.pending.remove(&done.token) {
            self.advance_delegation(ctx, pending, done.result);
            // A slot freed: admit parked invocations up to the cap.
            while self.pending.len() < self.config.max_in_flight {
                let Some(request) = self.waiting.pop_front() else {
                    break;
                };
                self.start_delegation(ctx, request);
            }
            self.sync_gauge();
        }
        Flow::Continue
    }
}

impl CommunityLogic {
    fn send_reply(
        &self,
        ctx: &NodeCtx<'_>,
        request: &Envelope,
        reply: Result<Element, CommunityError>,
    ) {
        let (kind, body) = match reply {
            Ok(body) => (kinds::RESULT, body),
            Err(e) => (
                kinds::FAULT,
                Element::new("fault").with_attr("reason", e.to_string()),
            ),
        };
        let _ = ctx.endpoint().reply(request, kind, body);
    }

    /// Sibling replicas as currently known: the static peer list plus a
    /// directory re-scan of the naming family (replicas on hubs learned
    /// via gossip), minus this node itself.
    fn replica_peers(&self, self_node: &NodeId) -> Vec<NodeId> {
        let mut peers: Vec<NodeId> = self
            .config
            .replication
            .peers
            .iter()
            .filter(|p| *p != self_node)
            .cloned()
            .collect();
        if let Some(dir) = &self.config.replication.directory {
            let base = replica_base(self_node.as_str());
            for r in ReplicaSet::discover(base, dir).replicas() {
                if r != self_node && !peers.contains(r) {
                    peers.push(r.clone());
                }
            }
        }
        peers.sort();
        peers
    }

    /// One anti-entropy round: push this replica's full snapshot to every
    /// sibling; each answers with exactly the rows we were missing
    /// (`MDELTA`). Sends to dead siblings cost nothing — they enqueue and
    /// the answer simply never comes.
    fn membership_gossip(&mut self, ctx: &mut NodeCtx<'_>) {
        let peers = self.replica_peers(ctx.node());
        if peers.is_empty() {
            return;
        }
        let rows = self.membership.read().snapshot();
        let body = membership_body(&self.name, &rows);
        for peer in peers {
            let _ = ctx.endpoint().send(peer, kinds::MSYNC, body.clone());
        }
    }

    /// Eagerly pushes one freshly written row to every sibling, so a join
    /// or leave is visible fleet-wide in one message delay instead of one
    /// gossip interval. Anti-entropy repairs any loss.
    fn push_row(&self, ctx: &NodeCtx<'_>, entry: &MemberEntry) {
        let peers = self.replica_peers(ctx.node());
        if peers.is_empty() {
            return;
        }
        let row = vec![(entry.value.id.clone(), entry.clone())];
        let body = membership_body(&self.name, &row);
        for peer in peers {
            let _ = ctx.endpoint().send(peer, kinds::MDELTA, body.clone());
        }
    }

    fn handle_join(
        &mut self,
        ctx: &NodeCtx<'_>,
        body: &Element,
    ) -> Result<Element, CommunityError> {
        let member = decode_member(body)?;
        let entry = self.membership.write().join(member)?;
        self.push_row(ctx, &entry);
        Ok(Element::new("ok"))
    }

    fn handle_update(
        &mut self,
        ctx: &NodeCtx<'_>,
        body: &Element,
    ) -> Result<Element, CommunityError> {
        let member = decode_member(body)?;
        let entry = self.membership.write().update(member)?;
        self.push_row(ctx, &entry);
        Ok(Element::new("ok"))
    }

    fn handle_leave(
        &mut self,
        ctx: &NodeCtx<'_>,
        body: &Element,
    ) -> Result<Element, CommunityError> {
        let id = MemberId(
            body.require_attr("id")
                .map_err(CommunityError::Protocol)?
                .to_string(),
        );
        let entry = self.membership.write().leave(&id)?;
        self.history.forget(&id);
        self.push_row(ctx, &entry);
        Ok(Element::new("ok"))
    }

    fn sync_gauge(&self) {
        self.gauge
            .store(self.pending.len() + self.waiting.len(), Ordering::Relaxed);
        self.queued.store(self.waiting.len(), Ordering::Relaxed);
    }

    /// A delegation resolved with a fault to the caller: count it, reply.
    fn fault_delegation(&self, ctx: &NodeCtx<'_>, request: &Envelope, err: CommunityError) {
        if let Some(m) = &self.config.metrics {
            m.faults.inc();
        }
        self.send_reply(ctx, request, Err(err));
    }

    /// Liveness-gated member selection: evicted members are out of
    /// candidacy entirely; suspected ones are only offered to the policy
    /// when no healthy member remains (deprioritization, not exclusion —
    /// suspicion is one detector's unconfirmed observation).
    fn select_member(&self, msg: &MessageDoc, excluded: &[MemberId]) -> Option<Member> {
        let liveness = self.config.liveness.as_deref();
        let c = self.membership.read();
        let mut healthy: Vec<&Member> = Vec::new();
        let mut suspected: Vec<&Member> = Vec::new();
        for m in c.members().filter(|m| !excluded.contains(&m.id)) {
            match liveness.map_or(PeerStatus::Alive, |l| l.status_of(m.endpoint.as_str())) {
                PeerStatus::Alive => healthy.push(m),
                // A contested name routes ambiguously — deprioritize it
                // like a suspected one (directories never return
                // NameConflict from status_of today; future probes may).
                PeerStatus::Suspected | PeerStatus::NameConflict => suspected.push(m),
                PeerStatus::Evicted => {}
            }
        }
        let ctx = SelectionContext {
            operation: &msg.operation,
            request: msg,
            history: &self.history,
            liveness,
        };
        self.policy
            .select(&healthy, &ctx)
            .or_else(|| self.policy.select(&suspected, &ctx))
            .cloned()
    }

    /// Phase 1 — fire: validate the invocation, choose a member, and
    /// either answer immediately (redirect mode, faults) or send the
    /// member rpc and park the delegation in `pending`. Nothing here
    /// waits: member replies and deadlines re-enter via `on_rpc_done`.
    fn start_delegation(&mut self, ctx: &mut NodeCtx<'_>, request: Envelope) {
        let msg = match MessageDoc::from_xml(&request.body) {
            Ok(msg) => msg,
            Err(e) => {
                let err = CommunityError::Protocol(e.to_string());
                self.fault_delegation(ctx, &request, err);
                return;
            }
        };
        let operation_known =
            self.operations.is_empty() || self.operations.iter().any(|o| o.name == msg.operation);
        if !operation_known {
            let err = CommunityError::UnknownOperation(msg.operation.clone());
            self.fault_delegation(ctx, &request, err);
            return;
        }
        let forwarded = strip_directives(&msg).to_xml();
        let Some(member) = self.select_member(&msg, &[]) else {
            // Replica-aware redirect: a replica whose local member pool
            // cannot serve (empty, fully evicted, or not yet converged)
            // hands the caller to the rendezvous-ranked next replica
            // instead of faulting. The caller tracks which replicas it
            // has tried, so a ring of empty replicas terminates there.
            if let Some(next) = self.redirect_replica(ctx.node(), &msg) {
                if let Some(m) = &self.config.metrics {
                    m.delegations.inc();
                }
                let body = Element::new("redirect")
                    .with_attr("replica", "1")
                    .with_attr("endpoint", next.as_str());
                self.send_reply(ctx, &request, Ok(body));
                return;
            }
            let err = CommunityError::NoMembersAvailable {
                community: self.name.clone(),
            };
            self.fault_delegation(ctx, &request, err);
            return;
        };
        if let Some(m) = &self.config.metrics {
            m.delegations.inc();
        }
        match self.config.mode {
            DelegationMode::Redirect => {
                // The caller invokes the member itself; history gets no
                // latency sample (the community never observes it).
                let body = Element::new("redirect")
                    .with_attr("member", &member.id.0)
                    .with_attr("provider", &member.provider)
                    .with_attr("endpoint", member.endpoint.as_str());
                self.send_reply(ctx, &request, Ok(body));
            }
            DelegationMode::Proxy => {
                let now = Instant::now();
                let pending = PendingDelegation {
                    request,
                    msg,
                    forwarded,
                    tried: vec![member.id.clone()],
                    member,
                    attempt_started: now,
                    delegation_started: now,
                };
                self.fire_attempt(ctx, pending);
                self.sync_gauge();
            }
        }
    }

    /// Phase 2 — await: send the member rpc for the delegation's current
    /// attempt. The deadline rides the runtime's timer heap; a node stop
    /// cancels the pending rpc with everything else the cell owns.
    fn fire_attempt(&mut self, ctx: &mut NodeCtx<'_>, mut pending: PendingDelegation) {
        self.history.start(&pending.member.id);
        pending.attempt_started = Instant::now();
        let token = RpcToken(self.next_token);
        self.next_token += 1;
        ctx.rpc_async(
            pending.member.endpoint.clone(),
            kinds::MEMBER_INVOKE,
            pending.forwarded.clone(),
            self.config.member_timeout,
            token,
        );
        self.pending.insert(token, pending);
    }

    /// Phase 3 — resolve or fail over: a member rpc finished. Relay a
    /// good response to the caller; on a member fault, timeout, or send
    /// failure, exclude the member and re-select — up to `max_attempts`
    /// *different* members, exactly like the old blocking retry loop.
    fn advance_delegation(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        mut pending: PendingDelegation,
        result: Result<Envelope, selfserv_net::RpcError>,
    ) {
        let elapsed = pending.attempt_started.elapsed();
        if let Ok(reply) = &result {
            if reply.kind == kinds::MEMBER_RESULT {
                let response = match MessageDoc::from_xml(&reply.body) {
                    Ok(response) => response,
                    Err(e) => {
                        let err = CommunityError::Protocol(e.to_string());
                        self.fault_delegation(ctx, &pending.request, err);
                        return;
                    }
                };
                if !response.is_fault() {
                    self.history
                        .complete(&pending.member.id, elapsed, Outcome::Success);
                    if let Some(m) = &self.config.metrics {
                        let us = pending.delegation_started.elapsed().as_micros();
                        m.delegation_latency_us
                            .record(us.min(u128::from(u64::MAX)) as u64);
                    }
                    let mut body = response.to_xml();
                    body.set_attr("delegatee", &pending.member.id.0);
                    self.send_reply(ctx, &pending.request, Ok(body));
                    return;
                }
            }
        }
        // Member fault, unexpected reply kind, timeout, or send failure:
        // record the failure and fail over.
        self.history
            .complete(&pending.member.id, elapsed, Outcome::Failure);
        if pending.tried.len() >= self.config.max_attempts {
            let err = CommunityError::DelegationFailed(format!(
                "all {} attempted member(s) failed",
                pending.tried.len()
            ));
            self.fault_delegation(ctx, &pending.request, err);
            return;
        }
        match self.select_member(&pending.msg, &pending.tried) {
            Some(next) => {
                if let Some(m) = &self.config.metrics {
                    m.failovers.inc();
                }
                pending.tried.push(next.id.clone());
                pending.member = next;
                self.fire_attempt(ctx, pending);
            }
            None => {
                let err = CommunityError::NoMembersAvailable {
                    community: self.name.clone(),
                };
                self.fault_delegation(ctx, &pending.request, err);
            }
        }
    }

    /// The rendezvous-ranked sibling to redirect an unservable invocation
    /// to: liveness-gated like any replica routing, keyed on the
    /// operation so all replicas rank identically, excluding this node.
    fn redirect_replica(&self, self_node: &NodeId, msg: &MessageDoc) -> Option<NodeId> {
        let peers = self.replica_peers(self_node);
        if peers.is_empty() {
            return None;
        }
        ReplicaSet::new(peers).route(
            &format!("{}/{}", self.name, msg.operation),
            self.config.liveness.as_deref(),
            &[],
            &|_| 0,
        )
    }
}

/// Decodes the `<member>` body of a join or update request: QoS attributes
/// the provider did not advertise take the profile's defaults; a malformed
/// or non-finite one is a protocol fault.
fn decode_member(body: &Element) -> Result<Member, CommunityError> {
    member_from_xml(body, Some(QosProfile::default())).map_err(CommunityError::Protocol)
}

/// Typed client for a community node: join/leave/invoke.
pub struct CommunityClient {
    endpoint: Endpoint,
    community_node: NodeId,
    /// RPC deadline (applies to the whole delegation in proxy mode).
    pub timeout: Duration,
}

impl CommunityClient {
    /// Connects a client node.
    pub fn connect(
        net: &dyn Transport,
        client_name: &str,
        community_node: impl Into<NodeId>,
    ) -> Result<Self, ConnectError> {
        Ok(CommunityClient {
            endpoint: net.connect(NodeId::new(client_name))?,
            community_node: community_node.into(),
            timeout: Duration::from_secs(10),
        })
    }

    /// Registers a member with the community.
    pub fn join(&self, member: &Member) -> Result<(), CommunityError> {
        let reply = self.call(kinds::JOIN, member_to_xml(member))?;
        let _ = reply;
        Ok(())
    }

    /// Removes a member from the community.
    pub fn leave(&self, id: &MemberId) -> Result<(), CommunityError> {
        self.call(kinds::LEAVE, Element::new("member").with_attr("id", &id.0))?;
        Ok(())
    }

    /// Re-registers a member's QoS profile in place (same id, new
    /// attributes). The replica that takes the update gossips it to its
    /// siblings like any other membership change.
    pub fn update(&self, member: &Member) -> Result<(), CommunityError> {
        self.call(kinds::UPDATE, member_to_xml(member))?;
        Ok(())
    }

    /// Invokes a generic operation through the community. Redirects are
    /// followed automatically — both member redirects (redirect mode:
    /// the caller talks to the selected member directly) and replica
    /// redirects (a replica with no usable member pool hands us to a
    /// sibling) — so callers always get the final response message.
    pub fn invoke(&self, msg: &MessageDoc) -> Result<MessageDoc, CommunityError> {
        let mut target = self.community_node.clone();
        let mut hops: Vec<NodeId> = Vec::new();
        let body = loop {
            let body = self.call_at(&target, kinds::INVOKE, msg.to_xml())?;
            if body.name == "redirect" && body.attr("replica").is_some() {
                let next = NodeId::new(
                    body.require_attr("endpoint")
                        .map_err(CommunityError::Protocol)?,
                );
                // A replica never redirects to itself, so a repeat means
                // the family's pools are all empty: stop rather than ring.
                if next == target || hops.contains(&next) || hops.len() >= 4 {
                    return Err(CommunityError::DelegationFailed(format!(
                        "replica redirect loop via {next}"
                    )));
                }
                hops.push(target);
                target = next;
                continue;
            }
            break body;
        };
        if body.name == "redirect" {
            let endpoint = body
                .require_attr("endpoint")
                .map_err(CommunityError::Protocol)?
                .to_string();
            let forwarded = strip_directives(msg);
            let reply = self
                .endpoint
                .rpc(
                    endpoint.as_str(),
                    kinds::MEMBER_INVOKE,
                    forwarded.to_xml(),
                    self.timeout,
                )
                .map_err(|e| CommunityError::DelegationFailed(e.to_string()))?;
            let response = MessageDoc::from_xml(&reply.body)
                .map_err(|e| CommunityError::Protocol(e.to_string()))?;
            if response.is_fault() {
                return Err(CommunityError::DelegationFailed(
                    response
                        .fault_reason()
                        .unwrap_or("member fault")
                        .to_string(),
                ));
            }
            return Ok(response);
        }
        let response =
            MessageDoc::from_xml(&body).map_err(|e| CommunityError::Protocol(e.to_string()))?;
        if response.is_fault() {
            return Err(CommunityError::DelegationFailed(
                response
                    .fault_reason()
                    .unwrap_or("member fault")
                    .to_string(),
            ));
        }
        Ok(response)
    }

    fn call(&self, kind: &str, body: Element) -> Result<Element, CommunityError> {
        self.call_at(&self.community_node.clone(), kind, body)
    }

    fn call_at(
        &self,
        target: &NodeId,
        kind: &str,
        body: Element,
    ) -> Result<Element, CommunityError> {
        let reply = self
            .endpoint
            .rpc(target.clone(), kind, body, self.timeout)
            .map_err(|e| CommunityError::DelegationFailed(e.to_string()))?;
        if reply.kind == kinds::FAULT {
            Err(CommunityError::DelegationFailed(
                reply
                    .body
                    .attr("reason")
                    .unwrap_or("unspecified")
                    .to_string(),
            ))
        } else {
            Ok(reply.body)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RoundRobin;
    use selfserv_expr::Value;
    use selfserv_net::{Network, NetworkConfig};
    use selfserv_runtime::Executor;
    use selfserv_wsdl::OperationDef;

    /// A minimal member wrapper: answers `invoke` with a response that
    /// names itself, optionally failing or delaying.
    fn spawn_member(
        net: &Network,
        node: &str,
        fail: bool,
        delay: Duration,
    ) -> std::thread::JoinHandle<()> {
        let ep = net.connect(node).unwrap();
        let name = node.to_string();
        std::thread::spawn(move || {
            while let Ok(req) = ep.recv() {
                if req.kind != kinds::MEMBER_INVOKE {
                    continue;
                }
                std::thread::sleep(delay);
                let msg = MessageDoc::from_xml(&req.body).unwrap();
                let reply = if fail {
                    MessageDoc::fault(msg.operation.clone(), "member exploded")
                } else {
                    MessageDoc::response(msg.operation.clone())
                        .with("served_by", Value::str(name.clone()))
                };
                let _ = ep.reply(&req, kinds::MEMBER_RESULT, reply.to_xml());
            }
        })
    }

    fn member(id: &str, endpoint: &str) -> Member {
        Member {
            id: MemberId(id.into()),
            provider: format!("P-{id}"),
            endpoint: NodeId::new(endpoint),
            qos: QosProfile::default(),
        }
    }

    fn community() -> Community {
        Community::new("AccommodationBooking", "test")
            .with_operation(OperationDef::new("bookAccommodation"))
    }

    fn setup(
        exec: &ExecutorHandle,
        mode: DelegationMode,
    ) -> (Network, CommunityServerHandle, CommunityClient) {
        let net = Network::new(NetworkConfig::instant());
        let handle = CommunityServer::spawn_on(
            &net,
            exec,
            "community.ab",
            community(),
            Arc::new(RoundRobin::new()),
            CommunityServerConfig {
                mode,
                ..Default::default()
            },
        )
        .unwrap();
        let client = CommunityClient::connect(&net, "client", "community.ab").unwrap();
        (net, handle, client)
    }

    #[test]
    fn proxy_delegation_round_robin() {
        let exec = Executor::new(2);
        let (net, _handle, client) = setup(&exec.handle(), DelegationMode::Proxy);
        let _m1 = spawn_member(&net, "svc.h1", false, Duration::ZERO);
        let _m2 = spawn_member(&net, "svc.h2", false, Duration::ZERO);
        client.join(&member("h1", "svc.h1")).unwrap();
        client.join(&member("h2", "svc.h2")).unwrap();
        let req = MessageDoc::request("bookAccommodation");
        let r1 = client.invoke(&req).unwrap();
        let r2 = client.invoke(&req).unwrap();
        let servers: Vec<&str> = vec![
            r1.get_str("served_by").unwrap(),
            r2.get_str("served_by").unwrap(),
        ];
        assert!(
            servers.contains(&"svc.h1") && servers.contains(&"svc.h2"),
            "{servers:?}"
        );
        exec.shutdown();
    }

    #[test]
    fn redirect_delegation_reaches_member() {
        let exec = Executor::new(2);
        let (net, _handle, client) = setup(&exec.handle(), DelegationMode::Redirect);
        let _m1 = spawn_member(&net, "svc.h1", false, Duration::ZERO);
        client.join(&member("h1", "svc.h1")).unwrap();
        let resp = client
            .invoke(&MessageDoc::request("bookAccommodation"))
            .unwrap();
        assert_eq!(resp.get_str("served_by"), Some("svc.h1"));
        exec.shutdown();
    }

    #[test]
    fn empty_community_faults() {
        let exec = Executor::new(2);
        let (_net, _handle, client) = setup(&exec.handle(), DelegationMode::Proxy);
        let err = client
            .invoke(&MessageDoc::request("bookAccommodation"))
            .unwrap_err();
        assert!(err.to_string().contains("no members"), "{err}");
        exec.shutdown();
    }

    #[test]
    fn unknown_operation_faults() {
        let exec = Executor::new(2);
        let (net, _handle, client) = setup(&exec.handle(), DelegationMode::Proxy);
        let _m1 = spawn_member(&net, "svc.h1", false, Duration::ZERO);
        client.join(&member("h1", "svc.h1")).unwrap();
        let err = client.invoke(&MessageDoc::request("teleport")).unwrap_err();
        assert!(err.to_string().contains("teleport"), "{err}");
        exec.shutdown();
    }

    #[test]
    fn failover_masks_failing_member() {
        let exec = Executor::new(2);
        let (net, handle, client) = setup(&exec.handle(), DelegationMode::Proxy);
        let _bad = spawn_member(&net, "svc.bad", true, Duration::ZERO);
        let _good = spawn_member(&net, "svc.good", false, Duration::ZERO);
        client.join(&member("a-bad", "svc.bad")).unwrap();
        client.join(&member("b-good", "svc.good")).unwrap();
        // Round-robin starts at the failing member; failover must reach the
        // good one every time.
        for _ in 0..4 {
            let resp = client
                .invoke(&MessageDoc::request("bookAccommodation"))
                .unwrap();
            assert_eq!(resp.get_str("served_by"), Some("svc.good"));
        }
        let stats = handle.history().stats(&MemberId("a-bad".into()));
        assert!(
            stats.failures > 0,
            "failures recorded against the bad member"
        );
        exec.shutdown();
    }

    #[test]
    fn dead_member_times_out_and_fails_over() {
        let exec = Executor::new(2);
        let (net, _handle, mut client) = setup(&exec.handle(), DelegationMode::Proxy);
        // "svc.dead" is registered on the fabric but its node is killed.
        let _dead = spawn_member(&net, "svc.dead", false, Duration::ZERO);
        let _live = spawn_member(&net, "svc.live", false, Duration::ZERO);
        net.kill(&NodeId::new("svc.dead"));
        client.join(&member("a-dead", "svc.dead")).unwrap();
        client.join(&member("b-live", "svc.live")).unwrap();
        client.timeout = Duration::from_secs(10);
        // Shrink the member timeout by respawning? Instead rely on default
        // 5 s — too slow for tests. Use a dedicated server with short
        // timeout below.
        let handle2 = CommunityServer::spawn_on(
            &net,
            &exec.handle(),
            "community.fast",
            community(),
            Arc::new(RoundRobin::new()),
            CommunityServerConfig {
                mode: DelegationMode::Proxy,
                member_timeout: Duration::from_millis(100),
                max_attempts: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let fast = CommunityClient::connect(&net, "client2", "community.fast").unwrap();
        fast.join(&member("a-dead", "svc.dead")).unwrap();
        fast.join(&member("b-live", "svc.live")).unwrap();
        let resp = fast
            .invoke(&MessageDoc::request("bookAccommodation"))
            .unwrap();
        assert_eq!(resp.get_str("served_by"), Some("svc.live"));
        drop(handle2);
        exec.shutdown();
    }

    #[test]
    fn all_members_failing_reports_delegation_failure() {
        let exec = Executor::new(2);
        let (net, _handle, client) = setup(&exec.handle(), DelegationMode::Proxy);
        let _b1 = spawn_member(&net, "svc.b1", true, Duration::ZERO);
        let _b2 = spawn_member(&net, "svc.b2", true, Duration::ZERO);
        client.join(&member("b1", "svc.b1")).unwrap();
        client.join(&member("b2", "svc.b2")).unwrap();
        let err = client
            .invoke(&MessageDoc::request("bookAccommodation"))
            .unwrap_err();
        assert!(
            matches!(err, CommunityError::DelegationFailed(_)),
            "{err:?}"
        );
        exec.shutdown();
    }

    #[test]
    fn leave_removes_member_from_rotation() {
        let exec = Executor::new(2);
        let (net, handle, client) = setup(&exec.handle(), DelegationMode::Proxy);
        let _m1 = spawn_member(&net, "svc.h1", false, Duration::ZERO);
        let _m2 = spawn_member(&net, "svc.h2", false, Duration::ZERO);
        client.join(&member("h1", "svc.h1")).unwrap();
        client.join(&member("h2", "svc.h2")).unwrap();
        client.leave(&MemberId("h1".into())).unwrap();
        assert_eq!(handle.member_count(), 1);
        for _ in 0..3 {
            let resp = client
                .invoke(&MessageDoc::request("bookAccommodation"))
                .unwrap();
            assert_eq!(resp.get_str("served_by"), Some("svc.h2"));
        }
        assert!(client.leave(&MemberId("h1".into())).is_err());
        exec.shutdown();
    }

    #[test]
    fn duplicate_join_faults() {
        let exec = Executor::new(2);
        let (net, _handle, client) = setup(&exec.handle(), DelegationMode::Proxy);
        let _m1 = spawn_member(&net, "svc.h1", false, Duration::ZERO);
        client.join(&member("h1", "svc.h1")).unwrap();
        assert!(client.join(&member("h1", "svc.h1")).is_err());
        exec.shutdown();
    }

    /// One non-finite QoS figure makes the scoring policies' min-max
    /// bounds infinite and erases that criterion for every member — and
    /// the row would gossip to every replica. It must enter by neither
    /// door.
    #[test]
    fn non_finite_qos_is_refused_on_join_update_and_gossip() {
        let exec = Executor::new(2);
        let (net, handle, client) = setup(&exec.handle(), DelegationMode::Proxy);
        client.join(&member("h1", "svc.h1")).unwrap();
        let hostile = net.connect("test.hostile").unwrap();
        for (kind, id) in [(kinds::JOIN, "evil"), (kinds::UPDATE, "h1")] {
            for bad in ["inf", "NaN"] {
                let body = member_to_xml(&member(id, "svc.evil")).with_attr("cost", bad);
                let reply = hostile
                    .rpc("community.ab", kind, body, Duration::from_secs(5))
                    .unwrap();
                assert_eq!(reply.kind, kinds::FAULT, "{kind} with cost={bad}");
                assert!(reply.body.attr("reason").unwrap().contains("finite"));
            }
        }
        // A gossiped delta: the poisoned row is skipped, its neighbour
        // merges.
        let row = |id: &str| {
            let entry = MemberEntry {
                value: member(id, "svc.remote"),
                version: 7,
                evicted: false,
            };
            selfserv_net::lww::row_to_xml(&entry.value.id, &entry)
        };
        let body = membership_body("AccommodationBooking", &[])
            .with_child(row("evil").with_attr("duration_ms", "inf"))
            .with_child(row("good"));
        hostile.send("community.ab", kinds::MDELTA, body).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.member_count() < 2 {
            assert!(Instant::now() < deadline, "the good row never merged");
            std::thread::sleep(Duration::from_millis(5));
        }
        let m = handle.membership().read();
        assert!(m.member(&MemberId("evil".into())).is_none());
        assert_eq!(m.member(&MemberId("h1".into())).unwrap().qos.cost, 1.0);
        exec.shutdown();
    }

    #[test]
    fn weight_directives_are_stripped_from_member_requests() {
        let exec = Executor::new(2);
        let (net, _handle, client) = setup(&exec.handle(), DelegationMode::Proxy);
        let ep = net.connect("svc.echo").unwrap();
        std::thread::spawn(move || {
            while let Ok(req) = ep.recv() {
                let msg = MessageDoc::from_xml(&req.body).unwrap();
                let mut resp = MessageDoc::response(msg.operation.clone());
                resp.set("param_count", Value::Int(msg.len() as i64));
                let _ = ep.reply(&req, kinds::MEMBER_RESULT, resp.to_xml());
            }
        });
        client.join(&member("echo", "svc.echo")).unwrap();
        let req = MessageDoc::request("bookAccommodation")
            .with("city", Value::str("Sydney"))
            .with("weight_cost", Value::Float(3.0));
        let resp = client.invoke(&req).unwrap();
        assert_eq!(
            resp.get(&"param_count".to_string()[..]),
            Some(&Value::Int(1))
        );
        exec.shutdown();
    }

    /// A canned failure-detector view keyed by member endpoint name.
    struct FixedLiveness(std::collections::HashMap<String, PeerStatus>);

    impl LivenessProbe for FixedLiveness {
        fn status_of(&self, name: &str) -> PeerStatus {
            self.0.get(name).copied().unwrap_or(PeerStatus::Alive)
        }
    }

    #[test]
    fn liveness_gate_skips_evicted_and_deprioritizes_suspected() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let liveness = Arc::new(FixedLiveness(
            [
                ("svc.gone".to_string(), PeerStatus::Evicted),
                ("svc.shaky".to_string(), PeerStatus::Suspected),
            ]
            .into_iter()
            .collect(),
        ));
        let handle = CommunityServer::spawn_on(
            &net,
            &exec.handle(),
            "community.live",
            community(),
            Arc::new(RoundRobin::new()),
            CommunityServerConfig {
                liveness: Some(liveness),
                ..Default::default()
            },
        )
        .unwrap();
        let client = CommunityClient::connect(&net, "client", "community.live").unwrap();
        let _gone = spawn_member(&net, "svc.gone", false, Duration::ZERO);
        let _shaky = spawn_member(&net, "svc.shaky", false, Duration::ZERO);
        let _solid = spawn_member(&net, "svc.solid", false, Duration::ZERO);
        client.join(&member("a-gone", "svc.gone")).unwrap();
        client.join(&member("b-shaky", "svc.shaky")).unwrap();
        client.join(&member("c-solid", "svc.solid")).unwrap();
        // Round-robin would cycle all three; the gate pins every call to
        // the only healthy member.
        for _ in 0..6 {
            let resp = client
                .invoke(&MessageDoc::request("bookAccommodation"))
                .unwrap();
            assert_eq!(resp.get_str("served_by"), Some("svc.solid"));
        }
        // With the healthy member gone, the suspected one serves as the
        // fallback — but the evicted one never does.
        client.leave(&MemberId("c-solid".into())).unwrap();
        for _ in 0..4 {
            let resp = client
                .invoke(&MessageDoc::request("bookAccommodation"))
                .unwrap();
            assert_eq!(resp.get_str("served_by"), Some("svc.shaky"));
        }
        // Only the suspected fallback remains once it also leaves: the
        // evicted member alone means "no members available".
        client.leave(&MemberId("b-shaky".into())).unwrap();
        let err = client
            .invoke(&MessageDoc::request("bookAccommodation"))
            .unwrap_err();
        assert!(err.to_string().contains("no members"), "{err}");
        drop(handle);
        exec.shutdown();
    }

    #[test]
    fn metrics_capture_delegations_failovers_and_latency() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let registry = Registry::new();
        let metrics = CommunityMetrics::register(&registry, &[("community", "ab")]);
        let handle = CommunityServer::spawn_on(
            &net,
            &exec.handle(),
            "community.metered",
            community(),
            Arc::new(RoundRobin::new()),
            CommunityServerConfig {
                metrics: Some(Arc::clone(&metrics)),
                ..Default::default()
            },
        )
        .unwrap();
        handle.register_metrics(&registry, &[("community", "ab"), ("replica", "0")]);
        let client = CommunityClient::connect(&net, "client", "community.metered").unwrap();
        let _bad = spawn_member(&net, "svc.bad", true, Duration::ZERO);
        let _good = spawn_member(&net, "svc.good", false, Duration::ZERO);
        client.join(&member("a-bad", "svc.bad")).unwrap();
        client.join(&member("b-good", "svc.good")).unwrap();
        for _ in 0..4 {
            client
                .invoke(&MessageDoc::request("bookAccommodation"))
                .unwrap();
        }
        assert_eq!(metrics.delegations.get(), 4);
        assert!(
            metrics.failovers.get() > 0,
            "round-robin must have failed over"
        );
        assert_eq!(metrics.faults.get(), 0);
        let snap = metrics.delegation_latency_us.snapshot();
        assert_eq!(
            snap.count(),
            4,
            "one latency sample per successful delegation"
        );
        // A delegation against an empty member pool faults and is counted.
        client.leave(&MemberId("a-bad".into())).unwrap();
        client.leave(&MemberId("b-good".into())).unwrap();
        client
            .invoke(&MessageDoc::request("bookAccommodation"))
            .unwrap_err();
        assert_eq!(metrics.faults.get(), 1);
        let text = registry.render();
        assert!(text.contains("selfserv_community_delegations_total{community=\"ab\"} 4"));
        assert!(text.contains("selfserv_community_members{community=\"ab\",replica=\"0\"} 0"));
        assert!(text.contains("selfserv_community_in_flight{community=\"ab\",replica=\"0\"} 0"));
        drop(handle);
        exec.shutdown();
    }

    #[test]
    fn history_records_latency() {
        let exec = Executor::new(2);
        let (net, handle, client) = setup(&exec.handle(), DelegationMode::Proxy);
        let _m = spawn_member(&net, "svc.slow", false, Duration::from_millis(30));
        client.join(&member("slow", "svc.slow")).unwrap();
        client
            .invoke(&MessageDoc::request("bookAccommodation"))
            .unwrap();
        let stats = handle.history().stats(&MemberId("slow".into()));
        assert_eq!(stats.completed, 1);
        assert!(stats.latency_ewma_ms.unwrap() >= 25.0);
        exec.shutdown();
    }

    /// Polls until the two replicas hold byte-identical membership tables.
    fn await_convergence(a: &CommunityServerHandle, b: &CommunityServerHandle) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if a.membership().read().fingerprint() == b.membership().read().fingerprint() {
                return;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "replicas never converged: {} vs {} live members",
                a.member_count(),
                b.member_count()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn replica_join_leave_converges_by_eager_push() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let handles = CommunityServer::spawn_replicas_on(
            &net,
            &exec.handle(),
            "community.ab",
            2,
            community(),
            Arc::new(RoundRobin::new()),
            CommunityServerConfig::default(),
        )
        .unwrap();
        // A join taken by replica 0 becomes visible on replica 1 without
        // any shared memory — the row travels as an MDELTA push.
        let client = CommunityClient::connect(&net, "client", "community.ab").unwrap();
        client.join(&member("h1", "svc.h1")).unwrap();
        await_convergence(&handles[0], &handles[1]);
        assert_eq!(handles[1].member_count(), 1);
        // A leave taken by the *other* replica flows back the same way,
        // tombstoning the member everywhere.
        let client1 = CommunityClient::connect(&net, "client1", "community.ab.r1").unwrap();
        client1.leave(&MemberId("h1".into())).unwrap();
        await_convergence(&handles[0], &handles[1]);
        assert_eq!(handles[0].member_count(), 0);
        // A QoS update bumps the version and wins on both sides.
        client.join(&member("h2", "svc.h2")).unwrap();
        let mut richer = member("h2", "svc.h2");
        richer.qos.cost = 9.0;
        client1.update(&richer).unwrap();
        await_convergence(&handles[0], &handles[1]);
        let m = handles[0].membership().read();
        assert_eq!(m.member(&MemberId("h2".into())).unwrap().qos.cost, 9.0);
        drop(m);
        drop(handles);
        exec.shutdown();
    }

    #[test]
    fn mtick_anti_entropy_repairs_divergence() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let handles = CommunityServer::spawn_replicas_on(
            &net,
            &exec.handle(),
            "community.ab",
            2,
            community(),
            Arc::new(RoundRobin::new()),
            CommunityServerConfig {
                replication: ReplicationConfig {
                    // Effectively disable the periodic timer so only the
                    // injected tick can repair the divergence.
                    gossip_interval: Some(Duration::from_secs(3600)),
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        // Divergence the eager push never saw: a row written straight into
        // replica 1's local table (as a crashed-and-restored state import
        // would).
        handles[1]
            .membership()
            .write()
            .join(member("ghost", "svc.ghost"))
            .unwrap();
        assert_eq!(handles[0].member_count(), 0);
        // One injected anti-entropy round heals it: replica 1 MSYNCs its
        // snapshot, replica 0 merges.
        let ep = net.connect("test.ticker").unwrap();
        ep.send("community.ab.r1", kinds::MTICK, Element::new("tick"))
            .unwrap();
        await_convergence(&handles[0], &handles[1]);
        assert_eq!(handles[0].member_count(), 1);
        drop(handles);
        exec.shutdown();
    }

    #[test]
    fn empty_replica_redirects_to_sibling() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let handles = CommunityServer::spawn_replicas_on(
            &net,
            &exec.handle(),
            "community.ab",
            2,
            community(),
            Arc::new(RoundRobin::new()),
            CommunityServerConfig {
                replication: ReplicationConfig {
                    gossip_interval: Some(Duration::from_secs(3600)),
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        let _m = spawn_member(&net, "svc.h1", false, Duration::ZERO);
        // Only replica 1 knows the member (direct table write, no push):
        // replica 0's pool is empty, so it must redirect rather than fault.
        handles[1]
            .membership()
            .write()
            .join(member("h1", "svc.h1"))
            .unwrap();
        let client = CommunityClient::connect(&net, "client", "community.ab").unwrap();
        let resp = client
            .invoke(&MessageDoc::request("bookAccommodation"))
            .unwrap();
        assert_eq!(resp.get_str("served_by"), Some("svc.h1"));
        // When *every* replica's pool is empty the redirect chain
        // terminates in a loop error, not an infinite ring.
        handles[1]
            .membership()
            .write()
            .leave(&MemberId("h1".into()))
            .unwrap();
        let err = client
            .invoke(&MessageDoc::request("bookAccommodation"))
            .unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("redirect loop") || text.contains("no members"),
            "{text}"
        );
        drop(handles);
        exec.shutdown();
    }
}
