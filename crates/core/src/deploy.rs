//! The service deployer: from a statechart to a running peer-to-peer
//! deployment.
//!
//! "This process takes as input the XML description of the composite
//! service and involves two steps: (i) generating the control-flow routing
//! tables of each state of the composite service statechart, and (ii)
//! uploading these tables into the hosts of the component services."
//! Here "uploading" spawns a coordinator actor per basic state, co-located
//! with its service backend, plus the composite wrapper.
//!
//! Deployment is transport-wide, not process-wide: task bindings resolve
//! against every name the transport can route to, so on a `TcpTransport`
//! hub running `selfserv-discovery`, a composite deployed in one process
//! binds to communities and services hosted in *other* processes given
//! nothing but the seed address that joined the hub to the network (the
//! coordinators' community rpcs then cross process boundaries like any
//! named send). `tests/discovery.rs` deploys exactly that way.

use crate::backend::ServiceBackend;
use crate::coordinator::{Coordinator, CoordinatorConfig, CoordinatorHandle, TaskRuntime};
use crate::functions::FunctionLibrary;
use crate::protocol::{kinds, naming, ExecError, InstanceId, PersistentClient};
use crate::wrapper::{CompositeWrapper, WrapperConfig, WrapperHandle};
use selfserv_net::{
    ConnectError, Endpoint, Envelope, LivenessProbe, MessageId, NodeId, RecvError, ReplicaSet,
    RpcError, SendError, Transport, TransportHandle,
};
use selfserv_routing::{NotificationLabel, RoutingError, RoutingPlan};
use selfserv_runtime::ExecutorHandle;
use selfserv_statechart::{ServiceBinding, StateId, StateKind, Statechart};
use selfserv_wsdl::MessageDoc;
use selfserv_xml::Element;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Errors raised while deploying a composite service.
#[derive(Debug)]
pub enum DeploymentError {
    /// Routing-table generation failed (includes validation failures).
    Routing(RoutingError),
    /// A task state references a service with no registered backend.
    MissingBackend {
        /// The state.
        state: StateId,
        /// The unresolved service name.
        service: String,
    },
    /// A task state references a community whose node is not visible on
    /// the transport — neither connected locally nor learned from a peer
    /// process (via `register_peer` or a `selfserv-discovery`
    /// handshake/gossip round). On a freshly seeded hub this can simply
    /// mean gossip has not converged yet: wait for the community's name
    /// (e.g. `DiscoveryHandle::wait_until_bound`) and retry, or set
    /// [`Deployer::allow_missing_communities`].
    MissingCommunity {
        /// The state.
        state: StateId,
        /// The unresolved community name.
        community: String,
    },
    /// An actor could not connect its node: a name collision (composite
    /// already deployed?) or a transport provisioning failure (e.g. a TCP
    /// listener bind error) — see [`ConnectError`] for which.
    Connect(ConnectError),
    /// The deployer was built without [`Deployer::with_executor`]: there
    /// is no pool to run the coordinators and the wrapper on, so nothing
    /// was spawned or connected.
    NoExecutor,
}

impl fmt::Display for DeploymentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeploymentError::Routing(e) => write!(f, "routing generation failed: {e}"),
            DeploymentError::MissingBackend { state, service } => {
                write!(
                    f,
                    "state '{state}': no backend registered for service '{service}'"
                )
            }
            DeploymentError::MissingCommunity { state, community } => {
                write!(
                    f,
                    "state '{state}': community '{community}' is not on the fabric"
                )
            }
            DeploymentError::Connect(ConnectError::NameTaken(n)) => {
                write!(
                    f,
                    "node '{n}' already connected — composite already deployed?"
                )
            }
            DeploymentError::Connect(e) => {
                write!(f, "could not connect an actor's node: {e}")
            }
            DeploymentError::NoExecutor => {
                write!(f, "no executor named: build the deployer with_executor")
            }
        }
    }
}

impl std::error::Error for DeploymentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeploymentError::Connect(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RoutingError> for DeploymentError {
    fn from(e: RoutingError) -> Self {
        DeploymentError::Routing(e)
    }
}

impl From<ConnectError> for DeploymentError {
    fn from(e: ConnectError) -> Self {
        DeploymentError::Connect(e)
    }
}

/// The service deployer.
pub struct Deployer {
    net: TransportHandle,
    /// `None` until [`Deployer::with_executor`]; [`Deployer::deploy`]
    /// refuses to run without it.
    exec: Option<ExecutorHandle>,
    functions: FunctionLibrary,
    /// Deadline for community invocations made by coordinators.
    pub invoke_timeout: Duration,
    /// Idle-instance TTL for coordinators and wrappers.
    pub instance_ttl: Duration,
    /// When set, community bindings may point at nodes that are not yet
    /// connected (they must come up before execution).
    pub allow_missing_communities: bool,
    monitor: Option<NodeId>,
    liveness: Option<Arc<dyn LivenessProbe>>,
}

impl Deployer {
    /// A deployer over `net` (any [`Transport`]) with no guard functions
    /// and no executor yet: name one with [`Deployer::with_executor`]
    /// before deploying.
    pub fn new(net: &dyn Transport) -> Self {
        Deployer {
            net: net.handle(),
            exec: None,
            functions: FunctionLibrary::new(),
            invoke_timeout: Duration::from_secs(10),
            instance_ttl: Duration::from_secs(120),
            allow_missing_communities: false,
            monitor: None,
            liveness: None,
        }
    }

    /// Builder: schedule every spawned coordinator and the wrapper on
    /// `exec`. A component runs on the executor its caller names; without
    /// one, [`Deployer::deploy`] returns [`DeploymentError::NoExecutor`].
    pub fn with_executor(mut self, exec: ExecutorHandle) -> Self {
        self.exec = Some(exec);
        self
    }

    /// Builder: every coordinator and the wrapper report trace events to
    /// this [`crate::ExecutionMonitor`] node.
    pub fn with_monitor(mut self, monitor: NodeId) -> Self {
        self.monitor = Some(monitor);
        self
    }

    /// Builder: supplies the guard-function library distributed to all
    /// actors.
    pub fn with_functions(mut self, functions: FunctionLibrary) -> Self {
        self.functions = functions;
        self
    }

    /// Builder: hands coordinators a failure-detector view (e.g.
    /// [`selfserv_net::PeerDirectory`] from the hub's discovery node) so
    /// community replica routing skips evicted replicas and deprioritizes
    /// suspected ones.
    pub fn with_liveness(mut self, liveness: Arc<dyn LivenessProbe>) -> Self {
        self.liveness = Some(liveness);
        self
    }

    /// Deploys a composite service: validates, generates routing tables,
    /// spawns one coordinator per basic state (each holding its co-located
    /// backend) and the composite wrapper.
    ///
    /// `backends` maps *service names* (as referenced by task bindings) to
    /// their application logic.
    pub fn deploy(
        &self,
        statechart: &Statechart,
        backends: &HashMap<String, Arc<dyn ServiceBackend>>,
    ) -> Result<Deployment, DeploymentError> {
        let exec = self.exec.as_ref().ok_or(DeploymentError::NoExecutor)?;
        let plan = selfserv_routing::generate(statechart)?;

        // Resolve every task binding before spawning anything.
        let mut runtimes: HashMap<StateId, TaskRuntime> = HashMap::new();
        for state in statechart.states() {
            match &state.kind {
                StateKind::Choice => {
                    runtimes.insert(state.id.clone(), TaskRuntime::None);
                }
                StateKind::Task(spec) => {
                    let runtime = match &spec.binding {
                        ServiceBinding::Service { service, operation } => {
                            let backend = backends.get(service).cloned().ok_or_else(|| {
                                DeploymentError::MissingBackend {
                                    state: state.id.clone(),
                                    service: service.clone(),
                                }
                            })?;
                            TaskRuntime::Local {
                                backend,
                                operation: operation.clone(),
                                inputs: spec.inputs.clone(),
                                outputs: spec.outputs.clone(),
                            }
                        }
                        ServiceBinding::Community {
                            community,
                            operation,
                        } => {
                            let node = naming::community(community);
                            if !self.allow_missing_communities
                                && !self.net.is_connected(node.as_str())
                            {
                                return Err(DeploymentError::MissingCommunity {
                                    state: state.id.clone(),
                                    community: community.clone(),
                                });
                            }
                            // Replica discovery: probe the conventional
                            // replica names (`community.<name>.rN`) against
                            // everything the transport can route to — over
                            // TCP that is the hub's gossiped directory, so
                            // replicas hosted by *other* hubs count the
                            // moment discovery delivers their binding — and
                            // hand coordinators the full set so they spread
                            // instances over it. The scan tolerates gaps (a
                            // crashed or not-yet-gossiped middle replica
                            // must not hide the survivors behind it), giving
                            // up after a run of consecutive misses.
                            const REPLICA_PROBE_GAP: usize = 4;
                            let mut replicas = vec![node];
                            let mut misses = 0;
                            for i in 1.. {
                                let replica = naming::community_replica(community, i);
                                if self.net.is_connected(replica.as_str()) {
                                    misses = 0;
                                    replicas.push(replica);
                                } else {
                                    misses += 1;
                                    if misses >= REPLICA_PROBE_GAP {
                                        break;
                                    }
                                }
                            }
                            TaskRuntime::Community {
                                replicas: Arc::new(ReplicaSet::new(replicas)),
                                operation: operation.clone(),
                                inputs: spec.inputs.clone(),
                                outputs: spec.outputs.clone(),
                            }
                        }
                    };
                    runtimes.insert(state.id.clone(), runtime);
                }
                _ => {}
            }
        }

        // Event subscriptions: states whose preconditions await an Event
        // label get event notifications from the wrapper.
        let mut event_subscribers: Vec<(String, StateId)> = Vec::new();
        for table in plan.tables.values() {
            for pre in &table.preconditions {
                for label in &pre.labels {
                    if let NotificationLabel::Event(name) = label {
                        let pair = (name.clone(), table.state.clone());
                        if !event_subscribers.contains(&pair) {
                            event_subscribers.push(pair);
                        }
                    }
                }
            }
        }

        // Coordinators that can be left holding labels when an instance
        // succeeds: a precondition with a receiver-side condition (a
        // guarded exit from a compound or concurrent state, whose senders
        // notify every target) or awaiting an event. The wrapper sends
        // them cleanup at finish; every other coordinator frees a
        // finished instance's slot itself.
        let cleanup_on_success: Vec<StateId> = plan
            .tables
            .values()
            .filter(|table| {
                table.preconditions.iter().any(|pre| {
                    pre.condition.is_some()
                        || pre
                            .labels
                            .iter()
                            .any(|label| matches!(label, NotificationLabel::Event(_)))
                })
            })
            .map(|table| table.state.clone())
            .collect();

        // "Upload" the tables: spawn coordinators.
        let mut coordinators = Vec::with_capacity(plan.tables.len());
        for (state_id, table) in &plan.tables {
            let task = runtimes.remove(state_id).unwrap_or(TaskRuntime::None);
            let cfg = CoordinatorConfig {
                composite: statechart.name.clone(),
                state: state_id.clone(),
                table: table.clone(),
                task,
                functions: self.functions.clone(),
                invoke_timeout: self.invoke_timeout,
                instance_ttl: self.instance_ttl,
                monitor: self.monitor.clone(),
                liveness: self.liveness.clone(),
            };
            let handle = Coordinator::spawn_on(&*self.net, exec, cfg)?;
            coordinators.push(handle);
        }

        // Spawn the wrapper last so coordinators are ready for Start
        // notifications.
        let wrapper = CompositeWrapper::spawn_on(
            &*self.net,
            exec,
            WrapperConfig {
                composite: statechart.name.clone(),
                table: plan.wrapper.clone(),
                functions: self.functions.clone(),
                variables: statechart.variables.clone(),
                event_subscribers,
                cleanup_on_success,
                instance_ttl: self.instance_ttl,
                monitor: self.monitor.clone(),
            },
        )?;

        Ok(Deployment {
            composite: statechart.name.clone(),
            wrapper_node: wrapper.node().clone(),
            plan,
            coordinators,
            wrapper: Some(wrapper),
            // One persistent client node carries every execute/raise_event
            // of this deployment (connected lazily on first use).
            client: PersistentClient::new(&*self.net, "client"),
        })
    }
}

/// A running composite service: the handle end users execute operations
/// through (Figure 3's Execute button).
pub struct Deployment {
    composite: String,
    wrapper_node: NodeId,
    plan: RoutingPlan,
    coordinators: Vec<CoordinatorHandle>,
    wrapper: Option<WrapperHandle>,
    client: PersistentClient,
}

impl std::fmt::Debug for Deployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("composite", &self.composite)
            .field("coordinators", &self.coordinators.len())
            .finish()
    }
}

impl Deployment {
    /// The composite service's name.
    pub fn composite(&self) -> &str {
        &self.composite
    }

    /// The wrapper's fabric node (the published binding endpoint).
    pub fn wrapper_node(&self) -> &NodeId {
        &self.wrapper_node
    }

    /// The generated routing plan (for inspection and experiment metrics).
    pub fn plan(&self) -> &RoutingPlan {
        &self.plan
    }

    /// Number of coordinators deployed.
    pub fn coordinator_count(&self) -> usize {
        self.coordinators.len()
    }

    /// Executes the composite operation from the deployment's persistent
    /// client node (concurrent executes demultiplex on its endpoint; no
    /// per-call endpoint is created).
    pub fn execute(&self, input: MessageDoc, timeout: Duration) -> Result<MessageDoc, ExecError> {
        decode_execute_reply(self.client.endpoint().rpc(
            self.wrapper_node.clone(),
            kinds::EXECUTE,
            input.to_xml(),
            timeout,
        ))
    }

    /// Fires an execution without waiting for it: sends the request from
    /// the deployment's persistent client and returns the request id
    /// immediately — **no thread blocks** while the instance runs.
    /// Collect completions with [`Deployment::collect_result`], matching
    /// them to submissions by id.
    ///
    /// This is the client half of the platform's thread-free pipeline:
    /// with coordinators carrying invocations continuation-passing, a
    /// caller can keep thousands of instances in flight from one thread
    /// (see the scaling walkthrough in the README and
    /// `tests/runtime_scale.rs`).
    ///
    /// **Every submission must eventually be collected.** Results queue
    /// in the deployment client's mailbox until
    /// [`Deployment::collect_result`] drains them — an uncollected
    /// completion (including the fault the wrapper's TTL sweep sends for
    /// an abandoned instance) stays queued for the deployment's lifetime.
    /// For genuine fire-and-forget, use [`Deployment::execute`] from a
    /// throwaway thread, or collect-and-ignore.
    pub fn submit(&self, input: MessageDoc) -> Result<MessageId, SendError> {
        self.client
            .endpoint()
            .send(self.wrapper_node.clone(), kinds::EXECUTE, input.to_xml())
    }

    /// Receives the next completed submission: the request id it answers
    /// and the decoded outcome. Completions arrive in finish order, not
    /// submit order. Returns `Err(RecvError::Timeout)` when nothing
    /// completes within `timeout`; unrelated traffic on the client mailbox
    /// is skipped.
    pub fn collect_result(
        &self,
        timeout: Duration,
    ) -> Result<(MessageId, Result<MessageDoc, ExecError>), RecvError> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            let env = self.client.endpoint().recv_timeout(remaining)?;
            if env.kind != kinds::EXECUTE_RESULT {
                continue;
            }
            let Some(request) = env.correlation else {
                continue;
            };
            return Ok((request, decode_execute_reply(Ok(env))));
        }
    }

    /// Executes the composite operation from a specific endpoint (so fabric
    /// metrics attribute the call to the caller).
    pub fn execute_from(
        &self,
        client: &Endpoint,
        input: MessageDoc,
        timeout: Duration,
    ) -> Result<MessageDoc, ExecError> {
        decode_execute_reply(client.rpc(
            self.wrapper_node.clone(),
            kinds::EXECUTE,
            input.to_xml(),
            timeout,
        ))
    }

    /// Raises an external ECA event: `instance = None` broadcasts to every
    /// live instance.
    pub fn raise_event(&self, name: &str, instance: Option<InstanceId>) {
        let body = Element::new("event").with_attr("name", name).with_attr(
            "instance",
            instance.map_or("all".to_string(), |i| i.to_string()),
        );
        // The wrapper acks events (so rpc-style raisers don't block);
        // discard the ack instead of letting it queue in the client's
        // never-drained mailbox.
        let _ = self.client.endpoint().sender().send_discard_reply(
            self.wrapper_node.clone(),
            kinds::RAISE_EVENT,
            body,
        );
    }

    /// Tears the deployment down (stops wrapper and coordinators).
    pub fn undeploy(mut self) {
        self.stop_all();
    }

    fn stop_all(&mut self) {
        if let Some(w) = self.wrapper.take() {
            w.stop();
        }
        for c in self.coordinators.drain(..) {
            c.stop();
        }
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        self.stop_all();
    }
}

/// Decodes an execute rpc outcome into the operation's response document.
pub(crate) fn decode_execute_reply(
    reply: Result<Envelope, RpcError>,
) -> Result<MessageDoc, ExecError> {
    let reply = reply.map_err(|e| match e {
        RpcError::Timeout => ExecError::Timeout,
        RpcError::Send(s) => ExecError::Unreachable(s.to_string()),
    })?;
    let msg = MessageDoc::from_xml(&reply.body)
        .map_err(|e| ExecError::Unreachable(format!("malformed reply: {e}")))?;
    if msg.is_fault() {
        return Err(ExecError::Fault(
            msg.fault_reason().unwrap_or("unspecified").to_string(),
        ));
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{EchoService, FailingService, ServiceHost, SyntheticService};
    use selfserv_community::{
        Community, CommunityServer, CommunityServerConfig, DelegationMode, Member, MemberId,
        QosProfile, ReplicationConfig, RoundRobin,
    };
    use selfserv_expr::Value;
    use selfserv_net::{Network, NetworkConfig};
    use selfserv_runtime::Executor;
    use selfserv_statechart::synth;
    use selfserv_statechart::{StatechartBuilder, TaskDef, TransitionDef};
    use selfserv_wsdl::ParamType;

    fn synth_backends(n: usize) -> HashMap<String, Arc<dyn ServiceBackend>> {
        let mut map: HashMap<String, Arc<dyn ServiceBackend>> = HashMap::new();
        for i in 0..n {
            let name = synth::synth_service_name(i);
            map.insert(name.clone(), Arc::new(EchoService::new(name)));
        }
        map
    }

    #[test]
    fn deploy_and_execute_sequence() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let dep = Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&synth::sequence(4), &synth_backends(4))
            .unwrap();
        assert_eq!(dep.coordinator_count(), 4);
        let input = MessageDoc::request("execute").with("payload", Value::str("hello"));
        let out = dep.execute(input, Duration::from_secs(5)).unwrap();
        assert_eq!(out.get_str("payload"), Some("hello"));
        assert!(out.get("_elapsed_ms").is_some());
        drop(dep);
        exec.shutdown();
    }

    #[test]
    fn sequence_messages_flow_peer_to_peer() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let dep = Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&synth::sequence(5), &synth_backends(5))
            .unwrap();
        net.reset_metrics();
        dep.execute(
            MessageDoc::request("execute").with("payload", Value::str("x")),
            Duration::from_secs(5),
        )
        .unwrap();
        let m = net.metrics();
        // The wrapper sends Start and the result and receives 1
        // completion; each intermediate coordinator handles 1 in + 1 out.
        // No node is a hotspot proportional to chart size.
        let wrapper = m.node("synthseq5.wrapper").unwrap();
        // The wrapper receives the execute request plus the single final
        // notification; intermediate control flow never touches it.
        assert_eq!(wrapper.received, 2);
        let c0 = m.node("synthseq5.coord.s0").unwrap();
        assert_eq!(c0.sent, 1, "s0 notifies s1 only");
        drop(dep);
        exec.shutdown();
    }

    /// Per executed instance: the wrapper sends the Start notifications and
    /// the result, and each coordinator receives its one activation. No
    /// message is spent on forgetting a finished instance.
    #[test]
    fn a_finished_instance_costs_no_cleanup_message() {
        let exec = Executor::new(2);
        const RUNS: u64 = 10;
        for (chart, starts) in [(synth::sequence(5), 1), (synth::parallel(4), 4)] {
            let net = Network::new(NetworkConfig::instant());
            let dep = Deployer::new(&net)
                .with_executor(exec.handle())
                .deploy(&chart, &synth_backends(5))
                .unwrap();
            let coordinators: Vec<NodeId> = dep
                .plan()
                .tables
                .keys()
                .map(|state| naming::coordinator(&chart.name, state))
                .collect();
            net.reset_metrics();
            for _ in 0..RUNS {
                dep.execute(
                    MessageDoc::request("execute").with("payload", Value::str("x")),
                    Duration::from_secs(5),
                )
                .unwrap();
            }
            // Stopping waits out every turn, so whatever the last one sent
            // has been delivered and counted.
            let wrapper = dep.wrapper_node().clone();
            dep.undeploy();
            let m = net.metrics();
            assert_eq!(
                m.node(wrapper.as_str()).unwrap().sent,
                (starts + 1) * RUNS,
                "{}: wrapper sends per instance",
                chart.name
            );
            for node in &coordinators {
                assert_eq!(
                    m.node(node.as_str()).unwrap().received,
                    RUNS,
                    "{node}: messages received per instance"
                );
            }
        }
        exec.shutdown();
    }

    /// Polls until the executor holds no timer, allowing three sweep
    /// periods: a coordinator or wrapper that still holds a slot re-arms
    /// its sweep timer, so the count reaches 0 only once every slot is
    /// gone. Between a sweep timer firing and its turn re-arming it the
    /// count reads 0 for a moment, so a 0 counts only once it has held
    /// for 50 ms.
    fn assert_timers_drain(exec: &ExecutorHandle, what: &str) {
        const SETTLE: Duration = Duration::from_millis(50);
        let start = std::time::Instant::now();
        let mut zero_since = None;
        loop {
            let live = exec.live_timers();
            let now = std::time::Instant::now();
            if live > 0 {
                zero_since = None;
                assert!(
                    now - start < 3 * crate::coordinator::SWEEP_INTERVAL,
                    "{what}: {live} timers still live, so a slot was kept"
                );
            } else if now - *zero_since.get_or_insert(now) >= SETTLE {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Submits `runs` executions (`input(i)` for the i-th) and collects
    /// them all, each a success.
    fn run_all(dep: &Deployment, runs: u64, input: impl Fn(u64) -> MessageDoc) {
        for i in 0..runs {
            dep.submit(input(i)).unwrap();
        }
        for _ in 0..runs {
            let (_, outcome) = dep.collect_result(Duration::from_secs(10)).unwrap();
            outcome.unwrap();
        }
    }

    /// A concurrent block with a guarded exit to `X` (`branch == 1`) or
    /// straight to the final state. Both regions notify both targets of
    /// the join, and the guard runs at the receiver, so when it is false
    /// `X` is left holding the join labels.
    fn guarded_join() -> Statechart {
        StatechartBuilder::new("GuardedJoin")
            .variable("payload", ParamType::Str)
            .variable("branch", ParamType::Int)
            .initial("P")
            .concurrent("P", "Parallel Block", vec![("r0", "s0"), ("r1", "s1")])
            .task_in_region(
                "P",
                0,
                TaskDef::new("s0", "Left").service(synth::synth_service_name(0), "run"),
            )
            .final_in("P", 0, "rf0")
            .task_in_region(
                "P",
                1,
                TaskDef::new("s1", "Right").service(synth::synth_service_name(1), "run"),
            )
            .final_in("P", 1, "rf1")
            .task(TaskDef::new("X", "Extra").service(synth::synth_service_name(2), "run"))
            .final_state("F")
            .transition(TransitionDef::new("t0", "s0", "rf0"))
            .transition(TransitionDef::new("t1", "s1", "rf1"))
            .transition(TransitionDef::new("t_x", "P", "X").guard("branch == 1"))
            .transition(TransitionDef::new("t_skip", "P", "F").guard("branch != 1"))
            .transition(TransitionDef::new("t_xf", "X", "F"))
            .build()
            .unwrap()
    }

    #[test]
    fn finished_instances_free_their_slots_without_a_message() {
        let exec = Executor::new(2);
        for chart in [synth::sequence(5), synth::parallel(4), guarded_join()] {
            let net = Network::new(NetworkConfig::instant());
            let dep = Deployer::new(&net)
                .with_executor(exec.handle())
                .deploy(&chart, &synth_backends(5))
                .unwrap();
            // Half the instances take each side of `guarded_join`'s guard.
            run_all(&dep, 500, |i| {
                MessageDoc::request("execute")
                    .with("payload", Value::str(format!("p{i}")))
                    .with("branch", Value::Int(1 + (i % 2) as i64))
            });
            assert_timers_drain(&exec.handle(), &chart.name);
        }
        exec.shutdown();
    }

    #[test]
    fn an_unconsumed_event_label_is_cleaned_up_at_finish() {
        // `ship` awaits the `approved` event; instances with `branch != 1`
        // skip it, so the event raised for them leaves a label at `ship`
        // that only the wrapper's cleanup at finish can clear.
        let sc = StatechartBuilder::new("Gated")
            .variable("payload", ParamType::Str)
            .variable("branch", ParamType::Int)
            .initial("prepare")
            .task(TaskDef::new("prepare", "Prepare").service(synth::synth_service_name(0), "run"))
            .task(TaskDef::new("ship", "Ship").service(synth::synth_service_name(1), "run"))
            .final_state("done")
            .transition(
                TransitionDef::new("t_ship", "prepare", "ship")
                    .event("approved")
                    .guard("branch == 1"),
            )
            .transition(TransitionDef::new("t_skip", "prepare", "done").guard("branch != 1"))
            .transition(TransitionDef::new("t_done", "ship", "done"))
            .build()
            .unwrap();
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let dep = Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&sc, &synth_backends(2))
            .unwrap();
        // The wrapper numbers instances from 1 in arrival order, and it
        // forwards an event for a named instance at once, so each event
        // reaches `ship` before its instance starts.
        const RUNS: u64 = 100;
        for i in 1..=RUNS {
            dep.raise_event("approved", Some(InstanceId(i)));
        }
        run_all(&dep, RUNS, |i| {
            MessageDoc::request("execute")
                .with("payload", Value::str("p"))
                .with("branch", Value::Int(1 + (i % 2) as i64))
        });
        assert_timers_drain(&exec.handle(), "Gated");
        drop(dep);
        exec.shutdown();
    }

    /// An event raised for an instance that has already finished is not
    /// forwarded: nothing would consume its label, and the subscriber
    /// would hold the slot until the TTL sweep.
    #[test]
    fn an_event_for_a_finished_instance_opens_no_slot() {
        let sc = StatechartBuilder::new("GatedLate")
            .variable("payload", ParamType::Str)
            .initial("prepare")
            .task(TaskDef::new("prepare", "Prepare").service(synth::synth_service_name(0), "run"))
            .task(TaskDef::new("ship", "Ship").service(synth::synth_service_name(1), "run"))
            .final_state("done")
            .transition(TransitionDef::new("t_ship", "prepare", "ship").event("approved"))
            .transition(TransitionDef::new("t_done", "ship", "done"))
            .build()
            .unwrap();
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let dep = Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&sc, &synth_backends(2))
            .unwrap();
        // Instance 1 gets its event before it starts, and finishes.
        dep.raise_event("approved", Some(InstanceId(1)));
        run_all(&dep, 1, |_| {
            MessageDoc::request("execute").with("payload", Value::str("p"))
        });
        assert_timers_drain(&exec.handle(), "GatedLate, finished");
        dep.raise_event("approved", Some(InstanceId(1)));
        assert_timers_drain(&exec.handle(), "GatedLate, event after finish");
        drop(dep);
        exec.shutdown();
    }

    #[test]
    fn xor_takes_exactly_one_branch() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let mut backends = synth_backends(3);
        let counters: Vec<Arc<SyntheticService>> = (0..3)
            .map(|i| Arc::new(SyntheticService::new(format!("S{i}"))))
            .collect();
        for (i, c) in counters.iter().enumerate() {
            backends.insert(
                synth::synth_service_name(i),
                Arc::clone(c) as Arc<dyn ServiceBackend>,
            );
        }
        let dep = Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&synth::xor_choice(3), &backends)
            .unwrap();
        let input = MessageDoc::request("execute")
            .with("payload", Value::str("p"))
            .with("branch", Value::Int(1));
        dep.execute(input, Duration::from_secs(5)).unwrap();
        assert_eq!(counters[0].invocation_count(), 0);
        assert_eq!(counters[1].invocation_count(), 1);
        assert_eq!(counters[2].invocation_count(), 0);
        drop(dep);
        exec.shutdown();
    }

    #[test]
    fn parallel_joins_all_regions() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let mut backends = HashMap::new();
        let counters: Vec<Arc<SyntheticService>> = (0..3)
            .map(|i| Arc::new(SyntheticService::new(format!("S{i}"))))
            .collect();
        for (i, c) in counters.iter().enumerate() {
            backends.insert(
                synth::synth_service_name(i),
                Arc::clone(c) as Arc<dyn ServiceBackend>,
            );
        }
        let dep = Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&synth::parallel(3), &backends)
            .unwrap();
        let out = dep
            .execute(
                MessageDoc::request("execute").with("payload", Value::str("p")),
                Duration::from_secs(5),
            )
            .unwrap();
        assert_eq!(out.get_str("payload"), Some("p"));
        // Every region ran exactly once before the AND-join released.
        for c in &counters {
            assert_eq!(c.invocation_count(), 1);
        }
        drop(dep);
        exec.shutdown();
    }

    #[test]
    fn nested_compound_executes() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let dep = Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&synth::nested(3), &synth_backends(1))
            .unwrap();
        dep.execute(
            MessageDoc::request("execute").with("payload", Value::str("p")),
            Duration::from_secs(5),
        )
        .unwrap();
        drop(dep);
        exec.shutdown();
    }

    #[test]
    fn ladder_executes() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let dep = Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&synth::ladder(3, 2), &synth_backends(6))
            .unwrap();
        dep.execute(
            MessageDoc::request("execute").with("payload", Value::str("p")),
            Duration::from_secs(5),
        )
        .unwrap();
        drop(dep);
        exec.shutdown();
    }

    #[test]
    fn a_deployer_without_an_executor_spawns_nothing() {
        let net = Network::new(NetworkConfig::instant());
        let err = Deployer::new(&net)
            .deploy(&synth::sequence(2), &synth_backends(2))
            .unwrap_err();
        assert!(matches!(err, DeploymentError::NoExecutor), "{err}");
        assert_eq!(
            net.node_names(),
            Vec::<NodeId>::new(),
            "a node was connected"
        );
    }

    #[test]
    fn missing_backend_rejected() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let err = Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&synth::sequence(2), &synth_backends(1))
            .unwrap_err();
        assert!(
            matches!(err, DeploymentError::MissingBackend { .. }),
            "{err}"
        );
        exec.shutdown();
    }

    #[test]
    fn missing_community_rejected() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let sc = StatechartBuilder::new("NeedsCommunity")
            .variable("x", ParamType::Str)
            .initial("a")
            .task(TaskDef::new("a", "A").community("GhostCommunity", "op"))
            .final_state("f")
            .transition(TransitionDef::new("t", "a", "f"))
            .build()
            .unwrap();
        let err = Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&sc, &HashMap::new())
            .unwrap_err();
        assert!(
            matches!(err, DeploymentError::MissingCommunity { .. }),
            "{err}"
        );
        exec.shutdown();
    }

    #[test]
    fn double_deploy_collides() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let _dep = Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&synth::sequence(1), &synth_backends(1))
            .unwrap();
        let err = Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&synth::sequence(1), &synth_backends(1))
            .unwrap_err();
        match &err {
            DeploymentError::Connect(e) => assert!(e.is_name_taken(), "{err}"),
            other => panic!("expected connect error, got {other}"),
        }
        assert!(err.to_string().contains("already deployed"), "{err}");
        drop(_dep);
        exec.shutdown();
    }

    #[test]
    fn undeploy_frees_nodes() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let dep = Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&synth::sequence(1), &synth_backends(1))
            .unwrap();
        assert!(net.is_connected("synthseq1.wrapper"));
        dep.undeploy();
        assert!(!net.is_connected("synthseq1.wrapper"));
        assert!(!net.is_connected("synthseq1.coord.s0"));
        // Redeploy works after teardown.
        let _dep2 = Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&synth::sequence(1), &synth_backends(1))
            .unwrap();
        drop(_dep2);
        exec.shutdown();
    }

    #[test]
    fn a_failing_finish_action_faults_the_caller() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        // An action on the exit of a concurrent block runs at the
        // receiver: here the wrapper, as the instance finishes.
        let sc = StatechartBuilder::new("BadFinish")
            .variable("x", ParamType::Int)
            .initial("P")
            .concurrent("P", "Block", vec![("r0", "s0")])
            .task_in_region("P", 0, TaskDef::new("s0", "A").service("A", "run"))
            .final_in("P", 0, "rf0")
            .final_state("F")
            .transition(TransitionDef::new("t0", "s0", "rf0"))
            .transition(TransitionDef::new("t", "P", "F").action("x", "nosuch(1)"))
            .build()
            .unwrap();
        let mut backends: HashMap<String, Arc<dyn ServiceBackend>> = HashMap::new();
        backends.insert("A".into(), Arc::new(EchoService::new("A")));
        let dep = Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&sc, &backends)
            .unwrap();
        let err = dep
            .execute(MessageDoc::request("execute"), Duration::from_secs(5))
            .unwrap_err();
        match err {
            ExecError::Fault(reason) => assert!(reason.contains("nosuch"), "{reason}"),
            other => panic!("expected fault, got {other:?}"),
        }
        drop(dep);
        exec.shutdown();
    }

    #[test]
    fn failing_backend_faults_execution() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let mut backends = synth_backends(2);
        backends.insert(
            synth::synth_service_name(1),
            Arc::new(FailingService::new("S1", "no inventory")),
        );
        let dep = Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&synth::sequence(2), &backends)
            .unwrap();
        let err = dep
            .execute(
                MessageDoc::request("execute").with("payload", Value::str("p")),
                Duration::from_secs(5),
            )
            .unwrap_err();
        match err {
            ExecError::Fault(reason) => assert!(reason.contains("no inventory"), "{reason}"),
            other => panic!("expected fault, got {other:?}"),
        }
        drop(dep);
        exec.shutdown();
    }

    /// A task state bound to a community: `name` must match the chart's
    /// community binding.
    fn community_chart(name: &str) -> Statechart {
        StatechartBuilder::new(format!("Via {name}"))
            .variable("payload", ParamType::Str)
            .variable("served_by", ParamType::Str)
            .initial("a")
            .task(
                TaskDef::new("a", "A")
                    .community(name, "op")
                    .input("payload", "payload")
                    .output("echoed_by", "served_by"),
            )
            .final_state("f")
            .transition(TransitionDef::new("t", "a", "f"))
            .build()
            .unwrap()
    }

    #[test]
    fn redirect_mode_community_is_invoked_through_the_member() {
        let exec = Executor::new(2);
        use crate::backend::{EchoService, ServiceHost};
        let net = Network::new(NetworkConfig::instant());
        let _member = ServiceHost::spawn_on(
            &net,
            &exec.handle(),
            "svc.member",
            Arc::new(EchoService::new("Member")),
        )
        .unwrap();
        // A redirect-mode community stand-in on a bare endpoint: answers
        // every invoke with the member's binding, so the coordinator's
        // second await (the redirected direct invocation) is exercised.
        let comm = net.connect("community.redirecting").unwrap();
        let comm_thread = std::thread::spawn(move || {
            while let Ok(req) = comm.recv() {
                match req.kind.as_str() {
                    "community.invoke" => {
                        let _ = comm.reply(
                            &req,
                            "community.redirect",
                            Element::new("redirect").with_attr("endpoint", "svc.member"),
                        );
                    }
                    "stop" => return,
                    _ => {}
                }
            }
        });
        let dep = Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&community_chart("redirecting"), &HashMap::new())
            .unwrap();
        let out = dep
            .execute(
                MessageDoc::request("execute").with("payload", Value::str("x")),
                Duration::from_secs(5),
            )
            .unwrap();
        assert_eq!(out.get_str("served_by"), Some("Member"));
        assert_eq!(out.get_str("payload"), Some("x"));
        dep.undeploy();
        net.connect("stopper")
            .unwrap()
            .send("community.redirecting", "stop", Element::new("s"))
            .unwrap();
        comm_thread.join().unwrap();
        drop(_member);
        exec.shutdown();
    }

    #[test]
    fn unreachable_and_silent_communities_fault_the_instance() {
        let exec = Executor::new(2);
        // Unreachable: the community node never comes up.
        let net = Network::new(NetworkConfig::instant());
        let mut deployer = Deployer::new(&net).with_executor(exec.handle());
        deployer.allow_missing_communities = true;
        let dep = deployer
            .deploy(&community_chart("ghost"), &HashMap::new())
            .unwrap();
        let err = dep
            .execute(
                MessageDoc::request("execute").with("payload", Value::str("x")),
                Duration::from_secs(5),
            )
            .unwrap_err();
        match err {
            ExecError::Fault(reason) => assert!(reason.contains("unreachable"), "{reason}"),
            other => panic!("expected fault, got {other:?}"),
        }
        dep.undeploy();

        // Silent: connected but never replies — the rpc deadline faults
        // the instance instead of wedging it.
        let _mute = net.connect("community.mute").unwrap();
        let mut deployer = Deployer::new(&net).with_executor(exec.handle());
        deployer.invoke_timeout = Duration::from_millis(100);
        let dep = deployer
            .deploy(&community_chart("mute"), &HashMap::new())
            .unwrap();
        let err = dep
            .execute(
                MessageDoc::request("execute").with("payload", Value::str("x")),
                Duration::from_secs(5),
            )
            .unwrap_err();
        match err {
            ExecError::Fault(reason) => assert!(reason.contains("timed out"), "{reason}"),
            other => panic!("expected fault, got {other:?}"),
        }
        drop(dep);
        exec.shutdown();
    }

    fn community_member(endpoint: &str) -> Member {
        Member {
            id: MemberId(endpoint.into()),
            provider: endpoint.into(),
            endpoint: NodeId::new(endpoint),
            qos: QosProfile::default(),
        }
    }

    /// A member in redirect mode is invoked by the coordinator itself, and
    /// gets the request as a proxying community would forward it: without
    /// the `weight_*` selection directives.
    #[test]
    fn redirected_members_get_no_weight_directives() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let community = CommunityServer::spawn_on(
            &net,
            &exec.handle(),
            naming::community("weighted").as_str(),
            Community::new("weighted", "redirect mode"),
            Arc::new(RoundRobin::new()),
            CommunityServerConfig {
                mode: DelegationMode::Redirect,
                ..Default::default()
            },
        )
        .unwrap();
        community
            .membership()
            .write()
            .join(community_member("svc.counter"))
            .unwrap();
        // The member answers with the number of parameters it received.
        let member = net.connect("svc.counter").unwrap();
        let member_thread = std::thread::spawn(move || {
            while let Ok(req) = member.recv() {
                if req.kind == "stop" {
                    return;
                }
                let msg = MessageDoc::from_xml(&req.body).unwrap();
                let reply = MessageDoc::response(msg.operation.clone())
                    .with("param_count", Value::Int(msg.len() as i64));
                let _ = member.reply(&req, "invoke.result", reply.to_xml());
            }
        });
        let chart = StatechartBuilder::new("Weighted")
            .variable("payload", ParamType::Str)
            .variable("param_count", ParamType::Int)
            .initial("a")
            .task(
                TaskDef::new("a", "A")
                    .community("weighted", "op")
                    .input("payload", "payload")
                    .input("weight_cost", "2.0")
                    .output("param_count", "param_count"),
            )
            .final_state("f")
            .transition(TransitionDef::new("t", "a", "f"))
            .build()
            .unwrap();
        let dep = Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&chart, &HashMap::new())
            .unwrap();
        let out = dep
            .execute(
                MessageDoc::request("execute").with("payload", Value::str("x")),
                Duration::from_secs(5),
            )
            .unwrap();
        assert_eq!(out.get("param_count"), Some(&Value::Int(1)));
        dep.undeploy();
        net.connect("stopper")
            .unwrap()
            .send("svc.counter", "stop", Element::new("s"))
            .unwrap();
        member_thread.join().unwrap();
        drop(community);
        exec.shutdown();
    }

    /// A deployed chart over a two-replica community whose replica 0 knows
    /// no member: replica 0 redirects to replica 1, which serves. With both
    /// pools empty the redirects end in a loop fault, and every
    /// coordinator and the wrapper let go of the faulted instances.
    #[test]
    fn an_empty_replica_hands_the_coordinator_to_its_sibling() {
        let exec = Executor::new(2);
        // The replicas' gossip timers live on an executor of their own, so
        // the deployment's executor counts only its nodes' timers.
        let community_exec = Executor::new(1);
        let net = Network::new(NetworkConfig::instant());
        let _member = ServiceHost::spawn_on(
            &net,
            &community_exec.handle(),
            "svc.member",
            Arc::new(EchoService::new("Member")),
        )
        .unwrap();
        let replicas = CommunityServer::spawn_replicas_on(
            &net,
            &community_exec.handle(),
            naming::community("split").as_str(),
            2,
            Community::new("split", "two replicas"),
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
        // Only replica 1 knows the member (a direct table write, no push).
        replicas[1]
            .membership()
            .write()
            .join(community_member("svc.member"))
            .unwrap();
        let dep = Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&community_chart("split"), &HashMap::new())
            .unwrap();
        // Instances spread over both replicas; each completes.
        let input =
            |i: u64| MessageDoc::request("execute").with("payload", Value::str(format!("p{i}")));
        run_all(&dep, 16, input);
        let served = &replicas[1].history().stats(&MemberId("svc.member".into()));
        assert_eq!(served.completed, 16, "replica 1 served every instance");
        let asked_first = net.metrics().node("community.split").unwrap().received;
        assert!(asked_first > 0, "some instances were routed to replica 0");
        assert_timers_drain(&exec.handle(), "served");

        replicas[1]
            .membership()
            .write()
            .leave(&MemberId("svc.member".into()))
            .unwrap();
        for i in 0..16 {
            dep.submit(input(i)).unwrap();
        }
        for _ in 0..16 {
            let (_, outcome) = dep.collect_result(Duration::from_secs(10)).unwrap();
            match outcome {
                Err(ExecError::Fault(reason)) => {
                    assert!(reason.contains("redirect loop"), "{reason}")
                }
                other => panic!("expected a fault, got {other:?}"),
            }
        }
        assert_timers_drain(&exec.handle(), "faulted");
        assert_eq!(exec.handle().in_flight_rpcs(), 0);
        drop(dep);
        drop(replicas);
        exec.shutdown();
        community_exec.shutdown();
    }

    /// Three replicas, and only the one every empty replica ranks last
    /// knows the member: the two empty ones redirect to each other, and
    /// the coordinator moves on to the replica it has not asked yet.
    #[test]
    fn a_redirect_loop_moves_the_coordinator_to_an_untried_replica() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let _member = ServiceHost::spawn_on(
            &net,
            &exec.handle(),
            "svc.member",
            Arc::new(EchoService::new("Member")),
        )
        .unwrap();
        let base = naming::community("ring");
        let replicas = CommunityServer::spawn_replicas_on(
            &net,
            &exec.handle(),
            base.as_str(),
            3,
            Community::new("ring", "three replicas"),
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
        // An empty replica redirects to its top-ranked sibling for
        // `<community>/<operation>`; the member goes to the one ranked last.
        let names: Vec<NodeId> = (0..3)
            .map(|i| naming::community_replica("ring", i))
            .collect();
        let set = ReplicaSet::new(names.clone());
        let top = set.route("ring/op", None, &[], &|_| 0).unwrap();
        let second = set
            .route("ring/op", None, std::slice::from_ref(&top), &|_| 0)
            .unwrap();
        let last = names
            .iter()
            .position(|n| *n != top && *n != second)
            .unwrap();
        replicas[last]
            .membership()
            .write()
            .join(community_member("svc.member"))
            .unwrap();
        let dep = Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&community_chart("ring"), &HashMap::new())
            .unwrap();
        let input =
            |i: u64| MessageDoc::request("execute").with("payload", Value::str(format!("p{i}")));
        run_all(&dep, 16, input);
        let served = replicas[last]
            .history()
            .stats(&MemberId("svc.member".into()));
        assert_eq!(served.completed, 16);
        let top_asked = net.metrics().node(top.as_str()).unwrap().received;
        assert!(top_asked > 0, "some instances met the loop");
        drop(dep);
        drop(replicas);
        exec.shutdown();
    }

    #[test]
    fn idle_instance_is_faulted_by_the_timer_alone() {
        let exec = Executor::new(2);
        // The community never answers and the invocation outlives the TTL,
        // so after the execute request nothing reaches the wrapper: only
        // the sweep timer can fault the instance.
        let net = Network::new(NetworkConfig::instant());
        let _mute = net.connect("community.mute").unwrap();
        let mut deployer = Deployer::new(&net).with_executor(exec.handle());
        deployer.invoke_timeout = Duration::from_secs(30);
        deployer.instance_ttl = Duration::from_millis(100);
        let dep = deployer
            .deploy(&community_chart("mute"), &HashMap::new())
            .unwrap();
        let started = std::time::Instant::now();
        let err = dep
            .execute(
                MessageDoc::request("execute").with("payload", Value::str("x")),
                Duration::from_secs(10),
            )
            .unwrap_err();
        match err {
            ExecError::Fault(reason) => assert!(reason.contains("idle past TTL"), "{reason}"),
            other => panic!("expected fault, got {other:?}"),
        }
        assert!(started.elapsed() < Duration::from_secs(5));
        drop(dep);
        exec.shutdown();
    }

    #[test]
    fn submit_and_collect_round_trip_without_blocking() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let dep = Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&synth::sequence(2), &synth_backends(2))
            .unwrap();
        // Fire-and-collect: nothing blocks between the submits.
        let mut expected = HashMap::new();
        for i in 0..8 {
            let id = dep
                .submit(MessageDoc::request("execute").with("payload", Value::str(format!("p{i}"))))
                .unwrap();
            expected.insert(id, format!("p{i}"));
        }
        for _ in 0..8 {
            let (id, outcome) = dep.collect_result(Duration::from_secs(5)).unwrap();
            let out = outcome.unwrap();
            let want = expected
                .remove(&id)
                .expect("completion matches a submission");
            assert_eq!(out.get_str("payload"), Some(want.as_str()));
        }
        assert!(expected.is_empty(), "every submission completed");
        // Nothing further arrives once the backlog is drained.
        assert!(dep.collect_result(Duration::from_millis(50)).is_err());
        drop(dep);
        exec.shutdown();
    }

    #[test]
    fn concurrent_instances_are_isolated() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let dep = Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&synth::sequence(3), &synth_backends(3))
            .unwrap();
        let dep = Arc::new(dep);
        let mut handles = Vec::new();
        for i in 0..8 {
            let dep = Arc::clone(&dep);
            handles.push(std::thread::spawn(move || {
                let input =
                    MessageDoc::request("execute").with("payload", Value::str(format!("p{i}")));
                let out = dep.execute(input, Duration::from_secs(10)).unwrap();
                assert_eq!(out.get_str("payload"), Some(format!("p{i}").as_str()));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        drop(dep);
        exec.shutdown();
    }

    #[test]
    fn executions_work_under_network_latency() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::lan());
        let dep = Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&synth::parallel(2), &synth_backends(2))
            .unwrap();
        let out = dep
            .execute(
                MessageDoc::request("execute").with("payload", Value::str("p")),
                Duration::from_secs(10),
            )
            .unwrap();
        assert!(out.get("_elapsed_ms").is_some());
        drop(dep);
        exec.shutdown();
    }
}
