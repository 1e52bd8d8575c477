//! The centralized-orchestration baseline.
//!
//! Section 1 of the paper: "the execution of an integrated service in
//! existing approaches is usually centralised, whereas the underlying
//! services are distributed and autonomous. This calls for the
//! investigation of distributed execution paradigms (e.g., peer-to-peer
//! models), that do not suffer of the scalability and availability problems
//! of centralised coordination."
//!
//! This module implements that foil faithfully: a single engine node
//! interprets the statechart, keeps all instance state, evaluates every
//! guard, and invokes every component service remotely over the fabric —
//! so *all* control and data traffic converges on one node. Experiments
//! E4/E5 compare it against the coordinator-based deployment.

use crate::coordinator::{apply_actions, build_input, eval_guard};
use crate::functions::FunctionLibrary;
use crate::protocol::{kinds, naming, ExecError, InstanceId, PersistentClient};
use selfserv_expr::Value;
use selfserv_net::{ConnectError, Endpoint, Envelope, MessageId, NodeId, Transport};
use selfserv_runtime::{ExecutorHandle, Flow, NodeCtx, NodeHandle, NodeLogic};
use selfserv_statechart::{ServiceBinding, StateId, StateKind, Statechart};
use selfserv_wsdl::MessageDoc;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Duration;

/// Configuration of the central engine.
pub struct CentralConfig {
    /// The statechart to interpret.
    pub statechart: Statechart,
    /// Guard predicates.
    pub functions: FunctionLibrary,
    /// Service name → host node. Every direct task binding must resolve
    /// here; the engine has no co-located backends (that is the point).
    pub service_nodes: HashMap<String, NodeId>,
    /// Community name → community node.
    pub community_nodes: HashMap<String, NodeId>,
}

/// Spawner for the centralized engine.
pub struct CentralizedOrchestrator;

/// Handle to a spawned central engine.
pub struct CentralHandle {
    handle: NodeHandle,
    client: PersistentClient,
}

impl CentralHandle {
    /// The engine's node.
    pub fn node(&self) -> &NodeId {
        self.handle.node()
    }

    /// Executes the composite operation through the central engine (same
    /// client protocol as [`crate::Deployment::execute`]; the handle's
    /// persistent client node carries every call).
    pub fn execute(&self, input: MessageDoc, timeout: Duration) -> Result<MessageDoc, ExecError> {
        crate::deploy::decode_execute_reply(self.client.endpoint().rpc(
            self.node().clone(),
            kinds::EXECUTE,
            input.to_xml(),
            timeout,
        ))
    }

    /// Executes from a specific endpoint.
    pub fn execute_from(
        &self,
        client: &Endpoint,
        input: MessageDoc,
        timeout: Duration,
    ) -> Result<MessageDoc, ExecError> {
        crate::deploy::decode_execute_reply(client.rpc(
            self.node().clone(),
            kinds::EXECUTE,
            input.to_xml(),
            timeout,
        ))
    }

    /// Stops the engine and waits until its name is free.
    pub fn stop(self) {
        self.handle.stop();
    }
}

impl Drop for CentralHandle {
    fn drop(&mut self) {
        self.handle.stop();
    }
}

struct CInstance {
    vars: BTreeMap<String, Value>,
    regions_done: HashSet<(StateId, usize)>,
    reply_to: (NodeId, MessageId),
    finished: bool,
}

struct Engine {
    cfg: CentralConfig,
    instances: HashMap<InstanceId, CInstance>,
    /// Outstanding remote invocations: request message id → (instance,
    /// invoking state).
    pending: HashMap<MessageId, (InstanceId, StateId)>,
    next_instance: u64,
}

impl CentralizedOrchestrator {
    /// Spawns the engine on `<composite>.central`, over any [`Transport`],
    /// scheduled on `exec`.
    pub fn spawn_on(
        net: &dyn Transport,
        exec: &ExecutorHandle,
        cfg: CentralConfig,
    ) -> Result<CentralHandle, ConnectError> {
        let endpoint = net.connect(naming::central(&cfg.statechart.name))?;
        let engine = Engine {
            cfg,
            instances: HashMap::new(),
            pending: HashMap::new(),
            next_instance: 0,
        };
        Ok(CentralHandle {
            handle: exec.spawn_node(endpoint, engine),
            client: PersistentClient::new(net, "client"),
        })
    }
}

impl NodeLogic for Engine {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) -> Flow {
        match env.kind.as_str() {
            kinds::EXECUTE => self.on_execute(ctx.endpoint(), &env),
            kinds::INVOKE_RESULT | "community.result" | "community.fault" => {
                self.on_reply(ctx.endpoint(), &env)
            }
            _ => {}
        }
        Flow::Continue
    }
}

impl Engine {
    fn on_execute(&mut self, endpoint: &Endpoint, env: &Envelope) {
        let input = match MessageDoc::from_xml(&env.body) {
            Ok(m) => m,
            Err(e) => {
                let fault = MessageDoc::fault("execute", format!("malformed request: {e}"));
                let _ = endpoint.send_correlated(
                    env.from.clone(),
                    kinds::EXECUTE_RESULT,
                    fault.to_xml(),
                    Some(env.id),
                );
                return;
            }
        };
        self.next_instance += 1;
        let id = InstanceId(self.next_instance);
        let mut vars = BTreeMap::new();
        for decl in &self.cfg.statechart.variables {
            if let Some(init) = &decl.initial {
                vars.insert(decl.name.clone(), init.clone());
            }
        }
        for (k, v) in input.iter() {
            vars.insert(k.to_string(), v.clone());
        }
        self.instances.insert(
            id,
            CInstance {
                vars,
                regions_done: HashSet::new(),
                reply_to: (env.from.clone(), env.id),
                finished: false,
            },
        );
        let initial = self.cfg.statechart.initial.clone();
        self.enter(endpoint, id, &initial);
    }

    fn on_reply(&mut self, endpoint: &Endpoint, env: &Envelope) {
        let Some(correlation) = env.correlation else {
            return;
        };
        let Some((instance, state_id)) = self.pending.remove(&correlation) else {
            return;
        };
        if self.instances.get(&instance).is_none_or(|i| i.finished) {
            return;
        }
        if env.kind == "community.fault" {
            let reason = env
                .body
                .attr("reason")
                .unwrap_or("community fault")
                .to_string();
            self.fault(endpoint, instance, &format!("state '{state_id}': {reason}"));
            return;
        }
        let response = match MessageDoc::from_xml(&env.body) {
            Ok(m) => m,
            Err(e) => {
                self.fault(
                    endpoint,
                    instance,
                    &format!("state '{state_id}': malformed reply: {e}"),
                );
                return;
            }
        };
        if response.is_fault() {
            let reason = response.fault_reason().unwrap_or("fault").to_string();
            self.fault(endpoint, instance, &format!("state '{state_id}': {reason}"));
            return;
        }
        // Capture outputs.
        let sc = &self.cfg.statechart;
        if let Some(spec) = sc.state(&state_id).and_then(|s| s.task()) {
            let outputs = spec.outputs.clone();
            if let Some(inst) = self.instances.get_mut(&instance) {
                crate::coordinator::apply_outputs(&outputs, &response, &mut inst.vars);
            }
        }
        self.complete(endpoint, instance, &state_id);
    }

    /// Enters a state, resolving compound/concurrent entry like the routing
    /// generator does — but dynamically, at the engine.
    fn enter(&mut self, endpoint: &Endpoint, instance: InstanceId, state_id: &StateId) {
        let Some(state) = self.cfg.statechart.state(state_id).cloned() else {
            self.fault(endpoint, instance, &format!("missing state '{state_id}'"));
            return;
        };
        match &state.kind {
            StateKind::Choice => self.complete(endpoint, instance, state_id),
            StateKind::Compound { initial } => {
                let initial = initial.clone();
                self.enter(endpoint, instance, &initial);
            }
            StateKind::Concurrent { regions } => {
                let initials: Vec<StateId> = regions.iter().map(|r| r.initial.clone()).collect();
                for initial in initials {
                    self.enter(endpoint, instance, &initial);
                }
            }
            StateKind::Final => self.region_complete(endpoint, instance, &state),
            StateKind::Task(spec) => {
                let Some(inst) = self.instances.get(&instance) else {
                    return;
                };
                let input = match build_input(
                    spec.binding.operation(),
                    &spec.inputs,
                    &self.cfg.functions,
                    &inst.vars,
                ) {
                    Ok(m) => m,
                    Err(reason) => {
                        self.fault(endpoint, instance, &format!("state '{state_id}': {reason}"));
                        return;
                    }
                };
                let (target, kind): (NodeId, &str) = match &spec.binding {
                    ServiceBinding::Service { service, .. } => {
                        match self.cfg.service_nodes.get(service) {
                            Some(node) => (node.clone(), kinds::INVOKE),
                            None => {
                                self.fault(
                                    endpoint,
                                    instance,
                                    &format!("no host for service '{service}'"),
                                );
                                return;
                            }
                        }
                    }
                    ServiceBinding::Community { community, .. } => {
                        match self.cfg.community_nodes.get(community) {
                            Some(node) => (node.clone(), "community.invoke"),
                            None => {
                                self.fault(
                                    endpoint,
                                    instance,
                                    &format!("no node for community '{community}'"),
                                );
                                return;
                            }
                        }
                    }
                };
                match endpoint.send(target, kind, input.to_xml()) {
                    Ok(mid) => {
                        self.pending.insert(mid, (instance, state_id.clone()));
                    }
                    Err(e) => {
                        self.fault(endpoint, instance, &format!("state '{state_id}': {e}"));
                    }
                }
            }
        }
    }

    /// A state completed: fire its first enabled outgoing transition.
    fn complete(&mut self, endpoint: &Endpoint, instance: InstanceId, state_id: &StateId) {
        let transitions: Vec<_> = self
            .cfg
            .statechart
            .outgoing(state_id)
            .into_iter()
            .cloned()
            .collect();
        let Some(inst) = self.instances.get_mut(&instance) else {
            return;
        };
        let mut chosen = None;
        for t in &transitions {
            match eval_guard(&t.guard, &self.cfg.functions, &inst.vars) {
                Ok(true) => {
                    chosen = Some(t.clone());
                    break;
                }
                Ok(false) => continue,
                Err(reason) => {
                    self.fault(endpoint, instance, &format!("state '{state_id}': {reason}"));
                    return;
                }
            }
        }
        let Some(t) = chosen else {
            self.fault(
                endpoint,
                instance,
                &format!("no outgoing transition enabled after state '{state_id}'"),
            );
            return;
        };
        if let Some(inst) = self.instances.get_mut(&instance) {
            if let Err(reason) = apply_actions(&t.actions, &self.cfg.functions, &mut inst.vars) {
                self.fault(
                    endpoint,
                    instance,
                    &format!("transition '{}': {reason}", t.id),
                );
                return;
            }
        }
        self.enter(endpoint, instance, &t.target);
    }

    /// A final state was reached: completes the region, possibly the
    /// parent, possibly the instance.
    fn region_complete(
        &mut self,
        endpoint: &Endpoint,
        instance: InstanceId,
        final_state: &selfserv_statechart::State,
    ) {
        match &final_state.parent {
            None => self.finish(endpoint, instance),
            Some(parent_id) => {
                let parent = self.cfg.statechart.state(parent_id).cloned();
                match parent.as_ref().map(|p| &p.kind) {
                    Some(StateKind::Compound { .. }) => {
                        let pid = parent_id.clone();
                        self.complete(endpoint, instance, &pid);
                    }
                    Some(StateKind::Concurrent { regions }) => {
                        let n_regions = regions.len();
                        let pid = parent_id.clone();
                        let all_done = {
                            let Some(inst) = self.instances.get_mut(&instance) else {
                                return;
                            };
                            inst.regions_done.insert((pid.clone(), final_state.region));
                            (0..n_regions).all(|r| inst.regions_done.contains(&(pid.clone(), r)))
                        };
                        if all_done {
                            // Allow re-entry in loops.
                            if let Some(inst) = self.instances.get_mut(&instance) {
                                for r in 0..n_regions {
                                    inst.regions_done.remove(&(pid.clone(), r));
                                }
                            }
                            self.complete(endpoint, instance, &pid);
                        }
                    }
                    _ => self.fault(
                        endpoint,
                        instance,
                        &format!("final '{}' has invalid parent", final_state.id),
                    ),
                }
            }
        }
    }

    fn finish(&mut self, endpoint: &Endpoint, instance: InstanceId) {
        let Some(inst) = self.instances.get_mut(&instance) else {
            return;
        };
        if inst.finished {
            return;
        }
        inst.finished = true;
        let mut response = MessageDoc::response("execute");
        for (k, v) in &inst.vars {
            response.set(k.clone(), v.clone());
        }
        response.set("_instance", Value::str(instance.to_string()));
        let _ = endpoint.send_correlated(
            inst.reply_to.0.clone(),
            kinds::EXECUTE_RESULT,
            response.to_xml(),
            Some(inst.reply_to.1),
        );
        self.instances.remove(&instance);
    }

    fn fault(&mut self, endpoint: &Endpoint, instance: InstanceId, reason: &str) {
        if let Some(inst) = self.instances.get_mut(&instance) {
            if inst.finished {
                return;
            }
            inst.finished = true;
            let fault = MessageDoc::fault("execute", reason);
            let _ = endpoint.send_correlated(
                inst.reply_to.0.clone(),
                kinds::EXECUTE_RESULT,
                fault.to_xml(),
                Some(inst.reply_to.1),
            );
        }
        self.instances.remove(&instance);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{EchoService, ServiceHost};
    use selfserv_net::{Network, NetworkConfig};
    use selfserv_runtime::Executor;
    use selfserv_statechart::synth;
    use std::sync::Arc;

    fn central_setup(
        exec: &ExecutorHandle,
        sc: &Statechart,
        n_services: usize,
    ) -> (
        Network,
        Vec<crate::backend::ServiceHostHandle>,
        CentralHandle,
    ) {
        let net = Network::new(NetworkConfig::instant());
        let mut hosts = Vec::new();
        let mut service_nodes = HashMap::new();
        for i in 0..n_services {
            let name = synth::synth_service_name(i);
            let node = naming::service_host(&name);
            hosts.push(
                ServiceHost::spawn_on(
                    &net,
                    exec,
                    node.clone(),
                    Arc::new(EchoService::new(name.clone())),
                )
                .unwrap(),
            );
            service_nodes.insert(name, node);
        }
        let handle = CentralizedOrchestrator::spawn_on(
            &net,
            exec,
            CentralConfig {
                statechart: sc.clone(),
                functions: FunctionLibrary::new(),
                service_nodes,
                community_nodes: HashMap::new(),
            },
        )
        .unwrap();
        (net, hosts, handle)
    }

    #[test]
    fn central_executes_sequence() {
        let exec = Executor::new(2);
        let sc = synth::sequence(4);
        let (_net, _hosts, central) = central_setup(&exec.handle(), &sc, 4);
        let out = central
            .execute(
                MessageDoc::request("execute").with("payload", Value::str("p")),
                Duration::from_secs(5),
            )
            .unwrap();
        assert_eq!(out.get_str("payload"), Some("p"));
        exec.shutdown();
    }

    #[test]
    fn central_executes_parallel_and_xor() {
        let exec = Executor::new(2);
        for (sc, n) in [(synth::parallel(3), 3), (synth::xor_choice(3), 3)] {
            let (_net, _hosts, central) = central_setup(&exec.handle(), &sc, n);
            let input = MessageDoc::request("execute")
                .with("payload", Value::str("p"))
                .with("branch", Value::Int(2));
            central.execute(input, Duration::from_secs(5)).unwrap();
        }
        exec.shutdown();
    }

    #[test]
    fn central_concentrates_traffic() {
        let exec = Executor::new(2);
        let sc = synth::sequence(6);
        let (net, _hosts, central) = central_setup(&exec.handle(), &sc, 6);
        net.reset_metrics();
        central
            .execute(
                MessageDoc::request("execute").with("payload", Value::str("p")),
                Duration::from_secs(5),
            )
            .unwrap();
        let m = net.metrics();
        let engine = m.node(central.node().as_str()).unwrap();
        // The engine sends one invoke per task and receives one reply per
        // task (plus execute/reply): ~2N messages through one node.
        assert!(
            engine.handled() >= 12,
            "engine handled {}",
            engine.handled()
        );
        // Hosts each carry only their own pair.
        let host = m.node("svc.synthservice0").unwrap();
        assert_eq!(host.received, 1);
        assert_eq!(host.sent, 1);
        exec.shutdown();
    }

    #[test]
    fn central_faults_on_missing_host() {
        let exec = Executor::new(2);
        let sc = synth::sequence(2);
        let (_net, _hosts, central) = central_setup(&exec.handle(), &sc, 1); // host 1 missing
        let err = central
            .execute(
                MessageDoc::request("execute").with("payload", Value::str("p")),
                Duration::from_secs(5),
            )
            .unwrap_err();
        assert!(matches!(err, ExecError::Fault(_)), "{err:?}");
        exec.shutdown();
    }

    #[test]
    fn central_concurrent_instances() {
        let exec = Executor::new(2);
        let sc = synth::sequence(3);
        let (net, _hosts, central) = central_setup(&exec.handle(), &sc, 3);
        let central = Arc::new(central);
        let mut handles = Vec::new();
        for i in 0..6 {
            let central = Arc::clone(&central);
            let _ = &net;
            handles.push(std::thread::spawn(move || {
                let out = central
                    .execute(
                        MessageDoc::request("execute").with("payload", Value::str(format!("p{i}"))),
                        Duration::from_secs(10),
                    )
                    .unwrap();
                assert_eq!(out.get_str("payload"), Some(format!("p{i}").as_str()));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        exec.shutdown();
    }
}
