//! The coordinator: one peer per state of a composite service.
//!
//! "Coordinators are attached to each state of a composite service. They
//! are in charge of initiating, controlling, monitoring the associated
//! state, and collaborating with their peers to manage the service
//! execution." All behaviour below is driven by the routing table; there is
//! no scheduler.

use crate::backend::{BackendCall, ServiceBackend};
use crate::functions::FunctionLibrary;
use crate::protocol::{fault_body, kinds, naming, InstanceId, NotifyPayload};
use selfserv_community::{CallStep, CommunityCall};
use selfserv_expr::Value;
use selfserv_net::{ConnectError, Envelope, LivenessProbe, NodeId, ReplicaSet, Transport};
use selfserv_routing::{NotificationLabel, Participant, RoutingTable};
use selfserv_runtime::{
    ExecutorHandle, Flow, NodeCtx, NodeHandle, NodeLogic, RpcDone, RpcToken, TimerToken,
};
use selfserv_statechart::{Assignment, InputMapping, OutputMapping, StateId};
use selfserv_wsdl::MessageDoc;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cadence of the idle-instance TTL sweep, armed only while a coordinator
/// or wrapper actually holds instances (an idle node costs no timer).
pub(crate) const SWEEP_INTERVAL: Duration = Duration::from_millis(200);

/// Timer token used by coordinator/wrapper TTL sweeps.
pub(crate) const SWEEP_TIMER: TimerToken = TimerToken(1);

/// Re-arming TTL-sweep timer shared by coordinator and wrapper logic:
/// armed exactly while instances exist (and a TTL is configured), so idle
/// nodes schedule nothing at all.
pub(crate) struct SweepTimer {
    armed: bool,
}

impl SweepTimer {
    pub(crate) fn new() -> SweepTimer {
        SweepTimer { armed: false }
    }

    /// Arms the timer when needed. Call after every message and after
    /// every firing (instances may have appeared either way). The sweep
    /// itself runs only when the timer fires: scanning every open instance
    /// per message would cost O(open instances) each.
    pub(crate) fn arm(&mut self, ctx: &NodeCtx<'_>, has_instances: bool, ttl: Duration) {
        if !self.armed && has_instances && !ttl.is_zero() {
            self.armed = true;
            ctx.set_timer(SWEEP_INTERVAL, SWEEP_TIMER);
        }
    }

    /// Records that the armed timer fired — call at the top of `on_timer`,
    /// before deciding whether to re-arm, so the flag can never stick.
    pub(crate) fn fired(&mut self) {
        self.armed = false;
    }
}

/// How a coordinator invokes its state's work when activated.
pub enum TaskRuntime {
    /// Co-located elementary (or nested composite) service: a direct call
    /// into the backend, as in the original where the coordinator is
    /// installed on the provider's host.
    Local {
        /// The application logic.
        backend: Arc<dyn ServiceBackend>,
        /// Operation to invoke.
        operation: String,
        /// Input parameter mappings (expressions over instance variables).
        inputs: Vec<InputMapping>,
        /// Output captures (response parameter → instance variable).
        outputs: Vec<OutputMapping>,
    },
    /// A community-delegated operation: a remote call to the community,
    /// which picks the concrete provider.
    Community {
        /// Every server replica of the community, its canonical node
        /// first; never empty. Each instance's [`CommunityCall`] is
        /// rendezvous-routed over the set and fails a timed-out or
        /// unreachable replica over to another before the instance faults.
        replicas: Arc<ReplicaSet>,
        /// Generic operation to request.
        operation: String,
        /// Input parameter mappings.
        inputs: Vec<InputMapping>,
        /// Output captures.
        outputs: Vec<OutputMapping>,
    },
    /// No work (choice pseudo-states): activation completes immediately.
    None,
}

/// Configuration for spawning one coordinator.
pub struct CoordinatorConfig {
    /// The composite service's name (for node naming).
    pub composite: String,
    /// The state this coordinator drives.
    pub state: StateId,
    /// The statically generated routing table.
    pub table: RoutingTable,
    /// The work to perform on activation.
    pub task: TaskRuntime,
    /// Guard predicates.
    pub functions: FunctionLibrary,
    /// Deadline for community invocations.
    pub invoke_timeout: Duration,
    /// Idle instances are dropped after this long without traffic
    /// (failed/abandoned executions).
    pub instance_ttl: Duration,
    /// Optional monitor node receiving trace events (fire-and-forget).
    pub monitor: Option<NodeId>,
    /// Optional failure-detector view (e.g. the discovery directory) used
    /// when routing over community replicas: evicted replicas leave the
    /// rotation, suspected ones serve only as a last resort.
    pub liveness: Option<Arc<dyn LivenessProbe>>,
}

/// Spawner for coordinators.
pub struct Coordinator;

/// Handle to a spawned coordinator.
pub struct CoordinatorHandle {
    handle: NodeHandle,
}

impl CoordinatorHandle {
    /// The coordinator's node.
    pub fn node(&self) -> &NodeId {
        self.handle.node()
    }

    /// Stops the coordinator and waits until its name is free.
    pub fn stop(self) {
        self.handle.stop();
    }
}

impl Drop for CoordinatorHandle {
    fn drop(&mut self) {
        self.handle.stop();
    }
}

struct InstanceSlot {
    seen: Vec<NotificationLabel>,
    /// The instance's variables; empty while its task is in flight, when
    /// they travel with the invocation ([`PendingInvoke::vars`]).
    vars: BTreeMap<String, Value>,
    last_touched: Instant,
    /// `Some(token)` while this instance's state task is in flight (fired
    /// but its completion not yet processed) — the per-instance successor
    /// of the old parked-worker capacity-1 semantics. A busy instance
    /// records incoming notifications in `deferred` instead of firing
    /// again. Carrying the token (rather than a bare flag) makes the slot
    /// generation-checked: a completion only resumes the instance if it is
    /// the one the slot is actually awaiting, so a stale completion for a
    /// cleaned-up-and-recreated instance is dropped instead of racing a
    /// newer invocation.
    in_flight: Option<RpcToken>,
    /// Notifications received while busy, replayed in arrival order after
    /// the completion — exactly the order the blocking path drained its
    /// queued mailbox after the parked turn.
    deferred: VecDeque<(NotificationLabel, BTreeMap<String, Value>)>,
}

impl InstanceSlot {
    fn new() -> InstanceSlot {
        InstanceSlot {
            seen: Vec::new(),
            vars: BTreeMap::new(),
            last_touched: Instant::now(),
            in_flight: None,
            deferred: VecDeque::new(),
        }
    }
}

/// Which reply an in-flight invocation is awaiting.
enum InvokePhase {
    /// Awaiting the next reply of a community call: a replica's or, after
    /// a member redirect, the member's.
    Community(CommunityCall),
    /// Awaiting a co-located backend's call, however it is carried (see
    /// [`BackendCall::start`]).
    Backend(BackendCall),
}

/// Continuation state of one in-flight invocation, keyed by the
/// [`RpcToken`] its completion event will carry.
struct PendingInvoke {
    instance: InstanceId,
    /// Variable snapshot as of firing (pre-invoke actions applied);
    /// written back to the instance on completion.
    vars: BTreeMap<String, Value>,
    phase: InvokePhase,
}

struct CoordinatorLogic {
    cfg: CoordinatorConfig,
    wrapper_node: NodeId,
    instances: HashMap<InstanceId, InstanceSlot>,
    /// In-flight invocations across all instances: the coordinator can
    /// have any number awaiting replies with zero parked workers.
    pending: HashMap<RpcToken, PendingInvoke>,
    next_token: u64,
    sweep: SweepTimer,
    /// This caller's in-flight count per community replica — the local
    /// load signal replica routing uses as its tiebreak.
    replica_load: HashMap<NodeId, usize>,
}

impl Coordinator {
    /// Spawns a coordinator on its conventional node
    /// (`<composite>.coord.<state>`), over any [`Transport`], scheduled on
    /// `exec`.
    pub fn spawn_on(
        net: &dyn Transport,
        exec: &ExecutorHandle,
        cfg: CoordinatorConfig,
    ) -> Result<CoordinatorHandle, ConnectError> {
        let node_name = naming::coordinator(&cfg.composite, &cfg.state);
        let endpoint = net.connect(node_name)?;
        let wrapper_node = naming::wrapper(&cfg.composite);
        let logic = CoordinatorLogic {
            cfg,
            wrapper_node,
            instances: HashMap::new(),
            pending: HashMap::new(),
            next_token: 0,
            sweep: SweepTimer::new(),
            replica_load: HashMap::new(),
        };
        Ok(CoordinatorHandle {
            handle: exec.spawn_node(endpoint, logic),
        })
    }
}

/// Evaluates an optional guard; `None` means true. Errors become `Err` so
/// callers can fault the instance rather than silently skipping.
pub(crate) fn eval_guard(
    guard: &Option<selfserv_expr::Expr>,
    functions: &FunctionLibrary,
    vars: &BTreeMap<String, Value>,
) -> Result<bool, String> {
    match guard {
        None => Ok(true),
        Some(g) => g
            .eval_bool(&functions.env(vars))
            .map_err(|e| format!("guard '{g}': {e}")),
    }
}

/// Applies assignment actions to the variable set.
pub(crate) fn apply_actions(
    actions: &[Assignment],
    functions: &FunctionLibrary,
    vars: &mut BTreeMap<String, Value>,
) -> Result<(), String> {
    for a in actions {
        let value = a
            .expr
            .eval(&functions.env(vars))
            .map_err(|e| format!("action '{} := {}': {e}", a.var, a.expr))?;
        vars.insert(a.var.clone(), value);
    }
    Ok(())
}

/// Builds a service request from input mappings over instance variables.
pub(crate) fn build_input(
    operation: &str,
    inputs: &[InputMapping],
    functions: &FunctionLibrary,
    vars: &BTreeMap<String, Value>,
) -> Result<MessageDoc, String> {
    let env = functions.env(vars);
    let mut msg = MessageDoc::request(operation);
    for m in inputs {
        let value = m
            .expr
            .eval(&env)
            .map_err(|e| format!("input '{}' = {}: {e}", m.param, m.expr))?;
        msg.set(m.param.clone(), value);
    }
    Ok(msg)
}

/// Copies captured outputs of a response into instance variables.
pub(crate) fn apply_outputs(
    outputs: &[OutputMapping],
    response: &MessageDoc,
    vars: &mut BTreeMap<String, Value>,
) {
    for m in outputs {
        if let Some(v) = response.get(&m.param) {
            vars.insert(m.var.clone(), v.clone());
        }
    }
}

impl NodeLogic for CoordinatorLogic {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) -> Flow {
        match env.kind.as_str() {
            kinds::NOTIFY => self.on_notify(ctx, &env.body),
            kinds::CLEANUP => self.on_cleanup(&env.body),
            _ => { /* ignore unrelated traffic */ }
        }
        self.arm_sweep(ctx);
        Flow::Continue
    }

    fn on_rpc_done(&mut self, ctx: &mut NodeCtx<'_>, done: RpcDone) -> Flow {
        self.on_completion(ctx, done);
        self.arm_sweep(ctx);
        Flow::Continue
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: TimerToken) -> Flow {
        self.sweep.fired();
        self.sweep_stale();
        self.arm_sweep(ctx);
        Flow::Continue
    }
}

impl CoordinatorLogic {
    fn trace(
        &self,
        ctx: &NodeCtx<'_>,
        instance: InstanceId,
        kind: crate::monitor::TraceKind,
        detail: &str,
    ) {
        if let Some(monitor) = &self.cfg.monitor {
            let body = crate::monitor::trace_body(instance, self.cfg.state.as_str(), kind, detail);
            let _ = ctx
                .endpoint()
                .send(monitor.clone(), crate::monitor::TRACE_KIND, body);
        }
    }

    fn arm_sweep(&mut self, ctx: &NodeCtx<'_>) {
        self.sweep
            .arm(ctx, !self.instances.is_empty(), self.cfg.instance_ttl);
    }

    fn sweep_stale(&mut self) {
        let ttl = self.cfg.instance_ttl;
        if ttl.is_zero() {
            return;
        }
        let now = Instant::now();
        // Busy instances are exempt: an invocation awaiting a slow reply
        // is live work, not abandonment (under the blocking model the
        // parked coordinator couldn't sweep during an invoke either).
        self.instances.retain(|_, slot| {
            slot.in_flight.is_some() || now.duration_since(slot.last_touched) < ttl
        });
    }

    fn on_cleanup(&mut self, body: &selfserv_xml::Element) {
        if let Some(id) = body
            .attr("instance")
            .and_then(|s| InstanceId::decode(s).ok())
        {
            // A completion still in flight for this instance finds the
            // slot gone and is dropped.
            self.instances.remove(&id);
        }
    }

    fn on_notify(&mut self, ctx: &mut NodeCtx<'_>, body: &selfserv_xml::Element) {
        let payload = match NotifyPayload::from_xml(body) {
            Ok(p) => p,
            Err(_) => return, // malformed traffic is dropped, like bad XML over sockets
        };
        let Ok(label) = NotificationLabel::decode(&payload.label) else {
            return;
        };
        let slot = self
            .instances
            .entry(payload.instance)
            .or_insert_with(InstanceSlot::new);
        slot.last_touched = Instant::now();
        if slot.in_flight.is_some() {
            // The instance's task is in flight: defer, replay after the
            // completion (preserving the blocking path's arrival order).
            slot.deferred.push_back((label, payload.vars));
            return;
        }
        slot.seen.push(label);
        for (k, v) in payload.vars {
            slot.vars.insert(k, v);
        }
        self.try_fire(ctx, payload.instance);
    }

    /// Checks precondition alternatives in order; fires the first satisfied
    /// one (consuming its labels so loops can re-arm). Firing runs the
    /// pre-invoke phase inline, then *dispatches* the state's work and
    /// returns — the coordinator resumes in [`CoordinatorLogic::on_completion`]
    /// when the reply (or the task's completion event) arrives. No worker
    /// is parked in between, so any number of instances can be in flight.
    fn try_fire(&mut self, ctx: &mut NodeCtx<'_>, instance: InstanceId) {
        let fired = {
            let Some(slot) = self.instances.get_mut(&instance) else {
                return;
            };
            if slot.in_flight.is_some() {
                return;
            }
            let mut fired: Option<usize> = None;
            for (idx, pre) in self.cfg.table.preconditions.iter().enumerate() {
                if !pre.satisfied_by(&slot.seen) {
                    continue;
                }
                match eval_guard(&pre.condition, &self.cfg.functions, &slot.vars) {
                    Ok(true) => {
                        fired = Some(idx);
                        break;
                    }
                    Ok(false) => continue,
                    Err(reason) => {
                        let body = fault_body(instance, self.cfg.state.as_str(), &reason);
                        let _ = ctx
                            .endpoint()
                            .send(self.wrapper_node.clone(), kinds::FAULT, body);
                        return;
                    }
                }
            }
            let Some(idx) = fired else { return };
            // Consume the alternative's labels.
            let pre = &self.cfg.table.preconditions[idx];
            for l in &pre.labels {
                if let Some(pos) = slot.seen.iter().position(|s| s == l) {
                    slot.seen.remove(pos);
                }
            }
            idx
        };
        self.trace(
            ctx,
            instance,
            crate::monitor::TraceKind::Activated,
            &self.cfg.table.preconditions[fired].id.clone(),
        );
        let pre_actions = self.cfg.table.preconditions[fired].actions.clone();
        // The variables travel with the invocation and return to the slot
        // at finish: while the task is in flight nothing reads the slot's
        // (a notification arriving meanwhile is deferred with its own).
        let mut vars = self
            .instances
            .get_mut(&instance)
            .map(|s| std::mem::take(&mut s.vars))
            .unwrap_or_default();
        if let Err(reason) = apply_actions(&pre_actions, &self.cfg.functions, &mut vars) {
            self.fault(ctx, instance, &reason);
            return;
        }
        // Dispatch the state's work and return. Per instance the old
        // capacity-1 semantics hold — the instance is marked busy and
        // later notifications are deferred until the completion — but the
        // coordinator itself never parks: the reply resumes it through
        // `on_rpc_done` (and the AND-regions of one instance still run in
        // parallel because they live on different coordinators).
        self.begin_invoke(ctx, instance, vars);
    }

    /// Pre-invoke → in-flight: builds the request for the state's task and
    /// dispatches it, recording the continuation under a fresh token.
    /// `TaskRuntime::None` completes inline.
    fn begin_invoke(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        instance: InstanceId,
        vars: BTreeMap<String, Value>,
    ) {
        match &self.cfg.task {
            TaskRuntime::None => self.finish_invoke(ctx, instance, vars),
            TaskRuntime::Local {
                backend,
                operation,
                inputs,
                ..
            } => {
                let input = match build_input(operation, inputs, &self.cfg.functions, &vars) {
                    Ok(input) => input,
                    Err(reason) => return self.fault(ctx, instance, &reason),
                };
                self.next_token += 1;
                let token = RpcToken(self.next_token);
                let call = BackendCall::start(ctx, backend, input, token);
                self.track(token, instance, vars, InvokePhase::Backend(call));
            }
            TaskRuntime::Community {
                replicas,
                operation,
                inputs,
                ..
            } => {
                let input = match build_input(operation, inputs, &self.cfg.functions, &vars) {
                    Ok(input) => input,
                    Err(reason) => return self.fault(ctx, instance, &reason),
                };
                // The instance is the routing key: it keeps its replica
                // while that one lives, and load breaks ties.
                let load = &self.replica_load;
                let (call, step) = CommunityCall::start(
                    Arc::clone(replicas),
                    format_args!("{}/{instance}", self.cfg.composite),
                    input,
                    self.cfg.liveness.as_deref(),
                    &|n| load.get(n).copied().unwrap_or(0),
                );
                self.advance_call(ctx, instance, vars, call, step);
            }
        }
    }

    /// Carries a community call one step: sends its next rpc, counted
    /// against the replica it goes to, or ends the invocation with the
    /// call's outcome.
    fn advance_call(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        instance: InstanceId,
        mut vars: BTreeMap<String, Value>,
        call: CommunityCall,
        step: CallStep,
    ) {
        match step {
            CallStep::Send { to, kind, body } => {
                if let Some(replica) = call.awaiting_replica() {
                    *self.replica_load.entry(replica.clone()).or_default() += 1;
                }
                self.next_token += 1;
                let token = RpcToken(self.next_token);
                self.track(token, instance, vars, InvokePhase::Community(call));
                ctx.rpc_async(to, kind, body, self.cfg.invoke_timeout, token);
            }
            CallStep::Done(Ok(response)) => {
                apply_outputs(self.task_outputs(), &response, &mut vars);
                self.finish_invoke(ctx, instance, vars);
            }
            CallStep::Done(Err(e)) => self.fault(ctx, instance, &e.to_string()),
        }
    }

    /// Records the continuation of an invocation dispatched under `token`
    /// and marks its instance busy.
    fn track(
        &mut self,
        token: RpcToken,
        instance: InstanceId,
        vars: BTreeMap<String, Value>,
        phase: InvokePhase,
    ) {
        self.pending.insert(
            token,
            PendingInvoke {
                instance,
                vars,
                phase,
            },
        );
        if let Some(slot) = self.instances.get_mut(&instance) {
            slot.in_flight = Some(token);
        }
    }

    /// In-flight → post-invoke: resumes the invocation whose reply (or
    /// task completion) arrived, by phase. The instance may have been
    /// cleaned up mid-flight; the completion is then dropped.
    fn on_completion(&mut self, ctx: &mut NodeCtx<'_>, done: RpcDone) {
        let Some(p) = self.pending.remove(&done.token) else {
            return;
        };
        let PendingInvoke {
            instance,
            mut vars,
            phase,
        } = p;
        // The replica's in-flight slot frees regardless of whether the
        // instance still cares about the completion — the load gauge must
        // match outstanding rpcs exactly.
        if let InvokePhase::Community(call) = &phase {
            if let Some(load) = call
                .awaiting_replica()
                .and_then(|replica| self.replica_load.get_mut(replica))
            {
                *load = load.saturating_sub(1);
            }
        }
        // Generation check: resume only if the slot is awaiting exactly
        // this completion. A slot that was cleaned up mid-flight — even
        // one recreated since by a late notification, possibly with a
        // newer invocation of its own in flight — must not be touched by
        // the stale completion.
        let awaiting = self.instances.get(&instance).and_then(|s| s.in_flight);
        if awaiting != Some(done.token) {
            return;
        }
        match phase {
            InvokePhase::Backend(call) => {
                let response = call.reply(done.result);
                if response.is_fault() {
                    let reason = response
                        .fault_reason()
                        .unwrap_or("backend fault")
                        .to_string();
                    return self.fault(ctx, instance, &reason);
                }
                apply_outputs(self.task_outputs(), &response, &mut vars);
                self.finish_invoke(ctx, instance, vars);
            }
            InvokePhase::Community(mut call) => {
                let load = &self.replica_load;
                let step = call.on_reply(done.result, self.cfg.liveness.as_deref(), &|n| {
                    load.get(n).copied().unwrap_or(0)
                });
                self.advance_call(ctx, instance, vars, call, step);
            }
        }
    }

    /// The task's output captures (empty for `TaskRuntime::None`).
    fn task_outputs(&self) -> &[OutputMapping] {
        match &self.cfg.task {
            TaskRuntime::Local { outputs, .. } | TaskRuntime::Community { outputs, .. } => outputs,
            TaskRuntime::None => &[],
        }
    }

    /// Post-invoke: route the outcome, then — if the slot is still waiting
    /// for something (an unconsumed label, a deferred notification) — give
    /// it back the updated variables, so later activations of this
    /// instance (loops) observe them, and replay what was deferred.
    ///
    /// A slot with nothing left to wait for (no invocation in flight, no
    /// unconsumed label, nothing deferred) is forgotten instead, its
    /// variables dropped uncopied: a later notification for the instance —
    /// a loop re-entry — opens a fresh slot, and carries the sender's full
    /// variable snapshot into it.
    fn finish_invoke(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        instance: InstanceId,
        vars: BTreeMap<String, Value>,
    ) {
        self.trace(ctx, instance, crate::monitor::TraceKind::Completed, "");
        self.postprocess(ctx, instance, &vars);
        let Some(slot) = self.instances.get_mut(&instance) else {
            return;
        };
        if slot.seen.is_empty() && slot.deferred.is_empty() {
            self.instances.remove(&instance);
            return;
        }
        slot.vars = vars;
        slot.last_touched = Instant::now();
        slot.in_flight = None;
        self.replay_deferred(ctx, instance);
        if self.instances.get(&instance).is_some_and(|slot| {
            slot.in_flight.is_none() && slot.seen.is_empty() && slot.deferred.is_empty()
        }) {
            self.instances.remove(&instance);
        }
    }

    /// Replays notifications deferred while the instance was busy, in
    /// arrival order, firing after each one exactly as the blocking path
    /// did when it drained its mailbox — and stopping as soon as a firing
    /// puts the instance back in flight (or removes it).
    fn replay_deferred(&mut self, ctx: &mut NodeCtx<'_>, instance: InstanceId) {
        loop {
            let Some(slot) = self.instances.get_mut(&instance) else {
                return;
            };
            if slot.in_flight.is_some() {
                return;
            }
            let Some((label, vars)) = slot.deferred.pop_front() else {
                return;
            };
            slot.last_touched = Instant::now();
            slot.seen.push(label);
            for (k, v) in vars {
                slot.vars.insert(k, v);
            }
            self.try_fire(ctx, instance);
        }
    }

    /// Evaluates postprocessing rows in order; the first row whose guard
    /// holds fires, emitting all its notifications with the current
    /// variable snapshot — encoded from `vars` where they are, copied
    /// only when the row has actions to apply to them.
    fn postprocess(
        &mut self,
        ctx: &NodeCtx<'_>,
        instance: InstanceId,
        vars: &BTreeMap<String, Value>,
    ) {
        let table = &self.cfg.table;
        let mut fired = false;
        for post in &table.postprocessings {
            match eval_guard(&post.guard, &self.cfg.functions, vars) {
                Ok(false) => continue,
                Err(reason) => {
                    let body = fault_body(instance, self.cfg.state.as_str(), &reason);
                    let _ = ctx
                        .endpoint()
                        .send(self.wrapper_node.clone(), kinds::FAULT, body);
                    return;
                }
                Ok(true) => {
                    let local_vars = if post.actions.is_empty() {
                        Cow::Borrowed(vars)
                    } else {
                        let mut local_vars = vars.clone();
                        if let Err(reason) =
                            apply_actions(&post.actions, &self.cfg.functions, &mut local_vars)
                        {
                            let body = fault_body(instance, self.cfg.state.as_str(), &reason);
                            let _ =
                                ctx.endpoint()
                                    .send(self.wrapper_node.clone(), kinds::FAULT, body);
                            return;
                        }
                        Cow::Owned(local_vars)
                    };
                    for notification in post.notifications() {
                        let target_node = match &notification.target {
                            Participant::State(s) => naming::coordinator(&self.cfg.composite, s),
                            Participant::Wrapper => self.wrapper_node.clone(),
                        };
                        let body = NotifyPayload::encode(
                            &notification.label.encode(),
                            instance,
                            &local_vars,
                        );
                        let _ = ctx.endpoint().send(target_node, kinds::NOTIFY, body);
                    }
                    fired = true;
                    break;
                }
            }
        }
        if !fired {
            self.fault(
                ctx,
                instance,
                &format!(
                    "no outgoing transition enabled after state '{}'",
                    self.cfg.state
                ),
            );
        }
    }

    fn fault(&mut self, ctx: &NodeCtx<'_>, instance: InstanceId, reason: &str) {
        self.trace(ctx, instance, crate::monitor::TraceKind::Faulted, reason);
        let body = fault_body(instance, self.cfg.state.as_str(), reason);
        let _ = ctx
            .endpoint()
            .send(self.wrapper_node.clone(), kinds::FAULT, body);
        self.instances.remove(&instance);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfserv_expr::parse;

    #[test]
    fn eval_guard_none_is_true() {
        let lib = FunctionLibrary::new();
        assert!(eval_guard(&None, &lib, &BTreeMap::new()).unwrap());
    }

    #[test]
    fn eval_guard_uses_vars_and_functions() {
        let lib = FunctionLibrary::travel();
        let mut vars = BTreeMap::new();
        vars.insert("destination".to_string(), Value::str("Cairns"));
        let g = Some(parse("domestic(destination)").unwrap());
        assert!(eval_guard(&g, &lib, &vars).unwrap());
        vars.insert("destination".to_string(), Value::str("Osaka"));
        assert!(!eval_guard(&g, &lib, &vars).unwrap());
    }

    #[test]
    fn eval_guard_error_on_missing_var() {
        let lib = FunctionLibrary::new();
        let g = Some(parse("missing > 3").unwrap());
        assert!(eval_guard(&g, &lib, &BTreeMap::new()).is_err());
    }

    #[test]
    fn apply_actions_updates_vars() {
        let lib = FunctionLibrary::new();
        let mut vars = BTreeMap::new();
        vars.insert("n".to_string(), Value::Int(2));
        let actions = vec![
            Assignment {
                var: "n".into(),
                expr: parse("n * 10").unwrap(),
            },
            Assignment {
                var: "label".into(),
                expr: parse("\"x\"").unwrap(),
            },
        ];
        apply_actions(&actions, &lib, &mut vars).unwrap();
        assert_eq!(vars.get("n"), Some(&Value::Int(20)));
        assert_eq!(vars.get("label"), Some(&Value::str("x")));
    }

    #[test]
    fn build_input_maps_expressions() {
        let lib = FunctionLibrary::new();
        let mut vars = BTreeMap::new();
        vars.insert("destination".to_string(), Value::str("Sydney"));
        vars.insert("base".to_string(), Value::Int(100));
        let inputs = vec![
            InputMapping {
                param: "city".into(),
                expr: parse("destination").unwrap(),
            },
            InputMapping {
                param: "budget".into(),
                expr: parse("base * 2").unwrap(),
            },
        ];
        let msg = build_input("book", &inputs, &lib, &vars).unwrap();
        assert_eq!(msg.get_str("city"), Some("Sydney"));
        assert_eq!(msg.get("budget"), Some(&Value::Int(200)));
        assert_eq!(msg.operation, "book");
    }

    #[test]
    fn build_input_error_on_missing_var() {
        let lib = FunctionLibrary::new();
        let inputs = vec![InputMapping {
            param: "x".into(),
            expr: parse("ghost").unwrap(),
        }];
        assert!(build_input("op", &inputs, &lib, &BTreeMap::new()).is_err());
    }

    #[test]
    fn apply_outputs_copies_present_params() {
        let mut vars = BTreeMap::new();
        let outputs = vec![
            OutputMapping {
                param: "price".into(),
                var: "flight_price".into(),
            },
            OutputMapping {
                param: "absent".into(),
                var: "nope".into(),
            },
        ];
        let response = MessageDoc::response("book").with("price", Value::Float(320.0));
        apply_outputs(&outputs, &response, &mut vars);
        assert_eq!(vars.get("flight_price"), Some(&Value::Float(320.0)));
        assert!(!vars.contains_key("nope"));
    }
}
