//! The composite wrapper: entry and exit point of a composite service.
//!
//! "When the wrapper of the composite service receives the document, it
//! sends a message to the coordinator of the state(s) in the statechart
//! which need(s) to be entered in the first place. … Eventually, the
//! coordinators of the states which are exited in the last place send
//! their notification of termination back to the composite service
//! wrapper."

use crate::coordinator::{apply_actions, eval_guard, SweepTimer};
use crate::functions::FunctionLibrary;
use crate::protocol::{cleanup_body, kinds, naming, InstanceId, NotifyPayload};
use selfserv_expr::Value;
use selfserv_net::{ConnectError, Envelope, MessageId, NodeId, Transport};
use selfserv_routing::{NotificationLabel, WrapperTable};
use selfserv_runtime::{ExecutorHandle, Flow, NodeCtx, NodeHandle, NodeLogic, TimerToken};
use selfserv_statechart::{StateId, VarDecl};
use selfserv_wsdl::{MessageDoc, MessageKind};
use selfserv_xml::Element;
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Configuration for spawning a composite wrapper.
pub struct WrapperConfig {
    /// Composite service name.
    pub composite: String,
    /// The wrapper's routing knowledge.
    pub table: WrapperTable,
    /// Guard predicates.
    pub functions: FunctionLibrary,
    /// Declared statechart variables (initial values seed each instance).
    pub variables: Vec<VarDecl>,
    /// Event name → subscribed states (computed by the deployer from the
    /// routing plan).
    pub event_subscribers: Vec<(String, StateId)>,
    /// Coordinators that may still hold a label when an instance succeeds
    /// (computed by the deployer from the routing plan): those with a
    /// precondition under a receiver-side condition or awaiting an event.
    /// The wrapper sends them the instance's cleanup at finish.
    pub cleanup_on_success: Vec<StateId>,
    /// Instances idle longer than this are abandoned.
    pub instance_ttl: Duration,
    /// Optional monitor node receiving trace events.
    pub monitor: Option<NodeId>,
}

/// Spawner for composite wrappers.
pub struct CompositeWrapper;

/// Handle to a spawned wrapper.
pub struct WrapperHandle {
    handle: NodeHandle,
}

impl WrapperHandle {
    /// The wrapper's node.
    pub fn node(&self) -> &NodeId {
        self.handle.node()
    }

    /// Stops the wrapper and waits until its name is free.
    pub fn stop(self) {
        self.handle.stop();
    }
}

impl Drop for WrapperHandle {
    fn drop(&mut self) {
        self.handle.stop();
    }
}

struct WrapperSlot {
    seen: Vec<NotificationLabel>,
    vars: BTreeMap<String, Value>,
    reply_to: (NodeId, MessageId),
    started_at: Instant,
    last_touched: Instant,
}

struct WrapperLogic {
    cfg: WrapperConfig,
    next_instance: u64,
    instances: HashMap<InstanceId, WrapperSlot>,
    sweep: SweepTimer,
}

impl CompositeWrapper {
    /// Spawns the wrapper on its conventional node (`<composite>.wrapper`),
    /// over any [`Transport`], scheduled on `exec`.
    pub fn spawn_on(
        net: &dyn Transport,
        exec: &ExecutorHandle,
        cfg: WrapperConfig,
    ) -> Result<WrapperHandle, ConnectError> {
        let endpoint = net.connect(naming::wrapper(&cfg.composite))?;
        let logic = WrapperLogic {
            cfg,
            next_instance: 0,
            instances: HashMap::new(),
            sweep: SweepTimer::new(),
        };
        Ok(WrapperHandle {
            handle: exec.spawn_node(endpoint, logic),
        })
    }
}

impl NodeLogic for WrapperLogic {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) -> Flow {
        match env.kind.as_str() {
            kinds::EXECUTE => self.on_execute(ctx, &env),
            kinds::NOTIFY => self.on_notify(ctx, &env.body),
            kinds::FAULT => self.on_fault(ctx, &env.body),
            kinds::RAISE_EVENT => self.on_event(ctx, &env),
            _ => {}
        }
        self.arm_sweep(ctx);
        Flow::Continue
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: TimerToken) -> Flow {
        self.sweep.fired();
        self.sweep_stale(ctx);
        self.arm_sweep(ctx);
        Flow::Continue
    }
}

impl WrapperLogic {
    fn trace(
        &self,
        ctx: &NodeCtx<'_>,
        instance: InstanceId,
        kind: crate::monitor::TraceKind,
        detail: &str,
    ) {
        if let Some(monitor) = &self.cfg.monitor {
            let body = crate::monitor::trace_body(instance, "wrapper", kind, detail);
            let _ = ctx
                .endpoint()
                .send(monitor.clone(), crate::monitor::TRACE_KIND, body);
        }
    }

    fn arm_sweep(&mut self, ctx: &NodeCtx<'_>) {
        self.sweep
            .arm(ctx, !self.instances.is_empty(), self.cfg.instance_ttl);
    }

    /// Abandoned instances are *faulted*, not silently dropped: the caller
    /// gets an execute fault (meaningful now that `Deployment::submit`
    /// lets thousands of executions run without a blocked caller thread
    /// each), and the fault's cleanup broadcast to every coordinator
    /// clears their slots — including any invocation still in flight for
    /// the instance.
    fn sweep_stale(&mut self, ctx: &NodeCtx<'_>) {
        let ttl = self.cfg.instance_ttl;
        if ttl.is_zero() {
            return;
        }
        let now = Instant::now();
        let expired: Vec<InstanceId> = self
            .instances
            .iter()
            .filter(|(_, s)| now.duration_since(s.last_touched) >= ttl)
            .map(|(id, _)| *id)
            .collect();
        for instance in expired {
            self.finish_fault(ctx, instance, "instance abandoned: idle past TTL");
        }
    }

    fn on_execute(&mut self, ctx: &NodeCtx<'_>, env: &Envelope) {
        let input = match MessageDoc::from_xml(&env.body) {
            Ok(m) => m,
            Err(e) => {
                let fault = MessageDoc::fault("execute", format!("malformed request: {e}"));
                let _ = ctx.endpoint().send_correlated(
                    env.from.clone(),
                    kinds::EXECUTE_RESULT,
                    fault.to_xml(),
                    Some(env.id),
                );
                return;
            }
        };
        self.next_instance += 1;
        let instance = InstanceId(self.next_instance);
        // Seed variables: declared initials, then caller parameters.
        let mut vars = BTreeMap::new();
        for decl in &self.cfg.variables {
            if let Some(init) = &decl.initial {
                vars.insert(decl.name.clone(), init.clone());
            }
        }
        for (k, v) in input.iter() {
            vars.insert(k.to_string(), v.clone());
        }
        let started_at = Instant::now();
        self.trace(
            ctx,
            instance,
            crate::monitor::TraceKind::InstanceStarted,
            "",
        );
        // Kick off the initial state(s).
        let start = NotificationLabel::Start.encode();
        for target in &self.cfg.table.start_targets {
            let node = naming::coordinator(&self.cfg.composite, target);
            let body = NotifyPayload::encode(&start, instance, &vars);
            let _ = ctx.endpoint().send(node, kinds::NOTIFY, body);
        }
        self.instances.insert(
            instance,
            WrapperSlot {
                seen: Vec::new(),
                vars,
                reply_to: (env.from.clone(), env.id),
                started_at,
                last_touched: started_at,
            },
        );
    }

    fn on_notify(&mut self, ctx: &NodeCtx<'_>, body: &Element) {
        let Ok(payload) = NotifyPayload::from_xml(body) else {
            return;
        };
        let Ok(label) = NotificationLabel::decode(&payload.label) else {
            return;
        };
        let Some(slot) = self.instances.get_mut(&payload.instance) else {
            return;
        };
        slot.last_touched = Instant::now();
        slot.seen.push(label);
        for (k, v) in payload.vars {
            slot.vars.insert(k, v);
        }
        self.try_finish(ctx, payload.instance);
    }

    fn try_finish(&mut self, ctx: &NodeCtx<'_>, instance: InstanceId) {
        let outcome = {
            let Some(slot) = self.instances.get(&instance) else {
                return;
            };
            let mut chosen: Option<usize> = None;
            let mut error: Option<String> = None;
            for (idx, alt) in self.cfg.table.finish_alternatives.iter().enumerate() {
                if !alt.satisfied_by(&slot.seen) {
                    continue;
                }
                match eval_guard(&alt.condition, &self.cfg.functions, &slot.vars) {
                    Ok(true) => {
                        chosen = Some(idx);
                        break;
                    }
                    Ok(false) => continue,
                    Err(reason) => {
                        error = Some(reason);
                        break;
                    }
                }
            }
            (chosen, error)
        };
        match outcome {
            (_, Some(reason)) => self.finish_fault(ctx, instance, &reason),
            (Some(idx), None) => {
                // The instance ends here either way: its variables become
                // the reply (or are dropped with a fault) without a copy.
                let Some(mut slot) = self.instances.remove(&instance) else {
                    return;
                };
                let actions = &self.cfg.table.finish_alternatives[idx].actions;
                if let Err(reason) = apply_actions(actions, &self.cfg.functions, &mut slot.vars) {
                    // The fault goes to the caller the slot names.
                    self.instances.insert(instance, slot);
                    self.finish_fault(ctx, instance, &reason);
                    return;
                }
                let elapsed = slot.started_at.elapsed();
                let mut vars = slot.vars;
                vars.insert(
                    "_elapsed_ms".to_string(),
                    Value::Int(elapsed.as_millis() as i64),
                );
                vars.insert("_instance".to_string(), Value::str(instance.to_string()));
                let (reply_node, reply_id) = slot.reply_to;
                let _ = ctx.endpoint().send_correlated(
                    reply_node,
                    kinds::EXECUTE_RESULT,
                    MessageDoc::params_xml("execute", MessageKind::Response, &vars),
                    Some(reply_id),
                );
                self.trace(
                    ctx,
                    instance,
                    crate::monitor::TraceKind::InstanceFinished,
                    "",
                );
                // Every other coordinator forgot the instance when its
                // state completed.
                self.send_cleanup(ctx, instance, &self.cfg.cleanup_on_success);
            }
            (None, None) => {}
        }
    }

    fn on_fault(&mut self, ctx: &NodeCtx<'_>, body: &Element) {
        let Some(instance) = body
            .attr("instance")
            .and_then(|s| InstanceId::decode(s).ok())
        else {
            return;
        };
        let state = body.attr("state").unwrap_or("?");
        let reason = body.attr("reason").unwrap_or("unspecified");
        self.finish_fault(ctx, instance, &format!("state '{state}': {reason}"));
    }

    /// Answers the caller with a fault and sends cleanup to every
    /// coordinator: any of them may hold the instance's slot, an
    /// invocation still in flight included.
    fn finish_fault(&mut self, ctx: &NodeCtx<'_>, instance: InstanceId, reason: &str) {
        self.trace(ctx, instance, crate::monitor::TraceKind::Faulted, reason);
        if let Some(slot) = self.instances.get(&instance) {
            let reply_to = slot.reply_to.clone();
            let fault = MessageDoc::fault("execute", reason);
            let _ = ctx.endpoint().send_correlated(
                reply_to.0,
                kinds::EXECUTE_RESULT,
                fault.to_xml(),
                Some(reply_to.1),
            );
        }
        self.send_cleanup(ctx, instance, &self.cfg.table.all_states);
        self.instances.remove(&instance);
    }

    /// Sends per-instance cleanup to the coordinators of `states`.
    fn send_cleanup(&self, ctx: &NodeCtx<'_>, instance: InstanceId, states: &[StateId]) {
        for state in states {
            let node = naming::coordinator(&self.cfg.composite, state);
            let _ = ctx
                .endpoint()
                .send(node, kinds::CLEANUP, cleanup_body(instance));
        }
    }

    fn on_event(&mut self, ctx: &NodeCtx<'_>, env: &Envelope) {
        let name = env.body.attr("name").unwrap_or("").to_string();
        let instance_attr = env.body.attr("instance").unwrap_or("all");
        let targets: Vec<InstanceId> = if instance_attr == "all" {
            self.instances.keys().copied().collect()
        } else {
            // An id not yet issued is forwarded: its instance may start
            // later and consume the label. One issued and no longer live
            // has finished, and a label sent for it would hold a slot at
            // the subscriber until the TTL sweep.
            match InstanceId::decode(instance_attr) {
                Ok(id) if id.0 > self.next_instance || self.instances.contains_key(&id) => {
                    vec![id]
                }
                _ => Vec::new(),
            }
        };
        for instance in targets {
            for (event, state) in &self.cfg.event_subscribers {
                if *event != name {
                    continue;
                }
                let payload = NotifyPayload {
                    label: NotificationLabel::Event(name.clone()).encode(),
                    instance,
                    vars: BTreeMap::new(),
                };
                let node = naming::coordinator(&self.cfg.composite, state);
                let _ = ctx.endpoint().send(node, kinds::NOTIFY, payload.to_xml());
            }
        }
        // Ack so rpc-style raisers don't block.
        let _ = ctx.endpoint().send_correlated(
            env.from.clone(),
            kinds::EXECUTE_RESULT,
            Element::new("ok"),
            Some(env.id),
        );
    }
}
