//! Service backends and hosts: the "pool of services".
//!
//! A [`ServiceBackend`] is the application logic behind an elementary
//! service (the paper's "workflow, database application, or web-accessible
//! program"); a [`ServiceHost`] wraps one behind a fabric node answering
//! the `invoke` protocol (the platform's `Wrapper` class).

use crate::protocol::kinds;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selfserv_expr::Value;
use selfserv_net::{ConnectError, Envelope, NodeId, RpcError, Transport};
use selfserv_runtime::{ExecutorHandle, Flow, NodeCtx, NodeHandle, NodeLogic, RpcDone, RpcToken};
use selfserv_wsdl::MessageDoc;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A backend's declaration that an invocation is really a request/response
/// exchange with a remote node (see [`ServiceBackend::forward`]).
pub struct ForwardCall {
    /// The remote node answering the request.
    pub to: NodeId,
    /// Message kind of the request.
    pub kind: String,
    /// Request body (already encoded for the wire).
    pub body: selfserv_xml::Element,
    /// Deadline for the reply.
    pub timeout: Duration,
    /// How fault messages should name the remote (e.g.
    /// `"nested composite 'Pricing'"`), so errors read the same whether
    /// the call was forwarded or made through [`ServiceBackend::invoke`].
    pub label: String,
}

/// Application logic behind an elementary service. Implementations must be
/// thread-safe: one backend may serve many coordinators or hosts.
pub trait ServiceBackend: Send + Sync {
    /// Handles one operation invocation. Returning a fault message (or an
    /// `Err`) faults the calling composite instance.
    fn invoke(&self, operation: &str, input: &MessageDoc) -> Result<MessageDoc, String>;

    /// Declares that this invocation merely relays a request to a remote
    /// node and waits for its reply — no local computation.
    ///
    /// Backends that compute in-process return `None` (the default) and
    /// run inline or, when they may sleep, on a thread of their own. Backends
    /// that only forward (e.g. [`crate::CompositeBackend`], whose "work"
    /// is a whole nested orchestration) return the exchange instead, so a
    /// coordinator can carry it **continuation-passing** via
    /// `NodeCtx::rpc_async`: zero workers parked for however long the
    /// remote takes, which is what lets thousands of invocations await
    /// replies concurrently on a fixed pool. Callers that can't (or don't
    /// want to) suspend simply keep using [`ServiceBackend::invoke`], which
    /// must remain equivalent.
    fn forward(&self, _operation: &str, _input: &MessageDoc) -> Option<ForwardCall> {
        None
    }

    /// Whether [`ServiceBackend::invoke`] may sleep or otherwise block the
    /// calling thread. Defaults to `true` (the safe assumption): hosts and
    /// coordinators run each call of such a backend on a thread of its own
    /// (`ExecutorHandle::spawn_blocking`), never on a pool worker, so the
    /// pool stays at its fixed size. Backends that compute without ever
    /// parking — echo stubs, pure functions — override this to `false` and
    /// are called inline on the caller's turn, with no thread at all.
    fn may_block(&self) -> bool {
        true
    }

    /// Short name for diagnostics.
    fn name(&self) -> &str;
}

/// A backend that echoes its inputs back as outputs (plus a marker), with
/// zero latency. Useful for plumbing tests.
#[derive(Debug, Default)]
pub struct EchoService {
    name: String,
}

impl EchoService {
    /// An echo backend with the given display name.
    pub fn new(name: impl Into<String>) -> Self {
        EchoService { name: name.into() }
    }
}

impl ServiceBackend for EchoService {
    fn invoke(&self, operation: &str, input: &MessageDoc) -> Result<MessageDoc, String> {
        let mut out = MessageDoc::response(operation);
        for (k, v) in input.iter() {
            out.set(k, v.clone());
        }
        out.set("echoed_by", Value::str(self.name.clone()));
        Ok(out)
    }

    fn may_block(&self) -> bool {
        false
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A backend that always faults. For failure-path tests.
#[derive(Debug)]
pub struct FailingService {
    name: String,
    reason: String,
}

impl FailingService {
    /// A failing backend.
    pub fn new(name: impl Into<String>, reason: impl Into<String>) -> Self {
        FailingService {
            name: name.into(),
            reason: reason.into(),
        }
    }
}

impl ServiceBackend for FailingService {
    fn invoke(&self, _operation: &str, _input: &MessageDoc) -> Result<MessageDoc, String> {
        Err(self.reason.clone())
    }

    fn may_block(&self) -> bool {
        false
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A configurable synthetic service: a fixed service time, a failure
/// probability, and an invocation counter. This is the stand-in
/// for the demo's provider stubs, with controllable QoS so communities
/// have something to discriminate.
pub struct SyntheticService {
    name: String,
    base_latency: Duration,
    failure_probability: f64,
    rng: Mutex<StdRng>,
    invocations: AtomicU64,
    /// Outputs added to every successful response.
    outputs: Vec<(String, Value)>,
}

impl SyntheticService {
    /// A zero-latency, never-failing synthetic service.
    pub fn new(name: impl Into<String>) -> Self {
        SyntheticService {
            name: name.into(),
            base_latency: Duration::ZERO,
            failure_probability: 0.0,
            rng: Mutex::new(StdRng::seed_from_u64(7)),
            invocations: AtomicU64::new(0),
            outputs: Vec::new(),
        }
    }

    /// Builder: sets base service time.
    pub fn with_latency(mut self, d: Duration) -> Self {
        self.base_latency = d;
        self
    }

    /// Builder: sets failure probability (0–1).
    pub fn with_failure_probability(mut self, p: f64) -> Self {
        self.failure_probability = p;
        self
    }

    /// Builder: sets the RNG seed of the failure draws.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = Mutex::new(StdRng::seed_from_u64(seed));
        self
    }

    /// Builder: adds a fixed output parameter to every response.
    pub fn with_output(mut self, name: impl Into<String>, value: Value) -> Self {
        self.outputs.push((name.into(), value));
        self
    }

    /// How many times the backend has been invoked.
    pub fn invocation_count(&self) -> u64 {
        self.invocations.load(Ordering::Relaxed)
    }
}

impl ServiceBackend for SyntheticService {
    fn invoke(&self, operation: &str, input: &MessageDoc) -> Result<MessageDoc, String> {
        self.invocations.fetch_add(1, Ordering::Relaxed);
        let fails = self.failure_probability > 0.0
            && self.rng.lock().gen::<f64>() < self.failure_probability;
        if !self.base_latency.is_zero() {
            std::thread::sleep(self.base_latency);
        }
        if fails {
            return Err(format!("{} failed (synthetic fault)", self.name));
        }
        let mut out = MessageDoc::response(operation);
        // Thread the payload through so data flow is observable.
        for (k, v) in input.iter() {
            out.set(k, v.clone());
        }
        for (k, v) in &self.outputs {
            out.set(k.clone(), v.clone());
        }
        out.set("served_by", Value::str(self.name.clone()));
        Ok(out)
    }

    fn may_block(&self) -> bool {
        // Sleeps only when configured with a service time.
        !self.base_latency.is_zero()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A fabric node hosting one backend: answers [`kinds::INVOKE`] envelopes
/// with [`kinds::INVOKE_RESULT`]. This is how community members and the
/// centralized baseline's services are reached remotely.
pub struct ServiceHost;

/// Handle to a spawned [`ServiceHost`].
pub struct ServiceHostHandle {
    backend: Arc<dyn ServiceBackend>,
    handle: NodeHandle,
}

impl ServiceHostHandle {
    /// The host's node.
    pub fn node(&self) -> &NodeId {
        self.handle.node()
    }

    /// The backend being served.
    pub fn backend(&self) -> &Arc<dyn ServiceBackend> {
        &self.backend
    }

    /// Stops the host and waits until its name is free.
    pub fn stop(self) {
        self.handle.stop();
    }
}

impl Drop for ServiceHostHandle {
    fn drop(&mut self) {
        self.handle.stop();
    }
}

impl ServiceHost {
    /// Spawns a host serving `backend` on `node_name`, scheduled on
    /// `exec`. Each invocation of a blocking backend runs on a thread of
    /// its own so a slow backend doesn't serialize unrelated callers
    /// (hosts model multi-threaded provider servers; the *coordinator* is
    /// the capacity-1 component).
    pub fn spawn_on(
        net: &dyn Transport,
        exec: &ExecutorHandle,
        node_name: impl Into<NodeId>,
        backend: Arc<dyn ServiceBackend>,
    ) -> Result<ServiceHostHandle, ConnectError> {
        let endpoint = net.connect(node_name.into())?;
        let logic = HostLogic {
            backend: Arc::clone(&backend),
            in_flight: HashMap::new(),
            next_token: 0,
        };
        Ok(ServiceHostHandle {
            backend,
            handle: exec.spawn_node(endpoint, logic),
        })
    }
}

/// A backend call in flight: what its caller keeps under the call's token
/// until the completion arrives (see [`BackendCall::start`]).
pub(crate) struct BackendCall {
    operation: String,
    /// Set when the call is a relay declared by [`ServiceBackend::forward`]:
    /// how faults name the remote.
    forwarded_to: Option<String>,
}

impl BackendCall {
    /// Starts one call of `backend` on `input`. Its outcome re-enters the
    /// caller's node as the completion of `token`, however it is carried:
    ///
    /// * a relay declared by [`ServiceBackend::forward`] goes out with
    ///   `rpc_async` — no thread, no parked worker;
    /// * a backend that [may block](ServiceBackend::may_block) runs on a
    ///   thread of its own (`ExecutorHandle::spawn_blocking`);
    /// * any other backend runs inline, on the caller's turn.
    pub(crate) fn start(
        ctx: &NodeCtx<'_>,
        backend: &Arc<dyn ServiceBackend>,
        input: MessageDoc,
        token: RpcToken,
    ) -> BackendCall {
        let operation = input.operation.clone();
        if let Some(call) = backend.forward(&operation, &input) {
            ctx.rpc_async(call.to, call.kind, call.body, call.timeout, token);
            return BackendCall {
                operation,
                forwarded_to: Some(call.label),
            };
        }
        let completer = ctx.completer(token);
        let node = ctx.node().clone();
        let call = {
            let backend = Arc::clone(backend);
            move || {
                let reply = backend
                    .invoke(&input.operation, &input)
                    .unwrap_or_else(|reason| MessageDoc::fault(&input.operation, reason));
                completer.complete(Ok(Envelope::synthetic(node, "task.result", reply.to_xml())));
            }
        };
        if backend.may_block() {
            ctx.executor().spawn_blocking(call);
        } else {
            call();
        }
        BackendCall {
            operation,
            forwarded_to: None,
        }
    }

    /// The response a finished call answers with: the backend's own reply,
    /// or a fault saying what went wrong. A relay's faults name the remote
    /// (`{label} timed out`, `{label} unreachable: …`, `{label} faulted: …`),
    /// so errors read the same as through the blocking `invoke` of a
    /// forwarding backend.
    pub(crate) fn reply(self, result: Result<Envelope, RpcError>) -> MessageDoc {
        let label = self.forwarded_to.as_deref().unwrap_or("backend call");
        let reason = match result {
            Ok(env) => match MessageDoc::from_xml(&env.body) {
                Ok(resp) if resp.is_fault() && self.forwarded_to.is_some() => format!(
                    "{label} faulted: {}",
                    resp.fault_reason().unwrap_or("unspecified")
                ),
                Ok(resp) => return resp,
                Err(e) => e.to_string(),
            },
            Err(RpcError::Timeout) => format!("{label} timed out"),
            Err(RpcError::Send(s)) => format!("{label} unreachable: {s}"),
        };
        MessageDoc::fault(self.operation, reason)
    }
}

/// One host invocation awaiting its completion event: the request to
/// answer and the backend call that answers it.
struct HostPending {
    request: Envelope,
    call: BackendCall,
}

struct HostLogic {
    backend: Arc<dyn ServiceBackend>,
    /// In-flight invocations awaiting their completion event, by the token
    /// issued at dispatch. The host — not the call — sends the reply, so a
    /// host that stops mid-flight simply never answers (as a crashed
    /// provider wouldn't).
    in_flight: HashMap<RpcToken, HostPending>,
    next_token: u64,
}

impl NodeLogic for HostLogic {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, request: Envelope) -> Flow {
        if request.kind != kinds::INVOKE {
            return Flow::Continue; // ignore unrelated traffic
        }
        let input = match MessageDoc::from_xml(&request.body) {
            Ok(input) => input,
            Err(e) => {
                let fault = MessageDoc::fault("unknown", e.to_string());
                let _ = ctx.endpoint().send_correlated(
                    request.from.clone(),
                    kinds::INVOKE_RESULT,
                    fault.to_xml(),
                    Some(request.id),
                );
                return Flow::Continue;
            }
        };
        self.next_token += 1;
        let token = RpcToken(self.next_token);
        let call = BackendCall::start(ctx, &self.backend, input, token);
        self.in_flight.insert(token, HostPending { request, call });
        Flow::Continue
    }

    fn on_rpc_done(&mut self, ctx: &mut NodeCtx<'_>, done: RpcDone) -> Flow {
        let Some(HostPending { request, call }) = self.in_flight.remove(&done.token) else {
            return Flow::Continue;
        };
        let _ = ctx.endpoint().send_correlated(
            request.from.clone(),
            kinds::INVOKE_RESULT,
            call.reply(done.result).to_xml(),
            Some(request.id),
        );
        Flow::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfserv_net::{Network, NetworkConfig};
    use selfserv_runtime::Executor;

    #[test]
    fn echo_backend() {
        let b = EchoService::new("E");
        let input = MessageDoc::request("op").with("x", Value::Int(1));
        let out = b.invoke("op", &input).unwrap();
        assert_eq!(out.get("x"), Some(&Value::Int(1)));
        assert_eq!(out.get_str("echoed_by"), Some("E"));
        assert_eq!(b.name(), "E");
    }

    #[test]
    fn failing_backend() {
        let b = FailingService::new("F", "kaput");
        assert_eq!(
            b.invoke("op", &MessageDoc::request("op")).unwrap_err(),
            "kaput"
        );
    }

    #[test]
    fn synthetic_latency_and_outputs() {
        let b = SyntheticService::new("S")
            .with_latency(Duration::from_millis(20))
            .with_output("price", Value::Float(99.0));
        let t0 = std::time::Instant::now();
        let out = b.invoke("op", &MessageDoc::request("op")).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(18));
        assert_eq!(out.get("price"), Some(&Value::Float(99.0)));
        assert_eq!(out.get_str("served_by"), Some("S"));
        assert_eq!(b.invocation_count(), 1);
    }

    #[test]
    fn synthetic_failures_are_seeded() {
        let run = |seed| {
            let b = SyntheticService::new("S")
                .with_failure_probability(0.5)
                .with_seed(seed);
            (0..50)
                .map(|_| b.invoke("op", &MessageDoc::request("op")).is_ok())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        let outcomes = run(3);
        assert!(outcomes.iter().any(|x| *x) && outcomes.iter().any(|x| !*x));
    }

    #[test]
    fn host_serves_invocations() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let _host = ServiceHost::spawn_on(
            &net,
            &exec.handle(),
            "svc.echo",
            Arc::new(EchoService::new("Echo")),
        )
        .unwrap();
        let client = net.connect("client").unwrap();
        let req = MessageDoc::request("ping").with("n", Value::Int(5));
        let reply = client
            .rpc(
                "svc.echo",
                kinds::INVOKE,
                req.to_xml(),
                Duration::from_secs(2),
            )
            .unwrap();
        assert_eq!(reply.kind, kinds::INVOKE_RESULT);
        let msg = MessageDoc::from_xml(&reply.body).unwrap();
        assert_eq!(msg.get("n"), Some(&Value::Int(5)));
        drop(_host);
        exec.shutdown();
    }

    #[test]
    fn host_faults_travel_back() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let _host = ServiceHost::spawn_on(
            &net,
            &exec.handle(),
            "svc.bad",
            Arc::new(FailingService::new("B", "boom")),
        )
        .unwrap();
        let client = net.connect("client").unwrap();
        let reply = client
            .rpc(
                "svc.bad",
                kinds::INVOKE,
                MessageDoc::request("op").to_xml(),
                Duration::from_secs(2),
            )
            .unwrap();
        let msg = MessageDoc::from_xml(&reply.body).unwrap();
        assert!(msg.is_fault());
        assert_eq!(msg.fault_reason(), Some("boom"));
        drop(_host);
        exec.shutdown();
    }

    #[test]
    fn host_handles_concurrent_invocations() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let backend =
            Arc::new(SyntheticService::new("Slow").with_latency(Duration::from_millis(50)));
        let _host = ServiceHost::spawn_on(
            &net,
            &exec.handle(),
            "svc.slow",
            Arc::clone(&backend) as Arc<dyn ServiceBackend>,
        )
        .unwrap();
        let t0 = std::time::Instant::now();
        let mut handles = Vec::new();
        for i in 0..4 {
            let net = net.clone();
            handles.push(std::thread::spawn(move || {
                let client = net.connect(format!("client{i}")).unwrap();
                client
                    .rpc(
                        "svc.slow",
                        kinds::INVOKE,
                        MessageDoc::request("op").to_xml(),
                        Duration::from_secs(5),
                    )
                    .unwrap()
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 4 × 50 ms in parallel must finish well under 200 ms.
        assert!(
            t0.elapsed() < Duration::from_millis(180),
            "{:?}",
            t0.elapsed()
        );
        assert_eq!(backend.invocation_count(), 4);
        drop(_host);
        exec.shutdown();
    }

    #[test]
    fn host_stop_disconnects() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let host = ServiceHost::spawn_on(
            &net,
            &exec.handle(),
            "svc.x",
            Arc::new(EchoService::new("X")),
        )
        .unwrap();
        assert!(net.is_connected("svc.x"));
        host.stop();
        assert!(!net.is_connected("svc.x"));
        exec.shutdown();
    }
}
