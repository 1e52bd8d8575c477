//! Execution monitoring: per-instance traces of the distributed run, plus
//! the membership view.
//!
//! The paper's coordinators are "in charge of initiating, controlling,
//! *monitoring* the associated state". This module gives that monitoring a
//! destination: an [`ExecutionMonitor`] node collects trace events emitted
//! by coordinators and wrappers (when a deployment opts in via
//! [`crate::Deployer::with_monitor`]) and reconstructs a timeline per
//! instance — the platform's answer to Figure 3's "Execution Result"
//! panel.
//!
//! The monitor also ingests **liveness events** from `selfserv-discovery`
//! failure detectors (point `DiscoveryConfig::monitor` at this node):
//! every suspected / evicted / recovered peer hub lands in a queryable log
//! ([`MonitorHandle::liveness_events`]) and a last-known-status table
//! ([`MonitorHandle::peer_status`]), so an operator can answer "which
//! providers were dead during this run?" next to "what did the run do?".
//!
//! Tracing is fire-and-forget: a dead or slow monitor never blocks an
//! execution.

use crate::protocol::InstanceId;
use parking_lot::RwLock;
use selfserv_net::{
    ConnectError, Envelope, LivenessEvent, NodeId, PeerStatus, Transport, LIVENESS_KIND,
};
use selfserv_runtime::{ExecutorHandle, Flow, NodeCtx, NodeHandle, NodeLogic};
use selfserv_xml::Element;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// The wrapper started an instance.
    InstanceStarted,
    /// A coordinator's precondition fired and the state was entered.
    Activated,
    /// The state's work finished (service returned).
    Completed,
    /// The instance finished and the caller was answered.
    InstanceFinished,
    /// A fault was reported.
    Faulted,
}

impl TraceKind {
    fn name(self) -> &'static str {
        match self {
            TraceKind::InstanceStarted => "instance-started",
            TraceKind::Activated => "activated",
            TraceKind::Completed => "completed",
            TraceKind::InstanceFinished => "instance-finished",
            TraceKind::Faulted => "faulted",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "instance-started" => TraceKind::InstanceStarted,
            "activated" => TraceKind::Activated,
            "completed" => TraceKind::Completed,
            "instance-finished" => TraceKind::InstanceFinished,
            "faulted" => TraceKind::Faulted,
            _ => return None,
        })
    }
}

/// One trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The instance.
    pub instance: InstanceId,
    /// The reporting participant (state id, or `wrapper`).
    pub participant: String,
    /// What happened.
    pub kind: TraceKind,
    /// Free-form detail (fault reason, chosen transition, …).
    pub detail: String,
    /// Wall-clock milliseconds since the Unix epoch at the reporter.
    pub at_ms: u64,
    /// Monotonic microseconds since the reporting process's anchor
    /// ([`mono_us`]). Differences between events stamped by the *same*
    /// process are exact elapsed time, immune to wall-clock steps; events
    /// from different processes have unrelated anchors. Zero for events
    /// from reporters predating this field.
    pub at_us: u64,
}

/// Monotonic microseconds since a process-global anchor (the first call).
/// All trace events of one process share the anchor, so same-process
/// deltas — wrapper start to wrapper finish, coordinator activation to
/// completion — are exact elapsed durations.
pub fn mono_us() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// The message kind trace events travel under.
pub const TRACE_KIND: &str = "monitor.trace";

/// Builds the wire form of a trace event.
pub fn trace_body(
    instance: InstanceId,
    participant: &str,
    kind: TraceKind,
    detail: &str,
) -> Element {
    let at_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or(Duration::ZERO)
        .as_millis() as u64;
    Element::new("trace")
        .with_attr("instance", instance.to_string())
        .with_attr("participant", participant)
        .with_attr("kind", kind.name())
        .with_attr("detail", detail)
        .with_attr("at_ms", at_ms.to_string())
        .with_attr("at_us", mono_us().to_string())
}

fn decode_trace(e: &Element) -> Option<TraceEvent> {
    Some(TraceEvent {
        instance: InstanceId::decode(e.attr("instance")?).ok()?,
        participant: e.attr("participant")?.to_string(),
        kind: TraceKind::from_name(e.attr("kind")?)?,
        detail: e.attr("detail").unwrap_or("").to_string(),
        at_ms: e.attr("at_ms")?.parse().ok()?,
        at_us: e.attr("at_us").and_then(|v| v.parse().ok()).unwrap_or(0),
    })
}

#[derive(Default)]
struct TraceStore {
    by_instance: HashMap<InstanceId, Vec<TraceEvent>>,
    /// Monotonic start stamp per open instance (wrapper's
    /// `InstanceStarted`), consumed into `latency_us` at finish.
    started_at_us: HashMap<InstanceId, u64>,
    /// End-to-end latency of finished instances, wrapper start to wrapper
    /// finish, exact (same-process monotonic stamps).
    latency_us: HashMap<InstanceId, u64>,
    /// Per-instance coordinator activation stamps awaiting their
    /// `Completed` (phase latency measurement); dropped wholesale when the
    /// instance ends.
    activated_at_us: HashMap<InstanceId, HashMap<String, u64>>,
    /// Finished instances in completion order, for trace eviction under
    /// [`MonitorOptions::max_traces`].
    finished_order: VecDeque<InstanceId>,
    /// Liveness transitions in arrival order, bounded by
    /// [`LIVENESS_LOG_CAPACITY`] — a flapping peer (suspected/alive
    /// cycles) must not grow a long-running monitor without bound;
    /// `peer_status` keeps the last-known answer regardless.
    liveness: VecDeque<LivenessEvent>,
    /// Last reported status per node name (from liveness events).
    peer_status: HashMap<NodeId, PeerStatus>,
}

/// How many liveness transitions the monitor retains (oldest dropped
/// first) — mirrors the discovery handle's own event-log bound.
const LIVENESS_LOG_CAPACITY: usize = 1024;

/// Metrics recorded by a monitor node (opt-in via
/// [`ExecutionMonitor::spawn_with`]): instance lifecycle counters, the
/// end-to-end instance latency distribution, and coordinator phase
/// latencies (`Activated` to `Completed` per state), all derived from the
/// existing [`TraceKind`] stream — coordinators and wrappers need no new
/// instrumentation.
pub struct MonitorMetrics {
    /// Instances started (wrapper `InstanceStarted`).
    pub instances_started: Arc<selfserv_obs::Counter>,
    /// Instances finished successfully (wrapper `InstanceFinished`).
    pub instances_finished: Arc<selfserv_obs::Counter>,
    /// Instances that ended in a fault (wrapper `Faulted`).
    pub instances_faulted: Arc<selfserv_obs::Counter>,
    /// End-to-end instance latency, wrapper start to wrapper finish, µs.
    pub instance_latency_us: Arc<selfserv_obs::Histogram>,
    /// Coordinator phase latency (`Activated` to `Completed`), µs.
    pub phase_latency_us: Arc<selfserv_obs::Histogram>,
}

impl MonitorMetrics {
    /// Registers the monitor metric family on `registry` (with `labels`
    /// attached to every series) and returns the handles a monitor records
    /// into. Also derives an open-instances gauge from the lifecycle
    /// counters.
    pub fn register(
        registry: &selfserv_obs::Registry,
        labels: &[(&str, &str)],
    ) -> Arc<MonitorMetrics> {
        let metrics = Arc::new(MonitorMetrics {
            instances_started: registry.counter(
                "selfserv_instances_started_total",
                "Composite instances started (wrapper InstanceStarted traces).",
                labels,
            ),
            instances_finished: registry.counter(
                "selfserv_instances_finished_total",
                "Composite instances finished successfully.",
                labels,
            ),
            instances_faulted: registry.counter(
                "selfserv_instances_faulted_total",
                "Composite instances that ended in a fault.",
                labels,
            ),
            instance_latency_us: registry.histogram(
                "selfserv_instance_latency_us",
                "End-to-end composite instance latency in microseconds.",
                labels,
            ),
            phase_latency_us: registry.histogram(
                "selfserv_phase_latency_us",
                "Coordinator phase latency (Activated to Completed) in microseconds.",
                labels,
            ),
        });
        let (started, finished, faulted) = (
            Arc::clone(&metrics.instances_started),
            Arc::clone(&metrics.instances_finished),
            Arc::clone(&metrics.instances_faulted),
        );
        registry.gauge_fn(
            "selfserv_instances_open",
            "Composite instances started but not yet finished or faulted.",
            labels,
            move || started.get().saturating_sub(finished.get() + faulted.get()) as f64,
        );
        metrics
    }
}

/// Options for [`ExecutionMonitor::spawn_with`].
#[derive(Default)]
pub struct MonitorOptions {
    /// Record lifecycle counters and latency histograms as traces arrive.
    pub metrics: Option<Arc<MonitorMetrics>>,
    /// Bound on retained per-instance traces: once more than this many
    /// *finished* instances are stored, the oldest finished traces (and
    /// their recorded latencies) are evicted. `None` retains everything —
    /// fine for demos and tests, not for sustained load.
    pub max_traces: Option<usize>,
}

/// Spawner for the monitor node.
pub struct ExecutionMonitor;

/// Handle to a running monitor: query collected traces.
pub struct MonitorHandle {
    store: Arc<RwLock<TraceStore>>,
    handle: NodeHandle,
}

impl ExecutionMonitor {
    /// Spawns a monitor on `node_name`, over any [`Transport`], scheduled
    /// on `exec`, with [`MonitorOptions`] — metrics
    /// recording and/or a trace-retention bound for sustained load.
    pub fn spawn_with(
        net: &dyn Transport,
        exec: &ExecutorHandle,
        node_name: &str,
        options: MonitorOptions,
    ) -> Result<MonitorHandle, ConnectError> {
        let endpoint = net.connect(NodeId::new(node_name))?;
        let store = Arc::new(RwLock::new(TraceStore::default()));
        let logic = MonitorLogic {
            store: Arc::clone(&store),
            metrics: options.metrics,
            max_traces: options.max_traces,
        };
        Ok(MonitorHandle {
            store,
            handle: exec.spawn_node(endpoint, logic),
        })
    }
}

struct MonitorLogic {
    store: Arc<RwLock<TraceStore>>,
    metrics: Option<Arc<MonitorMetrics>>,
    max_traces: Option<usize>,
}

impl MonitorLogic {
    /// Lifecycle bookkeeping for one decoded trace event: start stamps,
    /// end-to-end and phase latencies, metric recording, and bounded
    /// retention. Runs under the store's write lock.
    fn ingest(&self, store: &mut TraceStore, event: &TraceEvent) {
        let from_wrapper = event.participant == "wrapper";
        match event.kind {
            TraceKind::InstanceStarted if from_wrapper => {
                store.started_at_us.insert(event.instance, event.at_us);
                if let Some(m) = &self.metrics {
                    m.instances_started.inc();
                }
            }
            TraceKind::Activated if !from_wrapper => {
                store
                    .activated_at_us
                    .entry(event.instance)
                    .or_default()
                    .insert(event.participant.clone(), event.at_us);
            }
            TraceKind::Completed if !from_wrapper => {
                let activated = store
                    .activated_at_us
                    .get_mut(&event.instance)
                    .and_then(|phases| phases.remove(&event.participant));
                if let (Some(t0), Some(m)) = (activated, &self.metrics) {
                    m.phase_latency_us.record(event.at_us.saturating_sub(t0));
                }
            }
            TraceKind::InstanceFinished | TraceKind::Faulted if from_wrapper => {
                let finished = event.kind == TraceKind::InstanceFinished;
                if let Some(t0) = store.started_at_us.remove(&event.instance) {
                    let latency = event.at_us.saturating_sub(t0);
                    store.latency_us.insert(event.instance, latency);
                    if let Some(m) = &self.metrics {
                        if finished {
                            m.instance_latency_us.record(latency);
                        }
                    }
                }
                if let Some(m) = &self.metrics {
                    if finished {
                        m.instances_finished.inc();
                    } else {
                        m.instances_faulted.inc();
                    }
                }
                store.activated_at_us.remove(&event.instance);
                store.finished_order.push_back(event.instance);
                if let Some(cap) = self.max_traces {
                    while store.finished_order.len() > cap {
                        if let Some(old) = store.finished_order.pop_front() {
                            store.by_instance.remove(&old);
                            store.latency_us.remove(&old);
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

impl NodeLogic for MonitorLogic {
    fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, env: Envelope) -> Flow {
        match env.kind.as_str() {
            TRACE_KIND => {
                if let Some(event) = decode_trace(&env.body) {
                    let mut store = self.store.write();
                    self.ingest(&mut store, &event);
                    store
                        .by_instance
                        .entry(event.instance)
                        .or_default()
                        .push(event);
                }
            }
            LIVENESS_KIND => {
                if let Some(event) = LivenessEvent::from_xml(&env.body) {
                    let mut store = self.store.write();
                    for name in &event.names {
                        store.peer_status.insert(name.clone(), event.status);
                    }
                    if store.liveness.len() == LIVENESS_LOG_CAPACITY {
                        store.liveness.pop_front();
                    }
                    store.liveness.push_back(event);
                }
            }
            _ => {}
        }
        Flow::Continue
    }
}

impl MonitorHandle {
    /// The monitor's node (pass to [`crate::Deployer::with_monitor`]).
    pub fn node(&self) -> &NodeId {
        self.handle.node()
    }

    /// The trace of one instance, in arrival order.
    pub fn trace(&self, instance: InstanceId) -> Vec<TraceEvent> {
        self.store
            .read()
            .by_instance
            .get(&instance)
            .cloned()
            .unwrap_or_default()
    }

    /// All instances with at least one event, sorted.
    pub fn instances(&self) -> Vec<InstanceId> {
        let mut ids: Vec<InstanceId> = self.store.read().by_instance.keys().copied().collect();
        ids.sort();
        ids
    }

    /// Total events collected.
    pub fn event_count(&self) -> usize {
        self.store.read().by_instance.values().map(Vec::len).sum()
    }

    /// End-to-end latency of a finished instance in microseconds (wrapper
    /// start to wrapper finish, same-process monotonic stamps). `None`
    /// while the instance is still running, unknown, or evicted.
    pub fn instance_latency_us(&self, instance: InstanceId) -> Option<u64> {
        self.store.read().latency_us.get(&instance).copied()
    }

    /// Every liveness transition reported by discovery failure detectors,
    /// in arrival order.
    pub fn liveness_events(&self) -> Vec<LivenessEvent> {
        self.store.read().liveness.iter().cloned().collect()
    }

    /// The last reported liveness status of a node name (`None` when no
    /// failure detector ever mentioned it).
    pub fn peer_status(&self, name: &str) -> Option<PeerStatus> {
        self.store
            .read()
            .peer_status
            .get(&NodeId::new(name))
            .copied()
    }

    /// Renders one instance's trace as an aligned text timeline (relative
    /// milliseconds), for demos and debugging.
    pub fn render_timeline(&self, instance: InstanceId) -> String {
        let events = self.trace(instance);
        let Some(t0) = events.iter().map(|e| e.at_ms).min() else {
            return format!("instance {instance}: no events\n");
        };
        let mut out = format!("instance {instance}:\n");
        for e in &events {
            out.push_str(&format!(
                "  +{:>5} ms  {:20} {:18} {}\n",
                e.at_ms - t0,
                e.participant,
                e.kind.name(),
                e.detail
            ));
        }
        out
    }

    /// Stops the monitor and waits until its name is free.
    pub fn stop(self) {
        self.handle.stop();
    }
}

impl Drop for MonitorHandle {
    fn drop(&mut self) {
        self.handle.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfserv_net::{Network, NetworkConfig};
    use selfserv_runtime::Executor;

    #[test]
    fn trace_codec_round_trip() {
        let body = trace_body(InstanceId(7), "AB", TraceKind::Completed, "ok");
        let event = decode_trace(&body).unwrap();
        assert_eq!(event.instance, InstanceId(7));
        assert_eq!(event.participant, "AB");
        assert_eq!(event.kind, TraceKind::Completed);
        assert!(event.at_ms > 0);
    }

    #[test]
    fn kind_names_round_trip() {
        for k in [
            TraceKind::InstanceStarted,
            TraceKind::Activated,
            TraceKind::Completed,
            TraceKind::InstanceFinished,
            TraceKind::Faulted,
        ] {
            assert_eq!(TraceKind::from_name(k.name()), Some(k));
        }
        assert_eq!(TraceKind::from_name("nope"), None);
    }

    #[test]
    fn monitor_collects_and_renders() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let monitor = ExecutionMonitor::spawn_with(
            &net,
            &exec.handle(),
            "monitor",
            MonitorOptions::default(),
        )
        .unwrap();
        let reporter = net.connect("reporter").unwrap();
        reporter
            .send(
                "monitor",
                TRACE_KIND,
                trace_body(InstanceId(1), "wrapper", TraceKind::InstanceStarted, ""),
            )
            .unwrap();
        reporter
            .send(
                "monitor",
                TRACE_KIND,
                trace_body(InstanceId(1), "AB", TraceKind::Activated, ""),
            )
            .unwrap();
        reporter
            .send(
                "monitor",
                TRACE_KIND,
                trace_body(InstanceId(2), "AB", TraceKind::Activated, ""),
            )
            .unwrap();
        // Give the monitor a beat to drain.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(monitor.event_count(), 3);
        assert_eq!(monitor.instances(), vec![InstanceId(1), InstanceId(2)]);
        assert_eq!(monitor.trace(InstanceId(1)).len(), 2);
        let text = monitor.render_timeline(InstanceId(1));
        assert!(text.contains("instance-started"), "{text}");
        assert!(monitor
            .render_timeline(InstanceId(99))
            .contains("no events"));
        drop(monitor);
        exec.shutdown();
    }

    #[test]
    fn monitor_ingests_liveness_events() {
        let exec = Executor::new(2);
        use selfserv_net::HubId;
        let net = Network::new(NetworkConfig::instant());
        let monitor = ExecutionMonitor::spawn_with(
            &net,
            &exec.handle(),
            "monitor",
            MonitorOptions::default(),
        )
        .unwrap();
        let detector = net.connect("disc.feed").unwrap();
        let suspected = LivenessEvent {
            hub: HubId(7),
            status: PeerStatus::Suspected,
            names: vec![NodeId::new("svc.a"), NodeId::new("svc.b")],
        };
        let evicted = LivenessEvent {
            hub: HubId(7),
            status: PeerStatus::Evicted,
            names: vec![NodeId::new("svc.a")],
        };
        detector
            .send("monitor", LIVENESS_KIND, suspected.to_xml())
            .unwrap();
        detector
            .send("monitor", LIVENESS_KIND, evicted.to_xml())
            .unwrap();
        detector
            .send("monitor", LIVENESS_KIND, Element::new("garbage"))
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let events = monitor.liveness_events();
        assert_eq!(events, vec![suspected, evicted]);
        assert_eq!(monitor.peer_status("svc.a"), Some(PeerStatus::Evicted));
        assert_eq!(monitor.peer_status("svc.b"), Some(PeerStatus::Suspected));
        assert_eq!(monitor.peer_status("svc.unknown"), None);
        assert_eq!(monitor.event_count(), 0, "liveness is not a trace");
        drop(monitor);
        exec.shutdown();
    }

    #[test]
    fn malformed_traces_are_ignored() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let monitor = ExecutionMonitor::spawn_with(
            &net,
            &exec.handle(),
            "monitor",
            MonitorOptions::default(),
        )
        .unwrap();
        let reporter = net.connect("reporter").unwrap();
        reporter
            .send("monitor", TRACE_KIND, Element::new("garbage"))
            .unwrap();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(monitor.event_count(), 0);
        drop(monitor);
        exec.shutdown();
    }
}
