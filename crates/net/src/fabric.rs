//! The in-process message fabric: named nodes, seeded fault injection,
//! optional wire latency, per-node metrics.

use crate::envelope::{Envelope, MessageId, NodeId};
use crate::fault::{ChaosTarget, FaultAction, FaultPolicy, FaultSchedule, LatencyModel};
use crate::metrics::{CountersTable, MetricsSnapshot};
use crate::transport::{
    ConnectError, Endpoint, NodeHome, NodeTable, SendError, Transport, TransportHandle,
};
use parking_lot::{Condvar, Mutex, RwLock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfserv_xml::Element;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Static configuration of a [`Network`].
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Link latency.
    pub latency: LatencyModel,
    /// RNG seed driving latency jitter. Loss and the other random faults
    /// come from an installed [`FaultSchedule`], which has its own seed.
    pub seed: u64,
}

impl NetworkConfig {
    /// Zero-latency, lossless fabric: measures pure software overhead.
    pub fn instant() -> Self {
        NetworkConfig {
            latency: LatencyModel::Instant,
            seed: 42,
        }
    }

    /// LAN-like: 0.2–1 ms latency, lossless.
    pub fn lan() -> Self {
        NetworkConfig {
            latency: LatencyModel::Uniform(Duration::from_micros(200), Duration::from_millis(1)),
            seed: 42,
        }
    }

    /// WAN-like: 5–25 ms latency, lossless. The original demo ran service
    /// providers across the Internet; this is the shape the travel-scenario
    /// walkthrough uses.
    pub fn wan() -> Self {
        NetworkConfig {
            latency: LatencyModel::Uniform(Duration::from_millis(5), Duration::from_millis(25)),
            seed: 42,
        }
    }

    /// Builder: replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

struct Scheduled {
    deliver_at: Instant,
    envelope: Envelope,
    size: usize,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on delivery time.
        other.deliver_at.cmp(&self.deliver_at)
    }
}

#[derive(Default)]
struct DeliveryQueue {
    heap: Mutex<BinaryHeap<Scheduled>>,
    cv: Condvar,
    shutdown: AtomicBool,
}

struct Inner {
    cfg: NetworkConfig,
    /// The connected nodes, their counters and the fabric's ids. A fabric
    /// node has nothing to claim beyond its table entry.
    table: NodeTable,
    /// Kills, partitions and the installed chaos schedule: one read lock
    /// per dispatch.
    fault: RwLock<FaultPolicy>,
    /// Latency jitter only; random faults come from the schedule.
    rng: Mutex<StdRng>,
    delivery: Arc<DeliveryQueue>,
    /// Whether the delivery thread exists. Spawned eagerly for non-instant
    /// latency models, lazily when a chaos schedule (whose delay/reorder/
    /// duplicate actions need the heap) is installed on an instant fabric.
    delivery_started: AtomicBool,
}

impl NodeHome for Inner {
    fn table(&self) -> &NodeTable {
        &self.table
    }

    /// The one place a kill is cleared when its node leaves. The fault
    /// lock is taken outside the table's, and for writing only when the
    /// name is marked dead.
    fn released(&self, name: &NodeId) {
        if self.fault.read().is_dead(name) {
            self.fault.write().revive(name);
        }
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        self.delivery.shutdown.store(true, Ordering::SeqCst);
        self.delivery.cv.notify_all();
    }
}

/// An in-process message fabric. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct Network {
    inner: Arc<Inner>,
}

impl Network {
    /// Creates a fabric with the given configuration. If the latency model
    /// is not instant, a delivery thread is spawned; it exits automatically
    /// when the last [`Network`] handle is dropped.
    pub fn new(cfg: NetworkConfig) -> Self {
        let inner = Arc::new(Inner {
            rng: Mutex::new(StdRng::seed_from_u64(cfg.seed)),
            cfg,
            table: NodeTable::new(CountersTable::new()),
            fault: RwLock::default(),
            delivery: Arc::new(DeliveryQueue::default()),
            delivery_started: AtomicBool::new(false),
        });
        let net = Network { inner };
        if !net.inner.cfg.latency.is_instant() {
            net.ensure_delivery_thread();
        }
        net
    }

    /// Connects a named node, returning its endpoint. Fails if the name is
    /// already connected. Names containing `~` are reserved for
    /// transport-generated ephemeral endpoints and are rejected (their
    /// counters are pruned on drop, which would silently lose a real
    /// node's metrics).
    pub fn connect(&self, name: impl Into<NodeId>) -> Result<Endpoint, ConnectError> {
        NodeTable::connect(self.inner.clone(), Transport::handle(self), name.into())
    }

    /// Connects a node with a generated unique name beginning with `prefix`
    /// (auxiliary identities: demo clients, nested composite callers — the
    /// rpc path no longer creates ephemeral endpoints).
    pub fn connect_anonymous(&self, prefix: &str) -> Endpoint {
        NodeTable::connect_anonymous(self.inner.clone(), Transport::handle(self), prefix, None)
    }

    /// True when a node of this name is currently connected.
    pub fn is_connected(&self, name: &str) -> bool {
        self.inner.table.contains(&NodeId::new(name))
    }

    /// Names of all currently connected nodes, sorted.
    pub fn node_names(&self) -> Vec<NodeId> {
        self.inner.table.names()
    }

    /// Snapshot of all per-node counters, including those of the latest
    /// 4096 named nodes that disconnected; what earlier ones counted is
    /// summed under [`crate::DEPARTED_AGGREGATE`].
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.table.counters.snapshot()
    }

    /// Resets all counters to zero.
    pub fn reset_metrics(&self) {
        self.inner.table.counters.reset();
    }

    /// Kills a node: all traffic to and from it is dropped until
    /// [`Network::revive`], or until the node leaves (its endpoint drops):
    /// a kill belongs to the node, so its name connects again alive.
    pub fn kill(&self, node: &NodeId) {
        self.inner.fault.write().kill(node);
    }

    /// Revives a killed node.
    pub fn revive(&self, node: &NodeId) {
        self.inner.fault.write().revive(node);
    }

    /// True when the node is currently killed.
    pub fn is_dead(&self, node: &NodeId) -> bool {
        self.inner.fault.read().is_dead(node)
    }

    /// Partitions two nodes (both directions).
    pub fn partition(&self, a: &NodeId, b: &NodeId) {
        self.inner.fault.write().partition(a, b);
    }

    /// Heals a partition.
    pub fn heal(&self, a: &NodeId, b: &NodeId) {
        self.inner.fault.write().heal(a, b);
    }

    /// Heals all partitions.
    pub fn heal_all(&self) {
        self.inner.fault.write().heal_all();
    }

    /// Installs a chaos schedule, the fabric's only source of random
    /// faults: every subsequent dispatch that no kill or partition blocks
    /// consults it and applies the sampled action — drop, delay,
    /// duplicate, or reorder. Timed node events on the
    /// schedule are *not* applied here; drive them with a
    /// [`crate::ChaosController`] targeting this network.
    pub fn install_chaos(&self, schedule: Arc<FaultSchedule>) {
        // Delay/reorder/duplicate actions ride the delivery heap, which an
        // instant-latency fabric never started.
        self.ensure_delivery_thread();
        self.inner.fault.write().schedule = Some(schedule);
    }

    /// Removes the installed chaos schedule; traffic flows normally again.
    pub fn clear_chaos(&self) {
        self.inner.fault.write().schedule = None;
    }

    fn ensure_delivery_thread(&self) {
        if !self.inner.delivery_started.swap(true, Ordering::SeqCst) {
            spawn_delivery_thread(
                Arc::downgrade(&self.inner),
                Arc::clone(&self.inner.delivery),
            );
        }
    }

    fn dispatch(&self, envelope: Envelope) -> Result<(), SendError> {
        let from = envelope.from.clone();
        let to = envelope.to.clone();
        let size = envelope.wire_size();

        let counters = &self.inner.table.counters;
        if !self.inner.table.contains(&to) {
            return Err(SendError::UnknownNode(to));
        }
        // Kills, partitions and the schedule are read under one lock. The
        // schedule sees only what no kill or partition blocked. Delay and
        // reorder both become heap entries; a duplicate schedules its copy
        // and falls through so the original takes the normal path.
        let action = {
            let fault = self.inner.fault.read();
            if fault.is_dead(&from) {
                return Err(SendError::SenderDead(from));
            }
            counters.for_node(&from).record_send(size);
            if fault.is_blocked(&from, &to) {
                counters.for_node(&to).record_drop();
                return Ok(());
            }
            match &fault.schedule {
                Some(schedule) => schedule.decide(&from, &to, &envelope.kind),
                None => FaultAction::Deliver,
            }
        };
        match action {
            FaultAction::Drop => {
                counters.for_node(&to).record_drop();
                return Ok(());
            }
            FaultAction::Delay(d) | FaultAction::Reorder(d) => {
                self.schedule_delayed(envelope, size, d);
                return Ok(());
            }
            FaultAction::Duplicate(d) => {
                self.schedule_delayed(envelope.clone(), size, d);
            }
            FaultAction::Deliver => {}
        }
        // Only `Uniform` draws; the fabric-wide rng lock is not worth taking
        // to learn that `Instant` is zero.
        let delay = match self.inner.cfg.latency {
            LatencyModel::Instant => Duration::ZERO,
            LatencyModel::Fixed(d) => d,
            latency @ LatencyModel::Uniform(..) => latency.sample(&mut *self.inner.rng.lock()),
        };
        if delay.is_zero() {
            // Delivered within this call, so the kill check above still
            // holds: no delivery-time re-check as in `deliver_due`.
            self.inner.table.deliver(&to, envelope, size);
        } else {
            self.schedule_delayed(envelope, size, delay);
        }
        Ok(())
    }

    /// Queues a message on the delivery heap. The delivery thread sleeps
    /// until the earliest entry is due, so it is woken only when this one
    /// becomes the earliest.
    fn schedule_delayed(&self, envelope: Envelope, size: usize, delay: Duration) {
        let deliver_at = Instant::now() + delay;
        let mut heap = self.inner.delivery.heap.lock();
        heap.push(Scheduled {
            deliver_at,
            envelope,
            size,
        });
        if heap.peek().map(|top| top.deliver_at) == Some(deliver_at) {
            self.inner.delivery.cv.notify_one();
        }
    }

    /// Hands a message from the delivery heap to its node.
    fn deliver_due(&self, envelope: Envelope, size: usize) {
        let to = envelope.to.clone();
        // Re-check death at delivery time: a node killed while the message
        // was in flight never sees it.
        if self.inner.fault.read().is_dead(&to) {
            self.inner
                .table
                .counters
                .for_delivery_drop(&to)
                .record_drop();
            return;
        }
        self.inner.table.deliver(&to, envelope, size);
    }
}

fn spawn_delivery_thread(inner: Weak<Inner>, queue: Arc<DeliveryQueue>) {
    std::thread::Builder::new()
        .name("selfserv-net-delivery".to_string())
        .spawn(move || loop {
            if queue.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let due: Option<(Envelope, usize)> = {
                let mut heap = queue.heap.lock();
                loop {
                    if queue.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    match heap.peek() {
                        None => {
                            // Periodic wake so the thread notices a fully
                            // dropped Network even without traffic.
                            queue.cv.wait_for(&mut heap, Duration::from_millis(200));
                            if inner.upgrade().is_none() {
                                return;
                            }
                        }
                        Some(top) => {
                            let now = Instant::now();
                            if top.deliver_at <= now {
                                let s = heap.pop().expect("peeked");
                                break Some((s.envelope, s.size));
                            }
                            let wait = top.deliver_at - now;
                            queue.cv.wait_for(&mut heap, wait);
                        }
                    }
                }
            };
            if let Some((envelope, size)) = due {
                match inner.upgrade() {
                    Some(strong) => Network { inner: strong }.deliver_due(envelope, size),
                    None => return,
                }
            }
        })
        .expect("spawn delivery thread");
}

impl ChaosTarget for Network {
    fn crash(&self, node: &NodeId) {
        Network::kill(self, node);
    }

    fn restart(&self, node: &NodeId) {
        Network::revive(self, node);
    }
}

impl Transport for Network {
    fn connect(&self, name: NodeId) -> Result<Endpoint, ConnectError> {
        Network::connect(self, name)
    }

    fn connect_anonymous(&self, prefix: &str) -> Endpoint {
        Network::connect_anonymous(self, prefix)
    }

    fn is_connected(&self, name: &str) -> bool {
        Network::is_connected(self, name)
    }

    fn node_names(&self) -> Vec<NodeId> {
        Network::node_names(self)
    }

    fn next_message_id(&self) -> MessageId {
        self.inner.table.next_message_id()
    }

    fn send_prepared(
        &self,
        id: MessageId,
        from: &NodeId,
        to: NodeId,
        kind: String,
        body: Element,
        correlation: Option<MessageId>,
    ) -> Result<(), SendError> {
        let envelope = Envelope {
            id,
            from: from.clone(),
            to,
            kind,
            correlation,
            body,
        };
        self.dispatch(envelope)
    }

    fn metrics(&self) -> MetricsSnapshot {
        Network::metrics(self)
    }

    fn reset_metrics(&self) {
        Network::reset_metrics(self)
    }

    fn handle(&self) -> TransportHandle {
        TransportHandle::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{ChaosConfig, KindRule};
    use crate::metrics::{DEPARTED_AGGREGATE, EPHEMERAL_AGGREGATE, RETAINED_DEPARTED};
    use crate::transport::RpcError;
    use std::collections::HashMap;

    fn body() -> Element {
        Element::new("ping")
    }

    #[test]
    fn basic_send_receive() {
        let net = Network::new(NetworkConfig::instant());
        let a = net.connect("a").unwrap();
        let b = net.connect("b").unwrap();
        a.send("b", "hello", body().with_attr("n", "1")).unwrap();
        let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(env.kind, "hello");
        assert_eq!(env.from.as_str(), "a");
        assert_eq!(env.body.attr("n"), Some("1"));
    }

    #[test]
    fn unknown_destination_errors() {
        let net = Network::new(NetworkConfig::instant());
        let a = net.connect("a").unwrap();
        assert!(matches!(
            a.send("ghost", "x", body()),
            Err(SendError::UnknownNode(_))
        ));
    }

    #[test]
    fn duplicate_name_rejected() {
        let net = Network::new(NetworkConfig::instant());
        let _a = net.connect("a").unwrap();
        assert!(net.connect("a").is_err());
    }

    #[test]
    fn disconnect_frees_name() {
        let net = Network::new(NetworkConfig::instant());
        {
            let _a = net.connect("a").unwrap();
            assert!(net.is_connected("a"));
        }
        assert!(!net.is_connected("a"));
        net.connect("a").unwrap();
    }

    #[test]
    fn fifo_per_link_in_instant_mode() {
        let net = Network::new(NetworkConfig::instant());
        let a = net.connect("a").unwrap();
        let b = net.connect("b").unwrap();
        for i in 0..100 {
            a.send("b", "seq", Element::new("n").with_attr("i", i.to_string()))
                .unwrap();
        }
        for i in 0..100 {
            let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(env.body.attr("i"), Some(i.to_string().as_str()));
        }
    }

    #[test]
    fn latency_delays_delivery() {
        let cfg = NetworkConfig {
            latency: LatencyModel::Fixed(Duration::from_millis(30)),
            seed: 1,
        };
        let net = Network::new(cfg);
        let a = net.connect("a").unwrap();
        let b = net.connect("b").unwrap();
        let t0 = Instant::now();
        a.send("b", "x", body()).unwrap();
        let env = b.recv_timeout(Duration::from_secs(2)).unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(env.kind, "x");
        assert!(
            elapsed >= Duration::from_millis(25),
            "delivered too early: {elapsed:?}"
        );
    }

    #[test]
    fn messages_ordered_by_deadline_not_send_order() {
        let net = Network::new(NetworkConfig {
            latency: LatencyModel::Fixed(Duration::from_millis(10)),
            seed: 1,
        });
        let a = net.connect("a").unwrap();
        let b = net.connect("b").unwrap();
        // Both messages ride the delivery heap: the slow one, sent first,
        // is due at 40 ms, the fast one pushed after it at 10 ms.
        let rule = KindRule::for_kind("slow").delay(
            1.0,
            Duration::from_millis(40),
            Duration::from_millis(40),
        );
        net.install_chaos(FaultSchedule::sample(1, ChaosConfig::default().rule(rule)));
        a.send("b", "slow", body()).unwrap();
        a.send("b", "fast", body()).unwrap();
        let first = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(first.kind, "fast");
        let second = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(second.kind, "slow");
    }

    /// Per sender, the indices of the messages that reached `to`'s mailbox.
    fn delivered_by_sender(to: &Endpoint) -> HashMap<String, Vec<u32>> {
        let mut got: HashMap<String, Vec<u32>> = HashMap::new();
        while let Some(env) = to.try_recv() {
            let i = env.body.attr("i").unwrap().parse().unwrap();
            got.entry(env.from.as_str().to_string())
                .or_default()
                .push(i);
        }
        got
    }

    fn numbered(i: u32) -> Element {
        Element::new("n").with_attr("i", i.to_string())
    }

    fn lossy(seed: u64, p: f64) -> Arc<FaultSchedule> {
        FaultSchedule::sample(seed, ChaosConfig::default().rule(KindRule::all().drop(p)))
    }

    #[test]
    fn seeded_loss_loses_messages_deterministically() {
        let run = || {
            let net = Network::new(NetworkConfig::instant());
            let schedule = lossy(7, 0.5);
            net.install_chaos(Arc::clone(&schedule));
            let a = net.connect("a").unwrap();
            let b = net.connect("b").unwrap();
            for i in 0..200 {
                a.send("b", "x", numbered(i)).unwrap();
            }
            let delivered = delivered_by_sender(&b).remove("a").unwrap_or_default();
            let lost = 200 - delivered.len();
            let m = net.metrics();
            assert_eq!(m.node("b").unwrap().received, delivered.len() as u64);
            assert_eq!(m.node("b").unwrap().dropped_inbound, lost as u64);
            assert_eq!(schedule.fault_count(), lost);
            delivered
        };
        let delivered = run();
        assert!(
            delivered.len() > 50 && delivered.len() < 150,
            "delivered {}/200",
            delivered.len()
        );
        assert_eq!(run(), delivered, "same seed, same messages delivered");
    }

    /// Two senders on threads of their own under one seed: each stream
    /// loses the same messages on every run, however the threads
    /// interleave.
    #[test]
    fn concurrent_senders_lose_the_same_messages_under_one_seed() {
        let run = || {
            let net = Network::new(NetworkConfig::instant());
            net.install_chaos(lossy(11, 0.3));
            let b = net.connect("b").unwrap();
            let senders = [net.connect("a1").unwrap(), net.connect("a2").unwrap()];
            let start = std::sync::Barrier::new(senders.len());
            std::thread::scope(|s| {
                for sender in &senders {
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        for i in 0..500 {
                            sender.send("b", "x", numbered(i)).unwrap();
                        }
                    });
                }
            });
            delivered_by_sender(&b)
        };
        let first = run();
        assert!(
            first["a1"].len() < 500 && first["a2"].len() < 500,
            "the schedule drops on both streams"
        );
        assert_ne!(first["a1"], first["a2"], "each stream draws its own");
        for _ in 0..3 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn partition_blocks_then_heals() {
        let net = Network::new(NetworkConfig::instant());
        let a = net.connect("a").unwrap();
        let b = net.connect("b").unwrap();
        net.partition(a.node(), b.node());
        a.send("b", "lost", body()).unwrap();
        assert!(b.try_recv().is_none());
        net.heal(a.node(), b.node());
        a.send("b", "found", body()).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_secs(1)).unwrap().kind,
            "found"
        );
    }

    #[test]
    fn killed_node_receives_nothing_and_cannot_send() {
        let net = Network::new(NetworkConfig::instant());
        let a = net.connect("a").unwrap();
        let b = net.connect("b").unwrap();
        let _ = &b;
        net.kill(b.node());
        a.send("b", "x", body()).unwrap();
        assert!(b.try_recv().is_none());
        assert!(matches!(
            b.send("a", "y", body()),
            Err(SendError::SenderDead(_))
        ));
        net.revive(b.node());
        a.send("b", "x2", body()).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap().kind, "x2");
    }

    #[test]
    fn metrics_track_messages_and_bytes() {
        let net = Network::new(NetworkConfig::instant());
        let a = net.connect("a").unwrap();
        let b = net.connect("b").unwrap();
        let c = net.connect("c").unwrap();
        a.send("b", "x", Element::new("payload").with_text("hello world"))
            .unwrap();
        a.send("b", "x", body()).unwrap();
        a.send("c", "x", body()).unwrap();
        let _ = (&b, &c);
        let m = net.metrics();
        let ma = m.node("a").unwrap();
        let mb = m.node("b").unwrap();
        assert_eq!(ma.sent, 3);
        assert_eq!(mb.received, 2);
        assert!(ma.bytes_sent > 0);
        assert!(ma.bytes_sent > mb.bytes_received);
        assert_eq!(m.busiest().unwrap().node.as_str(), "a");
        net.reset_metrics();
        assert_eq!(net.metrics().total_sent(), 0);
    }

    #[test]
    fn reply_correlates() {
        let net = Network::new(NetworkConfig::instant());
        let a = net.connect("a").unwrap();
        let b = net.connect("b").unwrap();
        let req_id = a.send("b", "req", body()).unwrap();
        let req = b.recv_timeout(Duration::from_secs(1)).unwrap();
        b.reply(&req, "resp", Element::new("ok")).unwrap();
        let resp = a.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(resp.correlation, Some(req_id));
        assert_eq!(resp.kind, "resp");
    }

    #[test]
    fn rpc_round_trip() {
        let net = Network::new(NetworkConfig::instant());
        let client = net.connect("client").unwrap();
        let server = net.connect("server").unwrap();
        let handle = std::thread::spawn(move || {
            let req = server.recv().unwrap();
            server.reply(&req, "pong", Element::new("pong")).unwrap();
        });
        let resp = client
            .rpc(
                "server",
                "ping",
                Element::new("ping"),
                Duration::from_secs(2),
            )
            .unwrap();
        assert_eq!(resp.kind, "pong");
        handle.join().unwrap();
    }

    #[test]
    fn rpc_times_out_when_server_silent() {
        let net = Network::new(NetworkConfig::instant());
        let client = net.connect("client").unwrap();
        let _server = net.connect("server").unwrap();
        let err = client
            .rpc(
                "server",
                "ping",
                Element::new("ping"),
                Duration::from_millis(50),
            )
            .unwrap_err();
        assert_eq!(err, RpcError::Timeout);
    }

    #[test]
    fn rpc_to_unknown_node_fails_fast() {
        let net = Network::new(NetworkConfig::instant());
        let client = net.connect("client").unwrap();
        let err = client
            .rpc(
                "ghost",
                "ping",
                Element::new("ping"),
                Duration::from_secs(1),
            )
            .unwrap_err();
        assert!(matches!(err, RpcError::Send(SendError::UnknownNode(_))));
    }

    #[test]
    fn rpc_traffic_attributed_to_caller_node() {
        let net = Network::new(NetworkConfig::instant());
        let client = net.connect("client").unwrap();
        let server = net.connect("server").unwrap();
        let handle = std::thread::spawn(move || {
            let req = server.recv().unwrap();
            server.reply(&req, "pong", Element::new("pong")).unwrap();
        });
        client
            .rpc(
                "server",
                "ping",
                Element::new("ping"),
                Duration::from_secs(2),
            )
            .unwrap();
        handle.join().unwrap();
        let m = net.metrics();
        assert_eq!(m.total_sent(), m.total_received());
        // The request was sent — and the reply received — by the caller's
        // own persistent node; no ephemeral endpoint ever existed.
        let c = m.node("client").unwrap();
        assert_eq!(c.sent, 1);
        assert_eq!(c.received, 1);
        assert!(
            !m.nodes.iter().any(|n| n.node.as_str().contains('~')),
            "rpc must not create ephemeral nodes: {:?}",
            m.nodes
        );
        assert_eq!(client.demux().pending_rpcs(), 0, "slot retired");
    }

    #[test]
    fn ephemeral_counters_fold_into_aggregate() {
        let net = Network::new(NetworkConfig::instant());
        let sink = net.connect("sink").unwrap();
        {
            let tmp = net.connect_anonymous("client");
            tmp.send("sink", "x", body()).unwrap();
            sink.recv_timeout(Duration::from_secs(1)).unwrap();
        }
        let m = net.metrics();
        // The anonymous endpoint is gone, but its traffic was folded into
        // the aggregate slot: fabric totals stay conserved.
        assert_eq!(m.total_sent(), m.total_received());
        let agg = m.node(EPHEMERAL_AGGREGATE).unwrap();
        assert_eq!(agg.sent, 1, "anonymous sender's traffic folded");
        assert!(!net.is_connected("client~1"), "anonymous endpoint pruned");
    }

    #[test]
    fn long_departed_named_nodes_fold_into_aggregate() {
        let net = Network::new(NetworkConfig::instant());
        let sink = net.connect("sink").unwrap();
        {
            let early = net.connect("early").unwrap();
            early.send("sink", "x", body()).unwrap();
        }
        let _early_again = net.connect("early").unwrap();
        const EXTRA: usize = 10;
        for i in 0..RETAINED_DEPARTED + EXTRA {
            let node = net.connect(format!("n{i}")).unwrap();
            node.send("sink", "x", body()).unwrap();
        }
        while sink.try_recv().is_some() {}
        let m = net.metrics();
        // sink, early, the retained departed, the aggregate.
        assert_eq!(m.nodes.len(), 2 + RETAINED_DEPARTED + 1);
        assert_eq!(m.total_sent(), (RETAINED_DEPARTED + EXTRA + 1) as u64);
        assert_eq!(m.total_sent(), m.total_received());
        // `early` was pushed out of the queue first, but is connected again.
        // It keeps its entry; `n0`..`n9`, pushed out after it, lost theirs.
        assert_eq!(m.node("early").unwrap().sent, 1);
        assert_eq!(m.node(DEPARTED_AGGREGATE).unwrap().sent, EXTRA as u64);
        assert!(m.node(&format!("n{}", EXTRA - 1)).is_none());
        assert_eq!(m.node(&format!("n{EXTRA}")).unwrap().sent, 1);
    }

    #[test]
    fn concurrent_rpcs_from_one_endpoint_do_not_cross() {
        let net = Network::new(NetworkConfig::instant());
        let client = net.connect("client").unwrap();
        let server = net.connect("server").unwrap();
        const N: usize = 16;
        // The server collects all requests first, then answers them in
        // reverse arrival order — every reply would hit the wrong caller
        // if correlation ids could cross.
        let server_thread = std::thread::spawn(move || {
            let mut reqs = Vec::new();
            for _ in 0..N {
                reqs.push(server.recv().unwrap());
            }
            for req in reqs.iter().rev() {
                let tag = req.body.attr("tag").unwrap().to_string();
                server
                    .reply(req, "pong", Element::new("pong").with_attr("tag", tag))
                    .unwrap();
            }
        });
        std::thread::scope(|s| {
            for i in 0..N {
                let sender = client.sender();
                s.spawn(move || {
                    let reply = sender
                        .rpc(
                            "server",
                            "ping",
                            Element::new("ping").with_attr("tag", i.to_string()),
                            Duration::from_secs(5),
                        )
                        .unwrap();
                    assert_eq!(reply.body.attr("tag"), Some(i.to_string().as_str()));
                });
            }
        });
        server_thread.join().unwrap();
        assert_eq!(client.demux().pending_rpcs(), 0);
    }

    #[test]
    fn late_reply_is_discarded_and_does_not_poison_next_rpc() {
        let net = Network::new(NetworkConfig::instant());
        let client = net.connect("client").unwrap();
        let server = net.connect("server").unwrap();
        // First rpc times out; the server answers *afterwards* (stale).
        let server_thread = std::thread::spawn(move || {
            let slow = server.recv().unwrap();
            std::thread::sleep(Duration::from_millis(80));
            server.reply(&slow, "pong", Element::new("late")).unwrap();
            // Second rpc answered promptly.
            let fast = server.recv().unwrap();
            server.reply(&fast, "pong", Element::new("fresh")).unwrap();
        });
        let err = client
            .rpc(
                "server",
                "ping",
                Element::new("ping"),
                Duration::from_millis(20),
            )
            .unwrap_err();
        assert_eq!(err, RpcError::Timeout);
        std::thread::sleep(Duration::from_millis(100));
        let reply = client
            .rpc(
                "server",
                "ping",
                Element::new("ping"),
                Duration::from_secs(2),
            )
            .unwrap();
        assert_eq!(reply.body.name, "fresh", "stale reply must not surface");
        assert!(
            client.try_recv().is_none(),
            "stale reply must not leak into recv"
        );
        server_thread.join().unwrap();
    }

    #[test]
    fn send_discard_reply_drops_the_ack() {
        let net = Network::new(NetworkConfig::instant());
        let client = net.connect("client").unwrap();
        let server = net.connect("server").unwrap();
        let id = client
            .sender()
            .send_discard_reply("server", "event", body())
            .unwrap();
        let req = server.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(req.id, id);
        // The server acks; the pre-tombstoned id swallows it.
        server.reply(&req, "ack", Element::new("ok")).unwrap();
        assert!(
            client.try_recv().is_none(),
            "ack must not queue in the sender's mailbox"
        );
        // An ordinary correlated exchange on the same endpoint still works.
        server
            .send_correlated(
                "client",
                "other",
                Element::new("x"),
                Some(MessageId(999_999)),
            )
            .unwrap();
        assert_eq!(
            client.recv_timeout(Duration::from_secs(1)).unwrap().kind,
            "other"
        );
    }

    #[test]
    fn uncorrelated_traffic_flows_to_recv_during_rpc() {
        let net = Network::new(NetworkConfig::instant());
        let client = net.connect("client").unwrap();
        let server = net.connect("server").unwrap();
        let server_thread = std::thread::spawn(move || {
            let req = server.recv().unwrap();
            // Unrelated notification first, then the correlated reply.
            server
                .send("client", "notify", Element::new("aside"))
                .unwrap();
            server.reply(&req, "pong", Element::new("pong")).unwrap();
        });
        let reply = client
            .rpc(
                "server",
                "ping",
                Element::new("ping"),
                Duration::from_secs(2),
            )
            .unwrap();
        assert_eq!(reply.kind, "pong");
        let aside = client.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(aside.kind, "notify", "uncorrelated message kept for recv");
        server_thread.join().unwrap();
    }

    #[test]
    fn chaos_schedule_drops_delays_and_duplicates_on_instant_fabric() {
        let net = Network::new(NetworkConfig::instant());
        let a = net.connect("a").unwrap();
        let b = net.connect("b").unwrap();
        let cfg = ChaosConfig::default()
            .rule(KindRule::for_kind("lost").drop(1.0))
            .rule(KindRule::for_kind("twin").duplicate(1.0))
            .rule(KindRule::for_kind("slow").delay(
                1.0,
                Duration::from_millis(20),
                Duration::from_millis(30),
            ));
        let schedule = FaultSchedule::sample(5, cfg);
        net.install_chaos(Arc::clone(&schedule));
        a.send("b", "lost", body()).unwrap();
        assert!(
            b.recv_timeout(Duration::from_millis(100)).is_err(),
            "dropped by chaos"
        );
        a.send("b", "twin", body()).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap().kind, "twin");
        assert_eq!(
            b.recv_timeout(Duration::from_secs(1)).unwrap().kind,
            "twin",
            "duplicate copy arrives via the delivery heap"
        );
        let t0 = Instant::now();
        a.send("b", "slow", body()).unwrap();
        b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(15),
            "delayed by chaos: {:?}",
            t0.elapsed()
        );
        assert_eq!(schedule.fault_count(), 3);
        net.clear_chaos();
        a.send("b", "lost", body()).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_secs(1)).unwrap().kind,
            "lost",
            "cleared schedule no longer faults"
        );
    }

    #[test]
    fn anonymous_names_are_unique() {
        let net = Network::new(NetworkConfig::instant());
        let e1 = net.connect_anonymous("tmp");
        let e2 = net.connect_anonymous("tmp");
        assert_ne!(e1.node(), e2.node());
    }

    #[test]
    fn node_names_sorted() {
        let net = Network::new(NetworkConfig::instant());
        let _c = net.connect("c").unwrap();
        let _a = net.connect("a").unwrap();
        let names: Vec<String> = net
            .node_names()
            .iter()
            .map(|n| n.as_str().to_string())
            .collect();
        assert_eq!(names, vec!["a", "c"]);
    }

    #[test]
    fn many_nodes_cross_traffic() {
        let net = Network::new(NetworkConfig::instant());
        let nodes: Vec<Endpoint> = (0..16)
            .map(|i| net.connect(format!("n{i}")).unwrap())
            .collect();
        for (i, ep) in nodes.iter().enumerate() {
            for j in 0..16 {
                if i != j {
                    ep.send(format!("n{j}"), "x", body()).unwrap();
                }
            }
        }
        for ep in &nodes {
            let mut got = 0;
            while ep.try_recv().is_some() {
                got += 1;
            }
            assert_eq!(got, 15);
        }
        assert_eq!(net.metrics().total_sent(), 16 * 15);
    }
}
