//! Per-node traffic accounting.
//!
//! The paper's central architectural claim — peer-to-peer orchestration
//! avoids the "scalability and availability problems of centralised
//! coordination" — is quantified by watching *which node carries how much
//! traffic*. Every send/receive on the fabric increments these counters.

use crate::envelope::NodeId;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Synthetic node name that accumulates the traffic of dropped ephemeral
/// (`~`-suffixed [`connect_anonymous`]) endpoints, so pruning their
/// per-node entries keeps fabric-wide totals conserved. Since the rpc path
/// stopped creating ephemeral endpoints, the only `~` nodes left are
/// auxiliary identities — demo clients, nested composite callers.
/// Contains `~` itself, so filters that exclude ephemeral nodes exclude
/// the aggregate too.
///
/// [`connect_anonymous`]: crate::Transport::connect_anonymous
pub const EPHEMERAL_AGGREGATE: &str = "~ephemeral";

/// Synthetic node name that accumulates the traffic of named nodes that
/// disconnected longer ago than the latest 4096 to do so: their entries are
/// pruned, the totals conserved.
pub const DEPARTED_AGGREGATE: &str = "(departed)";

/// How many disconnected named nodes keep a counters entry of their own for
/// post-run snapshots. Without a bound a process that deploys and undeploys
/// composites under fresh names grows by an entry per name it ever used
/// (13 names, 1.7 KB, per 12-state composite), and every snapshot walks
/// them all.
pub(crate) const RETAINED_DEPARTED: usize = 4096;

/// One transport's per-node counters — the in-process fabric's or a TCP
/// hub's. An entry outlives its node's disconnect so post-run snapshots see
/// the whole experiment, within a bound: a dropped ephemeral (`~`) node
/// folds into [`EPHEMERAL_AGGREGATE`] at once, and of the named nodes the
/// latest [`RETAINED_DEPARTED`] to leave keep their entries while whoever
/// is pushed out folds into [`DEPARTED_AGGREGATE`]. Totals are conserved
/// throughout.
pub(crate) struct CountersTable {
    map: RwLock<HashMap<NodeId, Arc<NodeCounters>>>,
    /// Disconnected named nodes in the order they left, at most `retained`.
    departed: Mutex<VecDeque<NodeId>>,
    retained: usize,
}

impl CountersTable {
    pub(crate) fn new() -> Self {
        Self::retaining(RETAINED_DEPARTED)
    }

    pub(crate) fn retaining(retained: usize) -> Self {
        CountersTable {
            map: RwLock::new(HashMap::new()),
            departed: Mutex::new(VecDeque::new()),
            retained,
        }
    }

    /// `node`'s counters, created on first use. The per-message path: one
    /// read-lock lookup once the entry exists.
    pub(crate) fn for_node(&self, node: &NodeId) -> Arc<NodeCounters> {
        if let Some(c) = self.map.read().get(node) {
            return Arc::clone(c);
        }
        Arc::clone(self.map.write().entry(node.clone()).or_default())
    }

    /// The slot to charge a delivery-time drop to. A node whose entry was
    /// already folded away must not be resurrected (a late message to a
    /// dropped `~` client endpoint, or to a long-gone named node, would
    /// otherwise leak a permanent entry per occurrence); its drops go to
    /// the aggregate it was folded into.
    pub(crate) fn for_delivery_drop(&self, node: &NodeId) -> Arc<NodeCounters> {
        if let Some(c) = self.map.read().get(node) {
            return Arc::clone(c);
        }
        let aggregate = if node.as_str().contains('~') {
            EPHEMERAL_AGGREGATE
        } else {
            DEPARTED_AGGREGATE
        };
        self.for_node(&NodeId::new(aggregate))
    }

    /// Records that `node` disconnected. `still_connected` is asked about
    /// the named node this pushes past the bound, under the table's write
    /// lock: a name that came back is live and keeps its entry. The caller
    /// makes that answer stable against a concurrent connect: the node
    /// table holds its own write lock across the call (the node table
    /// before the counters, as its delivery path takes them).
    pub(crate) fn depart(&self, node: &NodeId, still_connected: impl Fn(&NodeId) -> bool) {
        if node.as_str().contains('~') {
            fold_into(&mut self.map.write(), node, EPHEMERAL_AGGREGATE);
            return;
        }
        let pushed_out = {
            let mut departed = self.departed.lock();
            departed.push_back(node.clone());
            if departed.len() > self.retained {
                departed.pop_front()
            } else {
                None
            }
        };
        if let Some(oldest) = pushed_out {
            let mut map = self.map.write();
            if !still_connected(&oldest) {
                fold_into(&mut map, &oldest, DEPARTED_AGGREGATE);
            }
        }
    }

    /// A point-in-time copy of every entry, aggregates included.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let map = self.map.read();
        let mut nodes: Vec<NodeMetrics> =
            map.iter().map(|(id, c)| c.snapshot(id.clone())).collect();
        nodes.sort_by(|a, b| a.node.cmp(&b.node));
        MetricsSnapshot {
            nodes,
            io: TransportIoStats::default(),
        }
    }

    /// One counter summed over every entry, aggregates included — a
    /// hub-wide series, read without copying the table.
    pub(crate) fn total(&self, counter: impl Fn(&NodeCounters) -> &AtomicU64) -> u64 {
        let map = self.map.read();
        map.values()
            .map(|c| counter(c).load(Ordering::Relaxed))
            .sum()
    }

    /// Zeroes every entry in place (holders of an entry keep counting into
    /// it).
    pub(crate) fn reset(&self) {
        for c in self.map.read().values() {
            c.reset();
        }
    }
}

/// Removes `node`'s entry, adding what it counted to `aggregate`'s.
fn fold_into(counters: &mut HashMap<NodeId, Arc<NodeCounters>>, node: &NodeId, aggregate: &str) {
    if let Some(c) = counters.remove(node) {
        counters
            .entry(NodeId::new(aggregate))
            .or_default()
            .absorb(&c);
    }
}

/// Live counters attached to a node slot. Updated lock-free.
#[derive(Debug, Default)]
pub struct NodeCounters {
    /// Messages sent by this node.
    pub sent: AtomicU64,
    /// Messages delivered to this node.
    pub received: AtomicU64,
    /// Bytes sent (serialized envelope size).
    pub bytes_sent: AtomicU64,
    /// Bytes received.
    pub bytes_received: AtomicU64,
    /// Messages addressed to this node that were dropped (loss, partition,
    /// dead node).
    pub dropped_inbound: AtomicU64,
}

impl NodeCounters {
    pub(crate) fn record_send(&self, bytes: usize) {
        self.sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_receive(&self, bytes: usize) {
        self.received.fetch_add(1, Ordering::Relaxed);
        self.bytes_received
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_drop(&self) {
        self.dropped_inbound.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds another counter set into this one (used to fold a pruned
    /// anonymous endpoint's traffic into a persistent aggregate slot so
    /// fabric-wide totals stay conserved).
    pub(crate) fn absorb(&self, other: &NodeCounters) {
        self.sent
            .fetch_add(other.sent.load(Ordering::Relaxed), Ordering::Relaxed);
        self.received
            .fetch_add(other.received.load(Ordering::Relaxed), Ordering::Relaxed);
        self.bytes_sent
            .fetch_add(other.bytes_sent.load(Ordering::Relaxed), Ordering::Relaxed);
        self.bytes_received.fetch_add(
            other.bytes_received.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        self.dropped_inbound.fetch_add(
            other.dropped_inbound.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
    }

    /// Zeroes all counters in place. Resetting must not swap the `Arc`
    /// holding the counters: receive paths (e.g. TCP reader threads)
    /// capture it once at connect time.
    pub(crate) fn reset(&self) {
        self.sent.store(0, Ordering::Relaxed);
        self.received.store(0, Ordering::Relaxed);
        self.bytes_sent.store(0, Ordering::Relaxed);
        self.bytes_received.store(0, Ordering::Relaxed);
        self.dropped_inbound.store(0, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self, node: NodeId) -> NodeMetrics {
        NodeMetrics {
            node,
            sent: self.sent.load(Ordering::Relaxed),
            received: self.received.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            dropped_inbound: self.dropped_inbound.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one node's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeMetrics {
    /// The node.
    pub node: NodeId,
    /// Messages sent.
    pub sent: u64,
    /// Messages received.
    pub received: u64,
    /// Bytes sent.
    pub bytes_sent: u64,
    /// Bytes received.
    pub bytes_received: u64,
    /// Inbound messages lost before delivery.
    pub dropped_inbound: u64,
}

impl NodeMetrics {
    /// Messages handled (sent + received): the "load" measure used by the
    /// E4 experiment.
    pub fn handled(&self) -> u64 {
        self.sent + self.received
    }

    /// Bytes handled.
    pub fn bytes_handled(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }
}

/// Transport-level data-plane I/O statistics: what the wire actually cost,
/// as opposed to the per-node message accounting in [`NodeMetrics`]. The
/// TCP transport's connection writers count their gather-writes here
/// hub-wide; the in-process fabric reports zeros (it makes no syscalls).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransportIoStats {
    /// Vectored write syscalls issued by connection writers. The
    /// coalescing claim is `frames_sent / writev_calls`: a 64-frame burst
    /// on the old write-per-frame path cost ~128 write syscalls.
    pub writev_calls: u64,
    /// Frames put on the wire (accepted sends that reached a socket).
    pub frames_sent: u64,
    /// Wire bytes written, length prefixes included.
    pub bytes_sent: u64,
    /// Frames accepted by `send` but dropped by a failing connection
    /// writer before reaching the wire (deferred-error semantics: the
    /// failure surfaces on the *next* send to that destination).
    pub frames_dropped: u64,
    /// Largest number of frames gathered into a single batch.
    pub max_batch_frames: u64,
    /// Sends that found their destination queue full and had to block for
    /// space (one per blocked `send`, however long the wait) — the
    /// transport-level backpressure signal to watch for saturation.
    pub backpressure_waits: u64,
}

impl TransportIoStats {
    /// Difference against an earlier snapshot (saturating), for scoping
    /// the counters to one burst or experiment phase. `max_batch_frames`
    /// is a high-water mark, not a counter: the later value carries over.
    pub fn delta_since(&self, earlier: &TransportIoStats) -> TransportIoStats {
        TransportIoStats {
            writev_calls: self.writev_calls.saturating_sub(earlier.writev_calls),
            frames_sent: self.frames_sent.saturating_sub(earlier.frames_sent),
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            frames_dropped: self.frames_dropped.saturating_sub(earlier.frames_dropped),
            max_batch_frames: self.max_batch_frames,
            backpressure_waits: self
                .backpressure_waits
                .saturating_sub(earlier.backpressure_waits),
        }
    }
}

/// A point-in-time copy of the whole fabric's counters.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Per-node metrics, sorted by node name.
    pub nodes: Vec<NodeMetrics>,
    /// Transport-wide data-plane I/O counters (zeros on the in-process
    /// fabric).
    pub io: TransportIoStats,
}

impl MetricsSnapshot {
    /// Metrics for one node.
    pub fn node(&self, name: &str) -> Option<&NodeMetrics> {
        self.nodes.iter().find(|n| n.node.as_str() == name)
    }

    /// Total messages sent across the fabric.
    pub fn total_sent(&self) -> u64 {
        self.nodes.iter().map(|n| n.sent).sum()
    }

    /// Total messages delivered across the fabric.
    pub fn total_received(&self) -> u64 {
        self.nodes.iter().map(|n| n.received).sum()
    }

    /// Total messages lost.
    pub fn total_dropped(&self) -> u64 {
        self.nodes.iter().map(|n| n.dropped_inbound).sum()
    }

    /// The node that handled the most messages — the hotspot the paper's
    /// scalability argument is about.
    pub fn busiest(&self) -> Option<&NodeMetrics> {
        self.nodes.iter().max_by_key(|n| n.handled())
    }

    /// The busiest node restricted to nodes whose name matches a predicate
    /// (e.g. only coordinators, excluding client nodes).
    pub fn busiest_matching(&self, pred: impl Fn(&str) -> bool) -> Option<&NodeMetrics> {
        self.nodes
            .iter()
            .filter(|n| pred(n.node.as_str()))
            .max_by_key(|n| n.handled())
    }

    /// Difference against an earlier snapshot (per node, saturating), for
    /// scoping metrics to one experiment phase.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let before: HashMap<&NodeId, &NodeMetrics> =
            earlier.nodes.iter().map(|n| (&n.node, n)).collect();
        let nodes = self
            .nodes
            .iter()
            .map(|n| {
                let b = before.get(&n.node);
                NodeMetrics {
                    node: n.node.clone(),
                    sent: n.sent - b.map_or(0, |b| b.sent),
                    received: n.received - b.map_or(0, |b| b.received),
                    bytes_sent: n.bytes_sent - b.map_or(0, |b| b.bytes_sent),
                    bytes_received: n.bytes_received - b.map_or(0, |b| b.bytes_received),
                    dropped_inbound: n.dropped_inbound - b.map_or(0, |b| b.dropped_inbound),
                }
            })
            .collect();
        MetricsSnapshot {
            nodes,
            io: self.io.delta_since(&earlier.io),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nm(name: &str, sent: u64, received: u64) -> NodeMetrics {
        NodeMetrics {
            node: NodeId::new(name),
            sent,
            received,
            bytes_sent: sent * 100,
            bytes_received: received * 100,
            dropped_inbound: 0,
        }
    }

    #[test]
    fn totals_and_busiest() {
        let snap = MetricsSnapshot {
            nodes: vec![nm("a", 5, 2), nm("b", 1, 9), nm("c", 0, 0)],
            ..Default::default()
        };
        assert_eq!(snap.total_sent(), 6);
        assert_eq!(snap.total_received(), 11);
        assert_eq!(snap.busiest().unwrap().node.as_str(), "b");
        assert_eq!(snap.node("a").unwrap().handled(), 7);
        assert_eq!(snap.node("a").unwrap().bytes_handled(), 700);
        assert!(snap.node("zzz").is_none());
    }

    #[test]
    fn busiest_matching_filters() {
        let snap = MetricsSnapshot {
            nodes: vec![nm("client", 100, 100), nm("coord.a", 3, 4)],
            ..Default::default()
        };
        let b = snap.busiest_matching(|n| n.starts_with("coord.")).unwrap();
        assert_eq!(b.node.as_str(), "coord.a");
    }

    #[test]
    fn delta_since() {
        let before = MetricsSnapshot {
            nodes: vec![nm("a", 5, 2)],
            io: TransportIoStats {
                writev_calls: 10,
                frames_sent: 40,
                bytes_sent: 4000,
                frames_dropped: 1,
                max_batch_frames: 16,
                backpressure_waits: 2,
            },
        };
        let after = MetricsSnapshot {
            nodes: vec![nm("a", 8, 3), nm("b", 1, 1)],
            io: TransportIoStats {
                writev_calls: 12,
                frames_sent: 104,
                bytes_sent: 10_000,
                frames_dropped: 1,
                max_batch_frames: 33,
                backpressure_waits: 5,
            },
        };
        let d = after.delta_since(&before);
        assert_eq!(d.node("a").unwrap().sent, 3);
        assert_eq!(d.node("a").unwrap().received, 1);
        assert_eq!(d.node("b").unwrap().sent, 1, "new nodes count from zero");
        assert_eq!(d.io.writev_calls, 2);
        assert_eq!(d.io.frames_sent, 64);
        assert_eq!(d.io.bytes_sent, 6000);
        assert_eq!(d.io.frames_dropped, 0);
        assert_eq!(d.io.max_batch_frames, 33, "high-water mark carries over");
        assert_eq!(d.io.backpressure_waits, 3);
    }

    #[test]
    fn table_retains_the_latest_departed_and_folds_the_rest() {
        let table = CountersTable::retaining(2);
        let live = std::cell::RefCell::new(std::collections::HashSet::new());
        let connect = |name: &str| {
            live.borrow_mut().insert(NodeId::new(name));
            table.for_node(&NodeId::new(name)).record_send(10);
        };
        let disconnect = |name: &str| {
            live.borrow_mut().remove(&NodeId::new(name));
            table.depart(&NodeId::new(name), |n| live.borrow().contains(n));
        };
        connect("early");
        disconnect("early");
        connect("early");
        for name in ["n0", "n1", "n2", "n3"] {
            connect(name);
            disconnect(name);
        }
        connect("client~1");
        disconnect("client~1");

        let m = table.snapshot();
        let names: Vec<&str> = m.nodes.iter().map(|n| n.node.as_str()).collect();
        // Retained: the latest two to leave. Kept: `early`, pushed out of the
        // ring first but connected again. Folded: `n0`, `n1`, the `~` node.
        assert_eq!(
            names,
            [DEPARTED_AGGREGATE, "early", "n2", "n3", EPHEMERAL_AGGREGATE]
        );
        assert_eq!(m.node("early").unwrap().sent, 2);
        assert_eq!(m.node(DEPARTED_AGGREGATE).unwrap().sent, 2);
        assert_eq!(m.node(EPHEMERAL_AGGREGATE).unwrap().sent, 1);
        assert_eq!(m.total_sent(), 7, "totals conserved");

        // A late drop for a folded name goes to its aggregate; a retained
        // or live one is charged by name. Neither adds an entry.
        table.for_delivery_drop(&NodeId::new("n0")).record_drop();
        table
            .for_delivery_drop(&NodeId::new("client~1"))
            .record_drop();
        table.for_delivery_drop(&NodeId::new("n3")).record_drop();
        let m = table.snapshot();
        assert_eq!(m.nodes.len(), 5, "no entry resurrected");
        assert_eq!(m.node(DEPARTED_AGGREGATE).unwrap().dropped_inbound, 1);
        assert_eq!(m.node(EPHEMERAL_AGGREGATE).unwrap().dropped_inbound, 1);
        assert_eq!(m.node("n3").unwrap().dropped_inbound, 1);

        table.reset();
        assert_eq!(table.snapshot().total_sent(), 0);
        assert_eq!(table.snapshot().nodes.len(), 5, "reset keeps the entries");
    }

    #[test]
    fn counters_accumulate() {
        let c = NodeCounters::default();
        c.record_send(10);
        c.record_send(20);
        c.record_receive(5);
        c.record_drop();
        let m = c.snapshot(NodeId::new("n"));
        assert_eq!(m.sent, 2);
        assert_eq!(m.bytes_sent, 30);
        assert_eq!(m.received, 1);
        assert_eq!(m.bytes_received, 5);
        assert_eq!(m.dropped_inbound, 1);
    }
}
