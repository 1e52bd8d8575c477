//! # selfserv-discovery
//!
//! Peer discovery & membership for multi-process SELF-SERV deployments:
//! the subsystem that turns a set of isolated [`TcpTransport`] hubs into a
//! self-organizing peer-to-peer network. Before it existed, an operator
//! had to call `register_peer` in both directions for every pair of
//! processes; now **one seed address** bootstraps everything.
//!
//! Each hub runs one [`DiscoveryNode`] — an ordinary
//! [`NodeLogic`](selfserv_runtime::NodeLogic) state machine on the shared
//! executor, named `disc.<hub-id>`, driven by the runtime's timer service.
//! Three mechanisms compose:
//!
//! 1. **Handshake** — on start (and retried each gossip tick until
//!    answered), the node greets every configured seed address with a
//!    `discovery.hello` carrying its full versioned directory snapshot,
//!    sent straight to the address via
//!    [`TcpTransport::send_to_addr`]. The seed merges the snapshot and
//!    answers `discovery.welcome` with its own — after one exchange both
//!    hubs can reach every name the other knows, in both directions.
//! 2. **Gossip anti-entropy** — every `gossip_interval`, the node picks
//!    `gossip_fanout` distinct random known peers and sends each a
//!    `discovery.sync` with its snapshot; the receiver merges it and
//!    answers `discovery.delta` with exactly the rows the sender was
//!    missing (push-pull, `PeerDirectory::respond`). Because the
//!    directory is a `selfserv_net::lww::LwwTable` — last-writer-wins on
//!    per-name version counters, its merge commutative, idempotent, and
//!    associative — any exchange order converges every hub to the same
//!    directory, without coordination.
//! 3. **Failure detection** — peers that stay silent past
//!    `heartbeat_interval` are probed with `discovery.ping`; silence past
//!    `suspicion_timeout` marks the peer **suspected** (a local,
//!    unversioned overlay — selection policies deprioritize its members
//!    but traffic still routes); silence past `eviction_timeout`
//!    **evicts** it: every name it owned is tombstoned with a bumped
//!    version, so the eviction gossips to the whole network. Every
//!    transition surfaces as a [`LivenessEvent`] — kept on the handle,
//!    and mirrored to a monitor node when
//!    [`DiscoveryConfig::monitor`] names one.
//!
//! A hub that was evicted by mistake (e.g. a long pause) recovers on its
//! own: incoming tombstones for names whose endpoints are alive locally
//! are refused and re-asserted with a higher version (the directory's
//! self-defence policy), and the corrected entries out-gossip the stale
//! tombstones. A hub whose sweep evicts its *last* peer would have no one
//! left to gossip with, so it re-arms its seeds — the configured ones plus
//! the last-known addresses of the hubs it just evicted — and greets them
//! every round until one answers: a partition that heals re-merges.
//!
//! ```no_run
//! use selfserv_discovery::{DiscoveryConfig, PeerDiscovery};
//! use selfserv_net::TcpTransport;
//! use selfserv_runtime::Executor;
//!
//! // Process 1: nothing to seed — just run discovery and publish the addr.
//! let exec_a = Executor::new(2);
//! let hub_a = TcpTransport::new();
//! let disc_a = PeerDiscovery::spawn_on(&hub_a, &exec_a.handle(), DiscoveryConfig::default())
//!     .unwrap();
//! let seed = disc_a.seed_addr(); // hand this one address to process 2
//!
//! // Process 2: seed with that one address; directories converge.
//! let exec_b = Executor::new(2);
//! let hub_b = TcpTransport::new();
//! let config = DiscoveryConfig::default().with_seed(seed);
//! let disc_b = PeerDiscovery::spawn_on(&hub_b, &exec_b.handle(), config).unwrap();
//! ```

mod node;

pub use node::{disc_node_name, kinds, DiscoveryNode};

use parking_lot::Mutex;
use selfserv_net::{
    ConnectError, GossipPayloads, LivenessEvent, LivenessProbe, NodeId, PeerDirectory, TcpTransport,
};
use selfserv_obs::Registry;
use selfserv_runtime::{ExecutorHandle, NodeHandle};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tunables of one hub's discovery node. The defaults suit human-scale
/// deployments (sub-second convergence, seconds-scale failure detection);
/// tests shrink everything.
///
/// The timeouts form a ladder: a peer silent past `heartbeat_interval` is
/// probed, past `suspicion_timeout` it is suspected (deprioritized), past
/// `eviction_timeout` it is evicted (tombstoned and gossiped). Configure
/// them strictly increasing.
#[derive(Debug, Clone)]
pub struct DiscoveryConfig {
    /// Listener addresses of hubs to greet at startup (each retried every
    /// gossip tick until it answers). One reachable seed suffices to join
    /// the network — everything else arrives by gossip.
    pub seeds: Vec<SocketAddr>,
    /// How often the node runs a gossip round.
    pub gossip_interval: Duration,
    /// Distinct random peers contacted per gossip round. Higher fan-out
    /// converges the network in fewer rounds (infection reaches `fanout`×
    /// as many hubs per tick) at `fanout`× the message cost; values are
    /// clamped to at least 1 and at most the known-peer count.
    pub gossip_fanout: usize,
    /// Silence threshold after which a peer is probed with a ping.
    pub heartbeat_interval: Duration,
    /// Silence threshold after which a peer is suspected.
    pub suspicion_timeout: Duration,
    /// Silence threshold after which a peer is evicted.
    pub eviction_timeout: Duration,
    /// When set, every liveness transition is also sent to this node as a
    /// fire-and-forget [`selfserv_net::LIVENESS_KIND`] envelope (the
    /// execution monitor ingests these).
    pub monitor: Option<NodeId>,
    /// Seed for the gossip-partner RNG; defaults to the hub id, so runs
    /// are deterministic per hub without being synchronized across hubs.
    pub rng_seed: Option<u64>,
    /// Replicated datasets piggybacking on this hub's discovery exchange
    /// (e.g. community membership tables — see
    /// [`selfserv_net::GossipPayload`]). Snapshots ride every
    /// `hello`/`welcome`/`sync` this node sends; fresher rows the peer was
    /// missing come back in the `delta` answer. The registry is shared:
    /// keep a clone and register payloads after spawning — they are picked
    /// up on the next round.
    pub payloads: GossipPayloads,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            seeds: Vec::new(),
            gossip_interval: Duration::from_millis(250),
            gossip_fanout: 2,
            heartbeat_interval: Duration::from_millis(500),
            suspicion_timeout: Duration::from_secs(2),
            eviction_timeout: Duration::from_secs(6),
            monitor: None,
            rng_seed: None,
            payloads: GossipPayloads::new(),
        }
    }
}

impl DiscoveryConfig {
    /// Builder: adds one seed address.
    pub fn with_seed(mut self, seed: SocketAddr) -> Self {
        self.seeds.push(seed);
        self
    }

    /// Builder: report liveness transitions to a monitor node.
    pub fn with_monitor(mut self, monitor: impl Into<NodeId>) -> Self {
        self.monitor = Some(monitor.into());
        self
    }

    /// Builder: attach a shared gossip-payload registry to this hub's
    /// exchanges.
    pub fn with_payloads(mut self, payloads: GossipPayloads) -> Self {
        self.payloads = payloads;
        self
    }

    /// Builder: a uniformly scaled timeout ladder for tests — gossip every
    /// `unit`, probe after 2×, suspect after 6×, evict after 12×.
    pub fn with_cadence(mut self, unit: Duration) -> Self {
        self.gossip_interval = unit;
        self.heartbeat_interval = unit * 2;
        self.suspicion_timeout = unit * 6;
        self.eviction_timeout = unit * 12;
        self
    }
}

/// Bounded in-memory log of liveness transitions shared between the
/// discovery node and its handle.
pub(crate) struct EventLog {
    events: Mutex<VecDeque<LivenessEvent>>,
}

const EVENT_LOG_CAPACITY: usize = 1024;

impl EventLog {
    fn new() -> Arc<EventLog> {
        Arc::new(EventLog {
            events: Mutex::new(VecDeque::new()),
        })
    }

    pub(crate) fn push(&self, event: LivenessEvent) {
        let mut events = self.events.lock();
        if events.len() == EVENT_LOG_CAPACITY {
            events.pop_front();
        }
        events.push_back(event);
    }

    fn snapshot(&self) -> Vec<LivenessEvent> {
        self.events.lock().iter().cloned().collect()
    }
}

/// Protocol activity counters shared between a discovery node and its
/// handle — the node bumps them from its state machine, scrapes read them
/// via [`DiscoveryHandle::register_metrics`].
#[derive(Default)]
pub struct DiscoveryStats {
    gossip_rounds: AtomicU64,
    sweeps: AtomicU64,
    suspicions: AtomicU64,
    evictions: AtomicU64,
    conflicts: AtomicU64,
}

impl DiscoveryStats {
    pub(crate) fn inc_gossip(&self) {
        self.gossip_rounds.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn inc_sweep(&self) {
        self.sweeps.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn inc_suspicion(&self) {
        self.suspicions.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn inc_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn inc_conflict(&self) {
        self.conflicts.fetch_add(1, Ordering::Relaxed);
    }

    /// Gossip rounds run (timer firings plus injected ticks).
    pub fn gossip_rounds(&self) -> u64 {
        self.gossip_rounds.load(Ordering::Relaxed)
    }
    /// Failure-detection sweeps run.
    pub fn sweeps(&self) -> u64 {
        self.sweeps.load(Ordering::Relaxed)
    }
    /// Peers marked suspected.
    pub fn suspicions(&self) -> u64 {
        self.suspicions.load(Ordering::Relaxed)
    }
    /// Peers evicted.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
    /// Cross-hub name conflicts surfaced.
    pub fn conflicts(&self) -> u64 {
        self.conflicts.load(Ordering::Relaxed)
    }
}

/// Spawner for a hub's discovery node.
pub struct PeerDiscovery;

impl PeerDiscovery {
    /// Spawns the hub's discovery node on `exec`.
    pub fn spawn_on(
        hub: &TcpTransport,
        exec: &ExecutorHandle,
        config: DiscoveryConfig,
    ) -> Result<DiscoveryHandle, ConnectError> {
        let name = disc_node_name(hub.hub_id());
        let endpoint = selfserv_net::Transport::connect(hub, name)?;
        let addr = hub
            .addr_of(endpoint.node().as_str())
            .expect("a freshly connected node has its hub's address");
        // Seeds greet this hub by address: their hellos, and the injected
        // ticks, are for this node.
        hub.set_unaddressed_recipient(endpoint.node());
        let events = EventLog::new();
        let stats = Arc::new(DiscoveryStats::default());
        let logic =
            DiscoveryNode::new(hub.clone(), config, Arc::clone(&events), Arc::clone(&stats));
        Ok(DiscoveryHandle {
            addr,
            hub: hub.clone(),
            directory: hub.directory(),
            events,
            stats,
            handle: exec.spawn_node(endpoint, logic),
        })
    }
}

/// Handle to a running discovery node: the hub's seed address, its
/// directory, the liveness log, and shutdown.
pub struct DiscoveryHandle {
    addr: SocketAddr,
    hub: TcpTransport,
    directory: PeerDirectory,
    events: Arc<EventLog>,
    stats: Arc<DiscoveryStats>,
    handle: NodeHandle,
}

impl DiscoveryHandle {
    /// The discovery node's name (`disc.<hub-id>`).
    pub fn node(&self) -> &NodeId {
        self.handle.node()
    }

    /// The address other hubs seed with to join this one: the hub's
    /// listener address, which every name connected on the hub shares.
    pub fn seed_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hub's shared directory (same object the transport routes by).
    pub fn directory(&self) -> &PeerDirectory {
        &self.directory
    }

    /// The directory as a liveness probe, ready to hand to
    /// `CommunityServerConfig::liveness`.
    pub fn liveness(&self) -> Arc<dyn LivenessProbe> {
        Arc::new(self.directory.clone())
    }

    /// Every liveness transition observed so far (oldest first, bounded).
    pub fn events(&self) -> Vec<LivenessEvent> {
        self.events.snapshot()
    }

    /// Protocol activity counters (gossip rounds, sweeps, suspicions,
    /// evictions, conflicts).
    pub fn stats(&self) -> &Arc<DiscoveryStats> {
        &self.stats
    }

    /// Registers this hub's discovery metrics: protocol counters plus a
    /// directory-size gauge sampled at scrape time.
    pub fn register_metrics(&self, registry: &Registry, labels: &[(&str, &str)]) {
        type StatReader = fn(&DiscoveryStats) -> u64;
        let series: [(&str, &str, StatReader); 5] = [
            (
                "selfserv_discovery_gossip_rounds_total",
                "Gossip rounds run (timer firings plus injected ticks).",
                DiscoveryStats::gossip_rounds,
            ),
            (
                "selfserv_discovery_sweeps_total",
                "Failure-detection sweeps run.",
                DiscoveryStats::sweeps,
            ),
            (
                "selfserv_discovery_suspicions_total",
                "Peers marked suspected after silence past the suspicion timeout.",
                DiscoveryStats::suspicions,
            ),
            (
                "selfserv_discovery_evictions_total",
                "Peers evicted (names tombstoned and gossiped).",
                DiscoveryStats::evictions,
            ),
            (
                "selfserv_discovery_conflicts_total",
                "Cross-hub name conflicts surfaced by the sweep.",
                DiscoveryStats::conflicts,
            ),
        ];
        for (name, help, read) in series {
            let stats = Arc::clone(&self.stats);
            registry.counter_fn(name, help, labels, move || read(&stats));
        }
        let directory = self.directory.clone();
        registry.gauge_fn(
            "selfserv_discovery_directory_size",
            "Entries in the hub's peer directory (tombstones included).",
            labels,
            move || directory.len() as f64,
        );
    }

    /// Injects one deterministic discovery tick: the node runs one gossip
    /// round and one failure-detection sweep as soon as it processes the
    /// message, exactly as if both timers had fired — without touching
    /// their arming. Chaos and convergence tests use this to *step* the
    /// protocol at a controlled cadence instead of waiting out wall-clock
    /// intervals. The tick travels through the hub's own listener like
    /// any frame sent by address, so it also obeys installed fault
    /// schedules.
    pub fn inject_tick(&self) -> std::io::Result<()> {
        self.hub
            .send_to_addr(
                self.addr,
                self.node(),
                node::kinds::TICK,
                selfserv_xml::Element::new("tick"),
            )
            .map(|_| ())
    }

    /// Polls until `name` is routable in this hub's directory (gossip or
    /// handshake has delivered it). True on success, false on timeout.
    pub fn wait_until_bound(&self, name: &str, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.directory.is_bound(name) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Stops the discovery node (its name tombstones locally; peers will
    /// detect the silence and evict this hub's names on their side).
    pub fn stop(self) {
        self.handle.stop();
    }
}

impl Drop for DiscoveryHandle {
    fn drop(&mut self) {
        self.handle.stop();
    }
}

impl std::fmt::Debug for DiscoveryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiscoveryHandle")
            .field("node", self.node())
            .field("seed_addr", &self.addr)
            .finish()
    }
}

#[cfg(test)]
mod tests;
