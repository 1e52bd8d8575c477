//! The transport seam: every SELF-SERV component talks to its peers
//! through the object-safe [`Transport`] trait, never through a concrete
//! network implementation.
//!
//! The original platform's components exchanged XML documents "through
//! Java sockets" — nothing in the coordination protocol depends on *which*
//! wire carries the envelopes. This module makes that explicit:
//!
//! * [`Transport`] — connect named nodes, send as a node, inspect metrics;
//! * [`Endpoint`] — a connected node: send/receive/reply/rpc, identical
//!   API over every transport;
//! * [`NodeSender`] — a cloneable send-only handle for worker threads;
//! * [`TransportHandle`] — a cheap owned `Arc<dyn Transport>`.
//!
//! Request/response ([`Endpoint::rpc`] / [`NodeSender::rpc`]) rides the
//! caller's *persistent* endpoint: each rpc registers a one-shot
//! continuation under its request id in the endpoint's [`ReplyDemux`]
//! before the request leaves, the request carries the caller's own node
//! name as the reply address, and the transport's delivery path hands the
//! correlated reply straight to that continuation. A blocking rpc's
//! continuation feeds the channel it waits on; `selfserv-runtime`'s
//! `rpc_async` registers one that resumes a node state machine, so no
//! thread is parked for the round trip. Concurrent rpcs from one node
//! never cross (each id has its own continuation), late replies to
//! finished rpcs are discarded, and uncorrelated traffic — plus correlated
//! traffic nobody rpc'd for, e.g. a component's hand-rolled request/reply
//! bookkeeping — still flows to [`Endpoint::recv`]. No per-call endpoints,
//! listeners, or threads are created on this path on any transport.
//!
//! A connected node exists once, whatever the wire: every transport
//! enters its nodes in the crate-private node table, which claims the
//! name, holds the mailbox and counters, delivers, and takes the node out
//! when its [`Endpoint`] drops. A transport only says where a name is
//! claimed and how an envelope travels.
//!
//! Two first-class implementations ship with this crate: the in-process
//! simulation fabric ([`crate::Network`]) and real TCP sockets
//! ([`crate::tcp::TcpTransport`]). Coordinators, wrappers, communities,
//! registries, and the centralized baseline are all written against this
//! seam, so the same composite service executes unchanged over either.

use crate::envelope::{Envelope, MessageId, NodeId};
use crate::metrics::{CountersTable, MetricsSnapshot, NodeCounters};
use parking_lot::{Mutex, RwLock};
use selfserv_xml::Element;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Errors returned when handing a message to a transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendError {
    /// The destination is not connected to this transport.
    UnknownNode(NodeId),
    /// The *sender* has been killed by failure injection (fabric only).
    SenderDead(NodeId),
    /// The transport failed to carry the message (e.g. a TCP connection
    /// could not be established or broke mid-frame).
    Transport(String),
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::UnknownNode(n) => write!(f, "unknown node '{n}'"),
            SendError::SenderDead(n) => write!(f, "sender '{n}' has been killed"),
            SendError::Transport(reason) => write!(f, "transport error: {reason}"),
        }
    }
}

impl std::error::Error for SendError {}

/// Errors returned by [`Transport::connect`]: why a node could not come up
/// under the requested name. Distinguishes "the name is in use" (retry
/// under another name, or a duplicate deployment) from "the transport
/// could not provision the endpoint" (an operational failure carrying the
/// underlying [`std::io::Error`]).
#[derive(Debug)]
pub enum ConnectError {
    /// The name is already connected on this transport (or registered to a
    /// remote peer).
    NameTaken(NodeId),
    /// Names containing `~` are reserved for transport-generated
    /// ephemeral endpoints and cannot be claimed by components.
    ReservedName(NodeId),
    /// The transport failed to provision the endpoint — e.g. a TCP hub's
    /// listener could not bind at its first connect. The name was *not*
    /// claimed.
    Bind(NodeId, std::io::Error),
}

impl ConnectError {
    /// The node name the connect attempt was for.
    pub fn node(&self) -> &NodeId {
        match self {
            ConnectError::NameTaken(n)
            | ConnectError::ReservedName(n)
            | ConnectError::Bind(n, _) => n,
        }
    }

    /// True when the failure is a name collision (as opposed to an
    /// operational transport failure).
    pub fn is_name_taken(&self) -> bool {
        matches!(self, ConnectError::NameTaken(_))
    }
}

impl fmt::Display for ConnectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConnectError::NameTaken(n) => write!(f, "node name '{n}' is already connected"),
            ConnectError::ReservedName(n) => {
                write!(f, "node name '{n}' is reserved ('~' names are ephemeral)")
            }
            ConnectError::Bind(n, e) => {
                write!(f, "could not provision an endpoint for node '{n}': {e}")
            }
        }
    }
}

impl std::error::Error for ConnectError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConnectError::Bind(_, e) => Some(e),
            _ => None,
        }
    }
}

/// Errors returned by the receive family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No message arrived within the timeout.
    Timeout,
    /// The transport was shut down.
    Disconnected,
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Timeout => write!(f, "receive timed out"),
            RecvError::Disconnected => write!(f, "endpoint disconnected"),
        }
    }
}

impl std::error::Error for RecvError {}

/// Errors returned by [`Endpoint::rpc`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// The request could not be sent.
    Send(SendError),
    /// No correlated reply arrived in time (request or reply may have been
    /// lost, the responder may be dead).
    Timeout,
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Send(e) => write!(f, "rpc send failed: {e}"),
            RpcError::Timeout => write!(f, "rpc timed out waiting for reply"),
        }
    }
}

impl std::error::Error for RpcError {}

/// A message substrate carrying [`Envelope`]s between named nodes.
///
/// Object-safe by design: platform components hold `&dyn Transport` or a
/// [`TransportHandle`] and never name a concrete implementation.
pub trait Transport: Send + Sync {
    /// Connects a named node, returning its endpoint. See [`ConnectError`]
    /// for the failure modes (name collision vs. provisioning failure).
    fn connect(&self, name: NodeId) -> Result<Endpoint, ConnectError>;

    /// Connects a node under a generated unique name `prefix~<n>`.
    ///
    /// This provisions a full endpoint (a mailbox, a reply demultiplexer
    /// and a directory binding), so it belongs on setup and control paths
    /// only — auxiliary identities such as demo clients or nested
    /// composite callers. The rpc hot path does **not** use it: replies
    /// demultiplex on the caller's persistent endpoint.
    fn connect_anonymous(&self, prefix: &str) -> Endpoint;

    /// True when a node of this name is currently connected.
    fn is_connected(&self, name: &str) -> bool;

    /// Names of all currently connected nodes, sorted.
    fn node_names(&self) -> Vec<NodeId>;

    /// Reserves a transport-unique message id without sending anything.
    ///
    /// The rpc path pairs this with [`Transport::send_prepared`]: the
    /// reply continuation must be registered under the request id *before*
    /// the request reaches the wire, or a fast responder's reply could race
    /// past the registration and be misrouted.
    fn next_message_id(&self) -> MessageId;

    /// Sends a message under a pre-reserved id (see
    /// [`Transport::next_message_id`]) *as* `from`, without holding
    /// `from`'s endpoint. Per-node metrics stay attributable to `from`.
    fn send_prepared(
        &self,
        id: MessageId,
        from: &NodeId,
        to: NodeId,
        kind: String,
        body: Element,
        correlation: Option<MessageId>,
    ) -> Result<(), SendError>;

    /// Sends a message *as* `from` without holding `from`'s endpoint
    /// (backs [`NodeSender`]; per-node metrics stay attributable).
    fn send_as(
        &self,
        from: &NodeId,
        to: NodeId,
        kind: String,
        body: Element,
        correlation: Option<MessageId>,
    ) -> Result<MessageId, SendError> {
        let id = self.next_message_id();
        self.send_prepared(id, from, to, kind, body, correlation)?;
        Ok(id)
    }

    /// Snapshot of per-node traffic counters.
    fn metrics(&self) -> MetricsSnapshot;

    /// Resets all traffic counters to zero.
    fn reset_metrics(&self);

    /// An owned, cheaply clonable handle to this transport.
    fn handle(&self) -> TransportHandle;
}

/// An owned, clonable `Arc<dyn Transport>`. Components store this in their
/// spawn handles; `Deref` exposes the full [`Transport`] API.
#[derive(Clone)]
pub struct TransportHandle(Arc<dyn Transport>);

impl TransportHandle {
    /// Wraps a transport implementation.
    pub fn new(transport: impl Transport + 'static) -> Self {
        TransportHandle(Arc::new(transport))
    }
}

impl Deref for TransportHandle {
    type Target = dyn Transport;
    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

impl fmt::Debug for TransportHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("TransportHandle(..)")
    }
}

/// How many retired rpc ids each endpoint remembers. A late or duplicate
/// reply to any of the most recent `STALE_CAPACITY` finished rpcs is
/// recognized and discarded instead of leaking into [`Endpoint::recv`].
const STALE_CAPACITY: usize = 1024;

/// A one-shot continuation invoked with the correlated reply of an rpc
/// (see [`ReplyDemux::register_handler`]). Runs on the transport's
/// delivery path, so it must be cheap and must never block.
type ReplyHandler = Box<dyn FnOnce(Envelope) + Send>;

/// Per-endpoint rpc reply demultiplexer: one map from in-flight request
/// ids to one-shot continuations.
///
/// Every rpc registers its continuation here before the request is handed
/// to the transport — a blocking [`Endpoint::rpc`] one that feeds the
/// channel it waits on, a node runtime's thread-free rpc one that
/// re-enters its scheduler (see [`ReplyDemux::register_handler`]). The
/// transport's delivery path calls `ReplyDemux::route` (via the
/// crate-internal `Inbox::deliver`) on every inbound envelope for the
/// node:
///
/// * a reply correlated to a **registered** continuation consumes it and
///   runs it — concurrent rpcs from one node can never receive each
///   other's reply;
/// * a reply correlated to a **retired** rpc (answered, timed out or
///   cancelled) is discarded — a late or duplicate reply cannot poison
///   the next rpc or surface as phantom traffic in `recv`;
/// * everything else — uncorrelated messages, and correlated messages
///   whose id was never registered (components doing their own
///   request/reply bookkeeping over `send`/`recv`) — flows to the mailbox.
///
/// The table is shared between the endpoint and its [`NodeSender`] clones,
/// so worker threads rpc as the owning node with no per-call setup.
pub struct ReplyDemux {
    /// In-flight rpc request ids → one-shot continuations.
    handlers: Mutex<HashMap<MessageId, ReplyHandler>>,
    /// Recently retired rpc ids, bounded by [`STALE_CAPACITY`].
    stale: Mutex<StaleRing>,
    /// Transport-wide count of replies discarded as stale (late or
    /// duplicate replies to retired rpcs), shared by every demux of one
    /// transport so the hub can expose a single duplicates signal.
    stale_discards: Arc<AtomicU64>,
    /// Invoked after every envelope queued on the owning endpoint's mailbox
    /// (never for a reply consumed by a continuation). Installed via
    /// [`Endpoint::set_mailbox_waker`] by node runtimes that schedule a
    /// state machine instead of blocking a thread in `recv`.
    waker: Mutex<Option<Arc<dyn Fn() + Send + Sync>>>,
}

#[derive(Default)]
struct StaleRing {
    order: VecDeque<MessageId>,
    set: HashSet<MessageId>,
}

impl ReplyDemux {
    fn new(stale_discards: Arc<AtomicU64>) -> Arc<ReplyDemux> {
        Arc::new(ReplyDemux {
            handlers: Mutex::new(HashMap::new()),
            stale: Mutex::new(StaleRing::default()),
            stale_discards,
            waker: Mutex::new(None),
        })
    }

    /// Runs the installed mailbox waker, if any. The waker is cloned out of
    /// the lock before the call so a waker that re-enters the endpoint
    /// (e.g. to query `pending`) cannot deadlock against an install.
    fn wake_mailbox(&self) {
        let waker = self.waker.lock().clone();
        if let Some(waker) = waker {
            waker();
        }
    }

    /// Registers a one-shot continuation for the reply correlated to `id`:
    /// when it arrives, the delivery path retires the id and runs `handler`
    /// with the reply instead of queueing anything.
    ///
    /// Both rpc shapes ride this: [`Endpoint::rpc`] registers a handler
    /// that feeds the channel it blocks on, and a node runtime registers
    /// one that re-enters its scheduler (e.g. enqueue a completion event
    /// and wake the node) and returns at once — the hook
    /// `selfserv-runtime`'s `rpc_async` uses to park no thread for the
    /// round trip. Like the mailbox waker, the handler runs on the
    /// transport's delivery path (fabric dispatch or a TCP reader thread):
    /// it must be cheap and must never block. Register **before** the
    /// request is sent, so even an instantly delivered reply finds it.
    pub fn register_handler(&self, id: MessageId, handler: impl FnOnce(Envelope) + Send + 'static) {
        self.handlers.lock().insert(id, Box::new(handler));
    }

    /// Cancels the continuation registered for `id` (timeout or owner
    /// shutdown). Returns `true` when the handler was still pending — the
    /// caller now owns the failure path (e.g. deliver a timeout
    /// completion) — and `false` when the reply already won the race and
    /// the handler ran (or was never registered).
    ///
    /// Tombstones the id *before* removing the handler: a reply delivered
    /// concurrently either still finds the handler (and wins — this
    /// returns `false`) or finds the tombstone; it can never leak into the
    /// mailbox.
    pub fn cancel_handler(&self, id: MessageId) -> bool {
        self.tombstone(id);
        self.handlers.lock().remove(&id).is_some()
    }

    /// Adds `id` to the bounded stale ring (idempotent): later replies
    /// carrying it are discarded rather than delivered anywhere.
    fn tombstone(&self, id: MessageId) {
        let mut stale = self.stale.lock();
        if stale.set.insert(id) {
            stale.order.push_back(id);
            if stale.order.len() > STALE_CAPACITY {
                if let Some(oldest) = stale.order.pop_front() {
                    stale.set.remove(&oldest);
                }
            }
        }
    }

    /// Routes one inbound envelope: a correlated reply runs its
    /// continuation, else is discarded as stale; what is left is returned
    /// to be queued on the mailbox.
    pub(crate) fn route(&self, env: Envelope) -> Option<Envelope> {
        let Some(corr) = env.correlation else {
            return Some(env);
        };
        let mut handlers = self.handlers.lock();
        if let Some(handler) = handlers.remove(&corr) {
            // Retire before the handler leaves the map's lock, so a
            // duplicate reply racing in behind this one finds the
            // tombstone. The handler runs outside every demux lock: it may
            // re-enter the endpoint.
            self.tombstone(corr);
            drop(handlers);
            handler(env);
            return None;
        }
        drop(handlers);
        if self.stale.lock().set.contains(&corr) {
            self.stale_discards.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        Some(env)
    }

    /// Number of in-flight rpcs, blocking and thread-free alike (for tests
    /// and debugging).
    pub fn pending_rpcs(&self) -> usize {
        self.handlers.lock().len()
    }
}

/// Crate-internal delivery target: a node's mailbox sender plus its reply
/// demultiplexer. Every envelope delivered to a node goes through
/// [`Inbox::deliver`], which is what makes rpc replies reach their
/// continuation instead of the mailbox.
struct Inbox {
    tx: crossbeam::channel::Sender<Envelope>,
    demux: Arc<ReplyDemux>,
}

impl Inbox {
    /// Delivers one envelope, demultiplexing rpc replies. A mailbox enqueue
    /// runs the endpoint's mailbox waker (if installed) so
    /// executor-scheduled nodes learn about the arrival without polling.
    fn deliver(&self, env: Envelope) {
        if let Some(env) = self.demux.route(env) {
            // The receiver is the endpoint's, which leaves the node table
            // before it drops: the send cannot fail while the entry stands.
            let _ = self.tx.send(env);
            self.demux.wake_mailbox();
        }
    }
}

/// A node connected on a transport, as its delivery path sees it.
struct LocalNode {
    inbox: Inbox,
    counters: Arc<NodeCounters>,
}

/// Where a transport keeps its connected nodes: the [`NodeTable`] plus the
/// transport's own steps for claiming and releasing a name. A fabric node
/// has nothing to claim, and its `released` step clears a kill left on its
/// name; a TCP hub's nodes live on its receive side, whose claim binds the
/// name in the hub's peer directory.
pub(crate) trait NodeHome: Send + Sync {
    /// The table the nodes are entered in.
    fn table(&self) -> &NodeTable;

    /// Claims `name` for a connecting node. Runs under the table's write
    /// lock, so the claim and the table entry appear together.
    fn claim(&self, _name: &NodeId) -> Result<(), ConnectError> {
        Ok(())
    }

    /// Releases a departing node's name. Runs under the table's write
    /// lock, so a reconnect under the same name cannot slip in between.
    fn release(&self, _name: &NodeId) {}

    /// Runs once a departed node's entry is gone and the table's lock is
    /// released: the step for what the transport keeps about a name under
    /// a lock of its own, which must never be taken inside the table's.
    fn released(&self, _name: &NodeId) {}
}

/// The nodes connected on one transport — the fabric, or one TCP hub — and
/// what they share: per-node counters, the message and anonymous-name ids,
/// and the stale-reply count. Both transports connect, deliver, and
/// disconnect through it, so a node's life is written once; where a name
/// is claimed is the [`NodeHome`]'s business.
///
/// **One delivery discipline.** A delivery records the receive and
/// enqueues under the table's read lock, and connect and disconnect take
/// its write lock. So an entry cannot leave between lookup and enqueue,
/// and a receiver cannot consume a message, disconnect, and fold its
/// counters (a `~` node's fold at once) before the receive is counted:
/// every message addressed here is counted exactly once, as received or as
/// dropped. The lock order is the table before the counters, on delivery
/// and on disconnect alike.
pub(crate) struct NodeTable {
    nodes: RwLock<HashMap<NodeId, LocalNode>>,
    /// Per-node traffic counters; they persist after disconnect within the
    /// table's bound.
    pub(crate) counters: CountersTable,
    next_msg: AtomicU64,
    next_anon: AtomicU64,
    /// Replies discarded as stale (late or duplicate) by any endpoint's
    /// demux — the transport's duplicate-traffic signal.
    stale_replies: Arc<AtomicU64>,
}

impl NodeTable {
    pub(crate) fn new(counters: CountersTable) -> Self {
        NodeTable {
            nodes: RwLock::new(HashMap::new()),
            counters,
            next_msg: AtomicU64::new(1),
            next_anon: AtomicU64::new(1),
            stale_replies: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Reserves a transport-unique message id.
    pub(crate) fn next_message_id(&self) -> MessageId {
        MessageId(self.next_msg.fetch_add(1, Ordering::Relaxed))
    }

    /// Replies discarded as stale since the transport started.
    pub(crate) fn stale_replies(&self) -> u64 {
        self.stale_replies.load(Ordering::Relaxed)
    }

    /// True when `name` is connected here.
    pub(crate) fn contains(&self, name: &NodeId) -> bool {
        self.nodes.read().contains_key(name)
    }

    /// The names connected here, sorted.
    pub(crate) fn names(&self) -> Vec<NodeId> {
        let mut names: Vec<NodeId> = self.nodes.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Connects a node under `name` at `home`. Names containing `~` are
    /// reserved for generated ephemeral endpoints and rejected: their
    /// counters fold away on drop, which would silently lose a real node's
    /// metrics.
    pub(crate) fn connect(
        home: Arc<dyn NodeHome>,
        transport: TransportHandle,
        name: NodeId,
    ) -> Result<Endpoint, ConnectError> {
        if name.as_str().contains('~') {
            return Err(ConnectError::ReservedName(name));
        }
        Self::attach(home, transport, name)
    }

    /// Connects a node under a generated name `prefix~<n>` — or, with a
    /// `tag`, `prefix~<tag>-<n>` — skipping any name already claimed.
    pub(crate) fn connect_anonymous(
        home: Arc<dyn NodeHome>,
        transport: TransportHandle,
        prefix: &str,
        tag: Option<&str>,
    ) -> Endpoint {
        loop {
            let n = home.table().next_anon.fetch_add(1, Ordering::Relaxed);
            let name = match tag {
                Some(tag) => format!("{prefix}~{tag}-{n}"),
                None => format!("{prefix}~{n}"),
            };
            if let Ok(endpoint) = Self::attach(Arc::clone(&home), transport.clone(), name.into()) {
                return endpoint;
            }
        }
    }

    fn attach(
        home: Arc<dyn NodeHome>,
        transport: TransportHandle,
        name: NodeId,
    ) -> Result<Endpoint, ConnectError> {
        let table = home.table();
        let (tx, mailbox) = crossbeam::channel::unbounded();
        let demux = ReplyDemux::new(Arc::clone(&table.stale_replies));
        {
            let mut nodes = table.nodes.write();
            if nodes.contains_key(&name) {
                return Err(ConnectError::NameTaken(name));
            }
            home.claim(&name)?;
            let node = LocalNode {
                inbox: Inbox {
                    tx,
                    demux: Arc::clone(&demux),
                },
                counters: table.counters.for_node(&name),
            };
            nodes.insert(name.clone(), node);
        }
        Ok(Endpoint {
            sender: NodeSender {
                node: name,
                transport,
                demux,
            },
            mailbox,
            home,
        })
    }

    /// Takes a departing node out: removes its entry, runs the home's
    /// release step, and folds its counters — all under the write lock, so
    /// no name can connect between the counters table asking whether a
    /// name is connected and acting on the answer. The home's `released`
    /// step follows, outside the lock.
    fn detach(home: &dyn NodeHome, name: &NodeId) {
        let table = home.table();
        {
            let mut nodes = table.nodes.write();
            nodes.remove(name);
            home.release(name);
            table.counters.depart(name, |name| nodes.contains_key(name));
        }
        home.released(name);
    }

    /// Delivers one envelope of `size` wire bytes to the node connected
    /// under `to` (see the delivery discipline above). A name not connected
    /// here is charged a drop.
    pub(crate) fn deliver(&self, to: &NodeId, envelope: Envelope, size: usize) {
        let nodes = self.nodes.read();
        match nodes.get(to) {
            Some(node) => {
                node.counters.record_receive(size);
                node.inbox.deliver(envelope);
            }
            None => {
                drop(nodes);
                self.counters.for_delivery_drop(to).record_drop();
            }
        }
    }
}

/// A connected node: the handle through which a SELF-SERV component sends
/// and receives envelopes. Transport-agnostic — obtained from
/// [`Transport::connect`] on any implementation. Dropping it disconnects
/// the node and frees its name.
pub struct Endpoint {
    sender: NodeSender,
    mailbox: crossbeam::channel::Receiver<Envelope>,
    /// Where the node is entered; the endpoint's drop takes it out there.
    home: Arc<dyn NodeHome>,
}

// Components share one endpoint across threads (e.g. a client that rpcs
// from several callers and collects on the same mailbox).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Endpoint>();
};

impl Drop for Endpoint {
    fn drop(&mut self) {
        NodeTable::detach(&*self.home, &self.sender.node);
    }
}

impl Endpoint {
    /// This endpoint's node id.
    pub fn node(&self) -> &NodeId {
        &self.sender.node
    }

    /// The transport this endpoint is attached to.
    pub fn transport(&self) -> &TransportHandle {
        &self.sender.transport
    }

    /// This endpoint's reply demultiplexer (for tests and diagnostics).
    pub fn demux(&self) -> &Arc<ReplyDemux> {
        &self.sender.demux
    }

    /// Installs a callback invoked after every envelope queued on this
    /// endpoint's mailbox (a reply consumed by an rpc continuation does not
    /// trigger it). Replaces any previously installed waker.
    ///
    /// This is the hook node runtimes use to schedule an event-driven node
    /// when traffic arrives instead of parking a thread in [`Endpoint::recv`]:
    /// the waker runs on the transport's delivery path (fabric dispatch or a
    /// TCP reader thread), so it must be cheap and must never block on work
    /// done inside a node callback.
    pub fn set_mailbox_waker(&self, waker: impl Fn() + Send + Sync + 'static) {
        *self.sender.demux.waker.lock() = Some(Arc::new(waker));
    }

    /// A cloneable handle that sends — and rpcs — as this endpoint's node
    /// (for worker threads). Replies to the handle's rpcs arrive at this
    /// endpoint and are demultiplexed to the calling worker.
    pub fn sender(&self) -> NodeSender {
        self.sender.clone()
    }

    /// Sends a message; returns its transport id. A returned `Ok` means
    /// the message was accepted by the transport, not that it will be
    /// delivered (loss, partitions, kills, and peer crashes are silent, as
    /// on a real network).
    pub fn send(
        &self,
        to: impl Into<NodeId>,
        kind: impl Into<String>,
        body: Element,
    ) -> Result<MessageId, SendError> {
        self.sender.send(to, kind, body)
    }

    /// Sends a message carrying a reply correlation.
    pub fn send_correlated(
        &self,
        to: impl Into<NodeId>,
        kind: impl Into<String>,
        body: Element,
        correlation: Option<MessageId>,
    ) -> Result<MessageId, SendError> {
        self.sender.send_correlated(to, kind, body, correlation)
    }

    /// Sends a reply to a received request, correlated to its id.
    pub fn reply(
        &self,
        request: &Envelope,
        kind: impl Into<String>,
        body: Element,
    ) -> Result<MessageId, SendError> {
        self.send_correlated(request.from.clone(), kind, body, Some(request.id))
    }

    /// Blocking receive.
    pub fn recv(&self) -> Result<Envelope, RecvError> {
        self.mailbox.recv().map_err(|_| RecvError::Disconnected)
    }

    /// Receive with a deadline.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvError> {
        self.mailbox.recv_timeout(timeout).map_err(|e| match e {
            crossbeam::channel::RecvTimeoutError::Timeout => RecvError::Timeout,
            crossbeam::channel::RecvTimeoutError::Disconnected => RecvError::Disconnected,
        })
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope> {
        self.mailbox.try_recv().ok()
    }

    /// Number of messages waiting in the mailbox.
    pub fn pending(&self) -> usize {
        self.mailbox.len()
    }

    /// Request/response: sends `kind` to `to` and waits for the correlated
    /// reply on this endpoint's own reply demultiplexer.
    ///
    /// This is the shape of the original platform's SOAP calls (service
    /// registration, discovery, invocation). The request carries this
    /// node's name as the reply address, so it works across process
    /// boundaries wherever named sends do (see
    /// [`crate::TcpTransport::register_peer`]). No per-call endpoint,
    /// listener, or thread is created. A reply arriving after the rpc
    /// finished (success or timeout) is discarded; unrelated traffic
    /// received during the rpc stays queued for [`Endpoint::recv`].
    pub fn rpc(
        &self,
        to: impl Into<NodeId>,
        kind: impl Into<String>,
        body: Element,
        timeout: Duration,
    ) -> Result<Envelope, RpcError> {
        self.sender.rpc(to, kind, body, timeout)
    }
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Endpoint")
            .field("node", self.node())
            .finish()
    }
}

/// A cloneable sending-only handle that emits messages *as* a node.
/// Obtained from [`Endpoint::sender`]; lets worker threads send — and rpc —
/// under the owning component's name so per-node metrics stay attributable
/// and rpc replies route back through the owning endpoint's demultiplexer.
#[derive(Clone)]
pub struct NodeSender {
    node: NodeId,
    transport: TransportHandle,
    demux: Arc<ReplyDemux>,
}

impl NodeSender {
    /// The node this handle sends as.
    pub fn node(&self) -> &NodeId {
        &self.node
    }

    /// The transport.
    pub fn transport(&self) -> &TransportHandle {
        &self.transport
    }

    /// Sends a message as the owning node.
    pub fn send(
        &self,
        to: impl Into<NodeId>,
        kind: impl Into<String>,
        body: Element,
    ) -> Result<MessageId, SendError> {
        self.transport
            .send_as(&self.node, to.into(), kind.into(), body, None)
    }

    /// Sends a correlated message as the owning node.
    pub fn send_correlated(
        &self,
        to: impl Into<NodeId>,
        kind: impl Into<String>,
        body: Element,
        correlation: Option<MessageId>,
    ) -> Result<MessageId, SendError> {
        self.transport
            .send_as(&self.node, to.into(), kind.into(), body, correlation)
    }

    /// Sends a request whose correlated reply — if the receiver emits one
    /// — should be thrown away: the request id is tombstoned in the reply
    /// demultiplexer *before* the send, so an acknowledgement is discarded
    /// at delivery instead of queueing forever in the mailbox of an
    /// endpoint nobody drains. Fire-and-forget against ack-happy
    /// receivers.
    pub fn send_discard_reply(
        &self,
        to: impl Into<NodeId>,
        kind: impl Into<String>,
        body: Element,
    ) -> Result<MessageId, SendError> {
        let id = self.transport.next_message_id();
        self.demux.tombstone(id);
        self.transport
            .send_prepared(id, &self.node, to.into(), kind.into(), body, None)?;
        Ok(id)
    }

    /// Request/response as the owning node. The reply is demultiplexed at
    /// the owning endpoint and handed to this caller; any number of
    /// [`NodeSender`] clones can rpc concurrently without crossing
    /// replies.
    ///
    /// The request id is reserved and its continuation — feeding the
    /// one-shot channel this call blocks on — registered before the
    /// request is sent, so even an instantly delivered reply finds it. The
    /// reply retires the id as it is consumed; a failed send or a timeout
    /// cancels it, so a late reply is discarded either way.
    pub fn rpc(
        &self,
        to: impl Into<NodeId>,
        kind: impl Into<String>,
        body: Element,
        timeout: Duration,
    ) -> Result<Envelope, RpcError> {
        let id = self.transport.next_message_id();
        let (tx, rx) = crossbeam::channel::unbounded();
        self.demux.register_handler(id, move |reply| {
            let _ = tx.send(reply);
        });
        if let Err(e) =
            self.transport
                .send_prepared(id, &self.node, to.into(), kind.into(), body, None)
        {
            self.demux.cancel_handler(id);
            return Err(RpcError::Send(e));
        }
        rx.recv_timeout(timeout).map_err(|_| {
            self.demux.cancel_handler(id);
            RpcError::Timeout
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Network, NetworkConfig};
    use selfserv_xml::Element;

    /// A continuation handler consumes exactly the correlated reply, which
    /// never reaches the mailbox; the id is retired afterwards so a
    /// duplicate reply is discarded too.
    #[test]
    fn handler_consumes_correlated_reply_and_retires_id() {
        let net = Network::new(NetworkConfig::instant());
        let caller = net.connect("caller").unwrap();
        let responder = net.connect("responder").unwrap();

        let id = net.next_message_id();
        let (tx, rx) = crossbeam::channel::unbounded();
        caller.demux().register_handler(id, move |env: Envelope| {
            let _ = tx.send(env);
        });
        net.send_prepared(
            id,
            caller.node(),
            "responder".into(),
            "ping".into(),
            Element::new("ping"),
            None,
        )
        .unwrap();
        let req = responder.recv_timeout(Duration::from_secs(2)).unwrap();
        responder.reply(&req, "pong", Element::new("pong")).unwrap();
        responder.reply(&req, "pong", Element::new("dup")).unwrap();

        let reply = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(reply.kind, "pong");
        assert_eq!(reply.body.name, "pong");
        // The duplicate was retired, not queued: nothing reaches the
        // mailbox and the handler table is empty.
        assert!(caller.recv_timeout(Duration::from_millis(50)).is_err());
        assert_eq!(caller.demux().pending_rpcs(), 0);
        assert!(
            rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "one-shot handler must not run twice"
        );
    }

    /// Cancelling first wins the race: the handler never runs and the late
    /// reply is discarded as stale instead of leaking into the mailbox.
    #[test]
    fn cancelled_handler_discards_late_reply() {
        let net = Network::new(NetworkConfig::instant());
        let caller = net.connect("caller").unwrap();
        let responder = net.connect("responder").unwrap();

        let id = net.next_message_id();
        caller
            .demux()
            .register_handler(id, |_| panic!("cancelled handler must not run"));
        net.send_prepared(
            id,
            caller.node(),
            "responder".into(),
            "ping".into(),
            Element::new("ping"),
            None,
        )
        .unwrap();
        let req = responder.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(caller.demux().cancel_handler(id), "still pending");
        assert!(!caller.demux().cancel_handler(id), "idempotent");
        responder.reply(&req, "pong", Element::new("late")).unwrap();
        assert!(
            caller.recv_timeout(Duration::from_millis(50)).is_err(),
            "late reply to a cancelled handler is stale"
        );
    }
}
