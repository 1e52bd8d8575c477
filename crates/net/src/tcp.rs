//! TCP transport: the same envelopes over real sockets.
//!
//! The original platform exchanged its XML documents "through Java
//! sockets". This module carries [`Envelope`]s as length-prefixed XML over
//! `std::net` TCP and implements the full [`Transport`] seam, so every
//! SELF-SERV component — coordinators, wrappers, communities, registries,
//! the centralized baseline — runs over real sockets exactly as it runs
//! over the in-process fabric.
//!
//! * [`TcpTransport`] — one listener per hub (loopback, ephemeral port
//!   by default, bound at the first connect), a shared versioned
//!   [`PeerDirectory`] that maps every name connected on the hub to that
//!   one address, and a pool of persistent connections — one per peer
//!   hub, the hub itself included — each carrying the frames for every
//!   node over there. A reader delivers each frame by looking its `to` up
//!   in the hub's table of connected nodes, so neither sockets nor
//!   threads grow with the number of nodes a hub hosts.
//!   Request/response rides the caller's own hub: the request frame
//!   carries the caller's node name as the reply address and the reader
//!   thread demultiplexes the correlated reply to the blocked rpc, so an
//!   rpc costs two frames on pooled connections — no per-call listener,
//!   socket, or thread. Every outbound frame also piggybacks the sender's
//!   own directory claim (`peer-*` attributes on the envelope), so the
//!   receiving hub learns where to reach the sender the moment the first
//!   frame arrives — cross-process rpc replies route immediately, before
//!   any gossip round. [`TcpTransport::register_peer`] still points names
//!   at other processes by hand, but automatic membership is the job of
//!   `selfserv-discovery`: seed one address and the handshake + gossip
//!   populate the directory in both directions.
//! * [`write_frame`] / [`read_frame`] — the wire format on any
//!   `Write`/`Read`, for tools that speak it without a hub (part 1 of the
//!   `tcp_demo` example drives them over a plain `std::net` connection).
//!
//! Framing is `u32` big-endian length + UTF-8 XML. A frame longer than
//! `MAX_FRAME` poisons the stream position, so readers **close the
//! connection** on any malformed frame instead of trying to resynchronize
//! mid-stream.

use crate::directory::{DirectoryEntry, HubId, PeerClaim, PeerDirectory};
use crate::envelope::{Envelope, MessageId, NodeId};
use crate::metrics::{CountersTable, MetricsSnapshot};
use crate::transport::{
    ConnectError, Endpoint, NodeHome, NodeTable, SendError, Transport, TransportHandle,
};
use crate::writer::{ConnQueue, IoCounters};
use parking_lot::{Mutex, RwLock};
use selfserv_xml::Element;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Maximum accepted frame size (16 MiB) — guards against corrupt length
/// prefixes.
const MAX_FRAME: u32 = 16 * 1024 * 1024;

fn oversized(len: usize) -> String {
    format!("envelope of {len} bytes exceeds the {MAX_FRAME}-byte frame limit")
}

/// Appends the text of `envelope`'s frame, with the `stamp` attributes, to
/// `out` and returns its length — or, when no reader would accept a frame
/// that long, the length it came to. The one pass that serializes a frame,
/// for a hub and for [`write_frame`] alike: the room it reserves comes from
/// the tree's unescaped size, not from a counting pass over the text, and
/// the limit is checked on what was written, before it is queued or sent.
fn append_frame_text(
    out: &mut Vec<u8>,
    envelope: &Envelope,
    stamp: &[(&str, String)],
) -> Result<u32, usize> {
    let start = out.len();
    // Escapes lengthen the text; an eighth more covers the usual share.
    let unescaped = envelope.unescaped_wire_len(stamp);
    out.reserve(unescaped + unescaped / 8);
    envelope.write_wire(stamp, out);
    let len = out.len() - start;
    u32::try_from(len)
        .ok()
        .filter(|&n| n <= MAX_FRAME)
        .ok_or(len)
}

/// Writes one length-prefixed XML frame: prefix and envelope text go into
/// one buffer, then to `stream` in one write. An envelope over the frame
/// limit is refused with `InvalidInput` and nothing is written.
pub fn write_frame(stream: &mut impl Write, envelope: &Envelope) -> std::io::Result<()> {
    let mut frame = vec![0; 4];
    let len = append_frame_text(&mut frame, envelope, &[])
        .map_err(|len| std::io::Error::new(std::io::ErrorKind::InvalidInput, oversized(len)))?;
    frame[..4].copy_from_slice(&len.to_be_bytes());
    stream.write_all(&frame)?;
    stream.flush()
}

fn invalid_data(e: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e)
}

/// Reads one length-prefixed XML frame.
///
/// Any error leaves the stream position undefined (an oversized length
/// prefix is rejected *without* consuming the body), so callers must treat
/// every error as fatal for the connection and close it — never continue
/// reading frames from the same stream.
pub fn read_frame(stream: &mut impl Read) -> std::io::Result<Envelope> {
    let (xml, _) = read_frame_element(stream)?;
    Envelope::decode(xml).map_err(invalid_data)
}

/// Reads one frame as its raw XML element plus the payload size in bytes
/// (what the metrics layer charges to the link) — the hub's reader path
/// extracts the piggybacked sender claim (`peer-*` attributes) from the
/// element before the envelope decode consumes it. (The decode ignores the
/// extra attributes, so they never reach the delivered envelope.)
fn read_frame_element(stream: &mut impl Read) -> std::io::Result<(Element, usize)> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(invalid_data(format!(
            "frame of {len} bytes exceeds limit; closing connection"
        )));
    }
    let mut buf = vec![0u8; len as usize];
    stream.read_exact(&mut buf)?;
    let text = String::from_utf8(buf).map_err(invalid_data)?;
    let xml = selfserv_xml::parse(&text).map_err(|e| invalid_data(e.to_string()))?;
    Ok((xml, len as usize))
}

/// Capacity of each inbound connection's read buffer. Senders coalesce
/// small frames into one `writev`, so one `read` of this size hands the
/// decoder several of them; a frame larger than the buffer has the rest of
/// its body read straight into its own allocation, and a hub with many
/// inbound connections pays 8 KiB for each, not a frame's worth.
const READ_BUF: usize = 8 * 1024;

/// One decoded inbound frame.
struct Inbound {
    envelope: Envelope,
    /// The sender's piggybacked directory claim, if the frame carried one.
    claim: Option<DirectoryEntry>,
    /// Payload bytes, as charged to the link.
    size: usize,
}

/// Reads and decodes a connection's next frame. `Ok(None)` is a clean
/// close: the peer shut the stream down between frames. Everything else
/// that is not a frame — EOF inside one, an oversized length prefix,
/// malformed XML or envelope — is an error, after which the stream
/// position is unreliable and the connection must be closed.
fn read_inbound(reader: &mut impl BufRead) -> std::io::Result<Option<Inbound>> {
    loop {
        match reader.fill_buf() {
            Ok([]) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let (xml, size) = read_frame_element(reader)?;
    let claim = piggybacked_claim(&xml);
    let envelope = Envelope::decode(xml).map_err(invalid_data)?;
    Ok(Some(Inbound {
        envelope,
        claim,
        size,
    }))
}

/// Extracts (without validating) the piggybacked sender claim from a
/// decoded frame element: `(addr, owner, version)` from the `peer-*`
/// attributes the sending hub stamps on every outbound envelope (see
/// `Hub::sender_claim_stamp`).
fn piggybacked_claim(xml: &Element) -> Option<DirectoryEntry> {
    Some(DirectoryEntry {
        value: PeerClaim {
            addr: xml.attr("peer-addr")?.parse().ok()?,
            owner: HubId::parse(xml.attr("peer-owner")?)?,
        },
        version: xml.attr("peer-version")?.parse().ok()?,
        evicted: false,
    })
}

// ---------------------------------------------------------------------------
// TcpTransport: the full Transport seam over real sockets
// ---------------------------------------------------------------------------

/// Why [`Hub::send_envelope`] could not put a frame on the wire.
enum FrameSendError {
    /// The serialized envelope exceeds [`MAX_FRAME`] (the size, in bytes).
    Oversized(usize),
    /// Connecting or writing failed.
    Io(std::io::Error),
}

/// The `to` of a frame sent by address ([`TcpTransport::send_to_addr`]):
/// the receiving hub hands it to the node declared with
/// [`TcpTransport::set_unaddressed_recipient`].
const UNADDRESSED: &str = "?";

/// A hub's receive side, shared by its accept thread and its readers, and
/// the home of the nodes connected on the hub. It is kept apart from
/// [`Hub`] so those threads never keep the hub alive: the hub's drop is
/// what stops them.
struct Receiver {
    directory: PeerDirectory,
    /// The nodes connected on the hub, their counters and the hub's ids.
    table: NodeTable,
    /// The hub's listener address, which every local name is bound to;
    /// set when the listener binds, before the first node connects.
    addr: OnceLock<SocketAddr>,
    /// The node declared to receive frames sent by address.
    unaddressed: RwLock<Option<NodeId>>,
    /// A handle on every open inbound connection, by peer address, so hub
    /// drop can shut them down and their readers exit.
    inbound: Mutex<HashMap<SocketAddr, TcpStream>>,
}

impl Receiver {
    /// Hands one decoded frame to the local node it is addressed to. The
    /// piggybacked sender claim is merged first, so even a frame from a
    /// never-before-seen process makes its sender immediately routable
    /// (the rpc reply path). A frame for a name not connected here is
    /// charged where the fabric charges one: to the name's drop slot.
    fn deliver(&self, frame: Inbound) {
        if let Some(claim) = frame.claim {
            self.directory
                .merge_entry(frame.envelope.from.clone(), claim);
        }
        let mut to = frame.envelope.to.clone();
        if to.as_str() == UNADDRESSED {
            if let Some(recipient) = self.unaddressed.read().clone() {
                to = recipient;
            }
        }
        self.table.deliver(&to, frame.envelope, frame.size);
    }
}

impl NodeHome for Receiver {
    fn table(&self) -> &NodeTable {
        &self.table
    }

    /// Binds the name to the hub's listener in the directory: a name live
    /// there — connected here, or claimed by a remote hub — is taken. A
    /// reader resolving the name waits for the table entry rather than
    /// dropping a frame sent the moment the directory published it.
    fn claim(&self, name: &NodeId) -> Result<(), ConnectError> {
        let addr = *self
            .addr
            .get()
            .expect("a hub listens before a node connects");
        self.directory
            .bind_local(name.clone(), addr)
            .map_err(|_| ConnectError::NameTaken(name.clone()))
    }

    /// Ends the node's role as the unaddressed recipient, if it held it,
    /// and tombstones its directory entry (only if it still points at this
    /// hub — a remote claim may have replaced it), so the departure gossips
    /// like any other directory change. The pooled connections stay: they
    /// carry every other node's traffic too.
    fn release(&self, name: &NodeId) {
        let mut unaddressed = self.unaddressed.write();
        if unaddressed.as_ref() == Some(name) {
            *unaddressed = None;
        }
        if let Some(addr) = self.addr.get() {
            self.directory.remove_local(name, *addr);
        }
    }
}

/// A hub's listener and its accept thread.
struct Listener {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: JoinHandle<()>,
}

impl Listener {
    /// Raises the shutdown flag, pokes the listener so the accept loop
    /// observes it, then *joins* the thread. If the poke cannot connect
    /// (fd/port exhaustion), the thread is detached instead — the loop
    /// would never observe the flag and the join would deadlock teardown.
    fn stop(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if TcpStream::connect(self.addr).is_ok() {
            let _ = self.accept_thread.join();
        }
    }
}

struct Hub {
    /// Node name → the address of the hub the node lives on, versioned and
    /// mergeable. Local connects bind their name to this hub's listener;
    /// [`TcpTransport::register_peer`], piggybacked sender claims, and
    /// `selfserv-discovery`'s handshake/gossip merge remote claims in.
    directory: PeerDirectory,
    /// Where inbound frames are delivered, and the hub's node table.
    receiver: Arc<Receiver>,
    /// The hub's one listener, bound at the first connect.
    listener: Mutex<Option<Listener>>,
    /// Persistent outbound connections, one [`ConnQueue`] per destination
    /// address — that is, per peer hub, since every name on a hub resolves
    /// to its one listener — shared by every local sender (frames carry
    /// their own `from` and `to`). Senders *enqueue* and return; each
    /// queue's writer thread owns the one socket to its destination and
    /// drains frames in enqueue order, so exactly one connection per
    /// destination ever carries frames and per-sender in-order delivery
    /// holds by construction. See [`crate::writer`] for the batching,
    /// backpressure and deferred-error semantics.
    pool: Mutex<HashMap<SocketAddr, Arc<ConnQueue>>>,
    /// Hub-wide data-plane counters ([`MetricsSnapshot::io`]).
    io: Arc<IoCounters>,
}

impl Hub {
    fn table(&self) -> &NodeTable {
        &self.receiver.table
    }

    /// The hub's listener address, binding the listener and starting its
    /// accept thread on first use.
    fn listen(&self) -> std::io::Result<SocketAddr> {
        let mut listener = self.listener.lock();
        if let Some(l) = listener.as_ref() {
            return Ok(l.addr);
        }
        let socket = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = socket.local_addr()?;
        let _ = self.receiver.addr.set(addr);
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let receiver = Arc::clone(&self.receiver);
        let accept_thread = std::thread::Builder::new()
            .name(format!("selfserv-tcp-{addr}"))
            .spawn(move || accept_loop(socket, receiver, flag))
            .expect("spawn tcp accept thread");
        *listener = Some(Listener {
            addr,
            shutdown,
            accept_thread,
        });
        Ok(addr)
    }

    /// Queues one already-serialized frame for `addr` on the pooled
    /// connection's outbound queue, starting its writer thread as needed.
    /// Returns once the frame is *accepted* (bounded queue — blocks
    /// briefly under backpressure); the writer connects, batches and
    /// writes asynchronously, and its failures surface on the next send
    /// to the same destination.
    fn send_frame(&self, addr: SocketAddr, payload: Vec<u8>) -> std::io::Result<()> {
        let conn = {
            let mut pool = self.pool.lock();
            Arc::clone(
                pool.entry(addr)
                    .or_insert_with(|| Arc::new(ConnQueue::new())),
            )
        };
        conn.enqueue(addr, payload, &self.io)
    }

    fn dispatch(
        &self,
        id: MessageId,
        from: &NodeId,
        to: NodeId,
        kind: String,
        body: Element,
        correlation: Option<MessageId>,
    ) -> Result<(), SendError> {
        let addr = match self.directory.lookup(&to) {
            Some(a) => a,
            None => return Err(SendError::UnknownNode(to)),
        };
        let envelope = Envelope {
            id,
            from: from.clone(),
            to,
            kind,
            correlation,
            body,
        };
        match self.send_envelope(addr, &envelope) {
            Ok(()) => Ok(()),
            Err(FrameSendError::Oversized(len)) => Err(SendError::Transport(oversized(len))),
            Err(FrameSendError::Io(e)) => {
                // An unreachable *ephemeral* destination learned from a
                // piggybacked claim has no other end-of-life signal (it
                // never gossips): forget it so later sends report
                // UnknownNode instead of retrying a dead address forever.
                self.directory
                    .prune_unreachable_ephemeral(&envelope.to, addr);
                Err(SendError::Transport(format!("send to {addr} failed: {e}")))
            }
        }
    }

    /// The shared back half of every send path: serializes the stamped
    /// frame once ([`append_frame_text`]), refuses it on the *send* side
    /// when it exceeds the frame limit (the receiver would reject the
    /// length prefix and close the shared pooled connection, losing
    /// in-flight messages with no diagnostic), queues it for `addr`'s
    /// connection writer, and records the sender's metrics once the
    /// transport accepts the frame — charging the frame's length, so
    /// sender and receiver sizes match by construction.
    fn send_envelope(&self, addr: SocketAddr, envelope: &Envelope) -> Result<(), FrameSendError> {
        let stamp = self.sender_claim_stamp(&envelope.from);
        let stamp = stamp.as_ref().map_or(&[][..], |s| s.as_slice());
        let mut payload = Vec::new();
        append_frame_text(&mut payload, envelope, stamp).map_err(FrameSendError::Oversized)?;
        let len = payload.len();
        self.send_frame(addr, payload).map_err(FrameSendError::Io)?;
        self.table()
            .counters
            .for_node(&envelope.from)
            .record_send(len);
        Ok(())
    }

    /// The sender's own directory claim as the attributes stamped on an
    /// outbound frame (`peer-addr` / `peer-owner` / `peer-version`, after
    /// the envelope's own) when the sender is a live local name. The
    /// receiving hub's reader merges the claim before delivery, so the
    /// first frame a hub ever receives from a node already teaches it how
    /// to send back — rpc replies across process boundaries need no prior
    /// registration or gossip round.
    fn sender_claim_stamp(&self, from: &NodeId) -> Option<[(&'static str, String); 3]> {
        let entry = self.directory.entry(from.as_str())?;
        if entry.evicted || entry.value.owner != self.directory.hub() {
            return None;
        }
        Some([
            ("peer-addr", entry.value.addr.to_string()),
            ("peer-owner", entry.value.owner.to_string()),
            ("peer-version", entry.version.to_string()),
        ])
    }
}

impl Drop for Hub {
    fn drop(&mut self) {
        // No thread may outlive the hub: stop accepting, shut every
        // inbound stream down so its reader sees EOF and exits, and retire
        // every connection writer (each drains its queue and exits).
        if let Some(listener) = self.listener.get_mut().take() {
            listener.stop();
        }
        for (_, stream) in self.receiver.inbound.lock().drain() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for conn in self.pool.get_mut().values() {
            conn.shutdown();
        }
    }
}

/// A [`Transport`] over real TCP sockets. Cheap to clone (shared handle).
///
/// The hub binds one loopback listener on an ephemeral port at its first
/// [`Transport::connect`], and every connect registers the node's name at
/// that address in the shared directory, so all nodes of one
/// `TcpTransport` can reach each other by name. For multi-process
/// deployments, exchange [`TcpTransport::addr_of`] results out of band and
/// register them with [`TcpTransport::register_peer`] — or let
/// `selfserv-discovery` do it from one seed address.
#[derive(Clone)]
pub struct TcpTransport {
    hub: Arc<Hub>,
}

impl Default for TcpTransport {
    fn default() -> Self {
        Self::new()
    }
}

impl TcpTransport {
    /// Creates an empty TCP transport with a freshly generated [`HubId`].
    pub fn new() -> Self {
        Self::with_counters(CountersTable::new())
    }

    fn with_counters(counters: CountersTable) -> Self {
        let directory = PeerDirectory::new(HubId::generate());
        let receiver = Arc::new(Receiver {
            directory: directory.clone(),
            table: NodeTable::new(counters),
            addr: OnceLock::new(),
            unaddressed: RwLock::new(None),
            inbound: Mutex::new(HashMap::new()),
        });
        TcpTransport {
            hub: Arc::new(Hub {
                directory,
                receiver,
                listener: Mutex::new(None),
                pool: Mutex::new(HashMap::new()),
                io: Arc::new(IoCounters::default()),
            }),
        }
    }

    /// This hub's identity (the `owner` stamped on every local binding).
    pub fn hub_id(&self) -> HubId {
        self.hub.directory.hub()
    }

    /// The hub's shared peer directory: the versioned name → address map
    /// that `selfserv-discovery` handshakes, gossips, and evicts through,
    /// and that community selection can consult as a
    /// [`crate::LivenessProbe`].
    pub fn directory(&self) -> PeerDirectory {
        self.hub.directory.clone()
    }

    /// The listener address of the hub a locally connected (or registered)
    /// node lives on. Every node connected on one hub has the same address.
    pub fn addr_of(&self, name: &str) -> Option<SocketAddr> {
        self.hub.directory.lookup(&NodeId::new(name))
    }

    /// Hub-wide data-plane I/O counters (the `io` field of
    /// [`Transport::metrics`], without the per-node snapshot cost) — what
    /// the syscall-coalescing benchmarks sample around a burst.
    pub fn io_stats(&self) -> crate::metrics::TransportIoStats {
        self.hub.io.snapshot()
    }

    /// Replies discarded as stale (late or duplicate replies to retired
    /// rpcs) by any local endpoint since the hub started.
    pub fn stale_replies_dropped(&self) -> u64 {
        self.hub.table().stale_replies()
    }

    /// Registers the hub's transport metrics on `registry`: data-plane I/O
    /// counters (writev coalescing, frames/bytes, drops, backpressure),
    /// the queued-frames gauge, the stale-reply counter, and aggregate
    /// per-node message totals. `labels` (typically `[("hub", ...)]`) are
    /// attached to every series.
    pub fn register_metrics(&self, registry: &selfserv_obs::Registry, labels: &[(&str, &str)]) {
        let hub = Arc::clone(&self.hub);
        registry.counter_fn(
            "selfserv_transport_writev_calls_total",
            "Vectored write syscalls issued by connection writers.",
            labels,
            move || hub.io.snapshot().writev_calls,
        );
        let hub = Arc::clone(&self.hub);
        registry.counter_fn(
            "selfserv_transport_frames_sent_total",
            "Frames put on the wire.",
            labels,
            move || hub.io.snapshot().frames_sent,
        );
        let hub = Arc::clone(&self.hub);
        registry.counter_fn(
            "selfserv_transport_bytes_sent_total",
            "Wire bytes written, length prefixes included.",
            labels,
            move || hub.io.snapshot().bytes_sent,
        );
        let hub = Arc::clone(&self.hub);
        registry.counter_fn(
            "selfserv_transport_frames_dropped_total",
            "Frames accepted by send but dropped by a failing connection writer.",
            labels,
            move || hub.io.snapshot().frames_dropped,
        );
        let hub = Arc::clone(&self.hub);
        registry.counter_fn(
            "selfserv_transport_backpressure_waits_total",
            "Sends that blocked because their destination queue was full.",
            labels,
            move || hub.io.snapshot().backpressure_waits,
        );
        let hub = Arc::clone(&self.hub);
        registry.gauge_fn(
            "selfserv_transport_queued_frames",
            "Frames currently queued in outbound connection queues, hub-wide.",
            labels,
            move || hub.pool.lock().values().map(|c| c.len()).sum::<usize>() as f64,
        );
        let hub = Arc::clone(&self.hub);
        registry.counter_fn(
            "selfserv_transport_stale_replies_total",
            "Replies discarded as stale (late or duplicate) by local endpoints.",
            labels,
            move || hub.table().stale_replies(),
        );
        let hub = Arc::clone(&self.hub);
        registry.counter_fn(
            "selfserv_node_messages_sent_total",
            "Messages sent by all local nodes.",
            labels,
            move || hub.table().counters.total(|c| &c.sent),
        );
        let hub = Arc::clone(&self.hub);
        registry.counter_fn(
            "selfserv_node_messages_received_total",
            "Messages received by all local nodes.",
            labels,
            move || hub.table().counters.total(|c| &c.received),
        );
        let hub = Arc::clone(&self.hub);
        registry.counter_fn(
            "selfserv_node_messages_dropped_total",
            "Inbound messages lost before delivery across all local nodes.",
            labels,
            move || hub.table().counters.total(|c| &c.dropped_inbound),
        );
    }

    /// Registers a remote node's address by hand so local nodes can send
    /// to it by name (the cross-process analogue of the peer connecting
    /// locally). Prefer `selfserv-discovery`: one seed address replaces
    /// every pairwise `register_peer` call.
    ///
    /// Request frames carry the caller's node name as the reply address,
    /// so once two hubs know each other's names, an rpc from a node in one
    /// process to a node in the other completes a full round trip.
    /// Registrations are last-call-wins (atomic, above any standing
    /// version) — except that a name whose endpoint is **connected on
    /// this hub** can never be shadowed; the attempt is ignored (it used
    /// to silently hijack local traffic).
    pub fn register_peer(&self, name: impl Into<NodeId>, addr: SocketAddr) {
        self.hub.directory.register_manual(name.into(), addr);
    }

    /// Chaos hook: abruptly severs the pooled outbound connection to the
    /// hub `node` lives on. That connection carries the frames for *every*
    /// node of that hub, so this cuts the whole hub link: queued frames
    /// drop, the connection writer is orphaned (it exits and closes its
    /// socket, taking the peer hub's reader thread with it), and the
    /// *next* send to any node there reports `BrokenPipe` (the
    /// deferred-error path, which prunes unreachable ephemeral peers)
    /// while the one after respawns a fresh writer. Returns false when
    /// the node has no known address or no pooled connection exists yet.
    pub fn kill_connection(&self, node: &str) -> bool {
        let Some(addr) = self.addr_of(node) else {
            return false;
        };
        let conn = self.hub.pool.lock().get(&addr).cloned();
        match conn {
            Some(conn) => {
                conn.kill(
                    &format!("connection to {addr} killed by chaos"),
                    &self.hub.io,
                );
                true
            }
            None => false,
        }
    }

    /// Chaos hook: retires the pooled connection to the hub `node` lives
    /// on entirely (discarding any parked deferred error), so the next
    /// send to any node of that hub dials a fresh connection immediately.
    /// Returns false when the node has no known address or no pooled
    /// connection exists.
    pub fn revive_connection(&self, node: &str) -> bool {
        let Some(addr) = self.addr_of(node) else {
            return false;
        };
        match self.hub.pool.lock().remove(&addr) {
            Some(conn) => {
                // Wake anything blocked on the dead queue; a live writer
                // drains and exits.
                conn.shutdown();
                true
            }
            None => false,
        }
    }

    /// Sends one envelope straight to a hub's listener **address**,
    /// bypassing the name directory — the bootstrap primitive
    /// `selfserv-discovery` uses to greet a seed hub it knows only by
    /// address. Its `to` is the placeholder `?`: the receiving hub hands
    /// the frame to the node it declared with
    /// [`TcpTransport::set_unaddressed_recipient`], and counts it as
    /// dropped when it declared none. The frame piggybacks the sender's
    /// claim like any other, so the receiver can answer by name.
    pub fn send_to_addr(
        &self,
        addr: SocketAddr,
        from: &NodeId,
        kind: impl Into<String>,
        body: Element,
    ) -> std::io::Result<MessageId> {
        let envelope = Envelope {
            id: self.hub.table().next_message_id(),
            from: from.clone(),
            to: NodeId::new(UNADDRESSED),
            kind: kind.into(),
            correlation: None,
            body,
        };
        match self.hub.send_envelope(addr, &envelope) {
            Ok(()) => Ok(envelope.id),
            Err(FrameSendError::Oversized(len)) => Err(invalid_data(oversized(len))),
            Err(FrameSendError::Io(e)) => Err(e),
        }
    }

    /// Declares which locally connected node receives the frames sent to
    /// this hub by address ([`TcpTransport::send_to_addr`]), whose `to` is
    /// a placeholder. `selfserv-discovery` declares its discovery node —
    /// what seeds greet. The declaration lasts until that node's endpoint
    /// drops; while none stands, such frames are counted as dropped.
    pub fn set_unaddressed_recipient(&self, node: &NodeId) {
        *self.hub.receiver.unaddressed.write() = Some(node.clone());
    }
}

impl crate::fault::ChaosTarget for TcpTransport {
    fn crash(&self, node: &NodeId) {
        self.kill_connection(node.as_str());
    }

    fn restart(&self, node: &NodeId) {
        self.revive_connection(node.as_str());
    }
}

impl Transport for TcpTransport {
    fn connect(&self, name: NodeId) -> Result<Endpoint, ConnectError> {
        if let Err(e) = self.hub.listen() {
            return Err(ConnectError::Bind(name, e));
        }
        NodeTable::connect(self.hub.receiver.clone(), self.handle(), name)
    }

    fn connect_anonymous(&self, prefix: &str) -> Endpoint {
        // Only the hub's first connect binds a socket; this signature has
        // no way to report that it could not.
        if let Err(e) = self.hub.listen() {
            panic!("could not provision an endpoint for an anonymous '{prefix}' node: {e}");
        }
        // The name embeds the hub id: every frame piggybacks its sender's
        // directory claim, so two hubs whose anonymous counters both
        // minted `client~1` would collide in a *receiving* hub's
        // directory and misroute one side's rpc replies. Per-hub counters
        // are only unique per hub; the hub id makes them global.
        let hub_id = self.hub.directory.hub().to_string();
        NodeTable::connect_anonymous(
            self.hub.receiver.clone(),
            self.handle(),
            prefix,
            Some(&hub_id),
        )
    }

    fn is_connected(&self, name: &str) -> bool {
        self.hub.directory.is_bound(name)
    }

    fn node_names(&self) -> Vec<NodeId> {
        self.hub.directory.names()
    }

    fn next_message_id(&self) -> MessageId {
        self.hub.table().next_message_id()
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
        self.hub.dispatch(id, from, to, kind, body, correlation)
    }

    fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.hub.table().counters.snapshot();
        snap.io = self.hub.io.snapshot();
        snap
    }

    fn reset_metrics(&self) {
        self.hub.table().counters.reset();
        self.hub.io.reset();
    }

    fn handle(&self) -> TransportHandle {
        TransportHandle::new(self.clone())
    }
}

/// Capped exponential backoff for transient-resource retry loops (fd and
/// ephemeral-port exhaustion): starts near-instant so one-off blips cost
/// microseconds, doubles toward `cap` so a persistently exhausted host
/// isn't hammered. A success path calls [`Backoff::reset`].
struct Backoff {
    next: Duration,
    initial: Duration,
    cap: Duration,
}

impl Backoff {
    fn new(initial: Duration, cap: Duration) -> Backoff {
        Backoff {
            next: initial,
            initial,
            cap,
        }
    }

    fn sleep(&mut self) {
        std::thread::sleep(self.next);
        self.next = (self.next * 2).min(self.cap);
    }

    fn reset(&mut self) {
        self.next = self.initial;
    }
}

/// The hub's accept loop: a reader thread per inbound connection — one
/// per peer hub that sends here, the hub's own loopback connection
/// included. Exits when the shutdown flag is raised; backs off (capped
/// exponential) on persistent accept errors (e.g. fd exhaustion) instead
/// of spinning hot or always paying the worst-case pause.
fn accept_loop(listener: TcpListener, receiver: Arc<Receiver>, shutdown: Arc<AtomicBool>) {
    let mut backoff = Backoff::new(Duration::from_micros(250), Duration::from_millis(10));
    loop {
        let accepted = listener.accept();
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok((stream, peer)) = accepted else {
            backoff.sleep();
            continue;
        };
        backoff.reset();
        stream.set_nodelay(true).ok();
        // Without a handle to shut it down, hub drop could not stop the
        // reader: refuse the connection (the sender reconnects).
        let Ok(handle) = stream.try_clone() else {
            continue;
        };
        receiver.inbound.lock().insert(peer, handle);
        let delivery = Arc::clone(&receiver);
        // Persistent framing: one buffered reader per inbound connection
        // decodes frames until the peer closes or a frame is malformed,
        // and delivers each to the node named by its `to`.
        let spawned = std::thread::Builder::new()
            .name(format!("selfserv-tcp-reader-{peer}"))
            .spawn(move || {
                let mut reader = BufReader::with_capacity(READ_BUF, stream);
                // Clean close, EOF mid-frame, oversized or corrupt frame,
                // or a well-framed but malformed envelope (a sender
                // producing garbage is not worth keeping a connection
                // for): in every case close the connection rather than
                // desynchronize mid-stream. The sender's pool reconnects
                // on its next send.
                while let Ok(Some(frame)) = read_inbound(&mut reader) {
                    delivery.deliver(frame);
                }
                delivery.inbound.lock().remove(&peer);
            });
        if spawned.is_err() {
            // No thread to read it: close the connection like a bad frame.
            receiver.inbound.lock().remove(&peer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{MessageId, NodeId};
    use selfserv_xml::Element;

    fn env(kind: &str) -> Envelope {
        Envelope {
            id: MessageId(1),
            from: NodeId::new("tcp.a"),
            to: NodeId::new("tcp.b"),
            kind: kind.to_string(),
            correlation: None,
            body: Element::new("payload").with_attr("x", "1"),
        }
    }

    #[test]
    fn frame_round_trip_in_memory() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &env("test")).unwrap();
        let decoded = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(decoded, env("test"));
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        assert!(read_frame(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn write_frame_rejects_an_over_limit_envelope_before_writing() {
        let mut big = env("big");
        big.body = Element::new("blob").with_text("x".repeat(MAX_FRAME as usize));
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, &big).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(sink.is_empty(), "not even the length prefix was written");
        // The largest frame a reader accepts still goes out.
        let overhead = big.wire_size() - MAX_FRAME as usize;
        big.body = Element::new("blob").with_text("x".repeat(MAX_FRAME as usize - overhead));
        write_frame(&mut sink, &big).unwrap();
        assert_eq!(sink.len(), 4 + MAX_FRAME as usize);
        assert_eq!(read_frame(&mut sink.as_slice()).unwrap(), big);
    }

    /// A `Read` that hands its bytes out in the given chunk sizes, cycling
    /// through them — where the kernel cuts a stream is not up to the frames.
    struct Chunked<'a> {
        data: &'a [u8],
        sizes: &'a [usize],
        calls: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.sizes[self.calls % self.sizes.len()]
                .min(buf.len())
                .min(self.data.len());
            self.calls += 1;
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// Runs the reader loop's decode over `data` cut into `sizes`: the
    /// kinds of the frames delivered, and how the stream ended.
    fn drain(data: &[u8], sizes: &[usize]) -> (Vec<String>, std::io::Result<()>) {
        let mut reader = BufReader::with_capacity(
            READ_BUF,
            Chunked {
                data,
                sizes,
                calls: 0,
            },
        );
        let mut kinds = Vec::new();
        loop {
            match read_inbound(&mut reader) {
                Ok(Some(frame)) => kinds.push(frame.envelope.kind),
                Ok(None) => return (kinds, Ok(())),
                Err(e) => return (kinds, Err(e)),
            }
        }
    }

    /// Frames `k0`, `k1`, … back to back; every fourth carries a body
    /// larger than the read buffer.
    fn stream_of(n: usize) -> (Vec<u8>, Vec<String>) {
        let mut bytes = Vec::new();
        let mut kinds = Vec::new();
        for i in 0..n {
            let mut e = env(&format!("k{i}"));
            if i % 4 == 3 {
                e.body = Element::new("blob").with_text("✓".repeat(READ_BUF));
            }
            write_frame(&mut bytes, &e).unwrap();
            kinds.push(e.kind);
        }
        (bytes, kinds)
    }

    #[test]
    fn buffered_reader_delivers_every_frame_once_in_order_however_the_stream_is_cut() {
        let (bytes, kinds) = stream_of(9);
        // A trickle: frame boundaries, prefixes and multi-byte characters
        // all get split.
        let (got, end) = drain(&bytes, &[1, 3, 7, 2, 5]);
        assert_eq!(got, kinds);
        assert!(end.is_ok(), "EOF between frames is a clean close");
        // One read returns three whole frames and the start of the fourth.
        let (bytes, kinds) = stream_of(4);
        let first_three: usize = {
            let mut one = Vec::new();
            write_frame(&mut one, &env("k0")).unwrap();
            one.len() * 3
        };
        let (got, end) = drain(&bytes, &[first_three + 40, usize::MAX]);
        assert_eq!(got, kinds);
        assert!(end.is_ok());
    }

    #[test]
    fn buffered_reader_reports_every_unclean_end_as_an_error() {
        let (bytes, kinds) = stream_of(3);
        // EOF inside a frame: in a body, and in the first prefix.
        for cut in [bytes.len() - 5, bytes.len() - 1, 2] {
            let (got, end) = drain(&bytes[..cut], &[64]);
            assert!(got.len() < kinds.len());
            assert_eq!(
                end.unwrap_err().kind(),
                std::io::ErrorKind::UnexpectedEof,
                "cut at {cut}"
            );
        }
        // An oversized length prefix after a good frame: rejected on the
        // prefix alone — nothing of the claimed 4 GiB is allocated or read.
        let mut one = Vec::new();
        write_frame(&mut one, &env("ok")).unwrap();
        let mut stream = one.clone();
        stream.extend_from_slice(&u32::MAX.to_be_bytes());
        stream.extend_from_slice(&one);
        let (got, end) = drain(&stream, &[usize::MAX]);
        assert_eq!(got, ["ok"]);
        assert_eq!(end.unwrap_err().kind(), std::io::ErrorKind::InvalidData);
        // Well-formed XML that is not an envelope.
        let mut stream = one.clone();
        let garbage = b"<notenvelope/>";
        stream.extend_from_slice(&(garbage.len() as u32).to_be_bytes());
        stream.extend_from_slice(garbage);
        stream.extend_from_slice(&one);
        let (got, end) = drain(&stream, &[usize::MAX]);
        assert_eq!(got, ["ok"], "nothing is delivered past a malformed frame");
        assert_eq!(end.unwrap_err().kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn hub_frame_bytes_are_the_stamped_element_text() {
        let t = TcpTransport::new();
        let _a = Transport::connect(&t, NodeId::new("a")).unwrap();
        let sink = TcpListener::bind("127.0.0.1:0").unwrap();
        t.register_peer("sink", sink.local_addr().unwrap());
        let body = Element::new("b")
            .with_attr("q", "x<\"y\"\n")
            .with_text("1 & 2 > 0 ✓");
        let correlations = [None, Some(MessageId(9))];
        for correlation in correlations {
            t.send_prepared(
                MessageId(41),
                &NodeId::new("a"),
                NodeId::new("sink"),
                "k.v".to_string(),
                body.clone(),
                correlation,
            )
            .unwrap();
        }
        let claim = t.directory().entry("a").unwrap();
        let (mut conn, _) = sink.accept().unwrap();
        let mut charged = 0;
        for correlation in correlations {
            let mut len = [0u8; 4];
            conn.read_exact(&mut len).unwrap();
            let mut payload = vec![0u8; u32::from_be_bytes(len) as usize];
            conn.read_exact(&mut payload).unwrap();
            let envelope = Envelope {
                id: MessageId(41),
                from: NodeId::new("a"),
                to: NodeId::new("sink"),
                kind: "k.v".to_string(),
                correlation,
                body: body.clone(),
            };
            let mut expected = envelope.to_xml();
            expected.set_attr("peer-addr", claim.value.addr.to_string());
            expected.set_attr("peer-owner", claim.value.owner.to_string());
            expected.set_attr("peer-version", claim.version.to_string());
            assert_eq!(String::from_utf8(payload).unwrap(), expected.to_xml());
            charged += expected.xml_len() as u64;
        }
        assert_eq!(t.metrics().node("a").unwrap().bytes_sent, charged);
    }

    #[test]
    fn corrupt_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&5u32.to_be_bytes());
        buf.extend_from_slice(b"not x");
        assert!(read_frame(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn transport_send_receive_by_name() {
        let t = TcpTransport::new();
        let a = Transport::connect(&t, NodeId::new("a")).unwrap();
        let b = Transport::connect(&t, NodeId::new("b")).unwrap();
        a.send("b", "hello", Element::new("ping").with_attr("n", "1"))
            .unwrap();
        let got = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got.kind, "hello");
        assert_eq!(got.from.as_str(), "a");
        assert_eq!(got.body.attr("n"), Some("1"));
    }

    #[test]
    fn transport_unknown_destination_errors() {
        let t = TcpTransport::new();
        let a = Transport::connect(&t, NodeId::new("a")).unwrap();
        assert!(matches!(
            a.send("ghost", "x", Element::new("b")),
            Err(SendError::UnknownNode(_))
        ));
    }

    #[test]
    fn transport_duplicate_name_rejected_and_freed_on_drop() {
        let t = TcpTransport::new();
        {
            let _a = Transport::connect(&t, NodeId::new("a")).unwrap();
            assert!(Transport::connect(&t, NodeId::new("a")).is_err());
            assert!(t.is_connected("a"));
        }
        assert!(!t.is_connected("a"));
        Transport::connect(&t, NodeId::new("a")).unwrap();
    }

    #[test]
    fn dropped_named_endpoints_go_through_the_bounded_counters_table() {
        use crate::metrics::DEPARTED_AGGREGATE;
        let t = TcpTransport::with_counters(CountersTable::retaining(2));
        let sink = Transport::connect(&t, NodeId::new("sink")).unwrap();
        for name in ["sink-peer", "n0", "n1", "n2"] {
            let node = Transport::connect(&t, NodeId::new(name)).unwrap();
            node.send("sink", "x", Element::new("b")).unwrap();
            sink.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        let m = Transport::metrics(&t);
        let names: Vec<&str> = m.nodes.iter().map(|n| n.node.as_str()).collect();
        assert_eq!(names, [DEPARTED_AGGREGATE, "n1", "n2", "sink"]);
        assert_eq!(m.node(DEPARTED_AGGREGATE).unwrap().sent, 2);
        assert_eq!(m.total_sent(), 4);
        assert_eq!(m.total_sent(), m.total_received());
    }

    #[test]
    fn transport_many_frames_one_connection() {
        let t = TcpTransport::new();
        let a = Transport::connect(&t, NodeId::new("a")).unwrap();
        let b = Transport::connect(&t, NodeId::new("b")).unwrap();
        for i in 0..100 {
            a.send("b", "seq", Element::new("n").with_attr("i", i.to_string()))
                .unwrap();
        }
        for i in 0..100 {
            let got = b.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(
                got.body.attr("i"),
                Some(i.to_string().as_str()),
                "in-order framing"
            );
        }
    }

    #[test]
    fn oversized_envelope_rejected_on_send() {
        let t = TcpTransport::new();
        let a = Transport::connect(&t, NodeId::new("a")).unwrap();
        let b = Transport::connect(&t, NodeId::new("b")).unwrap();
        let huge = Element::new("blob").with_text("x".repeat(MAX_FRAME as usize + 1));
        assert!(matches!(
            a.send("b", "big", huge),
            Err(SendError::Transport(_))
        ));
        // The pooled connection was never poisoned: normal traffic flows.
        a.send("b", "ok", Element::new("small")).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(5)).unwrap().kind, "ok");
    }

    /// The limit is exact on the stamped frame a hub sends: one byte over
    /// is refused before anything is queued, the largest accepted frame
    /// goes out, and the pooled connection carries the next frame.
    #[test]
    fn hub_refuses_a_frame_one_byte_over_the_limit_and_keeps_the_connection() {
        let t = TcpTransport::new();
        let _a = Transport::connect(&t, NodeId::new("a")).unwrap();
        let b = Transport::connect(&t, NodeId::new("b")).unwrap();
        let blob = |len: usize| Element::new("blob").with_text("x".repeat(len));
        let send = |kind: &str, body: Element| {
            t.send_prepared(
                MessageId(7),
                &NodeId::new("a"),
                NodeId::new("b"),
                kind.to_string(),
                body,
                None,
            )
        };
        let stamp = t.hub.sender_claim_stamp(&NodeId::new("a")).unwrap();
        let mut probe = env("at-limit");
        probe.id = MessageId(7);
        probe.from = NodeId::new("a");
        probe.to = NodeId::new("b");
        probe.body = blob(1);
        let fill = MAX_FRAME as usize - (probe.wire_len(&stamp) - 1);
        assert!(matches!(
            send("at-limit", blob(fill + 1)),
            Err(SendError::Transport(_))
        ));
        assert_eq!(t.metrics().node("a").unwrap().sent, 0, "nothing was queued");
        send("at-limit", blob(fill)).unwrap();
        assert_eq!(
            t.metrics().node("a").unwrap().bytes_sent,
            u64::from(MAX_FRAME)
        );
        send("ok", Element::new("small")).unwrap();
        let got = b.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(
            (got.kind.as_str(), got.body.text().len()),
            ("at-limit", fill)
        );
        assert_eq!(b.recv_timeout(Duration::from_secs(5)).unwrap().kind, "ok");
    }

    #[test]
    fn tilde_names_reserved_for_ephemeral_endpoints() {
        let t = TcpTransport::new();
        assert!(Transport::connect(&t, NodeId::new("user~x")).is_err());
        let fabric = crate::Network::new(crate::NetworkConfig::instant());
        assert!(fabric.connect("user~x").is_err());
    }

    #[test]
    fn transport_rpc_round_trip() {
        let t = TcpTransport::new();
        let client = Transport::connect(&t, NodeId::new("client")).unwrap();
        let server = Transport::connect(&t, NodeId::new("server")).unwrap();
        let handle = std::thread::spawn(move || {
            let req = server.recv().unwrap();
            server.reply(&req, "pong", Element::new("pong")).unwrap();
        });
        let resp = client
            .rpc(
                "server",
                "ping",
                Element::new("ping"),
                Duration::from_secs(5),
            )
            .unwrap();
        assert_eq!(resp.kind, "pong");
        handle.join().unwrap();
    }

    #[test]
    fn transport_metrics_count_messages_and_bytes() {
        let t = TcpTransport::new();
        let a = Transport::connect(&t, NodeId::new("a")).unwrap();
        let b = Transport::connect(&t, NodeId::new("b")).unwrap();
        a.send("b", "x", Element::new("payload").with_text("hello world"))
            .unwrap();
        a.send("b", "x", Element::new("p")).unwrap();
        // Wait until both frames are delivered.
        for _ in 0..2 {
            b.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        let m = t.metrics();
        assert_eq!(m.node("a").unwrap().sent, 2);
        assert_eq!(m.node("b").unwrap().received, 2);
        assert!(m.node("a").unwrap().bytes_sent > 0);
        assert_eq!(
            m.node("a").unwrap().bytes_sent,
            m.node("b").unwrap().bytes_received
        );
        t.reset_metrics();
        assert_eq!(t.metrics().total_sent(), 0);
    }

    #[test]
    fn oversized_frame_closes_connection() {
        let t = TcpTransport::new();
        let victim = Transport::connect(&t, NodeId::new("victim")).unwrap();
        let addr = t.addr_of("victim").unwrap();
        let mut rogue = TcpStream::connect(addr).unwrap();
        // Oversized length prefix, then what would be a valid frame on the
        // same stream: the reader must close instead of resynchronizing.
        rogue.write_all(&(MAX_FRAME + 1).to_be_bytes()).unwrap();
        let mut valid = Vec::new();
        write_frame(&mut valid, &env("late")).unwrap();
        let _ = rogue.write_all(&valid); // may already be closed; both fine
        assert!(
            victim.recv_timeout(Duration::from_millis(300)).is_err(),
            "no envelope may be decoded after an oversized frame"
        );
        // The server closed its side: reads on the rogue stream hit EOF
        // (or a reset error) instead of blocking forever.
        rogue
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 8];
        match rogue.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("unexpected {n} bytes from a closed connection"),
        }
        // A fresh connection still works.
        let sender = Transport::connect(&t, NodeId::new("sender")).unwrap();
        sender.send("victim", "ok", Element::new("b")).unwrap();
        assert_eq!(
            victim.recv_timeout(Duration::from_secs(5)).unwrap().kind,
            "ok"
        );
    }

    #[test]
    fn register_peer_reaches_foreign_transport() {
        // Two separate TcpTransport instances model two processes; names
        // are exchanged via register_peer.
        let t1 = TcpTransport::new();
        let t2 = TcpTransport::new();
        let receiver = Transport::connect(&t2, NodeId::new("remote")).unwrap();
        t1.register_peer("remote", t2.addr_of("remote").unwrap());
        let local = Transport::connect(&t1, NodeId::new("local")).unwrap();
        local.send("remote", "cross", Element::new("b")).unwrap();
        let got = receiver.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got.kind, "cross");
        assert_eq!(got.from.as_str(), "local");
    }

    #[test]
    fn register_peer_cannot_shadow_a_locally_connected_name() {
        // Regression: a remote registration for a name whose endpoint is
        // connected on this hub used to silently replace the local
        // mapping, hijacking all local traffic to that name. It must be
        // refused (the local entry is re-asserted) while the endpoint
        // lives — and honored again once the endpoint drops.
        let t = TcpTransport::new();
        let victim = Transport::connect(&t, NodeId::new("victim")).unwrap();
        let local_addr = t.addr_of("victim").unwrap();
        let elsewhere: SocketAddr = "127.0.0.1:9".parse().unwrap();
        t.register_peer("victim", elsewhere);
        assert_eq!(
            t.addr_of("victim"),
            Some(local_addr),
            "local mapping survives a shadowing registration"
        );
        // Traffic still reaches the local endpoint.
        let probe = Transport::connect(&t, NodeId::new("probe")).unwrap();
        probe
            .send("victim", "still-here", Element::new("b"))
            .unwrap();
        assert_eq!(
            victim.recv_timeout(Duration::from_secs(5)).unwrap().kind,
            "still-here"
        );
        // After the endpoint drops, the name is free to point elsewhere.
        drop(victim);
        t.register_peer("victim", elsewhere);
        assert_eq!(t.addr_of("victim"), Some(elsewhere));
    }

    #[test]
    fn frames_piggyback_sender_claims_for_reply_routing() {
        // Hub 1 knows hub 2's "server" (one direction only). The request
        // frame piggybacks the client's own address, so the reply routes
        // back without any reverse registration or gossip.
        let t1 = TcpTransport::new();
        let t2 = TcpTransport::new();
        let client = Transport::connect(&t1, NodeId::new("client")).unwrap();
        let server = Transport::connect(&t2, NodeId::new("server")).unwrap();
        t1.register_peer("server", t2.addr_of("server").unwrap());
        assert!(t2.addr_of("client").is_none(), "no reverse registration");
        let server_thread = std::thread::spawn(move || {
            let req = server.recv().unwrap();
            server.reply(&req, "pong", Element::new("pong")).unwrap();
        });
        let reply = client
            .rpc(
                "server",
                "ping",
                Element::new("ping"),
                Duration::from_secs(5),
            )
            .unwrap();
        assert_eq!(reply.kind, "pong");
        // The claim carried the owning hub's identity, not a guess.
        assert_eq!(
            t2.directory().entry("client").map(|e| e.value.owner),
            Some(t1.hub_id())
        );
        server_thread.join().unwrap();
    }

    #[test]
    fn anonymous_endpoints_never_collide_across_hubs() {
        // Two hubs whose anonymous counters both start at 1 each mint a
        // `client~…` identity and rpc the same third-hub server. The
        // names must be globally distinct — a collision would merge both
        // piggybacked claims under one directory key on the server's hub
        // and misroute one side's replies.
        let t1 = TcpTransport::new();
        let t2 = TcpTransport::new();
        let t3 = TcpTransport::new();
        let server = Transport::connect(&t3, NodeId::new("server")).unwrap();
        let server_addr = t3.addr_of("server").unwrap();
        t1.register_peer("server", server_addr);
        t2.register_peer("server", server_addr);
        let c1 = t1.connect_anonymous("client");
        let c2 = t2.connect_anonymous("client");
        assert_ne!(
            c1.node(),
            c2.node(),
            "hub id keeps per-hub counters globally unique"
        );
        let server_thread = std::thread::spawn(move || {
            for _ in 0..2 {
                let req = server.recv().unwrap();
                // Echo the caller's name back so the reply is checkable.
                server
                    .reply(
                        &req,
                        "pong",
                        Element::new("pong").with_attr("caller", req.from.as_str()),
                    )
                    .unwrap();
            }
        });
        for client in [&c1, &c2] {
            let reply = client
                .rpc(
                    "server",
                    "ping",
                    Element::new("ping"),
                    Duration::from_secs(5),
                )
                .unwrap();
            assert_eq!(
                reply.body.attr("caller"),
                Some(client.node().as_str()),
                "each hub's anonymous client got its own reply"
            );
        }
        server_thread.join().unwrap();
    }

    #[test]
    fn send_to_addr_reaches_a_listener_known_only_by_address() {
        let t1 = TcpTransport::new();
        let t2 = TcpTransport::new();
        let greeter = Transport::connect(&t1, NodeId::new("greeter")).unwrap();
        let seed = Transport::connect(&t2, NodeId::new("seed")).unwrap();
        let seed_addr = t2.addr_of("seed").unwrap();
        // Until the hub declares a recipient, a frame sent by address is
        // for no one: counted as dropped, never handed to a node.
        t1.send_to_addr(seed_addr, greeter.node(), "early", Element::new("hi"))
            .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while t2.metrics().total_dropped() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(t2.metrics().total_dropped(), 1);
        assert!(seed.try_recv().is_none());
        t2.set_unaddressed_recipient(seed.node());
        t1.send_to_addr(seed_addr, greeter.node(), "hello", Element::new("hi"))
            .unwrap();
        let got = seed.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got.kind, "hello");
        assert_eq!(got.from.as_str(), "greeter");
        // The piggybacked claim makes the greeter addressable by name.
        assert_eq!(
            t2.addr_of("greeter"),
            t1.addr_of("greeter"),
            "receiver learned the sender's address from the frame"
        );
        seed.reply(&got, "welcome", Element::new("w")).unwrap();
        assert_eq!(
            greeter.recv_timeout(Duration::from_secs(5)).unwrap().kind,
            "welcome"
        );
    }

    #[test]
    fn rpc_round_trips_across_hubs_linked_by_register_peer() {
        // Two hubs model two processes, linked ONLY by register_peer in
        // both directions. The request frame carries the caller's name as
        // the reply address, so the responder's reply is an ordinary named
        // send routed back across the process boundary — previously
        // impossible (replies targeted caller-local ephemeral names).
        let t1 = TcpTransport::new();
        let t2 = TcpTransport::new();
        let client = Transport::connect(&t1, NodeId::new("client")).unwrap();
        let server = Transport::connect(&t2, NodeId::new("server")).unwrap();
        t1.register_peer("server", t2.addr_of("server").unwrap());
        t2.register_peer("client", t1.addr_of("client").unwrap());
        let server_thread = std::thread::spawn(move || {
            let req = server.recv().unwrap();
            assert_eq!(req.from.as_str(), "client");
            server
                .reply(&req, "pong", Element::new("pong").with_attr("hub", "2"))
                .unwrap();
        });
        let reply = client
            .rpc(
                "server",
                "ping",
                Element::new("ping"),
                Duration::from_secs(5),
            )
            .unwrap();
        assert_eq!(reply.kind, "pong");
        assert_eq!(reply.body.attr("hub"), Some("2"));
        server_thread.join().unwrap();
    }

    /// Number of open file descriptors for this process (Linux).
    #[cfg(target_os = "linux")]
    fn open_fds() -> usize {
        std::fs::read_dir("/proc/self/fd").map_or(0, |d| d.count())
    }

    #[test]
    fn concurrent_rpc_burst_binds_no_listeners() {
        let t = TcpTransport::new();
        let echo = Transport::connect(&t, NodeId::new("echo")).unwrap();
        let client = Transport::connect(&t, NodeId::new("client")).unwrap();
        let echo_thread = std::thread::spawn(move || {
            while let Ok(req) = echo.recv() {
                if req.kind == "stop" {
                    return;
                }
                let _ = echo.reply(&req, "pong", req.body.clone());
            }
        });
        // Warm the connection pool (client→echo and echo→client) so the
        // burst below runs entirely on existing sockets.
        client
            .rpc("echo", "ping", Element::new("warm"), Duration::from_secs(5))
            .unwrap();
        let names_before = t.node_names();
        #[cfg(target_os = "linux")]
        let fds_before = open_fds();
        let sampling = Arc::new(AtomicBool::new(true));
        // Sample *while* the burst is in flight: the old per-call scheme
        // registered an ephemeral `client~n` node and held a listener +
        // reply connection (≥3 fds) per concurrent rpc at this point. The
        // node-set probe is deterministic (only this transport's state);
        // the fd probe is process-wide, so it gets slack for sockets that
        // unrelated parallel tests may open.
        let sampler = {
            let sampling = Arc::clone(&sampling);
            let t = t.clone();
            let names_before = names_before.clone();
            std::thread::spawn(move || {
                let mut max_fds = 0;
                let mut transient_names = false;
                while sampling.load(Ordering::SeqCst) {
                    #[cfg(target_os = "linux")]
                    {
                        max_fds = max_fds.max(open_fds());
                    }
                    transient_names |= t.node_names() != names_before;
                    std::thread::sleep(Duration::from_micros(200));
                }
                (max_fds, transient_names)
            })
        };
        std::thread::scope(|s| {
            for i in 0..64 {
                let sender = client.sender();
                s.spawn(move || {
                    let reply = sender
                        .rpc(
                            "echo",
                            "ping",
                            Element::new("ping").with_attr("i", i.to_string()),
                            Duration::from_secs(10),
                        )
                        .expect("burst rpc completes");
                    assert_eq!(reply.body.attr("i"), Some(i.to_string().as_str()));
                });
            }
        });
        sampling.store(false, Ordering::SeqCst);
        #[allow(unused_variables)]
        let (max_fds, transient_names) = sampler.join().unwrap();
        // No ephemeral reply endpoints: this transport's node set never
        // changed, even mid-burst (the old scheme registered `client~n`
        // names per rpc), and the fd count stayed flat (per-call listeners
        // would have cost ≥3 fds × 64 concurrent calls ≥ 192; the slack
        // absorbs unrelated parallel tests' sockets).
        assert_eq!(t.node_names(), names_before);
        assert!(!transient_names, "rpc burst must not register nodes");
        #[cfg(target_os = "linux")]
        assert!(
            max_fds <= fds_before + 100,
            "rpc burst must not create sockets: {fds_before} fds before, \
             {max_fds} at peak"
        );
        assert_eq!(client.demux().pending_rpcs(), 0);
        let _ = client.send("echo", "stop", Element::new("stop"));
        echo_thread.join().unwrap();
    }

    // (`ConnectError::Bind` itself is not exercised here: a loopback
    // ephemeral-port bind only fails under fd/port exhaustion, which a
    // unit test cannot trigger reliably.)
    #[test]
    fn name_collisions_reported_as_structured_connect_errors() {
        let t = TcpTransport::new();
        assert!(matches!(
            Transport::connect(&t, NodeId::new("user~x")),
            Err(ConnectError::ReservedName(_))
        ));
        let _a = Transport::connect(&t, NodeId::new("a")).unwrap();
        match Transport::connect(&t, NodeId::new("a")) {
            Err(e) => {
                assert!(e.is_name_taken());
                assert_eq!(e.node().as_str(), "a");
            }
            Ok(_) => panic!("duplicate name must be rejected"),
        }
    }
}
