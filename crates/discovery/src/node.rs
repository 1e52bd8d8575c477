//! The discovery node: one `NodeLogic` state machine per hub that
//! handshakes seeds, gossips directory state, and detects dead peers.

use crate::{DiscoveryConfig, DiscoveryStats, EventLog};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selfserv_net::gossip::payload_sections;
use selfserv_net::lww::{rows_from_xml, rows_to_xml};
use selfserv_net::{
    DirectoryEntry, Envelope, HubId, LivenessEvent, NodeId, PeerDirectory, PeerStatus,
    TcpTransport, LIVENESS_KIND,
};
use selfserv_runtime::{Flow, NodeCtx, NodeLogic, TimerToken};
use selfserv_xml::Element;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// Message kinds of the discovery protocol. All bodies are `<directory>`
/// elements (hub id + sender's disc node + zero or more `<entry>` rows)
/// except ping/pong, which carry only the header.
pub mod kinds {
    /// First-contact greeting to a seed address: full snapshot, answered
    /// by [`WELCOME`].
    pub const HELLO: &str = "discovery.hello";
    /// Handshake answer: the seed's full snapshot.
    pub const WELCOME: &str = "discovery.welcome";
    /// Periodic anti-entropy push: full snapshot, answered by [`DELTA`]
    /// when the receiver holds fresher rows.
    pub const SYNC: &str = "discovery.sync";
    /// Anti-entropy pull half: exactly the rows the [`SYNC`] sender was
    /// missing.
    pub const DELTA: &str = "discovery.delta";
    /// Heartbeat probe.
    pub const PING: &str = "discovery.ping";
    /// Heartbeat answer.
    pub const PONG: &str = "discovery.pong";
    /// Deterministic clock injection: runs one gossip round and one
    /// failure-detection sweep immediately, exactly as if both timers had
    /// fired (without re-arming them). Chaos and convergence tests use
    /// this to step discovery at a controlled cadence instead of racing
    /// wall-clock timers. Carries no body.
    pub const TICK: &str = "discovery.tick";
}

/// The canonical name of a hub's discovery node. The prefix doubles as
/// the peer-detection convention: a directory entry named
/// `disc.<owner-id>` *is* that owner's discovery endpoint.
pub fn disc_node_name(hub: HubId) -> NodeId {
    NodeId::new(format!("disc.{hub}"))
}

const GOSSIP_TIMER: TimerToken = TimerToken(1);
const SWEEP_TIMER: TimerToken = TimerToken(2);

/// Live reasserts of one name before the sweep reports a cross-hub
/// conflict. One or two are normal during eviction recovery races; a
/// count that reaches this within the conflict window means another hub
/// keeps claiming a name that is alive here.
const CONFLICT_THRESHOLD: u64 = 3;

/// One exchange's worth of directory rows.
type DirectoryRows = Vec<(NodeId, DirectoryEntry)>;

/// What this hub knows about one peer hub's discovery endpoint.
struct PeerState {
    disc: NodeId,
    last_heard: Instant,
    suspected: bool,
}

/// The per-hub discovery state machine. Spawn through
/// [`crate::PeerDiscovery`]; the type is public for documentation, not
/// for direct construction.
pub struct DiscoveryNode {
    hub: TcpTransport,
    directory: PeerDirectory,
    config: DiscoveryConfig,
    /// Seeds that have not answered yet; re-greeted every gossip tick
    /// (covers seeds that start after us). Re-armed when a sweep evicts
    /// the last peer.
    pending_seeds: Vec<SocketAddr>,
    peers: HashMap<HubId, PeerState>,
    events: Arc<EventLog>,
    stats: Arc<DiscoveryStats>,
    rng: StdRng,
}

impl DiscoveryNode {
    pub(crate) fn new(
        hub: TcpTransport,
        config: DiscoveryConfig,
        events: Arc<EventLog>,
        stats: Arc<DiscoveryStats>,
    ) -> DiscoveryNode {
        let directory = hub.directory();
        let rng_seed = config.rng_seed.unwrap_or(hub.hub_id().0);
        let pending_seeds = config.seeds.clone();
        DiscoveryNode {
            hub,
            directory,
            config,
            pending_seeds,
            peers: HashMap::new(),
            events,
            stats,
            rng: StdRng::seed_from_u64(rng_seed),
        }
    }

    /// Encodes a set of directory rows under this node's header.
    fn directory_body(&self, ctx: &NodeCtx<'_>, rows: &[(NodeId, DirectoryEntry)]) -> Element {
        Element::new("directory")
            .with_attr("hub", self.directory.hub().to_string())
            .with_attr("disc", ctx.node().as_str())
            .with_children(rows_to_xml(rows))
    }

    /// Appends every registered gossip payload's snapshot to an outgoing
    /// full-state exchange (`<payload>` sections ride as siblings of the
    /// `<entry>` rows, which the directory decoder ignores).
    fn attach_payloads(&self, body: Element) -> Element {
        if self.config.payloads.is_empty() {
            return body;
        }
        body.with_children(self.config.payloads.snapshots())
    }

    /// Greets every unanswered seed with a full-snapshot hello. Send
    /// failures are expected (the seed may not be up yet) and retried on
    /// the next tick.
    fn greet_pending_seeds(&mut self, ctx: &NodeCtx<'_>) {
        if self.pending_seeds.is_empty() {
            return;
        }
        // A seed is answered once some known disc entry resolves to it.
        let answered: Vec<SocketAddr> = self
            .peers
            .values()
            .filter_map(|p| self.directory.lookup(&p.disc))
            .collect();
        let own = self.directory.lookup(ctx.node());
        self.pending_seeds
            .retain(|s| !answered.contains(s) && Some(*s) != own);
        let body = self.attach_payloads(self.directory_body(ctx, &self.directory.snapshot()));
        // Greeting may target hubs that are down (that is the point of
        // retrying), but sends no longer block on the socket: they enqueue
        // on the destination's connection writer and return, so even a
        // seed that blackholes its SYNs costs this worker nothing — the
        // connect timeout is the writer thread's problem.
        for seed in &self.pending_seeds {
            let _ = self
                .hub
                .send_to_addr(*seed, ctx.node(), kinds::HELLO, body.clone());
        }
    }

    /// Records life from a peer hub, creating its state on first contact
    /// and clearing suspicion (with an `Alive` event) when it speaks
    /// again.
    fn note_heard(&mut self, ctx: &NodeCtx<'_>, hub: HubId, disc: NodeId) {
        if hub == self.directory.hub() || hub == HubId::UNKNOWN {
            return;
        }
        let peer = self.peers.entry(hub).or_insert_with(|| PeerState {
            disc: disc.clone(),
            last_heard: Instant::now(),
            suspected: false,
        });
        peer.disc = disc;
        peer.last_heard = Instant::now();
        if peer.suspected {
            peer.suspected = false;
            let names = self.directory.set_suspected(hub, false);
            self.emit(
                Some(ctx),
                LivenessEvent {
                    hub,
                    status: PeerStatus::Alive,
                    names,
                },
            );
        }
    }

    /// The receiving half of every exchange: merges a message's directory
    /// rows and its payload sections through their push-pull responders
    /// and returns what the sender is missing of each — nothing unless
    /// the message was a full snapshot awaiting its answer (`!is_delta`).
    /// Adopts any newly learned peer discovery endpoints on the way
    /// (transitive membership: a gossip partner's snapshot introduces
    /// hubs we have never talked to). Candidates come from the incoming
    /// rows — O(message), not a full directory rescan — and are adopted
    /// only if their entry survived the merge (our own fresher tombstone
    /// may have out-versioned a stale claim).
    fn merge_message(
        &mut self,
        rows: DirectoryRows,
        body: &Element,
        is_delta: bool,
    ) -> (DirectoryRows, Vec<Element>) {
        let me = self.directory.hub();
        let candidates: Vec<(HubId, NodeId)> = rows
            .iter()
            .filter(|(name, entry)| {
                !entry.evicted
                    && entry.value.owner != me
                    && !self.peers.contains_key(&entry.value.owner)
                    && *name == disc_node_name(entry.value.owner)
            })
            .map(|(name, entry)| (entry.value.owner, name.clone()))
            .collect();
        let missing = self.directory.respond(rows, is_delta);
        for (hub, disc) in candidates {
            if !self.directory.is_bound(disc.as_str()) {
                continue; // the claim lost the merge (evicted here)
            }
            self.peers.insert(
                hub,
                PeerState {
                    disc,
                    // Grace: transitively learned peers start the clock at
                    // adoption, not at zero — we have never probed them.
                    last_heard: Instant::now(),
                    suspected: false,
                },
            );
        }
        let payload_answers = self.config.payloads.merge_sections(payload_sections(body));
        (missing, payload_answers)
    }

    /// Decodes a protocol message: sender hub, sender disc node, rows.
    fn decode(body: &Element) -> Option<(HubId, NodeId, DirectoryRows)> {
        if body.name != "directory" {
            return None;
        }
        let hub = HubId::parse(body.attr("hub")?)?;
        let disc = NodeId::new(body.attr("disc")?);
        Some((hub, disc, rows_from_xml(body)))
    }

    /// Publishes a liveness transition: the handle's log always gets it;
    /// a configured monitor node gets a fire-and-forget envelope.
    fn emit(&self, ctx: Option<&NodeCtx<'_>>, event: LivenessEvent) {
        if let (Some(ctx), Some(monitor)) = (ctx, &self.config.monitor) {
            let _ = ctx
                .endpoint()
                .send(monitor.clone(), LIVENESS_KIND, event.to_xml());
        }
        self.events.push(event);
    }

    /// One gossip round: re-greet unanswered seeds, then push-pull the
    /// directory with `gossip_fanout` distinct random known peers.
    fn gossip(&mut self, ctx: &NodeCtx<'_>) {
        self.stats.inc_gossip();
        self.greet_pending_seeds(ctx);
        let mut candidates: Vec<NodeId> = self.peers.values().map(|p| p.disc.clone()).collect();
        if candidates.is_empty() {
            return;
        }
        // Sorted before sampling so the seeded rng draws from a stable
        // order (HashMap iteration would leak its own randomness).
        candidates.sort();
        let fanout = self.config.gossip_fanout.clamp(1, candidates.len());
        // Partial Fisher-Yates: the first `fanout` slots become a uniform
        // sample without replacement.
        for i in 0..fanout {
            let j = self.rng.gen_range(i..candidates.len());
            candidates.swap(i, j);
        }
        let body = self.attach_payloads(self.directory_body(ctx, &self.directory.snapshot()));
        for partner in candidates.into_iter().take(fanout) {
            // A silently dead partner costs nothing here: the send
            // enqueues on its connection writer and returns.
            let _ = ctx.endpoint().send(partner, kinds::SYNC, body.clone());
        }
    }

    /// One failure-detection sweep: probe the quiet, suspect the silent,
    /// evict the dead.
    fn sweep(&mut self, ctx: &NodeCtx<'_>) {
        self.stats.inc_sweep();
        let now = Instant::now();
        let mut to_ping: Vec<NodeId> = Vec::new();
        let mut to_suspect: Vec<HubId> = Vec::new();
        let mut to_evict: Vec<HubId> = Vec::new();
        for (hub, peer) in &self.peers {
            let silent = now.duration_since(peer.last_heard);
            if silent >= self.config.eviction_timeout {
                to_evict.push(*hub);
            } else if silent >= self.config.suspicion_timeout && !peer.suspected {
                to_suspect.push(*hub);
            } else if silent >= self.config.heartbeat_interval {
                to_ping.push(peer.disc.clone());
            }
        }
        // Probes target hubs that may be dead, but enqueue-and-return
        // sends make that the connection writer's problem — a blackholed
        // peer's connect timeout never touches this worker.
        for disc in to_ping {
            let _ = ctx.endpoint().send(
                disc,
                kinds::PING,
                Element::new("directory")
                    .with_attr("hub", self.directory.hub().to_string())
                    .with_attr("disc", ctx.node().as_str()),
            );
        }
        for hub in to_suspect {
            self.stats.inc_suspicion();
            if let Some(peer) = self.peers.get_mut(&hub) {
                peer.suspected = true;
            }
            let names = self.directory.set_suspected(hub, true);
            self.emit(
                Some(ctx),
                LivenessEvent {
                    hub,
                    status: PeerStatus::Suspected,
                    names,
                },
            );
        }
        // Last-known addresses of the hubs evicted now (a tombstone keeps
        // the address, so a peer already buried by gossip still has one).
        let mut evicted_addrs: Vec<SocketAddr> = Vec::new();
        for hub in to_evict {
            self.stats.inc_eviction();
            if let Some(peer) = self.peers.remove(&hub) {
                evicted_addrs.extend(
                    self.directory
                        .entry(peer.disc.as_str())
                        .map(|e| e.value.addr),
                );
            }
            let names = self.directory.evict_owner(hub);
            self.emit(
                Some(ctx),
                LivenessEvent {
                    hub,
                    status: PeerStatus::Evicted,
                    names,
                },
            );
        }
        // The last peer just went: with no one left to gossip with and
        // the seeds long answered, nothing would ever be sent again and a
        // healed partition would never re-merge. Greet the configured
        // seeds and the evicted hubs' addresses until one answers.
        if !evicted_addrs.is_empty() && self.peers.is_empty() {
            for addr in self.config.seeds.iter().copied().chain(evicted_addrs) {
                if !self.pending_seeds.contains(&addr) {
                    self.pending_seeds.push(addr);
                }
            }
        }
        // Cross-hub name conflicts the merge has been counting: once a
        // name's live-reassert count persists past the threshold, surface
        // it — the event's hub is the conflicting *claimant*, not a
        // liveness transition of a peer.
        for (name, claimant, _count) in self.directory.take_conflicts(CONFLICT_THRESHOLD) {
            self.stats.inc_conflict();
            self.emit(
                Some(ctx),
                LivenessEvent {
                    hub: claimant,
                    status: PeerStatus::NameConflict,
                    names: vec![name],
                },
            );
        }
    }
}

impl NodeLogic for DiscoveryNode {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.greet_pending_seeds(ctx);
        ctx.set_timer(self.config.gossip_interval, GOSSIP_TIMER);
        ctx.set_timer(self.config.heartbeat_interval, SWEEP_TIMER);
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) -> Flow {
        if env.kind == kinds::TICK {
            self.gossip(ctx);
            self.sweep(ctx);
            return Flow::Continue;
        }
        let Some((hub, disc, rows)) = Self::decode(&env.body) else {
            return Flow::Continue;
        };
        self.note_heard(ctx, hub, disc.clone());
        match env.kind.as_str() {
            kinds::HELLO => {
                // Merged before the answer is built, so the WELCOME
                // snapshot already includes the greeter's rows — and being
                // everything we know, it needs no missing-rows answer.
                self.merge_message(rows, &env.body, true);
                // First contact: answer with everything we know, by name —
                // the hello's piggybacked claim made the greeter routable.
                let body =
                    self.attach_payloads(self.directory_body(ctx, &self.directory.snapshot()));
                let _ = ctx.endpoint().send(disc, kinds::WELCOME, body);
            }
            kinds::SYNC => {
                let (missing, payload_answers) = self.merge_message(rows, &env.body, false);
                if !missing.is_empty() || !payload_answers.is_empty() {
                    let body = self
                        .directory_body(ctx, &missing)
                        .with_children(payload_answers);
                    let _ = ctx.endpoint().send(disc, kinds::DELTA, body);
                }
            }
            // Answers to an answer are discarded — the periodic SYNC is
            // the repair path for anything we hold that they lack.
            kinds::WELCOME | kinds::DELTA => {
                self.merge_message(rows, &env.body, true);
            }
            kinds::PING => {
                let body = Element::new("directory")
                    .with_attr("hub", self.directory.hub().to_string())
                    .with_attr("disc", ctx.node().as_str());
                let _ = ctx.endpoint().reply(&env, kinds::PONG, body);
            }
            kinds::PONG => {}
            _ => {}
        }
        Flow::Continue
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: TimerToken) -> Flow {
        match timer {
            GOSSIP_TIMER => {
                self.gossip(ctx);
                ctx.set_timer(self.config.gossip_interval, GOSSIP_TIMER);
            }
            SWEEP_TIMER => {
                self.sweep(ctx);
                ctx.set_timer(self.config.heartbeat_interval, SWEEP_TIMER);
            }
            _ => {}
        }
        Flow::Continue
    }
}
