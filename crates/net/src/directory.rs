//! The peer directory: a versioned, mergeable `name → address` map.
//!
//! [`crate::TcpTransport`] used to keep a raw `HashMap<NodeId, SocketAddr>`
//! that an operator filled by hand (`register_peer`, both directions, for
//! every pair of processes). The directory replaces that map with a state
//! that *converges*: a [`crate::lww::LwwTable`] whose rows bind a name to
//! a [`PeerClaim`] — the listener address of the hub the name lives on
//! and that **hub's id** (every name of one hub shares its one address) —
//! so two directories combine under the table's deterministic
//! last-writer-wins merge, and any exchange order reaches the same
//! directory on every hub.
//! Dropping a local endpoint (or evicting a dead hub's names) tombstones
//! the row; a local re-bind writes over its own tombstone with a higher
//! version, so names stay reusable.
//!
//! What this module adds around the table is *policy*: a hub defends the
//! names alive on it against every remote claim, counts the claims that
//! look like a cross-hub name conflict, and keeps ephemeral `~` names out
//! of gossip.
//!
//! Liveness is layered on top: eviction is durable and versioned (it
//! gossips), while **suspicion** is a local, unversioned overlay — one
//! hub's timeout observation must not masquerade as cluster-wide truth.
//! Consumers that only need "should I still pick this peer?" take the
//! directory through the [`LivenessProbe`] trait (e.g. community member
//! selection).
//!
//! ## Known limitations
//!
//! Node names are one global namespace with no arbiter. **Binding the
//! same name on two hubs is an operator error the system cannot
//! resolve**: each hub's self-defense re-asserts its own live endpoint
//! over the other's claims, so the two directories exchange one
//! correcting delta per gossip round and never converge on that name
//! (every other name still converges). The directory *detects* this:
//! repeated live reasserts are counted per name and the discovery sweep
//! drains them ([`PeerDirectory::take_conflicts`]) into operator-visible
//! [`PeerStatus::NameConflict`] events — but resolution stays with the
//! operator. Likewise, entries owned by hubs that run **no discovery
//! node** — or registered by hand
//! ([`crate::TcpTransport::register_peer`], owner
//! [`HubId::UNKNOWN`]) — sit outside failure detection: nothing probes,
//! suspects, or evicts them, so after their process dies they stay
//! routable-looking until overwritten or manually re-registered.
//! Address-level probing for detector-less owners is a ROADMAP item.

use crate::envelope::NodeId;
use crate::lww::{LwwTable, LwwValue, Row};
use parking_lot::RwLock;
use selfserv_xml::Element;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifies one transport hub (one process's [`crate::TcpTransport`]).
/// Generated at hub creation from wall-clock entropy plus a process-local
/// counter; `0` is reserved for entries registered by hand
/// ([`crate::TcpTransport::register_peer`]) whose owning hub is unknown —
/// the failure detector never suspects or evicts hub `0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HubId(pub u64);

impl HubId {
    /// The sentinel owner of manually registered entries.
    pub const UNKNOWN: HubId = HubId(0);

    /// Generates a hub id unlikely to collide across processes: wall-clock
    /// nanoseconds mixed (splitmix64) with a process-local counter.
    pub fn generate() -> HubId {
        static COUNTER: AtomicU64 = AtomicU64::new(1);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        let mut x = nanos
            .wrapping_add(
                COUNTER
                    .fetch_add(1, Ordering::Relaxed)
                    .wrapping_mul(0x9e37_79b9),
            )
            .wrapping_add(std::process::id() as u64);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        if x == 0 {
            x = 1; // never collide with HubId::UNKNOWN
        }
        HubId(x)
    }

    /// Parses the hex form produced by `Display`.
    pub fn parse(s: &str) -> Option<HubId> {
        u64::from_str_radix(s, 16).ok().map(HubId)
    }
}

impl fmt::Display for HubId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A peer's liveness as this hub currently believes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerStatus {
    /// Reachable (or never observed to be anything else).
    Alive,
    /// Missed heartbeats past the suspicion timeout — still routable, but
    /// selection policies should prefer alternatives.
    Suspected,
    /// Declared dead: the entry is tombstoned, lookups fail, and the
    /// eviction gossips to every hub.
    Evicted,
    /// Two hubs persistently claim the same name — an operator error the
    /// merge cannot resolve (each hub re-asserts its own live endpoint, so
    /// the directories trade correcting deltas forever). Never returned by
    /// [`PeerDirectory`]'s `status_of`; carried only by
    /// [`LivenessEvent`]s so operators see the misconfiguration instead of
    /// silent gossip churn. The event's `hub` is the *conflicting
    /// claimant*, its `names` the contested name.
    NameConflict,
}

impl PeerStatus {
    /// Wire name (used by the directory codec and liveness events).
    pub fn name(self) -> &'static str {
        match self {
            PeerStatus::Alive => "alive",
            PeerStatus::Suspected => "suspected",
            PeerStatus::Evicted => "evicted",
            PeerStatus::NameConflict => "conflict",
        }
    }

    /// Parses the wire name.
    pub fn from_name(s: &str) -> Option<PeerStatus> {
        Some(match s {
            "alive" => PeerStatus::Alive,
            "suspected" => PeerStatus::Suspected,
            "evicted" => PeerStatus::Evicted,
            "conflict" => PeerStatus::NameConflict,
            _ => return None,
        })
    }
}

/// Answers liveness queries by node name. Implemented by
/// [`PeerDirectory`]; community servers take it as `Arc<dyn
/// LivenessProbe>` so member selection can skip the dead without the
/// community crate knowing anything about transports or gossip.
pub trait LivenessProbe: Send + Sync {
    /// The believed status of `name`. Unknown names are `Alive` (absence
    /// of evidence is not evidence of death — a member may live on a
    /// transport with no failure detection at all, e.g. the fabric).
    fn status_of(&self, name: &str) -> PeerStatus;
}

/// Where a name lives and which hub answers for it: the value of a
/// directory row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerClaim {
    /// The listener address of the hub the name's endpoint is connected
    /// on (shared by every name on that hub).
    pub addr: SocketAddr,
    /// The hub the name is (or was) connected on.
    pub owner: HubId,
}

impl LwwValue for PeerClaim {
    type Key = NodeId;
    type Order<'a> = (HubId, SocketAddr);

    fn order(&self) -> (HubId, SocketAddr) {
        (self.owner, self.addr)
    }

    fn to_xml(&self, name: &NodeId) -> Element {
        Element::new("entry")
            .with_attr("name", name.as_str())
            .with_attr("addr", self.addr.to_string())
            .with_attr("owner", self.owner.to_string())
    }

    fn from_xml(el: &Element) -> Option<(NodeId, PeerClaim)> {
        if el.name != "entry" {
            return None;
        }
        Some((
            NodeId::new(el.attr("name")?),
            PeerClaim {
                addr: el.attr("addr")?.parse().ok()?,
                owner: HubId::parse(el.attr("owner")?)?,
            },
        ))
    }
}

/// One directory row: a [`PeerClaim`] under the per-name version counter
/// (bumped by the owning hub on every (re-)bind and drop, and by an
/// evicting hub's tombstone) and the tombstone flag (endpoint dropped or
/// owner evicted). The `<entry>` element is its wire form, via
/// [`crate::lww::row_to_xml`] and [`crate::lww::row_from_xml`].
pub type DirectoryEntry = Row<PeerClaim>;

/// What a merge changed (the material for liveness events and gossip
/// effectiveness accounting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirectoryChange {
    /// A name this hub had never heard of (or held an older claim for)
    /// is now bound.
    Learned(NodeId),
    /// A name was tombstoned by the merge.
    Evicted(NodeId),
    /// A remote claim tried to overwrite a name whose endpoint is alive
    /// on this hub; the local entry was re-asserted with a higher version
    /// (the next gossip round propagates the correction).
    Reasserted(NodeId),
}

/// The hub's rows, split by whether they replicate: two tables of one
/// type, indexed by [`NAMED`], [`EPHEMERAL`], or [`table_of`] a name.
type Tables = [LwwTable<NodeId, PeerClaim>; 2];

/// The replicated table: every named entry, tombstones included.
/// Snapshots, deltas and the fingerprint are this table's alone.
const NAMED: usize = 0;

/// Ephemeral `~` names (transport-local client identities): routed to
/// like any name and merged under the same order (remote ones are learned
/// from piggybacked frame claims), but never gossiped — exporting them
/// would gossip short-lived endpoints forever. With no one to tell, they
/// leave without tombstones.
const EPHEMERAL: usize = 1;

/// Which table holds `name`.
fn table_of(name: &NodeId) -> usize {
    usize::from(name.as_str().contains('~'))
}

/// Every live name with its claim, named and ephemeral.
fn live(tables: &Tables) -> impl Iterator<Item = (&NodeId, &PeerClaim)> {
    tables.iter().flat_map(|table| table.live_rows())
}

struct DirectoryInner {
    hub: HubId,
    tables: RwLock<Tables>,
    /// Local suspicion overlay (never gossiped, never versioned).
    suspected_owners: RwLock<HashSet<HubId>>,
    /// Per-name count of *live* remote claims re-asserted over a locally
    /// alive endpoint — evidence of two hubs binding the same name. A
    /// one-off reassert is normal (stale tombstones during eviction
    /// recovery); a count that keeps climbing is a cross-hub conflict.
    /// Keyed by name; the value is the latest conflicting claimant and
    /// the running count. Leaf lock: no other directory lock is taken
    /// while it is held.
    conflicts: RwLock<HashMap<NodeId, (HubId, u64)>>,
}

/// The shared, versioned name → address directory of one hub. Cheap to
/// clone (all clones view the same state).
#[derive(Clone)]
pub struct PeerDirectory {
    inner: Arc<DirectoryInner>,
}

impl PeerDirectory {
    /// An empty directory owned by `hub`.
    pub fn new(hub: HubId) -> PeerDirectory {
        PeerDirectory {
            inner: Arc::new(DirectoryInner {
                hub,
                tables: RwLock::new(Tables::default()),
                suspected_owners: RwLock::new(HashSet::new()),
                conflicts: RwLock::new(HashMap::new()),
            }),
        }
    }

    /// The owning hub's id.
    pub fn hub(&self) -> HubId {
        self.inner.hub
    }

    /// Binds a locally connected name to the hub's listener address,
    /// writing over any tombstone with a higher version. Fails (returning
    /// the standing entry) when a live entry already claims the name —
    /// local or remote, exactly like the raw registry did.
    pub fn bind_local(&self, name: NodeId, addr: SocketAddr) -> Result<(), DirectoryEntry> {
        let table = &mut self.inner.tables.write()[table_of(&name)];
        if let Some(standing) = table.get(&name).filter(|e| !e.evicted) {
            return Err(standing.clone());
        }
        let owner = self.inner.hub;
        table.put(name, PeerClaim { addr, owner });
        Ok(())
    }

    /// Tombstones a locally owned name when its endpoint drops — but only
    /// if the entry still points at `addr` (a remote claim may have
    /// replaced it, and that claim is not ours to bury).
    pub fn remove_local(&self, name: &NodeId, addr: SocketAddr) {
        let table = &mut self.inner.tables.write()[table_of(name)];
        let ours = PeerClaim {
            addr,
            owner: self.inner.hub,
        };
        if table.live(name) != Some(&ours) {
            return;
        }
        if table_of(name) == EPHEMERAL {
            table.remove(name);
        } else {
            table.bury(name);
        }
    }

    /// Directory policy, applied before a remote claim reaches the table:
    /// a name whose endpoint is **alive on this hub** yields to no remote
    /// claim at all — not even a same-address one (it would swap the
    /// entry's owner and orphan the eventual tombstone when the endpoint
    /// drops). A claim that would win the merge is refused and the local
    /// entry re-asserted above it, so the correction out-gossips the
    /// stale claim. Returns `None` when `name` is not alive here (the
    /// claim is the table's to merge), otherwise whether it re-asserted.
    fn defend(
        &self,
        table: &mut LwwTable<NodeId, PeerClaim>,
        name: &NodeId,
        incoming: &DirectoryEntry,
    ) -> Option<bool> {
        let hub = self.inner.hub;
        let current = table
            .get_mut(name)
            .filter(|e| e.value.owner == hub && !e.evicted)?;
        if !current.loses_to(incoming) {
            return Some(false);
        }
        current.version = incoming.version + 1;
        // A *live* claim from a real peer hub over our own live endpoint
        // is conflict evidence (a tombstone is just eviction recovery);
        // count it for the failure detector's sweep to surface once it
        // persists.
        let claimant = incoming.value.owner;
        if !incoming.evicted && claimant != hub && claimant != HubId::UNKNOWN {
            let mut conflicts = self.inner.conflicts.write();
            let slot = conflicts.entry(name.clone()).or_insert((claimant, 0));
            *slot = (claimant, slot.1 + 1);
        }
        Some(true)
    }

    /// Merges one remote claim (a gossip entry, a handshake snapshot row,
    /// or a piggybacked sender address) under last-writer-wins — unless
    /// the name is alive on this hub (see `defend`). That exception is
    /// also what makes [`crate::TcpTransport::register_peer`] safe: a
    /// manual registration can never silently shadow a locally connected
    /// name.
    pub fn merge_entry(&self, name: NodeId, incoming: DirectoryEntry) -> Option<DirectoryChange> {
        // Fast path under the read lock: in steady state (every TCP frame
        // piggybacks its sender's claim, and the claim almost never
        // changes) the incoming entry is already dominated, and reader
        // threads must not serialize on the write lock per frame. The
        // write path re-checks, so a race just retries the comparison.
        {
            let tables = self.inner.tables.read();
            if let Some(current) = tables[table_of(&name)].get(&name) {
                if !current.loses_to(&incoming) {
                    return None;
                }
            }
        }
        let table = &mut self.inner.tables.write()[table_of(&name)];
        if let Some(reasserted) = self.defend(table, &name, &incoming) {
            return reasserted.then_some(DirectoryChange::Reasserted(name));
        }
        let change = if incoming.evicted {
            DirectoryChange::Evicted
        } else {
            DirectoryChange::Learned
        };
        table
            .merge_entry(name.clone(), incoming)
            .then_some(change(name))
    }

    /// Merges a batch of remote claims, returning every change applied.
    pub fn merge_remote(
        &self,
        incoming: impl IntoIterator<Item = (NodeId, DirectoryEntry)>,
    ) -> Vec<DirectoryChange> {
        incoming
            .into_iter()
            .filter_map(|(name, entry)| self.merge_entry(name, entry))
            .collect()
    }

    /// The receiving half of push-pull gossip ([`LwwTable::respond`]) for
    /// a decoded row set: merges it and returns the rows its sender is
    /// missing (none for a delta, which is itself such an answer). A claim
    /// `defend` re-asserts over never reaches the table, so to the table
    /// the sender lacks that name and a snapshot's answer carries the
    /// re-asserted entry straight back. Ephemeral names never gossip, in
    /// either direction.
    pub fn respond(
        &self,
        mut rows: Vec<(NodeId, DirectoryEntry)>,
        is_delta: bool,
    ) -> Vec<(NodeId, DirectoryEntry)> {
        let named = &mut self.inner.tables.write()[NAMED];
        rows.retain(|(name, incoming)| {
            table_of(name) == NAMED && self.defend(named, name, incoming) != Some(true)
        });
        named.respond(rows, is_delta)
    }

    /// An operator's by-hand registration
    /// ([`crate::TcpTransport::register_peer`]): last-call-wins under one
    /// lock — the entry is overwritten with a version above the standing
    /// one, whatever its owner, so two racing registrations resolve to
    /// whichever ran last (not to a merge tie-break). The one exception
    /// is a name whose endpoint is alive on this hub: the registration is
    /// refused (returns `false`) rather than hijacking local traffic.
    pub fn register_manual(&self, name: NodeId, addr: SocketAddr) -> bool {
        let table = &mut self.inner.tables.write()[table_of(&name)];
        if table.live(&name).is_some_and(|c| c.owner == self.inner.hub) {
            return false;
        }
        let owner = HubId::UNKNOWN;
        table.put(name, PeerClaim { addr, owner });
        true
    }

    /// Drops a remote **ephemeral** (`~`) entry that proved unreachable at
    /// `addr`. Remote ephemeral entries are learned from piggybacked
    /// frame claims and are invisible to gossip (no snapshot rows, so no
    /// tombstones can ever retire them) — a failed send is their only
    /// end-of-life signal. Named entries are left alone: one transient
    /// send failure must not erase what gossip and eviction own.
    pub fn prune_unreachable_ephemeral(&self, name: &NodeId, addr: SocketAddr) {
        if table_of(name) != EPHEMERAL {
            return;
        }
        let ephemeral = &mut self.inner.tables.write()[EPHEMERAL];
        if ephemeral
            .get(name)
            .is_some_and(|e| e.value.owner != self.inner.hub && e.value.addr == addr)
        {
            ephemeral.remove(name);
        }
    }

    /// The routable address of `name` (none for unknown or evicted names).
    pub fn lookup(&self, name: &NodeId) -> Option<SocketAddr> {
        let tables = self.inner.tables.read();
        tables[table_of(name)].live(name).map(|c| c.addr)
    }

    /// True when a live (non-tombstoned) entry binds `name`.
    pub fn is_bound(&self, name: &str) -> bool {
        self.lookup(&NodeId::new(name)).is_some()
    }

    /// The full entry for `name`, tombstoned or not.
    pub fn entry(&self, name: &str) -> Option<DirectoryEntry> {
        let name = NodeId::new(name);
        self.inner.tables.read()[table_of(&name)]
            .get(&name)
            .cloned()
    }

    /// All live names, sorted.
    pub fn names(&self) -> Vec<NodeId> {
        let tables = self.inner.tables.read();
        let mut names: Vec<NodeId> = live(&tables).map(|(n, _)| n.clone()).collect();
        names.sort();
        names
    }

    /// The gossip-able view: every named entry in name order, tombstones
    /// included — departures must travel as far as arrivals.
    pub fn snapshot(&self) -> Vec<(NodeId, DirectoryEntry)> {
        self.inner.tables.read()[NAMED].snapshot()
    }

    /// Entries of this directory that strictly dominate (or are absent
    /// from) a peer's snapshot: exactly what the peer is missing.
    pub fn delta_against(
        &self,
        theirs: &[(NodeId, DirectoryEntry)],
    ) -> Vec<(NodeId, DirectoryEntry)> {
        self.inner.tables.read()[NAMED].delta_against(theirs)
    }

    /// Marks (or clears) local suspicion of every name owned by `hub`.
    /// Returns the affected live names. Suspicion is a local overlay — it
    /// does not version, tombstone, or gossip anything.
    pub fn set_suspected(&self, hub: HubId, suspected: bool) -> Vec<NodeId> {
        if hub == self.inner.hub || hub == HubId::UNKNOWN {
            return Vec::new();
        }
        {
            let mut owners = self.inner.suspected_owners.write();
            if suspected {
                owners.insert(hub);
            } else {
                owners.remove(&hub);
            }
        }
        self.names_owned_by(hub)
    }

    /// Evicts every name owned by `hub`: tombstones with bumped versions
    /// (so the eviction gossips), suspicion cleared. Returns the evicted
    /// names, sorted. The dead hub's ephemeral entries are simply
    /// forgotten. The local hub and the manual-registration sentinel
    /// cannot be evicted.
    pub fn evict_owner(&self, hub: HubId) -> Vec<NodeId> {
        if hub == self.inner.hub || hub == HubId::UNKNOWN {
            return Vec::new();
        }
        self.inner.suspected_owners.write().remove(&hub);
        let mut tables = self.inner.tables.write();
        tables[EPHEMERAL].retain(|_, e| e.value.owner != hub);
        let evicted: Vec<NodeId> = tables[NAMED]
            .live_rows()
            .filter(|(_, c)| c.owner == hub)
            .map(|(n, _)| n.clone())
            .collect();
        for name in &evicted {
            tables[NAMED].bury(name);
        }
        evicted
    }

    /// Drains every name whose conflict count has reached `threshold`:
    /// names where live claims from another hub keep being re-asserted
    /// over an endpoint alive here — two hubs bound the same name.
    /// Returns `(name, conflicting claimant, count)` sorted by name;
    /// under-threshold counts keep accumulating for a later sweep. The
    /// caller (the discovery sweep) turns each row into an operator-visible
    /// [`PeerStatus::NameConflict`] event.
    pub fn take_conflicts(&self, threshold: u64) -> Vec<(NodeId, HubId, u64)> {
        let mut conflicts = self.inner.conflicts.write();
        let ripe: Vec<NodeId> = conflicts
            .iter()
            .filter(|(_, (_, count))| *count >= threshold)
            .map(|(name, _)| name.clone())
            .collect();
        let mut out: Vec<(NodeId, HubId, u64)> = ripe
            .into_iter()
            .filter_map(|name| {
                conflicts
                    .remove(&name)
                    .map(|(claimant, count)| (name, claimant, count))
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Live names owned by `hub`, sorted.
    pub fn names_owned_by(&self, hub: HubId) -> Vec<NodeId> {
        let tables = self.inner.tables.read();
        let mut names: Vec<NodeId> = live(&tables)
            .filter(|(_, c)| c.owner == hub)
            .map(|(n, _)| n.clone())
            .collect();
        names.sort();
        names
    }

    /// Order-independent fingerprint of the gossip-able state (every
    /// named entry, tombstones included). Two hubs whose directories have
    /// converged report equal fingerprints; the convergence tests poll
    /// this.
    pub fn fingerprint(&self) -> u64 {
        self.inner.tables.read()[NAMED].fingerprint()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        live(&self.inner.tables.read()).count()
    }

    /// True when no live entries exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl LivenessProbe for PeerDirectory {
    fn status_of(&self, name: &str) -> PeerStatus {
        let name = NodeId::new(name);
        let owner = match self.inner.tables.read()[table_of(&name)].get(&name) {
            Some(e) if e.evicted => return PeerStatus::Evicted,
            Some(e) => e.value.owner,
            None => return PeerStatus::Alive,
        };
        if self.inner.suspected_owners.read().contains(&owner) {
            PeerStatus::Suspected
        } else {
            PeerStatus::Alive
        }
    }
}

impl fmt::Debug for PeerDirectory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PeerDirectory")
            .field("hub", &self.inner.hub)
            .field("live_entries", &self.len())
            .finish()
    }
}

/// The message kind liveness events travel under (discovery → monitor).
pub const LIVENESS_KIND: &str = "discovery.liveness";

/// A liveness transition observed by a failure detector: one peer hub and
/// the names it owned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LivenessEvent {
    /// The peer hub whose status changed.
    pub hub: HubId,
    /// Its new status.
    pub status: PeerStatus,
    /// The live names owned by that hub at transition time.
    pub names: Vec<NodeId>,
}

impl LivenessEvent {
    /// Wire form (body of a [`LIVENESS_KIND`] envelope).
    pub fn to_xml(&self) -> Element {
        Element::new("liveness")
            .with_attr("hub", self.hub.to_string())
            .with_attr("status", self.status.name())
            .with_children(
                self.names
                    .iter()
                    .map(|n| Element::new("node").with_attr("name", n.as_str())),
            )
    }

    /// Decodes the wire form.
    pub fn from_xml(el: &Element) -> Option<LivenessEvent> {
        if el.name != "liveness" {
            return None;
        }
        Some(LivenessEvent {
            hub: HubId::parse(el.attr("hub")?)?,
            status: PeerStatus::from_name(el.attr("status")?)?,
            names: el
                .child_elements()
                .filter(|c| c.name == "node")
                .filter_map(|c| c.attr("name").map(NodeId::new))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    fn dir() -> PeerDirectory {
        PeerDirectory::new(HubId(0xA))
    }

    fn remote(port: u16, owner: u64, version: u64, evicted: bool) -> DirectoryEntry {
        DirectoryEntry {
            value: PeerClaim {
                addr: addr(port),
                owner: HubId(owner),
            },
            version,
            evicted,
        }
    }

    #[test]
    fn bind_lookup_remove_rebind() {
        let d = dir();
        d.bind_local(NodeId::new("a"), addr(1000)).unwrap();
        assert_eq!(d.lookup(&NodeId::new("a")), Some(addr(1000)));
        assert!(d.is_bound("a"));
        // A second live bind collides.
        assert!(d.bind_local(NodeId::new("a"), addr(1001)).is_err());
        // Drop tombstones; the name frees and version grows.
        d.remove_local(&NodeId::new("a"), addr(1000));
        assert!(!d.is_bound("a"));
        assert!(d.entry("a").unwrap().evicted);
        let v = d.entry("a").unwrap().version;
        d.bind_local(NodeId::new("a"), addr(1002)).unwrap();
        assert_eq!(d.lookup(&NodeId::new("a")), Some(addr(1002)));
        assert!(d.entry("a").unwrap().version > v);
    }

    #[test]
    fn remove_respects_address_and_owner() {
        let d = dir();
        d.bind_local(NodeId::new("a"), addr(1000)).unwrap();
        // Wrong address: not ours to bury.
        d.remove_local(&NodeId::new("a"), addr(9999));
        assert!(d.is_bound("a"));
        // Remote-owned entries are never tombstoned by local drops.
        d.merge_entry(NodeId::new("r"), remote(2000, 0xB, 5, false));
        d.remove_local(&NodeId::new("r"), addr(2000));
        assert!(d.is_bound("r"));
    }

    #[test]
    fn ephemeral_names_removed_without_tombstones() {
        let d = dir();
        d.bind_local(NodeId::new("client~1"), addr(1500)).unwrap();
        d.remove_local(&NodeId::new("client~1"), addr(1500));
        assert!(d.entry("client~1").is_none());
        assert!(d.snapshot().iter().all(|(n, _)| !n.as_str().contains('~')));
    }

    #[test]
    fn merge_is_last_writer_wins() {
        let d = dir();
        assert!(matches!(
            d.merge_entry(NodeId::new("x"), remote(2000, 0xB, 3, false)),
            Some(DirectoryChange::Learned(_))
        ));
        // Older claim loses.
        assert!(d
            .merge_entry(NodeId::new("x"), remote(2001, 0xC, 2, false))
            .is_none());
        assert_eq!(d.lookup(&NodeId::new("x")), Some(addr(2000)));
        // Newer claim wins.
        d.merge_entry(NodeId::new("x"), remote(2002, 0xC, 4, false));
        assert_eq!(d.lookup(&NodeId::new("x")), Some(addr(2002)));
        // Newer tombstone evicts.
        assert!(matches!(
            d.merge_entry(NodeId::new("x"), remote(2002, 0xC, 5, true)),
            Some(DirectoryChange::Evicted(_))
        ));
        assert!(!d.is_bound("x"));
        // Idempotent: replaying the same claim changes nothing.
        assert!(d
            .merge_entry(NodeId::new("x"), remote(2002, 0xC, 5, true))
            .is_none());
    }

    #[test]
    fn repeated_live_reasserts_accumulate_as_name_conflicts() {
        let d = dir();
        d.bind_local(NodeId::new("shared"), addr(1000)).unwrap();
        // Tombstone reasserts (eviction recovery) are NOT conflict
        // evidence, however many arrive.
        for v in 10..20 {
            d.merge_entry(NodeId::new("shared"), remote(1000, 0xB, v * 100, true));
        }
        assert!(d.take_conflicts(1).is_empty());
        // Live claims from a real peer hub are. Each needs a dominating
        // version (the previous reassert out-versioned it).
        let mut version = d.entry("shared").unwrap().version;
        for _ in 0..3 {
            version += 1;
            let change = d.merge_entry(NodeId::new("shared"), remote(7777, 0xB, version, false));
            assert!(matches!(change, Some(DirectoryChange::Reasserted(_))));
            version = d.entry("shared").unwrap().version;
        }
        // Under threshold: nothing drains, the count keeps building.
        assert!(d.take_conflicts(4).is_empty());
        version += 1;
        d.merge_entry(NodeId::new("shared"), remote(7777, 0xB, version, false));
        let ripe = d.take_conflicts(4);
        assert_eq!(ripe.len(), 1);
        let (name, claimant, count) = &ripe[0];
        assert_eq!(name.as_str(), "shared");
        assert_eq!(*claimant, HubId(0xB));
        assert_eq!(*count, 4);
        // Drained: the slate is clean until new claims arrive.
        assert!(d.take_conflicts(1).is_empty());
        // Claims from the manual-registration sentinel never count.
        version = d.entry("shared").unwrap().version + 1;
        d.merge_entry(NodeId::new("shared"), remote(8888, 0, version, false));
        assert!(d.take_conflicts(1).is_empty());
    }

    #[test]
    fn locally_alive_names_reassert_over_remote_claims() {
        let d = dir();
        d.bind_local(NodeId::new("mine"), addr(1000)).unwrap();
        let before = d.entry("mine").unwrap();
        // A remote claim with a dominating version tries to remap the name.
        let change = d.merge_entry(NodeId::new("mine"), remote(6666, 0xB, 99, false));
        assert!(matches!(change, Some(DirectoryChange::Reasserted(_))));
        let after = d.entry("mine").unwrap();
        assert_eq!(
            after.value.addr, before.value.addr,
            "local mapping survives"
        );
        assert_eq!(after.value.owner, d.hub());
        assert!(after.version > 99, "re-assertion out-versions the intruder");
        // Same for a remote tombstone: local liveness wins.
        let change = d.merge_entry(NodeId::new("mine"), remote(1000, 0xB, 200, true));
        assert!(matches!(change, Some(DirectoryChange::Reasserted(_))));
        assert!(d.is_bound("mine"));
        // And for a *same-address* claim under a foreign owner (e.g. a
        // register_peer made elsewhere, gossiped back): adopting it would
        // swap the owner and orphan the eventual drop-tombstone.
        let v = d.entry("mine").unwrap().version;
        let change = d.merge_entry(NodeId::new("mine"), remote(1000, 0, v + 50, false));
        assert!(matches!(change, Some(DirectoryChange::Reasserted(_))));
        assert_eq!(d.entry("mine").unwrap().value.owner, d.hub());
        // The drop path still works: the entry is ours to tombstone.
        let addr_mine = d.entry("mine").unwrap().value.addr;
        d.remove_local(&NodeId::new("mine"), addr_mine);
        assert!(!d.is_bound("mine"));
    }

    #[test]
    fn suspicion_is_an_overlay_eviction_is_durable() {
        let d = dir();
        d.merge_entry(NodeId::new("svc.x"), remote(2000, 0xB, 1, false));
        d.merge_entry(NodeId::new("svc.y"), remote(2001, 0xB, 1, false));
        assert_eq!(d.status_of("svc.x"), PeerStatus::Alive);
        let marked = d.set_suspected(HubId(0xB), true);
        assert_eq!(marked.len(), 2);
        assert_eq!(d.status_of("svc.x"), PeerStatus::Suspected);
        // Suspicion never shows in the gossip snapshot.
        assert!(d.snapshot().iter().all(|(_, e)| !e.evicted));
        d.set_suspected(HubId(0xB), false);
        assert_eq!(d.status_of("svc.y"), PeerStatus::Alive);
        // Eviction tombstones with bumped versions.
        let evicted = d.evict_owner(HubId(0xB));
        assert_eq!(evicted.len(), 2);
        assert_eq!(d.status_of("svc.x"), PeerStatus::Evicted);
        assert!(d.entry("svc.x").unwrap().version > 1);
        assert!(d.lookup(&NodeId::new("svc.x")).is_none());
        // Local hub and the manual sentinel are never evictable.
        d.bind_local(NodeId::new("me"), addr(1)).unwrap();
        assert!(d.evict_owner(d.hub()).is_empty());
        assert!(d.evict_owner(HubId::UNKNOWN).is_empty());
    }

    #[test]
    fn register_manual_is_last_call_wins_but_never_shadows_local() {
        let d = dir();
        assert!(d.register_manual(NodeId::new("x"), addr(1)));
        assert!(d.register_manual(NodeId::new("x"), addr(2)));
        assert_eq!(
            d.lookup(&NodeId::new("x")),
            Some(addr(2)),
            "second registration wins regardless of merge tie-breaks"
        );
        // It also overrides a standing high-version gossip claim (the
        // operator's correction must not lose an LWW comparison).
        d.merge_entry(NodeId::new("g"), remote(3, 0xB, 50, false));
        assert!(d.register_manual(NodeId::new("g"), addr(4)));
        assert_eq!(d.lookup(&NodeId::new("g")), Some(addr(4)));
        assert!(d.entry("g").unwrap().version > 50);
        // But never a locally connected name.
        d.bind_local(NodeId::new("mine"), addr(9)).unwrap();
        assert!(!d.register_manual(NodeId::new("mine"), addr(10)));
        assert_eq!(d.lookup(&NodeId::new("mine")), Some(addr(9)));
    }

    #[test]
    fn ephemeral_remote_entries_prune_on_unreachability_and_eviction() {
        let d = dir();
        d.merge_entry(NodeId::new("cli~b-1"), remote(1, 0xB, 1, false));
        d.merge_entry(NodeId::new("cli~b-2"), remote(2, 0xB, 1, false));
        d.merge_entry(NodeId::new("svc.x"), remote(3, 0xB, 1, false));
        d.bind_local(NodeId::new("own~a-1"), addr(4)).unwrap();
        // Named entries and local/mismatched ephemerals are left alone.
        d.prune_unreachable_ephemeral(&NodeId::new("svc.x"), addr(3));
        d.prune_unreachable_ephemeral(&NodeId::new("own~a-1"), addr(4));
        d.prune_unreachable_ephemeral(&NodeId::new("cli~b-1"), addr(999));
        assert!(d.is_bound("svc.x"));
        assert!(d.is_bound("own~a-1"));
        assert!(d.is_bound("cli~b-1"));
        // A remote ephemeral that failed at its recorded address goes.
        d.prune_unreachable_ephemeral(&NodeId::new("cli~b-1"), addr(1));
        assert!(d.entry("cli~b-1").is_none());
        // Evicting the owner deletes its ephemerals outright (no
        // tombstone — they never gossip) and tombstones its named entry.
        let evicted = d.evict_owner(HubId(0xB));
        assert_eq!(evicted, vec![NodeId::new("svc.x")]);
        assert!(d.entry("cli~b-2").is_none());
        assert!(d.entry("svc.x").unwrap().evicted);
    }

    #[test]
    fn respond_answers_a_snapshot_with_the_missing_rows_and_a_delta_with_none() {
        let a = dir();
        let b = PeerDirectory::new(HubId(0xB));
        a.merge_entry(NodeId::new("only-a"), remote(1, 0xC, 1, false));
        a.merge_entry(NodeId::new("newer-on-a"), remote(2, 0xC, 5, false));
        b.merge_entry(NodeId::new("newer-on-a"), remote(2, 0xC, 3, false));
        b.merge_entry(NodeId::new("only-b"), remote(3, 0xD, 1, false));
        // Push: b's snapshot reaches a, which adopts only-b and answers
        // with exactly what b lacks. Pull: b merges the answer silently.
        let answer = a.respond(b.snapshot(), false);
        let names: Vec<&str> = answer.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["newer-on-a", "only-a"]);
        assert!(b.respond(answer, true).is_empty());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn respond_defends_local_names_and_refuses_ephemeral_rows() {
        let d = dir();
        d.bind_local(NodeId::new("mine"), addr(1000)).unwrap();
        // A copy of our own entry, as every peer's snapshot carries, needs
        // no correction and no answer; an ephemeral row never gossips.
        let mine = (NodeId::new("mine"), d.entry("mine").unwrap());
        let ephemeral = (NodeId::new("cli~b-1"), remote(7, 0xB, 1, false));
        assert!(d.respond(vec![mine, ephemeral], false).is_empty());
        assert!(d.entry("cli~b-1").is_none());
        // A claim that would win the merge is refused and re-asserted
        // over, and the correction rides the answer.
        let intruder = (NodeId::new("mine"), remote(6666, 0xB, 99, false));
        let answer = d.respond(vec![intruder], false);
        assert_eq!(
            answer,
            vec![(NodeId::new("mine"), d.entry("mine").unwrap())]
        );
        assert_eq!(d.lookup(&NodeId::new("mine")), Some(addr(1000)));
        assert!(answer[0].1.version > 99);
    }

    #[test]
    fn fingerprints_agree_exactly_when_converged() {
        let a = dir();
        let b = PeerDirectory::new(HubId(0xB));
        a.merge_entry(NodeId::new("x"), remote(1, 0xC, 1, false));
        assert_ne!(a.fingerprint(), b.fingerprint());
        b.merge_entry(NodeId::new("x"), remote(1, 0xC, 1, false));
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Ephemeral names never affect the fingerprint.
        a.bind_local(NodeId::new("cli~9"), addr(7)).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    /// The `<entry>` row is a wire format other processes parse: pin its
    /// bytes, not just its round trip.
    #[test]
    fn entry_rows_are_pinned_byte_for_byte() {
        use crate::lww::{row_from_xml, row_to_xml};
        let name = NodeId::new("svc.alpha");
        for (entry, bytes) in [
            (
                remote(4242, 0xBEEF, 17, false),
                r#"<entry name="svc.alpha" addr="127.0.0.1:4242" owner="000000000000beef" version="17"/>"#,
            ),
            (
                remote(4242, 0xBEEF, 18, true),
                r#"<entry name="svc.alpha" addr="127.0.0.1:4242" owner="000000000000beef" version="18" evicted="1"/>"#,
            ),
        ] {
            let el = row_to_xml(&name, &entry);
            assert_eq!(el.to_xml(), bytes);
            assert_eq!(row_from_xml::<PeerClaim>(&el), Some((name.clone(), entry)));
        }
        assert!(row_from_xml::<PeerClaim>(&Element::new("not-entry")).is_none());
        assert!(row_from_xml::<PeerClaim>(&Element::new("entry").with_attr("name", "x")).is_none());
    }

    #[test]
    fn liveness_event_codec_round_trip() {
        let ev = LivenessEvent {
            hub: HubId(0xCAFE),
            status: PeerStatus::Suspected,
            names: vec![NodeId::new("svc.a"), NodeId::new("svc.b")],
        };
        assert_eq!(LivenessEvent::from_xml(&ev.to_xml()), Some(ev));
        assert!(LivenessEvent::from_xml(&Element::new("other")).is_none());
    }

    #[test]
    fn hub_ids_generate_unique_and_round_trip() {
        let a = HubId::generate();
        let b = HubId::generate();
        assert_ne!(a, HubId::UNKNOWN);
        assert_ne!(a, b);
        assert_eq!(HubId::parse(&a.to_string()), Some(a));
        assert_eq!(HubId::parse("zz"), None);
    }
}
