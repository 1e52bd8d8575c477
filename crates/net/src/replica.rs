//! Caller-side routing over a set of service replicas.
//!
//! A replicated service (e.g. a community running N server replicas
//! across hubs) is addressed through a [`ReplicaSet`]: the caller picks
//! one replica per logical key with **rendezvous hashing** (highest
//! random weight), so the same key lands on the same replica as long as
//! that replica lives — no coordination, no routing table to rebalance —
//! while a replica's death only reassigns *its* keys. Liveness comes from
//! whatever failure detector the caller holds (the discovery directory's
//! [`LivenessProbe`] view): evicted replicas leave the rotation entirely,
//! suspected ones serve only when no healthy replica remains, and a
//! restarted replica rejoins the instant its status recovers, because
//! selection re-consults the probe on every call.
//!
//! Between the two top-ranked candidates for a key, the caller's local
//! in-flight load breaks the tie toward the less-loaded one (the
//! "power of two choices" refinement): keys keep their affinity when load
//! is even, and hot spots shed excess onto their runner-up instead of
//! queueing behind one mailbox.
//!
//! The replicas of one service share a naming family: replica 0 is the
//! `<base>` name callers bind to, replica `i` is `<base>.r<i>`.
//! [`replica_name`] writes that rule and [`replica_base`] reads it; nothing
//! else formats or parses the suffix.

use crate::directory::{LivenessProbe, PeerDirectory, PeerStatus};
use crate::envelope::NodeId;

/// An ordered set of replica nodes serving one logical service.
#[derive(Debug, Clone, Default)]
pub struct ReplicaSet {
    replicas: Vec<NodeId>,
}

impl ReplicaSet {
    /// A replica set over the given nodes (order is irrelevant to
    /// routing; hashing is by name).
    pub fn new(replicas: Vec<NodeId>) -> ReplicaSet {
        ReplicaSet { replicas }
    }

    /// The replica set of a `<base>` / `<base>.rN` naming family as a
    /// hub's directory currently sees it — the cross-hub counterpart of
    /// probing local names: every replica *any* gossiping hub hosts is a
    /// candidate, wherever it runs. Tombstoned names are excluded (the
    /// directory's `names()` view is live-only); contiguity is not
    /// required, because a crashed middle replica must not hide the
    /// survivors behind it.
    pub fn discover(base: &str, directory: &PeerDirectory) -> ReplicaSet {
        let replicas = directory
            .names()
            .into_iter()
            .filter(|n| n.as_str() == base || replica_base(n.as_str()) == base)
            .collect();
        ReplicaSet { replicas }
    }

    /// The replica nodes.
    pub fn replicas(&self) -> &[NodeId] {
        &self.replicas
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// True when the set holds no replicas.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Picks the replica serving `key`.
    ///
    /// * `liveness` — optional failure-detector view: evicted replicas
    ///   are out of candidacy, suspected ones are used only when no
    ///   healthy candidate remains.
    /// * `excluded` — replicas already tried (failover): never returned.
    /// * `load` — the caller's local in-flight count per replica; breaks
    ///   the tie between the two top rendezvous candidates.
    ///
    /// Returns `None` when every replica is excluded or evicted.
    pub fn route(
        &self,
        key: &str,
        liveness: Option<&dyn LivenessProbe>,
        excluded: &[NodeId],
        load: &dyn Fn(&NodeId) -> usize,
    ) -> Option<NodeId> {
        let mut healthy: Vec<&NodeId> = Vec::new();
        let mut suspected: Vec<&NodeId> = Vec::new();
        for r in self.replicas.iter().filter(|r| !excluded.contains(r)) {
            match liveness.map_or(PeerStatus::Alive, |l| l.status_of(r.as_str())) {
                PeerStatus::Alive => healthy.push(r),
                PeerStatus::Suspected | PeerStatus::NameConflict => suspected.push(r),
                PeerStatus::Evicted => {}
            }
        }
        let pool = if healthy.is_empty() {
            &suspected
        } else {
            &healthy
        };
        match pool.as_slice() {
            [] => None,
            [only] => Some((*only).clone()),
            pool => {
                // Rank by rendezvous score; the two highest are the key's
                // primary and runner-up. Ties in score break by name so
                // every caller ranks identically.
                let mut ranked: Vec<(&NodeId, u64)> = pool
                    .iter()
                    .map(|r| (*r, rendezvous_score(key, r.as_str())))
                    .collect();
                ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.as_str().cmp(b.0.as_str())));
                let (primary, runner_up) = (ranked[0].0, ranked[1].0);
                if load(runner_up) < load(primary) {
                    Some(runner_up.clone())
                } else {
                    Some(primary.clone())
                }
            }
        }
    }
}

/// Replica `index`'s node name in the `<base>` / `<base>.rN` family:
/// replica 0 is the base name itself.
pub fn replica_name(base: &str, index: usize) -> NodeId {
    if index == 0 {
        NodeId::new(base)
    } else {
        NodeId::new(format!("{base}.r{index}"))
    }
}

/// The `<base>` of a replica's naming family: `community.x.r2` →
/// `community.x`. A name without a numeric `.rN` suffix is its own base.
pub fn replica_base(name: &str) -> &str {
    match name.rsplit_once(".r") {
        Some((base, index)) if !index.is_empty() && index.bytes().all(|b| b.is_ascii_digit()) => {
            base
        }
        _ => name,
    }
}

/// FNV-1a over the key/replica pair — the per-replica "random weight" of
/// rendezvous hashing. Stable across processes (no `RandomState`), so
/// every caller agrees on each key's primary.
fn rendezvous_score(key: &str, replica: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in key
        .as_bytes()
        .iter()
        .chain([0xffu8].iter())
        .chain(replica.as_bytes())
    {
        h ^= u64::from(*b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn set(names: &[&str]) -> ReplicaSet {
        ReplicaSet::new(names.iter().map(NodeId::new).collect())
    }

    const NO_LOAD: &dyn Fn(&NodeId) -> usize = &|_| 0;

    #[test]
    fn routing_is_deterministic_and_key_spread() {
        let rs = set(&["community.x", "community.x.r1", "community.x.r2"]);
        let mut hits: HashMap<NodeId, usize> = HashMap::new();
        for i in 0..300 {
            let key = format!("instance-{i}");
            let a = rs.route(&key, None, &[], NO_LOAD).unwrap();
            let b = rs.route(&key, None, &[], NO_LOAD).unwrap();
            assert_eq!(a, b, "same key, same replica");
            *hits.entry(a).or_default() += 1;
        }
        assert_eq!(hits.len(), 3, "all replicas serve some keys: {hits:?}");
    }

    #[test]
    fn discover_collects_the_naming_family_across_hubs() {
        use crate::directory::{DirectoryEntry, HubId, PeerClaim, PeerDirectory};
        let dir = PeerDirectory::new(HubId(1));
        let addr = "127.0.0.1:9000".parse().unwrap();
        for name in [
            "community.x",
            "community.x.r1",
            "community.xylo",    // shares the prefix but is not a replica
            "community.x.rogue", // non-numeric suffix
            "svc.member",
        ] {
            dir.bind_local(NodeId::new(name), addr).unwrap();
        }
        // A replica learned from another hub's gossip counts too …
        dir.merge_remote([(
            NodeId::new("community.x.r2"),
            DirectoryEntry {
                value: PeerClaim {
                    addr: "127.0.0.1:9100".parse().unwrap(),
                    owner: HubId(2),
                },
                version: 1,
                evicted: false,
            },
        )]);
        // … but a tombstoned one does not.
        dir.merge_remote([(
            NodeId::new("community.x.r3"),
            DirectoryEntry {
                value: PeerClaim {
                    addr: "127.0.0.1:9200".parse().unwrap(),
                    owner: HubId(2),
                },
                version: 4,
                evicted: true,
            },
        )]);
        let rs = ReplicaSet::discover("community.x", &dir);
        let mut names: Vec<&str> = rs.replicas().iter().map(|n| n.as_str()).collect();
        names.sort();
        assert_eq!(
            names,
            vec!["community.x", "community.x.r1", "community.x.r2"]
        );
    }

    #[test]
    fn replica_names_parse_back_to_their_base() {
        assert_eq!(replica_name("community.x", 0).as_str(), "community.x");
        assert_eq!(replica_name("community.x", 12).as_str(), "community.x.r12");
        for i in 0..20 {
            assert_eq!(
                replica_base(replica_name("community.x", i).as_str()),
                "community.x"
            );
        }
        for own_base in [
            "community.rooms",
            "community.x.r",
            "community.x.rogue",
            "svc",
        ] {
            assert_eq!(replica_base(own_base), own_base);
        }
    }

    #[test]
    fn excluded_replicas_never_serve() {
        let rs = set(&["a", "b", "c"]);
        for i in 0..50 {
            let key = format!("k{i}");
            let first = rs.route(&key, None, &[], NO_LOAD).unwrap();
            let second = rs
                .route(&key, None, std::slice::from_ref(&first), NO_LOAD)
                .unwrap();
            assert_ne!(first, second);
            let third = rs
                .route(&key, None, &[first.clone(), second.clone()], NO_LOAD)
                .unwrap();
            assert_ne!(third, first);
            assert_ne!(third, second);
            assert!(rs
                .route(&key, None, &[first, second, third], NO_LOAD)
                .is_none());
        }
    }

    #[test]
    fn load_breaks_ties_toward_runner_up() {
        let rs = set(&["a", "b"]);
        let key = "hot";
        let primary = rs.route(key, None, &[], NO_LOAD).unwrap();
        let other = rs
            .route(key, None, std::slice::from_ref(&primary), NO_LOAD)
            .unwrap();
        // Loaded primary sheds onto the runner-up; balanced load keeps
        // the key's affinity.
        let loaded = primary.clone();
        let chosen = rs.route(key, None, &[], &|n| usize::from(*n == loaded));
        assert_eq!(chosen, Some(other));
        let chosen = rs.route(key, None, &[], &|_| 3);
        assert_eq!(chosen, Some(primary));
    }

    struct Fixed(HashMap<String, PeerStatus>);

    impl LivenessProbe for Fixed {
        fn status_of(&self, name: &str) -> PeerStatus {
            self.0.get(name).copied().unwrap_or(PeerStatus::Alive)
        }
    }

    #[test]
    fn dead_replicas_leave_rotation_and_rejoin() {
        let rs = set(&["a", "b", "c"]);
        let dead = Fixed(
            [("a".to_string(), PeerStatus::Evicted)]
                .into_iter()
                .collect(),
        );
        for i in 0..100 {
            let key = format!("k{i}");
            let chosen = rs.route(&key, Some(&dead), &[], NO_LOAD).unwrap();
            assert_ne!(chosen.as_str(), "a");
        }
        // Status recovered: the replica serves its keys again.
        let back = Fixed(HashMap::new());
        let serves_a = (0..100).any(|i| {
            rs.route(&format!("k{i}"), Some(&back), &[], NO_LOAD)
                .unwrap()
                .as_str()
                == "a"
        });
        assert!(serves_a);
    }

    #[test]
    fn suspected_replicas_serve_only_as_fallback() {
        let rs = set(&["a", "b"]);
        let shaky = Fixed(
            [("a".to_string(), PeerStatus::Suspected)]
                .into_iter()
                .collect(),
        );
        for i in 0..50 {
            let chosen = rs
                .route(&format!("k{i}"), Some(&shaky), &[], NO_LOAD)
                .unwrap();
            assert_eq!(chosen.as_str(), "b");
        }
        let chosen = rs
            .route("k", Some(&shaky), &[NodeId::new("b")], NO_LOAD)
            .unwrap();
        assert_eq!(chosen.as_str(), "a");
    }
}
