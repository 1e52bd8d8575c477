//! The versioned last-writer-wins table every gossiped dataset is built
//! on.
//!
//! SELF-SERV has no central state: where a name lives (the
//! [`PeerDirectory`]) and who belongs to a service community (the
//! community crate's `MembershipState`) are both replicated by gossip.
//! Both are this one data structure with a different value type: a map of
//! rows, each row a value under a per-key **version counter** and a
//! departure **tombstone**. Departures are tombstones, not removals, so
//! the fact that a key is gone travels through the same merge as the fact
//! that it exists.
//!
//! The merge order between two rows for one key is total and
//! deterministic — the greater `(version, evicted, value order)` wins on
//! every replica — so [`LwwTable::merge_rows`] is commutative, idempotent
//! and associative: any exchange order, any loss pattern, any replay
//! converges every replica to the same table (`lww_law_suite!` proves the
//! laws once, for every value type). At equal versions a tombstone beats a
//! live row; at equal version and eviction the value's own order breaks
//! the tie, arbitrarily but identically everywhere.
//!
//! Replicas converge by push-pull: one side sends its full
//! [`LwwTable::snapshot`], the other merges it and answers with exactly
//! the rows the sender was missing; that answer is merged silently.
//! [`LwwTable::respond`] is that receiver, for every channel that carries
//! rows.
//!
//! A new replicated dataset is a value type implementing [`LwwValue`],
//! not another table.
//!
//! [`PeerDirectory`]: crate::PeerDirectory

use selfserv_xml::Element;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// What a value type supplies to the table: everything that differs
/// between replicated datasets.
pub trait LwwValue: Clone {
    /// The key rows of this value are stored under.
    type Key: Ord + Clone + Hash;

    /// The value's identity as a borrowed, totally ordered view: the last
    /// tiebreak of the merge order and the value's share of the
    /// fingerprint. Every field that distinguishes two values must be in
    /// it, or two replicas could hold different values for one key and
    /// both believe they had converged.
    type Order<'a>: Ord + Hash
    where
        Self: 'a;

    /// Borrows the ordered view. Must not allocate: the directory compares
    /// rows once per received TCP frame.
    fn order(&self) -> Self::Order<'_>;

    /// The wire row: the dataset's element carrying the key and the value
    /// attributes. The table adds the version and the tombstone.
    fn to_xml(&self, key: &Self::Key) -> Element;

    /// Decodes key and value from a wire row; `None` for another element
    /// or a malformed one.
    fn from_xml(el: &Element) -> Option<(Self::Key, Self)>;
}

/// One row: a value under its version counter and departure tombstone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row<V> {
    /// The replicated value. Tombstones keep the last one: the merge
    /// order needs it to stay total.
    pub value: V,
    /// Bumped by every owner-side write to this key (bind, join, update,
    /// departure). The higher version wins every merge.
    pub version: u64,
    /// Tombstone: the key is gone. The row stays and gossips, so the
    /// departure travels as far as the arrival did.
    pub evicted: bool,
}

impl<V: LwwValue> Row<V> {
    /// True when `other` replaces this row in a merge. Equal rows lose to
    /// nothing (re-merging what is held changes nothing).
    pub fn loses_to(&self, other: &Row<V>) -> bool {
        (self.version, self.evicted, self.value.order())
            < (other.version, other.evicted, other.value.order())
    }
}

/// A set of rows as it travels: a snapshot, a delta, a decoded message.
pub type Rows<K, V> = Vec<(K, Row<V>)>;

/// One replica's table. Plain data: owners wrap it in whatever lock and
/// policy their dataset needs.
#[derive(Debug, Clone)]
pub struct LwwTable<K, V> {
    rows: BTreeMap<K, Row<V>>,
}

impl<K, V> Default for LwwTable<K, V> {
    fn default() -> Self {
        LwwTable {
            rows: BTreeMap::new(),
        }
    }
}

impl<K: Ord + Clone + Hash, V: LwwValue<Key = K>> LwwTable<K, V> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The row for `key`, tombstoned or not.
    pub fn get(&self, key: &K) -> Option<&Row<V>> {
        self.rows.get(key)
    }

    /// The row for `key`, for an owner-side write the table has no verb
    /// for.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut Row<V>> {
        self.rows.get_mut(key)
    }

    /// The value of a live (non-tombstoned) key.
    pub fn live(&self, key: &K) -> Option<&V> {
        self.rows.get(key).filter(|r| !r.evicted).map(|r| &r.value)
    }

    /// The live rows in key order.
    pub fn live_rows(&self) -> impl Iterator<Item = (&K, &V)> {
        self.rows
            .iter()
            .filter(|(_, r)| !r.evicted)
            .map(|(k, r)| (k, &r.value))
    }

    /// Owner-side write: binds `key` to `value` as a live row one version
    /// above whatever stands there (a live row, a tombstone, or nothing).
    /// Returns the row to gossip.
    pub fn put(&mut self, key: K, value: V) -> Row<V> {
        let row = Row {
            value,
            version: self.rows.get(&key).map_or(1, |r| r.version + 1),
            evicted: false,
        };
        self.rows.insert(key, row.clone());
        row
    }

    /// Owner-side departure: tombstones a live `key` one version up.
    /// Returns the tombstone to gossip; `None` when the key is unknown or
    /// already gone.
    pub fn bury(&mut self, key: &K) -> Option<Row<V>> {
        let row = self.rows.get_mut(key).filter(|r| !r.evicted)?;
        row.version += 1;
        row.evicted = true;
        Some(row.clone())
    }

    /// Forgets `key` without a tombstone — only for rows that never
    /// gossip, where a tombstone would have no one to tell.
    pub fn remove(&mut self, key: &K) {
        self.rows.remove(key);
    }

    /// Forgets every row `keep` rejects, without tombstones (see
    /// [`LwwTable::remove`]).
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &Row<V>) -> bool) {
        self.rows.retain(|k, r| keep(k, r));
    }

    /// Merges one remote row under the total order; returns whether the
    /// table changed.
    pub fn merge_entry(&mut self, key: K, incoming: Row<V>) -> bool {
        match self.rows.get_mut(&key) {
            Some(current) if current.loses_to(&incoming) => {
                *current = incoming;
                true
            }
            Some(_) => false,
            None => {
                self.rows.insert(key, incoming);
                true
            }
        }
    }

    /// Merges a batch of remote rows; returns how many changed the table.
    pub fn merge_rows(&mut self, rows: impl IntoIterator<Item = (K, Row<V>)>) -> usize {
        rows.into_iter()
            .map(|(key, row)| usize::from(self.merge_entry(key, row)))
            .sum()
    }

    /// Rows of this table that dominate, or are absent from, a peer's
    /// snapshot: exactly what the peer is missing.
    pub fn delta_against(&self, theirs: &[(K, Row<V>)]) -> Rows<K, V> {
        let theirs: BTreeMap<&K, &Row<V>> = theirs.iter().map(|(k, r)| (k, r)).collect();
        self.rows
            .iter()
            .filter(|(key, mine)| theirs.get(key).is_none_or(|held| held.loses_to(mine)))
            .map(|(k, r)| (k.clone(), r.clone()))
            .collect()
    }

    /// The gossip-able view: every row, tombstones included, in key
    /// order.
    pub fn snapshot(&self) -> Rows<K, V> {
        self.rows
            .iter()
            .map(|(k, r)| (k.clone(), r.clone()))
            .collect()
    }

    /// Order-independent fingerprint of the full table. Replicas that have
    /// converged report equal fingerprints; convergence tests poll this.
    pub fn fingerprint(&self) -> u64 {
        self.rows.iter().fold(0, |acc, (key, row)| {
            let mut h = DefaultHasher::new();
            key.hash(&mut h);
            row.version.hash(&mut h);
            row.evicted.hash(&mut h);
            row.value.order().hash(&mut h);
            acc ^ h.finish()
        })
    }

    /// The receiving half of push-pull, for every channel that carries
    /// rows: merges `rows` and returns what their sender is missing. A
    /// delta is itself such an answer — a partial row set, where a key's
    /// absence says nothing about the sender — so it merges silently;
    /// answering it would bounce unrelated rows back and forth forever.
    pub fn respond(&mut self, rows: Rows<K, V>, is_delta: bool) -> Rows<K, V> {
        let missing = if is_delta {
            Vec::new()
        } else {
            self.delta_against(&rows)
        };
        self.merge_rows(rows);
        missing
    }
}

// ---------------------------------------------------------------------------
// Wire codec: the version/tombstone half of every row element
// ---------------------------------------------------------------------------

/// Encodes one row: the value's element plus `version`, and `evicted="1"`
/// on a tombstone.
pub fn row_to_xml<V: LwwValue>(key: &V::Key, row: &Row<V>) -> Element {
    let mut el = row
        .value
        .to_xml(key)
        .with_attr("version", row.version.to_string());
    if row.evicted {
        el.set_attr("evicted", "1");
    }
    el
}

/// Decodes one row. Malformed rows decode to `None` and are skipped by
/// receivers: one bad row must not poison a whole exchange.
pub fn row_from_xml<V: LwwValue>(el: &Element) -> Option<(V::Key, Row<V>)> {
    let (key, value) = V::from_xml(el)?;
    Some((
        key,
        Row {
            value,
            version: el.attr("version")?.parse().ok()?,
            evicted: el.attr("evicted") == Some("1"),
        },
    ))
}

/// The row elements of a row set, for a message body's children.
pub fn rows_to_xml<V: LwwValue>(rows: &[(V::Key, Row<V>)]) -> impl Iterator<Item = Element> + '_ {
    rows.iter().map(|(key, row)| row_to_xml(key, row))
}

/// Every well-formed row among a message body's children.
pub fn rows_from_xml<V: LwwValue>(body: &Element) -> Rows<V::Key, V> {
    body.child_elements().filter_map(row_from_xml).collect()
}
