//! Replicated community membership: the member table of one replica, as
//! a [`LwwTable`] of [`Member`] rows.
//!
//! Each community replica owns a private [`MembershipState`] — no shared
//! `Arc` between replicas, no shared memory between hubs. Joins, leaves,
//! and QoS re-advertisements are owner-side writes to the local table
//! (version bump; a departure leaves a tombstone, so it travels as far as
//! the arrival did). Replicas converge by exchanging rows, push-pull,
//! under the table's total merge order — over the replica-to-replica
//! `community.msync`/`community.mdelta` kinds, and piggybacked on the
//! discovery gossip via [`MembershipGossip`]. Both channels, and the
//! directory's, answer through the one [`LwwTable::respond`].
//!
//! This module supplies what is particular to membership: the `<member>`
//! attribute codec (shared with the join/update requests), the value
//! order, and the join/update/leave preconditions.

use crate::membership::{Community, CommunityError, Member, MemberId, QosProfile};
use parking_lot::RwLock;
use selfserv_net::gossip::{GossipPayload, PAYLOAD_ELEMENT};
use selfserv_net::lww::{rows_from_xml, rows_to_xml, LwwTable, LwwValue, Row, Rows};
use selfserv_net::NodeId;
use selfserv_xml::Element;
use std::sync::Arc;

/// One member's row in the replicated table: the advertised member under
/// a version counter (bumped by every join, leave, and QoS update) and a
/// departure tombstone (excluded from selection, still gossiped). The
/// `<member>` element with `version`/`evicted` attributes is its wire
/// form.
pub type MemberEntry = Row<Member>;

/// A row set as it travels between replicas.
type MemberRows = Rows<MemberId, Member>;

/// Encodes a member as a `<member>` element: the body of a join/update
/// request and the value half of a gossiped row.
pub(crate) fn member_to_xml(m: &Member) -> Element {
    Element::new("member")
        .with_attr("id", &m.id.0)
        .with_attr("provider", &m.provider)
        .with_attr("endpoint", m.endpoint.as_str())
        .with_attr("cost", m.qos.cost.to_string())
        .with_attr("duration_ms", m.qos.duration_ms.to_string())
        .with_attr("reliability", m.qos.reliability.to_string())
        .with_attr("reputation", m.qos.reputation.to_string())
}

/// Decodes a member's attributes. An absent QoS attribute takes its value
/// from `absent_qos` — the advertised defaults on the join/update path,
/// `None` for gossiped rows, which always carry all four. A QoS figure
/// that is present must be a finite number on either path: member scoring
/// normalises each criterion between the pool's minimum and maximum, so
/// one infinite or NaN figure would erase that criterion for every
/// member, on every replica the row reached.
pub(crate) fn member_from_xml(
    el: &Element,
    absent_qos: Option<QosProfile>,
) -> Result<Member, String> {
    let qos = |name: &str, absent: fn(&QosProfile) -> f64| match el.attr(name) {
        Some(text) => text
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("member attribute {name}={text:?} is not a finite number")),
        None => absent_qos
            .as_ref()
            .map(absent)
            .ok_or_else(|| format!("member attribute {name:?} is missing")),
    };
    Ok(Member {
        id: MemberId(el.require_attr("id")?.to_string()),
        provider: el.attr("provider").unwrap_or("").to_string(),
        endpoint: NodeId::new(el.require_attr("endpoint")?),
        qos: QosProfile {
            cost: qos("cost", |q| q.cost)?,
            duration_ms: qos("duration_ms", |q| q.duration_ms)?,
            reliability: qos("reliability", |q| q.reliability)?,
            reputation: qos("reputation", |q| q.reputation)?,
        },
    })
}

impl LwwValue for Member {
    type Key = MemberId;
    /// Provider, endpoint, and the four QoS figures by bit pattern — an
    /// arbitrary but *agreed* order, which is all a tiebreak needs.
    type Order<'a> = (&'a str, &'a str, [u64; 4]);

    fn order(&self) -> Self::Order<'_> {
        let q = &self.qos;
        (
            &self.provider,
            self.endpoint.as_str(),
            [q.cost, q.duration_ms, q.reliability, q.reputation].map(f64::to_bits),
        )
    }

    fn to_xml(&self, _id: &MemberId) -> Element {
        member_to_xml(self)
    }

    fn from_xml(el: &Element) -> Option<(MemberId, Member)> {
        if el.name != "member" {
            return None;
        }
        let member = member_from_xml(el, None).ok()?;
        Some((member.id.clone(), member))
    }
}

/// One replica's membership table. Plain data — the community server
/// wraps it in its own lock; property tests drive it directly.
#[derive(Debug, Clone, Default)]
pub struct MembershipState {
    table: LwwTable<MemberId, Member>,
}

impl MembershipState {
    /// An empty table.
    pub fn new() -> MembershipState {
        MembershipState::default()
    }

    /// A table seeded from a [`Community`]'s member set (each at version
    /// 1) — how a replica adopts the members its spawner declared.
    pub fn seeded_from(community: &Community) -> MembershipState {
        let mut state = MembershipState::new();
        for member in community.members() {
            let _ = state.join(member.clone());
        }
        state
    }

    /// Registers a member: an error on a live duplicate, a version bump
    /// over a tombstone (rejoining after a departure is a new life for
    /// the same id). Returns the row to gossip.
    pub fn join(&mut self, member: Member) -> Result<MemberEntry, CommunityError> {
        if self.table.live(&member.id).is_some() {
            return Err(CommunityError::DuplicateMember(member.id));
        }
        Ok(self.table.put(member.id.clone(), member))
    }

    /// Re-advertises a live member's data (typically new QoS figures).
    /// Unknown or departed members error. Returns the row to gossip.
    pub fn update(&mut self, member: Member) -> Result<MemberEntry, CommunityError> {
        if self.table.live(&member.id).is_none() {
            return Err(CommunityError::UnknownMember(member.id));
        }
        Ok(self.table.put(member.id.clone(), member))
    }

    /// Removes a member by tombstoning its row at `version + 1`. Unknown
    /// or already-departed members error. Returns the tombstone to
    /// gossip.
    pub fn leave(&mut self, id: &MemberId) -> Result<MemberEntry, CommunityError> {
        self.table
            .bury(id)
            .ok_or_else(|| CommunityError::UnknownMember(id.clone()))
    }

    /// Merges one remote row under the total order; returns whether the
    /// local table changed.
    pub fn merge_entry(&mut self, id: MemberId, incoming: MemberEntry) -> bool {
        self.table.merge_entry(id, incoming)
    }

    /// Merges a batch of remote rows; returns how many changed the table.
    pub fn merge_rows(&mut self, rows: impl IntoIterator<Item = (MemberId, MemberEntry)>) -> usize {
        self.table.merge_rows(rows)
    }

    /// Rows of this table that strictly dominate (or are absent from) a
    /// peer's snapshot: exactly what the peer is missing.
    pub fn delta_against(&self, theirs: &[(MemberId, MemberEntry)]) -> MemberRows {
        self.table.delta_against(theirs)
    }

    /// The receiving half of push-pull ([`LwwTable::respond`]): merges
    /// `rows` and returns what their sender is missing — nothing for a
    /// delta, which is itself such an answer.
    pub fn respond(&mut self, rows: MemberRows, is_delta: bool) -> MemberRows {
        self.table.respond(rows, is_delta)
    }

    /// The gossip-able view: every row, tombstones included, in id order.
    pub fn snapshot(&self) -> MemberRows {
        self.table.snapshot()
    }

    /// Live members in id order (the selection candidates).
    pub fn members(&self) -> impl Iterator<Item = &Member> {
        self.table.live_rows().map(|(_, member)| member)
    }

    /// A live member by id.
    pub fn member(&self, id: &MemberId) -> Option<&Member> {
        self.table.live(id)
    }

    /// Number of live members.
    pub fn member_count(&self) -> usize {
        self.members().count()
    }

    /// True when no live member exists.
    pub fn is_empty(&self) -> bool {
        self.member_count() == 0
    }

    /// Order-independent fingerprint of the full table (tombstones
    /// included). Replicas that have converged report equal fingerprints;
    /// the churn and convergence tests poll this.
    pub fn fingerprint(&self) -> u64 {
        self.table.fingerprint()
    }
}

// ---------------------------------------------------------------------------
// Replica sync bodies: rows under a `<membership>` header
// ---------------------------------------------------------------------------

/// Encodes a set of rows under a `<membership>` header (the body of the
/// replica sync kinds).
pub fn membership_body(community: &str, rows: &[(MemberId, MemberEntry)]) -> Element {
    Element::new("membership")
        .with_attr("community", community)
        .with_children(rows_to_xml(rows))
}

/// Decodes a `<membership>` body into its community name and rows.
/// Malformed rows are skipped: one bad row must not poison an exchange.
pub fn membership_rows(body: &Element) -> Option<(String, MemberRows)> {
    if body.name != "membership" {
        return None;
    }
    Some((body.attr("community")?.to_string(), rows_from_xml(body)))
}

// ---------------------------------------------------------------------------
// Discovery piggyback: membership as a gossip payload
// ---------------------------------------------------------------------------

/// Adapts one replica's membership table to the discovery channel: the
/// table's snapshot rides every discovery exchange of the hub, and rows
/// merge under the same total order as the replica-to-replica sync. Hubs
/// hosting replicas of the same community converge through either path —
/// whichever message arrives first.
pub struct MembershipGossip {
    community: String,
    state: Arc<RwLock<MembershipState>>,
}

impl MembershipGossip {
    /// Wraps a replica's shared membership handle (see
    /// `CommunityServerHandle::membership`).
    pub fn new(community: impl Into<String>, state: Arc<RwLock<MembershipState>>) -> Arc<Self> {
        Arc::new(MembershipGossip {
            community: community.into(),
            state,
        })
    }

    /// A payload section of this stream carrying `rows`.
    fn section(&self, rows: &[(MemberId, MemberEntry)]) -> Element {
        Element::new(PAYLOAD_ELEMENT)
            .with_attr("key", self.key())
            .with_children(rows_to_xml(rows))
    }
}

impl GossipPayload for MembershipGossip {
    fn key(&self) -> String {
        format!("membership:{}", self.community)
    }

    fn snapshot(&self) -> Element {
        self.section(&self.state.read().snapshot())
    }

    fn merge(&self, incoming: &Element) -> Option<Element> {
        let is_delta = incoming.attr("delta").is_some();
        let missing = self
            .state
            .write()
            .respond(rows_from_xml(incoming), is_delta);
        if missing.is_empty() {
            return None;
        }
        Some(self.section(&missing).with_attr("delta", "1"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn member(id: &str) -> Member {
        Member {
            id: MemberId(id.to_string()),
            provider: format!("Provider {id}"),
            endpoint: NodeId::new(format!("svc.{id}")),
            qos: QosProfile::default(),
        }
    }

    #[test]
    fn join_leave_rejoin_bumps_versions() {
        let mut s = MembershipState::new();
        let joined = s.join(member("a")).unwrap();
        assert_eq!((joined.version, joined.evicted), (1, false));
        assert!(matches!(
            s.join(member("a")),
            Err(CommunityError::DuplicateMember(_))
        ));
        let gone = s.leave(&MemberId("a".into())).unwrap();
        assert_eq!((gone.version, gone.evicted), (2, true));
        assert!(s.leave(&MemberId("a".into())).is_err());
        assert_eq!(s.member_count(), 0);
        // The tombstone stays in the gossip-able view …
        assert_eq!(s.snapshot().len(), 1);
        // … and a rejoin resurrects the id above it.
        let back = s.join(member("a")).unwrap();
        assert_eq!((back.version, back.evicted), (3, false));
        assert_eq!(s.member_count(), 1);
    }

    #[test]
    fn update_readvertises_live_members_only() {
        let mut s = MembershipState::new();
        s.join(member("a")).unwrap();
        let mut changed = member("a");
        changed.qos.cost = 9.0;
        let updated = s.update(changed).unwrap();
        assert_eq!(updated.version, 2);
        assert_eq!(s.member(&MemberId("a".into())).unwrap().qos.cost, 9.0);
        assert!(s.update(member("ghost")).is_err());
        s.leave(&MemberId("a".into())).unwrap();
        assert!(s.update(member("a")).is_err());
    }

    #[test]
    fn membership_body_roundtrip_preserves_rows() {
        let mut s = MembershipState::new();
        s.join(member("a")).unwrap();
        s.join(member("b")).unwrap();
        s.leave(&MemberId("b".into())).unwrap();
        let rows = s.snapshot();
        let body = membership_body("X", &rows);
        let (community, decoded) = membership_rows(&body).unwrap();
        assert_eq!(community, "X");
        assert_eq!(decoded, rows);
        // Non-membership bodies and malformed rows are rejected/skipped.
        assert!(membership_rows(&Element::new("directory")).is_none());
        assert!(Member::from_xml(&Element::new("member").with_attr("id", "x")).is_none());
    }

    /// The `<member>` row is a wire format other processes parse: pin its
    /// bytes, not just its round trip.
    #[test]
    fn member_rows_are_pinned_byte_for_byte() {
        use selfserv_net::lww::{row_from_xml, row_to_xml};
        let mut s = MembershipState::new();
        let mut m = member("a");
        m.qos.cost = 2.5;
        let live = s.join(m).unwrap();
        let gone = s.leave(&MemberId("a".into())).unwrap();
        for (entry, bytes) in [
            (
                live,
                r#"<member id="a" provider="Provider a" endpoint="svc.a" cost="2.5" duration_ms="100" reliability="0.99" reputation="0.5" version="1"/>"#,
            ),
            (
                gone,
                r#"<member id="a" provider="Provider a" endpoint="svc.a" cost="2.5" duration_ms="100" reliability="0.99" reputation="0.5" version="2" evicted="1"/>"#,
            ),
        ] {
            let el = row_to_xml(&entry.value.id, &entry);
            assert_eq!(el.to_xml(), bytes);
            assert_eq!(row_from_xml(&el), Some((entry.value.id.clone(), entry)));
        }
    }

    /// One codec, two callers: a join may omit QoS attributes (advertised
    /// defaults apply), a gossiped row may not; neither accepts a figure
    /// that is not a finite number.
    #[test]
    fn member_codec_defaults_absent_qos_on_join_only_and_rejects_non_finite() {
        let bare = Element::new("member")
            .with_attr("id", "a")
            .with_attr("endpoint", "svc.a");
        let joined = member_from_xml(&bare, Some(QosProfile::default())).unwrap();
        assert_eq!(joined.qos, QosProfile::default());
        assert!(member_from_xml(&bare, None).is_err());
        for bad in ["inf", "-inf", "NaN", "abc"] {
            let el = member_to_xml(&member("a")).with_attr("cost", bad);
            assert!(member_from_xml(&el, Some(QosProfile::default())).is_err());
            assert!(Member::from_xml(&el).is_none(), "{bad}");
        }
    }

    #[test]
    fn gossip_payload_merges_and_answers_missing_rows() {
        let left = Arc::new(RwLock::new(MembershipState::new()));
        let right = Arc::new(RwLock::new(MembershipState::new()));
        left.write().join(member("a")).unwrap();
        right.write().join(member("b")).unwrap();
        let lp = MembershipGossip::new("X", Arc::clone(&left));
        let rp = MembershipGossip::new("X", Arc::clone(&right));
        assert_eq!(lp.key(), "membership:X");
        // left's snapshot reaches right: right adopts a, answers with b.
        let answer = rp.merge(&lp.snapshot()).expect("right holds fresher rows");
        assert!(lp.merge(&answer).is_none(), "left is now up to date");
        assert_eq!(
            left.read().fingerprint(),
            right.read().fingerprint(),
            "one push-pull round converges"
        );
    }
}
