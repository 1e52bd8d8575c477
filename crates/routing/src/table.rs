//! Routing-table data structures and their XML round-trip.

use selfserv_expr::Expr;
use selfserv_statechart::{Assignment, StateId};
use selfserv_xml::Element;
use std::fmt;

/// A party in the peer-to-peer execution of one composite service.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Participant {
    /// The coordinator attached to a (basic) state.
    State(StateId),
    /// The composite service's wrapper.
    Wrapper,
}

impl fmt::Display for Participant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Participant::State(s) => write!(f, "state:{s}"),
            Participant::Wrapper => write!(f, "wrapper"),
        }
    }
}

/// The label carried by a completion/control notification.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NotificationLabel {
    /// `state` (task, choice, or — by cascade — compound) completed.
    Completed(StateId),
    /// Region `region` of concurrent state completed.
    RegionCompleted(StateId, usize),
    /// Instance started (sent by the wrapper to the initial states).
    Start,
    /// A named statechart event was produced.
    Event(String),
}

impl NotificationLabel {
    /// Compact textual form used in XML and logs (e.g. `done:AB`,
    /// `region:ARR:0`, `start`, `event:paid`).
    pub fn encode(&self) -> String {
        match self {
            NotificationLabel::Completed(s) => format!("done:{s}"),
            NotificationLabel::RegionCompleted(s, r) => format!("region:{s}:{r}"),
            NotificationLabel::Start => "start".to_string(),
            NotificationLabel::Event(e) => format!("event:{e}"),
        }
    }

    /// Parses the compact textual form.
    pub fn decode(s: &str) -> Result<Self, String> {
        if s == "start" {
            return Ok(NotificationLabel::Start);
        }
        if let Some(rest) = s.strip_prefix("done:") {
            return Ok(NotificationLabel::Completed(StateId::new(rest)));
        }
        if let Some(rest) = s.strip_prefix("event:") {
            return Ok(NotificationLabel::Event(rest.to_string()));
        }
        if let Some(rest) = s.strip_prefix("region:") {
            let (state, region) = rest
                .rsplit_once(':')
                .ok_or_else(|| format!("bad region label {s:?}"))?;
            let region = region
                .parse::<usize>()
                .map_err(|e| format!("bad region index in {s:?}: {e}"))?;
            return Ok(NotificationLabel::RegionCompleted(
                StateId::new(state),
                region,
            ));
        }
        Err(format!("unknown notification label {s:?}"))
    }
}

impl fmt::Display for NotificationLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

/// One alternative way a state may be activated: an AND-set of labels that
/// must all have been observed for the instance, plus an optional
/// receiver-side condition over the (merged) instance variables, plus
/// actions to apply on activation (from transitions folded into this
/// route).
#[derive(Debug, Clone, PartialEq)]
pub struct Precondition {
    /// Identifier (derived from the transition path that produced it).
    pub id: String,
    /// Labels that must all be present (AND-join).
    pub labels: Vec<NotificationLabel>,
    /// Receiver-side condition; `None` = always.
    pub condition: Option<Expr>,
    /// Assignments applied when this alternative fires.
    pub actions: Vec<Assignment>,
}

impl Precondition {
    /// True when `seen` contains every required label.
    pub fn satisfied_by(&self, seen: &[NotificationLabel]) -> bool {
        self.labels.iter().all(|l| seen.contains(l))
    }
}

/// One notification to emit: target participant and label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Notification {
    /// Whom to notify.
    pub target: Participant,
    /// With which label.
    pub label: NotificationLabel,
}

/// A cascade branch of a postprocessing: the notifications to emit when
/// control takes this path. Conditions on branches are *receiver-side*
/// duplicates kept for traceability; the sender emits every branch
/// unconditionally (receivers decide activation — see the crate docs on
/// guard placement).
#[derive(Debug, Clone, PartialEq)]
pub struct RouteBranch {
    /// Notifications emitted on this branch.
    pub notifications: Vec<Notification>,
}

/// The postprocessing for one outgoing transition of a state.
#[derive(Debug, Clone, PartialEq)]
pub struct Postprocessing {
    /// The statechart transition this row was compiled from.
    pub transition_id: String,
    /// Sender-side guard: whether this transition fires on completion.
    /// Rows are evaluated in order; the first firing row wins (XOR).
    pub guard: Option<Expr>,
    /// Triggering event, if the transition is event-driven rather than
    /// completion-driven.
    pub event: Option<String>,
    /// The transition's own actions (applied at the sender before
    /// notifying).
    pub actions: Vec<Assignment>,
    /// Cascade-expanded notification branches (all emitted when the row
    /// fires).
    pub branches: Vec<RouteBranch>,
}

impl Postprocessing {
    /// All notifications across branches.
    pub fn notifications(&self) -> impl Iterator<Item = &Notification> {
        self.branches.iter().flat_map(|b| b.notifications.iter())
    }
}

/// The routing table uploaded to one state's coordinator.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoutingTable {
    /// The state this table belongs to.
    pub state: StateId,
    /// Activation alternatives (OR).
    pub preconditions: Vec<Precondition>,
    /// One row per outgoing transition, in declaration order.
    pub postprocessings: Vec<Postprocessing>,
    /// Events this state's operation produces: broadcast after completion.
    pub produced_events: Vec<String>,
}

/// The wrapper's routing knowledge: whom to kick off, and which label-sets
/// mean the instance has finished.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WrapperTable {
    /// States to notify with [`NotificationLabel::Start`].
    pub start_targets: Vec<StateId>,
    /// Completion alternatives (same semantics as state preconditions).
    pub finish_alternatives: Vec<Precondition>,
    /// Every coordinator of the composite: the wrapper sends a faulted
    /// or abandoned instance's cleanup to all of them.
    pub all_states: Vec<StateId>,
}

// ---------------------------------------------------------------------
// XML round-trip ("the outputs are routing tables formatted in XML").
// ---------------------------------------------------------------------

fn participant_to_attr(p: &Participant) -> String {
    p.to_string()
}

fn participant_from_attr(s: &str) -> Result<Participant, String> {
    if s == "wrapper" {
        Ok(Participant::Wrapper)
    } else if let Some(state) = s.strip_prefix("state:") {
        Ok(Participant::State(StateId::new(state)))
    } else {
        Err(format!("unknown participant {s:?}"))
    }
}

fn encode_actions(parent: &mut Element, actions: &[Assignment]) {
    for a in actions {
        parent.push_child(
            Element::new("action")
                .with_attr("var", &a.var)
                .with_attr("expr", a.expr.to_string()),
        );
    }
}

fn decode_actions(e: &Element) -> Result<Vec<Assignment>, String> {
    e.find_all("action")
        .map(|a| {
            Ok(Assignment {
                var: a.require_attr("var")?.to_string(),
                expr: selfserv_expr::parse(a.require_attr("expr")?).map_err(|e| e.to_string())?,
            })
        })
        .collect()
}

impl Precondition {
    /// XML form.
    pub fn to_xml(&self) -> Element {
        let mut e = Element::new("precondition").with_attr("id", &self.id);
        if let Some(c) = &self.condition {
            e.set_attr("condition", c.to_string());
        }
        for l in &self.labels {
            e.push_child(Element::new("await").with_attr("label", l.encode()));
        }
        encode_actions(&mut e, &self.actions);
        e
    }

    /// Decodes the XML form.
    pub fn from_xml(e: &Element) -> Result<Self, String> {
        let condition = match e.attr("condition") {
            Some(src) => Some(selfserv_expr::parse(src).map_err(|e| e.to_string())?),
            None => None,
        };
        let labels = e
            .find_all("await")
            .map(|a| NotificationLabel::decode(a.require_attr("label")?))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Precondition {
            id: e.require_attr("id")?.to_string(),
            labels,
            condition,
            actions: decode_actions(e)?,
        })
    }
}

impl Postprocessing {
    /// XML form.
    pub fn to_xml(&self) -> Element {
        let mut e = Element::new("postprocessing").with_attr("transition", &self.transition_id);
        if let Some(g) = &self.guard {
            e.set_attr("guard", g.to_string());
        }
        if let Some(ev) = &self.event {
            e.set_attr("event", ev);
        }
        encode_actions(&mut e, &self.actions);
        for b in &self.branches {
            let mut be = Element::new("branch");
            for n in &b.notifications {
                be.push_child(
                    Element::new("notify")
                        .with_attr("target", participant_to_attr(&n.target))
                        .with_attr("label", n.label.encode()),
                );
            }
            e.push_child(be);
        }
        e
    }

    /// Decodes the XML form.
    pub fn from_xml(e: &Element) -> Result<Self, String> {
        let guard = match e.attr("guard") {
            Some(src) => Some(selfserv_expr::parse(src).map_err(|e| e.to_string())?),
            None => None,
        };
        let branches = e
            .find_all("branch")
            .map(|be| {
                let notifications = be
                    .find_all("notify")
                    .map(|n| {
                        Ok(Notification {
                            target: participant_from_attr(n.require_attr("target")?)?,
                            label: NotificationLabel::decode(n.require_attr("label")?)?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(RouteBranch { notifications })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Postprocessing {
            transition_id: e.require_attr("transition")?.to_string(),
            guard,
            event: e.attr("event").map(str::to_string),
            actions: decode_actions(e)?,
            branches,
        })
    }
}

impl RoutingTable {
    /// XML form (`<routingTable state="...">`).
    pub fn to_xml(&self) -> Element {
        let mut e = Element::new("routingTable").with_attr("state", self.state.as_str());
        for p in &self.preconditions {
            e.push_child(p.to_xml());
        }
        for p in &self.postprocessings {
            e.push_child(p.to_xml());
        }
        for ev in &self.produced_events {
            e.push_child(Element::new("produces").with_attr("event", ev));
        }
        e
    }

    /// Decodes the XML form.
    pub fn from_xml(e: &Element) -> Result<Self, String> {
        if e.name != "routingTable" {
            return Err(format!("expected <routingTable>, got <{}>", e.name));
        }
        Ok(RoutingTable {
            state: StateId::new(e.require_attr("state")?),
            preconditions: e
                .find_all("precondition")
                .map(Precondition::from_xml)
                .collect::<Result<Vec<_>, _>>()?,
            postprocessings: e
                .find_all("postprocessing")
                .map(Postprocessing::from_xml)
                .collect::<Result<Vec<_>, _>>()?,
            produced_events: e
                .find_all("produces")
                .map(|p| p.require_attr("event").map(str::to_string))
                .collect::<Result<Vec<_>, _>>()?,
        })
    }
}

impl WrapperTable {
    /// XML form.
    pub fn to_xml(&self) -> Element {
        let mut e = Element::new("wrapperTable");
        for s in &self.start_targets {
            e.push_child(Element::new("start").with_attr("state", s.as_str()));
        }
        for p in &self.finish_alternatives {
            e.push_child(p.to_xml());
        }
        for s in &self.all_states {
            e.push_child(Element::new("coordinator").with_attr("state", s.as_str()));
        }
        e
    }

    /// Decodes the XML form.
    pub fn from_xml(e: &Element) -> Result<Self, String> {
        if e.name != "wrapperTable" {
            return Err(format!("expected <wrapperTable>, got <{}>", e.name));
        }
        Ok(WrapperTable {
            start_targets: e
                .find_all("start")
                .map(|s| s.require_attr("state").map(StateId::new))
                .collect::<Result<Vec<_>, _>>()?,
            finish_alternatives: e
                .find_all("precondition")
                .map(Precondition::from_xml)
                .collect::<Result<Vec<_>, _>>()?,
            all_states: e
                .find_all("coordinator")
                .map(|s| s.require_attr("state").map(StateId::new))
                .collect::<Result<Vec<_>, _>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_encode_decode() {
        let labels = vec![
            NotificationLabel::Completed(StateId::new("AB")),
            NotificationLabel::RegionCompleted(StateId::new("ARR"), 1),
            NotificationLabel::Start,
            NotificationLabel::Event("paid".into()),
        ];
        for l in labels {
            assert_eq!(NotificationLabel::decode(&l.encode()).unwrap(), l);
        }
        assert!(NotificationLabel::decode("bogus:x").is_err());
        assert!(NotificationLabel::decode("region:no-index").is_err());
        assert!(NotificationLabel::decode("region:a:b").is_err());
    }

    #[test]
    fn participant_encode_decode() {
        for p in [Participant::Wrapper, Participant::State(StateId::new("CR"))] {
            assert_eq!(participant_from_attr(&participant_to_attr(&p)).unwrap(), p);
        }
        assert!(participant_from_attr("martian").is_err());
    }

    #[test]
    fn precondition_satisfaction() {
        let p = Precondition {
            id: "x".into(),
            labels: vec![
                NotificationLabel::RegionCompleted(StateId::new("ARR"), 0),
                NotificationLabel::RegionCompleted(StateId::new("ARR"), 1),
            ],
            condition: None,
            actions: vec![],
        };
        let r0 = NotificationLabel::RegionCompleted(StateId::new("ARR"), 0);
        let r1 = NotificationLabel::RegionCompleted(StateId::new("ARR"), 1);
        assert!(!p.satisfied_by(&[]));
        assert!(!p.satisfied_by(std::slice::from_ref(&r0)));
        assert!(p.satisfied_by(&[r0, r1]));
    }

    fn sample_table() -> RoutingTable {
        RoutingTable {
            state: StateId::new("CR"),
            preconditions: vec![Precondition {
                id: "via:t_cr".into(),
                labels: vec![
                    NotificationLabel::RegionCompleted(StateId::new("ARR"), 0),
                    NotificationLabel::RegionCompleted(StateId::new("ARR"), 1),
                ],
                condition: Some(
                    selfserv_expr::parse("not near(major_attraction, accommodation)").unwrap(),
                ),
                actions: vec![Assignment {
                    var: "legs".into(),
                    expr: selfserv_expr::parse("legs + 1").unwrap(),
                }],
            }],
            postprocessings: vec![Postprocessing {
                transition_id: "t_cr_f".into(),
                guard: None,
                event: None,
                actions: vec![],
                branches: vec![RouteBranch {
                    notifications: vec![Notification {
                        target: Participant::Wrapper,
                        label: NotificationLabel::Completed(StateId::new("CR")),
                    }],
                }],
            }],
            produced_events: vec!["carRented".into()],
        }
    }

    #[test]
    fn routing_table_xml_round_trip() {
        let t = sample_table();
        let xml = t.to_xml().to_pretty_xml();
        let back = RoutingTable::from_xml(&selfserv_xml::parse(&xml).unwrap()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn wrapper_table_xml_round_trip() {
        let w = WrapperTable {
            start_targets: vec![StateId::new("FC"), StateId::new("AS")],
            finish_alternatives: vec![Precondition {
                id: "via:t_skip_cr".into(),
                labels: vec![
                    NotificationLabel::RegionCompleted(StateId::new("ARR"), 0),
                    NotificationLabel::RegionCompleted(StateId::new("ARR"), 1),
                ],
                condition: Some(
                    selfserv_expr::parse("near(major_attraction, accommodation)").unwrap(),
                ),
                actions: vec![],
            }],
            all_states: vec![StateId::new("FC"), StateId::new("AS"), StateId::new("CR")],
        };
        let back =
            WrapperTable::from_xml(&selfserv_xml::parse(&w.to_xml().to_xml()).unwrap()).unwrap();
        assert_eq!(back, w);
    }

    #[test]
    fn decode_rejects_wrong_roots() {
        assert!(RoutingTable::from_xml(&Element::new("nope")).is_err());
        assert!(WrapperTable::from_xml(&Element::new("nope")).is_err());
    }

    #[test]
    fn postprocessing_notifications_iterator() {
        let t = sample_table();
        assert_eq!(t.postprocessings[0].notifications().count(), 1);
    }
}
