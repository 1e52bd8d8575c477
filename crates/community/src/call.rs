//! The caller's side of a community invocation, written once: which
//! replica to ask, failover to an untried one, replica redirects, member
//! redirects and the final reply. [`CommunityCall`] does no I/O; each step
//! returns the next rpc ([`CallStep::Send`]) or the outcome
//! ([`CallStep::Done`]), so the coordinator (`rpc_async`) and the blocking
//! [`crate::CommunityClient`] (`Endpoint::rpc`) drive the same machine.

use crate::membership::{CommunityError, Member};
use crate::server::kinds;
use selfserv_net::{Envelope, LivenessProbe, NodeId, ReplicaSet, RpcError};
use selfserv_wsdl::MessageDoc;
use selfserv_xml::Element;
use std::fmt;
use std::sync::Arc;

/// Selection directives (`weight_*` parameters) are consumed by the
/// community, not forwarded to members.
pub(crate) fn strip_directives(msg: &MessageDoc) -> MessageDoc {
    let mut out = MessageDoc::request(msg.operation.clone());
    for (k, v) in msg.iter() {
        if !k.starts_with("weight_") {
            out.set(k, v.clone());
        }
    }
    out
}

/// A replica redirect: this replica's member pool cannot serve, ask `next`.
pub(crate) fn replica_redirect(next: &NodeId) -> Element {
    Element::new("redirect")
        .with_attr("replica", "1")
        .with_attr("endpoint", next.as_str())
}

/// A member redirect: invoke `member` directly.
pub(crate) fn member_redirect(member: &Member) -> Element {
    Element::new("redirect")
        .with_attr("member", &member.id.0)
        .with_attr("provider", &member.provider)
        .with_attr("endpoint", member.endpoint.as_str())
}

/// What the caller of a [`CommunityCall`] does next.
#[derive(Debug)]
pub enum CallStep {
    /// Send `body` as a `kind` rpc to `to`, then hand its outcome to
    /// [`CommunityCall::on_reply`].
    Send {
        /// A community replica or, after a member redirect, the member.
        to: NodeId,
        /// [`kinds::INVOKE`] to a replica, [`kinds::MEMBER_INVOKE`] to a
        /// member.
        kind: &'static str,
        /// The request.
        body: Element,
    },
    /// The call is over: the member's response, or why there is none.
    Done(Result<MessageDoc, CommunityError>),
}

/// One invocation of a community, from the caller's side: a sans-IO state
/// machine over the community's replica set (see the module docs).
pub struct CommunityCall {
    replicas: Arc<ReplicaSet>,
    /// The rendezvous key; empty for a one-replica set, which never routes.
    key: String,
    /// The request as the caller built it, directives included: replicas
    /// read them, members never see them.
    input: MessageDoc,
    /// Every replica asked so far; the last is the one asked most recently.
    tried: Vec<NodeId>,
    /// The member a redirect named, once the call awaits it.
    member: Option<NodeId>,
}

impl CommunityCall {
    /// Starts a call of `input` on the community `replicas` serve. A
    /// one-replica set sends to its node without consulting `liveness`; a
    /// larger one routes `key` with [`ReplicaSet::route`] (`load` is the
    /// caller's in-flight count per replica), falling back to the first
    /// replica when every one is evicted.
    pub fn start(
        replicas: Arc<ReplicaSet>,
        key: impl fmt::Display,
        input: MessageDoc,
        liveness: Option<&dyn LivenessProbe>,
        load: &dyn Fn(&NodeId) -> usize,
    ) -> (CommunityCall, CallStep) {
        let key = if replicas.len() > 1 {
            key.to_string()
        } else {
            String::new()
        };
        let first = match replicas.replicas() {
            [only] => Some(only.clone()),
            all => replicas
                .route(&key, liveness, &[], load)
                .or_else(|| all.first().cloned()),
        };
        let mut call = CommunityCall {
            replicas,
            key,
            input,
            tried: Vec::new(),
            member: None,
        };
        let step = match first {
            Some(replica) => call.ask(replica),
            None => failed("the community has no replica to call".to_string()),
        };
        (call, step)
    }

    /// The replica the outstanding rpc went to, or `None` while the call
    /// awaits a redirected member: what a caller counting its in-flight
    /// rpcs per replica (the `load`) counts up on a send and down on its
    /// outcome.
    pub fn awaiting_replica(&self) -> Option<&NodeId> {
        match self.member {
            Some(_) => None,
            None => self.tried.last(),
        }
    }

    /// Takes the outcome of the last [`CallStep::Send`]. A replica that
    /// timed out or was unreachable is replaced by an untried one while
    /// any is left, and so is a replica whose redirect names a replica
    /// already asked (a loop, once none is left); a member redirect sends
    /// the request on without its `weight_*` directives. A member's failed
    /// rpc ends the call.
    pub fn on_reply(
        &mut self,
        result: Result<Envelope, RpcError>,
        liveness: Option<&dyn LivenessProbe>,
        load: &dyn Fn(&NodeId) -> usize,
    ) -> CallStep {
        if let Some(member) = &self.member {
            return match result {
                Ok(reply) => CallStep::Done(decode(&reply.body)),
                Err(e) => failed(format!("redirected member '{member}' failed: {e}")),
            };
        }
        let reason = match result {
            Ok(reply) => {
                if reply.kind == kinds::FAULT {
                    let reason = reply.body.attr("reason").unwrap_or("community fault");
                    return failed(reason.to_string());
                }
                if reply.body.name != "redirect" {
                    return CallStep::Done(decode(&reply.body));
                }
                let to = match reply.body.require_attr("endpoint") {
                    Ok(endpoint) => NodeId::new(endpoint),
                    Err(e) => {
                        let e = CommunityError::Protocol(format!("bad redirect: {e}"));
                        return CallStep::Done(Err(e));
                    }
                };
                if reply.body.attr("replica").is_none() {
                    self.member = Some(to.clone());
                    return CallStep::Send {
                        to,
                        kind: kinds::MEMBER_INVOKE,
                        body: strip_directives(&self.input).to_xml(),
                    };
                }
                if !self.tried.contains(&to) {
                    return self.ask(to);
                }
                // Empty replicas rank their siblings alike, so two of them
                // can name each other while a third, untried one could serve.
                format!("community replica redirect loop via '{to}'")
            }
            Err(e) => {
                let replica = self.tried.last().map_or("", NodeId::as_str);
                match e {
                    RpcError::Timeout => format!("community '{replica}' timed out"),
                    RpcError::Send(s) => format!("community '{replica}' unreachable: {s}"),
                }
            }
        };
        match self.replicas.route(&self.key, liveness, &self.tried, load) {
            Some(next) => self.ask(next),
            None => failed(reason),
        }
    }

    /// Sends the request to `replica`.
    fn ask(&mut self, replica: NodeId) -> CallStep {
        self.tried.push(replica.clone());
        CallStep::Send {
            to: replica,
            kind: kinds::INVOKE,
            body: self.input.to_xml(),
        }
    }
}

fn failed(reason: String) -> CallStep {
    CallStep::Done(Err(CommunityError::DelegationFailed(reason)))
}

/// The final reply's body as the member's response; a fault response ends
/// the call with its reason.
fn decode(body: &Element) -> Result<MessageDoc, CommunityError> {
    let response =
        MessageDoc::from_xml(body).map_err(|e| CommunityError::Protocol(e.to_string()))?;
    if response.is_fault() {
        let reason = response.fault_reason().unwrap_or("member fault");
        return Err(CommunityError::DelegationFailed(reason.to_string()));
    }
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::{MemberId, QosProfile};
    use selfserv_expr::Value;
    use selfserv_net::SendError;

    /// The caller's view of the world in one test: who answers what.
    enum Outcome {
        /// A `community.result` (or member reply) with this body.
        Reply(Element),
        /// A `community.fault` with this reason.
        Fault(&'static str),
        Timeout,
        Unreachable,
    }

    fn response(served_by: &str) -> Element {
        MessageDoc::response("book")
            .with("served_by", Value::str(served_by))
            .to_xml()
    }

    fn member(endpoint: &str) -> Element {
        member_redirect(&Member {
            id: MemberId("m".into()),
            provider: "P".into(),
            endpoint: NodeId::new(endpoint),
            qos: QosProfile::default(),
        })
    }

    fn replica(endpoint: &str) -> Element {
        replica_redirect(&NodeId::new(endpoint))
    }

    fn rpc_result(to: &NodeId, kind: &str, outcome: Outcome) -> Result<Envelope, RpcError> {
        match outcome {
            Outcome::Reply(body) => Ok(Envelope::synthetic(to.clone(), kind, body)),
            Outcome::Fault(reason) => Ok(Envelope::synthetic(
                to.clone(),
                kinds::FAULT,
                Element::new("fault").with_attr("reason", reason),
            )),
            Outcome::Timeout => Err(RpcError::Timeout),
            Outcome::Unreachable => Err(RpcError::Send(SendError::UnknownNode(to.clone()))),
        }
    }

    /// Runs one call of a request carrying a `weight_cost` directive over
    /// `replicas` (rendezvous-routed with no load), answering the n-th rpc
    /// with `outcomes[n]`. Returns every rpc sent, as (to, kind, parameter
    /// count of the body), and the outcome.
    #[allow(clippy::type_complexity)]
    fn run(
        replicas: &[&str],
        outcomes: Vec<Outcome>,
    ) -> (
        Vec<(String, &'static str, usize)>,
        Result<MessageDoc, CommunityError>,
    ) {
        let set = Arc::new(ReplicaSet::new(replicas.iter().map(NodeId::new).collect()));
        let input = MessageDoc::request("book")
            .with("city", Value::str("Sydney"))
            .with("weight_cost", Value::Float(3.0));
        let no_load: &dyn Fn(&NodeId) -> usize = &|_| 0;
        let (mut call, mut step) = CommunityCall::start(set, "instance/1", input, None, no_load);
        let mut sent = Vec::new();
        let mut outcomes = outcomes.into_iter();
        loop {
            match step {
                CallStep::Send { to, kind, body } => {
                    let params = MessageDoc::from_xml(&body).unwrap().len();
                    sent.push((to.as_str().to_string(), kind, params));
                    let outcome = outcomes.next().expect("an answer for every rpc");
                    let reply_kind = if kind == kinds::INVOKE {
                        kinds::RESULT
                    } else {
                        kinds::MEMBER_RESULT
                    };
                    let result = rpc_result(&to, reply_kind, outcome);
                    step = call.on_reply(result, None, no_load);
                }
                CallStep::Done(result) => {
                    assert!(outcomes.next().is_none(), "the call ended early");
                    return (sent, result);
                }
            }
        }
    }

    /// The replica a two-replica set asks first for the key `run` uses.
    fn primary() -> (&'static str, &'static str) {
        let set = ReplicaSet::new(vec![NodeId::new("c"), NodeId::new("c.r1")]);
        match set.route("instance/1", None, &[], &|_| 0).unwrap().as_str() {
            "c" => ("c", "c.r1"),
            _ => ("c.r1", "c"),
        }
    }

    fn served_by(result: &Result<MessageDoc, CommunityError>) -> &str {
        result.as_ref().unwrap().get_str("served_by").unwrap()
    }

    fn reason(result: Result<MessageDoc, CommunityError>) -> String {
        result.unwrap_err().to_string()
    }

    const INVOKE: &str = kinds::INVOKE;
    const MEMBER: &str = kinds::MEMBER_INVOKE;

    #[test]
    fn a_reply_is_the_response() {
        let (sent, result) = run(&["c"], vec![Outcome::Reply(response("m1"))]);
        assert_eq!(sent, vec![("c".into(), INVOKE, 2)]);
        assert_eq!(served_by(&result), "m1");
    }

    #[test]
    fn a_community_fault_ends_the_call_with_its_reason() {
        let (sent, result) = run(&["c"], vec![Outcome::Fault("no members available")]);
        assert_eq!(sent.len(), 1);
        assert_eq!(reason(result), "delegation failed: no members available");
    }

    #[test]
    fn a_member_fault_ends_the_call_with_its_reason() {
        let fault = MessageDoc::fault("book", "no inventory").to_xml();
        let (_, result) = run(&["c"], vec![Outcome::Reply(fault)]);
        assert_eq!(reason(result), "delegation failed: no inventory");
    }

    #[test]
    fn a_replica_redirect_asks_the_named_sibling() {
        let (sent, result) = run(
            &["c"],
            vec![
                Outcome::Reply(replica("c.r1")),
                Outcome::Reply(response("m1")),
            ],
        );
        assert_eq!(
            sent,
            vec![("c".into(), INVOKE, 2), ("c.r1".into(), INVOKE, 2)]
        );
        assert_eq!(served_by(&result), "m1");
    }

    #[test]
    fn a_redirect_back_to_an_asked_replica_is_a_loop() {
        let (sent, result) = run(
            &["c"],
            vec![
                Outcome::Reply(replica("c.r1")),
                Outcome::Reply(replica("c")),
            ],
        );
        assert_eq!(sent.len(), 2);
        assert_eq!(
            reason(result),
            "delegation failed: community replica redirect loop via 'c'"
        );
    }

    #[test]
    fn a_redirect_loop_moves_on_to_an_untried_replica() {
        let names = ["c", "c.r1", "c.r2"];
        let set = ReplicaSet::new(names.iter().map(NodeId::new).collect());
        let first = set.route("instance/1", None, &[], &|_| 0).unwrap();
        let mut others = names.into_iter().filter(|n| *n != first.as_str());
        let (second, third) = (others.next().unwrap(), others.next().unwrap());
        let (sent, result) = run(
            &names,
            vec![
                Outcome::Reply(replica(second)),
                Outcome::Reply(replica(first.as_str())),
                Outcome::Reply(response("m3")),
            ],
        );
        let asked: Vec<&str> = sent.iter().map(|(to, _, _)| to.as_str()).collect();
        assert_eq!(asked, [first.as_str(), second, third]);
        assert_eq!(served_by(&result), "m3");
    }

    #[test]
    fn a_redirect_without_an_endpoint_is_a_protocol_error() {
        let (_, result) = run(&["c"], vec![Outcome::Reply(Element::new("redirect"))]);
        assert!(
            matches!(result, Err(CommunityError::Protocol(_))),
            "{result:?}"
        );
    }

    #[test]
    fn a_member_redirect_ending_in_a_reply() {
        let (sent, result) = run(
            &["c"],
            vec![
                Outcome::Reply(member("svc.m1")),
                Outcome::Reply(response("m1")),
            ],
        );
        // The member gets the request without its `weight_cost` directive.
        assert_eq!(
            sent,
            vec![("c".into(), INVOKE, 2), ("svc.m1".into(), MEMBER, 1)]
        );
        assert_eq!(served_by(&result), "m1");
    }

    #[test]
    fn a_member_redirect_ending_in_a_fault() {
        let fault = MessageDoc::fault("book", "overbooked").to_xml();
        let (sent, result) = run(
            &["c"],
            vec![Outcome::Reply(member("svc.m1")), Outcome::Reply(fault)],
        );
        assert_eq!(sent.len(), 2);
        assert_eq!(reason(result), "delegation failed: overbooked");
    }

    #[test]
    fn a_member_redirect_ending_in_a_timeout() {
        let (sent, result) = run(
            &["c", "c.r1"],
            vec![Outcome::Reply(member("svc.m1")), Outcome::Timeout],
        );
        // A silent member is not a dead replica: no failover.
        assert_eq!(sent.len(), 2);
        assert_eq!(
            reason(result),
            "delegation failed: redirected member 'svc.m1' failed: rpc timed out waiting for reply"
        );
    }

    #[test]
    fn a_timeout_fails_over_to_the_surviving_replica() {
        let (first, second) = primary();
        let (sent, result) = run(
            &["c", "c.r1"],
            vec![Outcome::Timeout, Outcome::Reply(response("m1"))],
        );
        assert_eq!(
            sent,
            vec![(first.into(), INVOKE, 2), (second.into(), INVOKE, 2)]
        );
        assert_eq!(served_by(&result), "m1");
    }

    #[test]
    fn a_timeout_with_no_surviving_replica_ends_the_call() {
        let (_, second) = primary();
        let (sent, result) = run(&["c", "c.r1"], vec![Outcome::Timeout, Outcome::Timeout]);
        assert_eq!(sent.len(), 2);
        assert_eq!(
            reason(result),
            format!("delegation failed: community '{second}' timed out")
        );
        let (sent, result) = run(&["c"], vec![Outcome::Unreachable]);
        assert_eq!(sent.len(), 1);
        assert_eq!(
            reason(result),
            "delegation failed: community 'c' unreachable: unknown node 'c'"
        );
    }

    #[test]
    fn the_outstanding_replica_is_the_one_asked_last() {
        let set = Arc::new(ReplicaSet::new(vec![NodeId::new("c")]));
        let no_load: &dyn Fn(&NodeId) -> usize = &|_| 0;
        let input = MessageDoc::request("book");
        let (mut call, _) = CommunityCall::start(set, "k", input, None, no_load);
        assert_eq!(call.awaiting_replica().map(NodeId::as_str), Some("c"));
        let redirect = Envelope::synthetic(NodeId::new("c"), kinds::RESULT, replica("c.r1"));
        call.on_reply(Ok(redirect), None, no_load);
        assert_eq!(call.awaiting_replica().map(NodeId::as_str), Some("c.r1"));
        let redirect = Envelope::synthetic(NodeId::new("c.r1"), kinds::RESULT, member("svc.m"));
        call.on_reply(Ok(redirect), None, no_load);
        assert_eq!(call.awaiting_replica(), None);
    }

    #[test]
    fn an_empty_replica_set_sends_nothing() {
        let set = Arc::new(ReplicaSet::new(Vec::new()));
        let (_, step) = CommunityCall::start(set, "k", MessageDoc::request("book"), None, &|_| 0);
        assert!(matches!(step, CallStep::Done(Err(_))), "{step:?}");
    }
}
