//! Message envelopes: addressed XML documents.

use selfserv_xml::{write_attr, ByteCount, Element, Node, XmlSink};
use std::fmt;
use std::sync::Arc;

/// Name of a node on the fabric (a coordinator, wrapper, community,
/// registry, or client). Cheap to clone.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(Arc<str>);

impl NodeId {
    /// Wraps a name.
    pub fn new(s: impl AsRef<str>) -> Self {
        NodeId(Arc::from(s.as_ref()))
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for NodeId {
    fn from(s: &str) -> Self {
        NodeId::new(s)
    }
}

impl From<String> for NodeId {
    fn from(s: String) -> Self {
        NodeId::new(s)
    }
}

/// Fabric-unique message identifier (used for reply correlation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageId(pub u64);

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// An addressed XML message: the only thing that travels between SELF-SERV
/// components.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Fabric-assigned id.
    pub id: MessageId,
    /// Sender node. This doubles as the **reply address**: `reply` and the
    /// rpc machinery send correlated responses back to `from` by name, so
    /// on transports that carry frames between processes the field is what
    /// makes a cross-process round trip routable.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Message kind tag (e.g. `notify`, `invoke`, `reply`, `uddi.find`).
    /// Receivers dispatch on this.
    pub kind: String,
    /// For replies: the id of the request being answered.
    pub correlation: Option<MessageId>,
    /// XML payload.
    pub body: Element,
}

impl Envelope {
    /// A synthetic, transport-less envelope: carries `body` as if `node`
    /// had sent it to itself. Never touches a transport (no metrics, no
    /// delivery) — it exists so off-wire results (e.g. a blocking backend
    /// call's outcome delivered through a runtime completion event) travel in the
    /// same shape as wire traffic. The id is `MessageId(0)` and there is
    /// no correlation.
    pub fn synthetic(node: NodeId, kind: impl Into<String>, body: Element) -> Envelope {
        Envelope {
            id: MessageId(0),
            from: node.clone(),
            to: node,
            kind: kind.into(),
            correlation: None,
            body,
        }
    }

    /// The header attributes in wire order — the one definition that both
    /// [`Envelope::to_xml`] and the frame writer consume.
    fn for_each_header_attr(&self, mut attr: impl FnMut(&'static str, &str)) {
        let mut digits = [0u8; 20];
        attr("id", decimal(self.id.0, &mut digits));
        attr("from", self.from.as_str());
        attr("to", self.to.as_str());
        attr("kind", &self.kind);
        if let Some(c) = self.correlation {
            attr("correlation", decimal(c.0, &mut digits));
        }
    }

    /// Encodes the whole envelope as one XML element (the on-wire form of
    /// the TCP transport, and the basis of byte accounting).
    pub fn to_xml(&self) -> Element {
        let mut e = Element::new("envelope");
        self.for_each_header_attr(|name, value| e.attrs.push((name.into(), value.into())));
        e.push_child(self.body.clone());
        e
    }

    /// Writes the frame text — `self.to_xml()`, with the `stamp`
    /// attributes appended after the header, `.to_xml()` — straight to
    /// `out` without building the wrapper element or copying the body.
    pub(crate) fn write_wire<S: XmlSink>(&self, stamp: &[(&str, String)], out: &mut S) {
        out.put("<envelope");
        self.for_each_header_attr(|name, value| write_attr(out, name, value));
        for (name, value) in stamp {
            write_attr(out, name, value);
        }
        out.put(">");
        self.body.write_into(out);
        out.put("</envelope>");
    }

    /// What [`Envelope::write_wire`] would write for `stamp` if no byte
    /// needed escaping: O(nodes), no byte of text read (see
    /// [`Element::unescaped_len`]). A lower bound on the frame's length,
    /// for sizing its buffer.
    pub(crate) fn unescaped_wire_len(&self, stamp: &[(&str, String)]) -> usize {
        let mut len = "<envelope></envelope>".len() + self.body.unescaped_len();
        self.for_each_header_attr(|name, value| len += 4 + name.len() + value.len());
        len + stamp
            .iter()
            .map(|(name, value)| 4 + name.len() + value.len())
            .sum::<usize>()
    }

    /// Byte length of [`Envelope::write_wire`]'s output for `stamp`.
    pub(crate) fn wire_len(&self, stamp: &[(&str, String)]) -> usize {
        let mut count = ByteCount(0);
        self.write_wire(stamp, &mut count);
        count.0
    }

    /// Decodes the on-wire form, copying the body out of `e`.
    pub fn from_xml(e: &Element) -> Result<Self, String> {
        Self::decode_with(e, e.child_elements().next().cloned())
    }

    /// Decodes the on-wire form, *taking* the body out of the parsed frame
    /// — what a receive path that owns the frame calls. A shared body is
    /// copied only if another tree still holds it.
    pub(crate) fn decode(mut e: Element) -> Result<Self, String> {
        let body = std::mem::take(&mut e.children)
            .into_iter()
            .find_map(|n| match n {
                Node::Element(body) => Some(body),
                Node::Shared(body) => Some(body.into_element()),
                _ => None,
            });
        Self::decode_with(&e, body)
    }

    /// The one decoder: the header from `e`'s attributes (others — the
    /// piggybacked `peer-*` claim — are ignored), the body as the caller
    /// obtained `e`'s first child element, copied or taken.
    fn decode_with(e: &Element, body: Option<Element>) -> Result<Self, String> {
        if e.name != "envelope" {
            return Err(format!("expected <envelope>, got <{}>", e.name));
        }
        let id = e
            .require_attr("id")?
            .parse::<u64>()
            .map_err(|err| format!("bad envelope id: {err}"))?;
        let correlation = match e.attr("correlation") {
            Some(c) => Some(MessageId(
                c.parse::<u64>()
                    .map_err(|err| format!("bad correlation: {err}"))?,
            )),
            None => None,
        };
        let body = body.ok_or_else(|| "envelope has no body element".to_string())?;
        Ok(Envelope {
            id: MessageId(id),
            from: NodeId::new(e.require_attr("from")?),
            to: NodeId::new(e.require_attr("to")?),
            kind: e.require_attr("kind")?.to_string(),
            correlation,
            body,
        })
    }

    /// Size in bytes of the serialized envelope — what the metrics layer
    /// charges to each link. Counted by the writer that produces the frame
    /// text, not serialized: no clone, no allocation, and a shared body
    /// child adds the length it was counted at when it was shared.
    pub fn wire_size(&self) -> usize {
        self.wire_len(&[])
    }
}

/// `n` in decimal, written into `buf` (20 digits hold any `u64`).
fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[at..]).expect("ascii digits")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Envelope {
        Envelope {
            id: MessageId(7),
            from: "coordinator.AB".into(),
            to: "coordinator.CR".into(),
            kind: "notify".into(),
            correlation: Some(MessageId(3)),
            body: Element::new("completed").with_attr("state", "AB"),
        }
    }

    #[test]
    fn node_id_basics() {
        let n = NodeId::new("svc.dfb");
        assert_eq!(n.as_str(), "svc.dfb");
        assert_eq!(n.to_string(), "svc.dfb");
        assert_eq!(n.clone(), n);
        assert_eq!(NodeId::from("x".to_string()), NodeId::from("x"));
    }

    #[test]
    fn envelope_round_trip() {
        let env = sample();
        let back = Envelope::from_xml(&env.to_xml()).unwrap();
        assert_eq!(back, env);
    }

    #[test]
    fn envelope_without_correlation_round_trips() {
        let mut env = sample();
        env.correlation = None;
        let back = Envelope::from_xml(&env.to_xml()).unwrap();
        assert_eq!(back, env);
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(Envelope::from_xml(&Element::new("notenvelope")).is_err());
        let no_body = Element::new("envelope")
            .with_attr("id", "1")
            .with_attr("from", "a")
            .with_attr("to", "b")
            .with_attr("kind", "k");
        assert!(Envelope::from_xml(&no_body).is_err());
        let bad_id = Element::new("envelope")
            .with_attr("id", "xyz")
            .with_attr("from", "a")
            .with_attr("to", "b")
            .with_attr("kind", "k")
            .with_child(Element::new("x"));
        assert!(Envelope::from_xml(&bad_id).is_err());
    }

    #[test]
    fn wire_size_is_positive_and_monotone() {
        let small = sample();
        let mut big = sample();
        big.body = Element::new("completed").with_text("x".repeat(512));
        assert!(small.wire_size() > 0);
        assert!(big.wire_size() > small.wire_size());
    }

    #[test]
    fn unescaped_wire_len_is_the_length_of_a_text_with_nothing_to_escape() {
        let stamp = [("peer-addr", "127.0.0.1:9".to_string())];
        for env in [
            sample(),
            Envelope {
                correlation: None,
                ..sample()
            },
        ] {
            assert_eq!(env.unescaped_wire_len(&stamp), env.wire_len(&stamp));
            assert_eq!(env.unescaped_wire_len(&[]), env.wire_size());
        }
        let mut escaped = sample();
        escaped.kind = "a<b".into();
        assert_eq!(escaped.unescaped_wire_len(&[]) + 3, escaped.wire_size());
    }

    #[test]
    fn message_id_display() {
        assert_eq!(MessageId(42).to_string(), "m42");
    }
}
