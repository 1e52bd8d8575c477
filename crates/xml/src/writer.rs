//! Serialization of [`Element`] trees back to XML text.
//!
//! The compact form is written by one routine, generic over its
//! [`XmlSink`]: a `String` or `Vec<u8>` collects the text, a [`ByteCount`]
//! only measures it. [`Element::to_xml`], [`Element::write_into`] and
//! [`Element::xml_len`] are that routine with different sinks, so the count
//! cannot drift from the text.

use crate::doc::{Element, Node, SharedElement};

/// Where serialized XML goes. The writer hands it whole clean runs and
/// whole escape sequences, never single characters.
pub trait XmlSink {
    /// Appends `s`.
    fn put(&mut self, s: &str);

    /// Appends the text of a shared child. By default, writes it.
    fn put_shared(&mut self, shared: &SharedElement)
    where
        Self: Sized,
    {
        shared.write_into(self);
    }
}

impl XmlSink for String {
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }
}

impl XmlSink for Vec<u8> {
    fn put(&mut self, s: &str) {
        self.extend_from_slice(s.as_bytes());
    }
}

/// An [`XmlSink`] that keeps only the number of bytes written to it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ByteCount(pub usize);

impl XmlSink for ByteCount {
    fn put(&mut self, s: &str) {
        self.0 += s.len();
    }

    /// Adds the length counted when the child was shared: O(1), however
    /// large the subtree.
    fn put_shared(&mut self, shared: &SharedElement) {
        self.0 += shared.xml_len();
    }
}

/// True for the bytes that may not be written raw: `&`, `<`, `>` anywhere,
/// and in an attribute value (always double-quoted on output) also `"` and
/// the whitespace a parser would normalize away. Plain comparisons joined
/// without short-circuit, so a loop over a chunk compiles to vector
/// compares.
#[inline(always)]
fn needs_escape<const ATTR: bool>(b: u8) -> bool {
    let markup = (b == b'&') | (b == b'<') | (b == b'>');
    if ATTR {
        markup | (b == b'"') | (b == b'\n') | (b == b'\t') | (b == b'\r')
    } else {
        markup
    }
}

/// What is written in place of a byte [`needs_escape`] accepts.
fn replacement(b: u8) -> &'static str {
    match b {
        b'&' => "&amp;",
        b'<' => "&lt;",
        b'>' => "&gt;",
        b'"' => "&quot;",
        b'\n' => "&#10;",
        b'\t' => "&#9;",
        b'\r' => "&#13;",
        _ => unreachable!("asked only for bytes needs_escape accepts"),
    }
}

/// Index of the first byte of `bytes` that needs escaping. Whole clean
/// chunks are passed over without looking at their bytes one by one.
fn first_escape<const ATTR: bool>(bytes: &[u8]) -> Option<usize> {
    const CHUNK: usize = 16;
    let clean_chunks = bytes
        .chunks_exact(CHUNK)
        .take_while(|chunk| {
            !chunk
                .iter()
                .fold(false, |any, &b| any | needs_escape::<ATTR>(b))
        })
        .count();
    let skipped = clean_chunks * CHUNK;
    bytes[skipped..]
        .iter()
        .position(|&b| needs_escape::<ATTR>(b))
        .map(|i| skipped + i)
}

/// Copies `s` to `out`, clean runs whole, escaping in between. Every
/// escaped character is ASCII, so slicing at its byte never splits a UTF-8
/// sequence.
fn escape<const ATTR: bool, S: XmlSink>(s: &str, out: &mut S) {
    let mut rest = s;
    while let Some(i) = first_escape::<ATTR>(rest.as_bytes()) {
        out.put(&rest[..i]);
        out.put(replacement(rest.as_bytes()[i]));
        rest = &rest[i + 1..];
    }
    out.put(rest);
}

/// Writes ` name="value"` (leading space included) with the value escaped —
/// the one attribute writer, exported so a caller that frames an element by
/// hand emits exactly what [`Element::to_xml`] would.
pub fn write_attr<S: XmlSink>(out: &mut S, name: &str, value: &str) {
    out.put(" ");
    out.put(name);
    out.put("=\"");
    escape::<true, S>(value, out);
    out.put("\"");
}

/// Comments may not contain `--`; we substitute a visually similar sequence
/// rather than erroring, because comments are advisory provenance only.
fn write_comment<S: XmlSink>(s: &str, out: &mut S) {
    out.put("<!--");
    for (i, piece) in s.split("--").enumerate() {
        if i > 0 {
            out.put("- -");
        }
        out.put(piece);
    }
    out.put("-->");
}

impl Element {
    /// Serializes the subtree to compact (single-line) XML.
    pub fn to_xml(&self) -> String {
        let mut out = String::with_capacity(self.xml_len());
        self.write_into(&mut out);
        out
    }

    /// `self.to_xml().len()`, without building the text.
    pub fn xml_len(&self) -> usize {
        let mut count = ByteCount(0);
        self.write_into(&mut count);
        count.0
    }

    /// Serializes the subtree to indented XML with a standard document
    /// prolog, matching the "XML document" panels of the original service
    /// editor.
    pub fn to_pretty_xml(&self) -> String {
        let mut out = String::with_capacity(self.subtree_size() * 48);
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_open_tag<S: XmlSink>(&self, out: &mut S, self_close: bool) {
        out.put("<");
        out.put(&self.name);
        for (k, v) in &self.attrs {
            write_attr(out, k, v);
        }
        out.put(if self_close { "/>" } else { ">" });
    }

    fn write_close_tag<S: XmlSink>(&self, out: &mut S) {
        out.put("</");
        out.put(&self.name);
        out.put(">");
    }

    /// Appends exactly what [`Element::to_xml`] returns to `out` — a
    /// `String`, a byte buffer, or a [`ByteCount`].
    pub fn write_into<S: XmlSink>(&self, out: &mut S) {
        if self.children.is_empty() {
            self.write_open_tag(out, true);
            return;
        }
        self.write_open_tag(out, false);
        for child in &self.children {
            match child {
                Node::Element(e) => e.write_into(out),
                Node::Shared(e) => out.put_shared(e),
                Node::Text(t) => escape::<false, _>(t, out),
                Node::Comment(c) => write_comment(c, out),
            }
        }
        self.write_close_tag(out);
    }

    /// True when the element's children are text-only, in which case the
    /// pretty printer keeps the element on one line so that values like
    /// `<name>Car Rental</name>` stay readable (and text round-trips without
    /// gaining indentation whitespace).
    fn is_text_only(&self) -> bool {
        self.children.iter().all(|c| matches!(c, Node::Text(_)))
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        out.push_str(&pad);
        if self.children.is_empty() {
            self.write_open_tag(out, true);
            return;
        }
        if self.is_text_only() {
            self.write_open_tag(out, false);
            for child in &self.children {
                if let Node::Text(t) = child {
                    escape::<false, _>(t, out);
                }
            }
            self.write_close_tag(out);
            return;
        }
        self.write_open_tag(out, false);
        for child in &self.children {
            out.push('\n');
            match child {
                Node::Element(e) => e.write_pretty(out, depth + 1),
                Node::Shared(e) => e.write_pretty(out, depth + 1),
                Node::Text(t) => {
                    // Mixed content: indent the text on its own line. The
                    // parser, when later reading this pretty output, trims
                    // pure-whitespace runs between elements but keeps the
                    // text itself.
                    out.push_str(&"  ".repeat(depth + 1));
                    escape::<false, _>(t.trim(), out);
                }
                Node::Comment(c) => {
                    out.push_str(&"  ".repeat(depth + 1));
                    write_comment(c, out);
                }
            }
        }
        out.push('\n');
        out.push_str(&pad);
        self.write_close_tag(out);
    }
}

#[cfg(test)]
mod tests {
    use crate::{parse, Element};

    #[test]
    fn empty_element_self_closes() {
        assert_eq!(Element::new("final").to_xml(), "<final/>");
    }

    #[test]
    fn attributes_are_escaped() {
        let e = Element::new("t").with_attr("guard", "a < b & \"q\"");
        assert_eq!(e.to_xml(), "<t guard=\"a &lt; b &amp; &quot;q&quot;\"/>");
    }

    #[test]
    fn text_is_escaped() {
        let e = Element::new("cond").with_text("x<y && z>0");
        assert_eq!(e.to_xml(), "<cond>x&lt;y &amp;&amp; z&gt;0</cond>");
    }

    #[test]
    fn newlines_in_attributes_survive_round_trip() {
        let e = Element::new("t").with_attr("doc", "line1\nline2\ttabbed");
        let back = parse(&e.to_xml()).unwrap();
        assert_eq!(back.attr("doc"), Some("line1\nline2\ttabbed"));
    }

    #[test]
    fn pretty_output_has_prolog_and_indentation() {
        let e = Element::new("statechart")
            .with_child(Element::new("state").with_attr("id", "a"))
            .with_child(Element::new("state").with_attr("id", "b"));
        let xml = e.to_pretty_xml();
        assert!(xml.starts_with("<?xml version=\"1.0\""));
        assert!(xml.contains("\n  <state id=\"a\"/>"));
    }

    #[test]
    fn pretty_keeps_text_only_elements_inline() {
        let e = Element::new("svc").with_child(Element::new("name").with_text("Car Rental"));
        let xml = e.to_pretty_xml();
        assert!(xml.contains("<name>Car Rental</name>"), "{xml}");
    }

    #[test]
    fn comments_are_emitted_and_double_dash_sanitized() {
        let mut e = Element::new("root");
        e.push_comment("generated -- by deployer");
        let xml = e.to_xml();
        assert!(xml.contains("<!--generated - - by deployer-->"), "{xml}");
        // must still be parseable
        parse(&xml).unwrap();
    }

    #[test]
    fn compact_round_trip_preserves_structure() {
        let e = Element::new("a")
            .with_attr("k", "v")
            .with_child(Element::new("b").with_text("hello & goodbye"))
            .with_child(Element::new("c"));
        let back = parse(&e.to_xml()).unwrap();
        assert_eq!(back, e);
    }
}
