//! Serialization of [`Element`] trees back to XML text.
//!
//! The compact form is written by one routine, generic over its
//! [`XmlSink`]: a `String` or `Vec<u8>` collects the text, a [`ByteCount`]
//! only measures it. [`Element::to_xml`], [`Element::write_into`] and
//! [`Element::xml_len`] are that routine with different sinks, so the count
//! cannot drift from the text.

use crate::doc::{Element, Node, SharedElement};
use crate::scan::hits;

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
/// without short-circuit, as [`hits`] asks.
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

/// Copies `s` to `out`, clean runs whole, escaping in between, in one
/// [`hits`] scan. Every escaped character is ASCII, so slicing at its byte
/// never splits a UTF-8 sequence.
fn escape<const ATTR: bool, S: XmlSink>(s: &str, out: &mut S) {
    let bytes = s.as_bytes();
    let mut clean = 0;
    for i in hits(bytes, needs_escape::<ATTR>) {
        out.put(&s[clean..i]);
        out.put(replacement(bytes[i]));
        clean = i + 1;
    }
    out.put(&s[clean..]);
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
    /// Serializes the subtree to compact (single-line) XML, in one pass
    /// into a string sized from [`Element::unescaped_len`].
    pub fn to_xml(&self) -> String {
        let unescaped = self.unescaped_len();
        let mut out = String::with_capacity(unescaped + unescaped / 8);
        self.write_into(&mut out);
        out
    }

    /// The length [`Element::to_xml`] would have if no byte needed
    /// escaping, summed from the lengths of the tree's strings without
    /// reading them: O(nodes), against [`Element::xml_len`]'s walk over
    /// every byte. A lower bound on `xml_len`, which escapes only lengthen,
    /// for sizing a buffer before the one pass that writes it.
    pub fn unescaped_len(&self) -> usize {
        let open = 1 + self.name.len();
        let attrs: usize = self.attrs.iter().map(|(k, v)| 4 + k.len() + v.len()).sum();
        if self.children.is_empty() {
            return open + attrs + 2;
        }
        let children: usize = self
            .children
            .iter()
            .map(|child| match child {
                Node::Element(e) => e.unescaped_len(),
                Node::Shared(e) => e.xml_len(),
                Node::Text(t) => t.len(),
                Node::Comment(c) => 7 + c.len(),
            })
            .sum();
        open + attrs + 1 + children + 3 + self.name.len()
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
    use super::escape;
    use crate::{parse, Element};

    /// Escaping one character at a time: the reference the chunked scan
    /// must reproduce byte for byte.
    fn oracle(s: &str, attr: bool) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '&' => out.push_str("&amp;"),
                '<' => out.push_str("&lt;"),
                '>' => out.push_str("&gt;"),
                '"' if attr => out.push_str("&quot;"),
                '\n' if attr => out.push_str("&#10;"),
                '\t' if attr => out.push_str("&#9;"),
                '\r' if attr => out.push_str("&#13;"),
                c => out.push(c),
            }
        }
        out
    }

    /// `s` escaped by the writer, in text and in attribute mode, checked
    /// against the oracle and read back unchanged by the parser.
    fn check(s: &str) {
        let (mut text, mut attr) = (String::new(), String::new());
        escape::<false, _>(s, &mut text);
        escape::<true, _>(s, &mut attr);
        assert_eq!(text, oracle(s, false), "text mode: {s:?}");
        assert_eq!(attr, oracle(s, true), "attribute mode: {s:?}");
        let e = Element::new("t").with_attr("v", s).with_text(s);
        let back = parse(&e.to_xml()).unwrap();
        assert_eq!(back.attr("v"), Some(s), "attribute round trip: {s:?}");
        assert_eq!(back.text(), s, "text round trip: {s:?}");
    }

    /// Every escapable byte and a 2-, 3- and 4-byte character at every
    /// offset of the first three chunks, alone and beside a second one in
    /// the same or the next chunk, in texts that end mid-chunk and on a
    /// chunk boundary.
    #[test]
    fn chunked_escape_matches_the_byte_oracle_at_every_offset() {
        let specials = ['&', '<', '>', '"', '\'', '\n', '\t', '\r', 'é', '✓', '𝄞'];
        for len in [47, 48] {
            for at in 0..len {
                for (k, &c) in specials.iter().enumerate() {
                    let other = specials[(k + 3) % specials.len()];
                    for second in [None, Some(at + 1), Some(at + 7), Some(at + 16)] {
                        let mut s: String = (0..len)
                            .map(|i| {
                                if i == at {
                                    c
                                } else {
                                    (b'a' + (i % 26) as u8) as char
                                }
                            })
                            .collect();
                        if let Some(j) = second.filter(|&j| j < len) {
                            let mut chars: Vec<char> = s.chars().collect();
                            chars[j] = other;
                            s = chars.into_iter().collect();
                        }
                        check(&s);
                    }
                }
            }
        }
    }

    /// An 8 KiB text drawn as the benchmark draws its payloads: 3 % of the
    /// bytes from `<>&"'`, the rest letters, digits and spaces.
    #[test]
    fn an_8k_payload_escapes_as_the_oracle_does() {
        const PLAIN: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
        const ESCAPED: &[u8] = b"<>&\"'";
        let mut seed = 0x2545_f491_4f6c_dd1d_u64;
        let mut below = |n: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % n as u64) as usize
        };
        let payload: String = (0..8192)
            .map(|_| {
                if below(100) < 3 {
                    ESCAPED[below(ESCAPED.len())] as char
                } else {
                    PLAIN[below(PLAIN.len())] as char
                }
            })
            .collect();
        assert!(payload.bytes().filter(|b| ESCAPED.contains(b)).count() > 150);
        check(&payload);
    }

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
