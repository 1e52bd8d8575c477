//! A strict recursive-descent parser for the XML subset used by the
//! SELF-SERV platform.
//!
//! Supported constructs: the XML declaration, processing instructions
//! (skipped), `DOCTYPE` declarations (skipped), comments (preserved), CDATA
//! sections, elements, attributes quoted with `"` or `'`, character data,
//! the five predefined entities and decimal/hex character references.
//!
//! ## Whitespace policy
//!
//! Text nodes consisting entirely of whitespace that appear *next to element
//! children* are treated as indentation and dropped; in mixed content the
//! remaining text nodes are trimmed. Elements whose children are text-only
//! keep their text verbatim. This makes `parse(e.to_pretty_xml()) == parse(e.to_xml())`
//! for every tree the platform produces.

use crate::doc::{Element, Node};
use crate::error::{Position, XmlError};
use crate::scan::hits;

/// A parsed document: the root element plus any comments that appeared
/// before or after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// Comments preceding the root element.
    pub leading_comments: Vec<String>,
    /// The document element.
    pub root: Element,
    /// Comments following the root element.
    pub trailing_comments: Vec<String>,
}

/// Parses a complete XML document and returns its root element.
///
/// This is the entry point used throughout the platform; use
/// [`parse_document`] if top-level comments matter.
pub fn parse(input: &str) -> Result<Element, XmlError> {
    parse_document(input).map(|d| d.root)
}

/// Parses a complete XML document, retaining top-level comments.
pub fn parse_document(input: &str) -> Result<Document, XmlError> {
    let mut p = Parser::new(input);
    p.skip_prolog()?;
    let mut leading_comments = Vec::new();
    loop {
        p.skip_whitespace();
        if p.starts_with("<!--") {
            leading_comments.push(p.read_comment()?);
        } else if p.starts_with("<?") {
            p.skip_pi()?;
        } else if p.starts_with("<!DOCTYPE") {
            p.skip_doctype()?;
        } else {
            break;
        }
    }
    p.skip_whitespace();
    if p.eof() {
        return Err(XmlError::NoRootElement);
    }
    if !p.starts_with("<") {
        return Err(XmlError::UnexpectedChar {
            expected: "document element",
            found: p.peek_char().unwrap(),
            position: p.position(),
        });
    }
    let root = p.read_element()?;
    let mut trailing_comments = Vec::new();
    loop {
        p.skip_whitespace();
        if p.eof() {
            break;
        }
        if p.starts_with("<!--") {
            trailing_comments.push(p.read_comment()?);
        } else if p.starts_with("<?") {
            p.skip_pi()?;
        } else {
            return Err(XmlError::TrailingContent {
                position: p.position(),
            });
        }
    }
    Ok(Document {
        leading_comments,
        root,
        trailing_comments,
    })
}

struct Parser<'a> {
    src: &'a str,
    /// Byte offset into `src`, always on a character boundary. Line and
    /// column are derived from an offset only when an error is built
    /// ([`Parser::position_at`]), so the scanning loops carry no upkeep.
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser { src, pos: 0 }
    }

    fn position(&self) -> Position {
        self.position_at(self.pos)
    }

    /// Line and column (1-based, column in characters) of byte offset `at`.
    fn position_at(&self, at: usize) -> Position {
        let before = &self.src[..at];
        let line_start = before.rfind('\n').map_or(0, |i| i + 1);
        Position {
            line: 1 + before.bytes().filter(|&b| b == b'\n').count() as u32,
            column: 1 + before[line_start..].chars().count() as u32,
        }
    }

    fn eof(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s)
    }

    fn peek_byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn peek_char(&self) -> Option<char> {
        match self.peek_byte() {
            Some(b) if b.is_ascii() => Some(b as char),
            Some(_) => self.rest().chars().next(),
            None => None,
        }
    }

    /// Advances past `s`, which the caller has verified is next.
    fn consume(&mut self, s: &str) {
        debug_assert!(self.starts_with(s));
        self.pos += s.len();
    }

    fn unexpected(&self, expected: &'static str) -> XmlError {
        match self.peek_char() {
            Some(found) => XmlError::UnexpectedChar {
                expected,
                found,
                position: self.position(),
            },
            None => XmlError::UnexpectedEof {
                expected,
                position: self.position(),
            },
        }
    }

    fn expect(&mut self, s: &'static str) -> Result<(), XmlError> {
        if self.starts_with(s) {
            self.consume(s);
            Ok(())
        } else {
            Err(self.unexpected(s))
        }
    }

    fn skip_while(&mut self, accept: impl Fn(char) -> bool) {
        while let Some(c) = self.peek_char() {
            if !accept(c) {
                break;
            }
            self.pos += c.len_utf8();
        }
    }

    fn skip_whitespace(&mut self) {
        self.skip_while(char::is_whitespace);
    }

    fn skip_prolog(&mut self) -> Result<(), XmlError> {
        self.skip_whitespace();
        if self.starts_with("<?xml") {
            self.skip_pi()?;
        }
        Ok(())
    }

    /// Advances past the next `terminator`, returning the text before it.
    fn take_until(
        &mut self,
        terminator: &str,
        expected: &'static str,
    ) -> Result<&'a str, XmlError> {
        let rest = self.rest();
        match rest.find(terminator) {
            Some(i) => {
                self.pos += i + terminator.len();
                Ok(&rest[..i])
            }
            None => Err(XmlError::UnexpectedEof {
                expected,
                position: self.position_at(self.src.len()),
            }),
        }
    }

    fn skip_pi(&mut self) -> Result<(), XmlError> {
        self.consume("<?");
        self.take_until("?>", "?> to close processing instruction")
            .map(|_| ())
    }

    fn skip_doctype(&mut self) -> Result<(), XmlError> {
        self.consume("<!DOCTYPE");
        let mut bracket_depth = 0usize;
        // Every byte that matters here is ASCII, so a byte scan cannot stop
        // inside a multi-byte character.
        while let Some(b) = self.peek_byte() {
            self.pos += 1;
            match b {
                b'[' => bracket_depth += 1,
                b']' => bracket_depth = bracket_depth.saturating_sub(1),
                b'>' if bracket_depth == 0 => return Ok(()),
                _ => {}
            }
        }
        Err(XmlError::UnexpectedEof {
            expected: "> to close DOCTYPE",
            position: self.position(),
        })
    }

    fn read_comment(&mut self) -> Result<String, XmlError> {
        self.consume("<!--");
        self.take_until("-->", "--> to close comment")
            .map(str::to_string)
    }

    fn is_name_start(c: char) -> bool {
        c.is_alphabetic() || c == '_' || c == ':'
    }

    fn is_name_char(c: char) -> bool {
        c.is_alphanumeric() || matches!(c, '_' | ':' | '-' | '.')
    }

    fn read_name(&mut self, what: &'static str) -> Result<&'a str, XmlError> {
        match self.peek_char() {
            Some(c) if Self::is_name_start(c) => {
                let start = self.pos;
                self.skip_while(Self::is_name_char);
                Ok(&self.src[start..self.pos])
            }
            _ => Err(self.unexpected(what)),
        }
    }

    /// Reads an entity reference; the cursor is on `&`. The five named
    /// entities are matched on their bytes; anything else is scanned to its
    /// `;` and must be a decimal or hex character reference.
    fn read_entity(&mut self, out: &mut String) -> Result<(), XmlError> {
        let ent_at = self.pos;
        let named = match &self.src.as_bytes()[ent_at + 1..] {
            [b'l', b't', b';', ..] => Some(('<', 3)),
            [b'g', b't', b';', ..] => Some(('>', 3)),
            [b'a', b'm', b'p', b';', ..] => Some(('&', 4)),
            [b'q', b'u', b'o', b't', b';', ..] => Some(('"', 5)),
            [b'a', b'p', b'o', b's', b';', ..] => Some(('\'', 5)),
            _ => None,
        };
        if let Some((c, len)) = named {
            out.push(c);
            self.pos += 1 + len;
            return Ok(());
        }
        self.consume("&");
        let start = self.pos;
        // Entities are short; cap the scan so an unterminated `&` gives a
        // focused error instead of consuming the document.
        for _ in 0..12 {
            match self.peek_char() {
                Some(';') => {
                    let entity = &self.src[start..self.pos];
                    self.pos += 1;
                    let code = if let Some(hex) = entity
                        .strip_prefix("#x")
                        .or_else(|| entity.strip_prefix("#X"))
                    {
                        u32::from_str_radix(hex, 16).ok()
                    } else if let Some(dec) = entity.strip_prefix('#') {
                        dec.parse::<u32>().ok()
                    } else {
                        None
                    };
                    return match code.and_then(char::from_u32) {
                        Some(c) => {
                            out.push(c);
                            Ok(())
                        }
                        None => Err(XmlError::InvalidEntity {
                            entity: entity.to_string(),
                            position: self.position_at(ent_at),
                        }),
                    };
                }
                Some(c) => self.pos += c.len_utf8(),
                None => break,
            }
        }
        Err(XmlError::InvalidEntity {
            entity: self.src[start..self.pos].to_string(),
            position: self.position_at(ent_at),
        })
    }

    /// Reads character data from the cursor up to the first byte `stop`
    /// accepts, or the end of input, decoding entity references on the
    /// way: one [`hits`] scan for `stop` and `&` reads each byte once. A
    /// run without references is copied whole into a string of its exact
    /// length; one with references is decoded piece by piece into a string
    /// trimmed to size at the end, as decoding only ever shortens.
    fn read_run(&mut self, stop: impl Fn(u8) -> bool) -> Result<String, XmlError> {
        let start = self.pos;
        let bytes = &self.src.as_bytes()[start..];
        let mut out = String::new();
        let mut clean = start;
        let mut end = self.src.len();
        // A reference that decodes holds no `&`, `<` or quote, so the next
        // hit lies past the one just decoded.
        for at in hits(bytes, |b| stop(b) | (b == b'&')) {
            let at = start + at;
            if self.src.as_bytes()[at] != b'&' {
                end = at;
                break;
            }
            out.push_str(&self.src[clean..at]);
            self.pos = at;
            self.read_entity(&mut out)?;
            clean = self.pos;
        }
        self.pos = end;
        if clean == start {
            return Ok(self.src[start..end].to_string());
        }
        out.push_str(&self.src[clean..end]);
        out.shrink_to_fit();
        Ok(out)
    }

    fn read_attr_value(&mut self) -> Result<String, XmlError> {
        let quote = match self.peek_byte() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.unexpected("quoted attribute value")),
        };
        self.pos += 1;
        let value = self.read_run(|b| (b == quote) | (b == b'<'))?;
        match self.peek_byte() {
            None => Err(XmlError::UnexpectedEof {
                expected: "closing attribute quote",
                position: self.position(),
            }),
            Some(b'<') => Err(XmlError::UnexpectedChar {
                expected: "attribute value character",
                found: '<',
                position: self.position(),
            }),
            Some(_) => {
                self.pos += 1;
                Ok(value)
            }
        }
    }

    /// Reads one element; the cursor is on `<`.
    fn read_element(&mut self) -> Result<Element, XmlError> {
        self.expect("<")?;
        let mut element = Element::new(self.read_name("element name")?);
        // Attributes.
        loop {
            self.skip_whitespace();
            match self.peek_char() {
                Some('>') => {
                    self.pos += 1;
                    break;
                }
                Some('/') => {
                    self.pos += 1;
                    self.expect(">")?;
                    return Ok(element);
                }
                Some(c) if Self::is_name_start(c) => {
                    let attr_at = self.pos;
                    let attr_name = self.read_name("attribute name")?;
                    if element.attr(attr_name).is_some() {
                        return Err(XmlError::DuplicateAttribute {
                            name: attr_name.to_string(),
                            position: self.position_at(attr_at),
                        });
                    }
                    self.skip_whitespace();
                    self.expect("=")?;
                    self.skip_whitespace();
                    let value = self.read_attr_value()?;
                    element.attrs.push((attr_name.to_string(), value));
                }
                Some(_) => return Err(self.unexpected("attribute, '>', or '/>'")),
                None => return Err(self.unexpected("end of start tag")),
            }
        }
        // Children until matching close tag.
        let mut raw_children: Vec<Node> = Vec::new();
        loop {
            if self.eof() {
                return Err(XmlError::UnexpectedEof {
                    expected: "closing tag",
                    position: self.position(),
                });
            }
            if self.starts_with("</") {
                let close_at = self.pos;
                self.consume("</");
                let close_name = self.read_name("closing tag name")?;
                self.skip_whitespace();
                self.expect(">")?;
                if close_name != element.name {
                    return Err(XmlError::MismatchedTag {
                        open: element.name.clone(),
                        close: close_name.to_string(),
                        position: self.position_at(close_at),
                    });
                }
                element.children = normalize_children(raw_children);
                return Ok(element);
            } else if self.starts_with("<!--") {
                let c = self.read_comment()?;
                raw_children.push(Node::Comment(c));
            } else if self.starts_with("<![CDATA[") {
                self.consume("<![CDATA[");
                let text = self.take_until("]]>", "]]> to close CDATA")?;
                raw_children.push(Node::Text(text.to_string()));
            } else if self.starts_with("<?") {
                self.skip_pi()?;
            } else if self.starts_with("<") {
                raw_children.push(Node::Element(self.read_element()?));
            } else {
                // Character data run, up to the next tag.
                raw_children.push(Node::Text(self.read_run(|b| b == b'<')?));
            }
        }
    }
}

/// Applies the whitespace policy described in the module docs and merges
/// adjacent text runs (which arise from entity boundaries).
fn normalize_children(raw: Vec<Node>) -> Vec<Node> {
    // A lone node, or no text at all (compact documents, so every frame on
    // the wire, have none between elements): nothing to merge or trim.
    if raw.len() < 2 || !raw.iter().any(|n| matches!(n, Node::Text(_))) {
        return raw;
    }
    // Merge adjacent text nodes first.
    let mut merged: Vec<Node> = Vec::with_capacity(raw.len());
    for node in raw {
        if let (Some(Node::Text(prev)), Node::Text(t)) = (merged.last_mut(), &node) {
            prev.push_str(t);
            continue;
        }
        merged.push(node);
    }
    let has_element = merged.iter().any(|n| matches!(n, Node::Element(_)));
    if !has_element {
        return merged;
    }
    merged
        .into_iter()
        .filter_map(|n| match n {
            Node::Text(t) => {
                let trimmed = t.trim();
                if trimmed.is_empty() {
                    None
                } else {
                    Some(Node::Text(trimmed.to_string()))
                }
            }
            other => Some(other),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_document() {
        let e = parse("<a/>").unwrap();
        assert_eq!(e.name, "a");
        assert!(e.is_empty());
    }

    #[test]
    fn parses_prolog_doctype_and_pi() {
        let e = parse(
            "<?xml version=\"1.0\"?>\n<!DOCTYPE statechart [ <!ELEMENT x (y)> ]>\n<?pi data?>\n<a/>",
        )
        .unwrap();
        assert_eq!(e.name, "a");
    }

    #[test]
    fn parses_attributes_with_both_quote_styles() {
        let e = parse("<t a=\"1\" b='two'/>").unwrap();
        assert_eq!(e.attr("a"), Some("1"));
        assert_eq!(e.attr("b"), Some("two"));
    }

    #[test]
    fn decodes_entities_in_text_and_attributes() {
        let e = parse("<t g=\"a &lt; b &amp;&amp; c &#62; d\">&quot;x&apos; &#x41;</t>").unwrap();
        assert_eq!(e.attr("g"), Some("a < b && c > d"));
        assert_eq!(e.text(), "\"x' A");
    }

    #[test]
    fn rejects_invalid_entity() {
        let err = parse("<t>&bogus;</t>").unwrap_err();
        assert!(matches!(err, XmlError::InvalidEntity { .. }), "{err:?}");
    }

    /// A bad reference at every offset of the first three chunks of a
    /// text and of an attribute value, after one- to four-byte characters,
    /// is refused with the entity text and the position it always had:
    /// up to the `;` if one follows within 12 characters, else those 12,
    /// at the column of the `&`, counted in characters.
    #[test]
    fn bad_references_are_refused_where_they_start_at_every_offset() {
        let filler = ['a', 'é', '✓', '𝄞', ' '];
        for bad in [
            "&bogus;",
            "&#xZZ;",
            "&#1114112;",
            "&;",
            "&am p;",
            "&amp",
            "&lt",
        ] {
            for at in 0..48 {
                let pre: String = (0..at).map(|i| filler[i % filler.len()]).collect();
                let value = format!("{pre}{bad}b✓zzzzzzzzzz");
                for (open, doc) in [
                    ("<t>", format!("<t>{value}</t>")),
                    ("<t a=\"", format!("<t a=\"{value}\"/>")),
                ] {
                    let amp = open.len() + pre.len();
                    let tail: Vec<char> = doc[amp + 1..].chars().take(12).collect();
                    let entity: String = match tail.iter().position(|&c| c == ';') {
                        Some(end) => tail[..end].iter().collect(),
                        None => tail.iter().collect(),
                    };
                    let expected = XmlError::InvalidEntity {
                        entity,
                        position: Position {
                            line: 1,
                            column: 1 + (open.len() + at) as u32,
                        },
                    };
                    assert_eq!(parse(&doc).unwrap_err(), expected, "{doc:?}");
                }
            }
        }
    }

    #[test]
    fn named_and_numeric_references_decode_beside_each_other() {
        let e = parse("<t a=\"&lt;&gt;&amp;&quot;&apos;&#60;&#x1D11E;\">&apos;&#x3c;&lt;x&gt;</t>")
            .unwrap();
        assert_eq!(e.attr("a"), Some("<>&\"'<𝄞"));
        assert_eq!(e.text(), "'<<x>");
    }

    #[test]
    fn rejects_mismatched_tags_with_position() {
        let err = parse("<a><b></a></b>").unwrap_err();
        match err {
            XmlError::MismatchedTag {
                open,
                close,
                position,
            } => {
                assert_eq!(open, "b");
                assert_eq!(close, "a");
                assert_eq!(position.line, 1);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_duplicate_attributes() {
        let err = parse("<t a=\"1\" a=\"2\"/>").unwrap_err();
        assert!(matches!(err, XmlError::DuplicateAttribute { .. }));
    }

    #[test]
    fn rejects_trailing_content() {
        let err = parse("<a/><b/>").unwrap_err();
        assert!(matches!(err, XmlError::TrailingContent { .. }));
    }

    #[test]
    fn rejects_empty_input() {
        assert_eq!(parse("   \n ").unwrap_err(), XmlError::NoRootElement);
    }

    #[test]
    fn rejects_unclosed_element_at_eof() {
        let err = parse("<a><b>").unwrap_err();
        assert!(matches!(err, XmlError::UnexpectedEof { .. }));
    }

    #[test]
    fn cdata_is_read_verbatim() {
        let e = parse("<t><![CDATA[a < b && <tag>]]></t>").unwrap();
        assert_eq!(e.text(), "a < b && <tag>");
    }

    #[test]
    fn whitespace_between_elements_is_dropped() {
        let e = parse("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        assert_eq!(e.children.len(), 2);
    }

    #[test]
    fn text_only_elements_keep_whitespace() {
        let e = parse("<a>  padded  </a>").unwrap();
        assert_eq!(e.text(), "  padded  ");
    }

    #[test]
    fn mixed_content_text_is_trimmed() {
        let e = parse("<a>\n  hello\n  <b/>\n</a>").unwrap();
        assert_eq!(e.text(), "hello");
        assert_eq!(e.child_element_count(), 1);
    }

    #[test]
    fn comments_inside_elements_are_preserved() {
        let e = parse("<a><!-- note --><b/></a>").unwrap();
        assert!(e
            .children
            .iter()
            .any(|n| matches!(n, Node::Comment(c) if c.contains("note"))));
    }

    #[test]
    fn document_level_comments_are_collected() {
        let d = parse_document("<!-- head --><a/><!-- tail -->").unwrap();
        assert_eq!(d.leading_comments, vec![" head ".to_string()]);
        assert_eq!(d.trailing_comments, vec![" tail ".to_string()]);
    }

    #[test]
    fn error_positions_track_lines() {
        let err = parse("<a>\n<b x=1/>\n</a>").unwrap_err();
        let pos = err.position().unwrap();
        assert_eq!(pos.line, 2);
    }

    #[test]
    fn error_position_after_multi_line_non_ascii_text() {
        // Columns count characters, not bytes: on line 3, `é✓<b x=` is
        // seven of them.
        let err = parse("<a>naïve\n— ✓ text\né✓<b x=1/></a>").unwrap_err();
        assert_eq!(err.position(), Some(Position { line: 3, column: 8 }));
    }

    #[test]
    fn non_ascii_text_round_trips() {
        let e = parse("<t>naïve — ✓</t>").unwrap();
        assert_eq!(e.text(), "naïve — ✓");
    }

    #[test]
    fn deeply_nested_elements_parse() {
        let mut xml = String::new();
        for i in 0..200 {
            xml.push_str(&format!("<n{i}>"));
        }
        for i in (0..200).rev() {
            xml.push_str(&format!("</n{i}>"));
        }
        let e = parse(&xml).unwrap();
        assert_eq!(e.name, "n0");
        assert_eq!(e.subtree_size(), 200);
    }

    #[test]
    fn pretty_and_compact_forms_parse_identically() {
        let e = Element::new("statechart")
            .with_attr("name", "Travel")
            .with_child(
                Element::new("state")
                    .with_attr("id", "AB")
                    .with_child(Element::new("doc").with_text("Accommodation Booking")),
            )
            .with_child(Element::new("transition").with_attr("guard", "near(a, b) == false"));
        let from_pretty = parse(&e.to_pretty_xml()).unwrap();
        let from_compact = parse(&e.to_xml()).unwrap();
        assert_eq!(from_pretty, from_compact);
        assert_eq!(from_pretty, e);
    }
}
