//! Property tests: serialization followed by parsing must reproduce the
//! original tree, for both the compact and the pretty writer; and the
//! count, the appended text and the returned text of the compact writer
//! are one thing.

use crate::{parse, Element, Node};
use proptest::prelude::*;

/// Attribute/element names: XML name subset.
fn arb_name() -> impl Strategy<Value = String> {
    "[A-Za-z_][A-Za-z0-9_.-]{0,11}"
}

/// Text content without leading/trailing whitespace (the parser trims text
/// in mixed content, see the whitespace policy) and without control chars.
fn arb_text() -> impl Strategy<Value = String> {
    "[ -~]{0,24}"
        .prop_map(|s| s.trim().to_string())
        .prop_filter("non-empty", |s| !s.is_empty())
}

fn arb_attr_value() -> impl Strategy<Value = String> {
    // Attribute values may contain anything printable plus tab/newline
    // (escaped as character references on write).
    "[ -~\t\n]{0,20}"
}

fn arb_attrs() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec((arb_name(), arb_attr_value()), 0..4).prop_map(|pairs| {
        // Deduplicate attribute names: duplicates are a parse error by
        // design, so generated trees must not contain them.
        let mut seen = std::collections::HashSet::new();
        pairs
            .into_iter()
            .filter(|(n, _)| seen.insert(n.clone()))
            .collect::<Vec<_>>()
    })
}

fn arb_element(depth: u32) -> impl Strategy<Value = Element> {
    let leaf = (arb_name(), arb_attrs(), proptest::option::of(arb_text())).prop_map(
        |(name, attrs, text)| {
            let mut e = Element::new(name);
            e.attrs = attrs;
            if let Some(t) = text {
                e.push_text(t);
            }
            e
        },
    );
    if depth == 0 {
        return leaf.boxed();
    }
    let inner = arb_element(depth - 1);
    (
        arb_name(),
        arb_attrs(),
        proptest::collection::vec(inner, 0..4),
    )
        .prop_map(|(name, attrs, children)| {
            let mut e = Element::new(name);
            e.attrs = attrs;
            for c in children {
                e.push_child(c);
            }
            e
        })
        .boxed()
}

/// Strings that exercise every escape: the markup characters, both quotes,
/// the whitespace an attribute value must reference, `--` runs, and two-,
/// three- and four-byte characters.
fn arb_wild() -> impl Strategy<Value = String> {
    "[a-c<>&\"' \t\n\ré✓𝄞-]{0,16}"
}

/// Trees with [`arb_wild`] text, attribute values and comments anywhere.
/// Not every one survives a parse unchanged (whitespace policy, `--` in
/// comments), but the writer must size and write every one alike.
fn arb_wild_element(depth: u32) -> BoxedStrategy<Element> {
    let child = if depth == 0 {
        prop_oneof![
            arb_wild().prop_map(Node::Text),
            arb_wild().prop_map(Node::Comment),
        ]
        .boxed()
    } else {
        prop_oneof![
            arb_wild().prop_map(Node::Text),
            arb_wild().prop_map(Node::Comment),
            arb_wild_element(depth - 1).prop_map(Node::Element),
        ]
        .boxed()
    };
    (
        arb_name(),
        proptest::collection::vec((arb_name(), arb_wild()), 0..4),
        proptest::collection::vec(child, 0..4),
    )
        .prop_map(|(name, attrs, children)| Element {
            name,
            attrs,
            children,
        })
        .boxed()
}

/// Drops empty text nodes that the generator may have produced via empty
/// strings — the parser would never produce them.
fn normalize(mut e: Element) -> Element {
    e.children = e
        .children
        .into_iter()
        .filter_map(|n| match n {
            Node::Text(t) if t.is_empty() => None,
            Node::Element(c) => Some(Node::Element(normalize(c))),
            other => Some(other),
        })
        .collect();
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compact_round_trip(e in arb_element(3)) {
        let e = normalize(e);
        let xml = e.to_xml();
        let back = parse(&xml).unwrap();
        prop_assert_eq!(back, e);
    }

    #[test]
    fn count_text_and_appended_text_agree(e in arb_wild_element(3), prefix in arb_wild()) {
        let xml = e.to_xml();
        prop_assert_eq!(e.xml_len(), xml.len());
        let mut out = prefix.clone();
        e.write_into(&mut out);
        prop_assert_eq!(out, prefix + &xml);
    }

    #[test]
    fn wild_attr_values_and_text_round_trip_exactly(v in arb_wild(), t in arb_wild()) {
        let e = Element::new("t").with_attr("v", v.clone()).with_text(t.clone());
        let back = parse(&e.to_xml()).unwrap();
        prop_assert_eq!(back.attr("v"), Some(v.as_str()));
        prop_assert_eq!(back.text(), t);
    }

    #[test]
    fn pretty_round_trip(e in arb_element(3)) {
        let e = normalize(e);
        let xml = e.to_pretty_xml();
        let back = parse(&xml).unwrap();
        prop_assert_eq!(back, e);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(s in "[ -~<>&\"']{0,64}") {
        // Errors are fine; panics are not.
        let _ = parse(&s);
    }

    #[test]
    fn attr_values_round_trip_exactly(v in "[ -~\t\n]{0,32}") {
        let e = Element::new("t").with_attr("v", v.clone());
        let back = parse(&e.to_xml()).unwrap();
        prop_assert_eq!(back.attr("v"), Some(v.as_str()));
    }

    #[test]
    fn text_only_content_round_trips_exactly(t in "[ -~]{1,48}") {
        let e = Element::new("t").with_text(t.clone());
        let back = parse(&e.to_xml()).unwrap();
        prop_assert_eq!(back.text(), t);
    }
}
