//! Property tests: serialization followed by parsing must reproduce the
//! original tree, for both the compact and the pretty writer; and the
//! count, the appended text and the returned text of the compact writer
//! are one thing; and a tree with shared children is, to every reader and
//! writer, the tree with those children owned, and a shared child's
//! counted length is the length of its text.

use crate::{parse, Element, Node, SharedElement};
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

/// Hostile input of up to 4 KiB: runs of markup bytes, markup fragments,
/// printable ASCII and 2-, 3- and 4-byte characters, so that multi-byte
/// characters straddle the parser's 16-byte chunk edges.
fn arb_hostile_text() -> impl Strategy<Value = String> {
    let run = prop_oneof![
        "[<>&\"';#x]{1,8}",
        "[ -~]{1,16}",
        "[\u{80}-\u{9F}\u{7F0}-\u{7FF}é]{1,8}",
        "[\u{800}-\u{80F}\u{FFF0}-\u{FFFD}€]{1,8}",
        "[\u{10000}-\u{1000F}\u{1F600}-\u{1F60F}\u{10FFF0}-\u{10FFFF}]{1,8}",
        prop_oneof![
            Just("<x a=\"".to_string()),
            Just("</x>".to_string()),
            Just("&#x".to_string()),
            Just("&amp;".to_string()),
            Just("<![CDATA[".to_string()),
            Just("]]>".to_string()),
            Just("<!--".to_string()),
        ],
    ];
    proptest::collection::vec(run, 0..512).prop_map(|runs| {
        let mut s = String::new();
        for run in runs {
            if s.len() + run.len() > 4096 {
                break;
            }
            s.push_str(&run);
        }
        s
    })
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

/// `e` with the child elements `picks` selects (one draw per element, in
/// document order, the draws reused in a cycle) held as [`Node::Shared`] —
/// at every depth, so shared subtrees also sit inside shared subtrees.
fn share(e: &Element, picks: &mut impl Iterator<Item = bool>) -> Element {
    let children = e
        .children
        .iter()
        .map(|n| match n {
            Node::Element(c) => {
                let pick = picks.next().expect("cycled");
                let c = share(c, picks);
                if pick {
                    Node::Shared(SharedElement::new(c))
                } else {
                    Node::Element(c)
                }
            }
            other => other.clone(),
        })
        .collect();
    Element {
        name: e.name.clone(),
        attrs: e.attrs.clone(),
        children,
    }
}

/// `e` with every byte the writer would escape or rewrite in its text,
/// attribute values and comments replaced by `x`.
fn scrub(e: &Element) -> Element {
    let plain = |s: &str| s.replace(['<', '>', '&', '"', '\t', '\n', '\r', '-'], "x");
    Element {
        name: e.name.clone(),
        attrs: e.attrs.iter().map(|(k, v)| (k.clone(), plain(v))).collect(),
        children: e
            .children
            .iter()
            .map(|n| match n {
                Node::Element(c) => Node::Element(scrub(c)),
                Node::Shared(c) => Node::Element(scrub(c)),
                Node::Text(t) => Node::Text(plain(t)),
                Node::Comment(c) => Node::Comment(plain(c)),
            })
            .collect(),
    }
}

fn has_shared(e: &Element) -> bool {
    e.children.iter().any(|n| match n {
        Node::Shared(_) => true,
        Node::Element(c) => has_shared(c),
        _ => false,
    })
}

fn arb_picks() -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), 1..48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn shared_children_write_and_compare_as_owned(
        owned in arb_wild_element(3),
        picks in arb_picks(),
        prefix in arb_wild(),
    ) {
        let shared = share(&owned, &mut picks.iter().copied().cycle());
        prop_assert_eq!(&shared, &owned);
        prop_assert_eq!(&owned, &shared);
        let xml = owned.to_xml();
        prop_assert_eq!(&shared.to_xml(), &xml);
        prop_assert_eq!(shared.xml_len(), xml.len());
        let mut text = prefix.clone();
        shared.write_into(&mut text);
        prop_assert_eq!(text, prefix.clone() + &xml);
        let mut bytes = prefix.clone().into_bytes();
        shared.write_into(&mut bytes);
        prop_assert_eq!(bytes, (prefix + &xml).into_bytes());
        prop_assert_eq!(shared.to_pretty_xml(), owned.to_pretty_xml());
    }

    /// The length counted when an element is shared is its text's length,
    /// also when the element holds shared children itself.
    #[test]
    fn shared_child_counted_length_is_the_text_length(
        owned in arb_wild_element(3),
        picks in arb_picks(),
    ) {
        let xml = owned.to_xml();
        let shared = share(&owned, &mut picks.iter().copied().cycle());
        prop_assert_eq!(SharedElement::new(owned).xml_len(), xml.len());
        let nested = SharedElement::new(shared);
        prop_assert_eq!(nested.xml_len(), xml.len());
        prop_assert_eq!(nested.to_xml(), xml);
        let mut outer = Element::new("outer");
        outer.children.push(Node::Shared(nested.clone()));
        outer.children.push(Node::Shared(nested));
        prop_assert_eq!(outer.xml_len(), outer.to_xml().len());
    }

    #[test]
    fn shared_children_read_and_parse_as_owned(owned in arb_element(3), picks in arb_picks()) {
        let owned = normalize(owned);
        let shared = share(&owned, &mut picks.iter().copied().cycle());
        let back = parse(&shared.to_xml()).unwrap();
        prop_assert!(!has_shared(&back), "the parser never shares");
        prop_assert_eq!(&back, &owned);
        prop_assert_eq!(&parse(&shared.to_pretty_xml()).unwrap(), &owned);

        prop_assert_eq!(shared.subtree_size(), owned.subtree_size());
        prop_assert_eq!(shared.child_element_count(), owned.child_element_count());
        let children: Vec<&Element> = shared.child_elements().collect();
        prop_assert_eq!(&children, &owned.child_elements().collect::<Vec<_>>());
        for (child, owned_child) in children.iter().zip(owned.child_elements()) {
            let name = child.name.as_str();
            prop_assert_eq!(shared.find(name), owned.find(name));
            prop_assert_eq!(
                shared.find_all(name).collect::<Vec<_>>(),
                owned.find_all(name).collect::<Vec<_>>()
            );
            // One level further down, through whichever kind of child.
            if let Some(grandchild) = owned_child.child_elements().next() {
                let path = format!("{}/{}", owned_child.name, grandchild.name);
                prop_assert_eq!(shared.get_path(&path), owned.get_path(&path));
                prop_assert!(shared.get_path(&path).is_some());
            }
        }
    }

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

    /// The size hint is a lower bound on the text's length, and the
    /// length itself when nothing needs escaping.
    #[test]
    fn unescaped_len_bounds_the_text_length(e in arb_wild_element(3), picks in arb_picks()) {
        let shared = share(&e, &mut picks.iter().copied().cycle());
        prop_assert!(shared.unescaped_len() <= shared.xml_len());
        let plain = scrub(&e);
        prop_assert_eq!(plain.unescaped_len(), plain.to_xml().len());
        let plain_shared = share(&plain, &mut picks.iter().copied().cycle());
        prop_assert_eq!(plain_shared.unescaped_len(), plain.to_xml().len());
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
    fn parser_never_panics_on_arbitrary_input(s in arb_hostile_text()) {
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
