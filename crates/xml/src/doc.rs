//! The owned XML document tree: [`Element`] and [`Node`].

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A node in an XML document tree.
#[derive(Debug, Clone)]
pub enum Node {
    /// A child element.
    Element(Element),
    /// A child element that other trees may hold too: immutable, and to
    /// every reader, the writers and `==` the same as the owned child
    /// [`Node::Element`] with that content. Lets a document that is built
    /// once (a registry record's `<serviceInfo>`) be put into any number of
    /// messages for a reference count each. The parser never produces one.
    Shared(SharedElement),
    /// Character data. Stored unescaped; escaping happens on write.
    Text(String),
    /// A comment (`<!-- ... -->`). Preserved so that generated documents can
    /// carry provenance notes (e.g. which deployer version produced a
    /// routing table).
    Comment(String),
}

impl Node {
    /// Returns the element inside this node, if it is one.
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            Node::Element(e) => Some(e),
            Node::Shared(e) => Some(e),
            _ => None,
        }
    }

    /// Returns the text inside this node, if it is character data.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Node::Text(t) => Some(t),
            _ => None,
        }
    }
}

/// An immutable element behind one reference count, with the length of
/// its compact text ([`Element::xml_len`]) counted once, when it is made.
/// Cloning it is a reference count; a byte count of any tree that holds
/// it adds the stored length instead of walking it again.
#[derive(Debug, Clone)]
pub struct SharedElement(Arc<Counted>);

#[derive(Debug)]
struct Counted {
    element: Element,
    xml_len: usize,
}

impl SharedElement {
    /// Freezes `element`, counting its compact text once.
    pub fn new(element: Element) -> Self {
        let xml_len = element.xml_len();
        SharedElement(Arc::new(Counted { element, xml_len }))
    }

    /// `self.to_xml().len()`, as counted by [`SharedElement::new`].
    pub fn xml_len(&self) -> usize {
        self.0.xml_len
    }

    /// The element, moved out if no other tree holds it, else copied.
    pub fn into_element(self) -> Element {
        match Arc::try_unwrap(self.0) {
            Ok(counted) => counted.element,
            Err(shared) => shared.element.clone(),
        }
    }
}

impl Deref for SharedElement {
    type Target = Element;

    fn deref(&self) -> &Element {
        &self.0.element
    }
}

/// Structural: a shared child equals an owned one with the same content.
impl PartialEq for Node {
    fn eq(&self, other: &Node) -> bool {
        match (self, other) {
            (Node::Text(a), Node::Text(b)) | (Node::Comment(a), Node::Comment(b)) => a == b,
            _ => match (self.as_element(), other.as_element()) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            },
        }
    }
}

impl Eq for Node {}

/// An XML element: a name, ordered attributes, and ordered child nodes.
///
/// Attribute order is preserved (it matters for deterministic golden tests
/// of generated routing tables). Lookup is linear, which is appropriate for
/// the small fan-out of platform documents (a handful of attributes per
/// element).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    /// Tag name (e.g. `statechart`, `precondition`).
    pub name: String,
    /// Attribute `(name, value)` pairs in document order. Values are stored
    /// unescaped.
    pub attrs: Vec<(String, String)>,
    /// Child nodes in document order.
    pub children: Vec<Node>,
}

impl Element {
    /// Creates an empty element with the given tag name.
    pub fn new(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Builder: adds an attribute and returns `self`.
    ///
    /// Setting an attribute that already exists replaces its value in place,
    /// matching DOM semantics.
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.set_attr(name, value);
        self
    }

    /// Builder: appends a child element and returns `self`.
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Builder: appends every element of an iterator as a child.
    pub fn with_children(mut self, children: impl IntoIterator<Item = Element>) -> Self {
        self.children
            .extend(children.into_iter().map(Node::Element));
        self
    }

    /// Builder: appends a text node and returns `self`.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// Builder: appends an optional attribute (no-op on `None`).
    pub fn with_opt_attr(
        mut self,
        name: impl Into<String>,
        value: Option<impl Into<String>>,
    ) -> Self {
        if let Some(v) = value {
            self.set_attr(name, v);
        }
        self
    }

    /// Sets (or replaces) an attribute.
    pub fn set_attr(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        if let Some(slot) = self.attrs.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.attrs.push((name, value));
        }
    }

    /// Appends a child element.
    pub fn push_child(&mut self, child: Element) {
        self.children.push(Node::Element(child));
    }

    /// Appends a text node.
    pub fn push_text(&mut self, text: impl Into<String>) {
        self.children.push(Node::Text(text.into()));
    }

    /// Appends a comment node.
    pub fn push_comment(&mut self, text: impl Into<String>) {
        self.children.push(Node::Comment(text.into()));
    }

    /// Returns the value of an attribute, if present.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Returns an attribute value or a positioned error message suitable for
    /// bubbling out of document decoders.
    pub fn require_attr(&self, name: &str) -> Result<&str, String> {
        self.attr(name)
            .ok_or_else(|| format!("<{}> is missing required attribute {:?}", self.name, name))
    }

    /// Iterates over the direct child elements (skipping text and comments).
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(Node::as_element)
    }

    /// Number of direct child elements.
    pub fn child_element_count(&self) -> usize {
        self.child_elements().count()
    }

    /// First direct child element with the given tag name.
    pub fn find(&self, name: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.name == name)
    }

    /// All direct child elements with the given tag name.
    pub fn find_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.child_elements().filter(move |e| e.name == name)
    }

    /// First direct child element with the given name, or an error message.
    pub fn require(&self, name: &str) -> Result<&Element, String> {
        self.find(name)
            .ok_or_else(|| format!("<{}> is missing required child <{}>", self.name, name))
    }

    /// Concatenated text of the *direct* text children of this element.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for c in &self.children {
            if let Node::Text(t) = c {
                out.push_str(t);
            }
        }
        out
    }

    /// Text content of the first child element with the given name
    /// (`<name>text</name>`), if that child exists.
    pub fn child_text(&self, name: &str) -> Option<String> {
        self.find(name).map(Element::text)
    }

    /// True if the element has no attributes and no children.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty() && self.children.is_empty()
    }

    /// Total number of elements in this subtree, including `self`.
    /// Used by benches to size generated documents.
    pub fn subtree_size(&self) -> usize {
        1 + self
            .child_elements()
            .map(Element::subtree_size)
            .sum::<usize>()
    }

    /// Descends through the tree following `/`-separated child element names
    /// (e.g. `"definitions/service/operation"`). Returns the first match at
    /// each step.
    pub fn get_path(&self, path: &str) -> Option<&Element> {
        let mut cur = self;
        for seg in path.split('/').filter(|s| !s.is_empty()) {
            cur = cur.find(seg)?;
        }
        Some(cur)
    }
}

impl fmt::Display for Element {
    /// Displays the element as compact XML.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Element {
        Element::new("state")
            .with_attr("id", "CR")
            .with_attr("name", "Car Rental")
            .with_child(Element::new("input").with_attr("param", "city"))
            .with_child(Element::new("input").with_attr("param", "dates"))
            .with_text("trailing")
    }

    #[test]
    fn attr_lookup_and_replacement() {
        let mut e = sample();
        assert_eq!(e.attr("id"), Some("CR"));
        assert_eq!(e.attr("missing"), None);
        e.set_attr("id", "CR2");
        assert_eq!(e.attr("id"), Some("CR2"));
        // replacement must not duplicate
        assert_eq!(e.attrs.iter().filter(|(n, _)| n == "id").count(), 1);
    }

    #[test]
    fn require_attr_reports_element_name() {
        let e = sample();
        let err = e.require_attr("nope").unwrap_err();
        assert!(err.contains("state"), "{err}");
        assert!(err.contains("nope"), "{err}");
    }

    #[test]
    fn find_and_find_all() {
        let e = sample();
        assert_eq!(e.find("input").unwrap().attr("param"), Some("city"));
        assert_eq!(e.find_all("input").count(), 2);
        assert!(e.find("output").is_none());
    }

    #[test]
    fn text_concatenates_direct_text_only() {
        let e = Element::new("a")
            .with_text("x")
            .with_child(Element::new("b").with_text("hidden"))
            .with_text("y");
        assert_eq!(e.text(), "xy");
    }

    #[test]
    fn child_text_reads_wrapped_value() {
        let e = Element::new("service")
            .with_child(Element::new("name").with_text("Accommodation Booking"));
        assert_eq!(
            e.child_text("name").as_deref(),
            Some("Accommodation Booking")
        );
        assert_eq!(e.child_text("absent"), None);
    }

    #[test]
    fn get_path_descends() {
        let doc = Element::new("definitions").with_child(
            Element::new("service").with_child(Element::new("operation").with_attr("name", "book")),
        );
        let op = doc.get_path("service/operation").unwrap();
        assert_eq!(op.attr("name"), Some("book"));
        assert!(doc.get_path("service/missing").is_none());
        // empty path returns self
        assert_eq!(doc.get_path("").unwrap().name, "definitions");
    }

    #[test]
    fn subtree_size_counts_elements() {
        assert_eq!(sample().subtree_size(), 3);
        assert_eq!(Element::new("x").subtree_size(), 1);
    }

    #[test]
    fn shared_child_reads_and_compares_as_owned() {
        let child = Element::new("input").with_attr("param", "city");
        let mut shared = Element::new("state");
        shared
            .children
            .push(Node::Shared(SharedElement::new(child.clone())));
        let owned = Element::new("state").with_child(child.clone());
        assert_eq!(shared.find("input"), Some(&child));
        assert_eq!(shared.subtree_size(), 2);
        assert_eq!(shared, owned);
        assert_eq!(owned, shared);
        assert_ne!(
            shared,
            Element::new("state").with_child(Element::new("input"))
        );
        assert_ne!(shared, Element::new("state").with_text("input"));
    }

    #[test]
    fn with_opt_attr() {
        let e = Element::new("t")
            .with_opt_attr("a", Some("1"))
            .with_opt_attr("b", None::<String>);
        assert_eq!(e.attr("a"), Some("1"));
        assert_eq!(e.attr("b"), None);
    }

    #[test]
    fn is_empty() {
        assert!(Element::new("x").is_empty());
        assert!(!sample().is_empty());
    }
}
