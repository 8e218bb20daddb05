//! A small s-expression reader used to verify generated EDIF.
//!
//! JHDL's netlister API is open so users can build importers for their
//! own flows; this reader plays that role in tests and in the applet's
//! netlist-window previewer.

use std::fmt;

use crate::error::NetlistError;

/// Deepest list nesting [`SExpr::parse`] accepts. The EDIF writer
/// nests about ten levels; the cap stops hostile input from exhausting
/// the stack of the recursive `Display`.
pub(crate) const MAX_NESTING: usize = 256;

/// A parsed s-expression document (one top-level form).
///
/// Every node lives in one vector, and the children of each list sit
/// next to each other in it, so a parse makes a handful of allocations
/// however many lists the text holds. Atoms and strings borrow from
/// the parsed text. [`SExpr::root`] is the top-level form; `head`,
/// `find_all` and `Display` read it directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SExpr<'a> {
    /// The top-level form is the last node.
    nodes: Vec<Node<'a>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node<'a> {
    /// A bare token.
    Atom(&'a str),
    /// A quoted string literal, without its quotes.
    Str(&'a str),
    /// A parenthesized list whose items are `nodes[first..first + len]`.
    List { first: usize, len: usize },
}

/// One node of a parsed [`SExpr`] document: an atom, a string literal
/// or a list.
#[derive(Clone, Copy)]
pub struct SNode<'t, 'a> {
    nodes: &'t [Node<'a>],
    index: usize,
}

impl<'a> SExpr<'a> {
    /// Parses a complete s-expression document (one top-level form).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ParseEdif`] on malformed input: unmatched
    /// parentheses, unterminated strings, trailing garbage, or lists
    /// nested more than 256 deep.
    pub fn parse(text: &'a str) -> Result<SExpr<'a>, NetlistError> {
        Parser::new(text).run()
    }

    /// The top-level form.
    #[must_use]
    pub fn root(&self) -> SNode<'_, 'a> {
        SNode {
            nodes: &self.nodes,
            index: self.nodes.len() - 1,
        }
    }

    /// The head symbol of the top-level list, e.g. `edif`.
    #[must_use]
    pub fn head(&self) -> Option<&'a str> {
        self.root().head()
    }

    /// Every list in the document whose head symbol is `head`, in
    /// document order.
    #[must_use]
    pub fn find_all(&self, head: &str) -> Vec<SNode<'_, 'a>> {
        self.root().find_all(head)
    }
}

impl<'t, 'a> SNode<'t, 'a> {
    fn node(self) -> Node<'a> {
        self.nodes[self.index]
    }

    /// The head symbol of a list, e.g. `cell` for `(cell foo ...)`.
    #[must_use]
    pub fn head(self) -> Option<&'a str> {
        self.item(0)?.as_atom()
    }

    /// The list items, in order (none for an atom or a string).
    #[must_use]
    pub fn items(self) -> Items<'t, 'a> {
        let range = match self.node() {
            Node::List { first, len } => first..first + len,
            Node::Atom(_) | Node::Str(_) => 0..0,
        };
        Items {
            nodes: self.nodes,
            range,
        }
    }

    /// The list item at `index`, if this is a list that long.
    #[must_use]
    pub fn item(self, index: usize) -> Option<SNode<'t, 'a>> {
        self.items().nth(index)
    }

    /// The atom or string payload.
    #[must_use]
    pub fn as_str(self) -> Option<&'a str> {
        match self.node() {
            Node::Atom(s) | Node::Str(s) => Some(s),
            Node::List { .. } => None,
        }
    }

    /// The payload of a bare token.
    #[must_use]
    pub fn as_atom(self) -> Option<&'a str> {
        match self.node() {
            Node::Atom(s) => Some(s),
            _ => None,
        }
    }

    /// The payload of a quoted string literal, without its quotes.
    #[must_use]
    pub fn as_literal(self) -> Option<&'a str> {
        match self.node() {
            Node::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Every list at or below this node whose head symbol is `head`,
    /// in document order.
    #[must_use]
    pub fn find_all(self, head: &str) -> Vec<SNode<'t, 'a>> {
        let mut out = Vec::new();
        let mut stack = vec![self];
        while let Some(node) = stack.pop() {
            if node.head() == Some(head) {
                out.push(node);
            }
            stack.extend(node.items().rev());
        }
        out
    }

    /// The first item of this list with the given head symbol.
    #[must_use]
    pub fn child(self, head: &str) -> Option<SNode<'t, 'a>> {
        self.items().find(|n| n.head() == Some(head))
    }

    /// The *name* of a named EDIF construct: either the bare atom after
    /// the head, or the first element of a `(rename legal "orig")`.
    #[must_use]
    pub fn name(self) -> Option<&'a str> {
        let named = self.item(1)?;
        if let Some(atom) = named.as_atom() {
            return Some(atom);
        }
        match named.head() {
            Some("rename") => named.item(1)?.as_atom(),
            _ => None,
        }
    }
}

/// The items of a list node, in order.
#[derive(Clone)]
pub struct Items<'t, 'a> {
    nodes: &'t [Node<'a>],
    range: std::ops::Range<usize>,
}

impl<'t, 'a> Iterator for Items<'t, 'a> {
    type Item = SNode<'t, 'a>;

    fn next(&mut self) -> Option<Self::Item> {
        let index = self.range.next()?;
        Some(SNode {
            nodes: self.nodes,
            index,
        })
    }

    fn nth(&mut self, n: usize) -> Option<Self::Item> {
        let index = self.range.nth(n)?;
        Some(SNode {
            nodes: self.nodes,
            index,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl DoubleEndedIterator for Items<'_, '_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        let index = self.range.next_back()?;
        Some(SNode {
            nodes: self.nodes,
            index,
        })
    }
}

impl ExactSizeIterator for Items<'_, '_> {}

impl fmt::Debug for Items<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.clone()).finish()
    }
}

impl fmt::Debug for SNode<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node() {
            Node::Atom(a) => f.debug_tuple("Atom").field(&a).finish(),
            Node::Str(s) => f.debug_tuple("Str").field(&s).finish(),
            Node::List { .. } => f.debug_tuple("List").field(&self.items()).finish(),
        }
    }
}

impl fmt::Display for SNode<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node() {
            Node::Atom(a) => f.write_str(a),
            Node::Str(s) => write!(f, "\"{s}\""),
            Node::List { .. } => {
                f.write_str("(")?;
                for (i, item) in self.items().enumerate() {
                    if i > 0 {
                        f.write_str(" ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str(")")
            }
        }
    }
}

impl fmt::Display for SExpr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.root(), f)
    }
}

/// An iterative parser. The items of every open list wait on `pending`;
/// when a list closes they move, as one block, to the end of `nodes`,
/// and the list itself becomes an item of its parent.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    nodes: Vec<Node<'a>>,
    pending: Vec<Node<'a>>,
    /// Where each open list's items start on `pending`, outermost first.
    open: Vec<usize>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            pos: 0,
            nodes: Vec::new(),
            pending: Vec::new(),
            open: Vec::new(),
        }
    }

    fn error(&self, message: &str) -> NetlistError {
        NetlistError::ParseEdif {
            offset: self.pos,
            message: message.to_owned(),
        }
    }

    fn skip_ws(&mut self) {
        let bytes = self.text.as_bytes();
        while self.pos < bytes.len() && bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn run(mut self) -> Result<SExpr<'a>, NetlistError> {
        let text = self.text;
        let bytes = text.as_bytes();
        self.skip_ws();
        loop {
            // One item starts at `pos`.
            match bytes.get(self.pos) {
                None => return Err(self.error("unexpected end of input")),
                Some(b'(') => {
                    if self.open.len() == MAX_NESTING {
                        return Err(
                            self.error(&format!("lists nested more than {MAX_NESTING} deep"))
                        );
                    }
                    self.pos += 1;
                    self.open.push(self.pending.len());
                }
                Some(b')') => return Err(self.error("unexpected closing parenthesis")),
                // Every delimiter is ASCII, so the slices below start
                // and end on char boundaries.
                Some(b'"') => {
                    let start = self.pos + 1;
                    match bytes[start..].iter().position(|&b| b == b'"') {
                        Some(len) => {
                            self.pos = start + len + 1;
                            self.pending.push(Node::Str(&text[start..start + len]));
                        }
                        None => {
                            self.pos = bytes.len();
                            return Err(self.error("unterminated string literal"));
                        }
                    }
                }
                Some(_) => {
                    let start = self.pos;
                    self.pos += bytes[start..]
                        .iter()
                        .position(|&b| b.is_ascii_whitespace() || matches!(b, b'(' | b')' | b'"'))
                        .unwrap_or(bytes.len() - start);
                    self.pending.push(Node::Atom(&text[start..self.pos]));
                }
            }
            // Close every list that ends here; stop at the next item or
            // once the top-level form is complete.
            loop {
                let Some(&start) = self.open.last() else {
                    return self.finish();
                };
                self.skip_ws();
                match bytes.get(self.pos) {
                    None => return Err(self.error("unclosed list")),
                    Some(b')') => {
                        self.pos += 1;
                        self.open.pop();
                        let first = self.nodes.len();
                        self.nodes.extend(self.pending.drain(start..));
                        let len = self.nodes.len() - first;
                        self.pending.push(Node::List { first, len });
                    }
                    Some(_) => break,
                }
            }
        }
    }

    /// Checks that nothing follows the top-level form, the one item
    /// left on `pending`, and appends it as the last node.
    fn finish(mut self) -> Result<SExpr<'a>, NetlistError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.error("trailing input after top-level form"));
        }
        let mut nodes = self.nodes;
        nodes.extend(self.pending.pop());
        Ok(SExpr { nodes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_lists() {
        let e = SExpr::parse("(a (b c) \"d e\")").expect("parse");
        assert_eq!(e.head(), Some("a"));
        assert_eq!(e.root().items().len(), 3);
        assert_eq!(e.root().item(2).and_then(SNode::as_str), Some("d e"));
        assert_eq!(e.root().item(2).and_then(SNode::as_literal), Some("d e"));
        assert_eq!(e.root().item(2).and_then(SNode::as_atom), None);
        let inner = e.root().item(1).expect("inner list");
        assert_eq!(inner.head(), Some("b"));
        assert_eq!(inner.items().len(), 2);
        assert_eq!(inner.item(1).and_then(SNode::as_atom), Some("c"));
    }

    #[test]
    fn list_items_are_contiguous() {
        let e = SExpr::parse("(a (b (c d) e) f)").expect("parse");
        // Nine nodes: six atoms, two inner lists, and the top-level
        // form last.
        assert_eq!(e.nodes.len(), 9);
        for node in &e.nodes {
            if let Node::List { first, len } = *node {
                assert!(first + len <= e.nodes.len());
            }
        }
        assert!(matches!(e.nodes.last(), Some(Node::List { len: 3, .. })));
    }

    #[test]
    fn round_trip_display() {
        let text = "(edif top (edifVersion 2 0 0))";
        let e = SExpr::parse(text).expect("parse");
        assert_eq!(e.to_string(), text);
        let atom = SExpr::parse("  solo  ").expect("parse");
        assert_eq!(atom.to_string(), "solo");
        assert_eq!(atom.head(), None);
        assert_eq!(atom.root().items().len(), 0);
    }

    #[test]
    fn find_all_recurses() {
        let e =
            SExpr::parse("(a (cell x) (b (cell y) (cell (rename z_1 \"z[1]\"))))").expect("parse");
        let cells = e.find_all("cell");
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[2].name(), Some("z_1"));
        assert_eq!(cells[0].name(), Some("x"));
        assert_eq!(cells[1].name(), Some("y"));
    }

    #[test]
    fn errors_are_located() {
        let located = |text: &str| match SExpr::parse(text) {
            Err(NetlistError::ParseEdif { offset, message }) => (offset, message),
            other => panic!("{text:?}: expected a parse error, got {other:?}"),
        };
        assert_eq!(located("(a (b)"), (6, "unclosed list".to_owned()));
        assert_eq!(
            located("(a) junk"),
            (4, "trailing input after top-level form".to_owned())
        );
        assert_eq!(
            located("\"unterminated"),
            (13, "unterminated string literal".to_owned())
        );
        assert_eq!(
            located(")"),
            (0, "unexpected closing parenthesis".to_owned())
        );
        assert_eq!(located("  "), (2, "unexpected end of input".to_owned()));
        let deep = "(".repeat(MAX_NESTING + 1);
        assert_eq!(
            located(&deep),
            (
                MAX_NESTING,
                format!("lists nested more than {MAX_NESTING} deep")
            )
        );
    }
}
