//! A small s-expression reader used to verify generated EDIF.
//!
//! JHDL's netlister API is open so users can build importers for their
//! own flows; this reader plays that role in tests and in the applet's
//! netlist-window previewer.

use std::fmt;

use crate::error::NetlistError;

/// Deepest list nesting [`SExpr::parse`] accepts. The EDIF writer
/// nests about ten levels; the cap only stops hostile input from
/// exhausting the stack of the recursive parser, `Drop` or `Display`.
pub(crate) const MAX_NESTING: usize = 256;

/// One node of an s-expression tree. Atoms and strings borrow from the
/// parsed text, so parsing allocates only the lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SExpr<'a> {
    /// A bare token.
    Atom(&'a str),
    /// A quoted string literal, without its quotes.
    Str(&'a str),
    /// A parenthesized list.
    List(Vec<SExpr<'a>>),
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
        let mut parser = Parser { text, pos: 0 };
        parser.skip_ws();
        let expr = parser.parse_expr(0)?;
        parser.skip_ws();
        if parser.pos != text.len() {
            return Err(parser.error("trailing input after top-level form"));
        }
        Ok(expr)
    }

    /// The head symbol of a list, e.g. `cell` for `(cell foo ...)`.
    #[must_use]
    pub fn head(&self) -> Option<&'a str> {
        match self.items().first()? {
            SExpr::Atom(a) => Some(a),
            _ => None,
        }
    }

    /// The list elements (empty for atoms).
    #[must_use]
    pub fn items(&self) -> &[SExpr<'a>] {
        match self {
            SExpr::List(items) => items,
            _ => &[],
        }
    }

    /// The atom or string payload.
    #[must_use]
    pub fn as_str(&self) -> Option<&'a str> {
        match self {
            SExpr::Atom(s) | SExpr::Str(s) => Some(s),
            SExpr::List(_) => None,
        }
    }

    /// Recursively collects every list whose head symbol is `head`.
    #[must_use]
    pub fn find_all(&self, head: &str) -> Vec<&SExpr<'a>> {
        let mut out = Vec::new();
        self.walk(&mut |node| {
            if node.head() == Some(head) {
                out.push(node);
            }
        });
        out
    }

    /// The first direct child list with the given head symbol.
    #[must_use]
    pub fn child(&self, head: &str) -> Option<&SExpr<'a>> {
        self.items().iter().find(|n| n.head() == Some(head))
    }

    /// The *name* of a named EDIF construct: either the bare atom after
    /// the head, or the first element of a `(rename legal "orig")`.
    #[must_use]
    pub fn name(&self) -> Option<&'a str> {
        match self.items().get(1)? {
            SExpr::Atom(a) => Some(a),
            SExpr::List(items) => match items.as_slice() {
                [SExpr::Atom("rename"), SExpr::Atom(n), ..] => Some(n),
                _ => None,
            },
            SExpr::Str(_) => None,
        }
    }

    fn walk<'s>(&'s self, f: &mut impl FnMut(&'s SExpr<'a>)) {
        f(self);
        for item in self.items() {
            item.walk(f);
        }
    }
}

impl fmt::Display for SExpr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SExpr::Atom(a) => f.write_str(a),
            SExpr::Str(s) => write!(f, "\"{s}\""),
            SExpr::List(items) => {
                f.write_str("(")?;
                for (i, item) in items.iter().enumerate() {
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

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
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

    /// Parses the expression at `pos`, inside `depth` open lists.
    fn parse_expr(&mut self, depth: usize) -> Result<SExpr<'a>, NetlistError> {
        let text = self.text;
        let bytes = text.as_bytes();
        match bytes.get(self.pos) {
            None => Err(self.error("unexpected end of input")),
            Some(b'(') => {
                if depth == MAX_NESTING {
                    return Err(self.error(&format!("lists nested more than {MAX_NESTING} deep")));
                }
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    match bytes.get(self.pos) {
                        None => return Err(self.error("unclosed list")),
                        Some(b')') => {
                            self.pos += 1;
                            return Ok(SExpr::List(items));
                        }
                        Some(_) => items.push(self.parse_expr(depth + 1)?),
                    }
                }
            }
            Some(b')') => Err(self.error("unexpected closing parenthesis")),
            // Every delimiter is ASCII, so the slices below start and
            // end on char boundaries.
            Some(b'"') => {
                let start = self.pos + 1;
                match bytes[start..].iter().position(|&b| b == b'"') {
                    Some(len) => {
                        self.pos = start + len + 1;
                        Ok(SExpr::Str(&text[start..start + len]))
                    }
                    None => {
                        self.pos = bytes.len();
                        Err(self.error("unterminated string literal"))
                    }
                }
            }
            Some(_) => {
                let start = self.pos;
                self.pos += bytes[start..]
                    .iter()
                    .position(|&b| b.is_ascii_whitespace() || matches!(b, b'(' | b')' | b'"'))
                    .unwrap_or(bytes.len() - start);
                Ok(SExpr::Atom(&text[start..self.pos]))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_lists() {
        let e = SExpr::parse("(a (b c) \"d e\")").expect("parse");
        assert_eq!(e.head(), Some("a"));
        assert_eq!(e.items().len(), 3);
        assert_eq!(e.items()[2].as_str(), Some("d e"));
    }

    #[test]
    fn round_trip_display() {
        let text = "(edif top (edifVersion 2 0 0))";
        let e = SExpr::parse(text).expect("parse");
        assert_eq!(e.to_string(), text);
    }

    #[test]
    fn find_all_recurses() {
        let e =
            SExpr::parse("(a (cell x) (b (cell y) (cell (rename z_1 \"z[1]\"))))").expect("parse");
        let cells = e.find_all("cell");
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[2].name(), Some("z_1"));
        assert_eq!(cells[0].name(), Some("x"));
    }

    #[test]
    fn errors_are_located() {
        assert!(matches!(
            SExpr::parse("(a (b)"),
            Err(NetlistError::ParseEdif { .. })
        ));
        assert!(matches!(
            SExpr::parse("(a) junk"),
            Err(NetlistError::ParseEdif { .. })
        ));
        assert!(matches!(
            SExpr::parse("\"unterminated"),
            Err(NetlistError::ParseEdif { .. })
        ));
        assert!(matches!(
            SExpr::parse(")"),
            Err(NetlistError::ParseEdif { .. })
        ));
    }
}
