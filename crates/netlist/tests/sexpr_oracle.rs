//! The recursive s-expression parser the EDIF reader used before it
//! parsed into one node vector, kept as a differential oracle: the
//! reader must print the same tree and fail with the same message at
//! the same offset on every document the oracle sees.

use ipd_hdl::Circuit;
use ipd_modgen::{example_zoo, KcmMultiplier};
use ipd_netlist::{edif_string, NetlistError, SExpr};
use ipd_testutil::XorShift64;

mod oracle {
    use std::fmt;

    use ipd_netlist::NetlistError;

    const MAX_NESTING: usize = 256;

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
                        return Err(
                            self.error(&format!("lists nested more than {MAX_NESTING} deep"))
                        );
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
}

/// What a parse gives, in comparable form: the tree as text, or the
/// error's offset and message.
type Outcome = Result<String, (usize, String)>;

fn outcome<T: ToString>(parsed: Result<T, NetlistError>) -> Outcome {
    match parsed {
        Ok(tree) => Ok(tree.to_string()),
        Err(NetlistError::ParseEdif { offset, message }) => Err((offset, message)),
        Err(other) => panic!("a parse can only fail with ParseEdif, got {other}"),
    }
}

/// Parses `text` with both parsers, checks they agree, and returns
/// whether it parsed.
fn agree(what: &str, text: &str) -> bool {
    let arena = outcome(SExpr::parse(text));
    let recursive = outcome(oracle::SExpr::parse(text));
    assert_eq!(arena, recursive, "{what}");
    arena.is_ok()
}

/// The journey-shaped KCMs: signed, pipelined and full width, widths 8
/// to 16.
const KCMS: &[(i64, u32)] = &[
    (-56, 8),
    (2047, 9),
    (-2048, 10),
    (1, 11),
    (-1, 12),
    (1234, 13),
    (-777, 14),
    (3, 15),
    (-1500, 16),
];

fn kcm_edif(constant: i64, width: u32) -> String {
    let full = KcmMultiplier::new(constant, width, 1)
        .signed(true)
        .full_product_width();
    let generator = KcmMultiplier::new(constant, width, full)
        .signed(true)
        .pipelined(true);
    let circuit = Circuit::from_generator(&generator).expect("KCM elaborates");
    edif_string(&circuit).expect("emit")
}

#[test]
fn generated_edif_parses_alike() {
    for (name, circuit) in example_zoo() {
        let text = edif_string(&circuit).expect("emit");
        assert!(agree(&name, &text), "{name} parses");
    }
    for &(constant, width) in KCMS {
        agree(
            &format!("kcm {constant}x{width}"),
            &kcm_edif(constant, width),
        );
    }
}

#[test]
fn prefixes_fail_alike() {
    let text = kcm_edif(-1500, 16);
    // Every delimiter is ASCII, and so is the whole document, so any
    // byte offset is a char boundary.
    assert!(text.is_ascii());
    for end in (0..text.len()).step_by(97) {
        agree(&format!("prefix of {end} bytes"), &text[..end]);
    }
}

#[test]
fn mutations_parse_or_fail_alike() {
    const ALPHABET: &[u8] = b"()\" \n\tab_[]01";
    let text = kcm_edif(-56, 8);
    let mut rng = XorShift64::new(0x5E_4EE5);
    let mut parsed = 0;
    for case in 0..500 {
        let mut bytes = text.clone().into_bytes();
        for _ in 0..1 + rng.next_u64() % 4 {
            let at = (rng.next_u64() % bytes.len() as u64) as usize;
            let byte = ALPHABET[(rng.next_u64() % ALPHABET.len() as u64) as usize];
            match rng.next_u64() % 3 {
                0 => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ => {
                    bytes.remove(at);
                }
            }
        }
        let mutated = String::from_utf8(bytes).expect("ASCII stays UTF-8");
        parsed += usize::from(agree(&format!("mutation {case}"), &mutated));
    }
    // Both outcomes are exercised.
    assert!(
        (100..=400).contains(&parsed),
        "{parsed} of 500 mutations parse"
    );
}

#[test]
fn hostile_nesting_fails_alike() {
    agree("257 open lists", &"(".repeat(257));
    agree(
        "256 nested lists",
        &format!("{}{}", "(".repeat(256), ")".repeat(256)),
    );
    agree("unbalanced close", "(a))");
    agree("empty", "");
    agree("blank", " \n\t ");
}
