//! Identifier legalization for the supported netlist dialects.
//!
//! Hierarchical JHDL-style names (`top/u0/t1[3]`) are not legal VHDL,
//! Verilog or EDIF identifiers. A [`NameTable`] maps arbitrary source
//! names to legal, *injective* (collision-free) identifiers per dialect.

use std::cell::Cell as Counter;
use std::collections::{HashMap, HashSet};

/// Target netlist dialect for identifier legalization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dialect {
    /// EDIF 2.0.0 identifiers (alphanumeric + `_`, must not start with
    /// a digit; originals preserved via `rename`).
    Edif,
    /// VHDL-93 basic identifiers (case-insensitive, no leading/trailing
    /// `_`, no `__`, reserved words).
    Vhdl,
    /// Verilog-2001 simple identifiers.
    Verilog,
}

const VHDL_KEYWORDS: &[&str] = &[
    "abs",
    "access",
    "after",
    "alias",
    "all",
    "and",
    "architecture",
    "array",
    "assert",
    "attribute",
    "begin",
    "block",
    "body",
    "buffer",
    "bus",
    "case",
    "component",
    "configuration",
    "constant",
    "disconnect",
    "downto",
    "else",
    "elsif",
    "end",
    "entity",
    "exit",
    "file",
    "for",
    "function",
    "generate",
    "generic",
    "group",
    "guarded",
    "if",
    "impure",
    "in",
    "inertial",
    "inout",
    "is",
    "label",
    "library",
    "linkage",
    "literal",
    "loop",
    "map",
    "mod",
    "nand",
    "new",
    "next",
    "nor",
    "not",
    "null",
    "of",
    "on",
    "open",
    "or",
    "others",
    "out",
    "package",
    "port",
    "postponed",
    "procedure",
    "process",
    "pure",
    "range",
    "record",
    "register",
    "reject",
    "rem",
    "report",
    "return",
    "rol",
    "ror",
    "select",
    "severity",
    "signal",
    "shared",
    "sla",
    "sll",
    "sra",
    "srl",
    "subtype",
    "then",
    "to",
    "transport",
    "type",
    "unaffected",
    "units",
    "until",
    "use",
    "variable",
    "wait",
    "when",
    "while",
    "with",
    "xnor",
    "xor",
];

const VERILOG_KEYWORDS: &[&str] = &[
    "always",
    "and",
    "assign",
    "begin",
    "buf",
    "bufif0",
    "bufif1",
    "case",
    "casex",
    "casez",
    "cmos",
    "deassign",
    "default",
    "defparam",
    "disable",
    "edge",
    "else",
    "end",
    "endcase",
    "endfunction",
    "endmodule",
    "endprimitive",
    "endspecify",
    "endtable",
    "endtask",
    "event",
    "for",
    "force",
    "forever",
    "fork",
    "function",
    "highz0",
    "highz1",
    "if",
    "ifnone",
    "initial",
    "inout",
    "input",
    "integer",
    "join",
    "large",
    "macromodule",
    "medium",
    "module",
    "nand",
    "negedge",
    "nmos",
    "nor",
    "not",
    "notif0",
    "notif1",
    "or",
    "output",
    "parameter",
    "pmos",
    "posedge",
    "primitive",
    "pull0",
    "pull1",
    "pulldown",
    "pullup",
    "rcmos",
    "real",
    "realtime",
    "reg",
    "release",
    "repeat",
    "rnmos",
    "rpmos",
    "rtran",
    "rtranif0",
    "rtranif1",
    "scalared",
    "signed",
    "small",
    "specify",
    "specparam",
    "strong0",
    "strong1",
    "supply0",
    "supply1",
    "table",
    "task",
    "time",
    "tran",
    "tranif0",
    "tranif1",
    "tri",
    "tri0",
    "tri1",
    "triand",
    "trior",
    "trireg",
    "vectored",
    "wait",
    "wand",
    "weak0",
    "weak1",
    "while",
    "wire",
    "wor",
    "xnor",
    "xor",
];

/// A per-output-file table mapping source names to unique legal
/// identifiers.
///
/// # Examples
///
/// ```
/// use ipd_netlist::{Dialect, NameTable};
///
/// let mut table = NameTable::new(Dialect::Vhdl);
/// let a = table.legalize("top/u0/t1[3]").to_owned();
/// let b = table.legalize("top/u0/t1_3").to_owned();
/// assert_ne!(a, b, "legalization is injective");
/// assert_eq!(table.legalize("top/u0/t1[3]"), a, "stable per source name");
/// ```
#[derive(Debug, Clone)]
pub struct NameTable {
    dialect: Dialect,
    map: HashMap<String, String>,
    /// Every identifier handed out (lowercase for VHDL, whose
    /// identifiers are case-insensitive).
    used: HashSet<String>,
    /// Per base that collided, the first suffix not yet tried. Names
    /// are never freed, so every `base_j` below it is taken.
    next_suffix: HashMap<String, usize>,
}

thread_local! {
    static LEGALIZE_PROBES: Counter<u64> = const { Counter::new(0) };
}

/// How many suffixed candidates (`base_2`, `base_3`, …) this thread's
/// [`NameTable`]s have formatted. Tests read it to check that
/// legalizing costs about one candidate per colliding name rather than
/// one per earlier name of the same base.
#[doc(hidden)]
#[must_use]
pub fn legalize_probes() -> u64 {
    LEGALIZE_PROBES.with(Counter::get)
}

impl NameTable {
    /// An empty table for one dialect.
    #[must_use]
    pub fn new(dialect: Dialect) -> Self {
        NameTable {
            dialect,
            map: HashMap::new(),
            used: HashSet::new(),
            next_suffix: HashMap::new(),
        }
    }

    /// The table's dialect.
    #[must_use]
    pub fn dialect(&self) -> Dialect {
        self.dialect
    }

    /// Returns the legal identifier for `source`, allocating one on
    /// first use. The mapping is stable and injective for the lifetime
    /// of the table.
    pub fn legalize(&mut self, source: &str) -> &str {
        if self.map.contains_key(source) {
            return &self.map[source];
        }
        let unique = self.uniquify(sanitize(source, self.dialect));
        self.map.entry(source.to_owned()).or_insert(unique)
    }

    /// Looks up a previously legalized name.
    #[must_use]
    pub fn get(&self, source: &str) -> Option<&str> {
        self.map.get(source).map(String::as_str)
    }

    /// Marks used and returns `base` (lowercased for VHDL) if it is
    /// free, else the first free `base_2`, `base_3`, …. The probe resumes
    /// from the base's `next_suffix`, so it returns the name a probe
    /// from `base_2` upwards would, without retrying the taken ones.
    fn uniquify(&mut self, mut base: String) -> String {
        if self.dialect == Dialect::Vhdl {
            base.make_ascii_lowercase();
        }
        if self.used.insert(base.clone()) {
            return base;
        }
        let next = match self.next_suffix.get_mut(&base) {
            Some(next) => next,
            None => self.next_suffix.entry(base.clone()).or_insert(2),
        };
        loop {
            // Another source may have legalized to `base_k` itself, so
            // each candidate is still checked against the used set.
            let candidate = format!("{base}_{next}");
            *next += 1;
            LEGALIZE_PROBES.with(|n| n.set(n.get() + 1));
            if self.used.insert(candidate.clone()) {
                return candidate;
            }
        }
    }
}

fn sanitize(source: &str, dialect: Dialect) -> String {
    let mut out = String::with_capacity(source.len());
    for ch in source.chars() {
        let legal =
            ch.is_ascii_alphanumeric() || ch == '_' || (dialect == Dialect::Verilog && ch == '$');
        out.push(if legal { ch } else { '_' });
    }
    if out.is_empty() {
        out.push('n');
    }
    if out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, 'n');
    }
    match dialect {
        Dialect::Vhdl => {
            // No leading/trailing underscore, no double underscores,
            // no reserved words (case-insensitive).
            while out.starts_with('_') {
                out.remove(0);
            }
            while out.ends_with('_') {
                out.pop();
            }
            while out.contains("__") {
                out = out.replace("__", "_");
            }
            if out.is_empty() {
                out.push('n');
            }
            let lower = out.to_ascii_lowercase();
            if VHDL_KEYWORDS.contains(&lower.as_str()) {
                out = format!("{out}_i");
            }
            out
        }
        Dialect::Verilog => {
            if out.starts_with('$') {
                out.insert(0, 'n');
            }
            if VERILOG_KEYWORDS.contains(&out.as_str()) {
                out = format!("{out}_i");
            }
            out
        }
        Dialect::Edif => out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchical_names_become_legal() {
        let mut t = NameTable::new(Dialect::Vhdl);
        let n = t.legalize("top/u0/bus[3]").to_owned();
        assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
        assert!(!n.starts_with(|c: char| c.is_ascii_digit()));
        assert!(!n.contains("__"));
        assert!(!n.ends_with('_'));
    }

    #[test]
    fn keywords_are_avoided() {
        let mut v = NameTable::new(Dialect::Vhdl);
        assert_ne!(v.legalize("signal"), "signal");
        let mut ver = NameTable::new(Dialect::Verilog);
        assert_ne!(ver.legalize("module"), "module");
        assert_ne!(ver.legalize("wire"), "wire");
    }

    #[test]
    fn vhdl_case_insensitive_collisions() {
        let mut t = NameTable::new(Dialect::Vhdl);
        let a = t.legalize("Net").to_owned();
        let b = t.legalize("net").to_owned();
        assert_ne!(a.to_ascii_lowercase(), b.to_ascii_lowercase());
    }

    #[test]
    fn leading_digit_handled() {
        let mut t = NameTable::new(Dialect::Verilog);
        let n = t.legalize("3state").to_owned();
        assert!(n.starts_with('n'));
    }

    #[test]
    fn injective_over_colliding_sources() {
        let mut t = NameTable::new(Dialect::Edif);
        let names = ["a[0]", "a_0", "a 0", "a/0"];
        let mut legal: Vec<String> = names.iter().map(|n| t.legalize(n).to_owned()).collect();
        legal.sort();
        legal.dedup();
        assert_eq!(legal.len(), names.len());
    }

    /// The table with every name probed linearly from `_2` on every
    /// call, as legalization first worked: the oracle the suffix
    /// counter is held to.
    struct LinearTable {
        dialect: Dialect,
        map: HashMap<String, String>,
        used: HashSet<String>,
    }

    impl LinearTable {
        fn legalize(&mut self, source: &str) -> String {
            if let Some(name) = self.map.get(source) {
                return name.clone();
            }
            let key = |s: &str| match self.dialect {
                Dialect::Vhdl => s.to_ascii_lowercase(),
                _ => s.to_owned(),
            };
            let base = sanitize(source, self.dialect);
            let unique = if self.used.contains(&key(&base)) {
                (2..)
                    .map(|n| key(&format!("{base}_{n}")))
                    .find(|candidate| !self.used.contains(candidate))
                    .expect("some suffix is free")
            } else {
                key(&base)
            };
            self.used.insert(unique.clone());
            self.map.insert(source.to_owned(), unique.clone());
            unique
        }
    }

    /// Sources that sanitize to one base, to its suffixed forms, or to
    /// a keyword's, in some dialect: case variants, illegal characters,
    /// doubled and edge underscores, a leading digit, `$`.
    const COLLIDING: &[&str] = &[
        "a", "A", "a_2", "A_2", "a[2]", "a/2", "a 2", "a_2_2", "a__2", "_a_", "a_3", "2a", "n2a",
        "$a", "n$a", "a$", "signal", "Signal", "signal_i", "module", "module_i", "", "n", "[]",
    ];

    #[test]
    fn suffix_counter_matches_the_linear_probe() {
        for dialect in [Dialect::Edif, Dialect::Vhdl, Dialect::Verilog] {
            for seed in 1..=20u64 {
                let mut rng = ipd_testutil::XorShift64::new(seed);
                let mut table = NameTable::new(dialect);
                let mut oracle = LinearTable {
                    dialect,
                    map: HashMap::new(),
                    used: HashSet::new(),
                };
                for op in 0..400 {
                    let source = COLLIDING[rng.index(COLLIDING.len())];
                    // Fresh sources too, so the counters run past the
                    // alphabet's own suffixes.
                    let source = if rng.bool() {
                        source.to_owned()
                    } else {
                        format!("{source}{}", ["", "[2]", "_2", "/3"][rng.index(4)])
                            .repeat(1 + op % 2)
                    };
                    assert_eq!(
                        table.legalize(&source),
                        oracle.legalize(&source),
                        "{dialect:?} seed {seed} op {op}: {source:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn colliding_sources_format_linearly() {
        // Case variants of one 15-letter word all legalize to one VHDL
        // base; the linear probe formats about n^2 / 2 candidates.
        const WORD: &str = "multiplierstage";
        let sources = 20_000;
        let mut table = NameTable::new(Dialect::Vhdl);
        let before = legalize_probes();
        let mut last = String::new();
        for variant in 0..sources {
            let source: String = WORD
                .chars()
                .enumerate()
                .map(|(bit, c)| {
                    if variant >> bit & 1 == 1 {
                        c.to_ascii_uppercase()
                    } else {
                        c
                    }
                })
                .collect();
            last = table.legalize(&source).to_owned();
        }
        assert_eq!(last, format!("{WORD}_{sources}"));
        let probes = legalize_probes() - before;
        assert!(
            probes <= 2 * sources as u64,
            "{probes} candidates for {sources} colliding sources"
        );
    }

    #[test]
    fn empty_and_symbolic_sources() {
        let mut t = NameTable::new(Dialect::Vhdl);
        assert!(!t.legalize("").is_empty());
        assert!(!t.legalize("___").is_empty());
        assert!(!t.legalize("[]").is_empty());
    }
}
