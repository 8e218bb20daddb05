//! The timing-constraint set: clocks, boundary delays and path
//! exceptions, with a line-oriented text format that travels with a
//! design exactly like a lint configuration does.
//!
//! Object patterns use the same syntax as lint waivers: an exact
//! hierarchical name, or a prefix match when the pattern ends with `*`
//! (e.g. `top/u_fir/*`). Clock patterns match *net names* (a top-level
//! clock port's net carries the port name); exception patterns match
//! startpoint names (sequential instance paths, input nets) on the
//! `from` side and endpoint names (`instance.pin`, output ports) on
//! the `to` side.

use std::fmt;

/// Longest accepted constraint file line count and per-kind caps —
/// hostile inputs (huge counts, repeated directives) fail parsing
/// instead of exhausting memory or the exception bitmask.
pub const MAX_CLOCKS: usize = 64;
/// Cap on `false-path` + `multicycle` directives (they share a 64-bit
/// startpoint classification mask).
pub const MAX_EXCEPTIONS: usize = 64;
/// Cap on `input-delay` + `output-delay` directives.
pub const MAX_DELAYS: usize = 1024;
/// Largest accepted multicycle factor.
pub const MAX_MULTICYCLE: u32 = 64;

/// One clock definition: a name, a period, and the net pattern that
/// identifies its root in the design.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockConstraint {
    /// Constraint-file name of the clock (e.g. `sys`).
    pub name: String,
    /// Clock period in nanoseconds.
    pub period_ns: f64,
    /// Net-name pattern locating the clock root (waiver syntax).
    pub pattern: String,
}

/// A boundary delay: input arrival or output requirement relative to a
/// defined clock.
#[derive(Debug, Clone, PartialEq)]
pub struct PortDelay {
    /// Name of the clock the delay is relative to.
    pub clock: String,
    /// Delay in nanoseconds.
    pub delay_ns: f64,
    /// Port-name pattern (waiver syntax).
    pub pattern: String,
}

/// What a path exception does to matching paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExceptionKind {
    /// The path is not timed at all.
    FalsePath,
    /// The path may take this many clock periods.
    Multicycle(u32),
}

/// A path exception keyed by startpoint and endpoint patterns.
#[derive(Debug, Clone, PartialEq)]
pub struct PathException {
    /// False path or multicycle.
    pub kind: ExceptionKind,
    /// Startpoint pattern (sequential instance path or input net).
    pub from: String,
    /// Endpoint pattern (`instance.pin` or output port).
    pub to: String,
}

/// A full constraint set for one analysis run.
///
/// # Examples
///
/// ```
/// use ipd_estimate::TimingConstraints;
///
/// let text = "\
/// clock sys 6.667 clk
/// input-delay sys 1 x*
/// false-path top/sync0 top/meta*
/// ";
/// let constraints = TimingConstraints::parse(text).expect("parse");
/// assert_eq!(constraints.clocks().len(), 1);
/// assert_eq!(TimingConstraints::parse(&constraints.to_text()), Ok(constraints));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimingConstraints {
    clocks: Vec<ClockConstraint>,
    input_delays: Vec<PortDelay>,
    output_delays: Vec<PortDelay>,
    exceptions: Vec<PathException>,
}

impl TimingConstraints {
    /// An empty constraint set (nothing is timed).
    #[must_use]
    pub fn new() -> Self {
        TimingConstraints::default()
    }

    /// Defines a clock. Later definitions with the same name are
    /// rejected by [`TimingConstraints::parse`]; the builder keeps the
    /// first.
    pub fn clock(
        &mut self,
        name: impl Into<String>,
        period_ns: f64,
        pattern: impl Into<String>,
    ) -> &mut Self {
        let name = name.into();
        if self.clocks.iter().all(|c| c.name != name) {
            self.clocks.push(ClockConstraint {
                name,
                period_ns,
                pattern: pattern.into(),
            });
        }
        self
    }

    /// Declares an input arrival delay relative to a clock.
    pub fn input_delay(
        &mut self,
        clock: impl Into<String>,
        delay_ns: f64,
        pattern: impl Into<String>,
    ) -> &mut Self {
        self.input_delays.push(PortDelay {
            clock: clock.into(),
            delay_ns,
            pattern: pattern.into(),
        });
        self
    }

    /// Declares an output requirement delay relative to a clock.
    pub fn output_delay(
        &mut self,
        clock: impl Into<String>,
        delay_ns: f64,
        pattern: impl Into<String>,
    ) -> &mut Self {
        self.output_delays.push(PortDelay {
            clock: clock.into(),
            delay_ns,
            pattern: pattern.into(),
        });
        self
    }

    /// Declares a false path from matching startpoints to matching
    /// endpoints.
    pub fn false_path(&mut self, from: impl Into<String>, to: impl Into<String>) -> &mut Self {
        self.exceptions.push(PathException {
            kind: ExceptionKind::FalsePath,
            from: from.into(),
            to: to.into(),
        });
        self
    }

    /// Declares a multicycle path of `cycles` periods from matching
    /// startpoints to matching endpoints.
    pub fn multicycle(
        &mut self,
        cycles: u32,
        from: impl Into<String>,
        to: impl Into<String>,
    ) -> &mut Self {
        self.exceptions.push(PathException {
            kind: ExceptionKind::Multicycle(cycles.clamp(1, MAX_MULTICYCLE)),
            from: from.into(),
            to: to.into(),
        });
        self
    }

    /// Defined clocks, in definition order.
    #[must_use]
    pub fn clocks(&self) -> &[ClockConstraint] {
        &self.clocks
    }

    /// Input-delay directives.
    #[must_use]
    pub fn input_delays(&self) -> &[PortDelay] {
        &self.input_delays
    }

    /// Output-delay directives.
    #[must_use]
    pub fn output_delays(&self) -> &[PortDelay] {
        &self.output_delays
    }

    /// Path exceptions, in declaration order (the first matching
    /// exception wins).
    #[must_use]
    pub fn exceptions(&self) -> &[PathException] {
        &self.exceptions
    }

    /// Looks up a clock definition by name.
    #[must_use]
    pub fn clock_named(&self, name: &str) -> Option<&ClockConstraint> {
        self.clocks.iter().find(|c| c.name == name)
    }

    /// `true` when no clocks are defined — nothing would be timed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.clocks.is_empty()
    }

    /// Parses the textual constraint format:
    ///
    /// ```text
    /// # comments and blank lines are ignored
    /// clock sys 6.667 clk
    /// input-delay sys 1.2 data_in*
    /// output-delay sys 0.8 result*
    /// false-path top/sync0 top/meta*
    /// multicycle 2 top/slow/* top/acc*
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line. Duplicate clock
    /// names, references to undefined clocks, non-finite or
    /// non-positive periods, and counts above the documented caps are
    /// all rejected.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut c = TimingConstraints::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = |msg: &str| Err(format!("line {}: {msg}: {line}", lineno + 1));
            let mut words = line.split_whitespace();
            match words.next() {
                Some("clock") => {
                    let (Some(name), Some(period), Some(pattern)) =
                        (words.next(), words.next(), words.next())
                    else {
                        return bad("expected `clock <name> <period_ns> <pattern>`");
                    };
                    let Ok(period_ns) = period.parse::<f64>() else {
                        return bad("period is not a number");
                    };
                    if !period_ns.is_finite() || period_ns <= 0.0 || period_ns > 1e9 {
                        return bad("period must be a positive finite nanosecond value");
                    }
                    if c.clocks.iter().any(|k| k.name == name) {
                        return bad("duplicate clock definition");
                    }
                    if c.clocks.len() >= MAX_CLOCKS {
                        return bad("too many clock definitions");
                    }
                    c.clocks.push(ClockConstraint {
                        name: name.to_owned(),
                        period_ns,
                        pattern: pattern.to_owned(),
                    });
                }
                Some(kind @ ("input-delay" | "output-delay")) => {
                    let (Some(clock), Some(delay), Some(pattern)) =
                        (words.next(), words.next(), words.next())
                    else {
                        return bad("expected `<input|output>-delay <clock> <ns> <pattern>`");
                    };
                    let Ok(delay_ns) = delay.parse::<f64>() else {
                        return bad("delay is not a number");
                    };
                    if !delay_ns.is_finite() || !(0.0..=1e9).contains(&delay_ns) {
                        return bad("delay must be a non-negative finite nanosecond value");
                    }
                    if c.clocks.iter().all(|k| k.name != clock) {
                        return bad("delay references an undefined clock");
                    }
                    if c.input_delays.len() + c.output_delays.len() >= MAX_DELAYS {
                        return bad("too many delay directives");
                    }
                    let delay = PortDelay {
                        clock: clock.to_owned(),
                        delay_ns,
                        pattern: pattern.to_owned(),
                    };
                    if kind == "input-delay" {
                        c.input_delays.push(delay);
                    } else {
                        c.output_delays.push(delay);
                    }
                }
                Some("false-path") => {
                    let (Some(from), Some(to)) = (words.next(), words.next()) else {
                        return bad("expected `false-path <from-pattern> <to-pattern>`");
                    };
                    if c.exceptions.len() >= MAX_EXCEPTIONS {
                        return bad("too many path exceptions");
                    }
                    c.exceptions.push(PathException {
                        kind: ExceptionKind::FalsePath,
                        from: from.to_owned(),
                        to: to.to_owned(),
                    });
                }
                Some("multicycle") => {
                    let (Some(n), Some(from), Some(to)) =
                        (words.next(), words.next(), words.next())
                    else {
                        return bad("expected `multicycle <n> <from-pattern> <to-pattern>`");
                    };
                    let Ok(n) = n.parse::<u32>() else {
                        return bad("multicycle factor is not an integer");
                    };
                    if !(1..=MAX_MULTICYCLE).contains(&n) {
                        return bad("multicycle factor out of range");
                    }
                    if c.exceptions.len() >= MAX_EXCEPTIONS {
                        return bad("too many path exceptions");
                    }
                    c.exceptions.push(PathException {
                        kind: ExceptionKind::Multicycle(n),
                        from: from.to_owned(),
                        to: to.to_owned(),
                    });
                }
                _ => return bad("unknown directive"),
            }
            if words.next().is_some() {
                return bad("trailing words after directive");
            }
        }
        Ok(c)
    }

    /// Serializes back to the [`TimingConstraints::parse`] format
    /// (clocks, input delays, output delays, exceptions, each in
    /// declaration order).
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for c in &self.clocks {
            out.push_str(&format!("clock {} {} {}\n", c.name, c.period_ns, c.pattern));
        }
        for d in &self.input_delays {
            out.push_str(&format!(
                "input-delay {} {} {}\n",
                d.clock, d.delay_ns, d.pattern
            ));
        }
        for d in &self.output_delays {
            out.push_str(&format!(
                "output-delay {} {} {}\n",
                d.clock, d.delay_ns, d.pattern
            ));
        }
        for e in &self.exceptions {
            match e.kind {
                ExceptionKind::FalsePath => {
                    out.push_str(&format!("false-path {} {}\n", e.from, e.to));
                }
                ExceptionKind::Multicycle(n) => {
                    out.push_str(&format!("multicycle {n} {} {}\n", e.from, e.to));
                }
            }
        }
        out
    }
}

impl fmt::Display for TimingConstraints {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

/// The lint-waiver pattern rule, shared by constraint patterns and
/// `ipd-lint` waivers: `pattern` matches `object` exactly, or as a
/// prefix when it ends with `*` (`top/u0/*` matches `top/u0/ff.d`, and
/// `*` matches anything).
///
/// # Examples
///
/// ```
/// use ipd_estimate::sta::pattern_matches;
///
/// assert!(pattern_matches("top/bus*", "top/bus[3]"));
/// assert!(pattern_matches("clk", "clk"));
/// assert!(!pattern_matches("clk", "clk2"));
/// ```
#[must_use]
pub fn pattern_matches(pattern: &str, object: &str) -> bool {
    match pattern.strip_suffix('*') {
        Some(prefix) => object.starts_with(prefix),
        None => pattern == object,
    }
}

/// Clock-net match: against the full hierarchical net name or its last
/// path segment, so `clock sys 6.7 clk` finds `kcm_w16/clk` without a
/// per-design prefix in a shared constraints file.
#[must_use]
pub(crate) fn clock_pattern_matches(pattern: &str, net_name: &str) -> bool {
    pattern_matches(pattern, net_name)
        || net_name
            .rsplit_once('/')
            .is_some_and(|(_, base)| pattern_matches(pattern, base))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        let text = "clock sys 6.667 clk\nclock io 10 clk_io\ninput-delay sys 1.25 x*\noutput-delay io 0.5 y\nfalse-path top/sync* top/meta*\nmulticycle 2 top/slow/* top/acc*\n";
        let c = TimingConstraints::parse(text).expect("parse");
        assert_eq!(c.clocks().len(), 2);
        assert_eq!(c.to_text(), text);
        assert_eq!(TimingConstraints::parse(&c.to_text()), Ok(c));
    }

    #[test]
    fn errors_name_the_line() {
        for (text, needle) in [
            ("clock a", "expected"),
            ("clock a nan clk", "positive finite"),
            ("clock a -1 clk", "positive finite"),
            ("clock a 5 clk\nclock a 6 clk2", "duplicate clock"),
            ("input-delay ghost 1 x", "undefined clock"),
            ("clock a 5 clk\nmulticycle 0 x y", "out of range"),
            ("clock a 5 clk\nmulticycle 9999 x y", "out of range"),
            ("frobnicate", "unknown directive"),
            ("clock a 5 clk extra", "trailing words"),
        ] {
            let err = TimingConstraints::parse(text).unwrap_err();
            assert!(err.contains(needle), "{text:?} -> {err}");
            assert!(err.contains("line "), "{err}");
        }
    }

    #[test]
    fn caps_reject_huge_counts() {
        let mut text = String::from("clock sys 5 clk\n");
        for i in 0..=MAX_EXCEPTIONS {
            text.push_str(&format!("false-path a{i} b{i}\n"));
        }
        assert!(TimingConstraints::parse(&text)
            .unwrap_err()
            .contains("too many path exceptions"));

        let mut text = String::new();
        for i in 0..=MAX_CLOCKS {
            text.push_str(&format!("clock c{i} 5 net{i}\n"));
        }
        assert!(TimingConstraints::parse(&text)
            .unwrap_err()
            .contains("too many clock definitions"));

        let mut text = String::from("clock sys 5 clk\n");
        for i in 0..=MAX_DELAYS {
            text.push_str(&format!("input-delay sys 1 p{i}\n"));
        }
        assert!(TimingConstraints::parse(&text)
            .unwrap_err()
            .contains("too many delay directives"));
    }

    #[test]
    fn builder_keeps_first_clock_and_clamps_multicycle() {
        let mut c = TimingConstraints::new();
        c.clock("sys", 5.0, "clk").clock("sys", 9.0, "other");
        assert_eq!(c.clocks().len(), 1);
        assert!((c.clock_named("sys").unwrap().period_ns - 5.0).abs() < 1e-12);
        c.multicycle(0, "a", "b").multicycle(1_000_000, "c", "d");
        assert_eq!(c.exceptions()[0].kind, ExceptionKind::Multicycle(1));
        assert_eq!(
            c.exceptions()[1].kind,
            ExceptionKind::Multicycle(MAX_MULTICYCLE)
        );
    }

    #[test]
    fn patterns_match_like_waivers() {
        assert!(pattern_matches("top/u0/*", "top/u0/ff.d"));
        assert!(pattern_matches("clk", "clk"));
        assert!(!pattern_matches("clk", "clk2"));
        assert!(pattern_matches("*", "anything"));
    }

    /// Hostile-input fuzz: random byte soup, truncations of a valid
    /// file, and shuffled directive fragments must never panic — every
    /// outcome is `Ok` or a line-tagged `Err`.
    #[test]
    fn parser_survives_hostile_inputs() {
        let valid = "clock sys 6.667 clk\ninput-delay sys 1.25 x*\nmulticycle 2 a b\n";
        for cut in 0..valid.len() {
            let _ = TimingConstraints::parse(&valid[..cut]);
        }
        let mut rng = ipd_testutil::XorShift64::new(0xA5A5_0001);
        let words = [
            "clock",
            "input-delay",
            "output-delay",
            "false-path",
            "multicycle",
            "sys",
            "clk",
            "9999999999999999999",
            "1e308",
            "-1e308",
            "nan",
            "inf",
            "*",
            "#",
            "\u{7f}",
        ];
        for _ in 0..500 {
            let mut text = String::new();
            for _ in 0..(rng.next_u64() % 8) {
                for _ in 0..(rng.next_u64() % 6) {
                    text.push_str(words[(rng.next_u64() as usize) % words.len()]);
                    text.push(' ');
                }
                text.push('\n');
            }
            let _ = TimingConstraints::parse(&text);
        }
        for _ in 0..200 {
            let bytes: Vec<u8> = (0..(rng.next_u64() % 256))
                .map(|_| (rng.next_u64() % 256) as u8)
                .collect();
            let _ = TimingConstraints::parse(&String::from_utf8_lossy(&bytes));
        }
    }
}
