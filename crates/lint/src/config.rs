//! Lint configuration: per-rule severity overrides and waivers keyed
//! by rule + object path.
//!
//! A configuration travels with a design through the delivery flow:
//! the vendor decides which rules gate packaging, and records reviewed
//! exceptions as waivers. Waived diagnostics stay visible in the
//! report (in the *waived* section) but no longer count as errors, so
//! a sealed delivery can proceed.

use std::collections::HashMap;
use std::fmt;

use ipd_estimate::sta::pattern_matches;
use ipd_hdl::Severity;

/// Effective reporting level for a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintLevel {
    /// Suppress the rule entirely.
    Allow,
    /// Report at warning severity.
    Warning,
    /// Report at error severity (blocks sealed delivery).
    Error,
}

impl LintLevel {
    /// The severity this level maps to; `None` for [`LintLevel::Allow`].
    #[must_use]
    pub fn severity(self) -> Option<Severity> {
        match self {
            LintLevel::Allow => None,
            LintLevel::Warning => Some(Severity::Warning),
            LintLevel::Error => Some(Severity::Error),
        }
    }
}

impl fmt::Display for LintLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LintLevel::Allow => "allow",
            LintLevel::Warning => "warning",
            LintLevel::Error => "error",
        })
    }
}

/// A reviewed exception: one rule, one object pattern, one reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// Rule identifier the waiver applies to, or `"*"` for any rule.
    pub rule: String,
    /// Object path the waiver covers. Exact match, or a prefix match
    /// when the pattern ends with `*` (e.g. `top/u_fir/*`): the rule of
    /// [`ipd_estimate::sta::pattern_matches`].
    pub object: String,
    /// Why the violation is acceptable (required; audits read this).
    pub reason: String,
}

impl Waiver {
    /// `true` when this waiver covers the given rule + object.
    #[must_use]
    pub fn covers(&self, rule: &str, object: &str) -> bool {
        (self.rule == "*" || self.rule == rule) && pattern_matches(&self.object, object)
    }
}

/// Per-run lint configuration.
///
/// # Examples
///
/// ```
/// use ipd_lint::{LintConfig, LintLevel};
///
/// let mut config = LintConfig::new();
/// config.set_level("high-fanout", LintLevel::Error);
/// config.waive("multiple-drivers", "top/bus*", "external tristate bus");
/// assert!(config.waiver_for("multiple-drivers", "top/bus[3]").is_some());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LintConfig {
    levels: HashMap<String, LintLevel>,
    waivers: Vec<Waiver>,
    /// Maximum allowed fanout of a non-clock net before the
    /// `high-fanout` rule fires.
    pub max_fanout: usize,
    /// Maximum primary-port width before `port-width` fires (the
    /// simulator's u64 convenience API covers 64 bits).
    pub max_port_width: u32,
}

impl Default for LintConfig {
    /// The same configuration as [`LintConfig::new`].
    fn default() -> Self {
        LintConfig::new()
    }
}

impl LintConfig {
    /// The default configuration: catalog severities, fanout limit 64,
    /// port-width limit 64, no waivers.
    #[must_use]
    pub fn new() -> Self {
        LintConfig {
            levels: HashMap::new(),
            waivers: Vec::new(),
            max_fanout: 64,
            max_port_width: 64,
        }
    }

    /// Overrides the reporting level of a rule.
    pub fn set_level(&mut self, rule: impl Into<String>, level: LintLevel) -> &mut Self {
        self.levels.insert(rule.into(), level);
        self
    }

    /// Adds a waiver for a rule + object pattern.
    pub fn waive(
        &mut self,
        rule: impl Into<String>,
        object: impl Into<String>,
        reason: impl Into<String>,
    ) -> &mut Self {
        self.waivers.push(Waiver {
            rule: rule.into(),
            object: object.into(),
            reason: reason.into(),
        });
        self
    }

    /// The effective severity of a rule given its catalog default;
    /// `None` means suppressed.
    #[must_use]
    pub fn severity_for(&self, rule: &str, default: Severity) -> Option<Severity> {
        match self.levels.get(rule) {
            Some(level) => level.severity(),
            None => Some(default),
        }
    }

    /// The first waiver covering a rule + object, if any.
    #[must_use]
    pub fn waiver_for(&self, rule: &str, object: &str) -> Option<&Waiver> {
        self.waivers.iter().find(|w| w.covers(rule, object))
    }

    /// All waivers.
    #[must_use]
    pub fn waivers(&self) -> &[Waiver] {
        &self.waivers
    }

    /// Parses the textual configuration format:
    ///
    /// ```text
    /// # comments and blank lines are ignored
    /// level high-fanout error
    /// waive multiple-drivers top/bus* external tristate bus
    /// fanout-limit 32
    /// port-width-limit 48
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut config = LintConfig::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = |msg: &str| Err(format!("line {}: {msg}: {line}", lineno + 1));
            let mut words = line.split_whitespace();
            match words.next() {
                Some("level") => {
                    let (Some(rule), Some(level)) = (words.next(), words.next()) else {
                        return bad("expected `level <rule> <allow|warning|error>`");
                    };
                    let level = match level {
                        "allow" => LintLevel::Allow,
                        "warning" => LintLevel::Warning,
                        "error" => LintLevel::Error,
                        _ => return bad("unknown level"),
                    };
                    config.set_level(rule, level);
                }
                Some("waive") => {
                    let (Some(rule), Some(object)) = (words.next(), words.next()) else {
                        return bad("expected `waive <rule> <object> <reason...>`");
                    };
                    let reason = words.collect::<Vec<_>>().join(" ");
                    if reason.is_empty() {
                        return bad("waiver requires a reason");
                    }
                    config.waive(rule, object, reason);
                }
                Some("fanout-limit") => {
                    let Some(n) = words.next().and_then(|w| w.parse().ok()) else {
                        return bad("expected `fanout-limit <n>`");
                    };
                    config.max_fanout = n;
                }
                Some("port-width-limit") => {
                    let Some(n) = words.next().and_then(|w| w.parse().ok()) else {
                        return bad("expected `port-width-limit <n>`");
                    };
                    config.max_port_width = n;
                }
                _ => return bad("unknown directive"),
            }
        }
        Ok(config)
    }

    /// Serializes back to the [`LintConfig::parse`] format (stable
    /// ordering: limits, levels sorted by rule, waivers in insertion
    /// order).
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("fanout-limit {}\n", self.max_fanout));
        out.push_str(&format!("port-width-limit {}\n", self.max_port_width));
        let mut levels: Vec<_> = self.levels.iter().collect();
        levels.sort();
        for (rule, level) in levels {
            out.push_str(&format!("level {rule} {level}\n"));
        }
        for w in &self.waivers {
            out.push_str(&format!("waive {} {} {}\n", w.rule, w.object, w.reason));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiver_patterns() {
        let w = Waiver {
            rule: "dead-logic".to_owned(),
            object: "top/u0/*".to_owned(),
            reason: "spare logic".to_owned(),
        };
        assert!(w.covers("dead-logic", "top/u0/lut3"));
        assert!(!w.covers("dead-logic", "top/u1/lut3"));
        assert!(!w.covers("high-fanout", "top/u0/lut3"));
        let any = Waiver {
            rule: "*".to_owned(),
            object: "top/dbg".to_owned(),
            reason: "debug hook".to_owned(),
        };
        assert!(any.covers("dead-logic", "top/dbg"));
    }

    #[test]
    fn default_is_new() {
        assert_eq!(LintConfig::default(), LintConfig::new());
    }

    #[test]
    fn levels_override_defaults() {
        let mut config = LintConfig::new();
        assert_eq!(
            config.severity_for("x", Severity::Warning),
            Some(Severity::Warning)
        );
        config.set_level("x", LintLevel::Error);
        assert_eq!(
            config.severity_for("x", Severity::Warning),
            Some(Severity::Error)
        );
        config.set_level("x", LintLevel::Allow);
        assert_eq!(config.severity_for("x", Severity::Warning), None);
    }

    #[test]
    fn parse_round_trips() {
        let text = "fanout-limit 32\nport-width-limit 48\nlevel high-fanout error\nwaive dead-logic top/u0/* spare logic kept for ECO\n";
        let config = LintConfig::parse(text).expect("parse");
        assert_eq!(config.max_fanout, 32);
        assert_eq!(config.max_port_width, 48);
        assert_eq!(config.to_text(), text);
        assert_eq!(LintConfig::parse(&config.to_text()), Ok(config));
    }

    #[test]
    fn parse_errors_name_the_line() {
        assert!(LintConfig::parse("level only-two")
            .unwrap_err()
            .contains("line 1"));
        assert!(LintConfig::parse("waive r obj")
            .unwrap_err()
            .contains("reason"));
        assert!(LintConfig::parse("frobnicate 3")
            .unwrap_err()
            .contains("unknown directive"));
    }
}
