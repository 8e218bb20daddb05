//! Lint diagnostics and the report they accumulate into.
//!
//! The report serializes to two stable forms: a line-oriented text
//! format (`Display`) and JSON (`to_json`). Both orders are
//! deterministic — diagnostics sort by severity (errors first), then
//! rule, then object path — so reports diff cleanly across runs and
//! can be committed as golden files.

use std::cmp::Reverse;
use std::fmt;

use ipd_hdl::Severity;

/// Version of the JSON report schema emitted by
/// [`LintReport::to_json`]. Bumped whenever a field is added, removed
/// or renamed, so downstream consumers can detect incompatible
/// reports instead of mis-parsing them. Version 3 added the `proof`
/// field (the semantic-lint proof tier).
pub const REPORT_SCHEMA_VERSION: u32 = 3;

/// How strongly a finding is backed: the proof ladder.
///
/// Structural findings come from graph heuristics alone. The semantic
/// tier upgrades them: `Proved` means a SAT proof closed over every
/// input and reachable-state assignment, `RefutedWithWitness` means
/// the *safe* direction was disproved and the finding ships a
/// simulator-replayed witness vector, and `BudgetExhausted` means the
/// solver ran out of conflicts — the structural claim stands,
/// unconfirmed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProofTier {
    /// Graph-structural evidence only (the pre-semantic default).
    #[default]
    Structural,
    /// SAT-proved over all inputs and cut states.
    Proved,
    /// The safe claim was refuted; a replay-confirmed witness exists.
    RefutedWithWitness,
    /// The SAT budget ran out; the structural claim is unconfirmed.
    BudgetExhausted,
}

impl ProofTier {
    /// The stable identifier used in text and JSON reports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ProofTier::Structural => "structural",
            ProofTier::Proved => "proved",
            ProofTier::RefutedWithWitness => "refuted-with-witness",
            ProofTier::BudgetExhausted => "budget-exhausted",
        }
    }
}

impl fmt::Display for ProofTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One diagnostic produced by a lint pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintDiag {
    /// Effective severity after configuration overrides.
    pub severity: Severity,
    /// Stable rule identifier, e.g. `"cdc-unsync"`.
    pub rule: &'static str,
    /// Hierarchical path of the offending object (net or instance).
    pub object: String,
    /// Human-readable description.
    pub message: String,
    /// Waiver reason when the diagnostic was waived, else `None`.
    pub waived: Option<String>,
    /// How strongly the finding is backed (the proof ladder).
    pub proof: ProofTier,
}

impl fmt::Display for LintDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.waived {
            Some(reason) => write!(
                f,
                "waived {} [{}] {}: {} (waiver: {reason})",
                self.severity, self.rule, self.object, self.message
            )?,
            None => write!(
                f,
                "{} [{}] {}: {}",
                self.severity, self.rule, self.object, self.message
            )?,
        }
        // Structural is the historical default: omitting it keeps
        // pre-semantic golden outputs byte-identical.
        if self.proof != ProofTier::Structural {
            write!(f, " (proof: {})", self.proof)?;
        }
        Ok(())
    }
}

/// The aggregated result of a lint run.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    diags: Vec<LintDiag>,
    waived: Vec<LintDiag>,
}

impl LintReport {
    pub(crate) fn push(&mut self, diag: LintDiag) {
        if diag.waived.is_some() {
            self.waived.push(diag);
        } else {
            self.diags.push(diag);
        }
    }

    /// Sorts both sections into the stable report order, comparing
    /// borrowed keys.
    pub(crate) fn finish(&mut self) {
        let order = |a: &LintDiag, b: &LintDiag| {
            let key = (Reverse(a.severity), a.rule, &a.object, &a.message);
            key.cmp(&(Reverse(b.severity), b.rule, &b.object, &b.message))
        };
        self.diags.sort_by(order);
        self.waived.sort_by(order);
    }

    /// Active (non-waived) diagnostics, errors first.
    #[must_use]
    pub fn diags(&self) -> &[LintDiag] {
        &self.diags
    }

    /// Diagnostics suppressed by waivers (still reported for audit).
    #[must_use]
    pub fn waived(&self) -> &[LintDiag] {
        &self.waived
    }

    /// Active diagnostics of a given rule.
    pub fn by_rule<'a>(&'a self, rule: &'a str) -> impl Iterator<Item = &'a LintDiag> + 'a {
        self.diags.iter().filter(move |d| d.rule == rule)
    }

    /// Count of active error-severity diagnostics.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Count of active warning-severity diagnostics.
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// `true` when no active error-severity diagnostics exist.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// One-line summary, e.g. `"2 error(s), 1 warning(s), 3 waived"`.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} error(s), {} warning(s), {} waived",
            self.error_count(),
            self.warning_count(),
            self.waived.len()
        )
    }

    /// Serializes the report to JSON (hand-rolled; the workspace has no
    /// registry dependencies). The output is fully deterministic:
    /// `schema_version` leads, field order is fixed, and both
    /// diagnostic arrays are in the stable sort order established by
    /// `finish` (severity, rule, object, message) — so reports can be
    /// committed as golden files and diffed across runs.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema_version\": {REPORT_SCHEMA_VERSION},\n"));
        out.push_str(&format!(
            "  \"errors\": {},\n  \"warnings\": {},\n  \"waived\": {},\n",
            self.error_count(),
            self.warning_count(),
            self.waived.len()
        ));
        out.push_str("  \"diagnostics\": [");
        push_diag_array(&mut out, &self.diags);
        out.push_str("],\n  \"waivers\": [");
        push_diag_array(&mut out, &self.waived);
        out.push_str("]\n}\n");
        out
    }
}

fn push_diag_array(out: &mut String, diags: &[LintDiag]) {
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!(
            "\"severity\": \"{}\", \"rule\": \"{}\", \"object\": \"{}\", \"message\": \"{}\", \"proof\": \"{}\"",
            d.severity,
            d.rule,
            json_escape(&d.object),
            json_escape(&d.message),
            d.proof
        ));
        if let Some(reason) = &d.waived {
            out.push_str(&format!(", \"waiver\": \"{}\"", json_escape(reason)));
        }
        out.push('}');
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diags {
            writeln!(f, "{d}")?;
        }
        for d in &self.waived {
            writeln!(f, "{d}")?;
        }
        writeln!(f, "lint: {}", self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(severity: Severity, rule: &'static str, object: &str) -> LintDiag {
        LintDiag {
            severity,
            rule,
            object: object.to_owned(),
            message: format!("problem at {object}"),
            waived: None,
            proof: ProofTier::Structural,
        }
    }

    #[test]
    fn proof_tier_renders_in_text_and_json() {
        let mut r = LintReport::default();
        let mut d = diag(Severity::Warning, "dead-logic", "top/u1");
        d.proof = ProofTier::Proved;
        r.push(d);
        r.push(diag(Severity::Warning, "dead-logic", "top/u2"));
        r.finish();
        let text = r.to_string();
        assert!(text.contains("top/u1: problem at top/u1 (proof: proved)"));
        assert!(!text.contains("top/u2: problem at top/u2 (proof:"));
        let json = r.to_json();
        assert!(json.contains("\"proof\": \"proved\""));
        assert!(json.contains("\"proof\": \"structural\""));
        assert!(json.contains("\"schema_version\": 3"));
    }

    #[test]
    fn report_orders_errors_first() {
        let mut r = LintReport::default();
        r.push(diag(Severity::Warning, "b-rule", "z"));
        r.push(diag(Severity::Error, "a-rule", "m"));
        r.push(diag(Severity::Warning, "a-rule", "a"));
        r.finish();
        let rules: Vec<_> = r.diags().iter().map(|d| (d.severity, d.rule)).collect();
        assert_eq!(
            rules,
            vec![
                (Severity::Error, "a-rule"),
                (Severity::Warning, "a-rule"),
                (Severity::Warning, "b-rule"),
            ]
        );
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 2);
        assert!(!r.is_clean());
    }

    #[test]
    fn waived_diags_do_not_count_as_errors() {
        let mut r = LintReport::default();
        let mut d = diag(Severity::Error, "x", "obj");
        d.waived = Some("reviewed".to_owned());
        r.push(d);
        r.finish();
        assert!(r.is_clean());
        assert_eq!(r.diags().len(), 0);
        assert_eq!(r.waived().len(), 1);
        assert!(r.to_string().contains("waiver: reviewed"));
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let mut r = LintReport::default();
        r.push(diag(Severity::Error, "rule", "a\"b"));
        r.finish();
        let json = r.to_json();
        assert!(json.contains("\"errors\": 1"));
        assert!(json.contains("a\\\"b"));
        assert_eq!(json, r.to_json());
    }

    #[test]
    fn empty_report_json() {
        let r = LintReport::default();
        let json = r.to_json();
        assert!(json.contains("\"diagnostics\": []"));
        assert!(json.contains("\"waivers\": []"));
    }
}
