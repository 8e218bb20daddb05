//! The pass framework: the [`Pass`] trait, the emission context that
//! applies configuration (severity overrides + waivers), and the
//! [`Linter`] driver that builds one [`LintModel`] and runs every pass
//! over it.

use ipd_estimate::TimingConstraints;
use ipd_hdl::{Circuit, FlatNetlist, Severity};
use ipd_techlib::{DelayModel, FlatIndex};

use crate::config::LintConfig;
use crate::model::LintModel;
use crate::passes;
use crate::report::{LintDiag, LintReport, ProofTier};

/// Catalog entry for one rule a pass can fire.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable identifier, e.g. `"cdc-unsync"`.
    pub id: &'static str,
    /// Default severity before configuration overrides.
    pub severity: Severity,
    /// One-line description for `--rules` style listings.
    pub help: &'static str,
}

/// Emission context handed to each pass. Routes diagnostics through the
/// configuration: severity overrides are applied, `allow`ed rules are
/// dropped, and waived diagnostics go to the report's waived section.
pub struct PassCtx<'c> {
    config: &'c LintConfig,
    report: LintReport,
}

impl<'c> PassCtx<'c> {
    pub(crate) fn new(config: &'c LintConfig) -> Self {
        PassCtx {
            config,
            report: LintReport::default(),
        }
    }

    /// The active configuration (passes read limits from here).
    #[must_use]
    pub fn config(&self) -> &LintConfig {
        self.config
    }

    /// Emits a diagnostic. `default` is the rule's catalog severity;
    /// the configuration may re-level or suppress it, and a matching
    /// waiver moves it to the waived section.
    pub fn emit(
        &mut self,
        rule: &'static str,
        default: Severity,
        object: impl Into<String>,
        message: impl Into<String>,
    ) {
        self.emit_proof(rule, default, object, message, ProofTier::Structural);
    }

    /// [`PassCtx::emit`] with an explicit proof tier — used by the
    /// semantic pass family to record how strongly a finding is backed.
    pub fn emit_proof(
        &mut self,
        rule: &'static str,
        default: Severity,
        object: impl Into<String>,
        message: impl Into<String>,
        proof: ProofTier,
    ) {
        let Some(severity) = self.config.severity_for(rule, default) else {
            return;
        };
        let object = object.into();
        let waived = self
            .config
            .waiver_for(rule, &object)
            .map(|w| w.reason.clone());
        self.report.push(LintDiag {
            severity,
            rule,
            object,
            message: message.into(),
            waived,
            proof,
        });
    }

    pub(crate) fn into_report(mut self) -> LintReport {
        self.report.finish();
        self.report
    }
}

/// One static analysis over the shared [`LintModel`].
pub trait Pass {
    /// Short pass name for logs, e.g. `"cdc"`.
    fn name(&self) -> &'static str;
    /// The rules this pass can fire.
    fn rules(&self) -> &'static [RuleInfo];
    /// Runs the analysis, emitting diagnostics into `ctx`.
    fn run(&self, model: &LintModel<'_>, ctx: &mut PassCtx<'_>);
}

/// The lint driver: a configuration plus an ordered list of passes.
pub struct Linter {
    config: LintConfig,
    passes: Vec<Box<dyn Pass>>,
}

impl Default for Linter {
    fn default() -> Self {
        Linter::new()
    }
}

impl Linter {
    /// A linter with the default configuration and all built-in passes.
    #[must_use]
    pub fn new() -> Self {
        Linter::with_config(LintConfig::new())
    }

    /// A linter with all built-in passes and the given configuration.
    #[must_use]
    pub fn with_config(config: LintConfig) -> Self {
        Linter {
            config,
            passes: default_passes(),
        }
    }

    /// A linter with all built-in passes plus a [`passes::TimingPass`]
    /// evaluating `constraints` under the default Virtex delay model,
    /// so timing violations gate delivery exactly like structural lint
    /// errors (and can be waived the same way).
    #[must_use]
    pub fn with_timing(config: LintConfig, constraints: TimingConstraints) -> Self {
        let mut linter = Linter::with_config(config);
        linter.add_pass(Box::new(passes::TimingPass::new(
            constraints,
            DelayModel::virtex(),
        )));
        linter
    }

    /// A linter with the semantic tier enabled: the structural
    /// `dead-logic`/`constant-logic`/`x-reachable` passes are replaced
    /// by [`passes::SemanticPass`], which re-derives the structural
    /// findings and upgrades them with SAT proofs from an
    /// `ipd-verify` [`Oracle`](ipd_verify::Oracle) — confirming or
    /// dropping each claim, catching semantically-constant and
    /// redundant nodes structure alone misses, and adding bounded
    /// state-reachability findings. Every refutation ships a witness
    /// replayed through both simulation engines.
    #[must_use]
    pub fn with_oracle(config: LintConfig, opts: ipd_verify::OracleOptions) -> Self {
        let passes: Vec<Box<dyn Pass>> = vec![
            Box::new(passes::ModelPass),
            Box::new(passes::SeedRulesPass),
            Box::new(passes::CombLoopPass),
            Box::new(passes::CdcPass),
            Box::new(passes::FloatConstPass::floating_only()),
            Box::new(passes::FanoutPass),
            Box::new(passes::SemanticPass::new(opts)),
        ];
        Linter { config, passes }
    }

    /// A linter running only the given passes — for focused re-checks
    /// of a single rule family, or benchmarking one analysis.
    #[must_use]
    pub fn with_passes(config: LintConfig, passes: Vec<Box<dyn Pass>>) -> Self {
        Linter { config, passes }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &LintConfig {
        &self.config
    }

    /// Adds a custom pass after the built-in ones.
    pub fn add_pass(&mut self, pass: Box<dyn Pass>) -> &mut Self {
        self.passes.push(pass);
        self
    }

    /// Lints a hierarchical circuit (flattens first, so diagnostics
    /// carry full instance paths).
    ///
    /// # Errors
    ///
    /// Propagates flattening failures (e.g. recursive hierarchy); rule
    /// violations are *reported*, never returned as errors.
    pub fn run(&self, circuit: &Circuit) -> ipd_hdl::Result<LintReport> {
        let flat = FlatNetlist::build(circuit)?;
        Ok(self.run_flat(&flat))
    }

    /// Lints an already-flattened design.
    #[must_use]
    pub fn run_flat(&self, flat: &FlatNetlist) -> LintReport {
        self.run_index(&FlatIndex::new(flat))
    }

    /// Lints an indexed design; every pass, including the timing and
    /// semantic ones, reads this one index.
    #[must_use]
    pub fn run_index(&self, index: &FlatIndex<'_>) -> LintReport {
        let model = LintModel::new(index);
        let mut ctx = PassCtx::new(&self.config);
        for pass in &self.passes {
            pass.run(&model, &mut ctx);
        }
        ctx.into_report()
    }
}

/// All built-in passes in execution order.
#[must_use]
pub fn default_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(passes::ModelPass),
        Box::new(passes::SeedRulesPass),
        Box::new(passes::CombLoopPass),
        Box::new(passes::CdcPass),
        Box::new(passes::DeadLogicPass),
        Box::new(passes::FloatConstPass::default()),
        Box::new(passes::XPropPass),
        Box::new(passes::FanoutPass),
    ]
}

/// The full rule catalog across all built-in passes (plus the
/// opt-in timing and semantic passes), in pass order.
#[must_use]
pub fn rule_catalog() -> Vec<RuleInfo> {
    let mut all = default_passes();
    all.push(Box::new(passes::TimingPass::new(
        TimingConstraints::new(),
        DelayModel::virtex(),
    )));
    all.push(Box::new(passes::SemanticPass::new(
        ipd_verify::OracleOptions::default(),
    )));
    all.iter().flat_map(|p| p.rules().iter().copied()).collect()
}

/// Lints a circuit with the default configuration.
///
/// # Errors
///
/// Propagates flattening failures.
///
/// # Examples
///
/// ```
/// use ipd_hdl::Circuit;
///
/// # fn main() -> Result<(), ipd_hdl::HdlError> {
/// let report = ipd_lint::lint(&Circuit::new("empty"))?;
/// assert!(report.is_clean());
/// # Ok(())
/// # }
/// ```
pub fn lint(circuit: &Circuit) -> ipd_hdl::Result<LintReport> {
    Linter::new().run(circuit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LintLevel;

    #[test]
    fn catalog_has_unique_rule_ids() {
        let catalog = rule_catalog();
        assert!(catalog.len() >= 12, "expected a rich catalog");
        for (i, a) in catalog.iter().enumerate() {
            for b in &catalog[i + 1..] {
                assert_ne!(a.id, b.id, "duplicate rule id {}", a.id);
            }
        }
    }

    #[test]
    fn emit_respects_allow_override_and_waiver() {
        let mut config = LintConfig::new();
        config.set_level("a", LintLevel::Allow);
        config.set_level("b", LintLevel::Error);
        config.waive("c", "obj/*", "known good");
        let mut ctx = PassCtx::new(&config);
        ctx.emit("a", Severity::Error, "x", "dropped");
        ctx.emit("b", Severity::Warning, "y", "upgraded");
        ctx.emit("c", Severity::Error, "obj/net", "waived");
        ctx.emit("c", Severity::Error, "other", "kept");
        let report = ctx.into_report();
        assert_eq!(report.diags().len(), 2);
        assert_eq!(report.diags()[0].rule, "b");
        assert_eq!(report.diags()[0].severity, Severity::Error);
        assert_eq!(report.waived().len(), 1);
        assert_eq!(report.waived()[0].waived.as_deref(), Some("known good"));
    }
}
