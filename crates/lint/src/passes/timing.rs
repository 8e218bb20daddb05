//! Static timing pass: evaluates the design against a set of
//! [`TimingConstraints`] with the `ipd-estimate` STA engine and turns
//! slack into lint diagnostics, so timing closure rides the same
//! severity/waiver machinery as every structural rule.

use ipd_estimate::{Sta, TimingConstraints};
use ipd_hdl::Severity;
use ipd_techlib::{DelayModel, NetDelaySource};

use crate::model::LintModel;
use crate::pass::{Pass, PassCtx, RuleInfo};

/// Runs the STA engine under a constraint set and reports negative
/// setup slack as errors and unconstrained endpoints as warnings.
///
/// With an empty constraint set the pass is inert — an unconstrained
/// design is not a timing failure, it is simply not timed. A design
/// whose combinational graph is cyclic is also skipped silently:
/// [`crate::passes::CombLoopPass`] already reports the loop, and a
/// second diagnostic for the same root cause would be noise.
pub struct TimingPass {
    constraints: TimingConstraints,
    model: DelayModel,
}

impl TimingPass {
    /// A timing pass evaluating `constraints` under `model`.
    #[must_use]
    pub fn new(constraints: TimingConstraints, model: DelayModel) -> Self {
        TimingPass { constraints, model }
    }
}

const TIMING_RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "setup-violation",
        severity: Severity::Error,
        help: "endpoint fails its setup constraint (negative slack)",
    },
    RuleInfo {
        id: "unconstrained-endpoint",
        severity: Severity::Warning,
        help: "timing endpoint not covered by any clock or output-delay constraint",
    },
];

impl Pass for TimingPass {
    fn name(&self) -> &'static str {
        "timing"
    }

    fn rules(&self) -> &'static [RuleInfo] {
        TIMING_RULES
    }

    fn run(&self, model: &LintModel<'_>, ctx: &mut PassCtx<'_>) {
        if self.constraints.is_empty() {
            return;
        }
        let Ok(mut sta) = Sta::new(model.index(), &self.model, NetDelaySource::Heuristic) else {
            return; // comb loop: CombLoopPass owns that diagnostic
        };
        let report = sta.analyze(&self.constraints);
        for ep in &report.endpoints {
            if ep.slack_ns < 0.0 {
                ctx.emit(
                    "setup-violation",
                    Severity::Error,
                    ep.endpoint.clone(),
                    format!(
                        "setup slack {:.3} ns against clock {} (arrival {:.3} ns, required {:.3} ns, from {})",
                        ep.slack_ns, ep.clock, ep.arrival_ns, ep.required_ns, ep.startpoint
                    ),
                );
            }
        }
        for ep in &report.unconstrained {
            ctx.emit(
                "unconstrained-endpoint",
                Severity::Warning,
                ep.clone(),
                "endpoint is not covered by any constraint; its paths are untimed",
            );
        }
    }
}
