//! The built-in analysis passes.
//!
//! Each pass is a pure function over the shared [`crate::LintModel`];
//! see `DESIGN.md` for the rule catalog. Pass order is fixed by
//! [`crate::default_passes`], but passes are independent — none reads
//! another's diagnostics.

mod cdc;
mod comb_loop;
mod dead;
mod fanout;
pub(crate) mod floatconst;
mod seed;
mod semantic;
mod timing;
mod xprop;

pub use cdc::CdcPass;
pub use comb_loop::CombLoopPass;
pub use dead::DeadLogicPass;
pub use fanout::FanoutPass;
pub use floatconst::FloatConstPass;
pub use seed::SeedRulesPass;
pub use semantic::SemanticPass;
pub use timing::TimingPass;
pub use xprop::{x_reachable, XPropPass};

use ipd_hdl::Severity;

use crate::model::LintModel;
use crate::pass::{Pass, PassCtx, RuleInfo};

/// Reports leaves whose primitive reference could not be interpreted
/// against the technology library. Every other pass silently excludes
/// such leaves from its graphs, so this pass makes the blind spot
/// visible.
pub struct ModelPass;

const MODEL_RULES: &[RuleInfo] = &[RuleInfo {
    id: "unknown-primitive",
    severity: Severity::Error,
    help: "leaf references a primitive the technology library cannot interpret",
}];

impl Pass for ModelPass {
    fn name(&self) -> &'static str {
        "model"
    }

    fn rules(&self) -> &'static [RuleInfo] {
        MODEL_RULES
    }

    fn run(&self, model: &LintModel<'_>, ctx: &mut PassCtx<'_>) {
        for (leaf, error) in model.unknown_primitives() {
            ctx.emit(
                "unknown-primitive",
                Severity::Error,
                model.leaf_path(*leaf),
                format!("unresolvable primitive: {error}"),
            );
        }
    }
}
