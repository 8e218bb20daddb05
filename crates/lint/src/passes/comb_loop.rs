//! Combinational-loop detection.
//!
//! The design's index already holds the strongly connected components
//! of the combinational graph (Tarjan); this pass turns each looping
//! component into one diagnostic naming the member instances. Both
//! simulators, the timing estimator and the equivalence checker read
//! their loop verdict from the same index — the simulators relax
//! exactly these designs, the other two refuse them — which the
//! differential tests cross-check.

use ipd_hdl::Severity;

use crate::model::LintModel;
use crate::pass::{Pass, PassCtx, RuleInfo};

/// Flags strongly connected combinational components.
pub struct CombLoopPass;

const LOOP_RULES: &[RuleInfo] = &[RuleInfo {
    id: "comb-loop",
    severity: Severity::Error,
    help: "combinational logic feeds back on itself without a register",
}];

const MAX_NAMED: usize = 8;

impl Pass for CombLoopPass {
    fn name(&self) -> &'static str {
        "comb-loop"
    }

    fn rules(&self) -> &'static [RuleInfo] {
        LOOP_RULES
    }

    fn run(&self, model: &LintModel<'_>, ctx: &mut PassCtx<'_>) {
        for scc in model.loop_sccs() {
            let nodes = model.comb_nodes();
            let mut members: Vec<&str> = scc
                .iter()
                .take(MAX_NAMED)
                .map(|&n| model.leaf_path(nodes[n].leaf))
                .collect();
            members.sort_unstable();
            let elided = scc.len().saturating_sub(members.len());
            let mut message = format!(
                "combinational loop through {} instance(s): {}",
                scc.len(),
                members.join(", ")
            );
            if elided > 0 {
                message.push_str(&format!(", ... {elided} more"));
            }
            ctx.emit(
                "comb-loop",
                Severity::Error,
                model.leaf_path(nodes[scc[0]].leaf),
                message,
            );
        }
    }
}
