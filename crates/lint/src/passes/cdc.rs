//! Clock-domain-crossing detection.
//!
//! Clock domains are the canonical clock-root nets of every sequential
//! element (the index follows buffer chains back to them). For each
//! sequential element, the pass walks the combinational cone behind
//! its data-side inputs; any source register clocked from a different
//! domain is a crossing. A crossing is tolerated only when it enters a
//! recognizable two-flop synchronizer: the destination flop samples
//! the source register output *directly* (no combinational logic on
//! the crossing wire) and its own output feeds another flop in the
//! same destination domain.

use std::collections::HashSet;

use ipd_hdl::{NetId, Severity};
use ipd_techlib::SeqElem;

use crate::model::LintModel;
use crate::pass::{Pass, PassCtx, RuleInfo};

/// Flags unsynchronized clock-domain crossings.
pub struct CdcPass;

const CDC_RULES: &[RuleInfo] = &[RuleInfo {
    id: "cdc-unsync",
    severity: Severity::Warning,
    help: "data crosses clock domains without a two-flop synchronizer",
}];

/// Registers in the combinational fan-in of `nets`, found by walking
/// producer nodes backwards. Returns sorted indices into `model.seq()`.
fn source_registers(model: &LintModel<'_>, nets: &[NetId]) -> Vec<usize> {
    let mut sources = Vec::new();
    let mut seen: HashSet<NetId> = HashSet::new();
    let mut work: Vec<NetId> = nets.to_vec();
    while let Some(n) = work.pop() {
        if !seen.insert(n) {
            continue;
        }
        if let Some(si) = model.seq_index_of_output(n) {
            sources.push(si);
            continue; // the register is a timing endpoint; stop here
        }
        if let Some(node) = model.producer(n) {
            work.extend(node.inputs.iter().copied());
        }
    }
    sources.sort_unstable();
    sources.dedup();
    sources
}

/// `true` when `dest` is the first stage of a two-flop synchronizer
/// sampling `source`: the crossing wire is register-to-register with
/// no logic, and `dest.q` directly feeds another flop in `dest`'s
/// domain.
fn is_synchronizer(model: &LintModel<'_>, source: &SeqElem, dest: &SeqElem) -> bool {
    if source.output != dest.d() {
        return false; // combinational logic on the crossing wire
    }
    model
        .seq()
        .iter()
        .any(|s2| s2.d() == dest.output && s2.domain == dest.domain && s2.leaf != dest.leaf)
}

impl Pass for CdcPass {
    fn name(&self) -> &'static str {
        "cdc"
    }

    fn rules(&self) -> &'static [RuleInfo] {
        CDC_RULES
    }

    fn run(&self, model: &LintModel<'_>, ctx: &mut PassCtx<'_>) {
        for dest in model.seq() {
            for si in source_registers(model, &dest.data_inputs) {
                let source = &model.seq()[si];
                if source.domain == dest.domain {
                    continue;
                }
                if is_synchronizer(model, source, dest) {
                    continue;
                }
                ctx.emit(
                    "cdc-unsync",
                    Severity::Warning,
                    model.leaf_path(dest.leaf),
                    format!(
                        "samples {} (domain {}) from domain {} without a synchronizer",
                        model.leaf_path(source.leaf),
                        model.net_name(source.domain),
                        model.net_name(dest.domain),
                    ),
                );
            }
        }
    }
}
