//! X-propagation reachability.
//!
//! A *may*-analysis: which nets can ever carry an unknown value? X
//! sources are driverless nets, black-box outputs (contents unknown),
//! and combinational loops (a ring settles nowhere, so the simulator
//! reports X). Taint propagates forward through combinational nodes
//! and — across clock edges, hence the fixpoint — through sequential
//! elements; provably-constant nets block it, since a stuck-at net
//! can never go unknown. On loop-free designs built from
//! taint-exact primitives (inverters, buffers, XOR, flip-flops) the
//! analysis is *exact*, which the differential tests against the
//! scalar `Simulator` and the `CompiledSimulator` exploit: every
//! lint-marked net really goes X and no lint-clean net does.

use ipd_hdl::{PortDir, Severity};

use crate::model::LintModel;
use crate::pass::{Pass, PassCtx, RuleInfo};

/// Flags primary outputs that can carry X.
pub struct XPropPass;

const XPROP_RULES: &[RuleInfo] = &[RuleInfo {
    id: "x-reachable",
    severity: Severity::Warning,
    help: "a primary output can carry an unknown (X) value",
}];

/// Per-net X-reachability mask (index = net index).
///
/// Exposed so differential tests can compare the full mask against the
/// simulator, not just the primary-output subset the pass reports.
#[must_use]
pub fn x_reachable(model: &LintModel<'_>) -> Vec<bool> {
    let flat = model.flat();
    let konst = model.const_values();
    let mut x = vec![false; flat.net_count()];

    // Sources: driverless nets (Z at simulation time) ...
    for i in 0..flat.net_count() {
        if model.driver_count(ipd_hdl::NetId::from_index(i)) == 0 && konst[i].is_none() {
            x[i] = true;
        }
    }
    // ... black-box outputs (unknowable contents) ...
    for &bb in model.black_boxes() {
        for conn in &flat.leaves()[bb].conns {
            if conn.dir != PortDir::Input {
                for &n in &conn.nets {
                    x[n.index()] = true;
                }
            }
        }
    }
    // ... and combinational loops (never settle; the levelizer rejects
    // them and the event-driven simulator reports X).
    for scc in model.loop_sccs() {
        for &node in scc {
            x[model.comb_nodes()[node].output.index()] = true;
        }
    }

    // Forward fixpoint across comb nodes (in dataflow order, so the
    // combinational part settles in one sweep) and clock edges. Taint
    // only ever turns on, so this terminates.
    loop {
        let mut changed = false;
        let taint = |out: ipd_hdl::NetId, x: &mut Vec<bool>| {
            if !x[out.index()] && konst[out.index()].is_none() {
                x[out.index()] = true;
                true
            } else {
                false
            }
        };
        for &ni in model.topo_order() {
            let node = &model.comb_nodes()[ni];
            if node.inputs.iter().any(|n| x[n.index()]) {
                changed |= taint(node.output, &mut x);
            }
        }
        for seq in model.seq() {
            let tainted_in = seq
                .data_inputs
                .iter()
                .chain(std::iter::once(&seq.clock))
                .any(|n| x[n.index()]);
            if tainted_in {
                changed |= taint(seq.output, &mut x);
            }
        }
        if !changed {
            return x;
        }
    }
}

impl Pass for XPropPass {
    fn name(&self) -> &'static str {
        "x-prop"
    }

    fn rules(&self) -> &'static [RuleInfo] {
        XPROP_RULES
    }

    fn run(&self, model: &LintModel<'_>, ctx: &mut PassCtx<'_>) {
        let x = x_reachable(model);
        for port in model.flat().ports() {
            if port.dir == PortDir::Input {
                continue;
            }
            for (bit, &net) in port.nets.iter().enumerate() {
                if x[net.index()] {
                    ctx.emit(
                        "x-reachable",
                        Severity::Warning,
                        format!("{}[{bit}]", port.name),
                        format!(
                            "primary output can carry X (via net {})",
                            model.net_name(net)
                        ),
                    );
                }
            }
        }
    }
}
