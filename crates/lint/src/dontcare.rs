//! Don't-care extraction as a shippable artifact.
//!
//! Synthesis-style don't-cares are useful beyond lint findings: a
//! downstream optimizer (or a customer inspecting delivered IP) wants
//! the full per-node map, not just the gates the linter flagged. This
//! module walks every combinational node of a design and asks the
//! `ipd-verify` oracle for its satisfiability don't-cares (input
//! minterms the surrounding logic can never produce) and observability
//! don't-cares (minterms under which the node's output is invisible),
//! collecting them into a [`DontCareReport`] with a deterministic JSON
//! serialization.
//!
//! Extraction is separate from [`crate::Linter::with_oracle`] on
//! purpose: ODC extraction lowers a flipped design copy per node, so
//! the full sweep costs far more than a lint run and is opt-in.

use std::sync::Arc;

use ipd_hdl::FlatNetlist;
use ipd_techlib::FlatIndex;
use ipd_verify::{CubeList, Oracle, OracleOptions, VerifyError};

use crate::model::LintModel;
use crate::passes;

/// Don't-care sets of one combinational node.
#[derive(Debug, Clone)]
pub struct DontCareEntry {
    /// The node's output net (hierarchical name).
    pub net: String,
    /// The driving leaf's instance path.
    pub leaf: String,
    /// Satisfiability don't-cares (`None` when the node was skipped —
    /// e.g. more inputs than the cube encoding supports).
    pub sdc: Option<CubeList>,
    /// Observability don't-cares, same convention. Every SDC minterm
    /// is also an ODC minterm (an unreachable input is trivially
    /// unobservable), so `odc` is a superset when both are complete.
    pub odc: Option<CubeList>,
}

/// The per-design don't-care artifact.
#[derive(Debug, Clone)]
pub struct DontCareReport {
    /// The design the sets were extracted from.
    pub design: String,
    /// One entry per examined combinational node, in dataflow order.
    pub nodes: Vec<DontCareEntry>,
    /// Nodes skipped because the extraction cap was reached.
    pub skipped: usize,
}

impl DontCareReport {
    /// Total don't-care minterms across all entries (SDC + ODC).
    #[must_use]
    pub fn total_minterms(&self) -> usize {
        self.nodes
            .iter()
            .flat_map(|n| [&n.sdc, &n.odc])
            .filter_map(|c| c.as_ref())
            .map(|c| c.minterms.len())
            .sum()
    }

    /// Deterministic JSON serialization (hand-rolled; the workspace
    /// has no registry dependencies).
    #[must_use]
    pub fn to_json(&self) -> String {
        let cubes = |out: &mut String, c: &Option<CubeList>| match c {
            None => out.push_str("null"),
            Some(c) => {
                out.push_str(&format!(
                    "{{\"inputs\": [{}], \"minterms\": [{}], \"complete\": {}}}",
                    c.inputs
                        .iter()
                        .map(|i| format!("\"{i}\""))
                        .collect::<Vec<_>>()
                        .join(", "),
                    c.minterms
                        .iter()
                        .map(u16::to_string)
                        .collect::<Vec<_>>()
                        .join(", "),
                    c.complete
                ));
            }
        };
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"design\": \"{}\",\n", self.design));
        out.push_str(&format!("  \"skipped\": {},\n", self.skipped));
        out.push_str("  \"nodes\": [");
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"net\": \"{}\", \"leaf\": \"{}\", \"sdc\": ",
                n.net, n.leaf
            ));
            cubes(&mut out, &n.sdc);
            out.push_str(", \"odc\": ");
            cubes(&mut out, &n.odc);
            out.push('}');
        }
        if !self.nodes.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Extracts per-node don't-care sets from a flattened design.
///
/// `cap` bounds the number of nodes examined (0 = unlimited); nodes
/// beyond it are counted in [`DontCareReport::skipped`], never
/// silently dropped. Buffers, fanout-free nets, and nodes the oracle
/// cannot encode are excluded up front.
///
/// # Errors
///
/// Propagates oracle construction failures; designs without a
/// two-valued model (loops, black boxes) yield an empty report
/// rather than an error.
pub fn extract_dont_cares(
    flat: impl Into<Arc<FlatNetlist>>,
    opts: OracleOptions,
    cap: usize,
) -> Result<DontCareReport, VerifyError> {
    let index = FlatIndex::new(flat);
    let model = LintModel::new(&index);
    let mut oracle = Oracle::new(&index, opts)?;
    let mut report = DontCareReport {
        design: index.flat().design_name().to_owned(),
        nodes: Vec::new(),
        skipped: 0,
    };
    if !oracle.has_model() {
        return Ok(report);
    }
    for &ni in model.topo_order() {
        let node = &model.comb_nodes()[ni];
        let Some(kind) = node.kind else { continue };
        if passes::floatconst::is_buffer(kind)
            || model.fanout(node.output) == 0
            || node.inputs.is_empty()
        {
            continue;
        }
        if cap != 0 && report.nodes.len() >= cap {
            report.skipped += 1;
            continue;
        }
        let sdc = oracle.sdc(node.output)?;
        let odc = oracle.odc(node.output)?;
        if sdc.is_none() && odc.is_none() {
            continue;
        }
        report.nodes.push(DontCareEntry {
            net: model.net_name(node.output).to_owned(),
            leaf: model.leaf_path(node.leaf).to_owned(),
            sdc,
            odc,
        });
    }
    Ok(report)
}
