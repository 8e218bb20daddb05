//! Netlist static analysis for the IP delivery flow.
//!
//! The paper's applet model delivers *executables* that evaluate IP in
//! the customer's browser; a vendor shipping a broken netlist finds
//! out from the customer. This crate is the gate in front of that:
//! a pass framework over the flattened design
//! ([`ipd_hdl::FlatNetlist`]) that runs structural, clocking and
//! reachability analyses and produces a [`LintReport`] with stable
//! text/JSON serializations. `ipd-core`'s sealed-delivery path
//! refuses to package designs whose report contains unwaived errors.
//!
//! # Architecture
//!
//! * [`LintModel`] — the design's [`ipd_techlib::FlatIndex`]
//!   (connectivity, primitive kinds, the combinational graph with
//!   SRL/RAM read paths in one evaluation order, sequential elements
//!   with clock domains, Tarjan SCCs), built once per run and shared
//!   with the timing and semantic passes' engines, plus lint's own
//!   constant analysis.
//! * [`Pass`] — a pure analysis over the model emitting diagnostics
//!   through [`PassCtx`], which applies [`LintConfig`] severity
//!   overrides and waivers.
//! * [`Linter`] — drives [`default_passes`] and aggregates a
//!   [`LintReport`].
//!
//! # Examples
//!
//! ```
//! use ipd_hdl::{Circuit, PortSpec, Primitive};
//! use ipd_lint::{LintConfig, LintLevel, Linter};
//!
//! # fn main() -> Result<(), ipd_hdl::HdlError> {
//! let mut circuit = Circuit::new("top");
//! let mut ctx = circuit.root_ctx();
//! let a = ctx.add_port(PortSpec::input("a", 1))?;
//! let y = ctx.add_port(PortSpec::output("y", 1))?;
//! ctx.leaf(
//!     Primitive::new("virtex", "buf"),
//!     vec![PortSpec::input("i", 1), PortSpec::output("o", 1)],
//!     "b0",
//!     &[("i", a.into()), ("o", y.into())],
//! )?;
//!
//! let report = Linter::new().run(&circuit)?;
//! assert!(report.is_clean());
//!
//! // Rules can be re-levelled or waived per object path.
//! let mut config = LintConfig::new();
//! config.set_level("dead-logic", LintLevel::Error);
//! config.waive("high-fanout", "top/clk_tree/*", "dedicated route");
//! let report = Linter::with_config(config).run(&circuit)?;
//! assert!(report.is_clean());
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod dontcare;
mod model;
mod pass;
pub mod passes;
mod report;

pub use config::{LintConfig, LintLevel, Waiver};
pub use dontcare::{extract_dont_cares, DontCareEntry, DontCareReport};
pub use ipd_estimate::TimingConstraints;
pub use ipd_hdl::Severity;
pub use ipd_techlib::{CombNode, SeqElem};
pub use ipd_verify::OracleOptions;
pub use model::LintModel;
pub use pass::{default_passes, lint, rule_catalog, Linter, Pass, PassCtx, RuleInfo};
pub use passes::{x_reachable, SemanticPass, TimingPass};
pub use report::{LintDiag, LintReport, ProofTier, REPORT_SCHEMA_VERSION};
