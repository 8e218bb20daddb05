//! Formal equivalence engine for delivered IP.
//!
//! Delivery pipelines transform netlists — module generators
//! re-emit them, optimizers restructure them, tools round-trip them
//! through EDIF. This crate proves, rather than spot-checks, that a
//! revised netlist still computes the same function as its golden
//! reference:
//!
//! 1. **AIG lowering** ([`aig`], [`lower`]) — combinational cones
//!    compile into a shared and-inverter graph with structural
//!    hashing, constant folding, and two-level rewriting. Sequential
//!    designs reduce to per-cone CEC across the register cut.
//! 2. **SAT core** ([`sat`]) — a self-contained CDCL solver (watched
//!    literals, first-UIP learning, VSIDS, Luby restarts) answers the
//!    miter queries; a simulation-guided sweep ([`cec`]) buckets
//!    candidate-equivalent nodes by 256-lane random signatures and
//!    merges proved pairs so most outputs never reach SAT.
//! 3. **Equivalence checking** ([`equiv`]) — [`check_equiv`] matches
//!    primary I/O and state boundaries between two designs and
//!    returns [`EquivVerdict::Equivalent`] or a distinguishing input
//!    vector. Every counterexample is replayed through both
//!    simulation engines ([`replay`]) before it is reported.
//!
//! The engine is deliberately two-valued: designs with combinational
//! loops, black boxes, or undriven nets are refused up front, because
//! a two-valued proof would be unsound against the simulators'
//! four-state semantics there.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aig;
pub mod cec;
pub mod equiv;
mod error;
pub mod lower;
pub mod oracle;
pub mod replay;
pub mod sat;

pub use aig::{Aig, Lit, FALSE, TRUE};
pub use cec::{CecOptions, CecResult, CecStats};
pub use equiv::{
    check_equiv, Counterexample, EquivConfig, EquivReport, EquivVerdict, StateAssign, StateMatch,
};
pub use error::VerifyError;
pub use lower::{lower_design, lower_into, LoweredDesign, OutId, OutputFn};
pub use oracle::{
    CubeList, Oracle, OracleOptions, OracleStats, ReachSet, Verdict, Witness, WitnessCheck,
};
pub use sat::{SatLit, SatResult, Solver};
