//! # ipd-estimate — area and timing estimation
//!
//! The paper's IP delivery executables let a customer "experiment with
//! various parameters to estimate the speed, size and cost of the IP"
//! before licensing it. This crate is that circuit estimator:
//!
//! - [`estimate_area`] → [`AreaReport`]: LUT/FF/carry/pad totals, a
//!   per-primitive breakdown, slice packing and the smallest catalog
//!   device that fits.
//! - [`estimate_timing`] → [`TimingReport`]: the placement-aware worst
//!   path under the technology delay model, with its implied clock
//!   frequency, read off the standard STA propagation with no
//!   constraints ([`Sta::estimate`]).
//! - [`analyze_timing`] → [`StaReport`]: full static timing analysis
//!   under a [`TimingConstraints`] set ([`Sta::analyze`]) —
//!   per-endpoint setup slack, false-path/multicycle exceptions,
//!   critical-path enumeration and slack histograms. A gate that
//!   already indexed the design builds one [`Sta`] over its index.
//! - [`place_and_route`] → [`PhysicalDesign`]: annealed (or pinned
//!   hand-RLOC) placement, PathFinder-style congestion-negotiated
//!   global routing over the device CLB grid, and STA backannotated
//!   with routed wire lengths through the
//!   [`ipd_techlib::NetDelaySource`] seam.
//!
//! # Example
//!
//! ```
//! use ipd_estimate::{estimate_area, estimate_timing};
//! use ipd_hdl::{Circuit, PortSpec};
//! use ipd_techlib::LogicCtx;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut circuit = Circuit::new("t");
//! let mut ctx = circuit.root_ctx();
//! let clk = ctx.add_port(PortSpec::input("clk", 1))?;
//! let d = ctx.add_port(PortSpec::input("d", 1))?;
//! let q = ctx.add_port(PortSpec::output("q", 1))?;
//! let t = ctx.wire("t", 1);
//! ctx.inv(d, t)?;
//! ctx.fd(clk, t, q)?;
//!
//! let area = estimate_area(&circuit)?;
//! assert_eq!(area.total.luts, 1);
//! assert_eq!(area.total.ffs, 1);
//!
//! let timing = estimate_timing(&circuit)?;
//! assert!(timing.critical_path_ns > 0.0);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod area;
mod error;
mod place;
mod pnr;
pub mod route;
pub mod sta;
mod timing;

pub use area::{estimate_area, AreaReport};
pub use error::EstimateError;
pub use place::{auto_place, PlacementResult, PlacerConfig, PlacerMode};
pub use pnr::{place_and_route, PhysicalDesign, PnrConfig};
pub use route::{route, RouteStats, RoutedNet, RoutedSink, RouterConfig, RoutingResult};
pub use sta::{
    analyze_timing, ClockConstraint, ClockSlack, EndpointSlack, ExceptionKind, PathException,
    PathReport, PathStep, PortDelay, SlackHistogram, SlackSummary, Sta, StaReport,
    TimingConstraints,
};
pub use timing::{estimate_timing, TimingReport};
