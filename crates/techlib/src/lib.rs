//! # ipd-techlib — the Virtex-like FPGA technology library
//!
//! JHDL circuits are technology independent; a technology library gives
//! the primitives meaning. This crate supplies the reproduction's
//! Virtex-like library:
//!
//! - [`PrimKind`] — the primitive set (gates, LUTs, carry chain,
//!   flip-flops, SRL16/RAM16/ROM16, constants, pads) with port
//!   interfaces and four-state behavioural models.
//! - [`LogicCtx`] — JHDL-flavoured construction helpers
//!   (`ctx.and2(a, b, o)?`).
//! - [`AreaCost`] / [`area_of`] — the area model with slice packing.
//! - [`DelayModel`] — primitive and routing delays for timing
//!   estimation.
//! - [`Device`] — the XCV50…XCV1000 part catalog for fit checks and
//!   layout views.
//! - [`FlatIndex`] — the structural index of a flattened design that
//!   lint, timing analysis, simulation and equivalence checking share.
//!
//! # Example
//!
//! ```
//! use ipd_hdl::Circuit;
//! use ipd_techlib::{area_of, Device, LogicCtx, PrimKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut circuit = Circuit::new("demo");
//! let mut ctx = circuit.root_ctx();
//! let a = ctx.wire("a", 1);
//! let b = ctx.wire("b", 1);
//! let y = ctx.wire("y", 1);
//! ctx.xor2(a, b, y)?;
//!
//! let kind = PrimKind::from_primitive(
//!     circuit
//!         .cell(ipd_hdl::CellId::from_index(1))
//!         .kind()
//!         .as_primitive()
//!         .expect("leaf"),
//! )?;
//! assert_eq!(area_of(&kind).luts, 1);
//! assert!(Device::by_name("xcv50").is_some());
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod area;
mod builder;
mod delay;
mod device;
mod error;
mod index;
mod prim;

pub use area::{area_of, AreaCost};
pub use builder::LogicCtx;
pub use delay::{DelayModel, NetDelaySource, RoutedDelays};
pub use device::Device;
pub use error::TechError;
pub use index::{index_builds, CombNode, FlatIndex, InputNets, SeqElem};
pub use prim::{FfControl, PrimClass, PrimKind, LIBRARY};
