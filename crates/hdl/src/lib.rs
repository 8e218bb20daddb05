//! # ipd-hdl — a JHDL-style structural circuit data structure
//!
//! This crate is the foundation of the *IP Delivery for FPGAs Using
//! Applets and JHDL* reproduction: a hierarchical, technology-independent
//! structural circuit representation built by *executing* module
//! generators, exactly as JHDL builds circuits by executing Java
//! constructors.
//!
//! The main pieces:
//!
//! - [`Circuit`] — the arena owning every [`Cell`] and [`Wire`].
//! - [`CellCtx`] — a construction scope; the Rust counterpart of JHDL's
//!   `this` parent argument. Create wires, instance primitives, child
//!   generators and black boxes.
//! - [`Generator`] — the module-generator trait; parameters are ordinary
//!   struct fields and `build` is the construction program.
//! - [`Signal`] — a concatenation of wire slices, bound to ports.
//! - [`FlatNetlist`] — elaboration to single-bit nets for simulation,
//!   estimation and netlisting.
//! - [`validate`] — structural design-rule checks.
//! - [`Logic`] / [`LogicVec`] — the four-state value domain, and
//!   [`LogicColumn`], many equal-width values as bit-planes.
//!
//! # Example
//!
//! ```
//! use ipd_hdl::{Circuit, FnGenerator, PortSpec, Primitive, Signal};
//!
//! # fn main() -> Result<(), ipd_hdl::HdlError> {
//! // A 2:1 mux built from gates, JHDL style.
//! let mux = FnGenerator::new(
//!     "mux2",
//!     vec![
//!         PortSpec::input("a", 1),
//!         PortSpec::input("b", 1),
//!         PortSpec::input("sel", 1),
//!         PortSpec::output("y", 1),
//!     ],
//!     |ctx| {
//!         let (a, b, sel, y) = (
//!             ctx.port("a")?, ctx.port("b")?, ctx.port("sel")?, ctx.port("y")?,
//!         );
//!         let nsel = ctx.wire("nsel", 1);
//!         let t0 = ctx.wire("t0", 1);
//!         let t1 = ctx.wire("t1", 1);
//!         let p2 = vec![PortSpec::input("i", 1), PortSpec::output("o", 1)];
//!         ctx.leaf(Primitive::new("virtex", "inv"), p2, "inv",
//!                  &[("i", sel.into()), ("o", nsel.into())])?;
//!         let g2 = || vec![
//!             PortSpec::input("i0", 1), PortSpec::input("i1", 1), PortSpec::output("o", 1),
//!         ];
//!         ctx.leaf(Primitive::new("virtex", "and2"), g2(), "and_a",
//!                  &[("i0", a.into()), ("i1", nsel.into()), ("o", t0.into())])?;
//!         ctx.leaf(Primitive::new("virtex", "and2"), g2(), "and_b",
//!                  &[("i0", b.into()), ("i1", sel.into()), ("o", t1.into())])?;
//!         ctx.leaf(Primitive::new("virtex", "or2"), g2(), "or",
//!                  &[("i0", t0.into()), ("i1", t1.into()), ("o", y.into())])?;
//!         Ok(())
//!     },
//! );
//! let circuit = Circuit::from_generator(&mux)?;
//! assert_eq!(circuit.primitive_count(), 4);
//! assert!(ipd_hdl::validate(&circuit)?.is_clean());
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cell;
mod circuit;
mod error;
mod flatten;
mod id;
mod logic;
mod stats;
mod validate;
mod wire;

pub use cell::{Cell, CellKind, Port, PortDir, PortSpec, Primitive, PropertyValue, Rloc};
pub use circuit::{CellCtx, Circuit, FnGenerator, Generator};
pub use error::{HdlError, Result};
pub use flatten::{flatten_builds, FlatConn, FlatKind, FlatLeaf, FlatNet, FlatNetlist, FlatPort};
pub use id::{CellId, NetId, WireId};
pub use logic::{Logic, LogicColumn, LogicVec};
pub use stats::CircuitStats;
pub use validate::{validate, validate_flat, Severity, ValidationReport, Violation};
pub use wire::{Signal, Slice, Wire};
