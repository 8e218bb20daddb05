//! # ipd-viewer — schematic, layout, hierarchy and waveform views
//!
//! The paper's IP evaluation applets embed JHDL's viewers so a customer
//! can *see* the IP before licensing it: a schematic browser (their
//! Figure 3), a relative-layout view, a hierarchy browser and a
//! waveform viewer. This crate supplies deterministic text/SVG
//! renderings of the same information, suitable for terminals, logs
//! and web pages:
//!
//! - [`schematic_text`] / [`schematic_svg`] — one hierarchy level with
//!   instances and connections.
//! - [`hierarchy_tree`] — the full design tree with statistics.
//! - [`layout_grid`] — CLB-grid occupancy from the placement of an
//!   elaborated design.
//! - [`route_grid`] / [`route_dump`] — channel-occupancy overlay and
//!   per-net route listings from the global router.
//! - [`waveform_text`] — recorded simulation traces.
//!
//! # Example
//!
//! ```
//! use ipd_hdl::{Circuit, FlatNetlist};
//! use ipd_modgen::RippleAdder;
//! use ipd_viewer::{hierarchy_tree, layout_grid, schematic_text};
//!
//! # fn main() -> Result<(), ipd_hdl::HdlError> {
//! let circuit = Circuit::from_generator(&RippleAdder::new(4))?;
//! let tree = hierarchy_tree(&circuit);
//! let schematic = schematic_text(&circuit, circuit.root());
//! let layout = layout_grid(&FlatNetlist::build(&circuit)?);
//! assert!(tree.contains("add_w4"));
//! assert!(schematic.contains("muxcy"));
//! assert!(layout.contains("|"));
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod hierarchy;
mod layout;
mod schematic;
mod wave;

pub use hierarchy::hierarchy_tree;
pub use layout::{layout_grid, route_dump, route_grid};
pub use schematic::{schematic_svg, schematic_text};
pub use wave::waveform_text;
