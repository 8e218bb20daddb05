//! # ipd-netlist — EDIF, VHDL and Verilog netlist generation
//!
//! JHDL exposes an open netlister API so a circuit data structure can be
//! regenerated "in one of many possible formats"; the paper's applets
//! use it to deliver instance-specific netlists to licensed customers.
//! This crate provides that capability:
//!
//! - [`edif_string`] / [`write_edif`] — hierarchical EDIF 2.0.0, the
//!   format behind the applet's *Netlist* button, with `rename`
//!   constructs preserving original JHDL names and `INIT`/`RLOC`
//!   properties on primitive instances.
//! - [`vhdl_string`] / [`write_vhdl`] — flat structural VHDL-93.
//! - [`verilog_string`] / [`write_verilog`] — flat structural
//!   Verilog-2001.
//! - [`SExpr`] — an s-expression reader used to verify generated EDIF
//!   round-trips (and usable for custom interchange formats).
//! - [`NameTable`] — injective identifier legalization per dialect.
//!
//! # Example
//!
//! ```
//! use ipd_hdl::{Circuit, PortSpec};
//! use ipd_netlist::{edif_string, SExpr};
//! use ipd_techlib::LogicCtx;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut circuit = Circuit::new("top");
//! let mut ctx = circuit.root_ctx();
//! let a = ctx.add_port(PortSpec::input("a", 1))?;
//! let y = ctx.add_port(PortSpec::output("y", 1))?;
//! ctx.inv(a, y)?;
//!
//! let edif = edif_string(&circuit)?;
//! let parsed = SExpr::parse(&edif)?; // generated EDIF always reparses
//! assert_eq!(parsed.head(), Some("edif"));
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod edif;
mod edif_read;
mod error;
mod names;
mod sexpr;
mod testbench;
mod verilog;
mod vhdl;

pub use edif::{edif_string, write_edif};
pub use edif_read::read_edif;
pub use error::NetlistError;
pub use names::{legalize_probes, Dialect, NameTable};
pub use sexpr::{Items, SExpr, SNode};
pub use testbench::{testbench_verilog, TestVector};
pub use verilog::{verilog_from_flat, verilog_string, write_verilog};
pub use vhdl::{vhdl_from_flat, vhdl_string, write_vhdl};

/// The netlist formats an IP delivery executable can offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetlistFormat {
    /// Hierarchical EDIF 2.0.0.
    Edif,
    /// Flat structural VHDL-93.
    Vhdl,
    /// Flat structural Verilog-2001.
    Verilog,
}

impl NetlistFormat {
    /// All supported formats.
    #[must_use]
    pub fn all() -> [NetlistFormat; 3] {
        [
            NetlistFormat::Edif,
            NetlistFormat::Vhdl,
            NetlistFormat::Verilog,
        ]
    }

    /// Conventional file extension.
    #[must_use]
    pub fn extension(&self) -> &'static str {
        match self {
            NetlistFormat::Edif => "edf",
            NetlistFormat::Vhdl => "vhd",
            NetlistFormat::Verilog => "v",
        }
    }

    /// Generates a netlist in this format.
    ///
    /// # Errors
    ///
    /// Propagates the underlying writer's errors.
    pub fn generate(&self, circuit: &ipd_hdl::Circuit) -> Result<String, NetlistError> {
        match self {
            NetlistFormat::Edif => edif_string(circuit),
            NetlistFormat::Vhdl => vhdl_string(circuit),
            NetlistFormat::Verilog => verilog_string(circuit),
        }
    }
}

impl std::fmt::Display for NetlistFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            NetlistFormat::Edif => "EDIF",
            NetlistFormat::Vhdl => "VHDL",
            NetlistFormat::Verilog => "Verilog",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipd_hdl::{Circuit, PortSpec};
    use ipd_techlib::LogicCtx;

    #[test]
    fn all_formats_generate() {
        let mut c = Circuit::new("fmt");
        let mut ctx = c.root_ctx();
        let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
        let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
        ctx.inv(a, y).unwrap();
        for fmt in NetlistFormat::all() {
            let text = fmt.generate(&c).expect("generate");
            assert!(!text.is_empty(), "{fmt} output empty");
        }
        assert_eq!(NetlistFormat::Edif.extension(), "edf");
        assert_eq!(NetlistFormat::Vhdl.to_string(), "VHDL");
    }
}
