//! # ipd — web-style FPGA IP evaluation and delivery
//!
//! A production-quality Rust reproduction of *IP Delivery for FPGAs
//! Using Applets and JHDL* (Wirthlin & McMurtrey, DAC 2002): a
//! JHDL-style structural design environment plus the capability-gated
//! applet machinery that lets an IP vendor deliver evaluate-before-you-
//! license FPGA cores over the web.
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`hdl`] | `ipd-hdl` | circuit data structure, generators, flattening, validation |
//! | [`techlib`] | `ipd-techlib` | Virtex-like primitives, area/delay models, device catalog |
//! | [`sim`] | `ipd-sim` | cycle simulator, waveforms, VCD |
//! | [`netlist`] | `ipd-netlist` | EDIF / VHDL / Verilog writers |
//! | [`estimate`] | `ipd-estimate` | area and timing estimation |
//! | [`lint`] | `ipd-lint` | netlist static analysis: CDC, dead logic, X-prop, waivers, lint-gated delivery |
//! | [`modgen`] | `ipd-modgen` | module generators (KCM multiplier, adders, FIR, …) |
//! | [`viewer`] | `ipd-viewer` | schematic / layout / hierarchy / waveform views |
//! | [`pack`] | `ipd-pack` | archives, LZSS, the Table 1 bundles |
//! | [`core`] | `ipd-core` | capabilities, licenses, applet host & sessions, protection |
//! | [`verify`] | `ipd-verify` | formal equivalence: AIG, CDCL SAT, fraig sweep, CEC, certificates |
//! | [`cosim`] | `ipd-cosim` | black-box co-simulation over sockets, baselines |
//! | [`wire`] | `ipd-wire` | the one framed transport under every socket: caps, deadlines, sessions, stats |
//!
//! # Quickstart
//!
//! ```
//! use ipd::core::{AppletHost, AppletSession, CapabilitySet, IpExecutable};
//! use ipd::modgen::KcmMultiplier;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's running example: -56 × x, 8-bit input, 12-bit product.
//! let kcm = KcmMultiplier::new(-56, 8, 12).signed(true);
//! let exe = IpExecutable::new("virtex-kcm", "byu", CapabilitySet::licensed());
//! let mut host = AppletHost::new();
//! host.load(&exe);
//! let mut session = AppletSession::new(&exe, &host, Box::new(kcm));
//! session.build()?;
//! println!("{}", session.estimate_area()?);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub use ipd_core as core;
pub use ipd_cosim as cosim;
pub use ipd_estimate as estimate;
pub use ipd_hdl as hdl;
pub use ipd_lint as lint;
pub use ipd_modgen as modgen;
pub use ipd_netlist as netlist;
pub use ipd_pack as pack;
pub use ipd_sim as sim;
pub use ipd_techlib as techlib;
pub use ipd_verify as verify;
pub use ipd_viewer as viewer;
pub use ipd_wire as wire;
