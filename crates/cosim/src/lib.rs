//! # ipd-cosim — black-box co-simulation over sockets
//!
//! The paper's §4.2 and Figure 4: a protected IP applet exposes only a
//! *port-level simulation model*, which the customer wires into their
//! system simulation over a socket protocol — evaluating the IP in
//! context without ever seeing its internals. This crate implements
//! that architecture end to end, plus the remote-simulation baselines
//! the paper compares against:
//!
//! - [`Message`] / [`write_frame`] / [`read_frame`] — the protocol's
//!   payload encoding. Framing, size caps, deadlines and the
//!   handshake live in `ipd-wire`, shared with the delivery stack.
//! - [`BlackBoxServer`] — the applet side; binding requires the applet
//!   host's explicit network permission (§4.2 footnote). Started with
//!   [`BlackBoxServer::start`] it serves many customers concurrently
//!   (thread per session, each with its own model) and reports
//!   per-endpoint traffic; [`RunningBlackBox::shutdown`] stops it
//!   gracefully.
//! - [`BlackBoxClient`] over a [`Transport`]: [`TcpTransport`] (real
//!   sockets), [`InProcTransport`] (protocol without a wire) and
//!   [`LatencyTransport`] (injected WAN round-trip time).
//! - [`SimModel`] / [`LocalSimModel`] / [`BehavioralModel`] — the
//!   port-level model abstraction shared by local and remote parts.
//!   [`SimModel::run_batch`] ships a whole stimulus sweep in one
//!   transaction; [`LocalSimModel`] serves it with the lane-parallel
//!   compiled engine, and [`BlackBoxClient`] with a single round trip.
//!   Both pack the sweep into one [`LogicColumn`](ipd_hdl::LogicColumn)
//!   per port, the bit-plane form it crosses the wire and the compiled
//!   engine in ([`SimModel::run_columns`]).
//! - [`SystemSimulator`] — the customer's system simulation mixing
//!   several models (Figure 4 shows two applets plus local logic).
//! - [`DeliveryScenario`] / [`Approach`] — cost models quantifying the
//!   applet-versus-remote-simulation claim against Web-CAD \[2\] and
//!   JavaCAD \[1\].
//!
//! # Example
//!
//! In-process black-box evaluation (swap [`InProcTransport`] for
//! [`TcpTransport`] and a [`BlackBoxServer`] for the real socket
//! deployment):
//!
//! ```
//! use ipd_cosim::{BlackBoxClient, InProcTransport, LocalSimModel, SimModel};
//! use ipd_hdl::Circuit;
//! use ipd_modgen::KcmMultiplier;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let kcm = KcmMultiplier::new(-56, 8, 14).signed(true);
//! let circuit = Circuit::from_generator(&kcm)?;
//! let model = LocalSimModel::new(&circuit)?;
//! let mut client = BlackBoxClient::over(InProcTransport::new(model));
//! client.set("multiplicand", ipd_hdl::LogicVec::from_i64(3, 8))?;
//! assert_eq!(client.get("product")?.to_i64(), Some(-168));
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod client;
mod compare;
mod error;
mod model;
mod protocol;
mod server;
mod system;

pub use client::{BlackBoxClient, InProcTransport, LatencyTransport, TcpTransport, Transport};
pub use compare::{measure_local_event_cost, Approach, DeliveryScenario};
pub use error::CosimError;
pub use model::{batch_vector_count, run_batch_serial, BehavioralModel, LocalSimModel, SimModel};
pub use protocol::{endpoint_name, read_frame, write_frame, Message, MAX_FRAME};
pub use server::{BlackBoxServer, RunningBlackBox};
pub use system::{ModelId, SystemSimulator};
