//! # ipd-core — capability-gated FPGA IP evaluation and delivery
//!
//! The primary contribution of *IP Delivery for FPGAs Using Applets and
//! JHDL* (Wirthlin & McMurtrey, DAC 2002): vendors deliver FPGA IP as
//! web executables whose functionality — simulation, structural and
//! layout viewing, estimation, netlist generation — is composed per
//! customer, balancing customer *visibility* against vendor
//! *protection*.
//!
//! The pieces, mapped to the paper:
//!
//! - [`Capability`] / [`CapabilitySet`] — the visibility knobs of §3.2,
//!   with the Figure 2 presets ([`CapabilitySet::passive`],
//!   [`CapabilitySet::licensed`]) plus [`CapabilitySet::black_box`]
//!   for §4.2.
//! - [`License`] / [`LicenseAuthority`] — signed capability grants
//!   (HMAC-SHA-256; [`sha256`] and [`hmac_sha256`] are in-repo).
//! - [`AppletServer`] — the vendor web server that serves a
//!   per-profile [`IpExecutable`] and meters access.
//! - [`IpExecutable`] — an executable configuration: capabilities plus
//!   the code bundles they require (the Table 1 partitioning).
//! - [`AppletServer::fetch`] — compress-once, content-addressed
//!   delivery: every server reads the one process-wide bundle catalog
//!   of `ipd-pack`, so a bundle is packed at most once per process,
//!   bundles are named by SHA-256 content digest, and clients
//!   revalidate with digests (HTTP-304 semantics) so repeat visits
//!   transfer nothing; [`AppletServer::store_stats`] counts each
//!   server's hits, misses and 304s.
//! - [`AppletHost`] — the browser sandbox: bundle cache, resource
//!   limits, and the explicit network-permission gate of §4.2.
//! - [`DeliveryService`] / [`DeliveryClient`] — the vendor web server
//!   on a real socket: manifest, conditional fetch, sealed bundles,
//!   lint reports and sealed designs served over the shared
//!   `ipd-wire` transport to many concurrent customers, with the
//!   customer id authenticated in the wire handshake
//!   ([`AppletHost::sync_wire`] drives the same HTTP-304 flow
//!   remotely).
//! - [`AppletSession`] — the Figure 3 interaction surface: *build*,
//!   browse, *cycle*/*reset*, *netlist*; every operation capability
//!   checked.
//! - [`obfuscate`] / [`embed_watermark`] / [`verify_watermark`] — the
//!   §4.3 protection measures.
//! - [`seal_design`] / [`AppletServer::serve_design_sealed`] — the one
//!   gated delivery path: a design netlist is sealed to the customer
//!   key only after it clears every gate of its [`SealPolicy`]. The
//!   `ipd-lint` static analyzer (with the STA pass and the semantic
//!   tier when the policy asks) must find no unwaived error-severity
//!   problem, and, when the policy names a golden reference, the
//!   `ipd-verify` engine must prove the design functionally equivalent
//!   to it; a counterexample refuses delivery with the distinguishing
//!   vector. The surviving [`SealedDesign`] carries the report for
//!   audit and, under a golden gate, a digest-bound
//!   [`EquivCertificate`] over the sealed bytes.
//!
//! # Example
//!
//! ```
//! use ipd_core::{
//!     AppletHost, AppletServer, AppletSession, Capability, CapabilitySet,
//! };
//! use ipd_modgen::KcmMultiplier;
//!
//! # fn main() -> Result<(), ipd_core::CoreError> {
//! // Vendor side: enroll a passive evaluator and serve their applet.
//! let mut server = AppletServer::new("byu", b"vendor-key".to_vec());
//! server.enroll("acme", "virtex-kcm", CapabilitySet::passive(), 0, 365);
//! let executable = server.serve("acme", 30)?;
//!
//! // Customer side: run the applet in the browser sandbox.
//! let mut host = AppletHost::new();
//! host.load(&executable);
//! let kcm = KcmMultiplier::new(-56, 8, 12).signed(true);
//! let mut session = AppletSession::new(&executable, &host, Box::new(kcm));
//! session.build()?;
//! let area = session.estimate_area()?;        // allowed: estimation
//! assert!(area.total.luts > 0);
//! assert!(session.netlist(ipd_netlist::NetlistFormat::Edif).is_err());
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod capability;
mod catalog;
mod deliver;
mod error;
mod host;
mod license;
mod page;
mod protect;
mod remote;
mod seal;
mod session;
mod sha;
mod store;
mod verified;

pub use capability::{Capability, CapabilitySet};
pub use catalog::{CatalogEntry, GeneratorFactory, IpCatalog};
pub use deliver::{AppletServer, AuditRecord, IpExecutable};
pub use error::CoreError;
pub use host::{AppletHost, ResourceLimits};
pub use license::{License, LicenseAuthority};
pub use page::applet_page;
pub use protect::{embed_watermark, obfuscate, verify_watermark};
pub use remote::{
    delivery_endpoint_name, endpoints as delivery_endpoints, DeliveryClient, DeliveryService,
    RemoteLintReport, RemoteSealedDesign, RunningDelivery,
};
pub use seal::{bundle_key, seal, seal_design, unseal, SealPolicy, SealedDesign};
pub use session::AppletSession;
pub use sha::{hmac_sha256, sha256, sha256_parts, to_hex};
pub use store::{
    bundle_digest, BundleDelivery, DeliveryManifest, DeliveryResponse, Digest, ManifestEntry,
    StoreStats,
};
pub use verified::EquivCertificate;
