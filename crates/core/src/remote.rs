//! Networked delivery front-end: the vendor's [`AppletServer`] exposed
//! over the shared `ipd-wire` transport.
//!
//! The paper's delivery story is a *web server* handing executables to
//! browsers (§1.1, §4.4). This module puts that server on a real
//! socket: [`DeliveryService`] adapts an [`AppletServer`] (plus a
//! registry of lintable designs) to the `ipd-wire` session model, and
//! [`DeliveryClient`] is the browser side — it drives the same
//! HTTP-304-style conditional fetch as the in-process
//! [`AppletHost::sync`](crate::AppletHost::sync), but over the wire.
//!
//! Authentication rides the wire handshake: the client's hello token
//! is the customer id, checked against the vendor's enrolled profiles
//! before any endpoint is served. License verification still happens
//! per request inside the [`AppletServer`], so an expired customer is
//! refused (and audited) exactly as in-process.
//!
//! Every payload is encoded with the hardened `ipd-wire` codec —
//! length caps validated before allocation, trailing bytes rejected —
//! so a hostile peer cannot make either side over-allocate.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, MutexGuard};

use ipd_wire::{
    codec, ClientConfig, ErrorCode, Reader, Reply, ServerHandle, WireClient, WireConfig, WireError,
    WireServer, WireService, WireSession, WireStats,
};

use crate::deliver::{AppletServer, AuditRecord};
use crate::error::CoreError;
use crate::seal::SealPolicy;
use crate::store::{
    BundleDelivery, DeliveryManifest, DeliveryResponse, Digest, ManifestEntry, StoreStats,
};

/// Wire endpoint ids served by the delivery front-end. They live in
/// the `0x20` block so they can never collide with the co-simulation
/// endpoints (message tags below `0x20`).
pub mod endpoints {
    /// Bundle manifest for the calling customer (names, digests,
    /// packed sizes).
    pub const MANIFEST: u16 = 0x20;
    /// Conditional bundle fetch: client presents held digests, server
    /// answers payloads or not-modified markers.
    pub const FETCH: u16 = 0x21;
    /// All of the customer's bundles, sealed to their license key.
    pub const SEALED_BUNDLES: u16 = 0x22;
    /// A registered design, lint-gated and sealed to the license key.
    pub const SEALED_DESIGN: u16 = 0x23;
    /// The static-analysis report for a registered design.
    pub const LINT_REPORT: u16 = 0x24;
    /// The constraint-evaluated STA slack summary for a registered
    /// design (aggregate closure view; requires the design to have
    /// been registered with timing constraints).
    pub const STA_REPORT: u16 = 0x25;
    /// One packed bundle segment by content digest. The response body
    /// is exactly the packed wire bytes — no envelope fields — so the
    /// server can serve the catalog's shared `Arc` zero-copy into its
    /// socket write.
    pub const FETCH_SEGMENT: u16 = 0x26;
}

/// Human-readable name of a delivery endpoint (for traffic reports).
#[must_use]
pub fn delivery_endpoint_name(endpoint: u16) -> &'static str {
    match endpoint {
        endpoints::MANIFEST => "delivery.manifest",
        endpoints::FETCH => "delivery.fetch",
        endpoints::SEALED_BUNDLES => "delivery.sealed-bundles",
        endpoints::SEALED_DESIGN => "delivery.sealed-design",
        endpoints::LINT_REPORT => "delivery.lint-report",
        endpoints::STA_REPORT => "delivery.sta-report",
        endpoints::FETCH_SEGMENT => "delivery.fetch-segment",
        _ => "delivery.unknown",
    }
}

/// Maps a delivery-layer failure to its wire error frame. License
/// problems become [`ErrorCode::Unauthorized`] so a client can react
/// (re-enroll, renew) without parsing message text; everything else is
/// an application error.
fn core_to_wire(e: &CoreError) -> WireError {
    let code = match e {
        CoreError::UnknownCustomer { .. }
        | CoreError::LicenseExpired { .. }
        | CoreError::LicenseInvalid { .. } => ErrorCode::Unauthorized,
        _ => ErrorCode::App,
    };
    WireError::Remote {
        code,
        message: e.to_string(),
    }
}

/// What the vendor serves: the applet server plus the designs it is
/// willing to lint and seal. Designs are shared as `Arc`s so a request
/// takes a pointer under the lock, not a copy of the circuit.
#[derive(Debug)]
struct DeliveryState {
    server: AppletServer,
    designs: HashMap<String, Arc<RegisteredDesign>>,
}

impl DeliveryState {
    fn design(&self, name: &str) -> Result<Arc<RegisteredDesign>, WireError> {
        self.designs
            .get(name)
            .cloned()
            .ok_or_else(|| WireError::app(format!("no registered design named {name}")))
    }
}

/// A design customers may request, with the gates it ships behind.
#[derive(Debug)]
struct RegisteredDesign {
    circuit: ipd_hdl::Circuit,
    policy: SealPolicy,
}

/// An [`AppletServer`] adapted to the wire: one shared vendor state,
/// served to many concurrent customer sessions.
///
/// The state's mutex guards lookups, authorization and the audit log
/// only. A design request takes it twice, once to look up the design
/// and authorize the customer and once to append the audit record; the
/// gate, netlist and seal in between run unlocked, so one customer's
/// seal never stalls another customer's request.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use ipd_core::{AppletServer, CapabilitySet, DeliveryClient, DeliveryService};
/// use ipd_wire::WireConfig;
///
/// # fn main() -> Result<(), ipd_core::CoreError> {
/// let mut server = AppletServer::new("byu", b"vendor-key".to_vec());
/// server.enroll("acme", "kcm", CapabilitySet::evaluation(), 0, 365);
/// let service = Arc::new(DeliveryService::new(server, b"vendor-key".to_vec()));
/// let running = service.serve(WireConfig::default())?;
///
/// let mut client = DeliveryClient::connect(running.addr(), "acme")?;
/// let manifest = client.manifest(30)?;
/// assert!(!manifest.entries().is_empty());
/// client.close();
/// running.shutdown()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DeliveryService {
    state: Mutex<DeliveryState>,
    vendor_key: Vec<u8>,
}

impl DeliveryService {
    /// Wraps an applet server for wire delivery. `vendor_key` is the
    /// sealing master key passed to
    /// [`AppletServer::serve_sealed`]/[`AppletServer::serve_design_sealed`].
    #[must_use]
    pub fn new(server: AppletServer, vendor_key: Vec<u8>) -> Self {
        DeliveryService {
            state: Mutex::new(DeliveryState {
                server,
                designs: HashMap::new(),
            }),
            vendor_key,
        }
    }

    /// Registers a design customers may request via
    /// [`endpoints::SEALED_DESIGN`] and [`endpoints::LINT_REPORT`].
    pub fn register_design(
        &self,
        name: impl Into<String>,
        circuit: ipd_hdl::Circuit,
        lint_config: ipd_lint::LintConfig,
    ) {
        let policy = SealPolicy {
            lint: lint_config,
            ..SealPolicy::default()
        };
        self.insert_design(name.into(), circuit, policy);
    }

    /// Registers a design together with timing constraints: the
    /// sealed-design endpoint then refuses unwaived setup violations,
    /// and [`endpoints::STA_REPORT`] serves the slack summary.
    pub fn register_design_timed(
        &self,
        name: impl Into<String>,
        circuit: ipd_hdl::Circuit,
        lint_config: ipd_lint::LintConfig,
        constraints: ipd_lint::TimingConstraints,
    ) {
        let policy = SealPolicy {
            lint: lint_config,
            timing: Some(constraints),
            ..SealPolicy::default()
        };
        self.insert_design(name.into(), circuit, policy);
    }

    fn insert_design(&self, name: String, circuit: ipd_hdl::Circuit, policy: SealPolicy) {
        let design = Arc::new(RegisteredDesign { circuit, policy });
        let replaced = self.lock().designs.insert(name, design);
        // A replaced registration is freed here, after the lock is
        // released (or later, by a request still holding it).
        drop(replaced);
    }

    /// Names of registered designs, sorted.
    #[must_use]
    pub fn design_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.lock().designs.keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// A snapshot of the vendor's audit log (remote and in-process
    /// accesses interleaved in arrival order).
    #[must_use]
    pub fn audit_log(&self) -> Vec<AuditRecord> {
        self.lock().server.audit_log().to_vec()
    }

    /// A snapshot of the applet server's catalog hit/miss/304
    /// counters.
    #[must_use]
    pub fn store_stats(&self) -> StoreStats {
        self.lock().server.store_stats()
    }

    /// Recovers the applet server (audit log, counters) once no wire
    /// server holds the service any more.
    #[must_use]
    pub fn into_server(self) -> AppletServer {
        self.state.into_inner().expect("delivery state lock").server
    }

    /// Starts the concurrent wire server for this service.
    ///
    /// # Errors
    ///
    /// Fails when the listening socket cannot be bound.
    pub fn serve(self: &Arc<Self>, config: WireConfig) -> Result<RunningDelivery, CoreError> {
        let server = WireServer::bind(config)?;
        let adapter = DeliveryAdapter {
            service: Arc::clone(self),
        };
        Ok(RunningDelivery {
            handle: server.start(Arc::new(adapter)),
            service: Arc::clone(self),
        })
    }

    fn lock(&self) -> MutexGuard<'_, DeliveryState> {
        self.state.lock().expect("delivery state lock")
    }
}

/// Control handle for a started delivery server.
#[derive(Debug)]
pub struct RunningDelivery {
    handle: ServerHandle,
    service: Arc<DeliveryService>,
}

impl RunningDelivery {
    /// The bound address clients connect to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// The per-endpoint traffic counters.
    #[must_use]
    pub fn stats(&self) -> Arc<WireStats> {
        self.handle.stats()
    }

    /// Currently connected customer sessions.
    #[must_use]
    pub fn active_sessions(&self) -> usize {
        self.handle.active_sessions()
    }

    /// The shared vendor service (for audit snapshots while serving).
    #[must_use]
    pub fn service(&self) -> &Arc<DeliveryService> {
        &self.service
    }

    /// A formatted per-endpoint traffic report.
    #[must_use]
    pub fn traffic_report(&self) -> String {
        self.handle
            .stats()
            .report(|e| delivery_endpoint_name(e).to_owned())
    }

    /// Stops accepting, interrupts live sessions, joins all threads,
    /// and hands back the service for post-mortem audit.
    ///
    /// # Errors
    ///
    /// Propagates shutdown failures from the wire layer.
    pub fn shutdown(self) -> Result<Arc<DeliveryService>, CoreError> {
        self.handle.shutdown()?;
        Ok(self.service)
    }
}

/// Wire-service adapter: authenticates tokens and opens sessions.
struct DeliveryAdapter {
    service: Arc<DeliveryService>,
}

impl WireService for DeliveryAdapter {
    fn open_session(
        &self,
        _peer: SocketAddr,
        token: Option<&str>,
    ) -> Result<Box<dyn WireSession>, WireError> {
        let customer = token.ok_or(WireError::Remote {
            code: ErrorCode::Unauthorized,
            message: "delivery requires a customer-id token".to_owned(),
        })?;
        if !self.service.lock().server.knows_customer(customer) {
            return Err(WireError::Remote {
                code: ErrorCode::Unauthorized,
                message: format!("no profile for customer {customer}"),
            });
        }
        Ok(Box::new(DeliverySession {
            service: Arc::clone(&self.service),
            customer: customer.to_owned(),
        }))
    }

    fn endpoint_name(&self, endpoint: u16) -> String {
        delivery_endpoint_name(endpoint).to_owned()
    }
}

/// One authenticated customer's delivery session.
struct DeliverySession {
    service: Arc<DeliveryService>,
    customer: String,
}

impl WireSession for DeliverySession {
    fn handle(&mut self, endpoint: u16, body: &[u8]) -> Result<Reply, WireError> {
        let response = match endpoint {
            endpoints::MANIFEST => self.manifest(body)?,
            endpoints::FETCH => self.fetch(body)?,
            // The one endpoint whose payload is a shared segment: the
            // catalog's `Arc` rides the reply uncopied.
            endpoints::FETCH_SEGMENT => return self.fetch_segment(body).map(Reply::shared),
            endpoints::SEALED_BUNDLES => self.sealed_bundles(body)?,
            endpoints::SEALED_DESIGN => self.sealed_design(body)?,
            endpoints::LINT_REPORT => self.lint_report(body)?,
            endpoints::STA_REPORT => self.sta_report(body)?,
            other => {
                return Err(WireError::Remote {
                    code: ErrorCode::UnknownEndpoint,
                    message: format!("no delivery endpoint {other:#06x}"),
                })
            }
        };
        Ok(Reply::body(response))
    }
}

impl DeliverySession {
    fn manifest(&self, body: &[u8]) -> Result<Vec<u8>, WireError> {
        let mut r = Reader::new(body);
        let today = r.u32()?;
        r.finish()?;
        let manifest = self
            .service
            .lock()
            .server
            .manifest(&self.customer, today)
            .map_err(|e| core_to_wire(&e))?;
        Ok(encode_manifest(&manifest))
    }

    fn fetch(&self, body: &[u8]) -> Result<Vec<u8>, WireError> {
        let mut r = Reader::new(body);
        let today = r.u32()?;
        let count = r.u16()? as usize;
        let count = r.cap_count(count, 32)?;
        let mut have = Vec::with_capacity(count);
        for _ in 0..count {
            have.push(read_digest(&mut r)?);
        }
        r.finish()?;
        let response = self
            .service
            .lock()
            .server
            .fetch(&self.customer, today, &have)
            .map_err(|e| core_to_wire(&e))?;
        Ok(encode_delivery(&response))
    }

    fn fetch_segment(&self, body: &[u8]) -> Result<Arc<[u8]>, WireError> {
        let mut r = Reader::new(body);
        let today = r.u32()?;
        let digest = read_digest(&mut r)?;
        r.finish()?;
        self.service
            .lock()
            .server
            .fetch_segment(&self.customer, today, &digest)
            .map_err(|e| core_to_wire(&e))
    }

    fn sealed_bundles(&self, body: &[u8]) -> Result<Vec<u8>, WireError> {
        let mut r = Reader::new(body);
        let today = r.u32()?;
        r.finish()?;
        let admitted = self
            .service
            .lock()
            .server
            .admit_sealed(&self.customer, today, &self.service.vendor_key)
            .map_err(|e| core_to_wire(&e))?;
        let sealed = admitted.seal();
        let mut out = Vec::new();
        codec::put_u16(&mut out, sealed.len() as u16);
        for (name, bytes) in &sealed {
            codec::put_str(&mut out, name);
            codec::put_bytes(&mut out, bytes);
        }
        Ok(out)
    }

    /// The wire form of [`AppletServer::serve_design_sealed`] under the
    /// registered policy, from the same steps, with the lock released
    /// between them.
    fn sealed_design(&self, body: &[u8]) -> Result<Vec<u8>, WireError> {
        let (today, name) = decode_design_request(body)?;
        let (design, (key, nonce)) = {
            let mut state = self.service.lock();
            let design = state.design(&name)?;
            let grant = state
                .server
                .admit_design_seal(&self.customer, today, &self.service.vendor_key)
                .map_err(|e| core_to_wire(&e))?;
            (design, grant)
        };
        let sealed = crate::seal::seal_design(&design.circuit, &design.policy, &key, nonce);
        self.service.lock().server.audit_design_seal(
            &self.customer,
            today,
            design.circuit.name(),
            &sealed,
        );
        let sealed = sealed.map_err(|e| core_to_wire(&e))?;
        let mut out = Vec::new();
        codec::put_bytes(&mut out, sealed.bytes());
        codec::put_str(&mut out, &sealed.report().summary());
        codec::put_bytes(&mut out, sealed.report().to_json().as_bytes());
        Ok(out)
    }

    /// The registered policy's lint report (the same linter the seal
    /// is gated on), without a netlist: a dirty report is returned, not
    /// refused. The access is audited; the linter runs unlocked.
    fn lint_report(&self, body: &[u8]) -> Result<Vec<u8>, WireError> {
        let (today, name) = decode_design_request(body)?;
        let design = {
            let mut state = self.service.lock();
            let design = state.design(&name)?;
            state
                .server
                .authorize(&self.customer, today)
                .map_err(|e| core_to_wire(&e))?;
            design
        };
        let report = design
            .policy
            .linter()
            .run(&design.circuit)
            .map_err(|e| core_to_wire(&e.into()))?;
        self.service.lock().server.audit_lint_report(
            &self.customer,
            today,
            design.circuit.name(),
            &report,
        );
        let mut out = Vec::new();
        codec::put_str(&mut out, &report.summary());
        codec::put_u32(&mut out, report.error_count() as u32);
        codec::put_bytes(&mut out, report.to_json().as_bytes());
        Ok(out)
    }

    /// The wire form of [`AppletServer::serve_slack_summary`], with the
    /// analysis run unlocked.
    fn sta_report(&self, body: &[u8]) -> Result<Vec<u8>, WireError> {
        let (today, name) = decode_design_request(body)?;
        let design = {
            let mut state = self.service.lock();
            let design = state.design(&name)?;
            if design.policy.timing.is_none() {
                return Err(WireError::app(format!(
                    "design {name} has no timing constraints registered"
                )));
            }
            state
                .server
                .authorize(&self.customer, today)
                .map_err(|e| core_to_wire(&e))?;
            design
        };
        let constraints = design
            .policy
            .timing
            .as_ref()
            .expect("checked under the lock");
        let report = ipd_estimate::analyze_timing(&design.circuit, constraints)
            .map_err(|e| core_to_wire(&e.into()))?;
        self.service.lock().server.audit_slack_summary(
            &self.customer,
            today,
            design.circuit.name(),
            &report,
        );
        Ok(encode_slack_summary(&report.slack_summary()))
    }
}

fn decode_design_request(body: &[u8]) -> Result<(u32, String), WireError> {
    let mut r = Reader::new(body);
    let today = r.u32()?;
    let design = r.str()?;
    r.finish()?;
    Ok((today, design))
}

fn read_digest(r: &mut Reader<'_>) -> Result<Digest, WireError> {
    let raw = r.take(32)?;
    let mut digest = [0u8; 32];
    digest.copy_from_slice(raw);
    Ok(digest)
}

fn encode_manifest(manifest: &DeliveryManifest) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_str(&mut out, manifest.product());
    codec::put_u16(&mut out, manifest.entries().len() as u16);
    for entry in manifest.entries() {
        codec::put_str(&mut out, &entry.name);
        out.extend_from_slice(&entry.digest);
        codec::put_u64(&mut out, entry.packed_size as u64);
    }
    out
}

fn decode_manifest(body: &[u8]) -> Result<DeliveryManifest, WireError> {
    let mut r = Reader::new(body);
    let product = r.str()?;
    let count = r.u16()? as usize;
    // Each entry is at least a 2-byte name prefix + 32-byte digest +
    // 8-byte size.
    let count = r.cap_count(count, 2 + 32 + 8)?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let name = r.str()?;
        let digest = read_digest(&mut r)?;
        let packed_size = r.u64()? as usize;
        entries.push(ManifestEntry {
            name,
            digest,
            packed_size,
        });
    }
    r.finish()?;
    Ok(DeliveryManifest::new(product, entries))
}

fn encode_delivery(response: &DeliveryResponse) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_str(&mut out, response.product());
    codec::put_u16(&mut out, response.items().len() as u16);
    for item in response.items() {
        match item {
            BundleDelivery::NotModified { name, digest } => {
                codec::put_u8(&mut out, 0);
                codec::put_str(&mut out, name);
                out.extend_from_slice(digest);
            }
            BundleDelivery::Payload {
                name,
                digest,
                bytes,
            } => {
                codec::put_u8(&mut out, 1);
                codec::put_str(&mut out, name);
                out.extend_from_slice(digest);
                codec::put_bytes(&mut out, bytes);
            }
        }
    }
    out
}

fn decode_delivery(body: &[u8]) -> Result<DeliveryResponse, WireError> {
    let mut r = Reader::new(body);
    let product = r.str()?;
    let count = r.u16()? as usize;
    // Each item is at least a kind byte + 2-byte name prefix +
    // 32-byte digest.
    let count = r.cap_count(count, 1 + 2 + 32)?;
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        let kind = r.u8()?;
        let name = r.str()?;
        let digest = read_digest(&mut r)?;
        items.push(match kind {
            0 => BundleDelivery::NotModified { name, digest },
            1 => BundleDelivery::Payload {
                name,
                digest,
                bytes: r.bytes()?.into(),
            },
            other => {
                return Err(WireError::protocol(format!(
                    "unknown bundle-delivery kind {other}"
                )))
            }
        });
    }
    r.finish()?;
    Ok(DeliveryResponse::new(product, items))
}

/// f64 over the wire: IEEE-754 bits in the codec's u64 encoding, so
/// the value survives exactly (including infinities used for "no
/// endpoint captured").
fn put_f64(out: &mut Vec<u8>, value: f64) {
    codec::put_u64(out, value.to_bits());
}

fn read_f64(r: &mut Reader<'_>) -> Result<f64, WireError> {
    Ok(f64::from_bits(r.u64()?))
}

fn encode_slack_summary(summary: &ipd_estimate::SlackSummary) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_str(&mut out, &summary.design);
    codec::put_u32(&mut out, summary.unconstrained as u32);
    codec::put_u16(&mut out, summary.clocks.len() as u16);
    for c in &summary.clocks {
        codec::put_str(&mut out, &c.clock);
        put_f64(&mut out, c.period_ns);
        codec::put_u32(&mut out, c.endpoints as u32);
        codec::put_u32(&mut out, c.violations as u32);
        put_f64(&mut out, c.worst_slack_ns);
    }
    codec::put_u16(&mut out, summary.histograms.len() as u16);
    for h in &summary.histograms {
        codec::put_str(&mut out, &h.clock);
        codec::put_u16(&mut out, h.edges.len() as u16);
        for &e in &h.edges {
            put_f64(&mut out, e);
        }
        codec::put_u16(&mut out, h.counts.len() as u16);
        for &n in &h.counts {
            codec::put_u64(&mut out, n as u64);
        }
    }
    out
}

fn decode_slack_summary(body: &[u8]) -> Result<ipd_estimate::SlackSummary, WireError> {
    let mut r = Reader::new(body);
    let design = r.str()?;
    let unconstrained = r.u32()? as usize;
    let clock_count = r.u16()? as usize;
    // Each clock rollup is at least a 2-byte name prefix plus two f64s
    // and two u32 counts.
    let clock_count = r.cap_count(clock_count, 2 + 8 + 4 + 4 + 8)?;
    let mut clocks = Vec::with_capacity(clock_count);
    for _ in 0..clock_count {
        clocks.push(ipd_estimate::ClockSlack {
            clock: r.str()?,
            period_ns: read_f64(&mut r)?,
            endpoints: r.u32()? as usize,
            violations: r.u32()? as usize,
            worst_slack_ns: read_f64(&mut r)?,
        });
    }
    let hist_count = r.u16()? as usize;
    let hist_count = r.cap_count(hist_count, 2 + 2 + 2)?;
    let mut histograms = Vec::with_capacity(hist_count);
    for _ in 0..hist_count {
        let clock = r.str()?;
        let edge_count = r.u16()? as usize;
        let edge_count = r.cap_count(edge_count, 8)?;
        let mut edges = Vec::with_capacity(edge_count);
        for _ in 0..edge_count {
            edges.push(read_f64(&mut r)?);
        }
        let count_count = r.u16()? as usize;
        let count_count = r.cap_count(count_count, 8)?;
        let mut counts = Vec::with_capacity(count_count);
        for _ in 0..count_count {
            counts.push(r.u64()? as usize);
        }
        histograms.push(ipd_estimate::SlackHistogram {
            clock,
            edges,
            counts,
        });
    }
    r.finish()?;
    Ok(ipd_estimate::SlackSummary {
        design,
        clocks,
        unconstrained,
        histograms,
    })
}

/// A lint-gated, license-sealed design fetched over the wire.
#[derive(Debug, Clone)]
pub struct RemoteSealedDesign {
    /// The sealed netlist (opened with [`crate::unseal`] and the
    /// customer's [`crate::bundle_key`]).
    pub bytes: Vec<u8>,
    /// One-line lint summary the design shipped with.
    pub summary: String,
    /// The full lint report, JSON-serialized.
    pub report_json: String,
}

/// A static-analysis report fetched over the wire.
#[derive(Debug, Clone)]
pub struct RemoteLintReport {
    /// One-line summary (errors, warnings, waived counts).
    pub summary: String,
    /// Unwaived error-severity finding count.
    pub errors: usize,
    /// The full report, JSON-serialized.
    pub report_json: String,
}

/// The browser side of wire delivery: one authenticated customer
/// connection driving manifest, conditional fetch, and sealed-design
/// requests.
#[derive(Debug)]
pub struct DeliveryClient {
    wire: WireClient,
}

impl DeliveryClient {
    /// Connects and authenticates as `customer` (sent as the hello
    /// token; unknown customers are refused at the handshake).
    ///
    /// # Errors
    ///
    /// Fails on connection or handshake errors, or an
    /// [`ErrorCode::Unauthorized`] refusal for unknown customers.
    pub fn connect(addr: SocketAddr, customer: &str) -> Result<Self, CoreError> {
        Self::connect_with(addr, &ClientConfig::with_token(customer))
    }

    /// Connects with explicit client settings (the token must carry
    /// the customer id).
    ///
    /// # Errors
    ///
    /// As [`DeliveryClient::connect`].
    pub fn connect_with(addr: SocketAddr, config: &ClientConfig) -> Result<Self, CoreError> {
        Ok(DeliveryClient {
            wire: WireClient::connect(addr, config)?,
        })
    }

    /// The server-assigned session id.
    #[must_use]
    pub fn session_id(&self) -> u64 {
        self.wire.session_id()
    }

    /// Client-side traffic counters (mirror the server's view of this
    /// session).
    #[must_use]
    pub fn stats(&self) -> Arc<WireStats> {
        self.wire.stats()
    }

    /// Fetches the customer's bundle manifest.
    ///
    /// # Errors
    ///
    /// License refusals surface as [`CoreError::Remote`] /
    /// [`CoreError::Wire`]; transport failures as [`CoreError::Wire`].
    pub fn manifest(&mut self, today: u32) -> Result<DeliveryManifest, CoreError> {
        let mut body = Vec::new();
        codec::put_u32(&mut body, today);
        let response = self.wire.call(endpoints::MANIFEST, &body)?;
        Ok(decode_manifest(&response)?)
    }

    /// Conditionally fetches the customer's bundles: bundles whose
    /// digest appears in `have` come back as not-modified markers.
    ///
    /// # Errors
    ///
    /// As [`DeliveryClient::manifest`].
    pub fn fetch(&mut self, today: u32, have: &[Digest]) -> Result<DeliveryResponse, CoreError> {
        let mut body = Vec::new();
        codec::put_u32(&mut body, today);
        codec::put_u16(&mut body, have.len() as u16);
        for digest in have {
            body.extend_from_slice(digest);
        }
        let response = self.wire.call(endpoints::FETCH, &body)?;
        Ok(decode_delivery(&response)?)
    }

    /// Fetches one packed bundle segment by content digest. The
    /// returned bytes are exactly the packed wire bytes a
    /// [`DeliveryClient::fetch`] payload carries — but the server
    /// serves them zero-copy from the process catalog, so this
    /// is the cheap path when the manifest already told the client
    /// which digest it is missing.
    ///
    /// # Errors
    ///
    /// A typed remote error for digests outside the customer's bundle
    /// set; license and transport failures as
    /// [`DeliveryClient::manifest`].
    pub fn fetch_segment(&mut self, today: u32, digest: &Digest) -> Result<Vec<u8>, CoreError> {
        let mut body = Vec::new();
        codec::put_u32(&mut body, today);
        body.extend_from_slice(digest);
        Ok(self.wire.call(endpoints::FETCH_SEGMENT, &body)?)
    }

    /// Fetches every bundle sealed to the customer's license key
    /// (opened with [`crate::unseal`] and [`crate::bundle_key`]).
    ///
    /// # Errors
    ///
    /// As [`DeliveryClient::manifest`].
    pub fn sealed_bundles(&mut self, today: u32) -> Result<Vec<(String, Vec<u8>)>, CoreError> {
        let mut body = Vec::new();
        codec::put_u32(&mut body, today);
        let response = self.wire.call(endpoints::SEALED_BUNDLES, &body)?;
        let mut r = Reader::new(&response);
        let count = r.u16()? as usize;
        // Each sealed bundle is at least a 2-byte name prefix plus a
        // 4-byte payload prefix.
        let count = r.cap_count(count, 2 + 4)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let name = r.str()?;
            let bytes = r.bytes()?;
            out.push((name, bytes));
        }
        r.finish()?;
        Ok(out)
    }

    /// Fetches a registered design, lint-gated and sealed to the
    /// customer's license key.
    ///
    /// # Errors
    ///
    /// A dirty lint report refuses delivery server-side
    /// ([`CoreError::Remote`] carrying the
    /// [`CoreError::LintRejected`] message); license and transport
    /// failures as [`DeliveryClient::manifest`].
    pub fn sealed_design(
        &mut self,
        today: u32,
        design: &str,
    ) -> Result<RemoteSealedDesign, CoreError> {
        let response = self.wire.call(
            endpoints::SEALED_DESIGN,
            &encode_design_request(today, design),
        )?;
        let mut r = Reader::new(&response);
        let bytes = r.bytes()?;
        let summary = r.str()?;
        let report_json = String::from_utf8(r.bytes()?)
            .map_err(|_| WireError::protocol("lint report is not utf-8"))?;
        r.finish()?;
        Ok(RemoteSealedDesign {
            bytes,
            summary,
            report_json,
        })
    }

    /// Fetches the static-analysis report for a registered design —
    /// the audit view a customer consults before requesting the
    /// sealed netlist.
    ///
    /// # Errors
    ///
    /// As [`DeliveryClient::manifest`].
    pub fn lint_report(&mut self, today: u32, design: &str) -> Result<RemoteLintReport, CoreError> {
        let response = self.wire.call(
            endpoints::LINT_REPORT,
            &encode_design_request(today, design),
        )?;
        let mut r = Reader::new(&response);
        let summary = r.str()?;
        let errors = r.u32()? as usize;
        let report_json = String::from_utf8(r.bytes()?)
            .map_err(|_| WireError::protocol("lint report is not utf-8"))?;
        r.finish()?;
        Ok(RemoteLintReport {
            summary,
            errors,
            report_json,
        })
    }

    /// Fetches the constraint-evaluated STA slack summary for a
    /// registered design — per-clock worst slack, violation counts and
    /// histograms, no endpoint or path names. The design must have
    /// been registered with
    /// [`DeliveryService::register_design_timed`].
    ///
    /// # Errors
    ///
    /// An application error when the design is unknown or has no
    /// constraints registered; license and transport failures as
    /// [`DeliveryClient::manifest`].
    pub fn sta_summary(
        &mut self,
        today: u32,
        design: &str,
    ) -> Result<ipd_estimate::SlackSummary, CoreError> {
        let response = self
            .wire
            .call(endpoints::STA_REPORT, &encode_design_request(today, design))?;
        Ok(decode_slack_summary(&response)?)
    }

    /// Sends a polite goodbye and closes (also happens on drop).
    pub fn close(&mut self) {
        self.wire.close();
    }
}

fn encode_design_request(today: u32, design: &str) -> Vec<u8> {
    let mut body = Vec::new();
    codec::put_u32(&mut body, today);
    codec::put_str(&mut body, design);
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::CapabilitySet;
    use ipd_hdl::{Circuit, PortSpec};
    use ipd_techlib::LogicCtx;

    fn vendor() -> AppletServer {
        let mut server = AppletServer::new("byu", b"vendor-key".to_vec());
        server.enroll("acme", "kcm", CapabilitySet::evaluation(), 0, 365);
        server.enroll("expired", "kcm", CapabilitySet::evaluation(), 0, 10);
        server
    }

    fn clean_design() -> Circuit {
        let mut c = Circuit::new("buf");
        let mut ctx = c.root_ctx();
        let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
        let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
        ctx.buffer(a, y).unwrap();
        c
    }

    fn start() -> (RunningDelivery, Arc<DeliveryService>) {
        let service = Arc::new(DeliveryService::new(vendor(), b"vendor-key".to_vec()));
        service.register_design("buf", clean_design(), ipd_lint::LintConfig::default());
        let running = service.serve(WireConfig::default()).expect("serve");
        (running, service)
    }

    #[test]
    fn manifest_and_fetch_match_the_in_process_path() {
        let (running, _service) = start();
        let mut client = DeliveryClient::connect(running.addr(), "acme").expect("connect");
        let remote = client.manifest(30).expect("manifest");

        let mut local = vendor();
        let expected = local.manifest("acme", 30).expect("local manifest");
        assert_eq!(remote, expected, "wire manifest must be bit-identical");

        // Cold fetch delivers everything; presenting the digests turns
        // every item into a 304.
        let cold = client.fetch(30, &[]).expect("cold fetch");
        assert_eq!(cold.delivered(), remote.entries().len());
        let have: Vec<Digest> = remote.entries().iter().map(|e| e.digest).collect();
        let warm = client.fetch(31, &have).expect("warm fetch");
        assert_eq!(warm.delivered(), 0);
        assert_eq!(warm.not_modified(), remote.entries().len());

        let local_cold = local.fetch("acme", 30, &[]).expect("local fetch");
        for (r, l) in cold.items().iter().zip(local_cold.items()) {
            match (r, l) {
                (
                    BundleDelivery::Payload { bytes: rb, .. },
                    BundleDelivery::Payload { bytes: lb, .. },
                ) => assert_eq!(rb.as_ref(), lb.as_ref(), "payload bytes must match"),
                _ => panic!("cold fetches must both deliver payloads"),
            }
        }
        client.close();
        running.shutdown().expect("shutdown");
    }

    #[test]
    fn fetch_segment_serves_the_packed_bytes_zero_copy() {
        let (running, service) = start();
        let mut client = DeliveryClient::connect(running.addr(), "acme").expect("connect");
        let manifest = client.manifest(30).expect("manifest");
        let cold = client.fetch(30, &[]).expect("cold fetch");
        for entry in manifest.entries() {
            let segment = client.fetch_segment(30, &entry.digest).expect("segment");
            let full = cold
                .items()
                .iter()
                .find_map(|item| match item {
                    BundleDelivery::Payload { digest, bytes, .. } if *digest == entry.digest => {
                        Some(bytes.clone())
                    }
                    _ => None,
                })
                .expect("cold fetch delivered this digest");
            assert_eq!(
                segment,
                full.as_ref(),
                "segment bytes must be bit-identical to the fetch payload"
            );
        }
        // A digest outside the customer's set is refused and audited.
        assert!(matches!(
            client.fetch_segment(30, &[0u8; 32]),
            Err(CoreError::Remote { .. })
        ));
        client.close();
        running.shutdown().expect("shutdown");
        assert!(service
            .audit_log()
            .iter()
            .any(|r| r.outcome.contains("served segment")));
    }

    #[test]
    fn sealed_design_and_lint_report_round_trip() {
        let (running, _service) = start();
        let mut client = DeliveryClient::connect(running.addr(), "acme").expect("connect");
        let report = client.lint_report(30, "buf").expect("lint report");
        assert_eq!(report.errors, 0);
        assert!(report.report_json.contains("\"errors\": 0"));

        let sealed = client.sealed_design(30, "buf").expect("sealed design");
        assert_eq!(sealed.summary, report.summary);
        // The customer's license key opens the seal to an EDIF netlist.
        let license = vendor().enroll("acme", "kcm", CapabilitySet::evaluation(), 0, 365);
        let key = crate::seal::bundle_key(b"vendor-key", &license);
        let plain = crate::seal::unseal(&sealed.bytes, &key).expect("unseal");
        assert!(String::from_utf8(plain).unwrap().contains("(edif"));

        assert!(matches!(
            client.sealed_design(30, "nope"),
            Err(CoreError::Remote { .. })
        ));
        client.close();
        let service = running.shutdown().expect("shutdown");
        let log = service.audit_log();
        assert!(log.iter().any(|r| r.outcome.contains("lint report")));
    }

    /// FF -> `depth` inverters -> FF, one clock.
    fn chained_design(depth: usize) -> Circuit {
        let mut c = Circuit::new("chain");
        let mut ctx = c.root_ctx();
        let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
        let d = ctx.add_port(PortSpec::input("d", 1)).unwrap();
        let q = ctx.add_port(PortSpec::output("q", 1)).unwrap();
        let mut cur: ipd_hdl::Signal = ctx.wire("s0", 1).into();
        ctx.fd(clk, d, cur.clone()).unwrap();
        for i in 0..depth {
            let nxt = ctx.wire(&format!("s{}", i + 1), 1);
            ctx.inv(cur, nxt).unwrap();
            cur = nxt.into();
        }
        ctx.fd(clk, cur, q).unwrap();
        c
    }

    #[test]
    fn sta_summary_round_trips_and_timing_gates_sealed_designs() {
        let (running, service) = start();
        let mut constraints = ipd_lint::TimingConstraints::new();
        constraints.clock("clk", 3.0, "clk");
        service.register_design_timed(
            "chain",
            chained_design(16),
            ipd_lint::LintConfig::default(),
            constraints,
        );
        let mut client = DeliveryClient::connect(running.addr(), "acme").expect("connect");

        // The wire summary is bit-identical to the local analysis.
        let remote = client.sta_summary(30, "chain").expect("sta summary");
        let local = ipd_estimate::analyze_timing(&chained_design(16), &{
            let mut t = ipd_estimate::TimingConstraints::new();
            t.clock("clk", 3.0, "clk");
            t
        })
        .expect("local sta")
        .slack_summary();
        assert_eq!(remote, local);
        assert!(remote.violations() > 0, "{remote}");
        assert!(remote.worst_slack().unwrap() < 0.0);

        // The same registration refuses sealed delivery on slack.
        let err = client.sealed_design(30, "chain").unwrap_err();
        assert!(
            err.to_string().contains("lint"),
            "timing refusal rides the lint gate: {err}"
        );

        // Designs registered without constraints refuse the endpoint.
        assert!(matches!(
            client.sta_summary(30, "buf"),
            Err(CoreError::Remote { .. } | CoreError::Wire(_))
        ));
        client.close();
        let service = running.shutdown().expect("shutdown");
        assert!(service
            .audit_log()
            .iter()
            .any(|r| r.outcome.contains("slack summary")));
    }

    #[test]
    fn lint_report_runs_the_gate_the_seal_runs() {
        let (running, service) = start();
        let clock = |period| {
            let mut t = ipd_lint::TimingConstraints::new();
            t.clock("clk", period, "clk");
            t
        };
        let config = ipd_lint::LintConfig::default();
        service.register_design_timed("slow", chained_design(16), config.clone(), clock(3.0));
        service.register_design_timed("fast", chained_design(2), config, clock(20.0));
        let mut client = DeliveryClient::connect(running.addr(), "acme").expect("connect");

        // The report counts the setup violation the seal refuses on.
        let report = client.lint_report(30, "slow").expect("lint report");
        let err = client.sealed_design(30, "slow").unwrap_err();
        assert!(report.errors > 0, "{}", report.summary);
        assert!(err.to_string().contains(&report.summary), "{err}");

        // A design that meets its clock ships the report served alone.
        let report = client.lint_report(30, "fast").expect("lint report");
        let sealed = client.sealed_design(30, "fast").expect("meets timing");
        assert_eq!(report.report_json, sealed.report_json);
        client.close();
        running.shutdown().expect("shutdown");
    }

    #[test]
    fn concurrent_sealed_designs_audit_once_and_never_reuse_a_nonce() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 3;
        let mut server = vendor();
        server.enroll("bolt", "kcm", CapabilitySet::evaluation(), 0, 365);
        let service = Arc::new(DeliveryService::new(server, b"vendor-key".to_vec()));
        service.register_design("buf", clean_design(), ipd_lint::LintConfig::default());
        let mut constraints = ipd_lint::TimingConstraints::new();
        constraints.clock("clk", 3.0, "clk");
        service.register_design_timed(
            "chain",
            chained_design(16),
            ipd_lint::LintConfig::default(),
            constraints,
        );
        let running = service.serve(WireConfig::default()).expect("serve");
        let addr = running.addr();
        let customers = ["acme", "bolt"];
        // Every session is open before any request goes out, so the
        // requests overlap in the server.
        let start = Arc::new(std::sync::Barrier::new(customers.len() * THREADS));
        let workers: Vec<_> = customers
            .iter()
            .flat_map(|&customer| (0..THREADS).map(move |_| customer))
            .map(|customer| {
                let mut client = DeliveryClient::connect(addr, customer).expect("connect");
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    let mut payloads = Vec::new();
                    for _ in 0..ROUNDS {
                        payloads.push(client.sealed_design(30, "buf").expect("buf").bytes);
                        let refused = client.sealed_design(30, "chain").unwrap_err();
                        assert!(refused.to_string().contains("lint"), "{refused}");
                    }
                    client.close();
                    (customer, payloads)
                })
            })
            .collect();
        let results: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("worker"))
            .collect();
        running.shutdown().expect("shutdown");

        let key = |customer: &str| {
            let license = vendor().enroll(customer, "kcm", CapabilitySet::evaluation(), 0, 365);
            crate::seal::bundle_key(b"vendor-key", &license)
        };
        let mut nonces = std::collections::HashSet::new();
        for (customer, payloads) in &results {
            let other = customers.iter().find(|c| *c != customer).expect("two");
            for bytes in payloads {
                assert!(nonces.insert(bytes[..8].to_vec()), "nonce reused");
                let plain = crate::seal::unseal(bytes, &key(customer)).expect("own key");
                assert!(String::from_utf8(plain).unwrap().contains("(edif"));
                assert!(crate::seal::unseal(bytes, &key(other)).is_err());
            }
        }
        assert_eq!(nonces.len(), customers.len() * THREADS * ROUNDS);

        let log = service.audit_log();
        assert_eq!(
            log.len(),
            2 * customers.len() * THREADS * ROUNDS,
            "{log:#?}"
        );
        for customer in customers {
            let mine = || log.iter().filter(move |r| r.customer == customer);
            assert!(mine().all(|r| r.day == 30));
            let served = mine()
                .filter(|r| r.outcome.starts_with("served design buf sealed"))
                .count();
            let refused = mine()
                .filter(|r| r.outcome.starts_with("refused: delivery refused: "))
                .filter(|r| r.outcome.contains("lint error"))
                .count();
            assert_eq!((served, refused), (THREADS * ROUNDS, THREADS * ROUNDS));
        }
    }

    #[test]
    fn authentication_is_checked_at_the_handshake() {
        let (running, _service) = start();
        // No token at all.
        assert!(matches!(
            DeliveryClient::connect_with(running.addr(), &ClientConfig::default()),
            Err(CoreError::Wire(WireError::Remote {
                code: ErrorCode::Unauthorized,
                ..
            }))
        ));
        // Unknown customer.
        assert!(matches!(
            DeliveryClient::connect(running.addr(), "mallory"),
            Err(CoreError::Wire(WireError::Remote {
                code: ErrorCode::Unauthorized,
                ..
            }))
        ));
        // Enrolled but expired: the handshake admits them (the profile
        // exists), the per-request license check refuses with a typed
        // unauthorized frame and audits.
        let mut expired = DeliveryClient::connect(running.addr(), "expired").expect("connect");
        assert!(matches!(
            expired.manifest(100),
            Err(CoreError::Wire(WireError::Remote {
                code: ErrorCode::Unauthorized,
                ..
            }))
        ));
        expired.close();
        running.shutdown().expect("shutdown");
    }

    #[test]
    fn sealed_bundles_unseal_with_the_license_key() {
        let (running, _service) = start();
        let mut client = DeliveryClient::connect(running.addr(), "acme").expect("connect");
        let sealed = client.sealed_bundles(30).expect("sealed bundles");
        assert!(!sealed.is_empty());
        let license = vendor().enroll("acme", "kcm", CapabilitySet::evaluation(), 0, 365);
        let key = crate::seal::bundle_key(b"vendor-key", &license);
        for (name, bytes) in &sealed {
            let plain = crate::seal::unseal(bytes, &key)
                .unwrap_or_else(|e| panic!("bundle {name} must unseal: {e}"));
            assert!(!plain.is_empty());
        }
        client.close();
        running.shutdown().expect("shutdown");
    }
}
