//! IP delivery executables and the vendor-side applet server.
//!
//! An [`IpExecutable`] is the paper's "custom executable … customized
//! to the needs of both the customer and vendor" (its Figure 2): a
//! capability set plus the code bundles those capabilities require.
//! The [`AppletServer`] is the vendor web server that picks the right
//! executable per user profile and meters access.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use ipd_pack::{BundleSet, PackedSet};

use crate::capability::{Capability, CapabilitySet};
use crate::error::CoreError;
use crate::license::{License, LicenseAuthority};
use crate::store::{
    builtin_digests, BundleDelivery, BundleStore, DeliveryManifest, DeliveryResponse, Digest,
    ManifestEntry,
};

/// A deliverable IP evaluation executable: the applet a customer
/// downloads.
///
/// # Examples
///
/// ```
/// use ipd_core::{CapabilitySet, IpExecutable};
///
/// let passive = IpExecutable::new("virtex-kcm", "byu", CapabilitySet::passive());
/// let licensed = IpExecutable::new("virtex-kcm", "byu", CapabilitySet::licensed());
/// // More capability ⇒ more code to download (the Figure 2 trade-off).
/// assert!(licensed.download_size() > passive.download_size());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IpExecutable {
    product: String,
    vendor: String,
    capabilities: CapabilitySet,
}

impl IpExecutable {
    /// A new executable configuration.
    #[must_use]
    pub fn new(
        product: impl Into<String>,
        vendor: impl Into<String>,
        capabilities: CapabilitySet,
    ) -> Self {
        IpExecutable {
            product: product.into(),
            vendor: vendor.into(),
            capabilities,
        }
    }

    /// Product identifier.
    #[must_use]
    pub fn product(&self) -> &str {
        &self.product
    }

    /// Vendor identifier.
    #[must_use]
    pub fn vendor(&self) -> &str {
        &self.vendor
    }

    /// The capability set compiled into this executable.
    #[must_use]
    pub fn capabilities(&self) -> CapabilitySet {
        self.capabilities
    }

    /// The bundle names this executable needs — the paper's "only
    /// those Jar files required by the applet code".
    #[must_use]
    pub fn required_bundles(&self) -> Vec<&'static str> {
        let mut names = vec!["JHDLBase", "Virtex", "Applet"];
        if self.capabilities.allows(Capability::Estimate) {
            names.push("Estimator");
        }
        if self.capabilities.allows(Capability::StructuralView)
            || self.capabilities.allows(Capability::LayoutView)
            || self.capabilities.allows(Capability::WaveformView)
        {
            names.push("Viewer");
        }
        if self.capabilities.allows(Capability::Netlist) {
            names.push("Netlist");
        }
        names
    }

    /// The actual bundle set to ship (uncompressed working form).
    #[must_use]
    pub fn bundle_set(&self) -> BundleSet {
        BundleSet::full_set().subset(&self.required_bundles())
    }

    /// The compressed bundles to ship, shared from the process-wide
    /// compress-once cache — subsetting is a pointer clone.
    #[must_use]
    pub fn packed_set(&self) -> PackedSet {
        ipd_pack::shared_full_set().subset(&self.required_bundles())
    }

    /// Total download size in bytes (compressed bundles). Reuses the
    /// memoized packed sizes; no compression runs per call.
    #[must_use]
    pub fn download_size(&self) -> usize {
        self.packed_set().total_packed()
    }
}

impl fmt::Display for IpExecutable {
    /// Renders the Figure 2 style configuration box.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "+-- IP delivery executable: {} ({})",
            self.product, self.vendor
        )?;
        writeln!(f, "|   module generator + circuit data structure")?;
        for cap in self.capabilities.iter() {
            writeln!(f, "|   [x] {cap}")?;
        }
        for cap in Capability::all() {
            if !self.capabilities.allows(cap) {
                writeln!(f, "|   [ ] {cap} (withheld)")?;
            }
        }
        let set = self.packed_set();
        writeln!(
            f,
            "|   download: {} bundle(s), {} kB",
            set.bundles().len(),
            set.total_packed().div_ceil(1024)
        )?;
        writeln!(f, "+--")
    }
}

/// One access record — the metering trail (the paper cites hardware
/// metering \[6\] as a complementary protection).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRecord {
    /// Customer id that accessed the server.
    pub customer: String,
    /// Day of access (vendor epoch days).
    pub day: u32,
    /// What was served, or why it was refused.
    pub outcome: String,
}

/// The vendor's applet web server: verifies profiles and serves
/// per-customer executables.
///
/// # Examples
///
/// ```
/// use ipd_core::{AppletServer, Capability, CapabilitySet};
///
/// # fn main() -> Result<(), ipd_core::CoreError> {
/// let mut server = AppletServer::new("byu", b"vendor-key".to_vec());
/// server.enroll("acme", "virtex-kcm", CapabilitySet::passive(), 0, 365);
/// let applet = server.serve("acme", 100)?;
/// assert!(!applet.capabilities().allows(Capability::Netlist));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AppletServer {
    vendor: String,
    authority: LicenseAuthority,
    profiles: HashMap<String, License>,
    audit: Vec<AuditRecord>,
    /// The vendor's bundle catalog (built once, not per request).
    catalog: BundleSet,
    /// Content digest per catalog bundle, precomputed so the warm
    /// serve path hashes nothing.
    digests: HashMap<String, Digest>,
    /// Compress-once packed cache shared across all customers.
    store: BundleStore,
    /// The next sealing nonce. Every seal this server issues draws from
    /// this one counter, so no two payloads share a keystream; it
    /// starts at wall-clock nanoseconds so a restarted vendor does not
    /// replay the nonces of its previous run.
    next_nonce: u64,
}

impl AppletServer {
    /// A server for one vendor with a signing key.
    #[must_use]
    pub fn new(vendor: impl Into<String>, key: Vec<u8>) -> Self {
        AppletServer {
            vendor: vendor.into(),
            authority: LicenseAuthority::new(key),
            profiles: HashMap::new(),
            audit: Vec::new(),
            catalog: BundleSet::full_set(),
            digests: builtin_digests().clone(),
            store: BundleStore::new(),
            next_nonce: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |since| since.as_nanos() as u64),
        }
    }

    /// The vendor's license authority (for issuing out-of-band
    /// licenses).
    #[must_use]
    pub fn authority(&self) -> &LicenseAuthority {
        &self.authority
    }

    /// Issues and registers a license for a customer profile.
    pub fn enroll(
        &mut self,
        customer: &str,
        product: &str,
        capabilities: CapabilitySet,
        issued_day: u32,
        expiry_day: u32,
    ) -> License {
        let license = self
            .authority
            .issue(customer, product, capabilities, issued_day, expiry_day);
        self.profiles.insert(customer.to_owned(), license.clone());
        license
    }

    /// Whether a customer profile is enrolled (no license check — the
    /// wire front-end uses this to refuse unknown tokens at the
    /// handshake, before any endpoint is served).
    #[must_use]
    pub fn knows_customer(&self, customer: &str) -> bool {
        self.profiles.contains_key(customer)
    }

    /// Serves the executable matching a customer's license — "the web
    /// server can provide an executable applet customized to the needs
    /// or license of the user" (paper §1.1).
    ///
    /// # Errors
    ///
    /// Fails for unknown customers and invalid or expired licenses;
    /// refusals are audited too.
    pub fn serve(&mut self, customer: &str, today: u32) -> Result<IpExecutable, CoreError> {
        let license = self.authorize(customer, today)?;
        let executable = IpExecutable::new(
            license.product(),
            self.vendor.clone(),
            license.capabilities(),
        );
        self.record(
            customer,
            today,
            format!(
                "served {} with [{}]",
                license.product(),
                license.capabilities()
            ),
        );
        Ok(executable)
    }

    /// License lookup + verification with audited refusals — the
    /// shared front half of every serve-style endpoint.
    pub(crate) fn authorize(&mut self, customer: &str, today: u32) -> Result<License, CoreError> {
        let Some(license) = self.profiles.get(customer).cloned() else {
            self.record(customer, today, "refused: unknown customer".to_owned());
            return Err(CoreError::UnknownCustomer {
                customer: customer.to_owned(),
            });
        };
        if let Err(e) = self.authority.verify(&license, today) {
            self.record(customer, today, format!("refused: {e}"));
            return Err(e);
        }
        Ok(license)
    }

    /// Appends one record to the access log.
    fn record(&mut self, customer: &str, day: u32, outcome: String) {
        self.audit.push(AuditRecord {
            customer: customer.to_owned(),
            day,
            outcome,
        });
    }

    /// Reserves `count` consecutive sealing nonces and returns the
    /// first.
    fn take_nonces(&mut self, count: u64) -> u64 {
        let first = self.next_nonce;
        self.next_nonce = first.wrapping_add(count);
        first
    }

    /// The delivery manifest for a customer: bundle names, content
    /// digests and compressed sizes — what a client inspects before
    /// deciding which digests to present to [`AppletServer::fetch`].
    /// Does not count as a served access.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AppletServer::serve`].
    pub fn manifest(&mut self, customer: &str, today: u32) -> Result<DeliveryManifest, CoreError> {
        let license = self.authorize(customer, today)?;
        let executable = IpExecutable::new(
            license.product(),
            self.vendor.clone(),
            license.capabilities(),
        );
        let entries = executable
            .required_bundles()
            .iter()
            .map(|name| {
                let digest = self.digests[*name];
                let bundle = self.catalog.get(name).expect("catalog covers required set");
                let packed = self.store.get_or_pack_keyed(digest, bundle);
                ManifestEntry {
                    name: (*name).to_owned(),
                    digest,
                    packed_size: packed.packed_size(),
                }
            })
            .collect();
        self.record(customer, today, format!("manifest {}", license.product()));
        Ok(DeliveryManifest::new(license.product().to_owned(), entries))
    }

    /// Conditional bundle delivery — the HTTP-304 upgrade of the
    /// paper's "fetch only what it uses". The client presents the
    /// digests it already holds; the server answers with payload bytes
    /// for missing or changed bundles and `NotModified` markers for
    /// the rest. Payloads come from the content-addressed store, so a
    /// bundle is compressed at most once per server no matter how many
    /// customers request it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AppletServer::serve`]; refusals are
    /// audited.
    pub fn fetch(
        &mut self,
        customer: &str,
        today: u32,
        have: &[Digest],
    ) -> Result<DeliveryResponse, CoreError> {
        let license = self.authorize(customer, today)?;
        let executable = IpExecutable::new(
            license.product(),
            self.vendor.clone(),
            license.capabilities(),
        );
        let mut items = Vec::new();
        let mut bytes = 0usize;
        for name in executable.required_bundles() {
            let digest = self.digests[name];
            if have.contains(&digest) {
                self.store.note_not_modified();
                items.push(BundleDelivery::NotModified {
                    name: name.to_owned(),
                    digest,
                });
                continue;
            }
            let bundle = self.catalog.get(name).expect("catalog covers required set");
            let packed = self.store.get_or_pack_keyed(digest, bundle);
            let payload = packed.wire_bytes();
            bytes += payload.len();
            items.push(BundleDelivery::Payload {
                name: name.to_owned(),
                digest,
                bytes: payload,
            });
        }
        self.store.note_served(bytes);
        let delivered = items
            .iter()
            .filter(|i| matches!(i, BundleDelivery::Payload { .. }))
            .count();
        self.record(
            customer,
            today,
            format!(
                "served {} bundles: {} payload(s), {} not-modified, {} bytes",
                license.product(),
                delivered,
                items.len() - delivered,
                bytes
            ),
        );
        Ok(DeliveryResponse::new(license.product().to_owned(), items))
    }

    /// Serves one bundle's packed wire bytes by content digest, as the
    /// store's shared `Arc` — the zero-copy segment path: a wire
    /// server hands the returned `Arc` straight to its vectored socket
    /// write, so the packed bytes are never copied per customer. Only
    /// digests in the customer's own required set are served; asking
    /// for anything else is refused and audited.
    ///
    /// # Errors
    ///
    /// Same license conditions as [`AppletServer::serve`], plus
    /// [`CoreError::UnknownModule`] for a digest outside the
    /// customer's bundle set.
    pub fn fetch_segment(
        &mut self,
        customer: &str,
        today: u32,
        digest: &Digest,
    ) -> Result<Arc<[u8]>, CoreError> {
        let license = self.authorize(customer, today)?;
        let executable = IpExecutable::new(
            license.product(),
            self.vendor.clone(),
            license.capabilities(),
        );
        for name in executable.required_bundles() {
            if self.digests[name] != *digest {
                continue;
            }
            let bundle = self.catalog.get(name).expect("catalog covers required set");
            let packed = self.store.get_or_pack_keyed(*digest, bundle);
            let payload = packed.wire_bytes();
            self.store.note_served(payload.len());
            self.record(
                customer,
                today,
                format!("served segment {name}: {} bytes", payload.len()),
            );
            return Ok(payload);
        }
        self.record(
            customer,
            today,
            "refused: segment digest outside bundle set".to_owned(),
        );
        Err(CoreError::UnknownModule {
            module: format!(
                "segment {:02x}{:02x}{:02x}{:02x}…",
                digest[0], digest[1], digest[2], digest[3]
            ),
        })
    }

    /// The content-addressed bundle store (hit/miss/bytes counters).
    #[must_use]
    pub fn store(&self) -> &BundleStore {
        &self.store
    }

    /// Serves the executable's bundles *sealed* to the customer's
    /// license key (the paper's §4.3 "class encryption"): each bundle
    /// is encrypted and authenticated so an intercepted download or a
    /// shared proxy cache yields nothing without the license.
    ///
    /// Returns `(bundle name, sealed bytes)` pairs; unseal with
    /// [`crate::unseal`] under [`crate::bundle_key`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`AppletServer::serve`].
    pub fn serve_sealed(
        &mut self,
        customer: &str,
        today: u32,
        vendor_key: &[u8],
    ) -> Result<Vec<(String, Vec<u8>)>, CoreError> {
        Ok(self.admit_sealed(customer, today, vendor_key)?.seal())
    }

    /// The locked step of [`AppletServer::serve_sealed`]: serves the
    /// executable (audited) and hands back what sealing needs, so the
    /// seals themselves can run without the vendor lock.
    pub(crate) fn admit_sealed(
        &mut self,
        customer: &str,
        today: u32,
        vendor_key: &[u8],
    ) -> Result<BundleSeal, CoreError> {
        let executable = self.serve(customer, today)?;
        let license = self
            .profiles
            .get(customer)
            .cloned()
            .expect("serve succeeded, profile exists");
        // Plaintext comes from the compress-once store (sealing is
        // per-customer, but the packed bytes underneath are shared).
        let payloads: Vec<(String, Arc<[u8]>)> = executable
            .required_bundles()
            .into_iter()
            .map(|name| {
                let bundle = self.catalog.get(name).expect("catalog covers required set");
                let packed = self.store.get_or_pack_keyed(self.digests[name], bundle);
                (name.to_owned(), packed.wire_bytes())
            })
            .collect();
        Ok(BundleSeal {
            key: crate::seal::bundle_key(vendor_key, &license),
            first_nonce: self.take_nonces(payloads.len() as u64),
            payloads,
        })
    }

    /// Seals a *design netlist* for a customer, refusing to ship
    /// anything that fails a gate of `policy`. The gates run
    /// vendor-side, before encryption: a customer must never receive a
    /// broken netlist, and every exception must be an explicit waiver
    /// in the policy's lint configuration (the surviving report ships
    /// with the payload for audit).
    ///
    /// # Errors
    ///
    /// License conditions as for [`AppletServer::serve`], plus the
    /// refusals of [`crate::seal_design`] — refusals of every kind are
    /// audited.
    pub fn serve_design_sealed(
        &mut self,
        customer: &str,
        today: u32,
        vendor_key: &[u8],
        circuit: &ipd_hdl::Circuit,
        policy: &crate::seal::SealPolicy,
    ) -> Result<crate::seal::SealedDesign, CoreError> {
        let (key, nonce) = self.admit_design_seal(customer, today, vendor_key)?;
        let sealed = crate::seal::seal_design(circuit, policy, &key, nonce);
        self.audit_design_seal(customer, today, circuit.name(), &sealed);
        sealed
    }

    /// The authorize step of a sealed-design request, run under the
    /// vendor lock: the license check (refusals audited), the
    /// customer's bundle key, and a fresh nonce. The gate, netlist and
    /// seal run afterwards without the lock.
    pub(crate) fn admit_design_seal(
        &mut self,
        customer: &str,
        today: u32,
        vendor_key: &[u8],
    ) -> Result<([u8; 32], u64), CoreError> {
        let license = self.authorize(customer, today)?;
        Ok((
            crate::seal::bundle_key(vendor_key, &license),
            self.take_nonces(1),
        ))
    }

    /// The audit step of a sealed-design request: a delivery or a
    /// refusal, whichever the gate decided.
    pub(crate) fn audit_design_seal(
        &mut self,
        customer: &str,
        today: u32,
        design: &str,
        sealed: &Result<crate::seal::SealedDesign, CoreError>,
    ) {
        let outcome = match sealed {
            Ok(sealed) => format!(
                "served design {design} sealed ({})",
                sealed.report().summary()
            ),
            Err(e) => format!("refused: {e}"),
        };
        self.record(customer, today, outcome);
    }

    /// The audit step of a served lint report.
    pub(crate) fn audit_lint_report(
        &mut self,
        customer: &str,
        today: u32,
        design: &str,
        report: &ipd_lint::LintReport,
    ) {
        let outcome = format!("served lint report for {design} ({})", report.summary());
        self.record(customer, today, outcome);
    }

    /// Runs the STA engine over a design under a constraint set on
    /// behalf of a licensed customer and returns the aggregate
    /// [`ipd_estimate::SlackSummary`] — closure status without path or
    /// endpoint names, safe to show any enrolled evaluator. The access
    /// is audited; a failing summary is returned rather than refused
    /// since no netlist ships.
    ///
    /// # Errors
    ///
    /// License conditions as for [`AppletServer::serve`], plus STA
    /// failures (flattening errors, combinational loops).
    pub fn serve_slack_summary(
        &mut self,
        customer: &str,
        today: u32,
        circuit: &ipd_hdl::Circuit,
        constraints: &ipd_estimate::TimingConstraints,
    ) -> Result<ipd_estimate::SlackSummary, CoreError> {
        self.authorize(customer, today)?;
        let report = ipd_estimate::analyze_timing(circuit, constraints)?;
        self.audit_slack_summary(customer, today, circuit.name(), &report);
        Ok(report.slack_summary())
    }

    /// The audit step of a served slack summary.
    pub(crate) fn audit_slack_summary(
        &mut self,
        customer: &str,
        today: u32,
        design: &str,
        report: &ipd_estimate::StaReport,
    ) {
        let outcome = format!("served slack summary for {design} ({})", report.summary());
        self.record(customer, today, outcome);
    }

    /// The full access log.
    #[must_use]
    pub fn audit_log(&self) -> &[AuditRecord] {
        &self.audit
    }

    /// How many times a customer was served (metering).
    #[must_use]
    pub fn access_count(&self, customer: &str) -> usize {
        self.audit
            .iter()
            .filter(|r| r.customer == customer && r.outcome.starts_with("served"))
            .count()
    }
}

/// Bundle payloads admitted for sealing under the vendor lock and
/// sealed without it: payload `i` is sealed to `key` under nonce
/// `first_nonce + i`.
pub(crate) struct BundleSeal {
    key: [u8; 32],
    first_nonce: u64,
    payloads: Vec<(String, Arc<[u8]>)>,
}

impl BundleSeal {
    /// Seals every payload: `(bundle name, sealed bytes)` pairs.
    pub(crate) fn seal(self) -> Vec<(String, Vec<u8>)> {
        self.payloads
            .into_iter()
            .enumerate()
            .map(|(i, (name, payload))| {
                let nonce = self.first_nonce.wrapping_add(i as u64);
                (name, crate::seal::seal(&payload, &self.key, nonce))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passive_and_licensed_configurations_differ() {
        let passive = IpExecutable::new("kcm", "byu", CapabilitySet::passive());
        let licensed = IpExecutable::new("kcm", "byu", CapabilitySet::licensed());
        let pb = passive.required_bundles();
        let lb = licensed.required_bundles();
        assert!(!pb.contains(&"Viewer"), "passive ships no viewers");
        assert!(!pb.contains(&"Netlist"));
        assert!(lb.contains(&"Viewer"));
        assert!(lb.contains(&"Netlist"));
        assert!(licensed.download_size() > passive.download_size());
    }

    #[test]
    fn black_box_configuration_ships_no_viewer() {
        let bb = IpExecutable::new("kcm", "byu", CapabilitySet::black_box());
        assert!(!bb.required_bundles().contains(&"Viewer"));
        assert!(!bb.required_bundles().contains(&"Netlist"));
    }

    #[test]
    fn display_shows_granted_and_withheld() {
        let exe = IpExecutable::new("kcm", "byu", CapabilitySet::passive());
        let text = exe.to_string();
        assert!(text.contains("[x] configure"));
        assert!(text.contains("[ ] netlist (withheld)"));
    }

    #[test]
    fn server_serves_per_profile() {
        let mut server = AppletServer::new("byu", b"key".to_vec());
        server.enroll("passive-co", "kcm", CapabilitySet::passive(), 0, 365);
        server.enroll("licensed-co", "kcm", CapabilitySet::licensed(), 0, 365);
        let p = server.serve("passive-co", 10).unwrap();
        let l = server.serve("licensed-co", 10).unwrap();
        assert!(l.capabilities().is_superset_of(&p.capabilities()));
        assert_ne!(p.capabilities(), l.capabilities());
    }

    #[test]
    fn sealed_delivery_binds_to_the_customer() {
        let vendor_key = b"vendor-key".to_vec();
        let mut server = AppletServer::new("byu", vendor_key.clone());
        let acme = server.enroll("acme", "kcm", CapabilitySet::passive(), 0, 365);
        let bolt = server.enroll("bolt", "kcm", CapabilitySet::passive(), 0, 365);
        let sealed = server.serve_sealed("acme", 10, &vendor_key).unwrap();
        assert!(!sealed.is_empty());
        let acme_key = crate::seal::bundle_key(&vendor_key, &acme);
        let bolt_key = crate::seal::bundle_key(&vendor_key, &bolt);
        for (name, bytes) in &sealed {
            let plain =
                crate::seal::unseal(bytes, &acme_key).unwrap_or_else(|e| panic!("{name}: {e}"));
            // The plaintext is a valid archive container.
            ipd_pack::Archive::from_bytes(&plain).expect("archive");
            // The other customer's key fails authentication.
            assert!(crate::seal::unseal(bytes, &bolt_key).is_err());
        }
    }

    #[test]
    fn every_seal_draws_a_fresh_nonce() {
        // Two different designs for one customer on one day, then the
        // bundle set: no two payloads may share a keystream.
        let vendor_key = b"vendor-key".to_vec();
        let mut server = AppletServer::new("byu", vendor_key.clone());
        let license = server.enroll("acme", "kcm", CapabilitySet::licensed(), 0, 365);
        let key = crate::seal::bundle_key(&vendor_key, &license);
        let policy = crate::seal::SealPolicy::default();
        let mut nonces = std::collections::HashSet::new();
        for constant in [-56, 93] {
            let kcm = ipd_modgen::KcmMultiplier::new(constant, 8, 12).signed(true);
            let circuit = ipd_hdl::Circuit::from_generator(&kcm).unwrap();
            let sealed = server
                .serve_design_sealed("acme", 10, &vendor_key, &circuit, &policy)
                .unwrap();
            assert!(nonces.insert(sealed.bytes()[..8].to_vec()), "nonce reused");
            let plain = crate::seal::unseal(sealed.bytes(), &key).unwrap();
            assert!(String::from_utf8(plain).unwrap().starts_with("(edif"));
        }
        for _ in 0..2 {
            for (name, bytes) in server.serve_sealed("acme", 10, &vendor_key).unwrap() {
                assert!(nonces.insert(bytes[..8].to_vec()), "{name}: nonce reused");
                crate::seal::unseal(&bytes, &key).unwrap_or_else(|e| panic!("{name}: {e}"));
            }
        }
    }

    #[test]
    fn design_delivery_is_lint_gated() {
        use ipd_techlib::LogicCtx;
        let vendor_key = b"vendor-key".to_vec();
        let mut server = AppletServer::new("byu", vendor_key.clone());
        let license = server.enroll("acme", "kcm", CapabilitySet::licensed(), 0, 365);

        // A design with contention is refused, and the refusal audited.
        let mut broken = ipd_hdl::Circuit::new("broken");
        let mut ctx = broken.root_ctx();
        let a = ctx.add_port(ipd_hdl::PortSpec::input("a", 1)).unwrap();
        let y = ctx.add_port(ipd_hdl::PortSpec::output("y", 1)).unwrap();
        ctx.buffer(a, y).unwrap();
        ctx.buffer(a, y).unwrap();
        let policy = crate::seal::SealPolicy::default();
        let err = server
            .serve_design_sealed("acme", 10, &vendor_key, &broken, &policy)
            .unwrap_err();
        assert!(matches!(err, CoreError::LintRejected { errors: 1, .. }));
        let last = server.audit_log().last().unwrap();
        assert!(last.outcome.contains("refused"), "{}", last.outcome);

        // A clean generator output is sealed to the customer key.
        let kcm = ipd_modgen::KcmMultiplier::new(-56, 8, 12).signed(true);
        let circuit = ipd_hdl::Circuit::from_generator(&kcm).unwrap();
        let sealed = server
            .serve_design_sealed("acme", 11, &vendor_key, &circuit, &policy)
            .expect("clean design serves");
        assert!(sealed.report().is_clean());
        let key = crate::seal::bundle_key(&vendor_key, &license);
        let plain = crate::seal::unseal(sealed.bytes(), &key).unwrap();
        assert!(String::from_utf8(plain).unwrap().starts_with("(edif"));
        let last = server.audit_log().last().unwrap();
        assert!(last.outcome.contains("served design"), "{}", last.outcome);
    }

    #[test]
    fn design_delivery_is_timing_gated() {
        use ipd_techlib::LogicCtx;
        let vendor_key = b"vendor-key".to_vec();
        let mut server = AppletServer::new("byu", vendor_key.clone());
        server.enroll("acme", "chain", CapabilitySet::licensed(), 0, 365);

        // A registered chain that cannot make 3 ns.
        let mut slow = ipd_hdl::Circuit::new("chain");
        {
            let mut ctx = slow.root_ctx();
            let clk = ctx.add_port(ipd_hdl::PortSpec::input("clk", 1)).unwrap();
            let d = ctx.add_port(ipd_hdl::PortSpec::input("d", 1)).unwrap();
            let q = ctx.add_port(ipd_hdl::PortSpec::output("q", 1)).unwrap();
            let mut cur: ipd_hdl::Signal = ctx.wire("s0", 1).into();
            ctx.fd(clk, d, cur.clone()).unwrap();
            for i in 0..16 {
                let nxt = ctx.wire(&format!("s{}", i + 1), 1);
                ctx.inv(cur, nxt).unwrap();
                cur = nxt.into();
            }
            ctx.fd(clk, cur, q).unwrap();
        }
        let mut constraints = ipd_lint::TimingConstraints::new();
        constraints.clock("clk", 3.0, "clk");
        let timed = crate::seal::SealPolicy {
            timing: Some(constraints.clone()),
            ..crate::seal::SealPolicy::default()
        };
        let err = server
            .serve_design_sealed("acme", 10, &vendor_key, &slow, &timed)
            .unwrap_err();
        assert!(matches!(err, CoreError::LintRejected { .. }));
        assert!(server
            .audit_log()
            .last()
            .unwrap()
            .outcome
            .contains("refused"));

        // The customer can inspect the aggregate summary (audited)...
        let summary = server
            .serve_slack_summary("acme", 10, &slow, &constraints)
            .unwrap();
        assert!(summary.violations() > 0);
        assert!(summary.worst_slack().unwrap() < 0.0);
        // ...and an untimed policy still serves the same design.
        let untimed = crate::seal::SealPolicy::default();
        server
            .serve_design_sealed("acme", 11, &vendor_key, &slow, &untimed)
            .expect("untimed delivery ignores slack");
    }

    #[test]
    fn unknown_and_expired_customers_refused_and_audited() {
        let mut server = AppletServer::new("byu", b"key".to_vec());
        server.enroll("acme", "kcm", CapabilitySet::passive(), 0, 30);
        assert!(matches!(
            server.serve("nobody", 10),
            Err(CoreError::UnknownCustomer { .. })
        ));
        assert!(matches!(
            server.serve("acme", 31),
            Err(CoreError::LicenseExpired { .. })
        ));
        assert_eq!(server.audit_log().len(), 2);
        assert_eq!(server.access_count("acme"), 0);
        server.serve("acme", 20).unwrap();
        assert_eq!(server.access_count("acme"), 1);
    }
}
