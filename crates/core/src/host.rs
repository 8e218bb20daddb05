//! The applet host: the browser-side sandbox an applet runs in.
//!
//! Java applets run inside the browser's security model: limited
//! resources, no network connections without explicit user permission
//! (the paper's §4.2 footnote), and cached downloads. [`AppletHost`]
//! reproduces those rules for applet sessions.

use std::collections::{HashMap, HashSet};

use crate::deliver::{AppletServer, IpExecutable};
use crate::error::CoreError;
use crate::store::{builtin_digests, BundleDelivery, DeliveryResponse, Digest};

/// Sandbox resource limits for one applet host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Maximum cells a built circuit may contain.
    pub max_cells: u64,
    /// Maximum simulated cycles per `cycle` call.
    pub max_cycles_per_call: u64,
    /// Maximum bytes of netlist text returned to the page.
    pub max_netlist_bytes: u64,
}

impl Default for ResourceLimits {
    fn default() -> Self {
        ResourceLimits {
            max_cells: 2_000_000,
            max_cycles_per_call: 1_000_000,
            max_netlist_bytes: 64 << 20,
        }
    }
}

/// The browser-side environment that downloads and hosts applets.
///
/// # Examples
///
/// ```
/// use ipd_core::{AppletHost, CapabilitySet, IpExecutable};
///
/// let mut host = AppletHost::new();
/// let exe = IpExecutable::new("kcm", "byu", CapabilitySet::passive());
/// let first = host.load(&exe);
/// let again = host.load(&exe);
/// assert!(first > 0);
/// assert_eq!(again, 0, "bundles are cached like a browser cache");
/// ```
#[derive(Debug, Clone, Default)]
pub struct AppletHost {
    limits: ResourceLimits,
    network_permission: bool,
    cached_bundles: HashSet<String>,
    /// Content digests of cached bundles — what a conditional fetch
    /// presents to the server (the browser-cache validator).
    cached_digests: HashMap<String, Digest>,
    bytes_downloaded: usize,
}

impl AppletHost {
    /// A host with default limits and no network permission.
    #[must_use]
    pub fn new() -> Self {
        AppletHost {
            limits: ResourceLimits::default(),
            ..AppletHost::default()
        }
    }

    /// A host with explicit limits.
    #[must_use]
    pub fn with_limits(limits: ResourceLimits) -> Self {
        AppletHost {
            limits,
            ..AppletHost::default()
        }
    }

    /// The sandbox limits.
    #[must_use]
    pub fn limits(&self) -> ResourceLimits {
        self.limits
    }

    /// The user grants network permission (required before any
    /// black-box socket export, per the default applet security model).
    pub fn grant_network_permission(&mut self) {
        self.network_permission = true;
    }

    /// Whether network connections are allowed.
    #[must_use]
    pub fn network_allowed(&self) -> bool {
        self.network_permission
    }

    /// Checks network permission.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NetworkDenied`] when the user has not
    /// granted permission.
    pub fn check_network(&self) -> Result<(), CoreError> {
        if self.network_permission {
            Ok(())
        } else {
            Err(CoreError::NetworkDenied)
        }
    }

    /// "Downloads" the executable's bundles, returning the bytes
    /// fetched this time. Already-cached bundles are free — revisiting
    /// a page re-uses them, matching the paper's §4.4 discussion.
    pub fn load(&mut self, executable: &IpExecutable) -> usize {
        let mut fetched = 0usize;
        for bundle in executable.bundle_set().bundles() {
            if self.cached_bundles.insert(bundle.name().to_owned()) {
                if let Some(digest) = builtin_digests().get(bundle.name()) {
                    self.cached_digests
                        .insert(bundle.name().to_owned(), *digest);
                }
                fetched += bundle.packed_size();
            }
        }
        self.bytes_downloaded += fetched;
        fetched
    }

    /// Fetches a customer's bundles from an [`AppletServer`]
    /// *conditionally*: the host presents the digests it already
    /// holds, the server answers with payloads only for missing or
    /// changed bundles (the HTTP-304 analog), and the host installs
    /// the result. Returns the bytes actually transferred.
    ///
    /// # Errors
    ///
    /// Propagates license failures from [`AppletServer::fetch`].
    pub fn sync(
        &mut self,
        server: &mut AppletServer,
        customer: &str,
        today: u32,
    ) -> Result<usize, CoreError> {
        let have = self.held_digests();
        let response = server.fetch(customer, today, &have)?;
        Ok(self.apply(&response))
    }

    /// [`AppletHost::sync`] against a *remote* vendor over the wire:
    /// the host presents its held digests through a connected
    /// [`crate::DeliveryClient`], the server answers payloads or
    /// not-modified markers, and the host installs the result.
    /// Returns the bytes actually transferred.
    ///
    /// (No network-permission check: this is the browser fetching from
    /// the vendor's web server — the direction the applet security
    /// model allows. The gate of §4.2 covers *applet-initiated*
    /// sockets, e.g. black-box co-simulation exports.)
    ///
    /// # Errors
    ///
    /// Propagates license refusals and transport failures from the
    /// delivery client.
    pub fn sync_wire(
        &mut self,
        client: &mut crate::DeliveryClient,
        today: u32,
    ) -> Result<usize, CoreError> {
        let have = self.held_digests();
        let response = client.fetch(today, &have)?;
        Ok(self.apply(&response))
    }

    /// Installs a delivery response into the cache, returning the
    /// bytes fetched (not-modified markers are free).
    pub fn apply(&mut self, response: &DeliveryResponse) -> usize {
        let mut fetched = 0usize;
        for item in response.items() {
            match item {
                BundleDelivery::NotModified { .. } => {}
                BundleDelivery::Payload {
                    name,
                    digest,
                    bytes,
                } => {
                    self.cached_bundles.insert(name.clone());
                    self.cached_digests.insert(name.clone(), *digest);
                    fetched += bytes.len();
                }
            }
        }
        self.bytes_downloaded += fetched;
        fetched
    }

    /// The content digests this host already holds.
    #[must_use]
    pub fn held_digests(&self) -> Vec<Digest> {
        self.cached_digests.values().copied().collect()
    }

    /// Total bytes fetched over this host's lifetime.
    #[must_use]
    pub fn bytes_downloaded(&self) -> usize {
        self.bytes_downloaded
    }

    /// Names of cached bundles.
    #[must_use]
    pub fn cached(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.cached_bundles.iter().map(String::as_str).collect();
        names.sort_unstable();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::CapabilitySet;

    #[test]
    fn network_permission_gate() {
        let mut host = AppletHost::new();
        assert!(matches!(
            host.check_network(),
            Err(CoreError::NetworkDenied)
        ));
        host.grant_network_permission();
        host.check_network().expect("granted");
        assert!(host.network_allowed());
    }

    #[test]
    fn upgrade_only_downloads_the_delta() {
        let mut host = AppletHost::new();
        let passive = IpExecutable::new("kcm", "byu", CapabilitySet::passive());
        let licensed = IpExecutable::new("kcm", "byu", CapabilitySet::licensed());
        let first = host.load(&passive);
        let upgrade = host.load(&licensed);
        assert!(upgrade > 0, "licensed needs extra bundles");
        assert!(
            upgrade < first + licensed.download_size() - passive.download_size() + 1,
            "shared bundles come from cache"
        );
        assert_eq!(host.bytes_downloaded(), first + upgrade);
        assert!(host.cached().contains(&"Viewer"));
    }

    #[test]
    fn conditional_sync_downloads_once() {
        let mut server = AppletServer::new("byu", b"key".to_vec());
        server.enroll("acme", "kcm", CapabilitySet::evaluation(), 0, 365);
        let mut host = AppletHost::new();
        let first = host.sync(&mut server, "acme", 1).expect("first sync");
        assert!(first > 0);
        let second = host.sync(&mut server, "acme", 2).expect("second sync");
        assert_eq!(second, 0, "everything revalidates as not-modified");
        assert_eq!(host.bytes_downloaded(), first);
        assert!(!host.held_digests().is_empty());
    }

    #[test]
    fn legacy_load_then_sync_transfers_nothing() {
        // `load` records the builtin digests, so a later conditional
        // fetch of the same executable is all 304s.
        let mut server = AppletServer::new("byu", b"key".to_vec());
        server.enroll("acme", "kcm", CapabilitySet::evaluation(), 0, 365);
        let exe = server.serve("acme", 1).expect("serve");
        let mut host = AppletHost::new();
        assert!(host.load(&exe) > 0);
        let delta = host.sync(&mut server, "acme", 1).expect("sync");
        assert_eq!(delta, 0);
    }

    #[test]
    fn custom_limits() {
        let limits = ResourceLimits {
            max_cells: 10,
            max_cycles_per_call: 5,
            max_netlist_bytes: 100,
        };
        let host = AppletHost::with_limits(limits);
        assert_eq!(host.limits().max_cells, 10);
    }
}
