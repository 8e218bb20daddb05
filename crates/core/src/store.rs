//! Content digests and the conditional-delivery protocol.
//!
//! The paper's §4.4 partitioning lets an applet "require only those
//! Jar files required by the applet code"; this module upgrades that
//! to serve-many semantics. Each built-in bundle is compressed at most
//! once per process ([`ipd_pack::Bundle::wire_bytes`]), so every
//! request after the first — from any customer of any server whose
//! subset includes the same bundle — is an `Arc` pointer clone.
//! Bundles are named on the wire by the SHA-256 digest of their
//! *contents*, and conditional delivery adds the HTTP-304 analog: a
//! client presents the digests it already holds and the server
//! responds with [`BundleDelivery::NotModified`] instead of bytes.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use ipd_pack::{Bundle, BundleSet};

use crate::sha::sha256_parts;

/// A SHA-256 content digest.
pub type Digest = [u8; 32];

/// Digest of a bundle's uncompressed contents: its name plus every
/// entry's name and data, length-prefix framed. Any mutation — a
/// renamed entry, a flipped byte — changes the digest, so a mutated
/// bundle can never alias a cached one.
#[must_use]
pub fn bundle_digest(bundle: &Bundle) -> Digest {
    let mut parts: Vec<&[u8]> = Vec::with_capacity(2 + 2 * bundle.archive().len());
    parts.push(b"ipd-bundle-v1");
    parts.push(bundle.name().as_bytes());
    for entry in bundle.archive().entries() {
        parts.push(entry.name().as_bytes());
        parts.push(entry.data());
    }
    sha256_parts(&parts)
}

/// Digests of the built-in [`BundleSet::full_set`] bundles, computed
/// once per process (the built-in sets are immutable: their contents
/// are embedded at compile time).
pub(crate) fn builtin_digests() -> &'static HashMap<String, Digest> {
    static DIGESTS: OnceLock<HashMap<String, Digest>> = OnceLock::new();
    DIGESTS.get_or_init(|| {
        BundleSet::full_set()
            .bundles()
            .iter()
            .map(|b| (b.name().to_owned(), bundle_digest(b)))
            .collect()
    })
}

/// Counters a delivery bench (and an operator) watches, kept per
/// [`crate::AppletServer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups that found the bundle already packed in the process.
    pub hits: u64,
    /// Lookups that had to run compression.
    pub misses: u64,
    /// Bundles skipped because the client already held their digest
    /// (the HTTP-304 analog).
    pub not_modified: u64,
    /// Compressed payload bytes actually transferred.
    pub bytes_served: u64,
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits, {} misses, {} not-modified, {} bytes served",
            self.hits, self.misses, self.not_modified, self.bytes_served
        )
    }
}

/// One row of a delivery manifest: what the server would ship.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Bundle name.
    pub name: String,
    /// Content digest of the bundle.
    pub digest: Digest,
    /// Compressed download size in bytes.
    pub packed_size: usize,
}

/// The bundle list (names, digests, sizes) for one customer's
/// executable — what a client consults to decide which digests to
/// present in a conditional fetch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveryManifest {
    product: String,
    entries: Vec<ManifestEntry>,
}

impl DeliveryManifest {
    pub(crate) fn new(product: String, entries: Vec<ManifestEntry>) -> Self {
        DeliveryManifest { product, entries }
    }

    /// Product the manifest describes.
    #[must_use]
    pub fn product(&self) -> &str {
        &self.product
    }

    /// The manifest rows.
    #[must_use]
    pub fn entries(&self) -> &[ManifestEntry] {
        &self.entries
    }

    /// Total download size if the client holds nothing.
    #[must_use]
    pub fn total_packed(&self) -> usize {
        self.entries.iter().map(|e| e.packed_size).sum()
    }
}

/// One bundle's delivery outcome in a conditional fetch.
#[derive(Debug, Clone)]
pub enum BundleDelivery {
    /// The client already holds this exact content (HTTP-304 analog).
    NotModified {
        /// Bundle name.
        name: String,
        /// The digest the client presented.
        digest: Digest,
    },
    /// Full compressed container bytes, shared from the catalog.
    Payload {
        /// Bundle name.
        name: String,
        /// Content digest of the delivered bundle.
        digest: Digest,
        /// The serialized archive container (the bundle's memoized
        /// bytes, shared by every server in the process).
        bytes: Arc<[u8]>,
    },
}

impl BundleDelivery {
    /// Bundle name for either outcome.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            BundleDelivery::NotModified { name, .. } | BundleDelivery::Payload { name, .. } => name,
        }
    }

    /// Content digest for either outcome.
    #[must_use]
    pub fn digest(&self) -> &Digest {
        match self {
            BundleDelivery::NotModified { digest, .. } | BundleDelivery::Payload { digest, .. } => {
                digest
            }
        }
    }
}

/// The server's answer to a conditional fetch.
#[derive(Debug, Clone)]
pub struct DeliveryResponse {
    product: String,
    items: Vec<BundleDelivery>,
}

impl DeliveryResponse {
    pub(crate) fn new(product: String, items: Vec<BundleDelivery>) -> Self {
        DeliveryResponse { product, items }
    }

    /// Product the response serves.
    #[must_use]
    pub fn product(&self) -> &str {
        &self.product
    }

    /// Per-bundle outcomes in required-bundle order.
    #[must_use]
    pub fn items(&self) -> &[BundleDelivery] {
        &self.items
    }

    /// Compressed bytes actually transferred.
    #[must_use]
    pub fn bytes_transferred(&self) -> usize {
        self.items
            .iter()
            .map(|i| match i {
                BundleDelivery::Payload { bytes, .. } => bytes.len(),
                BundleDelivery::NotModified { .. } => 0,
            })
            .sum()
    }

    /// How many bundles carried payloads.
    #[must_use]
    pub fn delivered(&self) -> usize {
        self.items
            .iter()
            .filter(|i| matches!(i, BundleDelivery::Payload { .. }))
            .count()
    }

    /// How many bundles were skipped as not-modified.
    #[must_use]
    pub fn not_modified(&self) -> usize {
        self.items.len() - self.delivered()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_content_addressed() {
        let a = Bundle::from_entries("X", "d", &[("f", "hello world")]).unwrap();
        let same = Bundle::from_entries("X", "d", &[("f", "hello world")]).unwrap();
        let flipped = Bundle::from_entries("X", "d", &[("f", "hello worlD")]).unwrap();
        let renamed = Bundle::from_entries("X", "d", &[("g", "hello world")]).unwrap();
        assert_eq!(bundle_digest(&a), bundle_digest(&same));
        assert_ne!(bundle_digest(&a), bundle_digest(&flipped));
        assert_ne!(bundle_digest(&a), bundle_digest(&renamed));
    }

    #[test]
    fn cached_wire_bytes_match_cold_serialization() {
        let bundle =
            Bundle::from_entries("X", "d", &[("f", "abcabcabc"), ("g", "xyzxyzxyz")]).unwrap();
        let (first, packed_now) = bundle.pack_once();
        assert!(packed_now, "the first lookup packs");
        assert_eq!(
            first.to_vec(),
            bundle.archive().to_bytes(),
            "the catalog must serve byte-identical containers"
        );
        let (again, packed_now) = bundle.pack_once();
        assert!(!packed_now, "a later lookup finds the bytes packed");
        assert!(Arc::ptr_eq(&first, &again));
    }

    #[test]
    fn builtin_digests_cover_the_full_set() {
        let digests = builtin_digests();
        for bundle in BundleSet::full_set().bundles() {
            assert!(digests.contains_key(bundle.name()));
        }
        assert_eq!(digests.len(), BundleSet::full_set().bundles().len());
    }
}
