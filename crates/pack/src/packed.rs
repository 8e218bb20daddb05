//! Compress-once packed representations of archives and bundles.
//!
//! [`Archive::to_bytes`] re-runs LZSS over every entry each time it is
//! called, which is fine for a one-shot download but wrong for a
//! delivery server answering the same request millions of times. The
//! types here split *packing* from *measuring and serving*:
//!
//! - [`PackedEntry`] — one entry's wire segment (name, lengths, CRC,
//!   compressed payload), compressed exactly once and held behind an
//!   `Arc` so clones and subsets share storage.
//! - [`PackedArchive`] — a container whose serialization concatenates
//!   the cached segments; byte-identical to [`Archive::to_bytes`] by
//!   construction (both emit through the same wire helpers).
//! - [`PackedBundle`] / [`PackedSet`] — the bundle-level analogs, with
//!   memoized whole-container bytes for zero-copy serving.
//!
//! Independent entries are compressed on the calling thread and
//! helper threads that claim them from one counter (the same runner
//! as `ipd-sim`'s `VectorSweep`).

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::archive::{write_entry_segment, write_header, Archive};
use crate::bundle::{Bundle, BundleSet};
use crate::error::PackError;

/// One archive entry, compressed exactly once into its wire segment.
#[derive(Debug, Clone)]
pub struct PackedEntry {
    name: String,
    raw_len: usize,
    segment: Arc<[u8]>,
}

impl PackedEntry {
    /// Compresses one `(name, data)` pair into its cached segment.
    fn pack(name: &str, data: &[u8]) -> Self {
        let mut segment = Vec::new();
        write_entry_segment(&mut segment, name, data);
        PackedEntry {
            name: name.to_owned(),
            raw_len: data.len(),
            segment: segment.into(),
        }
    }

    /// Entry name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Uncompressed length of the entry.
    #[must_use]
    pub fn raw_len(&self) -> usize {
        self.raw_len
    }

    /// Length of the cached wire segment (headers + packed payload).
    #[must_use]
    pub fn segment_len(&self) -> usize {
        self.segment.len()
    }
}

/// Compresses a list of `(name, data)` jobs in order. The calling
/// thread and up to `threads − 1` helpers each claim the next entry
/// from one counter; a helper the OS refuses to start is skipped, so
/// the caller alone can finish the list.
fn pack_jobs(jobs: &[(&str, &[u8])], threads: usize) -> Vec<PackedEntry> {
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<PackedEntry>> = jobs.iter().map(|_| OnceLock::new()).collect();
    let work = || loop {
        let k = next.fetch_add(1, Ordering::Relaxed);
        let Some(&(name, data)) = jobs.get(k) else {
            break;
        };
        let _ = slots[k].set(PackedEntry::pack(name, data));
    };
    std::thread::scope(|scope| {
        for _ in 1..threads.min(jobs.len()) {
            let _ = std::thread::Builder::new().spawn_scoped(scope, work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every job packed"))
        .collect()
}

/// An archive compressed once, serialized by concatenating cached
/// segments.
///
/// # Examples
///
/// ```
/// use ipd_pack::{Archive, PackedArchive};
///
/// # fn main() -> Result<(), ipd_pack::PackError> {
/// let mut archive = Archive::new("applet");
/// archive.add("kcm.class", b"...bytecode...".to_vec())?;
/// let packed = PackedArchive::from_archive(&archive);
/// // Byte-identical to the compress-every-time path.
/// assert_eq!(packed.to_bytes(), archive.to_bytes());
/// assert_eq!(packed.packed_size(), archive.packed_size());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PackedArchive {
    name: String,
    header: Arc<[u8]>,
    entries: Vec<PackedEntry>,
    packed_size: usize,
}

impl PackedArchive {
    /// Compresses every entry of `archive` once (sequentially).
    #[must_use]
    pub fn from_archive(archive: &Archive) -> Self {
        Self::with_threads(archive, 1)
    }

    /// Compresses entries on up to `threads` threads, the caller's
    /// included.
    #[must_use]
    pub fn with_threads(archive: &Archive, threads: usize) -> Self {
        let jobs: Vec<(&str, &[u8])> = archive
            .entries()
            .iter()
            .map(|e| (e.name(), e.data()))
            .collect();
        let entries = pack_jobs(&jobs, threads);
        Self::assemble(archive.name(), entries)
    }

    /// Builds the container from already-packed entry segments.
    fn assemble(name: &str, entries: Vec<PackedEntry>) -> Self {
        let mut header = Vec::new();
        write_header(&mut header, name, entries.len());
        let packed_size =
            header.len() + entries.iter().map(PackedEntry::segment_len).sum::<usize>();
        PackedArchive {
            name: name.to_owned(),
            header: header.into(),
            entries,
            packed_size,
        }
    }

    /// Archive name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The packed entries.
    #[must_use]
    pub fn entries(&self) -> &[PackedEntry] {
        &self.entries
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when there are no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialized size in bytes — memoized, no compression performed.
    #[must_use]
    pub fn packed_size(&self) -> usize {
        self.packed_size
    }

    /// Total uncompressed payload size.
    #[must_use]
    pub fn raw_size(&self) -> usize {
        self.entries.iter().map(PackedEntry::raw_len).sum()
    }

    /// Serializes the container by concatenating the cached segments.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.packed_size);
        out.extend_from_slice(&self.header);
        for entry in &self.entries {
            out.extend_from_slice(&entry.segment);
        }
        out
    }

    /// Decompresses back into an [`Archive`].
    ///
    /// # Errors
    ///
    /// Propagates [`PackError`] from container parsing (which cannot
    /// fail for segments this type produced, but the signature keeps
    /// the round-trip honest).
    pub fn unpack(&self) -> Result<Archive, PackError> {
        Archive::from_bytes(&self.to_bytes())
    }
}

/// A bundle compressed once, with memoized whole-container bytes.
#[derive(Debug, Clone)]
pub struct PackedBundle {
    name: String,
    description: String,
    archive: PackedArchive,
    wire: OnceLock<Arc<[u8]>>,
}

impl PackedBundle {
    /// Packs a bundle (sequentially).
    #[must_use]
    pub fn from_bundle(bundle: &Bundle) -> Self {
        Self::with_threads(bundle, 1)
    }

    /// Packs a bundle's entries on up to `threads` threads, the
    /// caller's included.
    #[must_use]
    pub fn with_threads(bundle: &Bundle, threads: usize) -> Self {
        PackedBundle {
            name: bundle.name().to_owned(),
            description: bundle.description().to_owned(),
            archive: PackedArchive::with_threads(bundle.archive(), threads),
            wire: OnceLock::new(),
        }
    }

    fn assemble(bundle: &Bundle, entries: Vec<PackedEntry>) -> Self {
        PackedBundle {
            name: bundle.name().to_owned(),
            description: bundle.description().to_owned(),
            archive: PackedArchive::assemble(bundle.archive().name(), entries),
            wire: OnceLock::new(),
        }
    }

    /// Bundle name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table 1 description column.
    #[must_use]
    pub fn description(&self) -> &str {
        &self.description
    }

    /// The packed archive.
    #[must_use]
    pub fn archive(&self) -> &PackedArchive {
        &self.archive
    }

    /// Download size in bytes — memoized.
    #[must_use]
    pub fn packed_size(&self) -> usize {
        self.archive.packed_size()
    }

    /// Uncompressed payload size.
    #[must_use]
    pub fn raw_size(&self) -> usize {
        self.archive.raw_size()
    }

    /// The full serialized container, memoized behind an `Arc` so
    /// serving the same bundle many times is a pointer clone.
    #[must_use]
    pub fn wire_bytes(&self) -> Arc<[u8]> {
        Arc::clone(self.wire.get_or_init(|| self.archive.to_bytes().into()))
    }

    /// Decompresses back into an [`Archive`].
    ///
    /// # Errors
    ///
    /// Propagates [`PackError`] from container parsing.
    pub fn unpack(&self) -> Result<Archive, PackError> {
        self.archive.unpack()
    }
}

/// A set of packed bundles sharing `Arc` storage; subsets are pointer
/// clones, never recompressions.
///
/// # Examples
///
/// ```
/// use ipd_pack::{BundleSet, PackedSet};
///
/// let set = BundleSet::jhdl_applet_set();
/// let packed = PackedSet::from_set(&set);
/// assert_eq!(packed.total_packed(), set.total_packed());
/// let sub = packed.subset(&["Virtex"]);
/// assert_eq!(sub.bundles().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PackedSet {
    bundles: Vec<Arc<PackedBundle>>,
}

impl PackedSet {
    /// Packs every bundle of `set` once (sequentially).
    #[must_use]
    pub fn from_set(set: &BundleSet) -> Self {
        Self::with_threads(set, 1)
    }

    /// Packs the set on up to `threads` threads, the caller's included.
    /// The job list is flattened across bundles so every independent
    /// *entry* parallelizes, not just whole bundles.
    #[must_use]
    pub fn with_threads(set: &BundleSet, threads: usize) -> Self {
        let jobs: Vec<(&str, &[u8])> = set
            .bundles()
            .iter()
            .flat_map(|b| b.archive().entries().iter().map(|e| (e.name(), e.data())))
            .collect();
        let mut packed = pack_jobs(&jobs, threads).into_iter();
        let bundles = set
            .bundles()
            .iter()
            .map(|b| {
                let entries: Vec<PackedEntry> = packed.by_ref().take(b.archive().len()).collect();
                Arc::new(PackedBundle::assemble(b, entries))
            })
            .collect();
        PackedSet { bundles }
    }

    /// Wraps already-shared bundles into a set.
    #[must_use]
    pub fn from_shared(bundles: Vec<Arc<PackedBundle>>) -> Self {
        PackedSet { bundles }
    }

    /// The bundles in order.
    #[must_use]
    pub fn bundles(&self) -> &[Arc<PackedBundle>] {
        &self.bundles
    }

    /// Looks up a bundle by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Arc<PackedBundle>> {
        self.bundles.iter().find(|b| b.name() == name)
    }

    /// A subset by names — shares storage with `self` (unknown names
    /// are skipped).
    #[must_use]
    pub fn subset(&self, names: &[&str]) -> PackedSet {
        PackedSet {
            bundles: self
                .bundles
                .iter()
                .filter(|b| names.contains(&b.name()))
                .map(Arc::clone)
                .collect(),
        }
    }

    /// Total download size of the set — memoized, no compression.
    #[must_use]
    pub fn total_packed(&self) -> usize {
        self.bundles.iter().map(|b| b.packed_size()).sum()
    }

    /// Total uncompressed size of the set.
    #[must_use]
    pub fn total_raw(&self) -> usize {
        self.bundles.iter().map(|b| b.raw_size()).sum()
    }
}

impl fmt::Display for PackedSet {
    /// Renders the Table 1 layout from memoized sizes.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<14} {:>9}  Description", "File", "Size")?;
        for b in &self.bundles {
            writeln!(
                f,
                "{:<14} {:>6} kB  {}",
                format!("{}.jar", b.name()),
                b.packed_size().div_ceil(1024),
                b.description()
            )?;
        }
        writeln!(
            f,
            "{:<14} {:>6} kB",
            "Total",
            self.total_packed().div_ceil(1024)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_archive() -> Archive {
        let mut a = Archive::new("sample");
        a.add("one", b"partial product lookup ".repeat(40).to_vec())
            .unwrap();
        a.add("two", vec![7u8; 900]).unwrap();
        a.add("empty", Vec::new()).unwrap();
        a
    }

    #[test]
    fn packed_archive_bytes_match_archive_bytes() {
        let a = sample_archive();
        let p = PackedArchive::from_archive(&a);
        assert_eq!(p.to_bytes(), a.to_bytes());
        assert_eq!(p.packed_size(), a.packed_size());
        assert_eq!(p.raw_size(), a.raw_size());
        assert_eq!(p.unpack().unwrap(), a);
    }

    #[test]
    fn parallel_packing_matches_sequential() {
        let a = sample_archive();
        let seq = PackedArchive::with_threads(&a, 1);
        let par = PackedArchive::with_threads(&a, 8);
        assert_eq!(seq.to_bytes(), par.to_bytes());
    }

    #[test]
    fn wire_bytes_are_memoized_and_shared() {
        let set = BundleSet::jhdl_applet_set();
        let packed = PackedSet::from_set(&set);
        let bundle = packed.get("Applet").expect("applet");
        let first = bundle.wire_bytes();
        let second = bundle.wire_bytes();
        assert!(
            Arc::ptr_eq(&first, &second),
            "serve-many is a pointer clone"
        );
        assert_eq!(first.len(), bundle.packed_size());
    }

    #[test]
    fn subsets_share_bundle_storage() {
        let packed = PackedSet::from_set(&BundleSet::jhdl_applet_set());
        let sub = packed.subset(&["Virtex", "Applet"]);
        assert_eq!(sub.bundles().len(), 2);
        for b in sub.bundles() {
            let original = packed.get(b.name()).expect("from full set");
            assert!(Arc::ptr_eq(b, original), "{} not shared", b.name());
        }
    }

    #[test]
    fn set_display_matches_bundle_set_display() {
        let set = BundleSet::jhdl_applet_set();
        let packed = PackedSet::from_set(&set);
        assert_eq!(packed.to_string(), set.to_string());
    }
}
