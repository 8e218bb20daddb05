//! Process-wide compress-once cache for the built-in bundle sets.
//!
//! The built-in sets embed this workspace's sources at compile time,
//! so their packed form is immutable for the life of the process.
//! Every measure/serve path (`IpExecutable::download_size`, applet
//! host downloads, the Table 1 renderers) can therefore share one
//! packing pass instead of re-running LZSS per call. That pass runs on
//! the calling thread plus up to [`default_threads`] − 1 helpers, which
//! claim entries from one counter; where no helper can start, the
//! caller packs alone.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::bundle::BundleSet;
use crate::packed::PackedSet;

static FULL_SET: OnceLock<PackedSet> = OnceLock::new();
static PACK_PASSES: AtomicU64 = AtomicU64::new(0);

/// Default thread count for packing, the caller's included: the
/// machine's available parallelism (1 when it cannot be queried).
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The packed [`BundleSet::full_set`], compressed exactly once per
/// process (on [`default_threads`] threads) and shared behind `Arc`
/// storage thereafter.
///
/// # Examples
///
/// ```
/// use ipd_pack::shared_full_set;
///
/// let a = shared_full_set().total_packed();
/// let b = shared_full_set().total_packed(); // memoized, no LZSS run
/// assert_eq!(a, b);
/// ```
#[must_use]
pub fn shared_full_set() -> &'static PackedSet {
    FULL_SET.get_or_init(|| {
        PACK_PASSES.fetch_add(1, Ordering::Relaxed);
        PackedSet::with_threads(&BundleSet::full_set(), default_threads())
    })
}

/// The packed Table 1 applet set — a storage-sharing subset of
/// [`shared_full_set`], so it costs no additional compression.
#[must_use]
pub fn shared_applet_set() -> PackedSet {
    shared_full_set().subset(&["JHDLBase", "Virtex", "Viewer", "Applet"])
}

/// How many full compression passes this process has run (at most 1
/// once [`shared_full_set`] has been touched) — the bench uses this to
/// prove the compress-once claim.
#[must_use]
pub fn pack_passes() -> u64 {
    PACK_PASSES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn shared_set_is_built_once_and_matches_fresh_packing() {
        let shared = shared_full_set();
        assert_eq!(
            shared.total_packed(),
            BundleSet::full_set().total_packed(),
            "cache must not change Table 1 sizes"
        );
        let before = pack_passes();
        let again = shared_full_set();
        assert_eq!(pack_passes(), before, "second access repacks nothing");
        assert!(Arc::ptr_eq(&shared.bundles()[0], &again.bundles()[0]));
    }

    #[test]
    fn applet_set_shares_storage_with_full_set() {
        let full = shared_full_set();
        let applet = shared_applet_set();
        assert_eq!(applet.bundles().len(), 4);
        for b in applet.bundles() {
            let original = full.get(b.name()).expect("subset of full");
            assert!(Arc::ptr_eq(b, original));
        }
    }
}
