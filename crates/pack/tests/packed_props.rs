//! Property tests for the memoized packed bytes: a bundle's cached
//! container must be byte-identical to the compress-every-time path,
//! the built-in catalog's Table 1 sizes must equal a fresh compression,
//! threads racing on the first pack must all get the one packed buffer,
//! and subsets must share storage.

use std::sync::Arc;

use ipd_pack::{Archive, Bundle, BundleSet};
use ipd_testutil::{check_n, XorShift64};

fn any_bundle(rng: &mut XorShift64) -> Bundle {
    let mut entries = Vec::new();
    for i in 0..rng.index(8) {
        // Mix compressible runs with noise so match-heavy and
        // literal-heavy streams are both exercised (7-bit noise, since
        // bundle entries are text).
        let data = if rng.bool() {
            let unit_len = 1 + rng.index(24);
            let unit = rng.bytes(unit_len);
            let reps = 1 + rng.index(64);
            unit.repeat(reps)
        } else {
            let len = rng.index(4096);
            rng.bytes(len)
        };
        let text: String = data.iter().map(|b| char::from(b & 0x7f)).collect();
        entries.push((format!("e{i}"), text));
    }
    let refs: Vec<(&str, &str)> = entries
        .iter()
        .map(|(name, text)| (name.as_str(), text.as_str()))
        .collect();
    Bundle::from_entries(format!("a{}", rng.below(1000)), "random", &refs).expect("unique names")
}

#[test]
fn packed_serialization_is_byte_identical() {
    check_n("packed_identical", 48, |rng| {
        let bundle = any_bundle(rng);
        let fresh = bundle.archive().to_bytes();
        assert_eq!(bundle.wire_bytes()[..], fresh[..]);
        assert_eq!(bundle.packed_size(), fresh.len());
        assert_eq!(
            &Archive::from_bytes(&bundle.wire_bytes()).expect("round trip"),
            bundle.archive()
        );
    });
}

/// An unpacked twin of a built-in bundle: same name, description and
/// entries, with nothing memoized yet (cloning would copy the bytes).
fn unpacked_twin(bundle: &Bundle) -> Bundle {
    let entries: Vec<(&str, &str)> = bundle
        .archive()
        .entries()
        .iter()
        .map(|e| {
            let text = std::str::from_utf8(e.data()).expect("built-in entries are text");
            (e.name(), text)
        })
        .collect();
    Bundle::from_entries(bundle.name(), bundle.description(), &entries).expect("unique names")
}

#[test]
fn builtin_sets_pack_identically_under_parallelism() {
    const THREADS: usize = 4;
    let set = BundleSet::full_set();
    let twins: Vec<Bundle> = set.bundles().iter().map(|b| unpacked_twin(b)).collect();
    // Every thread packs every twin, starting at a different bundle so
    // the first packs of each bundle genuinely race.
    let per_thread: Vec<Vec<(Arc<[u8]>, bool)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let twins = &twins;
                s.spawn(move || {
                    let n = twins.len();
                    let mut got = vec![None; n];
                    for k in 0..n {
                        let i = (k + t * n / THREADS) % n;
                        got[i] = Some(twins[i].pack_once());
                    }
                    got.into_iter().map(|g| g.expect("visited")).collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("packer thread"))
            .collect()
    });
    for (i, (twin, bundle)) in twins.iter().zip(set.bundles()).enumerate() {
        let results: Vec<&(Arc<[u8]>, bool)> = per_thread.iter().map(|r| &r[i]).collect();
        let packers = results.iter().filter(|(_, packed_now)| *packed_now).count();
        assert_eq!(packers, 1, "bundle {} packed {packers} times", twin.name());
        for (bytes, _) in &results {
            assert!(
                Arc::ptr_eq(bytes, &results[0].0),
                "bundle {} handed out two buffers",
                twin.name()
            );
        }
        // And the raced bytes match the catalog and the pre-cache
        // serialization path.
        assert_eq!(
            results[0].0[..],
            bundle.wire_bytes()[..],
            "bundle {} bytes diverged",
            twin.name()
        );
        assert_eq!(results[0].0[..], bundle.archive().to_bytes()[..]);
    }
    let raced_total: usize = twins.iter().map(Bundle::packed_size).sum();
    assert_eq!(raced_total, set.total_packed());
}

#[test]
fn shared_cache_sizes_match_fresh_compression() {
    let shared = BundleSet::full_set();
    let mut fresh_total = 0;
    for bundle in shared.bundles() {
        let fresh = bundle.archive().to_bytes();
        assert_eq!(
            bundle.packed_size(),
            fresh.len(),
            "memoizing changed the Table 1 size of {}",
            bundle.name()
        );
        assert_eq!(
            bundle.wire_bytes()[..],
            fresh[..],
            "bundle {} bytes diverged from a fresh serialization",
            bundle.name()
        );
        fresh_total += fresh.len();
    }
    assert_eq!(shared.total_packed(), fresh_total);
}

#[test]
fn subsets_are_pointer_clones() {
    let shared = BundleSet::full_set();
    let sub = shared.subset(&["JHDLBase", "Netlist"]);
    assert_eq!(sub.bundles().len(), 2);
    for b in sub.bundles() {
        assert!(Arc::ptr_eq(b, shared.get(b.name()).expect("shared")));
    }
}
