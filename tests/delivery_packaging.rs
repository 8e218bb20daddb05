//! Packaging and delivery integration: the Table 1 bundles, executable
//! download deltas, and protection passes against netlist regeneration.

use std::sync::Arc;

use ipd::core::{
    embed_watermark, obfuscate, verify_watermark, AppletHost, AppletServer, BundleDelivery,
    CapabilitySet, IpExecutable,
};
use ipd::hdl::Circuit;
use ipd::modgen::KcmMultiplier;
use ipd::pack::{Archive, BundleSet};

#[test]
fn table1_bundles_cover_the_kcm_applet() {
    let set = BundleSet::jhdl_applet_set();
    // The same four rows as the paper's Table 1.
    let names: Vec<_> = set.bundles().iter().map(|b| b.name()).collect();
    assert_eq!(names, ["JHDLBase", "Virtex", "Viewer", "Applet"]);
    // Shape: base largest, applet smallest by a wide margin, total is
    // the sum.
    let sizes: Vec<usize> = set.bundles().iter().map(|b| b.packed_size()).collect();
    assert!(sizes[0] > sizes[1] && sizes[1] > sizes[2] && sizes[2] > sizes[3]);
    assert!(sizes[0] > 5 * sizes[3]);
    assert_eq!(set.total_packed(), sizes.iter().sum::<usize>());
    // Rendered table matches the paper's columns.
    let table = set.to_string();
    for needle in ["File", "Size", "Description", "JHDLBase.jar", "Total"] {
        assert!(table.contains(needle), "missing {needle} in:\n{table}");
    }
}

#[test]
fn partitioning_saves_bandwidth_for_simple_applets() {
    // A passive applet downloads strictly less than the full set —
    // the reason the paper partitions Jar files at all.
    let passive = IpExecutable::new("kcm", "byu", CapabilitySet::passive());
    let licensed = IpExecutable::new("kcm", "byu", CapabilitySet::licensed());
    let everything = BundleSet::full_set().total_packed();
    assert!(passive.download_size() < licensed.download_size());
    assert!(licensed.download_size() <= everything);
    assert!(
        passive.download_size() < everything * 3 / 4,
        "passive applet skips at least a quarter of the code"
    );
}

#[test]
fn browser_cache_semantics() {
    let mut host = AppletHost::new();
    let kcm_applet = IpExecutable::new("kcm", "byu", CapabilitySet::evaluation());
    let fir_applet = IpExecutable::new("fir", "byu", CapabilitySet::evaluation());
    let first = host.load(&kcm_applet);
    // A second applet from the same vendor reuses every shared bundle;
    // with identical capability sets nothing new is fetched.
    let second = host.load(&fir_applet);
    assert!(first > 0);
    assert_eq!(second, 0, "shared bundles are cached");
}

#[test]
fn bundles_survive_the_wire() {
    // Serialize every bundle, corrupt a copy, verify detection.
    for bundle in BundleSet::full_set().bundles() {
        let bytes = bundle.archive().to_bytes();
        let back = Archive::from_bytes(&bytes).expect("clean parse");
        assert_eq!(back.len(), bundle.archive().len());
        let mut corrupted = bytes.clone();
        let idx = corrupted.len() / 2;
        corrupted[idx] ^= 0x40;
        assert!(
            Archive::from_bytes(&corrupted).is_err(),
            "corruption in {} must be detected",
            bundle.name()
        );
    }
}

#[test]
fn conditional_delivery_round_trips_every_profile() {
    // For every capability profile: the first conditional fetch
    // delivers full payloads that decompress bit-identically to the
    // compress-every-time pipeline, and the second fetch is all
    // not-modified markers transferring zero bytes.
    let profiles = [
        ("passive", CapabilitySet::passive()),
        ("evaluation", CapabilitySet::evaluation()),
        ("licensed", CapabilitySet::licensed()),
        ("black_box", CapabilitySet::black_box()),
    ];
    for (label, caps) in profiles {
        let mut server = AppletServer::new("byu", b"key".to_vec());
        server.enroll("acme", "kcm", caps, 0, 365);
        let exe = server.serve("acme", 1).expect("serve");
        let reference = exe.bundle_set();

        let mut host = AppletHost::new();
        let first = host.sync(&mut server, "acme", 1).expect("first sync");
        assert_eq!(first, exe.download_size(), "{label}: full cold download");

        let response = server.fetch("acme", 1, &[]).expect("unconditional fetch");
        for item in response.items() {
            let BundleDelivery::Payload { name, bytes, .. } = item else {
                panic!("{label}: empty client must receive payloads");
            };
            let expected = reference
                .get(name)
                .unwrap_or_else(|| panic!("{label}: unknown bundle {name}"));
            assert_eq!(
                bytes[..],
                expected.archive().to_bytes()[..],
                "{label}/{name}: served bytes differ from the pre-cache pipeline"
            );
            let unpacked = Archive::from_bytes(bytes).expect("served container parses");
            for entry in expected.archive().entries() {
                assert_eq!(
                    unpacked.entry(entry.name()).expect("entry present").data(),
                    entry.data(),
                    "{label}/{name}/{}: decompressed contents changed",
                    entry.name()
                );
            }
        }

        let second = host.sync(&mut server, "acme", 2).expect("second sync");
        assert_eq!(second, 0, "{label}: warm revisit transfers nothing");
        let revalidated = server
            .fetch("acme", 2, &host.held_digests())
            .expect("revalidation");
        assert_eq!(revalidated.delivered(), 0, "{label}: everything is a 304");
        assert_eq!(revalidated.not_modified(), response.items().len());
    }
}

#[test]
fn same_digest_bundles_share_storage_across_customers() {
    let mut server = AppletServer::new("byu", b"key".to_vec());
    server.enroll("acme", "kcm", CapabilitySet::licensed(), 0, 365);
    server.enroll("bolt", "kcm", CapabilitySet::passive(), 0, 365);
    let acme = server.fetch("acme", 1, &[]).expect("acme fetch");
    let bolt = server.fetch("bolt", 1, &[]).expect("bolt fetch");
    // Every bundle the passive customer needs is the same content the
    // licensed customer already pulled — the catalog must hand out the
    // same allocation, not a recompression.
    for item in bolt.items() {
        let BundleDelivery::Payload { name, bytes, .. } = item else {
            panic!("bolt holds nothing; everything is a payload");
        };
        let shared = acme
            .items()
            .iter()
            .find_map(|i| match i {
                BundleDelivery::Payload {
                    name: n, bytes: b, ..
                } if n == name => Some(b),
                _ => None,
            })
            .unwrap_or_else(|| panic!("licensed set covers {name}"));
        assert!(
            Arc::ptr_eq(bytes, shared),
            "{name}: second customer got a second copy"
        );
    }
    // The catalog is process-wide, so other tests in this binary may
    // have packed some of these bundles first: a miss count is a bound.
    let stats = server.store_stats();
    assert!(
        stats.misses as usize <= acme.items().len(),
        "only the first customer's bundles were packed"
    );
    assert!(stats.hits >= bolt.items().len() as u64);
}

#[test]
fn each_bundle_is_packed_once_per_process() {
    // Two vendor servers in one process: the second serves the bytes
    // the first packed, pointer for pointer, and packs nothing itself.
    let mut a = AppletServer::new("byu", b"key".to_vec());
    let mut b = AppletServer::new("byu", b"key".to_vec());
    a.enroll("acme", "kcm", CapabilitySet::licensed(), 0, 365);
    b.enroll("acme", "kcm", CapabilitySet::licensed(), 0, 365);
    let from_a = a.fetch("acme", 1, &[]).expect("server A fetch");
    let from_b = b.fetch("acme", 1, &[]).expect("server B fetch");
    let catalog = BundleSet::full_set();
    assert_eq!(from_a.items().len(), from_b.items().len());
    for (item_a, item_b) in from_a.items().iter().zip(from_b.items()) {
        let (
            BundleDelivery::Payload {
                name,
                bytes: a_bytes,
                ..
            },
            BundleDelivery::Payload { bytes: b_bytes, .. },
        ) = (item_a, item_b)
        else {
            panic!("a client holding nothing receives payloads");
        };
        assert_eq!(item_b.name(), name);
        let shared = catalog.get(name).expect("catalog bundle").wire_bytes();
        assert!(
            Arc::ptr_eq(b_bytes, a_bytes),
            "{name}: server B packed a copy of its own"
        );
        assert!(
            Arc::ptr_eq(b_bytes, &shared),
            "{name}: not the catalog's bytes"
        );
    }
    let a_stats = a.store_stats();
    assert_eq!(
        a_stats.hits + a_stats.misses,
        from_a.items().len() as u64,
        "every lookup counts once"
    );
    let stats = b.store_stats();
    assert_eq!(stats.misses, 0, "server B runs no compression");
    assert_eq!(
        stats.hits,
        from_b.items().len() as u64,
        "one hit per payload"
    );
}

#[test]
fn manifest_lists_digests_and_sizes() {
    let mut server = AppletServer::new("byu", b"key".to_vec());
    server.enroll("acme", "kcm", CapabilitySet::evaluation(), 0, 365);
    let manifest = server.manifest("acme", 1).expect("manifest");
    let exe = server.serve("acme", 1).expect("serve");
    assert_eq!(manifest.product(), "kcm");
    assert_eq!(manifest.entries().len(), exe.required_bundles().len());
    assert_eq!(manifest.total_packed(), exe.download_size());
    // Manifest access is metered separately from served accesses.
    assert_eq!(server.access_count("acme"), 1);
}

#[test]
fn watermark_survives_netlist_regeneration() {
    // The leak scenario: a licensed customer netlists the IP and the
    // EDIF ends up somewhere public. The vendor inspects the EDIF text
    // for the fingerprint ROM contents.
    let mut circuit =
        Circuit::from_generator(&KcmMultiplier::new(-56, 8, 12).signed(true)).unwrap();
    embed_watermark(&mut circuit, "acme", "kcm", b"vendor-key").unwrap();
    let delivered = obfuscate(&circuit).unwrap();
    assert!(verify_watermark(&delivered, "acme", "kcm", b"vendor-key"));

    let edif = ipd::netlist::edif_string(&delivered).unwrap();
    // The EDIF carries the INIT properties of the watermark ROMs.
    let words = {
        // Recompute the expected words the same way the library does.
        let mac = ipd::core::hmac_sha256(b"vendor-key", b"wm|acme|kcm");
        [
            u16::from_be_bytes([mac[0], mac[1]]),
            u16::from_be_bytes([mac[2], mac[3]]),
            u16::from_be_bytes([mac[4], mac[5]]),
            u16::from_be_bytes([mac[6], mac[7]]),
        ]
    };
    for word in words {
        let needle = format!("(property INIT (string \"{:X}\"))", word);
        assert!(
            edif.contains(&needle),
            "EDIF lost watermark word {word:#06x}"
        );
    }
}

#[test]
fn obfuscated_netlists_leak_no_names() {
    let circuit = Circuit::from_generator(&KcmMultiplier::new(-77, 8, 15).signed(true)).unwrap();
    let delivered = obfuscate(&circuit).unwrap();
    let edif = ipd::netlist::edif_string(&delivered).unwrap();
    for secret in ["kcm", "pp0", "sum_l", "_add"] {
        assert!(
            !edif.contains(secret),
            "obfuscated EDIF leaks generator name fragment {secret:?}"
        );
    }
    // The interface names must remain.
    assert!(edif.contains("multiplicand"));
    assert!(edif.contains("product"));
}
