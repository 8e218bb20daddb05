//! The applet server's catalog counters from a cold process.
//!
//! The bundle catalog is process-wide, so whether a lookup packs
//! depends on what ran before it in the process. This binary holds one
//! test, so nothing else has packed a bundle when it starts.

use ipd::core::{AppletServer, CapabilitySet};

#[test]
fn the_first_lookup_of_each_bundle_in_a_process_is_the_only_miss() {
    let mut server = AppletServer::new("byu", b"key".to_vec());
    server.enroll("acme", "kcm", CapabilitySet::licensed(), 0, 365);
    let bundles = server
        .fetch("acme", 1, &[])
        .expect("cold fetch")
        .items()
        .len() as u64;
    let cold = server.store_stats();
    assert_eq!(
        cold.misses, bundles,
        "each bundle packs on its first lookup"
    );
    assert_eq!(cold.hits, 0);
    server.fetch("acme", 2, &[]).expect("warm fetch");
    let warm = server.store_stats();
    assert_eq!(warm.misses, bundles, "a packed bundle never packs again");
    assert_eq!(warm.hits, bundles);
}
