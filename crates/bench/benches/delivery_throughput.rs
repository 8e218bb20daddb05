//! Delivery throughput — compress-once, serve-many (EXPERIMENTS X5).
//!
//! Three regimes, coldest to warmest:
//!
//! 1. cold packing (a fresh `Archive::to_bytes` of every bundle),
//! 2. warm serving from the process-wide catalog (each payload is an
//!    `Arc` clone of a bundle's memoized bytes),
//! 3. conditional revalidation (client holds every digest; the server
//!    answers with not-modified markers only).
//!
//! Prints the cold-vs-warm speedup, the ratio of the harness's two
//! means, so the X5 acceptance bar (warm ≥ 5× cold) is checkable from
//! the bench output alone.

use ipd_bench::harness::{black_box, Harness, Throughput};
use ipd_core::AppletServer;
use ipd_pack::BundleSet;

/// Serializes every bundle of `set` afresh, as a first request would.
fn cold_pack(set: &BundleSet) -> usize {
    set.bundles()
        .iter()
        .map(|b| b.archive().to_bytes().len())
        .sum()
}

fn main() {
    let set = BundleSet::full_set();
    let wire_bytes = cold_pack(&set) as u64;

    let mut server = AppletServer::new("byu", b"bench-key".to_vec());
    server.enroll("acme", "kcm", ipd_core::CapabilitySet::licensed(), 0, 365);
    // Prime the catalog once so the warm benchmarks measure serving,
    // not the first compression.
    let warm = server.fetch("acme", 1, &[]).expect("prime");
    let held: Vec<_> = warm.items().iter().map(|i| *i.digest()).collect();

    let mut c = Harness::new();
    let mut group = c.benchmark_group("delivery");
    group.throughput(Throughput::Bytes(wire_bytes));
    let cold = group.bench_function("cold_pack_sequential", |b| {
        b.iter(|| black_box(cold_pack(&set)))
    });
    let warm = group.bench_function("warm_store_fetch", |b| {
        b.iter(|| {
            let response = server.fetch("acme", 1, &[]).expect("warm fetch");
            black_box(response.bytes_transferred())
        })
    });
    group.bench_function("conditional_fetch_all_304", |b| {
        b.iter(|| {
            let response = server.fetch("acme", 1, &held).expect("revalidate");
            black_box(response.not_modified())
        })
    });
    group.finish();

    let speedup = cold.as_secs_f64() / warm.as_secs_f64().max(1e-12);
    println!("\n=== X5: compress-once delivery ===");
    println!("bundle set wire size     : {wire_bytes} bytes");
    println!("cold pack (1 thread)     : {cold:?}/set");
    println!("warm store fetch         : {warm:?}/set");
    println!("warm-vs-cold speedup     : {speedup:.0}x (acceptance: >= 5x)");
    println!("{}", server.store_stats());
}
