//! Table 1 — "JAR Files Used By Constant Multiplier Applet".
//!
//! Measures taking the applet set from the process-wide catalog (a
//! pointer clone per bundle), compressing it afresh, and unpacking the
//! base bundle, and prints the reproduced size table once. Run
//! `repro --table1` for the standalone table.

use ipd_bench::harness::{black_box, Harness};
use ipd_pack::BundleSet;

fn main() {
    // Print the reproduced table once, alongside the paper's numbers.
    let set = BundleSet::jhdl_applet_set();
    println!("\n=== Table 1 reproduction (paper: 346/293/140/16 kB, total 795 kB) ===");
    println!("{set}");

    let mut c = Harness::new();
    let mut group = c.benchmark_group("table1");
    group.bench_function("build_applet_bundle_set", |b| {
        b.iter(|| black_box(BundleSet::jhdl_applet_set()))
    });
    group.bench_function("pack_all_bundles", |b| {
        let set = BundleSet::jhdl_applet_set();
        b.iter(|| {
            let total: usize = set
                .bundles()
                .iter()
                .map(|bundle| bundle.archive().to_bytes().len())
                .sum();
            black_box(total)
        })
    });
    group.bench_function("unpack_base_bundle", |b| {
        let set = BundleSet::jhdl_applet_set();
        let bytes = set.get("JHDLBase").expect("base").archive().to_bytes();
        b.iter(|| black_box(ipd_pack::Archive::from_bytes(&bytes).expect("parse")))
    });
    group.finish();
}
