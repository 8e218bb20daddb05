use std::sync::Arc;

use ipd_hdl::{Circuit, FlatNetlist};
use ipd_lint::{default_passes, LintConfig, Linter};
use ipd_modgen::KcmMultiplier;
use ipd_techlib::FlatIndex;

#[test]
#[ignore]
fn per_pass_timing() {
    let full = KcmMultiplier::new(-12345, 16, 1)
        .signed(true)
        .full_product_width();
    let kcm = KcmMultiplier::new(-12345, 16, full).signed(true);
    let circuit = Circuit::from_generator(&kcm).unwrap();
    let t0 = std::time::Instant::now();
    let flat = Arc::new(FlatNetlist::build(&circuit).unwrap());
    println!("flatten: {:?}", t0.elapsed());
    let index = || FlatIndex::new(Arc::clone(&flat));

    // Model build alone: linter with zero passes.
    let empty = Linter::with_passes(LintConfig::new(), Vec::new());
    let t = std::time::Instant::now();
    for _ in 0..2000 {
        std::hint::black_box(empty.run_index(&std::hint::black_box(index())));
    }
    println!("model build only: {:?}/run", t.elapsed() / 2000);

    for pass in default_passes() {
        let name = pass.name();
        let linter = Linter::with_passes(LintConfig::new(), vec![pass]);
        let t = std::time::Instant::now();
        for _ in 0..2000 {
            std::hint::black_box(linter.run_index(&std::hint::black_box(index())));
        }
        println!("{name}: {:?}/run (incl model build)", t.elapsed() / 2000);
    }
    let linter = Linter::new();
    let t = std::time::Instant::now();
    for _ in 0..2000 {
        std::hint::black_box(linter.run_index(&std::hint::black_box(index())));
    }
    println!("all passes: {:?}/run", t.elapsed() / 2000);
}

#[test]
#[ignore]
fn model_component_timing() {
    use ipd_techlib::PrimKind;
    let full = KcmMultiplier::new(-12345, 16, 1)
        .signed(true)
        .full_product_width();
    let kcm = KcmMultiplier::new(-12345, 16, full).signed(true);
    let circuit = Circuit::from_generator(&kcm).unwrap();
    let flat = FlatNetlist::build(&circuit).unwrap();
    println!("nets={} leaves={}", flat.net_count(), flat.leaves().len());

    let t = std::time::Instant::now();
    for _ in 0..2000 {
        let d = flat.drivers();
        let r = flat.readers();
        std::hint::black_box((d, r));
    }
    println!("drivers+readers: {:?}/run", t.elapsed() / 2000);

    let t = std::time::Instant::now();
    for _ in 0..2000 {
        for leaf in flat.leaves() {
            if let ipd_hdl::FlatKind::Primitive(p) = &leaf.kind {
                let k = PrimKind::from_primitive(p).unwrap();
                std::hint::black_box(k);
            }
        }
    }
    println!("from_primitive: {:?}/run", t.elapsed() / 2000);

    let t = std::time::Instant::now();
    for _ in 0..2000 {
        for leaf in flat.leaves() {
            if let ipd_hdl::FlatKind::Primitive(p) = &leaf.kind {
                let k = PrimKind::from_primitive(p).unwrap();
                for spec in k.ports() {
                    let c = leaf.conn(&spec.name).unwrap();
                    std::hint::black_box(c);
                }
            }
        }
    }
    println!("from_primitive+ports+conn: {:?}/run", t.elapsed() / 2000);
}
