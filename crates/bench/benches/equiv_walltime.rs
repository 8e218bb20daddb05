//! X11 — formal-equivalence cost: wall time for full `check_equiv`
//! proofs (AIG lowering + fraig sweep + SAT miters + replay oracle)
//! against the yardstick of one 64-lane compiled-simulation pass over
//! the same design (EXPERIMENTS X11).
//!
//! Measured figures, all in checks per second:
//!
//! * `kcm_w16_selfequiv` — the full-width 16-bit KCM proved equivalent
//!   to its own EDIF round-trip. The acceptance shape is wall time
//!   within 25× of one 64-lane compiled-sim pass over the same netlist —
//!   a *proof over all 2^16 input values* must cost no more than a few
//!   random simulation passes.
//! * `zoo_sweep` — all ten example-zoo designs proved equivalent to
//!   their EDIF round-trips (the CI equivalence gate's workload).
//! * `mutation_detect` — latency to *refute* a single LUT INIT bit
//!   flip in the paper KCM, counterexample replay included.
//!
//! `IPD_BENCH_FAST=1` shrinks repeat counts and skips the 25×
//! assertion (CI smoke). The run always writes a flat JSON summary
//! (`IPD_BENCH_OUT`, default `BENCH_equiv.json`) with `*_cps` keys for
//! `bench_gate` to compare against the committed baseline.

use std::io::Write as _;
use std::time::Instant;

use ipd_bench::sim_workloads;
use ipd_hdl::{Circuit, FlatKind, FlatNetlist, PortDir};
use ipd_sim::CompiledSimulator;
use ipd_techlib::FlatIndex;
use ipd_verify::{check_equiv, EquivConfig, EquivVerdict};

struct Run {
    label: String,
    checks: usize,
    checks_per_sec: f64,
}

/// Times `repeats` passes of `body` (after one warmup pass); `body`
/// returns the number of equivalence checks it performed.
fn measure<F: FnMut() -> usize>(label: &str, repeats: usize, mut body: F) -> Run {
    let checks = body();
    let start = Instant::now();
    let mut total = 0usize;
    for _ in 0..repeats {
        total += body();
    }
    let wall = start.elapsed();
    Run {
        label: label.to_owned(),
        checks,
        checks_per_sec: total as f64 / wall.as_secs_f64().max(1e-9),
    }
}

/// Flattens a circuit and its EDIF round-trip — the golden/revised
/// pair every fixture-gated delivery check proves.
fn round_trip_pair(circuit: &Circuit) -> (FlatNetlist, FlatNetlist) {
    let golden = FlatNetlist::build(circuit).expect("flattens");
    let edif = ipd_netlist::NetlistFormat::Edif
        .generate(circuit)
        .expect("netlists");
    let reread = ipd_netlist::read_edif(&edif).expect("rereads");
    let revised = FlatNetlist::build(&reread).expect("round trip flattens");
    (golden, revised)
}

/// One 64-lane compiled-simulation pass: drive 64 random vectors into
/// every non-clock input and observe every output bit once.
fn batch_pass_64(flat: &FlatNetlist, clock: Option<&str>) -> usize {
    let mut sim = CompiledSimulator::from_flat(flat, clock, 64).expect("sim");
    let inputs: Vec<(String, usize)> = flat
        .ports()
        .iter()
        .filter(|p| p.dir == PortDir::Input && Some(p.name.as_str()) != clock)
        .map(|p| (p.name.clone(), p.nets.len()))
        .collect();
    let outputs: Vec<String> = flat
        .ports()
        .iter()
        .filter(|p| p.dir == PortDir::Output)
        .map(|p| p.name.clone())
        .collect();
    let mut seed = 0x9e37_79b9_7f4a_7c15u64;
    for lane in 0..64 {
        for (name, width) in &inputs {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let mask = if *width >= 64 {
                u64::MAX
            } else {
                (1u64 << *width) - 1
            };
            sim.set_u64_lane(name, lane, seed & mask).expect("set");
        }
    }
    if clock.is_some() {
        sim.cycle(1).expect("cycle");
    }
    let mut observed = 0usize;
    for lane in 0..64 {
        for name in &outputs {
            std::hint::black_box(sim.peek_lane(name, lane).expect("peek"));
            observed += 1;
        }
    }
    observed
}

/// The paper KCM with one LUT truth-table bit flipped.
fn mutated(flat: &FlatNetlist) -> FlatNetlist {
    let mut out = flat.clone();
    let leaf = out
        .leaves_mut()
        .iter_mut()
        .find_map(|l| match &mut l.kind {
            FlatKind::Primitive(p) if p.name.starts_with("lut") && p.init.is_some() => Some(p),
            _ => None,
        })
        .expect("kcm has LUTs");
    *leaf.init.as_mut().expect("INIT") ^= 1;
    out
}

fn write_json(runs: &[Run]) {
    let path = std::env::var("IPD_BENCH_OUT").unwrap_or_else(|_| "BENCH_equiv.json".to_owned());
    let mut out = String::from("{\n");
    for (i, run) in runs.iter().enumerate() {
        let comma = if i + 1 < runs.len() { "," } else { "" };
        out.push_str(&format!(
            "  \"{label}_cps\": {cps:.2}{comma}\n",
            label = run.label,
            cps = run.checks_per_sec,
        ));
    }
    out.push_str("}\n");
    let mut file = std::fs::File::create(&path).expect("create bench JSON");
    file.write_all(out.as_bytes()).expect("write bench JSON");
    println!("wrote {path}");
}

fn main() {
    let fast = std::env::var_os("IPD_BENCH_FAST").is_some();
    let repeats = if fast { 2 } else { 10 };
    let cfg = EquivConfig::default();

    let kcm_w16 = sim_workloads()
        .into_iter()
        .find(|(name, _)| name == "kcm_w16")
        .map(|(_, c)| c)
        .expect("kcm_w16 workload");
    let (kcm_golden, kcm_revised) = round_trip_pair(&kcm_w16);

    let zoo: Vec<(FlatNetlist, FlatNetlist)> = ipd_modgen::example_zoo()
        .iter()
        .map(|(_, c)| round_trip_pair(c))
        .collect();

    let paper_kcm = ipd_bench::paper_kcm_circuit();
    let paper_flat = FlatNetlist::build(&paper_kcm).expect("paper kcm flattens");
    let paper_mutant = mutated(&paper_flat);

    let mut runs = Vec::new();

    runs.push(measure("kcm_w16_selfequiv", repeats, || {
        let report = check_equiv(
            &FlatIndex::new(&kcm_golden),
            &FlatIndex::new(&kcm_revised),
            &cfg,
        )
        .expect("check");
        assert!(report.is_equivalent(), "kcm_w16 round trip diverged");
        1
    }));

    runs.push(measure("zoo_sweep", repeats, || {
        for (golden, revised) in &zoo {
            let report = check_equiv(&FlatIndex::new(golden), &FlatIndex::new(revised), &cfg)
                .expect("check");
            assert!(report.is_equivalent(), "zoo round trip diverged");
        }
        zoo.len()
    }));

    runs.push(measure("mutation_detect", repeats, || {
        let report = check_equiv(
            &FlatIndex::new(&paper_flat),
            &FlatIndex::new(&paper_mutant),
            &cfg,
        )
        .expect("check");
        assert!(
            matches!(report.verdict, EquivVerdict::NotEquivalent(_)),
            "mutant escaped"
        );
        1
    }));

    // The yardstick: one 64-lane compiled-simulation pass over kcm_w16.
    let batch = measure("kcm_w16_batch64_pass", repeats, || {
        std::hint::black_box(batch_pass_64(&kcm_golden, None));
        1
    });

    println!("=== X11: formal-equivalence walltime ===");
    println!(
        "mode                     : {}",
        if fast { "fast" } else { "full" }
    );
    println!("{:<26} {:>7} {:>14}", "run", "checks", "checks/s");
    for run in runs.iter().chain([&batch]) {
        println!(
            "{:<26} {:>7} {:>14.2}",
            run.label, run.checks, run.checks_per_sec
        );
    }

    let proof_wall = 1.0 / runs[0].checks_per_sec.max(1e-9);
    let pass_wall = 1.0 / batch.checks_per_sec.max(1e-9);
    let ratio = proof_wall / pass_wall.max(1e-12);
    println!("proof vs 64-lane pass    : {ratio:.1}x");

    write_json(&runs);

    // The X11 acceptance claim, asserted only under full measurement
    // runs: a complete kcm_w16 equivalence proof costs at most 25× one
    // 64-lane compiled-simulation pass.
    if !fast {
        assert!(
            ratio <= 25.0,
            "kcm_w16 equivalence proof ({:.2} ms) must stay within 25x one \
             64-lane compiled pass ({:.2} ms), got {ratio:.1}x",
            proof_wall * 1e3,
            pass_wall * 1e3,
        );
    }
}
