//! Construction scaling — every stage that builds or rebuilds a
//! circuit, per leaf, across design sizes (EXPERIMENTS X26).
//!
//! A customer journey generates a KCM, gates it (`seal_design`), writes
//! its EDIF, reads it back and compiles a local simulation model, and
//! the applet re-runs the generator on every parameter change. Each of
//! those stages should cost the same per leaf at every size. For KCMs
//! of w = 8, 16, 24 and 32 bits (signed, pipelined, full width) and
//! 16-bit FIR filters of 4, 16 and 64 taps, this prints the best time
//! per leaf of
//!
//! - `generate`: `Circuit::from_generator`,
//! - `flatten`: `FlatNetlist::build`,
//! - `seal`: `seal_design` under `SealPolicy::default()`,
//! - `edif_write`: `edif_string`,
//! - `edif_read`: `read_edif`,
//! - `sim_model`: `LocalSimModel::new` on the imported circuit,
//!
//! then, per family and stage, the largest size's cost per leaf over
//! the smallest's. A stage linear in the leaves reads about 1×.
//!
//! The best run is the one other work on the host disturbed least. The
//! sizes take turns over several rounds, so a slow spell of the host
//! does not land on one size only.
//!
//! `IPD_BENCH_FAST=1` runs one short round and stops the FIR family at
//! 16 taps (CI smoke).

use std::time::Duration;

use ipd_bench::full_width_kcm;
use ipd_bench::harness::best_time;
use ipd_core::{seal_design, SealPolicy};
use ipd_cosim::LocalSimModel;
use ipd_hdl::{Circuit, FlatNetlist, Generator};
use ipd_modgen::FirFilter;
use ipd_netlist::{edif_string, read_edif};
use ipd_testutil::XorShift64;

const STAGES: [&str; 6] = [
    "generate",
    "flatten",
    "seal",
    "edif_write",
    "edif_read",
    "sim_model",
];

/// One design and the inputs of each stage.
struct Design {
    name: String,
    generator: Box<dyn Generator>,
    circuit: Circuit,
    text: String,
    imported: Circuit,
}

impl Design {
    fn new(name: String, generator: Box<dyn Generator>) -> Self {
        let circuit = Circuit::from_generator(generator.as_ref()).expect("generator elaborates");
        let text = edif_string(&circuit).expect("EDIF");
        let imported = read_edif(&text).expect("EDIF reads back");
        Design {
            name,
            generator,
            circuit,
            text,
            imported,
        }
    }

    /// The best time of each stage of [`STAGES`] in one round.
    fn stage_times(&self, budget: Duration, min_runs: usize) -> [Duration; 6] {
        let (circuit, policy, key) = (&self.circuit, SealPolicy::default(), [7u8; 32]);
        [
            best_time(budget, min_runs, || {
                Circuit::from_generator(self.generator.as_ref()).expect("generate")
            }),
            best_time(budget, min_runs, || {
                FlatNetlist::build(circuit).expect("flatten")
            }),
            best_time(budget, min_runs, || {
                seal_design(circuit, &policy, &key, 1).expect("the gate passes")
            }),
            best_time(budget, min_runs, || edif_string(circuit).expect("EDIF")),
            best_time(budget, min_runs, || read_edif(&self.text).expect("import")),
            best_time(budget, min_runs, || {
                LocalSimModel::new(&self.imported).expect("model")
            }),
        ]
    }
}

fn fir(taps: usize) -> FirFilter {
    let mut rng = XorShift64::new(taps as u64);
    let coefficients = (0..taps)
        .map(|_| (rng.next_u64() % (1 << 16)) as i64 - (1 << 15))
        .collect();
    FirFilter::new(coefficients, 16).expect("a 16-bit FIR")
}

fn main() {
    let fast = std::env::var_os("IPD_BENCH_FAST").is_some();
    let (rounds, budget, min_runs) = if fast {
        (1, Duration::from_millis(20), 1)
    } else {
        (5, Duration::from_millis(100), 2)
    };
    let fir_taps: &[usize] = if fast { &[4, 16] } else { &[4, 16, 64] };

    let kcms = [8u32, 16, 24, 32].map(|w| {
        let generator = full_width_kcm(-1500, w, true).pipelined(true);
        Design::new(format!("kcm_w{w}"), Box::new(generator))
    });
    let firs = fir_taps
        .iter()
        .map(|&taps| Design::new(format!("fir_t{taps}"), Box::new(fir(taps))));
    let families = [kcms.into_iter().collect::<Vec<_>>(), firs.collect()];

    let mut best: Vec<Vec<[Duration; 6]>> = families
        .iter()
        .map(|family| vec![[Duration::MAX; 6]; family.len()])
        .collect();
    for _ in 0..rounds {
        for (family, bests) in families.iter().zip(&mut best) {
            for (design, best) in family.iter().zip(bests.iter_mut()) {
                let times = design.stage_times(budget, min_runs);
                for (best, time) in best.iter_mut().zip(times) {
                    *best = (*best).min(time);
                }
            }
        }
    }

    println!("\n-- construction_scaling (us per leaf, best of {rounds} round(s)) --");
    print!("{:<14} {:>7}", "design", "leaves");
    for stage in STAGES {
        print!(" {stage:>10}");
    }
    println!();
    let mut ratios = Vec::new();
    for (family, bests) in families.iter().zip(&best) {
        let mut rows = Vec::new();
        for (design, times) in family.iter().zip(bests) {
            let leaves = design.circuit.primitive_count();
            let per_leaf = times.map(|t| t.as_secs_f64() * 1e6 / leaves as f64);
            print!("{:<14} {leaves:>7}", design.name);
            for us in per_leaf {
                print!(" {us:>10.3}");
            }
            println!();
            rows.push(per_leaf);
        }
        let label = format!("{} -> {}", family[0].name, family[family.len() - 1].name);
        ratios.push((label, rows[0], rows[rows.len() - 1]));
    }

    println!("\n=== X26: per-leaf cost, largest size over smallest ===");
    for (label, first, last) in &ratios {
        print!("{label:<22}");
        for (stage, (a, b)) in STAGES.iter().zip(first.iter().zip(last)) {
            print!(" {stage} {:.2}x", b / a);
        }
        println!();
    }
}
