//! Delivery bytes — the per-byte cost of each stage a delivered
//! netlist's bytes pass through (EXPERIMENTS X27).
//!
//! Every customer journey op writes a KCM's EDIF, seals it to the
//! customer's key, unseals it and imports it again, about 72 KB each
//! way. For the nine KCM shapes a journey requests (w = 8 to 16,
//! signed, pipelined, full width, fixed constants) this prints the best
//! nanoseconds per EDIF byte of
//!
//! - `edif_write`: `edif_string`,
//! - `seal`: `seal` of the EDIF bytes,
//! - `unseal`: `unseal` of the sealed bytes,
//! - `edif_read`: `read_edif`,
//!
//! then each stage's figure over all nine shapes, bytes and times
//! summed, and SHA-256 of the same bytes for scale.
//!
//! The best run is the one other work on the host disturbed least. The
//! shapes take turns over several rounds, so a slow spell of the host
//! does not land on one shape only.
//!
//! `IPD_BENCH_FAST=1` runs one short round (CI smoke).

use std::time::Duration;

use ipd_bench::full_width_kcm;
use ipd_bench::harness::best_time;
use ipd_core::{seal, sha256, unseal};
use ipd_hdl::Circuit;
use ipd_netlist::{edif_string, read_edif};

const STAGES: [&str; 5] = ["edif_write", "seal", "unseal", "edif_read", "sha256"];

/// `(constant, width)` of the journey's KCM shapes.
const SHAPES: [(i64, u32); 9] = [
    (-56, 8),
    (2047, 9),
    (-2048, 10),
    (1, 11),
    (-1, 12),
    (1234, 13),
    (-777, 14),
    (3, 15),
    (-1500, 16),
];

/// One journey KCM and the input of each stage.
struct Shape {
    name: String,
    circuit: Circuit,
    text: String,
    sealed: Vec<u8>,
}

const KEY: [u8; 32] = [7; 32];

impl Shape {
    fn new(constant: i64, width: u32) -> Self {
        let generator = full_width_kcm(constant, width, true).pipelined(true);
        let circuit = Circuit::from_generator(&generator).expect("KCM elaborates");
        let text = edif_string(&circuit).expect("EDIF");
        let sealed = seal(text.as_bytes(), &KEY, 1);
        Shape {
            name: format!("kcm_{constant}x{width}"),
            circuit,
            text,
            sealed,
        }
    }

    /// The best time of each stage of [`STAGES`] in one round.
    fn stage_times(&self, budget: Duration, min_runs: usize) -> [Duration; 5] {
        let bytes = self.text.as_bytes();
        [
            best_time(budget, min_runs, || {
                edif_string(&self.circuit).expect("EDIF")
            }),
            best_time(budget, min_runs, || seal(bytes, &KEY, 1)),
            best_time(budget, min_runs, || {
                unseal(&self.sealed, &KEY).expect("unseal")
            }),
            best_time(budget, min_runs, || read_edif(&self.text).expect("import")),
            best_time(budget, min_runs, || sha256(bytes)),
        ]
    }
}

fn main() {
    let fast = std::env::var_os("IPD_BENCH_FAST").is_some();
    let (rounds, budget, min_runs) = if fast {
        (1, Duration::from_millis(20), 1)
    } else {
        (5, Duration::from_millis(100), 2)
    };

    let shapes = SHAPES.map(|(constant, width)| Shape::new(constant, width));
    let mut best = [[Duration::MAX; 5]; 9];
    for _ in 0..rounds {
        for (shape, best) in shapes.iter().zip(&mut best) {
            for (best, time) in best.iter_mut().zip(shape.stage_times(budget, min_runs)) {
                *best = (*best).min(time);
            }
        }
    }

    println!("\n-- delivery_bytes (ns per EDIF byte, best of {rounds} round(s)) --");
    print!("{:<14} {:>8}", "design", "bytes");
    for stage in STAGES {
        print!(" {stage:>10}");
    }
    println!();
    let mut total_bytes = 0usize;
    let mut total = [Duration::ZERO; 5];
    for (shape, times) in shapes.iter().zip(&best) {
        let bytes = shape.text.len();
        print!("{:<14} {bytes:>8}", shape.name);
        for time in times {
            print!(" {:>10.3}", time.as_secs_f64() * 1e9 / bytes as f64);
        }
        println!();
        total_bytes += bytes;
        for (sum, time) in total.iter_mut().zip(times) {
            *sum += *time;
        }
    }

    println!("\n=== X27: ns per delivered byte, nine journey KCMs ===");
    for (stage, time) in STAGES.iter().zip(total) {
        println!(
            "{stage:<12} {:>8.3} ns/B",
            time.as_secs_f64() * 1e9 / total_bytes as f64
        );
    }
}
