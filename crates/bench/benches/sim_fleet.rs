//! X10: compiled-engine sweep throughput — scalar vs compiled
//! bytecode on one thread vs compiled on every core (EXPERIMENTS X10).
//!
//! The compiled bytecode engine (256-lane planes, struct-of-arrays
//! program, no per-node indirection) runs 1024-vector verification
//! sweeps over the two hardest X4 workloads, single-threaded for the
//! pure engine speedup over the scalar simulator and then on the
//! sweep's job runner across all cores: the caller and one helper per
//! further core claim shards from one counter. Those rows keep their
//! `*_compiled_steal` labels, the `bench_gate` keys, from the
//! work-stealing scheduler they used to time. All figures are
//! lane-normalized vectors per second, X4-style: wall clock over the
//! whole sweep divided into the vector count, so wider planes only
//! win by actually finishing sooner. Before any figure is reported,
//! the compiled outputs must equal the scalar simulator's, vector for
//! vector.
//!
//! `IPD_BENCH_FAST=1` shrinks the repeat count and skips the headline
//! speedup assertion (used by the CI smoke + perf-gate step). Both
//! modes sweep 1024 vectors, four 256-lane shards, so the
//! `*_compiled_steal` rows always start the runner's helpers. The run
//! always writes a flat JSON summary (`IPD_BENCH_OUT`, default
//! `BENCH_sim.json`) with `*_vps` keys for `bench_gate` to compare
//! against the committed baseline.

use std::io::Write as _;
use std::time::Instant;

use ipd_bench::sim_workloads;
use ipd_hdl::{Circuit, LogicVec, PortDir};
use ipd_sim::{Simulator, Stimulus, VectorSweep};

/// Clock cycles per vector (covers the pipelined workloads' latency).
const SWEEP_CYCLES: u64 = 2;

/// The X10 workloads: the largest FIR and the full-width KCM from the
/// X4 sweep.
const WORKLOADS: &[&str] = &["fir_t16", "kcm_w16"];

struct Run {
    label: String,
    vectors: usize,
    vectors_per_sec: f64,
}

/// One value of the first data input per vector, spread over the
/// input range.
fn sweep_stimuli(circuit: &Circuit, vectors: usize) -> Vec<Vec<(String, LogicVec)>> {
    let sim = Simulator::new(circuit).expect("compile");
    let (input, width) = sim
        .ports()
        .into_iter()
        .find(|(n, d, _)| *d == PortDir::Input && n != "clk")
        .map(|(n, _, w)| (n, w as usize))
        .expect("a data input");
    (0..vectors)
        .map(|k| {
            vec![(
                input.clone(),
                LogicVec::from_u64(k as u64 * 0x9e37 % (1 << width.min(63)), width),
            )]
        })
        .collect()
}

/// Times `repeats` full passes of `body` (after one warmup pass) and
/// reports lane-normalized vectors per second.
fn measure<F: FnMut() -> usize>(label: &str, repeats: usize, mut body: F) -> Run {
    let vectors = body();
    let start = Instant::now();
    let mut total = 0usize;
    for _ in 0..repeats {
        total += body();
    }
    let wall = start.elapsed();
    Run {
        label: label.to_owned(),
        vectors,
        vectors_per_sec: total as f64 / wall.as_secs_f64().max(1e-9),
    }
}

/// Runs one vector on the scalar simulator from power-on and returns
/// every output port's value, in port order.
fn scalar_vector(
    sim: &mut Simulator,
    out_ports: &[String],
    stim: &Stimulus,
) -> Vec<(String, LogicVec)> {
    sim.reset();
    for (port, value) in stim {
        sim.set(port, value.clone()).expect("set");
    }
    sim.cycle(SWEEP_CYCLES).expect("cycle");
    out_ports
        .iter()
        .map(|port| (port.clone(), sim.peek(port).expect("peek")))
        .collect()
}

fn bench_workload(name: &str, circuit: &Circuit, vectors: usize, repeats: usize) -> Vec<Run> {
    let stimuli = sweep_stimuli(circuit, vectors);
    let mut runs = Vec::new();

    let mut scalar = Simulator::new(circuit).expect("compile");
    let out_ports: Vec<String> = scalar
        .ports()
        .into_iter()
        .filter(|(_, d, _)| *d == PortDir::Output)
        .map(|(n, _, _)| n)
        .collect();
    runs.push(measure(&format!("{name}_scalar"), repeats, || {
        for stim in &stimuli {
            std::hint::black_box(scalar_vector(&mut scalar, &out_ports, stim));
        }
        stimuli.len()
    }));

    let compiled = VectorSweep::new(circuit)
        .expect("compile")
        .cycles(SWEEP_CYCLES)
        .threads(1);
    runs.push(measure(&format!("{name}_compiled_1t"), repeats, || {
        compiled.run(&stimuli).expect("run").total_vectors()
    }));

    let all_cores = VectorSweep::new(circuit)
        .expect("compile")
        .cycles(SWEEP_CYCLES);
    runs.push(measure(&format!("{name}_compiled_steal"), repeats, || {
        all_cores.run(&stimuli).expect("run").total_vectors()
    }));

    // The compiled engine must agree with the scalar reference before
    // any number is worth reporting.
    let fast = compiled.run(&stimuli).expect("run");
    let reference: Vec<_> = stimuli
        .iter()
        .map(|stim| scalar_vector(&mut scalar, &out_ports, stim))
        .collect();
    assert_eq!(fast.outputs, reference, "engines diverge on {name}");

    runs
}

fn write_json(runs: &[Run]) {
    let path = std::env::var("IPD_BENCH_OUT").unwrap_or_else(|_| "BENCH_sim.json".to_owned());
    let mut out = String::from("{\n");
    for (i, run) in runs.iter().enumerate() {
        let comma = if i + 1 < runs.len() { "," } else { "" };
        out.push_str(&format!(
            "  \"{label}_vps\": {vps:.1}{comma}\n",
            label = run.label,
            vps = run.vectors_per_sec,
        ));
    }
    out.push_str("}\n");
    let mut file = std::fs::File::create(&path).expect("create bench JSON");
    file.write_all(out.as_bytes()).expect("write bench JSON");
    println!("wrote {path}");
}

fn lookup(runs: &[Run], label: &str) -> f64 {
    runs.iter()
        .find(|r| r.label == label)
        .map(|r| r.vectors_per_sec)
        .expect("measured run")
}

fn main() {
    let fast = std::env::var_os("IPD_BENCH_FAST").is_some();
    let vectors = 1024;
    let repeats = if fast { 2 } else { 10 };

    let mut runs = Vec::new();
    for (name, circuit) in sim_workloads() {
        if WORKLOADS.contains(&name.as_str()) {
            runs.extend(bench_workload(&name, &circuit, vectors, repeats));
        }
    }

    println!("=== X10: compiled-engine sweep throughput ({SWEEP_CYCLES} cycles/vector) ===");
    println!(
        "mode                     : {}",
        if fast { "fast" } else { "full" }
    );
    println!("{:<26} {:>9} {:>14}", "run", "vectors", "vectors/s");
    for run in &runs {
        println!(
            "{:<26} {:>9} {:>14.0}",
            run.label, run.vectors, run.vectors_per_sec
        );
    }

    write_json(&runs);

    // The headline claim, asserted only under full measurement runs:
    // the compiled engine must beat the scalar simulator by 40x on
    // fir_t16, single-threaded and lane-normalized.
    if !fast {
        let scalar = lookup(&runs, "fir_t16_scalar");
        let compiled = lookup(&runs, "fir_t16_compiled_1t");
        assert!(
            compiled >= 40.0 * scalar,
            "compiled engine ({compiled:.0} vec/s) must be at least 40x \
             the scalar simulator ({scalar:.0} vec/s) on fir_t16"
        );
        println!(
            "speedup on fir_t16       : {:.1}x compiled over scalar (1 thread)",
            compiled / scalar
        );
    }
}
