//! X2 — simulator scalability: cycles per second across circuit sizes,
//! supporting the paper's claim that in-browser simulation of
//! realistic IP is practical; plus X4 — vectors per second for the
//! scalar engine versus the bit-parallel compiled engine on a
//! 256-vector verification sweep.

use ipd_bench::harness::{black_box, Harness, Throughput};
use ipd_bench::sim_workloads;
use ipd_hdl::{LogicVec, PortDir};
use ipd_sim::{Simulator, VectorSweep};

/// Vectors per sweep in the scalar-vs-batch comparison (one full
/// 256-lane compiled shard).
const SWEEP_VECTORS: usize = 256;

/// Clock cycles per vector (covers the pipelined workloads' latency).
const SWEEP_CYCLES: u64 = 2;

/// The stimulus set: one value of the first data input per vector.
fn sweep_stimuli(circuit: &ipd_hdl::Circuit) -> Option<Vec<Vec<(String, LogicVec)>>> {
    let sim = Simulator::new(circuit).expect("compile");
    let (input, width) = sim
        .ports()
        .into_iter()
        .find(|(n, d, _)| *d == PortDir::Input && n != "clk")
        .map(|(n, _, w)| (n, w as usize))?;
    Some(
        (0..SWEEP_VECTORS)
            .map(|k| {
                vec![(
                    input.clone(),
                    LogicVec::from_u64(k as u64 * 0x9e37 % (1 << width.min(63)), width),
                )]
            })
            .collect(),
    )
}

fn main() {
    let mut c = Harness::new();
    let mut group = c.benchmark_group("sim_throughput");
    for (name, circuit) in sim_workloads() {
        let prims = circuit.primitive_count();
        group.throughput(Throughput::Elements(100));
        group.bench_function(format!("cycles_x100/{name}_{prims}prims"), |b| {
            let mut sim = Simulator::new(&circuit).expect("compile");
            // Drive the first data input if present.
            let input = sim
                .ports()
                .into_iter()
                .find(|(n, d, _)| *d == ipd_hdl::PortDir::Input && n != "clk")
                .map(|(n, _, w)| (n, w));
            if let Some((name, width)) = &input {
                sim.set(name, ipd_hdl::LogicVec::from_u64(1, *width as usize))
                    .expect("set");
            }
            b.iter(|| {
                sim.cycle(100).expect("cycle");
                black_box(sim.cycle_count())
            })
        });
    }
    group.finish();

    let mut compile = c.benchmark_group("sim_compile");
    for (name, circuit) in sim_workloads() {
        compile.bench_function(&name, |b| {
            b.iter(|| black_box(Simulator::new(&circuit).expect("compile")))
        });
    }
    compile.finish();

    // X4: a 256-vector verification sweep, scalar one-vector-at-a-time
    // versus the compiled batch engine (single-threaded for the pure
    // bit-parallel speedup, then the threaded sweep on top).
    let mut sweep = c.benchmark_group("vector_sweep");
    for (name, circuit) in sim_workloads() {
        let Some(stimuli) = sweep_stimuli(&circuit) else {
            continue;
        };
        sweep.throughput(Throughput::Elements(SWEEP_VECTORS as u64));
        sweep.bench_function(format!("scalar/{name}"), |b| {
            let mut sim = Simulator::new(&circuit).expect("compile");
            let out_ports: Vec<String> = sim
                .ports()
                .into_iter()
                .filter(|(_, d, _)| *d == PortDir::Output)
                .map(|(n, _, _)| n)
                .collect();
            b.iter(|| {
                for stim in &stimuli {
                    sim.reset();
                    for (port, value) in stim {
                        sim.set(port, value.clone()).expect("set");
                    }
                    sim.cycle(SWEEP_CYCLES).expect("cycle");
                    for port in &out_ports {
                        black_box(sim.peek(port).expect("peek"));
                    }
                }
            })
        });
        // The compiled engine's 1024-vector gated figures are X10
        // (sim_fleet.rs).
        sweep.bench_function(format!("batch_1thread/{name}"), |b| {
            let runner = VectorSweep::new(&circuit)
                .expect("compile")
                .cycles(SWEEP_CYCLES)
                .threads(1);
            b.iter(|| black_box(runner.run(&stimuli).expect("run").total_vectors()))
        });
        sweep.bench_function(format!("batch_threaded/{name}"), |b| {
            let runner = VectorSweep::new(&circuit)
                .expect("compile")
                .cycles(SWEEP_CYCLES);
            b.iter(|| black_box(runner.run(&stimuli).expect("run").total_vectors()))
        });
    }
    sweep.finish();
}
