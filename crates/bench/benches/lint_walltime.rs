//! X6 — static-analysis cost: wall time for a full `ipd-lint` run over
//! the largest KCM in the simulator sweep, versus one 64-lane
//! batch-simulation pass on the same circuit. The lint gate sits on the
//! delivery path (`seal_design` refuses unwaived errors under every
//! `SealPolicy`), so it must be cheap next to the work a vendor already
//! does per request; the acceptance shape is lint ≤ one batch pass.

use ipd_bench::harness::{black_box, Harness, Throughput};
use ipd_bench::{full_width_kcm, sim_workloads};
use ipd_hdl::{Circuit, FlatNetlist, LogicVec, PortDir};
use ipd_lint::{lint, Linter};
use ipd_sim::{Simulator, SweepEngine, VectorSweep};

/// One full shard of the 64-lane batch engine: the unit of
/// simulation work lint is measured against.
const LANES: usize = 64;

/// Cycles per vector, matching the X4 sweep setup.
const SWEEP_CYCLES: u64 = 2;

/// 64 stimulus vectors driving the first data input.
fn lane_stimuli(circuit: &Circuit) -> Vec<Vec<(String, LogicVec)>> {
    let sim = Simulator::new(circuit).expect("compile");
    let (input, width) = sim
        .ports()
        .into_iter()
        .find(|(n, d, _)| *d == PortDir::Input && n != "clk")
        .map(|(n, _, w)| (n, w as usize))
        .expect("a data input");
    (0..LANES)
        .map(|k| {
            vec![(
                input.clone(),
                LogicVec::from_u64(k as u64 * 0x9e37 % (1 << width.min(63)), width),
            )]
        })
        .collect()
}

fn main() {
    // The largest KCM in the sim sweep (kcm_w16: full product width).
    let circuit =
        Circuit::from_generator(&full_width_kcm(-12345, 16, true)).expect("kcm elaborates");
    let prims = circuit.primitive_count();
    let flat = FlatNetlist::build(&circuit).expect("flattens");

    let mut c = Harness::new();
    let mut group = c.benchmark_group("lint_walltime");

    // The full vendor-side gate: flatten + every default pass.
    group.bench_function(format!("lint_full/kcm_w16_{prims}prims"), |b| {
        b.iter(|| black_box(lint(&circuit).expect("lint").summary()))
    });

    // Analysis only, flattening amortized — what re-linting after a
    // config/waiver edit costs.
    group.bench_function(format!("lint_passes_only/kcm_w16_{prims}prims"), |b| {
        let linter = Linter::new();
        b.iter(|| black_box(linter.run_flat(&flat).summary()))
    });

    // The yardstick: one 64-lane batch-simulation pass (a single full
    // shard, single-threaded) on the same circuit.
    group.throughput(Throughput::Elements(LANES as u64));
    group.bench_function(format!("batch_sim_64lane/kcm_w16_{prims}prims"), |b| {
        let stimuli = lane_stimuli(&circuit);
        let runner = VectorSweep::new(&circuit)
            .expect("compile")
            .engine(SweepEngine::Interpreted)
            .cycles(SWEEP_CYCLES)
            .threads(1);
        b.iter(|| black_box(runner.run(&stimuli).expect("run").total_vectors()))
    });
    group.finish();

    // Context: lint cost across the whole sim sweep, so the scaling
    // with primitive count is visible alongside X2/X4.
    let mut sweep = c.benchmark_group("lint_sweep");
    for (name, circuit) in sim_workloads() {
        let prims = circuit.primitive_count();
        sweep.bench_function(format!("{name}_{prims}prims"), |b| {
            b.iter(|| black_box(lint(&circuit).expect("lint").summary()))
        });
    }
    sweep.finish();
}
