//! One structural index per netlist: every gate and co-simulation
//! entry point indexes a netlist once, and lint, STA, the simulators
//! and the equivalence checker all read that one `FlatIndex`.

use ipd::core::{seal_design, SealPolicy};
use ipd::cosim::LocalSimModel;
use ipd::hdl::{Circuit, FlatNetlist};
use ipd::lint::{LintConfig, Linter, OracleOptions, TimingConstraints, TimingPass};
use ipd::modgen::KcmMultiplier;
use ipd::techlib::{index_builds, DelayModel};
use ipd::verify::EquivConfig;

/// Runs `f` and counts the indexes it builds on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = index_builds();
    let out = f();
    (out, index_builds() - before)
}

/// A signed, pipelined KCM.
fn kcm(constant: i64, width: u32, product_width: u32) -> Circuit {
    let generator = KcmMultiplier::new(constant, width, product_width)
        .signed(true)
        .pipelined(true);
    Circuit::from_generator(&generator).expect("kcm generates")
}

fn clock() -> TimingConstraints {
    let mut constraints = TimingConstraints::new();
    constraints.clock("clk", 10.0, "clk");
    constraints
}

#[test]
fn seal_design_indexes_each_netlist_once() {
    let key = [7u8; 32];
    // The journey's policy shape: timing constraints under
    // `LintConfig::default()`, whose zero fanout limit also sends the
    // fanout pass to the timing estimator.
    let journey = SealPolicy {
        lint: LintConfig::default(),
        timing: Some(clock()),
        ..SealPolicy::default()
    };
    let (sealed, builds) = counted(|| seal_design(&kcm(-1365, 16, 27), &journey, &key, 1));
    sealed.expect("journey policy seals");
    assert_eq!(builds, 1, "journey policy");

    // Every gate at once: the delivered netlist and the golden, once each.
    let paper = kcm(-56, 8, 12);
    let every_gate = SealPolicy {
        lint: LintConfig::new(),
        timing: Some(clock()),
        semantic: Some(OracleOptions::default()),
        golden: Some((paper.clone(), EquivConfig::default())),
    };
    let (sealed, builds) = counted(|| seal_design(&paper, &every_gate, &key, 2));
    sealed.expect("every gate passes");
    assert_eq!(builds, 2, "every gate");
}

#[test]
fn local_sim_model_indexes_once() {
    let circuit = kcm(-1365, 16, 27);
    let (model, builds) = counted(|| LocalSimModel::new(&circuit));
    model.expect("model compiles");
    assert_eq!(builds, 1);
}

#[test]
fn linter_with_timing_and_semantic_passes_indexes_once() {
    let flat = FlatNetlist::build(&kcm(-56, 8, 12)).expect("flattens");
    let mut linter = Linter::with_oracle(LintConfig::default(), OracleOptions::default());
    linter.add_pass(Box::new(TimingPass::new(clock(), DelayModel::virtex())));
    let (report, builds) = counted(|| linter.run_flat(&flat));
    assert_eq!(report.error_count(), 0, "{report}");
    assert_eq!(builds, 1);
}
