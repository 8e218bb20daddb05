//! One elaboration per design: every gate, co-simulation, physical
//! flow and applet session flattens a circuit once and indexes the
//! netlist once, and lint, STA, placement, routing, the simulators and
//! the equivalence checker all read that one `FlatIndex`.

use ipd::core::{seal_design, AppletHost, AppletSession, CapabilitySet, IpExecutable, SealPolicy};
use ipd::cosim::LocalSimModel;
use ipd::estimate::{place_and_route, PlacerMode, PnrConfig};
use ipd::hdl::{flatten_builds, Circuit, FlatNetlist};
use ipd::lint::{LintConfig, Linter, OracleOptions, TimingConstraints, TimingPass};
use ipd::modgen::KcmMultiplier;
use ipd::techlib::{index_builds, DelayModel, FlatIndex};
use ipd::verify::{EquivConfig, Oracle, Verdict};

/// Runs `f` and counts the indexes it builds on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = index_builds();
    let out = f();
    (out, index_builds() - before)
}

/// Runs `f` and counts the `(flattens, indexes)` it builds on this
/// thread.
fn elaborations<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let before = (flatten_builds(), index_builds());
    let out = f();
    let after = (flatten_builds(), index_builds());
    (out, (after.0 - before.0, after.1 - before.1))
}

/// A signed, pipelined KCM.
fn kcm(constant: i64, width: u32, product_width: u32) -> Circuit {
    let generator = KcmMultiplier::new(constant, width, product_width)
        .signed(true)
        .pipelined(true);
    Circuit::from_generator(&generator).expect("kcm generates")
}

/// Fanout and port-width limits of 0: every multi-fanout net and
/// every port warns.
fn unlimited() -> LintConfig {
    let mut config = LintConfig::new();
    config.max_fanout = 0;
    config.max_port_width = 0;
    config
}

fn clock() -> TimingConstraints {
    let mut constraints = TimingConstraints::new();
    constraints.clock("clk", 10.0, "clk");
    constraints
}

#[test]
fn seal_design_indexes_each_netlist_once() {
    let key = [7u8; 32];
    // Timing constraints under zero fanout and port-width limits,
    // which also send the fanout pass to the timing estimator.
    let journey = SealPolicy {
        lint: unlimited(),
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
    let mut linter = Linter::with_oracle(unlimited(), OracleOptions::default());
    linter.add_pass(Box::new(TimingPass::new(clock(), DelayModel::virtex())));
    let (report, builds) = counted(|| linter.run_index(&FlatIndex::new(flat)));
    assert_eq!(report.error_count(), 0, "{report}");
    assert_eq!(builds, 1);
}

#[test]
fn oracle_witness_replay_reuses_the_oracles_graph() {
    // product[4] of the paper's KCM is not stuck at 0, so the query is
    // refuted and its witness replayed through both simulators.
    let flat = FlatNetlist::build(&kcm(-56, 8, 12)).expect("flattens");
    let ((verdict, replays), builds) = counted(|| {
        let index = FlatIndex::new(flat);
        let mut oracle = Oracle::new(&index, OracleOptions::default()).expect("oracle builds");
        let ports = &oracle.graph().ports;
        let bit = ports
            .iter()
            .find(|p| p.name == "product")
            .expect("product")
            .nets[4];
        let verdict = oracle.prove_constant(bit, false).expect("witness replays");
        (verdict, oracle.stats().replays)
    });
    assert!(matches!(verdict, Verdict::Refuted(_)), "{verdict:?}");
    assert_eq!(replays, 1);
    assert_eq!(builds, 1, "the caller's index only");
}

#[test]
fn place_and_route_elaborates_once_for_every_later_timing_query() {
    let circuit = kcm(-56, 8, 12);
    for mode in [PlacerMode::Pinned, PlacerMode::Scratch] {
        let mut config = PnrConfig::virtex();
        config.placer.mode = mode;
        let ((), builds) = elaborations(|| {
            let phys = place_and_route(&circuit, &config).expect("places and routes");
            for _ in 0..3 {
                phys.timing().expect("routed timing");
                phys.analyze(&clock()).expect("routed sta");
            }
        });
        assert_eq!(builds, (1, 1), "{mode:?}: (flattens, indexes)");
    }
}

#[test]
fn applet_session_elaborates_once_for_every_aid() {
    let exe = IpExecutable::new("kcm", "byu", CapabilitySet::licensed());
    let host = AppletHost::new();
    let generator = KcmMultiplier::new(-56, 8, 12).signed(true).pipelined(true);
    let mut session = AppletSession::new(&exe, &host, Box::new(generator));
    let ((), builds) = elaborations(|| {
        session.build().expect("builds");
        session.estimate_area().expect("area");
        session.estimate_timing().expect("timing");
        session.device_fit(None).expect("device fit");
        session.slack_summary(&clock()).expect("slack summary");
        session.sta_report(&clock()).expect("sta report");
        session.lint().expect("lint");
        session.layout().expect("layout");
        session.set_i64("multiplicand", 3).expect("set");
        session.cycle(2).expect("cycle");
        session.peek("product").expect("peek");
    });
    assert_eq!(builds, (1, 1), "(flattens, indexes)");
}
