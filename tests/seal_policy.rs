//! The one delivery gate: `seal_design` under a `SealPolicy`.
//!
//! The digests and refusal texts below were recorded from the four
//! separate seal entry points this gate replaced — lint-only, timed,
//! semantic and golden-verified — for every example-zoo design under a
//! fixed key and nonce. The single gate must reproduce each of them
//! byte for byte. The last tests exercise what no single old entry
//! point could: one policy running the timing, semantic and golden
//! gates together.

use std::fs;
use std::path::PathBuf;

use ipd::core::{seal_design, sha256, to_hex, unseal, CoreError, SealPolicy};
use ipd::hdl::{Circuit, PortSpec, Signal};
use ipd::lint::{LintConfig, OracleOptions, TimingConstraints};
use ipd::netlist::NetlistFormat;
use ipd::techlib::LogicCtx;
use ipd::verify::EquivConfig;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn read_fixture(name: &str) -> String {
    fs::read_to_string(fixture_dir().join(name))
        .unwrap_or_else(|e| panic!("missing fixture {name}: {e}"))
}

/// A zoo design's committed golden EDIF, re-read.
fn golden(name: &str) -> Circuit {
    ipd::netlist::read_edif(&read_fixture(&format!("golden/{name}.edif")))
        .expect("golden fixture parses")
}

fn zoo_constraints() -> TimingConstraints {
    TimingConstraints::parse(&read_fixture("zoo.constraints")).expect("constraints parse")
}

fn key() -> [u8; 32] {
    core::array::from_fn(|i| (i as u8).wrapping_mul(37).wrapping_add(11))
}

const NONCE: u64 = 0x1d2c_3b4a;

fn digest(bytes: &[u8]) -> String {
    to_hex(&sha256(bytes))
}

/// The four policies the old entry points took, in `Frozen::reports`
/// order: lint only, timed against the zoo constraints, semantic, and
/// golden against the design's committed fixture.
fn old_policies(name: &str) -> [SealPolicy; 4] {
    [
        SealPolicy::default(),
        SealPolicy {
            timing: Some(zoo_constraints()),
            ..SealPolicy::default()
        },
        SealPolicy {
            semantic: Some(OracleOptions::default()),
            ..SealPolicy::default()
        },
        SealPolicy {
            golden: Some((golden(name), EquivConfig::default())),
            ..SealPolicy::default()
        },
    ]
}

/// One zoo design's outcomes under the old entry points.
struct Frozen {
    name: &'static str,
    /// SHA-256 of the sealed bytes: all four policies seal the same
    /// EDIF under the same key and nonce.
    sealed: &'static str,
    /// SHA-256 of `report().to_json()` per policy of [`old_policies`].
    reports: [&'static str; 4],
    /// The golden policy's certificate binding.
    binding: &'static str,
}

/// The JSON digest of a report with no findings.
const CLEAN: &str = "fd063312e50c8552e39e6e2eb0f5b3e489fd17454b84851a99845fab0cb58531";

const FROZEN: [Frozen; 10] = [
    Frozen {
        name: "kcm_w8_p12_c-56_s",
        sealed: "eda28f4d01b0e3b47d713c0ac68ed4f002c3b68abd92c271f4ea05e85a44534d",
        reports: [CLEAN, CLEAN, CLEAN, CLEAN],
        binding: "837370abb812b069c7e86661faeaab59eb2ec7c4c1e183b264608a7d3e1b5df3",
    },
    Frozen {
        name: "fir_t5_w8",
        sealed: "65111c6b09da59b2377c76685b5094a4b6a86392719c98d2bddc3dabe0efe4b0",
        reports: [
            CLEAN,
            CLEAN,
            "f0e7f7c3237c5524feaec132ef3a987c8db859d72aac8710e6940fced76058ba",
            CLEAN,
        ],
        binding: "c0d92d320ed1380849df887e65aa020d436f948a394f74fb5201943d37d70375",
    },
    Frozen {
        name: "counter_w8_up_load",
        sealed: "18a4a16cd9c73c7e7c54c72f403f53c9bd0597bb2516b174f334a4df380cb008",
        reports: [CLEAN, CLEAN, CLEAN, CLEAN],
        binding: "456ecc617482038fdcc099740dcbec1bde02dc29c39069665aeb6c9fc6719a3a",
    },
    Frozen {
        name: "popcount_w12",
        sealed: "48eccbd6ea5861c74454e59113d1703e544f2b54eab6a6e14f32d1743a3bb0d2",
        reports: [CLEAN, CLEAN, CLEAN, CLEAN],
        binding: "649596e934c8d43081f2a826afb8a0c62dc512d5203e2ce8bef3facdd68a18c1",
    },
    Frozen {
        name: "rom_a5_d8",
        sealed: "90c22f7aa23271b2c0657be621ff927222e611b0a896bb4756ad5a2cf3f8a585",
        reports: [CLEAN, CLEAN, CLEAN, CLEAN],
        binding: "bfabefea7ffc1644a1f1bb3122f1959b57640825980e48f5578c138af0acbab3",
    },
    Frozen {
        name: "add_w10",
        sealed: "95279e9c62cd4a73a2eb0751b5401db582554116420d1db775fce515f00f891c",
        reports: [CLEAN, CLEAN, CLEAN, CLEAN],
        binding: "b22ed167e112dda2328f42a7ed7121444c2703dacc36d954b52ea580a42095a4",
    },
    Frozen {
        name: "mult_6x6",
        sealed: "62de9df1b4f117ff9e639b1c1f4ab2d8ab114a923af2a0834dbb741abc63f389",
        reports: [CLEAN, CLEAN, CLEAN, CLEAN],
        binding: "cbc55ddb6dec556e3474de22ec5431601ea0e4881cd68e070fdfca8edab21e08",
    },
    Frozen {
        name: "cmp_w8_lt",
        sealed: "a155f77854811412dc47bd33f088c316d566e02556bf62fddc50169cae958709",
        reports: [CLEAN, CLEAN, CLEAN, CLEAN],
        binding: "d67d8448cf46f7c682bb992762b1ab818316db8200be6e872e21848619bc9b9d",
    },
    Frozen {
        name: "srl_w4_d9",
        sealed: "206ebe94a78a99fc60a94ecfefa42d2048592521e5ac13c36ed57491cd1c49a1",
        reports: [CLEAN, CLEAN, CLEAN, CLEAN],
        binding: "99275dadbf3b6cda23a2ba573f93088e886148d17604c1d183565a95ec086968",
    },
    Frozen {
        name: "gray_w6",
        sealed: "abd4237c652753529716a3158d130d6d544d05355e36f95b1469fabfc257bdfd",
        reports: [CLEAN, CLEAN, CLEAN, CLEAN],
        binding: "3dfeaa5904d874a2df6d1dfe34889bdcbdcb96fc767d8221ade6446bf12e9062",
    },
];

#[test]
fn zoo_seals_reproduce_the_frozen_digests() {
    let key = key();
    let zoo = ipd::modgen::example_zoo();
    assert_eq!(zoo.len(), FROZEN.len());
    for ((name, circuit), frozen) in zoo.iter().zip(&FROZEN) {
        assert_eq!(name, frozen.name, "zoo reordered");
        for (k, policy) in old_policies(name).iter().enumerate() {
            let sealed = seal_design(circuit, policy, &key, NONCE)
                .unwrap_or_else(|e| panic!("{name} policy {k}: {e}"));
            assert_eq!(digest(sealed.bytes()), frozen.sealed, "{name} policy {k}");
            assert_eq!(
                digest(sealed.report().to_json().as_bytes()),
                frozen.reports[k],
                "{name} policy {k} report"
            );
            let binding = sealed.certificate().map(|c| to_hex(c.binding()));
            let expected = (policy.golden.is_some()).then(|| frozen.binding.to_owned());
            assert_eq!(binding, expected, "{name} policy {k} certificate");
        }
    }
}

/// A contended net: `multiple-drivers` is an error.
fn multiply_driven() -> Circuit {
    let mut c = Circuit::new("broken");
    let mut ctx = c.root_ctx();
    let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
    let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
    ctx.buffer(a, y).unwrap();
    ctx.buffer(a, y).unwrap();
    c
}

/// FF -> `depth` inverters -> FF on one clock.
fn chain(depth: usize) -> Circuit {
    let mut c = Circuit::new("chain");
    let mut ctx = c.root_ctx();
    let clk = ctx.add_port(PortSpec::input("clk", 1)).unwrap();
    let d = ctx.add_port(PortSpec::input("d", 1)).unwrap();
    let q = ctx.add_port(PortSpec::output("q", 1)).unwrap();
    let mut cur: Signal = ctx.wire("s0", 1).into();
    ctx.fd(clk, d, cur.clone()).unwrap();
    for i in 0..depth {
        let nxt = ctx.wire(&format!("s{}", i + 1), 1);
        ctx.inv(cur, nxt).unwrap();
        cur = nxt.into();
    }
    ctx.fd(clk, cur, q).unwrap();
    c
}

/// A 6 ns clock on `clk`, which the 24-inverter chain misses.
fn tight_clock() -> TimingConstraints {
    let mut t = TimingConstraints::new();
    t.clock("clk", 6.0, "clk");
    t
}

/// `y = a & b`, or the faulty `a | b`.
fn unit(kind: &str) -> Circuit {
    let mut c = Circuit::new("unit");
    let mut ctx = c.root_ctx();
    let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
    let b = ctx.add_port(PortSpec::input("b", 1)).unwrap();
    let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
    match kind {
        "and" => ctx.and2(a, b, y).unwrap(),
        "or" => ctx.or2(a, b, y).unwrap(),
        other => panic!("unknown kind {other}"),
    };
    c
}

fn golden_policy(golden: &Circuit) -> SealPolicy {
    SealPolicy {
        golden: Some((golden.clone(), EquivConfig::default())),
        ..SealPolicy::default()
    }
}

fn refusal(circuit: &Circuit, policy: &SealPolicy) -> CoreError {
    match seal_design(circuit, policy, &key(), NONCE) {
        Ok(_) => panic!("{} sealed", circuit.name()),
        Err(e) => e,
    }
}

#[test]
fn refusals_reproduce_the_frozen_texts() {
    let err = refusal(&multiply_driven(), &SealPolicy::default());
    assert!(matches!(err, CoreError::LintRejected { .. }), "{err:?}");
    assert_eq!(
        err.to_string(),
        "delivery refused: 1 unwaived lint error(s) (1 error(s), 0 warning(s), 0 waived)"
    );

    let timed = SealPolicy {
        timing: Some(tight_clock()),
        ..SealPolicy::default()
    };
    let err = refusal(&chain(24), &timed);
    assert!(matches!(err, CoreError::LintRejected { .. }), "{err:?}");
    assert_eq!(
        err.to_string(),
        "delivery refused: 1 unwaived lint error(s) (1 error(s), 1 warning(s), 0 waived)"
    );

    let err = refusal(&unit("or"), &golden_policy(&unit("and")));
    assert!(matches!(err, CoreError::EquivRejected { .. }), "{err:?}");
    assert_eq!(
        err.to_string(),
        "delivery refused: not equivalent to golden 'unit' — 'y[0]' differs \
         (golden=0, revised=1) under inputs [a=0, b=1]"
    );

    // The revision drops an input: the boundaries cannot be matched.
    let mut narrow = Circuit::new("unit");
    let mut ctx = narrow.root_ctx();
    let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
    let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
    ctx.buffer(a, y).unwrap();
    let err = refusal(&narrow, &golden_policy(&unit("and")));
    assert!(matches!(err, CoreError::Verify(_)), "{err:?}");
    assert_eq!(
        err.to_string(),
        "equivalence check failed: primary port boundaries differ: \
         golden has b Input[1], revised has y Output[1]"
    );
}

/// Every gate at once: `timing`, the semantic tier, and `golden`.
fn every_gate(lint: LintConfig, timing: TimingConstraints, golden: &Circuit) -> SealPolicy {
    SealPolicy {
        lint,
        timing: Some(timing),
        semantic: Some(OracleOptions::default()),
        golden: Some((golden.clone(), EquivConfig::default())),
    }
}

#[test]
fn one_policy_runs_every_gate_over_the_zoo() {
    let key = key();
    for (name, circuit) in ipd::modgen::example_zoo() {
        let reference = golden(&name);
        let policy = every_gate(LintConfig::new(), zoo_constraints(), &reference);
        let sealed =
            seal_design(&circuit, &policy, &key, NONCE).unwrap_or_else(|e| panic!("{name}: {e}"));
        let plain = unseal(sealed.bytes(), &key).expect("unseal");
        let golden_edif = NetlistFormat::Edif.generate(&reference).expect("netlist");
        let cert = sealed.certificate().expect("golden gate certifies");
        assert!(
            cert.verify(golden_edif.as_bytes(), &plain),
            "{name}: certificate does not bind the sealed bytes"
        );
    }
}

#[test]
fn one_policy_refuses_with_the_failing_gates_error() {
    // Timing: the chain is its own golden and semantically clean, so
    // only the timing gate can refuse it.
    let slow = chain(24);
    let err = refusal(&slow, &every_gate(LintConfig::new(), tight_clock(), &slow));
    match &err {
        CoreError::LintRejected { summary, .. } => assert!(summary.contains("1 error(s)")),
        other => panic!("expected the timing gate's LintRejected, got {other:?}"),
    }
    let mut waived = LintConfig::new();
    waived.waive("setup-violation", "*", "timing not contractual");
    let sealed = seal_design(
        &slow,
        &every_gate(waived, tight_clock(), &slow),
        &key(),
        NONCE,
    )
    .expect("only the setup violation blocked");
    assert!(sealed.certificate().is_some());

    // Equivalence: refused before any lint gate runs.
    let err = refusal(
        &unit("or"),
        &every_gate(LintConfig::new(), tight_clock(), &unit("and")),
    );
    assert!(matches!(err, CoreError::EquivRejected { .. }), "{err:?}");

    // Semantic: the committed redundant fixture is structurally clean
    // and equivalent to itself; its lintrc raises redundant-logic.
    let redundant = ipd::netlist::read_edif(&read_fixture("redundant.edif")).expect("parses");
    let lintrc = LintConfig::parse(&read_fixture("redundant.lintrc")).expect("lintrc parses");
    let mut policy = every_gate(lintrc, zoo_constraints(), &redundant);
    let err = refusal(&redundant, &policy);
    match &err {
        CoreError::LintRejected { errors, .. } => assert!(*errors >= 2, "{err}"),
        other => panic!("expected the semantic gate's LintRejected, got {other:?}"),
    }
    policy.semantic = None;
    seal_design(&redundant, &policy, &key(), NONCE).expect("structural lint passes it");
}
