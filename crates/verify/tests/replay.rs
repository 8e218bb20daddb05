//! Replay's disagreement path: a counterexample the simulators do not
//! reproduce is refused with `VerifyError::OracleDisagreement`, naming
//! the engine and the function, never returned as a verdict.

use std::sync::Arc;

use ipd_hdl::{Circuit, FlatNetlist, LogicVec, PortSpec};
use ipd_sim::NetlistGraph;
use ipd_techlib::{FlatIndex, LogicCtx};
use ipd_verify::replay::confirm;
use ipd_verify::{Counterexample, OutId, StateAssign, VerifyError};

/// `y = a & b` when `or` is false, else `y = a | b`, compiled.
fn gate(or: bool) -> Arc<NetlistGraph> {
    let mut c = Circuit::new("gate");
    let mut ctx = c.root_ctx();
    let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
    let b = ctx.add_port(PortSpec::input("b", 1)).unwrap();
    let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
    if or {
        ctx.or2(a, b, y).unwrap();
    } else {
        ctx.and2(a, b, y).unwrap();
    }
    let index = FlatIndex::new(FlatNetlist::build(&c).unwrap());
    Arc::new(NetlistGraph::build(&index, None).unwrap())
}

/// `a = 1, b = 0`: the golden AND gives 0 and the revised OR gives 1.
fn distinguishing(golden_value: bool, state: Vec<StateAssign>) -> Counterexample {
    Counterexample {
        function: "y[0]".into(),
        inputs: vec![
            ("a".into(), LogicVec::from_u64(1, 1)),
            ("b".into(), LogicVec::from_u64(0, 1)),
        ],
        state,
        golden_value,
        revised_value: true,
    }
}

fn y0() -> OutId {
    OutId::Port {
        port: "y".into(),
        bit: 0,
    }
}

#[test]
fn forged_golden_value_is_refused_by_the_scalar_oracle() {
    confirm(
        &gate(false),
        &gate(true),
        &distinguishing(false, vec![]),
        &y0(),
    )
    .expect("both engines reproduce the honest counterexample");
    let err = confirm(
        &gate(false),
        &gate(true),
        &distinguishing(true, vec![]),
        &y0(),
    )
    .unwrap_err();
    let VerifyError::OracleDisagreement {
        oracle,
        function,
        expected,
        observed,
    } = err
    else {
        panic!("expected an oracle disagreement, got {err}");
    };
    assert_eq!(oracle, "scalar");
    assert_eq!(function, "golden:y[0]");
    assert_eq!(expected, "1");
    assert_eq!(observed, "Zero");
}

#[test]
fn state_assign_naming_no_element_is_refused() {
    let nowhere = StateAssign {
        golden_path: "gate/nowhere".into(),
        revised_path: "gate/nowhere".into(),
        value: LogicVec::from_u64(1, 1),
    };
    let err = confirm(
        &gate(false),
        &gate(true),
        &distinguishing(false, vec![nowhere]),
        &y0(),
    )
    .unwrap_err();
    let VerifyError::OracleDisagreement {
        oracle, observed, ..
    } = err
    else {
        panic!("expected an oracle disagreement, got {err}");
    };
    assert_eq!(oracle, "scalar");
    assert!(
        observed.contains("state back door refused 'gate/nowhere'"),
        "{observed}"
    );
}
