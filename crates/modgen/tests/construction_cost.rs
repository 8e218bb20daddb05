//! Construction cost stays linear in the circuit it builds: uniquifying
//! a name formats about one candidate, not one per earlier name of the
//! same base in the scope.

use ipd_hdl::{name_probes, Circuit};
use ipd_modgen::FirFilter;
use ipd_testutil::XorShift64;

#[test]
fn fir_names_cost_a_candidate_per_name() {
    let mut rng = XorShift64::new(64);
    let coefficients = (0..64)
        .map(|_| (rng.next_u64() % (1 << 16)) as i64 - (1 << 15))
        .collect();
    let fir = FirFilter::new(coefficients, 16).expect("64 taps of 16 bits");
    let before = name_probes();
    let circuit = Circuit::from_generator(&fir).expect("FIR elaborates");
    let probes = name_probes() - before;
    let names = (circuit.cell_count() + circuit.wire_count()) as u64;
    assert!(
        probes <= names,
        "{probes} candidates formatted for {names} cells and wires"
    );
}
