//! Shared workloads for the benchmark harness.
//!
//! Every table and figure of the paper has a bench target in
//! `benches/` and a row-for-row textual reproduction in the `repro`
//! binary; this library holds the circuit builders and scenario
//! parameters they share.

#![deny(unsafe_code)]

pub mod harness;

use std::time::Duration;

use ipd_cosim::DeliveryScenario;
use ipd_hdl::Circuit;
use ipd_modgen::{ArrayMultiplier, FirFilter, KcmMultiplier, RippleAdder};

/// The paper's running example: −56 × x, 8-bit input, 12-bit product,
/// signed, pipelined.
#[must_use]
pub fn paper_kcm() -> KcmMultiplier {
    KcmMultiplier::new(-56, 8, 12).signed(true).pipelined(true)
}

/// A KCM at full product width for a given constant/width.
#[must_use]
pub fn full_width_kcm(constant: i64, width: u32, signed: bool) -> KcmMultiplier {
    let full = KcmMultiplier::new(constant, width, 1)
        .signed(signed)
        .full_product_width();
    KcmMultiplier::new(constant, width, full).signed(signed)
}

/// Builds the paper KCM's circuit.
///
/// # Panics
///
/// Panics if elaboration fails (it cannot for these parameters).
#[must_use]
pub fn paper_kcm_circuit() -> Circuit {
    Circuit::from_generator(&paper_kcm()).expect("paper KCM builds")
}

/// A circuit sweep for simulator-throughput benches: name plus circuit.
///
/// # Panics
///
/// Panics if any generator fails to elaborate.
#[must_use]
pub fn sim_workloads() -> Vec<(String, Circuit)> {
    let mut out = Vec::new();
    for width in [8u32, 16, 32] {
        out.push((
            format!("adder_w{width}"),
            Circuit::from_generator(&RippleAdder::new(width)).expect("adder"),
        ));
    }
    for width in [8u32, 16] {
        out.push((
            format!("kcm_w{width}"),
            Circuit::from_generator(&full_width_kcm(-12345, width, true)).expect("kcm"),
        ));
    }
    for taps in [4usize, 16] {
        let coeffs: Vec<i64> = (0..taps as i64).map(|i| (i % 7) - 3).collect();
        out.push((
            format!("fir_t{taps}"),
            Circuit::from_generator(&FirFilter::new(coeffs, 8).expect("fir params")).expect("fir"),
        ));
    }
    out
}

/// KCM-vs-array-multiplier comparison points (the paper's ref \[9\]
/// evaluation): widths to sweep.
#[must_use]
pub fn kcm_quality_widths() -> Vec<u32> {
    vec![4, 8, 12, 16, 20, 24, 28, 32]
}

/// A representative constant with bits spread across the word, masked
/// to `width` bits (so the KCM tables stay dense).
#[must_use]
pub fn quality_constant(width: u32) -> i64 {
    let pattern = 0xB6D5_A4E3_97C1_5AB7u64;
    let mask = if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    ((pattern & mask) | 1) as i64
}

/// An array-multiplier baseline matching a KCM comparison width.
#[must_use]
pub fn baseline_multiplier(width: u32) -> ArrayMultiplier {
    ArrayMultiplier::new(width, width)
}

/// The Figure 4 scenario at a given round-trip time, with a measured
/// local event cost plugged in.
#[must_use]
pub fn fig4_scenario(rtt: Duration, local_event_cost: Duration) -> DeliveryScenario {
    DeliveryScenario {
        cycles: 10_000,
        events_per_cycle: 3,
        // The paper's Table 1 total: 795 kB of applet bundles over a
        // 2002-era ~1 Mb/s link.
        download_bytes: 795 * 1024,
        bandwidth_bytes_per_s: 128.0 * 1024.0,
        rtt,
        local_event_cost,
    }
}

/// The RTT sweep for Figure 4.
#[must_use]
pub fn fig4_rtts() -> Vec<Duration> {
    [0u64, 1, 2, 5, 10, 20, 50]
        .into_iter()
        .map(Duration::from_millis)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_build() {
        assert!(!sim_workloads().is_empty());
        assert!(paper_kcm_circuit().primitive_count() > 0);
        for width in kcm_quality_widths() {
            assert!(quality_constant(width) > 0);
            let _ = Circuit::from_generator(&full_width_kcm(quality_constant(width), width, false))
                .expect("quality kcm builds");
        }
    }
}
