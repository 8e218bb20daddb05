//! The equivalence gate of a [`SealPolicy`] and its certificate.
//!
//! The lint gate proves a design is not structurally broken; the
//! timing gate proves it meets its clock. The golden gate adds the
//! functional check: a design is sealed only after the `ipd-verify`
//! engine *proves* it computes the same function as a golden reference
//! netlist, and the shipped artifact carries an [`EquivCertificate`] —
//! a digest-bound statement "proved equivalent to golden netlist
//! digest X" that the customer can re-check against the payload they
//! actually received.
//!
//! A refuted check ships the distinguishing input/state vector
//! ([`CoreError::EquivRejected`]), already cross-checked against both
//! simulation engines, so the vendor can reproduce the divergence in
//! one simulator run. There is deliberately no waiver escape hatch
//! here: a certificate asserting equivalence over a known
//! counterexample would be a lie, not a delivery.
//!
//! [`SealPolicy`]: crate::SealPolicy

use ipd_hdl::{Circuit, FlatNetlist};
use ipd_netlist::NetlistFormat;
use ipd_verify::{check_equiv, Counterexample, EquivConfig, EquivVerdict};

use crate::error::CoreError;
use crate::sha::{sha256_parts, to_hex};

/// Domain separator binding certificate digests; versioned so a future
/// layout change cannot collide with v1 certificates.
const CERT_DOMAIN: &[u8] = b"ipd-equiv-cert-v1";

/// A digest-bound record that a sealed design was proved functionally
/// equivalent to a golden reference netlist.
///
/// The certificate commits to the EDIF bytes of both designs (SHA-256)
/// and to the scope of the proof (how many output and next-state
/// functions were discharged), all bound together under a
/// domain-separated [`sha256_parts`] digest. [`EquivCertificate::verify`]
/// re-derives the binding from netlist bytes in hand, so a customer who
/// unseals a payload can check it is byte-for-byte the netlist the
/// proof was about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivCertificate {
    design: String,
    golden: String,
    golden_digest: [u8; 32],
    revised_digest: [u8; 32],
    functions_checked: u64,
    binding: [u8; 32],
}

impl EquivCertificate {
    /// Binds a certificate over the two netlists' EDIF bytes.
    fn bind(
        design: &str,
        golden: &str,
        golden_edif: &[u8],
        revised_edif: &[u8],
        functions_checked: u64,
    ) -> Self {
        // Netlist digests identify bytes, not roles: the same netlist
        // hashes the same whether it appears as golden or revised (so
        // a self-check yields equal digests); the binding below fixes
        // which side is which.
        let golden_digest = sha256_parts(&[CERT_DOMAIN, golden_edif]);
        let revised_digest = sha256_parts(&[CERT_DOMAIN, revised_edif]);
        let binding = sha256_parts(&[
            CERT_DOMAIN,
            design.as_bytes(),
            golden.as_bytes(),
            &golden_digest,
            &revised_digest,
            &functions_checked.to_le_bytes(),
        ]);
        EquivCertificate {
            design: design.to_owned(),
            golden: golden.to_owned(),
            golden_digest,
            revised_digest,
            functions_checked,
            binding,
        }
    }

    /// The certified (revised) design's name.
    #[must_use]
    pub fn design(&self) -> &str {
        &self.design
    }

    /// The golden reference design's name.
    #[must_use]
    pub fn golden(&self) -> &str {
        &self.golden
    }

    /// SHA-256 digest of the golden reference's EDIF netlist
    /// (domain-separated).
    #[must_use]
    pub fn golden_digest(&self) -> &[u8; 32] {
        &self.golden_digest
    }

    /// SHA-256 digest of the sealed (revised) EDIF netlist
    /// (domain-separated) — the bytes the customer unseals.
    #[must_use]
    pub fn revised_digest(&self) -> &[u8; 32] {
        &self.revised_digest
    }

    /// How many output and next-state functions the proof discharged.
    #[must_use]
    pub fn functions_checked(&self) -> u64 {
        self.functions_checked
    }

    /// The binding digest over the whole certificate.
    #[must_use]
    pub fn binding(&self) -> &[u8; 32] {
        &self.binding
    }

    /// The human-readable certificate statement.
    #[must_use]
    pub fn statement(&self) -> String {
        format!(
            "design '{}' proved equivalent to golden netlist digest {} \
             ({} functions checked; certificate {})",
            self.design,
            to_hex(&self.golden_digest),
            self.functions_checked,
            to_hex(&self.binding),
        )
    }

    /// Re-derives the certificate from netlist bytes in hand and checks
    /// it matches — `true` only when both EDIF payloads are
    /// byte-for-byte the ones the proof was about.
    #[must_use]
    pub fn verify(&self, golden_edif: &[u8], revised_edif: &[u8]) -> bool {
        let expected = EquivCertificate::bind(
            &self.design,
            &self.golden,
            golden_edif,
            revised_edif,
            self.functions_checked,
        );
        expected.binding == self.binding
    }
}

/// Renders a counterexample's assignment for the refusal error.
fn render_vector(cex: &Counterexample) -> String {
    let inputs: Vec<String> = cex.inputs.iter().map(|(p, v)| format!("{p}={v}")).collect();
    let mut vector = format!(
        "(golden={}, revised={}) under inputs [{}]",
        u8::from(cex.golden_value),
        u8::from(cex.revised_value),
        inputs.join(", "),
    );
    if !cex.state.is_empty() {
        let state: Vec<String> = cex
            .state
            .iter()
            .map(|s| format!("{}={}", s.golden_path, s.value))
            .collect();
        vector.push_str(&format!(" state [{}]", state.join(", ")));
    }
    vector
}

/// A passed equivalence check, waiting for the EDIF bytes it will
/// certify.
pub(crate) struct Proof<'g> {
    golden: &'g Circuit,
    functions_checked: u64,
}

impl Proof<'_> {
    /// Binds the certificate to `edif`, the bytes about to be sealed.
    pub(crate) fn certify(self, design: &str, edif: &[u8]) -> Result<EquivCertificate, CoreError> {
        let golden_edif = NetlistFormat::Edif.generate(self.golden)?;
        Ok(EquivCertificate::bind(
            design,
            self.golden.name(),
            golden_edif.as_bytes(),
            edif,
            self.functions_checked,
        ))
    }
}

/// Proves `revised` formally equivalent to `golden`.
///
/// # Errors
///
/// [`CoreError::EquivRejected`] with the distinguishing vector on a
/// counterexample; [`CoreError::Verify`] when the check cannot be
/// carried out; flattening failures of `golden`.
pub(crate) fn prove_equivalent<'g>(
    golden: &'g Circuit,
    revised: &FlatNetlist,
    equiv: &EquivConfig,
) -> Result<Proof<'g>, CoreError> {
    let golden_flat = FlatNetlist::build(golden)?;
    let report = check_equiv(&golden_flat, revised, equiv)?;
    if let EquivVerdict::NotEquivalent(cex) = &report.verdict {
        return Err(CoreError::EquivRejected {
            function: cex.function.clone(),
            golden: golden_flat.design_name().to_owned(),
            vector: render_vector(cex),
        });
    }
    Ok(Proof {
        golden,
        functions_checked: report.stats.outputs_checked as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::CapabilitySet;
    use crate::license::LicenseAuthority;
    use crate::seal::{bundle_key, seal_design, unseal, SealPolicy};
    use ipd_hdl::PortSpec;
    use ipd_lint::LintConfig;
    use ipd_techlib::LogicCtx;

    fn key() -> [u8; 32] {
        let authority = LicenseAuthority::new(b"vendor".to_vec());
        let license = authority.issue("acme", "kcm", CapabilitySet::passive(), 0, 10);
        bundle_key(b"vendor", &license)
    }

    /// `y = a & b` as a gate, a LUT2 resynthesis, or (faulty) `a | b`.
    fn unit(kind: &str) -> Circuit {
        let mut c = Circuit::new("unit");
        let mut ctx = c.root_ctx();
        let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
        let b = ctx.add_port(PortSpec::input("b", 1)).unwrap();
        let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
        match kind {
            "and" => ctx.and2(a, b, y).unwrap(),
            "lut" => ctx.lut(0b1000, &[a.into(), b.into()], y).unwrap(),
            "or" => ctx.or2(a, b, y).unwrap(),
            other => panic!("unknown kind {other}"),
        };
        c
    }

    /// A lint gate under `lint` plus a golden gate against `golden`.
    fn against(golden: &Circuit, lint: LintConfig) -> SealPolicy {
        SealPolicy {
            lint,
            golden: Some((golden.clone(), EquivConfig::default())),
            ..SealPolicy::default()
        }
    }

    #[test]
    fn verified_seal_issues_a_binding_certificate() {
        let key = key();
        let golden = unit("and");
        let revised = unit("lut");
        let sealed = seal_design(&revised, &against(&golden, LintConfig::new()), &key, 1)
            .expect("equivalent resynthesis seals");

        // The payload unseals to the EDIF the certificate commits to.
        let plain = unseal(sealed.bytes(), &key).expect("unseal");
        let golden_edif = NetlistFormat::Edif.generate(&golden).unwrap();
        let cert = sealed.certificate().expect("golden gate certifies");
        assert!(cert.verify(golden_edif.as_bytes(), &plain));
        assert!(!cert.verify(golden_edif.as_bytes(), b"tampered payload"));
        assert!(!cert.verify(b"wrong golden", &plain));

        assert_eq!(cert.design(), "unit");
        assert_eq!(cert.golden(), "unit");
        assert_eq!(cert.functions_checked(), 1);
        let statement = cert.statement();
        assert!(
            statement.contains("proved equivalent to golden netlist digest"),
            "{statement}"
        );
        assert!(
            statement.contains(&to_hex(cert.golden_digest())),
            "{statement}"
        );
    }

    #[test]
    fn divergent_design_is_refused_with_the_vector() {
        let key = key();
        let policy = against(&unit("and"), LintConfig::new());
        let err = seal_design(&unit("or"), &policy, &key, 2).unwrap_err();
        match err {
            CoreError::EquivRejected {
                function,
                golden,
                vector,
            } => {
                assert_eq!(function, "y[0]");
                assert_eq!(golden, "unit");
                assert!(vector.contains("under inputs"), "{vector}");
                assert!(vector.contains("a="), "{vector}");
            }
            other => panic!("expected EquivRejected, got {other}"),
        }
    }

    #[test]
    fn unprovable_design_is_refused_without_certificate() {
        let key = key();
        // Golden has two inputs; revision has one — boundary mismatch.
        let mut c = Circuit::new("unit");
        let mut ctx = c.root_ctx();
        let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
        let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
        ctx.buffer(a, y).unwrap();
        let err = seal_design(&c, &against(&unit("and"), LintConfig::new()), &key, 3).unwrap_err();
        assert!(matches!(err, CoreError::Verify(_)), "got {err}");
    }

    #[test]
    fn lint_gate_still_applies_after_the_proof() {
        // Equivalence alone is not enough: a proved-equivalent design
        // with an unwaived lint error is still refused.
        let key = key();
        let mut config = LintConfig::new();
        config.set_level("dead-logic", ipd_lint::LintLevel::Error);
        let mut golden = unit("and");
        let mut revised = unit("lut");
        for c in [&mut golden, &mut revised] {
            let mut ctx = c.root_ctx();
            let w = ctx.wire("dead", 1);
            let a = ctx.port("a").unwrap();
            ctx.inv(a, w).unwrap();
        }
        let err = seal_design(&revised, &against(&golden, config), &key, 4).unwrap_err();
        assert!(matches!(err, CoreError::LintRejected { .. }), "got {err}");
    }

    #[test]
    fn zoo_generator_certifies_against_itself() {
        let key = key();
        let kcm = ipd_modgen::KcmMultiplier::new(-56, 8, 12).signed(true);
        let circuit = Circuit::from_generator(&kcm).unwrap();
        let sealed = seal_design(&circuit, &against(&circuit, LintConfig::new()), &key, 5)
            .expect("self-equivalence certifies");
        let cert = sealed.certificate().expect("golden gate certifies");
        assert_eq!(cert.golden_digest(), cert.revised_digest());
        assert!(cert.functions_checked() > 0);
        assert!(sealed.report().is_clean());
    }
}
