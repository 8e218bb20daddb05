//! Sealed bundle delivery — the paper's "class encryption" measure
//! (§4.3): bundles are encrypted to a per-customer key so that an
//! intercepted download (or a shared cache) yields nothing without the
//! license.
//!
//! The cipher is a keystream built from HMAC-SHA-256 in counter mode
//! with an authentication tag over the ciphertext
//! (encrypt-then-MAC) — implemented in-repo like the rest of the
//! crypto substrate. Each call derives the key's HMAC midstates once,
//! so a 32-byte keystream block costs two SHA-256 compressions and the
//! tag one per 64 bytes of `nonce || ciphertext`, hashed in place.
//!
//! A design netlist ships only through [`seal_design`], which gates it
//! under a [`SealPolicy`] (lint, and optionally timing, the semantic
//! tier and formal equivalence to a golden reference) before sealing.

use ipd_hdl::{Circuit, FlatNetlist};
use ipd_lint::{LintConfig, LintReport, Linter, OracleOptions, TimingConstraints, TimingPass};
use ipd_netlist::NetlistFormat;
use ipd_techlib::{DelayModel, FlatIndex};
use ipd_verify::EquivConfig;

use crate::error::CoreError;
use crate::license::License;
use crate::sha::{hmac_sha256, HmacKey};
use crate::verified::{prove_equivalent, EquivCertificate};

/// Derives the per-customer bundle key from the vendor key and a
/// license (customer + product bound).
#[must_use]
pub fn bundle_key(vendor_key: &[u8], license: &License) -> [u8; 32] {
    hmac_sha256(
        vendor_key,
        format!("bundle-key|{}|{}", license.customer(), license.product()).as_bytes(),
    )
}

/// Encrypts and authenticates a bundle payload.
///
/// Layout: `nonce (8) || ciphertext || tag (32)`.
#[must_use]
pub fn seal(plain: &[u8], key: &[u8; 32], nonce: u64) -> Vec<u8> {
    let mac = HmacKey::new(key);
    let mut out = Vec::with_capacity(8 + plain.len() + 32);
    out.extend_from_slice(&nonce.to_le_bytes());
    out.extend_from_slice(plain);
    apply_keystream(&mut out[8..], &mac, nonce);
    let tag = mac.mac(&out);
    out.extend_from_slice(&tag);
    out
}

/// Verifies and decrypts a sealed payload.
///
/// # Errors
///
/// Returns [`CoreError::LicenseInvalid`] when the container is
/// malformed or the authentication tag does not match (wrong customer
/// key or tampering).
pub fn unseal(sealed: &[u8], key: &[u8; 32]) -> Result<Vec<u8>, CoreError> {
    if sealed.len() < 8 + 32 {
        return Err(CoreError::LicenseInvalid {
            reason: "sealed bundle too short".to_owned(),
        });
    }
    let (body, tag) = sealed.split_at(sealed.len() - 32);
    let mac = HmacKey::new(key);
    let expected = mac.mac(body);
    let mut diff = 0u8;
    for (a, b) in expected.iter().zip(tag) {
        diff |= a ^ b;
    }
    if diff != 0 {
        return Err(CoreError::LicenseInvalid {
            reason: "sealed bundle authentication failed".to_owned(),
        });
    }
    let nonce = u64::from_le_bytes(body[..8].try_into().expect("length checked"));
    let mut plain = body[8..].to_vec();
    apply_keystream(&mut plain, &mac, nonce);
    Ok(plain)
}

/// The gates a design must pass before it is sealed for delivery.
///
/// [`SealPolicy::linter`] is the one place that decides which lint
/// passes a gate runs: [`seal_design`], the wire lint report and the
/// `ipd-lint` binary all build their linter from a policy, so a report
/// a customer reads is the report the seal was gated on.
#[derive(Debug, Clone)]
pub struct SealPolicy {
    /// Severity overrides, waivers and limits for every lint pass.
    pub lint: LintConfig,
    /// Adds the STA pass: unwaived setup violations block sealing like
    /// structural errors. A design that misses timing is as
    /// undeliverable as one with contention, unless the vendor waives
    /// the violation (auditable in the shipped report).
    pub timing: Option<TimingConstraints>,
    /// Enables the semantic tier ([`Linter::with_oracle`]): the shipped
    /// report records the proof tier of every finding, so the customer
    /// can audit how strongly each check was established.
    pub semantic: Option<OracleOptions>,
    /// A golden reference netlist and the checker settings: the design
    /// is sealed only after the `ipd-verify` engine proves it
    /// equivalent, and the seal carries an [`EquivCertificate`]. There
    /// is deliberately no waiver for this gate: a certificate asserting
    /// equivalence over a known counterexample would be a lie.
    pub golden: Option<(Circuit, EquivConfig)>,
}

impl Default for SealPolicy {
    /// Lint-only, under [`LintConfig::new`].
    fn default() -> Self {
        SealPolicy {
            lint: LintConfig::new(),
            timing: None,
            semantic: None,
            golden: None,
        }
    }
}

impl SealPolicy {
    /// The linter for this policy's lint, timing and semantic gates:
    /// the built-in passes (or the semantic tier's), then the STA pass
    /// when timing constraints are set.
    #[must_use]
    pub fn linter(&self) -> Linter {
        let mut linter = match &self.semantic {
            Some(opts) => Linter::with_oracle(self.lint.clone(), opts.clone()),
            None => Linter::with_config(self.lint.clone()),
        };
        if let Some(constraints) = &self.timing {
            linter.add_pass(Box::new(TimingPass::new(
                constraints.clone(),
                DelayModel::virtex(),
            )));
        }
        linter
    }
}

/// A design netlist sealed for delivery, carrying the lint report that
/// cleared it and, under a golden gate, the equivalence certificate.
#[derive(Debug, Clone)]
pub struct SealedDesign {
    sealed: Vec<u8>,
    report: LintReport,
    certificate: Option<EquivCertificate>,
}

impl SealedDesign {
    /// The sealed EDIF payload (`nonce || ciphertext || tag`).
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.sealed
    }

    /// The lint report the design passed before sealing — shipped
    /// alongside the payload so the customer can audit what was
    /// checked and what was waived.
    #[must_use]
    pub fn report(&self) -> &LintReport {
        &self.report
    }

    /// The equivalence certificate over the sealed EDIF, when the
    /// policy named a golden reference.
    #[must_use]
    pub fn certificate(&self) -> Option<&EquivCertificate> {
        self.certificate.as_ref()
    }
}

/// Gates a circuit under `policy` and, only if every gate clears it,
/// netlists it to EDIF and seals the bytes to the customer key. A
/// vendor must never ship a broken design; lint waivers in the policy
/// are the explicit, auditable escape hatch.
///
/// The design is flattened and indexed once. A golden gate runs first,
/// on that index; the lint gate runs next, and every one of its passes
/// (timing and semantic included) reads the same index. The EDIF is
/// generated once, and the certificate commits to exactly the bytes
/// that are sealed.
///
/// # Errors
///
/// [`CoreError::EquivRejected`] when the equivalence checker finds a
/// distinguishing vector (shipped in the error, replay-confirmed when
/// the golden `EquivConfig::replay` is set); [`CoreError::Verify`]
/// when the check cannot be carried out (boundary mismatch,
/// combinational loop, black box, SAT budget);
/// [`CoreError::LintRejected`] when unwaived lint errors exist;
/// otherwise flattening and netlisting failures.
pub fn seal_design(
    circuit: &Circuit,
    policy: &SealPolicy,
    key: &[u8; 32],
    nonce: u64,
) -> Result<SealedDesign, CoreError> {
    // Scoped so the flat netlist is freed before the EDIF is written.
    let (proof, report) = {
        let index = FlatIndex::new(FlatNetlist::build(circuit)?);
        let proof = policy
            .golden
            .as_ref()
            .map(|(golden, equiv)| prove_equivalent(golden, &index, equiv))
            .transpose()?;
        (proof, policy.linter().run_index(&index))
    };
    if report.error_count() > 0 {
        return Err(CoreError::LintRejected {
            errors: report.error_count(),
            summary: report.summary(),
        });
    }
    let edif = NetlistFormat::Edif.generate(circuit)?;
    let certificate = proof
        .map(|proof| proof.certify(circuit.name(), edif.as_bytes()))
        .transpose()?;
    Ok(SealedDesign {
        sealed: seal(edif.as_bytes(), key, nonce),
        report,
        certificate,
    })
}

/// XORs the HMAC-counter keystream over a buffer in place (symmetric
/// for encrypt and decrypt): block `i` is `HMAC(key, nonce || i)`, both
/// little-endian.
fn apply_keystream(data: &mut [u8], mac: &HmacKey, nonce: u64) {
    let mut block_input = [0u8; 16];
    block_input[..8].copy_from_slice(&nonce.to_le_bytes());
    for (counter, chunk) in (0u64..).zip(data.chunks_mut(32)) {
        block_input[8..].copy_from_slice(&counter.to_le_bytes());
        for (byte, key) in chunk.iter_mut().zip(mac.mac(&block_input)) {
            *byte ^= key;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::CapabilitySet;
    use crate::license::LicenseAuthority;

    fn key() -> [u8; 32] {
        let authority = LicenseAuthority::new(b"vendor".to_vec());
        let license = authority.issue("acme", "kcm", CapabilitySet::passive(), 0, 10);
        bundle_key(b"vendor", &license)
    }

    #[test]
    fn seal_round_trips() {
        let key = key();
        for size in [0usize, 1, 31, 32, 33, 1000] {
            let plain: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
            let sealed = seal(&plain, &key, 7);
            assert_eq!(unseal(&sealed, &key).expect("unseal"), plain, "size {size}");
        }
    }

    /// The fixed key of the known-answer vectors.
    fn kat_key() -> [u8; 32] {
        core::array::from_fn(|i| (i as u8).wrapping_mul(29).wrapping_add(7))
    }

    /// A deterministic 72 KB byte pattern, about one delivered EDIF.
    fn kat_large_plain() -> Vec<u8> {
        (0..72 * 1024u32)
            .map(|i| (i.wrapping_mul(131) ^ (i >> 7)) as u8)
            .collect()
    }

    /// The nonces of the known-answer vectors.
    const KAT_NONCES: [u64; 2] = [0, u64::MAX];

    /// Plaintext sizes of the known-answer vectors. They straddle the
    /// 32-byte keystream block; with the 8-byte nonce in front, 47/48
    /// put the tag input on SHA-256's 55/56-byte padding edge and 55/56
    /// on its 64-byte block edge.
    const KAT_SIZES: [usize; 13] = [0, 1, 31, 32, 33, 47, 48, 55, 56, 63, 64, 65, 1000];

    /// SHA-256 of the sealed bytes per nonce and size, frozen from the
    /// original one-shot implementation.
    const KAT_DIGESTS: [[&str; 13]; 2] = [
        [
            "f40079b03f04fb5c580d9088f126f13877fbfb9d90b143fe9531ce2606016904",
            "38d125ed3ca55b03f4d7d5e71f29f9fd22096b688eb33c27f9b32f034caae2fa",
            "d409801ddad3f1af0e2ebd39bf1382d4efe84d6c367734ca6572ed5f7b19558b",
            "fff1d6e1f85bc5fc6fa0dfdc24d8c0d55f966c75704299ff3617fdbf6a86b409",
            "0ce05a52dad26e4383ccb6ab4ed0de72338556760588a592f34bb6e359f15482",
            "38922f1d9ffc408ae3fe330f82217c44db44ed754e814a1679e3268368a23ad4",
            "e82dcb19883a140df4ed82f2131e172030727f7680cf187c20502ab7c5a223a8",
            "05a6eacf4fa07b963f8e0c6f93282d3bed9c06400c3fce8ed35b247d9d4e396c",
            "91bc2f6f9c4c24b7a618c50b119ee5c3a5fa34f1d06ffe6d561b8b8541147a61",
            "6cf9528314cf5d13c01d25ae9ef972b018190c87aeb422b5c4b5677ce74bf5f2",
            "e522844a1fb6204ccbcefd8bd12fa20094da1e6d41f3bed0bfcb8b3d5970d7a1",
            "61f0bc5b5e151cc41167aad55b430e0a262e5fdcccda262b8776f7ebb0121fcc",
            "4b75b102976be60ec5a1f79bbdf21f3e0665e8ad8ff17369bd201c1df66973e4",
        ],
        [
            "230a8c484d2a361a76b74947dc23792c66076f353a6d2fd3cfca0e6639d18cb7",
            "24465c47723ae3502017c06f372c30f764f115a6ceed56be403a10fdb61cb9f5",
            "46cc06647ef37a250cc644d278eed2b37ac9e43d3509611bc68e86b86ea4c126",
            "0ddc663b65ddc5a9dca794899dd4c63d5cec98a97888038b841fef15172b17b4",
            "ab10d1a241a9153f5bf06219a9de85b3fdbc22ae5c32d2a5bbb87afd905381ff",
            "638a64b7028d80448132cd531a5cb6f3a26728f05e44f1779c1e83912d15335b",
            "993ba8544fa8e233764cd901ff8dfaaecff04bf1213cc6e8bc5a7c9859f9b7cf",
            "a9600c0865c99ce2775e293a85be46a2e4615a83fa328d00563a326853b83fef",
            "7d99683bfbc015ec1487128b5103d35e40a17fd71f67d1c5b8cf8569dd11c585",
            "e0d39b5cce6ff77e4a6988dd4bb061582de7351f3e6a9cb2f81b626a7bb7295f",
            "378777550295369819c05c65ee16c1ef4795a565f28efbef83a2c229def696c8",
            "58b356a2cb76801fcc6c86aef5167d7cdb95253a07530311f02edb55f7104c46",
            "56be62f9d280b100ab2ba8ec0acd87e5ae72f5816c1372b5c94d23936d989feb",
        ],
    ];

    /// The 72 KB pattern's sealed bytes, per nonce.
    const KAT_LARGE_DIGESTS: [&str; 2] = [
        "fb7c0db79819763b0646b537c889bc16e97ba3e5cd4a8f316b05a8a8e9d5f48d",
        "6432040227538146908b0ede3cb9178c8d968ebb3837b674451d426f2b3739ef",
    ];

    /// Two payloads sealed by the original implementation (33 bytes of
    /// the small pattern, per nonce), kept whole so the test opens bytes
    /// the current code did not produce.
    const KAT_SEALED_33: [&str; 2] = [
        "000000000000000010d670d75b0c505cb418f9ea2d60bf447dfc9d1f2a273c22\
         502f9f64d0896a953bd8e58ba3bbe1cbd25e263c633e2de4476700bd16a130e2\
         be24c2563868603c36",
        "fffffffffffffffff74bf886647203f9363d1845e11143cca296cbce479bb51c\
         1dfd9b741dd01a5f21527672d7bdc32e38e84c0d1e68c8b3594163c1d0f48541\
         37f147b04e349a3111",
    ];

    fn from_hex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
            .collect()
    }

    #[test]
    fn seal_matches_frozen_vectors() {
        use crate::sha::{sha256, to_hex};
        let key = kat_key();
        for (nonce, digests) in KAT_NONCES.into_iter().zip(KAT_DIGESTS) {
            for (size, digest) in KAT_SIZES.into_iter().zip(digests) {
                let plain: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
                let sealed = seal(&plain, &key, nonce);
                assert_eq!(sealed.len(), 8 + size + 32, "size {size}");
                assert_eq!(sealed[..8], nonce.to_le_bytes(), "nonce in the clear");
                assert_eq!(
                    to_hex(&sha256(&sealed)),
                    digest,
                    "size {size} nonce {nonce}"
                );
                assert_eq!(unseal(&sealed, &key).expect("unseal"), plain);
            }
        }
        let plain = kat_large_plain();
        for (nonce, digest) in KAT_NONCES.into_iter().zip(KAT_LARGE_DIGESTS) {
            let sealed = seal(&plain, &key, nonce);
            assert_eq!(to_hex(&sha256(&sealed)), digest, "72 KB nonce {nonce}");
            assert_eq!(unseal(&sealed, &key).expect("unseal"), plain);
        }
        let plain: Vec<u8> = (0..33u8).collect();
        for (nonce, hex) in KAT_NONCES.into_iter().zip(KAT_SEALED_33) {
            let frozen = from_hex(hex);
            assert_eq!(unseal(&frozen, &key).expect("frozen bytes unseal"), plain);
            assert_eq!(seal(&plain, &key, nonce), frozen);
        }
    }

    #[test]
    fn wrong_key_rejected() {
        let sealed = seal(b"secret bundle bytes", &key(), 1);
        let other = [9u8; 32];
        assert!(matches!(
            unseal(&sealed, &other),
            Err(CoreError::LicenseInvalid { .. })
        ));
    }

    #[test]
    fn tampering_rejected() {
        let key = key();
        let mut sealed = seal(b"secret bundle bytes", &key, 1);
        let mid = sealed.len() / 2;
        sealed[mid] ^= 1;
        assert!(unseal(&sealed, &key).is_err());
        assert!(unseal(&sealed[..10], &key).is_err());
    }

    #[test]
    fn ciphertext_differs_from_plaintext_and_by_nonce() {
        let key = key();
        let plain = b"the same plaintext".to_vec();
        let a = seal(&plain, &key, 1);
        let b = seal(&plain, &key, 2);
        assert_ne!(&a[8..8 + plain.len()], plain.as_slice());
        assert_ne!(a[8..], b[8..], "nonce varies the keystream");
    }

    /// A circuit with a contended net: `multiple-drivers` is an
    /// error-severity finding.
    fn broken_circuit() -> ipd_hdl::Circuit {
        use ipd_techlib::LogicCtx;
        let mut c = ipd_hdl::Circuit::new("broken");
        let mut ctx = c.root_ctx();
        let a = ctx.add_port(ipd_hdl::PortSpec::input("a", 1)).unwrap();
        let y = ctx.add_port(ipd_hdl::PortSpec::output("y", 1)).unwrap();
        ctx.buffer(a, y).unwrap();
        ctx.buffer(a, y).unwrap();
        c
    }

    #[test]
    fn seal_design_refuses_unwaived_lint_errors() {
        let key = key();
        let err = seal_design(&broken_circuit(), &SealPolicy::default(), &key, 1).unwrap_err();
        match err {
            CoreError::LintRejected { errors, summary } => {
                assert_eq!(errors, 1);
                assert!(summary.contains("error"), "{summary}");
            }
            other => panic!("expected LintRejected, got {other}"),
        }
    }

    #[test]
    fn seal_design_accepts_waived_errors_and_clean_designs() {
        let key = key();
        // Waiving the specific finding lets the same design through,
        // and the shipped report still records the waiver for audit.
        let mut policy = SealPolicy::default();
        policy.lint.waive(
            "multiple-drivers",
            "broken/y",
            "legacy contention, customer accepts",
        );
        let sealed = seal_design(&broken_circuit(), &policy, &key, 2).expect("waived");
        assert_eq!(sealed.report().error_count(), 0);
        assert_eq!(sealed.report().waived().len(), 1);
        // The payload unseals to the EDIF netlist.
        let plain = unseal(sealed.bytes(), &key).expect("unseal");
        assert!(String::from_utf8(plain).unwrap().starts_with("(edif"));

        // A clean generator output needs no waivers at all.
        let kcm = ipd_modgen::KcmMultiplier::new(-56, 8, 12).signed(true);
        let circuit = ipd_hdl::Circuit::from_generator(&kcm).unwrap();
        let sealed = seal_design(&circuit, &SealPolicy::default(), &key, 3).expect("clean");
        assert!(
            sealed.certificate().is_none(),
            "no golden gate, no certificate"
        );
        assert!(sealed.report().is_clean());
        assert!(sealed.report().diags().is_empty());
    }

    /// FF -> `depth` inverters -> FF on one clock: fails tight periods.
    fn chained_circuit(depth: usize) -> ipd_hdl::Circuit {
        use ipd_techlib::LogicCtx;
        let mut c = ipd_hdl::Circuit::new("chain");
        let mut ctx = c.root_ctx();
        let clk = ctx.add_port(ipd_hdl::PortSpec::input("clk", 1)).unwrap();
        let d = ctx.add_port(ipd_hdl::PortSpec::input("d", 1)).unwrap();
        let q = ctx.add_port(ipd_hdl::PortSpec::output("q", 1)).unwrap();
        let mut cur: ipd_hdl::Signal = ctx.wire("s0", 1).into();
        ctx.fd(clk, d, cur.clone()).unwrap();
        for i in 0..depth {
            let nxt = ctx.wire(&format!("s{}", i + 1), 1);
            ctx.inv(cur, nxt).unwrap();
            cur = nxt.into();
        }
        ctx.fd(clk, cur, q).unwrap();
        c
    }

    /// A timing gate at a 6 ns clock.
    fn tight_policy() -> SealPolicy {
        let mut t = TimingConstraints::new();
        t.clock("clk", 6.0, "clk");
        SealPolicy {
            timing: Some(t),
            ..SealPolicy::default()
        }
    }

    #[test]
    fn seal_design_gates_on_negative_slack() {
        let key = key();
        let slow = chained_circuit(24);
        // Unwaived setup violations block sealing...
        let err = seal_design(&slow, &tight_policy(), &key, 4).unwrap_err();
        assert!(matches!(err, CoreError::LintRejected { errors, .. } if errors > 0));
        // ...an explicit waiver lets the same design through, audited...
        let mut policy = tight_policy();
        policy.lint.waive(
            "setup-violation",
            "*",
            "evaluation build, timing not contractual",
        );
        let sealed = seal_design(&slow, &policy, &key, 5).expect("waived");
        assert!(sealed
            .report()
            .waived()
            .iter()
            .any(|d| d.rule == "setup-violation"));
        // ...and a re-pipelined (shallower) design meets timing as-is.
        let fast = chained_circuit(2);
        let sealed = seal_design(&fast, &tight_policy(), &key, 6).expect("meets timing");
        assert!(sealed.report().is_clean());
        // Without constraints the gate ignores slack.
        seal_design(&slow, &SealPolicy::default(), &key, 7).expect("untimed");
    }

    #[test]
    fn seal_design_records_semantic_proof_tiers() {
        use ipd_techlib::LogicCtx;
        let key = key();
        // A LUT whose init ignores one input is semantically constant
        // only when the init is uniform; here it's a live AND of two
        // inputs plus a structurally-dead inverter, so the semantic
        // report carries a SAT-proved dead-logic warning.
        let mut c = ipd_hdl::Circuit::new("sem");
        let mut ctx = c.root_ctx();
        let a = ctx.add_port(ipd_hdl::PortSpec::input("a", 1)).unwrap();
        let b = ctx.add_port(ipd_hdl::PortSpec::input("b", 1)).unwrap();
        let y = ctx.add_port(ipd_hdl::PortSpec::output("y", 1)).unwrap();
        let dead = ctx.wire("dead", 1);
        ctx.and2(a, b, y).unwrap();
        ctx.inv(a, dead).unwrap();
        let policy = SealPolicy {
            semantic: Some(OracleOptions::default()),
            ..SealPolicy::default()
        };
        let sealed = seal_design(&c, &policy, &key, 8).expect("warnings do not block sealing");
        let dead_diag = sealed
            .report()
            .by_rule("dead-logic")
            .next()
            .expect("dead inverter reported");
        assert_eq!(dead_diag.proof, ipd_lint::ProofTier::Proved);
        assert!(sealed.report().to_json().contains("\"proof\": \"proved\""));
        // The payload still unseals like any other sealed design.
        let plain = unseal(sealed.bytes(), &key).expect("unseal");
        assert!(String::from_utf8(plain).unwrap().starts_with("(edif"));
    }

    #[test]
    fn per_customer_keys_differ() {
        let authority = LicenseAuthority::new(b"vendor".to_vec());
        let a = authority.issue("acme", "kcm", CapabilitySet::passive(), 0, 10);
        let b = authority.issue("bolt", "kcm", CapabilitySet::passive(), 0, 10);
        assert_ne!(bundle_key(b"vendor", &a), bundle_key(b"vendor", &b));
    }
}
