//! Differential and isolation property tests for the compiled matcher.
//!
//! Three tenants share the same deliberately overlapping `10.0.0.0/16`
//! address space (each in its own VPC — the exact scenario §4.2's global
//! service id exists for). Over randomized rule sets and packets:
//!
//! * **differential** — the compiled matcher and the naive scan-all-rules
//!   reference return identical verdicts (L4 and L7), and the verdict
//!   stream digests are stable across a second generation from the same
//!   seed;
//! * **isolation** — removing every *other* tenant from the spec changes
//!   no verdict: no packet or request from tenant A ever matches tenant
//!   B's policy, overlapping addresses notwithstanding.

// The shared generators/drivers are test code even though they are not
// themselves `#[test]` fns, so clippy's allow-panic-in-tests does not
// reach them.
#![allow(clippy::panic)]

use canal_net::{TenantId, VpcId};
use canal_policy::{
    reference_l4_verdict, reference_l7_match, reference_l7_verdict, Cidr, CompiledPolicySet,
    CompiledTenant, L4Ctx, L7Ctx, PolicyRule, PolicySpec, PolicyVerdict, SniMatch, TenantPolicy,
};
use canal_sim::{Digest, SimRng};

const TENANTS: u32 = 3;
const RULES_PER_TENANT: usize = 48;
const PACKETS: usize = 2000;

const METHODS: &[&str] = &["GET", "POST", "PUT", "DELETE", "PATCH"];
const PATHS: &[&str] = &["/", "/api", "/api/v1", "/api/v1/users", "/admin", "/admin/keys", "/health"];
const SNIS: &[&str] = &["svc.example.com", "a.svc.example.com", "example.com", "other.net"];
const HEADERS: &[(&str, &str)] = &[
    ("x-team", "infra"),
    ("x-team", "payments"),
    ("x-trace", "1"),
    ("authorization", "bearer"),
];

/// One random rule; every dimension independently constrained or wildcard.
fn random_rule(rng: &mut SimRng) -> PolicyRule {
    let mut r = if rng.chance(0.5) { PolicyRule::allow() } else { PolicyRule::deny() };
    if rng.chance(0.6) {
        // Sub-blocks of the shared 10.0.0.0/16, various widths.
        let prefix_len = 18 + rng.index(13) as u8; // /18..=/30
        let mask = u32::MAX << (32 - prefix_len);
        let base = (0x0A00_0000 | (rng.u64() as u32 & 0x0000_FFFF)) & mask;
        r = r.with_source_cidr(Cidr::new(base, prefix_len));
    }
    if rng.chance(0.5) {
        let lo = rng.int_range(1, 9000) as u16;
        let hi = lo + rng.int_range(0, 1000) as u16;
        r = r.with_ports(lo, hi);
    }
    if rng.chance(0.3) {
        let ids: Vec<u64> = (0..1 + rng.index(3)).map(|_| rng.int_range(100, 110)).collect();
        r = r.with_identities(&ids);
    }
    if rng.chance(0.3) {
        r = r.with_method(METHODS[rng.index(METHODS.len())]);
    }
    if rng.chance(0.4) {
        r = r.with_path_prefix(PATHS[rng.index(PATHS.len())]);
    }
    if rng.chance(0.2) {
        r = if rng.chance(0.5) {
            r.with_sni(SniMatch::Exact(SNIS[rng.index(SNIS.len())].to_string()))
        } else {
            r.with_sni(SniMatch::Suffix(".example.com".to_string()))
        };
    }
    while rng.chance(0.25) && r.headers.len() < 3 {
        let (name, value) = HEADERS[rng.index(HEADERS.len())];
        let value = if rng.chance(0.5) { Some(value) } else { None };
        r = r.with_header(name, value);
    }
    r
}

/// A multi-tenant spec over the shared /16, from one seed.
fn random_spec(rng: &mut SimRng) -> PolicySpec {
    let tenants = (1..=TENANTS)
        .map(|t| TenantPolicy {
            tenant: TenantId(t),
            vpc: VpcId(t),
            rules: (0..RULES_PER_TENANT).map(|_| random_rule(rng)).collect(),
            default_action: if rng.chance(0.5) { PolicyVerdict::Allow } else { PolicyVerdict::Deny },
        })
        .collect();
    PolicySpec { version: 1, tenants }
}

/// One random packet/request context, biased into the shared /16 so
/// tenant CIDRs genuinely collide.
fn random_ctx(rng: &mut SimRng) -> (L4Ctx, &'static str, &'static str, Option<&'static str>, usize) {
    let tenant = 1 + rng.index(TENANTS as usize) as u32;
    let src_ip = if rng.chance(0.9) {
        0x0A00_0000 | (rng.u64() as u32 & 0x0000_FFFF)
    } else {
        rng.u64() as u32
    };
    let l4 = L4Ctx {
        tenant: TenantId(tenant),
        vpc: VpcId(tenant),
        src_ip,
        dst_port: rng.int_range(1, 10000) as u16,
        identity: rng.int_range(98, 112),
    };
    let method = METHODS[rng.index(METHODS.len())];
    let path = PATHS[rng.index(PATHS.len())];
    let sni = if rng.chance(0.6) { Some(SNIS[rng.index(SNIS.len())]) } else { None };
    let headers = rng.index(HEADERS.len() + 1);
    (l4, method, path, sni, headers)
}

/// Run the verdict stream for one seed, folding everything into a digest.
fn verdict_stream_digest(seed: u64) -> u64 {
    let mut rng = SimRng::seed(seed);
    let spec = random_spec(&mut rng);
    let compiled = match CompiledPolicySet::compile(&spec) {
        Ok(c) => c,
        Err(e) => panic!("random spec must validate: {e}"),
    };
    let mut d = Digest::new();
    compiled.fold_digest(&mut d);
    for _ in 0..PACKETS {
        let (l4, method, path, sni, hdrs) = random_ctx(&mut rng);
        let l7 = L7Ctx { method, path, sni, headers: &HEADERS[..hdrs] };
        let tp = spec
            .tenants
            .iter()
            .find(|tp| tp.tenant == l4.tenant)
            .unwrap_or_else(|| panic!("tenant missing"));

        let want_l4 = reference_l4_verdict(tp, &l4);
        let got_l4 = compiled.l4_verdict(&l4);
        assert_eq!(got_l4, want_l4, "L4 divergence at {l4:?}");

        let want = reference_l7_match(tp, &l4, &l7);
        let got = compiled.l7_match(&l4, &l7);
        assert_eq!(got, want, "L7 match divergence at {l4:?} {method} {path} {sni:?}");
        assert_eq!(
            compiled.l7_verdict(&l4, &l7),
            reference_l7_verdict(tp, &l4, &l7)
        );

        d.write_u64(match got_l4 {
            canal_policy::L4Verdict::Allow => 1,
            canal_policy::L4Verdict::Deny => 2,
            canal_policy::L4Verdict::NeedsL7 => 3,
        });
        d.write_u64(got.map_or(u64::MAX, |i| i as u64));
    }
    d.value()
}

#[test]
fn compiled_matches_reference_and_is_digest_stable() {
    for seed in [11, 42, 1007] {
        let a = verdict_stream_digest(seed);
        let b = verdict_stream_digest(seed);
        assert_eq!(a, b, "verdict stream not digest-stable for seed {seed}");
    }
}

/// The streamed verdict (dimension masks ANDed word by word, stopping at
/// the first word that keeps a bit) against the reference, where streaming
/// matters: 260 rules are five mask words, narrow rules push first matches
/// into the later words, and request header names arrive in mixed case
/// with values that match, mismatch or are absent. The small policies are
/// the other edge: with one to three rules most dimensions are constrained
/// by no rule at all and are skipped rather than ANDed.
#[test]
fn streamed_verdicts_match_reference_across_mask_words() {
    const MIXED: &[(&str, &str)] = &[
        ("X-Team", "infra"),
        ("x-TEAM", "payments"),
        ("X-Trace", "1"),
        ("Authorization", "bearer"),
        ("x-team", "nobody"),
        ("X-Unrelated", "1"),
    ];
    let mut rng = SimRng::seed(0x57E4_0001);
    let mut by_word = [0usize; 5];
    for case in 0..40 {
        let n = [1, 2, 3, 70, 260][case % 5];
        let tp = TenantPolicy {
            tenant: TenantId(1),
            vpc: VpcId(1),
            rules: (0..n)
                .map(|_| {
                    // Constrain every rule of a large policy somewhere, so
                    // few packets match early and the walk has to continue
                    // past word 0.
                    let mut r = random_rule(&mut rng);
                    while n > 3 && r.source_cidr.is_none() && r.dest_ports.is_none() && r.headers.is_empty() {
                        r = random_rule(&mut rng);
                    }
                    r
                })
                .collect(),
            default_action: PolicyVerdict::Deny,
        };
        let compiled = match CompiledTenant::compile(&tp) {
            Ok(c) => c,
            Err(e) => panic!("random policy must validate: {e}"),
        };
        for _ in 0..PACKETS / 4 {
            let (l4, method, path, sni, _) = random_ctx(&mut rng);
            let l4 = L4Ctx { tenant: TenantId(1), vpc: VpcId(1), ..l4 };
            let from = rng.index(MIXED.len());
            let headers = &MIXED[from..from + rng.index(MIXED.len() - from + 1)];
            let l7 = L7Ctx { method, path, sni, headers };
            assert_eq!(compiled.l4_verdict(&l4), reference_l4_verdict(&tp, &l4), "{l4:?}");
            let got = compiled.l7_match(&l4, &l7);
            assert_eq!(got, reference_l7_match(&tp, &l4, &l7), "{l4:?} {method} {path} {sni:?} {headers:?}");
            assert_eq!(compiled.l7_verdict(&l4, &l7), reference_l7_verdict(&tp, &l4, &l7));
            if let Some(i) = got {
                by_word[i / 64] += 1;
            }
        }
    }
    assert!(by_word.iter().all(|&n| n > 0), "first matches per mask word: {by_word:?}");
}

#[test]
fn no_cross_tenant_match_over_overlapping_vpc_spaces() {
    for seed in [7, 99, 2024] {
        let mut rng = SimRng::seed(seed);
        let spec = random_spec(&mut rng);
        let full = match CompiledPolicySet::compile(&spec) {
            Ok(c) => c,
            Err(e) => panic!("random spec must validate: {e}"),
        };
        // Each tenant compiled alone: if any packet's verdict differs from
        // the full multi-tenant compile, another tenant's rules leaked in.
        let alone: Vec<CompiledTenant> = spec
            .tenants
            .iter()
            .map(|tp| match CompiledTenant::compile(tp) {
                Ok(c) => c,
                Err(e) => panic!("tenant must compile: {e}"),
            })
            .collect();
        let mut cross_matches = 0u64;
        for _ in 0..PACKETS {
            let (l4, method, path, sni, hdrs) = random_ctx(&mut rng);
            let l7 = L7Ctx { method, path, sni, headers: &HEADERS[..hdrs] };
            let solo = &alone[(l4.tenant.0 - 1) as usize];
            if full.l4_verdict(&l4) != solo.l4_verdict(&l4)
                || full.l7_match(&l4, &l7) != solo.l7_match(&l4, &l7)
                || full.l7_verdict(&l4, &l7) != solo.l7_verdict(&l4, &l7)
            {
                cross_matches += 1;
            }
        }
        assert_eq!(cross_matches, 0, "cross-tenant policy leakage for seed {seed}");
    }
}

#[test]
fn unknown_tenant_never_reaches_any_rule() {
    let mut rng = SimRng::seed(5);
    let spec = random_spec(&mut rng);
    let full = match CompiledPolicySet::compile(&spec) {
        Ok(c) => c,
        Err(e) => panic!("random spec must validate: {e}"),
    };
    for _ in 0..200 {
        let (mut l4, method, path, sni, hdrs) = random_ctx(&mut rng);
        l4.tenant = TenantId(999);
        let l7 = L7Ctx { method, path, sni, headers: &HEADERS[..hdrs] };
        assert_eq!(full.l4_verdict(&l4), canal_policy::L4Verdict::Deny);
        assert_eq!(full.l7_match(&l4, &l7), None);
        assert_eq!(full.l7_verdict(&l4, &l7), PolicyVerdict::Deny);
    }
}
