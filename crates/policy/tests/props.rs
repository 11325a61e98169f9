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
//! * **incremental** — compiling a spec against the one it was edited
//!   from gives what compiling it from scratch gives (digest, verdicts,
//!   rejection), shares the tables of exactly the tenants the edit left
//!   alone, and notices a change to any one field; and it does so whether
//!   the new spec still shares its untouched tenants with the old one (a
//!   clone edited in place) or was rebuilt equal from nothing.
//!
//! The rule generator poisons a rule now and then (an SNI suffix without
//! its leading dot, which the scan would match inside a label and the
//! tables never): every spec the differential runs see is one `validate`
//! accepted, and every one it refused must be refused by the compiler too.

// The shared generators/drivers are test code even though they are not
// themselves `#[test]` fns, so clippy's allow-panic-in-tests does not
// reach them.
#![allow(clippy::panic)]

use canal_net::{TenantId, VpcId};
use canal_policy::{
    reference_l4_verdict, reference_l7_match, reference_l7_verdict, validate, Cidr,
    CompiledPolicySet, CompiledTenant, HeaderPredicate, L4Ctx, L7Ctx, PolicyRejection, PolicyRule,
    PolicySpec, PolicyVerdict, PortRange, SniMatch, TenantPolicy,
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
/// One suffix in twenty comes without its dot: see [`dotless`].
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
            let suffix = if rng.chance(0.05) { "example.com" } else { ".example.com" };
            r.with_sni(SniMatch::Suffix(suffix.to_string()))
        };
    }
    while rng.chance(0.25) && r.headers.len() < 3 {
        let (name, value) = HEADERS[rng.index(HEADERS.len())];
        let value = if rng.chance(0.5) { Some(value) } else { None };
        r = r.with_header(name, value);
    }
    r
}

/// Whether the generator poisoned this rule: an SNI suffix that could only
/// match inside a label.
fn dotless(r: &PolicyRule) -> bool {
    matches!(&r.sni, Some(SniMatch::Suffix(s)) if !s.starts_with('.'))
}

/// One random rule `validate` accepts.
fn valid_rule(rng: &mut SimRng) -> PolicyRule {
    loop {
        let r = random_rule(rng);
        if !dotless(&r) {
            return r;
        }
    }
}

/// A `tenants` x `rules` spec over the shared /16, poisoned rules and all.
fn draw_spec(rng: &mut SimRng, tenants: u32, rules: usize) -> PolicySpec {
    let tenants = (1..=tenants)
        .map(|t| TenantPolicy {
            tenant: TenantId(t),
            vpc: VpcId(t),
            rules: (0..rules).map(|_| random_rule(rng)).collect(),
            default_action: if rng.chance(0.5) { PolicyVerdict::Allow } else { PolicyVerdict::Deny },
        })
        .collect();
    PolicySpec { version: 1, tenants }
}

/// A spec `validate` accepts, from one seed. One it refuses is drawn again,
/// once the compiler has refused it for the same rule: the first poisoned
/// one, which is all the generator can get wrong.
fn sized_spec(rng: &mut SimRng, tenants: u32, rules: usize) -> PolicySpec {
    loop {
        let spec = draw_spec(rng, tenants, rules);
        let Err(refused) = validate(&spec) else {
            return spec;
        };
        let first = spec.tenants.iter().find_map(|tp| {
            let rule = tp.rules.iter().position(dotless)?;
            Some(PolicyRejection::SniSuffixWithoutDot { tenant: tp.tenant, rule })
        });
        assert_eq!(Some(&refused), first.as_ref());
        assert_eq!(CompiledPolicySet::compile(&spec).err(), Some(refused));
    }
}

/// The three-tenant spec the differential and isolation runs use.
fn random_spec(rng: &mut SimRng) -> PolicySpec {
    sized_spec(rng, TENANTS, RULES_PER_TENANT)
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
                    let mut r = valid_rule(&mut rng);
                    while n > 3 && r.source_cidr.is_none() && r.dest_ports.is_none() && r.headers.is_empty() {
                        r = valid_rule(&mut rng);
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

/// What accepting a dot-less suffix would mean, and that the generator does
/// draw them: the scan matches inside a label where the tables match
/// nothing, so `validate` and the compiler refuse exactly the specs that
/// carry one ([`sized_spec`] holds the two to the same rejection).
#[test]
fn dotless_sni_suffixes_are_drawn_and_refused() {
    let tp = TenantPolicy {
        tenant: TenantId(1),
        vpc: VpcId(1),
        rules: vec![PolicyRule::allow().with_sni(SniMatch::Suffix("example.com".to_string()))],
        default_action: PolicyVerdict::Deny,
    };
    let l4 = L4Ctx { tenant: TenantId(1), vpc: VpcId(1), src_ip: 1, dst_port: 443, identity: 0 };
    let l7 = L7Ctx { method: "GET", path: "/", sni: Some("evilexample.com"), headers: &[] };
    assert_eq!(reference_l7_verdict(&tp, &l4, &l7), PolicyVerdict::Allow, "inside a label");

    let mut rng = SimRng::seed(0xD07);
    let mut refused = 0;
    for _ in 0..64 {
        let spec = draw_spec(&mut rng, TENANTS, RULES_PER_TENANT);
        let poisoned = spec.tenants.iter().any(|tp| tp.rules.iter().any(dotless));
        assert_eq!(validate(&spec).is_err(), poisoned);
        assert_eq!(CompiledPolicySet::compile(&spec).is_err(), poisoned);
        refused += poisoned as usize;
    }
    assert!((8..56).contains(&refused), "{refused} of 64 specs refused");
}

/// Shape of the specs the incremental-compile tests edit.
const EDIT_TENANTS: u32 = 8;
const EDIT_RULES: usize = 12;

fn flipped(v: PolicyVerdict) -> PolicyVerdict {
    match v {
        PolicyVerdict::Allow => PolicyVerdict::Deny,
        PolicyVerdict::Deny => PolicyVerdict::Allow,
    }
}

fn set_digest(set: &CompiledPolicySet) -> u64 {
    let mut d = Digest::new();
    set.fold_digest(&mut d);
    d.value()
}

/// Compile `new` from scratch and against `old`, and hold the two to each
/// other: the same rejection, or the same digest and the same L4 and L7
/// verdicts for every tenant of either spec and one of neither. Returns
/// `old`'s set and the incremental one.
///
/// From scratch is a compile of [`rebuilt`]`(new)`: nodes nobody compiled,
/// nothing running. Against `old` runs twice, with `new`'s nodes as they came
/// (an edited or rebuilt tenant's holds nothing) and after a compile of `new`
/// on its own has left tables in every one of them, which must change neither
/// what is built nor what is taken from `old`'s set: the running tables go
/// before a node's own. A refused spec is refused alike all four times.
fn scratch_and_incremental(
    old: &PolicySpec,
    new: &PolicySpec,
    rng: &mut SimRng,
) -> Result<(CompiledPolicySet, CompiledPolicySet), PolicyRejection> {
    let prior = match CompiledPolicySet::compile(old) {
        Ok(c) => c,
        Err(e) => panic!("the spec edited from must validate: {e}"),
    };
    let scratch = CompiledPolicySet::compile(&rebuilt(new));
    let against = CompiledPolicySet::compile_against(new, Some(&prior));
    let alone = CompiledPolicySet::compile(new);
    let filled = CompiledPolicySet::compile_against(new, Some(&prior));
    let (scratch, against, alone, filled) = match (scratch, against, alone, filled) {
        (Ok(s), Ok(a), Ok(alone), Ok(filled)) => (s, a, alone, filled),
        (Err(s), Err(a), Err(alone), Err(filled)) => {
            assert_eq!(s, a, "the two refuse differently");
            assert_eq!((&alone, &filled), (&a, &a), "a refusal repeated is another refusal");
            return Err(a);
        }
        (s, a, alone, filled) => panic!(
            "from scratch {:?}, against the old spec {:?}, alone {:?}, against it again {:?}",
            s.err(),
            a.err(),
            alone.err(),
            filled.err()
        ),
    };
    for set in [&against, &alone, &filled] {
        assert_eq!(set_digest(set), set_digest(&scratch));
        assert_eq!(set.rule_count(), scratch.rule_count());
    }
    assert_eq!(filled.shared_tenants(&prior), against.shared_tenants(&prior), "taken from the old set");
    for tp in &new.tenants {
        let held_by = |set: &CompiledPolicySet| match (set.tenant(tp.tenant), filled.tenant(tp.tenant)) {
            (Some(theirs), Some(ours)) => std::ptr::eq(theirs, ours),
            _ => false,
        };
        assert!(held_by(&prior) || held_by(&alone), "{} was compiled a third time", tp.tenant);
    }
    for _ in 0..PACKETS / 4 {
        let (l4, method, path, sni, hdrs) = random_ctx(rng);
        let tenant = 1 + rng.index(EDIT_TENANTS as usize + 2) as u32;
        let l4 = L4Ctx { tenant: TenantId(tenant), vpc: VpcId(tenant), ..l4 };
        let l7 = L7Ctx { method, path, sni, headers: &HEADERS[..hdrs] };
        for set in [&against, &alone, &filled] {
            assert_eq!(set.l4_verdict(&l4), scratch.l4_verdict(&l4), "{l4:?}");
            assert_eq!(set.l7_match(&l4, &l7), scratch.l7_match(&l4, &l7), "{l4:?} {method} {path} {sni:?}");
            assert_eq!(set.l7_verdict(&l4, &l7), scratch.l7_verdict(&l4, &l7));
        }
    }
    Ok((prior, against))
}

/// `spec` built again from nothing: equal to it, sharing no tenant with it.
/// Reuse is decided by equality, so everything a clone edited in place gets
/// from the compiler this must get too.
fn rebuilt(spec: &PolicySpec) -> PolicySpec {
    let rebuilt = PolicySpec { version: spec.version, tenants: spec.tenants.iter().cloned().collect() };
    assert_eq!(&rebuilt, spec);
    assert_eq!(rebuilt.tenants.shared_tenants(&spec.tenants), 0);
    rebuilt
}

/// Every kind of edit a push can carry, each compiled both ways. What the
/// incremental set shares with the old one is counted by allocation: an
/// edit unshares the tenants it touched and no other, wherever they sit,
/// in the tables and (for the clone edited in place) in the document.
#[test]
fn compiling_against_the_old_spec_equals_compiling_from_scratch() {
    let n = EDIT_TENANTS as usize;
    for seed in [3, 17, 4242] {
        let mut rng = SimRng::seed(seed);
        let old = sized_spec(&mut rng, EDIT_TENANTS, EDIT_RULES);
        let (t, r) = (rng.index(n), rng.index(EDIT_RULES));
        let tenant = old.tenants[t].tenant;
        // A new rule in place of rule `r`, never equal to the one it replaces.
        let mut edit = |spec: &mut PolicySpec, t: usize| {
            let rule = &mut spec.tenants[t].rules[r];
            *rule = PolicyRule { action: flipped(rule.action), ..valid_rule(&mut rng) };
        };
        let mut cases: Vec<(&str, PolicySpec, Result<usize, PolicyRejection>)> = Vec::new();

        let mut new = old.clone();
        edit(&mut new, t);
        cases.push(("one rule edited", new, Ok(n - 1)));

        let mut new = old.clone();
        for t in [0, 2, 5] {
            edit(&mut new, t);
        }
        cases.push(("three tenants edited", new, Ok(n - 3)));

        cases.push(("only the version", PolicySpec { version: 2, ..old.clone() }, Ok(n)));

        let mut new = old.clone();
        new.tenants.rotate_left(3);
        new.tenants.swap(0, 1);
        cases.push(("tenants reordered", new.clone(), Ok(n)));
        edit(&mut new, t);
        cases.push(("reordered and one edited", new, Ok(n - 1)));

        let mut new = old.clone();
        let added = TenantId(EDIT_TENANTS + 1);
        new.tenants.insert(t, TenantPolicy { tenant: added, ..old.tenants[t].clone() });
        cases.push(("one tenant added", new, Ok(n)));

        let mut new = old.clone();
        new.tenants.remove(t);
        cases.push(("one tenant removed", new, Ok(n - 1)));

        let mut new = old.clone();
        new.tenants.push(old.tenants[t].clone());
        cases.push(("one tenant twice", new, Err(PolicyRejection::DuplicateTenant(tenant))));

        let mut new = old.clone();
        edit(&mut new, t);
        new.tenants[t].rules[r].dest_ports = Some(PortRange { lo: 443, hi: 80 });
        let refused = PolicyRejection::InvertedPortRange { tenant, rule: r };
        cases.push(("the edited tenant poisoned", new.clone(), Err(refused.clone())));
        // The first refusal in the spec's order is the one reported.
        new.tenants.push(old.tenants[t].clone());
        cases.push(("poisoned, then twice", new, Err(refused)));

        for (what, new, want) in cases {
            if let Ok(kept) = want {
                assert_eq!(new.tenants.shared_tenants(&old.tenants), kept, "seed {seed}: {what}");
            }
            for (how, new) in [("edited in place", &new), ("rebuilt", &rebuilt(&new))] {
                let got = scratch_and_incremental(&old, new, &mut rng)
                    .map(|(prior, against)| against.shared_tenants(&prior));
                assert_eq!(got, want, "seed {seed}: {what}, {how}");
            }
        }
    }
}

/// Reuse is decided by `PolicyRule`'s and `TenantPolicy`'s `==`, so that
/// equality has to see every field: a change to any one of them, in one
/// tenant, makes that tenant's tables new and leaves every other tenant's
/// where they were.
#[test]
fn a_change_to_any_one_field_unshares_that_tenant_and_only_it() {
    // A field added to the rule does not compile here until it is listed,
    // which is the reminder to give it a mutation below.
    let PolicyRule {
        source_cidr: _,
        dest_ports: _,
        source_identities: _,
        methods: _,
        path_prefix: _,
        sni: _,
        headers: _,
        action: _,
    } = PolicyRule::allow();
    type Mutation = fn(&mut TenantPolicy, usize);
    // Each one leaves a value the generator cannot have drawn.
    let mutations: [(&str, Mutation); 10] = [
        ("source_cidr", |tp, r| tp.rules[r].source_cidr = Some(Cidr::new(0x0B00_0000, 8))),
        ("dest_ports", |tp, r| tp.rules[r].dest_ports = Some(PortRange { lo: 9999, hi: 9999 })),
        ("source_identities", |tp, r| tp.rules[r].source_identities.push(7)),
        ("methods", |tp, r| tp.rules[r].methods.push("OPTIONS".to_string())),
        ("path_prefix", |tp, r| tp.rules[r].path_prefix.push_str("/x")),
        ("sni", |tp, r| tp.rules[r].sni = Some(SniMatch::Exact("mutated.example".to_string()))),
        ("headers", |tp, r| {
            tp.rules[r].headers.push(HeaderPredicate { name: "x-mutated".to_string(), value: None })
        }),
        ("action", |tp, r| tp.rules[r].action = flipped(tp.rules[r].action)),
        ("default_action", |tp, _| tp.default_action = flipped(tp.default_action)),
        ("vpc", |tp, _| tp.vpc = VpcId(99)),
    ];
    let mut rng = SimRng::seed(0xF1E1D);
    let old = sized_spec(&mut rng, EDIT_TENANTS, EDIT_RULES);
    for (field, mutate) in mutations {
        let (t, r) = (rng.index(EDIT_TENANTS as usize), rng.index(EDIT_RULES));
        let mut new = old.clone();
        mutate(&mut new.tenants[t], r);
        assert_eq!(new.tenants.shared_tenants(&old.tenants), EDIT_TENANTS as usize - 1, "{field}");
        for new in [&new, &rebuilt(&new)] {
            let (prior, against) = match scratch_and_incremental(&old, new, &mut rng) {
                Ok(sets) => sets,
                Err(e) => panic!("{field}: the mutated spec must validate: {e}"),
            };
            for (i, tp) in old.tenants.iter().enumerate() {
                let same = match (prior.tenant(tp.tenant), against.tenant(tp.tenant)) {
                    (Some(was), Some(is)) => std::ptr::eq(was, is),
                    _ => panic!("tenant {i} missing"),
                };
                assert_eq!(same, i != t, "{field} of tenant {t} changed: tenant {i}");
            }
        }
    }
}
