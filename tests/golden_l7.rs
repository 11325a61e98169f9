//! Golden trace of the L7 hop: parse, authorize, route, split.
//!
//! Two seeded request streams go through `RequestParser::feed` as wire
//! bytes and then through `L7Engine::process`:
//!
//! * the benchmark's shape: 64 services, each with 100 prefix rules and an
//!   authz policy admitting 8 identities; 2% of requests come from an
//!   identity no service admits and 1% match no rule;
//! * tables that mix `Exact` / `Prefix` / `Contains` / path-less rules with
//!   method, header and cookie predicates, behind authz policies with deny
//!   rules and method constraints, fed requests of every method with
//!   queries, duplicate and case-varied headers, cookies and bodies.
//!
//! Every parsed request's method, path, headers (in order) and body, and
//! every outcome, is folded into one digest per stream. The constants were
//! captured before the request became spans of one buffer and before the
//! route and authz lookups were laid out for few dependent loads; any change
//! to what is parsed, which rule matches, which target is drawn or which
//! status is returned moves them.

// A request the stream generated and the parser refused is a failed test.
#![allow(clippy::panic)]

use canal::http::{
    HeaderPredicate, Method, PathPredicate, Request, RequestParser, RoutePredicate, RouteRule,
    RouteTable, WeightedTarget,
};
use canal::mesh::{AuthzPolicy, AuthzRule, L7Engine, L7Outcome};
use canal::sim::{Digest, Fold, SimRng, SimTime};

const SERVICES: usize = 64;
const RULES: usize = 100;
const IDENTITIES: u64 = 8;
const DENIED_IDENTITY: u64 = 31_337;
const OPS: usize = 50_000;

const GOLDEN_PREFIX: u64 = 0x0cd4_06c8_2470_4c86;
const GOLDEN_PREFIX_TALLY: [u64; 4] = [48_500, 1_000, 500, 0];
const GOLDEN_MIXED: u64 = 0x0b95_76de_56a1_d132;
const GOLDEN_MIXED_TALLY: [u64; 4] = [20_412, 24_757, 4_831, 0];

const METHODS: [Method; 7] = [
    Method::Get,
    Method::Post,
    Method::Put,
    Method::Delete,
    Method::Head,
    Method::Options,
    Method::Patch,
];

fn pick<'a>(rng: &mut SimRng, items: &[&'a str]) -> &'a str {
    items[rng.index(items.len())]
}

/// Fold what the parser made of one request.
fn fold_request(d: &mut Digest, req: &Request) {
    d.write_str(req.method.as_str());
    d.write_str(&req.path);
    d.write_str(req.path_only());
    let mut headers = 0u64;
    for (name, value) in req.headers.iter() {
        d.write_str(name).write_str(value);
        headers += 1;
    }
    d.write_u64(headers);
    d.write_bytes(&req.body);
}

/// Fold one outcome and count it: `tally[0]` forwarded, then 403, 404, 429.
fn fold_outcome(d: &mut Digest, tally: &mut [u64; 4], out: &L7Outcome) {
    match out {
        L7Outcome::Forward { rule, target } => {
            tally[0] += 1;
            d.write_u64(200).write_str(rule).write_str(target);
        }
        L7Outcome::Reject(code) => {
            tally[match code.0 {
                403 => 1,
                404 => 2,
                _ => 3,
            }] += 1;
            d.write_u64(code.0 as u64);
        }
    }
}

/// Parse `wire` in one feed, fold the request, run it through `engine`.
fn hop(d: &mut Digest, tally: &mut [u64; 4], engine: &mut L7Engine, identity: u64, wire: &[u8], k: usize, draw: f64) {
    let req = RequestParser::new()
        .feed(wire)
        .unwrap_or_else(|e| panic!("op {k}: {e}"))
        .unwrap_or_else(|| panic!("op {k}: incomplete"));
    fold_request(d, &req);
    let out = engine.process(SimTime::from_micros(k as u64), identity, &req, draw);
    fold_outcome(d, tally, &out);
}

/// A service of the benchmark's shape.
fn prefix_engine(service: usize) -> L7Engine {
    let mut table = RouteTable::new();
    for i in 0..RULES {
        table.push(RouteRule::new(
            &format!("r{i:02}"),
            RoutePredicate::prefix(&format!("/r{i:02}/")),
            vec![WeightedTarget::new("v1", 90), WeightedTarget::new("v2", 10)],
        ));
    }
    let allowed: Vec<u64> = (0..IDENTITIES).map(|k| 1_000 + service as u64 * IDENTITIES + k).collect();
    let mut authz = AuthzPolicy::default_deny();
    authz.push(AuthzRule::allow(&allowed, ""));
    L7Engine::new(table, authz)
}

fn prefix_stream() -> (u64, [u64; 4]) {
    let mut rng = SimRng::seed(0x0017_0001);
    let mut engines: Vec<L7Engine> = (0..SERVICES).map(prefix_engine).collect();
    let mut d = Digest::new();
    let mut tally = [0u64; 4];
    for k in 0..OPS {
        let service = rng.index(SERVICES);
        let identity = match k % 50 {
            0 => DENIED_IDENTITY,
            _ => 1_000 + service as u64 * IDENTITIES + rng.index(IDENTITIES as usize) as u64,
        };
        let prefix = match k % 100 {
            1 => "nowhere".to_string(),
            _ => format!("r{:02}", rng.index(RULES)),
        };
        let id = format!("{:016x}{:016x}", rng.u64(), rng.u64());
        let req = if k % 16 == 3 {
            let body: Vec<u8> = (0..rng.index(2048)).map(|_| rng.index(256) as u8).collect();
            Request::post(&format!("/{prefix}/upload/{}", rng.index(100_000)), body)
                .with_header("Content-Type", "application/octet-stream")
        } else {
            Request::get(&format!("/{prefix}/items/{}?limit=20", rng.index(100_000)))
        };
        let wire = req
            .with_header("Host", "orders.tenant.mesh.internal")
            .with_header("X-Request-Id", &id)
            .encode();
        let draw = rng.f64();
        hop(&mut d, &mut tally, &mut engines[service], identity, &wire, k, draw);
    }
    (d.value(), tally)
}

/// Path fragments chosen to overlap: shared prefixes of several lengths, a
/// multi-byte character, the empty string.
const FRAGMENTS: &[&str] = &["", "/", "/a", "/a/", "/a/b", "/ab", "/api", "/api/", "/api/v1", "/é", "/é/x", "/cart"];
const TAILS: &[&str] = &["", "/", "/items", "/é", "x", "/cart/add", "/v1/users"];
const ENVS: &[&str] = &["prod", "staging", "dev"];

fn mixed_predicate(rng: &mut SimRng) -> RoutePredicate {
    let path = match rng.index(8) {
        0 => None,
        1 | 2 => Some(PathPredicate::Exact(format!("{}{}", pick(rng, FRAGMENTS), pick(rng, TAILS)))),
        3 => Some(PathPredicate::Contains(pick(rng, &["cart", "a", "é", "v1", "/"]).to_string())),
        _ => Some(PathPredicate::Prefix(pick(rng, FRAGMENTS).to_string())),
    };
    let method = rng.chance(0.25).then(|| METHODS[rng.index(METHODS.len())].as_str().to_string());
    let mut headers = Vec::new();
    if rng.chance(0.2) {
        headers.push(HeaderPredicate::Exact { name: "x-env".into(), value: pick(rng, ENVS).into() });
    }
    if rng.chance(0.1) {
        headers.push(HeaderPredicate::Present { name: "Authorization".into() });
    }
    if rng.chance(0.1) {
        headers.push(HeaderPredicate::Prefix { name: "X-ENV".into(), prefix: "st".into() });
    }
    if rng.chance(0.15) {
        headers.push(HeaderPredicate::Cookie { key: "group".into(), value: pick(rng, &["beta", "alpha"]).into() });
    }
    RoutePredicate { path, method, headers }
}

fn mixed_engine(rng: &mut SimRng) -> L7Engine {
    let mut table = RouteTable::new();
    for i in 0..1 + rng.index(40) {
        let targets = match rng.index(3) {
            0 => vec![WeightedTarget::new("only", 1)],
            1 => vec![WeightedTarget::new("v1", 90), WeightedTarget::new("v2", 10)],
            _ => vec![WeightedTarget::new("a", 1), WeightedTarget::new("b", 2), WeightedTarget::new("c-canary", 3)],
        };
        table.push(RouteRule::new(&format!("m{i}"), mixed_predicate(rng), targets));
    }
    let mut authz = if rng.chance(0.5) { AuthzPolicy::default_deny() } else { AuthzPolicy::default_allow() };
    for _ in 0..rng.index(5) {
        let identities: Vec<u64> = (0..rng.index(3)).map(|_| rng.index(8) as u64).collect();
        let prefix = pick(rng, &["", "/", "/a", "/api", "/é", "/cart"]);
        let mut rule = if rng.chance(0.3) {
            AuthzRule::deny(&identities, prefix)
        } else {
            AuthzRule::allow(&identities, prefix)
        };
        if rng.chance(0.25) {
            rule.method = Some(METHODS[rng.index(METHODS.len())].as_str().to_string());
        }
        authz.push(rule);
    }
    L7Engine::new(table, authz)
}

fn mixed_request(rng: &mut SimRng) -> Request {
    let mut path = format!("{}{}", pick(rng, FRAGMENTS), pick(rng, TAILS));
    if path.is_empty() {
        path.push('/');
    }
    if rng.chance(0.3) {
        path.push_str(pick(rng, &["?", "?q=/api/v1", "?cart=1&é=2"]));
    }
    let method = METHODS[rng.index(METHODS.len())];
    let mut req = if rng.chance(0.3) {
        let body: Vec<u8> = (0..rng.index(300)).map(|_| rng.index(256) as u8).collect();
        Request::post(&path, body)
    } else {
        Request::get(&path)
    };
    req.method = method;
    for _ in 0..rng.index(7) {
        req = match rng.index(6) {
            0 => req.with_header(pick(rng, &["X-Env", "x-env", "X-ENV"]), pick(rng, ENVS)),
            1 => req.with_header(
                pick(rng, &["Cookie", "cookie"]),
                pick(rng, &["group=beta", "group=alpha; id=7", "id=7", "id=1;group=beta"]),
            ),
            2 => req.with_header("Authorization", "Bearer t"),
            3 => req.with_header("Host", "svc.mesh"),
            4 => req.with_header("X-Pad", &"p".repeat(rng.index(40))),
            _ => req.with_header("Accept", pick(rng, &["*/*", "text/plain", ""])),
        };
    }
    req
}

fn mixed_stream() -> (u64, [u64; 4]) {
    let mut rng = SimRng::seed(0x0017_0002);
    let mut engines: Vec<L7Engine> = (0..48).map(|_| mixed_engine(&mut rng)).collect();
    let mut d = Digest::new();
    let mut tally = [0u64; 4];
    for k in 0..OPS {
        let e = rng.index(engines.len());
        let identity = rng.index(8) as u64;
        let wire = mixed_request(&mut rng).encode();
        let draw = rng.f64();
        if k % 8 == 0 {
            // The one-shot entry point parses the same bytes itself.
            let out = engines[e]
                .process_bytes(SimTime::from_micros(k as u64), identity, &wire, draw)
                .unwrap_or_else(|err| panic!("op {k}: {err}"));
            fold_outcome(&mut d, &mut tally, &out);
        } else {
            hop(&mut d, &mut tally, &mut engines[e], identity, &wire, k, draw);
        }
    }
    for engine in &engines {
        let (processed, rejected, bytes) = engine.stats();
        d.write_u64(processed).write_u64(rejected).write_u64(bytes);
    }
    (d.value(), tally)
}

#[test]
fn prefix_tables_match_the_golden_trace() {
    let (digest, tally) = prefix_stream();
    assert_eq!(tally.iter().sum::<u64>(), OPS as u64);
    assert_eq!(tally, GOLDEN_PREFIX_TALLY, "digest {digest:#018x}");
    assert_eq!(digest, GOLDEN_PREFIX, "{digest:#018x}");
}

#[test]
fn mixed_tables_match_the_golden_trace() {
    let (digest, tally) = mixed_stream();
    assert_eq!(tally.iter().sum::<u64>(), OPS as u64);
    assert_eq!(tally, GOLDEN_MIXED_TALLY, "digest {digest:#018x}");
    assert_eq!(digest, GOLDEN_MIXED, "{digest:#018x}");
}
