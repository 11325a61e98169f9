//! L7 route matching and weighted target selection.
//!
//! Table 3 of the paper shows 72–95% of tenants configure L7 routing rules —
//! "specific packet processing routes based on URLs, HTTP headers, and
//! message content". This module implements those predicates plus the
//! weighted-target selection that drives percentage-based traffic splitting,
//! A/B testing (cookie/header-keyed) and canary release.
//!
//! A [`RouteTable`] is an ordered rule list: first match wins, mirroring how
//! VirtualService-style configs are evaluated. A lookup does not walk the
//! list: `Exact` and `Prefix` path predicates are found through a flat
//! hashed index (one probe per distinct prefix length), and only the rules
//! the index cannot key (`Contains`, no path predicate) are checked one by
//! one. The index holds hashes and rule numbers, never a copy of a path.

use crate::message::Request;

/// Path predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathPredicate {
    /// Match the path (sans query) exactly.
    Exact(String),
    /// Match any path with this prefix.
    Prefix(String),
    /// Match paths containing this substring ("message content" routing).
    Contains(String),
}

/// The part of a request path before any `?`.
fn strip_query(path: &str) -> &str {
    path.split('?').next().unwrap_or(path)
}

impl PathPredicate {
    /// Evaluate against a request path (query string excluded).
    pub fn matches(&self, path: &str) -> bool {
        self.matches_stripped(strip_query(path))
    }

    /// [`PathPredicate::matches`] on a path whose query is already gone.
    fn matches_stripped(&self, path: &str) -> bool {
        match self {
            PathPredicate::Exact(p) => path == p,
            PathPredicate::Prefix(p) => path.starts_with(p.as_str()),
            PathPredicate::Contains(p) => path.contains(p.as_str()),
        }
    }
}

/// Header (or cookie) predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeaderPredicate {
    /// Header present with exactly this value.
    Exact {
        /// Header name (case-insensitive).
        name: String,
        /// Required value.
        value: String,
    },
    /// Header present (any value).
    Present {
        /// Header name (case-insensitive).
        name: String,
    },
    /// Header value starts with the prefix.
    Prefix {
        /// Header name (case-insensitive).
        name: String,
        /// Required value prefix.
        prefix: String,
    },
    /// Cookie key equals value (A/B test user groups).
    Cookie {
        /// Cookie key.
        key: String,
        /// Required cookie value.
        value: String,
    },
}

impl HeaderPredicate {
    /// Evaluate against a request's headers.
    pub fn matches(&self, req: &Request) -> bool {
        match self {
            HeaderPredicate::Exact { name, value } => req.headers.get(name) == Some(value.as_str()),
            HeaderPredicate::Present { name } => req.headers.get(name).is_some(),
            HeaderPredicate::Prefix { name, prefix } => req
                .headers
                .get(name)
                .is_some_and(|v| v.starts_with(prefix.as_str())),
            HeaderPredicate::Cookie { key, value } => {
                req.headers.cookie(key) == Some(value.as_str())
            }
        }
    }
}

/// A full route predicate: every listed condition must hold.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoutePredicate {
    /// Optional path condition.
    pub path: Option<PathPredicate>,
    /// Optional method condition (token, e.g. "GET").
    pub method: Option<String>,
    /// Header conditions (conjunctive).
    pub headers: Vec<HeaderPredicate>,
}

impl RoutePredicate {
    /// Matches everything.
    pub fn any() -> Self {
        Self::default()
    }

    /// Path-prefix shorthand.
    pub fn prefix(p: &str) -> Self {
        RoutePredicate {
            path: Some(PathPredicate::Prefix(p.to_string())),
            ..Default::default()
        }
    }

    /// Evaluate against a request.
    pub fn matches(&self, req: &Request) -> bool {
        self.matches_stripped(req, strip_query(&req.path))
    }

    /// [`RoutePredicate::matches`] given the request's path without its
    /// query, so a table lookup strips it once for all rules.
    fn matches_stripped(&self, req: &Request, path: &str) -> bool {
        if let Some(p) = &self.path {
            if !p.matches_stripped(path) {
                return false;
            }
        }
        if let Some(m) = &self.method {
            if req.method.as_str() != m {
                return false;
            }
        }
        self.headers.iter().all(|h| h.matches(req))
    }
}

/// One destination of a split route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedTarget {
    /// Target backend subset / version name (e.g. "v1", "v2-canary").
    pub name: String,
    /// Relative weight (need not sum to 100).
    pub weight: u32,
}

impl WeightedTarget {
    /// Construct a target.
    pub fn new(name: &str, weight: u32) -> Self {
        WeightedTarget {
            name: name.to_string(),
            weight,
        }
    }
}

/// A routing rule: predicate plus weighted targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteRule {
    /// Rule name (for observability).
    pub name: String,
    /// Match condition.
    pub predicate: RoutePredicate,
    /// Weighted destinations (non-empty with total weight > 0, unless the
    /// rule came through [`RouteRule::unchecked`]).
    targets: Vec<WeightedTarget>,
    /// Sum of the target weights, fixed when the rule is built.
    total_weight: u64,
}

impl RouteRule {
    /// Construct a rule; panics on empty/zero-weight target lists (config
    /// validation, done once at rule build time).
    pub fn new(name: &str, predicate: RoutePredicate, targets: Vec<WeightedTarget>) -> Self {
        let rule = Self::unchecked(name, predicate, targets);
        assert!(!rule.targets.is_empty(), "rule {name} has no targets");
        assert!(rule.total_weight > 0, "rule {name} has zero total weight");
        rule
    }

    /// A rule exactly as a decoded config push carries it, with nothing
    /// checked: a push is validated as a whole before it may serve (see
    /// `canal_mesh::l7::L7Engine::try_install_routes`), and that validation
    /// needs to be handed the bad rule to refuse it.
    pub fn unchecked(name: &str, predicate: RoutePredicate, targets: Vec<WeightedTarget>) -> Self {
        RouteRule {
            name: name.to_string(),
            predicate,
            total_weight: targets.iter().map(|t| t.weight as u64).sum(),
            targets,
        }
    }

    /// The weighted destinations.
    pub fn targets(&self) -> &[WeightedTarget] {
        &self.targets
    }

    /// Pick a target deterministically from a uniform draw in `[0,1)`.
    /// Splitting the randomness out keeps the rule table pure and the
    /// simulation reproducible.
    pub fn select_target(&self, uniform_draw: f64) -> &WeightedTarget {
        let total = self.total_weight;
        let mut ticket = (uniform_draw.clamp(0.0, 0.999_999_999) * total as f64) as u64;
        for t in &self.targets {
            if ticket < t.weight as u64 {
                return t;
            }
            ticket -= t.weight as u64;
        }
        #[allow(clippy::expect_used)]
        // lint:allow(panic) reason=RouteRule::new requires a non-empty target list; an empty rule cannot route anything
        self.targets.last().expect("non-empty")
    }
}

/// One slot of the path index: which rule, and the hash and byte length of
/// its path predicate (an `Exact` predicate is salted so it never answers a
/// prefix probe of the same bytes).
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    hash: u64,
    len: u32,
    rule: u32,
}

/// Marks an empty index slot.
const NO_RULE: u32 = u32::MAX;
/// XORed into the hash of an `Exact` predicate.
const EXACT_SALT: u64 = 0xA5A5_5A5A_C3C3_3C3C;

/// FNV-1a, one byte at a time, so the hashes of every prefix of a path come
/// out of one pass over it.
#[derive(Clone, Copy)]
struct PathHasher(u64);

impl PathHasher {
    fn new() -> Self {
        PathHasher(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of the bytes written so far (Murmur3 finalizer: FNV alone
    /// leaves the high bits, which pick the slot, poorly mixed).
    fn finish(self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }
}

/// The lookup structure behind [`RouteTable::find`]: an open-addressed
/// table of [`IndexEntry`] for `Exact` / `Prefix` rules, the distinct
/// prefix lengths to probe, and the rules it cannot key. Entries of one
/// key sit in ascending rule order along their probe run (the table is
/// insert-only and rebuilt in rule order), so the first hit at or past a
/// lower bound is the lowest.
#[derive(Debug, Clone, Default)]
struct RouteIndex {
    /// Empty, or a power-of-two number of slots, at most half full.
    slots: Vec<IndexEntry>,
    entries: usize,
    /// Distinct byte lengths of `Prefix` predicates, ascending.
    prefix_lens: Vec<u32>,
    /// Whether any rule has an `Exact` predicate.
    has_exact: bool,
    /// Rules with a `Contains` predicate or none, ascending.
    residual: Vec<u32>,
}

impl RouteIndex {
    fn home(&self, hash: u64) -> usize {
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    fn place(&mut self, entry: IndexEntry) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(entry.hash);
        while self.slots[i].rule != NO_RULE {
            i = (i + 1) & mask;
        }
        self.slots[i] = entry;
    }

    /// Index rule number `rule`.
    fn add(&mut self, rule: u32, predicate: &RoutePredicate) {
        let (bytes, salt) = match &predicate.path {
            Some(PathPredicate::Exact(p)) => (p.as_bytes(), EXACT_SALT),
            Some(PathPredicate::Prefix(p)) => (p.as_bytes(), 0),
            Some(PathPredicate::Contains(_)) | None => {
                self.residual.push(rule);
                return;
            }
        };
        let len = bytes.len() as u32;
        if salt != 0 {
            self.has_exact = true;
        } else if let Err(at) = self.prefix_lens.binary_search(&len) {
            self.prefix_lens.insert(at, len);
        }
        if (self.entries + 1) * 2 > self.slots.len() {
            let mut old = std::mem::take(&mut self.slots);
            old.retain(|e| e.rule != NO_RULE);
            old.sort_unstable_by_key(|e| e.rule);
            let empty = IndexEntry { hash: 0, len: 0, rule: NO_RULE };
            self.slots = vec![empty; ((self.entries + 1) * 2).next_power_of_two().max(8)];
            for e in old {
                self.place(e);
            }
        }
        let mut hasher = PathHasher::new();
        hasher.write(bytes);
        self.place(IndexEntry { hash: hasher.finish() ^ salt, len, rule });
        self.entries += 1;
    }

    /// Lowest rule `>= from` indexed under `(hash, len)`.
    fn probe(&self, hash: u64, len: u32, from: u32) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash);
        loop {
            let e = self.slots[i];
            if e.rule == NO_RULE {
                return None;
            }
            if e.hash == hash && e.len == len && e.rule >= from {
                return Some(e.rule);
            }
            i = (i + 1) & mask;
        }
    }

    /// Lowest rule `>= from` whose `Exact` / `Prefix` predicate hashes like
    /// `path` (query already stripped). A hash hit is a candidate, not a
    /// match: the caller confirms it against the rule's own string.
    fn lowest_path_candidate(&self, path: &str, from: u32) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let bytes = path.as_bytes();
        let mut best: Option<u32> = None;
        let mut consider = |hit: Option<u32>| {
            if let Some(rule) = hit {
                best = Some(best.map_or(rule, |b| b.min(rule)));
            }
        };
        let mut hasher = PathHasher::new();
        let mut hashed = 0usize;
        for &len in &self.prefix_lens {
            let Some(more) = bytes.get(hashed..len as usize) else {
                break; // this prefix and every later one is longer than the path
            };
            hasher.write(more);
            hashed = len as usize;
            consider(self.probe(hasher.finish(), len, from));
        }
        if self.has_exact {
            hasher.write(&bytes[hashed..]);
            consider(self.probe(hasher.finish() ^ EXACT_SALT, bytes.len() as u32, from));
        }
        best
    }
}

/// An ordered route table; first matching rule wins.
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    rules: Vec<RouteRule>,
    index: RouteIndex,
}

impl RouteTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a rule (evaluated after all earlier rules).
    pub fn push(&mut self, rule: RouteRule) {
        self.index.add(self.rules.len() as u32, &rule.predicate);
        self.rules.push(rule);
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// The rules, in evaluation order (for semantic validation before a
    /// table is installed — see `canal_mesh::l7::try_install_routes`).
    pub fn rules(&self) -> &[RouteRule] {
        &self.rules
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// First rule matching the request.
    pub fn find(&self, req: &Request) -> Option<&RouteRule> {
        self.find_index(req).map(|i| &self.rules[i])
    }

    /// Position of the first rule matching the request: the lowest-numbered
    /// rule the index proposes for the path, unless a rule the index cannot
    /// key comes before it and matches; a proposal whose full predicate
    /// (method, headers, cookie, or the path itself after a hash collision)
    /// fails is skipped and the search resumes past it.
    fn find_index(&self, req: &Request) -> Option<usize> {
        let path = strip_query(&req.path);
        let matches = |rule: u32| self.rules[rule as usize].predicate.matches_stripped(req, path);
        let mut residual = self.index.residual.iter().copied().peekable();
        let mut from = 0u32;
        loop {
            let candidate = self.index.lowest_path_candidate(path, from);
            let end = candidate.unwrap_or(u32::MAX);
            while let Some(rule) = residual.next_if(|&r| r < end) {
                if matches(rule) {
                    return Some(rule as usize);
                }
            }
            let rule = candidate?;
            if matches(rule) {
                return Some(rule as usize);
            }
            from = rule + 1;
        }
    }

    /// The linear scan [`RouteTable::find_index`] replaced, kept as the
    /// oracle the index is tested against.
    #[cfg(test)]
    fn find_index_by_scan(&self, req: &Request) -> Option<usize> {
        self.rules.iter().position(|r| r.predicate.matches(req))
    }

    /// Match and select in one step: `(rule name, target name)`.
    pub fn route(&self, req: &Request, uniform_draw: f64) -> Option<(&str, &str)> {
        self.find(req)
            .map(|r| (r.name.as_str(), r.select_target(uniform_draw).name.as_str()))
    }

    /// Approximate serialized config size in bytes — drives the southbound
    /// bandwidth accounting of Fig. 15 (each rule pushed to a proxy costs
    /// roughly its textual size).
    pub fn config_bytes(&self) -> usize {
        self.rules
            .iter()
            .map(|r| {
                64 + r.name.len()
                    + r.targets.iter().map(|t| t.name.len() + 8).sum::<usize>()
                    + 48 // predicate encoding overhead
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Request;

    #[test]
    fn path_predicates() {
        assert!(PathPredicate::Exact("/a".into()).matches("/a"));
        assert!(PathPredicate::Exact("/a".into()).matches("/a?q=1"));
        assert!(!PathPredicate::Exact("/a".into()).matches("/a/b"));
        assert!(PathPredicate::Prefix("/api/".into()).matches("/api/v1"));
        assert!(!PathPredicate::Prefix("/api/".into()).matches("/v1/api/"));
        assert!(PathPredicate::Contains("cart".into()).matches("/v2/cart/add"));
    }

    #[test]
    fn header_predicates() {
        let req = Request::get("/")
            .with_header("X-Env", "staging")
            .with_header("Cookie", "group=beta; id=1");
        assert!(HeaderPredicate::Exact {
            name: "x-env".into(),
            value: "staging".into()
        }
        .matches(&req));
        assert!(HeaderPredicate::Present {
            name: "X-ENV".into()
        }
        .matches(&req));
        assert!(HeaderPredicate::Prefix {
            name: "x-env".into(),
            prefix: "stag".into()
        }
        .matches(&req));
        assert!(HeaderPredicate::Cookie {
            key: "group".into(),
            value: "beta".into()
        }
        .matches(&req));
        assert!(!HeaderPredicate::Cookie {
            key: "group".into(),
            value: "alpha".into()
        }
        .matches(&req));
    }

    #[test]
    fn predicate_conjunction() {
        let pred = RoutePredicate {
            path: Some(PathPredicate::Prefix("/api".into())),
            method: Some("POST".into()),
            headers: vec![HeaderPredicate::Present {
                name: "authorization".into(),
            }],
        };
        let good = Request::post("/api/x", &b""[..]).with_header("Authorization", "t");
        let wrong_method = Request::get("/api/x").with_header("Authorization", "t");
        let missing_header = Request::post("/api/x", &b""[..]);
        assert!(pred.matches(&good));
        assert!(!pred.matches(&wrong_method));
        assert!(!pred.matches(&missing_header));
    }

    #[test]
    fn first_match_wins() {
        let mut table = RouteTable::new();
        table.push(RouteRule::new(
            "canary-beta-users",
            RoutePredicate {
                headers: vec![HeaderPredicate::Cookie {
                    key: "group".into(),
                    value: "beta".into(),
                }],
                ..Default::default()
            },
            vec![WeightedTarget::new("v2", 100)],
        ));
        table.push(RouteRule::new(
            "default",
            RoutePredicate::any(),
            vec![WeightedTarget::new("v1", 100)],
        ));

        let beta = Request::get("/").with_header("Cookie", "group=beta");
        let plain = Request::get("/");
        assert_eq!(table.route(&beta, 0.5), Some(("canary-beta-users", "v2")));
        assert_eq!(table.route(&plain, 0.5), Some(("default", "v1")));
    }

    #[test]
    fn weighted_split_respects_proportions() {
        // 90/10 canary: draws below 0.9 go v1.
        let rule = RouteRule::new(
            "split",
            RoutePredicate::any(),
            vec![WeightedTarget::new("v1", 90), WeightedTarget::new("v2", 10)],
        );
        assert_eq!(rule.select_target(0.0).name, "v1");
        assert_eq!(rule.select_target(0.89).name, "v1");
        assert_eq!(rule.select_target(0.91).name, "v2");
        assert_eq!(rule.select_target(0.999).name, "v2");
        // Statistical check.
        let n = 100_000;
        let v2 = (0..n)
            .filter(|i| rule.select_target(*i as f64 / n as f64).name == "v2")
            .count();
        let frac = v2 as f64 / n as f64;
        assert!((frac - 0.1).abs() < 0.005, "{frac}");
    }

    #[test]
    fn unmatched_request_routes_nowhere() {
        let mut table = RouteTable::new();
        table.push(RouteRule::new(
            "only-api",
            RoutePredicate::prefix("/api"),
            vec![WeightedTarget::new("v1", 1)],
        ));
        assert!(table.route(&Request::get("/other"), 0.5).is_none());
    }

    /// SplitMix64: `canal-http` depends on nothing that has a generator.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
            items[self.below(items.len())]
        }
    }

    /// Path fragments chosen to overlap: shared prefixes of several
    /// lengths, a multi-byte character, the empty string.
    const FRAGMENTS: &[&str] = &["", "/", "/a", "/a/", "/a/b", "/ab", "/api", "/api/", "/api/v1", "/é", "/é/x", "/cart"];
    const TAILS: &[&str] = &["", "/", "/items", "/é", "x", "/cart/add", "/v1/users"];

    fn random_predicate(rng: &mut Rng) -> RoutePredicate {
        let path = match rng.below(8) {
            0 => None,
            1 | 2 => Some(PathPredicate::Exact(format!("{}{}", rng.pick(FRAGMENTS), rng.pick(TAILS)))),
            3 => Some(PathPredicate::Contains(rng.pick(&["cart", "a", "é", "v1", "/"]).to_string())),
            _ => Some(PathPredicate::Prefix(rng.pick(FRAGMENTS).to_string())),
        };
        let method = (rng.below(4) == 0).then(|| rng.pick(&["GET", "POST"]).to_string());
        let mut headers = Vec::new();
        if rng.below(5) == 0 {
            headers.push(HeaderPredicate::Exact { name: "x-env".into(), value: rng.pick(&["prod", "staging"]).into() });
        }
        if rng.below(8) == 0 {
            headers.push(HeaderPredicate::Cookie { key: "group".into(), value: rng.pick(&["beta", "alpha"]).into() });
        }
        RoutePredicate { path, method, headers }
    }

    fn random_request(rng: &mut Rng) -> Request {
        let mut path = format!("{}{}", rng.pick(FRAGMENTS), rng.pick(TAILS));
        if rng.below(3) == 0 {
            path.push_str(rng.pick(&["?", "?q=/api/v1", "?cart=1&é=2"]));
        }
        let mut req = if rng.below(2) == 0 { Request::get(&path) } else { Request::post(&path, &b""[..]) };
        if rng.below(2) == 0 {
            req = req.with_header("X-Env", rng.pick(&["prod", "staging", "dev"]));
        }
        if rng.below(3) == 0 {
            req = req.with_header("Cookie", rng.pick(&["group=beta", "group=alpha; id=7", "id=7"]));
        }
        req
    }

    /// The index against the linear scan it replaced, on the rule *index*:
    /// random tables mixing every predicate kind, with overlapping and
    /// duplicate prefixes, non-ASCII paths and queries.
    #[test]
    fn index_agrees_with_the_linear_scan() {
        let mut rng = Rng(0x0123_4567_89AB_CDEF);
        let mut matched = 0;
        for case in 0..300 {
            let mut table = RouteTable::new();
            // Sizes on both sides of several doublings of the index.
            for i in 0..[1, 3, 9, 40, 130][case % 5] {
                let targets = vec![WeightedTarget::new("v1", 1)];
                table.push(RouteRule::new(&format!("r{i}"), random_predicate(&mut rng), targets));
            }
            for _ in 0..200 {
                let req = random_request(&mut rng);
                let got = table.find_index(&req);
                assert_eq!(got, table.find_index_by_scan(&req), "{:?} in case {case}", req.path);
                matched += got.is_some() as usize;
            }
        }
        assert!(matched > 10_000, "only {matched} requests matched anything");
    }

    #[test]
    fn duplicate_prefixes_fall_through_in_rule_order() {
        // Three rules share one prefix; the first two also need a method.
        let mut table = RouteTable::new();
        for (name, method) in [("post", Some("POST")), ("put", Some("PUT")), ("any", None)] {
            let predicate = RoutePredicate {
                method: method.map(str::to_string),
                ..RoutePredicate::prefix("/api/")
            };
            table.push(RouteRule::new(name, predicate, vec![WeightedTarget::new("v1", 1)]));
        }
        assert_eq!(table.route(&Request::get("/api/x"), 0.0), Some(("any", "v1")));
        assert_eq!(table.route(&Request::post("/api/x", &b""[..]), 0.0), Some(("post", "v1")));
        assert_eq!(table.route(&Request::get("/apix"), 0.0), None);
    }

    #[test]
    fn index_holds_no_path_copies() {
        // 16 bytes a slot at most half full, whatever the prefix length.
        let mut table = RouteTable::new();
        for i in 0..100 {
            let long = format!("/{}/{i}/", "segment".repeat(40));
            table.push(RouteRule::new("r", RoutePredicate::prefix(&long), vec![WeightedTarget::new("v1", 1)]));
        }
        assert_eq!(std::mem::size_of::<IndexEntry>(), 16);
        assert_eq!(table.index.slots.len(), 256);
        assert_eq!(table.index.prefix_lens.len(), 2, "one length per digit count");
    }

    #[test]
    fn unchecked_rules_carry_what_they_were_given() {
        let rule = RouteRule::unchecked("bad", RoutePredicate::any(), vec![]);
        assert!(rule.targets().is_empty());
    }

    #[test]
    #[should_panic(expected = "no targets")]
    fn empty_targets_rejected() {
        RouteRule::new("bad", RoutePredicate::any(), vec![]);
    }

    #[test]
    #[should_panic(expected = "zero total weight")]
    fn zero_weight_rejected() {
        RouteRule::new(
            "bad",
            RoutePredicate::any(),
            vec![WeightedTarget::new("v1", 0)],
        );
    }

    #[test]
    fn config_bytes_grow_with_rules() {
        let mut t = RouteTable::new();
        let one = {
            t.push(RouteRule::new(
                "r1",
                RoutePredicate::any(),
                vec![WeightedTarget::new("v1", 1)],
            ));
            t.config_bytes()
        };
        t.push(RouteRule::new(
            "r2",
            RoutePredicate::prefix("/x"),
            vec![WeightedTarget::new("v1", 1), WeightedTarget::new("v2", 1)],
        ));
        assert!(t.config_bytes() > one);
    }
}
