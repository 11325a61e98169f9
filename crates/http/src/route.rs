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
//! one.
//!
//! The index is laid out for a gateway that holds a table per service and
//! meets each one cold: a lookup's chain of dependent loads is the table
//! itself, then one slot. A slot is a cache line holding the predicate's
//! hash and the rule's record (predicate bytes, name, targets and weights),
//! so the slot that a probe lands on confirms the match and answers it. A
//! rule whose answer needs more (method, header or cookie predicates) is
//! kept whole beside the slots and answered from there.

use crate::message::{before_query, Request};

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

/// The part of a request path before any `?`: the scan oracle's own
/// reading, apart from the table's [`before_query`].
#[cfg(test)]
fn strip_query(path: &str) -> &str {
    path.split('?').next().unwrap_or(path)
}

impl PathPredicate {
    /// Evaluate against a request path (query string excluded).
    #[cfg(test)]
    fn matches(&self, path: &str) -> bool {
        self.matches_stripped(strip_query(path))
    }

    /// Evaluate against a request path whose query is already gone.
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
    pub(crate) fn matches(&self, req: &Request) -> bool {
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

    /// Evaluate against a request (query string excluded).
    #[cfg(test)]
    fn matches(&self, req: &Request) -> bool {
        self.matches_stripped(req, strip_query(&req.path))
    }

    /// Evaluate against a request given its path without its query, so a
    /// table lookup strips it once for all rules.
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

/// The target a uniform draw in `[0,1)` picks from `(weight, target)`
/// pairs whose weights sum to `total`: the draws split in proportion to the
/// weights, in order, and the last target takes what rounding leaves.
/// `None` only for an empty list.
fn pick<T>(total: u64, targets: impl Iterator<Item = (u32, T)>, uniform_draw: f64) -> Option<T> {
    let mut ticket = (uniform_draw.clamp(0.0, 0.999_999_999) * total as f64) as u64;
    let mut last = None;
    for (weight, target) in targets {
        if ticket < u64::from(weight) {
            return Some(target);
        }
        ticket -= u64::from(weight);
        last = Some(target);
    }
    last
}

/// A routing rule: predicate plus weighted targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteRule {
    /// Rule name (for observability).
    pub name: String,
    /// Match condition.
    pub(crate) predicate: RoutePredicate,
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
    /// checked: a push is validated as a whole before it may serve, and
    /// that validation needs to be handed the bad rule to refuse it.
    pub(crate) fn unchecked(name: &str, predicate: RoutePredicate, targets: Vec<WeightedTarget>) -> Self {
        RouteRule {
            name: name.to_string(),
            predicate,
            total_weight: targets.iter().map(|t| t.weight as u64).sum(),
            targets,
        }
    }

    /// Pick a target deterministically from a uniform draw in `[0,1)`.
    /// Splitting the randomness out keeps the rule table pure and the
    /// simulation reproducible.
    pub fn select_target(&self, uniform_draw: f64) -> &WeightedTarget {
        let targets = self.targets.iter().map(|t| (t.weight, t));
        #[allow(clippy::expect_used)]
        // lint:allow(panic) reason=RouteRule::new requires a non-empty target list; an empty rule cannot route anything
        pick(self.total_weight, targets, uniform_draw).expect("non-empty")
    }
}

/// Bytes of a [`Slot`] that hold its rule's record.
const RECORD_BYTES: usize = 47;
/// Marks an empty slot.
const NO_RULE: u32 = u32::MAX;
/// XORed into the hash of an `Exact` predicate.
const EXACT_SALT: u64 = 0xA5A5_5A5A_C3C3_3C3C;
/// Slot kind bit: the predicate is `Exact`, not `Prefix`.
const EXACT: u8 = 1;
/// Slot kind bit: the rule is answered by its [`RouteRule`], kept in
/// `RouteTable::by_rule` at the position the record holds, because it also
/// has method or header predicates, has no targets, or its record does not
/// fit in the slot.
const BY_RULE: u8 = 2;

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

/// Reads a slot's record front to back.
#[derive(Clone, Copy)]
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.0.split_at_checked(n)?;
        self.0 = rest;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)?.try_into().ok().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)?.try_into().ok().map(u64::from_le_bytes)
    }

    /// A string written by [`put_str`].
    fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u8()?;
        self.take(len.into())
    }
}

/// Append `s`, prefixed by its length, unless it is longer than a byte says.
fn put_str(out: &mut Vec<u8>, s: &str) -> Option<()> {
    out.push(u8::try_from(s.len()).ok()?);
    out.extend_from_slice(s.as_bytes());
    Some(())
}

/// One slot of the path index, one cache line: the hash and byte length of
/// an `Exact` / `Prefix` predicate (an `Exact` one salted so it never
/// answers a prefix probe of the same bytes), the rule's number, and its
/// record. A plain rule's record is its total weight, its predicate bytes,
/// its name and its targets (count, then weight and name each), so a probe
/// lands on all the answer needs; a [`BY_RULE`] record is a position in
/// `by_rule`.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct Slot {
    hash: u64,
    len: u32,
    rule: u32,
    kind: u8,
    record: [u8; RECORD_BYTES],
}

impl Slot {
    const EMPTY: Slot = Slot { hash: 0, len: 0, rule: NO_RULE, kind: 0, record: [0; RECORD_BYTES] };

    /// A plain rule's record, if it fits.
    fn plain_record(predicate: &str, rule: &RouteRule) -> Option<[u8; RECORD_BYTES]> {
        let mut out = Vec::with_capacity(RECORD_BYTES);
        out.extend_from_slice(&rule.total_weight.to_le_bytes());
        put_str(&mut out, predicate)?;
        put_str(&mut out, &rule.name)?;
        out.push(u8::try_from(rule.targets.len()).ok()?);
        for t in &rule.targets {
            out.extend_from_slice(&t.weight.to_le_bytes());
            put_str(&mut out, &t.name)?;
        }
        let mut record = [0; RECORD_BYTES];
        record.get_mut(..out.len())?.copy_from_slice(&out);
        Some(record)
    }

    /// A [`BY_RULE`] slot's position in `by_rule`.
    fn by_rule(&self) -> Option<usize> {
        Cursor(&self.record).u32().map(|i| i as usize)
    }

    /// A plain slot's record past its total weight.
    fn after_total(&self) -> Cursor<'_> {
        Cursor(self.record.get(8..).unwrap_or_default())
    }

    /// Whether a plain slot's predicate holds for `path` (query stripped).
    fn path_matches(&self, path: &[u8]) -> bool {
        let predicate = self.after_total().bytes().unwrap_or_default();
        match self.kind & EXACT {
            0 => path.starts_with(predicate),
            _ => path == predicate,
        }
    }

    /// A plain slot's `(rule name, target name)` for a uniform draw.
    fn answer(&self, uniform_draw: f64) -> Option<(&str, &str)> {
        let mut c = Cursor(&self.record);
        let total = c.u64()?;
        c.bytes()?;
        let name = c.bytes()?;
        let mut left = c.u8()?;
        let targets = std::iter::from_fn(move || {
            left = left.checked_sub(1)?;
            Some((c.u32()?, c.bytes()?))
        });
        let target = pick(total, targets, uniform_draw)?;
        Some((std::str::from_utf8(name).ok()?, std::str::from_utf8(target).ok()?))
    }
}

/// The first rule matching a request: the slot that answers it, or the
/// numbered rule that does.
enum Hit<'a> {
    Slot(&'a Slot),
    Rule(&'a (u32, RouteRule)),
}

/// An ordered route table; first matching rule wins.
///
/// `Exact` and `Prefix` rules live in an open-addressed table of [`Slot`]s,
/// one probe per distinct prefix length (plus one for `Exact`). Entries of
/// one key sit in ascending rule order along their probe run (the table is
/// insert-only and rebuilt in rule order), so the first hit at or past a
/// lower bound is the lowest. A lookup of a plain prefix rule is two
/// dependent loads past the request: the table (prefix lengths up to 63
/// bytes are a bit mask in it, not a list beside it) and the slot, whose
/// record holds the predicate to confirm the hit with, the rule's name and
/// its targets. Rules a slot cannot answer alone are kept whole in
/// `by_rule`: those with a `Contains` predicate or none, which are checked
/// one by one, and those a slot refers to.
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    /// Number of rules pushed.
    len: u32,
    /// Empty, or a power-of-two number of slots, at most half full.
    slots: Vec<Slot>,
    /// Bit `n` set: some `Prefix` predicate is `n` bytes long.
    short_prefixes: u64,
    /// Lengths of `Prefix` predicates of 64 bytes or more, ascending.
    long_prefixes: Vec<u32>,
    /// Whether any rule has an `Exact` predicate.
    has_exact: bool,
    /// Rules no slot answers alone, with their numbers, ascending.
    by_rule: Vec<(u32, RouteRule)>,
    /// Positions in `by_rule` of the rules with a `Contains` predicate or
    /// none, ascending.
    residual: Vec<u32>,
    /// Every rule as pushed: what the scan oracle reads.
    #[cfg(test)]
    rules: Vec<RouteRule>,
}

impl RouteTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a rule (evaluated after all earlier rules).
    pub fn push(&mut self, rule: RouteRule) {
        #[cfg(test)]
        self.rules.push(rule.clone());
        let number = self.len;
        self.len += 1;
        let (predicate, kind) = match &rule.predicate.path {
            Some(PathPredicate::Exact(p)) => (p.as_str(), EXACT),
            Some(PathPredicate::Prefix(p)) => (p.as_str(), 0),
            Some(PathPredicate::Contains(_)) | None => {
                self.residual.push(self.by_rule.len() as u32);
                self.by_rule.push((number, rule));
                return;
            }
        };
        let len = predicate.len() as u32;
        if kind == EXACT {
            self.has_exact = true;
        } else if len < 64 {
            self.short_prefixes |= 1 << len;
        } else if let Err(at) = self.long_prefixes.binary_search(&len) {
            self.long_prefixes.insert(at, len);
        }
        let mut hasher = PathHasher::new();
        hasher.write(predicate.as_bytes());
        let hash = hasher.finish() ^ if kind == EXACT { EXACT_SALT } else { 0 };
        let plain = rule.predicate.method.is_none()
            && rule.predicate.headers.is_empty()
            && !rule.targets.is_empty();
        let (kind, record) = match plain.then(|| Slot::plain_record(predicate, &rule)).flatten() {
            Some(record) => (kind, record),
            None => {
                let mut record = [0; RECORD_BYTES];
                record[..4].copy_from_slice(&(self.by_rule.len() as u32).to_le_bytes());
                self.by_rule.push((number, rule));
                (kind | BY_RULE, record)
            }
        };
        let indexed = self.len as usize - self.residual.len();
        if indexed * 2 > self.slots.len() {
            let mut old = std::mem::take(&mut self.slots);
            old.retain(|s| s.rule != NO_RULE);
            old.sort_unstable_by_key(|s| s.rule);
            self.slots = vec![Slot::EMPTY; (indexed * 2).next_power_of_two().max(8)];
            for s in old {
                self.place(s);
            }
        }
        self.place(Slot { hash, len, rule: number, kind, record });
    }

    fn home(&self, hash: u64) -> usize {
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    fn place(&mut self, slot: Slot) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(slot.hash);
        while self.slots[i].rule != NO_RULE {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
    }

    /// The lowest-numbered slot of a rule `>= from` indexed under `(hash,
    /// len)`.
    fn probe(&self, hash: u64, len: u32, from: u32) -> Option<&Slot> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash);
        loop {
            let s = &self.slots[i];
            if s.rule == NO_RULE {
                return None;
            }
            if s.hash == hash && s.len == len && s.rule >= from {
                return Some(s);
            }
            i = (i + 1) & mask;
        }
    }

    /// Prefix lengths to probe, ascending.
    fn prefix_lens(&self) -> impl Iterator<Item = u32> + '_ {
        let mut short = self.short_prefixes;
        let short = std::iter::from_fn(move || {
            let len = short.trailing_zeros();
            short &= short.wrapping_sub(1);
            (len < 64).then_some(len)
        });
        short.chain(self.long_prefixes.iter().copied())
    }

    /// The slot of the lowest rule `>= from` whose `Exact` / `Prefix`
    /// predicate hashes like the path `bytes` (query already stripped). A
    /// hash hit is a candidate, not a match: the caller confirms it.
    fn lowest_path_candidate(&self, bytes: &[u8], from: u32) -> Option<&Slot> {
        if self.slots.is_empty() {
            return None;
        }
        let mut best: Option<&Slot> = None;
        let mut consider = |hit| best = [best, hit].into_iter().flatten().min_by_key(|s| s.rule);
        let mut hasher = PathHasher::new();
        let mut hashed = 0usize;
        for len in self.prefix_lens() {
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

    /// The first rule matching the request: the lowest-numbered rule the
    /// index proposes for the path, unless a rule the index cannot key comes
    /// before it and matches; a proposal whose predicate (the path itself
    /// after a hash collision, or the method, headers and cookie its rule
    /// adds) fails is skipped and the search resumes past it.
    fn lookup(&self, req: &Request) -> Option<Hit<'_>> {
        let path = before_query(req.path.as_bytes());
        // What a rule's own predicate reads; the index needs only bytes.
        let text = || std::str::from_utf8(path).unwrap_or_default();
        let mut residual = self.residual.iter().map(|&i| &self.by_rule[i as usize]).peekable();
        let mut from = 0u32;
        loop {
            let candidate = self.lowest_path_candidate(path, from);
            let end = candidate.map_or(u32::MAX, |s| s.rule);
            while let Some(entry) = residual.next_if(|(number, _)| *number < end) {
                if entry.1.predicate.matches_stripped(req, text()) {
                    return Some(Hit::Rule(entry));
                }
            }
            let slot = candidate?;
            if slot.kind & BY_RULE == 0 {
                if slot.path_matches(path) {
                    return Some(Hit::Slot(slot));
                }
            } else if let Some(entry) = slot.by_rule().and_then(|i| self.by_rule.get(i)) {
                if entry.1.predicate.matches_stripped(req, text()) {
                    return Some(Hit::Rule(entry));
                }
            }
            from = slot.rule + 1;
        }
    }

    /// Position of the first rule matching the request: what the index
    /// tests compare with [`RouteTable::find_index_by_scan`].
    #[cfg(test)]
    fn find_index(&self, req: &Request) -> Option<usize> {
        match self.lookup(req)? {
            Hit::Slot(s) => Some(s.rule as usize),
            Hit::Rule((number, _)) => Some(*number as usize),
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
        match self.lookup(req)? {
            Hit::Slot(s) => s.answer(uniform_draw),
            Hit::Rule((_, r)) => Some((r.name.as_str(), r.select_target(uniform_draw).name.as_str())),
        }
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

    /// A plain rule's slot is one cache line that answers it alone; a rule
    /// whose record would not fit is answered by its [`RouteRule`].
    #[test]
    fn plain_rules_are_answered_by_their_slot() {
        assert_eq!((std::mem::size_of::<Slot>(), std::mem::align_of::<Slot>()), (64, 64));
        let mut table = RouteTable::new();
        for i in 0..100 {
            let targets = vec![WeightedTarget::new("v1", 90), WeightedTarget::new("v2", 10)];
            table.push(RouteRule::new(&format!("r{i:02}"), RoutePredicate::prefix(&format!("/r{i:02}/")), targets));
        }
        assert_eq!((table.slots.len(), table.by_rule.len(), table.short_prefixes), (256, 0, 1 << 5));
        let req = Request::get("/r42/items?limit=20");
        assert!(matches!(table.lookup(&req), Some(Hit::Slot(s)) if s.rule == 42));
        assert_eq!(table.route(&req, 0.5), Some(("r42", "v1")));
        assert_eq!(table.route(&req, 0.95), Some(("r42", "v2")));

        let mut table = RouteTable::new();
        for i in 0..100 {
            let long = format!("/{}/{i}/", "segment".repeat(40));
            table.push(RouteRule::new("r", RoutePredicate::prefix(&long), vec![WeightedTarget::new("v1", 1)]));
        }
        assert_eq!((table.slots.len(), table.by_rule.len(), table.short_prefixes), (256, 100, 0));
        assert_eq!(table.long_prefixes.len(), 2, "one length per digit count");
        let req = Request::get(&format!("/{}/42/x", "segment".repeat(40)));
        assert!(matches!(table.lookup(&req), Some(Hit::Rule((42, _)))));
    }

    /// A short prefix of every length from 0 to 63 bytes is a bit of the
    /// table's mask; each is probed, shortest first.
    #[test]
    fn short_prefix_lengths_are_a_mask() {
        let mut table = RouteTable::new();
        for len in (0..64).rev() {
            let prefix = format!("/{}", "a".repeat(len)).chars().take(len).collect::<String>();
            table.push(RouteRule::new(&format!("p{len}"), RoutePredicate::prefix(&prefix), vec![WeightedTarget::new("v", 1)]));
        }
        assert_eq!(table.short_prefixes, u64::MAX);
        assert!(table.prefix_lens().eq(0..64));
        // Rule 0 is the 63-byte prefix: the longest path matches it first.
        let path = format!("/{}", "a".repeat(70));
        assert_eq!(table.route(&Request::get(&path), 0.0), Some(("p63", "v")));
        assert_eq!(table.route(&Request::get("/aa"), 0.0), Some(("p3", "v")));
    }

    #[test]
    fn unchecked_rules_carry_what_they_were_given() {
        let rule = RouteRule::unchecked("bad", RoutePredicate::any(), vec![]);
        assert!(rule.targets.is_empty());
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
}
