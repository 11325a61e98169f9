//! The compiled flat match structure the datapath evaluates.
//!
//! Compilation turns one tenant's ordered rule list into per-dimension
//! lookup tables, each mapping a request attribute to a bitmask of
//! candidate rules:
//!
//! * source IP, destination port and workload identity — disjoint-interval
//!   segment tables ([`IntervalTable`]): the rule ranges are cut into
//!   non-overlapping segments once at compile time, so a lookup is one
//!   binary search over the segment boundaries.
//! * HTTP method and SNI — exact-match maps, plus a label-boundary suffix
//!   map for wildcard SNI ([`SniTable`]).
//! * path prefix — a byte trie whose nodes carry ancestor-cumulative rule
//!   sets ([`PathTrie`]): the deepest node reached on a walk already holds
//!   every rule whose prefix covers the path.
//! * header predicates — fixed slots ([`MAX_HEADER_PREDICATES`](crate::spec::MAX_HEADER_PREDICATES)); slot `j`
//!   auto-admits every rule with at most `j` predicates, so rules with
//!   fewer predicates than the maximum impose no constraint there.
//!
//! A verdict is the AND of the dimension masks followed by
//! first-set-bit (first-match-wins), so per-request cost is O(log n)
//! searches plus O(n/64) word operations — never a per-rule scan. The AND
//! is streamed: each dimension resolves to borrowed masks, the words are
//! combined one index at a time and the walk stops at the first non-zero
//! word, so a lookup allocates nothing. The top
//! level of [`CompiledPolicySet`] is keyed by [`TenantId`]: a packet
//! selects its own tenant's table before any rule bit is consulted, which
//! makes cross-tenant matches structurally impossible even when VPC
//! address spaces overlap.
//!
//! The tenant is also the unit of compilation. A [`CompiledTenant`] is
//! immutable once built and held by [`Arc`], so every holder of a version
//! (each gateway's slot, each node's filter) and every later version that
//! left the tenant alone point at one copy of its tables.
//! [`CompiledPolicySet::compile_against`] is the only compile loop, and a
//! tenant's tables come to it from one of three places, tried in this order:
//!
//! 1. the set already running, if the [`TenantNode`](crate::spec::TenantNode)
//!    it compiled this tenant from `==` the one being compiled. A set
//!    remembers those nodes (the spec's own list, not copies); a tenant the
//!    edit left alone is the same allocation in both versions and the
//!    comparison is a pointer check, and a document that arrives rebuilt
//!    equal keeps its running tables all the same;
//! 2. the node being compiled, if somebody compiled it before: the
//!    controller validating the document, another gateway of the fleet
//!    committing it, this gateway the last time it ran the version it is
//!    now rolled back to;
//! 3. [`CompiledTenant::compile`], whose tables are left in the node for
//!    the next caller.
//!
//! The running set goes first so that a commit keeps what it serves; the
//! order decides which copy of equal tables is taken, never what they say,
//! because both were compiled from a policy equal to this one. No table is
//! taken by digest or from a node other than the one being compiled. A
//! tenant that fails validation leaves nothing in its node: the refusal is
//! computed again by every compile that meets it, in the spec's order, so
//! the rejection is the one a compile from scratch gives.
//! [`CompiledPolicySet::compile`] is the loop with no running set.

use crate::spec::{
    validate_tenant, verdict_tag, L4Ctx, L7Ctx, PolicyRejection, PolicySpec, PolicyVerdict,
    SniMatch, TenantList, TenantPolicy,
};
use canal_net::TenantId;
use canal_sim::Fold;
use std::collections::BTreeMap;
use std::sync::Arc;

/// What the node L4 path can conclude without seeing the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L4Verdict {
    /// No candidate rule needs L7 context; the flow is admitted.
    Allow,
    /// No candidate rule needs L7 context; the flow is rejected.
    Deny,
    /// The first candidate rule carries L7 predicates — the verdict must
    /// be deferred to the gateway L7 path.
    NeedsL7,
}

/// Word `w` of the mask holding every one of `n` rules; the last word may
/// be partial.
fn every_rule(n: usize, w: usize) -> u64 {
    match n % 64 {
        tail if tail != 0 && w + 1 == n.div_ceil(64) => (1u64 << tail) - 1,
        _ => u64::MAX,
    }
}

/// A fixed-width bitmask over one tenant's rules.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RuleSet {
    /// 64-bit words, lowest rule index in bit 0 of word 0.
    words: Vec<u64>,
    /// Number of valid bits (the tenant's rule count).
    bits: usize,
}

impl RuleSet {
    /// All-zero mask over `bits` rules.
    fn empty(bits: usize) -> Self {
        RuleSet { words: vec![0; bits.div_ceil(64)], bits }
    }

    /// Set bit `i`.
    fn set(&mut self, i: usize) {
        if i < self.bits {
            self.words[i / 64] |= 1u64 << (i % 64);
        }
    }

    /// Whether bit `i` is set.
    fn contains(&self, i: usize) -> bool {
        i < self.bits && (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// OR another mask in.
    fn or_with(&mut self, other: &RuleSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Number of 64-bit words (the per-AND cost unit).
    fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Word `w` of the mask (rules `64 * w ..`).
    fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Fold the mask into a digest.
    fn fold(&self, f: &mut impl Fold) {
        let Self { words, bits } = self;
        fold_mask(*bits, words, f);
    }
}

/// The digest form of one mask: its bit count, then its words.
fn fold_mask(bits: usize, words: &[u64], f: &mut impl Fold) {
    f.write_u64(bits as u64);
    for &w in words {
        f.write_u64(w);
    }
}

/// Disjoint-interval segment table: rule ranges cut into non-overlapping
/// segments at compile time, looked up with one binary search. A segment is
/// one row: its start key, then its candidate mask, so the rows the search
/// reads are the ones that hold the answer, in one allocation.
#[derive(Debug, Clone)]
struct IntervalTable {
    /// One row of `1 + words` per segment: its start key (ascending, the
    /// first 0), then one mask of `bits` rules.
    rows: Vec<u64>,
    /// Number of rows.
    segments: usize,
    /// Rule count (the width of each segment's mask, in bits).
    bits: usize,
    /// No rule constrains this dimension: every lookup would return the
    /// full mask, so lookups return nothing to AND instead.
    unconstrained: bool,
}

impl IntervalTable {
    /// Build over `n` rules from `(rule, lo, hi)` inclusive ranges; a rule
    /// with no range matches any key in this dimension.
    fn build(n: usize, ranges: &[(usize, u64, u64)]) -> IntervalTable {
        let mut bounds = Vec::with_capacity(1 + 2 * ranges.len());
        bounds.push(0);
        for &(_, lo, hi) in ranges {
            bounds.push(lo);
            if hi < u64::MAX {
                bounds.push(hi + 1);
            }
        }
        bounds.sort_unstable();
        bounds.dedup();
        // Every segment starts as the rules without a range here.
        let mut ranged = RuleSet::empty(n);
        for &(rule, ..) in ranges {
            ranged.set(rule);
        }
        let row = 1 + n.div_ceil(64);
        let mut rows = Vec::with_capacity(bounds.len() * row);
        for &start in &bounds {
            rows.push(start);
            rows.extend((0..row - 1).map(|w| every_rule(n, w) & !ranged.word(w)));
        }
        for &(rule, lo, hi) in ranges {
            // An inverted range matches nothing; a rule past `n` is ignored
            // here as `RuleSet::set` ignores it.
            if lo > hi || rule >= n {
                continue;
            }
            let mut s = bounds.partition_point(|b| *b <= lo).saturating_sub(1);
            while s < bounds.len() && bounds[s] <= hi {
                rows[s * row + 1 + rule / 64] |= 1u64 << (rule % 64);
                s += 1;
            }
        }
        IntervalTable { rows, segments: bounds.len(), bits: n, unconstrained: ranges.is_empty() }
    }

    /// Words per row.
    fn row(&self) -> usize {
        1 + self.bits.div_ceil(64)
    }

    /// Where segment `s` starts.
    fn start(&self, s: usize) -> u64 {
        self.rows[s * self.row()]
    }

    /// The mask words of segment `s`.
    fn segment(&self, s: usize) -> &[u64] {
        let row = self.row();
        &self.rows[s * row + 1..(s + 1) * row]
    }

    /// The candidate mask for one key: binary search over segment starts.
    /// `None` stands for "every rule" (see `unconstrained`), which spares
    /// the lookup the table's memory altogether.
    fn lookup(&self, key: u64) -> Option<&[u64]> {
        if self.unconstrained {
            return None;
        }
        // The last segment that starts at or before `key` is in
        // `base..base + size`; the first one starts at 0.
        let (mut base, mut size) = (0, self.segments);
        while size > 1 {
            let half = size / 2;
            let mid = base + half;
            base = if self.start(mid) <= key { mid } else { base };
            size -= half;
        }
        Some(self.segment(base))
    }

    /// Comparisons one lookup costs: `ceil(log2(segments))`.
    fn search_ops(&self) -> u64 {
        u64::from((self.segments.max(1) as u64).ilog2()) + 1
    }

    fn fold(&self, f: &mut impl Fold) {
        let Self {
            segments, bits,
            rows: _, // folded through `start` and `segment`, row by row
            unconstrained: _, // derived: whether every folded mask is full
        } = self;
        f.write_u64(*segments as u64);
        for s in 0..*segments {
            f.write_u64(self.start(s));
        }
        for s in 0..*segments {
            fold_mask(*bits, self.segment(s), f);
        }
    }
}

/// Exact-match dimension table (HTTP method): `any` admits rules without a
/// constraint here, the map admits rules keyed by token.
#[derive(Debug, Clone)]
struct MapTable {
    any: RuleSet,
    exact: BTreeMap<String, RuleSet>,
}

impl MapTable {
    /// Word `w` of the dimension's mask: rules without a constraint here,
    /// plus those keyed by exactly this token. With no keyed rule at all
    /// every rule is in `any`, and the mask is not even read.
    fn word(&self, key: &str, w: usize) -> u64 {
        if self.exact.is_empty() {
            return u64::MAX;
        }
        self.any.word(w) | self.exact.get(key).map_or(0, |e| e.word(w))
    }

    fn search_ops(&self) -> u64 {
        u64::from((self.exact.len().max(1) as u64).ilog2()) + 1
    }

    fn fold(&self, f: &mut impl Fold) {
        let Self { any, exact } = self;
        f.scope("any", |f| any.fold(f));
        f.write_u64(exact.len() as u64);
        for (k, v) in exact {
            f.write_str(k);
            v.fold(f);
        }
    }
}

/// SNI dimension: exact server names plus label-boundary wildcard
/// suffixes (`.example.com` matches `a.example.com`, not `example.com`).
#[derive(Debug, Clone)]
struct SniTable {
    any: RuleSet,
    exact: BTreeMap<String, RuleSet>,
    suffix: BTreeMap<String, RuleSet>,
}

impl SniTable {
    /// Word `w` of the dimension's mask: rules without an SNI constraint,
    /// plus the exact and label-boundary suffix hits for `sni`.
    fn word(&self, sni: Option<&str>, w: usize) -> u64 {
        if self.exact.is_empty() && self.suffix.is_empty() {
            return u64::MAX; // no rule names an SNI: `any` is every rule
        }
        let mut m = self.any.word(w);
        if let Some(name) = sni {
            if let Some(e) = self.exact.get(name) {
                m |= e.word(w);
            }
            if !self.suffix.is_empty() {
                for (i, c) in name.char_indices() {
                    if c == '.' {
                        if let Some(s) = self.suffix.get(&name[i..]) {
                            m |= s.word(w);
                        }
                    }
                }
            }
        }
        m
    }

    /// One exact probe plus one probe per label boundary (bounded by the
    /// name length; budgeted here at the DNS label max of 8 boundaries).
    fn search_ops(&self) -> u64 {
        let per = u64::from(((self.exact.len() + self.suffix.len()).max(1) as u64).ilog2()) + 1;
        per * 9
    }

    fn fold(&self, f: &mut impl Fold) {
        let Self { any, exact, suffix } = self;
        f.scope("any", |f| any.fold(f));
        f.write_u64(exact.len() as u64);
        for (k, v) in exact {
            f.write_str(k);
            v.fold(f);
        }
        f.write_u64(suffix.len() as u64);
        for (k, v) in suffix {
            f.write_str(k);
            v.fold(f);
        }
    }
}

/// One path-trie node: byte-labelled children plus the ancestor-cumulative
/// candidate set (every rule whose prefix covers paths through this node).
#[derive(Debug, Clone)]
struct PathNode {
    children: BTreeMap<u8, usize>,
    cum: RuleSet,
}

/// Path-prefix byte trie; the deepest node reached on a walk already
/// holds the full candidate set, so no backtracking is needed.
#[derive(Debug, Clone)]
struct PathTrie {
    nodes: Vec<PathNode>,
}

impl PathTrie {
    /// Build from `(rule index, prefix)` pairs; an empty prefix matches
    /// every path (lands in the root's cumulative set).
    fn build(n: usize, prefixes: &[(usize, &str)]) -> PathTrie {
        let mut nodes = vec![PathNode { children: BTreeMap::new(), cum: RuleSet::empty(n) }];
        for &(i, prefix) in prefixes {
            let mut cur = 0usize;
            for &b in prefix.as_bytes() {
                let next = match nodes[cur].children.get(&b) {
                    Some(&c) => c,
                    None => {
                        let c = nodes.len();
                        nodes.push(PathNode { children: BTreeMap::new(), cum: RuleSet::empty(n) });
                        nodes[cur].children.insert(b, c);
                        c
                    }
                };
                cur = next;
            }
            nodes[cur].cum.set(i);
        }
        // Children are always created after their parent, so an in-order
        // pass pushes ancestor sets down in one sweep.
        for i in 0..nodes.len() {
            let (upto, later) = nodes.split_at_mut(i + 1);
            for &k in upto[i].children.values() {
                later[k - i - 1].cum.or_with(&upto[i].cum);
            }
        }
        PathTrie { nodes }
    }

    /// `None` stands for "every rule": a trie of the root alone means no
    /// rule has a path prefix.
    fn lookup(&self, path: &str) -> Option<&[u64]> {
        if self.nodes.len() == 1 {
            return None;
        }
        let mut cur = 0usize;
        for &b in path.as_bytes() {
            match self.nodes[cur].children.get(&b) {
                Some(&c) => cur = c,
                None => break,
            }
        }
        Some(&self.nodes[cur].cum.words)
    }

    /// A walk costs at most one map probe per prefix byte.
    fn search_ops(&self) -> u64 {
        crate::spec::MAX_PATH_PREFIX_BYTES as u64
    }

    fn fold(&self, f: &mut impl Fold) {
        let Self { nodes } = self;
        f.write_u64(nodes.len() as u64);
        for node in nodes {
            f.write_u64(node.children.len() as u64);
            for (&b, &c) in &node.children {
                f.write_u64(b as u64).write_u64(c as u64);
            }
            node.cum.fold(f);
        }
    }
}

/// One header-predicate slot: `auto` admits rules with fewer predicates
/// than this slot's index; the maps admit rules whose slot predicate is
/// satisfied by some request header.
#[derive(Debug, Clone)]
struct HeaderSlot {
    auto: RuleSet,
    /// Presence-only predicates, keyed by lowercase header name, ascending.
    present: Vec<(String, RuleSet)>,
    /// Name+value predicates, keyed by (lowercase name, value), ascending.
    exact: Vec<((String, String), RuleSet)>,
}

/// Order a lowercase key against a header name as the key would order
/// against the name's lowercase form, without building that form.
fn cmp_lowercase(key: &str, name: &str) -> std::cmp::Ordering {
    key.bytes().cmp(name.bytes().map(|b| b.to_ascii_lowercase()))
}

impl HeaderSlot {
    /// Word `w` of the slot's mask: rules with no predicate in this slot,
    /// plus those whose slot predicate some request header satisfies.
    fn word(&self, headers: &[(&str, &str)], w: usize) -> u64 {
        if self.present.is_empty() && self.exact.is_empty() {
            return u64::MAX; // no rule has a predicate here: `auto` is every rule
        }
        let mut m = self.auto.word(w);
        for &(name, value) in headers {
            if let Ok(i) = self.present.binary_search_by(|(k, _)| cmp_lowercase(k, name)) {
                m |= self.present[i].1.word(w);
            }
            let by_name_then_value = |((k, v), _): &((String, String), RuleSet)| {
                cmp_lowercase(k, name).then_with(|| v.as_str().cmp(value))
            };
            if let Ok(i) = self.exact.binary_search_by(by_name_then_value) {
                m |= self.exact[i].1.word(w);
            }
        }
        m
    }

    fn search_ops(&self) -> u64 {
        u64::from(((self.present.len() + self.exact.len()).max(1) as u64).ilog2()) + 1
    }

    fn fold(&self, f: &mut impl Fold) {
        let Self { auto, present, exact } = self;
        f.scope("auto", |f| auto.fold(f));
        f.write_u64(present.len() as u64);
        for (k, v) in present {
            f.write_str(k);
            v.fold(f);
        }
        f.write_u64(exact.len() as u64);
        for ((k, val), v) in exact {
            f.write_str(k).write_str(val);
            v.fold(f);
        }
    }
}

/// One tenant's rules compiled into flat dimension tables.
#[derive(Debug, Clone)]
pub struct CompiledTenant {
    /// Rule count.
    n: usize,
    /// Per-rule verdicts, indexed by rule position.
    actions: Vec<PolicyVerdict>,
    /// Bit `i` set: rule `i < 64` allows. `actions` held in the table's own
    /// bytes for the first 64 rules, so that their verdict costs no load.
    first_allows: u64,
    /// Rules carrying L7 predicates (undecidable on the node L4 path).
    l7_rules: RuleSet,
    src: IntervalTable,
    ports: IntervalTable,
    idents: IntervalTable,
    methods: MapTable,
    path: PathTrie,
    sni: SniTable,
    headers: Vec<HeaderSlot>,
    /// How many of `headers` some rule has a predicate in. The slots past
    /// them admit every rule, so a lookup stops there without reading the
    /// slot list at all when no rule has a header predicate.
    constrained_header_slots: usize,
    default_action: PolicyVerdict,
}

impl CompiledTenant {
    /// The compiled form of a rule-free policy: every lookup yields
    /// `default_action`. Infallible, unlike [`CompiledTenant::compile`].
    pub fn empty(default_action: PolicyVerdict) -> CompiledTenant {
        CompiledTenant {
            n: 0,
            actions: Vec::new(),
            first_allows: 0,
            l7_rules: RuleSet::empty(0),
            src: IntervalTable::build(0, &[]),
            ports: IntervalTable::build(0, &[]),
            idents: IntervalTable::build(0, &[]),
            methods: MapTable { any: RuleSet::empty(0), exact: BTreeMap::new() },
            path: PathTrie::build(0, &[]),
            sni: SniTable {
                any: RuleSet::empty(0),
                exact: BTreeMap::new(),
                suffix: BTreeMap::new(),
            },
            headers: Vec::new(),
            constrained_header_slots: 0,
            default_action,
        }
    }

    /// Compile one tenant policy; validation failures reject the whole
    /// spec (the caller NACKs, nothing is partially applied).
    pub fn compile(tp: &TenantPolicy) -> Result<CompiledTenant, PolicyRejection> {
        validate_tenant(tp)?;
        let n = tp.rules.len();
        let mut actions = Vec::with_capacity(n);
        let mut l7_rules = RuleSet::empty(n);
        // `(rule, lo, hi)` per constrained rule; at most one address block
        // and one port range each, any number of identities.
        let mut src_ranges: Vec<(usize, u64, u64)> = Vec::with_capacity(n);
        let mut port_ranges: Vec<(usize, u64, u64)> = Vec::with_capacity(n);
        let mut ident_ranges: Vec<(usize, u64, u64)> = Vec::new();
        let mut method_any = RuleSet::empty(n);
        let mut method_exact: BTreeMap<String, RuleSet> = BTreeMap::new();
        let mut prefixes: Vec<(usize, &str)> = Vec::with_capacity(n);
        let mut sni_any = RuleSet::empty(n);
        let mut sni_exact: BTreeMap<String, RuleSet> = BTreeMap::new();
        let mut sni_suffix: BTreeMap<String, RuleSet> = BTreeMap::new();
        // Header slots accumulate in ordered maps and are flattened into
        // sorted vectors at the end.
        struct SlotBuilder {
            auto: RuleSet,
            present: BTreeMap<String, RuleSet>,
            exact: BTreeMap<(String, String), RuleSet>,
        }
        let mut slots: Vec<SlotBuilder> = (0..crate::spec::MAX_HEADER_PREDICATES)
            .map(|_| SlotBuilder {
                auto: RuleSet::empty(n),
                present: BTreeMap::new(),
                exact: BTreeMap::new(),
            })
            .collect();

        for (i, r) in tp.rules.iter().enumerate() {
            actions.push(r.action);
            if r.has_l7_predicates() {
                l7_rules.set(i);
            }
            if let Some(c) = r.source_cidr {
                let (lo, hi) = c.range();
                src_ranges.push((i, lo as u64, hi as u64));
            }
            if let Some(p) = r.dest_ports {
                port_ranges.push((i, p.lo as u64, p.hi as u64));
            }
            ident_ranges.extend(r.source_identities.iter().map(|&id| (i, id, id)));
            if r.methods.is_empty() {
                method_any.set(i);
            } else {
                for m in &r.methods {
                    method_exact.entry(m.clone()).or_insert_with(|| RuleSet::empty(n)).set(i);
                }
            }
            prefixes.push((i, r.path_prefix.as_str()));
            match &r.sni {
                None => sni_any.set(i),
                Some(SniMatch::Exact(s)) => {
                    sni_exact.entry(s.clone()).or_insert_with(|| RuleSet::empty(n)).set(i);
                }
                Some(SniMatch::Suffix(s)) => {
                    sni_suffix.entry(s.clone()).or_insert_with(|| RuleSet::empty(n)).set(i);
                }
            }
            // Canonical predicate order makes the slot assignment (and the
            // digest) independent of how the operator listed headers.
            let mut preds: Vec<(String, Option<&String>)> = r
                .headers
                .iter()
                .map(|h| (h.name.to_ascii_lowercase(), h.value.as_ref()))
                .collect();
            preds.sort();
            for (j, slot) in slots.iter_mut().enumerate() {
                match preds.get(j) {
                    None => slot.auto.set(i),
                    Some((name, None)) => {
                        slot.present
                            .entry(name.clone())
                            .or_insert_with(|| RuleSet::empty(n))
                            .set(i);
                    }
                    Some((name, Some(v))) => {
                        slot.exact
                            .entry((name.clone(), (*v).clone()))
                            .or_insert_with(|| RuleSet::empty(n))
                            .set(i);
                    }
                }
            }
        }

        Ok(CompiledTenant {
            n,
            first_allows: (actions.iter().take(64).enumerate())
                .fold(0, |bits, (i, &a)| bits | (u64::from(a == PolicyVerdict::Allow) << i)),
            actions,
            l7_rules,
            src: IntervalTable::build(n, &src_ranges),
            ports: IntervalTable::build(n, &port_ranges),
            idents: IntervalTable::build(n, &ident_ranges),
            methods: MapTable { any: method_any, exact: method_exact },
            path: PathTrie::build(n, &prefixes),
            sni: SniTable { any: sni_any, exact: sni_exact, suffix: sni_suffix },
            headers: slots
                .into_iter()
                .map(|s| HeaderSlot {
                    auto: s.auto,
                    present: s.present.into_iter().collect(),
                    exact: s.exact.into_iter().collect(),
                })
                .collect(),
            constrained_header_slots: tp.rules.iter().map(|r| r.headers.len()).max().unwrap_or(0),
            default_action: tp.default_action,
        })
    }

    /// Index of the first rule matching the L4 context and, when given, the
    /// L7 context: the dimension masks are ANDed one word at a time, cheap
    /// borrowed dimensions first, and the walk stops at the first word
    /// that keeps a bit. A dimension no rule constrains contributes all
    /// ones without its tables being touched.
    fn first_match(&self, l4: &L4Ctx, l7: Option<&L7Ctx<'_>>) -> Option<usize> {
        let borrowed = [
            self.src.lookup(l4.src_ip as u64),
            self.ports.lookup(l4.dst_port as u64),
            self.idents.lookup(l4.identity),
            l7.and_then(|c| self.path.lookup(c.path)),
        ];
        for w in 0..self.n.div_ceil(64) {
            let mut word = every_rule(self.n, w);
            for mask in borrowed.iter().flatten() {
                word &= mask[w];
            }
            if let Some(ctx) = l7 {
                word &= self.methods.word(ctx.method, w);
                if word != 0 {
                    word &= self.sni.word(ctx.sni, w);
                }
                for slot in &self.headers[..self.constrained_header_slots] {
                    if word == 0 {
                        break;
                    }
                    word &= slot.word(ctx.headers, w);
                }
            }
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }

    /// The node L4 path's verdict. The full L7 match mask is always a
    /// subset of the L4 mask (L7 dimensions only narrow it), so an empty
    /// L4 candidate set means the default verdict is final.
    pub fn l4_verdict(&self, ctx: &L4Ctx) -> L4Verdict {
        match self.first_match(ctx, None) {
            None => match self.default_action {
                PolicyVerdict::Allow => L4Verdict::Allow,
                PolicyVerdict::Deny => L4Verdict::Deny,
            },
            Some(i) if self.l7_rules.contains(i) => L4Verdict::NeedsL7,
            Some(i) => match self.action(i) {
                PolicyVerdict::Allow => L4Verdict::Allow,
                PolicyVerdict::Deny => L4Verdict::Deny,
            },
        }
    }

    /// Rule `i`'s verdict.
    fn action(&self, i: usize) -> PolicyVerdict {
        match i {
            0..64 if self.first_allows >> i & 1 == 1 => PolicyVerdict::Allow,
            0..64 => PolicyVerdict::Deny,
            _ => self.actions[i],
        }
    }

    /// Index of the first matching rule under full L4+L7 context.
    pub fn l7_match(&self, l4: &L4Ctx, l7: &L7Ctx<'_>) -> Option<usize> {
        self.first_match(l4, Some(l7))
    }

    /// The gateway L7 path's verdict.
    pub fn l7_verdict(&self, l4: &L4Ctx, l7: &L7Ctx<'_>) -> PolicyVerdict {
        match self.l7_match(l4, l7) {
            Some(i) => self.action(i),
            None => self.default_action,
        }
    }

    /// Number of rules compiled in.
    pub fn rule_count(&self) -> usize {
        self.n
    }

    /// Deterministic per-lookup cost bound: binary-search comparisons per
    /// dimension plus the bitmask word operations — compare against the
    /// reference matcher's O(rules) scan.
    pub fn lookup_ops(&self) -> u64 {
        let searches = self.src.search_ops()
            + self.ports.search_ops()
            + self.idents.search_ops()
            + self.methods.search_ops()
            + self.path.search_ops()
            + self.sni.search_ops()
            + self.headers.iter().map(HeaderSlot::search_ops).sum::<u64>();
        let dims = 6 + self.headers.len() as u64;
        searches + dims * self.l7_rules.word_count().max(1) as u64
    }

    /// Fold every compiled table into a digest.
    pub(crate) fn fold(&self, f: &mut impl Fold) {
        let Self {
            n, actions, l7_rules, src, ports, idents, methods, path, sni, headers, default_action,
            first_allows: _, // derived: the allow bits of the first 64 `actions`
            constrained_header_slots: _, // derived: the leading `headers` some rule constrains
        } = self;
        f.write_u64(*n as u64);
        for &a in actions {
            f.write_u64(verdict_tag(a));
        }
        f.scope("l7_rules", |f| l7_rules.fold(f));
        f.scope("src", |f| src.fold(f));
        f.scope("ports", |f| ports.fold(f));
        f.scope("idents", |f| idents.fold(f));
        f.scope("methods", |f| methods.fold(f));
        f.scope("path", |f| path.fold(f));
        f.scope("sni", |f| sni.fold(f));
        f.write_u64(headers.len() as u64);
        for slot in headers {
            slot.fold(f);
        }
        f.write_u64(verdict_tag(*default_action));
    }
}

/// A whole compiled spec: per-tenant tables keyed by [`TenantId`]. A
/// lookup selects the caller's tenant first, so no rule bit of another
/// tenant is ever consulted — isolation is structural.
///
/// A tenant's tables are immutable once built and held by `Arc`, and the
/// set holds its index and its sources by one `Arc` each: `clone()` (what a
/// node's filter takes of the gateway's set) is two reference counts however
/// many tenants the set has, and the next version's set shares the tables of
/// every tenant it did not change.
#[derive(Debug, Clone)]
pub struct CompiledPolicySet {
    version: u64,
    /// Ascending by tenant, one entry each: a lookup is a binary search of
    /// one small contiguous array, then the one hop to the tenant's tables.
    /// Not an ordered map: its node walk in front of that hop is a cache
    /// miss per packet on the node's L4 admit (DESIGN.md §16). A slice, not
    /// a `Vec`, behind its `Arc`: the entries sit right after the counts,
    /// so sharing the index adds no hop in front of the search.
    tenants: Arc<[(TenantId, Arc<CompiledTenant>)]>,
    /// What each tenant's tables were compiled from, in `tenants`' order:
    /// what the next version's tenants are compared against. The spec's own
    /// list when it is ascending, else a sorted copy sharing its nodes.
    /// Beside the index, not in it, so that a lookup's cache lines hold only
    /// the index.
    sources: TenantList,
}

impl CompiledPolicySet {
    /// Validate and compile a full spec; any rejection NACKs the whole
    /// push. [`Self::compile_against`] with nothing to reuse.
    pub fn compile(spec: &PolicySpec) -> Result<CompiledPolicySet, PolicyRejection> {
        Self::compile_against(spec, None)
    }

    /// Validate and compile `spec`, tenant by tenant in `spec`'s order. A
    /// tenant's tables are `prior`'s (the set running now) if `prior`
    /// compiled them from a [`TenantPolicy`] field-for-field equal to
    /// `spec`'s, wherever the tenant sits in `spec`'s list; else the ones an
    /// earlier compile left in `spec`'s own node; else they are compiled now
    /// and left there (the module docs give the order its reasons). Only a
    /// tenant compiled now is validated, so the rejection (and the result) is
    /// the one a compile from scratch gives. Equality is `TenantPolicy`'s
    /// `==`, which two versions sharing the allocation satisfy without a
    /// walk; never a digest, and never identity alone: a collision would
    /// enforce another tenant's tables, and a tenant rebuilt equal keeps its
    /// own.
    pub fn compile_against(
        spec: &PolicySpec,
        prior: Option<&CompiledPolicySet>,
    ) -> Result<CompiledPolicySet, PolicyRejection> {
        let mut tenants = Vec::with_capacity(spec.tenants.len());
        for tp in spec.tenants.shared() {
            // Sorted as it is built, so that a tenant named twice is refused
            // where the spec's order reaches it, whatever that order is; an
            // ascending spec appends.
            let at = match tenants.binary_search_by_key(&tp.tenant, |(tenant, _)| *tenant) {
                Ok(_) => return Err(PolicyRejection::DuplicateTenant(tp.tenant)),
                Err(at) => at,
            };
            let running = prior.and_then(|set| {
                let i = set.position(tp.tenant)?;
                (set.sources.shared()[i] == *tp).then(|| &set.tenants[i].1)
            });
            let tables = match running.or_else(|| tp.tables()) {
                Some(tables) => Arc::clone(tables),
                None => tp.remember(CompiledTenant::compile(tp)?),
            };
            tenants.insert(at, (tp.tenant, tables));
        }
        Ok(CompiledPolicySet {
            version: spec.version,
            tenants: tenants.into(),
            sources: spec.tenants.ascending(),
        })
    }

    /// How many tenants' tables this set and `other` hold in common: the
    /// same allocation, not merely equal content.
    pub fn shared_tenants(&self, other: &CompiledPolicySet) -> usize {
        self.tenants
            .iter()
            .filter(|(t, tables)| other.tables(*t).is_some_and(|o| Arc::ptr_eq(tables, o)))
            .count()
    }

    /// An empty set at version 0 (deny-all for every tenant).
    pub fn empty() -> CompiledPolicySet {
        CompiledPolicySet { version: 0, tenants: Arc::new([]), sources: TenantList::default() }
    }

    /// The spec version this was compiled from.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// One tenant's compiled table.
    pub fn tenant(&self, t: TenantId) -> Option<&CompiledTenant> {
        self.tables(t).map(Arc::as_ref)
    }

    fn position(&self, t: TenantId) -> Option<usize> {
        self.tenants.binary_search_by_key(&t, |(tenant, _)| *tenant).ok()
    }

    fn tables(&self, t: TenantId) -> Option<&Arc<CompiledTenant>> {
        Some(&self.tenants[self.position(t)?].1)
    }

    /// Total rules across tenants.
    pub fn rule_count(&self) -> usize {
        self.tenants.iter().map(|(_, t)| t.rule_count()).sum()
    }

    /// Node L4 verdict; a tenant with no policy is denied (zero trust).
    pub fn l4_verdict(&self, ctx: &L4Ctx) -> L4Verdict {
        match self.tables(ctx.tenant) {
            Some(t) => t.l4_verdict(ctx),
            None => L4Verdict::Deny,
        }
    }

    /// Gateway L7 match; `None` when no rule of the caller's tenant
    /// matches (or the tenant has no policy).
    pub fn l7_match(&self, l4: &L4Ctx, l7: &L7Ctx<'_>) -> Option<usize> {
        self.tables(l4.tenant).and_then(|t| t.l7_match(l4, l7))
    }

    /// Gateway L7 verdict; a tenant with no policy is denied (zero trust).
    pub fn l7_verdict(&self, l4: &L4Ctx, l7: &L7Ctx<'_>) -> PolicyVerdict {
        match self.tables(l4.tenant) {
            Some(t) => t.l7_verdict(l4, l7),
            None => PolicyVerdict::Deny,
        }
    }

    /// Fold every tenant table into a digest.
    pub fn fold(&self, f: &mut impl Fold) {
        let Self {
            version, tenants,
            sources: _, // gap: the specs `tenants` was compiled from; the folded tables decide
        } = self;
        f.write_u64(*version).write_u64(tenants.len() as u64);
        for (t, c) in tenants.iter() {
            f.write_u64(t.0 as u64);
            c.fold(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canal_sim::Digest;
    use crate::spec::{Cidr, PolicyRule, SniMatch};
    use canal_net::VpcId;

    fn l4(tenant: u32, src_ip: u32, dst_port: u16, identity: u64) -> L4Ctx {
        L4Ctx { tenant: TenantId(tenant), vpc: VpcId(tenant), src_ip, dst_port, identity }
    }

    fn tenant_policy(rules: Vec<PolicyRule>) -> TenantPolicy {
        TenantPolicy {
            tenant: TenantId(1),
            vpc: VpcId(1),
            rules,
            default_action: PolicyVerdict::Deny,
        }
    }

    #[test]
    fn ruleset_bits_and_tail_masking() {
        let mut s = RuleSet::empty(70);
        s.set(65);
        s.set(3);
        s.set(70); // past the end: ignored
        assert!(s.contains(65) && s.contains(3) && !s.contains(4));
        assert_eq!((s.word(0), s.word(1)), (1 << 3, 1 << 1));
        assert_eq!((every_rule(70, 0), every_rule(70, 1)), (u64::MAX, (1 << 6) - 1));
        assert_eq!(every_rule(128, 1), u64::MAX, "no tail to mask");
    }

    #[test]
    fn l4_only_rules_decide_on_the_node_path() {
        let tp = tenant_policy(vec![
            PolicyRule::deny().with_source_cidr(Cidr::new(0x0A00_C800, 24)), // 10.0.200.0/24
            PolicyRule::allow(),
        ]);
        let c = CompiledTenant::compile(&tp).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(c.l4_verdict(&l4(1, 0x0A00_C805, 80, 0)), L4Verdict::Deny);
        assert_eq!(c.l4_verdict(&l4(1, 0x0A00_0105, 80, 0)), L4Verdict::Allow);
    }

    #[test]
    fn l7_rules_defer_the_node_path() {
        let tp = tenant_policy(vec![
            PolicyRule::deny().with_method("DELETE").with_path_prefix("/admin"),
            PolicyRule::allow(),
        ]);
        let c = CompiledTenant::compile(&tp).unwrap_or_else(|e| panic!("{e}"));
        // Rule 0 is an L4 candidate for every flow, so L4 must defer.
        assert_eq!(c.l4_verdict(&l4(1, 1, 80, 0)), L4Verdict::NeedsL7);
        assert_eq!(
            c.l7_verdict(&l4(1, 1, 80, 0), &L7Ctx::new("DELETE", "/admin/users")),
            PolicyVerdict::Deny
        );
        assert_eq!(
            c.l7_verdict(&l4(1, 1, 80, 0), &L7Ctx::new("GET", "/admin/users")),
            PolicyVerdict::Allow
        );
        assert_eq!(
            c.l7_verdict(&l4(1, 1, 80, 0), &L7Ctx::new("DELETE", "/api")),
            PolicyVerdict::Allow
        );
    }

    #[test]
    fn first_match_wins_over_later_rules() {
        let tp = tenant_policy(vec![
            PolicyRule::allow().with_ports(80, 80),
            PolicyRule::deny().with_ports(1, 1024),
        ]);
        let c = CompiledTenant::compile(&tp).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(c.l4_verdict(&l4(1, 1, 80, 0)), L4Verdict::Allow);
        assert_eq!(c.l4_verdict(&l4(1, 1, 443, 0)), L4Verdict::Deny);
        assert_eq!(c.l4_verdict(&l4(1, 1, 2048, 0)), L4Verdict::Deny, "default deny");
    }

    #[test]
    fn sni_suffix_matches_on_label_boundaries_only() {
        let tp = tenant_policy(vec![
            PolicyRule::allow().with_sni(SniMatch::Suffix(".example.com".to_string())),
        ]);
        let c = CompiledTenant::compile(&tp).unwrap_or_else(|e| panic!("{e}"));
        let ctx = l4(1, 1, 443, 0);
        let l7 = |sni: &'static str| L7Ctx { method: "GET", path: "/", sni: Some(sni), headers: &[] };
        assert_eq!(c.l7_verdict(&ctx, &l7("a.example.com")), PolicyVerdict::Allow);
        assert_eq!(c.l7_verdict(&ctx, &l7("b.a.example.com")), PolicyVerdict::Allow);
        assert_eq!(c.l7_verdict(&ctx, &l7("example.com")), PolicyVerdict::Deny);
        assert_eq!(c.l7_verdict(&ctx, &l7("evilexample.com")), PolicyVerdict::Deny);
    }

    #[test]
    fn header_predicates_all_must_hold() {
        let tp = tenant_policy(vec![PolicyRule::allow()
            .with_header("x-team", Some("infra"))
            .with_header("x-trace", None)]);
        let c = CompiledTenant::compile(&tp).unwrap_or_else(|e| panic!("{e}"));
        let ctx = l4(1, 1, 80, 0);
        let verdict = |h: &[(&str, &str)]| {
            c.l7_verdict(&ctx, &L7Ctx { method: "GET", path: "/", sni: None, headers: h })
        };
        assert_eq!(verdict(&[("X-Team", "infra"), ("X-Trace", "1")]), PolicyVerdict::Allow);
        assert_eq!(verdict(&[("X-Team", "infra")]), PolicyVerdict::Deny);
        assert_eq!(verdict(&[("X-Team", "other"), ("X-Trace", "1")]), PolicyVerdict::Deny);
    }

    #[test]
    fn unconstrained_dimensions_contribute_every_rule() {
        // 70 rules are one full mask word and a six-bit tail. Only the
        // identity dimension is constrained; every other one is skipped.
        let mut rules: Vec<PolicyRule> = (0..69).map(|_| PolicyRule::deny().with_identities(&[1])).collect();
        rules.push(PolicyRule::allow());
        let c = CompiledTenant::compile(&tenant_policy(rules)).unwrap_or_else(|e| panic!("{e}"));
        let l7 = L7Ctx { method: "GET", path: "/x", sni: Some("a.b"), headers: &[("X-Any", "1")] };
        assert_eq!(c.l7_match(&l4(1, 1, 80, 1), &l7), Some(0));
        assert_eq!(c.l7_match(&l4(1, 1, 80, 2), &l7), Some(69), "found in the tail word");
        assert_eq!(c.l4_verdict(&l4(1, 1, 80, 2)), L4Verdict::Allow);
        // Nothing constrained at all: the tail mask alone decides.
        let open = tenant_policy((0..70).map(|_| PolicyRule::allow()).collect());
        let c = CompiledTenant::compile(&open).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(c.l7_match(&l4(1, 1, 80, 2), &l7), Some(0));
        // And no rule at all: no word to walk.
        let c = CompiledTenant::empty(PolicyVerdict::Allow);
        assert_eq!(c.l7_match(&l4(1, 1, 80, 2), &l7), None);
        assert_eq!(c.l7_verdict(&l4(1, 1, 80, 2), &l7), PolicyVerdict::Allow);
    }

    #[test]
    fn identity_dimension_gates_rules() {
        let tp = tenant_policy(vec![PolicyRule::allow().with_identities(&[100, 200])]);
        let c = CompiledTenant::compile(&tp).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(c.l4_verdict(&l4(1, 1, 80, 100)), L4Verdict::Allow);
        assert_eq!(c.l4_verdict(&l4(1, 1, 80, 200)), L4Verdict::Allow);
        assert_eq!(c.l4_verdict(&l4(1, 1, 80, 150)), L4Verdict::Deny);
    }

    #[test]
    fn unknown_tenant_is_denied() {
        let tenants = [tenant_policy(vec![PolicyRule::allow()])].into_iter().collect();
        let spec = PolicySpec { version: 1, tenants };
        let set = CompiledPolicySet::compile(&spec).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(set.l4_verdict(&l4(1, 1, 80, 0)), L4Verdict::Allow);
        assert_eq!(set.l4_verdict(&l4(9, 1, 80, 0)), L4Verdict::Deny);
        assert_eq!(
            set.l7_verdict(&l4(9, 1, 80, 0), &L7Ctx::new("GET", "/")),
            PolicyVerdict::Deny
        );
    }

    /// A refusal is computed by every compile that meets it and never
    /// remembered: the tenant before it in the spec's order was built and
    /// left in its node, the refused one leaves its node empty.
    #[test]
    fn a_refused_tenant_leaves_nothing_in_its_node() {
        let good = tenant_policy(vec![PolicyRule::allow()]);
        let bad = TenantPolicy {
            tenant: TenantId(2),
            ..tenant_policy(vec![PolicyRule::allow().with_ports(443, 80)])
        };
        let spec = PolicySpec { version: 1, tenants: [good, bad].into_iter().collect() };
        for _ in 0..2 {
            assert_eq!(
                CompiledPolicySet::compile(&spec).err(),
                Some(PolicyRejection::InvertedPortRange { tenant: TenantId(2), rule: 0 })
            );
            assert!(spec.tenants.shared()[0].tables().is_some());
            assert!(spec.tenants.shared()[1].tables().is_none());
        }
    }

    #[test]
    fn compile_digest_is_stable_and_content_sensitive() {
        let spec = PolicySpec {
            version: 3,
            tenants: [tenant_policy(vec![
                PolicyRule::deny().with_path_prefix("/admin"),
                PolicyRule::allow(),
            ])]
            .into_iter()
            .collect(),
        };
        let a = CompiledPolicySet::compile(&spec).unwrap_or_else(|e| panic!("{e}"));
        let b = CompiledPolicySet::compile(&spec).unwrap_or_else(|e| panic!("{e}"));
        let da = Digest::of(|f| a.fold(f));
        let db = Digest::of(|f| b.fold(f));
        assert_eq!(da.value(), db.value());

        let mut spec2 = spec.clone();
        spec2.tenants[0].rules[0].path_prefix = "/api".to_string();
        let c = CompiledPolicySet::compile(&spec2).unwrap_or_else(|e| panic!("{e}"));
        let dc = Digest::of(|f| c.fold(f));
        assert_ne!(da.value(), dc.value());
    }

    #[test]
    fn lookup_ops_stay_logarithmic_in_rule_count() {
        let mut rules = Vec::new();
        for i in 0..1024u32 {
            rules.push(
                PolicyRule::allow()
                    .with_source_cidr(Cidr::new(0x0A00_0000 | (i << 8), 24))
                    .with_ports(1000, 1000 + (i % 64) as u16),
            );
        }
        let tp = tenant_policy(rules);
        let c = CompiledTenant::compile(&tp).unwrap_or_else(|e| panic!("{e}"));
        // Reference cost is one predicate check per rule; compiled cost is
        // binary searches plus word ops and must be well under that.
        assert!(c.lookup_ops() < 1024 / 2, "lookup_ops = {}", c.lookup_ops());
    }
}
