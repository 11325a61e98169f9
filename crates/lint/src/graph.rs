//! Workspace symbol graph and the graph-aware rule families.
//!
//! [`FileRecord`]s (one per scanned source file) are folded into a
//! [`SymbolGraph`]: structs indexed per crate, methods bound to their
//! owning type across files, field-containment edges between struct
//! types, and the in-file call edges each fn body exposes. Three rule
//! families query it:
//!
//! * **digest-coverage** — every mutable-state struct in the
//!   determinism-participating crates ([`crate::rules::DIGEST_CRATES`])
//!   must be reachable from a `fold_digest` impl through field
//!   containment; and a struct that *has* a `fold_digest` must actually
//!   fold every field its `&mut self` methods mutate (the PR-5
//!   `last_good` bug, caught structurally). Exceptions are typed:
//!   `reason=derived: ...` or `reason=transient: ...`.
//! * **bounded-state** — a growable collection field (`Vec`, `VecDeque`,
//!   `BTreeMap`, `BTreeSet`, `BinaryHeap`, `canal_net::FlatTable`) that the
//!   owning struct's
//!   `&mut self` methods grow must carry bound evidence: a shrink call on
//!   the same field, a cap const / cap field, or an eviction counter.
//! * **seed-dataflow** — any lib fn in a determinism crate whose body
//!   calls `SimRng::seed` must receive a `SimRng` in its signature, or be
//!   reachable only from in-file callers that do (the seed then derives
//!   from the caller's stream, e.g. `rng.fork(salt)` wrappers).

use crate::lexer::LexedFile;
use crate::parser::{FieldOpKind, FileSyntax, FnDef, StructDef};
use crate::rules::{self, TargetKind};
use crate::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// One scanned file, lexed and parsed, with its workspace classification.
pub struct FileRecord {
    /// Workspace-relative path.
    pub file: String,
    /// Owning crate ident (`canal_sim`, ...).
    pub crate_ident: String,
    /// Compilation target kind.
    pub kind: TargetKind,
    /// Parsed symbol view.
    pub syntax: FileSyntax,
    /// Per-line `#[cfg(test)]` flags (0-based), from the lexer.
    pub in_test: Vec<bool>,
}

impl FileRecord {
    /// Build a record from a lexed file.
    pub fn new(file: &str, crate_ident: &str, kind: TargetKind, lexed: &LexedFile) -> Self {
        FileRecord {
            file: file.to_string(),
            crate_ident: crate_ident.to_string(),
            kind,
            syntax: crate::parser::parse(lexed),
            in_test: lexed.in_test.clone(),
        }
    }

    fn line_in_test(&self, line: usize) -> bool {
        self.in_test.get(line.wrapping_sub(1)).copied().unwrap_or(false)
    }
}

/// Collection types whose growth must be bounded.
const GROWABLE: &[&str] =
    &["Vec", "VecDeque", "BTreeMap", "BTreeSet", "BinaryHeap", "FlatTable"];

/// Methods that grow a collection.
const GROW_METHODS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "insert",
    "insert_new",
    "extend",
    "append",
    "entry",
    "resize",
    "resize_with",
];

/// Methods that shrink or rotate a collection (bound evidence).
const SHRINK_METHODS: &[&str] = &[
    "pop",
    "pop_front",
    "pop_back",
    "pop_first",
    "pop_last",
    "remove",
    "remove_entry",
    "swap_remove",
    "truncate",
    "drain",
    "clear",
    "split_off",
    "retain",
    "take",
];

/// Name fragments that mark a cap const / cap field.
const CAP_NAMES: &[&str] = &["cap", "max", "limit", "bound", "budget"];

/// Name fragments that mark an eviction counter field.
const EVICT_NAMES: &[&str] = &["evict", "dropped", "shed", "discard", "overflow"];

fn name_matches(name: &str, fragments: &[&str]) -> bool {
    let lower = name.to_ascii_lowercase();
    fragments.iter().any(|f| lower.contains(f))
}

/// Outer collection type of a field type token string, e.g.
/// `std :: collections :: VecDeque < u64 >` → `VecDeque`.
fn outer_type(ty: &str) -> Option<String> {
    let mut last = None;
    for tok in ty.split_whitespace() {
        match tok {
            "::" => continue,
            "<" | "(" | "[" | "&" => break,
            t if t.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_') => {
                if t == "mut" || t == "dyn" || t == "impl" {
                    continue;
                }
                last = Some(t.to_string());
            }
            _ => break,
        }
    }
    last
}

/// All type-level idents mentioned in a field type (for containment edges).
fn type_idents(ty: &str) -> BTreeSet<String> {
    ty.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|s| s.chars().next().is_some_and(|c| c.is_ascii_uppercase()))
        .map(str::to_string)
        .collect()
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct StructId(usize);

struct StructEntry<'a> {
    rec: usize,
    def: &'a StructDef,
}

/// The workspace-wide symbol graph.
pub struct SymbolGraph<'a> {
    records: &'a [FileRecord],
    structs: Vec<StructEntry<'a>>,
    /// (crate, type name) → struct id.
    by_crate_name: BTreeMap<(&'a str, &'a str), StructId>,
    /// type name → struct ids across crates.
    by_name: BTreeMap<&'a str, Vec<StructId>>,
    /// (crate, type name) → method defs bound to that type, across files.
    methods: BTreeMap<(&'a str, &'a str), Vec<(usize, &'a FnDef)>>,
}

impl<'a> SymbolGraph<'a> {
    /// Index every struct, method and const across the scanned files.
    pub fn build(records: &'a [FileRecord]) -> Self {
        let mut graph = SymbolGraph {
            records,
            structs: Vec::new(),
            by_crate_name: BTreeMap::new(),
            by_name: BTreeMap::new(),
            methods: BTreeMap::new(),
        };
        for (rec, r) in records.iter().enumerate() {
            for def in &r.syntax.structs {
                let id = StructId(graph.structs.len());
                graph.structs.push(StructEntry { rec, def });
                graph
                    .by_crate_name
                    .entry((r.crate_ident.as_str(), def.name.as_str()))
                    .or_insert(id);
                graph.by_name.entry(def.name.as_str()).or_default().push(id);
            }
            for f in &r.syntax.fns {
                if let Some(owner) = &f.owner {
                    graph
                        .methods
                        .entry((r.crate_ident.as_str(), owner.as_str()))
                        .or_default()
                        .push((rec, f));
                }
            }
        }
        graph
    }

    fn crate_of(&self, id: StructId) -> &'a str {
        self.records[self.structs[id.0].rec].crate_ident.as_str()
    }

    /// Methods of a struct, excluding `#[cfg(test)]` regions.
    fn methods_of(&self, id: StructId) -> impl Iterator<Item = &'a FnDef> + '_ {
        let entry = &self.structs[id.0];
        let key = (self.crate_of(id), entry.def.name.as_str());
        self.methods
            .get(&key)
            .into_iter()
            .flatten()
            .filter(|(rec, f)| !self.records[*rec].line_in_test(f.line))
            .map(|(_, f)| *f)
    }

    /// Resolve a field-type ident to a struct: same crate wins, otherwise a
    /// unique cross-crate name match.
    fn resolve_type(&self, crate_ident: &str, name: &str) -> Option<StructId> {
        if let Some(id) = self.by_crate_name.get(&(crate_ident, name)) {
            return Some(*id);
        }
        match self.by_name.get(name).map(Vec::as_slice) {
            Some([only]) => Some(*only),
            _ => None,
        }
    }

    /// Field-containment edges out of one struct.
    fn field_edges(&self, id: StructId) -> Vec<StructId> {
        let entry = &self.structs[id.0];
        let crate_ident = self.crate_of(id);
        let mut out = Vec::new();
        for field in &entry.def.fields {
            for ident in type_idents(&field.ty) {
                if let Some(to) = self.resolve_type(crate_ident, &ident) {
                    if to != id {
                        out.push(to);
                    }
                }
            }
        }
        out
    }

    fn has_fold_digest(&self, id: StructId) -> bool {
        self.methods_of(id).any(|f| f.name == "fold_digest")
    }

    fn has_mut_state(&self, id: StructId) -> bool {
        !self.structs[id.0].def.fields.is_empty()
            && self.methods_of(id).any(|f| f.takes_mut_self)
    }

    /// Struct ids reachable from any `fold_digest` root via field edges.
    fn digest_reachable(&self) -> BTreeSet<StructId> {
        let mut reached: BTreeSet<StructId> = BTreeSet::new();
        let mut stack: Vec<StructId> = (0..self.structs.len())
            .map(StructId)
            .filter(|id| self.has_fold_digest(*id))
            .collect();
        while let Some(id) = stack.pop() {
            if !reached.insert(id) {
                continue;
            }
            stack.extend(self.field_edges(id));
        }
        reached
    }

    /// True when the struct lives in lib code of a digest-participating
    /// crate outside `#[cfg(test)]` — the scope of the state rules.
    fn in_digest_scope(&self, id: StructId) -> bool {
        let entry = &self.structs[id.0];
        let r = &self.records[entry.rec];
        rules::DIGEST_CRATES.contains(&r.crate_ident.as_str())
            && r.kind == TargetKind::Lib
            && !r.line_in_test(entry.def.line)
    }

    /// The idents visible to a struct's `fold_digest`: its own body plus
    /// the bodies of everything it transitively calls in the same file.
    fn fold_digest_idents(&self, id: StructId) -> BTreeSet<String> {
        let entry = &self.structs[id.0];
        let key = (self.crate_of(id), entry.def.name.as_str());
        let mut idents = BTreeSet::new();
        let Some(methods) = self.methods.get(&key) else {
            return idents;
        };
        for (rec, fold) in methods.iter().filter(|(_, f)| f.name == "fold_digest") {
            idents.extend(fold.body.idents.iter().cloned());
            // Transitive in-file callees, by name.
            let file_fns = &self.records[*rec].syntax.fns;
            let mut queue: Vec<&str> = fold.body.calls.iter().map(String::as_str).collect();
            let mut seen: BTreeSet<&str> = BTreeSet::new();
            while let Some(callee) = queue.pop() {
                if !seen.insert(callee) {
                    continue;
                }
                for f in file_fns.iter().filter(|f| f.name == callee) {
                    idents.extend(f.body.idents.iter().cloned());
                    queue.extend(f.body.calls.iter().map(String::as_str));
                }
            }
        }
        idents
    }

    /// Cap-const / cap-field / eviction-counter evidence for a struct.
    fn bound_evidence(&self, id: StructId) -> bool {
        let entry = &self.structs[id.0];
        let r = &self.records[entry.rec];
        let crate_ident = self.crate_of(id);
        entry
            .def
            .fields
            .iter()
            .any(|f| name_matches(&f.name, CAP_NAMES) || name_matches(&f.name, EVICT_NAMES))
            || r.syntax.consts.iter().any(|c| {
                name_matches(&c.name, CAP_NAMES)
                    && (c.owner.is_none() || c.owner.as_deref() == Some(&entry.def.name))
            })
            || self.records.iter().any(|rr| {
                rr.crate_ident == crate_ident
                    && rr.syntax.consts.iter().any(|c| {
                        c.owner.as_deref() == Some(&entry.def.name)
                            && name_matches(&c.name, CAP_NAMES)
                    })
            })
    }
}

/// Run the graph rules; findings are keyed by record index so the caller
/// can merge them with the per-line findings before suppression matching.
pub(crate) fn graph_findings(records: &[FileRecord]) -> Vec<(usize, Finding)> {
    let graph = SymbolGraph::build(records);
    let mut out = Vec::new();
    digest_coverage(&graph, &mut out);
    bounded_state(&graph, &mut out);
    seed_dataflow(records, &mut out);
    out
}

fn digest_coverage(graph: &SymbolGraph<'_>, out: &mut Vec<(usize, Finding)>) {
    let reachable = graph.digest_reachable();
    for (idx, entry) in graph.structs.iter().enumerate() {
        let id = StructId(idx);
        if !graph.in_digest_scope(id) {
            continue;
        }
        let name = entry.def.name.as_str();
        // The digest sink and the runtime monitors that feed it are the
        // mechanism, not simulation state.
        if name == "Digest" {
            continue;
        }
        if graph.has_fold_digest(id) {
            // Field-fold check: every field mutated by a `&mut self` method
            // must be referenced by fold_digest (directly or via an in-file
            // helper it calls).
            let folded = graph.fold_digest_idents(id);
            let mut mutated: BTreeMap<&str, usize> = BTreeMap::new();
            for m in graph.methods_of(id) {
                if m.name == "fold_digest" || !m.takes_mut_self {
                    continue;
                }
                for op in &m.body.field_ops {
                    let mutates = match &op.kind {
                        FieldOpKind::Assign | FieldOpKind::MutBorrow => true,
                        FieldOpKind::Call(m) => {
                            GROW_METHODS.contains(&m.as_str())
                                || SHRINK_METHODS.contains(&m.as_str())
                        }
                    };
                    if mutates {
                        mutated.entry(op.field.as_str()).or_insert(op.line);
                    }
                }
            }
            for field in &entry.def.fields {
                if mutated.contains_key(field.name.as_str()) && !folded.contains(&field.name) {
                    out.push((
                        entry.rec,
                        Finding {
                            rule: "digest-coverage",
                            line: field.line,
                            message: format!(
                                "field `{}` of `{name}` is mutated by &mut self methods but never folded in `{name}::fold_digest` — determinism drift here is invisible to the double-run harness",
                                field.name
                            ),
                        },
                    ));
                }
            }
        } else if graph.has_mut_state(id) && !reachable.contains(&id) {
            out.push((
                entry.rec,
                Finding {
                    rule: "digest-coverage",
                    line: entry.def.line,
                    message: format!(
                        "mutable-state struct `{name}` is not reachable from any fold_digest impl; fold it into a digest or allow-list it as reason=derived:/transient: state"
                    ),
                },
            ));
        }
    }
}

fn bounded_state(graph: &SymbolGraph<'_>, out: &mut Vec<(usize, Finding)>) {
    for (idx, entry) in graph.structs.iter().enumerate() {
        let id = StructId(idx);
        if !graph.in_digest_scope(id) {
            continue;
        }
        let evidence = graph.bound_evidence(id);
        for field in &entry.def.fields {
            let Some(outer) = outer_type(&field.ty) else {
                continue;
            };
            if !GROWABLE.contains(&outer.as_str()) {
                continue;
            }
            let mut grown = false;
            let mut shrunk = false;
            for m in graph.methods_of(id) {
                for op in &m.body.field_ops {
                    if op.field != field.name {
                        continue;
                    }
                    if let FieldOpKind::Call(call) = &op.kind {
                        grown |= GROW_METHODS.contains(&call.as_str());
                        shrunk |= SHRINK_METHODS.contains(&call.as_str());
                    }
                }
            }
            if grown && !shrunk && !evidence {
                out.push((
                    entry.rec,
                    Finding {
                        rule: "bounded-state",
                        line: field.line,
                        message: format!(
                            "`{}::{}` is a {outer} grown by &mut self methods with no cap const, eviction counter, or shrink path — long-lived state must be bounded",
                            entry.def.name, field.name
                        ),
                    },
                ));
            }
        }
    }
}

fn seed_dataflow(records: &[FileRecord], out: &mut Vec<(usize, Finding)>) {
    for (rec, r) in records.iter().enumerate() {
        if r.kind != TargetKind::Lib || !rules::DETERMINISM_CRATES.contains(&r.crate_ident.as_str())
        {
            continue;
        }
        // Lib fns outside #[cfg(test)]; SimRng's own constructors are the
        // API, not a use of it.
        let lib_fns: Vec<&FnDef> = r
            .syntax
            .fns
            .iter()
            .filter(|f| !r.line_in_test(f.line) && f.owner.as_deref() != Some("SimRng"))
            .collect();
        let takes_rng =
            |f: &FnDef| f.sig_idents.contains("SimRng") || f.takes_mut_self && f.owner.as_deref() == Some("SimRng");
        // A fn is seed-compliant when it takes a SimRng itself, or every
        // in-file caller chain reaches one.
        fn compliant(
            f: &FnDef,
            lib_fns: &[&FnDef],
            takes_rng: &dyn Fn(&FnDef) -> bool,
            stack: &mut Vec<String>,
        ) -> bool {
            if takes_rng(f) {
                return true;
            }
            if stack.contains(&f.name) {
                return false; // cycle with no SimRng anywhere on it
            }
            stack.push(f.name.clone());
            let callers: Vec<&&FnDef> = lib_fns
                .iter()
                .filter(|g| g.name != f.name && g.body.calls.iter().any(|c| c == &f.name))
                .collect();
            let ok = !callers.is_empty()
                && callers.iter().all(|g| compliant(g, lib_fns, takes_rng, stack));
            stack.pop();
            ok
        }
        for f in &lib_fns {
            if f.body.rng_seed_lines.is_empty() {
                continue;
            }
            let mut stack = Vec::new();
            if compliant(f, &lib_fns, &takes_rng, &mut stack) {
                continue;
            }
            for &line in &f.body.rng_seed_lines {
                out.push((
                    rec,
                    Finding {
                        rule: "seed-dataflow",
                        line,
                        message: format!(
                            "fn `{}` seeds a private SimRng but neither it nor its in-file callers take `SimRng`/`&mut SimRng` — thread the experiment's stream (or a fork of it) through the signature",
                            f.name
                        ),
                    },
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn record(file: &str, crate_ident: &str, kind: TargetKind, src: &str) -> FileRecord {
        FileRecord::new(file, crate_ident, kind, &lex(src))
    }

    fn rules_fired(findings: &[(usize, Finding)]) -> Vec<&'static str> {
        let mut ids: Vec<&'static str> = findings.iter().map(|(_, f)| f.rule).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    #[test]
    fn uncovered_mutable_struct_fires_digest_coverage() {
        let src = "pub struct Tracker { count: u64 }\nimpl Tracker {\n    pub fn bump(&mut self) { self.count += 1; }\n}\n";
        let recs = vec![record("a.rs", "canal_sim", TargetKind::Lib, src)];
        let f = graph_findings(&recs);
        assert_eq!(rules_fired(&f), vec!["digest-coverage"]);
        assert_eq!(f[0].1.line, 1);
    }

    #[test]
    fn fold_digest_or_containment_covers_structs() {
        let direct = "pub struct Covered { count: u64 }\nimpl Covered {\n    pub fn bump(&mut self) { self.count += 1; }\n    pub fn fold_digest(&self, d: &mut Digest) { d.write_u64(self.count); }\n}\n";
        let contained = "pub struct Inner { v: u64 }\nimpl Inner { pub fn set(&mut self, v: u64) { self.v = v; } }\npub struct Outer { inner: Inner }\nimpl Outer {\n    pub fn touch(&mut self) { self.inner.set(1); }\n    pub fn fold_digest(&self, d: &mut Digest) { d.write_u64(self.inner.v); }\n}\n";
        for src in [direct, contained] {
            let recs = vec![record("a.rs", "canal_sim", TargetKind::Lib, src)];
            let f = graph_findings(&recs);
            assert!(
                !f.iter().any(|(_, f)| f.rule == "digest-coverage"),
                "{:?}",
                f.iter().map(|(_, f)| f.message.clone()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn containment_reaches_across_files() {
        let inner = "pub struct Child { v: u64 }\nimpl Child { pub fn set(&mut self, v: u64) { self.v = v; } }\n";
        let outer = "pub struct Parent { child: Child }\nimpl Parent { pub fn fold_digest(&self, d: &mut Digest) { d.write_u64(self.child.v); } }\n";
        let recs = vec![
            record("inner.rs", "canal_sim", TargetKind::Lib, inner),
            record("outer.rs", "canal_sim", TargetKind::Lib, outer),
        ];
        let f = graph_findings(&recs);
        assert!(!f.iter().any(|(_, f)| f.rule == "digest-coverage"));
    }

    #[test]
    fn mutated_field_missing_from_fold_digest_fires() {
        // Models the PR-5 `last_good` bug: state advanced in &mut self
        // methods but absent from the digest fold.
        let src = "pub struct Ctl { version: u64, last_good: u64 }\nimpl Ctl {\n    pub fn promote(&mut self) { self.version += 1; self.last_good = self.version; }\n    pub fn fold_digest(&self, d: &mut Digest) { d.write_u64(self.version); }\n}\n";
        let recs = vec![record("a.rs", "canal_control", TargetKind::Lib, src)];
        let f = graph_findings(&recs);
        let dc: Vec<_> = f.iter().filter(|(_, f)| f.rule == "digest-coverage").collect();
        assert_eq!(dc.len(), 1, "{dc:?}");
        assert!(dc[0].1.message.contains("last_good"));
        assert_eq!(dc[0].1.line, 1); // field line of last_good
    }

    #[test]
    fn fold_digest_helpers_count_as_coverage() {
        let src = "pub struct Ctl { version: u64 }\nimpl Ctl {\n    pub fn promote(&mut self) { self.version += 1; }\n    fn fold_inner(&self, d: &mut Digest) { d.write_u64(self.version); }\n    pub fn fold_digest(&self, d: &mut Digest) { self.fold_inner(d); }\n}\n";
        let recs = vec![record("a.rs", "canal_control", TargetKind::Lib, src)];
        let f = graph_findings(&recs);
        assert!(!f.iter().any(|(_, f)| f.rule == "digest-coverage"), "{f:?}");
    }

    #[test]
    fn unbounded_growth_fires_bounded_state() {
        let src = "pub struct Log { entries: Vec<u64> }\nimpl Log {\n    pub fn add(&mut self, v: u64) { self.entries.push(v); }\n    pub fn fold_digest(&self, d: &mut Digest) { d.write_u64(self.entries.len() as u64); }\n}\n";
        let recs = vec![record("a.rs", "canal_telemetry", TargetKind::Lib, src)];
        let f = graph_findings(&recs);
        assert_eq!(rules_fired(&f), vec!["bounded-state"]);
    }

    #[test]
    fn caps_counters_and_shrink_paths_bound_state() {
        let cap_const = "pub struct Log { entries: Vec<u64> }\nimpl Log {\n    const MAX_ENTRIES: usize = 64;\n    pub fn add(&mut self, v: u64) { self.entries.push(v); }\n    pub fn fold_digest(&self, d: &mut Digest) { d.write_u64(0); }\n}\n";
        let evict_field = "pub struct Log { entries: Vec<u64>, evicted: u64 }\nimpl Log {\n    pub fn add(&mut self, v: u64) { self.entries.push(v); }\n    pub fn fold_digest(&self, d: &mut Digest) { d.write_u64(self.evicted); }\n}\n";
        let shrink = "pub struct Log { entries: VecDeque<u64> }\nimpl Log {\n    pub fn add(&mut self, v: u64) { self.entries.push_back(v); self.entries.pop_front(); }\n    pub fn fold_digest(&self, d: &mut Digest) { d.write_u64(0); }\n}\n";
        for src in [cap_const, evict_field, shrink] {
            let recs = vec![record("a.rs", "canal_telemetry", TargetKind::Lib, src)];
            let f = graph_findings(&recs);
            assert!(
                !f.iter().any(|(_, f)| f.rule == "bounded-state"),
                "{:?}",
                f.iter().map(|(_, f)| f.message.clone()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn seed_dataflow_requires_simrng_in_signature_or_callers() {
        let bad = "pub fn plan() -> u64 {\n    let mut rng = SimRng::seed(7);\n    rng.next()\n}\n";
        let recs = vec![record("a.rs", "canal_sim", TargetKind::Lib, bad)];
        assert_eq!(rules_fired(&graph_findings(&recs)), vec!["seed-dataflow"]);

        let direct = "pub fn plan(rng: &mut SimRng) -> u64 {\n    let mut sub = SimRng::seed(rng.next());\n    sub.next()\n}\n";
        let recs = vec![record("a.rs", "canal_sim", TargetKind::Lib, direct)];
        assert!(graph_findings(&recs).is_empty());

        let transitive = "fn derive(salt: u64) -> SimRng {\n    SimRng::seed(salt)\n}\npub fn plan(rng: &mut SimRng) -> u64 {\n    derive(rng.next()).next()\n}\n";
        let recs = vec![record("a.rs", "canal_sim", TargetKind::Lib, transitive)];
        assert!(graph_findings(&recs).is_empty());
    }

    #[test]
    fn seed_dataflow_spares_tests_bins_and_simrng_itself() {
        let src = "pub fn plan() -> u64 { let mut r = SimRng::seed(7); r.next() }\n";
        let recs = vec![record("a.rs", "canal_sim", TargetKind::Bin, src)];
        assert!(graph_findings(&recs).is_empty());
        let recs = vec![record("a.rs", "canal_bench", TargetKind::Lib, src)];
        assert!(graph_findings(&recs).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    fn f() { let r = SimRng::seed(7); }\n}\n";
        let recs = vec![record("a.rs", "canal_sim", TargetKind::Lib, in_test)];
        assert!(graph_findings(&recs).is_empty());
        let fork = "impl SimRng {\n    pub fn fork(&mut self, salt: u64) -> SimRng { SimRng::seed(self.next() ^ salt) }\n}\n";
        let recs = vec![record("rng.rs", "canal_sim", TargetKind::Lib, fork)];
        assert!(graph_findings(&recs).is_empty());
    }
}
