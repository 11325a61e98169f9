//! Workspace symbol graph and the graph-aware rule families.
//!
//! [`FileRecord`]s (one per scanned source file) are folded into a
//! [`SymbolGraph`]: structs indexed per crate, methods bound to their
//! owning type across files, field-containment edges between struct
//! types, and the in-file call edges each fn body exposes. Three rule
//! families query it, and two more read names across files:
//!
//! * **digest-coverage** — every mutable-state struct in the
//!   determinism-participating crates ([`crate::rules::DIGEST_CRATES`])
//!   must be reachable from a `fold(&self, f: &mut impl Fold)` through
//!   field containment; and a struct's `fold` in library code must
//!   destructure `Self` with no `..`, so that rustc proves it names every
//!   field (a fold that forgets `last_good` becomes a compile error) and
//!   `unused_variables` (denied) that it reads every field it binds.
//!   Exceptions are typed: `reason=derived: ...` or `reason=transient: ...`.
//! * **bounded-state** — a growable collection field (`Vec`, `VecDeque`,
//!   `BTreeMap`, `BTreeSet`, `BinaryHeap`, `canal_net::FlatTable`) that the
//!   owning struct's
//!   `&mut self` methods grow must carry bound evidence: a shrink call on
//!   the same field, a cap const / cap field, or an eviction counter.
//! * **seed-dataflow** — any lib fn in a determinism crate whose body
//!   calls `SimRng::seed` must receive a `SimRng` in its signature, or be
//!   reachable only from in-file callers that do (the seed then derives
//!   from the caller's stream, e.g. `rng.fork(salt)` wrappers).
//! * **wide-export** — a `pub` item of a library target (free fn, inherent
//!   method, const, struct, enum, trait, type alias), or a named `pub`
//!   field of a `pub` struct, that no file outside its crate names: not
//!   another crate, nor a compilation unit of its own (`tests/`,
//!   `examples/`, binaries, `benchmark/`, read as callers only). A type a
//!   kept item names, and the owner of a kept method or field, stay `pub`
//!   with it (the leak closure, run to a fixpoint); a field of a struct
//!   that is itself too wide is left to the struct's finding. Masked code
//!   counts (comments and strings do not), and a `pub use` re-export does
//!   not. Trait-impl methods cannot carry `pub`. Names resolve by name, so
//!   the rule cannot flag what the compiler keeps; once an item or field
//!   is `pub(crate)`, rustc's `dead_code` (denied) judges whether it is
//!   used.
//! * **fold-only** — a field of a library struct whose every read outside
//!   `#[cfg(test)]` sits in a `fn fold` body. rustc counts a fold's read
//!   as a use, so such a field moves digests and no behaviour. The reads
//!   are searched where privacy lets them be: the field's file for a
//!   private field, its crate for a restricted one (`pub` fields of `pub`
//!   structs are `wide-export`'s). A field the fold hands to a `count` or
//!   `scope` leaf is seen by `Stats` readers and is exempt. Names resolve
//!   by name, so a field sharing its name with anything read in scope is
//!   not flagged.

use crate::lexer::LexedFile;
use crate::parser::{ExportDef, FileSyntax, FnDef, StructDef, Vis};
use crate::rules::{self, TargetKind};
use crate::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// One scanned file, lexed and parsed, with its workspace classification.
pub(crate) struct FileRecord {
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
    pub(crate) fn new(crate_ident: &str, kind: TargetKind, lexed: &LexedFile) -> Self {
        FileRecord {
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
pub(crate) struct SymbolGraph<'a> {
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
    pub(crate) fn build(records: &'a [FileRecord]) -> Self {
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

    fn has_mut_state(&self, id: StructId) -> bool {
        !self.structs[id.0].def.fields.is_empty()
            && self.methods_of(id).any(|f| f.takes_mut_self)
    }

    /// Struct ids reachable from any `fold` root via field edges.
    fn digest_reachable(&self) -> BTreeSet<StructId> {
        let mut reached: BTreeSet<StructId> = BTreeSet::new();
        let mut stack: Vec<StructId> = (0..self.structs.len())
            .map(StructId)
            .filter(|id| self.methods_of(*id).any(is_fold))
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
/// `callers` are files read only for the names they use (`wide-export`).
pub(crate) fn graph_findings(
    records: &[FileRecord],
    callers: &[FileSyntax],
) -> Vec<(usize, Finding)> {
    let graph = SymbolGraph::build(records);
    let mut out = Vec::new();
    digest_coverage(&graph, &mut out);
    bounded_state(&graph, &mut out);
    seed_dataflow(records, &mut out);
    wide_export(records, callers, &mut out);
    fold_only(records, &mut out);
    out
}

/// The `pub` items of library targets outside `#[cfg(test)]`, by record
/// index: what `wide-export` checks and the report counts. `fn main` is a
/// binary's entry point wherever it sits.
pub(crate) fn exported_items(records: &[FileRecord]) -> impl Iterator<Item = (usize, &ExportDef)> {
    records.iter().enumerate().flat_map(|(rec, r)| {
        let live = move |e: &&ExportDef| {
            r.kind == TargetKind::Lib && !r.line_in_test(e.line) && e.name != "main"
        };
        r.syntax.exports.iter().filter(live).map(move |e| (rec, e))
    })
}

/// Whether `name` is named inside lines `start..=end` of `record`.
fn names_within(record: &FileRecord, name: &str, start: usize, end: usize) -> bool {
    record.syntax.refs.get(name).is_some_and(|lines| lines.iter().any(|l| (start..=end).contains(l)))
}

fn wide_export(records: &[FileRecord], callers: &[FileSyntax], out: &mut Vec<(usize, Finding)>) {
    let items: Vec<(usize, &ExportDef)> = exported_items(records).collect();
    let names: BTreeSet<&str> = items.iter().map(|(_, e)| e.name.as_str()).collect();
    // Name -> the units naming it: the crate of a library file, or `None`
    // for a file that compiles as a crate of its own (tests, examples,
    // binaries, the benchmark). Type -> the units building it with struct
    // update syntax, which needs every field of the type visible to them.
    let mut named_by: BTreeMap<&str, BTreeSet<Option<&str>>> = BTreeMap::new();
    let mut updated_by: BTreeMap<&str, BTreeSet<Option<&str>>> = BTreeMap::new();
    let units = records
        .iter()
        .map(|r| ((r.kind == TargetKind::Lib).then_some(r.crate_ident.as_str()), &r.syntax));
    for (unit, syntax) in units.chain(callers.iter().map(|s| (None, s))) {
        for name in syntax.refs.keys().filter_map(|n| names.get(n.as_str())) {
            named_by.entry(name).or_default().insert(unit);
        }
        for ty in &syntax.updates {
            updated_by.entry(ty.as_str()).or_default().insert(unit);
        }
    }
    let crate_of = |rec: usize| records[rec].crate_ident.as_str();
    let outside = |rec: usize, units: Option<&BTreeSet<Option<&str>>>| {
        units.into_iter().flatten().any(|&unit| unit != Some(crate_of(rec)))
    };
    let mut kept: Vec<bool> = items
        .iter()
        .map(|&(rec, e)| {
            outside(rec, named_by.get(e.name.as_str()))
                || e.keyword == "field"
                    && e.owner.as_deref().is_some_and(|o| outside(rec, updated_by.get(o)))
        })
        .collect();
    // The leak closure: a type a kept item of its crate names, or a type
    // with a kept method, is part of that item's interface.
    loop {
        let leaked: Vec<usize> = (0..items.len())
            .filter(|&i| !kept[i] && matches!(items[i].1.keyword, "struct" | "enum" | "trait" | "type"))
            .filter(|&i| {
                let (rec, ty) = items[i];
                items.iter().zip(&kept).any(|(&(by, item), &is_kept)| {
                    is_kept
                        && crate_of(by) == crate_of(rec)
                        && (item.owner.as_deref() == Some(ty.name.as_str())
                            || names_within(&records[by], &ty.name, item.line, item.end))
                })
            })
            .collect();
        if leaked.is_empty() {
            break;
        }
        leaked.into_iter().for_each(|i| kept[i] = true);
    }
    // A field of a struct that is too wide itself goes with the struct.
    let owner_kept = |rec: usize, owner: &str| {
        items.iter().zip(&kept).any(|(&(by, e), &k)| k && e.keyword == "struct" && e.name == owner && crate_of(by) == crate_of(rec))
    };
    for (&(rec, item), _) in items.iter().zip(&kept).filter(|(_, kept)| !**kept) {
        if item.keyword == "field" && !item.owner.as_deref().is_some_and(|o| owner_kept(rec, o)) {
            continue;
        }
        out.push((
            rec,
            Finding {
                rule: "wide-export",
                line: item.line,
                message: format!(
                    "`pub {} {}` is named by no file outside `{}`; make it `pub(crate)` (rustc's dead_code then judges whether it is used)",
                    item.keyword,
                    item.path(),
                    crate_of(rec)
                ),
            },
        ));
    }
}

/// A type's one walk: `fn fold` taking a `Fold` sink.
fn is_fold(f: &FnDef) -> bool {
    f.name == "fold" && f.sig_idents.contains("Fold")
}

fn fold_only(records: &[FileRecord], out: &mut Vec<(usize, Finding)>) {
    let lib = |r: &&FileRecord| r.kind == TargetKind::Lib;
    for (rec, r) in records.iter().enumerate().filter(|(_, r)| lib(r)) {
        for def in r.syntax.structs.iter().filter(|d| !r.line_in_test(d.line)) {
            'field: for field in &def.fields {
                let scope: Vec<&FileRecord> = match field.vis {
                    Vis::Public if def.public => continue,
                    Vis::Private => vec![r],
                    _ => records.iter().filter(lib).filter(|o| o.crate_ident == r.crate_ident).collect(),
                };
                let (mut in_fold, mut elsewhere) = (false, false);
                for s in scope {
                    let folds: Vec<&FnDef> =
                        s.syntax.fns.iter().filter(|f| is_fold(f) && !s.line_in_test(f.line)).collect();
                    if folds.iter().any(|f| f.body.leaf_args.contains(&field.name)) {
                        continue 'field;
                    }
                    let reads = s.syntax.reads.get(&field.name).into_iter().flatten();
                    for &line in reads.filter(|&&l| !s.line_in_test(l)) {
                        if folds.iter().any(|f| (f.line..=f.end).contains(&line)) {
                            in_fold = true;
                        } else {
                            elsewhere = true;
                        }
                    }
                }
                if in_fold && !elsewhere {
                    out.push((
                        rec,
                        Finding {
                            rule: "fold-only",
                            line: field.line,
                            message: format!(
                                "`{}::{}` is read only by `fn fold` bodies: it moves digests and no behaviour; delete it, or fold it as a `count` leaf if it is a tally worth reading",
                                def.name, field.name
                            ),
                        },
                    ));
                }
            }
        }
    }
}

fn digest_coverage(graph: &SymbolGraph<'_>, out: &mut Vec<(usize, Finding)>) {
    let reachable = graph.digest_reachable();
    for (idx, entry) in graph.structs.iter().enumerate() {
        let id = StructId(idx);
        let name = entry.def.name.as_str();
        // The sinks are the mechanism, not simulation state.
        let sink = ["Digest", "Stats"].contains(&name);
        let uncovered = !sink && graph.has_mut_state(id) && !reachable.contains(&id);
        if uncovered && graph.in_digest_scope(id) {
            out.push((
                entry.rec,
                Finding {
                    rule: "digest-coverage",
                    line: entry.def.line,
                    message: format!(
                        "mutable-state struct `{name}` is not reachable from any `fold(&self, f: &mut impl Fold)`; fold it or allow-list it as reason=derived:/transient: state"
                    ),
                },
            ));
        }
    }
    // A struct's fold names every field (an enum's `match self` already
    // does): rustc then rejects a fold that misses one.
    for (&(crate_ident, owner), fns) in &graph.methods {
        let Some(&id) = graph.by_crate_name.get(&(crate_ident, owner)) else {
            continue;
        };
        for &(rec, f) in fns {
            let r = &graph.records[rec];
            if !is_fold(f) || r.kind != TargetKind::Lib || r.line_in_test(f.line) {
                continue;
            }
            let problem = match &f.body.self_pattern {
                None => "does not destructure `Self`".to_string(),
                Some(pattern) if pattern.windows(2).any(|w| w == [".", "."]) => {
                    let fields = graph.structs[id.0].def.fields.iter().map(|f| f.name.as_str());
                    let hidden: Vec<&str> = fields.filter(|n| !pattern.iter().any(|t| t == n)).collect();
                    format!("hides `{}` behind `..`", hidden.join("`, `"))
                }
                Some(_) => continue,
            };
            out.push((
                rec,
                Finding {
                    rule: "digest-coverage",
                    line: f.line,
                    message: format!(
                        "`{owner}::fold` {problem}; open it with `let Self {{ a, b, c: _ }} = self;` naming every field (one it does not fold as `name: _`, with its reason), so that rustc rejects a fold that misses a field"
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
                for op in m.body.field_ops.iter().filter(|op| op.field == field.name) {
                    grown |= GROW_METHODS.contains(&op.method.as_str());
                    shrunk |= SHRINK_METHODS.contains(&op.method.as_str());
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

    fn record(crate_ident: &str, kind: TargetKind, src: &str) -> FileRecord {
        FileRecord::new(crate_ident, kind, &lex(src))
    }

    fn rules_fired(findings: &[(usize, Finding)]) -> Vec<&'static str> {
        let mut ids: Vec<&'static str> = findings.iter().map(|(_, f)| f.rule).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    #[test]
    fn uncovered_mutable_struct_fires_digest_coverage() {
        let src = "struct Tracker { count: u64 }\nimpl Tracker {\n    fn bump(&mut self) { self.count += 1; }\n}\n";
        let recs = vec![record("canal_sim", TargetKind::Lib, src)];
        let f = graph_findings(&recs, &[]);
        assert_eq!(rules_fired(&f), vec!["digest-coverage"]);
        assert_eq!(f[0].1.line, 1);
    }

    #[test]
    fn fold_or_containment_covers_structs() {
        let direct = "struct Covered { count: u64 }\nimpl Covered {\n    fn bump(&mut self) { self.count += 1; }\n    fn fold(&self, f: &mut impl Fold) { let Self { count } = self; f.write_u64(*count); }\n}\n";
        let contained = "struct Inner { v: u64 }\nimpl Inner { fn set(&mut self, v: u64) { self.v = v; } }\nstruct Outer { inner: Inner }\nimpl Outer {\n    fn touch(&mut self) { self.inner.set(1); }\n    fn fold(&self, f: &mut impl Fold) { let Self { inner } = self; f.write_u64(inner.v); }\n}\n";
        for src in [direct, contained] {
            let recs = vec![record("canal_sim", TargetKind::Lib, src)];
            let f = graph_findings(&recs, &[]);
            assert!(
                !f.iter().any(|(_, f)| f.rule == "digest-coverage"),
                "{:?}",
                f.iter().map(|(_, f)| f.message.clone()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn containment_reaches_across_files() {
        let inner = "struct Child { v: u64 }\nimpl Child { fn set(&mut self, v: u64) { self.v = v; } }\n";
        let outer = "struct Parent { child: Child }\nimpl Parent { fn fold(&self, f: &mut impl Fold) { let Self { child } = self; f.write_u64(child.v); } }\n";
        let recs = vec![
            record("canal_sim", TargetKind::Lib, inner),
            record("canal_sim", TargetKind::Lib, outer),
        ];
        let f = graph_findings(&recs, &[]);
        assert!(!f.iter().any(|(_, f)| f.rule == "digest-coverage"));
    }

    /// `(line, message)` of every digest-coverage finding.
    fn coverage(src: &str) -> Vec<(usize, String)> {
        let recs = vec![record("canal_control", TargetKind::Lib, src)];
        let f = graph_findings(&recs, &[]);
        f.into_iter().filter(|(_, f)| f.rule == "digest-coverage").map(|(_, f)| (f.line, f.message)).collect()
    }

    #[test]
    fn a_struct_fold_must_name_every_field() {
        // No destructure at all: a field the fold skips would go unnoticed.
        let bare = "struct Ctl { version: u64, last_good: u64 }\nimpl Ctl {\n    fn fold(&self, f: &mut impl Fold) {\n        f.write_u64(self.version);\n    }\n}\n";
        let found = coverage(bare);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].0, 3);
        assert!(found[0].1.contains("does not destructure"));
        // `..` hides the unfolded `last_good` from rustc; the finding names it.
        let rest = "struct Ctl { version: u64, last_good: u64 }\nimpl Ctl {\n    fn fold(&self, f: &mut impl Fold) {\n        let Self { version, .. } = self;\n        f.write_u64(*version);\n    }\n}\n";
        let found = coverage(rest);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].1.contains("hides `last_good` behind `..`"), "{found:?}");
        // The same fold in a test module is not library code.
        assert_eq!(coverage(&format!("#[cfg(test)]\nmod tests {{\n{bare}}}\n")), []);
    }

    #[test]
    fn exhaustive_struct_and_enum_folds_pass() {
        let named = "struct Ctl { version: u64, last_good: u64 }\nimpl Ctl {\n    fn fold(&self, f: &mut impl Fold) {\n        let Self { version, last_good: _ } = self;\n        f.write_u64(*version);\n    }\n}\n";
        let tuple = "struct Pair(u64, u64);\nimpl Pair {\n    fn fold(&self, f: &mut impl Fold) {\n        let Self(a, b) = self;\n        f.write_u64(*a).write_u64(*b);\n    }\n}\n";
        let by_match = "enum Phase { Idle, Busy(u64) }\nimpl Phase {\n    fn fold(&self, f: &mut impl Fold) {\n        match self {\n            Phase::Idle => f.write_u64(0),\n            Phase::Busy(n) => f.write_u64(*n),\n        };\n    }\n}\n";
        for src in [named, tuple, by_match] {
            assert_eq!(coverage(src), [], "{src}");
        }
    }

    #[test]
    fn unbounded_growth_fires_bounded_state() {
        let src = "struct Log { entries: Vec<u64> }\nimpl Log {\n    fn add(&mut self, v: u64) { self.entries.push(v); }\n    fn fold(&self, f: &mut impl Fold) { let Self { entries } = self; f.write_u64(entries.len() as u64); }\n}\n";
        let recs = vec![record("canal_telemetry", TargetKind::Lib, src)];
        let f = graph_findings(&recs, &[]);
        assert_eq!(rules_fired(&f), vec!["bounded-state"]);
    }

    #[test]
    fn growth_through_a_closure_parameter_fires_bounded_state() {
        let src = "struct Totals { values: BTreeMap<String, u64> }\nimpl Totals {\n    fn count(&mut self, v: u64) { self.with(|s| *s.values.entry(String::new()).or_default() += v); }\n    fn with(&mut self, body: impl FnOnce(&mut Self)) { body(self); }\n    fn fold(&self, f: &mut impl Fold) { let Self { values } = self; f.write_u64(values.len() as u64); }\n}\n";
        let recs = vec![record("canal_telemetry", TargetKind::Lib, src)];
        let f = graph_findings(&recs, &[]);
        assert_eq!(rules_fired(&f), vec!["bounded-state"]);
    }

    #[test]
    fn caps_counters_and_shrink_paths_bound_state() {
        let cap_const = "struct Log { entries: Vec<u64> }\nimpl Log {\n    const MAX_ENTRIES: usize = 64;\n    fn add(&mut self, v: u64) { self.entries.push(v); }\n    fn fold(&self, f: &mut impl Fold) { f.write_u64(0); }\n}\n";
        let evict_field = "struct Log { entries: Vec<u64>, evicted: u64 }\nimpl Log {\n    fn add(&mut self, v: u64) { self.entries.push(v); }\n    fn fold(&self, f: &mut impl Fold) { f.write_u64(self.evicted); }\n}\n";
        let shrink = "struct Log { entries: VecDeque<u64> }\nimpl Log {\n    fn add(&mut self, v: u64) { self.entries.push_back(v); self.entries.pop_front(); }\n    fn fold(&self, f: &mut impl Fold) { f.write_u64(0); }\n}\n";
        for src in [cap_const, evict_field, shrink] {
            let recs = vec![record("canal_telemetry", TargetKind::Lib, src)];
            let f = graph_findings(&recs, &[]);
            assert!(
                !f.iter().any(|(_, f)| f.rule == "bounded-state"),
                "{:?}",
                f.iter().map(|(_, f)| f.message.clone()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn seed_dataflow_requires_simrng_in_signature_or_callers() {
        let bad = "fn plan() -> u64 {\n    let mut rng = SimRng::seed(7);\n    rng.next()\n}\n";
        let recs = vec![record("canal_sim", TargetKind::Lib, bad)];
        assert_eq!(rules_fired(&graph_findings(&recs, &[])), vec!["seed-dataflow"]);

        let direct = "fn plan(rng: &mut SimRng) -> u64 {\n    let mut sub = SimRng::seed(rng.next());\n    sub.next()\n}\n";
        let recs = vec![record("canal_sim", TargetKind::Lib, direct)];
        assert!(graph_findings(&recs, &[]).is_empty());

        let transitive = "fn derive(salt: u64) -> SimRng {\n    SimRng::seed(salt)\n}\nfn plan(rng: &mut SimRng) -> u64 {\n    derive(rng.next()).next()\n}\n";
        let recs = vec![record("canal_sim", TargetKind::Lib, transitive)];
        assert!(graph_findings(&recs, &[]).is_empty());
    }

    #[test]
    fn seed_dataflow_spares_tests_bins_and_simrng_itself() {
        let src = "fn plan() -> u64 { let mut r = SimRng::seed(7); r.next() }\n";
        let recs = vec![record("canal_sim", TargetKind::Bin, src)];
        assert!(graph_findings(&recs, &[]).is_empty());
        let recs = vec![record("canal_bench", TargetKind::Lib, src)];
        assert!(graph_findings(&recs, &[]).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    fn f() { let r = SimRng::seed(7); }\n}\n";
        let recs = vec![record("canal_sim", TargetKind::Lib, in_test)];
        assert!(graph_findings(&recs, &[]).is_empty());
        let fork = "impl SimRng {\n    fn fork(&mut self, salt: u64) -> SimRng { SimRng::seed(self.next() ^ salt) }\n}\n";
        let recs = vec![record("canal_sim", TargetKind::Lib, fork)];
        assert!(graph_findings(&recs, &[]).is_empty());
    }

    /// `(record, line)` of every wide-export finding.
    fn wide(records: &[FileRecord], callers: &[FileSyntax]) -> Vec<(usize, usize)> {
        graph_findings(records, callers)
            .into_iter()
            .filter(|(_, f)| f.rule == "wide-export")
            .map(|(rec, f)| (rec, f.line))
            .collect()
    }

    const EXPORTED: &str = "pub fn exported() -> u64 {\n    1\n}\n";

    fn sim(src: &str) -> FileRecord {
        record("canal_sim", TargetKind::Lib, src)
    }

    fn net(src: &str) -> FileRecord {
        record("canal_net", TargetKind::Lib, src)
    }

    #[test]
    fn wide_export_never_flags_trait_impl_methods() {
        let src = "pub struct Meters(u64);\nimpl std::fmt::Display for Meters {\n    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {\n        write!(f, \"{}\", self.0)\n    }\n}\n";
        let user = "fn show(m: canal_sim::Meters) -> String {\n    m.to_string()\n}\n";
        assert_eq!(wide(&[sim(src), net(user)], &[]), []);
    }

    #[test]
    fn wide_export_never_flags_main_or_binaries() {
        let bin = "pub fn helper() -> u64 {\n    1\n}\nfn main() {}\n";
        let recs = vec![record("canal_sim", TargetKind::Bin, bin), sim("pub fn main() {}\n")];
        assert_eq!(wide(&recs, &[]), []);
    }

    #[test]
    fn wide_export_counts_tests_examples_binaries_and_benchmark_as_outside() {
        assert_eq!(wide(&[sim(EXPORTED)], &[]), [(0, 1)]);
        let call = "fn run() -> u64 {\n    canal_sim::exported()\n}\n";
        for kind in [TargetKind::Test, TargetKind::Example, TargetKind::Bin] {
            let recs = vec![sim(EXPORTED), record("canal_sim", kind, call)];
            assert_eq!(wide(&recs, &[]), [], "{kind:?}");
        }
        let benchmark = crate::parser::parse(&lex(call));
        assert_eq!(wide(&[sim(EXPORTED)], &[benchmark]), []);
    }

    #[test]
    fn wide_export_flags_an_item_only_its_own_crate_names() {
        let call = "fn run() -> u64 {\n    exported()\n}\n";
        assert_eq!(wide(&[sim(EXPORTED), sim(call)], &[]), [(0, 1)]);
        assert_eq!(wide(&[sim(EXPORTED), net(call)], &[]), []);
    }

    #[test]
    fn wide_export_keeps_the_types_a_kept_item_leaks() {
        let caller = net("fn f() -> u64 {\n    canal_sim::make().v\n}\n");
        let knob = "pub struct Knob {\n    pub v: u64,\n}\nimpl Knob {\n    fn new() -> Knob {\n        Knob { v: 1 }\n    }\n}\n";
        let with_maker = format!("{knob}pub fn make() -> Knob {{\n    Knob::new()\n}}\n");
        assert_eq!(wide(&[sim(&with_maker), caller], &[]), []);
        // Once `make` is gone, only Knob's own crate names it.
        assert_eq!(wide(&[sim(knob)], &[]), [(0, 1)]);
        // A kept method keeps its owner.
        let gauge = "pub struct Gauge(u64);\nimpl Gauge {\n    pub fn reading(&self) -> u64 {\n        self.0\n    }\n}\n";
        let reader = net("fn f(g: &G) -> u64 {\n    g.reading()\n}\n");
        assert_eq!(wide(&[sim(gauge), reader], &[]), []);
    }

    const KNOB: &str = "pub struct Knob {\n    pub width: u64,\n    pub depth: u64,\n}\n";

    #[test]
    fn wide_export_judges_the_fields_of_a_kept_struct() {
        // `width` is read outside the crate, `depth` is not.
        let reader = net("fn f(k: canal_sim::Knob) -> u64 {\n    k.width\n}\n");
        assert_eq!(wide(&[sim(KNOB), reader], &[]), [(0, 3)]);
        // A struct too wide itself is one finding, not one per field.
        assert_eq!(wide(&[sim(KNOB)], &[]), [(0, 1)]);
        // Struct update syntax outside the crate needs every field visible.
        let builder = net("fn f() -> canal_sim::Knob {\n    canal_sim::Knob { width: 1, ..Default::default() }\n}\n");
        assert_eq!(wide(&[sim(KNOB), builder], &[]), []);
        // The same syntax inside the crate keeps nothing.
        let inside = sim("fn f() -> Knob {\n    Knob { width: 1, ..Default::default() }\n}\n");
        let reader = net("fn f(k: canal_sim::Knob) -> u64 {\n    k.width\n}\n");
        assert_eq!(wide(&[sim(KNOB), inside, reader], &[]), [(0, 3)]);
    }

    /// `(record, line)` of every fold-only finding.
    fn fold_only(records: &[FileRecord]) -> Vec<(usize, usize)> {
        let findings = graph_findings(records, &[]).into_iter().filter(|(_, f)| f.rule == "fold-only");
        findings.map(|(rec, f)| (rec, f.line)).collect()
    }

    const LEDGER: &str = "struct Ledger {\n    last: u64,\n    n: u64,\n}\nimpl Ledger {\n    fn record(&mut self, v: u64) {\n        self.last = v;\n        self.n += 1;\n    }\n    fn fold(&self, f: &mut impl Fold) {\n        let Self { last, n } = self;\n        f.write_u64(*last).count(\"n\", *n);\n    }\n}\n";

    #[test]
    fn fold_only_flags_a_field_only_folds_read() {
        // `n` goes to a `count` leaf; `last` only to the digest.
        assert_eq!(fold_only(&[sim(LEDGER)]), [(0, 2)]);
        // A method that reads `last` clears it; a test that does, does not.
        let read = LEDGER.replace("    fn fold", "    fn last(&self) -> u64 {\n        self.last\n    }\n    fn fold");
        assert_eq!(fold_only(&[sim(&read)]), []);
        let tested = format!("{LEDGER}#[cfg(test)]\nmod tests {{\n    fn t(l: &Ledger) -> u64 {{\n        l.last\n    }}\n}}\n");
        assert_eq!(fold_only(&[sim(&tested)]), [(0, 2)]);
    }

    #[test]
    fn fold_only_searches_where_privacy_lets_a_field_be_read() {
        let reader = sim("fn f(l: &Ledger) -> u64 {\n    l.last\n}\n");
        // A private field is read in its own file only.
        assert_eq!(fold_only(&[sim(LEDGER), reader]), [(0, 2)]);
        // A restricted one anywhere in its crate, but not in another crate.
        let restricted = LEDGER.replace("    last: u64", "    pub(crate) last: u64");
        let reader = sim("fn f(l: &Ledger) -> u64 {\n    l.last\n}\n");
        assert_eq!(fold_only(&[sim(&restricted), reader]), []);
        let elsewhere = net("fn f(l: &Ledger) -> u64 {\n    l.last\n}\n");
        assert_eq!(fold_only(&[sim(&restricted), elsewhere]), [(0, 2)]);
        // A `pub` field of a `pub` struct is wide-export's to judge.
        let public = restricted.replace("pub(crate) last", "pub last").replace("struct Ledger", "pub struct Ledger");
        assert_eq!(fold_only(&[sim(&public)]), []);
    }
}
