//! Rule definitions: what is forbidden where.
//!
//! Three families (see DESIGN.md "Determinism contract & lint rules"):
//!
//! * **determinism** — simulation-facing crates must not read wall clocks,
//!   ambient randomness, or iterate unordered maps; all of those make a
//!   seeded run irreproducible.
//! * **layering** — the crate-dependency DAG is declared here and checked
//!   against both `use canal_*` statements and `Cargo.toml`; stdout belongs
//!   to `canal-bench` and binaries only.
//! * **panic policy** — library code must not `unwrap`/`expect`/`panic!`
//!   outside `#[cfg(test)]`; deliberate exceptions carry a
//!   `// lint:allow(panic) reason=...` annotation.
//! * **state discipline** (graph-aware, see [`crate::graph`]) —
//!   `digest-coverage`, `bounded-state` and `seed-dataflow` run over the
//!   parsed symbol graph rather than per-line patterns; their scope
//!   constants ([`DIGEST_CRATES`]) and docs ([`RULE_DOCS`]) live here.

/// What kind of compilation target a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetKind {
    /// Crate library source (`src/`, excluding `src/bin/` and `main.rs`).
    Lib,
    /// Binary source (`src/bin/`, `src/main.rs`).
    Bin,
    /// `examples/`.
    Example,
    /// Integration tests (`tests/`).
    Test,
    /// `benches/`.
    Bench,
}

/// Crates whose long-lived mutable state participates in the determinism
/// digest: the `digest-coverage` and `bounded-state` rules police struct
/// state here. A subset of [`DETERMINISM_CRATES`] — the facade and the
/// codec and workload crates hold no cross-event state of their own;
/// `canal_net` does (session tables, the flat table under them, token
/// buckets, connection state).
pub const DIGEST_CRATES: &[&str] = &[
    "canal_sim",
    "canal_net",
    "canal_control",
    "canal_gateway",
    "canal_telemetry",
    "canal_policy",
];

/// Crates whose behaviour feeds the deterministic simulator. Wall clocks,
/// ambient RNG and unordered-map iteration are forbidden here.
pub const DETERMINISM_CRATES: &[&str] = &[
    "canal_sim",
    "canal_net",
    "canal_http",
    "canal_crypto",
    "canal_cluster",
    "canal_policy",
    "canal_mesh",
    "canal_telemetry",
    "canal_gateway",
    "canal_control",
    "canal_workload",
    "canal", // the root facade/testbed
];

/// The declared internal dependency DAG: `(crate, allowed internal deps)`.
/// `canal-lint` depends on nothing; `canal-sim` and `bytes` are the only
/// leaves everyone may sit on. Additions here are an architecture decision —
/// keep the graph acyclic and shallow.
pub const LAYERING_DAG: &[(&str, &[&str])] = &[
    ("bytes", &[]),
    ("canal_sim", &[]),
    ("canal_lint", &[]),
    ("canal_net", &["canal_sim", "bytes"]),
    ("canal_http", &["bytes"]),
    ("canal_crypto", &["canal_sim", "canal_net", "bytes"]),
    ("canal_cluster", &["canal_sim", "canal_net"]),
    // The policy plane compiles specs over net-layer addresses/identities;
    // it must not know about HTTP types — both datapaths adapt to it.
    ("canal_policy", &["canal_sim", "canal_net"]),
    ("canal_workload", &["canal_sim"]),
    ("canal_telemetry", &["canal_sim", "canal_net"]),
    (
        "canal_gateway",
        &[
            "canal_sim",
            "canal_net",
            "canal_cluster",
            // Fail-static ActivePolicy: the gateway L7 path is one of the
            // two policy enforcement points.
            "canal_policy",
            // The gateway terminates mTLS for its tenants (§4.1.3), so the
            // cert-bundle fail-static pair and the typed handshake-fault
            // bridge need the crypto lifecycle types.
            "canal_crypto",
            "canal_telemetry",
            "bytes",
        ],
    ),
    (
        "canal_mesh",
        &[
            "canal_sim",
            "canal_net",
            "canal_http",
            "canal_crypto",
            "canal_cluster",
            // The node L4 filter and the per-route authz check both
            // evaluate the compiled policy tables.
            "canal_policy",
            "bytes",
        ],
    ),
    (
        "canal_control",
        &[
            "canal_sim",
            "canal_net",
            "canal_cluster",
            "canal_gateway",
            "canal_mesh",
            "canal_telemetry",
            "canal_workload",
        ],
    ),
    (
        "canal_bench",
        &[
            "canal_sim",
            "canal_net",
            "canal_http",
            "canal_crypto",
            "canal_cluster",
            "canal_policy",
            "canal_gateway",
            "canal_mesh",
            "canal_telemetry",
            "canal_control",
            "canal_workload",
            "bytes",
        ],
    ),
    (
        "canal",
        &[
            "canal_sim",
            "canal_net",
            "canal_http",
            "canal_crypto",
            "canal_cluster",
            "canal_policy",
            "canal_gateway",
            "canal_mesh",
            "canal_telemetry",
            "canal_control",
            "canal_workload",
            "bytes",
        ],
    ),
];

/// Internal deps additionally allowed in test targets (`tests/` dirs and
/// `#[cfg(test)]`): the root crate's test suite drives the linter itself.
pub const TEST_ONLY_DEPS: &[(&str, &[&str])] = &[("canal", &["canal_lint"])];

/// All rule ids, used to validate suppression annotations.
pub const RULE_IDS: &[&str] = &[
    "wallclock",
    "ambient-rng",
    "unordered-map",
    "layering",
    "stdout",
    "panic",
    "suppression",
    "global-state",
    "digest-coverage",
    "bounded-state",
    "seed-dataflow",
];

/// Documentation for one rule, served by `canal-lint --explain <rule>`.
pub struct RuleDoc {
    /// Rule id.
    pub id: &'static str,
    /// One-line summary (README table material).
    pub summary: &'static str,
    /// Why the rule exists — which paper/system invariant it protects.
    pub rationale: &'static str,
    /// How to annotate a deliberate exception.
    pub suppression: &'static str,
}

const SUPPRESS_PLAIN: &str =
    "// lint:allow(<rule>) reason=<why> on the offending line or the line above";

/// Rationale and suppression syntax per rule, in [`RULE_IDS`] order.
pub const RULE_DOCS: &[RuleDoc] = &[
    RuleDoc {
        id: "wallclock",
        summary: "no Instant::now/SystemTime::now in simulation-facing code",
        rationale: "Wall-clock reads make a seeded run irreproducible: the same seed must \
                    yield the same event timeline, so all time flows from canal_sim::SimTime \
                    virtual time. Only canal-bench's microbenchmarks measure the real clock.",
        suppression: SUPPRESS_PLAIN,
    },
    RuleDoc {
        id: "ambient-rng",
        summary: "no thread_rng/OsRng/from_entropy ambient randomness",
        rationale: "All randomness must derive from the experiment's single seed through \
                    canal_sim::SimRng; ambient entropy desynchronizes double runs and makes \
                    chaos/overload results unrepeatable.",
        suppression: SUPPRESS_PLAIN,
    },
    RuleDoc {
        id: "unordered-map",
        summary: "no HashMap/HashSet in deterministic library code",
        rationale: "Hash-ordered iteration depends on the hasher's random state, so any fold \
                    over it diverges between runs. BTreeMap/BTreeSet iterate in key order, \
                    which is what the digest discipline requires.",
        suppression: SUPPRESS_PLAIN,
    },
    RuleDoc {
        id: "layering",
        summary: "crate references and manifest deps must follow the declared DAG",
        rationale: "The dependency DAG (canal_lint::rules::LAYERING_DAG) is the architecture: \
                    gateway code must not reach into control, leaf crates stay leaves. The rule \
                    checks the parsed use-graph (aliases resolved) and every Cargo.toml.",
        suppression: SUPPRESS_PLAIN,
    },
    RuleDoc {
        id: "stdout",
        summary: "only canal-bench and binaries may print to stdout",
        rationale: "Library crates communicate through return values and metrics; stray prints \
                    corrupt experiment reports that are parsed from stdout and hide real output.",
        suppression: SUPPRESS_PLAIN,
    },
    RuleDoc {
        id: "panic",
        summary: "no unwrap/expect/panic! in library code outside tests",
        rationale: "A panic in mesh code is a blast-radius event: one tenant's bad input must \
                    not take down a shared gateway. Library code returns Result and lets the \
                    caller decide; tests may assert freely.",
        suppression: SUPPRESS_PLAIN,
    },
    RuleDoc {
        id: "suppression",
        summary: "lint:allow hygiene: known rule, reason given, actually used",
        rationale: "Exceptions must not rot: an allow with no reason, an unknown rule id, a \
                    digest-coverage allow without a derived:/transient: type, or an allow that \
                    no longer suppresses anything is itself a violation.",
        suppression: "not suppressible — fix the annotation it complains about",
    },
    RuleDoc {
        id: "global-state",
        summary: "no static mut/thread_local!/static OnceLock ambient global state",
        rationale: "Global mutable state survives across simulation runs in one process and \
                    escapes both the digest fold and the per-tenant isolation story: two \
                    back-to-back seeded runs would see different initial state. A OnceLock, \
                    OnceCell or LazyLock is that only in a `static` item; as a field of an \
                    owned struct it is dropped with its owner and the rule leaves it alone.",
        suppression: SUPPRESS_PLAIN,
    },
    RuleDoc {
        id: "digest-coverage",
        summary: "mutable structs in digest crates must be reachable from a fold_digest",
        rationale: "The double-run harness only proves determinism for state that reaches a \
                    digest. A struct mutated by &mut self methods but unreachable from every \
                    fold_digest impl — or a field mutated but missing from its own fold \
                    (the PR-5 last_good bug) — can silently diverge between runs.",
        suppression: "// lint:allow(digest-coverage) reason=derived: <why> (recomputable from \
                      folded state) or reason=transient: <why> (scratch state, reset per step)",
    },
    RuleDoc {
        id: "bounded-state",
        summary: "growable collection fields on long-lived structs must be bounded",
        rationale: "A Vec/VecDeque/BTreeMap that &mut self methods grow without a cap const, \
                    eviction counter, or shrink path is an OOM waiting for a million-pod run; \
                    bounded rings with eviction counters keep memory flat and observable.",
        suppression: SUPPRESS_PLAIN,
    },
    RuleDoc {
        id: "seed-dataflow",
        summary: "fns that seed a SimRng must take one from their callers",
        rationale: "Fault plans, jitter, sampling and wave selection must all be steered by \
                    the one experiment seed. A fn body calling SimRng::seed must receive a \
                    SimRng in its signature — directly or through the in-file callers that \
                    reach it — so private streams can only be forks of the caller's.",
        suppression: SUPPRESS_PLAIN,
    },
];

/// Look up the doc for a rule id.
pub fn rule_doc(id: &str) -> Option<&'static RuleDoc> {
    RULE_DOCS.iter().find(|d| d.id == id)
}

/// One textual pattern a rule searches for.
pub struct Pattern {
    /// Substring to find in masked code.
    pub needle: &'static str,
    /// Require a non-identifier character (or line start) before the match.
    pub boundary_before: bool,
    /// Require a non-identifier character (or line end) after the match.
    pub boundary_after: bool,
}

const fn tok(needle: &'static str) -> Pattern {
    Pattern {
        needle,
        boundary_before: true,
        boundary_after: false,
    }
}

const fn word(needle: &'static str) -> Pattern {
    Pattern {
        needle,
        boundary_before: true,
        boundary_after: true,
    }
}

const fn method(needle: &'static str) -> Pattern {
    Pattern {
        needle,
        boundary_before: false,
        boundary_after: false,
    }
}

/// Wall-clock reads: virtual time lives in `canal_sim::SimTime`.
pub const WALLCLOCK_PATTERNS: &[Pattern] = &[
    tok("Instant::now"),
    tok("SystemTime::now"),
    tok("std::time::Instant"),
    tok("std::time::SystemTime"),
];

/// Ambient (unseeded) randomness: all randomness flows through `SimRng`.
pub const AMBIENT_RNG_PATTERNS: &[Pattern] = &[
    tok("thread_rng"),
    tok("rand::random"),
    tok("from_entropy"),
    word("OsRng"),
    tok("getrandom"),
];

/// Unordered collections whose iteration order depends on the hasher.
pub const UNORDERED_MAP_PATTERNS: &[Pattern] = &[word("HashMap"), word("HashSet")];

/// Stdout belongs to `canal-bench` and binary targets; library crates
/// communicate through return values and metrics.
pub const STDOUT_PATTERNS: &[Pattern] = &[tok("println!"), tok("print!"), tok("dbg!")];

/// Ambient global state: survives across runs in one process, escapes the
/// digest fold, and undermines per-tenant isolation reasoning.
pub const GLOBAL_STATE_PATTERNS: &[Pattern] =
    &[tok("static mut"), tok("thread_local!"), tok("lazy_static!")];

/// Write-once cells, which are global state only as the type of a `static`
/// item (see [`declares_static`]): as a field they live and die with the
/// struct that owns them, like any other field.
pub const STATIC_CELL_PATTERNS: &[Pattern] =
    &[word("OnceLock"), word("OnceCell"), word("LazyLock")];

/// Whether `line` holds the `static` keyword of an item, as against the
/// `'static` lifetime.
pub fn declares_static(line: &str) -> bool {
    find_pattern(line, &word("static")).into_iter().any(|at| !line[..at].ends_with('\''))
}

/// Panicking constructs forbidden in library code outside `#[cfg(test)]`.
pub const PANIC_PATTERNS: &[Pattern] = &[
    method(".unwrap()"),
    method(".unwrap_err()"),
    method(".expect("),
    method(".expect_err("),
    tok("panic!("),
    tok("unreachable!("),
    tok("todo!("),
    tok("unimplemented!("),
];

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Find every occurrence of `pat` in `line` honouring boundary flags.
/// Returns byte offsets.
pub fn find_pattern(line: &str, pat: &Pattern) -> Vec<usize> {
    let mut hits = Vec::new();
    let mut from = 0usize;
    while let Some(rel) = line[from..].find(pat.needle) {
        let at = from + rel;
        let before_ok = !pat.boundary_before
            || line[..at].chars().next_back().is_none_or(|c| !is_ident_char(c));
        let end = at + pat.needle.len();
        let after_ok =
            !pat.boundary_after || line[end..].chars().next().is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            hits.push(at);
        }
        from = at + pat.needle.len();
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_reject_substrings_of_identifiers() {
        // `eprintln!` must not trip the `print!`/`println!` patterns.
        assert!(find_pattern("eprintln!(\"x\")", &tok("println!")).is_empty());
        assert!(find_pattern("eprintln!(\"x\")", &tok("print!")).is_empty());
        assert_eq!(find_pattern("println!(\"x\")", &tok("println!")), vec![0]);
        // `print!` is not found inside `println!`.
        assert!(find_pattern("println!(\"x\")", &tok("print!")).is_empty());
    }

    #[test]
    fn word_boundaries_both_sides() {
        assert!(find_pattern("MyHashMapLike", &word("HashMap")).is_empty());
        assert_eq!(find_pattern("use x::HashMap;", &word("HashMap")).len(), 1);
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        assert!(find_pattern("v.unwrap_or(0)", &method(".unwrap()")).is_empty());
        assert_eq!(find_pattern("v.unwrap()", &method(".unwrap()")).len(), 1);
    }

    #[test]
    fn every_rule_id_has_a_doc_and_vice_versa() {
        assert_eq!(RULE_IDS.len(), RULE_DOCS.len());
        for (id, doc) in RULE_IDS.iter().zip(RULE_DOCS) {
            assert_eq!(*id, doc.id, "RULE_DOCS must stay in RULE_IDS order");
            assert!(!doc.summary.is_empty() && !doc.rationale.is_empty());
        }
        assert!(rule_doc("digest-coverage").is_some());
        assert!(rule_doc("fault-seed").is_none(), "glob heuristic removed");
    }

    #[test]
    fn digest_crates_are_determinism_crates() {
        for c in DIGEST_CRATES {
            assert!(DETERMINISM_CRATES.contains(c), "{c}");
        }
    }

    #[test]
    fn dag_is_acyclic_and_closed() {
        // Every allowed dep must itself be declared, and a DFS from each
        // node must never revisit it (acyclicity).
        fn deps_of(name: &str) -> &'static [&'static str] {
            LAYERING_DAG
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, d)| *d)
                .unwrap_or(&[])
        }
        for (name, deps) in LAYERING_DAG {
            for d in *deps {
                assert!(
                    LAYERING_DAG.iter().any(|(n, _)| n == d),
                    "{name}: dep {d} not declared in DAG"
                );
            }
            let mut stack: Vec<&str> = deps_of(name).to_vec();
            while let Some(d) = stack.pop() {
                assert_ne!(d, *name, "cycle through {name}");
                stack.extend_from_slice(deps_of(d));
            }
        }
    }
}
