//! canal-lint wired into the test suite: `cargo test` fails when the
//! workspace violates the determinism contract, and the known-bad fixture
//! snippets double as a self-test that every rule family still fires.

use canal_lint::{rules, scan_fixture_dir, scan_workspace, workspace_root};

/// The whole workspace satisfies the determinism, layering and
/// panic-policy rules (modulo annotated `lint:allow` exceptions, each of
/// which must carry a reason — enforced by the scanner itself).
#[test]
fn workspace_is_lint_clean() {
    let report = scan_workspace(&workspace_root()).expect("scan workspace");
    assert!(
        report.clean(),
        "\ncanal-lint found violations — run `cargo run -p canal-lint` for the report:\n{}",
        report.render()
    );
    // Sanity: the scan actually covered the tree (not an empty walk from a
    // wrong root).
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
    assert!(
        report.manifests_checked >= 12,
        "suspiciously few manifests checked: {}",
        report.manifests_checked
    );
    // The suppression ratchet: a new `lint:allow` has to raise this number
    // in the same diff, and a deleted one should lower it.
    const MAX_SUPPRESSIONS: usize = 21;
    assert!(
        report.suppressed.len() <= MAX_SUPPRESSIONS,
        "{} lint:allow suppressions, the ratchet allows {MAX_SUPPRESSIONS}",
        report.suppressed.len()
    );
    // The export ratchet: a new `pub` item or field has to raise this
    // number in the same diff, and a narrowed or deleted one should lower
    // it. It also covers what `wide-export` cannot see: an item or field
    // whose name a file outside its crate uses for something else.
    const MAX_EXPORTS: usize = 1274;
    assert!(
        report.exports <= MAX_EXPORTS,
        "{} exported items, the ratchet allows {MAX_EXPORTS}",
        report.exports
    );
    // The wide-export caller scan read `benchmark/src` and `benchmark/tests`:
    // from a wrong root, every item only the benchmark names would look
    // too wide.
    assert!(
        report.caller_files >= 10,
        "the caller scan read {} benchmark file(s)",
        report.caller_files
    );
}

/// Every rule id fires on the fixture directory of known-bad snippets, so
/// a regression that silently disables a rule family turns the suite red.
#[test]
fn fixtures_trip_every_rule() {
    let dir = workspace_root().join("crates").join("lint").join("fixtures");
    let report = scan_fixture_dir(&dir).expect("scan fixtures");
    assert!(!report.clean(), "fixtures must produce violations");
    let fired = report.rules_fired();
    for rule in rules::RULE_IDS {
        assert!(
            fired.contains(rule),
            "rule `{rule}` did not fire on any fixture; fired: {fired:?}"
        );
    }
    // The well-formed suppression in the fixtures is honoured, proving the
    // allow-path works end to end.
    assert!(
        report.suppressed.iter().any(|s| s.rule == "panic"),
        "expected at least one honoured suppression in fixtures"
    );
    // The graph-aware rules fire on their dedicated fixture, not by
    // accident somewhere else — and the `last_good` fixture, a fold that
    // hides `last_good` behind `..`, trips the destructure check by name.
    let at = |rule: &str, file: &str| {
        report
            .violations
            .iter()
            .any(|v| v.rule == rule && v.file.contains(file))
    };
    assert!(at("digest-coverage", "digest_coverage.rs"));
    assert!(at("digest-coverage", "rollout_last_good.rs"));
    // bounded-state fires on both growth shapes of its fixture: through
    // `self`, and through a closure parameter the owner is handed to.
    let bounded_lines: Vec<usize> = report
        .violations
        .iter()
        .filter(|v| v.rule == "bounded-state" && v.file.contains("bounded_state.rs"))
        .map(|v| v.line)
        .collect();
    assert_eq!(bounded_lines, [6, 26]);
    assert!(at("seed-dataflow", "seed_dataflow.rs"));
    assert!(at("global-state", "global_state.rs"));
    // ... on its statics (`static mut`, `thread_local!`, a `static` `OnceLock`)
    // and not on the `OnceLock` field of an owned struct further down.
    let global_state_lines: Vec<usize> = report
        .violations
        .iter()
        .filter(|v| v.rule == "global-state" && v.file.contains("global_state.rs"))
        .map(|v| v.line)
        .collect();
    assert_eq!(global_state_lines, [4, 6, 11, 11]);
    // layering fires on the fixture manifest, on both of its edges: the
    // plain dependency table's and the target-specific table's.
    let layering_lines: Vec<usize> = report
        .violations
        .iter()
        .filter(|v| v.rule == "layering" && v.file == "layering.toml")
        .map(|v| v.line)
        .collect();
    assert_eq!(layering_lines, [8, 11]);
    // ambient-rng fires on both randomness draws and on both environment
    // reads, once each.
    let ambient_lines: Vec<usize> = report
        .violations
        .iter()
        .filter(|v| v.rule == "ambient-rng" && v.file.contains("ambient_rng.rs"))
        .map(|v| v.line)
        .collect();
    assert_eq!(ambient_lines, [5, 10, 14, 14]);
    // wide-export fires on its fixture only: the uncalled fn, the fn only
    // its tests call, the fn only a `pub use` names, the fn only its own
    // crate calls and the field no other crate names; not on the fn another
    // crate calls, the type only that fn's signature names, a trait-impl
    // method, the field another crate reads, or the fields of a struct
    // another crate builds with struct update syntax.
    let wide: Vec<(&str, usize)> = report
        .violations
        .iter()
        .filter(|v| v.rule == "wide-export")
        .map(|v| (v.file.as_str(), v.line))
        .collect();
    assert_eq!(
        wide,
        [
            ("wide_export.rs", 6),
            ("wide_export.rs", 11),
            ("wide_export.rs", 18),
            ("wide_export.rs", 26),
            ("wide_export.rs", 54)
        ]
    );
    // fold-only fires on the field only the fold reads, and not on the
    // one the fold hands to a `count` leaf or the one a method also reads.
    let fold_only: Vec<(&str, usize)> = report
        .violations
        .iter()
        .filter(|v| v.rule == "fold-only")
        .map(|v| (v.file.as_str(), v.line))
        .collect();
    assert_eq!(fold_only, [("fold_only.rs", 6)]);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.file.contains("rollout_last_good.rs") && v.message.contains("last_good")),
        "the destructure check must name the field `..` hides"
    );
}
