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
    // accident somewhere else — and the PR-5-shaped fixture trips the
    // field-fold prong by name.
    let at = |rule: &str, file: &str| {
        report
            .violations
            .iter()
            .any(|v| v.rule == rule && v.file.contains(file))
    };
    assert!(at("digest-coverage", "digest_coverage.rs"));
    assert!(at("digest-coverage", "rollout_last_good.rs"));
    assert!(at("bounded-state", "bounded_state.rs"));
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
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.file.contains("rollout_last_good.rs") && v.message.contains("last_good")),
        "the field-fold prong must name the unfolded field"
    );
}
