//! The lint pass runs in-process over this very workspace: the repository
//! must stay diagnostic-free, and the statically-extracted seed-tag registry
//! must agree with the runtime registry the collision test sweeps.

use std::collections::BTreeSet;
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    // crates/lint/../../ = the repository root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn the_workspace_lints_clean() {
    let report = mp_lint::run_workspace(&workspace_root()).expect("lint pass runs");
    assert!(
        report.clean(),
        "the workspace must lint clean; fix or `mp-lint: allow(...)` each finding:\n{}",
        report.render_text(true)
    );
    assert!(report.files_scanned > 50, "the walker found the workspace sources");
}

#[test]
fn static_registry_agrees_with_the_runtime_registry() {
    // mp-lint extracts `*_TAG` constants from source; the runtime exposes
    // them as `SEED_TAG_REGISTRY` for the collision sweep. The two views
    // must be the same set of (name, value) pairs, or one side has drifted.
    let report = mp_lint::run_workspace(&workspace_root()).expect("lint pass runs");
    let lint_view: BTreeSet<(String, u64)> = report
        .registry
        .iter()
        .map(|tag| (tag.name.clone(), tag.value.expect("registered tags parse")))
        .collect();
    let runtime_view: BTreeSet<(String, u64)> = parasite::experiments::SEED_TAG_REGISTRY
        .iter()
        .map(|(name, value)| (name.to_string(), *value))
        .collect();
    assert_eq!(
        lint_view, runtime_view,
        "statically-extracted seed tags diverge from parasite::experiments::SEED_TAG_REGISTRY"
    );
}

/// The lint report of a scratch workspace holding `files` (path, text), in
/// a directory named after `test` so that tests running at once do not share
/// one.
fn lint_scratch(test: &str, files: &[(&str, &str)]) -> mp_lint::LintReport {
    let root = std::env::temp_dir().join(format!("mp-lint-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for (rel, text) in [("Cargo.toml", "")].iter().chain(files) {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("a file has a parent")).expect("mkdir");
        std::fs::write(path, text).expect("scratch file is writable");
    }
    let report = mp_lint::run_workspace(&root).expect("lint pass runs");
    std::fs::remove_dir_all(&root).expect("scratch dir is removable");
    report
}

/// How many dead-pub findings a scratch workspace gets whose library item
/// `helper` is named only by the file at `user`.
fn dead_pub_with_user(user: &str) -> usize {
    let files = [
        ("crates/demo/src/lib.rs", "pub fn helper() {}\n"),
        (user, "fn main() {\n    demo::helper();\n}\n"),
    ];
    let report = lint_scratch("dead-pub", &files);
    report.diagnostics.iter().filter(|d| d.rule == mp_lint::rules::DEAD_PUB).count()
}

#[test]
fn dead_pub_counts_users_in_every_indexed_directory() {
    for user in [
        "perfbench/src/main.rs",
        "examples/demo.rs",
        "crates/demo/tests/it.rs",
        "crates/demo/benches/b.rs",
        "tests/it.rs",
        "crates/demo/src/bin/tool.rs",
    ] {
        assert_eq!(dead_pub_with_user(user), 0, "{user} uses the item");
    }
    // The rule fixtures are neither definitions nor uses.
    assert_eq!(dead_pub_with_user("crates/lint/tests/fixtures/x.rs"), 1);
}

#[test]
fn doc_sync_covers_the_flags_of_the_run_config_field_table() {
    // A config flag is declared only in the field table, not in the binary;
    // README must still document it.
    let table = "const FLAGS: [&str; 2] = [\"--seed\", \"--fleet-widgets\"];";
    let files = [
        ("README.md", "paper-report --seed <n>\n"),
        ("PROTOCOL.md", ""),
        ("crates/core/src/experiments/fields.rs", table),
    ];
    let report = lint_scratch("doc-sync", &files);
    let findings: Vec<(&str, &str)> =
        report.diagnostics.iter().map(|d| (d.file.as_str(), d.message.as_str())).collect();
    assert_eq!(
        findings,
        [(
            "crates/core/src/experiments/fields.rs",
            "CLI flag `--fleet-widgets` is not documented in README.md"
        )]
    );
}
