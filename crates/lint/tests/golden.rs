//! Golden-file coverage for the rule engine: every rule has one positive
//! fixture (expected diagnostics pinned in a `.expected` file) and one
//! `allow`-suppressed twin that must lint clean.

use mp_lint::rules;
use mp_lint::tokens;
use std::path::PathBuf;

/// Every rule's fixture stem. Positive and allowed variants live at
/// `fixtures/<stem>_positive.rs` and `fixtures/<stem>_allowed.rs`.
const FIXTURES: [&str; 7] = [
    "nondet_iter",
    "wallclock",
    "thread_spawn",
    "panic",
    "seed_tag",
    "doc_sync",
    "dead_pub",
];

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn read_fixture(name: &str) -> String {
    let path = fixture_dir().join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|error| panic!("fixture {} is readable: {error}", path.display()))
}

/// Runs the rule family named by `stem` over fixture source, exactly the way
/// `run_workspace` would dispatch the real file.
fn diagnostics_for(stem: &str, src: &str) -> Vec<rules::Diagnostic> {
    let file = tokens::tokenize(src);
    match stem {
        // The per-file rules see a non-library path so only the rule under
        // test can fire; `panic` uses a library-crate path so the
        // panic-discipline scope is active.
        "nondet_iter" | "wallclock" | "thread_spawn" => {
            rules::lint_file("crates/bench/src/fixture.rs", &file)
        }
        "panic" => rules::lint_file("crates/core/src/fixture.rs", &file),
        "seed_tag" => rules::check_tags(&rules::collect_tags("crates/core/src/fixture.rs", &file)),
        // The fixture is the only file, so nothing outside it names anything.
        "dead_pub" => rules::check_dead_pub(&[("crates/core/src/fixture.rs".to_string(), file)]),
        "doc_sync" => {
            let mut diags = rules::check_docs(
                &rules::collect_error_codes("crates/service/src/protocol.rs", &file),
                "",
                "PROTOCOL.md",
                "protocol error code",
            );
            diags.extend(rules::check_docs(
                &rules::collect_cli_flags("crates/bench/src/bin/paper_report.rs", &file),
                "",
                "README.md",
                "CLI flag",
            ));
            diags
        }
        other => panic!("unknown fixture stem {other:?}"),
    }
}

/// Renders diagnostics the way the goldens store them: without the synthetic
/// fixture path, which is a harness detail.
fn render(diags: &[rules::Diagnostic]) -> String {
    diags
        .iter()
        .map(|d| format!("{}: [{}] {}", d.line, d.rule, d.message))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn positive_fixtures_match_their_goldens() {
    // `MP_LINT_BLESS=1 cargo test -p mp-lint --test golden` rewrites the
    // goldens from current output; review the diff before committing.
    let bless = std::env::var_os("MP_LINT_BLESS").is_some();
    for stem in FIXTURES {
        let src = read_fixture(&format!("{stem}_positive.rs"));
        let actual = render(&diagnostics_for(stem, &src));
        if bless {
            let path = fixture_dir().join(format!("{stem}_positive.expected"));
            std::fs::write(&path, format!("{}\n", actual.trim()))
                .unwrap_or_else(|error| panic!("golden {} is writable: {error}", path.display()));
        }
        let expected = read_fixture(&format!("{stem}_positive.expected"));
        assert_eq!(
            actual.trim(),
            expected.trim(),
            "diagnostics for {stem}_positive.rs drifted from the golden"
        );
        assert!(
            !actual.trim().is_empty(),
            "{stem}_positive.rs must produce at least one diagnostic"
        );
    }
}

#[test]
fn allowed_fixtures_lint_clean() {
    for stem in FIXTURES {
        let src = read_fixture(&format!("{stem}_allowed.rs"));
        let diags = diagnostics_for(stem, &src);
        assert!(
            diags.is_empty(),
            "{stem}_allowed.rs should be fully suppressed, got:\n{}",
            render(&diags)
        );
    }
}
