//! `mp-lint`: the workspace determinism & protocol static-analysis pass.
//!
//! Every claim this reproduction makes rests on deterministic seeded replay,
//! but the ingredients of that invariant — splitmix seed tags, daemon error
//! codes, CLI flags, panic conventions — are scattered constants that drift
//! silently. This crate is a self-contained static scanner: a hand-rolled
//! comment/string-aware tokenizer ([`tokens`], same byte-cursor idiom as
//! `parasite::json`, no `syn`, zero new deps) plus a rule engine
//! ([`rules`]) that walks every `crates/*/src` and root `src`/`tests` file.
//! `dead-pub` also reads every other file that can use a library item:
//! `crates/*/tests`, `crates/*/benches`, `examples` and `perfbench/src`
//! (never `vendor/` or the rule fixtures under `crates/lint/tests/fixtures`).
//!
//! The rule catalogue:
//!
//! | rule               | guards                                               |
//! |--------------------|------------------------------------------------------|
//! | `seed-tag`         | `*_TAG` constants: u64, distinct, unique high lanes  |
//! | `nondet-iter`      | HashMap/HashSet iteration reaching output paths      |
//! | `wallclock`        | `Instant::now`/`SystemTime` outside supervision      |
//! | `thread-spawn`     | `thread::spawn` outside the sanctioned pools         |
//! | `panic-discipline` | bare `unwrap`/`panic!` where typed errors are law    |
//! | `doc-sync`         | protocol codes in PROTOCOL.md, CLI flags in README   |
//! | `dead-pub`         | `pub` library items only their own tests use         |
//!
//! Suppression: `// mp-lint: allow(<rule>)` on the flagged line or the line
//! above. The extracted seed-tag registry is emitted in the JSON report and
//! cross-checked against `parasite::experiments::SEED_TAG_REGISTRY` by both
//! the runtime collision test and this crate's workspace test, so the
//! static and runtime views share one source of truth.

pub mod rules;
pub mod tokens;

pub use rules::{Diagnostic, DocItem, TagEntry};

use parasite::json::{Json, ToJson};
use std::path::{Path, PathBuf};

/// The result of linting a workspace.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// How many `.rs` files were scanned.
    pub files_scanned: usize,
    /// All findings, sorted by `(file, line, rule)`.
    pub diagnostics: Vec<Diagnostic>,
    /// The extracted seed-tag registry (sorted by file, then line).
    pub registry: Vec<TagEntry>,
}

impl LintReport {
    /// True when the workspace produced no diagnostics.
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Renders the human-readable report; `fix_hints` appends a remediation
    /// hint under each finding.
    pub fn render_text(&self, fix_hints: bool) -> String {
        let mut out = String::new();
        for diag in &self.diagnostics {
            out.push_str(&diag.render());
            out.push('\n');
            if fix_hints {
                out.push_str("  hint: ");
                out.push_str(rules::fix_hint(diag.rule));
                out.push('\n');
            }
        }
        if self.clean() {
            out.push_str(&format!(
                "mp-lint: clean — {} files scanned, {} seed tags registered\n",
                self.files_scanned,
                self.registry.len()
            ));
        } else {
            out.push_str(&format!(
                "mp-lint: {} diagnostic(s) across {} files scanned\n",
                self.diagnostics.len(),
                self.files_scanned
            ));
        }
        out
    }
}

impl ToJson for LintReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("files_scanned", self.files_scanned.to_json()),
            ("clean", self.clean().to_json()),
            (
                "diagnostics",
                Json::arr(self.diagnostics.iter().map(|d| {
                    Json::obj([
                        ("rule", d.rule.to_json()),
                        ("file", d.file.to_json()),
                        ("line", d.line.to_json()),
                        ("message", d.message.to_json()),
                    ])
                })),
            ),
            (
                "seed_tags",
                Json::arr(self.registry.iter().map(|t| {
                    Json::obj([
                        ("name", t.name.to_json()),
                        (
                            "value",
                            t.value
                                .map_or("unparsed".to_string(), |v| format!("0x{v:016x}"))
                                .to_json(),
                        ),
                        (
                            "lane",
                            t.lane()
                                .map_or("unparsed".to_string(), |l| format!("0x{l:04x}"))
                                .to_json(),
                        ),
                        ("file", t.file.to_json()),
                        ("line", t.line.to_json()),
                    ])
                })),
            ),
        ])
    }
}

/// Lints the workspace rooted at `root` (the directory holding the root
/// `Cargo.toml` and `crates/`). Runs the per-file rules over `crates/*/src`,
/// root `src` and root `tests`, then the workspace-level registry, doc-sync
/// and dead-pub checks; dead-pub also counts uses in `crates/*/tests`,
/// `crates/*/benches`, `examples` and `perfbench/src`.
pub fn run_workspace(root: &Path) -> Result<LintReport, String> {
    if !root.join("Cargo.toml").is_file() || !root.join("crates").is_dir() {
        return Err(format!(
            "{} is not the workspace root (expected Cargo.toml and crates/)",
            root.display()
        ));
    }

    let mut linted: Vec<(String, PathBuf)> = Vec::new();
    let mut users_only: Vec<(String, PathBuf)> = Vec::new();
    for top in ["src", "tests"] {
        collect_rs_files(root, &root.join(top), &mut linted)?;
    }
    for top in ["examples", "perfbench/src"] {
        collect_rs_files(root, &root.join(top), &mut users_only)?;
    }
    let crates_dir = root.join("crates");
    let mut members: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("{}: {e}", crates_dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    members.sort();
    for member in members {
        collect_rs_files(root, &member.join("src"), &mut linted)?;
        for sub in ["tests", "benches"] {
            collect_rs_files(root, &member.join(sub), &mut users_only)?;
        }
    }
    // The rule fixtures are deliberately broken code, not workspace users.
    users_only.retain(|(rel, _)| !rel.starts_with("crates/lint/tests/fixtures/"));
    linted.sort();
    users_only.sort();

    let mut diagnostics = Vec::new();
    let mut registry = Vec::new();
    let mut codes = Vec::new();
    let mut flags = Vec::new();
    let mut sources = Vec::new();
    for (rel, path) in &linted {
        let file = read_tokens(path)?;
        diagnostics.extend(rules::lint_file(rel, &file));
        registry.extend(rules::collect_tags(rel, &file));
        if rel.ends_with("service/src/protocol.rs") {
            codes.extend(rules::collect_error_codes(rel, &file));
        }
        // The binary's own flags, and the run-config flags of the field table.
        if rel.ends_with("paper_report.rs") || rel.ends_with("experiments/fields.rs") {
            flags.extend(rules::collect_cli_flags(rel, &file));
        }
        sources.push((rel.clone(), file));
    }
    for (rel, path) in users_only {
        sources.push((rel, read_tokens(&path)?));
    }
    diagnostics.extend(rules::check_dead_pub(&sources));

    diagnostics.extend(rules::check_tags(&registry));
    for (items, doc_name, what) in [
        (&codes, "PROTOCOL.md", "protocol error code"),
        (&flags, "README.md", "CLI flag"),
    ] {
        match std::fs::read_to_string(root.join(doc_name)) {
            Ok(doc) => diagnostics.extend(rules::check_docs(items, &doc, doc_name, what)),
            Err(error) => diagnostics.push(Diagnostic {
                rule: rules::DOC_SYNC,
                file: doc_name.to_string(),
                line: 1,
                message: format!("cannot read {doc_name}: {error}"),
            }),
        }
    }

    diagnostics.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
    });
    Ok(LintReport { files_scanned: sources.len(), diagnostics, registry })
}

fn read_tokens(path: &Path) -> Result<tokens::SourceFile, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(tokens::tokenize(&String::from_utf8_lossy(&bytes)))
}

/// Recursively collects `.rs` files under `dir` (sorted traversal so the
/// report order is machine-independent). A missing `dir` is fine — not
/// every crate has every source root.
fn collect_rs_files(
    root: &Path,
    dir: &Path,
    out: &mut Vec<(String, PathBuf)>,
) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(root, &path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, path));
        }
    }
    Ok(())
}
