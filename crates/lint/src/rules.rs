//! The lint rules.
//!
//! Every rule produces [`Diagnostic`]s carrying a rule name, a repo-relative
//! `file:line` span and a message, and every rule honours the
//! `// mp-lint: allow(<rule>)` suppression comment placed on the flagged
//! line or the line directly above it. Test code — anything under a
//! `tests/` directory or inside a `#[cfg(test)]` region — is exempt from
//! the runtime-behaviour rules (nondet-iter, wallclock, thread-spawn,
//! panic-discipline).

use crate::tokens::{SourceFile, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

pub const SEED_TAG: &str = "seed-tag";
pub const NONDET_ITER: &str = "nondet-iter";
pub const WALLCLOCK: &str = "wallclock";
pub const THREAD_SPAWN: &str = "thread-spawn";
pub const PANIC_DISCIPLINE: &str = "panic-discipline";
pub const DOC_SYNC: &str = "doc-sync";
pub const DEAD_PUB: &str = "dead-pub";

/// One lint finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
}

impl Diagnostic {
    pub fn render(&self) -> String {
        format!("{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// A one-line remediation hint per rule, shown under `--fix-hints`.
pub fn fix_hint(rule: &str) -> &'static str {
    match rule {
        SEED_TAG => {
            "give every seed tag a u64 value with a unique non-zero top-16-bit \
             lane (e.g. 0x5a4d_0000_0000_0000) and register it in \
             parasite::experiments::SEED_TAG_REGISTRY"
        }
        NONDET_ITER => {
            "switch the container to BTreeMap/BTreeSet, collect-and-sort before \
             draining, or use netsim's FxHashMap with an ordered drain"
        }
        WALLCLOCK => {
            "derive time from the simulation clock; real-clock reads belong only \
             in the supervision/timeout layer (annotate those with \
             `// mp-lint: allow(wallclock)`)"
        }
        THREAD_SPAWN => {
            "use parasite::experiments::parallel_tasks (scoped, deterministic \
             join order) or annotate the sanctioned pool with \
             `// mp-lint: allow(thread-spawn)`"
        }
        PANIC_DISCIPLINE => {
            "return a typed ExperimentError/NetError, or document the invariant \
             with `.expect(\"reason\")`; lock poisoning may propagate via \
             `.lock().unwrap()`"
        }
        DOC_SYNC => "add the missing entry to the named document (PROTOCOL.md / README.md)",
        DEAD_PUB => {
            "delete the item and any test whose only subject it is; if it is the \
             instrument of a test that stays, move it under `#[cfg(test)]`"
        }
        _ => "no hint for this rule",
    }
}

/// Path-derived scoping for the per-file rules.
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    /// The whole file is test code (under a `tests/` directory).
    pub test_code: bool,
    /// The panic-discipline rule applies (library crates where typed
    /// `ExperimentError`/`NetError` errors are the convention).
    pub panic_rule: bool,
}

/// Derives the rule scope from a repo-relative path (forward slashes).
pub fn scope_for(path: &str) -> Scope {
    let test_code = path.starts_with("tests/") || path.contains("/tests/");
    let panic_rule = ["crates/core/src/", "crates/netsim/src/", "crates/service/src/"]
        .iter()
        .any(|prefix| path.starts_with(prefix));
    Scope {
        test_code,
        panic_rule: panic_rule && !test_code,
    }
}

// ---------------------------------------------------------------------------
// Token-stream helpers
// ---------------------------------------------------------------------------

fn ident(tok: Option<&Tok>) -> Option<&str> {
    match tok {
        Some(Tok { kind: TokKind::Ident(name), .. }) => Some(name.as_str()),
        _ => None,
    }
}

fn punct(tok: Option<&Tok>, b: u8) -> bool {
    matches!(tok, Some(Tok { kind: TokKind::Punct(p), .. }) if *p == b)
}

fn is_path_sep(toks: &[Tok], at: usize) -> bool {
    punct(toks.get(at), b':') && punct(toks.get(at + 1), b':')
}

/// `#[cfg(test)]` line ranges: from the attribute to the matching close
/// brace of the item that follows it.
fn test_regions(file: &SourceFile) -> Vec<(u32, u32)> {
    let toks = &file.toks;
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let is_cfg_test = punct(toks.get(i), b'#')
            && punct(toks.get(i + 1), b'[')
            && ident(toks.get(i + 2)) == Some("cfg")
            && punct(toks.get(i + 3), b'(')
            && ident(toks.get(i + 4)) == Some("test")
            && punct(toks.get(i + 5), b')')
            && punct(toks.get(i + 6), b']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let start_line = toks[i].line;
        // Find the item's opening brace (a `mod tests;` declaration has
        // none; the region is then empty).
        let mut j = i + 7;
        while j < toks.len() && !punct(toks.get(j), b'{') && !punct(toks.get(j), b';') {
            j += 1;
        }
        if punct(toks.get(j), b'{') {
            let mut depth = 0usize;
            while j < toks.len() {
                if punct(toks.get(j), b'{') {
                    depth += 1;
                } else if punct(toks.get(j), b'}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            let end_line = toks.get(j).map_or(u32::MAX, |t| t.line);
            regions.push((start_line, end_line));
        }
        i = j + 1;
    }
    regions
}

// ---------------------------------------------------------------------------
// Per-file rules: nondet-iter, wallclock, thread-spawn, panic-discipline
// ---------------------------------------------------------------------------

const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Runs the per-file rules over one tokenized source file.
pub fn lint_file(path: &str, file: &SourceFile) -> Vec<Diagnostic> {
    let scope = scope_for(path);
    if scope.test_code {
        return Vec::new();
    }
    let regions = test_regions(file);
    let in_test = |line: u32| regions.iter().any(|(lo, hi)| (*lo..=*hi).contains(&line));
    let mut diags = Vec::new();
    let mut emit = |rule: &'static str, line: u32, message: String| {
        if !in_test(line) && !file.allows_rule(line, rule) {
            diags.push(Diagnostic { rule, file: path.to_string(), line, message });
        }
    };

    let toks = &file.toks;

    // Pass 1: names declared with a HashMap/HashSet type or constructor.
    // Test-region declarations are skipped so a test-local `HashSet` cannot
    // poison a production identifier of the same name.
    let mut hashed_names: Vec<String> = Vec::new();
    for i in 0..toks.len() {
        if in_test(toks[i].line) {
            continue;
        }
        let Some(name) = ident(toks.get(i)) else { continue };
        let after = i + 1;
        let is_decl = (punct(toks.get(after), b':') && !is_path_sep(toks, after))
            || punct(toks.get(after), b'=');
        if !is_decl {
            continue;
        }
        // Skip `&`, `mut` and `std::collections::` path prefixes between the
        // declaration site and the type/constructor name.
        let mut j = after + 1;
        let mut budget = 8;
        while budget > 0 {
            budget -= 1;
            match toks.get(j) {
                Some(Tok { kind: TokKind::Punct(b'&' | b':'), .. }) => j += 1,
                Some(Tok { kind: TokKind::Ident(word), .. })
                    if word == "mut" || word == "std" || word == "collections" =>
                {
                    j += 1
                }
                _ => break,
            }
        }
        if matches!(ident(toks.get(j)), Some("HashMap" | "HashSet"))
            && !hashed_names.iter().any(|n| n == name)
        {
            hashed_names.push(name.to_string());
        }
    }

    // Pass 2: the linear scan for all four rules.
    for i in 0..toks.len() {
        let line = toks[i].line;
        match ident(toks.get(i)) {
            // nondet-iter: `map.iter()` / `for x in &map` on a hashed name.
            Some(name) if hashed_names.iter().any(|n| n == name) => {
                if punct(toks.get(i + 1), b'.') {
                    if let Some(method) = ident(toks.get(i + 2)) {
                        if ITER_METHODS.contains(&method) {
                            emit(
                                NONDET_ITER,
                                line,
                                format!(
                                    "`{name}.{method}()` iterates a HashMap/HashSet in \
                                     nondeterministic order"
                                ),
                            );
                        }
                    }
                }
                let mut back = i;
                while back > 0
                    && (punct(toks.get(back - 1), b'&') || ident(toks.get(back - 1)) == Some("mut"))
                {
                    back -= 1;
                }
                if back > 0 && ident(toks.get(back - 1)) == Some("in") {
                    emit(
                        NONDET_ITER,
                        line,
                        format!("`for .. in {name}` iterates a HashMap/HashSet in nondeterministic order"),
                    );
                }
            }
            // wallclock: `Instant::now()` (netsim's simulated Instant has no
            // `now`, so only real-clock reads match).
            Some("Instant") if is_path_sep(toks, i + 1) && ident(toks.get(i + 3)) == Some("now") => {
                emit(
                    WALLCLOCK,
                    line,
                    "`Instant::now()` reads the wall clock; deterministic replay must not \
                     depend on real time outside the supervision/timeout layer"
                        .to_string(),
                );
            }
            // wallclock: any SystemTime use.
            Some("SystemTime") => {
                emit(
                    WALLCLOCK,
                    line,
                    "`SystemTime` is wall-clock time; deterministic replay must not depend \
                     on real time outside the supervision/timeout layer"
                        .to_string(),
                );
            }
            // thread-spawn: `thread::spawn` outside the sanctioned pools.
            Some("thread") if is_path_sep(toks, i + 1) && ident(toks.get(i + 3)) == Some("spawn") => {
                emit(
                    THREAD_SPAWN,
                    line,
                    "`thread::spawn` outside the sanctioned pools makes scheduling \
                     nondeterministic; use parasite::experiments::parallel_tasks"
                        .to_string(),
                );
            }
            // panic-discipline: panic-family macros.
            Some(mac @ ("panic" | "unreachable" | "todo" | "unimplemented"))
                if scope.panic_rule && punct(toks.get(i + 1), b'!') =>
            {
                emit(
                    PANIC_DISCIPLINE,
                    line,
                    format!(
                        "`{mac}!` in a library crate; the convention is a typed \
                         ExperimentError/NetError"
                    ),
                );
            }
            // panic-discipline: `.unwrap()` (lock poisoning exempt) and
            // undocumented `.expect(..)`.
            Some(call @ ("unwrap" | "expect"))
                if scope.panic_rule
                    && i > 0
                    && punct(toks.get(i - 1), b'.')
                    && punct(toks.get(i + 1), b'(') =>
            {
                if call == "unwrap" {
                    if punct(toks.get(i + 2), b')') && !lock_receiver(toks, i - 1) {
                        emit(
                            PANIC_DISCIPLINE,
                            line,
                            "bare `.unwrap()` in a library crate; return a typed error or \
                             document the invariant with `.expect(\"reason\")`"
                                .to_string(),
                        );
                    }
                } else if !expect_is_sanctioned(toks, i + 1) {
                    emit(
                        PANIC_DISCIPLINE,
                        line,
                        "`.expect(..)` without a string-literal justification; document \
                         the invariant or return a typed error"
                            .to_string(),
                    );
                }
            }
            _ => {}
        }
    }
    diags
}

/// True when the receiver of `.unwrap()` at `dot` (the `.` token index) is a
/// lock acquisition — `lock()`, `read()`, `write()`, `wait()`,
/// `wait_timeout(..)` — where unwrapping propagates poisoning by convention.
fn lock_receiver(toks: &[Tok], dot: usize) -> bool {
    if dot == 0 || !punct(toks.get(dot - 1), b')') {
        return false;
    }
    // Walk back over the balanced argument list to the call's open paren.
    let mut depth = 0usize;
    let mut k = dot - 1;
    loop {
        if punct(toks.get(k), b')') {
            depth += 1;
        } else if punct(toks.get(k), b'(') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        if k == 0 {
            return false;
        }
        k -= 1;
    }
    matches!(
        k.checked_sub(1).and_then(|at| ident(toks.get(at))),
        Some("lock" | "read" | "write" | "wait" | "wait_timeout")
    )
}

/// `.expect(..)` is sanctioned when the argument is a string-literal
/// invariant message, or when the call is a `Result`-returning parser-style
/// method whose value is immediately propagated with `?`.
fn expect_is_sanctioned(toks: &[Tok], open: usize) -> bool {
    if matches!(toks.get(open + 1), Some(Tok { kind: TokKind::Str(_), .. })) {
        return true;
    }
    let mut depth = 0usize;
    let mut k = open;
    while k < toks.len() {
        if punct(toks.get(k), b'(') {
            depth += 1;
        } else if punct(toks.get(k), b')') {
            depth -= 1;
            if depth == 0 {
                return punct(toks.get(k + 1), b'?');
            }
        }
        k += 1;
    }
    false
}

// ---------------------------------------------------------------------------
// seed-tag: the workspace-wide tag registry
// ---------------------------------------------------------------------------

/// One `*_TAG` constant extracted from source.
#[derive(Debug, Clone, PartialEq)]
pub struct TagEntry {
    pub name: String,
    pub file: String,
    pub line: u32,
    /// The declared type (`u64` is required).
    pub ty: String,
    /// The parsed value; `None` when the literal didn't parse as an integer.
    pub value: Option<u64>,
    /// Suppressed via `mp-lint: allow(seed-tag)` at the declaration.
    pub allowed: bool,
}

impl TagEntry {
    /// The top-16-bit stream-family lane.
    pub fn lane(&self) -> Option<u64> {
        self.value.map(|v| v >> 48)
    }
}

/// Extracts every `const <NAME>_TAG: <ty> = <int>;` from one file
/// (test regions excluded — seed tags are production constants).
pub fn collect_tags(path: &str, file: &SourceFile) -> Vec<TagEntry> {
    let regions = test_regions(file);
    let toks = &file.toks;
    let mut tags = Vec::new();
    for i in 0..toks.len() {
        if ident(toks.get(i)) != Some("const") {
            continue;
        }
        let Some(name) = ident(toks.get(i + 1)) else { continue };
        if !name.ends_with("_TAG") {
            continue;
        }
        if !punct(toks.get(i + 2), b':') {
            continue;
        }
        let Some(ty) = ident(toks.get(i + 3)) else { continue };
        if !punct(toks.get(i + 4), b'=') {
            continue;
        }
        let Some(Tok { kind: TokKind::Num(literal), line }) = toks.get(i + 5) else {
            continue;
        };
        if regions.iter().any(|(lo, hi)| (*lo..=*hi).contains(line)) {
            continue;
        }
        tags.push(TagEntry {
            name: name.to_string(),
            file: path.to_string(),
            line: *line,
            ty: ty.to_string(),
            value: parse_int(literal),
            allowed: file.allows_rule(*line, SEED_TAG),
        });
    }
    tags
}

fn parse_int(literal: &str) -> Option<u64> {
    let text: String = literal.chars().filter(|c| *c != '_').collect();
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else if let Some(oct) = text.strip_prefix("0o") {
        u64::from_str_radix(oct, 8).ok()
    } else if let Some(bin) = text.strip_prefix("0b") {
        u64::from_str_radix(bin, 2).ok()
    } else {
        text.parse().ok()
    }
}

/// Checks the extracted registry: 64-bit width, pairwise-distinct values,
/// and non-overlapping, non-zero high-lane (top-16-bit) prefixes.
pub fn check_tags(tags: &[TagEntry]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut emit = |tag: &TagEntry, message: String| {
        diags.push(Diagnostic {
            rule: SEED_TAG,
            file: tag.file.clone(),
            line: tag.line,
            message,
        });
    };
    let live: Vec<&TagEntry> = tags.iter().filter(|t| !t.allowed).collect();
    for tag in &live {
        if tag.ty != "u64" {
            emit(
                tag,
                format!(
                    "`{}` is declared `{}`; seed tags must be u64 so the splitmix \
                     stream derivation keeps its full keyspace",
                    tag.name, tag.ty
                ),
            );
        }
        match tag.value {
            None => emit(tag, format!("`{}` has a value the lint cannot parse", tag.name)),
            Some(value) if value >> 48 == 0 => emit(
                tag,
                format!(
                    "`{}` (0x{value:016x}) has no high-lane prefix; the top 16 bits \
                     identify the seed-stream family",
                    tag.name
                ),
            ),
            Some(_) => {}
        }
    }
    for (i, a) in live.iter().enumerate() {
        for b in live.iter().skip(i + 1) {
            let (Some(va), Some(vb)) = (a.value, b.value) else { continue };
            if va == vb {
                emit(
                    b,
                    format!("`{}` duplicates the value of `{}` (0x{va:016x})", b.name, a.name),
                );
            } else if va >> 48 == vb >> 48 && va >> 48 != 0 {
                emit(
                    b,
                    format!(
                        "`{}` shares high lane 0x{:04x} with `{}`; stream families must \
                         not overlap",
                        b.name,
                        vb >> 48,
                        a.name
                    ),
                );
            }
        }
    }
    diags
}

// ---------------------------------------------------------------------------
// doc-sync: protocol codes in PROTOCOL.md, CLI flags in README.md
// ---------------------------------------------------------------------------

/// One item whose value must appear in a document.
#[derive(Debug, Clone, PartialEq)]
pub struct DocItem {
    pub name: String,
    pub value: String,
    pub file: String,
    pub line: u32,
    pub allowed: bool,
}

/// Extracts `const NAME: &str = "value";` error codes (the
/// `protocol::codes` table).
pub fn collect_error_codes(path: &str, file: &SourceFile) -> Vec<DocItem> {
    let toks = &file.toks;
    let mut items = Vec::new();
    for i in 0..toks.len() {
        if ident(toks.get(i)) != Some("const") {
            continue;
        }
        let Some(name) = ident(toks.get(i + 1)) else { continue };
        if !punct(toks.get(i + 2), b':') || !punct(toks.get(i + 3), b'&') {
            continue;
        }
        if ident(toks.get(i + 4)) != Some("str") || !punct(toks.get(i + 5), b'=') {
            continue;
        }
        let Some(Tok { kind: TokKind::Str(value), line }) = toks.get(i + 6) else {
            continue;
        };
        items.push(DocItem {
            name: name.to_string(),
            value: value.clone(),
            file: path.to_string(),
            line: *line,
            allowed: file.allows_rule(*line, DOC_SYNC),
        });
    }
    items
}

/// Extracts every `"--flag"` string literal (the `parse_args` vocabulary;
/// first occurrence wins).
pub fn collect_cli_flags(path: &str, file: &SourceFile) -> Vec<DocItem> {
    let mut items: Vec<DocItem> = Vec::new();
    for tok in &file.toks {
        let TokKind::Str(value) = &tok.kind else { continue };
        let Some(body) = value.strip_prefix("--") else { continue };
        if body.is_empty()
            || !body
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
        {
            continue;
        }
        if items.iter().any(|item| &item.value == value) {
            continue;
        }
        items.push(DocItem {
            name: value.clone(),
            value: value.clone(),
            file: path.to_string(),
            line: tok.line,
            allowed: file.allows_rule(tok.line, DOC_SYNC),
        });
    }
    items
}

/// Checks that every item's value appears verbatim in `doc`.
pub fn check_docs(items: &[DocItem], doc: &str, doc_name: &str, what: &str) -> Vec<Diagnostic> {
    items
        .iter()
        .filter(|item| !item.allowed && !doc.contains(&item.value))
        .map(|item| Diagnostic {
            rule: DOC_SYNC,
            file: item.file.clone(),
            line: item.line,
            message: format!("{what} `{}` is not documented in {doc_name}", item.value),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// dead-pub: public items nothing but their own tests use
// ---------------------------------------------------------------------------

/// Keywords whose next identifier is the name of a definition, not a use.
const ITEM_KEYWORDS: [&str; 8] =
    ["fn", "struct", "enum", "const", "static", "type", "trait", "mod"];

/// True when `path` is a library crate's source, where `dead-pub` looks for
/// definitions: `crates/*/src` and root `src`, binaries excluded.
fn library_source(path: &str) -> bool {
    let in_src = path.starts_with("src/")
        || (path.starts_with("crates/") && path.split('/').nth(2) == Some("src"));
    in_src && !path.contains("/bin/") && !path.ends_with("/main.rs")
}

/// A bare-`pub` item definition (`pub(crate)` and friends are not API).
struct PubItem<'a> {
    kind: &'a str,
    name: &'a str,
    line: u32,
}

/// One file's bare-`pub` items and the identifiers it names in code, with
/// their lines. A definition's own name and the paths of a `pub use`
/// re-export are not uses; an inline capture (`{name}`) in a string inside a
/// macro call (a format string) is.
fn scan_names(file: &SourceFile) -> (Vec<PubItem<'_>>, Vec<(&str, u32)>) {
    let toks = &file.toks;
    let mut items = Vec::new();
    let mut uses = Vec::new();
    // Bracket depth, and the depths at which macro invocations opened.
    let mut depth = 0usize;
    let mut macro_depths: Vec<usize> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let line = toks[i].line;
        match &toks[i].kind {
            TokKind::Punct(b'(' | b'[' | b'{') => {
                depth += 1;
                if i >= 2 && punct(toks.get(i - 1), b'!') && ident(toks.get(i - 2)).is_some() {
                    macro_depths.push(depth);
                }
            }
            TokKind::Punct(b')' | b']' | b'}') => {
                if macro_depths.last() == Some(&depth) {
                    macro_depths.pop();
                }
                depth = depth.saturating_sub(1);
            }
            TokKind::Str(text) if !macro_depths.is_empty() => {
                uses.extend(format_captures(text).map(|name| (name, line)));
            }
            TokKind::Ident(word) if word == "pub" => {
                // `pub(crate)` and friends are not API; a `pub use`
                // re-export names nothing.
                let restricted = punct(toks.get(i + 1), b'(');
                let mut j = i + 1;
                while restricted && j < toks.len() && !punct(toks.get(j - 1), b')') {
                    j += 1;
                }
                if ident(toks.get(j)) == Some("use") {
                    while j < toks.len() && !punct(toks.get(j), b';') {
                        j += 1;
                    }
                    i = j + 1;
                    continue;
                }
                // A fn's qualifiers: `const`, `unsafe`, `async`, `extern "C"`.
                while matches!(ident(toks.get(j)), Some("unsafe" | "async" | "extern"))
                    || matches!(toks.get(j), Some(Tok { kind: TokKind::Str(_), .. }))
                    || (ident(toks.get(j)) == Some("const")
                        && matches!(ident(toks.get(j + 1)), Some("fn" | "unsafe" | "async")))
                {
                    j += 1;
                }
                let kind = ident(toks.get(j)).filter(|kind| ITEM_KEYWORDS.contains(kind));
                let at = if ident(toks.get(j + 1)) == Some("mut") { j + 2 } else { j + 1 };
                if let (false, Some(kind), Some(name)) = (restricted, kind, ident(toks.get(at))) {
                    items.push(PubItem { kind, name, line: toks[at].line });
                }
            }
            TokKind::Ident(word) => {
                let mut before = i.checked_sub(1).and_then(|at| ident(toks.get(at)));
                if before == Some("mut") && i >= 2 && ident(toks.get(i - 2)) == Some("static") {
                    before = Some("static");
                }
                if !before.is_some_and(|b| ITEM_KEYWORDS.contains(&b)) {
                    uses.push((word.as_str(), line));
                }
            }
            _ => {}
        }
        i += 1;
    }
    (items, uses)
}

/// The identifiers a format string captures inline: `name` in `{name}` and
/// `{name:?}`, not positional `{0}` or escaped `{{`.
fn format_captures(text: &str) -> impl Iterator<Item = &str> {
    let bytes = text.as_bytes();
    let mut at = 0;
    std::iter::from_fn(move || {
        while at < bytes.len() {
            if bytes[at] != b'{' {
                at += 1;
                continue;
            }
            if bytes.get(at + 1) == Some(&b'{') {
                at += 2;
                continue;
            }
            let start = at + 1;
            let mut end = start;
            while end < bytes.len() && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_') {
                end += 1;
            }
            at = end;
            let named = end > start && !bytes[start].is_ascii_digit();
            if named && matches!(bytes.get(end), Some(b'}' | b':')) {
                return Some(&text[start..end]);
            }
        }
        None
    })
}

/// The `dead-pub` rule over a set of `(repo-relative path, tokens)` files:
/// flags a bare-`pub` item of a library crate's source that no other file
/// names in code and that its own file names only inside `#[cfg(test)]`
/// regions. Every file given counts as a user; only library sources define.
pub fn check_dead_pub(files: &[(String, SourceFile)]) -> Vec<Diagnostic> {
    let mut named_in: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    let mut named_outside_tests: BTreeSet<(usize, &str)> = BTreeSet::new();
    let mut defined = Vec::new();
    for (at, (path, file)) in files.iter().enumerate() {
        let regions = test_regions(file);
        let in_test = |line: u32| regions.iter().any(|(lo, hi)| (*lo..=*hi).contains(&line));
        let (items, uses) = scan_names(file);
        for (name, line) in uses {
            named_in.entry(name).or_default().insert(at);
            if !in_test(line) {
                named_outside_tests.insert((at, name));
            }
        }
        if library_source(path) {
            defined.extend(
                items
                    .into_iter()
                    .filter(|item| !in_test(item.line) && !file.allows_rule(item.line, DEAD_PUB))
                    .map(|item| (at, item)),
            );
        }
    }
    defined
        .into_iter()
        .filter(|(at, item)| {
            let elsewhere = named_in
                .get(item.name)
                .is_some_and(|users| users.iter().any(|user| user != at));
            !elsewhere && !named_outside_tests.contains(&(*at, item.name))
        })
        .map(|(at, item)| Diagnostic {
            rule: DEAD_PUB,
            file: files[at].0.clone(),
            line: item.line,
            message: format!(
                "`pub {} {}` has no user: no other workspace file names it, and this \
                 file names it only in `#[cfg(test)]` code",
                item.kind, item.name
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokens::tokenize;

    const LIB: &str = "crates/demo/src/lib.rs";
    const HELPER: &str = "pub fn helper() {}\n";

    /// The lines of `LIB` that dead-pub flags when `LIB` holds `lib` and
    /// each `(path, source)` of `others` sits beside it.
    fn dead(lib: &str, others: &[(&str, &str)]) -> Vec<u32> {
        let files: Vec<(String, SourceFile)> = std::iter::once((LIB, lib))
            .chain(others.iter().copied())
            .map(|(path, src)| (path.to_string(), tokenize(src)))
            .collect();
        check_dead_pub(&files).iter().map(|d| d.line).collect()
    }

    #[test]
    fn a_name_in_another_files_comment_or_string_is_no_use() {
        let prose = "// helper does it\nfn f() -> &'static str { \"helper\" }\n";
        assert_eq!(dead(HELPER, &[("src/lib.rs", prose)]), [1]);
        assert_eq!(dead(HELPER, &[("src/lib.rs", "fn f() { demo::helper() }")]), []);
    }

    #[test]
    fn a_pub_use_re_export_is_no_use_but_an_import_is() {
        let reexports = "pub use demo::helper;\npub(crate) use demo::{helper as h};\n";
        assert_eq!(dead(HELPER, &[("src/lib.rs", reexports)]), [1]);
        assert_eq!(dead(HELPER, &[("src/lib.rs", "use demo::helper;")]), []);
    }

    #[test]
    fn a_use_only_in_its_own_files_tests_is_no_use_but_another_files_test_is() {
        let own = "pub fn helper() {}\n#[cfg(test)]\nmod tests {\n    fn t() { helper() }\n}\n";
        assert_eq!(dead(own, &[]), [1]);
        let other = "#[cfg(test)]\nmod tests {\n    fn t() { demo::helper() }\n}\n";
        assert_eq!(dead(own, &[("crates/other/src/lib.rs", other)]), []);
    }

    #[test]
    fn test_items_and_restricted_visibility_are_never_flagged() {
        let src = "pub(crate) fn a() {}\npub(super) fn b() {}\npub(in crate::x) fn c() {}\n\
                   #[cfg(test)]\nmod tests {\n    pub fn d() {}\n    pub struct E;\n}\n";
        assert_eq!(dead(src, &[]), []);
    }

    #[test]
    fn binaries_and_non_library_files_define_nothing() {
        for path in ["crates/demo/src/bin/tool.rs", "crates/demo/src/main.rs", "examples/demo.rs"] {
            let files = [(path.to_string(), tokenize(HELPER))];
            assert!(check_dead_pub(&files).is_empty(), "{path}");
        }
    }

    #[test]
    fn every_item_kind_is_checked_and_format_captures_are_uses() {
        let src = "pub const fn f() {}\npub unsafe fn g() {}\npub extern \"C\" fn h() {}\n\
                   pub enum E {}\npub type T = u8;\npub trait Tr {}\npub static mut S: u8 = 0;\n\
                   pub const SHOWN: u8 = 1;\nfn show() -> String { format!(\"{SHOWN:?}{{x}}\") }";
        assert_eq!(dead(src, &[]), [1, 2, 3, 4, 5, 6, 7]);
    }
}
