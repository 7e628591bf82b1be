//! The rule registry and the per-file analysis driver.
//!
//! Every rule has a stable ID (`TNB-…`, printed in brackets so CI logs
//! are greppable), belongs to a *group* (the name accepted by
//! `// tnb-lint: allow(<group>)` alongside the specific ID), and scans
//! the preprocessed [`SourceFile`] line by line. Escape hatches require
//! a `-- <reason>`; a reasonless hatch is itself an error (TNB-LINT01).

pub mod allow_budget;
pub mod determinism;
pub mod no_alloc;
pub mod panic_free;
pub mod simd_hygiene;
pub mod unsafe_hygiene;

use crate::diagnostics::Diagnostic;
use crate::source::SourceFile;

/// What kind of target a file belongs to, which decides rule scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `crates/<c>/src/**` or the facade `src/**` — library code; all
    /// rules apply (outside `#[cfg(test)]` regions).
    LibSrc,
    /// Tests, benches, examples — only the hygiene rules (unsafe,
    /// allow-budget, annotation validity) apply.
    TestCode,
}

/// Per-file lint scope: which crate the file belongs to and its kind.
#[derive(Debug, Clone)]
pub struct FileScope {
    /// Package name, e.g. `tnb-core` (`tnb` for the facade crate).
    pub crate_name: String,
    pub kind: FileKind,
}

/// Crates whose decode path must stay bit-deterministic across worker
/// counts: no wall clock, no iteration-order-hazard collections, no
/// shared `Cell` metrics outside `tnb-metrics`.
pub const DETERMINISM_CRATES: [&str; 5] = [
    "tnb-dsp",
    "tnb-phy",
    "tnb-core",
    "tnb-gateway",
    "tnb-deploy",
];

/// Library crates that must never panic on hostile input (superset of
/// the CI clippy `unwrap_used`/`expect_used` gate).
pub const PANIC_FREE_CRATES: [&str; 7] = [
    "tnb-dsp",
    "tnb-phy",
    "tnb-channel",
    "tnb-metrics",
    "tnb-core",
    "tnb-gateway",
    "tnb-deploy",
];

/// One registry entry: (ID, group, summary).
pub const RULES: [(&str, &str, &str); 20] = [
    (
        "TNB-DET01",
        "determinism",
        "wall clock (Instant::now / SystemTime) in a decode-path crate",
    ),
    (
        "TNB-DET02",
        "determinism",
        "HashMap/HashSet (iteration-order hazard) in a decode-path crate",
    ),
    (
        "TNB-DET03",
        "determinism",
        "Cell-based metrics outside tnb-metrics in a decode-path crate",
    ),
    (
        "TNB-ALLOC01",
        "no_alloc",
        "heap allocation inside a `tnb-lint: no_alloc` hot-path region",
    ),
    (
        "TNB-PANIC01",
        "panic_free",
        "panic!/todo!/unimplemented!/unreachable! in a panic-free crate",
    ),
    (
        "TNB-PANIC02",
        "panic_free",
        "assert!/assert_eq!/assert_ne! in a panic-free crate (debug_assert* is fine)",
    ),
    (
        "TNB-PANIC03",
        "panic_free",
        ".unwrap()/.expect() in a panic-free crate",
    ),
    (
        "TNB-PANIC04",
        "panic_free",
        "range slice indexing in a `no_alloc` hot-path region (use .get(..))",
    ),
    (
        "TNB-UNSAFE01",
        "unsafe_hygiene",
        "`unsafe` without a `// SAFETY:` comment",
    ),
    (
        "TNB-SIMD01",
        "simd_hygiene",
        "`#[target_feature]` kernel outside a `tnb-lint: no_alloc` region",
    ),
    (
        "TNB-LAYER01",
        "layering",
        "crate dependency outside the allowed layering DAG",
    ),
    ("TNB-LAYER02", "layering", "crate dependency cycle"),
    (
        "TNB-ALLOW01",
        "allow_budget",
        "bare #[allow(...)] without a justification comment",
    ),
    (
        "TNB-LINT01",
        "lint_annotations",
        "malformed tnb-lint annotation (missing reason, unknown rule/directive)",
    ),
    (
        "TNB-FLOW01",
        "flow",
        "transitive allocation on a path from a `tnb-lint: no_alloc_root` fn",
    ),
    (
        "TNB-FLOW02",
        "flow",
        "transitive panic reachable from a panic-free crate's public API",
    ),
    (
        "TNB-FLOW03",
        "flow",
        "call whose callee transitively reads the clock / iterates hash collections in a decode-path crate",
    ),
    (
        "TNB-LOCK01",
        "locking",
        "lock-order cycle (potential deadlock), including re-acquiring a held lock",
    ),
    (
        "TNB-LOCK02",
        "locking",
        "blocking call (IO/recv/join/sleep) while a lock guard is live",
    ),
    (
        "TNB-DEAD01",
        "dead_code",
        "`pub fn` in a library crate whose name occurs nowhere outside its own module's tests",
    ),
];

/// Group name of a rule ID (empty for unknown IDs).
pub fn group_of(rule_id: &str) -> &'static str {
    RULES
        .iter()
        .find(|(id, _, _)| *id == rule_id)
        .map(|(_, g, _)| *g)
        .unwrap_or("")
}

/// True when `name` is a known rule ID or group name.
pub fn is_known_rule(name: &str) -> bool {
    RULES.iter().any(|(id, g, _)| *id == name || *g == name)
}

/// Context handed to every per-line rule.
pub struct Ctx<'a> {
    pub file: &'a str,
    pub scope: &'a FileScope,
    pub src: &'a SourceFile,
}

impl Ctx<'_> {
    /// Emits a diagnostic unless an escape hatch covers the line.
    /// `line`/`col` are 0-based here; diagnostics are 1-based.
    pub fn emit(
        &self,
        diags: &mut Vec<Diagnostic>,
        line: usize,
        col: usize,
        rule: &'static str,
        message: String,
    ) {
        if self.src.is_allowed(line, rule, group_of(rule)) {
            return;
        }
        diags.push(Diagnostic {
            file: self.file.to_string(),
            line: line + 1,
            col: col + 1,
            rule,
            message,
        });
    }
}

/// Runs every source-level rule over one preprocessed file.
pub fn analyze_file(file: &str, scope: &FileScope, src: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let ctx = Ctx { file, scope, src };
    // Annotation validity is checked everywhere, first: a malformed
    // escape hatch must not silently disable another rule.
    for bad in &src.bad_directives {
        ctx.emit(diags, bad.line, 0, "TNB-LINT01", bad.message.clone());
    }
    for a in &src.allows {
        for r in &a.rules {
            if !is_known_rule(r) {
                ctx.emit(
                    diags,
                    a.at_line,
                    0,
                    "TNB-LINT01",
                    format!("`tnb-lint: allow({r})` names an unknown rule or group"),
                );
            }
        }
    }
    unsafe_hygiene::check(&ctx, diags);
    simd_hygiene::check(&ctx, diags);
    allow_budget::check(&ctx, diags);
    no_alloc::check(&ctx, diags);
    if scope.kind == FileKind::LibSrc {
        if DETERMINISM_CRATES.contains(&scope.crate_name.as_str()) {
            determinism::check(&ctx, diags);
        }
        if PANIC_FREE_CRATES.contains(&scope.crate_name.as_str()) {
            panic_free::check(&ctx, diags);
        }
    }
}

/// Finds `token` occurrences in `code` on identifier boundaries: the
/// characters on both sides must not be identifier characters (so
/// `assert!` does not match `debug_assert!`, `Cell<` does not match
/// `RefCell<`, and `unsafe` does not match `unsafe_hygiene`). Each
/// boundary check only applies when the token's own edge is an
/// identifier character — `.unwrap()` after an identifier receiver
/// (`opt.unwrap()`) is a match, since the `.` already separates.
/// Returns 0-based columns.
pub fn token_cols(code: &str, token: &str) -> Vec<usize> {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut cols = Vec::new();
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(token) {
        let at = from + pos;
        let lead = !token.chars().next().is_some_and(is_ident)
            || at == 0
            || !is_ident(bytes[at - 1] as char);
        let end = at + token.len();
        let trail = !token.chars().next_back().is_some_and(is_ident)
            || end >= bytes.len()
            || !is_ident(bytes[end] as char);
        if lead && trail {
            cols.push(at);
        }
        from = at + token.len().max(1);
    }
    cols
}
