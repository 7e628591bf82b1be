//! TNB-DEAD01: a `pub fn` in a library crate whose name occurs nowhere
//! outside its own module's tests.
//!
//! Public API with no caller is code to read, test and keep compiling
//! for nothing. A name counts as used when it occurs anywhere in the
//! workspace — any crate, binary, example or integration test — or in
//! the out-of-workspace caller files (the benchmark package, which
//! compiles against the public API), except in:
//! - an `fn <name>` definition;
//! - a `pub use` re-export (a re-export is not a caller);
//! - the defining file's own `#[cfg(test)]` code.
//!
//! The match is by name on comment- and literal-stripped code, so it errs
//! toward "used": a dead fn that shares its name with a live one is not
//! flagged. The check needs the whole workspace in view, so it runs from
//! [`crate::run_lint`] only, never on a subset of files.

use crate::diagnostics::Diagnostic;
use crate::model::FileModel;
use crate::rules::FileKind;
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// The library crates whose `pub fn`s are checked. Application crates
/// (CLI, benches, tooling) are entry points, not API.
pub const LIBRARY_CRATES: [&str; 9] = [
    "tnb-baselines",
    "tnb-channel",
    "tnb-core",
    "tnb-deploy",
    "tnb-dsp",
    "tnb-gateway",
    "tnb-metrics",
    "tnb-phy",
    "tnb-sim",
];

/// Where a name occurs: the workspace file index (`None` for a caller
/// file outside the workspace) and whether in `#[cfg(test)]` code.
type Site = (Option<usize>, bool);

/// Flags every unused library `pub fn` in `models`/`srcs` (parallel
/// slices over the workspace files); `callers` are out-of-workspace
/// files whose uses count too.
pub fn check(
    models: &[FileModel],
    srcs: &[SourceFile],
    callers: &[SourceFile],
    diags: &mut Vec<Diagnostic>,
) {
    let candidates: BTreeSet<&str> = models
        .iter()
        .filter(|m| in_scope(m))
        .flat_map(|m| m.fns.iter())
        .filter(|f| f.is_pub && !f.in_test)
        .map(|f| f.name.as_str())
        .collect();
    let mut sites: BTreeMap<&str, BTreeSet<Site>> = BTreeMap::new();
    for (i, src) in srcs.iter().enumerate() {
        record_sites(src, Some(i), &candidates, &mut sites);
    }
    for src in callers {
        record_sites(src, None, &candidates, &mut sites);
    }
    for (fi, m) in models.iter().enumerate() {
        if !in_scope(m) {
            continue;
        }
        for f in m.fns.iter().filter(|f| f.is_pub && !f.in_test) {
            let used = sites
                .get(f.name.as_str())
                .is_some_and(|s| s.iter().any(|&(file, test)| file != Some(fi) || !test));
            if used || allowed(&srcs[fi], f.sig_line) {
                continue;
            }
            let code = &srcs[fi].lines[f.sig_line].code;
            let col = crate::rules::token_cols(code, &f.name)
                .first()
                .copied()
                .unwrap_or(0);
            diags.push(Diagnostic {
                file: m.rel_path.clone(),
                line: f.sig_line + 1,
                col: col + 1,
                rule: "TNB-DEAD01",
                message: format!(
                    "`pub fn {}` has no caller outside its own module's tests; delete it \
                     (with its tests) or justify it with `// tnb-lint: allow(TNB-DEAD01) -- reason`",
                    f.name
                ),
            });
        }
    }
}

fn in_scope(m: &FileModel) -> bool {
    m.scope.kind == FileKind::LibSrc && LIBRARY_CRATES.contains(&m.scope.crate_name.as_str())
}

/// True when an allowance covers the fn's signature line or one of the
/// attribute lines stacked directly above it.
fn allowed(src: &SourceFile, sig_line: usize) -> bool {
    let is = |l: usize| src.is_allowed(l, "TNB-DEAD01", crate::rules::group_of("TNB-DEAD01"));
    let mut l = sig_line;
    loop {
        if is(l) {
            return true;
        }
        let Some(prev) = l.checked_sub(1) else {
            return false;
        };
        let code = src.lines[prev].code.trim();
        if !(code.is_empty() || code.starts_with("#[")) {
            return false;
        }
        l = prev;
    }
}

/// Records where each candidate name occurs in `src`, skipping `fn`
/// definitions and `pub use` re-exports.
fn record_sites<'a>(
    src: &SourceFile,
    file: Option<usize>,
    candidates: &BTreeSet<&'a str>,
    sites: &mut BTreeMap<&'a str, BTreeSet<Site>>,
) {
    let mut in_reexport = false;
    for line in &src.lines {
        let code = line.code.trim_start();
        if code.starts_with("pub use ") {
            in_reexport = true;
        }
        if in_reexport {
            in_reexport = !line.code.contains(';');
            continue;
        }
        for (start, ident) in idents(&line.code) {
            let Some(&name) = candidates.get(ident) else {
                continue;
            };
            let before = line.code[..start].trim_end();
            let defines = before.ends_with("fn")
                && crate::rules::token_cols(before, "fn").last() == Some(&(before.len() - 2));
            if !defines {
                sites.entry(name).or_default().insert((file, line.in_test));
            }
        }
    }
}

/// Identifier tokens of one code line with their byte offsets.
fn idents(code: &str) -> Vec<(usize, &str)> {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut out = Vec::new();
    let mut start: Option<usize> = None;
    for (i, c) in code
        .char_indices()
        .chain(std::iter::once((code.len(), ' ')))
    {
        match (start, is_ident(c)) {
            (None, true) => start = Some(i),
            (Some(s), false) => {
                if !code[s..i].starts_with(|c: char| c.is_ascii_digit()) {
                    out.push((s, &code[s..i]));
                }
                start = None;
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idents_split_on_non_identifier_chars() {
        let got = idents("a.b_c(1u8, x2)");
        assert_eq!(got, vec![(0, "a"), (2, "b_c"), (11, "x2")]);
    }
}
