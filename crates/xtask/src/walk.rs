//! Workspace walking and the two-pass lint driver.
//!
//! [`run_lint`] maps every first-party `.rs` file to a [`FileScope`]
//! and feeds the set to [`lint_files`]: pass 1 (parallel, sharded
//! round-robin across cores with `std::thread::scope`) parses each
//! file, runs the line/token rules, and builds the pass-1 item model;
//! pass 2 (serial — it needs the whole-workspace call graph) runs the
//! interprocedural flow and lock rules. Results are merged in input
//! order before the final sort, so the output — including `--json` —
//! is byte-identical to a single-threaded run.
//!
//! Vendored compat shims (`compat/`), build output (`target/`) and the
//! linter's own bad-snippet fixtures (`crates/xtask/tests/fixtures/`)
//! are out of scope.

use crate::diagnostics::{self, Diagnostic};
use crate::layering;
use crate::model::{self, FileModel};
use crate::rules::{analyze_file, FileKind, FileScope};
use crate::source::SourceFile;
use crate::{callgraph, dead, effects, locks};
use std::path::{Path, PathBuf};

/// Directories under the workspace root that are scanned.
const SCAN_ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Path substrings that exclude a file from scanning.
const EXCLUDES: [&str; 3] = ["compat/", "target/", "crates/xtask/tests/fixtures/"];

/// Directories outside the workspace that are not linted but whose uses
/// keep a library `pub fn` alive (TNB-DEAD01): the benchmark package
/// compiles against the public API.
const CALLER_ROOTS: [&str; 1] = ["perf_ledger"];

/// One file to lint, already read into memory.
pub struct LintInput {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    pub scope: FileScope,
    pub content: String,
}

/// Pass-1 output for one input file.
struct Analyzed {
    src: SourceFile,
    mdl: FileModel,
    diags: Vec<Diagnostic>,
}

/// Lints a set of in-memory files: per-file rules in parallel, then the
/// interprocedural flow/lock analyses over the whole set. Returns
/// sorted diagnostics.
pub fn lint_files(inputs: &[LintInput]) -> Vec<Diagnostic> {
    lint(inputs, None)
}

/// [`lint_files`], plus TNB-DEAD01 when `callers` is given: the inputs
/// are then the whole workspace, and `callers` the out-of-workspace
/// files whose uses count too.
fn lint(inputs: &[LintInput], callers: Option<&[SourceFile]>) -> Vec<Diagnostic> {
    let analyzed = pass1(inputs);
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut models: Vec<FileModel> = Vec::with_capacity(analyzed.len());
    let mut srcs: Vec<SourceFile> = Vec::with_capacity(analyzed.len());
    for a in analyzed {
        diags.extend(a.diags);
        models.push(a.mdl);
        srcs.push(a.src);
    }
    let graph = callgraph::build(&models);
    let fx = effects::propagate(&models, &srcs, &graph);
    effects::check(&models, &srcs, &graph, &fx, &mut diags);
    locks::check(&models, &srcs, &mut diags);
    if let Some(callers) = callers {
        dead::check(&models, &srcs, callers, &mut diags);
    }
    diagnostics::sort(&mut diags);
    diags
}

/// Pass 1, sharded across cores; results come back in input order.
fn pass1(inputs: &[LintInput]) -> Vec<Analyzed> {
    let shards = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(inputs.len().max(1));
    let mut slots: Vec<Option<Analyzed>> = Vec::with_capacity(inputs.len());
    slots.resize_with(inputs.len(), || None);
    if shards <= 1 {
        for (i, slot) in slots.iter_mut().enumerate() {
            *slot = Some(analyze_one(&inputs[i]));
        }
    } else {
        let mut parts: Vec<&mut [Option<Analyzed>]> = Vec::new();
        let mut rest = slots.as_mut_slice();
        // Contiguous chunks; round-robin would shuffle slot ownership.
        let chunk = inputs.len().div_ceil(shards);
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            parts.push(head);
            rest = tail;
        }
        std::thread::scope(|s| {
            let mut offset = 0;
            for part in parts {
                let base = offset;
                offset += part.len();
                let inputs = &inputs[base..base + part.len()];
                s.spawn(move || {
                    for (slot, input) in part.iter_mut().zip(inputs) {
                        *slot = Some(analyze_one(input));
                    }
                });
            }
        });
    }
    slots
        .into_iter()
        .map(|s| match s {
            Some(a) => a,
            // Every index is covered by exactly one contiguous chunk.
            None => unreachable!("shard left a slot unfilled"),
        })
        .collect()
}

fn analyze_one(input: &LintInput) -> Analyzed {
    let src = SourceFile::parse(&input.content);
    let mut diags = Vec::new();
    analyze_file(&input.rel_path, &input.scope, &src, &mut diags);
    let mdl = model::build(&input.rel_path, &input.scope, &src);
    Analyzed { src, mdl, diags }
}

/// Runs the full lint over the workspace at `root`. Returns sorted
/// diagnostics (empty = clean tree).
pub fn run_lint(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for scan in SCAN_ROOTS.iter().chain(&CALLER_ROOTS) {
        collect_rs(&root.join(scan), &mut files)?;
    }
    files.sort();
    let mut inputs = Vec::new();
    let mut callers = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        if EXCLUDES.iter().any(|e| rel.contains(e)) {
            continue;
        }
        let content = std::fs::read_to_string(path)?;
        if CALLER_ROOTS
            .iter()
            .any(|c| rel.starts_with(&format!("{c}/")))
        {
            callers.push(SourceFile::parse(&content));
            continue;
        }
        let scope = classify(&rel);
        inputs.push(LintInput {
            rel_path: rel,
            scope,
            content,
        });
    }
    let mut diags = lint(&inputs, Some(&callers));
    layering::check_workspace(root, &mut diags);
    diagnostics::sort(&mut diags);
    Ok(diags)
}

/// Recursively collects `.rs` files (missing roots are fine).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok(());
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scope of a workspace-relative path: which crate it belongs to and
/// whether it is library source or test/bench/example code.
pub fn classify(rel: &str) -> FileScope {
    let parts: Vec<&str> = rel.split('/').collect();
    match parts.as_slice() {
        ["crates", krate, "src", ..] => FileScope {
            crate_name: crate_package_name(krate),
            kind: FileKind::LibSrc,
        },
        ["crates", krate, ..] => FileScope {
            crate_name: crate_package_name(krate),
            kind: FileKind::TestCode,
        },
        ["src", ..] => FileScope {
            crate_name: "tnb".to_string(),
            kind: FileKind::LibSrc,
        },
        _ => FileScope {
            crate_name: "tnb".to_string(),
            kind: FileKind::TestCode,
        },
    }
}

/// Package name of a `crates/<dir>` crate (all follow the `tnb-<dir>`
/// convention).
fn crate_package_name(dir: &str) -> String {
    format!("tnb-{dir}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let s = classify("crates/core/src/receiver.rs");
        assert_eq!(s.crate_name, "tnb-core");
        assert_eq!(s.kind, FileKind::LibSrc);
        let t = classify("crates/phy/tests/alloc_free.rs");
        assert_eq!(t.crate_name, "tnb-phy");
        assert_eq!(t.kind, FileKind::TestCode);
        let f = classify("src/lib.rs");
        assert_eq!(f.crate_name, "tnb");
        assert_eq!(f.kind, FileKind::LibSrc);
        let e = classify("examples/quickstart.rs");
        assert_eq!(e.kind, FileKind::TestCode);
    }

    #[test]
    fn parallel_pass1_preserves_input_order() {
        let inputs: Vec<LintInput> = (0..23)
            .map(|i| LintInput {
                rel_path: format!("crates/core/src/f{i}.rs"),
                scope: classify("crates/core/src/x.rs"),
                content: format!("fn f{i}() {{}}\n"),
            })
            .collect();
        let analyzed = pass1(&inputs);
        for (i, a) in analyzed.iter().enumerate() {
            assert_eq!(a.mdl.rel_path, format!("crates/core/src/f{i}.rs"));
        }
    }
}
