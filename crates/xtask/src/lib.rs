//! `tnb-xtask`: dependency-free workspace tooling for the TnB repo.
//!
//! The `lint` subcommand is a line/token-level static analyzer enforcing
//! the repo invariants clippy cannot express — serial/parallel decode
//! determinism, the zero-allocation `DspScratch` symbol path, panic-free
//! library crates, unsafe hygiene, the crate layering DAG, and a
//! justification budget for `#[allow]`s. See `DESIGN.md` ("Static
//! analysis & enforced invariants") for the rule table and escape-hatch
//! syntax, and `crates/xtask/tests/fixtures/` for one minimal bad
//! snippet per rule.

pub mod callgraph;
pub mod dead;
pub mod diagnostics;
pub mod effects;
pub mod layering;
pub mod locks;
pub mod model;
pub mod rules;
pub mod source;
pub mod walk;

pub use diagnostics::Diagnostic;
pub use rules::{analyze_file, FileKind, FileScope, RULES};
pub use source::SourceFile;
pub use walk::{classify, lint_files, run_lint, LintInput};

/// Analyzes a single in-memory file under `scope` — the entry point the
/// golden-fixture suite drives. Routed through [`lint_files`] so the
/// interprocedural flow/lock rules run too (over the one-file graph).
pub fn analyze_source(file: &str, content: &str, scope: &FileScope) -> Vec<Diagnostic> {
    lint_files(&[LintInput {
        rel_path: file.to_string(),
        scope: scope.clone(),
        content: content.to_string(),
    }])
}
