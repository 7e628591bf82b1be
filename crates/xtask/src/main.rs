//! `tnb-xtask` CLI.
//!
//! ```text
//! cargo run -p tnb-xtask -- lint [--json | --github] [--root <dir>]
//! cargo run -p tnb-xtask -- rules
//! ```
//!
//! `lint` exits 0 on a clean tree and 1 with `file:line: [RULE_ID]
//! message` diagnostics otherwise. `--json` switches stdout to the
//! machine-readable report; `--github` emits GitHub Actions
//! problem-matcher lines (`::error file=…,line=…,col=…::…`) so
//! violations annotate the PR diff. `rules` prints the rule table.
//!
//! Without `--root`, `lint` scans the Cargo workspace that contains the
//! current directory, so a prebuilt binary lints the checkout it runs
//! in. Every summary line names the root it scanned.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use tnb_xtask::{diagnostics, run_lint, RULES};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("rules") => {
            println!("{:<12} {:<16} summary", "rule", "group");
            for (id, group, summary) in RULES {
                println!("{id:<12} {group:<16} {summary}");
            }
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown subcommand `{other}`");
            usage();
            ExitCode::from(2)
        }
        None => {
            usage();
            ExitCode::from(2)
        }
    }
}

fn usage() {
    eprintln!("usage: tnb-xtask lint [--json | --github] [--root <dir>]");
    eprintln!("       tnb-xtask rules");
}

fn lint(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut github = false;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--github" => github = true,
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--root requires a directory");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
                return ExitCode::from(2);
            }
        }
    }
    let root = match root.or_else(|| workspace_root(&std::env::current_dir().ok()?)) {
        Some(root) => root,
        None => {
            eprintln!("tnb-xtask lint: no Cargo workspace contains the current directory; pass --root <dir>");
            return ExitCode::from(2);
        }
    };
    let started = std::time::Instant::now();
    let diags = match run_lint(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("tnb-xtask lint: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let elapsed = started.elapsed();
    if json {
        println!("{}", diagnostics::to_json(&diags));
    } else if github {
        // GitHub Actions problem-matcher lines: the runner turns these
        // into inline annotations on the PR diff. Newlines would break
        // the single-line command protocol, so flatten the message.
        for d in &diags {
            println!(
                "::error file={},line={},col={}::[{}] {}",
                d.file,
                d.line,
                d.col,
                d.rule,
                d.message.replace('\n', " ")
            );
        }
        eprintln!(
            "tnb-xtask lint: {} violation(s) in {} in {:.2?}",
            diags.len(),
            root.display(),
            elapsed
        );
    } else {
        for d in &diags {
            println!("{}", d.render());
        }
        eprintln!(
            "tnb-xtask lint: {} violation(s) across {} rule(s) in {} in {:.2?}",
            diags.len(),
            diags
                .iter()
                .map(|d| d.rule)
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            root.display(),
            elapsed
        );
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The root of the Cargo workspace that contains `dir`: the nearest
/// ancestor whose `Cargo.toml` has a `[workspace]` table listing
/// `members`. A standalone package inside the tree (`perf_ledger/`)
/// declares an empty `[workspace]` of its own and is passed over.
fn workspace_root(dir: &Path) -> Option<PathBuf> {
    let lists_members = |manifest: String| {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != "[workspace]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .any(|l| l.starts_with("members"))
    };
    dir.ancestors()
        .find(|d| std::fs::read_to_string(d.join("Cargo.toml")).is_ok_and(lists_members))
        .map(Path::to_path_buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_is_found_from_inside_the_tree() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let root = root.canonicalize().unwrap();
        for dir in ["", "crates/xtask/src", "perf_ledger/src"] {
            assert_eq!(workspace_root(&root.join(dir)), Some(root.clone()), "{dir}");
        }
    }

    #[test]
    fn directory_outside_any_workspace_has_no_root() {
        let dir = std::env::temp_dir().join(format!("tnb-xtask-root-{}", std::process::id()));
        let nested = dir.join("pkg/src");
        std::fs::create_dir_all(&nested).unwrap();
        // A package with an empty `[workspace]` is not a workspace root.
        std::fs::write(
            dir.join("pkg/Cargo.toml"),
            "[package]\nname = \"p\"\n\n[workspace]\n",
        )
        .unwrap();
        let found = workspace_root(&nested);
        std::fs::write(dir.join("Cargo.toml"), "[workspace]\nmembers = [\"pkg\"]\n").unwrap();
        let with_parent = workspace_root(&nested);
        std::fs::remove_dir_all(&dir).unwrap();
        // `temp_dir()` may itself sit inside a workspace; only a root at
        // or below `dir` would be wrong.
        assert!(
            found.as_ref().is_none_or(|r| !r.starts_with(&dir)),
            "{found:?}"
        );
        assert_eq!(with_parent, Some(dir));
    }
}
