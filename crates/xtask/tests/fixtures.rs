//! Golden-fixture suite: every lint rule has a minimal bad snippet in
//! `tests/fixtures/` declaring, in `//@` header lines, the scope it is
//! analyzed under and the exact `(rule, line)` diagnostics it must
//! produce. The suite fails on missing *and* on surplus diagnostics, so
//! rule regressions in either direction are caught.

use std::path::{Path, PathBuf};
use tnb_xtask::rules::{FileKind, FileScope};
use tnb_xtask::{analyze_source, dead, layering, model, run_lint, SourceFile};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Parsed `//@` header: the scope to analyze under and the expected
/// `(rule, 1-based line)` pairs (empty for `//@ expect: none`).
fn parse_header(name: &str, content: &str) -> (FileScope, Vec<(String, usize)>) {
    let mut crate_name = None;
    let mut kind = None;
    let mut expects = Vec::new();
    for line in content.lines() {
        let Some(rest) = line.strip_prefix("//@ ") else {
            continue;
        };
        let (key, value) = rest
            .split_once(':')
            .unwrap_or_else(|| panic!("{name}: malformed header line `{line}`"));
        let value = value.trim();
        match key.trim() {
            "crate" => crate_name = Some(value.to_string()),
            "kind" => {
                kind = Some(match value {
                    "lib" => FileKind::LibSrc,
                    "test" => FileKind::TestCode,
                    other => panic!("{name}: unknown kind `{other}`"),
                })
            }
            "expect" if value == "none" => {}
            "expect" => {
                let (rule, at) = value
                    .split_once('@')
                    .unwrap_or_else(|| panic!("{name}: malformed expect `{value}`"));
                expects.push((
                    rule.trim().to_string(),
                    at.trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("{name}: bad line in `{value}`")),
                ));
            }
            other => panic!("{name}: unknown header key `{other}`"),
        }
    }
    let scope = FileScope {
        crate_name: crate_name.unwrap_or_else(|| panic!("{name}: missing `//@ crate:`")),
        kind: kind.unwrap_or_else(|| panic!("{name}: missing `//@ kind:`")),
    };
    (scope, expects)
}

#[test]
fn every_fixture_produces_exactly_its_expected_diagnostics() {
    let dir = fixtures_dir();
    let mut names: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("fixtures dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    names.sort();
    assert!(
        names.len() >= 18,
        "expected at least one fixture per source rule, found {}",
        names.len()
    );
    for path in names {
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let content = std::fs::read_to_string(&path).expect("read fixture");
        let (scope, mut expected) = parse_header(&name, &content);
        let mut actual: Vec<(String, usize)> = analyze_source(&name, &content, &scope)
            .into_iter()
            .map(|d| (d.rule.to_string(), d.line))
            .collect();
        expected.sort();
        actual.sort();
        assert_eq!(
            actual, expected,
            "{name}: diagnostics mismatch (left = actual, right = expected)"
        );
    }
}

#[test]
fn diagnostics_are_span_accurate_and_ci_greppable() {
    let content = std::fs::read_to_string(fixtures_dir().join("det01_wall_clock.rs")).unwrap();
    let scope = FileScope {
        crate_name: "tnb-core".into(),
        kind: FileKind::LibSrc,
    };
    let diags = analyze_source("det01_wall_clock.rs", &content, &scope);
    assert_eq!(diags.len(), 1);
    let d = &diags[0];
    // Column points at the `Instant::now` token itself (1-based).
    let line = content.lines().nth(d.line - 1).unwrap();
    assert_eq!(
        &line[d.col - 1..d.col - 1 + "Instant::now".len()],
        "Instant::now"
    );
    assert_eq!(
        d.render(),
        format!("det01_wall_clock.rs:{}: [TNB-DET01] {}", d.line, d.message)
    );
}

#[test]
fn dead01_fixture_flags_only_pub_fns_nothing_calls() {
    // TNB-DEAD01 needs every caller in view, so it runs on a file set
    // (workspace files plus out-of-workspace callers), not one fixture.
    let dir = fixtures_dir().join("dead01");
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).expect("read fixture");
    let mut models = Vec::new();
    let mut srcs = Vec::new();
    let mut expected = Vec::new();
    for name in ["lib.rs", "caller.rs"] {
        let content = read(name);
        let (scope, expects) = parse_header(name, &content);
        expected.extend(expects.into_iter().map(|(rule, line)| (name, rule, line)));
        let src = SourceFile::parse(&content);
        models.push(model::build(name, &scope, &src));
        srcs.push(src);
    }
    let callers = [SourceFile::parse(&read("bench.rs"))];
    let mut diags = Vec::new();
    dead::check(&models, &srcs, &callers, &mut diags);
    let mut actual: Vec<(&str, String, usize)> = diags
        .iter()
        .map(|d| (d.file.as_str(), d.rule.to_string(), d.line))
        .collect();
    actual.sort();
    expected.sort();
    assert_eq!(actual, expected, "left = actual, right = expected");
    // Without the bench package in view, its only use is gone.
    let mut diags = Vec::new();
    dead::check(&models, &srcs, &[], &mut diags);
    assert!(diags.iter().any(|d| d.message.contains("bench_only")));
}

fn load_manifest(file: &str) -> layering::Manifest {
    let content = std::fs::read_to_string(fixtures_dir().join("layering").join(file)).unwrap();
    layering::parse_manifest(file, &content).expect("parse fixture manifest")
}

#[test]
fn layering_fixture_bad_dependency() {
    let manifests = [load_manifest("bad_dep_core.toml")];
    let mut diags = Vec::new();
    layering::check(&manifests, &mut diags);
    let got: Vec<(&str, usize)> = diags.iter().map(|d| (d.rule, d.line)).collect();
    // Only the tnb-sim line violates; tnb-dsp is allowed.
    assert_eq!(got, vec![("TNB-LAYER01", 8)]);
}

#[test]
fn layering_fixture_cycle() {
    let manifests = [
        load_manifest("cycle_extras.toml"),
        load_manifest("cycle_widgets.toml"),
    ];
    let mut diags = Vec::new();
    layering::check(&manifests, &mut diags);
    let mut got: Vec<(&str, &str, usize)> = diags
        .iter()
        .map(|d| (d.rule, d.file.as_str(), d.line))
        .collect();
    got.sort();
    // The cycle is reported from both entry points, on each closing edge;
    // neither crate is in the ALLOWED table so there is no LAYER01 noise.
    assert_eq!(
        got,
        vec![
            ("TNB-LAYER02", "cycle_extras.toml", 8),
            ("TNB-LAYER02", "cycle_widgets.toml", 6),
        ]
    );
}

#[test]
fn workspace_tree_is_lint_clean() {
    // The zero-violation baseline is itself an invariant: a PR that
    // introduces a violation (or an analyzer change that misfires on the
    // real tree) fails this test even before the CI lint gate runs.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root.canonicalize().expect("workspace root");
    let diags = run_lint(&root).expect("lint run");
    let rendered: Vec<String> = diags.iter().map(|d| d.render()).collect();
    assert!(
        rendered.is_empty(),
        "workspace is not lint-clean:\n{}",
        rendered.join("\n")
    );
}
