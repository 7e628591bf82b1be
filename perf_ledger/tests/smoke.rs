//! Smoke test of the perf ledger: every workload at `--scale 0.05`.
//!
//! Checks that every metric `BENCHMARK.json` names is printed with its
//! unit (untraced and traced), that two runs on the same seed count the
//! same work, and that the output checks fail loudly on corrupted input.

use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "batch_dense_sf8",
    "gateway_rt_sf8",
    "wideband_sparse_8ch",
    "city_sic_2gw",
];

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn metrics(bench: &str, list: &str) -> Vec<(String, String)> {
    let start = bench.find(&format!("\"{list}\"")).expect("list present");
    let body = &bench[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = rest[open..].find('"').expect("string closes");
        rest[open..open + close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

struct Run {
    ok: bool,
    stdout: String,
}

impl Run {
    fn result(&self) -> &str {
        self.stdout.lines().last().unwrap_or_default()
    }

    fn ledger(&self) -> &str {
        self.stdout
            .lines()
            .find(|l| l.starts_with("{\"ledger\""))
            .unwrap_or_default()
    }

    /// The raw value of `"key":` in the ledger line: a flat object or a
    /// string.
    fn ledger_field(&self, key: &str) -> &str {
        let l = self.ledger();
        let at = l.find(&format!("\"{key}\":")).expect("ledger field") + key.len() + 3;
        let close = if l[at..].starts_with('{') { '}' } else { ',' };
        let end = l[at..].find(close).map_or(l.len(), |e| at + e + 1);
        &l[at..end]
    }
}

fn perf(workload: &str, extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--scale", "0.05"])
        .args(extra)
        .output()
        .expect("perf runs");
    Run {
        ok: out.status.success(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
    }
}

fn assert_metrics(run: &Run, expected: &[(String, String)], workload: &str) {
    let result = run.result();
    assert!(
        result.starts_with("{\"correct\":true,"),
        "{workload}: {result}"
    );
    for (name, unit) in expected {
        let at = result
            .find(&format!("\"{name}\":{{\"value\":"))
            .unwrap_or_else(|| panic!("{workload}: {name} missing from {result}"));
        let obj = &result[at..];
        let obj = &obj[..obj.find('}').unwrap_or(obj.len())];
        assert!(
            obj.ends_with(&format!("\"unit\":\"{unit}\"")),
            "{workload}: {obj} is not in {unit}"
        );
        assert!(
            run.stdout.contains(&format!("{workload} {name} ")),
            "{workload}: {name} not printed by name"
        );
    }
}

#[test]
fn every_workload_reports_counts_and_checks() {
    let bench = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let end_to_end = metrics(&bench, "end_to_end");
    let per_layer = metrics(&bench, "per_layer");
    assert_eq!(end_to_end.len(), 7);
    assert!(per_layer.len() > 30);

    for w in WORKLOADS {
        let a = perf(w, &[]);
        let b = perf(w, &[]);
        assert!(a.ok && b.ok, "{w} failed:\n{}\n{}", a.stdout, b.stdout);
        assert_metrics(&a, &end_to_end, w);
        assert_eq!(a.ledger_field("input"), b.ledger_field("input"), "{w}");
        assert_eq!(
            a.ledger_field("counters"),
            b.ledger_field("counters"),
            "{w}: work counters differ between runs"
        );

        let traced = perf(w, &["--trace", "1"]);
        assert!(traced.ok, "{w} traced failed:\n{}", traced.stdout);
        assert_metrics(&traced, &per_layer, w);

        let corrupt = perf(w, &["--corrupt"]);
        assert!(!corrupt.ok, "{w}: corrupted input passed its checks");
        assert!(
            corrupt.result().starts_with("{\"correct\":false,")
                && corrupt.stdout.contains("# CHECK FAILED: "),
            "{w}: corrupted input not reported: {}",
            corrupt.stdout
        );
    }
}
