//! Pinned work counters: per workload and seed, the exact counters a
//! full-scale run produced, keyed by the fingerprint of its input.
//!
//! A pin gates the program, not the input generator: when the generated
//! input no longer matches the pinned fingerprint (an upstream change to
//! synthesis or payloads), the pin is reported stale and not applied.
//! When the input matches, every pinned counter must repeat exactly.
//!
//! Every run reports how its counters compare with the pin, but a
//! mismatch does not make the run incorrect: counters are work, not
//! output, and a change that cuts work on purpose must still be
//! measurable against its parent. The exact gate is `perf --check-pins`,
//! which exits non-zero on any difference, and `compare.py`, which diffs
//! the counters of parent and change runs. A change that alters work
//! counts on purpose re-records the pins with `perf --pin` and says so.

use crate::ledger::{Ledger, PINNED_COUNTERS};
use crate::WORKLOADS;
use std::collections::BTreeMap;

const PINS: &str = include_str!("../pins.json");
const PINS_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/pins.json");

/// One pin: `(workload, seed)` → key → value (strings unquoted).
type Pin = BTreeMap<String, String>;

fn parse(text: &str) -> Vec<Pin> {
    text.lines()
        .filter_map(|l| {
            let body = l.trim().trim_end_matches(',');
            let body = body.strip_prefix('{')?.strip_suffix('}')?;
            Some(
                body.split(',')
                    .filter_map(|kv| {
                        let (k, v) = kv.split_once(':')?;
                        Some((
                            k.trim().trim_matches('"').to_string(),
                            v.trim().trim_matches('"').to_string(),
                        ))
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Compares `led`'s counters with the pin of `(workload, seed)`, notes
/// every difference and returns the verdict: `match`, `mismatch`,
/// `stale` (the input is not the pinned one) or `none`.
pub fn check(workload: &str, seed: u64, led: &mut Ledger) -> &'static str {
    let seed_s = seed.to_string();
    let Some(pin) = parse(PINS).into_iter().find(|p| {
        p.get("workload").map(String::as_str) == Some(workload) && p.get("seed") == Some(&seed_s)
    }) else {
        return "none";
    };
    let input = format!("{:016x}", led.input);
    if pin.get("input") != Some(&input) {
        led.notes.push(format!(
            "pin stale: input {input} differs from the pinned {}",
            pin.get("input").map_or("?", String::as_str)
        ));
        return "stale";
    }
    let mut verdict = "match";
    for name in PINNED_COUNTERS {
        let Some(want) = pin.get(name) else { continue };
        let got = led
            .counters
            .get(name)
            .map(u64::to_string)
            .unwrap_or_default();
        if *want != got {
            led.notes
                .push(format!("pin mismatch: {name} = {got}, pinned {want}"));
            verdict = "mismatch";
        }
    }
    verdict
}

/// Runs every workload on the seed range and either re-records
/// `pins.json` (`write`) or checks the runs against it. Returns whether
/// every run passed its output checks and, when checking, matched its
/// pin exactly.
pub fn record(seeds: (u64, u64), write: bool, mut run: impl FnMut(&str, u64) -> Ledger) -> bool {
    let mut lines = Vec::new();
    let mut ok = true;
    for seed in seeds.0..=seeds.1 {
        for w in WORKLOADS {
            let led = run(w, seed);
            if !led.failures().is_empty() {
                eprintln!("{w} seed {seed}: checks failed: {:?}", led.failures());
                ok = false;
            }
            let mut line = format!(
                "{{\"workload\":\"{w}\",\"seed\":{seed},\"input\":\"{:016x}\"",
                led.input
            );
            for name in PINNED_COUNTERS {
                if let Some(v) = led.counters.get(name) {
                    line.push_str(&format!(",\"{name}\":{v}"));
                }
            }
            line.push('}');
            lines.push(line);
        }
    }
    if !ok {
        return false;
    }
    if !write {
        let pinned: Vec<&str> = PINS.lines().map(|l| l.trim_end_matches(',')).collect();
        let mut same = true;
        for line in &lines {
            if !pinned.contains(&line.as_str()) {
                eprintln!("differs from pins.json: {line}");
                same = false;
            }
        }
        if same {
            eprintln!("every run matches its pin");
        }
        return same;
    }
    let body = format!("[\n{}\n]\n", lines.join(",\n"));
    match std::fs::write(PINS_PATH, body) {
        Ok(()) => {
            eprintln!("wrote {PINS_PATH}");
            true
        }
        Err(e) => {
            eprintln!("cannot write {PINS_PATH}: {e}");
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_one_object_per_line() {
        let pins =
            parse("[\n{\"workload\":\"a\",\"seed\":2,\"offered\":7},\n{\"workload\":\"b\"}\n]\n");
        assert_eq!(pins.len(), 2);
        assert_eq!(pins[0]["seed"], "2");
        assert_eq!(pins[0]["offered"], "7");
        assert_eq!(pins[1]["workload"], "b");
    }
}
