//! Golden outcome gate: the dense Indoor SF8/CR4 scene of `tnb-cli
//! generate --sf 8 --cr 4 --load 25 --duration 3 --seed 1` must decode to
//! the same multiset of per-packet outcomes and the same six report
//! tallies, with SIC off and on, for any worker count. Streamed in
//! chunks, the same scene's report must count each transmission once.

use tnb::core::{
    DecodeOutcome, DecodeReport, SicConfig, StreamingReceiver, TnbConfig, TnbReceiver,
};
use tnb::phy::{CodingRate, LoRaParams, SpreadingFactor};
use tnb::sim::{build_experiment, BuiltExperiment, Deployment, ExperimentConfig};

fn params() -> LoRaParams {
    LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4)
}

fn dense_scene() -> BuiltExperiment {
    build_experiment(&ExperimentConfig {
        load_pps: 25.0,
        duration_s: 3.0,
        seed: 1,
        ..ExperimentConfig::new(params(), Deployment::Indoor)
    })
}

/// `(status, pass, reason)` of one outcome: decoded outcomes carry their
/// pass and no reason, degraded ones a reason and pass 0.
fn key(o: &DecodeOutcome) -> (&'static str, u8, &'static str) {
    match o {
        DecodeOutcome::Decoded { pass, .. } => ("decoded", *pass, "-"),
        DecodeOutcome::Degraded { reason, .. } => ("degraded", 0, reason.name()),
    }
}

/// The outcome multiset as sorted `(key, count)` rows.
fn outcome_counts(r: &DecodeReport) -> Vec<((&'static str, u8, &'static str), usize)> {
    let mut keys: Vec<_> = r.outcomes.iter().map(key).collect();
    keys.sort_unstable();
    let mut rows: Vec<(_, usize)> = Vec::new();
    for k in keys {
        match rows.last_mut() {
            Some((last, n)) if *last == k => *n += 1,
            _ => rows.push((k, 1)),
        }
    }
    rows
}

/// `(detected, decoded, second_pass_rescues, header_failures,
/// payload_failures, truncated)`.
fn tallies(r: &DecodeReport) -> (usize, usize, usize, usize, usize, usize) {
    (
        r.detected,
        r.decoded,
        r.second_pass_rescues,
        r.header_failures,
        r.payload_failures,
        r.truncated,
    )
}

#[test]
fn dense_scene_outcomes_are_pinned() {
    let params = params();
    let built = dense_scene();
    let samples = built.trace.samples();
    let d = |pass: u8, n: usize| (("decoded", pass, "-"), n);
    let g = |reason: &'static str, n: usize| (("degraded", 0, reason), n);
    let cases = [
        (
            false,
            (35, 27, 3, 6, 2, 0),
            vec![d(1, 24), d(2, 3), g("header", 6), g("payload", 2)],
        ),
        (
            true,
            (59, 57, 33, 2, 0, 0),
            vec![d(1, 24), d(2, 3), d(3, 30), g("header", 2)],
        ),
    ];
    for (sic, want_tallies, want_outcomes) in cases {
        let cfg = TnbConfig {
            sic: SicConfig { enabled: sic },
            ..TnbConfig::default()
        };
        for workers in [1usize, 4] {
            let (decoded, report) = TnbReceiver::with_config(params, cfg)
                .with_workers(workers)
                .decode_with_report(samples);
            assert_eq!(
                tallies(&report),
                want_tallies,
                "sic={sic} workers={workers}"
            );
            assert_eq!(
                outcome_counts(&report),
                want_outcomes,
                "sic={sic} workers={workers}"
            );
            assert_eq!(decoded.len(), report.decoded, "sic={sic} workers={workers}");
        }
    }
}

#[test]
fn streamed_dense_scene_counts_each_transmission_once() {
    let built = dense_scene();
    let samples = built.trace.samples();
    let quarter_symbol = params().samples_per_symbol() as f64 / 4.0;
    for chunk in [50_000usize, 131_072] {
        let mut rx = StreamingReceiver::new(params());
        let mut emitted = Vec::new();
        for c in samples.chunks(chunk) {
            emitted.extend(rx.push(c));
        }
        emitted.extend(rx.finish());
        let report = rx.report();
        assert!(report.accounting_ok(), "chunk {chunk}: {report:?}");
        assert_eq!(report.decoded, emitted.len(), "chunk {chunk}");
        let emitted_starts: Vec<f64> = emitted.iter().map(|p| p.start).collect();
        for o in &report.outcomes {
            match o {
                DecodeOutcome::Decoded { start, .. } => assert!(
                    emitted_starts.contains(start),
                    "chunk {chunk}: decoded outcome at {start} was not emitted"
                ),
                DecodeOutcome::Degraded { start, .. } => assert!(
                    emitted_starts
                        .iter()
                        .all(|s| (s - start).abs() >= quarter_symbol),
                    "chunk {chunk}: degraded outcome at {start} is an emitted packet"
                ),
            }
        }
    }
}
