//! Determinism lockdown for the receiver's worker knob: a decode with a
//! tightened clustering horizon must be byte-identical to the default
//! one-worker [`TnbReceiver`] for any worker count, and a seeded
//! collision trace must decode to exact payloads with exact report
//! counters.

use tnb_channel::trace::{PacketConfig, Trace, TraceBuilder};
use tnb_core::TnbReceiver;
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor};

fn params() -> LoRaParams {
    LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4)
}

/// Three packets from distinct nodes, the middle one colliding with both
/// neighbours (starts one packet-length apart minus overlap), fixed seed.
fn three_packet_collision(seed: u64) -> (Trace, [Vec<u8>; 3]) {
    let p = params();
    let l = p.samples_per_symbol();
    let payloads = [vec![0xA1u8; 16], vec![0x5B; 16], vec![0x3C; 16]];
    let mut b = TraceBuilder::new(p, seed);
    let cfg = [
        (4_000usize, 12.0f32, 1_500.0f64),
        (4_000 + 14 * l + 300, 10.0, -2_200.0),
        (4_000 + 28 * l + 900, 9.0, 800.0),
    ];
    for (payload, &(start_sample, snr_db, cfo_hz)) in payloads.iter().zip(&cfg) {
        b.add_packet(
            payload,
            PacketConfig {
                start_sample,
                snr_db,
                cfo_hz,
                ..Default::default()
            },
        );
    }
    (b.build(), payloads)
}

/// Eight staggered packets — enough clusters for real fan-out.
fn staggered_trace(seed: u64) -> Trace {
    let p = params();
    let l = p.samples_per_symbol();
    let mut b = TraceBuilder::new(p, seed);
    for i in 0..8usize {
        b.add_packet(
            &[(i as u8 + 1) * 17; 16],
            PacketConfig {
                start_sample: 4_000 + i * 60 * l + i * 137,
                snr_db: 9.0 + (i % 3) as f32,
                cfo_hz: -2_000.0 + 550.0 * i as f64,
                ..Default::default()
            },
        );
    }
    b.build()
}

#[test]
fn seeded_collision_decodes_exact_payloads_serial_and_parallel() {
    let (trace, payloads) = three_packet_collision(7);
    let serial = TnbReceiver::new(params());
    let (decoded, report) = serial.decode_with_report(trace.samples());

    // All three payloads recovered, in start order, bit-exact.
    assert_eq!(decoded.len(), 3, "report: {report:?}");
    for (d, want) in decoded.iter().zip(&payloads) {
        assert_eq!(&d.payload, want);
        assert_eq!(d.header.payload_len, 16);
    }
    assert!(decoded.windows(2).all(|w| w[0].start < w[1].start));

    // Exact counters: every detection decoded, nothing failed.
    assert_eq!(report.detected, 3);
    assert_eq!(report.decoded, 3);
    assert_eq!(report.header_failures, 0);
    assert_eq!(report.payload_failures, 0);
    assert_eq!(report.truncated, 0);

    // The parallel receiver reproduces both packets and counters.
    for workers in [1, 4] {
        let par = TnbReceiver::new(params())
            .with_workers(workers)
            .with_max_payload_len(16);
        let (pd, pr) = par.decode_with_report(trace.samples());
        assert_eq!(pd, decoded, "workers={workers}");
        assert_eq!(pr, report, "workers={workers}");
    }
}

#[test]
fn parallel_is_byte_identical_to_serial_across_worker_counts() {
    for seed in [3u64, 11] {
        let trace = staggered_trace(seed);
        let serial = TnbReceiver::new(params());
        let (sd, sr) = serial.decode_with_report(trace.samples());
        assert!(!sd.is_empty(), "seed {seed}: serial decoded nothing");
        for workers in [1usize, 2, 8] {
            let par = TnbReceiver::new(params())
                .with_workers(workers)
                .with_max_payload_len(16);
            let (pd, pr) = par.decode_with_report(trace.samples());
            assert_eq!(pd, sd, "seed={seed} workers={workers}");
            assert_eq!(pr, sr, "seed={seed} workers={workers}");
        }
    }
}

#[test]
fn parallel_matches_serial_with_untightened_horizon() {
    // Without the payload-length hint every packet may land in one
    // cluster; the result must still be identical.
    let trace = staggered_trace(5);
    let serial = TnbReceiver::new(params());
    let (sd, sr) = serial.decode_with_report(trace.samples());
    let par = TnbReceiver::new(params()).with_workers(4);
    let (pd, pr) = par.decode_with_report(trace.samples());
    assert_eq!(pd, sd);
    assert_eq!(pr, sr);
}

#[test]
fn empty_trace_decodes_to_nothing() {
    let mut b = TraceBuilder::new(params(), 42);
    b.set_min_len(40_000);
    let noise_only = b.build();
    let par = TnbReceiver::new(params()).with_workers(4);
    let (pd, pr) = par.decode_with_report(noise_only.samples());
    assert!(pd.is_empty());
    assert_eq!(pr.detected, 0);
}
