//! Exact work gate on the fractional sync search: a seeded SF8 collision
//! scene must cost the same attempts, acceptances, aligned signal vectors
//! and sync FFTs every run, through the batch receiver and the streaming
//! receiver alike, and no attempt may run more than 68 FFTs (36 grid
//! points, two of which reuse an earlier `Q`, at one FFT per chirp
//! direction).

use tnb::channel::trace::{PacketConfig, TraceBuilder};
use tnb::core::{StageCounters, StreamingConfig, StreamingReceiver, TnbReceiver};
use tnb::phy::{CodingRate, LoRaParams, SpreadingFactor};

fn params() -> LoRaParams {
    LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4)
}

/// Two collision groups, far enough apart that the streaming receiver
/// decodes them in different windows, and a last packet cut off just
/// after its preamble: it synchronizes but never decodes.
fn scene() -> Vec<tnb::dsp::Complex32> {
    let p = params();
    let l = p.samples_per_symbol();
    let mut b = TraceBuilder::new(p, 2024);
    let packets = [
        (4_000, 14.0, -2_100.0),
        (4_333 + 9 * l, 11.0, 900.0),
        (4_666 + 23 * l, 8.0, 2_700.0),
        (300_000, 10.0, 1_500.0),
        (301_111 + 17 * l, 12.0, -600.0),
        (520_000, 12.0, 300.0),
    ];
    for (k, (start_sample, snr_db, cfo_hz)) in packets.into_iter().enumerate() {
        let payload: Vec<u8> = (0..14).map(|i| (k * 41 + i * 7) as u8).collect();
        b.add_packet(
            &payload,
            PacketConfig {
                start_sample,
                snr_db,
                cfo_hz,
                ..Default::default()
            },
        );
    }
    let mut samples = b.build().samples().to_vec();
    samples.truncate(520_000 + 13 * l);
    samples
}

/// `(attempts, accepted, vectors, ffts)` of one decode, after checking
/// the per-attempt FFT bound.
fn work(c: &StageCounters) -> (u64, u64, u64, u64) {
    assert!(c.sync_ffts <= 68 * c.sync_attempts, "{c:?}");
    (
        c.sync_attempts,
        c.sync_accepted,
        c.sigcalc_vectors,
        c.sync_ffts,
    )
}

#[test]
fn sync_work_is_exact_and_bounded() {
    let samples = scene();
    let rx = TnbReceiver::new(params());
    let (decoded, report) = rx.decode_with_report(&samples);
    assert_eq!(decoded.len(), 5);
    assert_eq!(rx.decode(&samples), decoded);
    assert_eq!(work(&report.stages), (6, 6, 253, 408));

    // Overlapping windows re-detect packets, so streaming does more work
    // than one batch decode, and how much depends on the chunking.
    let cfg = StreamingConfig {
        max_payload: 16,
        window_factor: 2,
        ..StreamingConfig::default()
    };
    for (chunk, want) in [
        (50_000, (19, 19, 782, 1292)),
        (131_072, (15, 15, 590, 1020)),
    ] {
        let mut s = StreamingReceiver::with_config(params(), cfg);
        let mut n = 0;
        for c in samples.chunks(chunk) {
            n += s.push(c).len();
        }
        n += s.finish().len();
        assert_eq!(n, 5, "chunk {chunk}");
        assert_eq!(work(&s.report().stages), want, "chunk {chunk}");
    }
}
