//! Exact work gate on the SIC rescue pass: a seeded two-antenna SF8 scene
//! with two near-far pairs must decode the same packets with the same SIC
//! rounds, subtractions, skips, re-detections, rescues, sync attempts and
//! signal vectors every run, for any worker count.
//!
//! The pairs start 70 symbols apart: the receiver's overlap horizon (one
//! maximal packet) puts all four packets in one cluster, while SIC's
//! components (actual extents plus one symbol) split them in two.

use tnb::channel::trace::{PacketConfig, TraceBuilder};
use tnb::core::{PipelineMetrics, SicConfig, StageCounters, TnbConfig, TnbReceiver};
use tnb::phy::{CodingRate, LoRaParams, SpreadingFactor};

fn params() -> LoRaParams {
    LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4)
}

/// Two near-far pairs on two antennas: in each, a weak packet's preamble
/// lands inside a strong packet 15 dB louder. Returns the antennas and
/// the four payloads in start order.
fn scene() -> (Vec<Vec<tnb::dsp::Complex32>>, Vec<Vec<u8>>) {
    let p = params();
    let l = p.samples_per_symbol();
    let mut b = TraceBuilder::new(p, 2029).with_antennas(2);
    let packets = [
        (4_000, 18.0, -1_800.0, 0.41),
        (4_000 + 3 * l + l / 3, 3.0, 2_400.0, 0.73),
        (4_000 + 70 * l, 17.0, 1_200.0, 0.18),
        (4_000 + 73 * l + l / 2, 2.0, -2_700.0, 0.55),
    ];
    let mut payloads = Vec::new();
    for (k, (start_sample, snr_db, cfo_hz, frac_delay)) in packets.into_iter().enumerate() {
        let payload: Vec<u8> = (0..16).map(|i| (k * 53 + i * 11) as u8).collect();
        b.add_packet(
            &payload,
            PacketConfig {
                start_sample,
                snr_db,
                cfo_hz,
                frac_delay,
                node_id: k as u32 + 1,
                ..Default::default()
            },
        );
        payloads.push(payload);
    }
    (b.build().antennas, payloads)
}

/// `(sic_rounds, sic_subtracted, sic_skipped, sic_redetections,
/// sic_rescues, sync_attempts, sigcalc_vectors)` of one decode.
fn work(c: &StageCounters) -> (u64, u64, u64, u64, u64, u64, u64) {
    (
        c.sic_rounds,
        c.sic_subtracted,
        c.sic_skipped,
        c.sic_redetections,
        c.sic_rescues,
        c.sync_attempts,
        c.sigcalc_vectors,
    )
}

#[test]
fn sic_work_is_exact_across_worker_counts() {
    let (antennas, payloads) = scene();
    let refs: Vec<&[tnb::dsp::Complex32]> = antennas.iter().map(Vec::as_slice).collect();
    let cfg = TnbConfig {
        sic: SicConfig { enabled: true },
        ..TnbConfig::default()
    };
    for workers in [1usize, 4] {
        let metrics = PipelineMetrics::enabled();
        let (decoded, report) = TnbReceiver::with_config(params(), cfg)
            .with_workers(workers)
            .decode_multi_report_observed(&refs, &metrics);
        assert_eq!(metrics.clusters.get(), 1.0, "workers={workers}");
        let got: Vec<Vec<u8>> = decoded.iter().map(|d| d.payload.clone()).collect();
        assert_eq!(got, payloads, "workers={workers}");
        assert!(report.stages.sic_rescues >= 1, "workers={workers}");
        assert_eq!(
            work(&report.stages),
            (4, 6, 0, 2, 2, 10, 224),
            "workers={workers}"
        );
    }
}
