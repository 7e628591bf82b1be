//! Baseline scheme tests: every scheme must decode clean packets, and the
//! collision-resolution schemes must beat LoRaPHY under collisions.

use tnb_baselines::SchemeKind;
use tnb_channel::trace::{PacketConfig, TraceBuilder};
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor};

fn params() -> LoRaParams {
    LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4)
}

#[test]
fn every_scheme_decodes_a_clean_packet() {
    let p = params();
    let payload = b"clean as can be!".to_vec();
    let mut b = TraceBuilder::new(p, 1);
    b.add_packet(
        &payload,
        PacketConfig {
            start_sample: 6_000,
            snr_db: 10.0,
            cfo_hz: 1100.0,
            ..Default::default()
        },
    );
    let t = b.build();
    for kind in SchemeKind::ALL {
        let scheme = kind.build(p);
        let decoded = scheme.decode(&[t.samples()]);
        assert_eq!(decoded.len(), 1, "{}", scheme.name());
        assert_eq!(decoded[0].payload, payload, "{}", scheme.name());
    }
}

#[test]
fn collision_resolvers_beat_lora_phy_under_collision() {
    let p = params();
    let l = p.samples_per_symbol();
    // Two packets overlapping through most of their payloads.
    let pay1 = b"first payload 01".to_vec();
    let pay2 = b"second payload 2".to_vec();
    let mut b = TraceBuilder::new(p, 2);
    b.add_packet(
        &pay1,
        PacketConfig {
            start_sample: 3_000,
            snr_db: 12.0,
            cfo_hz: 1700.0,
            ..Default::default()
        },
    );
    b.add_packet(
        &pay2,
        PacketConfig {
            start_sample: 3_000 + 15 * l + 777,
            snr_db: 11.0,
            cfo_hz: -2100.0,
            ..Default::default()
        },
    );
    let t = b.build();

    let count = |kind: SchemeKind| kind.build(p).decode(&[t.samples()]).len();
    let tnb = count(SchemeKind::Tnb);
    let cic = count(SchemeKind::Cic);
    let at = count(SchemeKind::AlignTrack);
    assert_eq!(tnb, 2, "TnB should resolve both");
    assert!(cic >= 1, "CIC should decode at least one, got {cic}");
    assert!(at >= 1, "AlignTrack* should decode at least one, got {at}");
}

#[test]
fn bec_variants_do_no_worse() {
    let p = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR3);
    let l = p.samples_per_symbol();
    let mut b = TraceBuilder::new(p, 3);
    for (i, off) in [2_000usize, 2_000 + 13 * l + 555].into_iter().enumerate() {
        b.add_packet(
            &[(i as u8 + 1) * 17; 16],
            PacketConfig {
                start_sample: off,
                snr_db: 8.0 + i as f32,
                cfo_hz: 1000.0 - 2500.0 * i as f64,
                ..Default::default()
            },
        );
    }
    let t = b.build();
    let plain = SchemeKind::Cic.build(p).decode(&[t.samples()]).len();
    let plus = SchemeKind::CicBec.build(p).decode(&[t.samples()]).len();
    assert!(plus >= plain, "CIC+ {plus} < CIC {plain}");
    let plain = SchemeKind::AlignTrack.build(p).decode(&[t.samples()]).len();
    let plus = SchemeKind::AlignTrackBec
        .build(p)
        .decode(&[t.samples()])
        .len();
    assert!(plus >= plain, "AlignTrack*+ {plus} < AlignTrack* {plain}");
}

#[test]
fn scheme_names_are_stable() {
    for kind in SchemeKind::ALL {
        let p = params();
        assert_eq!(kind.build(p).name(), kind.name());
    }
}
