//! Collision resolution: three nodes transmit overlapping packets; TnB
//! (Thrive + BEC) recovers all of them while the standard decoder cannot.
//!
//! Run with: `cargo run --release --example collision_resolution`

use tnb::baselines::SchemeKind;
use tnb::channel::trace::{PacketConfig, TraceBuilder};
use tnb::phy::{CodingRate, LoRaParams, SpreadingFactor};

fn main() {
    let params = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR3);
    let l = params.samples_per_symbol();

    // Three nodes with different timing offsets, CFOs and powers — the
    // features Thrive's matching cost exploits.
    let payloads: Vec<Vec<u8>> = (1..=3u8)
        .map(|i| format!("node {i} says hi!").into_bytes())
        .collect();
    let mut builder = TraceBuilder::new(params, 99);
    let offsets = [5_000, 5_000 + 13 * l + 444, 5_000 + 26 * l + 1717];
    let snrs = [13.0f32, 9.0, 11.0];
    let cfos = [1200.0f64, -2700.0, 3600.0];
    for i in 0..3 {
        builder.add_packet(
            &payloads[i],
            PacketConfig {
                start_sample: offsets[i],
                snr_db: snrs[i],
                cfo_hz: cfos[i],
                ..Default::default()
            },
        );
    }
    let trace = builder.build();

    for kind in [SchemeKind::LoRaPhy, SchemeKind::Cic, SchemeKind::Tnb] {
        let scheme = kind.build(params);
        let decoded = scheme.decode(&[trace.samples()]);
        let ok = decoded
            .iter()
            .filter(|d| payloads.iter().any(|p| p == &d.payload))
            .count();
        println!("{:<12} decoded {ok}/3 collided packets", scheme.name());
    }
}
