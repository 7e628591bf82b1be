//! Second-pass behaviour at high load: the two-pass receiver must decode
//! at least as much as the single-pass one, and pass-2 rescues appear
//! under heavy collisions.

use tnb_baselines::Scheme;
use tnb_core::packet::DecodedPacket;
use tnb_core::receiver::{TnbConfig, TnbReceiver};
use tnb_core::PipelineMetrics;
use tnb_dsp::Complex32;
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor};
use tnb_sim::{build_experiment, run_scheme, Deployment, ExperimentConfig};

struct ConfiguredTnb(TnbReceiver);

impl Scheme for ConfiguredTnb {
    fn name(&self) -> &'static str {
        "TnB(configured)"
    }
    fn decode(&self, antennas: &[&[Complex32]]) -> Vec<DecodedPacket> {
        self.0
            .decode_multi_report_observed(antennas, &PipelineMetrics::disabled())
            .0
    }
}

#[test]
fn two_pass_never_worse_and_sometimes_rescues() {
    let params = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
    let mut total_one = 0usize;
    let mut total_two = 0usize;
    let mut pass2_seen = 0usize;
    for seed in [1u64, 2, 3] {
        let cfg = ExperimentConfig {
            load_pps: 22.0,
            duration_s: 2.0,
            seed,
            ..ExperimentConfig::new(params, Deployment::Indoor)
        };
        let built = build_experiment(&cfg);
        let one = ConfiguredTnb(TnbReceiver::with_config(
            params,
            TnbConfig {
                two_pass: false,
                ..TnbConfig::default()
            },
        ));
        let two = ConfiguredTnb(TnbReceiver::with_config(params, TnbConfig::default()));
        let r1 = run_scheme(&one, &built);
        let r2 = run_scheme(&two, &built);
        total_one += r1.matched.correct.len();
        total_two += r2.matched.correct.len();
        pass2_seen += r2
            .matched
            .pass_per_packet
            .iter()
            .filter(|&&p| p == 2)
            .count();
        for &p in &r2.matched.pass_per_packet {
            assert!(p == 1 || p == 2);
        }
    }
    assert!(
        total_two >= total_one,
        "two-pass {total_two} < single-pass {total_one}"
    );
    // Across three heavily loaded runs at least one packet should need
    // the second pass (the paper's motivation for it).
    assert!(pass2_seen >= 1, "no pass-2 rescues observed");
}
