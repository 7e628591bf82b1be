//! Thrive parameter ablation: the weight ω of the history cost (paper
//! §5.3.3 sets ω = 0.1; ω = 0 degenerates to the "Sibling" configuration
//! of Fig. 15) and the history smoothing window.

use tnb_baselines::Scheme;
use tnb_bench::{ExpArgs, TablePrinter};
use tnb_core::packet::DecodedPacket;
use tnb_core::receiver::{TnbConfig, TnbReceiver};
use tnb_core::thrive::ThriveConfig;
use tnb_core::PipelineMetrics;
use tnb_dsp::Complex32;
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor};
use tnb_sim::{build_experiment, run_scheme, Deployment, ExperimentConfig};

/// A TnB receiver with a custom Thrive configuration, as a Scheme.
struct CustomTnb {
    rx: TnbReceiver,
}

impl Scheme for CustomTnb {
    fn name(&self) -> &'static str {
        "TnB(custom)"
    }
    fn decode(&self, antennas: &[&[Complex32]]) -> Vec<DecodedPacket> {
        self.rx
            .decode_multi_report_observed(antennas, &PipelineMetrics::disabled())
            .0
    }
}

fn main() {
    let args = ExpArgs::parse();
    let load = args.loads.iter().copied().fold(0.0f64, f64::max);
    let sf = if args.quick {
        SpreadingFactor::SF8
    } else {
        SpreadingFactor::SF10
    };
    let params = LoRaParams::new(sf, CodingRate::CR4);
    // Average over `--runs` independent traces: single-trace differences
    // between Thrive configurations are noisy.
    let builds: Vec<_> = (0..args.runs.max(1))
        .map(|r| {
            build_experiment(&ExperimentConfig {
                load_pps: load,
                duration_s: args.duration_s,
                seed: args.seed + r * 131,
                ..ExperimentConfig::new(params, Deployment::Indoor)
            })
        })
        .collect();
    let sent: usize = builds.iter().map(|b| b.schedule.len()).sum();
    println!(
        "Thrive ablation: SF {} CR 4 Indoor at {load} pkt/s ({} packets over {} runs)\n",
        sf.value(),
        sent,
        builds.len()
    );

    println!("history-cost weight ω (paper default 0.1; 0 = \"Sibling\"):");
    let mut t = TablePrinter::new(["omega", "decoded", "PRR"]);
    for omega in [0.0f32, 0.05, 0.1, 0.2, 0.5, 1.0] {
        let thrive = ThriveConfig {
            omega,
            use_history: omega > 0.0,
            ..ThriveConfig::default()
        };
        let scheme = CustomTnb {
            rx: TnbReceiver::with_config(
                params,
                TnbConfig {
                    thrive,
                    ..TnbConfig::default()
                },
            ),
        };
        let decoded: usize = builds
            .iter()
            .map(|b| run_scheme(&scheme, b).matched.correct.len())
            .sum();
        t.row([
            format!("{omega}"),
            format!("{decoded}"),
            format!("{:.2}", decoded as f64 / sent as f64),
        ]);
    }
    t.print();

    println!("\nhistory smoothing window (symbols):");
    let mut t = TablePrinter::new(["window", "decoded", "PRR"]);
    for window in [1usize, 3, 7, 15, 31] {
        let thrive = ThriveConfig {
            history_window: window,
            ..ThriveConfig::default()
        };
        let scheme = CustomTnb {
            rx: TnbReceiver::with_config(
                params,
                TnbConfig {
                    thrive,
                    ..TnbConfig::default()
                },
            ),
        };
        let decoded: usize = builds
            .iter()
            .map(|b| run_scheme(&scheme, b).matched.correct.len())
            .sum();
        t.row([
            format!("{window}"),
            format!("{decoded}"),
            format!("{:.2}", decoded as f64 / sent as f64),
        ]);
    }
    t.print();
}
