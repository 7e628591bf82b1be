//! Trace files: write a synthetic multi-node trace in the paper's USRP
//! 16-bit I/Q format, read it back, and decode it — the same workflow as
//! the paper's published artifact (trace file in, packet list out).
//!
//! Run with: `cargo run --release --example trace_files`

use tnb::baselines::SchemeKind;
use tnb::channel::io::{load_trace, save_trace};
use tnb::phy::{CodingRate, LoRaParams, SpreadingFactor};
use tnb::sim::traffic::parse_payload;
use tnb::sim::{build_experiment, Deployment, ExperimentConfig};

fn main() {
    let params = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR3);
    let cfg = ExperimentConfig {
        load_pps: 8.0,
        duration_s: 2.0,
        seed: 77,
        ..ExperimentConfig::new(params, Deployment::Indoor)
    };
    let built = build_experiment(&cfg);

    let path = std::env::temp_dir().join("indoor-SF8-CR3.iq16");
    save_trace(&path, built.trace.samples()).expect("write trace");
    println!(
        "wrote {} ({:.1} MB, {} packets hidden inside)",
        path.display(),
        (built.trace.len() * 4) as f64 / 1e6,
        built.schedule.len()
    );

    let samples = load_trace(&path).expect("read trace");
    let scheme = SchemeKind::Tnb.build(params);
    let decoded = scheme.decode(&[&samples]);
    println!("\nnode  seq   SNR(dB)  start(s)");
    let mut correct = 0;
    for d in &decoded {
        if let Some((node, seq)) = parse_payload(&d.payload) {
            println!(
                "{node:<5} {seq:<5} {:<8.1} {:.4}",
                d.snr_db,
                d.start / params.sample_rate()
            );
            correct += 1;
        }
    }
    println!("\n- TnB decoded {correct} pkts from the file -");
    std::fs::remove_file(&path).ok();
}
