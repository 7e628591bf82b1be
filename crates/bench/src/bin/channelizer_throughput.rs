//! Wideband channelizer throughput: synthesizes an 8-channel wideband
//! scene (one packet per occupied LoRa uplink channel), streams it
//! through the gateway daemon with the wire protocol's WIDEBAND flag,
//! and reports end-to-end packets/sec and samples/sec — while checking
//! the uplink transcript is byte-identical to a direct in-process
//! `WidebandReceiver` decode. The JSON row (`--json-out`) feeds the
//! BENCH_throughput.json artifact and the CI packets/sec regression
//! gate against `results/channelizer_baseline.json`.

use tnb_bench::{ExpArgs, TablePrinter};
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor};
use tnb_sim::loopback::{run, LoopbackConfig};

fn main() {
    let args = ExpArgs::parse();
    let params = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
    let mut cfg = LoopbackConfig::wideband(params);
    cfg.seed = args.seed.wrapping_add(39);
    if !args.quick {
        // Spread packets across more of the band (channel edges stay
        // covered by the dsp chunk-invariance and wideband unit tests).
        cfg.occupied = vec![1, 2, 4, 5, 6];
    }
    let bench = match run(&cfg) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("wideband loopback failed: {e}");
            std::process::exit(1);
        }
    };
    if !bench.byte_identical() {
        eprintln!("wideband loopback diverged from the in-process reference decode");
        std::process::exit(1);
    }

    println!(
        "Wideband channelizer loopback: {} channels, {} occupied, seed {}\n",
        bench.per_channel.len(),
        cfg.occupied.len(),
        cfg.seed
    );
    let mut t = TablePrinter::new(["channel", "packets"]);
    for (c, n) in bench.per_channel.iter().enumerate() {
        t.row([format!("{c}"), format!("{n}")]);
    }
    t.print();
    println!(
        "\n{} packets uplinked over {:.1} Msamples: {:.1} packets/s, {:.2} Msamples/s, byte-identical",
        bench.stats.packets_uplinked,
        bench.samples as f64 / 1e6,
        bench.packets_per_sec(),
        bench.samples_per_sec() / 1e6,
    );

    if let Some(path) = &args.json_out {
        let per: Vec<String> = bench.per_channel.iter().map(u64::to_string).collect();
        let body = format!(
            "{{\"benchmark\":\"channelizer_throughput\",\"seed\":{},\"occupied\":{},\
             \"wideband\":{{\"channels\":{},\"per_channel_packets\":[{}],\
             \"packets_per_sec\":{:.2},\"samples_per_sec\":{:.0},\
             \"uplinked\":{},\"samples\":{},\"byte_identical\":{}}}}}",
            cfg.seed,
            cfg.occupied.len(),
            bench.per_channel.len(),
            per.join(","),
            bench.packets_per_sec(),
            bench.samples_per_sec(),
            bench.stats.packets_uplinked,
            bench.samples,
            bench.byte_identical(),
        );
        match std::fs::write(path, body) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
}
