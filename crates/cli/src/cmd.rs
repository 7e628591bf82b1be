//! Subcommand implementations for `tnb-cli`.

use tnb_baselines::SchemeKind;
use tnb_channel::io::{load_trace, save_trace};
use tnb_channel::trace::{PacketConfig, TraceBuilder};
use tnb_channel::FaultPlan;
use tnb_core::streaming::{StreamingConfig, StreamingReceiver};
use tnb_core::{
    DecodeReport, DegradeReason, MetricsSnapshot, PipelineMetrics, Stage, TnbConfig, TnbReceiver,
};
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor};
use tnb_sim::loopback::{LoopbackConfig, LoopbackOutcome};
use tnb_sim::traffic::parse_payload;
use tnb_sim::{build_experiment, Deployment, ExperimentConfig};

/// Top-level usage text.
pub const USAGE: &str = "\
tnb-cli — LoRa trace generation and collision decoding (TnB, CoNEXT'22)

commands:
  generate --out FILE --sf N [--cr N] [--load PPS] [--duration S]
           [--deployment indoor|outdoor1|outdoor2] [--seed N]
      synthesize a multi-node trace and write it as 16-bit I/Q (1 Msps)

  decode --trace FILE --sf N [--cr N] [--scheme NAME] [--workers N]
         [--wideband]
      decode a trace file; schemes: tnb (default), tnb+sic, thrive,
      sibling, lora-phy, cic, cic+, aligntrack, aligntrack+. --workers N
      decodes with N threads (TnB-family schemes only; same output,
      faster). --wideband treats the trace as one wideband capture
      spanning 8 LoRa uplink channels: a polyphase channelizer splits
      it and every channel is decoded with its own streaming receiver
      (tnb scheme only)

  compare --trace FILE --sf N [--cr N] [--workers N]
      decode with every scheme and print the comparison table

  report (--trace FILE | --demo-collision) [--sf N] [--cr N] [--seed N]
         [--workers N] [--sic] [--json]
      decode with the TnB pipeline and print the observability report:
      per-stage wall times, event counters and distributions.
      --demo-collision synthesizes a seeded 3-packet SF8 collision;
      --sic enables the SIC rescue pass (subtract decoded packets,
      re-decode the residual)

  faults (--trace FILE | --demo-collision) [--sf N] [--cr N] [--seed N]
         [--receiver serial|parallel|streaming|all] [--workers N]
         [--sic] [--json]
      run the seeded fault-injection matrix (truncation, sample gaps,
      NaN/Inf bursts, clipping, DC offset, IQ imbalance, interferer
      bursts) against the decode pipeline and print, per fault, how
      the receiver degraded: detected/decoded counts, per-reason
      degradation histogram and exhausted iteration budgets. The
      clean row is the fault-free baseline

  gateway serve --addr HOST:PORT --sf N [--cr N] [--workers N] [--queue N]
                [--quota N] [--idle-timeout MS] [--max-conns N] [--sic]
      run the networked gateway daemon: framed IQ in over TCP, decoded
      packets out as JSON lines (Semtech-style rxpk objects with
      sample-clock timestamps). Stops on a client SHUTDOWN verb.
      --idle-timeout disconnects silent peers after MS ms (0 = off),
      --max-conns answers BUSY past N concurrent connections (0 = off),
      --quota caps buffered chunks per stream (0 = off)

  gateway send --addr HOST:PORT (--trace FILE | --demo-collision)
               [--sf N] [--cr N] [--seed N] [--stream N] [--chunk N]
               [--wideband] [--stats] [--shutdown] [--chaos-seed N]
      stream a trace to a running daemon and print its uplink lines.
      --sf, --cr and --seed shape the --demo-collision scene only.
      --wideband marks every DATA frame with the WIDEBAND flag so the
      daemon channelizes the stream into 8 uplink channels first; with
      --demo-collision it sends a wideband scene with one packet on
      each of channels 1, 4 and 6.
      --chaos-seed routes the connection through an in-process
      NetFaultPlan proxy (seeded injector picked from the matrix) and
      drives it with the reconnect+RESUME resilient client

  gateway bench [--sf N] [--cr N] [--workers N,M] [--streams N]
                [--packets N] [--seed N] [--json] [--chaos-seed N]
      in-process loopback throughput of the daemon (also verifies the
      uplink is byte-identical to a direct decode). --chaos-seed runs
      the seeded network-chaos soak matrix instead: every NetFaultPlan
      injector against a live daemon, asserting transcript parity

  deploy run [--nodes N] [--gateways K] [--load PPS] [--duration S]
             [--seed N] [--sf LIST] [--cr N] [--side M]
             [--traffic poisson|bursty:N] [--workers N] [--shard N]
             [--chunk N] [--sic] [--wideband] [--json]
      city-scale discrete-event deployment simulation: N nodes drop on
      a planar city, K gateways synthesize their IQ in streaming chunks
      (never a full trace in memory) through the complete TnB receive
      chain, and a network layer dedups cross-gateway copies with
      capture. --sf takes a comma list (e.g. 7,8,10) assigned to nodes
      by link quality; --traffic bursty:N sends duty-cycle-constrained
      bursts of up to N packets. Prints offered load, goodput, PRR and
      delay percentiles (--json for the machine-readable report).
      Output is byte-identical for any --workers / --shard / --chunk

  info --trace FILE
      print basic trace statistics";

/// Tiny `--flag value` parser.
struct Flags<'a>(&'a [String]);

impl<'a> Flags<'a> {
    fn get(&self, name: &str) -> Option<&'a str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn require(&self, name: &str) -> Result<&'a str, String> {
        self.get(name).ok_or_else(|| format!("missing {name}"))
    }

    fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

/// Receiver configuration from the shared flags (currently just `--sic`).
fn parse_tnb_config(flags: &Flags) -> TnbConfig {
    let mut cfg = TnbConfig::default();
    cfg.sic.enabled = flags.has("--sic");
    cfg
}

fn parse_params(flags: &Flags) -> Result<LoRaParams, String> {
    let sf: usize = flags.require("--sf")?.parse().map_err(|_| "bad --sf")?;
    let sf = SpreadingFactor::from_value(sf).ok_or("--sf must be 7..=12")?;
    let cr: usize = flags.parse_or("--cr", 4usize)?;
    let cr = CodingRate::from_value(cr).ok_or("--cr must be 1..=4")?;
    Ok(LoRaParams::new(sf, cr))
}

/// `tnb-cli generate`: synthesize a deployment trace to a file.
pub fn generate(args: &[String]) -> Result<(), String> {
    let flags = Flags(args);
    let out = flags.require("--out")?;
    let params = parse_params(&flags)?;
    let deployment = match flags.get("--deployment").unwrap_or("indoor") {
        "indoor" => Deployment::Indoor,
        "outdoor1" => Deployment::Outdoor1,
        "outdoor2" => Deployment::Outdoor2,
        other => return Err(format!("unknown deployment {other}")),
    };
    let cfg = ExperimentConfig {
        load_pps: flags.parse_or("--load", 10.0f64)?,
        duration_s: flags.parse_or("--duration", 3.0f64)?,
        seed: flags.parse_or("--seed", 1u64)?,
        ..ExperimentConfig::new(params, deployment)
    };
    let built = build_experiment(&cfg);
    save_trace(out, built.trace.samples()).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} samples, {:.1} s at 1 Msps, {} packets from {} nodes)",
        out,
        built.trace.len(),
        built.trace.len() as f64 / params.sample_rate(),
        built.schedule.len(),
        deployment.node_count(),
    );
    Ok(())
}

/// `tnb-cli decode`: decode a trace file with a scheme and list packets.
pub fn decode(args: &[String]) -> Result<(), String> {
    let flags = Flags(args);
    let path = flags.require("--trace")?;
    let params = parse_params(&flags)?;
    let kind = match flags.get("--scheme").unwrap_or("tnb") {
        "tnb" => SchemeKind::Tnb,
        "tnb+sic" => SchemeKind::TnbSic,
        "thrive" => SchemeKind::Thrive,
        "sibling" => SchemeKind::Sibling,
        "lora-phy" => SchemeKind::LoRaPhy,
        "cic" => SchemeKind::Cic,
        "cic+" => SchemeKind::CicBec,
        "aligntrack" => SchemeKind::AlignTrack,
        "aligntrack+" => SchemeKind::AlignTrackBec,
        other => return Err(format!("unknown scheme {other}")),
    };
    let workers: usize = flags.parse_or("--workers", 1usize)?;
    let samples = load_trace(path).map_err(|e| e.to_string())?;
    if flags.has("--wideband") {
        if !matches!(kind, SchemeKind::Tnb) {
            return Err("--wideband supports only the tnb scheme (streaming pipeline)".into());
        }
        return decode_wideband(params, &samples, workers.max(1));
    }
    let scheme = kind.build(params);
    let (decoded, _) =
        scheme.decode_observed(&[&samples], workers.max(1), &PipelineMetrics::disabled());

    println!("node   seq    SNR(dB)  start(s)  CFO(Hz)");
    for d in &decoded {
        let (node, seq) = parse_payload(&d.payload)
            .map(|(n, s)| (n.to_string(), s.to_string()))
            .unwrap_or_else(|| ("?".into(), "?".into()));
        println!(
            "{node:<6} {seq:<6} {:<8.1} {:<9.4} {:<8.0}",
            d.snr_db,
            d.start / params.sample_rate(),
            d.cfo_cycles * params.bin_hz(),
        );
    }
    println!("- {} decoded {} pkts -", scheme.name(), decoded.len());
    Ok(())
}

/// `tnb-cli decode --wideband`: split one wideband capture into its
/// LoRa uplink channels with the polyphase channelizer and decode each
/// channel with its own streaming receiver.
fn decode_wideband(
    params: LoRaParams,
    samples: &[tnb_dsp::Complex32],
    workers: usize,
) -> Result<(), String> {
    let cfg = tnb_core::WidebandConfig {
        streaming: StreamingConfig {
            workers,
            ..StreamingConfig::default()
        },
        ..tnb_core::WidebandConfig::default()
    };
    let mut rx = tnb_core::WidebandReceiver::with_config(params, cfg);
    let channels = rx.channels();
    let mut decoded = Vec::new();
    for chunk in samples.chunks(262_144) {
        decoded.extend(rx.push(chunk));
    }
    decoded.extend(rx.finish());

    println!("chan   node   seq    SNR(dB)  start(s)  CFO(Hz)");
    for cp in &decoded {
        let d = &cp.packet;
        let (node, seq) = parse_payload(&d.payload)
            .map(|(n, s)| (n.to_string(), s.to_string()))
            .unwrap_or_else(|| ("?".into(), "?".into()));
        println!(
            "{:<6} {node:<6} {seq:<6} {:<8.1} {:<9.4} {:<8.0}",
            cp.channel,
            d.snr_db,
            d.start / params.sample_rate(),
            d.cfo_cycles * params.bin_hz(),
        );
    }
    println!(
        "- tnb wideband decoded {} pkts across {} channels -",
        decoded.len(),
        channels
    );
    Ok(())
}

/// `tnb-cli compare`: run every scheme over a trace file and print the
/// comparison table (decoded counts), like a one-trace Fig. 12 cell.
pub fn compare(args: &[String]) -> Result<(), String> {
    let flags = Flags(args);
    let path = flags.require("--trace")?;
    let params = parse_params(&flags)?;
    let workers: usize = flags.parse_or("--workers", 1usize)?;
    let samples = load_trace(path).map_err(|e| e.to_string())?;
    println!("{:<14} {:>8}", "scheme", "decoded");
    for kind in SchemeKind::ALL {
        let scheme = kind.build(params);
        let n = scheme
            .decode_observed(&[&samples], workers.max(1), &PipelineMetrics::disabled())
            .0
            .len();
        println!("{:<14} {:>8}", scheme.name(), n);
    }
    Ok(())
}

/// Synthesizes the seeded three-packet collision used by the repo's
/// determinism tests: three SF8/CR4 packets from distinct nodes, the
/// middle one colliding with both neighbours.
fn demo_collision(params: LoRaParams, seed: u64) -> Vec<tnb_dsp::Complex32> {
    let l = params.samples_per_symbol();
    let mut b = TraceBuilder::new(params, seed);
    let cfg = [
        (vec![0xA1u8; 16], 4_000usize, 12.0f32, 1_500.0f64),
        (vec![0x5B; 16], 4_000 + 14 * l + 300, 10.0, -2_200.0),
        (vec![0x3C; 16], 4_000 + 28 * l + 900, 9.0, 800.0),
    ];
    for (payload, start_sample, snr_db, cfo_hz) in cfg {
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
    b.build().samples().to_vec()
}

/// Renders the observability report as one JSON object: top-level decode
/// outcome, per-stage deterministic counters, then the wall-time and
/// distribution snapshot.
fn report_json(workers: usize, report: &DecodeReport, snapshot: &MetricsSnapshot) -> String {
    let mut stages = String::new();
    for (i, &stage) in Stage::ALL.iter().enumerate() {
        if i > 0 {
            stages.push(',');
        }
        stages.push_str(&format!("\"{}\":{{", stage.name()));
        for (j, (name, value)) in report.stages.stage_fields(stage).iter().enumerate() {
            if j > 0 {
                stages.push(',');
            }
            stages.push_str(&format!("\"{name}\":{value}"));
        }
        stages.push('}');
    }
    format!(
        "{{\"scheme\":\"tnb\",\"workers\":{workers},\
         \"detected\":{},\"decoded\":{},\"header_failures\":{},\
         \"payload_failures\":{},\"truncated\":{},\
         \"second_pass_rescues\":{},\"outcomes\":{},\
         \"stage_counters\":{{{stages}}},\"metrics\":{}}}",
        report.detected,
        report.decoded,
        report.header_failures,
        report.payload_failures,
        report.truncated,
        report.second_pass_rescues,
        report.outcomes_json(),
        snapshot.to_json(),
    )
}

/// `tnb-cli report`: decode with the TnB pipeline and print per-stage
/// wall times, counters and distributions (the observability layer).
pub fn report(args: &[String]) -> Result<(), String> {
    let flags = Flags(args);
    let (params, samples) = if flags.has("--demo-collision") {
        let sf = SpreadingFactor::from_value(flags.parse_or("--sf", 8usize)?)
            .ok_or("--sf must be 7..=12")?;
        let cr =
            CodingRate::from_value(flags.parse_or("--cr", 4usize)?).ok_or("--cr must be 1..=4")?;
        let params = LoRaParams::new(sf, cr);
        (
            params,
            demo_collision(params, flags.parse_or("--seed", 7u64)?),
        )
    } else {
        let path = flags.require("--trace")?;
        let params = parse_params(&flags)?;
        (params, load_trace(path).map_err(|e| e.to_string())?)
    };
    let workers: usize = flags.parse_or("--workers", 1usize)?.max(1);
    let cfg = parse_tnb_config(&flags);
    let metrics = PipelineMetrics::enabled();
    let (decoded, report) = TnbReceiver::with_config(params, cfg)
        .with_workers(workers)
        .decode_multi_report_observed(&[&samples], &metrics);
    let snapshot = metrics.snapshot();

    if flags.has("--json") {
        println!("{}", report_json(workers, &report, &snapshot));
        return Ok(());
    }

    println!(
        "decoded {} / {} detected  (header fail {}, payload fail {}, truncated {})",
        decoded.len(),
        report.detected,
        report.header_failures,
        report.payload_failures,
        report.truncated,
    );
    println!(
        "{:<8} {:>6} {:>12} {:>10} {:>10}  counters",
        "stage", "spans", "wall_sum_us", "p50_us", "p99_us"
    );
    for stage in Stage::ALL {
        let w = snapshot.wall(stage);
        let counters = report
            .stages
            .stage_fields(stage)
            .iter()
            .map(|(name, value)| format!("{name}={value}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "{:<8} {:>6} {:>12.1} {:>10.1} {:>10.1}  {counters}",
            stage.name(),
            w.count,
            w.sum as f64 / 1e3,
            w.p50 as f64 / 1e3,
            w.p99 as f64 / 1e3,
        );
    }
    let cost = &snapshot.matching_cost_milli;
    let cand = &snapshot.bec_candidates;
    println!(
        "matching cost (milli): n={} p50={} p99={}   BEC candidates: n={} p50={} p99={}",
        cost.count, cost.p50, cost.p99, cand.count, cand.p50, cand.p99,
    );
    Ok(())
}

/// All degradation reasons, in the order the fault report prints them.
const REASONS: [DegradeReason; 5] = [
    DegradeReason::Header,
    DegradeReason::Payload,
    DegradeReason::PayloadBudget,
    DegradeReason::Truncated,
    DegradeReason::WorkerPanic,
];

/// One fault-matrix row: which receiver saw which fault, and how it fared.
struct FaultRow {
    receiver: &'static str,
    fault: &'static str,
    samples: usize,
    decoded: usize,
    report: DecodeReport,
}

/// Decodes `samples` with one receiver flavour, returning packet count
/// and the full report: `serial` is the batch receiver at one worker,
/// `parallel` at `workers`, and `streaming` pushes in 64k-sample chunks
/// to exercise the chunk-boundary path.
fn decode_flavour(
    flavour: &'static str,
    params: LoRaParams,
    cfg: TnbConfig,
    workers: usize,
    samples: &[tnb_dsp::Complex32],
) -> (usize, DecodeReport) {
    if flavour == "streaming" {
        let cfg = StreamingConfig {
            receiver: cfg,
            workers,
            ..Default::default()
        };
        let mut rx = StreamingReceiver::with_config(params, cfg);
        let mut n = 0;
        for chunk in samples.chunks(65_536) {
            n += rx.push(chunk).len();
        }
        n += rx.finish().len();
        return (n, rx.report());
    }
    let workers = if flavour == "serial" { 1 } else { workers };
    let (d, r) = TnbReceiver::with_config(params, cfg)
        .with_workers(workers)
        .decode_with_report(samples);
    (d.len(), r)
}

/// Renders the fault matrix as a JSON array of row objects.
fn faults_json(rows: &[FaultRow]) -> String {
    let mut out = String::from("[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut reasons = String::new();
        for (j, r) in REASONS.iter().enumerate() {
            if j > 0 {
                reasons.push(',');
            }
            reasons.push_str(&format!(
                "\"{}\":{}",
                r.name(),
                row.report.degraded_with(*r)
            ));
        }
        out.push_str(&format!(
            "{{\"receiver\":\"{}\",\"fault\":\"{}\",\"samples\":{},\
             \"detected\":{},\"decoded\":{},\"degraded\":{},\
             \"reasons\":{{{reasons}}},\
             \"thrive_budget_exhausted\":{},\"bec_budget_exhausted\":{}}}",
            row.receiver,
            row.fault,
            row.samples,
            row.report.detected,
            row.decoded,
            row.report.degraded(),
            row.report.stages.thrive_budget_exhausted,
            row.report.stages.bec_budget_exhausted,
        ));
    }
    out.push(']');
    out
}

/// `tnb-cli faults`: run the seeded fault-injection matrix against the
/// decode pipeline and report graceful-degradation behaviour per fault.
pub fn faults(args: &[String]) -> Result<(), String> {
    let flags = Flags(args);
    let seed: u64 = flags.parse_or("--seed", 7u64)?;
    let (params, base) = if flags.has("--trace") {
        let path = flags.require("--trace")?;
        let params = parse_params(&flags)?;
        (params, load_trace(path).map_err(|e| e.to_string())?)
    } else {
        let sf = SpreadingFactor::from_value(flags.parse_or("--sf", 8usize)?)
            .ok_or("--sf must be 7..=12")?;
        let cr =
            CodingRate::from_value(flags.parse_or("--cr", 4usize)?).ok_or("--cr must be 1..=4")?;
        let params = LoRaParams::new(sf, cr);
        (params, demo_collision(params, seed))
    };
    let workers: usize = flags.parse_or("--workers", 2usize)?.max(1);
    let flavours: Vec<&'static str> = match flags.get("--receiver").unwrap_or("all") {
        "serial" => vec!["serial"],
        "parallel" => vec!["parallel"],
        "streaming" => vec!["streaming"],
        "all" => vec!["serial", "parallel", "streaming"],
        other => return Err(format!("unknown receiver {other}")),
    };

    let matrix = FaultPlan::matrix(seed);
    let cfg = parse_tnb_config(&flags);
    let mut rows = Vec::new();
    for flavour in &flavours {
        for (name, plan) in &matrix {
            let faulty = plan.apply(&base);
            let (decoded, report) = decode_flavour(flavour, params, cfg, workers, &faulty);
            rows.push(FaultRow {
                receiver: flavour,
                fault: name,
                samples: faulty.len(),
                decoded,
                report,
            });
        }
    }

    if flags.has("--json") {
        println!("{}", faults_json(&rows));
        return Ok(());
    }

    println!(
        "{:<10} {:<14} {:>9} {:>8} {:>7} {:>8}  degradation reasons / budgets",
        "receiver", "fault", "samples", "detected", "decoded", "degraded"
    );
    for row in &rows {
        let mut notes: Vec<String> = REASONS
            .iter()
            .filter_map(|r| {
                let n = row.report.degraded_with(*r);
                (n > 0).then(|| format!("{}={n}", r.name()))
            })
            .collect();
        if row.report.stages.thrive_budget_exhausted > 0 {
            notes.push(format!(
                "thrive-budget={}",
                row.report.stages.thrive_budget_exhausted
            ));
        }
        if row.report.stages.bec_budget_exhausted > 0 {
            notes.push(format!(
                "bec-budget={}",
                row.report.stages.bec_budget_exhausted
            ));
        }
        println!(
            "{:<10} {:<14} {:>9} {:>8} {:>7} {:>8}  {}",
            row.receiver,
            row.fault,
            row.samples,
            row.report.detected,
            row.decoded,
            row.report.degraded(),
            if notes.is_empty() {
                "-".to_string()
            } else {
                notes.join(" ")
            },
        );
    }
    println!(
        "- fault matrix: {} faults x {} receivers, seed {}, no panics -",
        matrix.len(),
        flavours.len(),
        seed
    );
    Ok(())
}

/// `tnb-cli info`: basic statistics of a trace file.
pub fn info(args: &[String]) -> Result<(), String> {
    let flags = Flags(args);
    let path = flags.require("--trace")?;
    let samples = load_trace(path).map_err(|e| e.to_string())?;
    let power: f64 =
        samples.iter().map(|z| z.norm_sqr() as f64).sum::<f64>() / samples.len().max(1) as f64;
    println!(
        "{path}: {} samples, {:.3} s at 1 Msps",
        samples.len(),
        samples.len() as f64 / 1e6
    );
    println!("mean power {power:.3} (unit noise floor = 1.0 for synthetic traces)");
    Ok(())
}

/// `tnb-cli deploy`: the city-scale deployment simulator.
pub fn deploy(args: &[String]) -> Result<(), String> {
    let Some(sub) = args.first() else {
        return Err("deploy needs a subcommand: run".into());
    };
    match sub.as_str() {
        "run" => deploy_run(&args[1..]),
        other => Err(format!("unknown deploy subcommand '{other}' (run)")),
    }
}

/// `tnb-cli deploy run`: simulate a seeded city and print the report.
fn deploy_run(args: &[String]) -> Result<(), String> {
    let flags = Flags(args);
    let mut cfg = tnb_deploy::DeployConfig::default();
    cfg.nodes = flags.parse_or("--nodes", cfg.nodes)?;
    cfg.gateways = flags.parse_or("--gateways", cfg.gateways)?;
    cfg.load_pps = flags.parse_or("--load", cfg.load_pps)?;
    cfg.duration_s = flags.parse_or("--duration", cfg.duration_s)?;
    cfg.seed = flags.parse_or("--seed", cfg.seed)?;
    cfg.side_m = flags.parse_or("--side", cfg.side_m)?;
    cfg.shard_samples = flags.parse_or("--shard", cfg.shard_samples)?;
    cfg.chunk_samples = flags.parse_or("--chunk", cfg.chunk_samples)?;
    cfg.sic = flags.has("--sic");
    cfg.wideband = flags.has("--wideband");
    cfg.cr = CodingRate::from_value(flags.parse_or("--cr", 4usize)?).ok_or("--cr must be 1..=4")?;
    if let Some(list) = flags.get("--sf") {
        let mut sfs = Vec::new();
        for part in list.split(',') {
            let v: usize = part
                .trim()
                .parse()
                .map_err(|_| format!("bad value for --sf: {part}"))?;
            sfs.push(SpreadingFactor::from_value(v).ok_or("--sf must list values in 7..=12")?);
        }
        cfg.sfs = sfs;
    }
    if let Some(t) = flags.get("--traffic") {
        cfg.traffic = match t {
            "poisson" => tnb_deploy::TrafficModel::Poisson,
            other => match other.strip_prefix("bursty:").map(str::parse) {
                Some(Ok(n)) => tnb_deploy::TrafficModel::Bursty { max_burst: n },
                _ => return Err(format!("bad value for --traffic: {t} (poisson | bursty:N)")),
            },
        };
    }
    if cfg.nodes == 0 || cfg.gateways == 0 {
        return Err("--nodes and --gateways must be at least 1".into());
    }
    let workers: usize = flags.parse_or("--workers", 1usize)?.max(1);
    let scene = tnb_deploy::Scene::new(cfg);
    let report = tnb_deploy::run_deploy(&scene, workers);
    if flags.has("--json") {
        println!("{}", report.to_json());
    } else {
        println!("{}", report.summary());
    }
    Ok(())
}

/// `tnb-cli gateway`: the networked daemon and its loopback clients.
pub fn gateway(args: &[String]) -> Result<(), String> {
    let Some(sub) = args.first() else {
        return Err("gateway needs a subcommand: serve | send | bench".into());
    };
    let rest = &args[1..];
    match sub.as_str() {
        "serve" => gateway_serve(rest),
        "send" => gateway_send(rest),
        "bench" => gateway_bench(rest),
        other => Err(format!(
            "unknown gateway subcommand '{other}' (serve|send|bench)"
        )),
    }
}

/// `tnb-cli gateway serve`: run the daemon until a client sends the
/// SHUTDOWN verb.
fn gateway_serve(args: &[String]) -> Result<(), String> {
    let flags = Flags(args);
    let addr = flags.get("--addr").unwrap_or("127.0.0.1:7878");
    let params = parse_params(&flags)?;
    let workers: usize = flags.parse_or("--workers", 1usize)?.max(1);
    let idle_ms: u64 = flags.parse_or("--idle-timeout", 0u64)?;
    let max_conns: usize = flags.parse_or("--max-conns", 0usize)?;
    let cfg = tnb_gateway::GatewayConfig {
        params,
        streaming: StreamingConfig {
            receiver: parse_tnb_config(&flags),
            workers,
            ..StreamingConfig::default()
        },
        queue_chunks: flags.parse_or("--queue", 256usize)?,
        quota_chunks: flags.parse_or("--quota", 0usize)?,
        idle_timeout: (idle_ms > 0).then(|| std::time::Duration::from_millis(idle_ms)),
        max_conns,
        ..tnb_gateway::GatewayConfig::new(params)
    };
    let gw = tnb_gateway::Gateway::spawn(addr, cfg).map_err(|e| format!("bind {addr}: {e}"))?;
    println!(
        "gateway listening on {} (sf {}, cr {}, {} worker{}, queue {} chunks, \
         idle-timeout {}, max-conns {})",
        gw.local_addr(),
        params.sf.value(),
        params.cr.value(),
        workers,
        if workers == 1 { "" } else { "s" },
        flags.parse_or("--queue", 256usize)?,
        if idle_ms > 0 {
            format!("{idle_ms}ms")
        } else {
            "off".into()
        },
        if max_conns > 0 {
            max_conns.to_string()
        } else {
            "off".into()
        },
    );
    // Serve until a client's SHUTDOWN verb flips the flag (the daemon
    // has no signal handling of its own — a wire verb is the one
    // graceful stop, which is what the e2e smoke exercises).
    while !gw.is_shutting_down() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let stats = gw.join();
    println!("gateway stopped: {}", stats.to_json());
    Ok(())
}

/// The samples `gateway send` streams: the `--trace` file, or the demo
/// scene — the narrowband collision, or with `--wideband` one packet on
/// each of channels 1, 4 and 6 of the 8-channel band (the loopback
/// harness's wideband scene).
fn send_samples(flags: &Flags) -> Result<Vec<tnb_dsp::Complex32>, String> {
    if !flags.has("--demo-collision") {
        return load_trace(flags.require("--trace")?).map_err(|e| e.to_string());
    }
    let sf = SpreadingFactor::from_value(flags.parse_or("--sf", 8usize)?)
        .ok_or("--sf must be 7..=12")?;
    let cr = CodingRate::from_value(flags.parse_or("--cr", 4usize)?).ok_or("--cr must be 1..=4")?;
    let params = LoRaParams::new(sf, cr);
    let seed = flags.parse_or("--seed", 7u64)?;
    Ok(if flags.has("--wideband") {
        let cfg = LoopbackConfig {
            seed,
            ..LoopbackConfig::wideband(params)
        };
        tnb_sim::loopback::scene(&cfg, 0)
    } else {
        demo_collision(params, seed)
    })
}

/// `tnb-cli gateway send`: stream a trace (or the demo collision) to a
/// daemon and print every uplink line it returns.
fn gateway_send(args: &[String]) -> Result<(), String> {
    let flags = Flags(args);
    let addr = flags.require("--addr")?;
    let samples = send_samples(&flags)?;
    let stream_id: u32 = flags.parse_or("--stream", 0u32)?;
    let chunk: usize = flags.parse_or("--chunk", tnb_gateway::client::DEFAULT_CHUNK)?;
    let chaos_seed: Option<u64> = flags
        .get("--chaos-seed")
        .map(|v| {
            v.parse()
                .map_err(|_| format!("bad value for --chaos-seed: {v}"))
        })
        .transpose()?;
    // With --chaos-seed the connection goes through an in-process
    // NetFaultPlan proxy (the seed picks one injector from the matrix
    // and its fault offsets); the client's reconnect+RESUME must
    // survive the fault.
    let proxy = chaos_seed.map(|seed| chaos_proxy(addr, seed)).transpose()?;
    let dial = proxy
        .as_ref()
        .map_or(addr.to_owned(), |p| p.local_addr().to_string());
    let mut client = tnb_gateway::GatewayClient::connect(
        dial.as_str(),
        tnb_gateway::ClientConfig {
            connect_timeout: std::time::Duration::from_secs(
                flags.parse_or("--connect-timeout", 10u64)?,
            ),
            seed: chaos_seed.unwrap_or(0),
        },
    )
    .map_err(|e| format!("connect {addr}: {e}"))?;
    client
        .send_samples(stream_id, &samples, chunk, flags.has("--wideband"))
        .map_err(|e| format!("stream: {e}"))?;
    client
        .end_stream(stream_id)
        .map_err(|e| format!("stream: {e}"))?;
    client.drain().map_err(|e| format!("drain: {e}"))?;
    if flags.has("--stats") {
        client.request_stats().map_err(|e| format!("stats: {e}"))?;
    }
    if flags.has("--shutdown") {
        client
            .request_shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
    }
    let cstats = client.stats();
    for line in client.finish() {
        println!("{line}");
    }
    if let Some(proxy) = proxy {
        let (conns, up, down, faults) = proxy.stats();
        eprintln!(
            "chaos: {} reconnect(s), {} frame(s) resent, proxy saw {} connection(s), \
             {} byte(s) up / {} down, {} fault(s) fired",
            cstats.reconnects, cstats.retransmitted_frames, conns, up, down, faults
        );
    }
    Ok(())
}

/// Spawns the `gateway send --chaos-seed` proxy in front of `addr`:
/// plan `seed % 8` of [`tnb_gateway::NetFaultPlan::matrix`].
fn chaos_proxy(addr: &str, seed: u64) -> Result<tnb_gateway::ChaosProxy, String> {
    let plans = tnb_gateway::NetFaultPlan::matrix(seed);
    let pick = (seed % plans.len() as u64) as usize;
    let plan = plans.into_iter().nth(pick).ok_or("empty chaos matrix")?;
    eprintln!(
        "chaos: injecting '{}' (seed {seed}) between client and {addr}",
        plan.name
    );
    tnb_gateway::ChaosProxy::spawn(addr, plan).map_err(|e| format!("chaos proxy: {e}"))
}

/// `tnb-cli gateway bench`: loopback throughput (daemon + client in one
/// process) for the benchmark artifact.
fn gateway_bench(args: &[String]) -> Result<(), String> {
    let flags = Flags(args);
    let sf = SpreadingFactor::from_value(flags.parse_or("--sf", 8usize)?)
        .ok_or("--sf must be 7..=12")?;
    let cr = CodingRate::from_value(flags.parse_or("--cr", 4usize)?).ok_or("--cr must be 1..=4")?;
    let params = LoRaParams::new(sf, cr);
    if let Some(chaos) = flags.get("--chaos-seed") {
        let chaos_seed: u64 = chaos
            .parse()
            .map_err(|_| format!("bad value for --chaos-seed: {chaos}"))?;
        return gateway_bench_chaos(&flags, params, chaos_seed);
    }
    let workers_list: Vec<usize> = match flags.get("--workers") {
        None => vec![1, 4],
        Some(w) => w
            .split(',')
            .map(|x| x.trim().parse().map_err(|_| format!("bad --workers: {w}")))
            .collect::<Result<_, _>>()?,
    };
    let mut rows = Vec::new();
    for &workers in &workers_list {
        let cfg = LoopbackConfig {
            workers: workers.max(1),
            streams: flags.parse_or("--streams", 2u32)?,
            packets: flags.parse_or("--packets", 3usize)?,
            seed: flags.parse_or("--seed", 7u64)?,
            ..LoopbackConfig::new(params)
        };
        let run = tnb_sim::loopback::run(&cfg).map_err(|e| e.to_string())?;
        if !run.byte_identical() {
            return Err(format!(
                "loopback at {workers} workers diverged from the direct decode"
            ));
        }
        rows.push((workers, run));
    }
    if flags.has("--json") {
        let body: Vec<String> = rows
            .iter()
            .map(|(w, r)| {
                format!(
                    "{{\"workers\":{w},\"packets_per_sec\":{:.2},\"samples_per_sec\":{:.0},\
                     \"uplinked\":{},\"samples\":{},\"byte_identical\":{}}}",
                    r.packets_per_sec(),
                    r.samples_per_sec(),
                    r.stats.packets_uplinked,
                    r.samples,
                    r.byte_identical()
                )
            })
            .collect();
        println!("{{\"gateway_loopback\":[{}]}}", body.join(","));
    } else {
        for (w, r) in &rows {
            println!(
                "workers {w}: {:.1} packets/s, {:.2} Msamples/s ({} uplinked, byte-identical)",
                r.packets_per_sec(),
                r.samples_per_sec() / 1e6,
                r.stats.packets_uplinked,
            );
        }
    }
    Ok(())
}

/// The `--chaos-seed` leg of `gateway bench`: the network-chaos soak.
/// Runs every [`tnb_gateway::NetFaultPlan::matrix`] injector against a
/// live daemon through the chaos proxy and errors unless every
/// recoverable run's transcript is byte-identical to the clean
/// reference.
fn gateway_bench_chaos(flags: &Flags, params: LoRaParams, chaos_seed: u64) -> Result<(), String> {
    let cfg = LoopbackConfig {
        streams: flags.parse_or("--streams", 1u32)?,
        packets: flags.parse_or("--packets", 2usize)?,
        chunk: 4096,
        seed: flags.parse_or("--seed", 7u64)?,
        ..LoopbackConfig::new(params)
    };
    let plans = tnb_gateway::NetFaultPlan::matrix(chaos_seed);
    let rows = plans
        .iter()
        .map(|plan| {
            tnb_sim::loopback::run(&LoopbackConfig {
                faults: Some(plan.clone()),
                ..cfg.clone()
            })
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    for (plan, row) in plans.iter().zip(&rows) {
        if row.stats.worker_panics > 0 {
            return Err(format!("chaos '{}': daemon worker panicked", plan.name));
        }
        if plan.recoverable && !row.byte_identical() {
            return Err(format!(
                "chaos '{}': transcript diverged from the clean run \
                 (reconnects={}, resent={})",
                plan.name, row.reconnects, row.resent
            ));
        }
    }
    if flags.has("--json") {
        let body: Vec<String> = plans
            .iter()
            .zip(&rows)
            .map(|(plan, row)| chaos_row_json(plan, row))
            .collect();
        println!("{{\"gateway_chaos\":[{}]}}", body.join(","));
    } else {
        for (plan, row) in plans.iter().zip(&rows) {
            println!(
                "{:<18} parity={} reconnects={} resent={} faults={} parked={} resumed={}",
                plan.name,
                row.byte_identical(),
                row.reconnects,
                row.resent,
                row.proxy_faults,
                row.stats.sessions_parked,
                row.stats.sessions_resumed,
            );
        }
    }
    Ok(())
}

/// One row of the `gateway bench --chaos-seed --json` artifact: a flat
/// object per fault scenario.
fn chaos_row_json(plan: &tnb_gateway::NetFaultPlan, row: &LoopbackOutcome) -> String {
    format!(
        "{{\"scenario\":\"{}\",\"recoverable\":{},\"parity\":{},\
         \"reconnects\":{},\"resent\":{},\"proxy_faults\":{},\
         \"worker_panics\":{},\"protocol_errors\":{},\
         \"sessions_parked\":{},\"sessions_resumed\":{},\
         \"retransmitted_frames\":{},\"seq_dups\":{},\
         \"chunks_dropped\":{},\"shed_frames\":{},\"uplinked\":{}}}",
        plan.name,
        plan.recoverable,
        row.byte_identical(),
        row.reconnects,
        row.resent,
        row.proxy_faults,
        row.stats.worker_panics,
        row.stats.protocol_errors,
        row.stats.sessions_parked,
        row.stats.sessions_resumed,
        row.stats.retransmitted_frames,
        row.stats.seq_dups,
        row.stats.chunks_dropped,
        row.stats.shed_frames,
        row.stats.packets_uplinked,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn generate_then_decode_roundtrip() {
        let dir = std::env::temp_dir().join("tnb_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.iq16");
        let path_s = path.to_str().unwrap();
        generate(&s(&[
            "--out",
            path_s,
            "--sf",
            "8",
            "--cr",
            "4",
            "--load",
            "4",
            "--duration",
            "1.2",
            "--seed",
            "3",
        ]))
        .unwrap();
        decode(&s(&[
            "--trace",
            path_s,
            "--sf",
            "8",
            "--scheme",
            "tnb",
            "--workers",
            "2",
        ]))
        .unwrap();
        info(&s(&["--trace", path_s])).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_flags_are_reported() {
        assert!(generate(&s(&["--sf", "8"])).is_err());
        assert!(decode(&s(&["--sf", "8"])).is_err());
        assert!(parse_params(&Flags(&s(&["--sf", "6"]))).is_err());
        assert!(parse_params(&Flags(&s(&["--sf", "8", "--cr", "5"]))).is_err());
    }

    #[test]
    fn malformed_numeric_flags_error_and_name_the_flag() {
        // Every subcommand must turn a malformed numeric value into a
        // usage error naming the offending flag — never a panic.
        let cases: Vec<(Result<(), String>, &str)> = vec![
            (
                generate(&s(&["--out", "/dev/null", "--sf", "8", "--load", "fast"])),
                "--load",
            ),
            (
                generate(&s(&["--out", "/dev/null", "--sf", "8", "--duration", "3s"])),
                "--duration",
            ),
            (
                generate(&s(&["--out", "/dev/null", "--sf", "8", "--seed", "0x7"])),
                "--seed",
            ),
            (
                decode(&s(&[
                    "--trace",
                    "/dev/null",
                    "--sf",
                    "8",
                    "--workers",
                    "many",
                ])),
                "--workers",
            ),
            (
                compare(&s(&[
                    "--trace",
                    "/dev/null",
                    "--sf",
                    "8",
                    "--workers",
                    "-1",
                ])),
                "--workers",
            ),
            (
                report(&s(&["--demo-collision", "--seed", "deadbeef"])),
                "--seed",
            ),
            (
                report(&s(&["--demo-collision", "--workers", "two"])),
                "--workers",
            ),
            (faults(&s(&["--demo-collision", "--seed", "1.5"])), "--seed"),
            (
                gateway(&s(&["serve", "--sf", "8", "--queue", "big"])),
                "--queue",
            ),
            (
                gateway(&s(&[
                    "send",
                    "--addr",
                    "x",
                    "--demo-collision",
                    "--chunk",
                    "huge",
                ])),
                "--chunk",
            ),
            (
                gateway(&s(&[
                    "send",
                    "--addr",
                    "x",
                    "--demo-collision",
                    "--stream",
                    "-2",
                ])),
                "--stream",
            ),
            (gateway(&s(&["bench", "--streams", "three"])), "--streams"),
            (gateway(&s(&["bench", "--workers", "1,x"])), "--workers"),
            (
                gateway(&s(&["serve", "--sf", "8", "--idle-timeout", "soon"])),
                "--idle-timeout",
            ),
            (
                gateway(&s(&["serve", "--sf", "8", "--max-conns", "lots"])),
                "--max-conns",
            ),
            (
                gateway(&s(&["serve", "--sf", "8", "--quota", "-3"])),
                "--quota",
            ),
            (
                gateway(&s(&[
                    "send",
                    "--addr",
                    "x",
                    "--demo-collision",
                    "--chaos-seed",
                    "lucky",
                ])),
                "--chaos-seed",
            ),
            (
                gateway(&s(&["bench", "--chaos-seed", "0x1"])),
                "--chaos-seed",
            ),
            (deploy(&s(&["run", "--nodes", "many"])), "--nodes"),
            (deploy(&s(&["run", "--load", "heavy"])), "--load"),
            (deploy(&s(&["run", "--shard", "wide"])), "--shard"),
            (deploy(&s(&["run", "--sf", "x,8"])), "--sf"),
            (deploy(&s(&["run", "--traffic", "sometimes"])), "--traffic"),
        ];
        for (result, flag) in cases {
            let err = result.expect_err(flag);
            assert!(err.contains(flag), "error {err:?} should name {flag}");
        }
    }

    #[test]
    fn decode_wideband_roundtrip() {
        // Save an 8-channel wideband scene as a trace file, then decode
        // it through the public subcommand with --wideband.
        let dir = std::env::temp_dir().join("tnb_cli_wideband");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.iq16");
        let path_s = path.to_str().unwrap();
        let params = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
        let scene = tnb_sim::loopback::scene(&LoopbackConfig::wideband(params), 0);
        save_trace(path_s, &scene).unwrap();
        decode(&s(&["--trace", path_s, "--sf", "8", "--wideband"])).unwrap();
        // Non-TnB schemes cannot ride the channelizer pipeline.
        let err = decode(&s(&[
            "--trace",
            path_s,
            "--sf",
            "8",
            "--wideband",
            "--scheme",
            "cic",
        ]))
        .unwrap_err();
        assert!(err.contains("--wideband"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chaos_row_json_is_flat_and_complete() {
        let plan = tnb_gateway::NetFaultPlan::matrix(1)
            .into_iter()
            .find(|p| p.name == "bitflip")
            .expect("matrix has the bitflip injector");
        let row = LoopbackOutcome {
            daemon_lines: Vec::new(),
            reference_lines: Vec::new(),
            per_channel: vec![0],
            samples: 9,
            reconnects: 1,
            resent: 4,
            proxy_faults: 1,
            stats: Default::default(),
            wall: std::time::Duration::ZERO,
        };
        let json = chaos_row_json(&plan, &row);
        for key in [
            "scenario",
            "recoverable",
            "parity",
            "reconnects",
            "resent",
            "proxy_faults",
            "worker_panics",
            "sessions_resumed",
            "retransmitted_frames",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "{json}");
        }
        assert!(json.contains("\"scenario\":\"bitflip\""), "{json}");
        assert!(json.contains("\"parity\":true"), "{json}");
    }

    #[test]
    fn compare_runs_all_schemes() {
        let dir = std::env::temp_dir().join("tnb_cli_cmp");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.iq16");
        let path_s = path.to_str().unwrap();
        generate(&s(&[
            "--out",
            path_s,
            "--sf",
            "8",
            "--load",
            "3",
            "--duration",
            "1.0",
        ]))
        .unwrap();
        compare(&s(&["--trace", path_s, "--sf", "8"])).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn report_demo_collision_emits_all_stages() {
        // Human-readable path just has to run.
        report(&s(&["--demo-collision", "--seed", "7"])).unwrap();
        // JSON path: check the object carries every stage plus timings.
        let params = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
        let samples = demo_collision(params, 7);
        let metrics = PipelineMetrics::enabled();
        let (_, rep) = TnbReceiver::new(params).decode_multi_report_observed(&[&samples], &metrics);
        let snap = metrics.snapshot();
        let json = report_json(1, &rep, &snap);
        for key in [
            "\"detect\"",
            "\"sync\"",
            "\"sigcalc\"",
            "\"thrive\"",
            "\"bec\"",
            "\"sic\"",
            "\"timings_ns\"",
            "\"stage_counters\"",
            "\"matching_cost_milli\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("\"decoded\":3"), "{json}");
        // Per-packet outcomes ride along for degradation-reason analysis
        // (and the gateway uplink reuses the same schema).
        assert!(json.contains("\"outcomes\":["), "{json}");
        assert_eq!(json.matches("\"status\":\"decoded\"").count(), 3, "{json}");
    }

    #[test]
    fn gateway_roundtrip_serve_send_and_bench() {
        // Daemon + client through the public subcommand entry points:
        // serve on an ephemeral port in a thread, send the demo
        // collision with --stats --shutdown, then confirm serve exits.
        let gw = tnb_gateway::Gateway::spawn(
            ("127.0.0.1", 0),
            tnb_gateway::GatewayConfig::new(LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4)),
        )
        .unwrap();
        let addr = gw.local_addr().to_string();
        gateway(&s(&[
            "send",
            "--addr",
            &addr,
            "--demo-collision",
            "--stats",
            "--shutdown",
        ]))
        .unwrap();
        let stats = gw.join();
        assert!(stats.packets_uplinked >= 2, "{stats:?}");

        // Bench path (also asserts byte-identity internally).
        gateway(&s(&["bench", "--workers", "1", "--streams", "1", "--json"])).unwrap();

        // Error paths are typed, not panics.
        assert!(gateway(&s(&["bogus"])).is_err());
        assert!(gateway(&[]).is_err());
    }

    #[test]
    fn gateway_send_wideband_demo_uplinks_three_channels() {
        // `--demo-collision --wideband` streams a wideband scene, not the
        // narrowband collision: the daemon channelizes it and uplinks one
        // packet on each of channels 1, 4 and 6.
        let params = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
        let args = s(&["--demo-collision", "--wideband"]);
        let samples = send_samples(&Flags(&args)).unwrap();
        let mut rx = tnb_core::WidebandReceiver::new(params);
        let mut decoded = rx.push(&samples);
        decoded.extend(rx.finish());
        let mut channels: Vec<usize> = decoded.iter().map(|cp| cp.channel).collect();
        channels.sort_unstable();
        assert_eq!(channels, vec![1, 4, 6]);

        let gw =
            tnb_gateway::Gateway::spawn(("127.0.0.1", 0), tnb_gateway::GatewayConfig::new(params))
                .unwrap();
        let addr = gw.local_addr().to_string();
        gateway(&s(&[
            "send",
            "--addr",
            &addr,
            "--demo-collision",
            "--wideband",
            "--shutdown",
        ]))
        .unwrap();
        assert_eq!(gw.join().packets_uplinked, 3);
    }

    #[test]
    fn report_parallel_counters_match_serial() {
        let params = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
        let samples = demo_collision(params, 7);
        let (_, serial) = TnbReceiver::new(params).decode_with_report(&samples);
        let (_, par) = TnbReceiver::new(params)
            .with_workers(4)
            .decode_with_report(&samples);
        assert_eq!(serial.stages, par.stages);
    }

    #[test]
    fn deploy_run_smoke() {
        // A pocket-sized city through the public subcommand, both
        // output modes; error paths are typed, not panics.
        let base = [
            "run",
            "--nodes",
            "500",
            "--gateways",
            "1",
            "--sf",
            "7",
            "--load",
            "10",
            "--duration",
            "0.2",
            "--side",
            "300",
            "--seed",
            "2",
            "--workers",
            "2",
        ];
        deploy(&s(&base)).unwrap();
        let mut json = base.to_vec();
        json.push("--json");
        deploy(&s(&json)).unwrap();
        assert!(deploy(&[]).is_err());
        assert!(deploy(&s(&["bogus"])).is_err());
        assert!(deploy(&s(&["run", "--sf", "6"])).is_err());
        assert!(deploy(&s(&["run", "--nodes", "0"])).is_err());
    }

    #[test]
    fn unknown_scheme_rejected() {
        let e = decode(&s(&[
            "--trace",
            "/nonexistent",
            "--sf",
            "8",
            "--scheme",
            "magic",
        ]));
        assert!(e.is_err());
    }
}
