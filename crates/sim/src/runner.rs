//! Experiment runner: synthesizes one trace per configuration and feeds
//! it to each scheme, producing the metrics the paper's figures report.

use crate::deployment::Deployment;
use crate::metrics::{match_decoded, overall_prr, throughput, MatchResult};
use crate::traffic::{generate_schedule, make_payload, ScheduledPacket};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tnb_baselines::Scheme;
use tnb_channel::fading::ChannelModel;
use tnb_channel::trace::{PacketConfig, Trace, TraceBuilder};
use tnb_channel::FaultPlan;
use tnb_core::{DecodeReport, MetricsSnapshot, PipelineMetrics};
use tnb_phy::{LoRaParams, Transmitter};

/// Configuration of one experiment run (one trace).
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// PHY parameters (SF, CR, BW, OSF).
    pub params: LoRaParams,
    /// Deployment whose node count and SNR distribution to use.
    pub deployment: Deployment,
    /// Aggregate offered load in packets per second (paper: 5..=25).
    pub load_pps: f64,
    /// Trace duration in seconds (paper: 30; scaled down by default for
    /// single-machine runs — offered load keeps collision statistics
    /// duration-invariant).
    pub duration_s: f64,
    /// RNG seed (one seed = one reproducible "run").
    pub seed: u64,
    /// Channel model (Static for the testbed traces, ETU for Fig. 19).
    pub channel: ChannelModel,
    /// Receive antennas.
    pub antennas: usize,
    /// When set, node SNRs are drawn uniformly from this range instead of
    /// the deployment model (the ETU simulations of §8.5 use
    /// [0, 20] dB for SF 8 and [−6, 14] dB for SF 10).
    pub snr_range_db: Option<(f32, f32)>,
    /// CFOs are drawn uniformly from ±this (paper §8.5: ±4.88 kHz).
    pub cfo_range_hz: f64,
}

impl ExperimentConfig {
    /// A baseline configuration for the given PHY parameters.
    pub fn new(params: LoRaParams, deployment: Deployment) -> Self {
        ExperimentConfig {
            params,
            deployment,
            load_pps: 25.0,
            duration_s: 3.0,
            seed: 1,
            channel: ChannelModel::Static,
            antennas: 1,
            snr_range_db: None,
            cfo_range_hz: 4880.0,
        }
    }
}

/// A synthesized experiment: the trace plus everything needed to score
/// scheme outputs.
pub struct BuiltExperiment {
    /// The synthetic trace.
    pub trace: Trace,
    /// The transmitted schedule.
    pub schedule: Vec<ScheduledPacket>,
    /// Ground-truth (start, end) airtime of each scheduled packet, in
    /// seconds.
    pub intervals: Vec<(f64, f64)>,
    /// The configuration that produced this experiment.
    pub config: ExperimentConfig,
}

/// Per-scheme outcome on one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Scheme display name.
    pub scheme: String,
    /// Matching details (correct packets, SNRs, BEC rescues, …).
    pub matched: MatchResult,
    /// Number of transmitted packets.
    pub sent: usize,
    /// Decoded throughput in packets per second.
    pub throughput_pps: f64,
    /// Overall packet reception ratio.
    pub prr: f64,
    /// Airtime intervals (seconds) of the correctly decoded packets — the
    /// paper's lower-bound input for Figs. 11 and 18.
    pub decoded_intervals: Vec<(f64, f64)>,
    /// Decode report with deterministic per-stage event counters. `None`
    /// for schemes without TnB's instrumented pipeline, or when run
    /// through the unobserved entry points.
    pub report: Option<DecodeReport>,
    /// Per-stage wall times and distributions. `None` unless run via
    /// [`run_scheme_observed`].
    pub stage_metrics: Option<MetricsSnapshot>,
}

/// Synthesizes the trace for a configuration.
pub fn build_experiment(cfg: &ExperimentConfig) -> BuiltExperiment {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let fs = cfg.params.sample_rate();
    let tx = Transmitter::new(cfg.params);
    let airtime = tx.packet_airtime(crate::traffic::PAYLOAD_LEN);

    let n_nodes = cfg.deployment.node_count();
    let node_snrs: Vec<f32> = match cfg.snr_range_db {
        Some((lo, hi)) => (0..n_nodes).map(|_| rng.gen_range(lo..=hi)).collect(),
        None => cfg.deployment.draw_node_snrs(&mut rng),
    };
    let node_cfos: Vec<f64> = (0..n_nodes)
        .map(|_| rng.gen_range(-cfg.cfo_range_hz..=cfg.cfo_range_hz))
        .collect();

    let schedule = generate_schedule(&mut rng, n_nodes, cfg.load_pps, cfg.duration_s, airtime);

    let mut builder = TraceBuilder::new(cfg.params, cfg.seed.wrapping_mul(0x9E37_79B9))
        .with_antennas(cfg.antennas);
    builder.set_min_len((cfg.duration_s * fs).ceil() as usize);

    let mut intervals = Vec::with_capacity(schedule.len());
    for p in &schedule {
        let start_sample = (p.time * fs).round() as usize;
        let snr = node_snrs[p.node as usize] + Deployment::packet_jitter_db(&mut rng);
        builder.add_packet(
            &make_payload(p.node, p.seq),
            PacketConfig {
                start_sample,
                snr_db: snr,
                cfo_hz: node_cfos[p.node as usize],
                frac_delay: rng.gen_range(0.0..1.0f32).min(0.999),
                channel: cfg.channel,
                node_id: p.node,
                seq: p.seq,
            },
        );
        intervals.push((p.time, p.time + airtime));
    }

    BuiltExperiment {
        trace: builder.build(),
        schedule,
        intervals,
        config: *cfg,
    }
}

/// Runs one scheme over a built experiment and scores it.
pub fn run_scheme(scheme: &dyn Scheme, built: &BuiltExperiment) -> ExperimentResult {
    run_scheme_limited(scheme, built, usize::MAX)
}

/// Applies a [`FaultPlan`] to every antenna of a built experiment's
/// trace, in place. Robustness experiments build once, inject a fault,
/// and score the schemes against the same ground-truth schedule — the
/// decode pipeline degrades per packet (see `DecodeReport::outcomes`)
/// instead of panicking on the hostile samples.
pub fn apply_faults(built: &mut BuiltExperiment, plan: &FaultPlan) {
    for antenna in &mut built.trace.antennas {
        *antenna = plan.apply(antenna);
    }
}

/// Like [`run_scheme`] but exposes at most `max_antennas` antennas to the
/// scheme (Fig. 19 compares single-antenna schemes with `TnB2ant` on the
/// same 2-antenna trace).
pub fn run_scheme_limited(
    scheme: &dyn Scheme,
    built: &BuiltExperiment,
    max_antennas: usize,
) -> ExperimentResult {
    run_scheme_inner(scheme, built, max_antennas, 1, None)
}

/// Like [`run_scheme`] but decodes with up to `workers` threads (schemes
/// without a parallel pipeline ignore the hint; results are identical for
/// any worker count) and with the observability layer on: the result
/// carries the scheme's [`DecodeReport`] (deterministic stage counters)
/// and a [`MetricsSnapshot`] of per-stage wall times, so BENCH outputs can
/// report where decode time goes.
pub fn run_scheme_observed(
    scheme: &dyn Scheme,
    built: &BuiltExperiment,
    workers: usize,
) -> ExperimentResult {
    let metrics = PipelineMetrics::enabled();
    run_scheme_inner(scheme, built, usize::MAX, workers, Some(&metrics))
}

fn run_scheme_inner(
    scheme: &dyn Scheme,
    built: &BuiltExperiment,
    max_antennas: usize,
    workers: usize,
    metrics: Option<&PipelineMetrics>,
) -> ExperimentResult {
    let refs: Vec<&[tnb_dsp::Complex32]> = built
        .trace
        .antennas
        .iter()
        .take(max_antennas.max(1))
        .map(|a| a.as_slice())
        .collect();
    let (decoded, report) = scheme.decode_observed(
        &refs,
        workers.max(1),
        metrics.unwrap_or(&PipelineMetrics::disabled()),
    );
    // Unobserved runs carry no report, whatever the scheme returns.
    let report = report.filter(|_| metrics.is_some());
    let matched = match_decoded(&decoded, &built.schedule);
    let sent = built.schedule.len();
    let correct = matched.correct.len();
    // Airtime intervals of the decoded subset (for Figs. 11 and 18).
    let lookup: std::collections::HashMap<(u32, u32), usize> = built
        .schedule
        .iter()
        .enumerate()
        .map(|(i, p)| ((p.node, p.seq), i))
        .collect();
    let decoded_intervals = matched
        .correct
        .iter()
        .filter_map(|key| lookup.get(key).map(|&i| built.intervals[i]))
        .collect();
    ExperimentResult {
        scheme: scheme.name().to_string(),
        matched,
        sent,
        throughput_pps: throughput(correct, built.config.duration_s),
        prr: overall_prr(correct, sent),
        decoded_intervals,
        report,
        stage_metrics: metrics.map(PipelineMetrics::snapshot),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnb_baselines::SchemeKind;
    use tnb_phy::{CodingRate, SpreadingFactor};

    fn quick_cfg() -> ExperimentConfig {
        let params = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
        ExperimentConfig {
            load_pps: 6.0,
            duration_s: 1.5,
            ..ExperimentConfig::new(params, Deployment::Indoor)
        }
    }

    #[test]
    fn build_produces_consistent_ground_truth() {
        let cfg = quick_cfg();
        let built = build_experiment(&cfg);
        assert_eq!(built.schedule.len(), 9);
        assert_eq!(built.intervals.len(), 9);
        assert!(built.trace.len() >= (cfg.duration_s * cfg.params.sample_rate()) as usize);
        assert_eq!(built.trace.truth.len(), 9);
    }

    #[test]
    fn build_is_deterministic() {
        let cfg = quick_cfg();
        let a = build_experiment(&cfg);
        let b = build_experiment(&cfg);
        assert_eq!(a.trace.samples()[12345], b.trace.samples()[12345]);
        assert_eq!(a.schedule, b.schedule);
    }

    #[test]
    fn tnb_decodes_most_light_load_packets() {
        let cfg = quick_cfg();
        let built = build_experiment(&cfg);
        let scheme = SchemeKind::Tnb.build(cfg.params);
        let r = run_scheme(scheme.as_ref(), &built);
        assert_eq!(r.sent, 9);
        assert!(
            r.matched.correct.len() >= 5,
            "decoded only {}/9",
            r.matched.correct.len()
        );
        assert_eq!(r.matched.unmatched, 0);
        assert!((r.throughput_pps - r.matched.correct.len() as f64 / 1.5).abs() < 1e-9);
    }

    #[test]
    fn observed_run_carries_report_and_timings() {
        let cfg = quick_cfg();
        let built = build_experiment(&cfg);
        let scheme = SchemeKind::Tnb.build(cfg.params);
        let plain = run_scheme(scheme.as_ref(), &built);
        assert!(plain.report.is_none());
        assert!(plain.stage_metrics.is_none());

        let observed = run_scheme_observed(scheme.as_ref(), &built, 2);
        assert_eq!(observed.matched.correct, plain.matched.correct);
        let report = observed.report.expect("TnB returns a report");
        assert_eq!(report.decoded, observed.matched.correct.len());
        assert!(report.stages.sync_attempts >= report.detected as u64);
        let snap = observed
            .stage_metrics
            .expect("observed run records timings");
        assert!(snap.total_wall_ns() > 0);

        // Baselines without the instrumented pipeline record no report.
        let cic = SchemeKind::Cic.build(cfg.params);
        let r = run_scheme_observed(cic.as_ref(), &built, 1);
        assert!(r.report.is_none());
    }

    #[test]
    fn faulted_experiment_scores_without_panicking() {
        let cfg = quick_cfg();
        let mut built = build_experiment(&cfg);
        let clean = run_scheme_observed(SchemeKind::Tnb.build(cfg.params).as_ref(), &built, 1);
        let baseline = clean.matched.correct.len();

        // Inject a mid-capture truncation + NaN burst and re-score: the
        // run must complete, account for every detected packet, and not
        // decode more than the clean trace did.
        let plan = FaultPlan::new(11)
            .with(tnb_channel::Fault::NanBurst { at: 0.3, len: 512 })
            .with(tnb_channel::Fault::Truncate { keep: 0.6 });
        apply_faults(&mut built, &plan);
        let faulted = run_scheme_observed(SchemeKind::Tnb.build(cfg.params).as_ref(), &built, 2);
        let report = faulted.report.expect("TnB returns a report");
        assert_eq!(report.outcomes.len(), report.detected);
        assert_eq!(report.detected, report.decoded + report.degraded());
        assert!(faulted.matched.correct.len() <= baseline);
    }

    #[test]
    fn worker_knob_reproduces_serial_results() {
        let cfg = quick_cfg();
        let built = build_experiment(&cfg);
        let scheme = SchemeKind::Tnb.build(cfg.params);
        let serial = run_scheme(scheme.as_ref(), &built);
        let parallel = run_scheme_observed(scheme.as_ref(), &built, 4);
        assert_eq!(parallel.matched.correct, serial.matched.correct);
        assert_eq!(parallel.matched.unmatched, serial.matched.unmatched);
        assert_eq!(parallel.prr, serial.prr);
    }
}
