//! The end-to-end TnB receiver (paper Fig. 3): detection → signal
//! calculation → Thrive → BEC, with the second decoding pass of §4
//! (failed packets are re-examined with the peaks of decoded packets
//! masked).

use crate::bec;
use crate::detect::{merge_dedup, Detector};
use crate::packet::{same_transmission, DecodedPacket, DetectedPacket};
use crate::parallel::{self, MAX_PAYLOAD_LEN};
use crate::sic::{self, SicConfig};
use crate::sigcalc::{estimate_snr_db, SigCalc};
use crate::thrive::{
    assign_checkpoint, Assignment, CheckpointScratch, CheckpointSymbol, HistoryModel, ThriveConfig,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use tnb_dsp::{Complex32, DspScratch};
use tnb_metrics::{PipelineMetrics, Stage, StageCounters};
use tnb_phy::block;
use tnb_phy::decoder as phy_decoder;
use tnb_phy::demodulate::Demodulator;
use tnb_phy::header::Header;
use tnb_phy::params::LoRaParams;

/// Receiver configuration. The defaults are full TnB; the paper's
/// ablations map to:
/// - "Thrive" (no BEC): `use_bec = false`;
/// - "Sibling" (no history cost): `thrive.use_history = false`.
#[derive(Debug, Clone, Copy)]
pub struct TnbConfig {
    /// Thrive tunables.
    pub thrive: ThriveConfig,
    /// Decode blocks with BEC (true) or the default Hamming decoder.
    pub use_bec: bool,
    /// Run the second decoding pass over failed packets.
    pub two_pass: bool,
    /// Known noise power of the trace (per complex sample). When set, SNR
    /// estimates use the exact peak/noise relation; when `None`, a blind
    /// median-based estimate is used (compresses above ≈ 14 dB).
    pub noise_power: Option<f32>,
    /// SIC rescue pass: reconstruct and subtract decoded packets, then
    /// re-run detection and Thrive/BEC on the residual (off by default).
    pub sic: SicConfig,
}

impl Default for TnbConfig {
    fn default() -> Self {
        TnbConfig {
            thrive: ThriveConfig::default(),
            use_bec: true,
            two_pass: true,
            noise_power: Some(1.0),
            sic: SicConfig::default(),
        }
    }
}

/// Upper bound on BEC candidate combinations generated per packet.
/// Adversarial symbol streams can make companion enumeration explode;
/// once the budget is hit the remaining blocks fall back to their default
/// decode and the packet is reported `PayloadBudget` if it then fails the
/// CRC. The value is far above anything a clean trace generates, so
/// normal decodes are unaffected.
const BEC_CANDIDATE_BUDGET: usize = 100_000;

/// Why a detected packet degraded instead of decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The PHY header never decoded.
    Header,
    /// Header decoded but the payload CRC never passed.
    Payload,
    /// The payload CRC never passed and the BEC combination budget ran
    /// out first — a larger budget might still have decoded it.
    PayloadBudget,
    /// The packet ran off the end of the trace.
    Truncated,
    /// The decode of this packet's overlap cluster panicked; the cluster
    /// was dropped so the rest of the batch could finish.
    WorkerPanic,
}

impl DegradeReason {
    /// Short stable name for reports and JSON output.
    pub fn name(&self) -> &'static str {
        match self {
            DegradeReason::Header => "header",
            DegradeReason::Payload => "payload",
            DegradeReason::PayloadBudget => "payload-budget",
            DegradeReason::Truncated => "truncated",
            DegradeReason::WorkerPanic => "worker-panic",
        }
    }
}

impl DecodeOutcome {
    /// Detected packet start (fractional sample index) of either variant.
    pub fn start(&self) -> f64 {
        match self {
            DecodeOutcome::Decoded { start, .. } | DecodeOutcome::Degraded { start, .. } => *start,
        }
    }

    /// Compact JSON object, e.g.
    /// `{"status":"decoded","start":4000,"pass":1}` or
    /// `{"status":"degraded","start":4000,"reason":"header"}`.
    ///
    /// This is the per-packet outcome schema shared by `tnb-cli report
    /// --json` and the gateway uplink/stats lines, so downstream
    /// consumers parse degradation reasons the same way everywhere.
    pub fn to_json(&self) -> String {
        match self {
            DecodeOutcome::Decoded { start, pass } => {
                format!("{{\"status\":\"decoded\",\"start\":{start},\"pass\":{pass}}}")
            }
            DecodeOutcome::Degraded { start, reason } => format!(
                "{{\"status\":\"degraded\",\"start\":{start},\"reason\":\"{}\"}}",
                reason.name()
            ),
        }
    }
}

/// Per-packet outcome recorded in [`DecodeReport`]: every detected
/// packet ends up either decoded or degraded-with-reason, so a batch
/// over hostile input yields a full account instead of a crash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecodeOutcome {
    /// The payload passed the CRC.
    Decoded {
        /// Detected packet start (fractional sample index).
        start: f64,
        /// Decoding pass that succeeded: 1, 2 (masked re-decode), or 3
        /// (SIC rescue on the subtraction residual).
        pass: u8,
    },
    /// Detected but not decoded.
    Degraded {
        /// Detected packet start (fractional sample index).
        start: f64,
        /// Why the packet did not decode.
        reason: DegradeReason,
    },
}

/// Per-trace decode diagnostics (what happened to every detected
/// packet), returned by [`TnbReceiver::decode_with_report`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecodeReport {
    /// Packets found by detection/synchronization.
    pub detected: usize,
    /// Packets whose payload passed the CRC.
    pub decoded: usize,
    /// Packets decoded only after the first pass: by the masked second
    /// pass (`pass = 2`) or by the SIC rescue pass (`pass = 3`).
    pub second_pass_rescues: usize,
    /// Packets whose PHY header never decoded.
    pub header_failures: usize,
    /// Packets with a valid header whose payload failed the CRC.
    pub payload_failures: usize,
    /// Packets that ran off the end of the trace.
    pub truncated: usize,
    /// One entry per detected packet, in detection order: decoded, or
    /// degraded with the reason.
    pub outcomes: Vec<DecodeOutcome>,
    /// Deterministic per-stage event counts (windows scanned, sync
    /// attempts, signal vectors computed, peaks considered, CRC checks, …).
    /// Identical for any worker count on the same input; wall-time
    /// measurements live in [`tnb_metrics::MetricsSnapshot`] instead.
    pub stages: StageCounters,
}

impl DecodeReport {
    /// Accumulates another report field-wise (used when merging
    /// independently decoded work items back into one trace report).
    pub fn absorb(&mut self, other: &DecodeReport) {
        self.detected += other.detected;
        self.decoded += other.decoded;
        self.second_pass_rescues += other.second_pass_rescues;
        self.header_failures += other.header_failures;
        self.payload_failures += other.payload_failures;
        self.truncated += other.truncated;
        self.outcomes.extend_from_slice(&other.outcomes);
        self.stages.absorb(&other.stages);
        debug_assert!(
            self.accounting_ok(),
            "DecodeReport accounting broke during merge: detected={} decoded={} degraded={}",
            self.detected,
            self.decoded,
            self.degraded()
        );
    }

    /// True when the per-packet accounting balances: every detected
    /// packet carries exactly one outcome, and the decoded/degraded
    /// split covers all of them. Checked via `debug_assert!` at the end
    /// of every decode and at every merge point, so a bookkeeping bug in
    /// a new code path fails loudly in debug/test builds while release
    /// builds stay panic-free.
    pub fn accounting_ok(&self) -> bool {
        self.outcomes.len() == self.detected && self.decoded + self.degraded() == self.detected
    }

    /// Degraded outcomes carrying the given reason.
    pub fn degraded_with(&self, reason: DegradeReason) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, DecodeOutcome::Degraded { reason: r, .. } if *r == reason))
            .count()
    }

    /// All degraded outcomes.
    pub fn degraded(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, DecodeOutcome::Degraded { .. }))
            .count()
    }

    /// JSON array of every per-packet outcome, in detection order (see
    /// [`DecodeOutcome::to_json`] for the element schema).
    pub fn outcomes_json(&self) -> String {
        let mut out = String::from("[");
        for (i, o) in self.outcomes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&o.to_json());
        }
        out.push(']');
        out
    }

    /// Compact JSON object with the aggregate counts and the per-packet
    /// outcomes (stage counters are reported separately — see
    /// `tnb-cli report --json`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"detected\":{},\"decoded\":{},\"degraded\":{},\"second_pass_rescues\":{},\
             \"header_failures\":{},\"payload_failures\":{},\"truncated\":{},\"outcomes\":{}}}",
            self.detected,
            self.decoded,
            self.degraded(),
            self.second_pass_rescues,
            self.header_failures,
            self.payload_failures,
            self.truncated,
            self.outcomes_json(),
        )
    }
}

/// The TnB receiver.
///
/// Every decode runs one path: start-sorted detection, then overlap
/// clusters of the detections, each decoded on its own — inline at one
/// worker, on scoped threads at more. Packets interact only through time
/// overlap, so the output is byte-identical for any worker count.
#[derive(Debug)]
pub struct TnbReceiver {
    params: LoRaParams,
    cfg: TnbConfig,
    /// Threads for preamble validation and cluster decoding (≥ 1).
    workers: usize,
    /// Upper bound on payload length used for the clustering horizon.
    max_payload_len: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Active,
    Decoded,
    Failed,
}

/// Per-packet tracking state across the checkpoint loop.
struct Tracked {
    det: DetectedPacket,
    data_start: i64,
    /// Total data symbols (known once the header is decoded).
    n_symbols: Option<usize>,
    values: Vec<Option<u16>>,
    history: HistoryModel,
    header: Option<(Header, Vec<Vec<u8>>)>,
    status: Status,
    snr_db: f32,
    rescued: usize,
    pass: u8,
    /// CRC-validated payload (set when `status == Decoded`).
    decoded_payload: Vec<u8>,
    /// Re-encoded transmitted symbols of a decoded packet, for masking in
    /// the second pass.
    known_symbols: Option<Vec<u16>>,
    /// Where the most recent failure happened (for diagnostics).
    failure: Failure,
    /// The BEC candidate budget ran out while decoding this packet's
    /// payload (refines a `Payload` failure into `PayloadBudget`).
    bec_budget_hit: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Failure {
    None,
    Header,
    Payload,
    Truncated,
}

impl TnbReceiver {
    /// Builds a receiver with default configuration (full TnB).
    pub fn new(params: LoRaParams) -> Self {
        Self::with_config(params, TnbConfig::default())
    }

    /// Builds a receiver with a custom configuration.
    pub fn with_config(params: LoRaParams, cfg: TnbConfig) -> Self {
        TnbReceiver {
            params,
            cfg,
            workers: 1,
            max_payload_len: MAX_PAYLOAD_LEN,
        }
    }

    /// Decodes with up to `workers` threads (clamped to at least 1; the
    /// default 1 decodes inline). Output does not depend on the count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Tightens the clustering horizon for deployments whose payloads are
    /// known to be at most `len` bytes (e.g. fixed-format sensor fleets).
    /// A tighter horizon splits dense traffic into more, smaller work
    /// items. `len` must cover every packet actually on the air: a longer
    /// packet would couple clusters this receiver treats as independent.
    pub fn with_max_payload_len(mut self, len: usize) -> Self {
        self.max_payload_len = len.clamp(1, MAX_PAYLOAD_LEN);
        self
    }

    /// Decodes a single-antenna trace.
    pub fn decode(&self, samples: &[Complex32]) -> Vec<DecodedPacket> {
        self.decode_with_report(samples).0
    }

    /// Like [`Self::decode`], additionally returning per-trace
    /// diagnostics.
    pub fn decode_with_report(&self, samples: &[Complex32]) -> (Vec<DecodedPacket>, DecodeReport) {
        self.decode_multi_report_observed(&[samples], &PipelineMetrics::disabled())
    }

    /// The full decode of a (multi-antenna) trace with an externally
    /// owned metrics sink: stage wall times and distributions go to
    /// `metrics`, deterministic stage counters ride in the report.
    ///
    /// Detection runs on *every* antenna and the candidate lists are
    /// merged — under fading this is where antenna diversity pays (paper
    /// §8.5: "high channel fluctuations result in a high outage
    /// probability for single antenna systems"); signal vectors are then
    /// summed over all antennas.
    pub fn decode_multi_report_observed(
        &self,
        antennas: &[&[Complex32]],
        metrics: &PipelineMetrics,
    ) -> (Vec<DecodedPacket>, DecodeReport) {
        if antennas.is_empty() {
            return (Vec::new(), DecodeReport::default());
        }
        let mut scratch = DspScratch::new();
        let detector = Detector::new(self.params);
        let mut counters = StageCounters::default();
        let detected = self.detect(&detector, antennas, &mut scratch, metrics, &mut counters);
        let demod = detector.demodulator();

        let clusters = parallel::clusters(
            &detected,
            parallel::horizon_samples(self.params, self.max_payload_len),
        );
        let workers = self.workers.min(clusters.len()).max(1);
        if metrics.is_enabled() {
            metrics.clusters.set(clusters.len() as f64);
            metrics.workers.set(workers as f64);
        }
        let results =
            parallel::fan_out(clusters.len(), workers, &mut scratch, metrics, |i, s, m| {
                self.decode_cluster_guarded(&detected[clusters[i].clone()], demod, antennas, s, m)
            });

        // Deterministic merge: clusters are disjoint start-sample ranges
        // in ascending order, so concatenating in cluster order yields
        // start order for any worker count.
        let mut decoded = Vec::new();
        let mut report = DecodeReport::default();
        for (slot, c) in results.into_iter().zip(&clusters) {
            let (d, r) = slot.unwrap_or_else(|| parallel::degraded_cluster(&detected[c.clone()]));
            decoded.extend(d);
            report.absorb(&r);
        }
        report.stages.absorb(&counters);
        (decoded, report)
    }

    /// Detection over every antenna, candidates merged across antennas
    /// and sorted by start sample.
    fn detect(
        &self,
        detector: &Detector,
        antennas: &[&[Complex32]],
        scratch: &mut DspScratch,
        metrics: &PipelineMetrics,
        counters: &mut StageCounters,
    ) -> Vec<DetectedPacket> {
        let l = self.params.samples_per_symbol() as f64;
        let mut detected: Vec<DetectedPacket> = Vec::new();
        for ant in antennas {
            for p in detector.detect(ant, self.workers, scratch, metrics, counters) {
                if merge_dedup(&mut detected, p, l) {
                    counters.detect_duplicates += 1;
                }
            }
        }
        detected.sort_by(|a, b| a.start.total_cmp(&b.start));
        detected
    }

    /// Decodes one cluster with a panic backstop: if anything inside the
    /// decode unwinds (a defect, not expected in normal operation), the
    /// cluster's packets are reported [`DegradeReason::WorkerPanic`] and
    /// the rest of the batch continues. The scratch is replaced after a
    /// panic — its buffers may be mid-mutation.
    fn decode_cluster_guarded(
        &self,
        cluster: &[DetectedPacket],
        demod: &Demodulator,
        antennas: &[&[Complex32]],
        scratch: &mut DspScratch,
        metrics: &PipelineMetrics,
    ) -> (Vec<DecodedPacket>, DecodeReport) {
        let result = catch_unwind(AssertUnwindSafe(|| {
            self.decode_cluster(cluster, demod, antennas, scratch, metrics)
        }));
        result.unwrap_or_else(|_| {
            *scratch = DspScratch::new();
            parallel::degraded_cluster(cluster)
        })
    }

    /// The decode kernel: Thrive/BEC passes (and the SIC rescue) over a
    /// start-sorted set of detections that shares no overlap with any
    /// packet outside it. Stage wall times and distributions go to
    /// `metrics`; the deterministic stage counters ride in the report.
    fn decode_cluster(
        &self,
        detected: &[DetectedPacket],
        demod: &Demodulator,
        antennas: &[&[Complex32]],
        scratch: &mut DspScratch,
        metrics: &PipelineMetrics,
    ) -> (Vec<DecodedPacket>, DecodeReport) {
        let pool_before = scratch.pool_stats();
        let mut counters = StageCounters::default();
        let mut sig = SigCalc::new(demod, antennas, scratch, Some(metrics));

        let mut tracked: Vec<Tracked> = detected
            .iter()
            .enumerate()
            .map(|(id, det)| self.new_tracked(&mut sig, id, det))
            .collect();

        // Pass 1: everything participates; known peaks are the preambles.
        self.run_pass(
            &mut sig,
            &mut tracked,
            antennas[0].len() as i64,
            1,
            metrics,
            &mut counters,
        );

        if self.cfg.two_pass && tracked.iter().any(|t| t.status == Status::Failed) {
            // Pass 2: re-examine failures with decoded packets' peaks
            // masked and the history curve fitted over all observations.
            for t in tracked.iter_mut() {
                if t.status == Status::Failed {
                    t.status = Status::Active;
                    t.pass = 2;
                    // Keep a successfully decoded header (and the implied
                    // length); reset all symbol values.
                    for v in t.values.iter_mut() {
                        *v = None;
                    }
                }
            }
            self.run_pass(
                &mut sig,
                &mut tracked,
                antennas[0].len() as i64,
                2,
                metrics,
                &mut counters,
            );
        }

        counters.sigcalc_vectors += sig.vectors_computed();
        drop(sig);

        if self.cfg.sic.enabled && !tracked.is_empty() {
            let t0 = metrics.now();
            self.run_sic_rescue(
                &mut tracked,
                demod,
                antennas,
                scratch,
                metrics,
                &mut counters,
            );
            metrics.record_span(Stage::Sic, t0);
            // Rescued packets append out of order; restore start order so
            // outcome lists stay position-stable across worker counts.
            tracked.sort_by(|a, b| a.det.start.total_cmp(&b.det.start));
        }

        if metrics.is_enabled() {
            let (hits, misses) = scratch.pool_stats();
            metrics.pool_hits.add(hits - pool_before.0);
            metrics.pool_misses.add(misses - pool_before.1);
        }

        let outcomes = tracked
            .iter()
            .map(|t| match t.status {
                Status::Decoded => DecodeOutcome::Decoded {
                    start: t.det.start,
                    pass: t.pass,
                },
                _ => DecodeOutcome::Degraded {
                    start: t.det.start,
                    reason: match t.failure {
                        Failure::Header => DegradeReason::Header,
                        Failure::Payload if t.bec_budget_hit => DegradeReason::PayloadBudget,
                        Failure::Payload => DegradeReason::Payload,
                        // `Failure::None` only while still active; anything
                        // not decoded by the end is off-trace.
                        Failure::Truncated | Failure::None => DegradeReason::Truncated,
                    },
                },
            })
            .collect();
        let report = DecodeReport {
            detected: tracked.len(),
            decoded: tracked
                .iter()
                .filter(|t| t.status == Status::Decoded)
                .count(),
            second_pass_rescues: tracked
                .iter()
                .filter(|t| t.status == Status::Decoded && t.pass >= 2)
                .count(),
            header_failures: tracked
                .iter()
                .filter(|t| t.failure == Failure::Header && t.status == Status::Failed)
                .count(),
            payload_failures: tracked
                .iter()
                .filter(|t| t.failure == Failure::Payload && t.status == Status::Failed)
                .count(),
            truncated: tracked
                .iter()
                .filter(|t| t.failure == Failure::Truncated && t.status == Status::Failed)
                .count(),
            outcomes,
            stages: counters,
        };
        debug_assert!(
            report.accounting_ok(),
            "DecodeReport accounting broke: detected={} decoded={} degraded={}",
            report.detected,
            report.decoded,
            report.degraded()
        );
        let decoded = tracked
            .into_iter()
            .filter(|t| t.status == Status::Decoded)
            .filter_map(|t| {
                // Decoded packets always carry a header; filter instead of
                // unwrapping so a broken invariant degrades, not panics.
                let (header, _) = t.header?;
                Some(DecodedPacket {
                    payload: t.decoded_payload.clone(),
                    header,
                    start: t.det.start,
                    cfo_cycles: t.det.cfo_cycles,
                    snr_db: t.snr_db,
                    rescued_codewords: t.rescued,
                    pass: t.pass,
                })
            })
            .collect();
        (decoded, report)
    }

    /// Builds the tracking entry for a freshly detected packet: preamble
    /// heights seed the history model and a preamble window provides the
    /// SNR estimate. `id` must be the entry's index in the vector the
    /// caller is building (it keys `sig`'s per-packet caches).
    fn new_tracked(&self, sig: &mut SigCalc<'_>, id: usize, det: &DetectedPacket) -> Tracked {
        let heights = sig.preamble_heights(id, det);
        let data_start = sig.symbol_start(det, 0);
        // SNR estimate from a preamble window (peak near bin 0).
        let snr_db = sig
            .symbol_vector(id, det, -12)
            .map(|v| {
                let n = v.len();
                let peak_bin = (0..n).max_by(|&a, &b| v[a].total_cmp(&v[b])).unwrap_or(0);
                match self.cfg.noise_power {
                    Some(np) => crate::sigcalc::snr_from_peak_db(
                        v[peak_bin],
                        self.params.samples_per_symbol(),
                        np,
                    ),
                    None => estimate_snr_db(v, peak_bin, self.params.samples_per_symbol()),
                }
            })
            .unwrap_or(f32::NEG_INFINITY);
        Tracked {
            det: *det,
            data_start,
            n_symbols: None,
            values: vec![None; LoRaParams::HEADER_SYMBOLS],
            history: HistoryModel::new(heights),
            header: None,
            status: Status::Active,
            snr_db,
            rescued: 0,
            pass: 1,
            decoded_payload: Vec::new(),
            known_symbols: None,
            failure: Failure::None,
            bec_budget_hit: false,
        }
    }

    /// The SIC rescue pass (runs after both Thrive/BEC passes when
    /// [`SicConfig::enabled`] is set). Within each overlap component that
    /// contains at least one decoded packet: reconstruct every decoded
    /// packet's waveform from its known symbols, estimate per-block
    /// complex gains against a residual copy of the component's IQ span,
    /// subtract, then re-run detection and the full Thrive/BEC pipeline
    /// on the residual. Rescues are recorded with `pass = 3`; entries
    /// that still fail keep their original failure, and re-detections
    /// that fail to decode are dropped — so a trace where no rescue fires
    /// decodes bit-identically to SIC-off.
    ///
    /// Determinism across worker counts and streaming windows: components
    /// are refinements of the receiver's overlap clusters (actual packet
    /// extents are always inside the cluster horizon), every window bound
    /// derives from the component's own members, the re-detection scan
    /// stops one symbol past the component (a foreign preamble can
    /// contribute at most ~4.5 symbols of run, below the detector's
    /// minimum), and the residual is copied from the original trace —
    /// which every cluster sees identically.
    fn run_sic_rescue(
        &self,
        tracked: &mut Vec<Tracked>,
        demod: &Demodulator,
        antennas: &[&[Complex32]],
        scratch: &mut DspScratch,
        metrics: &PipelineMetrics,
        counters: &mut StageCounters,
    ) {
        let l = self.params.samples_per_symbol() as i64;
        let trace_len = antennas.iter().map(|a| a.len()).min().unwrap_or(0) as i64;
        let pre = self.params.preamble_samples() as i64;
        let max_extent = {
            let mut p = self.params;
            p.cr = tnb_phy::params::CodingRate::CR4;
            pre + block::data_symbol_count(255, &p) as i64 * l
        };
        // A packet's occupied span ends after its payload if the length is
        // known, else after the (CR4) header.
        let end_of = |t: &Tracked| {
            t.data_start + t.n_symbols.unwrap_or(LoRaParams::HEADER_SYMBOLS) as i64 * l
        };

        // Overlap components over the start-sorted entries: spans joined
        // when they come within one symbol of each other (the same margin
        // known-peak masks use).
        let mut comps: Vec<(usize, usize)> = Vec::new();
        let mut begin = 0usize;
        let mut max_end = i64::MIN;
        for (i, t) in tracked.iter().enumerate() {
            let s = t.det.start.floor() as i64;
            if i > begin && s > max_end + l {
                comps.push((begin, i));
                begin = i;
                max_end = i64::MIN;
            }
            max_end = max_end.max(end_of(t));
        }
        if begin < tracked.len() {
            comps.push((begin, tracked.len()));
        }

        let detector = Detector::new(self.params);
        let mut replica: Vec<Complex32> = Vec::new();
        let mut gains: Vec<Vec<(f64, f64)>> = vec![Vec::new(); antennas.len()];
        let noise = f64::from(self.cfg.noise_power.unwrap_or(1.0).max(f32::MIN_POSITIVE));

        for (c_begin, c_end) in comps {
            let mut members: Vec<usize> = (c_begin..c_end).collect();
            // Window bounds are fixed from the component's original
            // members: the residual buffer reaches far enough for a rescue
            // detected anywhere in the scan range to decode in full, while
            // the scan range itself stays inside the component.
            let comp_min = members
                .iter()
                .map(|&i| tracked[i].det.start.floor() as i64)
                .min()
                .unwrap_or(0);
            let comp_max_end = members
                .iter()
                .map(|&i| end_of(&tracked[i]))
                .max()
                .unwrap_or(0);
            let r_lo = (comp_min - pre - l).max(0);
            let scan_hi = (comp_max_end + l).clamp(r_lo, trace_len);
            let r_hi = (comp_max_end + l + max_extent).clamp(scan_hi, trace_len);
            if r_hi <= r_lo {
                continue;
            }
            for _ in 0..sic::MAX_ROUNDS {
                let decoded_members: Vec<usize> = members
                    .iter()
                    .copied()
                    .filter(|&i| {
                        tracked[i].status == Status::Decoded && tracked[i].known_symbols.is_some()
                    })
                    .collect();
                if decoded_members.is_empty() {
                    break;
                }
                counters.sic_rounds += 1;

                // Residual: a fresh copy of the component's span of every
                // antenna (each round restarts from the original trace so
                // gain estimates never compound).
                let mut residuals: Vec<Vec<Complex32>> = antennas
                    .iter()
                    .map(|a| {
                        a.get(r_lo as usize..r_hi as usize)
                            .map(<[Complex32]>::to_vec)
                            .unwrap_or_default()
                    })
                    .collect();
                if residuals.iter().any(Vec::is_empty) {
                    break;
                }

                // Subtract every decoded member whose replica matches the
                // trace with enough power to clear the SNR gate.
                for &mi in &decoded_members {
                    let Some(symbols) = tracked[mi].known_symbols.clone() else {
                        continue;
                    };
                    let start = tracked[mi].det.start;
                    let start_floor = start.floor();
                    sic::build_replica(
                        demod,
                        &symbols,
                        tracked[mi].det.cfo_cycles,
                        start - start_floor,
                        &mut replica,
                    );
                    let offset = start_floor as i64 - r_lo;
                    let mut best_power = 0.0f64;
                    for (a, res) in residuals.iter().enumerate() {
                        sic::estimate_block_gains(res, &replica, offset, l as usize, &mut gains[a]);
                        best_power = best_power.max(sic::mean_gain_power(&gains[a]));
                    }
                    let snr_db = 10.0 * (best_power / noise).max(1e-12).log10();
                    if snr_db < f64::from(sic::MIN_RESIDUAL_SNR_DB) {
                        counters.sic_skipped += 1;
                        continue;
                    }
                    for (a, res) in residuals.iter_mut().enumerate() {
                        sic::subtract_replica(res, &replica, offset, l as usize, &gains[a]);
                    }
                    counters.sic_subtracted += 1;
                }

                // Re-detect on the residual, restricted to the component's
                // own span so another component's (unsubtracted) packets
                // cannot be picked up.
                let scan_len = (scan_hi - r_lo) as usize;
                let mut new_dets: Vec<DetectedPacket> = Vec::new();
                for res in &residuals {
                    let Some(slice) = res.get(..scan_len.min(res.len())) else {
                        continue;
                    };
                    for p in detector.detect(slice, 1, scratch, metrics, counters) {
                        if merge_dedup(&mut new_dets, p, l as f64) {
                            counters.detect_duplicates += 1;
                        }
                    }
                }
                new_dets.sort_by(|a, b| a.start.total_cmp(&b.start));
                new_dets.retain(|d| {
                    !members.iter().any(|&i| {
                        same_transmission(
                            tracked[i].det.start,
                            tracked[i].det.cfo_cycles,
                            d.start + r_lo as f64,
                            d.cfo_cycles,
                            l as f64,
                        )
                    })
                });
                counters.sic_redetections += new_dets.len() as u64;

                // Decode the residual in its own (window-relative) frame:
                // decoded members ride along as mask-only entries so their
                // subtraction residue stays masked, failed members retry
                // with any header they already decoded, and re-detections
                // start fresh.
                let resid_refs: Vec<&[Complex32]> = residuals.iter().map(Vec::as_slice).collect();
                let mut sig = SigCalc::new(demod, &resid_refs, scratch, Some(metrics));
                let mut temp: Vec<Tracked> = Vec::new();
                // `Some(i)` maps a temp entry back to `tracked[i]`; `None`
                // marks a fresh re-detection.
                let mut origin: Vec<Option<usize>> = Vec::new();
                for &mi in &members {
                    let t = &tracked[mi];
                    let det = DetectedPacket {
                        start: t.det.start - r_lo as f64,
                        cfo_cycles: t.det.cfo_cycles,
                        preamble_peak: t.det.preamble_peak,
                    };
                    if t.status == Status::Decoded {
                        temp.push(Tracked {
                            det,
                            data_start: t.data_start - r_lo,
                            n_symbols: t.n_symbols,
                            values: Vec::new(),
                            history: HistoryModel::new(Vec::new()),
                            header: None,
                            status: Status::Decoded,
                            snr_db: t.snr_db,
                            rescued: 0,
                            pass: t.pass,
                            decoded_payload: Vec::new(),
                            known_symbols: t.known_symbols.clone(),
                            failure: Failure::None,
                            bec_budget_hit: false,
                        });
                    } else {
                        let id = temp.len();
                        let mut fresh = self.new_tracked(&mut sig, id, &det);
                        // Keep a header decoded in an earlier pass (and the
                        // implied length), like pass 2 does.
                        if t.header.is_some() {
                            fresh.header = t.header.clone();
                            fresh.n_symbols = t.n_symbols;
                            if let Some(n) = t.n_symbols {
                                fresh.values.resize(n, None);
                            }
                        }
                        fresh.pass = 3;
                        temp.push(fresh);
                    }
                    origin.push(Some(mi));
                }
                for d in &new_dets {
                    let id = temp.len();
                    let mut fresh = self.new_tracked(&mut sig, id, d);
                    fresh.pass = 3;
                    temp.push(fresh);
                    origin.push(None);
                }

                self.run_pass(&mut sig, &mut temp, r_hi - r_lo, 1, metrics, counters);
                counters.sigcalc_vectors += sig.vectors_computed();
                drop(sig);

                let mut rescued_any = false;
                for (mut t2, src) in temp.into_iter().zip(origin) {
                    if t2.status != Status::Decoded {
                        continue;
                    }
                    match src {
                        Some(mi) => {
                            if tracked[mi].status == Status::Decoded {
                                continue; // mask-only ride-along
                            }
                            let tr = &mut tracked[mi];
                            tr.status = Status::Decoded;
                            tr.pass = 3;
                            tr.n_symbols = t2.n_symbols;
                            tr.header = t2.header;
                            tr.decoded_payload = t2.decoded_payload;
                            tr.known_symbols = t2.known_symbols;
                            tr.rescued = t2.rescued;
                            tr.snr_db = t2.snr_db;
                            tr.failure = Failure::None;
                            counters.sic_rescues += 1;
                            rescued_any = true;
                        }
                        None => {
                            t2.det.start += r_lo as f64;
                            t2.data_start += r_lo;
                            counters.sic_rescues += 1;
                            members.push(tracked.len());
                            tracked.push(t2);
                            rescued_any = true;
                        }
                    }
                }
                if !rescued_any {
                    break;
                }
            }
        }
    }

    fn run_pass(
        &self,
        sig: &mut SigCalc<'_>,
        tracked: &mut [Tracked],
        trace_len: i64,
        pass: u8,
        metrics: &PipelineMetrics,
        counters: &mut StageCounters,
    ) {
        let l = self.params.samples_per_symbol() as i64;
        if tracked.is_empty() {
            return;
        }
        let c_start = tracked
            .iter()
            .filter(|t| t.status == Status::Active)
            .map(|t| t.data_start.div_euclid(l))
            .min()
            .unwrap_or(0)
            .max(0);
        let c_end = trace_len / l + 1;
        let dets: Vec<DetectedPacket> = tracked.iter().map(|t| t.det).collect();

        // Per-checkpoint working storage, reused across the whole pass so
        // the steady-state checkpoint loop does not reallocate it.
        let mut ws = CheckpointScratch::default();
        let mut slots: Vec<(usize, isize)> = Vec::new();
        let mut symbols: Vec<CheckpointSymbol> = Vec::new();
        let mut assignments: Vec<Assignment> = Vec::new();

        for c in c_start..=c_end {
            let t_now = c * l;
            // Which (packet, symbol) pairs intersect this checking point?
            slots.clear();
            for (i, tr) in tracked.iter().enumerate() {
                if tr.status != Status::Active {
                    continue;
                }
                let j = (t_now - tr.data_start).div_euclid(l);
                let limit = tr.n_symbols.unwrap_or(LoRaParams::HEADER_SYMBOLS) as i64;
                if j >= 0 && j < limit && tr.values[j as usize].is_none() {
                    slots.push((i, j as isize));
                }
            }
            if slots.is_empty() {
                if tracked.iter().all(|t| t.status != Status::Active) {
                    break;
                }
                continue;
            }

            // Build checkpoint symbols with masks and history bounds;
            // `symbols` only ever grows, so mask capacity is reused.
            while symbols.len() < slots.len() {
                symbols.push(CheckpointSymbol {
                    packet: 0,
                    symbol: 0,
                    masked_bins: Vec::new(),
                    bounds: (0.0, 0.0),
                });
            }
            for (k, &(i, j)) in slots.iter().enumerate() {
                let s = &mut symbols[k];
                s.packet = i;
                s.symbol = j;
                self.known_masks_into(tracked, i, j, &mut s.masked_bins);
                s.bounds = if pass == 1 {
                    tracked[i].history.bounds(&self.cfg.thrive)
                } else {
                    let idx = LoRaParams::PREAMBLE_UPCHIRPS + j as usize;
                    tracked[i].history.bounds_at(idx, &self.cfg.thrive)
                };
            }

            let t0 = metrics.now();
            // Note: checkpoint assignment pulls missing signal vectors
            // from SigCalc on demand, so this span *contains* nested
            // SigCalc spans; treat per-stage wall times as inclusive.
            assign_checkpoint(
                sig,
                &dets,
                &symbols[..slots.len()],
                &self.cfg.thrive,
                &mut ws,
                &mut assignments,
            );
            metrics.record_span(Stage::Thrive, t0);
            for a in &assignments {
                let (i, j) = slots[a.slot];
                let tr = &mut tracked[i];
                tr.values[j as usize] = Some(a.bin);
                if pass == 1 {
                    tr.history.push(a.height);
                }
            }

            // Header decode for packets that just completed symbol 7.
            for &(i, j) in &slots {
                if j as usize == LoRaParams::HEADER_SYMBOLS - 1 {
                    self.try_decode_header(&mut tracked[i], trace_len, l, metrics, counters);
                }
            }
            // Payload decode for packets whose last symbol was assigned.
            for &(i, _) in &slots {
                self.try_decode_payload(&mut tracked[i], metrics, counters);
            }
        }

        let tally = ws.tally();
        counters.thrive_checkpoints += tally.checkpoints;
        counters.thrive_peaks_considered += tally.peaks_considered;
        counters.thrive_assignments += tally.assignments;
        counters.thrive_fallbacks += tally.fallbacks;
        counters.thrive_budget_exhausted += tally.budget_exhausted;

        // Anything still active did not complete (e.g. ran off the trace).
        for tr in tracked.iter_mut() {
            if tr.status == Status::Active {
                if tr.failure == Failure::None {
                    tr.failure = Failure::Truncated;
                }
                tr.status = Status::Failed;
            }
        }
    }

    /// Expected bins, in packet `i`'s symbol-`j` vector, of all *known*
    /// transmissions of other packets overlapping that window: their
    /// preamble upchirps and sync symbols, and — once decoded — their data
    /// symbols (paper §5.3.4 and §4, second pass).
    fn known_masks_into(&self, tracked: &[Tracked], i: usize, j: isize, out: &mut Vec<i64>) {
        out.clear();
        let params = self.params;
        let l = params.samples_per_symbol() as f64;
        let u = params.osf as f64;
        let n = params.n() as i64;
        // Exact (fractional) window start of the target symbol. A known
        // chirp with value `v`, boundary `a` and CFO `δ_q`, seen in a
        // window starting at `w` processed with CFO `δ_i`, peaks at
        // `v + (w − a)/U + δ_q − δ_i (mod N)`. Note the preamble is 12.25
        // symbols, so boundary differences are generally NOT multiples of
        // the symbol length — the bins must be computed from the actual
        // emission times.
        let w_i = tracked[i].det.start + (params.preamble_symbols() + j as f64) * l;
        let delta_i = tracked[i].det.cfo_cycles;
        for (q, other) in tracked.iter().enumerate() {
            if q == i {
                continue;
            }
            let delta_q = other.det.cfo_cycles;
            let mut push = |emit_start: f64, value: u16| {
                if (emit_start - w_i).abs() < l {
                    let bin = value as f64 + (w_i - emit_start) / u + delta_q - delta_i;
                    out.push((bin.round() as i64).rem_euclid(n));
                }
            };
            // Preamble upchirps (value 0) and sync symbols.
            let p_start = other.det.start;
            for k in 0..LoRaParams::PREAMBLE_UPCHIRPS {
                push(p_start + k as f64 * l, 0);
            }
            for (k, &v) in LoRaParams::SYNC_VALUES.iter().enumerate() {
                push(p_start + (LoRaParams::PREAMBLE_UPCHIRPS + k) as f64 * l, v);
            }
            // Decoded packets: all their data symbols are known.
            if other.status == Status::Decoded {
                if let Some(symbols) = &other.known_symbols {
                    let d_start = p_start + params.preamble_symbols() * l;
                    for (k, &v) in symbols.iter().enumerate() {
                        push(d_start + k as f64 * l, v);
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    fn try_decode_header(
        &self,
        tr: &mut Tracked,
        trace_len: i64,
        l: i64,
        metrics: &PipelineMetrics,
        counters: &mut StageCounters,
    ) {
        if tr.header.is_some() && tr.n_symbols.is_some() {
            return; // kept from pass 1
        }
        let header_syms: Option<Vec<u16>> = tr.values[..LoRaParams::HEADER_SYMBOLS]
            .iter()
            .copied()
            .collect();
        let Some(hs) = header_syms else { return };
        counters.bec_calls += 1;
        let t0 = metrics.now();
        let decoded = if self.cfg.use_bec {
            bec::decode_header_with_bec(&hs, &self.params).map(|(h, extras, stats)| {
                counters.bec_candidates += stats.candidates_generated as u64;
                metrics.record_bec_candidates(stats.candidates_generated as u64);
                (h, extras, stats.rescued_codewords)
            })
        } else {
            phy_decoder::decode_header(&hs, &self.params)
                .ok()
                .map(|dh| (dh.header, vec![dh.extra_nibbles], 0))
        };
        metrics.record_span(Stage::Bec, t0);
        match decoded {
            Some((header, extras, rescued)) => {
                let mut p = self.params;
                p.cr = header.cr;
                let n_symbols = block::data_symbol_count(header.payload_len as usize, &p);
                // Sanity: the packet must not extend absurdly beyond the
                // trace (a corrupted-but-checksum-passing length).
                if tr.data_start + (n_symbols as i64) * l > trace_len + 4 * l {
                    tr.failure = Failure::Truncated;
                    tr.status = Status::Failed;
                    return;
                }
                tr.n_symbols = Some(n_symbols);
                tr.values.resize(n_symbols, None);
                tr.header = Some((header, extras));
                tr.rescued += rescued;
            }
            None => {
                tr.failure = Failure::Header;
                tr.status = Status::Failed;
            }
        }
    }

    fn try_decode_payload(
        &self,
        tr: &mut Tracked,
        metrics: &PipelineMetrics,
        counters: &mut StageCounters,
    ) {
        let Some(n_symbols) = tr.n_symbols else {
            return;
        };
        if tr.status != Status::Active || tr.values.len() < n_symbols {
            return;
        }
        if tr.values[..n_symbols].iter().any(Option::is_none) {
            return;
        }
        // All values checked Some above; filter_map keeps this total.
        let symbols: Vec<u16> = tr.values[..n_symbols].iter().filter_map(|v| *v).collect();
        let Some((header, extras)) = tr.header.clone() else {
            // A complete symbol set without a header cannot happen (the
            // header decode gates `n_symbols`); degrade rather than panic.
            tr.failure = Failure::Header;
            tr.status = Status::Failed;
            return;
        };
        let payload_syms = &symbols[LoRaParams::HEADER_SYMBOLS.min(symbols.len())..];
        counters.bec_calls += 1;
        let t0 = metrics.now();
        let result = if self.cfg.use_bec {
            let (result, stats) = match bec::decode_payload_with_bec(
                payload_syms,
                &header,
                &extras,
                &self.params,
                None,
                Some(BEC_CANDIDATE_BUDGET),
            ) {
                Ok(d) => {
                    let stats = d.stats.clone();
                    (Some((d.payload, d.stats.rescued_codewords)), stats)
                }
                Err(stats) => (None, stats),
            };
            counters.bec_candidates += stats.candidates_generated as u64;
            counters.crc_checks += stats.crc_checks as u64;
            counters.bec_budget_exhausted += stats.budget_exhausted as u64;
            tr.bec_budget_hit |= stats.budget_exhausted;
            metrics.record_bec_candidates(stats.candidates_generated as u64);
            result
        } else {
            let mut p = self.params;
            p.cr = header.cr;
            let mut nibbles = extras.first().cloned().unwrap_or_default();
            for rows in phy_decoder::received_payload_blocks(payload_syms, &p) {
                nibbles.extend(phy_decoder::default_decode_rows(&rows, p.cr));
            }
            counters.crc_checks += 1;
            phy_decoder::assemble_payload(&nibbles, header.payload_len as usize)
                .ok()
                .map(|payload| (payload, 0))
        };
        metrics.record_span(Stage::Bec, t0);
        match result {
            Some((payload, rescued)) => {
                counters.crc_pass += 1;
                tr.rescued += rescued;
                tr.decoded_payload = payload.clone();
                // Re-encode to get the exact transmitted symbols for
                // masking in the second pass.
                let mut p = self.params;
                p.cr = header.cr;
                tr.known_symbols = Some(tnb_phy::encoder::encode_packet_symbols(&payload, &p));
                tr.status = Status::Decoded;
            }
            None => {
                counters.crc_fail += 1;
                tr.failure = Failure::Payload;
                tr.status = Status::Failed;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnb_channel::trace::{PacketConfig, TraceBuilder};
    use tnb_phy::params::{CodingRate, SpreadingFactor};

    fn params() -> LoRaParams {
        LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4)
    }

    /// Builds a trace from `(payload byte, start, SNR dB, CFO Hz)` rows.
    fn trace(seed: u64, packets: &[(u8, usize, f32, f64)]) -> Vec<Complex32> {
        let mut b = TraceBuilder::new(params(), seed);
        for &(byte, start_sample, snr_db, cfo_hz) in packets {
            b.add_packet(
                &[byte; 16],
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

    /// One call of the decode kernel on every detection at once — the
    /// whole-trace decode that the cluster split must reproduce.
    fn whole_set(rx: &TnbReceiver, samples: &[Complex32]) -> (Vec<DecodedPacket>, DecodeReport) {
        let metrics = PipelineMetrics::disabled();
        let mut scratch = DspScratch::new();
        let detector = Detector::new(rx.params);
        let mut counters = StageCounters::default();
        let antennas = [samples];
        let detected = rx.detect(&detector, &antennas, &mut scratch, &metrics, &mut counters);
        let (decoded, mut report) = rx.decode_cluster(
            &detected,
            detector.demodulator(),
            &antennas,
            &mut scratch,
            &metrics,
        );
        report.stages.absorb(&counters);
        (decoded, report)
    }

    #[test]
    fn clustered_decode_matches_whole_set_kernel() {
        let l = params().samples_per_symbol();
        // The seeded 3-packet collision (the middle packet overlaps both
        // neighbours) and eight staggered packets (many clusters).
        let collision = trace(
            7,
            &[
                (0xA1, 4_000, 12.0, 1_500.0),
                (0x5B, 4_000 + 14 * l + 300, 10.0, -2_200.0),
                (0x3C, 4_000 + 28 * l + 900, 9.0, 800.0),
            ],
        );
        let staggered_rows: Vec<_> = (0..8usize)
            .map(|i| {
                (
                    (i as u8 + 1) * 17,
                    4_000 + i * 60 * l + i * 137,
                    9.0 + (i % 3) as f32,
                    -2_000.0 + 550.0 * i as f64,
                )
            })
            .collect();
        let staggered = trace(3, &staggered_rows);
        for (name, samples, want) in [("collision", collision, 3), ("staggered", staggered, 1)] {
            let (wd, wr) = whole_set(&TnbReceiver::new(params()), &samples);
            assert!(wd.len() >= want, "{name}: whole-set decoded {}", wd.len());
            for workers in [1usize, 2, 8] {
                let rx = TnbReceiver::new(params())
                    .with_workers(workers)
                    .with_max_payload_len(16);
                let (d, r) = rx.decode_with_report(&samples);
                assert_eq!(d, wd, "{name} workers={workers}");
                assert_eq!(r, wr, "{name} workers={workers}");
            }
        }
    }

    #[test]
    fn receiver_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TnbReceiver>();
    }
}
