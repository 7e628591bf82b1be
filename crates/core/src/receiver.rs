//! The end-to-end TnB receiver (paper Fig. 3): detection → signal
//! calculation → Thrive → BEC, with the second decoding pass of §4
//! (failed packets are re-examined with the peaks of decoded packets
//! masked).

use crate::bec;
use crate::detect::Detector;
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
    /// The report over a set of per-packet outcomes: every tally is
    /// counted from them, so the counts and the list cannot disagree.
    pub(crate) fn from_outcomes(outcomes: Vec<DecodeOutcome>, stages: StageCounters) -> Self {
        let mut r = DecodeReport {
            detected: outcomes.len(),
            outcomes,
            stages,
            ..DecodeReport::default()
        };
        r.decoded = r.detected - r.degraded();
        r.second_pass_rescues = r
            .outcomes
            .iter()
            .filter(|o| matches!(o, DecodeOutcome::Decoded { pass, .. } if *pass >= 2))
            .count();
        r.header_failures = r.degraded_with(DegradeReason::Header);
        r.payload_failures =
            r.degraded_with(DegradeReason::Payload) + r.degraded_with(DegradeReason::PayloadBudget);
        r.truncated = r.degraded_with(DegradeReason::Truncated);
        r
    }

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
    /// split covers all of them. Reports built by
    /// `from_outcomes` balance by construction; the check runs
    /// via `debug_assert!` at every merge point, so a bookkeeping bug in
    /// a path that edits the fields fails loudly in debug/test builds
    /// while release builds stay panic-free.
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

/// Where a packet's decode stands.
#[derive(Clone, PartialEq, Eq)]
enum State {
    /// Collecting symbols in the current pass.
    Active,
    /// The payload passed the CRC.
    Decoded {
        header: Header,
        /// The CRC-valid payload.
        payload: Vec<u8>,
        /// The re-encoded transmitted symbols: masked in other packets'
        /// windows, and subtracted by SIC.
        symbols: Vec<u16>,
    },
    /// Failed in the current pass; `Tracked::reason` says why.
    Failed,
}

/// A decoded PHY header, its extra nibbles and the data-symbol count its
/// length implies (decoded together).
#[derive(Clone)]
struct HeaderInfo {
    header: Header,
    extras: Vec<Vec<u8>>,
    n_symbols: usize,
}

/// Per-packet tracking state across the checkpoint loop.
#[derive(Clone)]
struct Tracked {
    det: DetectedPacket,
    data_start: i64,
    values: Vec<Option<u16>>,
    history: HistoryModel,
    header: Option<HeaderInfo>,
    state: State,
    /// Why the most recent attempt failed. Sticky: re-arming keeps it, an
    /// entry still active at the end of a pass becomes `Truncated` only if
    /// it has none, and a BEC budget exhausted by any payload attempt
    /// makes every later payload failure `PayloadBudget`.
    reason: Option<DegradeReason>,
    snr_db: f32,
    rescued: usize,
    pass: u8,
}

impl Tracked {
    /// Re-arms a failed entry for another decode pass: every symbol value
    /// is cleared, while a decoded header and the degrade reason are kept.
    fn rearm(&mut self, pass: u8) {
        self.state = State::Active;
        self.pass = pass;
        self.values.fill(None);
    }

    /// The transmitted symbols of a decoded entry: masked in other
    /// packets' windows, and subtracted by SIC.
    fn decoded_symbols(&self) -> Option<&[u16]> {
        match &self.state {
            State::Decoded { symbols, .. } => Some(symbols),
            _ => None,
        }
    }

    /// Data symbols to collect: the header's until it decodes, then the
    /// whole packet's.
    fn n_symbols(&self) -> usize {
        self.header
            .as_ref()
            .map_or(LoRaParams::HEADER_SYMBOLS, |h| h.n_symbols)
    }

    /// Marks the entry failed for `reason`.
    fn fail(&mut self, reason: DegradeReason) {
        self.reason = Some(reason);
        self.state = State::Failed;
    }
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
        let detected =
            detector.detect(antennas, self.workers, &mut scratch, metrics, &mut counters);

        let horizon = parallel::horizon_samples(self.params, self.max_payload_len);
        let clusters = parallel::clusters(detected.iter().map(|p| (p.start, p.start + horizon)));
        let workers = self.workers.min(clusters.len()).max(1);
        if metrics.is_enabled() {
            metrics.clusters.set(clusters.len() as f64);
            metrics.workers.set(workers as f64);
        }
        let results =
            parallel::fan_out(clusters.len(), workers, &mut scratch, metrics, |i, s, m| {
                self.decode_cluster_guarded(
                    &detected[clusters[i].clone()],
                    &detector,
                    antennas,
                    s,
                    m,
                )
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

    /// Decodes one cluster with a panic backstop: if anything inside the
    /// decode unwinds (a defect, not expected in normal operation), the
    /// cluster's packets are reported [`DegradeReason::WorkerPanic`] and
    /// the rest of the batch continues. The scratch is replaced after a
    /// panic — its buffers may be mid-mutation.
    fn decode_cluster_guarded(
        &self,
        cluster: &[DetectedPacket],
        detector: &Detector,
        antennas: &[&[Complex32]],
        scratch: &mut DspScratch,
        metrics: &PipelineMetrics,
    ) -> (Vec<DecodedPacket>, DecodeReport) {
        let result = catch_unwind(AssertUnwindSafe(|| {
            self.decode_cluster(cluster, detector, antennas, scratch, metrics)
        }));
        result.unwrap_or_else(|_| {
            *scratch = DspScratch::new();
            parallel::degraded_cluster(cluster)
        })
    }

    /// The decode kernel: Thrive/BEC passes (and the SIC rescue) over a
    /// start-sorted set of detections that shares no overlap with any
    /// packet outside it, with the decode's `detector` (the SIC rescue
    /// re-detects with it). Stage wall times and distributions go to
    /// `metrics`; the deterministic stage counters ride in the report.
    fn decode_cluster(
        &self,
        detected: &[DetectedPacket],
        detector: &Detector,
        antennas: &[&[Complex32]],
        scratch: &mut DspScratch,
        metrics: &PipelineMetrics,
    ) -> (Vec<DecodedPacket>, DecodeReport) {
        let mut counters = StageCounters::default();
        let mut sig = SigCalc::new(detector.demodulator(), antennas, scratch, Some(metrics));

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

        if self.cfg.two_pass && tracked.iter().any(|t| t.state == State::Failed) {
            // Pass 2: re-examine failures with decoded packets' peaks
            // masked and the history curve fitted over all observations.
            for t in tracked.iter_mut().filter(|t| t.state == State::Failed) {
                t.rearm(2);
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
                detector,
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

        let mut outcomes = Vec::with_capacity(tracked.len());
        let mut decoded = Vec::new();
        for t in tracked {
            let start = t.det.start;
            match t.state {
                State::Decoded {
                    header, payload, ..
                } => {
                    outcomes.push(DecodeOutcome::Decoded {
                        start,
                        pass: t.pass,
                    });
                    decoded.push(DecodedPacket {
                        payload,
                        header,
                        start,
                        cfo_cycles: t.det.cfo_cycles,
                        snr_db: t.snr_db,
                        rescued_codewords: t.rescued,
                        pass: t.pass,
                    });
                }
                // Every pass ends with each entry decoded or failed with a
                // reason; `Truncated` only keeps the match total.
                _ => outcomes.push(DecodeOutcome::Degraded {
                    start,
                    reason: t.reason.unwrap_or(DegradeReason::Truncated),
                }),
            }
        }
        (decoded, DecodeReport::from_outcomes(outcomes, counters))
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
            values: vec![None; LoRaParams::HEADER_SYMBOLS],
            history: HistoryModel::new(heights),
            header: None,
            state: State::Active,
            reason: None,
            snr_db,
            rescued: 0,
            pass: 1,
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
    /// The pass reuses the first decode's parts: components come from
    /// [`parallel::clusters`], re-detection is the decode's own
    /// `detector`, and residual entries are built by
    /// [`Self::new_tracked`] and [`Tracked::rearm`]. One set of residual
    /// buffers is refilled every round.
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
        detector: &Detector,
        antennas: &[&[Complex32]],
        scratch: &mut DspScratch,
        metrics: &PipelineMetrics,
        counters: &mut StageCounters,
    ) {
        let demod = detector.demodulator();
        let l = self.params.samples_per_symbol() as i64;
        let trace_len = antennas.iter().map(|a| a.len()).min().unwrap_or(0) as i64;
        let pre = self.params.preamble_samples() as i64;
        // The longest possible packet: the horizon less its symbol margin.
        let max_extent = parallel::horizon_samples(self.params, MAX_PAYLOAD_LEN) as i64 - l;
        // A packet's occupied span ends after its payload if the length is
        // known, else after the (CR4) header.
        let end_of = |t: &Tracked| t.data_start + t.n_symbols() as i64 * l;

        // Overlap components over the start-sorted entries: spans joined
        // when they come within one symbol of each other (the same margin
        // known-peak masks use), so a span ends one sample past it.
        let comps = parallel::clusters(
            tracked
                .iter()
                .map(|t| (t.det.start.floor(), (end_of(t) + l + 1) as f64)),
        );

        let mut replica: Vec<Complex32> = Vec::new();
        let mut gains: Vec<Vec<(f64, f64)>> = vec![Vec::new(); antennas.len()];
        let mut residuals: Vec<Vec<Complex32>> = vec![Vec::new(); antennas.len()];
        let noise = f64::from(self.cfg.noise_power.unwrap_or(1.0).max(f32::MIN_POSITIVE));

        for comp in comps {
            // Window bounds are fixed from the component's original
            // members: the residual buffer reaches far enough for a rescue
            // detected anywhere in the scan range to decode in full, while
            // the scan range itself stays inside the component. Entries
            // are start-sorted, so the first member starts first.
            let comp_min = tracked[comp.start].det.start.floor() as i64;
            let mut members: Vec<usize> = comp.collect();
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
                if !members
                    .iter()
                    .any(|&i| tracked[i].decoded_symbols().is_some())
                {
                    break;
                }
                counters.sic_rounds += 1;

                // Residual: the component's span of every antenna, refilled
                // from the original trace each round so gain estimates
                // never compound.
                for (res, a) in residuals.iter_mut().zip(antennas) {
                    res.clear();
                    res.extend_from_slice(&a[r_lo as usize..r_hi as usize]);
                }

                // Subtract every decoded member whose replica matches the
                // trace with enough power to clear the SNR gate.
                for &mi in &members {
                    let Some(symbols) = tracked[mi].decoded_symbols() else {
                        continue;
                    };
                    let start = tracked[mi].det.start;
                    let start_floor = start.floor();
                    sic::build_replica(
                        demod,
                        symbols,
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
                let scan: Vec<&[Complex32]> = residuals.iter().map(|r| &r[..scan_len]).collect();
                let mut new_dets = detector.detect(&scan, 1, scratch, metrics, counters);
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
                // Entry `k < members.len()` is `tracked[members[k]]`; the
                // rest are re-detections.
                let mut temp: Vec<Tracked> = Vec::new();
                for &mi in &members {
                    let t = &tracked[mi];
                    let det = DetectedPacket {
                        start: t.det.start - r_lo as f64,
                        ..t.det
                    };
                    let entry = if t.decoded_symbols().is_some() {
                        Tracked {
                            det,
                            data_start: t.data_start - r_lo,
                            ..t.clone()
                        }
                    } else {
                        let fresh = self.new_tracked(&mut sig, temp.len(), &det);
                        let mut retry = Tracked {
                            header: t.header.clone(),
                            values: t.values.clone(),
                            ..fresh
                        };
                        retry.rearm(3);
                        retry
                    };
                    temp.push(entry);
                }
                for d in &new_dets {
                    let mut fresh = self.new_tracked(&mut sig, temp.len(), d);
                    fresh.pass = 3;
                    temp.push(fresh);
                }

                self.run_pass(&mut sig, &mut temp, r_hi - r_lo, 1, metrics, counters);
                counters.sigcalc_vectors += sig.vectors_computed();
                drop(sig);

                let n_members = members.len();
                let mut rescued_any = false;
                for (k, mut t2) in temp.into_iter().enumerate() {
                    if t2.decoded_symbols().is_none() {
                        continue;
                    }
                    if k < n_members {
                        let tr = &mut tracked[members[k]];
                        if tr.decoded_symbols().is_some() {
                            continue; // mask-only ride-along
                        }
                        // The rescued entry keeps its trace-frame timing.
                        t2.det = tr.det;
                        t2.data_start = tr.data_start;
                        *tr = t2;
                    } else {
                        t2.det.start += r_lo as f64;
                        t2.data_start += r_lo;
                        members.push(tracked.len());
                        tracked.push(t2);
                    }
                    counters.sic_rescues += 1;
                    rescued_any = true;
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
            .filter(|t| t.state == State::Active)
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
                if tr.state != State::Active {
                    continue;
                }
                let j = (t_now - tr.data_start).div_euclid(l);
                if j >= 0 && j < tr.n_symbols() as i64 && tr.values[j as usize].is_none() {
                    slots.push((i, j as isize));
                }
            }
            if slots.is_empty() {
                if tracked.iter().all(|t| t.state != State::Active) {
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
        for tr in tracked.iter_mut().filter(|t| t.state == State::Active) {
            tr.fail(tr.reason.unwrap_or(DegradeReason::Truncated));
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
            if let Some(symbols) = other.decoded_symbols() {
                let d_start = p_start + params.preamble_symbols() * l;
                for (k, &v) in symbols.iter().enumerate() {
                    push(d_start + k as f64 * l, v);
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
        if tr.header.is_some() {
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
                    tr.fail(DegradeReason::Truncated);
                    return;
                }
                tr.values.resize(n_symbols, None);
                tr.header = Some(HeaderInfo {
                    header,
                    extras,
                    n_symbols,
                });
                tr.rescued += rescued;
            }
            None => tr.fail(DegradeReason::Header),
        }
    }

    fn try_decode_payload(
        &self,
        tr: &mut Tracked,
        metrics: &PipelineMetrics,
        counters: &mut StageCounters,
    ) {
        let Some(info) = &tr.header else { return };
        if tr.state != State::Active {
            return;
        }
        let Some(values) = tr.values.get(..info.n_symbols) else {
            return;
        };
        if values.iter().any(Option::is_none) {
            return;
        }
        let symbols: Vec<u16> = values.iter().flatten().copied().collect();
        let (header, extras) = (info.header, &info.extras);
        let payload_syms = &symbols[LoRaParams::HEADER_SYMBOLS.min(symbols.len())..];
        counters.bec_calls += 1;
        let t0 = metrics.now();
        let mut budget_hit = false;
        let result = if self.cfg.use_bec {
            let (result, stats) = match bec::decode_payload_with_bec(
                payload_syms,
                &header,
                extras,
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
            budget_hit = stats.budget_exhausted;
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
                // Re-encode to get the exact transmitted symbols for
                // masking in the second pass.
                let mut p = self.params;
                p.cr = header.cr;
                let symbols = tnb_phy::encoder::encode_packet_symbols(&payload, &p);
                tr.state = State::Decoded {
                    header,
                    payload,
                    symbols,
                };
            }
            None => {
                counters.crc_fail += 1;
                let budget = budget_hit || tr.reason == Some(DegradeReason::PayloadBudget);
                tr.fail(if budget {
                    DegradeReason::PayloadBudget
                } else {
                    DegradeReason::Payload
                });
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
        let detected = detector.detect(&antennas, 1, &mut scratch, &metrics, &mut counters);
        let (decoded, mut report) =
            rx.decode_cluster(&detected, &detector, &antennas, &mut scratch, &metrics);
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
