//! Per-layer metrics of a traced run.
//!
//! The traced run times calls into each layer's public functions from
//! outside (the decode calls, the channelizer, wire framing, uplink
//! rendering, network dedup) and reads the stage spans
//! (`PipelineMetrics`) and deterministic counters (`StageCounters`) the
//! crates already expose. Stage spans are recorded inside the decode
//! call: detect, sync, Thrive and BEC are disjoint; SigCalc runs partly
//! inside Thrive (hence `thrive.busy_incl_s`) and the SIC span contains
//! a residual re-decode whose own stage spans are counted in their
//! stages (hence `sic.busy_incl_frac`). What the four disjoint spans do
//! not cover — SigCalc outside Thrive, SIC replica work, windowing and
//! dedup — is `streaming.unattributed_s`.
//!
//! Every workload reports every name below. A layer a workload does not
//! run reads 0, and such layers are reported as counts, rates or shares
//! of wall time, never as durations.

use crate::ledger::{percentile, Ledger};
use tnb_core::{MetricsSnapshot, Stage, StageCounters};

/// Every per-layer metric, with its unit.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("calib.fft_us", "us"),
    ("trace.overhead_frac", "frac"),
    ("streaming.busy_s", "s"),
    ("streaming.unattributed_s", "s"),
    ("streaming.push_ms_p50", "ms"),
    ("streaming.push_ms_p99", "ms"),
    ("streaming.amplification", "ratio"),
    ("detect.busy_s", "s"),
    ("detect.windows", "count"),
    ("sync.busy_s", "s"),
    ("sync.attempts", "count"),
    ("sync.accepted", "count"),
    ("sync.ms_per_attempt", "ms"),
    ("sigcalc.busy_s", "s"),
    ("sigcalc.vectors", "count"),
    ("thrive.busy_incl_s", "s"),
    ("thrive.checkpoints", "count"),
    ("thrive.peaks_considered", "count"),
    ("thrive.fallbacks", "count"),
    ("bec.busy_s", "s"),
    ("bec.candidates", "count"),
    ("bec.crc_checks", "count"),
    ("bec.crc_pass", "count"),
    ("sic.busy_incl_frac", "frac"),
    ("sic.rounds", "count"),
    ("sic.subtracted", "count"),
    ("sic.rescues", "count"),
    ("pool.tasks", "count"),
    ("pool.tasks_per_s", "1/s"),
    ("synth.msamples_per_s", "Msamples/s"),
    ("network.collect_lines_per_s", "1/s"),
    ("network.duplicates", "count"),
    ("network.ghosts", "count"),
    ("channelizer.busy_frac", "frac"),
    ("channelizer.msamples_per_s", "Msamples/s"),
    ("wire.encode_msamples_per_s", "Msamples/s"),
    ("wire.decode_msamples_per_s", "Msamples/s"),
    ("ingest.frames_in", "count"),
    ("ingest.shed_frames", "count"),
    ("ingest.chunks_dropped", "count"),
    ("ingest.drain_lag_frames", "frames"),
    ("loadgen.late_frames_max", "frames"),
    ("uplink.render_us_per_line", "us"),
];

/// A timed quantity: seconds spent on `n` units of work.
#[derive(Debug, Default, Clone, Copy)]
pub struct Timed {
    /// Seconds.
    pub s: f64,
    /// Units of work (samples, lines).
    pub n: u64,
}

impl Timed {
    /// Adds one measurement.
    pub fn add(&mut self, s: f64, n: u64) {
        self.s += s;
        self.n += n;
    }

    /// Units per second (0 when nothing was timed).
    pub fn rate(&self) -> f64 {
        if self.s > 0.0 {
            self.n as f64 / self.s
        } else {
            0.0
        }
    }
}

/// Accumulated measurements of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    /// Untraced seconds of the span the overhead is measured on.
    pub untraced_s: f64,
    /// The same span, traced.
    pub traced_cmp_s: f64,
    /// Traced decode-call seconds (`streaming.busy_s`).
    pub traced_s: f64,
    /// Wall time of the traced pass, for the coverage note.
    pub traced_wall_s: f64,
    /// Durations of the decode calls that ran a decode window, ms.
    pub window_push_ms: Vec<f64>,
    /// Samples pushed into receivers (per-channel rate).
    pub samples_pushed: u64,
    /// Samples per symbol of the decoded SF.
    pub samples_per_symbol: u64,
    /// Stage span seconds, indexed like `Stage::ALL`.
    pub stage_s: [f64; 6],
    /// Stage counters of the traced decodes.
    pub counters: StageCounters,
    /// Set-up synthesis.
    pub synth: Timed,
    /// Channelizer pushes (wideband samples).
    pub channelizer: Timed,
    /// Wire encoding (samples).
    pub wire_encode: Timed,
    /// Wire decoding (samples).
    pub wire_decode: Timed,
    /// Uplink line rendering (lines).
    pub render: Timed,
    /// Network dedup (lines).
    pub collect: Timed,
    /// Cross-gateway duplicates and ghosts.
    pub duplicates: u64,
    /// Lines matching no transmission.
    pub ghosts: u64,
    /// Deploy pool tasks.
    pub pool_tasks: u64,
    /// Seconds of the deploy run outside network collection.
    pub pool_s: f64,
    /// Gateway ingest counters.
    pub frames_in: u64,
    /// Frames shed by the per-stream quota.
    pub shed_frames: u64,
    /// Chunks evicted by backpressure.
    pub chunks_dropped: u64,
    /// END frame written → end line received, in frame periods.
    pub drain_lag_frames: f64,
    /// Worst generator lateness, in frame periods.
    pub late_frames_max: f64,
}

impl Layers {
    /// Adds one traced decode's stage spans and counters.
    pub fn add_decode(&mut self, snap: &MetricsSnapshot, counters: &StageCounters) {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            self.stage_s[i] += snap.wall(*stage).sum as f64 / 1e9;
        }
        self.counters.absorb(counters);
    }

    fn stage(&self, stage: Stage) -> f64 {
        let i = Stage::ALL.iter().position(|s| *s == stage).unwrap_or(0);
        self.stage_s[i]
    }

    /// Writes every per-layer metric into the ledger.
    pub fn emit(&self, led: &mut Ledger, calib_fft_us: f64) {
        let c = &self.counters;
        let frac = |s: f64| {
            if self.traced_wall_s > 0.0 {
                s / self.traced_wall_s
            } else {
                0.0
            }
        };
        let disjoint = self.stage(Stage::Detect)
            + self.stage(Stage::Sync)
            + self.stage(Stage::Thrive)
            + self.stage(Stage::Bec);
        let mut put = |name: &'static str, v: f64| {
            let unit = PER_LAYER
                .iter()
                .find(|(n, _)| *n == name)
                .map_or("", |(_, u)| u);
            led.metric(name, v, unit);
        };
        put("calib.fft_us", calib_fft_us);
        put(
            "trace.overhead_frac",
            if self.untraced_s > 0.0 {
                self.traced_cmp_s / self.untraced_s - 1.0
            } else {
                0.0
            },
        );
        put("streaming.busy_s", self.traced_s);
        put("streaming.unattributed_s", self.traced_s - disjoint);
        put(
            "streaming.push_ms_p50",
            percentile(&self.window_push_ms, 0.5),
        );
        put(
            "streaming.push_ms_p99",
            percentile(&self.window_push_ms, 0.99),
        );
        put(
            "streaming.amplification",
            if self.samples_pushed > 0 {
                (c.detect_windows * self.samples_per_symbol) as f64 / self.samples_pushed as f64
            } else {
                0.0
            },
        );
        put("detect.busy_s", self.stage(Stage::Detect));
        put("detect.windows", c.detect_windows as f64);
        put("sync.busy_s", self.stage(Stage::Sync));
        put("sync.attempts", c.sync_attempts as f64);
        put("sync.accepted", c.sync_accepted as f64);
        put(
            "sync.ms_per_attempt",
            if c.sync_attempts > 0 {
                self.stage(Stage::Sync) * 1e3 / c.sync_attempts as f64
            } else {
                0.0
            },
        );
        put("sigcalc.busy_s", self.stage(Stage::SigCalc));
        put("sigcalc.vectors", c.sigcalc_vectors as f64);
        put("thrive.busy_incl_s", self.stage(Stage::Thrive));
        put("thrive.checkpoints", c.thrive_checkpoints as f64);
        put("thrive.peaks_considered", c.thrive_peaks_considered as f64);
        put("thrive.fallbacks", c.thrive_fallbacks as f64);
        put("bec.busy_s", self.stage(Stage::Bec));
        put("bec.candidates", c.bec_candidates as f64);
        put("bec.crc_checks", c.crc_checks as f64);
        put("bec.crc_pass", c.crc_pass as f64);
        put("sic.busy_incl_frac", frac(self.stage(Stage::Sic)));
        put("sic.rounds", c.sic_rounds as f64);
        put("sic.subtracted", c.sic_subtracted as f64);
        put("sic.rescues", c.sic_rescues as f64);
        put("pool.tasks", self.pool_tasks as f64);
        put(
            "pool.tasks_per_s",
            if self.pool_s > 0.0 {
                self.pool_tasks as f64 / self.pool_s
            } else {
                0.0
            },
        );
        put("synth.msamples_per_s", self.synth.rate() / 1e6);
        put("network.collect_lines_per_s", self.collect.rate());
        put("network.duplicates", self.duplicates as f64);
        put("network.ghosts", self.ghosts as f64);
        put("channelizer.busy_frac", frac(self.channelizer.s));
        put("channelizer.msamples_per_s", self.channelizer.rate() / 1e6);
        put("wire.encode_msamples_per_s", self.wire_encode.rate() / 1e6);
        put("wire.decode_msamples_per_s", self.wire_decode.rate() / 1e6);
        put("ingest.frames_in", self.frames_in as f64);
        put("ingest.shed_frames", self.shed_frames as f64);
        put("ingest.chunks_dropped", self.chunks_dropped as f64);
        put("ingest.drain_lag_frames", self.drain_lag_frames);
        put("loadgen.late_frames_max", self.late_frames_max);
        put(
            "uplink.render_us_per_line",
            if self.render.n > 0 {
                self.render.s * 1e6 / self.render.n as f64
            } else {
                0.0
            },
        );
        let outside = self.traced_s
            + self.channelizer.s
            + self.wire_decode.s
            + self.render.s
            + self.collect.s;
        if self.traced_wall_s > 0.0 {
            led.notes.push(format!(
                "traced pass: outside-timed calls cover {:.4} of its {:.3} s wall \
                 (decode calls {:.3} s, unattributed inside them {:.3} s)",
                outside / self.traced_wall_s,
                self.traced_wall_s,
                self.traced_s,
                self.traced_s - disjoint
            ));
        }
    }
}
