//! Gateway-style streaming frontend for the TnB receiver.
//!
//! A real gateway does not see a finished trace file: samples arrive
//! continuously. [`StreamingReceiver`] buffers incoming chunks, runs the
//! batch receiver over a sliding window, emits each packet once, and
//! keeps enough overlap that packets straddling a window boundary are
//! decoded whole in the next round.

use crate::packet::{same_transmission, DecodedPacket};
use crate::receiver::{DecodeReport, TnbConfig, TnbReceiver};
use tnb_dsp::Complex32;
use tnb_metrics::{MetricsSnapshot, PipelineMetrics};
use tnb_phy::params::LoRaParams;
use tnb_phy::Transmitter;

/// Streaming configuration.
#[derive(Debug, Clone, Copy)]
pub struct StreamingConfig {
    /// Receiver configuration for the underlying batch decodes.
    pub receiver: TnbConfig,
    /// Largest payload (bytes) expected on the air; bounds the window
    /// overlap so boundary-straddling packets are always retried whole.
    pub max_payload: usize,
    /// Process the buffer whenever it exceeds this many multiples of the
    /// longest packet airtime (larger = fewer, bigger batch decodes).
    pub window_factor: usize,
    /// Record pipeline observability (stage wall times, distributions)
    /// across the stream; read via
    /// [`StreamingReceiver::metrics_snapshot`]. Off by default: the
    /// disabled path never reads the clock.
    pub observe: bool,
    /// Worker threads for the underlying batch decodes. The default (1)
    /// decodes inline; any value keeps per-overlap-cluster fault
    /// isolation, so one poisoned cluster degrades alone instead of
    /// stalling the stream.
    pub workers: usize,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            receiver: TnbConfig::default(),
            max_payload: 64,
            window_factor: 4,
            observe: false,
            workers: 1,
        }
    }
}

/// Incremental receiver: push sample chunks, collect decoded packets.
///
/// Packet `start` fields are *absolute* sample indices in the stream (not
/// window-relative).
pub struct StreamingReceiver {
    rx: TnbReceiver,
    cfg: StreamingConfig,
    /// Samples of one maximal packet, used for overlap sizing.
    max_packet_samples: usize,
    buffer: Vec<Complex32>,
    /// Absolute index of `buffer[0]` in the stream.
    base: u64,
    /// Absolute (start, cfo_cycles) of already emitted packets, for
    /// deduplication in the overlap region under the same
    /// [`same_transmission`] predicate the detector uses.
    emitted: Vec<(f64, f64)>,
    samples_per_symbol: f64,
    /// Cumulative observability across all batch decodes of the stream.
    metrics: PipelineMetrics,
    report: DecodeReport,
}

impl StreamingReceiver {
    /// Creates a streaming receiver with default configuration.
    pub fn new(params: LoRaParams) -> Self {
        Self::with_config(params, StreamingConfig::default())
    }

    /// Creates a streaming receiver with a custom configuration.
    pub fn with_config(params: LoRaParams, cfg: StreamingConfig) -> Self {
        let max_packet_samples = Transmitter::new(params).packet_samples(cfg.max_payload);
        let rx = TnbReceiver::with_config(params, cfg.receiver)
            .with_workers(cfg.workers)
            .with_max_payload_len(cfg.max_payload.max(1));
        StreamingReceiver {
            rx,
            cfg,
            max_packet_samples,
            buffer: Vec::new(),
            base: 0,
            emitted: Vec::new(),
            samples_per_symbol: params.samples_per_symbol() as f64,
            metrics: if cfg.observe {
                PipelineMetrics::enabled()
            } else {
                PipelineMetrics::disabled()
            },
            report: DecodeReport::default(),
        }
    }

    /// Cumulative decode report over every batch decode so far. Windows
    /// overlap, so detection-side counters (windows scanned, packets
    /// detected) can count a transmission more than once; emitted-packet
    /// deduplication happens downstream of this report.
    pub fn report(&self) -> DecodeReport {
        self.report.clone()
    }

    /// Snapshot of the cumulative pipeline metrics (all zeros unless
    /// [`StreamingConfig::observe`] was set).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Absolute index of the next sample [`Self::push`] will consume.
    pub fn position(&self) -> u64 {
        self.base + self.buffer.len() as u64
    }

    /// Feeds a chunk of samples; returns any packets completed by it.
    pub fn push(&mut self, samples: &[Complex32]) -> Vec<DecodedPacket> {
        self.buffer.extend_from_slice(samples);
        let window = self.cfg.window_factor.max(2) * self.max_packet_samples;
        if self.buffer.len() < window {
            return Vec::new();
        }
        let out = self.process();
        // Keep enough overlap that any packet starting inside the kept
        // region is seen whole next time (one maximal packet plus one
        // preamble of slack). With SIC enabled the rescue window extends
        // one extra maximal packet past a decoded collider, so retain
        // one more airtime of overlap.
        let keep = (2 + usize::from(self.cfg.receiver.sic.enabled)) * self.max_packet_samples;
        if self.buffer.len() > keep {
            let drop = self.buffer.len() - keep;
            self.buffer.drain(..drop);
            self.base += drop as u64;
        }
        self.emitted
            .retain(|&(s, _)| s >= self.base as f64 - self.max_packet_samples as f64);
        out
    }

    /// Flushes the remaining buffer at end of stream and resets the
    /// receiver for a fresh stream: the buffer, the emitted-packet
    /// deduplication memory and the absolute position all restart at
    /// zero, so a reused receiver never suppresses packets that happen to
    /// land near a previous stream's offsets. Cumulative
    /// [`Self::report`]/[`Self::metrics_snapshot`] are preserved.
    pub fn finish(&mut self) -> Vec<DecodedPacket> {
        let out = self.process();
        self.buffer.clear();
        self.emitted.clear();
        self.base = 0;
        out
    }

    fn process(&mut self) -> Vec<DecodedPacket> {
        if self.buffer.is_empty() {
            return Vec::new();
        }
        let (decoded, mut report) = self
            .rx
            .decode_multi_report_observed(&[&self.buffer], &self.metrics);
        // A rescue that was already emitted from a previous window gets
        // re-decoded from the retained overlap; drop those duplicates
        // from the rescue tally before absorbing so the cumulative
        // report counts each rescued transmission once per stream.
        let dup_rescues = decoded
            .iter()
            .filter(|d| d.pass >= 2)
            .filter(|d| {
                let absolute = self.base as f64 + d.start;
                self.emitted.iter().any(|&(s, c)| {
                    same_transmission(s, c, absolute, d.cfo_cycles, self.samples_per_symbol)
                })
            })
            .count();
        report.second_pass_rescues = report.second_pass_rescues.saturating_sub(dup_rescues);
        self.report.absorb(&report);
        let mut out = Vec::new();
        for mut d in decoded {
            let absolute = self.base as f64 + d.start;
            if self.emitted.iter().any(|&(s, cfo)| {
                same_transmission(s, cfo, absolute, d.cfo_cycles, self.samples_per_symbol)
            }) {
                continue;
            }
            self.emitted.push((absolute, d.cfo_cycles));
            d.start = absolute;
            out.push(d);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnb_phy::params::{CodingRate, SpreadingFactor};

    fn params() -> LoRaParams {
        LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4)
    }

    #[test]
    fn position_tracks_pushes() {
        let mut s = StreamingReceiver::new(params());
        assert_eq!(s.position(), 0);
        s.push(&[Complex32::ZERO; 1000]);
        assert_eq!(s.position(), 1000);
        s.push(&[Complex32::ZERO; 234]);
        assert_eq!(s.position(), 1234);
    }

    #[test]
    fn finish_on_empty_is_empty() {
        let mut s = StreamingReceiver::new(params());
        assert!(s.finish().is_empty());
        assert!(s.push(&[]).is_empty());
    }
}
