//! Gateway-style streaming frontend for the TnB receiver.
//!
//! A real gateway does not see a finished trace file: samples arrive
//! continuously. [`StreamingReceiver`] buffers incoming chunks, runs the
//! batch receiver over a sliding window, emits each packet once, and
//! keeps enough overlap that packets straddling a window boundary are
//! decoded whole in the next round. [`Overlap`] sizes the window and the
//! overlap; [`Owned`] decides which window owns a packet. Time-sharded
//! decodes reuse both, so a shard and a continuous stream agree.

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

/// Overlap sizing of a stream decode, derived from its
/// [`StreamingConfig`]: [`StreamingReceiver`]'s window and retained
/// overlap, and the padding of a time shard decoded on its own.
#[derive(Debug, Clone, Copy)]
pub struct Overlap {
    /// Buffered samples that trigger a batch decode.
    pub window: usize,
    /// Samples retained after each batch decode: two maximal packets, so
    /// any packet starting in them is seen whole next time (one packet
    /// plus a preamble of slack), and one more with SIC, whose rescue
    /// window reaches one maximal packet past a decoded collider.
    pub keep: usize,
    /// `(lead, tail)` padding of a time shard decoded by a fresh
    /// receiver: one window of collider context before the first owned
    /// sample and the retained overlap after the last, each with one
    /// sample per maximal packet (a fractional arrival delay lengthens a
    /// waveform by one) and one symbol of slack.
    pub shard_padding: (u64, u64),
    /// Samples of one maximal packet.
    max_packet: usize,
}

impl Overlap {
    /// Overlap sizing for `cfg` at `params`.
    pub fn new(params: LoRaParams, cfg: &StreamingConfig) -> Overlap {
        let max_packet = Transmitter::new(params).packet_samples(cfg.max_payload);
        let window = cfg.window_factor.max(2);
        let keep = 2 + usize::from(cfg.receiver.sic.enabled);
        let pad =
            |packets: usize| (packets * (max_packet + 1) + params.samples_per_symbol()) as u64;
        Overlap {
            window: window * max_packet,
            keep: keep * max_packet,
            shard_padding: (pad(window), pad(keep)),
            max_packet,
        }
    }
}

/// The transmissions a stream has claimed, by absolute start and CFO
/// under [`same_transmission`]: a window owns a packet iff it claims it
/// first.
#[derive(Debug)]
pub struct Owned {
    samples_per_symbol: f64,
    /// Absolute (start, cfo_cycles), in claim order.
    claimed: Vec<(f64, f64)>,
}

impl Owned {
    /// An empty claim set for streams at `params`.
    pub fn new(params: LoRaParams) -> Owned {
        let samples_per_symbol = params.samples_per_symbol() as f64;
        Owned {
            samples_per_symbol,
            claimed: Vec::new(),
        }
    }

    /// Claims the transmission at absolute `start`; if it is already
    /// owned, returns the claim-order index of its oldest live owner.
    pub fn claim(&mut self, start: f64, cfo_cycles: f64) -> Result<(), usize> {
        let sps = self.samples_per_symbol;
        let same = |&(s, c): &(f64, f64)| same_transmission(s, c, start, cfo_cycles, sps);
        match self.claimed.iter().position(same) {
            Some(owner) => Err(owner),
            None => {
                self.claimed.push((start, cfo_cycles));
                Ok(())
            }
        }
    }

    /// Drops the claims that start before `start`.
    pub fn forget_before(&mut self, start: f64) {
        self.claimed.retain(|&(s, _)| s >= start);
    }

    /// Drops every claim.
    pub fn clear(&mut self) {
        self.claimed.clear();
    }
}

/// Incremental receiver: push sample chunks, collect decoded packets.
///
/// Packet `start` fields are *absolute* sample indices in the stream (not
/// window-relative).
pub struct StreamingReceiver {
    rx: TnbReceiver,
    overlap: Overlap,
    buffer: Vec<Complex32>,
    /// Absolute index of `buffer[0]` in the stream.
    base: u64,
    /// Set by [`Self::finish`]: the next push starts a fresh stream at 0.
    finished: bool,
    /// Already emitted packets, for deduplication in the overlap region.
    owned: Owned,
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
        let rx = TnbReceiver::with_config(params, cfg.receiver)
            .with_workers(cfg.workers)
            .with_max_payload_len(cfg.max_payload.max(1));
        StreamingReceiver {
            rx,
            overlap: Overlap::new(params, &cfg),
            buffer: Vec::new(),
            base: 0,
            finished: false,
            owned: Owned::new(params),
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

    /// Absolute index of the next sample [`Self::push`] will consume;
    /// after [`Self::finish`], the finished stream's length.
    pub fn position(&self) -> u64 {
        self.base + self.buffer.len() as u64
    }

    /// Feeds a chunk of samples; returns any packets completed by it.
    pub fn push(&mut self, samples: &[Complex32]) -> Vec<DecodedPacket> {
        if std::mem::take(&mut self.finished) {
            self.base = 0;
        }
        self.buffer.extend_from_slice(samples);
        if self.buffer.len() < self.overlap.window {
            return Vec::new();
        }
        let out = self.process();
        let keep = self.overlap.keep;
        if self.buffer.len() > keep {
            let drop = self.buffer.len() - keep;
            self.buffer.drain(..drop);
            self.base += drop as u64;
        }
        self.owned
            .forget_before(self.base as f64 - self.overlap.max_packet as f64);
        out
    }

    /// Flushes the remaining buffer at end of stream and resets the
    /// receiver for a fresh stream: the buffer and the emitted-packet
    /// deduplication memory are cleared, so a reused receiver never
    /// suppresses packets that happen to land near a previous stream's
    /// offsets. [`Self::position`] keeps reading the finished stream's
    /// length until the next [`Self::push`] restarts it at zero.
    /// Cumulative [`Self::report`]/[`Self::metrics_snapshot`] are
    /// preserved.
    pub fn finish(&mut self) -> Vec<DecodedPacket> {
        let out = self.process();
        self.base = self.position();
        self.buffer.clear();
        self.owned.clear();
        self.finished = true;
        out
    }

    fn process(&mut self) -> Vec<DecodedPacket> {
        if self.buffer.is_empty() {
            return Vec::new();
        }
        let (decoded, mut report) = self
            .rx
            .decode_multi_report_observed(&[&self.buffer], &self.metrics);
        let claimed_before = self.owned.claimed.len();
        let mut dup_rescues = 0;
        let mut out = Vec::new();
        for mut d in decoded {
            d.start += self.base as f64;
            match self.owned.claim(d.start, d.cfo_cycles) {
                Ok(()) => out.push(d),
                // A rescue that an earlier window already emitted was
                // re-decoded from the retained overlap: drop it from the
                // rescue tally so the cumulative report counts each
                // rescued transmission once per stream.
                Err(owner) => dup_rescues += usize::from(d.pass >= 2 && owner < claimed_before),
            }
        }
        report.second_pass_rescues = report.second_pass_rescues.saturating_sub(dup_rescues);
        self.report.absorb(&report);
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
    fn shard_padding_covers_the_window_and_the_overlap() {
        // The deploy shards rely on this: a shard's lead context is at
        // least one decode window, its tail at least the retained overlap.
        for sic in [false, true] {
            let mut cfg = StreamingConfig::default();
            cfg.receiver.sic.enabled = sic;
            let o = Overlap::new(params(), &cfg);
            let (lead, tail) = o.shard_padding;
            assert!(lead >= o.window as u64, "sic {sic}: lead {lead} < window");
            assert!(tail >= o.keep as u64, "sic {sic}: tail {tail} < overlap");
            assert!(o.window > o.keep, "sic {sic}: no room to advance");
        }
    }

    #[test]
    fn owned_claims_once_and_names_the_oldest_owner() {
        let mut o = Owned::new(params());
        assert_eq!(o.claim(1000.0, 0.0), Ok(()));
        assert_eq!(o.claim(5000.0, 0.0), Ok(()));
        assert_eq!(o.claim(1010.0, 1.0), Err(0));
        assert_eq!(o.claim(1000.0, 2.0), Ok(()), "2 bins of CFO apart");
        o.forget_before(2000.0);
        assert_eq!(o.claim(1000.0, 0.0), Ok(()), "forgotten claims own nothing");
        assert_eq!(o.claim(5000.0, 0.0), Err(0));
    }

    #[test]
    fn finish_on_empty_is_empty() {
        let mut s = StreamingReceiver::new(params());
        assert!(s.finish().is_empty());
        assert!(s.push(&[]).is_empty());
    }
}
