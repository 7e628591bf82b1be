//! Wideband front-end: one polyphase channelizer feeding per-channel
//! [`StreamingReceiver`]s.
//!
//! A multi-channel gateway captures one wideband IQ stream covering all
//! eight standard LoRa uplink channels at `M×` the per-channel rate.
//! [`WidebandReceiver`] splits that stream with the critically-sampled
//! [`Channelizer`] and runs an independent streaming decoder per
//! channel, so a trace that was channelized offline and decoded with
//! standalone receivers yields byte-identical packets and reports (the
//! channelizer is chunk-invariant and every decoder sees the same
//! per-channel sample sequence either way).
//!
//! [`StreamDecoder`] is the one place a stream picks between the two
//! front-ends: the gateway daemon and the deploy shards both drive it.

use crate::packet::DecodedPacket;
use crate::receiver::DecodeReport;
use crate::streaming::{StreamingConfig, StreamingReceiver};
use tnb_dsp::{Channelizer, ChannelizerConfig, Complex32};
use tnb_metrics::MetricsSnapshot;
use tnb_phy::params::LoRaParams;

/// Wideband front-end configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct WidebandConfig {
    /// Filterbank geometry (channel count `M`, prototype taps).
    pub channelizer: ChannelizerConfig,
    /// Streaming-receiver configuration applied to every channel.
    pub streaming: StreamingConfig,
}

/// One decoded packet attributed to the channel it was heard on.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelPacket {
    /// Logical channel index (`0..M`, ascending center frequency).
    pub channel: usize,
    /// The decoded packet; `start` is an absolute sample index on the
    /// *per-channel* (decimated) sample clock.
    pub packet: DecodedPacket,
}

/// Splits a wideband IQ stream into `M` channels and decodes each with
/// its own [`StreamingReceiver`].
pub struct WidebandReceiver {
    chan: Channelizer,
    rxs: Vec<StreamingReceiver>,
    bufs: Vec<Vec<Complex32>>,
    /// Wideband input samples of the current stream.
    samples: u64,
    /// Set by [`Self::finish`]: the next push starts a fresh stream.
    finished: bool,
}

impl WidebandReceiver {
    /// Creates a wideband receiver with default configuration (8
    /// channels, default streaming behaviour).
    pub fn new(params: LoRaParams) -> Self {
        Self::with_config(params, WidebandConfig::default())
    }

    /// Creates a wideband receiver with a custom configuration. Every
    /// channel decodes with the same `params` (the per-channel sample
    /// rate: the wideband input runs `M×` faster).
    pub fn with_config(params: LoRaParams, cfg: WidebandConfig) -> Self {
        let chan = Channelizer::new(cfg.channelizer);
        let m = chan.channels();
        let rxs = (0..m)
            .map(|_| StreamingReceiver::with_config(params, cfg.streaming))
            .collect();
        let bufs = vec![Vec::new(); m];
        WidebandReceiver {
            chan,
            rxs,
            bufs,
            samples: 0,
            finished: false,
        }
    }

    /// Number of channels `M`.
    pub fn channels(&self) -> usize {
        self.chan.channels()
    }

    /// Center-frequency offset of channel `c` as a fraction of the
    /// wideband input rate.
    pub fn channel_offset(&self, c: usize) -> f64 {
        self.chan.channel_offset(c)
    }

    /// Wideband input samples pushed in the current stream; after
    /// [`Self::finish`], the finished stream's length.
    pub fn position(&self) -> u64 {
        self.samples
    }

    /// Per-channel cumulative decode reports (index = channel).
    pub fn reports(&self) -> Vec<DecodeReport> {
        self.rxs.iter().map(StreamingReceiver::report).collect()
    }

    /// Feeds a chunk of *wideband* samples; returns any packets the
    /// chunk completed, tagged with their channel, in ascending channel
    /// order.
    pub fn push(&mut self, samples: &[Complex32]) -> Vec<ChannelPacket> {
        if std::mem::take(&mut self.finished) {
            self.samples = 0;
        }
        self.samples += samples.len() as u64;
        for b in &mut self.bufs {
            b.clear();
        }
        self.chan.push(samples, &mut self.bufs);
        let mut out = Vec::new();
        for (c, (rx, buf)) in self.rxs.iter_mut().zip(&self.bufs).enumerate() {
            for packet in rx.push(buf) {
                out.push(ChannelPacket { channel: c, packet });
            }
        }
        out
    }

    /// Flushes every channel's decoder at end of stream and resets the
    /// front-end (channelizer delay line included) for a fresh stream.
    /// Cumulative per-channel reports are preserved.
    pub fn finish(&mut self) -> Vec<ChannelPacket> {
        let mut out = Vec::new();
        for (c, rx) in self.rxs.iter_mut().enumerate() {
            for packet in rx.finish() {
                out.push(ChannelPacket { channel: c, packet });
            }
        }
        self.chan.reset();
        self.finished = true;
        out
    }
}

/// One stream's decoder: a narrowband [`StreamingReceiver`] or a
/// channelized [`WidebandReceiver`], chosen once at construction.
/// Packets come out as `(channel, packet)`, with `None` for the channel
/// of a narrowband stream.
pub enum StreamDecoder {
    /// One receiver on the stream's own clock.
    Narrow(Box<StreamingReceiver>),
    /// A channelizer feeding per-channel receivers.
    Wide(WidebandReceiver),
}

impl StreamDecoder {
    /// A narrowband decoder with `cfg.streaming`, or a wideband one with
    /// all of `cfg` when `wideband`.
    pub fn new(params: LoRaParams, cfg: &WidebandConfig, wideband: bool) -> Self {
        if wideband {
            StreamDecoder::Wide(WidebandReceiver::with_config(params, *cfg))
        } else {
            StreamDecoder::Narrow(Box::new(StreamingReceiver::with_config(
                params,
                cfg.streaming,
            )))
        }
    }

    /// Whether this is the wideband front-end.
    pub fn is_wideband(&self) -> bool {
        matches!(self, StreamDecoder::Wide(_))
    }

    /// Feeds one chunk of input samples; returns the packets it completed.
    pub fn push(&mut self, samples: &[Complex32]) -> Vec<(Option<usize>, DecodedPacket)> {
        match self {
            StreamDecoder::Narrow(rx) => tag_narrow(rx.push(samples)),
            StreamDecoder::Wide(rx) => tag_wide(rx.push(samples)),
        }
    }

    /// Flushes the stream's tail and resets for a fresh stream.
    pub fn finish(&mut self) -> Vec<(Option<usize>, DecodedPacket)> {
        match self {
            StreamDecoder::Narrow(rx) => tag_narrow(rx.finish()),
            StreamDecoder::Wide(rx) => tag_wide(rx.finish()),
        }
    }

    /// Cumulative decode report (wideband: absorbed across channels).
    pub fn report(&self) -> DecodeReport {
        match self {
            StreamDecoder::Narrow(rx) => rx.report(),
            StreamDecoder::Wide(rx) => {
                let mut all = DecodeReport::default();
                for r in rx.reports() {
                    all.absorb(&r);
                }
                all
            }
        }
    }

    /// Cumulative pipeline metrics. Wideband streams don't aggregate
    /// wall-time metrics across channels (the per-channel receivers
    /// observe independently), so theirs read all zeros.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        match self {
            StreamDecoder::Narrow(rx) => rx.metrics_snapshot(),
            StreamDecoder::Wide(_) => MetricsSnapshot::default(),
        }
    }

    /// Samples pushed so far, on the stream's own input clock; after
    /// [`Self::finish`], the finished stream's length.
    pub fn position(&self) -> u64 {
        match self {
            StreamDecoder::Narrow(rx) => rx.position(),
            StreamDecoder::Wide(rx) => rx.position(),
        }
    }
}

fn tag_narrow(pkts: Vec<DecodedPacket>) -> Vec<(Option<usize>, DecodedPacket)> {
    pkts.into_iter().map(|p| (None, p)).collect()
}

fn tag_wide(pkts: Vec<ChannelPacket>) -> Vec<(Option<usize>, DecodedPacket)> {
    pkts.into_iter()
        .map(|cp| (Some(cp.channel), cp.packet))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnb_phy::params::{CodingRate, SpreadingFactor};

    fn params() -> LoRaParams {
        LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4)
    }

    #[test]
    fn empty_stream_decodes_nothing() {
        let mut rx = WidebandReceiver::new(params());
        assert_eq!(rx.channels(), 8);
        assert!(rx.push(&[]).is_empty());
        assert!(rx.finish().is_empty());
        assert_eq!(rx.reports().len(), 8);
    }

    #[test]
    fn position_counts_wideband_input_samples_until_the_next_stream() {
        let mut rx = WidebandReceiver::new(params());
        rx.push(&[Complex32::ZERO; 800]);
        rx.push(&[Complex32::ZERO; 5]);
        assert_eq!(rx.position(), 805, "not a multiple of the 8 channels");
        rx.finish();
        assert_eq!(rx.position(), 805, "finish keeps the stream's length");
        rx.push(&[Complex32::ZERO; 16]);
        assert_eq!(rx.position(), 16, "the next push starts a fresh stream");
    }

    #[test]
    fn channel_offsets_cover_the_band() {
        let rx = WidebandReceiver::new(params());
        assert_eq!(rx.channel_offset(4), 0.0);
        assert!(rx.channel_offset(0) < rx.channel_offset(7));
    }
}
