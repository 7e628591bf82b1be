//! One loopback harness for the gateway daemon, over the grid
//! (narrowband | wideband front) × (clean | [`NetFaultPlan`] link).
//!
//! [`run`] spawns a [`Gateway`] on a loopback ephemeral port, streams
//! synthesized traffic at it, and checks the **transparency contract**:
//! the uplinked JSON lines (uplink + end, per stream) are byte-identical
//! to a direct in-process decode of the same wire-quantized samples
//! ([`reference_transcript`]). The front is picked by the config: no
//! occupied channels streams pairwise-collided narrowband packets, any
//! occupied channel streams an 8-channel wideband scene with the wire
//! protocol's WIDEBAND flag. One [`GatewayClient`] (HELLO/RESUME
//! sessions, reconnect, resend) drives the traffic, straight at the
//! daemon without a fault plan and through a [`ChaosProxy`] with one —
//! every plan of [`NetFaultPlan::matrix`] is recoverable, so the
//! transcript must still match byte for byte.

use std::io;
use std::time::{Duration, Instant};

use tnb_channel::trace::{PacketConfig, TraceBuilder};
use tnb_core::{DecodedPacket, StreamDecoder, StreamingConfig, WidebandConfig};
use tnb_dsp::channelizer::upconvert;
use tnb_dsp::{ChannelizerConfig, Complex32};
use tnb_gateway::client::DEFAULT_CHUNK;
use tnb_gateway::wire::quantize;
use tnb_gateway::{
    uplink, ChaosProxy, ClientConfig, Gateway, GatewayClient, GatewayConfig, GatewayStatsSnapshot,
    NetFaultPlan,
};
use tnb_phy::LoRaParams;

/// One loopback run's shape.
#[derive(Debug, Clone)]
pub struct LoopbackConfig {
    /// PHY parameters for synthesis and decode (per channel on the
    /// wideband front).
    pub params: LoRaParams,
    /// Worker threads inside each per-stream streaming receiver.
    pub workers: usize,
    /// Concurrent streams multiplexed on the single connection.
    pub streams: u32,
    /// Colliding packets per stream on the narrowband front.
    pub packets: usize,
    /// Channels carrying one packet each (`0..8`, ascending frequency).
    /// Empty selects the narrowband front; anything else the wideband.
    pub occupied: Vec<usize>,
    /// DATA-frame chunk length in samples. Small chunks (4096 samples,
    /// ~16 KiB frames) make the fault plans' sub-64 KiB offsets land
    /// mid-frame.
    pub chunk: usize,
    /// Synthesis seed (stream `s` uses `seed + s`).
    pub seed: u64,
    /// Chaos between client and daemon; its `seed` also seeds the
    /// client's backoff jitter. `None` = a direct connection.
    pub faults: Option<NetFaultPlan>,
}

impl LoopbackConfig {
    /// Narrowband front: a 3-packet collision on one stream, single
    /// worker, clean link.
    pub fn new(params: LoRaParams) -> Self {
        LoopbackConfig {
            params,
            workers: 1,
            streams: 1,
            packets: 3,
            occupied: Vec::new(),
            chunk: DEFAULT_CHUNK,
            seed: 7,
            faults: None,
        }
    }

    /// Wideband front: packets on channels 1, 4 and 6 of the 8-channel
    /// band, 40 k-sample chunks, clean link.
    pub fn wideband(params: LoRaParams) -> Self {
        LoopbackConfig {
            occupied: vec![1, 4, 6],
            chunk: 40_000,
            seed: 40,
            ..LoopbackConfig::new(params)
        }
    }

    fn streaming(&self) -> StreamingConfig {
        StreamingConfig {
            workers: self.workers,
            ..StreamingConfig::default()
        }
    }
}

/// What one loopback run produced.
#[derive(Debug)]
pub struct LoopbackOutcome {
    /// Per-stream lines received from the daemon, in arrival order
    /// (index = stream id), reduced to uplink + end lines
    /// ([`uplink_transcript`]). A line naming an unknown stream lands
    /// in one extra trailing entry, which no reference has.
    pub daemon_lines: Vec<Vec<String>>,
    /// Per-stream lines of the direct in-process decode.
    pub reference_lines: Vec<Vec<String>>,
    /// Reference uplinks per channel, summed over streams (a single
    /// entry on the narrowband front).
    pub per_channel: Vec<u64>,
    /// Samples streamed across all streams.
    pub samples: u64,
    /// Client-side reconnect cycles.
    pub reconnects: u64,
    /// Client-side frames re-sent after resume.
    pub resent: u64,
    /// Destructive proxy faults fired.
    pub proxy_faults: u64,
    /// Final daemon counters.
    pub stats: GatewayStatsSnapshot,
    /// Wall-clock time of the whole run, reference decode included.
    /// Timing is harness-only; the daemon never reads the wall clock.
    pub wall: Duration,
}

impl LoopbackOutcome {
    /// True when every stream's daemon transcript equals its reference
    /// byte for byte.
    pub fn byte_identical(&self) -> bool {
        self.daemon_lines == self.reference_lines
    }

    /// Uplinked packets per wall-clock second.
    pub fn packets_per_sec(&self) -> f64 {
        self.stats.packets_uplinked as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Streamed samples per wall-clock second.
    pub fn samples_per_sec(&self) -> f64 {
        self.samples as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Synthesizes stream `stream`'s samples (seed `cfg.seed + stream`).
///
/// - **Narrowband:** `packets` transmissions whose airtimes overlap
///   pairwise (starts staggered by a third of a packet), distinct
///   payloads, per-packet SNR/CFO spread, no noise.
/// - **Wideband:** one packet per occupied channel, each layer generated
///   at the wideband rate and upconverted to its slot. Unit noise rides
///   on the first layer only, so the wideband floor stays near a single
///   channel's. Trailing silence covers the filterbank's group delay so
///   the last packet's tail cannot be clipped.
pub fn scene(cfg: &LoopbackConfig, stream: u32) -> Vec<Complex32> {
    let seed = cfg.seed + stream as u64;
    if cfg.occupied.is_empty() {
        let mut b = TraceBuilder::new(cfg.params, seed).without_noise();
        let stagger = b.packet_samples(16) / 3;
        for i in 0..cfg.packets.max(1) {
            let payload: Vec<u8> = (0..16)
                .map(|j| (seed as u8) ^ (i as u8 * 31) ^ (j as u8 * 7))
                .collect();
            b.add_packet(
                &payload,
                PacketConfig {
                    start_sample: 4_000 + i * stagger,
                    snr_db: 10.0 - i as f32 * 2.0,
                    cfo_hz: (i as f64 - 1.0) * 900.0,
                    ..Default::default()
                },
            );
        }
        return b.build().samples().to_vec();
    }
    let m = ChannelizerConfig::default().channels;
    let mut wide = cfg.params;
    wide.osf *= m;
    let mut out: Vec<Complex32> = Vec::new();
    for (i, &c) in cfg.occupied.iter().enumerate() {
        let payload: Vec<u8> = (0..12)
            .map(|j| (seed as u8) ^ (c as u8 * 37) ^ (j as u8 * 11) ^ 0xA5)
            .collect();
        let mut b = TraceBuilder::new(wide, seed + i as u64);
        if i > 0 {
            b = b.without_noise();
        }
        b.add_packet(
            &payload,
            PacketConfig {
                start_sample: (6_000 + 11_000 * i) * m,
                snr_db: 25.0,
                ..Default::default()
            },
        );
        let mut layer = b.build().samples().to_vec();
        upconvert(&mut layer, c % m, m);
        if out.len() < layer.len() {
            out.resize(layer.len(), Complex32::ZERO);
        }
        for (dst, src) in out.iter_mut().zip(&layer) {
            *dst += *src;
        }
    }
    out.resize(
        out.len() + 4 * cfg.params.samples_per_symbol() * m,
        Complex32::ZERO,
    );
    out
}

/// The reference transcript of one stream: decodes the wire-quantized
/// `samples` with a local [`StreamDecoder`] (the daemon's front-end
/// switch), pushed at exactly the daemon's chunk boundaries, rendering
/// lines through the daemon's serializers. Returns
/// `(lines, per_channel_uplinks)`.
pub fn reference_transcript(
    cfg: &LoopbackConfig,
    stream_id: u32,
    samples: &[Complex32],
) -> (Vec<String>, Vec<u64>) {
    let wideband = !cfg.occupied.is_empty();
    let front = WidebandConfig {
        channelizer: ChannelizerConfig::default(),
        streaming: cfg.streaming(),
    };
    let mut rx = StreamDecoder::new(cfg.params, &front, wideband);
    let mut lines = Vec::new();
    let channels = if wideband {
        front.channelizer.channels
    } else {
        1
    };
    let mut per_channel = vec![0u64; channels];
    let mut uplinked = 0u64;
    let mut render = |tagged: Vec<(Option<usize>, DecodedPacket)>| {
        for (channel, p) in &tagged {
            let line = uplink::tagged_uplink_line(&cfg.params, stream_id, uplinked, *channel, p);
            lines.push(line);
            per_channel[channel.unwrap_or(0)] += 1;
            uplinked += 1;
        }
    };
    for c in quantize(samples).chunks(cfg.chunk.max(1)) {
        render(rx.push(c));
    }
    render(rx.finish());
    let end = uplink::end_line(stream_id, rx.position(), uplinked, &rx.report());
    lines.push(end);
    (lines, per_channel)
}

/// Keeps only the lines that define the decode transcript (uplink and
/// end), dropping control chatter (hello/resumed/ack/goaway/...).
pub fn uplink_transcript(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .filter(|l| l.starts_with("{\"type\":\"uplink\"") || l.starts_with("{\"type\":\"end\""))
        .cloned()
        .collect()
}

/// Splits a transcript per stream id, preserving arrival order (one
/// decoder thread drains a connection FIFO). Lines naming no stream go
/// to one extra trailing bucket, so they fail the comparison.
fn per_stream(lines: Vec<String>, streams: u32) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = vec![Vec::new(); streams as usize];
    let mut stray = Vec::new();
    for line in lines {
        match (0..streams).find(|s| line.contains(&format!("\"stream\":{s},"))) {
            Some(s) => out[s as usize].push(line),
            None => stray.push(line),
        }
    }
    if !stray.is_empty() {
        out.push(stray);
    }
    out
}

/// Runs one full loopback: daemon up (with a chaos proxy in front when
/// `cfg.faults` is set), every stream sent and ended over one
/// connection, transcript collected, daemon shut down, then every
/// stream's reference decoded and the transcript split per stream for
/// comparison.
pub fn run(cfg: &LoopbackConfig) -> io::Result<LoopbackOutcome> {
    let t0 = Instant::now();
    let gw = Gateway::spawn(
        ("127.0.0.1", 0),
        GatewayConfig {
            streaming: cfg.streaming(),
            queue_chunks: 1024,
            ack_every: 4,
            ..GatewayConfig::new(cfg.params)
        },
    )?;
    let proxy = match &cfg.faults {
        Some(plan) => Some(ChaosProxy::spawn(gw.local_addr(), plan.clone())?),
        None => None,
    };
    let scenes: Vec<Vec<Complex32>> = (0..cfg.streams).map(|s| scene(cfg, s)).collect();
    let wideband = !cfg.occupied.is_empty();

    let mut c = GatewayClient::connect(
        proxy
            .as_ref()
            .map_or(gw.local_addr(), ChaosProxy::local_addr),
        ClientConfig {
            seed: cfg.faults.as_ref().map_or(0, |plan| plan.seed),
            ..ClientConfig::default()
        },
    )?;
    for (s, x) in (0..).zip(&scenes) {
        c.send_samples(s, x, cfg.chunk, wideband)?;
        c.end_stream(s)?;
    }
    c.drain()?;
    let client = c.stats();
    let transcript = uplink_transcript(&c.finish());
    let stats = gw.join();
    let proxy_faults = proxy.map_or(0, |p| p.stats().3);

    let mut reference_lines = Vec::new();
    let mut per_channel: Vec<u64> = Vec::new();
    for (s, x) in (0..).zip(&scenes) {
        let (lines, chans) = reference_transcript(cfg, s, x);
        per_channel.resize(chans.len(), 0);
        for (total, n) in per_channel.iter_mut().zip(chans) {
            *total += n;
        }
        reference_lines.push(lines);
    }
    Ok(LoopbackOutcome {
        daemon_lines: per_stream(transcript, cfg.streams),
        reference_lines,
        per_channel,
        samples: scenes.iter().map(|x| x.len() as u64).sum(),
        reconnects: client.reconnects,
        resent: client.retransmitted_frames,
        proxy_faults,
        stats,
        wall: t0.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_stream_keeps_stray_lines_as_a_mismatch() {
        let lines = vec![
            "{\"type\":\"uplink\",\"stream\":1,\"n\":0}".to_owned(),
            "{\"type\":\"stats\",\"uplinked\":1}".to_owned(),
            "{\"type\":\"end\",\"stream\":0,\"samples\":9}".to_owned(),
        ];
        let split = per_stream(lines.clone(), 2);
        assert_eq!(split.len(), 3, "{split:?}");
        assert_eq!(split[0], [lines[2].clone()]);
        assert_eq!(split[1], [lines[0].clone()]);
        assert_eq!(split[2], [lines[1].clone()]);
        assert_eq!(per_stream(vec![lines[0].clone()], 2).len(), 2);
    }

    #[test]
    fn uplink_transcript_filters_control_chatter() {
        let lines = vec![
            "{\"type\":\"hello\",\"session\":1,\"grace_ms\":1}".to_owned(),
            "{\"type\":\"uplink\",\"stream\":0,\"n\":0,\"x\":1}".to_owned(),
            "{\"type\":\"ack\",\"stream\":0,\"seq\":3}".to_owned(),
            "{\"type\":\"end\",\"stream\":0,\"samples\":9}".to_owned(),
            "{\"type\":\"goaway\",\"reason\":\"shutdown\"}".to_owned(),
        ];
        let kept = uplink_transcript(&lines);
        assert_eq!(kept.len(), 2);
        assert!(kept[0].contains("uplink") && kept[1].contains("end"));
    }
}
