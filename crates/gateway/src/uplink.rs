//! JSON-lines uplink format for decoded packets.
//!
//! Modeled on the Semtech UDP packet-forwarder `PUSH_DATA` shape: each
//! decoded packet becomes one `rxpk`-style JSON object on its own line,
//! with base64 payload bytes, the data-rate string, SNR, and a `tmst`
//! microsecond timestamp. Unlike Semtech's, the timestamp derives from
//! the **sample clock** (the packet's absolute sample index in the
//! stream; at 1 Msps one sample is one microsecond) — never the wall
//! clock — so the uplink of a replayed stream is byte-identical on
//! every run and on every worker count (TNB-DET01).

use crate::stats::GatewayStatsSnapshot;
use tnb_core::{DecodeOutcome, DecodeReport, DecodedPacket, MetricsSnapshot};
use tnb_phy::params::LoRaParams;

/// Center frequency reported in uplink lines, in MHz. The synthetic
/// traces are baseband captures with no RF frontend, so this is a
/// documentation-only constant (the EU868 default the paper's testbed
/// uses).
pub const UPLINK_FREQ_MHZ: f64 = 868.1;

const B64_ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Standard (RFC 4648, padded) base64 of `bytes` — implemented locally
/// so the crate stays dependency-free.
pub fn base64(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
        let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
        let v = (b0 << 16) | (b1 << 8) | b2;
        out.push(B64_ALPHABET[(v >> 18) as usize & 0x3F] as char);
        out.push(B64_ALPHABET[(v >> 12) as usize & 0x3F] as char);
        out.push(if chunk.len() > 1 {
            B64_ALPHABET[(v >> 6) as usize & 0x3F] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            B64_ALPHABET[v as usize & 0x3F] as char
        } else {
            '='
        });
    }
    out
}

/// Data-rate string for the uplink (`SF8CR4` style: spreading factor
/// plus coding rate, the two knobs this PHY exposes).
pub fn datr(params: &LoRaParams) -> String {
    format!("SF{}CR{}", params.sf.value(), params.cr.value())
}

/// Sample-clock timestamp of a packet start, in microseconds: the
/// absolute sample index at 1 Msps. Clamped at zero (a packet start can
/// sit fractionally before the first sample after synchronization).
pub fn sample_clock_us(start: f64, params: &LoRaParams) -> u64 {
    let us = start * 1e6 / params.sample_rate();
    if us <= 0.0 {
        0
    } else {
        us as u64
    }
}

/// One uplink JSON line (no trailing newline) for a decoded packet.
///
/// `n` is the per-stream uplink ordinal (0-based). The `outcome` object
/// reuses the per-packet schema of `DecodeReport.outcomes` (`tnb-cli
/// report --json`), so consumers parse both feeds the same way.
pub fn uplink_line(params: &LoRaParams, stream_id: u32, n: u64, pkt: &DecodedPacket) -> String {
    tagged_uplink_line(params, stream_id, n, None, pkt)
}

/// Like [`uplink_line`] but for a wideband stream: tags the line with
/// the logical uplink channel the packet was heard on (`0..M`, ascending
/// frequency), as a top-level `channel` key.
pub fn uplink_line_on_channel(
    params: &LoRaParams,
    stream_id: u32,
    n: u64,
    channel: usize,
    pkt: &DecodedPacket,
) -> String {
    tagged_uplink_line(params, stream_id, n, Some(channel), pkt)
}

/// [`uplink_line`] for a `(channel, packet)` pair of a
/// [`tnb_core::StreamDecoder`]: channel-tagged when `channel` is `Some`
/// (wideband), plain otherwise.
pub fn tagged_uplink_line(
    params: &LoRaParams,
    stream_id: u32,
    n: u64,
    channel: Option<usize>,
    pkt: &DecodedPacket,
) -> String {
    let chan = channel.map_or(String::new(), |c| format!("\"channel\":{c},"));
    format!(
        "{{\"type\":\"uplink\",\"stream\":{stream_id},\"n\":{n},{chan}\
         \"rxpk\":{{\"tmst\":{},\"freq\":{UPLINK_FREQ_MHZ},\"datr\":\"{}\",\
         \"lsnr\":{:.1},\"foff\":{:.0},\"size\":{},\"data\":\"{}\"}},\
         \"outcome\":{},\"rescued\":{}}}",
        sample_clock_us(pkt.start, params),
        datr(params),
        pkt.snr_db,
        pkt.cfo_cycles * params.bin_hz(),
        pkt.payload.len(),
        base64(&pkt.payload),
        DecodeOutcome::Decoded {
            start: pkt.start,
            pass: pkt.pass,
        }
        .to_json(),
        pkt.rescued_codewords,
    )
}

/// The end-of-stream line: totals plus the cumulative decode report
/// (aggregate counts and per-packet outcomes with degradation reasons).
pub fn end_line(stream_id: u32, samples: u64, uplinked: u64, report: &DecodeReport) -> String {
    format!(
        "{{\"type\":\"end\",\"stream\":{stream_id},\"samples\":{samples},\
         \"uplinked\":{uplinked},\"report\":{}}}",
        report.to_json()
    )
}

/// The STATS control-verb response: gateway counters, the cumulative
/// decode report across this connection's streams, and the
/// [`MetricsSnapshot`] (all-zero unless the daemon observes).
pub fn stats_line(
    gateway: &GatewayStatsSnapshot,
    report: &DecodeReport,
    metrics: &MetricsSnapshot,
) -> String {
    format!(
        "{{\"type\":\"stats\",\"gateway\":{},\"report\":{},\"metrics\":{}}}",
        gateway.to_json(),
        report.to_json(),
        metrics.to_json()
    )
}

/// The HELLO reply: the session token this connection can later RESUME
/// with, and the grace window (in milliseconds) a parked session
/// survives a disconnect.
pub fn hello_line(session: u32, grace_ms: u64) -> String {
    format!("{{\"type\":\"hello\",\"session\":{session},\"grace_ms\":{grace_ms}}}")
}

/// The RESUME reply: the re-attached session plus each parked stream's
/// state — its `next_seq` cursor (first sequence number the decoder has
/// not consumed; resend from here) and how many packets it already
/// uplinked.
pub fn resumed_line(session: u32, streams: &[(u32, u32, u64)]) -> String {
    let mut body = String::new();
    for (i, (stream, next_seq, uplinked)) in streams.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"stream\":{stream},\"next_seq\":{next_seq},\"uplinked\":{uplinked}}}"
        ));
    }
    format!("{{\"type\":\"resumed\",\"session\":{session},\"streams\":[{body}]}}")
}

/// A delivery acknowledgment: every DATA frame of `stream` with
/// `seq <= ack` has been consumed by the decoder, so the client can
/// drop those frames from its resend buffer.
pub fn ack_line(stream: u32, ack: u32) -> String {
    format!("{{\"type\":\"ack\",\"stream\":{stream},\"seq\":{ack}}}")
}

/// The PING reply, echoing the probe's nonce.
pub fn pong_line(nonce: u32) -> String {
    format!("{{\"type\":\"pong\",\"nonce\":{nonce}}}")
}

/// The admission-control reject: the daemon is at its connection cap;
/// the client should back off and retry.
pub fn busy_line(active: usize, max_conns: usize) -> String {
    format!("{{\"type\":\"busy\",\"active\":{active},\"max_conns\":{max_conns}}}")
}

/// A graceful-close notice with a stable reason
/// (`idle-timeout` / `write-timeout` / `unknown-session` / `shutdown`).
pub fn goaway_line(reason: &str) -> String {
    format!("{{\"type\":\"goaway\",\"reason\":\"{reason}\"}}")
}

/// A protocol-error line (`error` is a stable [`crate::wire::WireError`]
/// name; `detail` is the human-readable rendering).
pub fn error_line(error: &str, detail: &str) -> String {
    let clean: String = detail
        .chars()
        .map(|c| match c {
            '"' => '\'',
            '\n' | '\r' => ' ',
            c => c,
        })
        .collect();
    format!("{{\"type\":\"error\",\"error\":\"{error}\",\"detail\":\"{clean}\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnb_phy::{CodingRate, SpreadingFactor};

    #[test]
    fn base64_rfc4648_vectors() {
        assert_eq!(base64(b""), "");
        assert_eq!(base64(b"f"), "Zg==");
        assert_eq!(base64(b"fo"), "Zm8=");
        assert_eq!(base64(b"foo"), "Zm9v");
        assert_eq!(base64(b"foob"), "Zm9vYg==");
        assert_eq!(base64(b"fooba"), "Zm9vYmE=");
        assert_eq!(base64(b"foobar"), "Zm9vYmFy");
    }

    #[test]
    fn uplink_line_shape_and_sample_clock() {
        let params = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
        let pkt = DecodedPacket {
            payload: b"foobar".to_vec(),
            header: tnb_phy::header::Header {
                payload_len: 6,
                cr: CodingRate::CR4,
                has_crc: true,
            },
            start: 4000.5,
            cfo_cycles: 3.0,
            snr_db: 12.25,
            rescued_codewords: 1,
            pass: 2,
        };
        let line = uplink_line(&params, 9, 0, &pkt);
        assert!(line.starts_with("{\"type\":\"uplink\",\"stream\":9,\"n\":0,"));
        assert!(line.contains("\"tmst\":4000,"), "{line}");
        assert!(line.contains("\"datr\":\"SF8CR4\""), "{line}");
        assert!(line.contains("\"data\":\"Zm9vYmFy\""), "{line}");
        assert!(
            line.contains("\"lsnr\":12.2") || line.contains("\"lsnr\":12.3"),
            "{line}"
        );
        assert!(
            line.contains("\"outcome\":{\"status\":\"decoded\",\"start\":4000.5,\"pass\":2}"),
            "{line}"
        );
        assert!(line.contains("\"rescued\":1"), "{line}");
        // Sample clock: 1 sample = 1 µs at 1 Msps; never negative.
        assert_eq!(sample_clock_us(-3.0, &params), 0);
        assert_eq!(sample_clock_us(1_000_000.0, &params), 1_000_000);
    }

    #[test]
    fn wideband_uplink_line_carries_channel() {
        let params = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
        let pkt = DecodedPacket {
            payload: b"x".to_vec(),
            header: tnb_phy::header::Header {
                payload_len: 1,
                cr: CodingRate::CR4,
                has_crc: true,
            },
            start: 100.0,
            cfo_cycles: 0.0,
            snr_db: 10.0,
            rescued_codewords: 0,
            pass: 1,
        };
        let line = uplink_line_on_channel(&params, 2, 1, 6, &pkt);
        assert!(
            line.starts_with("{\"type\":\"uplink\",\"stream\":2,\"n\":1,\"channel\":6,"),
            "{line}"
        );
        // Narrowband lines carry no channel key.
        assert!(!uplink_line(&params, 2, 1, &pkt).contains("\"channel\""));
    }

    #[test]
    fn control_lines_have_stable_shapes() {
        assert_eq!(
            hello_line(7, 30_000),
            "{\"type\":\"hello\",\"session\":7,\"grace_ms\":30000}"
        );
        assert_eq!(
            resumed_line(7, &[(0, 12, 3), (4, 1, 0)]),
            "{\"type\":\"resumed\",\"session\":7,\"streams\":[\
             {\"stream\":0,\"next_seq\":12,\"uplinked\":3},\
             {\"stream\":4,\"next_seq\":1,\"uplinked\":0}]}"
        );
        assert_eq!(
            resumed_line(9, &[]),
            "{\"type\":\"resumed\",\"session\":9,\"streams\":[]}"
        );
        assert_eq!(
            ack_line(3, 41),
            "{\"type\":\"ack\",\"stream\":3,\"seq\":41}"
        );
        assert_eq!(pong_line(0xFFFF), "{\"type\":\"pong\",\"nonce\":65535}");
        assert_eq!(
            busy_line(8, 8),
            "{\"type\":\"busy\",\"active\":8,\"max_conns\":8}"
        );
        assert_eq!(
            goaway_line("idle-timeout"),
            "{\"type\":\"goaway\",\"reason\":\"idle-timeout\"}"
        );
    }

    #[test]
    fn error_line_escapes_quotes_and_newlines() {
        let line = error_line("crc-mismatch", "bad \"frame\"\nnext");
        assert_eq!(
            line,
            "{\"type\":\"error\",\"error\":\"crc-mismatch\",\"detail\":\"bad 'frame' next\"}"
        );
    }
}
