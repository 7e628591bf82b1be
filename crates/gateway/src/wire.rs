//! The framed binary wire protocol for IQ chunks.
//!
//! A gateway ingest link carries fixed-layout frames, little-endian
//! throughout:
//!
//! ```text
//! offset  size  field
//! 0       4     magic           "TNBG"
//! 4       1     version         1
//! 5       1     kind            0=DATA 1=END_STREAM 2=STATS 3=SHUTDOWN
//!                               4=PING 5=PONG 6=HELLO 7=RESUME
//!                               8=BUSY 9=GOAWAY
//! 6       1     flags           bit 0 = WIDEBAND (DATA only); other bits
//!                               must be 0 (reserved for extensions)
//! 7       1     reserved        must be 0
//! 8       4     stream_id       u32, groups chunks into one IQ stream
//! 12      4     seq             u32, per-stream chunk sequence number
//! 16      4     sample_count    u32, complex samples in the payload
//! 20      4n    payload         interleaved i16 I/Q pairs (DATA only)
//! 20+4n   4     crc32           IEEE CRC-32 over header + payload
//! ```
//!
//! The payload is the paper's USRP capture format (16-bit interleaved
//! I/Q at 1 Msps) quantized with the same [`IQ_SCALE`] the trace files
//! use — reusing [`tnb_channel::io`]'s serializer — so a trace streamed
//! over the wire decodes to the same bytes as the trace loaded from
//! disk. Every malformed input surfaces as a typed [`WireError`], never
//! a panic: the daemon must keep serving its other connections no
//! matter what one socket feeds it.

use std::fmt;
use std::io::{self, Read};
use tnb_channel::io::{read_iq16, write_iq16, IQ16_SCALE};
use tnb_dsp::Complex32;

/// Leading frame magic.
pub const MAGIC: [u8; 4] = *b"TNBG";

/// Current protocol version.
pub const VERSION: u8 = 1;

/// Fixed header length in bytes (before payload and CRC).
pub const HEADER_LEN: usize = 20;

/// CRC trailer length in bytes.
pub const CRC_LEN: usize = 4;

/// Upper bound on samples per frame (4 MiB of payload). A `sample_count`
/// above this is rejected as [`WireError::Oversized`] before any
/// allocation, so a garbage header cannot make the daemon reserve
/// gigabytes.
pub const MAX_FRAME_SAMPLES: usize = 1 << 20;

/// Quantization scale shared with the trace-file format.
pub const IQ_SCALE: f32 = IQ16_SCALE;

/// DATA-frame flag bit: the stream carries *wideband* IQ that the daemon
/// must split through the polyphase channelizer (8 LoRa uplink channels)
/// instead of decoding as one narrowband stream. Only legal on DATA
/// frames; the stream's mode is latched by its first DATA frame.
pub const FLAG_WIDEBAND: u8 = 0x01;

/// All flag bits the protocol knows; anything else is [`WireError::BadFlags`].
const KNOWN_FLAGS: u8 = FLAG_WIDEBAND;

/// Frame kind discriminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// An IQ chunk for `stream_id`.
    Data,
    /// End of `stream_id`: flush the stream's receiver and uplink the
    /// remaining packets.
    EndStream,
    /// Control verb: reply with a stats line (gateway counters, decode
    /// report, metrics snapshot) on this connection.
    Stats,
    /// Control verb: gracefully shut the whole daemon down (finish every
    /// in-flight stream, then stop accepting).
    Shutdown,
    /// Keepalive probe: `seq` carries an opaque nonce the peer echoes
    /// back. Any frame (PING included) resets the receiver's idle
    /// deadline.
    Ping,
    /// Keepalive reply: `seq` echoes the PING nonce. On a live daemon
    /// link the reply travels as a `pong` JSON line (the server→client
    /// channel is line-oriented); the frame kind exists so symmetric /
    /// frame-to-frame deployments and the chaos harness can speak it.
    Pong,
    /// Session open: asks the daemon to allocate a resumable session
    /// for this connection. The daemon answers with a `hello` JSON line
    /// carrying the session token.
    Hello,
    /// Session resume after a reconnect: `stream_id` carries the session
    /// token from the original `hello` line. The daemon re-attaches the
    /// parked per-stream receiver state and answers with a `resumed`
    /// JSON line listing each stream's `next_seq` cursor, so the client
    /// knows where to resend from.
    Resume,
    /// Admission-control reject: the peer is at capacity and this
    /// connection will be closed (daemon side: a `busy` JSON line).
    /// Back off and retry.
    Busy,
    /// Graceful connection close: the sender is done with this
    /// connection and its session state should be *finished* (flushed +
    /// reported), not parked for resume.
    GoAway,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Data => 0,
            FrameKind::EndStream => 1,
            FrameKind::Stats => 2,
            FrameKind::Shutdown => 3,
            FrameKind::Ping => 4,
            FrameKind::Pong => 5,
            FrameKind::Hello => 6,
            FrameKind::Resume => 7,
            FrameKind::Busy => 8,
            FrameKind::GoAway => 9,
        }
    }

    fn from_byte(b: u8) -> Option<FrameKind> {
        match b {
            0 => Some(FrameKind::Data),
            1 => Some(FrameKind::EndStream),
            2 => Some(FrameKind::Stats),
            3 => Some(FrameKind::Shutdown),
            4 => Some(FrameKind::Ping),
            5 => Some(FrameKind::Pong),
            6 => Some(FrameKind::Hello),
            7 => Some(FrameKind::Resume),
            8 => Some(FrameKind::Busy),
            9 => Some(FrameKind::GoAway),
            _ => None,
        }
    }
}

/// One parsed frame. Control frames carry no samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    pub kind: FrameKind,
    /// Flag bits (see [`FLAG_WIDEBAND`]); zero on control frames.
    pub flags: u8,
    pub stream_id: u32,
    pub seq: u32,
    pub samples: Vec<Complex32>,
}

impl Frame {
    /// A DATA frame carrying one narrowband IQ chunk.
    pub fn data(stream_id: u32, seq: u32, samples: Vec<Complex32>) -> Frame {
        Frame {
            kind: FrameKind::Data,
            flags: 0,
            stream_id,
            seq,
            samples,
        }
    }

    /// A DATA frame carrying one *wideband* IQ chunk (see
    /// [`FLAG_WIDEBAND`]).
    pub fn data_wideband(stream_id: u32, seq: u32, samples: Vec<Complex32>) -> Frame {
        Frame {
            flags: FLAG_WIDEBAND,
            ..Frame::data(stream_id, seq, samples)
        }
    }

    /// An END_STREAM frame for `stream_id`.
    pub fn end_stream(stream_id: u32, seq: u32) -> Frame {
        Frame {
            kind: FrameKind::EndStream,
            flags: 0,
            stream_id,
            seq,
            samples: Vec::new(),
        }
    }

    /// A STATS control frame.
    pub fn stats() -> Frame {
        Frame {
            kind: FrameKind::Stats,
            flags: 0,
            stream_id: 0,
            seq: 0,
            samples: Vec::new(),
        }
    }

    /// A SHUTDOWN control frame.
    pub fn shutdown() -> Frame {
        Frame {
            kind: FrameKind::Shutdown,
            flags: 0,
            stream_id: 0,
            seq: 0,
            samples: Vec::new(),
        }
    }

    /// A control frame with no payload and no flags.
    fn control(kind: FrameKind, stream_id: u32, seq: u32) -> Frame {
        Frame {
            kind,
            flags: 0,
            stream_id,
            seq,
            samples: Vec::new(),
        }
    }

    /// A PING keepalive probe carrying `nonce` in the seq field.
    pub fn ping(nonce: u32) -> Frame {
        Frame::control(FrameKind::Ping, 0, nonce)
    }

    /// A HELLO session-open request.
    pub fn hello() -> Frame {
        Frame::control(FrameKind::Hello, 0, 0)
    }

    /// A RESUME request for the session identified by `token`. The seq
    /// field carries `delivered` — how many session lines (uplink /
    /// end / ack / stats / error) the client has already received — so
    /// the daemon can replay exactly the lines lost with the dead
    /// connection and nothing else.
    pub fn resume(token: u32, delivered: u32) -> Frame {
        Frame::control(FrameKind::Resume, token, delivered)
    }

    /// The delivered-lines count a RESUME frame carries.
    pub fn delivered(&self) -> u32 {
        self.seq
    }

    /// A BUSY admission-control reject.
    pub fn busy() -> Frame {
        Frame::control(FrameKind::Busy, 0, 0)
    }

    /// A GOAWAY graceful-close notice.
    pub fn goaway() -> Frame {
        Frame::control(FrameKind::GoAway, 0, 0)
    }

    /// The session token a RESUME frame carries.
    pub fn session_token(&self) -> u32 {
        self.stream_id
    }

    /// The nonce a PING/PONG frame carries.
    pub fn nonce(&self) -> u32 {
        self.seq
    }

    /// Whether this DATA frame carries wideband IQ.
    pub fn is_wideband(&self) -> bool {
        self.flags & FLAG_WIDEBAND != 0
    }
}

/// Typed decode/transport error. Every variant has a stable short name
/// used by the protocol-error counters and the JSON error lines.
#[derive(Debug)]
pub enum WireError {
    /// Underlying socket/file error.
    Io(io::Error),
    /// The stream ended cleanly between frames.
    Eof,
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unknown protocol version.
    BadVersion(u8),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// Nonzero flags/reserved bytes (reserved for future extensions).
    BadFlags { flags: u8, reserved: u8 },
    /// A control frame declared a payload.
    ControlWithPayload { kind: FrameKind, samples: u32 },
    /// `sample_count` exceeds [`MAX_FRAME_SAMPLES`].
    Oversized { samples: u32 },
    /// The input ended mid-frame.
    Truncated { expected: usize, got: usize },
    /// The CRC-32 trailer does not match the header + payload.
    CrcMismatch { expected: u32, got: u32 },
}

impl WireError {
    /// Stable short name (counter label / JSON `error` field).
    pub fn name(&self) -> &'static str {
        match self {
            WireError::Io(_) => "io",
            WireError::Eof => "eof",
            WireError::BadMagic(_) => "bad-magic",
            WireError::BadVersion(_) => "bad-version",
            WireError::BadKind(_) => "bad-kind",
            WireError::BadFlags { .. } => "bad-flags",
            WireError::ControlWithPayload { .. } => "control-with-payload",
            WireError::Oversized { .. } => "oversized",
            WireError::Truncated { .. } => "truncated",
            WireError::CrcMismatch { .. } => "crc-mismatch",
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Eof => write!(f, "stream closed"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::BadFlags { flags, reserved } => {
                write!(f, "nonzero flags/reserved bytes ({flags:#x}/{reserved:#x})")
            }
            WireError::ControlWithPayload { kind, samples } => {
                write!(f, "{kind:?} frame declares {samples} payload samples")
            }
            WireError::Oversized { samples } => write!(
                f,
                "frame declares {samples} samples (max {MAX_FRAME_SAMPLES})"
            ),
            WireError::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} bytes, got {got}")
            }
            WireError::CrcMismatch { expected, got } => {
                write!(
                    f,
                    "crc mismatch: computed {expected:#010x}, frame carries {got:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// IEEE CRC-32 lookup table (polynomial 0xEDB88320), built at compile
/// time so the hot ingest path is a byte-per-iteration table walk.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Round-trips samples through the wire quantization (f32 → i16 → f32),
/// returning exactly what a receiver on the far end of the link would
/// see. Used by loopback tests to build the byte-identical reference
/// decode.
pub fn quantize(samples: &[Complex32]) -> Vec<Complex32> {
    let mut bytes = Vec::with_capacity(samples.len() * 4);
    // Writing into a Vec cannot fail.
    let _ = write_iq16(&mut bytes, samples, IQ_SCALE);
    read_iq16(&bytes[..], IQ_SCALE).unwrap_or_default()
}

/// Encodes a frame to bytes (header + payload + CRC trailer).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let n = frame.samples.len();
    let mut out = Vec::with_capacity(HEADER_LEN + 4 * n + CRC_LEN);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(frame.kind.to_byte());
    out.push(frame.flags);
    out.push(0); // reserved
    out.extend_from_slice(&frame.stream_id.to_le_bytes());
    out.extend_from_slice(&frame.seq.to_le_bytes());
    out.extend_from_slice(&(n as u32).to_le_bytes());
    // Payload: the trace-file serializer, writing into the frame buffer.
    let _ = write_iq16(&mut out, &frame.samples, IQ_SCALE);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Little-endian u32 at `off` (caller guarantees bounds via `get`).
fn read_u32(bytes: &[u8], off: usize) -> u32 {
    match bytes.get(off..off + 4) {
        Some(b) => u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
        None => 0,
    }
}

/// Attempts to decode one frame from the start of `bytes`.
///
/// - `Ok(Some((frame, consumed)))` — a whole frame was parsed.
/// - `Ok(None)` — `bytes` is a valid prefix; more bytes are needed.
/// - `Err(_)` — the prefix can never become a valid frame.
pub fn decode_frame(bytes: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
    // Header fields are validated as soon as they are present, so garbage
    // is rejected without waiting for a (possibly absurd) payload length.
    let have = bytes.len();
    if have >= 4 {
        let magic = [bytes[0], bytes[1], bytes[2], bytes[3]];
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
    }
    if have >= 5 && bytes[4] != VERSION {
        return Err(WireError::BadVersion(bytes[4]));
    }
    let kind = if have >= 6 {
        match FrameKind::from_byte(bytes[5]) {
            Some(k) => Some(k),
            None => return Err(WireError::BadKind(bytes[5])),
        }
    } else {
        None
    };
    if have >= 8 {
        let flags = bytes[6];
        // Unknown flag bits are always rejected; the known WIDEBAND bit
        // is only meaningful on DATA frames. `kind` is Some here (it
        // parses at 6 bytes, and we have 8).
        let allowed = match kind {
            Some(FrameKind::Data) => KNOWN_FLAGS,
            _ => 0,
        };
        if flags & !allowed != 0 || bytes[7] != 0 {
            return Err(WireError::BadFlags {
                flags,
                reserved: bytes[7],
            });
        }
    }
    if have < HEADER_LEN {
        return Ok(None);
    }
    let stream_id = read_u32(bytes, 8);
    let seq = read_u32(bytes, 12);
    let sample_count = read_u32(bytes, 16);
    if sample_count as usize > MAX_FRAME_SAMPLES {
        return Err(WireError::Oversized {
            samples: sample_count,
        });
    }
    let kind = match kind {
        Some(k) => k,
        None => return Ok(None), // unreachable: have >= HEADER_LEN >= 6
    };
    if kind != FrameKind::Data && sample_count != 0 {
        return Err(WireError::ControlWithPayload {
            kind,
            samples: sample_count,
        });
    }
    let payload_len = 4 * sample_count as usize;
    let total = HEADER_LEN + payload_len + CRC_LEN;
    if have < total {
        return Ok(None);
    }
    let body = match bytes.get(..HEADER_LEN + payload_len) {
        Some(b) => b,
        None => return Ok(None),
    };
    let expected = crc32(body);
    let got = read_u32(bytes, HEADER_LEN + payload_len);
    if expected != got {
        return Err(WireError::CrcMismatch { expected, got });
    }
    let payload = body.get(HEADER_LEN..).unwrap_or(&[]);
    let samples = read_iq16(payload, IQ_SCALE).unwrap_or_default();
    Ok(Some((
        Frame {
            kind,
            flags: bytes[6],
            stream_id,
            seq,
            samples,
        },
        total,
    )))
}

/// Decodes one frame from a complete byte slice, requiring the slice to
/// contain exactly the frame (test/fuzz entry point). A short slice is
/// [`WireError::Truncated`].
pub fn decode_frame_exact(bytes: &[u8]) -> Result<Frame, WireError> {
    match decode_frame(bytes)? {
        Some((frame, consumed)) if consumed == bytes.len() => Ok(frame),
        Some((_, consumed)) => Err(WireError::Truncated {
            expected: consumed,
            got: bytes.len(),
        }),
        None => {
            // The prefix is valid but incomplete: report the total the
            // header promises (or the header itself when even that is
            // short).
            let expected = if bytes.len() >= HEADER_LEN {
                HEADER_LEN + 4 * read_u32(bytes, 16) as usize + CRC_LEN
            } else {
                HEADER_LEN
            };
            Err(WireError::Truncated {
                expected,
                got: bytes.len(),
            })
        }
    }
}

/// Incremental frame reader over any `Read` (a `TcpStream` in the
/// daemon). Keeps partial bytes across reads, so socket read timeouts
/// between chunks never lose framing.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

/// Outcome of one [`FrameReader::poll`] call.
#[derive(Debug)]
pub enum ReadStep {
    /// A whole frame was parsed.
    Frame(Frame),
    /// No complete frame yet; call again after more bytes arrive.
    Pending,
    /// The peer closed the stream cleanly (no partial frame buffered).
    Eof,
}

impl FrameReader {
    /// A fresh reader with no buffered bytes.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Reads from `r` at most once and tries to parse one frame.
    ///
    /// A read error with kind `WouldBlock`/`TimedOut`/`Interrupted` is
    /// reported as [`ReadStep::Pending`] so a caller with a socket read
    /// timeout can check its shutdown flag between polls; any other
    /// error, malformed bytes, or a mid-frame EOF is a typed
    /// [`WireError`].
    pub fn poll<R: Read>(&mut self, r: &mut R) -> Result<ReadStep, WireError> {
        if let Some((frame, consumed)) = decode_frame(&self.buf)? {
            self.buf.drain(..consumed);
            return Ok(ReadStep::Frame(frame));
        }
        let mut chunk = [0u8; 16 * 1024];
        match r.read(&mut chunk) {
            Ok(0) => {
                if self.buf.is_empty() {
                    Ok(ReadStep::Eof)
                } else {
                    Err(WireError::Truncated {
                        expected: HEADER_LEN.max(self.buf.len() + 1),
                        got: self.buf.len(),
                    })
                }
            }
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n.min(chunk.len())]);
                if let Some((frame, consumed)) = decode_frame(&self.buf)? {
                    self.buf.drain(..consumed);
                    Ok(ReadStep::Frame(frame))
                } else {
                    Ok(ReadStep::Pending)
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                Ok(ReadStep::Pending)
            }
            Err(e) => Err(WireError::Io(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Vec<Complex32> {
        (0..n)
            .map(|i| Complex32::new((i as f32 * 0.1).sin(), (i as f32 * 0.07).cos()))
            .collect()
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn data_frame_roundtrip() {
        let s = samples(100);
        let f = Frame::data(7, 42, s.clone());
        let bytes = encode_frame(&f);
        assert_eq!(bytes.len(), HEADER_LEN + 400 + CRC_LEN);
        let back = decode_frame_exact(&bytes).unwrap();
        assert_eq!(back.kind, FrameKind::Data);
        assert_eq!(back.stream_id, 7);
        assert_eq!(back.seq, 42);
        assert_eq!(back.samples, quantize(&s));
    }

    #[test]
    fn wideband_data_frame_roundtrip() {
        let s = samples(16);
        let f = Frame::data_wideband(3, 5, s.clone());
        assert!(f.is_wideband());
        let back = decode_frame_exact(&encode_frame(&f)).unwrap();
        assert!(back.is_wideband());
        assert_eq!(back.flags, FLAG_WIDEBAND);
        assert_eq!(back.samples, quantize(&s));
        // The narrowband constructor stays flag-free.
        assert!(!Frame::data(3, 5, s).is_wideband());
    }

    #[test]
    fn control_frames_roundtrip() {
        for f in [
            Frame::end_stream(3, 9),
            Frame::stats(),
            Frame::shutdown(),
            Frame::ping(0xDEAD_BEEF),
            Frame::control(FrameKind::Pong, 0, 0xDEAD_BEEF),
            Frame::hello(),
            Frame::resume(0x1234_5678, 0xCAFE_F00D),
            Frame::busy(),
            Frame::goaway(),
        ] {
            let bytes = encode_frame(&f);
            assert_eq!(bytes.len(), HEADER_LEN + CRC_LEN);
            assert_eq!(decode_frame_exact(&bytes).unwrap(), f);
        }
        assert_eq!(Frame::ping(7).nonce(), 7);
        assert_eq!(Frame::control(FrameKind::Pong, 0, 7).nonce(), 7);
        assert_eq!(Frame::resume(42, 17).session_token(), 42);
        assert_eq!(Frame::resume(42, 17).delivered(), 17);
    }

    #[test]
    fn resilience_verbs_reject_payload_and_flags() {
        // Every new control verb refuses a payload…
        for f in [
            Frame::ping(1),
            Frame::control(FrameKind::Pong, 0, 1),
            Frame::hello(),
            Frame::resume(9, 0),
            Frame::busy(),
            Frame::goaway(),
        ] {
            let mut bad = encode_frame(&f);
            bad[16] = 2; // declare 2 payload samples
            assert!(
                matches!(
                    decode_frame_exact(&bad),
                    Err(WireError::ControlWithPayload { .. })
                ),
                "{:?}",
                f.kind
            );
            // …and the WIDEBAND flag (DATA-only).
            let mut bad = encode_frame(&f);
            bad[6] = FLAG_WIDEBAND;
            assert!(
                matches!(decode_frame_exact(&bad), Err(WireError::BadFlags { .. })),
                "{:?}",
                f.kind
            );
        }
    }

    #[test]
    fn typed_errors_for_each_malformation() {
        let good = encode_frame(&Frame::data(1, 0, samples(8)));

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_frame_exact(&bad),
            Err(WireError::BadMagic(_))
        ));

        let mut bad = good.clone();
        bad[4] = 99;
        assert!(matches!(
            decode_frame_exact(&bad),
            Err(WireError::BadVersion(99))
        ));

        let mut bad = good.clone();
        bad[5] = 200;
        assert!(matches!(
            decode_frame_exact(&bad),
            Err(WireError::BadKind(200))
        ));

        // Unknown flag bit on a DATA frame.
        let mut bad = good.clone();
        bad[6] = 0x80;
        assert!(matches!(
            decode_frame_exact(&bad),
            Err(WireError::BadFlags { .. })
        ));

        // The WIDEBAND bit is DATA-only: rejected on control frames.
        let mut bad = encode_frame(&Frame::stats());
        bad[6] = FLAG_WIDEBAND;
        assert!(matches!(
            decode_frame_exact(&bad),
            Err(WireError::BadFlags { .. })
        ));

        // Nonzero reserved byte.
        let mut bad = good.clone();
        bad[7] = 1;
        assert!(matches!(
            decode_frame_exact(&bad),
            Err(WireError::BadFlags { .. })
        ));

        // Oversized sample count: rejected straight from the header.
        let mut bad = good.clone();
        bad[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame_exact(&bad),
            Err(WireError::Oversized { .. })
        ));

        // Control frame with a payload.
        let mut bad = encode_frame(&Frame::stats());
        bad[16] = 4;
        assert!(matches!(
            decode_frame_exact(&bad),
            Err(WireError::ControlWithPayload { .. })
        ));

        // Flipped payload byte: CRC mismatch.
        let mut bad = good.clone();
        bad[HEADER_LEN + 3] ^= 0xFF;
        assert!(matches!(
            decode_frame_exact(&bad),
            Err(WireError::CrcMismatch { .. })
        ));

        // Truncation at every prefix length is Pending or a typed error.
        for cut in 0..good.len() {
            match decode_frame(&good[..cut]) {
                Ok(None) | Err(_) => {}
                Ok(Some(_)) => panic!("prefix of {cut} bytes decoded a whole frame"),
            }
            assert!(decode_frame_exact(&good[..cut]).is_err());
        }
    }

    #[test]
    fn frame_reader_reassembles_split_frames() {
        let f1 = Frame::data(1, 0, samples(33));
        let f2 = Frame::end_stream(1, 1);
        let mut bytes = encode_frame(&f1);
        bytes.extend_from_slice(&encode_frame(&f2));
        // Feed the stream 7 bytes at a time.
        struct Trickle<'a>(&'a [u8], usize);
        impl Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let n = 7.min(self.0.len() - self.1).min(buf.len());
                buf[..n].copy_from_slice(&self.0[self.1..self.1 + n]);
                self.1 += n;
                Ok(n)
            }
        }
        let mut r = Trickle(&bytes, 0);
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        loop {
            match reader.poll(&mut r).unwrap() {
                ReadStep::Frame(f) => frames.push(f),
                ReadStep::Pending => {}
                ReadStep::Eof => break,
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].samples.len(), 33);
        assert_eq!(frames[1], f2);
    }

    #[test]
    fn frame_reader_mid_frame_eof_is_truncated() {
        let bytes = encode_frame(&Frame::data(1, 0, samples(16)));
        let cut = &bytes[..bytes.len() - 2];
        let mut reader = FrameReader::new();
        let mut r = io::Cursor::new(cut);
        let err = loop {
            match reader.poll(&mut r) {
                Ok(ReadStep::Frame(_)) => panic!("truncated frame decoded"),
                Ok(ReadStep::Pending) => {}
                Ok(ReadStep::Eof) => panic!("mid-frame eof reported as clean"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, WireError::Truncated { .. }), "{err}");
    }

    #[test]
    fn quantize_is_idempotent() {
        let s = samples(64);
        let q = quantize(&s);
        assert_eq!(q, quantize(&q));
        assert_eq!(q.len(), s.len());
    }

    #[test]
    fn nan_inf_samples_encode_without_panicking() {
        let hostile = vec![
            Complex32::new(f32::NAN, 1.0),
            Complex32::new(f32::INFINITY, f32::NEG_INFINITY),
            Complex32::new(0.5, f32::NAN),
        ];
        let f = Frame::data(0, 0, hostile);
        let back = decode_frame_exact(&encode_frame(&f)).unwrap();
        assert_eq!(back.samples.len(), 3);
        for s in &back.samples {
            assert!(s.re.is_finite() && s.im.is_finite(), "{s:?}");
        }
    }
}
