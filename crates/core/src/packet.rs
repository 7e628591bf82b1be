//! Packet types shared across the TnB pipeline.

use tnb_phy::header::Header;

/// A packet found by the detection/synchronization stages: its timing and
/// CFO, before any data symbols have been demodulated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectedPacket {
    /// Start of the first preamble upchirp, in receiver samples
    /// (fractional: integer placement plus the estimated fractional timing
    /// offset).
    pub start: f64,
    /// Estimated carrier frequency offset in cycles per symbol (one cycle
    /// per symbol = one FFT bin = `BW/2^SF` Hz), integer plus fractional
    /// part. This is the value the signal-calculation stage removes.
    pub cfo_cycles: f64,
    /// Peak height observed in the preamble (bootstraps Thrive's history
    /// model and SNR estimation).
    pub preamble_peak: f32,
}

impl DetectedPacket {
    /// CFO in Hz for a given bin spacing (`params.bin_hz()`).
    pub fn cfo_hz(&self, bin_hz: f64) -> f64 {
        self.cfo_cycles * bin_hz
    }
}

/// True when two detections describe the same transmission: starts within
/// a quarter symbol *and* CFOs within 1.5 bins. This single predicate is
/// shared by the detector's deduplication within and across antennas,
/// the SIC rescue's member filter and the streaming frontend's overlap
/// deduplication, so a packet can never be double-emitted by one layer
/// using a looser window than another.
pub fn same_transmission(
    start_a: f64,
    cfo_a: f64,
    start_b: f64,
    cfo_b: f64,
    samples_per_symbol: f64,
) -> bool {
    (start_a - start_b).abs() < samples_per_symbol / 4.0 && (cfo_a - cfo_b).abs() < 1.5
}

/// A successfully decoded packet.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedPacket {
    /// CRC-validated payload bytes.
    pub payload: Vec<u8>,
    /// Parsed PHY header.
    pub header: Header,
    /// Start of the packet (first preamble sample) in the trace.
    pub start: f64,
    /// Estimated CFO in cycles per symbol.
    pub cfo_cycles: f64,
    /// Estimated SNR in dB (from preamble peak height vs noise floor).
    pub snr_db: f32,
    /// Codewords rescued by BEC (0 when the default decoder would have
    /// decoded the same packet) — the paper's Fig. 16 metric.
    pub rescued_codewords: usize,
    /// Which decode pass succeeded: 1, 2 (paper §4: failed packets are
    /// re-examined with known peaks masked), or 3 (SIC rescue: decoded on
    /// the residual after subtracting reconstructed packets).
    pub pass: u8,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfo_hz_conversion() {
        let d = DetectedPacket {
            start: 0.0,
            cfo_cycles: 3.5,
            preamble_peak: 1.0,
        };
        assert!((d.cfo_hz(488.28125) - 3.5 * 488.28125).abs() < 1e-9);
    }
}
