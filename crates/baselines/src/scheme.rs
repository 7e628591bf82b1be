//! The common scheme interface and the shared baseline driver.
//!
//! CIC and AlignTrack* are *peak assignment* algorithms: they pick one
//! peak (symbol value) per symbol of each detected packet. Everything
//! around that — detection, header decode, payload decode — is shared, so
//! the driver here handles it, parameterised by a [`SymbolAssigner`].
//! Detection always uses TnB's detector: the paper does the same ("the
//! packet detection algorithm in TnB … also lends the benefit of the
//! fractional CFO information to AlignTrack").
//!
//! Each assigner can be decoded with the default Hamming decoder or with
//! BEC — the paper's `CIC+` and `AlignTrack*+` variants.

use tnb_core::bec;
use tnb_core::detect::Detector;
use tnb_core::packet::{DecodedPacket, DetectedPacket};
use tnb_core::receiver::{TnbConfig, TnbReceiver};
use tnb_core::sigcalc::{snr_from_peak_db, SigCalc};
use tnb_core::thrive::ThriveConfig;
use tnb_core::{DecodeReport, PipelineMetrics, StageCounters};
use tnb_dsp::{Complex32, DspScratch};
use tnb_phy::decoder as phy_decoder;
use tnb_phy::header::Header;
use tnb_phy::params::LoRaParams;

/// A collision-resolution scheme: decodes a (multi-antenna) trace into
/// packets.
pub trait Scheme {
    /// Short name for tables/plots.
    fn name(&self) -> &'static str;
    /// Decodes the trace.
    fn decode(&self, antennas: &[&[Complex32]]) -> Vec<DecodedPacket>;

    /// Decodes the trace with up to `workers` threads while recording
    /// pipeline observability into `metrics`. TnB-family schemes run
    /// their instrumented pipeline (same output for any worker count) and
    /// return the per-trace [`DecodeReport`]; the default (baselines
    /// without an instrumented pipeline) ignores both knobs, decodes
    /// normally, records nothing, and returns `None`.
    fn decode_observed(
        &self,
        antennas: &[&[Complex32]],
        workers: usize,
        metrics: &PipelineMetrics,
    ) -> (Vec<DecodedPacket>, Option<DecodeReport>) {
        let _ = (workers, metrics);
        (self.decode(antennas), None)
    }
}

/// Every scheme evaluated in the paper, constructible by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    /// Full TnB (Thrive + BEC, two passes).
    Tnb,
    /// TnB with the SIC rescue pass (reconstruct-and-subtract decoded
    /// packets, re-decode the residual); an extension beyond the paper.
    TnbSic,
    /// TnB without BEC (paper Fig. 15 "Thrive").
    Thrive,
    /// Thrive without the history cost (paper Fig. 15 "Sibling").
    Sibling,
    /// Standard LoRa decoder (strongest peak, default Hamming decoder).
    LoRaPhy,
    /// Concurrent Interference Cancellation.
    Cic,
    /// CIC decoded with BEC (paper Fig. 19 "CIC+").
    CicBec,
    /// AlignTrack* (peak-assignment core of AlignTrack).
    AlignTrack,
    /// AlignTrack* decoded with BEC (paper Fig. 19 "AlignTrack*+").
    AlignTrackBec,
}

impl SchemeKind {
    /// All schemes.
    pub const ALL: [SchemeKind; 9] = [
        SchemeKind::Tnb,
        SchemeKind::TnbSic,
        SchemeKind::Thrive,
        SchemeKind::Sibling,
        SchemeKind::LoRaPhy,
        SchemeKind::Cic,
        SchemeKind::CicBec,
        SchemeKind::AlignTrack,
        SchemeKind::AlignTrackBec,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Tnb => "TnB",
            SchemeKind::TnbSic => "TnB+SIC",
            SchemeKind::Thrive => "Thrive",
            SchemeKind::Sibling => "Sibling",
            SchemeKind::LoRaPhy => "LoRaPHY",
            SchemeKind::Cic => "CIC",
            SchemeKind::CicBec => "CIC+",
            SchemeKind::AlignTrack => "AlignTrack*",
            SchemeKind::AlignTrackBec => "AlignTrack*+",
        }
    }

    /// Builds the scheme for a parameter set.
    pub fn build(self, params: LoRaParams) -> Box<dyn Scheme> {
        match self {
            SchemeKind::Tnb => Box::new(TnbScheme::new(params, TnbConfig::default(), "TnB")),
            SchemeKind::TnbSic => Box::new(TnbScheme::new(
                params,
                TnbConfig {
                    sic: tnb_core::SicConfig { enabled: true },
                    ..TnbConfig::default()
                },
                "TnB+SIC",
            )),
            SchemeKind::Thrive => Box::new(TnbScheme::new(
                params,
                TnbConfig {
                    use_bec: false,
                    ..TnbConfig::default()
                },
                "Thrive",
            )),
            SchemeKind::Sibling => Box::new(TnbScheme::new(
                params,
                TnbConfig {
                    use_bec: false,
                    thrive: ThriveConfig {
                        use_history: false,
                        ..ThriveConfig::default()
                    },
                    ..TnbConfig::default()
                },
                "Sibling",
            )),
            SchemeKind::LoRaPhy => Box::new(crate::lora_phy::LoRaPhyScheme::new(params)),
            SchemeKind::Cic => Box::new(crate::cic::CicScheme::new(params, false)),
            SchemeKind::CicBec => Box::new(crate::cic::CicScheme::new(params, true)),
            SchemeKind::AlignTrack => {
                Box::new(crate::aligntrack::AlignTrackScheme::new(params, false))
            }
            SchemeKind::AlignTrackBec => {
                Box::new(crate::aligntrack::AlignTrackScheme::new(params, true))
            }
        }
    }
}

/// TnB-family schemes wrap the receiver directly.
struct TnbScheme {
    params: LoRaParams,
    cfg: TnbConfig,
    name: &'static str,
}

impl TnbScheme {
    fn new(params: LoRaParams, cfg: TnbConfig, name: &'static str) -> Self {
        TnbScheme { params, cfg, name }
    }
}

impl Scheme for TnbScheme {
    fn name(&self) -> &'static str {
        self.name
    }
    fn decode(&self, antennas: &[&[Complex32]]) -> Vec<DecodedPacket> {
        self.decode_observed(antennas, 1, &PipelineMetrics::disabled())
            .0
    }
    fn decode_observed(
        &self,
        antennas: &[&[Complex32]],
        workers: usize,
        metrics: &PipelineMetrics,
    ) -> (Vec<DecodedPacket>, Option<DecodeReport>) {
        let (decoded, report) = TnbReceiver::with_config(self.params, self.cfg)
            .with_workers(workers)
            .decode_multi_report_observed(antennas, metrics);
        (decoded, Some(report))
    }
}

/// Chooses one symbol value per (packet, symbol) for a baseline scheme.
pub trait SymbolAssigner {
    /// Returns the assigned bin (symbol value) and its peak height for
    /// data symbol `j` of packet `pkt`, or `None` if the window is
    /// unavailable. `extents[q] = (data_start, end_sample)` describes when
    /// each detected packet transmits data (used to find interferers).
    // The assigner sees the full multi-packet picture by design; bundling
    // the arguments would just move the width into a one-off struct.
    #[allow(clippy::too_many_arguments)]
    fn assign(
        &self,
        sig: &mut SigCalc<'_>,
        antennas: &[&[Complex32]],
        packets: &[DetectedPacket],
        extents: &[(i64, i64)],
        pkt: usize,
        j: isize,
    ) -> Option<(u16, f32)>;
}

/// The shared baseline pipeline: detect → assign header symbols → decode
/// header → assign payload symbols → decode payload (default or BEC).
pub(crate) fn drive_baseline<A: SymbolAssigner>(
    params: LoRaParams,
    use_bec: bool,
    assigner: &A,
    antennas: &[&[Complex32]],
) -> Vec<DecodedPacket> {
    assert!(!antennas.is_empty());
    let mut scratch = DspScratch::new();
    let detector = Detector::new(params);
    let detected = detector.detect(
        antennas[0],
        1,
        &mut scratch,
        &PipelineMetrics::disabled(),
        &mut StageCounters::default(),
    );
    let demod = detector.demodulator();
    let mut sig = SigCalc::new(demod, antennas, &mut scratch, None);
    let l = params.samples_per_symbol() as i64;

    // Provisional extents: headers + a typical 16-byte payload. Replaced
    // by exact extents once each header is decoded.
    let provisional_symbols = tnb_phy::block::data_symbol_count(16, &params) as i64;
    let mut extents: Vec<(i64, i64)> = detected
        .iter()
        .map(|d| {
            let ds = (d.start + params.preamble_symbols() * l as f64).round() as i64;
            (ds, ds + provisional_symbols * l)
        })
        .collect();

    // Pass A: headers. Per packet: (header, candidate header-block extra
    // nibbles, codewords BEC rescued in the header).
    type DecodedHeader = (Header, Vec<Vec<u8>>, usize);
    let mut headers: Vec<Option<DecodedHeader>> = Vec::new();
    for (i, _) in detected.iter().enumerate() {
        let mut syms: Vec<u16> = Vec::with_capacity(LoRaParams::HEADER_SYMBOLS);
        for j in 0..LoRaParams::HEADER_SYMBOLS as isize {
            match assigner.assign(&mut sig, antennas, &detected, &extents, i, j) {
                Some((v, _)) => syms.push(v),
                None => break,
            }
        }
        let decoded = if syms.len() < LoRaParams::HEADER_SYMBOLS {
            None
        } else if use_bec {
            bec::decode_header_with_bec(&syms, &params)
                .map(|(h, extras, stats)| (h, extras, stats.rescued_codewords))
        } else {
            phy_decoder::decode_header(&syms, &params)
                .ok()
                .map(|dh| (dh.header, vec![dh.extra_nibbles], 0))
        };
        if let Some((h, _, _)) = &decoded {
            let mut p = params;
            p.cr = h.cr;
            let n = tnb_phy::block::data_symbol_count(h.payload_len as usize, &p) as i64;
            extents[i].1 = extents[i].0 + n * l;
        }
        headers.push(decoded);
    }

    // Pass B: payloads.
    let mut out = Vec::new();
    for (i, det) in detected.iter().enumerate() {
        let Some((header, extras, mut rescued)) = headers[i].clone() else {
            continue;
        };
        let mut p = params;
        p.cr = header.cr;
        let n_symbols = tnb_phy::block::data_symbol_count(header.payload_len as usize, &p);
        let mut syms: Vec<u16> = Vec::new();
        for j in LoRaParams::HEADER_SYMBOLS as isize..n_symbols as isize {
            match assigner.assign(&mut sig, antennas, &detected, &extents, i, j) {
                Some((v, _)) => syms.push(v),
                None => break,
            }
        }
        if syms.len() + LoRaParams::HEADER_SYMBOLS < n_symbols {
            continue;
        }
        let payload = if use_bec {
            match bec::decode_payload_with_bec(&syms, &header, &extras, &params, None, None) {
                Ok(d) => {
                    rescued += d.stats.rescued_codewords;
                    Some(d.payload)
                }
                Err(_) => None,
            }
        } else {
            let mut nibbles = extras.first().cloned().unwrap_or_default();
            for rows in phy_decoder::received_payload_blocks(&syms, &p) {
                nibbles.extend(phy_decoder::default_decode_rows(&rows, p.cr));
            }
            phy_decoder::assemble_payload(&nibbles, header.payload_len as usize).ok()
        };
        if let Some(payload) = payload {
            let snr_db = snr_from_peak_db(det.preamble_peak, params.samples_per_symbol(), 1.0);
            out.push(DecodedPacket {
                payload,
                header,
                start: det.start,
                cfo_cycles: det.cfo_cycles,
                snr_db,
                rescued_codewords: rescued,
                pass: 1,
            });
        }
    }
    out
}

/// Packets (other than `me`) whose data transmission overlaps the window
/// `[w, w + L)`, including their preamble region (a preamble interferes
/// too). Returns their indices.
pub(crate) fn interferers(
    packets: &[DetectedPacket],
    extents: &[(i64, i64)],
    params: &LoRaParams,
    me: usize,
    w: i64,
) -> Vec<usize> {
    let l = params.samples_per_symbol() as i64;
    packets
        .iter()
        .enumerate()
        .filter(|&(q, d)| {
            if q == me {
                return false;
            }
            let begin = d.start.round() as i64;
            let end = extents[q].1;
            begin < w + l && end > w
        })
        .map(|(q, _)| q)
        .collect()
}
