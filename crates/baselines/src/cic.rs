//! CIC — Concurrent Interference Cancellation (SIGCOMM'21), the paper's
//! main comparison scheme.
//!
//! Core mechanism (re-implemented per DESIGN.md): to demodulate one
//! symbol of the target packet, the symbol window is cut into
//! *sub-windows* at the symbol boundaries of every interfering packet.
//! The target's de-chirped tone is present in **every** sub-window
//! (alias folding maps both sides of its cyclic wrap to the same bin),
//! while an interferer's tone changes bins across its own boundary.
//! Candidate peaks therefore come from the full window (keeping its
//! processing gain); each candidate is scored by its *worst* normalised
//! height across the sub-windows, peaks failing the intersection are
//! dropped, and the strongest survivor wins.

use crate::scheme::{drive_baseline, interferers, Scheme, SymbolAssigner};
use tnb_core::packet::{DecodedPacket, DetectedPacket};
use tnb_core::sigcalc::SigCalc;
use tnb_dsp::{Complex32, FftPlan};
use tnb_phy::chirp::ChirpTable;
use tnb_phy::params::LoRaParams;

/// The CIC baseline (optionally decoded with BEC: "CIC+").
pub struct CicScheme {
    params: LoRaParams,
    use_bec: bool,
}

impl CicScheme {
    /// Builds the scheme; `use_bec` selects the `CIC+` variant.
    pub fn new(params: LoRaParams, use_bec: bool) -> Self {
        CicScheme { params, use_bec }
    }
}

struct CicAssigner {
    params: LoRaParams,
    chirps: ChirpTable,
    plan: FftPlan,
    /// Minimum sub-window length in samples (slivers carry no usable
    /// spectral information).
    min_segment: usize,
}

impl CicAssigner {
    fn new(params: LoRaParams) -> Self {
        let l = params.samples_per_symbol();
        CicAssigner {
            chirps: ChirpTable::new(&params),
            plan: FftPlan::new(l),
            params,
            min_segment: l / 16,
        }
    }

    /// Folded power spectrum of the de-chirped window restricted to
    /// `[a, b)` (zero elsewhere).
    fn segment_spectrum(&self, dechirped: &[Complex32], a: usize, b: usize) -> Vec<f32> {
        let l = dechirped.len();
        let n = self.params.n();
        let mut buf = vec![Complex32::ZERO; l];
        buf[a..b].copy_from_slice(&dechirped[a..b]);
        self.plan.forward(&mut buf);
        (0..n)
            .map(|k| {
                let m = buf[k].abs() + buf[l - n + k].abs();
                m * m
            })
            .collect()
    }
}

impl SymbolAssigner for CicAssigner {
    fn assign(
        &self,
        sig: &mut SigCalc<'_>,
        antennas: &[&[Complex32]],
        packets: &[DetectedPacket],
        extents: &[(i64, i64)],
        pkt: usize,
        j: isize,
    ) -> Option<(u16, f32)> {
        let params = self.params;
        let l = params.samples_per_symbol();
        let w = sig.symbol_start(&packets[pkt], j);
        if w < 0 {
            return None;
        }
        let w = w as usize;
        let trace = antennas[0];
        if w + l > trace.len() {
            return None;
        }

        // De-chirp the full window with the target's CFO removed.
        let cfo = packets[pkt].cfo_cycles;
        let step = -2.0 * std::f64::consts::PI * cfo / l as f64;
        let dechirped: Vec<Complex32> = trace[w..w + l]
            .iter()
            .zip(self.chirps.downchirp())
            .enumerate()
            .map(|(i, (s, d))| *s * *d * Complex32::from_phase(step * i as f64))
            .collect();

        // Cut points: every interferer symbol boundary inside the window.
        // Interferers have two boundary grids (preamble grid and the data
        // grid, offset by the 0.25-symbol tail of the downchirps); both
        // are added — a spurious cut only splits a consistent segment.
        let others = interferers(packets, extents, &params, pkt, w as i64);
        let mut cuts: Vec<usize> = Vec::new();
        for &q in &others {
            let pre = packets[q].start;
            let data = pre + params.preamble_symbols() * l as f64;
            for grid in [pre, data] {
                let off = (grid - w as f64).rem_euclid(l as f64).round() as usize;
                if off >= self.min_segment && off + self.min_segment <= l {
                    cuts.push(off);
                }
            }
        }
        cuts.sort_unstable();
        cuts.dedup();

        let full = self.segment_spectrum(&dechirped, 0, l);
        if cuts.is_empty() {
            // No interference: ordinary demodulation of the full window.
            let (bin, &h) = full.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1))?;
            return Some((bin as u16, h));
        }

        // CIC proper: candidate peaks come from the full window (keeping
        // its processing gain); each candidate's *consistency score* is
        // its worst normalised height across the sub-windows. Peaks
        // present in every sub-window (the paper's intersection) keep a
        // high score; an interferer's peak collapses in the sub-windows
        // beyond its symbol boundary.
        let n = params.n();
        let mut peaks = Vec::new();
        tnb_dsp::find_peaks(&full, 2 * (others.len() + 2), &mut peaks);
        if peaks.is_empty() {
            let (bin, &h) = full.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1))?;
            return Some((bin as u16, h));
        }
        let mut scores = vec![f32::INFINITY; peaks.len()];
        let mut seg_start = 0usize;
        let mut segments = cuts.clone();
        segments.push(l);
        for &end in &segments {
            if end - seg_start >= self.min_segment {
                let y = self.segment_spectrum(&dechirped, seg_start, end);
                let max = y.iter().copied().fold(f32::MIN_POSITIVE, f32::max);
                for (pi, p) in peaks.iter().enumerate() {
                    // Short segments blur peaks; accept the best value
                    // within ±1 bin.
                    let v = (-1i64..=1)
                        .map(|d| y[(p.index as i64 + d).rem_euclid(n as i64) as usize])
                        .fold(0.0f32, f32::max);
                    scores[pi] = scores[pi].min(v / max);
                }
            }
            seg_start = end;
        }
        // Peaks surviving the intersection (score above a fraction of the
        // best score); among them the strongest full-window peak wins.
        let best_score = scores.iter().copied().fold(0.0f32, f32::max);
        let surviving: Vec<usize> = (0..peaks.len())
            .filter(|&pi| scores[pi] >= best_score * 0.5)
            .collect();
        let pick = surviving
            .into_iter()
            .max_by(|&a, &b| peaks[a].height.total_cmp(&peaks[b].height))?;
        Some((peaks[pick].index as u16, peaks[pick].height))
    }
}

impl Scheme for CicScheme {
    fn name(&self) -> &'static str {
        if self.use_bec {
            "CIC+"
        } else {
            "CIC"
        }
    }

    fn decode(&self, antennas: &[&[Complex32]]) -> Vec<DecodedPacket> {
        let assigner = CicAssigner::new(self.params);
        drive_baseline(self.params, self.use_bec, &assigner, antennas)
    }
}
