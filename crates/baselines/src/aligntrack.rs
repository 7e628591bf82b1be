//! `AlignTrack*` — the peak-assignment core of AlignTrack (ICNP'21) as
//! the paper re-implemented it for comparison (§8.2).
//!
//! AlignTrack's observation: a peak is highest when the processing window
//! aligns with the actual symbol. AlignTrack* therefore "considers a peak
//! to be aligned to a symbol if it is higher in this symbol than in other
//! symbols" (paper §8.4): for each candidate peak of a symbol, compare
//! its height against the same signal's height in every other detected
//! packet's (boundary-aligned) signal vectors; a peak aligned to this
//! symbol wins. When several peaks claim alignment (e.g. accidental noise
//! peaks — the failure mode the paper analyses for SF 10), the strongest
//! is taken, an essentially arbitrary choice.
//!
//! Unlike Thrive there is no peak-height history, no matching cost, no
//! joint assignment across symbols and no masking.

use crate::scheme::{drive_baseline, interferers, Scheme, SymbolAssigner};
use tnb_core::packet::{DecodedPacket, DetectedPacket};
use tnb_core::sigcalc::SigCalc;
use tnb_core::thrive::shift_bins;
use tnb_dsp::{find_peaks, Complex32};
use tnb_phy::params::LoRaParams;

/// The AlignTrack* baseline (optionally decoded with BEC: "AlignTrack*+").
pub struct AlignTrackScheme {
    params: LoRaParams,
    use_bec: bool,
}

impl AlignTrackScheme {
    /// Builds the scheme; `use_bec` selects the `AlignTrack*+` variant.
    pub fn new(params: LoRaParams, use_bec: bool) -> Self {
        AlignTrackScheme { params, use_bec }
    }
}

struct AlignTrackAssigner {
    params: LoRaParams,
}

impl SymbolAssigner for AlignTrackAssigner {
    fn assign(
        &self,
        sig: &mut SigCalc<'_>,
        _antennas: &[&[Complex32]],
        packets: &[DetectedPacket],
        extents: &[(i64, i64)],
        pkt: usize,
        j: isize,
    ) -> Option<(u16, f32)> {
        let params = self.params;
        let n = params.n() as i64;
        let l = params.samples_per_symbol() as i64;
        let w = sig.symbol_start(&packets[pkt], j);
        let own = sig.symbol_vector(pkt, &packets[pkt], j)?.to_vec();

        let others = interferers(packets, extents, &params, pkt, w);
        let mut peaks = Vec::new();
        find_peaks(&own, 2 * (others.len() + 1), &mut peaks);
        if peaks.is_empty() {
            // No structure at all: fall back to the raw argmax.
            let (bin, &h) = own.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1))?;
            return Some((bin as u16, h));
        }

        // A peak is aligned with this symbol if it is higher here than at
        // its expected location in every other packet's overlapping
        // symbols.
        let mut aligned: Vec<(i64, f32)> = Vec::new();
        for p in &peaks {
            let mut is_aligned = true;
            'outer: for &q in &others {
                let shift = shift_bins(&packets[pkt], &packets[q], &params);
                let sib = (p.index as i64 + shift.round() as i64).rem_euclid(n) as usize;
                // The other packet's symbol(s) overlapping this window.
                let wq = sig.symbol_start(&packets[q], 0);
                let jq = (w - wq).div_euclid(l);
                for dj in [0isize, 1] {
                    let idx = jq as isize + dj;
                    if let Some(v) = sig.symbol_vector(q, &packets[q], idx) {
                        if v[sib] > p.height {
                            is_aligned = false;
                            break 'outer;
                        }
                    }
                }
            }
            if is_aligned {
                aligned.push((p.index as i64, p.height));
            }
        }

        // Strongest aligned peak; if none claims alignment, strongest peak.
        let pick = aligned
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .or_else(|| {
                peaks
                    .iter()
                    .map(|p| (p.index as i64, p.height))
                    .max_by(|a, b| a.1.total_cmp(&b.1))
            })?;
        Some((pick.0.rem_euclid(n) as u16, pick.1))
    }
}

impl Scheme for AlignTrackScheme {
    fn name(&self) -> &'static str {
        if self.use_bec {
            "AlignTrack*+"
        } else {
            "AlignTrack*"
        }
    }

    fn decode(&self, antennas: &[&[Complex32]]) -> Vec<DecodedPacket> {
        let assigner = AlignTrackAssigner {
            params: self.params,
        };
        drive_baseline(self.params, self.use_bec, &assigner, antennas)
    }
}
