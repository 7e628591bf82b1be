//! Thrive: peak assignment by matching cost (paper §5).
//!
//! At every *checking point* (one per symbol period), Thrive examines the
//! symbols of all packets intersecting that instant and assigns one peak
//! to each. A peak's *matching cost* is the sum of:
//!
//! - the **sibling cost** (Eq. 1): a transmitted symbol produces *sibling*
//!   peaks in every overlapping symbol's signal vector; the peak is
//!   highest in its owner's vector (matching boundary and CFO), so
//!   `w = (1 − η/H*)²` where `H*` is the tallest sibling;
//! - the **history cost** (Eq. 2): peak heights of one packet follow a
//!   fitted trend; deviations outside `[A − 4D, A + 4D]` are penalised
//!   with weight `ω = 0.1`.
//!
//! Sibling locations follow from per-packet boundary and CFO differences
//! alone: a peak at bin `b` in packet `i`'s vector appears at
//! `b + (start_k − start_i)/U + δ_i − δ_k (mod N)` in packet `k`'s vector
//! (paper §5.3.2).

use crate::detect::bins_close;
use crate::packet::DetectedPacket;
use crate::sigcalc::SigCalc;
use tnb_dsp::smooth::fit_history;
use tnb_dsp::{find_peaks, Peak};
use tnb_phy::params::LoRaParams;

/// Thrive tunables (paper defaults).
#[derive(Debug, Clone, Copy)]
pub struct ThriveConfig {
    /// Weight of the history cost (paper: ω = 0.1).
    pub omega: f32,
    /// Smoothing window of the history curve fit.
    pub history_window: usize,
    /// Disable the history cost (the paper's "Sibling" ablation).
    pub use_history: bool,
}

impl Default for ThriveConfig {
    fn default() -> Self {
        ThriveConfig {
            omega: 0.1,
            history_window: 7,
            use_history: true,
        }
    }
}

/// Deviation multiplier of the history band `[A − 4D, A + 4D]` (paper
/// §5.2: 4).
const DEVIATION_MULT: f32 = 4.0;

/// Bins around a masked/assigned location considered covered.
const MASK_TOLERANCE: i64 = 1;

/// Budget on sibling-cost evaluations per checking point (candidates ×
/// other slots). A hostile trace can pile dozens of phantom detections
/// onto one checkpoint, making the cost matrix quadratic in trash; over
/// budget, each slot's candidate list is trimmed to its tallest peaks and
/// the event is tallied as `budget_exhausted`. The value is far above
/// anything real collisions produce, so clean traces are bit-identical
/// with or without the cap.
const CHECKPOINT_EVAL_BUDGET: u64 = 1_000_000;

/// Peak-height history of one packet, bootstrapped by the preamble peaks.
#[derive(Debug, Clone, Default)]
pub struct HistoryModel {
    heights: Vec<f32>,
}

impl HistoryModel {
    /// Starts a history from the preamble peak heights.
    pub fn new(preamble_heights: Vec<f32>) -> Self {
        HistoryModel {
            heights: preamble_heights,
        }
    }

    /// Records an assigned peak height.
    pub fn push(&mut self, h: f32) {
        self.heights.push(h);
    }

    /// Number of recorded heights.
    pub fn len(&self) -> usize {
        self.heights.len()
    }

    /// True when no heights are recorded.
    pub fn is_empty(&self) -> bool {
        self.heights.is_empty()
    }

    /// All recorded heights.
    pub fn heights(&self) -> &[f32] {
        &self.heights
    }

    /// Upper and lower estimates `(U, L)` for the *next* peak: the fitted
    /// curve's value at the most recent sample ±`mult`·deviation
    /// (paper §5.3.3, first pass: `A_i` is the fitted value at `S_i^{−1}`).
    pub fn bounds(&self, cfg: &ThriveConfig) -> (f32, f32) {
        if self.heights.is_empty() {
            return (f32::MAX, 0.0);
        }
        let fit = fit_history(&self.heights, cfg.history_window);
        let a = fit.last();
        let d = fit.deviation;
        let up = a + DEVIATION_MULT * d;
        let lo = (a - DEVIATION_MULT * d).max(0.0);
        (up, lo)
    }

    /// Second-pass variant: the fit runs over *all* observed heights and
    /// is evaluated at index `at` (paper: `A_i` is the fitted value at
    /// `S_i` itself).
    pub fn bounds_at(&self, at: usize, cfg: &ThriveConfig) -> (f32, f32) {
        if self.heights.is_empty() {
            return (f32::MAX, 0.0);
        }
        let fit = fit_history(&self.heights, cfg.history_window);
        let a = fit.value_at(at);
        let d = fit.deviation;
        ((a + DEVIATION_MULT * d), (a - DEVIATION_MULT * d).max(0.0))
    }
}

/// History cost `F` of a peak of height `eta` against bounds `(up, lo)`
/// (paper Eq. 2).
pub fn history_cost(eta: f32, up: f32, lo: f32, cfg: &ThriveConfig) -> f32 {
    if !cfg.use_history {
        return 0.0;
    }
    if eta > up {
        let r = 1.0 - up / eta.max(f32::MIN_POSITIVE);
        cfg.omega * r * r
    } else if eta >= lo {
        0.0
    } else {
        // lo > eta ≥ 0 here, so lo > 0.
        let r = 1.0 - eta / lo;
        cfg.omega * r * r
    }
}

/// Sibling cost `w` of a peak of height `eta` whose tallest sibling is
/// `h_star` (paper Eq. 1).
pub fn sibling_cost(eta: f32, h_star: f32) -> f32 {
    let r = 1.0 - eta / h_star.max(f32::MIN_POSITIVE);
    r * r
}

/// Expected bin displacement of a signal between two packets' signal
/// vectors: a peak at bin `b` in `from`'s vector appears at
/// `b + shift_bins(from, to)` (mod N) in `to`'s vector.
pub fn shift_bins(from: &DetectedPacket, to: &DetectedPacket, params: &LoRaParams) -> f64 {
    (to.start - from.start) / params.osf as f64 + from.cfo_cycles - to.cfo_cycles
}

/// One symbol participating in a checking point.
#[derive(Debug, Clone)]
pub struct CheckpointSymbol {
    /// Index of the packet in the caller's tracking array.
    pub packet: usize,
    /// Data-symbol index within that packet.
    pub symbol: isize,
    /// Bins that must not be assigned (known peaks of other packets and
    /// their siblings, mapped into this symbol's vector).
    pub masked_bins: Vec<i64>,
    /// History bounds (upper, lower) for this packet at this symbol.
    pub bounds: (f32, f32),
}

/// One peak assignment produced at a checking point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assignment {
    /// Index into the checkpoint's symbol list.
    pub slot: usize,
    /// Assigned bin — this *is* the demodulated symbol value.
    pub bin: u16,
    /// Peak height (feeds the history model).
    pub height: f32,
}

#[derive(Debug, Clone)]
struct Candidate {
    bin: i64,
    height: f32,
    cost: f32,
    alive: bool,
}

/// Deterministic Thrive event tallies accumulated across checking points.
/// Every field counts per-slot events, so the totals are identical for
/// any receiver worker count.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThriveTally {
    /// Checking points with at least one participating symbol.
    pub checkpoints: u64,
    /// Peak candidates that survived masking, across all slots.
    pub peaks_considered: u64,
    /// Assignments made (one per assignable slot).
    pub assignments: u64,
    /// Assignments that fell back to the strongest unmasked bin.
    pub fallbacks: u64,
    /// Checking points whose candidate lists were trimmed because the
    /// sibling-cost evaluation budget ran out.
    pub budget_exhausted: u64,
}

/// Reusable working storage for [`assign_checkpoint`]: per-slot
/// vector copies, candidate lists and greedy-assignment bookkeeping keep
/// their capacity across checking points, so the steady-state checkpoint
/// loop does not reallocate them.
#[derive(Debug, Default)]
pub struct CheckpointScratch {
    /// Slot signal-vector copies (empty = vector unavailable).
    vectors: Vec<Vec<f32>>,
    /// One slot's peaks, before masking.
    peaks: Vec<Peak>,
    /// Peak candidates per slot.
    cands: Vec<Vec<Candidate>>,
    /// Bins masked during the greedy rounds, per slot.
    dynamic: Vec<Vec<i64>>,
    /// (bin, height) snapshot of one slot's candidates.
    costs: Vec<(i64, f32)>,
    /// Slots still awaiting an assignment.
    remaining: Vec<usize>,
    /// Event tallies across all checkpoints run with this scratch.
    tally: ThriveTally,
}

impl CheckpointScratch {
    /// Event tallies accumulated so far.
    pub fn tally(&self) -> ThriveTally {
        self.tally
    }
}

/// Runs one checking point: finds peaks in each symbol's signal vector,
/// computes matching costs, and greedily assigns one peak per symbol
/// (paper §5.3.4).
///
/// `packets[i]` must be the detection record the `CheckpointSymbol.packet`
/// indices refer to. Writes one assignment per symbol to `out` (cleared
/// first; symbols whose signal vector is unavailable are skipped). All
/// intermediates live in `ws`, which keeps its capacity across checking
/// points.
// tnb-lint: no_alloc_root -- per-checkpoint assignment runs in the symbol loop; intermediates live in CheckpointScratch
pub fn assign_checkpoint(
    sigcalc: &mut SigCalc<'_>,
    packets: &[DetectedPacket],
    symbols: &[CheckpointSymbol],
    cfg: &ThriveConfig,
    ws: &mut CheckpointScratch,
    out: &mut Vec<Assignment>,
) {
    assign_within_budget(
        sigcalc,
        packets,
        symbols,
        cfg,
        CHECKPOINT_EVAL_BUDGET,
        ws,
        out,
    );
}

/// [`assign_checkpoint`] under a sibling-cost evaluation budget
/// of `eval_budget` (see [`CHECKPOINT_EVAL_BUDGET`]).
fn assign_within_budget(
    sigcalc: &mut SigCalc<'_>,
    packets: &[DetectedPacket],
    symbols: &[CheckpointSymbol],
    cfg: &ThriveConfig,
    eval_budget: u64,
    ws: &mut CheckpointScratch,
    out: &mut Vec<Assignment>,
) {
    out.clear();
    let params = *sigcalc.params();
    let n = params.n() as i64;
    let m = symbols.len();
    if m == 0 {
        return;
    }
    ws.tally.checkpoints += 1;

    while ws.vectors.len() < m {
        ws.vectors.push(Vec::new()); // tnb-lint: allow(TNB-ALLOC01) -- grow-only warm-up, reused across checkpoints
        ws.cands.push(Vec::new()); // tnb-lint: allow(TNB-ALLOC01) -- grow-only warm-up, reused across checkpoints
        ws.dynamic.push(Vec::new()); // tnb-lint: allow(TNB-ALLOC01) -- grow-only warm-up, reused across checkpoints
    }
    for k in 0..m {
        ws.vectors[k].clear();
        ws.cands[k].clear();
        ws.dynamic[k].clear();
    }

    // Signal vectors for each slot (cached inside SigCalc) and for
    // neighbour symbols, fetched on demand below. Copy the slot vectors
    // so we can hold them while querying neighbours mutably; an empty
    // entry means the vector is unavailable (runs off the trace).
    for (k, s) in symbols.iter().enumerate() {
        if let Some(v) = sigcalc.symbol_vector(s.packet, &packets[s.packet], s.symbol) {
            ws.vectors[k].extend_from_slice(v);
        }
    }

    // Peak candidates per slot: peakfinder capped at 2M peaks (paper
    // §5.3.1), with masked bins removed.
    for (slot, s) in symbols.iter().enumerate() {
        if ws.vectors[slot].is_empty() {
            continue;
        }
        find_peaks(&ws.vectors[slot], 2 * m, &mut ws.peaks);
        ws.cands[slot].extend(
            ws.peaks
                .iter()
                .filter(|p| {
                    !s.masked_bins
                        .iter()
                        .any(|&mb| bins_close(p.index as i64, mb, n, MASK_TOLERANCE))
                })
                .map(|p| Candidate {
                    bin: p.index as i64,
                    height: p.height,
                    cost: 0.0,
                    alive: true,
                }),
        );
    }
    ws.tally.peaks_considered += ws.cands.iter().take(m).map(|c| c.len() as u64).sum::<u64>();

    // Iteration budget: the cost matrix below costs roughly
    // |candidates| × (m − 1) sibling lookups. When a checkpoint would
    // blow past the budget (only adversarial input does), keep each
    // slot's tallest peaks so the work is bounded and the assignment
    // still favours plausible candidates.
    let total_cands: u64 = ws.cands.iter().take(m).map(|c| c.len() as u64).sum();
    let evals = total_cands * (m as u64).saturating_sub(1).max(1);
    if evals > eval_budget {
        ws.tally.budget_exhausted += 1;
        let keep = (eval_budget / (m as u64 * m as u64).max(1)).max(1) as usize;
        for cands in ws.cands.iter_mut().take(m) {
            if cands.len() > keep {
                cands.sort_by(|a, b| b.height.total_cmp(&a.height).then(a.bin.cmp(&b.bin)));
                cands.truncate(keep);
                cands.sort_by_key(|c| c.bin);
            }
        }
    }

    // Matching cost = sibling cost + history cost (paper §5.3.3). The
    // tallest sibling H* is read from the signal vectors of every other
    // slot's symbol and its time-adjacent neighbour at the expected
    // sibling location.
    for slot in 0..m {
        let s_i = &symbols[slot];
        let boundary_i = sigcalc.symbol_start(&packets[s_i.packet], s_i.symbol);
        ws.costs.clear();
        ws.costs
            .extend(ws.cands[slot].iter().map(|c| (c.bin, c.height)));
        for ci in 0..ws.costs.len() {
            let (bin, eta) = ws.costs[ci];
            let mut h_star = eta;
            for (other, s_k) in symbols.iter().enumerate() {
                if other == slot {
                    continue;
                }
                let shift = shift_bins(&packets[s_i.packet], &packets[s_k.packet], &params);
                let sib = (bin + shift.round() as i64).rem_euclid(n) as usize;
                let boundary_k = sigcalc.symbol_start(&packets[s_k.packet], s_k.symbol);
                // The hypothesised transmission spans S_i's window, so in
                // packet k it overlaps S_k and the neighbour on the far
                // side (paper §5.3.3).
                let neighbour = if boundary_k <= boundary_i { 1 } else { -1 };
                for dj in [0isize, neighbour] {
                    if let Some(v) =
                        sigcalc.symbol_vector(s_k.packet, &packets[s_k.packet], s_k.symbol + dj)
                    {
                        h_star = h_star.max(v[sib]);
                    }
                }
            }
            let w = sibling_cost(eta, h_star);
            let f = history_cost(eta, s_i.bounds.0, s_i.bounds.1, cfg);
            ws.cands[slot][ci].cost = w + f;
            if let Some(mx) = sigcalc.metrics() {
                // Costs are small non-negative floats; record them in
                // milli-units so the integer histogram keeps resolution.
                mx.record_cost(((w + f) as f64 * 1000.0) as u64);
            }
        }
    }

    // Greedy assignment (paper §5.3.4): repeatedly take the global
    // minimum cost; prefer the symbol that holds it uniquely, else the
    // one with the fewest minimum-cost peaks.
    ws.remaining.clear();
    ws.remaining
        .extend((0..m).filter(|&i| !ws.vectors[i].is_empty()));

    while !ws.remaining.is_empty() {
        // Global minimum cost over live candidates.
        let mut min_cost = f32::INFINITY;
        for &slot in &ws.remaining {
            for c in ws.cands[slot].iter().filter(|c| c.alive) {
                min_cost = min_cost.min(c.cost);
            }
        }

        let chosen_slot = if min_cost.is_finite() {
            // The remaining symbol with the fewest min-cost peaks (first
            // such symbol on ties, matching `min_by_key` semantics).
            let mut best: Option<(usize, usize)> = None; // (slot, count)
            for &slot in &ws.remaining {
                let cnt = ws.cands[slot]
                    .iter()
                    .filter(|c| c.alive && c.cost <= min_cost + f32::EPSILON)
                    .count();
                if cnt > 0 && best.map(|(_, bc)| cnt < bc).unwrap_or(true) {
                    best = Some((slot, cnt));
                }
            }
            best.map(|(slot, _)| slot).unwrap_or(ws.remaining[0])
        } else {
            // No candidates anywhere: fall back slot by slot.
            ws.remaining[0]
        };

        // Pick the assignment for the chosen slot.
        let pick = ws.cands[chosen_slot]
            .iter()
            .filter(|c| c.alive)
            .min_by(|a, b| a.cost.total_cmp(&b.cost))
            .map(|c| (c.bin, c.height));
        let (bin, height) = match pick {
            Some(p) => p,
            None => {
                // Fallback: strongest unmasked bin of the raw vector.
                ws.tally.fallbacks += 1;
                fallback_bin(
                    &ws.vectors[chosen_slot],
                    &symbols[chosen_slot].masked_bins,
                    &ws.dynamic[chosen_slot],
                    MASK_TOLERANCE,
                )
            }
        };

        out.push(Assignment {
            slot: chosen_slot,
            bin: bin.rem_euclid(n) as u16,
            height,
        });
        ws.remaining.retain(|&s| s != chosen_slot);

        // Mask the assigned peak's siblings in the remaining symbols.
        for &slot in &ws.remaining {
            let shift = shift_bins(
                &packets[symbols[chosen_slot].packet],
                &packets[symbols[slot].packet],
                &params,
            );
            let sib = (bin + shift.round() as i64).rem_euclid(n);
            ws.dynamic[slot].push(sib);
            for c in ws.cands[slot].iter_mut() {
                if c.alive && bins_close(c.bin, sib, n, MASK_TOLERANCE) {
                    c.alive = false;
                }
            }
        }
    }
    ws.tally.assignments += out.len() as u64;
}

/// Strongest bin not within `tol` of any masked location; falls back to
/// the raw argmax if everything is masked.
fn fallback_bin(v: &[f32], masks: &[i64], dynamic: &[i64], tol: i64) -> (i64, f32) {
    let n = v.len() as i64;
    let mut best: Option<(i64, f32)> = None;
    for (i, &h) in v.iter().enumerate() {
        let b = i as i64;
        if masks
            .iter()
            .chain(dynamic)
            .any(|&mb| bins_close(b, mb, n, tol))
        {
            continue;
        }
        if best.map(|(_, bh)| h > bh).unwrap_or(true) {
            best = Some((b, h));
        }
    }
    best.unwrap_or_else(|| {
        // Everything masked: take the raw argmax; bin 0 with zero height
        // stands in for a (never-produced) empty vector.
        v.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, &h)| (i as i64, h))
            .unwrap_or((0, 0.0))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnb_phy::params::{CodingRate, SpreadingFactor};

    fn cfg() -> ThriveConfig {
        ThriveConfig::default()
    }

    #[test]
    fn history_cost_inside_band_is_zero() {
        assert_eq!(history_cost(5.0, 8.0, 2.0, &cfg()), 0.0);
        assert_eq!(history_cost(8.0, 8.0, 2.0, &cfg()), 0.0);
        assert_eq!(history_cost(2.0, 8.0, 2.0, &cfg()), 0.0);
    }

    #[test]
    fn history_cost_above_band() {
        let c = history_cost(16.0, 8.0, 2.0, &cfg());
        assert!((c - 0.1 * 0.25).abs() < 1e-6); // ω(1 − 8/16)²
    }

    #[test]
    fn history_cost_below_band() {
        let c = history_cost(1.0, 8.0, 2.0, &cfg());
        assert!((c - 0.1 * 0.25).abs() < 1e-6); // ω(1 − 1/2)²
    }

    #[test]
    fn history_cost_disabled() {
        let mut c = cfg();
        c.use_history = false;
        assert_eq!(history_cost(100.0, 8.0, 2.0, &c), 0.0);
    }

    #[test]
    fn sibling_cost_highest_peak_is_zero() {
        assert_eq!(sibling_cost(7.0, 7.0), 0.0);
        let c = sibling_cost(3.5, 7.0);
        assert!((c - 0.25).abs() < 1e-6);
    }

    #[test]
    fn history_bounds_from_constant_history() {
        let h = HistoryModel::new(vec![10.0; 8]);
        let (up, lo) = h.bounds(&cfg());
        assert!((up - 10.0).abs() < 1e-4);
        assert!((lo - 10.0).abs() < 1e-4);
    }

    #[test]
    fn history_bounds_widen_with_noise() {
        let mut h = HistoryModel::new(vec![10.0, 14.0, 6.0, 12.0, 8.0, 13.0, 7.0, 11.0]);
        h.push(9.0);
        let (up, lo) = h.bounds(&cfg());
        assert!(up > 11.0, "up {up}");
        assert!(lo < 9.0, "lo {lo}");
        assert!(lo >= 0.0);
    }

    #[test]
    fn empty_history_accepts_anything() {
        let h = HistoryModel::default();
        let (up, lo) = h.bounds(&cfg());
        assert_eq!(history_cost(1e9, up, lo, &cfg()), 0.0);
    }

    #[test]
    fn shift_bins_symmetry() {
        let p = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
        let a = DetectedPacket {
            start: 1000.0,
            cfo_cycles: 2.0,
            preamble_peak: 1.0,
        };
        let b = DetectedPacket {
            start: 1800.0,
            cfo_cycles: -1.5,
            preamble_peak: 1.0,
        };
        let ab = shift_bins(&a, &b, &p);
        let ba = shift_bins(&b, &a, &p);
        assert!((ab + ba).abs() < 1e-9);
        // (1800-1000)/8 + 2 − (−1.5) = 100 + 3.5
        assert!((ab - 103.5).abs() < 1e-9);
    }

    #[test]
    fn bin_close_wraps() {
        assert!(bins_close(0, 255, 256, 1));
        assert!(bins_close(255, 0, 256, 1));
        assert!(!bins_close(5, 250, 256, 2));
    }

    #[test]
    fn eval_budget_trims_each_slot_to_its_tallest_peaks() {
        use tnb_channel::trace::{PacketConfig, TraceBuilder};
        use tnb_dsp::DspScratch;
        use tnb_phy::demodulate::Demodulator;

        // Two collided packets: one checkpoint with two slots.
        let p = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
        let offset = 15 * p.samples_per_symbol() + 640;
        let mut b = TraceBuilder::new(p, 4);
        for (start, snr_db, cfo_hz) in [(4_000, 12.0, 1000.0), (4_000 + offset, 9.0, -2600.0)] {
            b.add_packet(
                b"thrive eval cap!",
                PacketConfig {
                    start_sample: start,
                    snr_db,
                    cfo_hz,
                    ..Default::default()
                },
            );
        }
        let trace = b.build();
        let packets =
            [(4_000, 1000.0), (4_000 + offset, -2600.0)].map(|(start, cfo_hz)| DetectedPacket {
                start: start as f64,
                cfo_cycles: cfo_hz / p.bin_hz(),
                preamble_peak: 1.0,
            });
        let symbols = [(0, 20), (1, 4)].map(|(packet, symbol)| CheckpointSymbol {
            packet,
            symbol,
            masked_bins: vec![],
            bounds: (f32::MAX, 0.0),
        });
        let demod = Demodulator::new(p);
        let ants = [trace.samples()];
        let mut scratch = DspScratch::new();
        let mut sig = SigCalc::new(&demod, &ants, &mut scratch, None);
        let run = |sig: &mut SigCalc<'_>, budget: u64| {
            let mut ws = CheckpointScratch::default();
            let mut out = Vec::new();
            assign_within_budget(sig, &packets, &symbols, &cfg(), budget, &mut ws, &mut out);
            (ws, out)
        };

        let tallest = |ws: &CheckpointScratch, slot: usize| {
            ws.cands[slot]
                .iter()
                .map(|c| c.height)
                .fold(0.0f32, f32::max)
        };
        let (full, out) = run(&mut sig, CHECKPOINT_EVAL_BUDGET);
        assert_eq!(full.tally().budget_exhausted, 0);
        assert_eq!(out.len(), 2);
        assert!(full.cands.iter().take(2).any(|c| c.len() > 1));

        // Budget 1 keeps max(1 / m², 1) = 1 candidate per slot, the
        // tallest, and every slot is still assigned.
        let (capped, out) = run(&mut sig, 1);
        assert_eq!(capped.tally().budget_exhausted, 1);
        assert_eq!(out.len(), 2);
        for slot in 0..2 {
            assert_eq!(capped.cands[slot].len(), 1);
            assert_eq!(capped.cands[slot][0].height, tallest(&full, slot));
        }
    }

    #[test]
    fn fallback_bin_respects_masks() {
        let mut v = vec![0.0f32; 16];
        v[3] = 10.0;
        v[9] = 8.0;
        let (b, h) = fallback_bin(&v, &[3], &[], 1);
        assert_eq!(b, 9);
        assert_eq!(h, 8.0);
        // Everything masked → raw argmax.
        let all: Vec<i64> = (0..16).collect();
        let (b, _) = fallback_bin(&v, &all, &[], 1);
        assert_eq!(b, 3);
    }
}
