//! Work decomposition behind [`TnbReceiver`](crate::TnbReceiver):
//! overlap clusters of detected packets and the scoped-thread fan-out
//! that decodes them (and, in detection, validates preamble runs).
//!
//! # Why clusters are safe work items
//!
//! After detection, packets interact only through *time overlap*:
//!
//! - Thrive assigns peaks jointly to the symbols intersecting a checking
//!   point (sibling costs couple co-located symbols);
//! - known-peak masks reach less than one symbol length beyond another
//!   packet's own emission windows;
//! - the second pass masks decoded packets' peaks in the windows of
//!   overlapping failures.
//!
//! So two packets whose sample spans cannot overlap decode identically
//! whether processed together or apart. The receiver groups detected
//! packets into connected components under a conservative overlap
//! horizon (the longest possible packet plus one symbol of masking
//! margin) and decodes each component independently. Every worker owns a
//! [`DspScratch`], and results are merged back in cluster order — i.e.
//! by packet start sample — so the output is byte-identical to one
//! whole-trace decode regardless of worker count or scheduling.

use crate::packet::{DecodedPacket, DetectedPacket};
use crate::receiver::{DecodeOutcome, DecodeReport, DegradeReason};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use tnb_dsp::DspScratch;
use tnb_metrics::{PipelineMetrics, StageCounters};
use tnb_phy::block;
use tnb_phy::params::{CodingRate, LoRaParams};

/// Largest payload a LoRa header can announce (`payload_len` is a byte).
pub(crate) const MAX_PAYLOAD_LEN: usize = 255;

/// Runs `work` on every item index in `0..items` and returns the results
/// in item order. With one worker (or at most one item) the items run
/// inline on the caller's scratch and metrics sink; otherwise up to
/// `workers` scoped threads claim items from a shared counter, each with
/// its own [`DspScratch`] and [`PipelineMetrics`] (absorbed into
/// `metrics` after join — commutative sums, so totals do not depend on
/// scheduling). A worker that dies outside `work` forfeits the items it
/// claimed: their slots stay `None` instead of taking the batch down.
pub(crate) fn fan_out<T: Send>(
    items: usize,
    workers: usize,
    scratch: &mut DspScratch,
    metrics: &PipelineMetrics,
    work: impl Fn(usize, &mut DspScratch, &PipelineMetrics) -> T + Sync,
) -> Vec<Option<T>> {
    if workers <= 1 || items <= 1 {
        return (0..items)
            .map(|i| Some(work(i, scratch, metrics)))
            .collect();
    }
    let enabled = metrics.is_enabled();
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<T>> = Vec::new();
    results.resize_with(items, || None);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.min(items))
            .map(|_| {
                s.spawn(|| {
                    let mut scratch = DspScratch::new();
                    let wm = if enabled {
                        PipelineMetrics::enabled()
                    } else {
                        PipelineMetrics::disabled()
                    };
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items {
                            break;
                        }
                        local.push((i, work(i, &mut scratch, &wm)));
                    }
                    (local, wm)
                })
            })
            .collect();
        for h in handles {
            if let Ok((local, wm)) = h.join() {
                metrics.absorb(&wm);
                for (i, r) in local {
                    results[i] = Some(r);
                }
            }
        }
    });
    results
}

/// Groups start-sorted `(start, end)` spans into connected components: a
/// new cluster starts whenever a span begins at or after the end of every
/// earlier span. The receiver passes each detection's start plus the
/// overlap horizon; the SIC rescue passes its members' actual extents.
pub(crate) fn clusters(spans: impl IntoIterator<Item = (f64, f64)>) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut begin = 0usize;
    let mut len = 0usize;
    let mut max_end = f64::NEG_INFINITY;
    for (i, (start, end)) in spans.into_iter().enumerate() {
        if i > begin && start >= max_end {
            out.push(begin..i);
            begin = i;
            max_end = f64::NEG_INFINITY;
        }
        max_end = max_end.max(end);
        len = i + 1;
    }
    if begin < len {
        out.push(begin..len);
    }
    out
}

/// Conservative packet span in samples: preamble plus the longest
/// possible payload (`max_payload_len` bytes) at the most redundant
/// coding rate, plus one symbol of masking margin (known-peak masks
/// reach `< l` beyond a packet's own windows).
pub(crate) fn horizon_samples(params: LoRaParams, max_payload_len: usize) -> f64 {
    let mut p = params;
    p.cr = CodingRate::CR4;
    let syms = p.preamble_symbols() + block::data_symbol_count(max_payload_len, &p) as f64 + 1.0;
    syms * p.samples_per_symbol() as f64
}

/// The report for a cluster whose decode never completed: nothing
/// decoded, every detection degraded with [`DegradeReason::WorkerPanic`].
pub(crate) fn degraded_cluster(cluster: &[DetectedPacket]) -> (Vec<DecodedPacket>, DecodeReport) {
    let outcomes = cluster
        .iter()
        .map(|det| DecodeOutcome::Degraded {
            start: det.start,
            reason: DegradeReason::WorkerPanic,
        })
        .collect();
    let report = DecodeReport::from_outcomes(outcomes, StageCounters::default());
    (Vec::new(), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnb_phy::params::SpreadingFactor;

    fn pkt(start: f64) -> DetectedPacket {
        DetectedPacket {
            start,
            cfo_cycles: 0.0,
            preamble_peak: 1.0,
        }
    }

    fn horizon() -> f64 {
        horizon_samples(LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR1), 16)
    }

    /// Clusters of packets starting at `starts`, each spanning the horizon.
    fn clusters_at(starts: &[f64], h: f64) -> Vec<Range<usize>> {
        clusters(starts.iter().map(|&s| (s, s + h)))
    }

    #[test]
    fn clusters_split_on_gaps() {
        let h = horizon();
        let starts = [0.0, h / 2.0, h * 3.0, h * 10.0];
        assert_eq!(clusters_at(&starts, h), vec![0..2, 2..3, 3..4]);
    }

    #[test]
    fn chained_overlaps_stay_together() {
        let h = horizon();
        // Each packet overlaps only its neighbour; the chain is one
        // component.
        let starts = [0.0, h * 0.9, h * 1.8, h * 2.7];
        assert_eq!(clusters_at(&starts, h), vec![0..4]);
    }

    #[test]
    fn spans_are_half_open() {
        // A span starting exactly at the running end opens a new cluster;
        // one sample earlier it joins, even when an earlier, longer span
        // sets the end.
        assert_eq!(clusters([(0.0, 10.0), (10.0, 20.0)]), vec![0..1, 1..2]);
        assert_eq!(clusters([(0.0, 10.0), (9.0, 20.0)]), vec![0..2]);
        assert_eq!(
            clusters([(0.0, 30.0), (5.0, 8.0), (29.0, 40.0), (40.0, 41.0)]),
            vec![0..3, 3..4]
        );
    }

    #[test]
    fn empty_and_single_detections() {
        let h = horizon();
        assert!(clusters_at(&[], h).is_empty());
        assert_eq!(clusters_at(&[5000.0], h), vec![0..1]);
    }

    #[test]
    fn degraded_cluster_reports_worker_panic_per_packet() {
        let dets = [pkt(100.0), pkt(5000.0)];
        let (decoded, report) = degraded_cluster(&dets);
        assert!(decoded.is_empty());
        assert_eq!(report.detected, 2);
        assert_eq!(report.decoded, 0);
        assert_eq!(report.degraded(), 2);
        assert_eq!(report.degraded_with(DegradeReason::WorkerPanic), 2);
    }

    #[test]
    fn horizon_less_its_margin_is_the_longest_packet() {
        // The SIC rescue sizes its residual with this difference.
        for sf in SpreadingFactor::ALL {
            for cr in CodingRate::ALL {
                let p = LoRaParams::new(sf, cr);
                let l = p.samples_per_symbol();
                let mut cr4 = p;
                cr4.cr = CodingRate::CR4;
                let longest = p.preamble_samples() + block::data_symbol_count(255, &cr4) * l;
                let horizon = horizon_samples(p, MAX_PAYLOAD_LEN);
                assert_eq!(horizon as i64 - l as i64, longest as i64, "{sf:?} {cr:?}");
            }
        }
    }

    #[test]
    fn tighter_payload_bound_shrinks_horizon() {
        let params = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR1);
        assert!(horizon_samples(params, 16) < horizon_samples(params, MAX_PAYLOAD_LEN));
    }
}
