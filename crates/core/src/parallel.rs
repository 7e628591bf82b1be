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
use tnb_metrics::PipelineMetrics;
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

/// Groups start-sorted detections into connected components under the
/// overlap horizon: a new cluster starts whenever a packet begins after
/// every earlier packet's span has ended.
pub(crate) fn clusters(detected: &[DetectedPacket], horizon: f64) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut begin = 0usize;
    let mut max_end = f64::NEG_INFINITY;
    for (i, p) in detected.iter().enumerate() {
        if i > begin && p.start >= max_end {
            out.push(begin..i);
            begin = i;
            max_end = f64::NEG_INFINITY;
        }
        max_end = max_end.max(p.start + horizon);
    }
    if begin < detected.len() {
        out.push(begin..detected.len());
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
    let report = DecodeReport {
        detected: cluster.len(),
        outcomes: cluster
            .iter()
            .map(|det| DecodeOutcome::Degraded {
                start: det.start,
                reason: DegradeReason::WorkerPanic,
            })
            .collect(),
        ..DecodeReport::default()
    };
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

    #[test]
    fn clusters_split_on_gaps() {
        let h = horizon();
        let dets = [pkt(0.0), pkt(h / 2.0), pkt(h * 3.0), pkt(h * 10.0)];
        assert_eq!(clusters(&dets, h), vec![0..2, 2..3, 3..4]);
    }

    #[test]
    fn chained_overlaps_stay_together() {
        let h = horizon();
        // Each packet overlaps only its neighbour; the chain is one
        // component.
        let dets = [pkt(0.0), pkt(h * 0.9), pkt(h * 1.8), pkt(h * 2.7)];
        assert_eq!(clusters(&dets, h), vec![0..4]);
    }

    #[test]
    fn empty_and_single_detections() {
        let h = horizon();
        assert!(clusters(&[], h).is_empty());
        assert_eq!(clusters(&[pkt(5000.0)], h), vec![0..1]);
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
    fn tighter_payload_bound_shrinks_horizon() {
        let params = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR1);
        assert!(horizon_samples(params, 16) < horizon_samples(params, MAX_PAYLOAD_LEN));
    }
}
