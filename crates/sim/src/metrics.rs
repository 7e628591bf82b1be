//! Evaluation metrics (paper §8): decoded-packet matching, throughput,
//! per-node PRR, medium usage, collision levels and BEC-rescue counts.

use crate::traffic::{parse_payload, ScheduledPacket};
use std::collections::HashSet;
use tnb_core::packet::DecodedPacket;

/// Result of matching a scheme's output against the transmitted schedule.
#[derive(Debug, Clone, Default)]
pub struct MatchResult {
    /// Distinct correctly decoded `(node, seq)` pairs.
    pub correct: Vec<(u32, u32)>,
    /// Decoded packets whose payload matched no transmission (CRC-passing
    /// ghosts; should be empty or nearly so).
    pub unmatched: usize,
    /// Codewords rescued by BEC per correctly decoded packet (Fig. 16).
    pub rescued_per_packet: Vec<usize>,
    /// Estimated SNR (dB) per correctly decoded packet.
    pub snr_per_packet: Vec<f32>,
    /// Decode pass (1 or 2) per correctly decoded packet.
    pub pass_per_packet: Vec<u8>,
}

/// Matches decoded packets against the transmitted schedule by payload
/// content (node and sequence number are embedded in every payload).
/// Duplicate decodes of the same transmission are counted once.
pub fn match_decoded(decoded: &[DecodedPacket], schedule: &[ScheduledPacket]) -> MatchResult {
    let sent: HashSet<(u32, u32)> = schedule.iter().map(|p| (p.node, p.seq)).collect();
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    let mut result = MatchResult::default();
    for d in decoded {
        match parse_payload(&d.payload) {
            Some(key) if sent.contains(&key) => {
                if seen.insert(key) {
                    result.correct.push(key);
                    result.rescued_per_packet.push(d.rescued_codewords);
                    result.snr_per_packet.push(d.snr_db);
                    result.pass_per_packet.push(d.pass);
                }
            }
            _ => result.unmatched += 1,
        }
    }
    result
}

/// Throughput in packets per second.
pub fn throughput(correct: usize, duration_s: f64) -> f64 {
    correct as f64 / duration_s
}

/// Overall PRR across all transmissions.
pub fn overall_prr(correct: usize, sent: usize) -> f64 {
    if sent == 0 {
        0.0
    } else {
        correct as f64 / sent as f64
    }
}

/// Medium usage over time (paper Fig. 11): the number of packets on the
/// air at each sampling instant, computed from packet start times and
/// airtimes. The paper's version is a lower bound over decoded packets;
/// pass whichever packet set is wanted.
pub fn medium_usage(
    intervals: &[(f64, f64)], // (start_s, end_s) per packet
    duration_s: f64,
    resolution_s: f64,
) -> Vec<usize> {
    let steps = (duration_s / resolution_s).ceil() as usize;
    let mut usage = vec![0usize; steps];
    for &(a, b) in intervals {
        let lo = (a / resolution_s).floor().max(0.0) as usize;
        let hi = ((b / resolution_s).ceil() as usize).min(steps);
        for slot in usage.iter_mut().take(hi).skip(lo.min(steps)) {
            *slot += 1;
        }
    }
    usage
}

/// Collision level of each packet (paper Fig. 18): the highest number of
/// *other* packets simultaneously on the air at any instant during its
/// transmission. Computed over the given intervals (the paper uses the
/// decoded subset, making it a lower bound).
pub fn collision_levels(intervals: &[(f64, f64)]) -> Vec<usize> {
    let mut out = Vec::with_capacity(intervals.len());
    for (i, &(a, b)) in intervals.iter().enumerate() {
        // Sweep the boundaries of overlapping packets: the overlap count
        // changes only at starts/ends.
        let mut events: Vec<(f64, i32)> = Vec::new();
        for (k, &(c, d)) in intervals.iter().enumerate() {
            if k == i || d <= a || c >= b {
                continue;
            }
            events.push((c.max(a), 1));
            events.push((d.min(b), -1));
        }
        events.sort_by(|x, y| x.0.total_cmp(&y.0).then(y.1.cmp(&x.1)));
        let mut cur = 0i32;
        let mut max = 0i32;
        for (_, e) in events {
            cur += e;
            max = max.max(cur);
        }
        out.push(max as usize);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::make_payload;
    use tnb_phy::header::Header;
    use tnb_phy::params::CodingRate;

    fn decoded(node: u32, seq: u32) -> DecodedPacket {
        DecodedPacket {
            payload: make_payload(node, seq),
            header: Header {
                payload_len: 16,
                cr: CodingRate::CR4,
                has_crc: true,
            },
            start: 0.0,
            cfo_cycles: 0.0,
            snr_db: 10.0,
            rescued_codewords: 2,
            pass: 1,
        }
    }

    fn sched(node: u32, seq: u32, time: f64) -> ScheduledPacket {
        ScheduledPacket { node, seq, time }
    }

    #[test]
    fn matching_counts_distinct_correct() {
        let schedule = vec![sched(1, 0, 0.0), sched(2, 0, 1.0)];
        let out = vec![decoded(1, 0), decoded(1, 0), decoded(2, 0), decoded(9, 9)];
        let m = match_decoded(&out, &schedule);
        assert_eq!(m.correct.len(), 2);
        assert_eq!(m.unmatched, 1); // (9,9) was never sent
        assert_eq!(m.rescued_per_packet, vec![2, 2]);
    }

    #[test]
    fn prr_accounting() {
        let schedule = vec![sched(1, 0, 0.0), sched(1, 1, 1.0), sched(2, 0, 2.0)];
        let m = match_decoded(&[decoded(1, 1)], &schedule);
        assert_eq!(m.correct, vec![(1, 1)]);
        assert_eq!(overall_prr(m.correct.len(), schedule.len()), 1.0 / 3.0);
    }

    #[test]
    fn medium_usage_counts_overlaps() {
        let intervals = vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)];
        let u = medium_usage(&intervals, 7.0, 1.0);
        assert_eq!(u, vec![1, 2, 1, 0, 0, 1, 0]);
    }

    #[test]
    fn collision_levels_basic() {
        // A overlaps B and C, but B and C do not overlap each other.
        let intervals = vec![(0.0, 10.0), (1.0, 2.0), (3.0, 4.0), (20.0, 21.0)];
        let lv = collision_levels(&intervals);
        assert_eq!(lv, vec![1, 1, 1, 0]);
        // Three-way overlap.
        let tri = vec![(0.0, 3.0), (1.0, 4.0), (2.0, 5.0)];
        assert_eq!(collision_levels(&tri), vec![2, 2, 2]);
    }

    #[test]
    fn empty_inputs() {
        assert!(match_decoded(&[], &[]).correct.is_empty());
        assert!(collision_levels(&[]).is_empty());
        assert_eq!(overall_prr(0, 0), 0.0);
    }
}
