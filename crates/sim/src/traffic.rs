//! Traffic generation and the application payload format (paper §8.1).
//!
//! Each node transmits packets at randomly selected times during the
//! experiment. A 16-byte payload carries 4 bytes of header, 4 bytes of
//! node ID, 4 bytes of sequence number, 4 bytes of data, and the PHY
//! appends the 2-byte CRC (artifact appendix B.3.4 — the paper counts the
//! CRC inside the "16 bytes", so the application payload here is 16 bytes
//! and the CRC travels separately, exactly as our PHY frames it). Node
//! and sequence fields are 32-bit so city-scale deployments (10⁵–10⁶
//! nodes, `tnb-deploy`) do not overflow the encoding.

use rand::Rng;

/// Fixed application payload length (bytes) used throughout the paper.
pub const PAYLOAD_LEN: usize = 16;

/// One scheduled transmission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledPacket {
    /// Transmitting node.
    pub node: u32,
    /// Per-node sequence number.
    pub seq: u32,
    /// Transmit time in seconds from the trace start.
    pub time: f64,
}

/// Builds the paper's payload layout: `[0xA5; 4]` app header, node ID,
/// sequence number (both big-endian), then deterministic data bytes.
///
/// The data bytes depend on all four bytes of `seq` (XOR-folded; for
/// `seq < 256` the fold is `seq` itself), so a corrupted sequence field
/// does not re-parse as another valid payload. They read only the low
/// byte of `node`: folding all of it would change the payloads of city
/// nodes past 255, and with them the benchmark's pinned counters, so
/// that half waits for a change that re-pins them.
pub fn make_payload(node: u32, seq: u32) -> Vec<u8> {
    let mut p = Vec::with_capacity(PAYLOAD_LEN);
    p.extend_from_slice(&[0xA5, 0x5A, 0xA5, 0x5A]);
    p.extend_from_slice(&node.to_be_bytes());
    p.extend_from_slice(&seq.to_be_bytes());
    let seq_fold = seq.to_be_bytes().iter().fold(0u8, |a, &b| a ^ b);
    for i in 0..(PAYLOAD_LEN - 12) {
        p.push(
            (node as u8)
                .wrapping_mul(31)
                .wrapping_add(seq_fold)
                .wrapping_add(i as u8),
        );
    }
    p
}

/// Parses a payload back into `(node, seq)`; `None` if it does not match
/// the layout of [`make_payload`].
pub fn parse_payload(payload: &[u8]) -> Option<(u32, u32)> {
    if payload.len() != PAYLOAD_LEN || payload[..4] != [0xA5, 0x5A, 0xA5, 0x5A] {
        return None;
    }
    let node = u32::from_be_bytes([payload[4], payload[5], payload[6], payload[7]]);
    let seq = u32::from_be_bytes([payload[8], payload[9], payload[10], payload[11]]);
    if payload == make_payload(node, seq).as_slice() {
        Some((node, seq))
    } else {
        None
    }
}

/// Generates a random schedule: an aggregate offered load of `load_pps`
/// packets per second over `duration_s` seconds, split evenly across
/// `n_nodes` nodes, each packet at a uniformly random time (paper §8.1:
/// "a node transmits packets at randomly selected times").
///
/// Returns the schedule sorted by time.
pub fn generate_schedule<R: Rng + ?Sized>(
    rng: &mut R,
    n_nodes: usize,
    load_pps: f64,
    duration_s: f64,
    airtime_s: f64,
) -> Vec<ScheduledPacket> {
    let total = (load_pps * duration_s).round() as usize;
    let mut out = Vec::with_capacity(total);
    let latest = (duration_s - airtime_s).max(0.0);
    for k in 0..total {
        let node = (k % n_nodes) as u32;
        let seq = (k / n_nodes) as u32;
        out.push(ScheduledPacket {
            node,
            seq,
            time: rng.gen::<f64>() * latest,
        });
    }
    out.sort_by(|a, b| a.time.total_cmp(&b.time));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn payload_roundtrip() {
        for (node, seq) in [(0u32, 0u32), (7, 1), (24, 999), (65535, 65535)] {
            let p = make_payload(node, seq);
            assert_eq!(p.len(), PAYLOAD_LEN);
            assert_eq!(parse_payload(&p), Some((node, seq)));
        }
    }

    #[test]
    fn corrupted_payload_rejected() {
        let mut p = make_payload(3, 4);
        p[10] ^= 0xFF;
        assert_eq!(parse_payload(&p), None);
        assert_eq!(parse_payload(&p[..10]), None);
        assert_eq!(parse_payload(&[0u8; 16]), None);
    }

    #[test]
    fn schedule_counts_and_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = generate_schedule(&mut rng, 19, 10.0, 30.0, 0.15);
        assert_eq!(s.len(), 300);
        for p in &s {
            assert!(p.time >= 0.0 && p.time <= 30.0 - 0.15);
        }
        // Sorted by time.
        for w in s.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        // Packets spread across all nodes.
        let nodes: std::collections::HashSet<u32> = s.iter().map(|p| p.node).collect();
        assert_eq!(nodes.len(), 19);
    }

    #[test]
    fn city_scale_node_ids_roundtrip() {
        // Regression: node ids past u16::MAX must survive the payload
        // encoding (city-scale deployments address 10^5..10^6 nodes).
        for (node, seq) in [(65_536u32, 0u32), (250_000, 123), (u32::MAX, u32::MAX)] {
            let p = make_payload(node, seq);
            assert_eq!(p.len(), PAYLOAD_LEN);
            assert_eq!(parse_payload(&p), Some((node, seq)));
        }
        // Two nodes that collide mod 2^16 must produce distinct payloads.
        assert_ne!(make_payload(1, 0), make_payload(65_537, 0));
    }

    #[test]
    fn node_seq_pairs_unique() {
        let mut rng = StdRng::seed_from_u64(6);
        let s = generate_schedule(&mut rng, 5, 20.0, 3.0, 0.1);
        let mut seen = std::collections::HashSet::new();
        for p in &s {
            assert!(
                seen.insert((p.node, p.seq)),
                "duplicate {:?}",
                (p.node, p.seq)
            );
        }
    }
}
