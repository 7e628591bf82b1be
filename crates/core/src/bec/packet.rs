//! Packet-level BEC decoding (paper §6.9): assemble per-block candidate
//! BEC-fixed blocks into repaired packets and test the packet-level CRC,
//! trying at most `W` combinations.

use super::block::{decode_block, BlockDecode};
use tnb_phy::block as phy_block;
use tnb_phy::decoder::{assemble_payload, default_decode_rows, received_payload_blocks};
use tnb_phy::header::{Header, HEADER_NIBBLES};
use tnb_phy::params::{CodingRate, LoRaParams};

/// The paper's `W` limits on CRC attempts per packet: 125 for CR 1
/// (more BEC-fixed blocks are generated there), 16 otherwise.
pub fn w_limit(cr: CodingRate) -> usize {
    match cr {
        CodingRate::CR1 => 125,
        _ => 16,
    }
}

/// Statistics from a BEC packet decode, feeding the paper's Fig. 16 and
/// Table 2 metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BecStats {
    /// Codewords decoded by BEC that the default decoder got wrong
    /// ("BEC rescued codewords", Fig. 16).
    pub rescued_codewords: usize,
    /// Number of packet-CRC evaluations performed.
    pub crc_checks: usize,
    /// Number of blocks where BEC generated repair candidates.
    pub repaired_blocks: usize,
    /// Total repair candidates generated across all blocks (the size of
    /// the combination space BEC draws from, before the `W` cap).
    pub candidates_generated: usize,
    /// The per-packet candidate budget ran out: later blocks fell back to
    /// their default decode without enumerating repairs.
    pub budget_exhausted: bool,
}

/// Successful BEC packet decode.
#[derive(Debug, Clone)]
pub struct BecPacketDecode {
    /// The CRC-validated payload.
    pub payload: Vec<u8>,
    /// Decode statistics.
    pub stats: BecStats,
}

/// Decodes the 8 header symbols with BEC (paper §4: "once the PHY header
/// has been received, BEC is called to decode the PHY header").
///
/// The header block is CR 4 with `SF − 2` rows; its validity gate is the
/// header checksum rather than the packet CRC. Returns the parsed header
/// and the payload nibbles the header block carries (from the candidate
/// that passed), plus alternative extra-nibble sets from other passing
/// candidates (rare; they are tried against the packet CRC later).
pub fn decode_header_with_bec(
    symbols: &[u16],
    params: &LoRaParams,
) -> Option<(Header, Vec<Vec<u8>>, BecStats)> {
    if symbols.len() < LoRaParams::HEADER_SYMBOLS {
        return None;
    }
    let rows = phy_block::receive_header_block(&symbols[..LoRaParams::HEADER_SYMBOLS], params);
    let dec = decode_block(&rows, CodingRate::CR4);
    let mut stats = BecStats {
        repaired_blocks: dec.repaired as usize,
        candidates_generated: dec.candidates.len(),
        ..BecStats::default()
    };
    let mut header: Option<Header> = None;
    let mut extras: Vec<Vec<u8>> = Vec::new();
    for cand in &dec.candidates {
        if let Some(h) = Header::from_nibbles(&cand[..HEADER_NIBBLES]) {
            match header {
                None => header = Some(h),
                // Conflicting candidate headers would be unresolvable;
                // keep the first and only collect extras that agree.
                Some(prev) if prev != h => continue,
                Some(_) => {}
            }
            let extra = cand[HEADER_NIBBLES..].to_vec();
            if !extras.contains(&extra) {
                extras.push(extra);
            }
            if cand[..] != dec.default_nibbles[..] {
                stats.rescued_codewords += cand
                    .iter()
                    .zip(&dec.default_nibbles)
                    .filter(|(a, b)| a != b)
                    .count();
            }
        }
    }
    header.map(|h| (h, extras, stats))
}

/// Decodes the payload symbols with BEC, given the already-decoded header
/// and the candidate header-block extra nibbles.
///
/// `payload_symbols` must hold exactly the packet's payload symbols (the
/// caller computes the count from the header). Candidate combinations are
/// tried against the packet CRC, at most `W` of them; when the product of
/// per-block candidate counts exceeds `W`, a deterministic
/// pseudo-random subset is tried (the paper selects randomly; a seeded
/// LCG keeps results reproducible).
///
/// `w_override` replaces the paper's [`w_limit`] (paper §6.9 notes that
/// lowering W from 125 to 25 for CR 1 loses < 5 % of the decoded packets
/// — the `ablation_w` binary reproduces this). `candidate_budget` caps the
/// repair candidates per packet: once the blocks decoded so far have
/// generated more than that many, the remaining blocks contribute only
/// their default decode and `stats.budget_exhausted` is set. This bounds
/// the work an adversarial symbol stream can trigger while leaving clean
/// traces (whose candidate counts are tiny) bit-identical.
pub fn decode_payload_with_bec(
    payload_symbols: &[u16],
    header: &Header,
    header_extras: &[Vec<u8>],
    params: &LoRaParams,
    w_override: Option<usize>,
    candidate_budget: Option<usize>,
) -> Result<BecPacketDecode, BecStats> {
    let mut p = *params;
    p.cr = header.cr;
    let payload_len = header.payload_len as usize;

    let mut stats = BecStats::default();

    // Per-"block" candidate lists. Block 0 is the header block's extra
    // nibbles (already BEC'd by the header decode).
    let mut block_candidates: Vec<Vec<Vec<u8>>> = Vec::new();
    let mut default_choice: Vec<Vec<u8>> = Vec::new();
    if header_extras.is_empty() {
        block_candidates.push(vec![Vec::new()]);
        default_choice.push(Vec::new());
    } else {
        block_candidates.push(header_extras.to_vec());
        default_choice.push(header_extras[0].clone());
    }

    for rows in received_payload_blocks(payload_symbols, &p) {
        if candidate_budget.is_some_and(|b| stats.candidates_generated > b) {
            // Budget gone: skip BEC enumeration entirely for the rest of
            // the packet; the plain Hamming decode stands in.
            stats.budget_exhausted = true;
            let default_nibbles = default_decode_rows(&rows, p.cr);
            block_candidates.push(vec![default_nibbles.clone()]);
            default_choice.push(default_nibbles);
            continue;
        }
        let BlockDecode {
            candidates,
            default_nibbles,
            repaired,
        } = decode_block(&rows, p.cr);
        stats.repaired_blocks += repaired as usize;
        stats.candidates_generated += candidates.len();
        block_candidates.push(candidates);
        default_choice.push(default_nibbles);
    }

    let counts: Vec<usize> = block_candidates.iter().map(Vec::len).collect();
    let total: usize = counts
        .iter()
        .try_fold(1usize, |a, &b| a.checked_mul(b))
        .unwrap_or(usize::MAX);
    let w = w_override.unwrap_or_else(|| w_limit(header.cr)).max(1);

    let try_combo = |combo: &[usize], stats: &mut BecStats| -> Option<Vec<u8>> {
        let mut nibbles = Vec::new();
        for (b, &ci) in combo.iter().enumerate() {
            nibbles.extend_from_slice(&block_candidates[b][ci]);
        }
        stats.crc_checks += 1;
        assemble_payload(&nibbles, payload_len).ok()
    };

    let rescued = |combo: &[usize]| -> usize {
        combo
            .iter()
            .enumerate()
            .map(|(b, &ci)| {
                block_candidates[b][ci]
                    .iter()
                    .zip(&default_choice[b])
                    .filter(|(x, y)| x != y)
                    .count()
            })
            .sum()
    };

    if total <= w {
        // Exhaustive, in mixed-radix order (default candidates first).
        let mut combo = vec![0usize; counts.len()];
        loop {
            if let Some(payload) = try_combo(&combo, &mut stats) {
                stats.rescued_codewords = rescued(&combo);
                return Ok(BecPacketDecode { payload, stats });
            }
            // Increment the mixed-radix counter.
            let mut i = 0;
            loop {
                if i == counts.len() {
                    return Err(stats);
                }
                combo[i] += 1;
                if combo[i] < counts[i] {
                    break;
                }
                combo[i] = 0;
                i += 1;
            }
        }
    } else {
        // W combinations sampled *without replacement*: walk the
        // mixed-radix index space with a stride coprime to its size, so
        // every attempt tests a distinct combination (the paper samples
        // randomly; a deterministic permutation is reproducible and never
        // wastes a CRC on a repeat). Attempt 0 is always the all-default
        // combination, the single most likely one.
        let stride = {
            let mut s = (0x9E3779B97F4A7C15u64 % total as u64) as usize | 1;
            while gcd(s, total) != 1 {
                s += 2;
            }
            s
        };
        let mut combo = vec![0usize; counts.len()];
        let mut index = 0usize;
        for _ in 0..w.min(total) {
            // Decode the mixed-radix index into per-block choices.
            let mut rem = index;
            for (i, &c) in counts.iter().enumerate() {
                combo[i] = rem % c;
                rem /= c;
            }
            if let Some(payload) = try_combo(&combo, &mut stats) {
                stats.rescued_codewords = rescued(&combo);
                return Ok(BecPacketDecode { payload, stats });
            }
            index = (index + stride) % total;
        }
        Err(stats)
    }
}

/// Greatest common divisor (for the coprime combination stride).
fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnb_phy::encoder::encode_packet_symbols;
    use tnb_phy::params::{LoRaParams, SpreadingFactor};

    fn make(sf: SpreadingFactor, cr: CodingRate, payload: &[u8]) -> (Vec<u16>, LoRaParams) {
        let p = LoRaParams::new(sf, cr);
        (encode_packet_symbols(payload, &p), p)
    }

    fn header_and_payload(symbols: &[u16], params: &LoRaParams) -> Option<Vec<u8>> {
        let (h, extras, _) = decode_header_with_bec(symbols, params)?;
        let rest = &symbols[LoRaParams::HEADER_SYMBOLS..];
        decode_payload_with_bec(rest, &h, &extras, params, None, None)
            .ok()
            .map(|d| d.payload)
    }

    #[test]
    fn clean_packet_decodes_all_crs() {
        let payload: Vec<u8> = (0..16).map(|i| i * 3 + 1).collect();
        for cr in CodingRate::ALL {
            let (symbols, p) = make(SpreadingFactor::SF8, cr, &payload);
            assert_eq!(
                header_and_payload(&symbols, &p).as_deref(),
                Some(&payload[..]),
                "cr={cr:?}"
            );
        }
    }

    /// Corrupt `n_sym` payload symbols of the same payload block: this is
    /// exactly an n-column block error.
    fn corrupt_payload_symbols(symbols: &mut [u16], which: &[usize], params: &LoRaParams) {
        let n = params.n() as u16;
        for &i in which {
            let idx = LoRaParams::HEADER_SYMBOLS + i;
            // A large bin error (not ±1): flips several Gray bits.
            symbols[idx] = (symbols[idx] + n / 3 + 7) % n;
        }
    }

    #[test]
    fn bec_rescues_two_symbol_errors_cr4() {
        // Two corrupted symbols in one CR 4 block: beyond the default
        // decoder whenever some row takes 2 errors, but always within BEC
        // (paper Table 1).
        let payload = b"block error corr".to_vec();
        let (mut symbols, p) = make(SpreadingFactor::SF8, CodingRate::CR4, &payload);
        corrupt_payload_symbols(&mut symbols, &[0, 5], &p);
        assert_eq!(header_and_payload(&symbols, &p), Some(payload));
    }

    #[test]
    fn bec_rescues_one_symbol_error_cr1_and_cr2() {
        for cr in [CodingRate::CR1, CodingRate::CR2] {
            let payload = b"detect->correct!".to_vec();
            let (mut symbols, p) = make(SpreadingFactor::SF8, cr, &payload);
            corrupt_payload_symbols(&mut symbols, &[2], &p);
            assert_eq!(header_and_payload(&symbols, &p), Some(payload), "cr={cr:?}");
        }
    }

    #[test]
    fn bec_rescues_two_symbol_errors_cr3() {
        let payload = b"cr3 has 7 cols!!".to_vec();
        let (mut symbols, p) = make(SpreadingFactor::SF8, CodingRate::CR3, &payload);
        corrupt_payload_symbols(&mut symbols, &[1, 4], &p);
        assert_eq!(header_and_payload(&symbols, &p), Some(payload));
    }

    #[test]
    fn bec_rescues_errors_in_two_different_blocks() {
        let payload = b"two bad blocks :".to_vec();
        let (mut symbols, p) = make(SpreadingFactor::SF8, CodingRate::CR4, &payload);
        // Symbols 0 and 5 are in block 1; 8+2 and 8+6 in block 2.
        corrupt_payload_symbols(&mut symbols, &[0, 5, 10, 14], &p);
        assert_eq!(header_and_payload(&symbols, &p), Some(payload));
    }

    #[test]
    fn candidate_budget_falls_back_to_default_decode() {
        // Budget 0 lets the first payload block enumerate its repairs and
        // forces every later block onto the plain Hamming decode.
        let payload = b"budget the saves".to_vec();
        let (clean, p) = make(SpreadingFactor::SF8, CodingRate::CR4, &payload);
        let (h, extras, _) = decode_header_with_bec(&clean, &p).unwrap();
        let decode = |symbols: &[u16], budget| {
            decode_payload_with_bec(
                &symbols[LoRaParams::HEADER_SYMBOLS..],
                &h,
                &extras,
                &p,
                None,
                budget,
            )
        };

        // Errors only in the first block: the later, clean blocks decode
        // by default and the packet still passes its CRC.
        let mut first = clean.clone();
        corrupt_payload_symbols(&mut first, &[0, 5], &p);
        let full = decode(&first, None).unwrap();
        assert!(!full.stats.budget_exhausted);
        let capped = decode(&first, Some(0)).unwrap();
        assert_eq!(capped.payload, payload);
        assert!(capped.stats.budget_exhausted);
        assert_eq!(capped.stats.repaired_blocks, 1);
        assert!(capped.stats.candidates_generated < full.stats.candidates_generated);

        // A second broken block is past the budget, so BEC never sees it.
        let mut both = first.clone();
        corrupt_payload_symbols(&mut both, &[10, 14], &p);
        assert_eq!(decode(&both, None).unwrap().payload, payload);
        let stats = decode(&both, Some(0)).unwrap_err();
        assert!(stats.budget_exhausted);
        assert_eq!(stats.repaired_blocks, 1);
    }

    #[test]
    fn bec_rescues_corrupted_header_symbol() {
        let payload = b"header needs bec".to_vec();
        let (mut symbols, p) = make(SpreadingFactor::SF10, CodingRate::CR2, &payload);
        let n = p.n() as u16;
        // Corrupt 2 of the 8 header symbols badly.
        symbols[1] = (symbols[1] + n / 2 + 13) % n;
        symbols[6] = (symbols[6] + n / 4 + 9) % n;
        assert_eq!(header_and_payload(&symbols, &p), Some(payload));
    }

    #[test]
    fn stats_count_rescued_codewords() {
        let payload = b"count the saves!".to_vec();
        let (mut symbols, p) = make(SpreadingFactor::SF8, CodingRate::CR4, &payload);
        corrupt_payload_symbols(&mut symbols, &[0, 5], &p);
        let (h, extras, _) = decode_header_with_bec(&symbols, &p).unwrap();
        let d = decode_payload_with_bec(
            &symbols[LoRaParams::HEADER_SYMBOLS..],
            &h,
            &extras,
            &p,
            None,
            None,
        )
        .unwrap();
        assert!(d.stats.rescued_codewords > 0);
        assert!(d.stats.repaired_blocks >= 1);
        assert!(d.stats.crc_checks >= 1);
    }

    #[test]
    fn hopeless_corruption_fails_without_panic() {
        let payload = b"too many errors.".to_vec();
        let (mut symbols, p) = make(SpreadingFactor::SF8, CodingRate::CR4, &payload);
        // Corrupt most payload symbols.
        let all: Vec<usize> = (0..symbols.len() - 8).collect();
        corrupt_payload_symbols(&mut symbols, &all, &p);
        assert_eq!(header_and_payload(&symbols, &p), None);
    }

    #[test]
    fn crc_attempts_bounded_by_w() {
        let payload = b"respect the W!!!".to_vec();
        let (mut symbols, p) = make(SpreadingFactor::SF8, CodingRate::CR1, &payload);
        // Corrupt one symbol in each of several CR1 blocks so every block
        // yields 5 candidates: the product blows past W = 125.
        corrupt_payload_symbols(&mut symbols, &[0, 5, 10, 15, 20], &p);
        let (h, extras, _) = decode_header_with_bec(&symbols, &p).unwrap();
        let res = decode_payload_with_bec(&symbols[8..], &h, &extras, &p, None, None);
        let stats = match res {
            Ok(d) => d.stats,
            Err(s) => s,
        };
        assert!(stats.crc_checks <= w_limit(CodingRate::CR1));
    }

    #[test]
    fn garbage_header_returns_none() {
        let p = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
        let symbols: Vec<u16> = (0..8).map(|i| (i * 97 + 31) % 256).collect();
        assert!(decode_header_with_bec(&symbols, &p).is_none());
        assert!(decode_header_with_bec(&symbols[..4], &p).is_none());
    }
}
