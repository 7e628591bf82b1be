//! Payload whitening.
//!
//! LoRa whitens payload bytes with a fixed pseudo-random sequence so the
//! transmitted symbols look noise-like. Vendors differ on the exact LFSR;
//! we use the PN9 sequence (polynomial x⁹ + x⁵ + 1, seed all-ones), a
//! documented substitution (DESIGN.md): both our transmitter and all
//! receivers use the same sequence, and every algorithm under test operates
//! below the whitening layer, so the choice cannot affect any result.
//!
//! Whitening is an involution (`whiten(whiten(x)) == x`), so the same
//! function serves both directions.

/// Generates the `n`-th..`n+len` bytes of the PN9 whitening sequence.
fn pn9_bytes(len: usize) -> Vec<u8> {
    let mut state: u16 = 0x1FF;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let mut byte = 0u8;
        for bit in 0..8 {
            let out_bit = (state & 1) as u8;
            byte |= out_bit << bit;
            // Feedback: x^9 + x^5 + 1 → new MSB = bit0 ⊕ bit5.
            let fb = (state ^ (state >> 5)) & 1;
            state = (state >> 1) | (fb << 8);
        }
        out.push(byte);
    }
    out
}

/// XORs `data` with the whitening sequence in place.
pub fn whiten_in_place(data: &mut [u8]) {
    let seq = pn9_bytes(data.len());
    for (b, w) in data.iter_mut().zip(seq) {
        *b ^= w;
    }
}

/// Returns a whitened (or de-whitened) copy of `data`.
pub fn whiten(data: &[u8]) -> Vec<u8> {
    let mut out = data.to_vec();
    whiten_in_place(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn involution() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(whiten(&whiten(&data)), data);
    }

    #[test]
    fn sequence_is_deterministic() {
        assert_eq!(pn9_bytes(4), pn9_bytes(8)[..4].to_vec());
    }

    /// Maximal-length period of the 9-bit PN9 LFSR.
    const PN9_PERIOD_BITS: usize = 511;

    #[test]
    fn sequence_has_full_period() {
        // The 9-bit LFSR state must cycle through all 511 nonzero states.
        let mut state: u16 = 0x1FF;
        let mut seen = std::collections::HashSet::new();
        loop {
            if !seen.insert(state) {
                break;
            }
            let fb = (state ^ (state >> 5)) & 1;
            state = (state >> 1) | (fb << 8);
        }
        assert_eq!(seen.len(), PN9_PERIOD_BITS);
    }

    #[test]
    fn whitening_changes_constant_data() {
        // An all-zero payload must become noise-like (no long zero runs).
        let w = whiten(&[0u8; 64]);
        assert!(w.iter().filter(|&&b| b == 0).count() <= 2);
        let ones: u32 = w.iter().map(|b| b.count_ones()).sum();
        // Balanced within a loose band: ~50% ones.
        assert!((180..330).contains(&ones), "ones={ones}");
    }

    #[test]
    fn empty_input() {
        assert!(whiten(&[]).is_empty());
    }
}
