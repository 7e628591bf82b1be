//! Theoretical analysis of BEC (paper Appendix A): the Ψ recursion and
//! Lemma 4's closed-form decoding-error probability for CR 4 with three
//! error columns, plus a Monte-Carlo counterpart. Reproduces paper
//! Fig. 20.

use super::block::decode_block;
use tnb_phy::hamming::encode;
use tnb_phy::params::CodingRate;

/// Ψ_x (paper §A.7): probability that exactly `x` *distinct* error
/// combinations (out of the 8 possible per-row patterns over 3 error
/// columns) occur across the SF rows of a block, under the independence
/// assumption.
///
/// Ψ₁ = (1/8)^SF; Ψ_x = (x/8)^SF − Σ_{y<x} C(x,y)·Ψ_y.
pub fn psi(x: usize, sf: usize) -> f64 {
    assert!((1..=8).contains(&x)); // tnb-lint: allow(TNB-PANIC02) -- analysis-only helper; x outside 1..=8 is a caller bug in closed-form math, not decode input
    let mut table = vec![0.0f64; x + 1];
    for xx in 1..=x {
        let mut v = (xx as f64 / 8.0).powi(sf as i32);
        for (y, &py) in table.iter().enumerate().take(xx).skip(1) {
            v -= binomial(xx, y) as f64 * py;
        }
        table[xx] = v;
    }
    table[x]
}

fn binomial(n: usize, k: usize) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut num: u64 = 1;
    let mut den: u64 = 1;
    for i in 0..k {
        num *= (n - i) as u64;
        den *= (i + 1) as u64;
    }
    num / den
}

/// Lemma 4 (paper §A.7): decoding-error probability of BEC for CR 4 with
/// three error columns, under the independence assumption:
/// `Ψ₁ + 7Ψ₂ + 9Ψ₃ + 3Ψ₄ + 2^{−SF}`.
pub fn lemma4_error_probability(sf: usize) -> f64 {
    psi(1, sf) + 7.0 * psi(2, sf) + 9.0 * psi(3, sf) + 3.0 * psi(4, sf) + 2f64.powi(-(sf as i32))
}

/// Decoding-error probability of BEC for CR 3 with two error columns
/// (paper §A.5): the failure mode is every row having errors in both or
/// neither column, so that Ξ holds only the companion and BEC returns
/// prematurely — probability `2^{−SF}` under the independence assumption.
// tnb-lint: allow(TNB-DEAD01) -- the paper's §A.5 error-probability analysis, checked against simulation by its own test
pub fn cr3_2col_error_probability(sf: usize) -> f64 {
    2f64.powi(-(sf as i32))
}

/// Monte-Carlo counterpart of [`cr3_2col_error_probability`].
// tnb-lint: allow(TNB-DEAD01) -- the simulation the §A.5 analysis is checked against
pub fn simulate_cr3_2col_error_probability(sf: usize, trials: usize, seed: u64) -> f64 {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut failures = 0usize;
    for _ in 0..trials {
        let c1 = (next() % 7) as usize;
        let c2 = loop {
            let c = (next() % 7) as usize;
            if c != c1 {
                break c;
            }
        };
        let nibbles: Vec<u8> = (0..sf).map(|_| (next() % 16) as u8).collect();
        let mut rows: Vec<u8> = nibbles
            .iter()
            .map(|&n| encode(n, CodingRate::CR3))
            .collect();
        for row in rows.iter_mut() {
            for &c in &[c1, c2] {
                if next() & 1 == 1 {
                    *row ^= 1 << c;
                }
            }
        }
        let dec = decode_block(&rows, CodingRate::CR3);
        if !dec.candidates.iter().any(|c| c == &nibbles) {
            failures += 1;
        }
    }
    failures as f64 / trials as f64
}

/// Monte-Carlo estimate of the same probability: random data, three
/// random error columns, each bit of an error column flipped with
/// probability 0.5 (the paper's independence assumption — rows may end up
/// error-free). A trial fails when the true data is not among BEC's
/// candidates.
pub fn simulate_3col_error_probability(sf: usize, trials: usize, seed: u64) -> f64 {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut failures = 0usize;
    for _ in 0..trials {
        // Three distinct random columns out of 8.
        let mut cols = [0usize; 3];
        cols[0] = (next() % 8) as usize;
        loop {
            cols[1] = (next() % 8) as usize;
            if cols[1] != cols[0] {
                break;
            }
        }
        loop {
            cols[2] = (next() % 8) as usize;
            if cols[2] != cols[0] && cols[2] != cols[1] {
                break;
            }
        }
        let nibbles: Vec<u8> = (0..sf).map(|_| (next() % 16) as u8).collect();
        let mut rows: Vec<u8> = nibbles
            .iter()
            .map(|&n| encode(n, CodingRate::CR4))
            .collect();
        for row in rows.iter_mut() {
            for &c in &cols {
                if next() & 1 == 1 {
                    *row ^= 1 << c;
                }
            }
        }
        let dec = decode_block(&rows, CodingRate::CR4);
        if !dec.candidates.iter().any(|c| c == &nibbles) {
            failures += 1;
        }
    }
    failures as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psi_values_sane() {
        for sf in 7..=12 {
            let p1 = psi(1, sf);
            assert!((p1 - (1.0f64 / 8.0).powi(sf as i32)).abs() < 1e-15);
            // Ψ decreasing in x for small x at these SFs, and all
            // probabilities in [0, 1].
            for x in 1..=8 {
                let p = psi(x, sf);
                assert!((0.0..=1.0).contains(&p), "sf={sf} x={x} p={p}");
            }
        }
    }

    #[test]
    fn psi_sums_to_one() {
        // Σ_x C(8,x)·Ψ_x = 1: every block realises some number of distinct
        // patterns.
        for sf in 7..=10 {
            let total: f64 = (1..=8).map(|x| binomial(8, x) as f64 * psi(x, sf)).sum();
            assert!((total - 1.0).abs() < 1e-9, "sf={sf} total={total}");
        }
    }

    #[test]
    fn lemma4_matches_paper_fig20_shape() {
        // Paper Fig. 20: error probability < 0.04 at SF 7 and decreasing
        // with SF.
        let p7 = lemma4_error_probability(7);
        assert!(p7 < 0.04, "p7 = {p7}");
        let mut prev = p7;
        for sf in 8..=12 {
            let p = lemma4_error_probability(sf);
            assert!(p < prev, "sf={sf}: {p} !< {prev}");
            prev = p;
        }
    }

    #[test]
    fn simulation_close_to_analysis() {
        // Paper Fig. 20: "the analysis and the simulation results are
        // reasonably close".
        for sf in [7usize, 8] {
            let analytic = lemma4_error_probability(sf);
            let sim = simulate_3col_error_probability(sf, 20_000, 99);
            assert!(
                (sim - analytic).abs() < analytic.max(0.002) * 0.8 + 0.004,
                "sf={sf}: sim {sim} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn cr3_analysis_close_to_simulation() {
        // §A.5: error probability 2^-SF for CR 3 with 2 error columns.
        for sf in [7usize, 8] {
            let a = cr3_2col_error_probability(sf);
            let s = simulate_cr3_2col_error_probability(sf, 60_000, 0xC3);
            assert!(
                (s - a).abs() < a * 0.9 + 0.002,
                "sf={sf}: sim {s} vs analytic {a}"
            );
        }
    }

    #[test]
    fn binomial_basics() {
        assert_eq!(binomial(8, 0), 1);
        assert_eq!(binomial(8, 3), 56);
        assert_eq!(binomial(4, 2), 6);
        assert_eq!(binomial(3, 5), 0);
    }
}
