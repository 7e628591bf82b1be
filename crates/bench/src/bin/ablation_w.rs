//! W ablation (paper §6.9): the number of packet-CRC attempts `W` caps
//! BEC's packet-level search. The paper: "when the CR is 1, changing W to
//! 25 reduces the number of decoded packets by less than 5%."
//!
//! Monte-Carlo over CR-1 packets with several corrupted symbols spread
//! across blocks (the regime where the candidate product explodes).

use tnb_bench::TablePrinter;
use tnb_core::bec::{decode_header_with_bec, decode_payload_with_bec};
use tnb_phy::encoder::encode_packet_symbols;
use tnb_phy::params::{CodingRate, LoRaParams, SpreadingFactor};

struct Xorshift(u64);
impl Xorshift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let trials = if quick { 300 } else { 2000 };
    let params = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR1);
    let n = params.n() as u16;
    println!("W ablation, CR 1, SF 8 ({trials} packets per cell)");
    println!("one corrupted symbol per corrupted block; 5 BEC candidates/block -> 5^k combos\n");

    let mut t = TablePrinter::new(["corrupted blocks", "W=125", "W=50", "W=25", "W=10", "W=5"]);
    for k_blocks in 1..=4usize {
        let mut cells: Vec<String> = vec![format!("{k_blocks} (5^{k_blocks} combos)")];
        for &w in &[125usize, 50, 25, 10, 5] {
            let mut rng = Xorshift(0xAB1A7E + k_blocks as u64);
            let mut ok = 0usize;
            for k in 0..trials {
                let payload: Vec<u8> = (0..16)
                    .map(|i| (k as u8).wrapping_mul(7).wrapping_add(i))
                    .collect();
                let mut symbols = encode_packet_symbols(&payload, &params);
                // One corrupted symbol in each of the first k payload
                // blocks (5 symbols per CR-1 block).
                for b in 0..k_blocks {
                    let idx = 8 + b * 5 + (rng.next() as usize % 5);
                    let err = 1 + (rng.next() as u16 % (n - 1));
                    symbols[idx] = (symbols[idx] + err) % n;
                }
                let Some((h, extras, _)) = decode_header_with_bec(&symbols, &params) else {
                    continue;
                };
                if let Ok(d) =
                    decode_payload_with_bec(&symbols[8..], &h, &extras, &params, Some(w), None)
                {
                    ok += (d.payload == payload) as usize;
                }
            }
            cells.push(format!("{:.2}", ok as f64 / trials as f64));
        }
        t.row(cells);
    }
    t.print();
    println!(
        "\npaper (\u{00a7}6.9): on the real traces, W=25 loses < 5% vs W=125 for CR 1 \u{2014}"
    );
    println!("consistent with the rows above when most packets corrupt <= 2 blocks");
    println!("(5^2 = 25 combos, still exhaustively searched at W=25).");
}
