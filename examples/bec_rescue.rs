//! Block Error Correction in isolation: corrupt two symbols of a CR-4
//! code block — beyond the default Hamming decoder — and watch BEC
//! recover the data via companions and the packet CRC.
//!
//! Run with: `cargo run --release --example bec_rescue`

use tnb::core::bec::{decode_header_with_bec, decode_payload_with_bec};
use tnb::phy::encoder::encode_packet_symbols;
use tnb::phy::hamming::{decode_default, encode};
use tnb::phy::params::{CodingRate, LoRaParams, SpreadingFactor};

fn main() {
    // --- Block level -----------------------------------------------------
    // The scenario of paper Fig. 2/Fig. 7: a CR-3 block with two corrupted
    // symbols (= two error columns).
    let cr = CodingRate::CR3;
    let data: Vec<u8> = vec![0x3, 0x5, 0x9, 0xC, 0x0, 0xF, 0x6, 0xA];
    let mut rows: Vec<u8> = data.iter().map(|&n| encode(n, cr)).collect();
    // Errors in columns 2 and 7 (1-indexed), row 7 hit in both.
    for (i, flips) in [0b00u8, 0b01, 0b10, 0b01, 0b10, 0b01, 0b11, 0b10]
        .iter()
        .enumerate()
    {
        if flips & 1 != 0 {
            rows[i] ^= 1 << 1; // column 2
        }
        if flips & 2 != 0 {
            rows[i] ^= 1 << 6; // column 7
        }
    }

    let default: Vec<u8> = rows.iter().map(|&r| decode_default(r, cr).nibble).collect();
    println!("true data        : {data:X?}");
    println!("default decoder  : {default:X?}  (row 7 mis-corrected)");
    let dec = tnb::core::bec::decode_block(&rows, cr);
    println!("BEC candidates   : {} blocks", dec.candidates.len());
    for (i, c) in dec.candidates.iter().enumerate() {
        let mark = if c == &data { "  <- true data" } else { "" };
        println!("  candidate {i}: {c:X?}{mark}");
    }

    // --- Packet level ----------------------------------------------------
    // Corrupt two payload symbols of a whole packet; the packet CRC picks
    // the right BEC-fixed combination.
    let params = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
    let payload = b"rescued by BEC!!".to_vec();
    let mut symbols = encode_packet_symbols(&payload, &params);
    symbols[8] = (symbols[8] + 100) % 256; // corrupt payload symbols 0 and 5
    symbols[13] = (symbols[13] + 77) % 256;
    let (header, extras, _) = decode_header_with_bec(&symbols, &params).expect("header decodes");
    let d = decode_payload_with_bec(&symbols[8..], &header, &extras, &params, None, None)
        .expect("BEC repairs the packet");
    println!(
        "\npacket level: decoded {:?} with {} rescued codewords, {} CRC checks",
        String::from_utf8_lossy(&d.payload),
        d.stats.rescued_codewords,
        d.stats.crc_checks,
    );
    assert_eq!(d.payload, payload);
}
