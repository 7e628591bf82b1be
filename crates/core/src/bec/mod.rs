//! Block Error Correction (paper §6).
//!
//! BEC decodes the same (8,4) Hamming code as the default LoRa decoder but
//! jointly over a whole code block, exploiting that a demodulation error
//! corrupts one *column* (one bit of every codeword at the same position).
//! It enumerates a small set of candidate error-column hypotheses — via
//! the *companion* structure of the code — produces a *BEC-fixed block*
//! for each, and lets the packet-level CRC select the right one.
//!
//! Capabilities (paper Table 1): CR 1/2 gain 1-symbol correction where the
//! default decoder only detects; CR 3 corrects 1-symbol and almost all
//! 2-symbol errors; CR 4 corrects all 1- and 2-symbol errors and over 96 %
//! of 3-symbol errors.

mod block;
mod packet;

pub mod analysis;

pub use block::{decode_block, BlockDecode};
pub use packet::{
    decode_header_with_bec, decode_payload_with_bec, w_limit, BecPacketDecode, BecStats,
};
