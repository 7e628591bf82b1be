//! DSP substrate for the TnB LoRa collision decoder.
//!
//! This crate provides the numeric building blocks that the rest of the
//! workspace is built on. Everything is implemented from scratch so the
//! workspace has no external DSP dependencies:
//!
//! - [`Complex32`]: a minimal complex number type over `f32`, the sample
//!   format of the synthetic traces (the paper's USRP traces store 16-bit
//!   integer I/Q, which `f32` covers exactly).
//! - [`fft`]: an iterative radix-2 Cooley–Tukey FFT with a reusable
//!   [`fft::FftPlan`]. All transform sizes in LoRa processing are powers of
//!   two (`2^SF · OSF`), so radix-2 is sufficient and simple.
//! - [`peakfinder`]: a port of the MATLAB `peakfinder` routine the paper uses
//!   for peak detection (reference \[29\] in the paper).
//! - [`smooth`]: the centred moving mean standing in for MATLAB
//!   `smoothdata`, used by Thrive's peak-height history model.
//! - [`stats`]: median / percentile / dB helpers used throughout the
//!   evaluation harness.
//! - [`scratch`]: the per-thread [`DspScratch`] workspace (cached FFT
//!   plans, reusable de-chirp/spectrum buffers and the signal-vector
//!   arena) that keeps the steady-state decode loop free of per-symbol
//!   allocations.
//! - [`simd`]: runtime-dispatched SIMD kernels (AVX2 or scalar) for the
//!   hot inner loops, bit-identical to the scalar reference; non-x86
//!   hosts run the scalar bodies.
//! - [`channelizer`]: a polyphase DFT filterbank splitting one wideband
//!   IQ stream into the per-channel streams the receivers consume.
//!
//! Design follows the workspace's networking-code guidelines: simple,
//! event-free, allocation-conscious synchronous code with no macro or type
//! tricks.

pub mod channelizer;
pub mod complex;
pub mod fft;
pub mod peakfinder;
pub mod scratch;
pub mod simd;
pub mod smooth;
pub mod stats;

pub use channelizer::{Channelizer, ChannelizerConfig};
pub use complex::Complex32;
pub use fft::FftPlan;
pub use peakfinder::{find_peaks, Peak};
pub use scratch::{DspScratch, FftPlanCache, RotatorMemo};
