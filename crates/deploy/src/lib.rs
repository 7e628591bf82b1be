//! City-scale deployment simulator for TnB (ROADMAP item 5).
//!
//! The paper evaluates TnB on single traces; network-level work such as
//! SS5G treats collision resolution as a *deployment* property — goodput
//! vs offered load, delay, per-node fairness — across thousands to
//! millions of devices and multiple gateways. This crate provides that
//! layer as a deterministic discrete-event simulation:
//!
//! - **Event model** ([`traffic`]): Poisson or bursty (duty-cycle
//!   constrained) transmissions on the sample clock. No wall clock
//!   anywhere — the crate is in the xtask determinism set.
//! - **Spatial model** ([`space`]): nodes drop uniformly on a planar
//!   city square; each node→gateway link maps distance to SNR through
//!   log-distance path loss plus seeded shadowing, which yields near-far
//!   power deltas and capture for free.
//! - **Streaming synthesis** ([`synth`]): each gateway's IQ stream is
//!   generated on the fly, one sample window at a time, from only the
//!   transmissions overlapping that window. Noise is a counter-based
//!   function of the absolute sample index, so any chunking of the
//!   stream is byte-identical — and a city-long trace is never resident
//!   in memory.
//! - **Sharded decode** ([`run`]): the timeline splits into fixed-size
//!   shards decoded by a work-stealing `std::thread::scope` pool and
//!   merged in shard order, so results are byte-identical for any
//!   worker count.
//! - **Network layer** ([`network`]): gateways emit the PR 5
//!   Semtech-style uplink lines; the network server parses those lines,
//!   deduplicates cross-gateway copies of the same transmission, and
//!   applies capture (strongest-gateway copy wins, deterministic
//!   tie-break).
//!
//! Everything is a pure function of [`DeployConfig`] (including its
//! seed); node state is derived statelessly by hashing, so memory
//! scales with the number of *transmissions*, not with `nodes ×
//! duration × sample_rate`.

pub mod network;
pub mod run;
pub mod space;
pub mod synth;
pub mod traffic;

pub use network::NetworkReport;
pub use run::{run_deploy, DeployReport};
pub use synth::Scene;
pub use traffic::{TrafficModel, Tx};

use tnb_phy::params::{CodingRate, SpreadingFactor};

/// Complete description of one deployment run. Every derived quantity —
/// node positions, link SNRs, traffic, IQ samples — is a pure function
/// of this struct, so two runs with equal configs are byte-identical
/// regardless of worker count or chunking.
#[derive(Debug, Clone, PartialEq)]
pub struct DeployConfig {
    /// Number of nodes in the city (node ids `0..nodes`).
    pub nodes: u32,
    /// Number of gateways (ids `0..gateways`).
    pub gateways: u32,
    /// Aggregate offered load over the whole city, packets per second.
    pub load_pps: f64,
    /// Simulated duration in seconds.
    pub duration_s: f64,
    /// Master seed; all randomness is hashed from it.
    pub seed: u64,
    /// Spreading factors in use, fastest first; each node is assigned
    /// one by link quality (ADR-style). Must be non-empty.
    pub sfs: Vec<SpreadingFactor>,
    /// Coding rate shared by all nodes.
    pub cr: CodingRate,
    /// Traffic model (Poisson or duty-cycle-constrained bursts).
    pub traffic: TrafficModel,
    /// Regulatory duty cycle per node (EU868: 0.01). After each packet a
    /// node stays silent for `airtime × (1/duty − 1)`.
    pub duty_cycle: f64,
    /// Side of the square deployment area, metres.
    pub side_m: f64,
    /// Log-normal shadowing standard deviation, dB.
    pub shadow_sigma_db: f64,
    /// Run the SIC rescue pass in every receiver.
    pub sic: bool,
    /// Wideband mode: gateways capture one `channels`-wide stream and
    /// decode through the polyphase [`tnb_core::WidebandReceiver`];
    /// nodes spread across uplink channels by hash.
    pub wideband: bool,
    /// Channel count `M` in wideband mode.
    pub channels: usize,
    /// Streaming chunk pushed into each receiver, in channel-rate
    /// samples. Purely an execution knob: results are chunk-invariant.
    pub chunk_samples: usize,
    /// Timeline shard length in channel-rate samples. Fixed by config —
    /// never derived from the worker count — so parallel runs stay
    /// byte-identical.
    pub shard_samples: u64,
}

impl Default for DeployConfig {
    fn default() -> Self {
        DeployConfig {
            nodes: 1_000,
            gateways: 2,
            load_pps: 20.0,
            duration_s: 2.0,
            seed: 1,
            sfs: vec![SpreadingFactor::SF8, SpreadingFactor::SF10],
            cr: CodingRate::CR4,
            traffic: TrafficModel::Poisson,
            duty_cycle: 0.01,
            side_m: 2_000.0,
            shadow_sigma_db: 6.0,
            sic: false,
            wideband: false,
            channels: 8,
            chunk_samples: 262_144,
            shard_samples: 1_000_000,
        }
    }
}

impl DeployConfig {
    /// Channel-rate sample rate (identical for every SF in this PHY:
    /// bandwidth × oversampling).
    pub fn sample_rate(&self) -> f64 {
        self.params(0).sample_rate()
    }

    /// PHY parameters of SF slot `i` (clamped into range so a malformed
    /// index degrades to the first slot instead of panicking).
    pub fn params(&self, sf_idx: usize) -> tnb_phy::params::LoRaParams {
        let sf = self
            .sfs
            .get(sf_idx)
            .or_else(|| self.sfs.first())
            .copied()
            .unwrap_or(SpreadingFactor::SF8);
        tnb_phy::params::LoRaParams::new(sf, self.cr)
    }
}
