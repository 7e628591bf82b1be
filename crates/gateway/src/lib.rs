//! tnb-gateway: a networked gateway daemon serving the TnB streaming
//! decoder over a framed IQ wire protocol.
//!
//! This crate turns the library pipeline into a deployable service, the
//! shape the paper's testbed uses (USRP frontends feeding a gateway
//! that forwards decoded LoRa frames upstream):
//!
//! - [`wire`] — the versioned, CRC-checked binary framing for IQ chunks
//!   (interleaved i16 IQ at 1 Msps) plus control verbs.
//! - [`server`] — the `std::net` TCP daemon: one reader + one decoder
//!   thread per connection, per-stream [`tnb_core::StreamDecoder`]s,
//!   bounded drop-oldest ingest queues, and `catch_unwind` fault
//!   containment.
//! - [`uplink`] — the JSON-lines uplink format for decoded packets
//!   (Semtech `PUSH_DATA`-style `rxpk` objects, timestamps from the
//!   sample clock — never the wall clock).
//! - [`client`] — the one wire-protocol client ([`GatewayClient`]),
//!   used by `tnb-sim`'s loopback harness, the CLI, and the
//!   integration tests: HELLO/RESUME sessions, seeded-backoff
//!   reconnect, and a bounded resend-from-last-acked buffer.
//! - [`stats`] — `Sync` control-plane counters ([`tnb_metrics::SharedCounter`])
//!   exposed through the STATS verb.
//! - [`netfaults`] — the deterministic network-chaos harness: a seeded
//!   [`netfaults::NetFaultPlan`] of socket-layer injectors (partial
//!   writes, split/coalesced reads, stall, disconnect-mid-frame, bit
//!   flip) applied by an in-process [`netfaults::ChaosProxy`], the
//!   transport-level mirror of the decode pipeline's `FaultPlan`.
//!
//! Everything is dependency-free (`std::net` only), and the whole
//! uplink path is deterministic: streaming the same trace yields
//! byte-identical JSON lines on every run and every worker count.

pub mod client;
pub mod netfaults;
pub mod server;
pub mod stats;
pub mod uplink;
pub mod wire;

pub use client::{ClientConfig, ClientStats, GatewayClient};
pub use netfaults::{ChaosProxy, NetFault, NetFaultPlan};
pub use server::{Gateway, GatewayConfig};
pub use stats::{GatewayStats, GatewayStatsSnapshot};
pub use wire::{Frame, FrameKind, FrameReader, WireError};
