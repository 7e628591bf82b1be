//! The TnB LoRa collision decoder (the paper's contribution).
//!
//! Pipeline (paper Fig. 3): packet detection → per-packet signal-vector
//! calculation → **Thrive** peak assignment → **BEC** block error
//! correction, composed into [`TnbReceiver`].
//!
//! The receiver has three decode methods:
//! [`decode`](TnbReceiver::decode) (packets of one antenna),
//! [`decode_with_report`](TnbReceiver::decode_with_report) (plus the
//! per-packet [`DecodeReport`]) and
//! [`decode_multi_report_observed`](TnbReceiver::decode_multi_report_observed)
//! (any number of antennas, with a caller-owned [`PipelineMetrics`]
//! sink). [`TnbReceiver::with_workers`] sets the decode thread count;
//! the output is byte-identical for any count.

pub mod bec;
pub mod detect;
pub mod packet;
mod parallel;
pub mod receiver;
pub mod sic;
pub mod sigcalc;
pub mod streaming;
pub mod sync;
pub mod thrive;
pub mod wideband;

/// Pipeline observability (counters, gauges, histograms), re-exported so
/// downstream crates reach it without a manifest dependency of their own.
pub use tnb_metrics as metrics;

pub use detect::{Detector, DetectorConfig};
pub use packet::{same_transmission, DecodedPacket, DetectedPacket};
pub use receiver::{DecodeOutcome, DecodeReport, DegradeReason, TnbConfig, TnbReceiver};
pub use sic::SicConfig;
pub use streaming::{Overlap, Owned, StreamingConfig, StreamingReceiver};
pub use tnb_metrics::{MetricsSnapshot, PipelineMetrics, Stage, StageCounters};
pub use wideband::{ChannelPacket, StreamDecoder, WidebandConfig, WidebandReceiver};
