//! Experiment harness reproducing the paper's evaluation (§8).
//!
//! Provides the three testbed deployments (SNR distributions calibrated to
//! Fig. 10), random traffic generation at the paper's offered loads, a
//! runner that synthesizes a trace and feeds it to every scheme, and the
//! metrics the figures report (throughput, PRR, medium usage, collision
//! level, BEC-rescued codewords). [`loopback`] is the gateway daemon's
//! end-to-end harness: narrowband or wideband traffic over a clean or
//! fault-injected link, checked byte for byte against a direct decode.

pub mod deployment;
pub mod loopback;
pub mod metrics;
pub mod runner;
pub mod traffic;

pub use deployment::Deployment;
pub use runner::{
    apply_faults, build_experiment, run_scheme, run_scheme_limited, run_scheme_observed,
    BuiltExperiment, ExperimentConfig, ExperimentResult,
};
