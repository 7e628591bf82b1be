//! Shared utilities for the experiment binaries in `src/bin/` (one binary
//! per paper table/figure).

pub mod args;
pub mod table;

pub use args::ExpArgs;
pub use table::TablePrinter;
