//! Reproduction harness for Carbon Explorer: one function per paper table
//! and figure, each returning the printed artifact as a `String`.
//!
//! The `repro` binary (`cargo run --release -p ce-bench --bin repro -- all`)
//! drives these; integration tests assert on their quantitative content.
//! Performance is measured by the repository benchmark in `perfbench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod experiments;

pub use context::{Context, Fidelity};
