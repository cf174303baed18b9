//! # dr-benchmark
//!
//! One command, six workloads, end-to-end and per-layer numbers for every
//! layer a tuple crosses in the declarative-routing engine — measured from
//! outside, through the engine's public API only. See `README.md` for the
//! metric glossary, the frozen API surface, and how to read the trace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod json;
pub mod metrics;
pub mod oracle;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
