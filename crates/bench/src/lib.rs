//! # dr-bench
//!
//! The experiment harness that regenerates every figure and table of the
//! paper's evaluation (§9). Each binary in `src/bin/` reproduces one figure
//! or table and prints its data series as a small CSV-like table. The
//! quick-scale output of every binary is pinned byte for byte under
//! `golden/` and checked by `golden.sh`.
//!
//! Experiments run at a reduced "quick" scale by default so the whole suite
//! finishes in minutes on a laptop; set the environment variable
//! `DR_FULL=1` to run at the paper's scale (up to 1000-node networks and
//! tens of thousands of queries).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod runner;

pub use runner::{full_scale, Series};
