//! # dr-baselines
//!
//! A hand-coded implementation of the traditional routing protocol the
//! paper compares against: the **path-vector** protocol of Figure 6's "PV"
//! line. It runs directly as a [`dr_netsim::NodeApp`] — no query engine
//! involved — and exchanges batched route advertisements exactly like a
//! classic implementation, so its convergence latency and communication
//! overhead are the reference point for the declarative version.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod path_vector;

pub use path_vector::{PathVectorConfig, PathVectorNode, RouteEntry};
