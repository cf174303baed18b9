//! # dr-types
//!
//! Foundational types shared by every crate of the declarative-routing
//! workspace: node addresses, link/path costs, the dynamically-typed
//! [`Value`] used by the Datalog engine, relational [`Tuple`]s, and the
//! common error type.
//!
//! The paper ("Declarative Routing: Extensible Routing with Declarative
//! Queries", SIGCOMM 2005) models the routing infrastructure as a directed
//! graph whose nodes run a query processor over *base tuples* (e.g. `link`)
//! and *derived tuples* (e.g. `path`, `bestPath`, `nextHop`). These types are
//! the vocabulary those tuples are made of.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod error;
pub mod hash;
pub mod node;
pub mod rel;
pub mod tuple;
pub mod value;
pub mod view;

pub use cost::Cost;
pub use error::{Error, Result};
pub use node::NodeId;
pub use rel::RelId;
pub use tuple::{Tuple, TupleId, TupleKey};
pub use value::{PathVector, Value};
pub use view::{CostEntry, CostView, FromTuple, ReachEntry, RouteEntry, TreeEdge};
