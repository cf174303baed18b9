//! Node addresses.
//!
//! The paper addresses every tuple with the network location that stores it
//! (the underlined field in the paper's notation, the `@`-annotated field in
//! our concrete syntax). A [`NodeId`] is that address: an opaque, dense
//! integer handle assigned by the simulator / topology generator.

use std::fmt;

/// Address of a routing-infrastructure node (router or overlay node).
///
/// `NodeId`s are small dense integers so they can index per-node vectors in
/// the simulator. They order and hash cheaply, which matters because every
/// tuple carries at least one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Construct a node id from a raw index.
    pub const fn new(raw: u32) -> Self {
        NodeId(raw)
    }

    /// The raw index backing this id.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Convenience for indexing `Vec`s keyed by node id.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    fn from(raw: u32) -> Self {
        NodeId(raw)
    }
}

impl From<usize> for NodeId {
    fn from(raw: usize) -> Self {
        NodeId(raw as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::HashSet;

    #[test]
    fn construction_roundtrip() {
        let n = NodeId::new(42);
        assert_eq!(n.raw(), 42);
        assert_eq!(n.index(), 42);
        assert_eq!(NodeId::from(42u32), n);
        assert_eq!(NodeId::from(42usize), n);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(NodeId::new(7).to_string(), "n7");
    }

    #[test]
    fn ordering_follows_raw_index() {
        let mut v = vec![NodeId::new(3), NodeId::new(1), NodeId::new(2)];
        v.sort();
        assert_eq!(v, vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)]);
    }

    #[test]
    fn hashes_distinctly() {
        let set: HashSet<NodeId> = (0..100).map(NodeId::new).collect();
        assert_eq!(set.len(), 100);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(NodeId::default(), NodeId::new(0));
    }
}
