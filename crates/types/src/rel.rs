//! Interned relation identity.
//!
//! Every layer of the system names relations — rule heads, localized ship
//! specs, stored tables, shipped tuple batches — and naming them with heap
//! strings makes every hot path pay for hashing, cloning, and comparing
//! those strings per tuple. Instead, relation names are interned once into
//! a dense [`RelId`] and every layer carries the 4-byte id:
//!
//! * [`Tuple`](crate::Tuple) stores a `RelId` (name resolution only happens
//!   for `Display` and debugging),
//! * `dr-datalog`'s `Database` is a dense `Vec<Table>` indexed by `RelId`,
//! * semi-naïve delta maps and compiled rule plans are `RelId`-indexed,
//! * the wire format ships the fixed-width id instead of the name
//!   (see [`WIRE_TAG_BYTES`]).
//!
//! # One process-wide interner, one catalog per query
//!
//! The process-wide intern table (behind [`RelId::intern`]) is the identity
//! substrate: it guarantees that, within one process, equal names are equal
//! ids — which is why the simulated wire can ship the interned id directly.
//! Which ids a query may carry is decided per query: a node's receive path
//! accepts a shipped tuple only if its relation is bound in the query's
//! localized catalog (`dr_datalog::catalog::Catalog`, built from the program
//! and extended with the cache relations localization mints) or is the
//! deployment-wide `link` table, and drops and counts anything else. Raw
//! interner ids mean nothing outside the process, so a multi-process
//! transport must ship a process-independent form instead; the service
//! boundary already ships relation names, and checks a client's names
//! against the query's catalog with [`RelId::lookup`], which never interns
//! a name it has not seen.
//!
//! ```
//! use dr_types::rel::RelId;
//!
//! // Equal names are equal ids, and an id resolves back to its name.
//! let path = RelId::intern("path");
//! assert_eq!(RelId::intern("path"), path);
//! assert_eq!(path.name(), "path");
//!
//! // Looking a name up does not intern it.
//! assert_eq!(RelId::lookup("rel_doc_never_interned"), None);
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// Number of bytes a relation tag occupies on the wire: the fixed-width
/// `RelId` replaces the variable-length relation name in shipped tuple
/// batches (the paper's per-node communication overhead metric, Figs. 10/11).
pub const WIRE_TAG_BYTES: usize = 4;

/// The process-wide intern table. Names are leaked exactly once, so a
/// resolved name is a `&'static str` and tuples can hand out borrowed names
/// without lifetime gymnastics. The set of distinct relation names in a
/// process is small and bounded by the programs it runs, so the leak is a
/// constant.
struct Interner {
    names: Vec<&'static str>,
    ids: HashMap<&'static str, u32>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| RwLock::new(Interner { names: Vec::new(), ids: HashMap::new() }))
}

/// A dense, process-wide interned relation identifier.
///
/// `RelId` is the identity of a relation everywhere a name used to be: in
/// [`Tuple`](crate::Tuple)s, storage, compiled rule plans, ship specs, and
/// the wire format. Comparing, hashing, and copying it costs the same as a
/// `u32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelId(u32);

impl RelId {
    /// Intern `name`, returning its dense id (allocating one on first use).
    pub fn intern(name: &str) -> RelId {
        if let Some(id) = RelId::lookup(name) {
            return id;
        }
        let mut table = interner().write().expect("relation interner poisoned");
        // Re-check under the write lock: another thread may have interned
        // the name between our read and write.
        if let Some(&id) = table.ids.get(name) {
            return RelId(id);
        }
        let id = u32::try_from(table.names.len()).expect("relation intern table overflow");
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        table.names.push(leaked);
        table.ids.insert(leaked, id);
        RelId(id)
    }

    /// The id of `name` if it has been interned, without interning it.
    pub fn lookup(name: &str) -> Option<RelId> {
        interner().read().expect("relation interner poisoned").ids.get(name).copied().map(RelId)
    }

    /// The interned name this id stands for.
    pub fn name(self) -> &'static str {
        interner().read().expect("relation interner poisoned").names[self.0 as usize]
    }

    /// The dense index of this id (used by `Vec`-backed storage).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw wire representation of this id.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl From<&str> for RelId {
    fn from(name: &str) -> RelId {
        RelId::intern(name)
    }
}

impl From<&String> for RelId {
    fn from(name: &String) -> RelId {
        RelId::intern(name)
    }
}

impl fmt::Display for RelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let a = RelId::intern("relid_test_alpha");
        let b = RelId::intern("relid_test_beta");
        assert_ne!(a, b);
        assert_eq!(a, RelId::intern("relid_test_alpha"));
        assert_eq!(a.name(), "relid_test_alpha");
        assert_eq!(RelId::lookup("relid_test_alpha"), Some(a));
        assert_eq!(a.to_string(), "relid_test_alpha");
        assert_eq!(a.index(), a.raw() as usize);
    }

    #[test]
    fn lookup_does_not_intern() {
        assert_eq!(RelId::lookup("relid_test_never_interned_xyzzy"), None);
    }

    #[test]
    fn from_str_interns() {
        let id: RelId = "relid_test_from".into();
        assert_eq!(id, RelId::intern("relid_test_from"));
        let owned = String::from("relid_test_from");
        let via_ref: RelId = (&owned).into();
        assert_eq!(via_ref, id);
    }
}
