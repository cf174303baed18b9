//! The hasher behind every map and set of the engine.
//!
//! Engine keys are short — a tuple is a relation id, a length and a few
//! values of one or two words each — and std's default SipHash-1-3 spends
//! most of its time on per-key set-up and finalisation for keys that
//! size. [`FastHasher`] instead mixes each written word into its state
//! with one folded 64×64→128-bit multiply, and `finish` folds once more.
//!
//! The hasher is **keyed**: [`FastState`] draws its two seed words once per
//! process from std's [`RandomState`]. Map keys can come from clients
//! (injected facts, program constants, relation names), and a hasher with a
//! fixed key would let a hostile session pick keys that all collide and
//! stall the single engine thread. As under `RandomState`, iteration order
//! is therefore random from one process to the next; where output must
//! repeat exactly, sort or use a `BTreeMap`.
//!
//! ```
//! use dr_types::hash::HashMap;
//!
//! let mut m: HashMap<&str, u32> = HashMap::default();
//! m.insert("path", 1);
//! assert_eq!(m["path"], 1);
//! ```

#![allow(clippy::disallowed_types)]

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A `HashMap` hashed by [`FastHasher`]; build one with `default()`.
pub type HashMap<K, V> = std::collections::HashMap<K, V, FastState>;

/// A `HashSet` hashed by [`FastHasher`]; build one with `default()`.
pub type HashSet<K> = std::collections::HashSet<K, FastState>;

/// Builds [`FastHasher`]s keyed by the process-wide seed.
#[derive(Clone, Copy)]
pub struct FastState {
    seed: u64,
    multiplier: u64,
}

impl std::fmt::Debug for FastState {
    /// Omits the seed: it is the key that keeps map buckets unpredictable.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FastState").finish_non_exhaustive()
    }
}

impl Default for FastState {
    fn default() -> Self {
        static SEED: OnceLock<(u64, u64)> = OnceLock::new();
        let &(seed, multiplier) = SEED.get_or_init(|| {
            let random = RandomState::new();
            (random.hash_one(0u64), random.hash_one(1u64))
        });
        FastState { seed, multiplier }
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    fn build_hasher(&self) -> FastHasher {
        FastHasher { acc: self.seed, multiplier: self.multiplier }
    }
}

/// A word-at-a-time hasher: each write of up to eight bytes costs one
/// folded multiply by the keyed multiplier.
///
/// `finish` folds the state once more by a fixed odd constant. Without
/// it, how well the low bits a table indexes spread depends on the keyed
/// multiplier: under some seeds, 2^16 node ids that differ only above bit
/// 16 filled a fifth of the 2^16 low-16-bit values, where a random
/// function fills 1 − 1/e ≈ 63 % of them. With it, each of 20 seeds tried
/// filled 63 %, as SipHash does.
#[derive(Clone)]
pub struct FastHasher {
    acc: u64,
    multiplier: u64,
}

impl Hasher for FastHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.acc = fold_mul(self.acc ^ word, self.multiplier);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("an 8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            // The tail's length goes in its top byte, so `[1]` and `[1, 0]`
            // do not pad to the same word.
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            word[7] = rest.len() as u8;
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        fold_mul(self.acc, 0x9e37_79b9_7f4a_7c15)
    }
}

/// The 128-bit product of `a` and `b`, its high half folded onto its low
/// half. The high half carries every input bit; folding it down spreads
/// them into the low bits.
#[inline]
fn fold_mul(a: u64, b: u64) -> u64 {
    let wide = u128::from(a) * u128::from(b);
    (wide as u64) ^ ((wide >> 64) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cost, NodeId, PathVector, RelId, Tuple, Value};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn hash<T: std::hash::Hash>(value: &T) -> u64 {
        FastState::default().hash_one(value)
    }

    /// Asserts that 2^16 `hashes` fill as many of the 2^16 low-16-bit
    /// values as a random function would: 1 − 1/e ≈ 0.632 of them, with a
    /// standard deviation near 0.002 (SipHash fills 0.629–0.632). A hash
    /// that ignored the bits the keys differ in would fill almost none.
    fn assert_spread(hashes: impl Iterator<Item = u64>) {
        let mut seen = vec![false; 1 << 16];
        for h in hashes {
            seen[(h & 0xffff) as usize] = true;
        }
        let share = seen.iter().filter(|&&hit| hit).count() as f64 / f64::from(1u32 << 16);
        assert!(share >= 0.62, "the hashes fill only {share:.3} of the low-16-bit values");
    }

    #[test]
    fn equal_values_hash_equal() {
        let path = |nodes: &[u32]| Value::Path(nodes.iter().map(|&n| NodeId(n)).collect());
        let equal_pairs = [
            (Value::Cost(Cost::new(-0.0)), Value::Cost(Cost::new(0.0))),
            (Value::Cost(Cost::new(f64::NAN)), Value::Cost(Cost::INFINITY)),
            (Value::Cost(Cost::new(2.5)), Value::Cost(Cost::from(2.5))),
            (
                path(&[1, 2, 3]),
                Value::Path(PathVector::from_nodes(vec![NodeId(1), NodeId(2), NodeId(3)])),
            ),
            (path(&[]), Value::Path(PathVector::nil())),
            (Value::str("gid"), Value::str(String::from("gid"))),
            (Value::Node(NodeId(7)), Value::Node(NodeId::new(7))),
        ];
        for (a, b) in &equal_pairs {
            assert_eq!(a, b);
            assert_eq!(hash(a), hash(b), "{a:?} and {b:?} are equal but hash apart");
        }
        let t = |v: &Value| {
            Tuple::from_rel(RelId::intern("hash_eq"), vec![Value::Node(NodeId(1)), v.clone()])
        };
        for (a, b) in &equal_pairs {
            assert_eq!(hash(&t(a)), hash(&t(b)));
        }
        // Strings that pad to the same words when their lengths are ignored.
        assert_ne!(hash(&Value::str("\u{1}")), hash(&Value::str("\u{1}\u{0}")));
    }

    #[test]
    fn node_ids_that_differ_only_above_bit_16_spread_over_the_low_bits() {
        assert_spread((0..1u32 << 16).map(|n| hash(&Value::Node(NodeId(n << 16)))));
    }

    #[test]
    fn paths_that_differ_only_in_their_last_hop_spread_over_the_low_bits() {
        assert_spread((0..1u32 << 16).map(|last| {
            hash(&Value::Path(PathVector::from_nodes(vec![
                NodeId(3),
                NodeId(9),
                NodeId(4),
                NodeId(last),
            ])))
        }));
    }

    proptest! {
        /// Any insert/remove sequence leaves a `hash::HashMap` holding what
        /// a `BTreeMap` given the same sequence holds.
        #[test]
        fn a_hash_map_of_tuples_matches_a_btree_map(
            ops in prop::collection::vec((0u32..3, 0u32..12, 0u32..4, 0u32..100), 0..200),
        ) {
            let rel = RelId::intern("hash_model");
            let mut model = BTreeMap::new();
            let mut map: HashMap<Tuple, u32> = HashMap::default();
            for (op, node, cost, payload) in ops {
                let key = Tuple::from_rel(
                    rel,
                    vec![Value::Node(NodeId(node)), Value::Cost(Cost::from(cost))],
                );
                if op == 0 {
                    prop_assert_eq!(map.remove(&key), model.remove(&key));
                } else {
                    prop_assert_eq!(map.insert(key.clone(), payload), model.insert(key, payload));
                }
                prop_assert_eq!(map.len(), model.len());
            }
            let mut entries: Vec<_> = map.into_iter().collect();
            entries.sort();
            prop_assert_eq!(entries, model.into_iter().collect::<Vec<_>>());
        }
    }
}
