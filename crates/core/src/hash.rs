//! The one hasher behind every row-keyed table in core and storage.
//!
//! Grouping (φ, Eq. 7), membership (`t ∈ S`, Eq. 10), the equi-join's
//! buckets (Eq. 5), a relation's set index and a stored table's primary
//! key all hash a [`Tuple`](crate::tuple::Tuple) once per row, and which
//! function they hash with never changes an answer. [`RowHasher`] is a
//! folded multiply: each word the value hands it is xored into the state
//! and multiplied by one odd constant, the 128-bit product folded as
//! `hi ^ lo`, and `finish` folds once more, so every input bit reaches
//! the low bits a table indexes by and the top bits its control bytes
//! use. The state starts from a seed drawn once per process from std's
//! [`RandomState`], so a client cannot tell in advance which rows share a
//! bucket; unlike SipHash it is not a keyed PRF (DESIGN.md §4).

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// The multiplier: the fractional digits of π, an odd constant with
/// well-spread bits.
const K: u64 = 0x243f_6a88_85a3_08d3;

/// The high and low halves of `a · b`, xored.
#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p >> 64) as u64 ^ p as u64
}

/// A folded-multiply hasher; built by [`RowState`].
#[derive(Debug)]
pub struct RowHasher {
    hash: u64,
}

impl RowHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = fold(self.hash ^ word, K);
    }
}

impl Hasher for RowHasher {
    /// Eight bytes at a time (a `Str`'s bytes); the tail word carries its
    /// length in its top byte, so no two byte strings share their words.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let word = word.try_into().expect("chunks_exact(8) yields 8 bytes");
            self.mix(u64::from_le_bytes(word));
        }
        let rest = words.remainder();
        let mut tail = [0; 8];
        tail[..rest.len()].copy_from_slice(rest);
        tail[7] = rest.len() as u8;
        self.mix(u64::from_le_bytes(tail));
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_isize(&mut self, n: isize) {
        self.mix(n as u64);
    }

    /// One more fold: the last word's high bits reach the low ones.
    #[inline]
    fn finish(&self) -> u64 {
        fold(self.hash, K)
    }
}

/// Builds [`RowHasher`]s from the process's seed.
#[derive(Debug, Clone, Copy)]
pub struct RowState {
    seed: u64,
}

impl Default for RowState {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        let seed = *SEED.get_or_init(|| RandomState::new().hash_one(K));
        RowState { seed }
    }
}

impl BuildHasher for RowState {
    type Hasher = RowHasher;

    #[inline]
    fn build_hasher(&self) -> RowHasher {
        RowHasher { hash: self.seed }
    }
}

/// A hash map keyed by rows (or anything else hashed per row).
pub type RowMap<K, V> = HashMap<K, V, RowState>;

/// A hash set of rows (or anything else hashed per row).
pub type RowSet<K> = HashSet<K, RowState>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;
    use crate::value::Value;

    /// 4 096 INT keys that share their low 20 bits spread over a table's
    /// bucket bits and over every control tag. A multiply without the
    /// fold (Fx-style) keeps the keys' zero low bits and puts them all in
    /// one bucket.
    #[test]
    fn keys_sharing_their_low_bits_spread() {
        let state = RowState::default();
        let hashes: Vec<u64> = (0..4096_i64)
            .map(|i| state.hash_one(Tuple::new(vec![Value::Int(i << 20)])))
            .collect();
        let buckets: RowSet<u64> = hashes.iter().map(|h| h & 0xfff).collect();
        let tags: RowSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(buckets.len() >= 2000, "{} of 4096 buckets", buckets.len());
        assert_eq!(tags.len(), 128);
    }

    #[test]
    fn byte_strings_that_pad_alike_hash_apart() {
        let state = RowState::default();
        assert_ne!(
            state.hash_one(Value::str("a")),
            state.hash_one(Value::str("a\0"))
        );
        assert_ne!(
            state.hash_one(Value::str("abcdefgh")),
            state.hash_one(Value::str("abcdefgh\0"))
        );
    }

    #[test]
    fn one_seed_per_process() {
        let (a, b) = (RowState::default(), RowState::default());
        assert_eq!(a.hash_one(7_u64), b.hash_one(7_u64));
    }
}
