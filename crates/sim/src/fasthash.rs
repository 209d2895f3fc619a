//! A small Fx-style fast hasher for hot maps.
//!
//! `std`'s default `SipHash13` is DoS-resistant but costs tens of
//! nanoseconds per lookup; the hot maps (the event queue's run table,
//! and the engine's `Acker` ledgers and root replay cache) are keyed by
//! trusted in-process ids, so a multiply-and-rotate hash is safe and
//! several times faster.
//! Written in-tree (like the serde/rand shims) because the container has
//! no registry access.
//!
//! **Hashing policy.** State keyed by dense instance indices lives in
//! `Vec`s or bitsets, not hash maps: assignments, wave participants,
//! scope members, per-wave ack sets and the checkpoint store's blobs
//! (one slot per instance on its shard, holding that instance's key-range
//! blobs) are indexed by the instance number directly, which costs
//! neither a hash nor a sort to iterate in order. Hash maps are for
//! sparse keys only: root ids, the queue's run keys, and the control
//! senders an instance's barrier alignment has seen. A map may adopt
//! [`FastHashMap`]/[`FastHashSet`] only if no observable behavior depends
//! on its iteration order: every current user either accesses entries
//! purely by key or sorts whatever it iterates (e.g. `Acker::expire`
//! orders expiries by registration time, never by bucket iteration). The
//! 38 pinned determinism trace hashes are the regression proof — a hidden
//! order dependence would shift a pin.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of FxHash (Firefox's hash): a 64-bit constant close to
/// 2^64 / φ, spreading consecutive keys across the high bits.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-and-rotate hasher over 64-bit words (the FxHash scheme).
///
/// Not DoS-resistant — use only for maps keyed by trusted in-process
/// values (instance indices, root ids, key ranges).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_word(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_word(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_word(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_word(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_word(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_word(v as u64);
    }
}

/// `HashMap` with the fast in-tree hasher.
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` with the fast in-tree hasher.
pub type FastHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(value: &T) -> u64 {
        let mut h = FxHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equal_keys_hash_equal_and_nearby_keys_spread() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_ne!(hash_of(&42u64), hash_of(&43u64));
        // Consecutive small integers should not collide in the low bits a
        // power-of-two-capacity table actually uses.
        let mut low_bits: Vec<u64> = (0u64..64).map(|k| hash_of(&k) & 0x3F).collect();
        low_bits.sort_unstable();
        low_bits.dedup();
        assert!(low_bits.len() > 32, "low bits too clustered: {}", low_bits.len());
    }

    #[test]
    fn byte_stream_tail_is_hashed() {
        // Strings differing only in a sub-word tail must differ.
        assert_ne!(hash_of(&"abcdefgh-x"), hash_of(&"abcdefgh-y"));
        assert_ne!(hash_of(&[1u8, 2, 3]), hash_of(&[1u8, 2, 4]));
    }

    #[test]
    fn map_and_set_round_trip() {
        let mut m: FastHashMap<u64, &str> = FastHashMap::default();
        m.insert(7, "seven");
        m.insert(1 << 40, "big");
        assert_eq!(m.get(&7), Some(&"seven"));
        assert_eq!(m.remove(&(1 << 40)), Some("big"));
        assert!(!m.contains_key(&(1 << 40)));

        let mut s: FastHashSet<(u32, u32)> = FastHashSet::default();
        assert!(s.insert((3, 4)));
        assert!(!s.insert((3, 4)));
        assert!(s.contains(&(3, 4)));
    }
}
