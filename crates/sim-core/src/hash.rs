//! Deterministic FNV-1a hashing for hot-path hash maps.
//!
//! `std`'s default `HashMap` hasher (SipHash-1-3) is keyed per-process and
//! costs tens of cycles per small key. Simulator-internal maps keyed by
//! small integers — like the walk-merge table keyed by `(tenant, vpn)` —
//! neither face adversarial keys nor expose iteration order, so the far
//! cheaper FNV-1a is safe and keeps lookups deterministic across runs.

use std::hash::{BuildHasherDefault, Hasher};

/// A [`Hasher`] implementing 64-bit FNV-1a.
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    fn write_u64(&mut self, n: u64) {
        // One multiply per word instead of eight: fold the whole word in.
        let mut h = self.0;
        h ^= n;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        self.0 = h;
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// `BuildHasher` for [`FnvHasher`]; plug into `HashMap::with_hasher` or the
/// [`FnvMap`] alias.
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// A `HashMap` using deterministic FNV-1a hashing.
pub type FnvMap<K, V> = std::collections::HashMap<K, V, FnvBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_fnv1a_vectors() {
        fn fnv(bytes: &[u8]) -> u64 {
            let mut h = FnvHasher::default();
            h.write(bytes);
            h.finish()
        }
        // Reference values for FNV-1a 64.
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FnvMap<(u8, u64), u32> = FnvMap::default();
        m.insert((1, 42), 7);
        m.insert((2, 42), 8);
        assert_eq!(m.get(&(1, 42)), Some(&7));
        assert_eq!(m.remove(&(2, 42)), Some(8));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn hashing_is_deterministic_across_hasher_instances() {
        // Unlike SipHash there is no per-process key: the same key must hash
        // identically in two fresh maps (this is what keeps iteration-free
        // lookups reproducible across runs and hosts).
        fn hash_of(key: (u8, u64)) -> u64 {
            use std::hash::BuildHasher;
            FnvBuildHasher::default().hash_one(key)
        }
        assert_eq!(hash_of((3, 0xdead_beef)), hash_of((3, 0xdead_beef)));
        assert_ne!(hash_of((3, 0xdead_beef)), hash_of((4, 0xdead_beef)));
    }

    #[test]
    fn survives_growth_well_past_the_initial_capacity() {
        // 4096 inserts force several rehash/grow cycles from the default
        // empty table; every key must survive each move.
        let mut m: FnvMap<(u8, u64), usize> = FnvMap::default();
        for i in 0..4096_usize {
            m.insert(((i % 251) as u8, i as u64), i);
        }
        assert_eq!(m.len(), 4096);
        for i in 0..4096_usize {
            assert_eq!(m.get(&((i % 251) as u8, i as u64)), Some(&i), "key {i}");
        }
    }

    #[test]
    fn remove_then_reinsert_reuses_slots() {
        let mut m: FnvMap<(u8, u64), usize> = FnvMap::default();
        for i in 0..512_usize {
            m.insert((0, i as u64), i);
        }
        for i in (0..512_usize).step_by(2) {
            assert_eq!(m.remove(&(0, i as u64)), Some(i));
        }
        assert_eq!(m.len(), 256);
        for i in (0..512_usize).step_by(2) {
            assert_eq!(m.get(&(0, i as u64)), None);
            m.insert((0, i as u64), i + 1000);
        }
        assert_eq!(m.len(), 512);
        assert_eq!(m.get(&(0, 2)), Some(&1002));
        assert_eq!(m.get(&(0, 3)), Some(&3));
    }

    #[test]
    fn colliding_keys_are_both_retrievable() {
        use std::hash::BuildHasher;
        // A (u8, u64) tuple hashes as write_u8(a) then write_u64(b), i.e.
        // hash = ((I ^ a)·P ^ b)·P. Two keys collide iff the inner term
        // matches, so pick b2 = ((I^a1)·P ^ b1) ^ ((I^a2)·P): a full 64-bit
        // hash collision, not merely a same-bucket one.
        const I: u64 = 0xcbf2_9ce4_8422_2325;
        const P: u64 = 0x0000_0100_0000_01b3;
        let (a1, b1, a2) = (1_u8, 42_u64, 2_u8);
        let b2 = (u64::from(a1) ^ I).wrapping_mul(P) ^ b1 ^ (u64::from(a2) ^ I).wrapping_mul(P);

        fn hash_of(key: (u8, u64)) -> u64 {
            FnvBuildHasher::default().hash_one(key)
        }
        assert_eq!(hash_of((a1, b1)), hash_of((a2, b2)), "construction broke");

        let mut m: FnvMap<(u8, u64), &str> = FnvMap::default();
        m.insert((a1, b1), "first");
        m.insert((a2, b2), "second");
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&(a1, b1)), Some(&"first"));
        assert_eq!(m.get(&(a2, b2)), Some(&"second"));
        assert_eq!(m.remove(&(a1, b1)), Some("first"));
        assert_eq!(m.get(&(a2, b2)), Some(&"second"));
    }
}
