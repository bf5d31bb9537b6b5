//! A fast, non-cryptographic hasher for the simulator's internal maps.
//!
//! The simulator's per-event lookups (`IpAddr -> HostId`, the per-host
//! `(port, remote) -> ConnId` demux) hash tiny fixed-size keys millions of
//! times per second. `std`'s default SipHash is DoS-resistant but an order of
//! magnitude slower than needed for keys the simulator itself allocates, so
//! these maps use an FxHash-style multiply-rotate hasher instead (the same
//! family rustc uses for its interner tables). Nothing here is exposed to
//! untrusted input: every key originates from simulation configuration.
//!
//! `finish` rotates the accumulated product before returning it. `HashMap`
//! picks a bucket from the hash's *low* bits, and the low bits of a product
//! depend only on the low bits of its inputs: unmixed, the 7,813 client
//! addresses `10.x.y.2` of one café differ in their low 14 hash bits only
//! through the low bits of `x`, so they shared 31 of 16,384 buckets. The
//! rotation (as in rustc-hash 2) brings the product's well-mixed high bits
//! down to where the table looks.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`]. Drop-in for `std::collections::HashMap`
/// on simulator-internal keys.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style multiply-rotate hasher (not DoS resistant; internal keys
/// only).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.add(u64::from(value));
    }

    #[inline]
    fn write_u16(&mut self, value: u16) {
        self.add(u64::from(value));
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.add(u64::from(value));
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.add(value);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.add(value as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_keys_hash_identically() {
        let mut map: FxHashMap<(u16, u32), u64> = FxHashMap::default();
        for port in 0..100u16 {
            map.insert((port, u32::from(port) * 7), u64::from(port));
        }
        for port in 0..100u16 {
            assert_eq!(map.get(&(port, u32::from(port) * 7)), Some(&u64::from(port)));
        }
        assert_eq!(map.len(), 100);
    }

    #[test]
    fn distinct_small_keys_rarely_collide() {
        use std::hash::Hash;
        let mut seen = std::collections::HashSet::new();
        for value in 0..10_000u64 {
            let mut hasher = FxHasher::default();
            value.hash(&mut hasher);
            seen.insert(hasher.finish());
        }
        // A multiply-rotate hash over distinct u64s should be collision-free
        // at this scale.
        assert_eq!(seen.len(), 10_000);
    }

    /// Distinct low-14-bit hash values (the bucket index of a 16,384-bucket
    /// table) over `keys`.
    fn low_bits_covered<K: std::hash::Hash>(keys: impl Iterator<Item = K>) -> usize {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<FxHasher>::default();
        keys.map(|key| build.hash_one(key) & 0x3fff).collect::<std::collections::HashSet<_>>().len()
    }

    #[test]
    fn a_cafes_client_addresses_spread_over_the_low_bits() {
        use crate::addr::{IpAddr, SocketAddr};
        // One café of the campaign: client `index` sits at
        // `10.(index >> 8).(index & 0xff).2` and connects from port 49152.
        let ips = || (0..7_813usize).map(|i| IpAddr::new(10, (i >> 8) as u8, (i & 0xff) as u8, 2));
        // A uniform hash covers about 6,200 of 16,384 values with 7,813 keys;
        // an unmixed multiply covers 31 (addresses) and 64 (demux keys).
        let addresses = low_bits_covered(ips());
        let demux = low_bits_covered(ips().map(|ip| (80u16, SocketAddr::new(ip, 49152))));
        assert!(addresses >= 5_000, "addresses cover {addresses} low-bit values");
        assert!(demux >= 5_000, "demux keys cover {demux} low-bit values");
    }

    #[test]
    fn byte_slices_hash_consistently() {
        let mut first = FxHasher::default();
        first.write(b"somesite.com/my.js");
        let mut second = FxHasher::default();
        second.write(b"somesite.com/my.js");
        assert_eq!(first.finish(), second.finish());
        let mut different = FxHasher::default();
        different.write(b"somesite.com/other");
        assert_ne!(first.finish(), different.finish());
    }
}
