//! A fast hasher for the prober's per-worker maps.
//!
//! The repetition counters, the blacklist counters and the ethics
//! guard's address maps are keyed by simulation ids and addresses, are
//! probed on every probe, and are never exposed to untrusted keys, so
//! SipHash's flooding resistance buys nothing there. Every export of
//! these maps sorts, so iteration order stays invisible.

use std::hash::{BuildHasherDefault, Hasher};

/// An Fx-style hasher: each word is folded in by rotate, xor and
/// multiply.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

/// The multiplier (from the Fx hash used by rustc).
const K: u64 = 0x517c_c1b7_2722_0a95;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// The low bits of a product depend only on the low bits of its
    /// inputs, and the hash table picks buckets by the low bits: keys
    /// that differ only in high bits (addresses in one /16) would all
    /// share a bucket. Fold the well-mixed high half down first.
    fn finish(&self) -> u64 {
        self.hash ^ (self.hash >> 32)
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) for `HashMap<K, V,
/// FxBuildHasher>`.
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;
    use std::net::{IpAddr, Ipv4Addr};

    /// Addresses that share their last octet (`10.0.0.1`, `10.0.1.1`,
    /// …) must still spread over the low bits the table indexes by; a
    /// bare multiply would leave them in 4 of the 1024 buckets.
    #[test]
    fn low_bits_spread_over_addresses_differing_in_high_bits() {
        let build = FxBuildHasher::default();
        let mut buckets = std::collections::BTreeSet::new();
        for i in 0..1024u32 {
            let ip = IpAddr::V4(Ipv4Addr::from(0x0a00_0001 | (i << 8)));
            buckets.insert(build.hash_one(ip) & 0x3ff);
        }
        assert!(
            buckets.len() > 512,
            "only {} of 1024 buckets used",
            buckets.len()
        );
    }
}
