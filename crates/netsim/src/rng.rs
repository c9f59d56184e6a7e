//! Deterministic, forkable randomness.
//!
//! Reproducibility is a core requirement: an experiment run twice with the
//! same seed must produce byte-identical tables. [`SimRng`] wraps a small,
//! fast PRNG and adds *forking*: deriving an independent stream from a parent
//! seed and a string label. Each simulated entity (an MTA, a probe, a patch
//! process) forks its own stream, so iteration order and population size
//! changes never perturb unrelated entities.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic random source for the simulation.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
    seed: u64,
}

/// Incremental FNV-1a; cheap, stable label hashing for forking. Fed a
/// label piece by piece, it gives the hash of the whole string without
/// building it.
#[derive(Debug, Clone, Copy)]
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }
}

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::new();
    hash.write(bytes);
    hash.0
}

/// One round of splitmix64; decorrelates related seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A fork label being hashed, built by [`SimRng::fork_label`]: append
/// its pieces in order with [`ForkLabel::str`] and [`ForkLabel::dec`],
/// then [`ForkLabel::finish`] gives the forked stream.
#[derive(Debug, Clone, Copy)]
#[must_use = "a fork label gives its stream only through `finish`"]
pub struct ForkLabel {
    seed: u64,
    hash: Fnv1a,
}

impl ForkLabel {
    /// Append `piece` to the label.
    pub fn str(mut self, piece: &str) -> ForkLabel {
        self.hash.write(piece.as_bytes());
        self
    }

    /// Append `n` to the label in decimal, as `{n}` formats it.
    pub fn dec(mut self, n: impl Into<u64>) -> ForkLabel {
        self.hash.write(crate::decimal(n.into(), &mut [0; 20]));
        self
    }

    /// The stream [`SimRng::fork`] gives for the whole label.
    pub fn finish(self) -> SimRng {
        SimRng::new(splitmix64(self.seed ^ self.hash.0))
    }
}

impl SimRng {
    /// A new stream from a root seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(splitmix64(seed)),
            seed,
        }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent stream identified by a string label.
    ///
    /// Forking does not consume state from the parent: two forks with the
    /// same label yield identical streams regardless of what was drawn from
    /// the parent in between.
    pub fn fork(&self, label: &str) -> SimRng {
        SimRng::new(splitmix64(self.seed ^ fnv1a(label.as_bytes())))
    }

    /// [`SimRng::fork`] with the label given piece by piece:
    /// `fork_label().str("probe-h").dec(h).finish()` is the stream of
    /// `fork(&format!("probe-h{h}"))`, but the label's bytes are hashed
    /// as they are given instead of collected into a `String`, and its
    /// numbers are spelled without the formatter.
    pub fn fork_label(&self) -> ForkLabel {
        ForkLabel {
            seed: self.seed,
            hash: Fnv1a::new(),
        }
    }

    /// Derive an independent stream identified by an index, e.g. per host.
    pub fn fork_idx(&self, label: &str, index: u64) -> SimRng {
        SimRng::new(splitmix64(
            self.seed ^ fnv1a(label.as_bytes()) ^ splitmix64(index),
        ))
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.inner.gen::<f64>() < p
    }

    /// A uniform integer in `[0, bound)`. `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() requires a non-zero bound");
        self.inner.gen_range(0..bound)
    }

    /// A uniform integer in `[lo, hi)`. Requires `lo < hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range() requires lo < hi");
        self.inner.gen_range(lo..hi)
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick() requires a non-empty slice");
        let idx = self.below(items.len() as u64) as usize;
        &items[idx]
    }

    /// Pick an index according to non-negative weights. Returns `None` when
    /// every weight is zero or the slice is empty.
    pub fn pick_weighted(&mut self, weights: &[f64]) -> Option<usize> {
        self.pick_weighted_with_total(weights, SimRng::weight_total(weights))
    }

    /// The total [`SimRng::pick_weighted`] draws against: the sum of the
    /// positive weights, in slice order. A sampler that draws from the
    /// same weights many times keeps this once and calls
    /// [`SimRng::pick_weighted_with_total`].
    pub fn weight_total(weights: &[f64]) -> f64 {
        weights.iter().copied().filter(|w| *w > 0.0).sum()
    }

    /// [`SimRng::pick_weighted`] with the weights' total given, which
    /// must be [`SimRng::weight_total`] of `weights`: the same draw and
    /// the same index, without re-summing the weights.
    pub fn pick_weighted_with_total(&mut self, weights: &[f64], total: f64) -> Option<usize> {
        if total <= 0.0 {
            return None;
        }
        let mut target = self.unit() * total;
        for (idx, &w) in weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            if target < w {
                return Some(idx);
            }
            target -= w;
        }
        // Floating-point slack: fall back to the last positive weight.
        weights.iter().rposition(|&w| w > 0.0)
    }

    /// A random lowercase alphanumeric string of length `len`, as used for
    /// the paper's unique probe identifiers (`mmj7yzdm0tbk` style).
    pub fn alnum_label(&mut self, len: usize) -> String {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
        (0..len)
            .map(|_| ALPHABET[self.below(ALPHABET.len() as u64) as usize] as char)
            .collect()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        if items.len() < 2 {
            return;
        }
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_independent_of_parent_consumption() {
        let parent = SimRng::new(7);
        let mut consumed = parent.clone();
        for _ in 0..10 {
            consumed.next_u64();
        }
        let mut f1 = parent.fork("mta");
        let mut f2 = consumed.fork("mta");
        for _ in 0..20 {
            assert_eq!(f1.next_u64(), f2.next_u64());
        }
    }

    #[test]
    fn forks_with_different_labels_differ() {
        let parent = SimRng::new(7);
        let a: Vec<u64> = {
            let mut r = parent.fork("a");
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = parent.fork("b");
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn fork_idx_streams_differ_per_index() {
        let parent = SimRng::new(1);
        let mut a = parent.fork_idx("host", 0);
        let mut b = parent.fork_idx("host", 1);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = SimRng::new(11);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits={hits}");
    }

    #[test]
    fn pick_weighted_respects_zero_weights() {
        let mut r = SimRng::new(5);
        for _ in 0..100 {
            let idx = r.pick_weighted(&[0.0, 1.0, 0.0]).unwrap();
            assert_eq!(idx, 1);
        }
        assert_eq!(r.pick_weighted(&[0.0, 0.0]), None);
        assert_eq!(r.pick_weighted(&[]), None);
    }

    #[test]
    fn alnum_label_shape() {
        let mut r = SimRng::new(9);
        let s = r.alnum_label(12);
        assert_eq!(s.len(), 12);
        assert!(s
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::new(13);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn below_and_range_bounds() {
        let mut r = SimRng::new(21);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
            let x = r.range(3, 9);
            assert!((3..9).contains(&x));
        }
    }
}
