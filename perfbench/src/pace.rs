//! Host-speed yardstick: the benchmark's times in reference seconds.
//!
//! On a shared host the same code runs up to 1.5x slower for spells of
//! seconds to minutes while other tenants load the machine, and the
//! stages slow together; no estimator over a run's iterations removes a
//! spell that covers the whole run. So the benchmark times a fixed piece
//! of work of its own at least every [`PACE_EVERY_S`] while the workload
//! runs, and scales each measured interval by how fast that yardstick ran
//! around it. The yardstick has two halves of about equal time, because
//! the spells slow two kinds of work unequally and the program's stages
//! mix them: sorting the same [`SORT_LEN`] integers (compute and cache),
//! and a chain of [`CHASE_STEPS`] dependent loads across [`CHASE_LEN`]
//! integers (memory latency). A stage time is reported as the seconds it
//! would take on a host that runs the yardstick in [`REFERENCE_S`], so
//! the figures of a run no longer follow the spell it happened to hit.
//! The yardstick is the benchmark's own code, so a change to the program
//! moves the scaled times exactly as it moves the raw ones.

use std::hint::black_box;
use std::time::Instant;

/// Integers the yardstick sorts (4 MiB, larger than a core's L2).
pub const SORT_LEN: usize = 1 << 20;

/// Integers the yardstick's load chain runs across (32 MiB, mostly
/// beyond the caches).
pub const CHASE_LEN: usize = 1 << 23;

/// Dependent loads in the yardstick's load chain.
pub const CHASE_STEPS: usize = 120_000;

/// The yardstick's median time inside benchmark runs on a 2-vCPU Xeon
/// (Sapphire Rapids, KVM) host, in seconds; there reference seconds
/// read about like raw ones.
pub const REFERENCE_S: f64 = 0.045;

/// Longest stretch of a paced run without a yardstick sample, in seconds.
pub const PACE_EVERY_S: f64 = 0.4;

/// A fixed sort and load chain, timed together. Allocates only in
/// [`Yardstick::new`], so sampling it inside a heap-metering window
/// leaves the peak unchanged.
pub struct Yardstick {
    source: Vec<u32>,
    scratch: Vec<u32>,
    chase: Vec<u32>,
}

impl Default for Yardstick {
    fn default() -> Yardstick {
        Yardstick::new()
    }
}

impl Yardstick {
    /// The yardstick, filled from a fixed xorshift stream.
    pub fn new() -> Yardstick {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 16) as u32
        };
        let source: Vec<u32> = (0..SORT_LEN).map(|_| next()).collect();
        let chase: Vec<u32> = (0..CHASE_LEN).map(|_| next()).collect();
        let scratch = source.clone();
        Yardstick {
            source,
            scratch,
            chase,
        }
    }

    /// Run the yardstick once; its duration in seconds.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        self.scratch.copy_from_slice(&self.source);
        self.scratch.sort_unstable();
        black_box(&self.scratch);
        // Each load's address depends on the value the previous one read.
        let mask = CHASE_LEN - 1;
        let mut at = 0usize;
        for step in 0..CHASE_STEPS {
            at = (self.chase[at] as usize ^ step.wrapping_mul(31)) & mask;
        }
        black_box(at);
        start.elapsed().as_secs_f64()
    }

    /// How many reference seconds one second lasts right now: the
    /// reference time over a fresh sample.
    pub fn speed(&mut self) -> f64 {
        REFERENCE_S / self.sample()
    }
}

/// Host speed over a run, sampled at points of its timeline.
///
/// `marks` are `(t, speed)` pairs in increasing `t`; between two marks the
/// speed is taken to change linearly, before the first and after the last
/// it stays at that mark's. With no marks the speed is 1, so unpaced runs
/// report raw seconds.
#[derive(Debug, Default, Clone)]
pub struct SpeedCurve {
    marks: Vec<(f64, f64)>,
}

impl SpeedCurve {
    /// Add the speed measured at `t`, which must not precede earlier marks.
    pub fn push(&mut self, t: f64, speed: f64) {
        debug_assert!(self.marks.last().is_none_or(|&(last, _)| last <= t));
        self.marks.push((t, speed));
    }

    /// Time of the latest mark, if any.
    pub fn last_t(&self) -> Option<f64> {
        self.marks.last().map(|&(t, _)| t)
    }

    /// Reference seconds spent in `[a, b]`: the integral of the speed.
    pub fn reference_seconds(&self, a: f64, b: f64) -> f64 {
        let (first, last) = match (self.marks.first(), self.marks.last()) {
            (Some(&first), Some(&last)) => (first, last),
            _ => return b - a,
        };
        // Flat before the first mark and after the last.
        let mut total = 0.0;
        if a < first.0 {
            total += (b.min(first.0) - a) * first.1;
        }
        if b > last.0 {
            total += (b - a.max(last.0)) * last.1;
        }
        for pair in self.marks.windows(2) {
            let ((t0, s0), (t1, s1)) = (pair[0], pair[1]);
            let (lo, hi) = (a.max(t0), b.min(t1));
            if hi <= lo {
                continue;
            }
            let at = |t: f64| s0 + (s1 - s0) * (t - t0) / (t1 - t0);
            total += (hi - lo) * (at(lo) + at(hi)) / 2.0;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_marks_means_raw_seconds() {
        let curve = SpeedCurve::default();
        assert_eq!(curve.reference_seconds(1.0, 3.5), 2.5);
    }

    #[test]
    fn integrates_flat_ends_and_linear_middle() {
        let mut curve = SpeedCurve::default();
        curve.push(1.0, 1.0);
        curve.push(3.0, 0.5);
        // Before the first mark: speed 1.
        assert!((curve.reference_seconds(0.0, 1.0) - 1.0).abs() < 1e-12);
        // Linear from 1 to 0.5 over [1, 3]: mean 0.75.
        assert!((curve.reference_seconds(1.0, 3.0) - 1.5).abs() < 1e-12);
        // After the last mark: speed 0.5.
        assert!((curve.reference_seconds(3.0, 5.0) - 1.0).abs() < 1e-12);
        // Additive over a split.
        let whole = curve.reference_seconds(0.5, 4.0);
        let parts = curve.reference_seconds(0.5, 2.2) + curve.reference_seconds(2.2, 4.0);
        assert!((whole - parts).abs() < 1e-12);
    }

    #[test]
    fn yardstick_sorts_and_times() {
        let mut y = Yardstick::new();
        assert!(y.sample() > 0.0);
        assert!(y.scratch.windows(2).all(|w| w[0] <= w[1]));
    }
}
