//! Network path latency models.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// A simple latency model: a fixed base one-way delay plus uniform jitter.
///
/// The paper's probes care about latency only insofar as timeouts and the
/// campaign's wall-clock budget; a base+jitter model captures that without
/// pretending to model queueing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Minimum one-way delay.
    pub base: SimDuration,
    /// Maximum additional uniformly distributed delay.
    pub jitter: SimDuration,
}

impl LatencyModel {
    /// A model with the given base and jitter.
    pub const fn new(base: SimDuration, jitter: SimDuration) -> Self {
        LatencyModel { base, jitter }
    }

    /// A zero-latency model, useful in unit tests.
    pub const ZERO: LatencyModel = LatencyModel {
        base: SimDuration::ZERO,
        jitter: SimDuration::ZERO,
    };

    /// A plausible wide-area path: 40 ms ± 30 ms one-way.
    pub const WAN: LatencyModel = LatencyModel {
        base: SimDuration::from_millis(40),
        jitter: SimDuration::from_millis(30),
    };

    /// Sample a one-way delay.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        if self.jitter == SimDuration::ZERO {
            return self.base;
        }
        self.base + SimDuration::from_micros(rng.below(self.jitter.as_micros().max(1)))
    }

    /// Sample a round-trip delay (two independent one-way samples).
    pub fn sample_rtt(&self, rng: &mut SimRng) -> SimDuration {
        self.sample(rng) + self.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_is_zero() {
        let mut rng = SimRng::new(1);
        assert_eq!(LatencyModel::ZERO.sample(&mut rng), SimDuration::ZERO);
        assert_eq!(LatencyModel::ZERO.sample_rtt(&mut rng), SimDuration::ZERO);
    }

    #[test]
    fn samples_stay_in_bounds() {
        let model = LatencyModel::new(SimDuration::from_millis(10), SimDuration::from_millis(20));
        let mut rng = SimRng::new(2);
        for _ in 0..1000 {
            let d = model.sample(&mut rng);
            assert!(d >= SimDuration::from_millis(10));
            assert!(d < SimDuration::from_millis(30));
        }
    }

    #[test]
    fn rtt_is_at_least_twice_base() {
        let model = LatencyModel::WAN;
        let mut rng = SimRng::new(3);
        for _ in 0..100 {
            assert!(model.sample_rtt(&mut rng) >= SimDuration::from_millis(80));
        }
    }
}
