//! A simulated network path combining latency, faults, and metrics.
//!
//! The higher layers model protocol exchanges synchronously — an SMTP
//! conversation is a sequence of request/response turns — but every turn is
//! *charged* to the shared clock through a [`Link`], and every attempt rolls
//! the link's [`FaultPlan`]. That keeps the simulation deterministic and
//! sans-IO while still producing realistic campaign timelines.

use crate::fault::{FaultOutcome, FaultPlan};
use crate::latency::LatencyModel;
use crate::metrics::Metrics;
use crate::rng::SimRng;
use crate::time::{SimClock, SimDuration};

/// What a caller observed when exercising a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkObservation {
    /// The exchange completed; time was charged.
    Ok,
    /// The connection was refused before any application data.
    Refused,
    /// The exchange was cut off mid-way; partial time was charged.
    Aborted,
    /// The datagram was lost; a timeout was charged.
    TimedOut,
    /// The datagram was answered with SERVFAIL; one RTT was charged.
    ServFail,
    /// The datagram response came back truncated (TC); one RTT was
    /// charged and the caller must retry over TCP.
    Truncated,
}

impl LinkObservation {
    /// Whether the exchange fully completed.
    pub fn is_ok(self) -> bool {
        matches!(self, LinkObservation::Ok)
    }
}

/// A unidirectional network path from the measurement host to a peer.
#[derive(Debug, Clone)]
pub struct Link {
    latency: LatencyModel,
    faults: FaultPlan,
    clock: SimClock,
    metrics: Metrics,
}

impl Link {
    /// A link with the given latency and fault behaviour.
    pub fn new(
        latency: LatencyModel,
        faults: FaultPlan,
        clock: SimClock,
        metrics: Metrics,
    ) -> Self {
        Link {
            latency,
            faults,
            clock,
            metrics,
        }
    }

    /// A fault-free zero-latency link for tests.
    pub fn ideal(clock: SimClock) -> Self {
        Link::new(LatencyModel::ZERO, FaultPlan::NONE, clock, Metrics::new())
    }

    /// The link's fault plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The link's latency model.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// The shared clock this link charges.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Metrics sink.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Attempt to open a connection: charges one RTT (the TCP handshake) and
    /// rolls the refuse/abort chances.
    pub fn connect(&self, rng: &mut SimRng) -> LinkObservation {
        self.metrics.inc_connections_attempted();
        self.clock.advance(self.latency.sample_rtt(rng));
        match self.faults.connection_outcome(rng) {
            FaultOutcome::Refused => {
                self.metrics.inc_connections_refused();
                LinkObservation::Refused
            }
            FaultOutcome::Aborted => {
                self.metrics.inc_connections_aborted();
                LinkObservation::Aborted
            }
            _ => LinkObservation::Ok,
        }
    }

    /// Charge one request/response turn of `bytes` application bytes.
    pub fn turn(&self, rng: &mut SimRng, bytes: usize) -> LinkObservation {
        self.metrics.add_bytes_sent(bytes as u64);
        self.clock.advance(self.latency.sample_rtt(rng));
        if rng.chance(self.faults.abort_chance) {
            self.metrics.inc_connections_aborted();
            LinkObservation::Aborted
        } else {
            LinkObservation::Ok
        }
    }

    /// Send one datagram and wait for its reply (e.g. a DNS query): charges
    /// one RTT on success or `timeout` when the datagram is dropped.
    pub fn datagram(
        &self,
        rng: &mut SimRng,
        bytes: usize,
        timeout: SimDuration,
    ) -> LinkObservation {
        self.metrics.inc_datagrams_sent();
        self.metrics.add_bytes_sent(bytes as u64);
        match self.faults.datagram_outcome(rng) {
            FaultOutcome::Dropped => {
                self.metrics.inc_datagrams_dropped();
                self.clock.advance(timeout);
                LinkObservation::TimedOut
            }
            FaultOutcome::ServFail => {
                self.metrics.inc_dns_servfails();
                self.clock.advance(self.latency.sample_rtt(rng));
                LinkObservation::ServFail
            }
            FaultOutcome::Truncated => {
                self.clock.advance(self.latency.sample_rtt(rng));
                LinkObservation::Truncated
            }
            _ => {
                self.clock.advance(self.latency.sample_rtt(rng));
                LinkObservation::Ok
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn ideal_link_charges_no_time() {
        let clock = SimClock::new();
        let link = Link::ideal(clock.clone());
        let mut rng = SimRng::new(1);
        assert!(link.connect(&mut rng).is_ok());
        assert!(link.turn(&mut rng, 100).is_ok());
        assert_eq!(clock.now(), SimTime::EPOCH);
    }

    #[test]
    fn latency_is_charged_to_shared_clock() {
        let clock = SimClock::new();
        let link = Link::new(
            LatencyModel::new(SimDuration::from_millis(10), SimDuration::ZERO),
            FaultPlan::NONE,
            clock.clone(),
            Metrics::new(),
        );
        let mut rng = SimRng::new(2);
        link.connect(&mut rng);
        // One RTT = 2 * 10ms.
        assert_eq!(clock.now().as_micros(), 20_000);
        link.turn(&mut rng, 10);
        assert_eq!(clock.now().as_micros(), 40_000);
    }

    #[test]
    fn refused_connection_is_counted() {
        let clock = SimClock::new();
        let metrics = Metrics::new();
        let link = Link::new(
            LatencyModel::ZERO,
            FaultPlan::REFUSE_ALL,
            clock,
            metrics.clone(),
        );
        let mut rng = SimRng::new(3);
        assert_eq!(link.connect(&mut rng), LinkObservation::Refused);
        assert_eq!(metrics.connections_attempted(), 1);
        assert_eq!(metrics.connections_refused(), 1);
    }

    #[test]
    fn dropped_datagram_charges_timeout() {
        let clock = SimClock::new();
        let metrics = Metrics::new();
        let plan = FaultPlan {
            drop_chance: 1.0,
            ..FaultPlan::NONE
        };
        let link = Link::new(LatencyModel::ZERO, plan, clock.clone(), metrics.clone());
        let mut rng = SimRng::new(4);
        let obs = link.datagram(&mut rng, 64, SimDuration::from_secs(5));
        assert_eq!(obs, LinkObservation::TimedOut);
        assert_eq!(clock.now().as_secs(), 5);
        assert_eq!(metrics.datagrams_dropped(), 1);
    }

    #[test]
    fn injected_servfail_and_truncation_are_observed() {
        let clock = SimClock::new();
        let metrics = Metrics::new();
        let mut rng = SimRng::new(9);
        let servfail = Link::new(
            LatencyModel::ZERO,
            FaultPlan::dns_servfail(1.0),
            clock.clone(),
            metrics.clone(),
        );
        assert_eq!(
            servfail.datagram(&mut rng, 64, SimDuration::from_secs(3)),
            LinkObservation::ServFail
        );
        assert_eq!(metrics.dns_servfails(), 1);
        // SERVFAIL is an answer, not a loss: no timeout is charged.
        assert_eq!(clock.now(), SimTime::EPOCH);
        let truncating = Link::new(
            LatencyModel::ZERO,
            FaultPlan::dns_truncate(1.0),
            clock.clone(),
            metrics.clone(),
        );
        assert_eq!(
            truncating.datagram(&mut rng, 64, SimDuration::from_secs(3)),
            LinkObservation::Truncated
        );
        assert_eq!(metrics.datagrams_dropped(), 0);
    }
}
