//! Deterministic discrete-event simulation substrate for the SPFail reproduction.
//!
//! The paper's measurement ran against the live Internet over roughly four
//! months. Reproducing it requires a clock that can be advanced by months in
//! microseconds, a network whose latency and failures are repeatable, and a
//! random source that can be forked per simulated entity so that adding or
//! removing one host never perturbs the behaviour of another.
//!
//! This crate provides those pieces and nothing else:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution simulated time.
//! * [`SimClock`] — a cheaply clonable shared clock.
//! * [`SimRng`] — a seeded, forkable deterministic random source.
//! * [`LatencyModel`], [`FaultPlan`], [`Link`] — network path behaviour.
//! * [`Metrics`] — cheap counters for instrumentation and benchmarks.
//!
//! Higher layers (DNS, SMTP, the prober) are written sans-IO against these
//! types; no real sockets are ever opened.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fault;
pub mod latency;
pub mod metrics;
pub mod net;
pub mod rng;
pub mod time;

pub use error::ProbeError;
pub use fault::{FaultOutcome, FaultPlan, FaultProfile, FlakyWindow};
pub use latency::LatencyModel;
pub use metrics::{Histogram, Metrics, MetricsSnapshot, PolicyCacheStats};
pub use net::{Link, LinkObservation};
pub use rng::{ForkLabel, SimRng};
pub use time::{SimClock, SimDuration, SimTime};

/// The decimal digits of `n`, as `{n}` formats it, written into the end
/// of `buf` without the formatter. Probe labels, MTA hostnames and
/// checkpoint text spell their integers with it on hot paths.
pub fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    &buf[at..]
}
