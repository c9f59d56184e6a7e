//! Fault injection for simulated network paths.
//!
//! Following the fault-injection style of event-driven stacks such as
//! smoltcp, every link carries a [`FaultPlan`] that can drop packets or
//! refuse/abort connections with configured probabilities. The prober's
//! "SMTP Failure" and "Connection Refused" rows in Table 3 are produced by
//! these faults plus per-MTA policy.
//!
//! Beyond the per-link plan, a campaign can impose a [`FaultProfile`]:
//! a DNS-side plan (timeouts, SERVFAIL, forced truncation), an SMTP-side
//! plan (4xx tempfail, mid-session reset), and a [`FlakyWindow`] that
//! opens and closes on the simulated clock for a deterministic subset of
//! hosts. Every decision is drawn from identity-derived [`SimRng`]
//! streams, so a sharded campaign rolls exactly the dice a sequential
//! one would.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Probabilities of the various failure modes on a path or endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Probability that a connection attempt is refused outright
    /// (TCP RST / no listener).
    pub refuse_chance: f64,
    /// Probability that an established exchange is aborted mid-way
    /// (peer closes, network partition).
    pub abort_chance: f64,
    /// Probability that a single datagram (e.g. a DNS query) is lost.
    pub drop_chance: f64,
    /// Probability that a datagram is answered with SERVFAIL (a lame or
    /// overloaded resolver).
    pub servfail_chance: f64,
    /// Probability that a datagram response comes back truncated (TC),
    /// forcing the client to retry over TCP.
    pub truncate_chance: f64,
    /// Probability that an SMTP session is greeted with a 4xx tempfail.
    pub tempfail_chance: f64,
    /// Probability that an SMTP session is reset mid-way through.
    pub reset_chance: f64,
}

impl FaultPlan {
    /// A plan that never faults.
    pub const NONE: FaultPlan = FaultPlan {
        refuse_chance: 0.0,
        abort_chance: 0.0,
        drop_chance: 0.0,
        servfail_chance: 0.0,
        truncate_chance: 0.0,
        tempfail_chance: 0.0,
        reset_chance: 0.0,
    };

    /// A plan that always refuses connections.
    pub const REFUSE_ALL: FaultPlan = FaultPlan {
        refuse_chance: 1.0,
        ..FaultPlan::NONE
    };

    /// A DNS plan that loses each datagram with probability `p` (the
    /// resolver then burns its full retry/timeout budget).
    pub const fn dns_timeout(p: f64) -> FaultPlan {
        FaultPlan {
            drop_chance: p,
            ..FaultPlan::NONE
        }
    }

    /// A DNS plan that answers each datagram with SERVFAIL with
    /// probability `p`.
    pub const fn dns_servfail(p: f64) -> FaultPlan {
        FaultPlan {
            servfail_chance: p,
            ..FaultPlan::NONE
        }
    }

    /// A DNS plan that truncates each response with probability `p`,
    /// forcing the TCP fallback.
    pub const fn dns_truncate(p: f64) -> FaultPlan {
        FaultPlan {
            truncate_chance: p,
            ..FaultPlan::NONE
        }
    }

    /// An SMTP plan that greets each session with a 4xx tempfail with
    /// probability `p`.
    pub const fn smtp_tempfail(p: f64) -> FaultPlan {
        FaultPlan {
            tempfail_chance: p,
            ..FaultPlan::NONE
        }
    }

    /// An SMTP plan that resets each session mid-way with probability `p`.
    pub const fn smtp_reset(p: f64) -> FaultPlan {
        FaultPlan {
            reset_chance: p,
            ..FaultPlan::NONE
        }
    }

    /// Whether any failure mode has non-zero probability.
    pub fn is_active(&self) -> bool {
        self.refuse_chance > 0.0
            || self.abort_chance > 0.0
            || self.drop_chance > 0.0
            || self.servfail_chance > 0.0
            || self.truncate_chance > 0.0
            || self.tempfail_chance > 0.0
            || self.reset_chance > 0.0
    }

    /// Decide the fate of a connection attempt.
    pub fn connection_outcome(&self, rng: &mut SimRng) -> FaultOutcome {
        if rng.chance(self.refuse_chance) {
            FaultOutcome::Refused
        } else if rng.chance(self.abort_chance) {
            FaultOutcome::Aborted
        } else {
            FaultOutcome::Delivered
        }
    }

    /// Decide the fate of a single datagram. Loss takes precedence over
    /// SERVFAIL, which takes precedence over truncation; zero-probability
    /// modes consume no randomness.
    pub fn datagram_outcome(&self, rng: &mut SimRng) -> FaultOutcome {
        if rng.chance(self.drop_chance) {
            FaultOutcome::Dropped
        } else if rng.chance(self.servfail_chance) {
            FaultOutcome::ServFail
        } else if rng.chance(self.truncate_chance) {
            FaultOutcome::Truncated
        } else {
            FaultOutcome::Delivered
        }
    }

    /// Decide the fate of an SMTP session against this plan (rolled once
    /// per session, before the conversation). Tempfail takes precedence
    /// over reset; zero-probability modes consume no randomness.
    pub fn smtp_outcome(&self, rng: &mut SimRng) -> FaultOutcome {
        if rng.chance(self.tempfail_chance) {
            FaultOutcome::TempFailed
        } else if rng.chance(self.reset_chance) {
            FaultOutcome::Reset
        } else {
            FaultOutcome::Delivered
        }
    }
}

/// The decided fate of a connection, datagram, or SMTP session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The exchange proceeds normally.
    Delivered,
    /// The connection attempt was refused before any application bytes.
    Refused,
    /// The exchange started but was cut off part-way through.
    Aborted,
    /// The datagram was silently lost; the sender observes only its own
    /// timeout, which must be charged to the simulated clock.
    Dropped,
    /// The datagram was answered with SERVFAIL.
    ServFail,
    /// The datagram response came back truncated, forcing a TCP retry.
    Truncated,
    /// The SMTP session was greeted with a 4xx temporary failure.
    TempFailed,
    /// The SMTP session was reset mid-way through.
    Reset,
}

/// A periodic reachability window: the host answers while the window is
/// open and is dark while it is closed, keyed entirely to the simulated
/// clock so every engine sees the same openings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlakyWindow {
    /// Length of one full open+closed cycle.
    pub period: SimDuration,
    /// Fraction of each period the host is reachable (clamped to `[0, 1]`).
    pub open_fraction: f64,
    /// Per-host offset into the cycle, so hosts don't blink in unison.
    pub phase: SimDuration,
}

impl FlakyWindow {
    /// A window with the given period and open fraction, phase zero.
    pub const fn new(period: SimDuration, open_fraction: f64) -> FlakyWindow {
        FlakyWindow {
            period,
            open_fraction,
            phase: SimDuration::ZERO,
        }
    }

    /// Whether the window is open at instant `at`.
    pub fn is_open(&self, at: SimTime) -> bool {
        if self.open_fraction >= 1.0 || self.period == SimDuration::ZERO {
            return true;
        }
        if self.open_fraction <= 0.0 {
            return false;
        }
        let pos = (at.as_micros() + self.phase.as_micros()) % self.period.as_micros();
        (pos as f64) < self.open_fraction * self.period.as_micros() as f64
    }
}

/// A campaign-wide fault regime: what the probed infrastructure injects
/// on the DNS path, on the SMTP path, and which hosts blink on a
/// [`FlakyWindow`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultProfile {
    /// Faults on the MTAs' resolver path (timeouts, SERVFAIL, truncation).
    pub dns: FaultPlan,
    /// Faults on the prober's SMTP path (tempfail, mid-session reset).
    pub smtp: FaultPlan,
    /// Fraction of hosts subject to the reachability window.
    pub flaky_fraction: f64,
    /// The window template applied to affected hosts (each host draws its
    /// own phase).
    pub window: Option<FlakyWindow>,
}

impl FaultProfile {
    /// A profile that injects nothing.
    pub const NONE: FaultProfile = FaultProfile {
        dns: FaultPlan::NONE,
        smtp: FaultPlan::NONE,
        flaky_fraction: 0.0,
        window: None,
    };

    /// Whether the profile injects anything at all.
    pub fn is_active(&self) -> bool {
        self.dns.is_active()
            || self.smtp.is_active()
            || (self.flaky_fraction > 0.0 && self.window.is_some())
    }

    /// Materialise the reachability window for one host, or `None` when
    /// the host is not affected.
    ///
    /// The membership roll and the phase are drawn from a stream forked
    /// off `rng_root` by the host id alone, so the same host gets the
    /// same window on every engine and every call.
    pub fn window_for_host(&self, rng_root: &SimRng, host: u64) -> Option<FlakyWindow> {
        let template = self.window?;
        if self.flaky_fraction <= 0.0 {
            return None;
        }
        let mut rng = rng_root.fork_idx("fault-window", host);
        if !rng.chance(self.flaky_fraction) {
            return None;
        }
        let phase = SimDuration::from_micros(rng.below(template.period.as_micros().max(1)));
        Some(FlakyWindow { phase, ..template })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_always_delivers() {
        let mut rng = SimRng::new(1);
        for _ in 0..100 {
            for outcome in [
                FaultPlan::NONE.connection_outcome(&mut rng),
                FaultPlan::NONE.datagram_outcome(&mut rng),
                FaultPlan::NONE.smtp_outcome(&mut rng),
            ] {
                assert_eq!(outcome, FaultOutcome::Delivered);
            }
        }
        assert!(!FaultPlan::NONE.is_active());
    }

    #[test]
    fn refuse_all_always_refuses() {
        let mut rng = SimRng::new(2);
        for _ in 0..100 {
            assert_eq!(
                FaultPlan::REFUSE_ALL.connection_outcome(&mut rng),
                FaultOutcome::Refused
            );
        }
    }

    #[test]
    fn abort_rate_is_roughly_calibrated() {
        let plan = FaultPlan {
            abort_chance: 0.2,
            ..FaultPlan::NONE
        };
        let mut rng = SimRng::new(3);
        let aborted = (0..10_000)
            .filter(|_| plan.connection_outcome(&mut rng) == FaultOutcome::Aborted)
            .count();
        assert!((1_700..2_300).contains(&aborted), "aborted={aborted}");
    }

    #[test]
    fn refusal_takes_precedence_over_abort() {
        let plan = FaultPlan {
            refuse_chance: 1.0,
            abort_chance: 1.0,
            ..FaultPlan::NONE
        };
        let mut rng = SimRng::new(4);
        assert_eq!(plan.connection_outcome(&mut rng), FaultOutcome::Refused);
    }

    #[test]
    fn zero_probability_modes_consume_no_randomness() {
        // Appending new zero-chance fault modes must not shift existing
        // RNG streams: a datagram roll against a drop-only plan draws
        // exactly one value, same as before the extra modes existed.
        use rand::RngCore;
        let plan = FaultPlan::dns_timeout(0.5);
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        let _ = plan.datagram_outcome(&mut a);
        let _ = b.chance(0.5);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn datagram_fault_precedence() {
        let mut rng = SimRng::new(5);
        let plan = FaultPlan {
            drop_chance: 1.0,
            servfail_chance: 1.0,
            truncate_chance: 1.0,
            ..FaultPlan::NONE
        };
        assert_eq!(plan.datagram_outcome(&mut rng), FaultOutcome::Dropped);
        assert_eq!(
            FaultPlan::dns_servfail(1.0).datagram_outcome(&mut rng),
            FaultOutcome::ServFail
        );
        assert_eq!(
            FaultPlan::dns_truncate(1.0).datagram_outcome(&mut rng),
            FaultOutcome::Truncated
        );
    }

    #[test]
    fn smtp_fault_precedence() {
        let mut rng = SimRng::new(6);
        let plan = FaultPlan {
            tempfail_chance: 1.0,
            reset_chance: 1.0,
            ..FaultPlan::NONE
        };
        assert_eq!(plan.smtp_outcome(&mut rng), FaultOutcome::TempFailed);
        assert_eq!(
            FaultPlan::smtp_reset(1.0).smtp_outcome(&mut rng),
            FaultOutcome::Reset
        );
    }

    #[test]
    fn window_opens_and_closes_on_the_clock() {
        let window = FlakyWindow::new(SimDuration::from_mins(10), 0.5);
        assert!(window.is_open(SimTime::EPOCH));
        assert!(window.is_open(SimTime::EPOCH + SimDuration::from_mins(4)));
        assert!(!window.is_open(SimTime::EPOCH + SimDuration::from_mins(6)));
        assert!(window.is_open(SimTime::EPOCH + SimDuration::from_mins(11)));
        // Degenerate shapes.
        assert!(FlakyWindow::new(SimDuration::ZERO, 0.0).is_open(SimTime::EPOCH));
        assert!(FlakyWindow::new(SimDuration::from_mins(1), 1.0)
            .is_open(SimTime::EPOCH + SimDuration::from_secs(59)));
        let shut = FlakyWindow::new(SimDuration::from_mins(1), 0.0);
        assert!(!shut.is_open(SimTime::EPOCH));
        // Phase shifts the cycle.
        let shifted = FlakyWindow {
            phase: SimDuration::from_mins(5),
            ..window
        };
        assert!(!shifted.is_open(SimTime::EPOCH + SimDuration::from_mins(1)));
    }

    #[test]
    fn window_for_host_is_deterministic_and_respects_fraction() {
        let profile = FaultProfile {
            flaky_fraction: 0.5,
            window: Some(FlakyWindow::new(SimDuration::from_mins(30), 0.5)),
            ..FaultProfile::NONE
        };
        let root = SimRng::new(99);
        let affected = (0..1_000u64)
            .filter(|&h| profile.window_for_host(&root, h).is_some())
            .count();
        assert!((380..620).contains(&affected), "affected={affected}");
        for host in 0..100u64 {
            assert_eq!(
                profile.window_for_host(&root, host),
                profile.window_for_host(&root, host),
                "window materialisation must be a pure function of identity"
            );
        }
        assert!(FaultProfile::NONE.window_for_host(&root, 1).is_none());
        assert!(!FaultProfile::NONE.is_active());
        assert!(profile.is_active());
    }
}
