//! The measurement's self-imposed restraints (paper §6.1–§6.3).
//!
//! * duplicate IP addresses are only tested once per sweep — by
//!   construction: every host has an address of its own and a sweep
//!   probes each host once, so no guard state is needed for it;
//! * at most 250 SMTP connections are outstanding at any instant;
//! * consecutive connections to the same address (or to addresses of the
//!   same email domain) wait at least 90 seconds;
//! * a greylisted server is retried only after 8 minutes;
//! * one SMTP connection per email domain at a time (sequential testing).
//!
//! The simulation is single-threaded, so "concurrency" is modelled as a
//! budget of overlapping connection slots: the guard timestamps each
//! contact and enforces the spacing rules against the shared clock,
//! advancing it when a wait is required. All decisions are recorded so
//! tests (and the ethics section of the report) can audit them.
//!
//! The guard keeps one fact per address, its last contact time, and
//! only for addresses that will be contacted again: the initial sweep
//! [`forget`](EthicsGuard::forget)s each untracked host's address as
//! soon as its verdict is known.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::IpAddr;

use spfail_netsim::{SimClock, SimDuration, SimTime};

use crate::fxhash::FxBuildHasher;

/// Spacing constants from §6.1.
pub const MIN_RECONTACT: SimDuration = SimDuration::from_secs(90);
/// Wait before retrying a greylisting server.
pub const GREYLIST_WAIT: SimDuration = SimDuration::from_mins(8);
/// Hard cap on concurrent outgoing SMTP connections.
pub const MAX_CONCURRENT: usize = 250;

/// Audit counters for one sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EthicsAudit {
    /// Contacts admitted without waiting.
    pub immediate: u64,
    /// Contacts that had to wait for the 90-second spacing.
    pub spaced: u64,
    /// Greylist retries (each waited 8 minutes).
    pub greylist_waits: u64,
    /// Duplicate-IP probes suppressed. Always 0: host addresses are
    /// unique and a sweep probes each host once, so no sweep meets an
    /// address twice. Kept because the checkpoint's `wethics` line and
    /// the reports carry it.
    pub dedup_suppressed: u64,
    /// Maximum concurrent connections observed.
    pub peak_concurrency: usize,
}

impl EthicsAudit {
    /// Combine the audits of two workers that probed disjoint host sets.
    ///
    /// Waits and admissions simply add; concurrency peaks can coincide,
    /// so the combined peak is the maximum (a safe over-approximation
    /// equals the sum, but each worker's slots are carved out of the
    /// shared [`MAX_CONCURRENT`] budget, so peaks never alias).
    #[must_use]
    pub fn merge(&self, other: &EthicsAudit) -> EthicsAudit {
        EthicsAudit {
            immediate: self.immediate + other.immediate,
            spaced: self.spaced + other.spaced,
            greylist_waits: self.greylist_waits + other.greylist_waits,
            dedup_suppressed: self.dedup_suppressed + other.dedup_suppressed,
            peak_concurrency: self.peak_concurrency.max(other.peak_concurrency),
        }
    }
}

/// Enforces the measurement ethics rules.
pub struct EthicsGuard {
    clock: SimClock,
    /// Each address's last contact time.
    last_contact: HashMap<IpAddr, SimTime, FxBuildHasher>,
    in_flight: usize,
    max_concurrent: usize,
    audit: EthicsAudit,
}

impl EthicsGuard {
    /// A new guard against the shared clock, with the full §6.1 budget.
    pub fn new(clock: SimClock) -> EthicsGuard {
        EthicsGuard::with_budget(clock, MAX_CONCURRENT)
    }

    /// A guard holding only `max_concurrent` of the campaign-wide
    /// connection budget — shard workers split [`MAX_CONCURRENT`]
    /// between them so the fleet never exceeds the paper's cap.
    pub fn with_budget(clock: SimClock, max_concurrent: usize) -> EthicsGuard {
        EthicsGuard {
            clock,
            last_contact: HashMap::default(),
            in_flight: 0,
            max_concurrent: max_concurrent.clamp(1, MAX_CONCURRENT),
            audit: EthicsAudit::default(),
        }
    }

    /// Admit a contact to `ip`: waits out the 90-second spacing if the
    /// address was contacted recently and takes a concurrency slot.
    pub fn admit(&mut self, ip: IpAddr) {
        let now = self.clock.now();
        match self.last_contact.entry(ip) {
            Entry::Occupied(entry) => {
                let at = entry.into_mut();
                let since = now.since(*at);
                if since < MIN_RECONTACT {
                    self.clock.advance(MIN_RECONTACT.saturating_sub(since));
                    self.audit.spaced += 1;
                } else {
                    self.audit.immediate += 1;
                }
                *at = self.clock.now();
            }
            Entry::Vacant(entry) => {
                self.audit.immediate += 1;
                entry.insert(now);
            }
        }
        // The sequential simulation never truly overlaps connections; the
        // slot accounting documents the cap and trips if logic ever tries
        // to exceed it.
        assert!(
            self.in_flight < self.max_concurrent,
            "concurrency budget exceeded: the prober must throttle"
        );
        self.in_flight += 1;
        self.audit.peak_concurrency = self.audit.peak_concurrency.max(self.in_flight);
    }

    /// Whether at least one admitted contact currently holds a
    /// concurrency slot. Inner transaction code asserts this so no SMTP
    /// traffic can be emitted outside an `admit`/`release` bracket.
    pub fn holds_slot(&self) -> bool {
        self.in_flight > 0
    }

    /// Release the concurrency slot when the connection ends.
    pub fn release(&mut self, ip: IpAddr) {
        self.in_flight = self.in_flight.saturating_sub(1);
        self.last_contact.insert(ip, self.clock.now());
    }

    /// Forget `ip`'s contact history. Sound only when this guard never
    /// contacts `ip` again: the history only spaces repeat contacts, so
    /// forgetting a one-shot address is invisible. The audit counters
    /// are untouched.
    pub fn forget(&mut self, ip: IpAddr) {
        self.last_contact.remove(&ip);
    }

    /// Wait out the greylist period before retrying `ip`.
    pub fn greylist_wait(&mut self, _ip: IpAddr) {
        self.clock.advance(GREYLIST_WAIT);
        self.audit.greylist_waits += 1;
    }

    /// The audit counters.
    pub fn audit(&self) -> &EthicsAudit {
        &self.audit
    }

    /// Export the guard's durable state for a checkpoint: the audit plus
    /// the per-address contact history, in address order.
    ///
    /// At a round boundary these are the *only* live facts — every
    /// connection slot has been released, so `in_flight` needs no
    /// representation.
    pub fn export(&self) -> (EthicsAudit, Vec<(IpAddr, SimTime)>) {
        let mut contacts: Vec<(IpAddr, SimTime)> = self
            .last_contact
            .iter()
            .map(|(&ip, &at)| (ip, at))
            .collect();
        contacts.sort();
        (self.audit.clone(), contacts)
    }

    /// Restore the durable state written by [`EthicsGuard::export`],
    /// replacing this guard's audit and contact history.
    pub fn restore(&mut self, audit: EthicsAudit, contacts: Vec<(IpAddr, SimTime)>) {
        self.audit = audit;
        self.last_contact = contacts.into_iter().collect();
        self.in_flight = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(last: u8) -> IpAddr {
        IpAddr::V4(std::net::Ipv4Addr::new(192, 0, 2, last))
    }

    #[test]
    fn first_contact_is_immediate() {
        let clock = SimClock::new();
        let mut guard = EthicsGuard::new(clock.clone());
        guard.admit(ip(1));
        guard.release(ip(1));
        assert_eq!(guard.audit().immediate, 1);
        assert_eq!(clock.now(), SimTime::EPOCH);
    }

    #[test]
    fn recontact_waits_ninety_seconds() {
        let clock = SimClock::new();
        let mut guard = EthicsGuard::new(clock.clone());
        guard.admit(ip(1));
        guard.release(ip(1));
        guard.admit(ip(1));
        assert_eq!(guard.audit().spaced, 1);
        assert!(clock.now().since(SimTime::EPOCH) >= MIN_RECONTACT);
    }

    #[test]
    fn recontact_after_long_gap_is_immediate() {
        let clock = SimClock::new();
        let mut guard = EthicsGuard::new(clock.clone());
        guard.admit(ip(1));
        guard.release(ip(1));
        clock.advance(SimDuration::from_secs(120));
        guard.admit(ip(1));
        assert_eq!(guard.audit().spaced, 0);
        assert_eq!(guard.audit().immediate, 2);
    }

    /// `forget` drops exactly one address's history: the forgotten
    /// address is admitted again without spacing, the others keep
    /// theirs, the audit is untouched, and `restore` replaces the whole
    /// history with the exported one.
    #[test]
    fn forget_drops_one_address_and_restore_replaces_the_history() {
        let clock = SimClock::new();
        let mut guard = EthicsGuard::new(clock.clone());
        for i in 1..=3 {
            guard.admit(ip(i));
            guard.release(ip(i));
        }
        let audit = guard.audit().clone();
        guard.forget(ip(2));
        guard.forget(ip(9)); // never contacted: a no-op
        assert_eq!(guard.audit(), &audit, "forgetting audits nothing");
        let (_, contacts) = guard.export();
        let ips: Vec<IpAddr> = contacts.iter().map(|&(ip, _)| ip).collect();
        assert_eq!(ips, vec![ip(1), ip(3)]);

        guard.admit(ip(2));
        guard.release(ip(2));
        assert_eq!(guard.audit().spaced, 0, "a forgotten address is new again");
        assert_eq!(clock.now(), SimTime::EPOCH);
        guard.admit(ip(1));
        guard.release(ip(1));
        assert_eq!(guard.audit().spaced, 1, "a kept address keeps its spacing");

        let (audit, contacts) = guard.export();
        let mut restored = EthicsGuard::new(clock.clone());
        restored.admit(ip(7));
        restored.release(ip(7));
        restored.restore(audit.clone(), contacts.clone());
        assert_eq!(restored.export(), (audit, contacts), "restore replaces");
    }

    /// The export of a fixed contact sequence, pinned: spacing waits,
    /// releases and a forget produce exactly these contact times
    /// and audit counters (the values the two-map guard exported).
    #[test]
    fn export_of_a_contact_sequence_is_pinned() {
        let clock = SimClock::new();
        let mut guard = EthicsGuard::new(clock.clone());
        guard.admit(ip(1)); // t=0, immediate
        clock.advance(SimDuration::from_secs(10));
        guard.release(ip(1)); // last contact t=10
        guard.admit(ip(2)); // t=10, immediate
        guard.release(ip(2));
        guard.admit(ip(1)); // waits to t=100, spaced
        clock.advance(SimDuration::from_secs(5));
        guard.release(ip(1)); // t=105
        guard.admit(ip(3)); // t=105, immediate
        guard.release(ip(3));
        guard.admit(ip(2)); // t=105, 95 s after its release: immediate
        guard.release(ip(2));
        guard.greylist_wait(ip(2)); // t=585
        guard.admit(ip(2)); // immediate after the 8-minute wait
        guard.release(ip(2));
        guard.forget(ip(3));
        let (audit, contacts) = guard.export();
        let at = |secs| SimTime::EPOCH + SimDuration::from_secs(secs);
        assert_eq!(contacts, vec![(ip(1), at(105)), (ip(2), at(585))]);
        assert_eq!(
            audit,
            EthicsAudit {
                immediate: 5,
                spaced: 1,
                greylist_waits: 1,
                dedup_suppressed: 0,
                peak_concurrency: 1,
            }
        );
    }

    #[test]
    fn greylist_wait_advances_eight_minutes() {
        let clock = SimClock::new();
        let mut guard = EthicsGuard::new(clock.clone());
        guard.greylist_wait(ip(9));
        assert_eq!(clock.now().as_secs(), 480);
        assert_eq!(guard.audit().greylist_waits, 1);
    }

    /// Export → restore onto a fresh guard reproduces both the audit and
    /// the spacing behaviour: a recontact inside the 90-second window
    /// still waits after the round-trip.
    #[test]
    fn export_restore_preserves_spacing_and_audit() {
        let clock = SimClock::new();
        let mut guard = EthicsGuard::new(clock.clone());
        guard.admit(ip(1));
        guard.release(ip(1));
        guard.admit(ip(2));
        guard.release(ip(2));
        guard.admit(ip(1)); // spaced
        guard.release(ip(1));
        let (audit, contacts) = guard.export();
        assert_eq!(contacts.len(), 2);
        assert!(contacts.windows(2).all(|w| w[0].0 < w[1].0), "sorted");

        let mut restored = EthicsGuard::new(clock.clone());
        restored.restore(audit.clone(), contacts);
        assert_eq!(restored.audit(), &audit);
        // ip(1)'s last contact was refreshed when its spaced connection
        // released, so recontacting it immediately must wait again.
        let before = clock.now();
        restored.admit(ip(1));
        assert_eq!(restored.audit().spaced, audit.spaced + 1);
        assert!(clock.now().since(before) > SimDuration::ZERO);
    }

    #[test]
    fn concurrency_is_tracked() {
        let clock = SimClock::new();
        let mut guard = EthicsGuard::new(clock);
        for i in 0..100 {
            guard.admit(ip(i));
        }
        assert_eq!(guard.audit().peak_concurrency, 100);
        for i in 0..100 {
            guard.release(ip(i));
        }
        guard.admit(ip(200));
        assert_eq!(guard.audit().peak_concurrency, 100);
    }
}
