//! The initial sweep's record, compressed to one `u32` per host.
//!
//! Every campaign session carries the sweep as a [`HostMask`] column
//! (index = host id): a 22-bit fingerprint per host that preserves
//! *exactly* the predicates the longitudinal engine and every exhibit
//! read from the initial sweep (outcome ladder, macro behaviours,
//! vulnerability, preferred re-probe test). Both sweeps fold each host
//! into its mask as soon as its probes finish. An eager session also
//! keeps the per-host results; a streaming one keeps only the column.
//! The longitudinal tracking set is derived from the column alone, in
//! one place (`Tracking::from_masks`), for a fresh sweep, a restored
//! checkpoint and a streamed handoff alike.
//!
//! [`CampaignSummary`] is the sweep record a finished run hands out: the
//! mask column plus the tracking set derived from it. Eager and
//! streaming runs produce it bit for bit alike
//! (`tests/streaming_equivalence.rs`).

use spfail_libspf2::MacroBehavior;
use spfail_world::{DomainId, HostId, Population};

use crate::campaign::{CampaignData, HostClass, HostInitialResult};
use crate::probe::ProbeTest;

/// Every macro behaviour, in declaration order; the index of a behaviour
/// in this array is its bit position in a [`HostMask`].
pub const BEHAVIOR_BITS: [MacroBehavior; 9] = [
    MacroBehavior::Compliant,
    MacroBehavior::VulnerableLibSpf2,
    MacroBehavior::PatchedLibSpf2,
    MacroBehavior::NoExpansion,
    MacroBehavior::ReverseNoTruncate,
    MacroBehavior::TruncateNoReverse,
    MacroBehavior::IgnoreTransformers,
    MacroBehavior::EmptyExpansion,
    MacroBehavior::MacroUnsupported,
];

/// A host's initial measurement, compressed to one `u32`.
///
/// Bits 0–8 are the conclusive classification's behaviour set (indexed by
/// [`BEHAVIOR_BITS`]); the remaining bits are the outcome predicates the
/// rest of the system reads. The compression is lossy — probe ids, raw
/// transactions and unknown-pattern *counts* are dropped — but every
/// derived quantity (the [`HostClass`] ladder, tracking, the preferred
/// re-probe test, all Table 3/4/7 predicates) survives exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct HostMask(pub u32);

impl HostMask {
    /// `nomsg.refused()`.
    pub const NOMSG_REFUSED: u32 = 1 << 9;
    /// `nomsg.smtp_failure()`.
    pub const NOMSG_FAILURE: u32 = 1 << 10;
    /// `nomsg.spf_measured()`.
    pub const NOMSG_MEASURED: u32 = 1 << 11;
    /// A BlankMsg probe ran.
    pub const BLANK_PRESENT: u32 = 1 << 12;
    /// `blank.smtp_failure()`.
    pub const BLANK_FAILURE: u32 = 1 << 13;
    /// `blank.spf_measured()`.
    pub const BLANK_MEASURED: u32 = 1 << 14;
    /// `classification().is_some()`.
    pub const MEASURED: u32 = 1 << 15;
    /// The vulnerable fingerprint was observed.
    pub const VULNERABLE: u32 = 1 << 16;
    /// `classification().erroneous_non_vulnerable()`.
    pub const ERRONEOUS: u32 = 1 << 17;
    /// `classification().unknown_patterns > 0`.
    pub const UNKNOWN_PATTERNS: u32 = 1 << 18;
    /// `classification().multi_pattern()`.
    pub const MULTI_PATTERN: u32 = 1 << 19;
    /// The conclusive measurement came from the NoMsg test.
    pub const MEASURED_BY_NOMSG: u32 = 1 << 20;
    /// Some probe ended in a transient failure (re-measurable).
    pub const TRANSIENT: u32 = 1 << 21;

    /// Compress one initial result.
    pub fn from_initial(result: &HostInitialResult) -> HostMask {
        let mut bits = 0u32;
        if result.nomsg.refused() {
            bits |= Self::NOMSG_REFUSED;
        }
        if result.nomsg.smtp_failure() {
            bits |= Self::NOMSG_FAILURE;
        }
        if result.nomsg.spf_measured() {
            bits |= Self::NOMSG_MEASURED;
        }
        if let Some(blank) = &result.blankmsg {
            bits |= Self::BLANK_PRESENT;
            if blank.smtp_failure() {
                bits |= Self::BLANK_FAILURE;
            }
            if blank.spf_measured() {
                bits |= Self::BLANK_MEASURED;
            }
        }
        if let Some(classification) = result.classification() {
            bits |= Self::MEASURED;
            for (i, behavior) in BEHAVIOR_BITS.iter().enumerate() {
                if classification.behaviors.contains(behavior) {
                    bits |= 1 << i;
                }
            }
            if classification.vulnerable() {
                bits |= Self::VULNERABLE;
            }
            if classification.erroneous_non_vulnerable() {
                bits |= Self::ERRONEOUS;
            }
            if classification.unknown_patterns > 0 {
                bits |= Self::UNKNOWN_PATTERNS;
            }
            if classification.multi_pattern() {
                bits |= Self::MULTI_PATTERN;
            }
        }
        if result.measured_by() == Some(ProbeTest::NoMsg) {
            bits |= Self::MEASURED_BY_NOMSG;
        }
        if result.transient() {
            bits |= Self::TRANSIENT;
        }
        HostMask(bits)
    }

    fn has(self, bit: u32) -> bool {
        self.0 & bit != 0
    }

    /// Whether the behaviour at `BEHAVIOR_BITS[i]` was observed.
    pub fn behavior(self, i: usize) -> bool {
        debug_assert!(i < BEHAVIOR_BITS.len());
        self.0 & (1 << i) != 0
    }

    /// `classification().is_some()`.
    pub fn measured(self) -> bool {
        self.has(Self::MEASURED)
    }

    /// The vulnerable fingerprint was observed — exactly
    /// [`HostInitialResult::vulnerable`].
    pub fn vulnerable(self) -> bool {
        self.has(Self::VULNERABLE)
    }

    /// Exactly `classification().erroneous_non_vulnerable()`.
    pub fn erroneous(self) -> bool {
        self.has(Self::ERRONEOUS)
    }

    /// Exactly `classification().unknown_patterns > 0`.
    pub fn unknown_patterns(self) -> bool {
        self.has(Self::UNKNOWN_PATTERNS)
    }

    /// Exactly `classification().multi_pattern()`.
    pub fn multi_pattern(self) -> bool {
        self.has(Self::MULTI_PATTERN)
    }

    /// Exactly [`HostInitialResult::transient`].
    pub fn transient(self) -> bool {
        self.has(Self::TRANSIENT)
    }

    /// `nomsg.refused()`.
    pub fn nomsg_refused(self) -> bool {
        self.has(Self::NOMSG_REFUSED)
    }

    /// `nomsg.smtp_failure()`.
    pub fn nomsg_failure(self) -> bool {
        self.has(Self::NOMSG_FAILURE)
    }

    /// `nomsg.spf_measured()`.
    pub fn nomsg_measured(self) -> bool {
        self.has(Self::NOMSG_MEASURED)
    }

    /// Whether a BlankMsg probe ran.
    pub fn blank_present(self) -> bool {
        self.has(Self::BLANK_PRESENT)
    }

    /// `blank.smtp_failure()` (false when no BlankMsg probe ran).
    pub fn blank_failure(self) -> bool {
        self.has(Self::BLANK_FAILURE)
    }

    /// `blank.spf_measured()` (false when no BlankMsg probe ran).
    pub fn blank_measured(self) -> bool {
        self.has(Self::BLANK_MEASURED)
    }

    /// The probe variant that produced the conclusive measurement —
    /// exactly [`HostInitialResult::measured_by`].
    pub fn measured_by(self) -> Option<ProbeTest> {
        if self.has(Self::MEASURED_BY_NOMSG) {
            Some(ProbeTest::NoMsg)
        } else if self.measured() {
            Some(ProbeTest::BlankMsg)
        } else {
            None
        }
    }

    /// The Table 3 outcome ladder — exactly [`HostInitialResult::class`].
    pub fn class(self) -> HostClass {
        if self.measured() {
            return HostClass::SpfMeasured;
        }
        if self.nomsg_refused() {
            return HostClass::Refused;
        }
        if self.nomsg_failure() || self.blank_failure() {
            return HostClass::SmtpFailure;
        }
        HostClass::SpfNotMeasured
    }

    /// The test a tracked host is re-probed with in every round and the
    /// snapshot: the test that measured it conclusively, else BlankMsg.
    pub fn preferred_test(self) -> ProbeTest {
        self.measured_by().unwrap_or(ProbeTest::BlankMsg)
    }

    /// Whether the longitudinal engine tracks this host: the §5.1 rule
    /// tracks exactly the initially vulnerable hosts. A transient probe
    /// failure adds no host — only a vulnerable one would be re-tracked,
    /// and that host is tracked already. `Tracking::from_masks` applies
    /// this test for every session.
    pub fn tracked(self) -> bool {
        self.vulnerable()
    }
}

/// The hosts the longitudinal engine tracks, id-sorted: those whose
/// mask has the vulnerable bit (see [`HostMask::tracked`]).
pub(crate) fn tracked_hosts(masks: &[u32]) -> Vec<HostId> {
    masks
        .iter()
        .enumerate()
        .filter(|(_, &m)| HostMask(m).tracked())
        .map(|(i, _)| HostId(i as u32))
        .collect()
}

/// The longitudinal tracking set the initial sweep determines (§5.1),
/// derived from the sweep's mask column alone.
pub(crate) struct Tracking {
    /// The tracked hosts, id-sorted.
    pub(crate) tracked: Vec<HostId>,
    /// The initially vulnerable domains: every domain with a tracked
    /// host, id-sorted.
    pub(crate) vulnerable_domains: Vec<DomainId>,
}

impl Tracking {
    /// Derive tracking from `masks` (index = host id) over `pop`, which
    /// must hold every domain with a tracked host.
    pub(crate) fn from_masks(masks: &[u32], pop: &dyn Population) -> Tracking {
        let tracked = tracked_hosts(masks);
        Tracking {
            vulnerable_domains: pop.derive_vulnerable_domains(&tracked),
            tracked,
        }
    }
}

/// The initial sweep's record: the mask column and the tracking set
/// derived from it — the part of a campaign's output that only the
/// sweep determines.
///
/// Every session carries `masks` from its initial sweep (or restore) to
/// `finish`; eager-mode data alone yields the same summary through
/// [`CampaignSummary::from_data`]. The longitudinal record (rounds,
/// snapshot, ethics audit, network totals) lives once, in
/// [`CampaignData`].
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    /// One [`HostMask`] per host, indexed by host id.
    pub masks: Vec<u32>,
    /// Hosts tracked longitudinally (sorted).
    pub tracked: Vec<HostId>,
    /// Initially vulnerable domains (sorted).
    pub vulnerable_domains: Vec<DomainId>,
}

impl CampaignSummary {
    /// Derive the summary from eager-mode campaign data, whose sweep
    /// record is [`InitialMeasurement::masks`](crate::InitialMeasurement::masks).
    pub fn from_data(data: &CampaignData) -> CampaignSummary {
        CampaignSummary::with_masks(data.initial.masks(), data)
    }

    /// The summary of `data` whose sweep record is `masks`.
    pub(crate) fn with_masks(masks: Vec<u32>, data: &CampaignData) -> CampaignSummary {
        CampaignSummary {
            masks,
            tracked: data.tracked.clone(),
            vulnerable_domains: data.vulnerable_domains.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfail_world::{World, WorldConfig};

    fn small_run() -> CampaignData {
        let world = World::generate(WorldConfig {
            seed: 7,
            scale: 0.004,
            ..WorldConfig::default()
        });
        crate::CampaignBuilder::new().run(&world).data
    }

    #[test]
    fn mask_preserves_every_initial_predicate() {
        let data = small_run();
        for (host, result) in &data.initial.results {
            let mask = HostMask::from_initial(result);
            assert_eq!(mask.class(), result.class(), "host {host:?}");
            assert_eq!(mask.vulnerable(), result.vulnerable());
            assert_eq!(mask.transient(), result.transient());
            assert_eq!(mask.measured_by(), result.measured_by());
            assert_eq!(mask.measured(), result.classification().is_some());
            assert_eq!(mask.nomsg_refused(), result.nomsg.refused());
            assert_eq!(mask.nomsg_failure(), result.nomsg.smtp_failure());
            assert_eq!(mask.nomsg_measured(), result.nomsg.spf_measured());
            assert_eq!(mask.blank_present(), result.blankmsg.is_some());
            assert_eq!(
                mask.blank_failure(),
                result.blankmsg.as_ref().is_some_and(|b| b.smtp_failure())
            );
            assert_eq!(
                mask.blank_measured(),
                result.blankmsg.as_ref().is_some_and(|b| b.spf_measured())
            );
            if let Some(c) = result.classification() {
                assert_eq!(mask.erroneous(), c.erroneous_non_vulnerable());
                assert_eq!(mask.unknown_patterns(), c.unknown_patterns > 0);
                assert_eq!(mask.multi_pattern(), c.multi_pattern());
                for (i, b) in BEHAVIOR_BITS.iter().enumerate() {
                    assert_eq!(mask.behavior(i), c.behaviors.contains(b));
                }
            }
        }
    }

    /// The mask helper against the §5.1 rule written directly over the
    /// per-host initial results.
    #[test]
    fn tracking_from_masks_matches_the_initial_results() {
        let world = World::generate(WorldConfig {
            seed: 7,
            scale: 0.004,
            ..WorldConfig::default()
        });
        for shards in [1, 3] {
            let run = crate::CampaignBuilder::new().shards(shards).run(&world);
            let results = &run.data.initial.results;
            let mut tracked: Vec<HostId> = results
                .iter()
                .filter(|(_, r)| r.vulnerable())
                .map(|(&h, _)| h)
                .collect();
            tracked.sort_unstable();
            let tracking = Tracking::from_masks(&run.summary.masks, &world);
            assert!(!tracking.tracked.is_empty(), "shards {shards}");
            assert_eq!(tracking.tracked, tracked, "shards {shards}");
            for h in &tracked {
                assert_eq!(
                    HostMask(run.summary.masks[h.0 as usize]).preferred_test(),
                    results[h].measured_by().unwrap_or(ProbeTest::BlankMsg),
                    "shards {shards}, {h:?}"
                );
            }
            assert_eq!(
                tracking.vulnerable_domains,
                world.derive_vulnerable_domains(&tracked),
                "shards {shards}"
            );
            assert_eq!(run.data.tracked, tracked, "shards {shards}");
        }
    }
}
