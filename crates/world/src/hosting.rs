//! Host records, behaviour profiles, and the patch-day model.

use std::net::Ipv4Addr;

use spfail_libspf2::MacroBehavior;
use spfail_mta::{ConnectPolicy, MtaConfig, SmtpQuirk, SpfStage};
use spfail_netsim::SimRng;

use crate::config::{SetRates, WorldConfig};
use crate::domains::SetMembership;
use crate::geo::GeoPoint;
use crate::pkgmgr::PackageManager;
use crate::timeline::Timeline;
use crate::tld;

/// Index of a host in [`crate::world::World::hosts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u32);

/// Why a host patched (pre-sampled ground truth the reports correlate
/// against).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatchCause {
    /// The distro shipped a fixed package and the host auto-updated.
    AutoUpdate(PackageManager),
    /// An administrator proactively tracking updates (window-1 patching).
    ProactiveAdmin,
    /// The private notification email (§7.7 — rare).
    PrivateNotification,
    /// Admin action following the public CVE disclosure.
    PublicDisclosure,
}

/// Full behavioural profile of one host.
#[derive(Debug, Clone)]
pub struct HostProfile {
    /// Connection acceptance.
    pub connect: ConnectPolicy,
    /// Mid-SMTP failure behaviour.
    pub quirk: SmtpQuirk,
    /// When SPF validation runs.
    pub spf_stage: SpfStage,
    /// The SPF implementation(s).
    pub impls: Vec<MacroBehavior>,
    /// Greylisting on first contact.
    pub greylist: bool,
    /// Recipient-ladder depth rejected before acceptance.
    pub rcpt_reject_first_n: u8,
    /// Whether the host rejects `postmaster@` (RFC violation, §7.7).
    pub reject_postmaster: bool,
    /// Probe count after which the host blacklists the prober.
    pub blacklist_after: Option<u32>,
    /// Per-probe chance of a transient failure (inconclusive round).
    pub flaky: f64,
    /// The distro channel the host's libSPF2 package comes from.
    pub distro: PackageManager,
    /// Day the host patches (may exceed [`Timeline::END`], i.e. after the
    /// study); `None` = never.
    pub patch_day: Option<u16>,
    /// Why it patches.
    pub patch_cause: Option<PatchCause>,
}

impl HostProfile {
    /// Whether the host runs a vulnerable libSPF2 at the given day.
    pub fn is_vulnerable_on(&self, day: u16) -> bool {
        self.impls.iter().any(|b| b.is_vulnerable())
            && self.patch_day.map_or(true, |patch| day < patch)
    }

    /// Whether the host was vulnerable at the initial measurement.
    pub fn initially_vulnerable(&self) -> bool {
        self.is_vulnerable_on(Timeline::INITIAL)
    }

    /// Whether the host validates SPF at all.
    pub fn validates_spf(&self) -> bool {
        self.spf_stage != SpfStage::Never
    }

    /// The patch-event horizon query: whether the host's observable SPF
    /// status can differ between a probe on day `after` and one on day
    /// `upto`. The only day-keyed event in a host's behaviour model is
    /// its patch day, so the answer is whether that day falls in
    /// `(after, upto]`.
    pub fn status_event_in(&self, after: u16, upto: u16) -> bool {
        self.patch_day
            .is_some_and(|patch| after < patch && patch <= upto)
    }

    /// Materialise an [`MtaConfig`] for this host as of `day`.
    pub fn mta_config(&self, hostname: impl Into<String>, day: u16) -> MtaConfig {
        let mut config = MtaConfig {
            hostname: hostname.into(),
            ..MtaConfig::default()
        };
        self.fill_mta_config(&mut config, day);
        config
    }

    /// Overwrite every field of `config` but its hostname with this
    /// host's behaviour as of `day` — patched once `day` reaches the
    /// patch day. The implementation list is rewritten in place, so a
    /// reused config keeps its allocation.
    pub fn fill_mta_config(&self, config: &mut MtaConfig, day: u16) {
        config.connect = self.connect;
        config.quirk = self.quirk;
        config.spf_stage = self.spf_stage;
        config.spf_impls.clear();
        config.spf_impls.extend_from_slice(&self.impls);
        config.greylist = self.greylist;
        config.reject_on_spf_fail = true;
        config.blacklist_after = self.blacklist_after;
        config.reject_postmaster = self.reject_postmaster;
        if self.patch_day.is_some_and(|patch| day >= patch) {
            config.apply_patch();
        }
    }
}

/// One server address in the simulated Internet.
#[derive(Debug, Clone)]
pub struct HostRecord {
    /// The address.
    pub ip: Ipv4Addr,
    /// Geolocation.
    pub geo: GeoPoint,
    /// The set whose rates generated this host.
    pub primary_set: SetMembership,
    /// TLD of the host's primary domain (drives geo and patch rates),
    /// from the static TLD tables.
    pub primary_tld: &'static str,
    /// Whether the host serves an Alexa Top 1000 domain.
    pub serves_top1000: bool,
    /// Behaviour profile.
    pub profile: HostProfile,
}

/// Sample a host behaviour profile.
///
/// `rank_fraction` positions the host's primary domain in its ranking
/// (0 = most popular); Figure 4's rank gradient comes from scaling the
/// vulnerability rate across this value.
pub fn sample_profile(
    config: &WorldConfig,
    rates: &SetRates,
    tld: &str,
    rank_fraction: f64,
    refuse_override: Option<f64>,
    rng: &mut SimRng,
) -> HostProfile {
    let refuse_p = refuse_override.unwrap_or(rates.refuse);
    let connect = if rng.chance(refuse_p) {
        ConnectPolicy::Refuse
    } else {
        ConnectPolicy::Accept
    };

    // Mid-SMTP failures (Table 3 "SMTP Failure" rows).
    let quirk = if connect == ConnectPolicy::Accept && rng.chance(rates.smtp_failure) {
        match rng.below(4) {
            0 => SmtpQuirk::RejectMailFrom(553),
            1 => SmtpQuirk::RejectAllRcpt(550),
            2 => SmtpQuirk::RejectMailFrom(554),
            _ => SmtpQuirk::RejectAllRcpt(554),
        }
    } else if connect == ConnectPolicy::Accept && rng.chance(rates.blankmsg_failure) {
        if rng.chance(0.5) {
            SmtpQuirk::RejectData(554)
        } else {
            SmtpQuirk::RejectMessage(550)
        }
    } else {
        SmtpQuirk::None
    };

    // SPF validation stage. A host that refuses every connection has no
    // observable (or exploitable) SPF behaviour; modelling it as
    // non-validating keeps ground truth aligned with what the paper's
    // "vulnerable" category can mean.
    let stage_roll = rng.unit();
    let spf_stage = if connect == ConnectPolicy::Refuse {
        SpfStage::Never
    } else if stage_roll < rates.spf_on_mailfrom {
        SpfStage::OnMailFrom
    } else if stage_roll < rates.spf_on_mailfrom + rates.spf_on_data {
        SpfStage::OnData
    } else {
        SpfStage::Never
    };

    // SPF implementation mix (Table 4 / Table 7), with the Figure 4 rank
    // gradient: lower-ranked (higher fraction) domains run old software
    // more often.
    let span = config.rank_vulnerability_span;
    let rank_mult = (2.0 / (1.0 + span)) * (1.0 + (span - 1.0) * rank_fraction);
    let vulnerable_p = (rates.vulnerable_given_spf * rank_mult).min(0.9);
    let primary = if spf_stage == SpfStage::Never {
        MacroBehavior::Compliant
    } else if rng.chance(vulnerable_p) {
        MacroBehavior::VulnerableLibSpf2
    } else if rng.chance(rates.erroneous_given_spf / (1.0 - vulnerable_p).max(0.05)) {
        sample_quirk_behavior(rng)
    } else {
        MacroBehavior::Compliant
    };
    // Room for the second implementation, so a multi-implementation
    // host allocates its list once.
    let mut impls = Vec::with_capacity(2);
    impls.push(primary);
    if spf_stage != SpfStage::Never && rng.chance(config.multi_impl_rate) {
        let second = loop {
            let candidate = match rng.below(10) {
                0 => MacroBehavior::VulnerableLibSpf2,
                1 | 2 => sample_quirk_behavior(rng),
                _ => MacroBehavior::Compliant,
            };
            if candidate != primary {
                break candidate;
            }
        };
        impls.push(second);
    }

    let vulnerable = impls.iter().any(|b| b.is_vulnerable());
    let distro = PackageManager::sample_vulnerable_host_distro(rng);
    let (patch_day, patch_cause) = if vulnerable {
        sample_patch(config, tld, false, distro, rng)
    } else {
        (None, None)
    };

    HostProfile {
        connect,
        quirk,
        spf_stage,
        impls,
        greylist: rng.chance(config.greylist_rate),
        reject_postmaster: rng.chance(config.postmaster_missing_rate),
        rcpt_reject_first_n: match rng.below(10) {
            0..=5 => 0,
            6 | 7 => 1,
            8 => 2,
            _ => 4,
        },
        blacklist_after: {
            // Rounds are every 2 days; thresholds of 4-14 probes spread
            // the conclusiveness decay across the first window (Fig. 5).
            // Both draws are consumed unconditionally (common random
            // numbers; see sample_patch).
            let roll = rng.unit();
            let threshold = 4 + rng.below(11) as u32;
            if vulnerable && roll < config.blacklist_rate {
                Some(threshold)
            } else {
                None
            }
        },
        flaky: config.flaky_rate * (0.5 + rng.unit()),
        distro,
        patch_day,
        patch_cause,
    }
}

/// Sample a non-vulnerable erroneous behaviour (Table 7 mix).
fn sample_quirk_behavior(rng: &mut SimRng) -> MacroBehavior {
    const QUIRKS: [(MacroBehavior, f64); 6] = [
        (MacroBehavior::NoExpansion, 0.34),
        (MacroBehavior::ReverseNoTruncate, 0.24),
        (MacroBehavior::TruncateNoReverse, 0.16),
        (MacroBehavior::IgnoreTransformers, 0.14),
        (MacroBehavior::EmptyExpansion, 0.06),
        (MacroBehavior::MacroUnsupported, 0.06),
    ];
    const WEIGHTS: [f64; 6] = weight_column(&QUIRKS);
    QUIRKS[rng.pick_weighted(&WEIGHTS).expect("non-empty")].0
}

/// The weight column of a `(choice, weight)` table, built at compile
/// time so a draw from the table allocates nothing.
pub(crate) const fn weight_column<T: Copy, const N: usize>(table: &[(T, f64); N]) -> [f64; N] {
    let mut weights = [0.0; N];
    let mut i = 0;
    while i < N {
        weights[i] = table[i].1;
        i += 1;
    }
    weights
}

/// Sample whether/when a vulnerable host patches.
///
/// The mixture encodes §7.2–§7.8: per-TLD propensities (Table 5), the
/// window-1 proactive wave (partly distro-driven: Gentoo Oct 25, Arch
/// Nov 22), the marginal private-notification effect, and the
/// post-disclosure wave (Debian Jan 20 + manual action).
///
/// **Common random numbers:** every call consumes the same fixed pattern
/// of six uniform draws regardless of configuration, so counterfactual
/// configs (`auto_update_share = 0`, different multipliers, …) perturb
/// only the decisions they actually change — the rest of the world stays
/// byte-identical and scenario differences are attributable.
pub fn sample_patch(
    config: &WorldConfig,
    tld: &str,
    serves_top1000: bool,
    distro: PackageManager,
    rng: &mut SimRng,
) -> (Option<u16>, Option<PatchCause>) {
    let u_patch = rng.unit();
    let u_snapshot_day = rng.unit();
    let u_auto = rng.unit();
    let u_lag = rng.unit();
    let u_mode = rng.unit();
    let u_day = rng.unit();

    let mut p = tld::patch_rate(tld);
    if serves_top1000 {
        p *= config.top1000_patch_multiplier;
    }
    if u_patch >= p {
        return (None, None);
    }

    // Top-1000 hosts that do patch are only caught by the final snapshot
    // (§7.6: no longitudinal patching signal, a handful in the snapshot).
    if serves_top1000 {
        return (
            Some(115 + (u_snapshot_day * 11.0) as u16),
            Some(PatchCause::PublicDisclosure),
        );
    }

    // Distro auto-update, when the channel shipped a fix.
    if u_auto < config.auto_update_share {
        if let Some(day) = distro.fix_available_day() {
            let lag = geometric_icdf(u_lag, 0.25).min(20) as u16;
            return (Some(day + 1 + lag), Some(PatchCause::AutoUpdate(distro)));
        }
    }

    // Manual admin action.
    let w1 = tld::window1_share(tld);
    if u_mode < w1 {
        let span = f64::from(Timeline::WINDOW1_END - Timeline::LONGITUDINAL_START);
        let day = Timeline::LONGITUDINAL_START + (u_day * span) as u16;
        (Some(day), Some(PatchCause::ProactiveAdmin))
    } else if u_mode < w1 + 0.03 {
        // §7.7: 9 of 14k+ vulnerable domains patched between private and
        // public disclosure in response to the notification.
        let span = f64::from(Timeline::PUBLIC_DISCLOSURE - Timeline::PRIVATE_NOTIFICATION - 2);
        let day = Timeline::PRIVATE_NOTIFICATION + 2 + (u_day * span) as u16;
        (Some(day), Some(PatchCause::PrivateNotification))
    } else {
        let lag = geometric_icdf(u_lag, 0.18).min(40) as u16;
        (
            Some(Timeline::PUBLIC_DISCLOSURE + 1 + lag),
            Some(PatchCause::PublicDisclosure),
        )
    }
}

/// Geometric sample (failures before the first success of probability
/// `p`) via the inverse CDF, consuming exactly the one uniform it is
/// given — the building block of the common-random-numbers design.
fn geometric_icdf(u: f64, p: f64) -> u64 {
    if p >= 1.0 || u <= 0.0 {
        return 0;
    }
    let lag = (1.0 - u).ln() / (1.0 - p).ln();
    if lag.is_finite() && lag >= 0.0 {
        lag as u64
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rates() -> SetRates {
        WorldConfig::default().alexa_rates
    }

    #[test]
    fn profiles_are_internally_consistent() {
        let config = WorldConfig::default();
        let mut rng = SimRng::new(9);
        for i in 0..2_000 {
            let p = sample_profile(&config, &rates(), "com", 0.5, None, &mut rng);
            if p.spf_stage == SpfStage::Never {
                assert_eq!(p.impls, vec![MacroBehavior::Compliant], "host {i}");
            }
            if p.patch_day.is_some() {
                assert!(p.impls.iter().any(|b| b.is_vulnerable()));
                assert!(p.patch_cause.is_some());
            }
            if p.impls.len() == 2 {
                assert_ne!(p.impls[0], p.impls[1]);
            }
        }
    }

    #[test]
    fn vulnerability_rate_is_near_one_sixth_of_validators() {
        let config = WorldConfig::default();
        let mut rng = SimRng::new(10);
        let mut validators = 0;
        let mut vulnerable = 0;
        for _ in 0..20_000 {
            let p = sample_profile(&config, &rates(), "com", 0.5, None, &mut rng);
            if p.validates_spf() {
                validators += 1;
                if p.impls.iter().any(|b| b.is_vulnerable()) {
                    vulnerable += 1;
                }
            }
        }
        let rate = vulnerable as f64 / validators as f64;
        assert!((0.13..0.21).contains(&rate), "vulnerable rate {rate}");
    }

    #[test]
    fn rank_gradient_doubles_vulnerability() {
        let config = WorldConfig::default();
        let rate_at = |frac: f64, seed: u64| {
            let mut rng = SimRng::new(seed);
            let mut validators = 0;
            let mut vulnerable = 0;
            for _ in 0..30_000 {
                let p = sample_profile(&config, &rates(), "com", frac, None, &mut rng);
                if p.validates_spf() {
                    validators += 1;
                    if p.impls.iter().any(|b| b.is_vulnerable()) {
                        vulnerable += 1;
                    }
                }
            }
            vulnerable as f64 / validators as f64
        };
        let top = rate_at(0.0, 11);
        let bottom = rate_at(1.0, 12);
        let ratio = bottom / top;
        assert!((1.8..3.1).contains(&ratio), "rank ratio {ratio}");
    }

    #[test]
    fn tw_hosts_never_patch_and_za_mostly_do() {
        let config = WorldConfig::default();
        let mut rng = SimRng::new(13);
        let mut za_patched = 0;
        for _ in 0..1_000 {
            let (day, _) = sample_patch(&config, "tw", false, PackageManager::Debian, &mut rng);
            assert_eq!(day, None, "tw patch rate is 0%");
            let (day, _) = sample_patch(&config, "za", false, PackageManager::Other, &mut rng);
            if day.is_some() {
                za_patched += 1;
            }
        }
        assert!((700..880).contains(&za_patched), "za patched {za_patched}");
    }

    #[test]
    fn za_patches_land_in_window_one() {
        let config = WorldConfig::default();
        let mut rng = SimRng::new(14);
        let mut window1 = 0;
        let mut total = 0;
        for _ in 0..2_000 {
            if let (Some(day), _) =
                sample_patch(&config, "za", false, PackageManager::Other, &mut rng)
            {
                total += 1;
                if day <= Timeline::WINDOW1_END {
                    window1 += 1;
                }
            }
        }
        assert!(total > 0);
        let share = f64::from(window1) / f64::from(total);
        assert!(share > 0.9, "za window-1 share {share}");
    }

    #[test]
    fn top1000_patches_only_in_snapshot_range() {
        let config = WorldConfig::default();
        let mut rng = SimRng::new(15);
        for _ in 0..2_000 {
            if let (Some(day), cause) =
                sample_patch(&config, "com", true, PackageManager::Debian, &mut rng)
            {
                assert!((115..=126).contains(&day), "day {day}");
                assert_eq!(cause, Some(PatchCause::PublicDisclosure));
            }
        }
    }

    #[test]
    fn profile_materialises_patched_config_after_patch_day() {
        let profile = HostProfile {
            connect: ConnectPolicy::Accept,
            quirk: SmtpQuirk::None,
            spf_stage: SpfStage::OnMailFrom,
            impls: vec![MacroBehavior::VulnerableLibSpf2],
            greylist: false,
            rcpt_reject_first_n: 0,
            reject_postmaster: false,
            blacklist_after: None,
            flaky: 0.0,
            distro: PackageManager::Debian,
            patch_day: Some(101),
            patch_cause: Some(PatchCause::AutoUpdate(PackageManager::Debian)),
        };
        assert!(profile.initially_vulnerable());
        assert!(profile.is_vulnerable_on(100));
        assert!(!profile.is_vulnerable_on(101));
        assert!(profile.mta_config("mx.test", 50).is_vulnerable());
        assert!(!profile.mta_config("mx.test", 101).is_vulnerable());
    }

    #[test]
    fn auto_update_waves_follow_package_dates() {
        let config = WorldConfig::default();
        let mut rng = SimRng::new(16);
        let mut debian_days = Vec::new();
        for _ in 0..3_000 {
            if let (Some(day), Some(PatchCause::AutoUpdate(PackageManager::Debian))) =
                sample_patch(&config, "de", false, PackageManager::Debian, &mut rng)
            {
                debian_days.push(day);
            }
        }
        assert!(!debian_days.is_empty());
        assert!(debian_days.iter().all(|&d| d > Timeline::DEBIAN_PATCH));
    }
}
