//! Package-manager patch timelines (paper Table 6) and the patch-wave
//! model derived from them.
//!
//! Table 6 is *input data* for the simulation, not a measured output: the
//! paper compiled it from distribution changelogs. It still appears in the
//! report harness (as the paper prints it), and — more importantly — it
//! drives *when* distro-auto-updating hosts patch in the longitudinal
//! simulation: Gentoo and Arch shipped the fix before public disclosure
//! (explaining part of the proactive window-1 patching), Debian shipped
//! the day after the CVEs went public (the visible step in Figure 7), and
//! Ubuntu/BSD/SUSE never shipped during the measurement.

use spfail_netsim::SimRng;

use crate::timeline::Timeline;

/// A package manager / distribution channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PackageManager {
    /// Debian (patched the day after disclosure).
    Debian,
    /// Alpine (patched ~50 days after disclosure — outside the window).
    Alpine,
    /// RedHat family (shipped the fix bundled with CVE-2021-20314).
    RedHat,
    /// Gentoo (bundled fix, 2021-10-25).
    Gentoo,
    /// Arch Linux (bundled fix, 2021-11-22).
    ArchLinux,
    /// Ubuntu (unpatched during the study).
    Ubuntu,
    /// FreeBSD ports (unpatched).
    FreeBsd,
    /// NetBSD (unpatched).
    NetBsd,
    /// SUSE Hub (unpatched).
    Suse,
    /// Anything else / self-built.
    Other,
}

/// One row of Table 6.
#[derive(Debug, Clone, Copy)]
pub struct PkgTimelineRow {
    /// The package manager.
    pub manager: PackageManager,
    /// Display name as printed in the table.
    pub name: &'static str,
    /// Days from CVE-2021-20314 disclosure (2021-08-11) to its patch;
    /// `None` = unpatched during the study.
    pub days_20314: Option<u16>,
    /// Patch date for CVE-2021-20314.
    pub date_20314: Option<&'static str>,
    /// Days from CVE-2021-33912/13 disclosure (2022-01-19) to its patch.
    /// Zero with `bundled = true` means the fix shipped *before*
    /// disclosure, bundled with the earlier CVE's update.
    pub days_33912: Option<u16>,
    /// Patch date for CVE-2021-33912/13.
    pub date_33912: Option<&'static str>,
    /// Whether the 33912/13 fix rode along with the 20314 update.
    pub bundled: bool,
}

/// Table 6, verbatim.
pub const PACKAGE_TIMELINE: [PkgTimelineRow; 9] = [
    PkgTimelineRow {
        manager: PackageManager::Debian,
        name: "Debian",
        days_20314: Some(0),
        date_20314: Some("2021-08-11"),
        days_33912: Some(0),
        date_33912: Some("2022-01-20"),
        bundled: false,
    },
    PkgTimelineRow {
        manager: PackageManager::Alpine,
        name: "Alpine",
        days_20314: Some(0),
        date_20314: Some("2021-08-11"),
        days_33912: Some(50),
        date_33912: Some("2022-03-11"),
        bundled: false,
    },
    PkgTimelineRow {
        manager: PackageManager::RedHat,
        name: "RedHat",
        days_20314: Some(42),
        date_20314: Some("2021-09-22"),
        days_33912: Some(0),
        date_33912: Some("2021-09-22"),
        bundled: true,
    },
    PkgTimelineRow {
        manager: PackageManager::Gentoo,
        name: "Gentoo",
        days_20314: Some(75),
        date_20314: Some("2021-10-25"),
        days_33912: Some(0),
        date_33912: Some("2021-10-25"),
        bundled: true,
    },
    PkgTimelineRow {
        manager: PackageManager::ArchLinux,
        name: "Arch Linux",
        days_20314: Some(103),
        date_20314: Some("2021-11-22"),
        days_33912: Some(0),
        date_33912: Some("2021-11-22"),
        bundled: true,
    },
    PkgTimelineRow {
        manager: PackageManager::Ubuntu,
        name: "Ubuntu",
        days_20314: None,
        date_20314: None,
        days_33912: None,
        date_33912: None,
        bundled: false,
    },
    PkgTimelineRow {
        manager: PackageManager::FreeBsd,
        name: "FreeBSD Ports",
        days_20314: None,
        date_20314: None,
        days_33912: None,
        date_33912: None,
        bundled: false,
    },
    PkgTimelineRow {
        manager: PackageManager::NetBsd,
        name: "NetBSD",
        days_20314: None,
        date_20314: None,
        days_33912: None,
        date_33912: None,
        bundled: false,
    },
    PkgTimelineRow {
        manager: PackageManager::Suse,
        name: "SUSE Hub",
        days_20314: None,
        date_20314: None,
        days_33912: None,
        date_33912: None,
        bundled: false,
    },
];

impl PackageManager {
    /// The measurement day (from [`Timeline`]) on which this channel made
    /// a fixed package available, if it did so during the study window.
    /// RedHat's bundled fix predates the initial measurement — hosts on
    /// it were never observed vulnerable, so it returns `None` here.
    pub fn fix_available_day(self) -> Option<u16> {
        match self {
            // 2021-10-25 = day 14; 2021-11-22 = day 42; 2022-01-20 = 101.
            PackageManager::Gentoo => Some(14),
            PackageManager::ArchLinux => Some(42),
            PackageManager::Debian => Some(Timeline::DEBIAN_PATCH),
            _ => None,
        }
    }

    /// Sample the distro of a host that was still vulnerable on day 0.
    /// RedHat-family hosts are excluded (their fix predates day 0).
    pub fn sample_vulnerable_host_distro(rng: &mut SimRng) -> PackageManager {
        const CHOICES: [(PackageManager, f64); 8] = [
            (PackageManager::Debian, 0.34),
            (PackageManager::Ubuntu, 0.26),
            (PackageManager::Gentoo, 0.04),
            (PackageManager::ArchLinux, 0.04),
            (PackageManager::Alpine, 0.05),
            (PackageManager::FreeBsd, 0.06),
            (PackageManager::Suse, 0.06),
            (PackageManager::Other, 0.15),
        ];
        const WEIGHTS: [f64; 8] = crate::hosting::weight_column(&CHOICES);
        let idx = rng.pick_weighted(&WEIGHTS).expect("non-empty");
        CHOICES[idx].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_shape() {
        assert_eq!(PACKAGE_TIMELINE.len(), 9);
        let debian = &PACKAGE_TIMELINE[0];
        assert_eq!(debian.days_33912, Some(0));
        assert!(!debian.bundled);
        let unpatched: Vec<&str> = PACKAGE_TIMELINE
            .iter()
            .filter(|r| r.days_33912.is_none())
            .map(|r| r.name)
            .collect();
        assert_eq!(
            unpatched,
            vec!["Ubuntu", "FreeBSD Ports", "NetBSD", "SUSE Hub"]
        );
    }

    #[test]
    fn fix_days_line_up_with_the_calendar() {
        assert_eq!(
            Timeline::date_label(PackageManager::Gentoo.fix_available_day().unwrap()),
            "2021-10-25"
        );
        assert_eq!(
            Timeline::date_label(PackageManager::ArchLinux.fix_available_day().unwrap()),
            "2021-11-22"
        );
        assert_eq!(
            Timeline::date_label(PackageManager::Debian.fix_available_day().unwrap()),
            "2022-01-20"
        );
        assert_eq!(PackageManager::Ubuntu.fix_available_day(), None);
        assert_eq!(PackageManager::RedHat.fix_available_day(), None);
    }

    #[test]
    fn distro_sampling_never_yields_redhat() {
        let mut rng = SimRng::new(5);
        for _ in 0..500 {
            assert_ne!(
                PackageManager::sample_vulnerable_host_distro(&mut rng),
                PackageManager::RedHat
            );
        }
    }
}
