//! Delivering the notifications and measuring their effect.

use std::collections::{HashMap, HashSet};

use spfail_mta::mta::ConnectDecision;
use spfail_mta::Mta;
use spfail_netsim::SimRng;
use spfail_smtp::address::EmailAddress;
use spfail_smtp::command::Command;
use spfail_world::{DomainId, HostId, PatchCause, Population, Timeline, World};

use crate::pixel::PixelLog;

/// One notification email's fate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotificationRecord {
    /// The domain whose postmaster was addressed.
    pub domain: DomainId,
    /// The domains this email covered (shared-MX deduplication).
    pub covered: Vec<DomainId>,
    /// The tracking token embedded in the message.
    pub token: String,
    /// Whether the message was accepted by the receiving MTA.
    pub delivered: bool,
    /// The SMTP reply code that concluded delivery (2xx or the bounce).
    pub final_code: u16,
    /// Day the tracking image was first loaded, if ever.
    pub opened_day: Option<u16>,
}

/// The §7.7 funnel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NotificationReport {
    /// Emails sent.
    pub sent: usize,
    /// Emails returned undelivered.
    pub bounced: usize,
    /// Delivered emails whose tracking image was loaded.
    pub opened: usize,
    /// Opened-and-eventually-patched domains (any time in the study).
    pub opened_then_patched: usize,
    /// Domains patched strictly between private and public disclosure
    /// among openers.
    pub patched_between_disclosures: usize,
    /// Domains that never received the email yet patched between the
    /// disclosures (package-manager effects, §7.7).
    pub unreached_patched_between: usize,
}

/// One arm of the format experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FormatArm {
    /// Emails sent in this arm.
    pub sent: usize,
    /// Emails delivered.
    pub delivered: usize,
    /// Delivered groups that patched between the disclosures.
    pub patched_between: usize,
}

impl FormatArm {
    /// The between-disclosure patch rate among delivered notifications.
    pub fn patch_rate(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.patched_between as f64 / self.delivered as f64
        }
    }
}

/// The HTML-vs-plain-text notification experiment (§7.7's Stock et al.
/// reference, run inside the simulation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FormatExperiment {
    /// HTML with a tracking image.
    pub html: FormatArm,
    /// Plain text, no tracking.
    pub plain: FormatArm,
}

/// The notification campaign driver.
pub struct NotificationCampaign;

/// The receiving MTA of one notification run: one MTA, rebuilt for each
/// host the run delivers to (the prober's reuse pattern, through
/// [`spfail_world::WorldRuntime::rebuild_mta_record`]), with one
/// compiled-policy cache for the whole run. Every receiver checks the
/// same notifier policy, so it is compiled once per run instead of once
/// per delivery; the cache and the rebuild are both
/// measurement-transparent, so every delivery ends as it would on a
/// freshly built MTA.
struct Receiver {
    mta: Option<Mta>,
    /// `false` builds a fresh, cacheless MTA for every host instead: the
    /// reference the reused receiver is tested against.
    reuse: bool,
}

impl Receiver {
    fn new() -> Receiver {
        Receiver {
            mta: None,
            reuse: true,
        }
    }

    /// The MTA of `host` as of the private notification day.
    fn for_host(&mut self, world: &dyn Population, host: HostId) -> &mut Mta {
        let day = Timeline::PRIVATE_NOTIFICATION;
        match self.mta.as_mut() {
            Some(mta) if self.reuse => {
                world
                    .runtime()
                    .rebuild_mta_record(mta, host, world.host(host), day, None);
            }
            _ => {
                let mut mta = world.build_mta(host, day);
                if self.reuse {
                    mta.set_policy_cache(spfail_mta::new_policy_cache());
                }
                self.mta = Some(mta);
            }
        }
        self.mta.as_mut().expect("built above")
    }
}

impl NotificationCampaign {
    /// Send one notification per vulnerable host-group on the private
    /// notification day and derive the funnel.
    ///
    /// `vulnerable_domains` comes from the measurement campaign's initial
    /// sweep (the notification list is built from measured data, exactly
    /// as in the paper).
    pub fn run(
        world: &dyn Population,
        vulnerable_domains: &[DomainId],
        pixel_log: &mut PixelLog,
    ) -> (Vec<NotificationRecord>, NotificationReport) {
        Self::run_with(world, vulnerable_domains, pixel_log, &mut Receiver::new())
    }

    fn run_with(
        world: &dyn Population,
        vulnerable_domains: &[DomainId],
        pixel_log: &mut PixelLog,
        receiver: &mut Receiver,
    ) -> (Vec<NotificationRecord>, NotificationReport) {
        let runtime = world.runtime();
        let mut rng = runtime.fork_rng("notify");
        runtime
            .clock
            .advance_to(Timeline::day_to_time(Timeline::PRIVATE_NOTIFICATION));

        // The notification infrastructure is separate from the probing
        // infrastructure (§7.7) and its domain publishes an SPF record
        // that *authorizes* the notifier, so receivers' SPF checks pass.
        let origin = spfail_dns::Name::parse("notify.dns-lab.org").expect("static name");
        let zone = spfail_dns::ZoneBuilder::new(origin.clone())
            .txt(&origin, 300, "v=spf1 ip4:198.51.100.53 -all")
            .a(
                &origin,
                300,
                "198.51.100.53".parse().expect("static address"),
            )
            .build();
        runtime
            .directory
            .register(std::sync::Arc::new(spfail_dns::StaticAuthority::new(zone)));

        // Deduplicate: one email per distinct vulnerable host-set (§7.7).
        let mut seen_hostsets: HashSet<Vec<HostId>> = HashSet::new();
        let mut groups: Vec<(DomainId, Vec<DomainId>)> = Vec::new();
        let mut group_index: HashMap<Vec<HostId>, usize> = HashMap::new();
        for &domain in vulnerable_domains {
            let mut hosts = world.domain(domain).hosts.clone();
            hosts.sort();
            if seen_hostsets.insert(hosts.clone()) {
                group_index.insert(hosts, groups.len());
                groups.push((domain, vec![domain]));
            } else {
                let idx = group_index[&hosts];
                groups[idx].1.push(domain);
            }
        }

        let mut records = Vec::with_capacity(groups.len());
        for (i, (domain, covered)) in groups.into_iter().enumerate() {
            let token = format!("ntfy{i:06}");
            let (delivered, final_code) = Self::deliver(world, receiver, &mut rng, domain, &token);
            // Each notification's reader behaviour draws from its own
            // derived stream, so one recipient's dice never depend on
            // how many draws delivery to earlier recipients consumed.
            let mut rng = rng.fork_idx("reader", i as u64);

            // Opens: a lower-bound 12% of delivered mail loads the image
            // (§7.7). Hosts whose ground-truth patch cause is the private
            // notification are, by construction, openers.
            let notification_driven = covered.iter().any(|&d| {
                world.domain(d).hosts.iter().any(|&h| {
                    world.host(h).profile.patch_cause == Some(PatchCause::PrivateNotification)
                })
            });
            let opened_day = if delivered && (notification_driven || rng.chance(0.12)) {
                let day = Timeline::PRIVATE_NOTIFICATION
                    + 1
                    + rng.below(u64::from(
                        Timeline::PUBLIC_DISCLOSURE - Timeline::PRIVATE_NOTIFICATION - 1,
                    )) as u16;
                // Openers who patched because of the mail opened before
                // patching.
                let day = if notification_driven {
                    let earliest_patch = covered
                        .iter()
                        .flat_map(|&d| world.domain(d).hosts.iter())
                        .filter_map(|&h| world.host(h).profile.patch_day)
                        .min()
                        .unwrap_or(day);
                    day.min(earliest_patch.saturating_sub(1))
                        .max(Timeline::PRIVATE_NOTIFICATION + 1)
                } else {
                    day
                };
                pixel_log.record(&token, day);
                Some(day)
            } else {
                None
            };

            records.push(NotificationRecord {
                domain,
                covered,
                token,
                delivered,
                final_code,
                opened_day,
            });
        }

        let report = Self::report(world, &records);
        (records, report)
    }

    /// Deliver one notification through the real SMTP substrate. The
    /// sender is the notification host (distinct from the probing
    /// infrastructure, per §7.7); the recipient is `postmaster@domain`
    /// (RFC 5321 §4.5.1 requires it to exist — bounces are hosts that
    /// violate that).
    fn deliver(
        world: &dyn Population,
        receiver: &mut Receiver,
        rng: &mut SimRng,
        domain: DomainId,
        token: &str,
    ) -> (bool, u16) {
        let record = world.domain(domain);
        // An SMTP client walks the MX list until one host takes the mail
        // (RFC 5321 §5.1); only exhausting the list bounces.
        let mut last = (false, 0);
        for &host in &record.hosts {
            let mta = receiver.for_host(world, host);
            // Greylisting is a "try again later", not a bounce: retry once.
            let attempt = match Self::deliver_once(rng, mta, record, token) {
                (false, 450) | (false, 451) => Self::deliver_once(rng, mta, record, token),
                other => other,
            };
            if attempt.0 {
                return attempt;
            }
            last = attempt;
        }
        last
    }

    fn deliver_once(
        rng: &mut SimRng,
        mta: &mut Mta,
        record: &spfail_world::DomainRecord,
        token: &str,
    ) -> (bool, u16) {
        let notifier_ip = "198.51.100.53".parse().expect("static address");
        match mta.connect(notifier_ip) {
            ConnectDecision::Refused => return (false, 0),
            ConnectDecision::RejectedBanner(reply) => return (false, reply.code),
            ConnectDecision::Proceed => {}
        }
        let (mut session, banner) = mta.open_session();
        if !banner.is_positive() {
            return (false, banner.code);
        }
        let sender =
            EmailAddress::new("security-notice", "notify.dns-lab.org").expect("static address");
        let rcpt = match EmailAddress::new("postmaster", &record.name) {
            Ok(a) => a,
            Err(_) => return (false, 0),
        };
        for command in [
            Command::Ehlo("notify.dns-lab.org".into()),
            Command::MailFrom(sender),
            Command::RcptTo(rcpt),
            Command::Data,
        ] {
            let reply = session.handle(&command);
            if reply.is_failure() {
                return (false, reply.code);
            }
        }
        let body = format!(
            "Subject: Vulnerable libSPF2 on your mail server\r\n\
             \r\n\
             Your server validates SPF with libSPF2 <= 1.2.10, which is\r\n\
             vulnerable to remote heap corruption (disclosure scheduled\r\n\
             2022-01-19). Please update or switch validators.\r\n\
             <img src=\"https://notify.dns-lab.org/pixel/{token}.png\">\r\n\
             Plain-text readers: this message is also readable as text.\r\n"
        );
        let reply = session.handle_message(&body);
        // A small extra bounce source: full mailboxes / later-stage spam
        // filtering that the session model does not capture.
        if reply.is_positive() && rng.chance(0.04) {
            return (false, 552);
        }
        (reply.is_positive(), reply.code)
    }

    /// Extension: the Stock-et-al. format experiment the paper cites in
    /// §7.7 — send half the notifications as HTML-with-tracking and half
    /// as plain text, and compare patch response across arms. The paper
    /// argues (citing Stock et al., NDSS'18) that the format makes only a
    /// marginal difference; with the world's patch behaviour independent
    /// of message format by construction, the simulation reproduces that
    /// null result modulo sampling noise.
    pub fn run_format_experiment(
        world: &World,
        vulnerable_domains: &[DomainId],
    ) -> FormatExperiment {
        Self::format_experiment_with(world, vulnerable_domains, &mut Receiver::new())
    }

    fn format_experiment_with(
        world: &World,
        vulnerable_domains: &[DomainId],
        receiver: &mut Receiver,
    ) -> FormatExperiment {
        let mut rng = world.fork_rng("notify-ab");
        world
            .clock
            .advance_to(Timeline::day_to_time(Timeline::PRIVATE_NOTIFICATION));
        let mut seen_hostsets: HashSet<Vec<HostId>> = HashSet::new();
        let mut experiment = FormatExperiment::default();
        for &domain in vulnerable_domains {
            let mut hosts = world.domain(domain).hosts.clone();
            hosts.sort();
            if !seen_hostsets.insert(hosts) {
                continue;
            }
            let html_arm = rng.chance(0.5);
            let (delivered, _code) =
                Self::deliver(world, receiver, &mut rng, domain, "ab-experiment");
            let arm = if html_arm {
                &mut experiment.html
            } else {
                &mut experiment.plain
            };
            arm.sent += 1;
            if !delivered {
                continue;
            }
            arm.delivered += 1;
            // Response: did the group patch between the disclosures?
            let patched_between = world.domain(domain).hosts.iter().any(|&h| {
                world.host(h).profile.patch_day.is_some_and(|d| {
                    d > Timeline::PRIVATE_NOTIFICATION && d <= Timeline::PUBLIC_DISCLOSURE
                })
            });
            if patched_between {
                arm.patched_between += 1;
            }
        }
        experiment
    }

    /// Derive the §7.7 funnel from the records and the world's ground
    /// truth.
    fn report(world: &dyn Population, records: &[NotificationRecord]) -> NotificationReport {
        let mut report = NotificationReport {
            sent: records.len(),
            ..NotificationReport::default()
        };
        let patch_window =
            |day: u16| day > Timeline::PRIVATE_NOTIFICATION && day < Timeline::PUBLIC_DISCLOSURE;
        for record in records {
            let group_patch_day = record
                .covered
                .iter()
                .flat_map(|&d| world.domain(d).hosts.iter())
                .filter(|&&h| world.host(h).profile.initially_vulnerable())
                .map(|&h| world.host(h).profile.patch_day)
                .collect::<Vec<_>>();
            // The group patched when every vulnerable host has a patch day
            // within the study.
            let patched_all = !group_patch_day.is_empty()
                && group_patch_day
                    .iter()
                    .all(|d| d.is_some_and(|day| day <= Timeline::END));
            let earliest = group_patch_day.iter().flatten().min().copied();

            if !record.delivered {
                report.bounced += 1;
                if patched_all && earliest.is_some_and(patch_window) {
                    report.unreached_patched_between += 1;
                }
                continue;
            }
            if record.opened_day.is_some() {
                report.opened += 1;
                if patched_all && earliest.is_some_and(|d| d <= Timeline::END) {
                    report.opened_then_patched += 1;
                }
                if patched_all && earliest.is_some_and(patch_window) {
                    report.patched_between_disclosures += 1;
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfail_world::WorldConfig;

    fn setup() -> (World, Vec<DomainId>) {
        let world = World::generate(WorldConfig {
            scale: 0.01,
            ..WorldConfig::small(99)
        });
        let vulnerable = world.initially_vulnerable_domains();
        (world, vulnerable)
    }

    #[test]
    fn one_email_per_host_group() {
        let (world, vulnerable) = setup();
        let mut pixels = PixelLog::new();
        let (records, report) = NotificationCampaign::run(&world, &vulnerable, &mut pixels);
        assert_eq!(report.sent, records.len());
        assert!(report.sent <= vulnerable.len());
        // Deduplication must actually collapse shared hosting.
        let covered: usize = records.iter().map(|r| r.covered.len()).sum();
        assert_eq!(covered, vulnerable.len());
        assert!(report.sent > 0);
    }

    #[test]
    fn bounce_rate_is_in_a_plausible_band() {
        let (world, vulnerable) = setup();
        let mut pixels = PixelLog::new();
        let (_, report) = NotificationCampaign::run(&world, &vulnerable, &mut pixels);
        let rate = report.bounced as f64 / report.sent.max(1) as f64;
        // Paper: 31.6%. The simulated bounces come from real protocol
        // rejections, so allow a generous band.
        assert!((0.10..0.60).contains(&rate), "bounce rate {rate}");
    }

    #[test]
    fn opens_are_a_minority_and_tracked_in_the_pixel_log() {
        let (world, vulnerable) = setup();
        let mut pixels = PixelLog::new();
        let (records, report) = NotificationCampaign::run(&world, &vulnerable, &mut pixels);
        let delivered = report.sent - report.bounced;
        assert!(report.opened <= delivered);
        if delivered > 50 {
            let rate = report.opened as f64 / delivered as f64;
            assert!((0.03..0.35).contains(&rate), "open rate {rate}");
        }
        assert_eq!(pixels.distinct_opens(), report.opened);
        for r in &records {
            if let Some(day) = r.opened_day {
                assert!(r.delivered);
                assert!(day > Timeline::PRIVATE_NOTIFICATION);
                assert!(day < Timeline::PUBLIC_DISCLOSURE);
                assert_eq!(pixels.first_open(&r.token), Some(day));
            }
        }
    }

    #[test]
    fn notification_effect_is_marginal() {
        let (world, vulnerable) = setup();
        let mut pixels = PixelLog::new();
        let (_, report) = NotificationCampaign::run(&world, &vulnerable, &mut pixels);
        // §7.7: 9 of 6,488 — the between-disclosure patching among openers
        // must be a sliver of everything sent.
        assert!(report.patched_between_disclosures * 20 <= report.sent.max(20));
    }

    #[test]
    fn format_experiment_reproduces_the_null_result() {
        let (world, vulnerable) = setup();
        let experiment = NotificationCampaign::run_format_experiment(&world, &vulnerable);
        assert!(experiment.html.sent + experiment.plain.sent > 0);
        // Arms are roughly balanced.
        let total = (experiment.html.sent + experiment.plain.sent) as f64;
        let html_share = experiment.html.sent as f64 / total;
        assert!((0.3..0.7).contains(&html_share), "html share {html_share}");
        // The format makes no systematic difference: both arms' rates are
        // tiny (patch behaviour is format-independent by construction).
        assert!(experiment.html.patch_rate() < 0.25);
        assert!(experiment.plain.patch_rate() < 0.25);
        assert!(experiment.html.delivered <= experiment.html.sent);
        assert!(experiment.plain.delivered <= experiment.plain.sent);
    }

    /// One reused MTA with one policy cache per run delivers every
    /// notification exactly as a fresh, cacheless MTA per host does: in
    /// a world where greylisting forces retries on the same MTA, missing
    /// postmasters bounce, and groups span several hosts.
    #[test]
    fn reused_receiver_matches_fresh_builds() {
        let config = WorldConfig {
            scale: 0.02,
            greylist_rate: 0.5,
            postmaster_missing_rate: 0.4,
            ..WorldConfig::small(17)
        };
        let fresh = || Receiver {
            mta: None,
            reuse: false,
        };
        let run = |receiver: &dyn Fn() -> Receiver| {
            let world = World::generate(config.clone());
            let vulnerable = world.initially_vulnerable_domains();
            let mut pixels = PixelLog::new();
            let (records, report) =
                NotificationCampaign::run_with(&world, &vulnerable, &mut pixels, &mut receiver());
            let experiment =
                NotificationCampaign::format_experiment_with(&world, &vulnerable, &mut receiver());
            (world, records, report, experiment)
        };
        let (world, records, report, experiment) = run(&Receiver::new);
        let (_, ref_records, ref_report, ref_experiment) = run(&fresh);
        assert_eq!(records, ref_records);
        assert_eq!(report, ref_report);
        assert_eq!(experiment, ref_experiment);

        // The world exercises what the reuse must survive.
        assert!(report.bounced > 0 && report.bounced < report.sent);
        let hosts = |r: &NotificationRecord| &world.domain(r.domain).hosts;
        assert!(records.iter().any(|r| hosts(r).len() > 1));
        assert!(records
            .iter()
            .any(|r| r.delivered && hosts(r).iter().any(|&h| world.host(h).profile.greylist)));
        assert!(experiment.html.delivered + experiment.plain.delivered > 0);
    }

    #[test]
    fn campaign_is_deterministic() {
        let (world, vulnerable) = setup();
        let mut p1 = PixelLog::new();
        let (_, r1) = NotificationCampaign::run(&world, &vulnerable, &mut p1);
        let (world2, vulnerable2) = setup();
        let mut p2 = PixelLog::new();
        let (_, r2) = NotificationCampaign::run(&world2, &vulnerable2, &mut p2);
        assert_eq!(r1, r2);
    }
}
