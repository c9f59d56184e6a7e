//! End-to-end integration: world generation → initial sweep →
//! longitudinal campaign → notification → exhibits, asserting the
//! paper's headline findings hold in miniature.

use spfail::prober::{RoundStatus, SnapshotStatus};
use spfail::report::all_exhibits;
use spfail::report::pipeline::{Context, SetFilter};
use spfail::world::Timeline;

fn ctx() -> &'static Context {
    use std::sync::OnceLock;
    static CTX: OnceLock<Context> = OnceLock::new();
    CTX.get_or_init(|| Context::run(0.01, 0xE2E))
}

#[test]
fn headline_vulnerable_fraction_is_plausible() {
    let ctx = ctx();
    // Paper: 7,212 vulnerable addresses = 17% of tested (reachable SMTP)
    // servers, 3.9% of all addresses.
    let vulnerable = ctx.campaign.tracked.len() as f64;
    let total = ctx.world.hosts.len() as f64;
    let rate = vulnerable / total;
    assert!(
        (0.015..0.10).contains(&rate),
        "vulnerable address share {rate}"
    );
}

#[test]
fn headline_eighty_percent_remain_vulnerable() {
    let ctx = ctx();
    let snapshot = &ctx.campaign.snapshot;
    let patched = snapshot
        .values()
        .filter(|s| **s == SnapshotStatus::Patched)
        .count() as f64;
    let vulnerable = snapshot
        .values()
        .filter(|s| **s == SnapshotStatus::Vulnerable)
        .count() as f64;
    let share = vulnerable / (patched + vulnerable);
    assert!(
        share > 0.70,
        "the strong majority must remain vulnerable, got {share}"
    );
    assert!(patched > 0.0, "but some patching must be visible");
}

#[test]
fn no_false_positives_in_detection() {
    let ctx = ctx();
    for &host in &ctx.campaign.tracked {
        assert!(
            ctx.world.host(host).profile.initially_vulnerable(),
            "every host classified vulnerable must actually run vulnerable libSPF2"
        );
    }
}

#[test]
fn public_disclosure_outpaces_private_notification() {
    let ctx = ctx();
    // Count hosts first observed patched in (private, public] vs
    // (public, end] — the paper's central comparison.
    let between = ctx
        .campaign
        .tracked
        .iter()
        .filter(|&&h| {
            ctx.campaign.first_patched_day(h).is_some_and(|d| {
                d > Timeline::PRIVATE_NOTIFICATION && d <= Timeline::PUBLIC_DISCLOSURE
            })
        })
        .count();
    let after = ctx
        .campaign
        .tracked
        .iter()
        .filter(|&&h| {
            ctx.campaign
                .first_patched_day(h)
                .is_some_and(|d| d > Timeline::PUBLIC_DISCLOSURE)
        })
        .count();
    assert!(
        after >= between,
        "post-disclosure patching ({after}) must be at least the \
         between-disclosures window ({between})"
    );
}

#[test]
fn vulnerable_providers_never_patch() {
    let ctx = ctx();
    for d in ctx.set_domains(SetFilter::TopProviders) {
        for &h in &ctx.world.domain(d).hosts {
            let profile = &ctx.world.host(h).profile;
            if profile.initially_vulnerable() {
                assert_eq!(profile.patch_day, None, "§7.5: providers stayed vulnerable");
            }
        }
    }
}

#[test]
fn notification_funnel_holds_paper_shape() {
    let ctx = ctx();
    let f = &ctx.funnel;
    assert!(f.sent > 0);
    let bounce_rate = f.bounced as f64 / f.sent as f64;
    assert!(
        (0.15..0.50).contains(&bounce_rate),
        "bounce rate {bounce_rate} (paper 31.6%)"
    );
    let delivered = (f.sent - f.bounced).max(1);
    let open_rate = f.opened as f64 / delivered as f64;
    assert!(
        (0.05..0.30).contains(&open_rate),
        "open rate {open_rate} (paper 12%)"
    );
    // Notification-driven patching is marginal.
    assert!(f.patched_between_disclosures <= f.opened);
}

#[test]
fn all_exhibits_build_and_are_nonempty() {
    let ctx = ctx();
    let exhibits = all_exhibits(ctx);
    assert_eq!(
        exhibits.len(),
        19,
        "7 tables + 7 figures + the funnel + the attribution, resilience, \
         trace-profile, and cache-efficiency extensions"
    );
    for exhibit in &exhibits {
        assert!(
            !exhibit.rendered.trim().is_empty(),
            "exhibit {} rendered empty",
            exhibit.id
        );
        assert!(
            !exhibit.json.is_null(),
            "exhibit {} has no JSON payload",
            exhibit.id
        );
    }
    let ids: Vec<&str> = exhibits.iter().map(|e| e.id).collect();
    for expected in [
        "table1", "table2", "table3", "table4", "table5", "table6", "table7", "fig2", "fig3",
        "fig4", "fig5", "fig6", "fig7", "fig8", "funnel",
    ] {
        assert!(ids.contains(&expected), "missing exhibit {expected}");
    }
}

#[test]
fn longitudinal_statuses_are_monotone_after_inference() {
    let ctx = ctx();
    for &host in ctx.campaign.tracked.iter().take(200) {
        let mut last: Option<RoundStatus> = None;
        for (day, _) in &ctx.campaign.rounds {
            let status = ctx.campaign.inferred_status(host, *day);
            if status == RoundStatus::Inconclusive {
                continue;
            }
            if let Some(RoundStatus::Patched) = last {
                assert_ne!(
                    status,
                    RoundStatus::Vulnerable,
                    "host {host:?} regressed from patched to vulnerable"
                );
            }
            last = Some(status);
        }
    }
}

#[test]
fn spam_churn_domains_go_unknown_in_snapshot() {
    let ctx = ctx();
    for &d in &ctx.campaign.vulnerable_domains {
        if ctx.world.domain(d).spam_churn {
            assert_eq!(
                ctx.campaign.snapshot.get(&d),
                Some(&SnapshotStatus::Unknown),
                "churned domains cannot be conclusively re-measured in February"
            );
        }
    }
}

/// The full paper-scale run (~440K domains). Takes ~15 s in release,
/// minutes in debug; run explicitly with:
/// `cargo test --release -p spfail --test end_to_end -- --ignored`
#[test]
#[ignore = "full paper scale; run with --ignored in release"]
fn full_scale_reproduces_headline_counts() {
    let ctx = Context::run(1.0, 0x5bf2_a117);
    // Paper §7.1/§8: 7,212 vulnerable addresses (17% of tested servers),
    // 18,660 vulnerable domains, on ~180K unique addresses.
    let hosts = ctx.world.hosts.len();
    assert!(
        (150_000..230_000).contains(&hosts),
        "unique addresses {hosts} (paper ~186K)"
    );
    let vulnerable_hosts = ctx.campaign.tracked.len();
    assert!(
        (5_500..9_500).contains(&vulnerable_hosts),
        "vulnerable addresses {vulnerable_hosts} (paper 7,212)"
    );
    let vulnerable_domains = ctx.campaign.vulnerable_domains.len();
    assert!(
        (14_000..23_000).contains(&vulnerable_domains),
        "vulnerable domains {vulnerable_domains} (paper 18,660)"
    );
    // §7.7 funnel at full scale.
    assert!(
        (5_000..10_000).contains(&ctx.funnel.sent),
        "notifications {} (paper 6,488)",
        ctx.funnel.sent
    );
    let bounce_rate = ctx.funnel.bounced as f64 / ctx.funnel.sent as f64;
    assert!(
        (0.2..0.4).contains(&bounce_rate),
        "bounce rate {bounce_rate} (paper 31.6%)"
    );
    // Figure 2: ~15% patched, ~80%+ still vulnerable.
    let patched = ctx
        .campaign
        .snapshot
        .values()
        .filter(|s| **s == SnapshotStatus::Patched)
        .count();
    assert!(
        spfail::report::stats::consistent_with(patched, vulnerable_domains, 0.15)
            || (0.10..0.22).contains(&(patched as f64 / vulnerable_domains as f64)),
        "patched {patched}/{vulnerable_domains} vs paper ~15%"
    );
}

#[test]
fn campaign_is_deterministic_across_runs() {
    let a = Context::run(0.004, 42);
    let b = Context::run(0.004, 42);
    assert_eq!(a.campaign.tracked, b.campaign.tracked);
    assert_eq!(a.campaign.vulnerable_domains, b.campaign.vulnerable_domains);
    assert_eq!(a.funnel, b.funnel);
    for ((day_a, statuses_a), (day_b, statuses_b)) in
        a.campaign.rounds.iter().zip(b.campaign.rounds.iter())
    {
        assert_eq!(day_a, day_b);
        assert_eq!(statuses_a, statuses_b);
    }
}
