//! The fault matrix: every injected fault type, with and without the
//! retry policy, must leave the campaign *sound* (no false positives,
//! dark hosts reported `Inconclusive`, never `Patched`), must surface
//! its per-fault-type counter in [`CampaignData::network`], and must
//! keep the sharded engine bit-for-bit equal to the sequential
//! reference — the determinism guarantee survives every fault profile.

use spfail::netsim::{FaultPlan, FaultProfile, FlakyWindow, MetricsSnapshot, SimDuration};
use spfail::prober::{CampaignBuilder, CampaignData, RetryPolicy, RoundStatus};
use spfail::world::{World, WorldConfig};

fn build_world(seed: u64, scale: f64) -> World {
    World::generate(WorldConfig {
        scale,
        ..WorldConfig::small(seed)
    })
}

/// Extracts a single fault's counter from the merged network snapshot.
type CounterFn = fn(&MetricsSnapshot) -> u64;

/// One row of the matrix: a named single-fault profile plus the counter
/// in the merged network snapshot that must record its injections.
fn fault_rows() -> Vec<(&'static str, FaultProfile, CounterFn)> {
    vec![
        (
            "dns-timeout",
            FaultProfile {
                dns: FaultPlan::dns_timeout(0.1),
                ..FaultProfile::NONE
            },
            |m| m.datagrams_dropped,
        ),
        (
            "dns-servfail",
            FaultProfile {
                dns: FaultPlan::dns_servfail(0.1),
                ..FaultProfile::NONE
            },
            |m| m.dns_servfails,
        ),
        (
            "dns-truncate",
            FaultProfile {
                dns: FaultPlan::dns_truncate(0.2),
                ..FaultProfile::NONE
            },
            |m| m.dns_truncated,
        ),
        (
            "smtp-tempfail",
            FaultProfile {
                smtp: FaultPlan::smtp_tempfail(0.15),
                ..FaultProfile::NONE
            },
            |m| m.smtp_tempfails,
        ),
        (
            "smtp-reset",
            FaultProfile {
                smtp: FaultPlan::smtp_reset(0.15),
                ..FaultProfile::NONE
            },
            |m| m.connection_resets,
        ),
        (
            "flaky-window",
            FaultProfile {
                flaky_fraction: 0.3,
                window: Some(FlakyWindow::new(SimDuration::from_mins(240), 0.5)),
                ..FaultProfile::NONE
            },
            |m| m.window_closed_probes,
        ),
    ]
}

/// Soundness under fault load: faults may cost recall, never precision,
/// and a host that stayed dark is never conclusively mis-measured. A
/// `Patched` report before the host's true patch day would be exactly
/// the false `NotVulnerable` the graceful-degradation verdicts exist to
/// prevent.
fn assert_sound(world: &World, data: &CampaignData, label: &str) {
    for &host in &data.tracked {
        assert!(
            world.host(host).profile.initially_vulnerable(),
            "{label}: tracked host {host:?} is a false positive"
        );
    }
    for (day, statuses) in &data.rounds {
        for (&host, &status) in statuses.iter() {
            if status == RoundStatus::Patched {
                let patch_day = world.host(host).profile.patch_day;
                assert!(
                    patch_day.is_some_and(|d| d <= *day),
                    "{label}: host {host:?} reported Patched on day {day} but its \
                     true patch day is {patch_day:?} — a dark host must stay \
                     Inconclusive, never flip to not-vulnerable"
                );
            }
        }
    }
}

#[test]
fn every_fault_type_with_and_without_retry_is_sound_and_shard_invariant() {
    for (name, profile, counter) in fault_rows() {
        for (retry_name, retry) in [
            ("no-retry", RetryPolicy::NONE),
            ("retry", RetryPolicy::standard()),
        ] {
            let label = format!("{name}/{retry_name}");
            let world = build_world(0xFACE, 0.002);
            let reference = CampaignBuilder::new()
                .faults(profile)
                .retry(retry)
                .run(&world)
                .data;
            assert_sound(&world, &reference, &label);
            assert!(
                counter(&reference.network) > 0,
                "{label}: the fault's counter must flow into CampaignData::network"
            );

            let world = build_world(0xFACE, 0.002);
            let sharded = CampaignBuilder::new()
                .shards(4)
                .faults(profile)
                .retry(retry)
                .run(&world)
                .data;
            assert_eq!(
                reference, sharded,
                "{label}: 4-shard run must be bit-for-bit equal to sequential"
            );
        }
    }
}

#[test]
fn combined_profile_is_bitwise_equal_across_shard_counts_and_seeds() {
    let profile = FaultProfile {
        dns: FaultPlan {
            drop_chance: 0.05,
            servfail_chance: 0.05,
            truncate_chance: 0.1,
            ..FaultPlan::NONE
        },
        smtp: FaultPlan {
            tempfail_chance: 0.05,
            reset_chance: 0.05,
            ..FaultPlan::NONE
        },
        flaky_fraction: 0.2,
        window: Some(FlakyWindow::new(SimDuration::from_mins(360), 0.6)),
    };
    for seed in [11u64, 2024, 77] {
        let reference = CampaignBuilder::new()
            .faults(profile)
            .retry(RetryPolicy::standard())
            .run(&build_world(seed, 0.002))
            .data;
        for shards in [1usize, 2, 4, 8] {
            let sharded = CampaignBuilder::new()
                .shards(shards)
                .faults(profile)
                .retry(RetryPolicy::standard())
                .run(&build_world(seed, 0.002))
                .data;
            assert_eq!(
                reference, sharded,
                "seed={seed} shards={shards}: fault-laden runs must merge identically"
            );
        }
    }
}

#[test]
fn retry_recovers_vulnerable_host_recall_under_dns_timeouts() {
    let seed = 0xD05;
    let scale = 0.004;
    let profile = FaultProfile {
        dns: FaultPlan::dns_timeout(0.1),
        ..FaultProfile::NONE
    };
    let world = build_world(seed, scale);
    // Ground truth: vulnerable AND reachable AND actually validating —
    // the hosts a fault-free campaign could have measured.
    let measurable: Vec<_> = world
        .initially_vulnerable_hosts()
        .into_iter()
        .filter(|&h| {
            let p = &world.host(h).profile;
            p.connect == spfail::mta::ConnectPolicy::Accept
                && matches!(
                    p.quirk,
                    spfail::mta::SmtpQuirk::None | spfail::mta::SmtpQuirk::RejectMessage(_)
                )
        })
        .collect();
    assert!(!measurable.is_empty(), "fixture must have measurable hosts");

    let no_retry = CampaignBuilder::new()
        .faults(profile)
        .run(&build_world(seed, scale))
        .data;
    let with_retry = CampaignBuilder::new()
        .faults(profile)
        .retry(RetryPolicy::standard())
        .run(&build_world(seed, scale))
        .data;

    let recall = |data: &CampaignData| {
        let found = measurable
            .iter()
            .filter(|h| data.tracked.contains(h))
            .count();
        found as f64 / measurable.len() as f64
    };
    let bare = recall(&no_retry);
    let retried = recall(&with_retry);
    assert!(
        retried >= bare,
        "retry must recover at least the no-retry recall: {retried:.3} < {bare:.3}"
    );

    // The counters behind the false-negative-rate figure must be live.
    assert_eq!(no_retry.network.probe_retries, 0);
    assert!(no_retry.network.datagrams_dropped > 0);
    assert!(with_retry.network.probe_retries > 0);

    // Hosts that stayed dark are reported Inconclusive, never patched.
    assert_sound(&world, &no_retry, "dns-timeout/no-retry");
    assert_sound(&world, &with_retry, "dns-timeout/retry");
}
