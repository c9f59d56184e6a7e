//! Fault-injection integration tests: the measurement must stay *sound*
//! (no false positives, monotone inference) even when the simulated
//! network behaves badly — in the spirit of smoltcp's adverse-condition
//! examples.

use spfail::prober::{CampaignBuilder, RoundStatus};
use spfail::world::{World, WorldConfig};

fn hostile_world(seed: u64) -> World {
    let mut config = WorldConfig {
        seed,
        scale: 0.005,
        ..WorldConfig::default()
    };
    // Crank every adverse behaviour well past its calibrated value.
    config.flaky_rate = 0.35;
    config.blacklist_rate = 0.9;
    config.greylist_rate = 0.4;
    config.alexa_rates.smtp_failure = 0.5;
    config.two_week_rates.smtp_failure = 0.5;
    World::generate(config)
}

#[test]
fn no_false_positives_under_heavy_faults() {
    let world = hostile_world(0xFA01);
    let data = CampaignBuilder::new().run(&world).data;
    for &host in &data.tracked {
        assert!(
            world.host(host).profile.initially_vulnerable(),
            "faults may cost recall, never precision"
        );
    }
}

#[test]
fn longitudinal_never_regresses_under_faults() {
    let world = hostile_world(0xFA02);
    let data = CampaignBuilder::new().run(&world).data;
    for &host in &data.tracked {
        let profile = &world.host(host).profile;
        // A round measured "Patched" must never precede the host's true
        // patch day.
        if let Some(first) = data.first_patched_day(host) {
            let truth = profile.patch_day.expect("only patching hosts flip");
            assert!(
                first >= truth,
                "host {host:?} observed patched on day {first} before its \
                 true patch day {truth}"
            );
        }
        // And a round measured "Vulnerable" must never follow it.
        if let Some(last) = data.last_vulnerable_day(host) {
            if let Some(truth) = profile.patch_day {
                assert!(
                    last < truth,
                    "host {host:?} observed vulnerable on day {last} after \
                     patching on day {truth}"
                );
            }
        }
    }
}

#[test]
fn conclusiveness_degrades_but_campaign_completes() {
    let world = hostile_world(0xFA03);
    let data = CampaignBuilder::new().run(&world).data;
    assert!(!data.rounds.is_empty());
    // With 90% of hosts blacklisting, late rounds must be mostly
    // inconclusive — the Figure 5 decay, exaggerated.
    let inconclusive_share = |idx: usize| {
        let (_, statuses) = &data.rounds[idx];
        if statuses.is_empty() {
            return 0.0;
        }
        statuses
            .statuses()
            .iter()
            .filter(|s| **s == RoundStatus::Inconclusive)
            .count() as f64
            / statuses.len() as f64
    };
    let early = inconclusive_share(0);
    let late = inconclusive_share(data.rounds.len() - 1);
    assert!(
        late > early,
        "blacklisting must erode conclusiveness over time ({early} -> {late})"
    );
    assert!(late > 0.5, "late rounds mostly inconclusive, got {late}");
}

#[test]
fn greylisting_does_not_break_the_initial_sweep() {
    let world = hostile_world(0xFA04);
    let data = CampaignBuilder::new().run(&world).data;
    // Greylisting hosts are retried after 8 minutes; with 40% of hosts
    // greylisting, the sweep must still measure a healthy share of the
    // truly vulnerable, reachable hosts.
    let measurable: Vec<_> = world
        .initially_vulnerable_hosts()
        .into_iter()
        .filter(|&h| {
            let p = &world.host(h).profile;
            p.connect == spfail::mta::ConnectPolicy::Accept
                && p.quirk == spfail::mta::SmtpQuirk::None
        })
        .collect();
    if measurable.is_empty() {
        return;
    }
    let found = measurable
        .iter()
        .filter(|h| data.tracked.contains(h))
        .count();
    let recall = found as f64 / measurable.len() as f64;
    assert!(
        recall > 0.45,
        "even a hostile network leaves the sweep usable, recall {recall}"
    );
}

#[test]
fn deterministic_even_under_faults() {
    let a = CampaignBuilder::new().run(&hostile_world(0xFA05)).data;
    let b = CampaignBuilder::new().run(&hostile_world(0xFA05)).data;
    assert_eq!(a.tracked, b.tracked);
    assert_eq!(a.snapshot.len(), b.snapshot.len());
    for (x, y) in a.rounds.iter().zip(b.rounds.iter()) {
        assert_eq!(x, y);
    }
}
