//! Shard-count invariance of the parallel campaign engine.
//!
//! `CampaignBuilder::new().shards(n)` partitions the tracked hosts across
//! `n` workers, each probing through an isolated DNS directory, query
//! log, and clock. Because every probe draws its randomness from a
//! stream derived from the probe's own identity, and hosts carry their
//! blacklisting counters and contact history with them, the merged
//! result must be **identical** to the sequential reference engine —
//! field by field, for every shard count, on every seed.

use std::collections::BTreeMap;

use spfail_prober::{CampaignBuilder, CampaignData, RoundStatus};
use spfail_world::{DomainId, HostId, Timeline, World, WorldConfig};

fn build_world(seed: u64, scale: f64) -> World {
    World::generate(WorldConfig {
        scale,
        ..WorldConfig::small(seed)
    })
}

/// Field-by-field comparison with labelled failures, ending in a
/// whole-struct equality check so nothing added to `CampaignData`
/// later can silently escape the harness.
fn assert_equivalent(reference: &CampaignData, sharded: &CampaignData, label: &str) {
    // Initial sweep: same host set, and for each host the same probe
    // outcomes (ids, transaction endings, classifications).
    let ref_hosts: BTreeMap<HostId, _> = reference
        .initial
        .results
        .iter()
        .map(|(&h, r)| (h, r))
        .collect();
    let sh_hosts: BTreeMap<HostId, _> = sharded
        .initial
        .results
        .iter()
        .map(|(&h, r)| (h, r))
        .collect();
    assert_eq!(
        ref_hosts.keys().collect::<Vec<_>>(),
        sh_hosts.keys().collect::<Vec<_>>(),
        "{label}: initial sweep host sets differ"
    );
    for (host, result) in &ref_hosts {
        assert_eq!(
            Some(result),
            sh_hosts.get(host),
            "{label}: initial result for {host:?} differs"
        );
    }

    assert_eq!(
        reference.tracked, sharded.tracked,
        "{label}: tracked host lists differ"
    );
    assert_eq!(
        reference.vulnerable_domains, sharded.vulnerable_domains,
        "{label}: vulnerable domain lists differ"
    );

    // Longitudinal rounds: same days in the same order, same per-host
    // statuses each round.
    assert_eq!(
        reference.rounds.len(),
        sharded.rounds.len(),
        "{label}: round counts differ"
    );
    for ((ref_day, ref_statuses), (sh_day, sh_statuses)) in
        reference.rounds.iter().zip(&sharded.rounds)
    {
        assert_eq!(ref_day, sh_day, "{label}: round days differ");
        let ref_sorted: BTreeMap<HostId, RoundStatus> =
            ref_statuses.iter().map(|(&h, &s)| (h, s)).collect();
        let sh_sorted: BTreeMap<HostId, RoundStatus> =
            sh_statuses.iter().map(|(&h, &s)| (h, s)).collect();
        assert_eq!(
            ref_sorted, sh_sorted,
            "{label}: day-{ref_day} round statuses differ"
        );
    }

    // Final snapshot: same per-domain verdicts.
    let ref_snapshot: BTreeMap<DomainId, _> =
        reference.snapshot.iter().map(|(&d, &s)| (d, s)).collect();
    let sh_snapshot: BTreeMap<DomainId, _> =
        sharded.snapshot.iter().map(|(&d, &s)| (d, s)).collect();
    assert_eq!(ref_snapshot, sh_snapshot, "{label}: snapshots differ");

    // Ethics counters: waits and admissions add across shards, so the
    // merged audit must equal the sequential one exactly.
    assert_eq!(
        reference.ethics, sharded.ethics,
        "{label}: ethics audits differ"
    );

    // Backstop: any field added to CampaignData later is compared too.
    assert_eq!(reference, sharded, "{label}: campaign data differs");
}

#[test]
fn sharded_engine_matches_sequential_for_all_shard_counts() {
    for &seed in &[11u64, 2024, 77] {
        for &scale in &[0.002f64, 0.004] {
            let reference = CampaignBuilder::new().run(&build_world(seed, scale)).data;
            assert!(
                !reference.tracked.is_empty(),
                "seed={seed} scale={scale}: fixture must track some hosts"
            );
            for &shards in &[1usize, 2, 4, 8] {
                let world = build_world(seed, scale);
                let sharded = CampaignBuilder::new().shards(shards).run(&world).data;
                assert_equivalent(
                    &reference,
                    &sharded,
                    &format!("seed={seed} scale={scale} shards={shards}"),
                );
            }
        }
    }
}

#[test]
fn sharded_runs_are_reproducible_across_repeats() {
    let first = CampaignBuilder::new()
        .shards(4)
        .run(&build_world(5, 0.003))
        .data;
    let second = CampaignBuilder::new()
        .shards(4)
        .run(&build_world(5, 0.003))
        .data;
    assert_eq!(first, second, "same seed + shard count must reproduce");
}

#[test]
fn shard_count_beyond_host_count_still_matches() {
    let world = build_world(9, 0.002);
    let reference = CampaignBuilder::new().run(&build_world(9, 0.002)).data;
    // More shards than tracked hosts leaves some workers idle; the
    // merge must not care.
    let sharded = CampaignBuilder::new().shards(64).run(&world).data;
    assert_eq!(reference, sharded);
}

#[test]
fn sharded_engine_leaves_world_clock_at_snapshot_day() {
    for shards in [1usize, 4] {
        let world = build_world(11, 0.002);
        let _ = CampaignBuilder::new().shards(shards).run(&world);
        assert_eq!(
            world.runtime().clock.now(),
            Timeline::day_to_time(Timeline::END),
            "{shards} shard(s)"
        );
    }
}

/// What sharding buys: how long the campaign keeps probers busy in
/// simulated time. The sequential engine serialises every probe
/// (connection latency, SMTP round trips, contact-spacing and greylist
/// waits) on one clock; each shard runs against its own clock, so a
/// sharded phase costs only its slowest shard. Unlike wall clock on a
/// shared runner, this is deterministic: 4 shards must shorten the
/// campaign at least 2x.
#[test]
fn four_shards_halve_the_simulated_campaign() {
    let makespan = |builder: CampaignBuilder| {
        builder
            .timed()
            .run(&build_world(2024, 0.004))
            .timing
            .expect("timed run")
            .total()
    };
    let sequential = makespan(CampaignBuilder::new());
    let sharded = makespan(CampaignBuilder::new().shards(4));
    let speedup = sequential.as_secs_f64() / sharded.as_secs_f64();
    assert!(
        speedup >= 2.0,
        "4 shards must shorten the simulated campaign at least 2x \
         ({sequential} sequential vs {sharded}), got {speedup:.2}x"
    );
}
