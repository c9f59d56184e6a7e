//! The streaming engine's headline guarantee, tested end to end:
//! bounded-memory campaigns are **bit-for-bit identical** to eager ones.
//!
//! 1. **The mode matrix.** Seeds × shard counts × fault profile on/off:
//!    the streaming engine's sweep record ([`CampaignSummary`]: mask
//!    column, tracked set, vulnerable domains), its longitudinal
//!    [`CampaignData`] (rounds, snapshot, ethics audit, network totals)
//!    and trace export equal the eager engine's, byte for byte.
//! 2. **Every exhibit.** All entries of `EXHIBIT_REGISTRY` built from a
//!    streaming run equal the eager build — rendered text and JSON.
//! 3. **Cross-mode kill-and-resume.** A checkpoint written by either
//!    engine resumes under the *other* engine to the same measurements:
//!    the aggregate section makes streamed checkpoints eager-readable
//!    and vice versa. Resume *output* equality is the contract — the
//!    checkpoint files themselves legitimately differ across modes (an
//!    eager checkpoint carries per-host `init` lines, a streamed one
//!    the `aggregate v1` mask column); their worker sections agree.
//!
//! Every run checked here, resumed ones included, also keeps the round
//! shape the report's longitudinal view relies on: each host a round
//! names is tracked, and round days strictly increase.

use spfail::netsim::{FaultPlan, FaultProfile, FlakyWindow, SimDuration};
use spfail::prober::{
    CampaignBuilder, CampaignData, CampaignRun, CampaignState, CampaignSummary, RetryPolicy,
    Session, StreamedCampaign, TraceConfig,
};
use spfail::report::{all_exhibits, Context, StreamContext};
use spfail::world::{World, WorldConfig};

const SEEDS: [u64; 3] = [11, 2024, 77];
const SCALE: f64 = 0.002;

fn config(seed: u64) -> WorldConfig {
    WorldConfig {
        scale: SCALE,
        ..WorldConfig::small(seed)
    }
}

/// The tests/session_checkpoint.rs combined fault regime.
fn combined_profile() -> FaultProfile {
    FaultProfile {
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
    }
}

fn builder(shards: usize, faults: bool) -> CampaignBuilder {
    let mut builder = CampaignBuilder::new()
        .shards(shards)
        .trace(TraceConfig::enabled());
    if faults {
        builder = builder
            .faults(combined_profile())
            .retry(RetryPolicy::standard());
    }
    builder
}

/// Every round holds one status per tracked host, in tracked order, and
/// round days strictly increase.
fn assert_rounds_well_formed(data: &CampaignData, label: &str) {
    assert!(
        data.rounds.windows(2).all(|w| w[0].0 < w[1].0),
        "{label}: round days must strictly increase"
    );
    for (day, statuses) in &data.rounds {
        assert!(
            statuses.iter().map(|(host, _)| host).eq(&data.tracked),
            "{label}: round on day {day} does not cover exactly the tracked hosts"
        );
    }
}

/// `run` holds the same record as the eager `reference` data: the sweep
/// record (mask column and tracking set) and every longitudinal field —
/// rounds, snapshot, ethics audit, network totals. `initial` is not
/// compared: a streamed sweep leaves it empty, the mask column is its
/// record.
fn assert_same_record(reference: &CampaignData, run: &CampaignRun, label: &str) {
    assert_rounds_well_formed(&run.data, label);
    assert_eq!(
        CampaignSummary::from_data(reference),
        run.summary,
        "{label}: sweep record diverged"
    );
    let data = &run.data;
    assert_eq!(reference.tracked, data.tracked, "{label}: tracked");
    assert_eq!(reference.rounds, data.rounds, "{label}: rounds");
    assert_eq!(reference.snapshot, data.snapshot, "{label}: snapshot");
    assert_eq!(
        reference.vulnerable_domains, data.vulnerable_domains,
        "{label}: vulnerable domains"
    );
    assert_eq!(reference.ethics, data.ethics, "{label}: ethics audit");
    assert_eq!(reference.network, data.network, "{label}: network totals");
}

/// The two runs' cross-mode output — sweep record, longitudinal data and
/// trace — byte for byte.
fn assert_same_measurement(eager: &CampaignRun, streamed: &CampaignRun, label: &str) {
    assert_rounds_well_formed(&eager.data, &format!("{label}, eager"));
    assert_same_record(&eager.data, streamed, &format!("{label}, streamed"));
    assert!(streamed.data.initial.results.is_empty(), "{label}");
    match (&eager.trace, &streamed.trace) {
        (Some(e), Some(s)) => {
            assert_eq!(e.to_jsonl(), s.to_jsonl(), "{label}: trace JSONL diverged");
            assert_eq!(
                e.to_collapsed(),
                s.to_collapsed(),
                "{label}: collapsed stacks diverged"
            );
        }
        (None, None) => {}
        _ => panic!("{label}: one run traced, the other did not"),
    }
}

/// The mode matrix: streaming ≡ eager for every seed × shard count ×
/// fault regime, traces included.
#[test]
fn streaming_matrix_is_byte_identical_to_eager() {
    for seed in SEEDS {
        for shards in [1usize, 4] {
            for faults in [false, true] {
                let world = World::generate(config(seed));
                let eager = builder(shards, faults).run(&world);
                let streamed = builder(shards, faults).run_streaming(config(seed));
                assert_same_measurement(
                    &eager,
                    &streamed.run,
                    &format!("seed {seed}, {shards} shard(s), faults {faults}"),
                );
                // Retention invariant: exactly the vulnerable domains,
                // with their full MX groups.
                assert_eq!(
                    streamed.population.domain_count(),
                    streamed.run.summary.vulnerable_domains.len()
                );
            }
        }
    }
}

/// Every registry exhibit built from a streaming pipeline run equals the
/// eager build — id, rendered text, and JSON.
#[test]
fn all_exhibits_match_across_modes() {
    let (scale, seed) = (0.004, 7);
    let eager = Context::run(scale, seed);
    let streaming = StreamContext::run(scale, seed);
    let eager_exhibits = all_exhibits(&eager);
    let streaming_exhibits = all_exhibits(&streaming);
    assert_eq!(eager_exhibits.len(), streaming_exhibits.len());
    for (e, s) in eager_exhibits.iter().zip(&streaming_exhibits) {
        assert_eq!(e.id, s.id);
        assert_eq!(e.title, s.title);
        assert_eq!(e.rendered, s.rendered, "exhibit {} diverged", e.id);
        assert_eq!(
            serde_json::to_string(&e.json).expect("serialize"),
            serde_json::to_string(&s.json).expect("serialize"),
            "exhibit {} JSON diverged",
            e.id
        );
    }
}

/// A streamed session's checkpoint text round-trips through the parser
/// at every round boundary — the `aggregate v1` section included — and
/// re-serialises to the same bytes (a canonical fixed point).
#[test]
fn streamed_checkpoint_text_round_trips_at_every_boundary() {
    let streamed = StreamedCampaign::sweep(builder(4, true), config(2024));
    let mut session = streamed
        .session()
        .expect("handoff state is self-consistent");
    loop {
        let state = session.to_state();
        let text = state.to_text();
        assert!(
            text.contains("aggregate v1"),
            "a streamed checkpoint must carry the versioned aggregate section"
        );
        let parsed = CampaignState::parse(&text)
            .unwrap_or_else(|e| panic!("boundary {}: {e}", session.rounds_done()));
        assert_eq!(parsed, state, "boundary {}", session.rounds_done());
        assert_eq!(
            parsed.to_text(),
            text,
            "boundary {}: not a fixed point",
            session.rounds_done()
        );
        if session.advance_round().is_none() {
            break;
        }
    }
}

/// Both engines run the same workers: right after the initial sweep an
/// eager session and a streamed session of one builder write identical
/// worker sections — clocks, audits, metrics, and the contact ledgers
/// and blacklist counters, which the sweep keeps only for the shard's
/// tracked hosts.
#[test]
fn eager_and_streamed_sweeps_write_identical_worker_sections() {
    fn worker_section(text: &str) -> Vec<&str> {
        text.lines()
            .skip_while(|l| *l != "worker")
            .take_while(|l| !l.starts_with("trace "))
            .collect()
    }
    for shards in [1usize, 4] {
        let builder = builder(shards, true);
        let world = World::generate(config(77));
        let mut eager = builder.session(&world);
        eager.initial_sweep();
        let eager_text = eager.to_state().to_text();
        let streamed = StreamedCampaign::sweep(builder, config(77));
        let streamed_text = streamed
            .session()
            .expect("handoff state is self-consistent")
            .to_state()
            .to_text();
        let eager_workers = worker_section(&eager_text);
        assert_eq!(
            eager_workers.iter().filter(|l| **l == "worker").count(),
            shards,
            "{shards} shard(s): one worker section per shard"
        );
        assert_eq!(
            eager_workers,
            worker_section(&streamed_text),
            "{shards} shard(s): worker sections differ across modes"
        );
    }
}

/// Kill an *eager* campaign at a round boundary and resume it under the
/// *streaming* engine: same measurements as the uninterrupted eager run.
#[test]
fn eager_checkpoint_resumes_under_streaming_engine() {
    for kill_at in [0usize, 3] {
        let world = World::generate(config(11));
        let reference = builder(4, false).run(&world);

        // The eager half, killed at the boundary.
        let world = World::generate(config(11));
        let mut session = builder(4, false).session(&world);
        session.initial_sweep();
        for _ in 0..kill_at {
            session.advance_round();
        }
        let text = session.to_state().to_text();
        drop(session);

        // The streaming half: adopt the checkpoint, finish the campaign.
        let state = CampaignState::parse(&text).expect("eager checkpoint parses");
        let streamed = StreamedCampaign::adopt(state, config(11));
        let mut session = streamed
            .session()
            .expect("adopted state is self-consistent");
        assert_eq!(session.rounds_done(), kill_at);
        while session.advance_round().is_some() {}
        let resumed = session.finish();
        assert_same_record(
            &reference.data,
            &resumed,
            &format!("killed at round {kill_at}"),
        );
    }
}

/// Kill a *streaming* campaign at a round boundary and resume it under
/// the *eager* engine against a materialized world: same measurements.
#[test]
fn streamed_checkpoint_resumes_under_eager_engine() {
    for kill_at in [0usize, 3] {
        let world = World::generate(config(77));
        let reference = builder(4, false).run(&world);

        // The streaming half, killed at the boundary.
        let streamed = StreamedCampaign::sweep(builder(4, false), config(77));
        let mut session = streamed
            .session()
            .expect("handoff state is self-consistent");
        for _ in 0..kill_at {
            session.advance_round();
        }
        let text = session.to_state().to_text();
        drop(session);
        drop(streamed);

        // The eager half: restore against a materialized world.
        let world = World::generate(config(77));
        let state = CampaignState::parse(&text).expect("streamed checkpoint parses");
        let mut session =
            Session::from_state(state, &world).expect("streamed checkpoint restores eagerly");
        assert_eq!(session.rounds_done(), kill_at);
        while session.advance_round().is_some() {}
        let resumed = session.finish();
        assert_same_record(
            &reference.data,
            &resumed,
            &format!("killed at round {kill_at}"),
        );
    }
}

/// Toggling the mode across *multiple* kill boundaries in one campaign —
/// eager → streaming → eager — still lands on the eager reference.
#[test]
fn mode_toggles_across_boundaries_stay_identical() {
    let world = World::generate(config(2024));
    let reference = builder(1, false).run(&world);

    // Leg 1 (eager): initial sweep only, then checkpoint.
    let world = World::generate(config(2024));
    let mut session = builder(1, false).session(&world);
    session.initial_sweep();
    let text = session.to_state().to_text();
    drop(session);

    // Leg 2 (streaming): two rounds, then checkpoint.
    let state = CampaignState::parse(&text).expect("parses");
    let streamed = StreamedCampaign::adopt(state, config(2024));
    let mut session = streamed.session().expect("adopts");
    session.advance_round();
    session.advance_round();
    let text = session.to_state().to_text();
    drop(session);
    drop(streamed);

    // Leg 3 (eager): finish.
    let state = CampaignState::parse(&text).expect("parses");
    let mut session = Session::from_state(state, &world).expect("restores");
    assert_eq!(session.rounds_done(), 2);
    while session.advance_round().is_some() {}
    let resumed = session.finish();
    assert_same_record(
        &reference.data,
        &resumed,
        "toggled eager → streaming → eager",
    );
}
