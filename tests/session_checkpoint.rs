//! The staged `Session` engine's two headline guarantees, tested
//! end to end:
//!
//! 1. **Kill-at-any-round-boundary + resume is invisible.** Serialising
//!    a session to its checkpoint text, discarding it, and rebuilding a
//!    fresh session from the parsed text — at any round boundary, any
//!    number of times — produces byte-for-byte the `CampaignData`,
//!    trace export, and report exhibits of an uninterrupted run, for
//!    any shard count and fault profile. (The same equivalence classes
//!    tests/parallel.rs and tests/trace_equivalence.rs pin for shard
//!    counts.)
//! 2. **Incremental rounds change the probe volume, not the
//!    measurement.** `CampaignBuilder::incremental()` issues ≥5× fewer
//!    round probes than full rescans while producing identical
//!    measurement fields.

use spfail::netsim::{FaultPlan, FaultProfile, FlakyWindow, SimDuration};
use spfail::prober::{
    CampaignBuilder, CampaignData, CampaignRun, CampaignState, RetryPolicy, Session,
    StreamedCampaign, TraceConfig,
};
use spfail::world::{Population, Timeline, World, WorldConfig};

const SEEDS: [u64; 3] = [11, 2024, 77];
const SCALE: f64 = 0.002;

fn build_world(seed: u64) -> World {
    World::generate(WorldConfig {
        scale: SCALE,
        ..WorldConfig::small(seed)
    })
}

/// The tests/trace_equivalence.rs combined fault regime.
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

/// "Kill" a session: serialise it to the checkpoint text form, drop it,
/// and rebuild a fresh session from the parsed text — exactly what a
/// process death plus `Session::restore` does, minus the filesystem.
fn kill_and_resume<'w>(mut session: Session<'w>, world: &'w World) -> Session<'w> {
    let text = session.to_state().to_text();
    drop(session);
    let state = CampaignState::parse(&text).expect("checkpoint text parses");
    Session::from_state(state, world).expect("checkpoint restores")
}

/// Run a campaign through the staged API, killing and resuming at the
/// given round-boundary numbers (0 = right after the initial sweep).
fn run_with_kills(world: &World, builder: CampaignBuilder, kill_at: &[usize]) -> CampaignRun {
    let mut session = builder.session(world);
    session.initial_sweep();
    if kill_at.contains(&0) {
        session = kill_and_resume(session, world);
    }
    while session.advance_round().is_some() {
        if kill_at.contains(&session.rounds_done()) {
            session = kill_and_resume(session, world);
        }
    }
    session.finish()
}

fn assert_same_run(reference: &CampaignRun, candidate: &CampaignRun, label: &str) {
    assert_eq!(
        reference.data, candidate.data,
        "{label}: campaign data diverged"
    );
    match (&reference.trace, &candidate.trace) {
        (Some(r), Some(c)) => {
            assert_eq!(r.to_jsonl(), c.to_jsonl(), "{label}: trace JSONL diverged");
            assert_eq!(
                r.to_collapsed(),
                c.to_collapsed(),
                "{label}: collapsed-stack export diverged"
            );
        }
        (None, None) => {}
        _ => panic!("{label}: one run traced, the other did not"),
    }
}

/// At every round boundary of `session` (over `pop`): the checkpoint text
/// is an exact round trip of the state and a canonical fixed point, and
/// restoring the parsed state and capturing it again gives it back.
fn assert_round_trips_at_every_boundary(
    mut session: Session<'_>,
    pop: &dyn Population,
    label: &str,
) {
    loop {
        let boundary = session.rounds_done();
        let state = session.to_state();
        let text = state.to_text();
        let parsed = CampaignState::parse(&text)
            .unwrap_or_else(|e| panic!("{label}, boundary {boundary}: {e}"));
        assert_eq!(parsed, state, "{label}, boundary {boundary}");
        assert_eq!(
            parsed.to_text(),
            text,
            "{label}, boundary {boundary}: not a fixed point"
        );
        let recaptured = Session::from_state(parsed.clone(), pop)
            .unwrap_or_else(|e| panic!("{label}, boundary {boundary}: {e}"))
            .to_state();
        assert!(
            recaptured == parsed,
            "{label}, boundary {boundary}: restore then capture changed the state"
        );
        if session.advance_round().is_none() {
            break;
        }
    }
}

/// The checkpoint text form is an exact round trip of the session state
/// at every round boundary, and a canonical fixed point; a session
/// restored from it captures the same state again. Eager and streamed.
#[test]
fn state_text_round_trips_at_every_round_boundary() {
    let builder = CampaignBuilder::new()
        .shards(4)
        .faults(combined_profile())
        .retry(RetryPolicy::standard())
        .trace(TraceConfig::enabled());
    let world = build_world(2024);
    let mut session = builder.session(&world);
    session.initial_sweep();
    assert_round_trips_at_every_boundary(session, &world, "eager");

    let config = WorldConfig {
        scale: SCALE,
        ..WorldConfig::small(2024)
    };
    let streamed = StreamedCampaign::sweep(builder, config);
    let session = streamed.session().expect("handoff restores");
    assert_round_trips_at_every_boundary(session, streamed.population(), "streamed");
}

/// FNV-1a over `bytes`: the digest the golden checkpoints are pinned by.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Drive `session` through three rounds and return its checkpoint text.
fn text_after_three_rounds(mut session: Session<'_>) -> String {
    for _ in 0..3 {
        session.advance_round().expect("rounds remain");
    }
    session.to_state().to_text()
}

/// The checkpoint bytes are pinned: engine-written `to_text` output of
/// four campaign shapes (eager on one worker, incremental on four,
/// faulted with retries and tracing, a streamed handoff with its
/// `aggregate v1` section) hashes to recorded digests, so any change to
/// the `v4` bytes fails here. They were recorded when the format became
/// v4, from texts equal byte for byte to the v3 texts of the same runs
/// with each round's `st` lines packed into its `round` line and each
/// worker's `wcount` lines into one `wcounts` line.
#[test]
fn checkpoint_bytes_match_the_golden_digests() {
    let eager = |builder: CampaignBuilder| {
        let world = build_world(2024);
        let mut session = builder.session(&world);
        session.initial_sweep();
        text_after_three_rounds(session)
    };
    let streamed = || {
        let config = WorldConfig {
            scale: SCALE,
            ..WorldConfig::small(2024)
        };
        let streamed = StreamedCampaign::sweep(CampaignBuilder::new().shards(2), config);
        text_after_three_rounds(streamed.session().expect("handoff restores"))
    };
    let texts = [
        ("eager, 1 shard", eager(CampaignBuilder::new())),
        (
            "4 shards, incremental",
            eager(CampaignBuilder::new().shards(4).incremental()),
        ),
        (
            "faults, retries, trace",
            eager(
                CampaignBuilder::new()
                    .shards(2)
                    .faults(combined_profile())
                    .retry(RetryPolicy::standard())
                    .trace(TraceConfig::enabled()),
            ),
        ),
        ("streamed handoff", streamed()),
    ];
    assert!(texts[3].1.contains("\naggregate v1 "));
    let golden: [u64; 4] = [
        0x702f_edf1_d32a_95cd,
        0x2339_d98c_d9ed_5543,
        0x5a5b_49ea_d042_58d4,
        0xb67f_28a3_f60c_fe4d,
    ];
    let digests: Vec<u64> = texts.iter().map(|(_, t)| fnv1a(t.as_bytes())).collect();
    for ((label, text), (&digest, &want)) in texts.iter().zip(digests.iter().zip(&golden)) {
        assert_eq!(
            digest,
            want,
            "{label}: checkpoint bytes changed ({} bytes, digests {digests:#018x?})",
            text.len()
        );
    }
}

/// The kill/resume equivalence matrix: seeds × shard counts × fault
/// profile on/off, killed after the initial sweep and again mid-rounds.
#[test]
fn kill_and_resume_matrix_is_byte_identical() {
    let mid = Timeline::all_round_days().len() / 2;
    for seed in SEEDS {
        for shards in [1usize, 4] {
            for faults in [false, true] {
                let mut builder = CampaignBuilder::new()
                    .shards(shards)
                    .trace(TraceConfig::enabled());
                if faults {
                    builder = builder
                        .faults(combined_profile())
                        .retry(RetryPolicy::standard());
                }
                let world = build_world(seed);
                let reference = builder.run(&world);
                let world = build_world(seed);
                let resumed = run_with_kills(&world, builder, &[0, mid]);
                assert_same_run(
                    &reference,
                    &resumed,
                    &format!("seed {seed}, {shards} shard(s), faults {faults}"),
                );
            }
        }
    }
}

/// The strongest form of the invariant: kill and resume at *every*
/// round boundary of a sharded, faulted, traced campaign.
#[test]
fn kill_at_every_round_boundary_is_byte_identical() {
    let every: Vec<usize> = (0..=Timeline::all_round_days().len()).collect();
    let builder = CampaignBuilder::new()
        .shards(4)
        .faults(combined_profile())
        .retry(RetryPolicy::standard())
        .trace(TraceConfig::enabled());
    let world = build_world(77);
    let reference = builder.run(&world);
    let world = build_world(77);
    let resumed = run_with_kills(&world, builder, &every);
    assert_same_run(&reference, &resumed, "kill at every boundary");
}

/// Checkpointing through the filesystem API mid-campaign, then resuming
/// from the file, matches the uninterrupted run — and the report
/// exhibits built from both campaigns are byte-identical.
#[test]
fn file_checkpoint_resume_matches_exhibits() {
    let seed = 11;
    let builder = CampaignBuilder::new().shards(4);
    let world = build_world(seed);
    let reference = builder.run(&world);

    let path = std::env::temp_dir().join(format!("spfail-ckpt-{seed}-{}.txt", std::process::id()));
    let world = build_world(seed);
    let mut session = builder.session(&world);
    session.initial_sweep();
    for _ in 0..3 {
        session.advance_round();
    }
    session.checkpoint(&path).expect("write checkpoint");
    drop(session);

    let mut session = Session::restore(&path, &world).expect("restore from file");
    assert_eq!(session.rounds_done(), 3);
    while session.advance_round().is_some() {}
    let resumed = session.finish();
    std::fs::remove_file(&path).ok();
    assert_eq!(reference.data, resumed.data);

    // Every exhibit built from the resumed campaign matches the
    // uninterrupted run's byte for byte.
    let ref_ctx = spfail::report::Context::from_campaign(build_world(seed), reference.data);
    let res_ctx = spfail::report::Context::from_campaign(build_world(seed), resumed.data);
    let ref_exhibits = spfail::report::all_exhibits(&ref_ctx);
    let res_exhibits = spfail::report::all_exhibits(&res_ctx);
    assert_eq!(ref_exhibits.len(), res_exhibits.len());
    for (r, c) in ref_exhibits.iter().zip(&res_exhibits) {
        assert_eq!(r.id, c.id);
        assert_eq!(r.rendered, c.rendered, "exhibit {} diverged", r.id);
        assert_eq!(
            serde_json::to_string(&r.json).expect("serialize"),
            serde_json::to_string(&c.json).expect("serialize"),
            "exhibit {} JSON diverged",
            r.id
        );
    }
}

/// `Session::checkpoint` replaces its file whole: checkpointing twice to
/// one path leaves exactly the second state's text, which restores, and
/// no temporary file beside it.
#[test]
fn checkpoint_replaces_the_previous_file_whole() {
    let world = build_world(11);
    let dir = std::env::temp_dir().join(format!("spfail-ckpt-replace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create checkpoint directory");
    let path = dir.join("campaign.ckpt");
    let mut session = CampaignBuilder::new().session(&world);
    session.initial_sweep();
    session.checkpoint(&path).expect("first checkpoint");
    session.advance_round().expect("rounds remain");
    session.checkpoint(&path).expect("second checkpoint");
    let second = session.to_state().to_text();

    let written = std::fs::read_to_string(&path).expect("read checkpoint");
    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .expect("list checkpoint directory")
        .map(|entry| entry.expect("directory entry").file_name())
        .collect();
    names.sort();
    let restored = Session::restore(&path, &world).map(|s| s.rounds_done());
    std::fs::remove_dir_all(&dir).ok();
    assert!(written == second, "the file holds the second state's text");
    assert_eq!(names, ["campaign.ckpt"], "no temporary file remains");
    assert_eq!(restored.expect("the replaced checkpoint restores"), 1);
}

/// A checkpoint only restores against the world it was taken from, and
/// corrupted checkpoint text is rejected, not misread.
#[test]
fn restore_rejects_wrong_world_and_corrupt_text() {
    let world = build_world(11);
    let mut session = CampaignBuilder::new().session(&world);
    session.initial_sweep();
    let text = session.to_state().to_text();
    let state = CampaignState::parse(&text).expect("parses");

    let other = build_world(12);
    assert!(Session::from_state(state.clone(), &other).is_err());

    assert!(CampaignState::parse("").is_err());
    assert!(CampaignState::parse("not a checkpoint\n").is_err());
    let mangled = text.replacen("init ", "init bogus-host ", 1);
    assert!(CampaignState::parse(&mangled).is_err());
}

fn measurement_fields_match(full: &CampaignData, incremental: &CampaignData) {
    assert_eq!(full.initial, incremental.initial);
    assert_eq!(full.tracked, incremental.tracked);
    assert_eq!(full.rounds, incremental.rounds);
    assert_eq!(full.snapshot, incremental.snapshot);
    assert_eq!(full.vulnerable_domains, incremental.vulnerable_domains);
}

/// Incremental rounds: identical measurement fields, ≥5× fewer probes.
/// (The ethics audit, network counters, and trace legitimately shrink
/// with the probe volume — that reduction is the feature.)
#[test]
fn incremental_rounds_cut_probe_volume_5x_with_identical_results() {
    for seed in [11u64, 2024] {
        for shards in [1usize, 4] {
            let world = build_world(seed);
            let full = CampaignBuilder::new().shards(shards).run(&world).data;
            let world = build_world(seed);
            let mut session = CampaignBuilder::new()
                .shards(shards)
                .incremental()
                .session(&world);
            session.initial_sweep();
            while session.advance_round().is_some() {}
            let stats = session.stats();
            let incremental = session.finish().data;
            measurement_fields_match(&full, &incremental);

            let total = stats.round_probes_issued + stats.round_probes_skipped;
            assert_eq!(
                total,
                (full.tracked.len() * full.rounds.len()) as u64,
                "every tracked host is answered every round"
            );
            assert!(
                total >= 5 * stats.round_probes_issued,
                "seed {seed}, {shards} shard(s): only {}/{total} probes saved",
                stats.round_probes_skipped
            );
        }
    }
}

/// Incremental mode survives kill/resume: the carried horizon state is
/// rebuilt from the checkpoint and the results stay identical.
#[test]
fn incremental_session_resumes_identically() {
    let world = build_world(2024);
    let full = CampaignBuilder::new().run(&world).data;
    let world = build_world(2024);
    let mid = Timeline::all_round_days().len() / 2;
    let resumed = run_with_kills(&world, CampaignBuilder::new().incremental(), &[0, mid]);
    measurement_fields_match(&full, &resumed.data);
}

/// `Session::full_rescan` forces the next round to probe every tracked
/// host; the round after reverts to the incremental horizon.
#[test]
fn full_rescan_escape_hatch_probes_everything_once() {
    let world = build_world(11);
    let mut session = CampaignBuilder::new().incremental().session(&world);
    session.initial_sweep();
    let tracked = session.tracked().len() as u64;

    session.full_rescan();
    session.advance_round().expect("rounds remain");
    let after_first = session.stats();
    assert_eq!(after_first.round_probes_issued, tracked);
    assert_eq!(after_first.round_probes_skipped, 0);

    session.advance_round().expect("rounds remain");
    let after_second = session.stats();
    assert!(
        after_second.round_probes_skipped > 0,
        "the incremental horizon resumes after the forced rescan"
    );
    while session.advance_round().is_some() {}
    let resumed = session.finish().data;

    let world = build_world(11);
    let full = CampaignBuilder::new().run(&world).data;
    measurement_fields_match(&full, &resumed);
}
