//! The benchmark's own checks, at tiny scale: the workloads are
//! deterministic, and neither the shard count nor the checkpoint cadence
//! changes the program being measured.

use spfail::report::{all_exhibits, Context};
use spfail_perfbench::pace::Yardstick;
use spfail_perfbench::workload::{run_once, run_paced, Spec, Workload};
use spfail_perfbench::{digest, references};

const SEED: u64 = 7;
const SCALE: f64 = 0.003;

fn tiny(workload: Workload) -> Spec {
    Spec {
        scale: SCALE,
        ..Spec::new(workload, SEED)
    }
}

#[test]
fn every_workload_runs_and_repeats_its_hash() {
    for workload in Workload::ALL {
        let spec = tiny(workload);
        let first = run_once(&spec, false);
        let second = run_once(&spec, true);
        assert_eq!(
            first.hash,
            second.hash,
            "{}: two runs differ",
            workload.name()
        );
        assert!(first.counts["hosts"] > 0.0);
        assert!(first.counts["checkpoint.count"] >= 1.0);
        for metric in [
            "setup_s",
            "wall_s",
            "report_s",
            "checkpoint_s",
            "campaign_s",
        ] {
            assert!(
                first.times[metric] > 0.0,
                "{}: {metric} is zero",
                workload.name()
            );
        }
        assert!(
            second.times.contains_key("prober.self_s"),
            "traced run keeps spans"
        );
    }
}

#[test]
fn pacing_changes_times_not_output() {
    let mut yardstick = Yardstick::new();
    for workload in Workload::ALL {
        let spec = tiny(workload);
        let paced = run_paced(&spec, true, Some(&mut yardstick));
        assert_eq!(paced.hash, run_once(&spec, false).hash);
        assert!(paced.speed > 0.0);
        let stages = paced.times["campaign_s"] + paced.times["report_s"];
        assert!(
            paced.times["wall_s"] > stages,
            "{}: the whole iteration covers its stages",
            workload.name()
        );
    }
}

#[test]
fn paper_scale_hash_is_the_experiments_json_hash() {
    let ctx = Context::run(SCALE, SEED);
    let expected = digest::paper_hash(&all_exhibits(&ctx));
    assert_eq!(run_once(&tiny(Workload::PaperScale), false).hash, expected);
}

#[test]
fn provider_stream_hash_is_shard_invariant() {
    let two = tiny(Workload::ProviderStream);
    let one = Spec { shards: 1, ..two };
    assert_eq!(run_once(&one, false).hash, run_once(&two, false).hash);
}

#[test]
fn faulty_resume_cadence_does_not_change_the_output() {
    let checkpointed = tiny(Workload::FaultyResume);
    let uninterrupted = Spec {
        checkpoint_every: 0,
        ..checkpointed
    };
    let every_round = Spec {
        checkpoint_every: 1,
        ..checkpointed
    };
    let reference = run_once(&uninterrupted, false);
    assert_eq!(reference.counts.get("checkpoint.count"), None);
    assert_eq!(run_once(&checkpointed, false).hash, reference.hash);
    assert_eq!(run_once(&every_round, false).hash, reference.hash);
}

/// The recorded references at full scale (about a minute in release):
/// `cargo test --release --manifest-path perfbench/Cargo.toml -- --ignored`.
#[test]
#[ignore]
fn recorded_references_reproduce() {
    for workload in Workload::ALL {
        for seed in [0x5bf2_a117, 2022] {
            let recorded = references::lookup(workload.name(), seed).expect("recorded");
            let hash = run_once(&Spec::new(workload, seed), false).hash;
            assert_eq!(hash, recorded, "{} at seed {seed}", workload.name());
        }
    }
}
