//! Tier-1 conformance suite: corpus replay, the embedded RFC 7208
//! vectors, and a seeded differential fuzz run that must classify every
//! divergence against the named quirk allowlist.
//!
//! `SPFAIL_CONFORMANCE_CASES` overrides the differential case count (CI
//! runs a larger fixed-seed smoke in release mode).

use spfail::conformance::oracle::Verdict;
use spfail::conformance::{generate_case, oracle, regressions, rfc_corpus, run_case, shrink};

/// The fixed fuzz seed; shared with the CI smoke job.
const SEED: u64 = 0x5bf5_fa11;

fn case_count() -> usize {
    match std::env::var("SPFAIL_CONFORMANCE_CASES") {
        Ok(value) => value
            .parse()
            .unwrap_or_else(|_| panic!("bad SPFAIL_CONFORMANCE_CASES {value:?}")),
        Err(_) => 5000,
    }
}

/// The committed regression corpus replays clean.
#[test]
fn corpus_replay() {
    let failures = regressions::replay_all();
    assert!(failures.is_empty(), "{failures:#?}");
}

/// Every embedded openspf-style vector holds for the compliant evaluator
/// and the patched libSPF2 emulation.
#[test]
fn rfc7208_vector_corpus() {
    let mut failures = Vec::new();
    for vector in rfc_corpus::rfc_vectors() {
        failures.extend(rfc_corpus::check_vector(&vector));
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

/// The compiled-policy evaluator is behaviourally identical to the
/// interpretive one — verdict, query spelling, explanation — for every
/// expansion profile, on cold and warm caches, across the embedded
/// RFC 7208 vector corpus and the full generator sweep.
#[test]
fn compiled_evaluator_matches_interpretive() {
    for vector in rfc_corpus::rfc_vectors() {
        let divergences = oracle::diff_compiled(&vector.case);
        assert!(
            divergences.is_empty(),
            "RFC vector {}: {divergences:#?}",
            vector.name
        );
    }
    let count = case_count();
    for index in 0..count {
        let case = generate_case(SEED, index as u64);
        let divergences = oracle::diff_compiled(&case);
        assert!(
            divergences.is_empty(),
            "case {index} (seed {SEED:#x}): {divergences:#?}\n{}",
            case.to_script(),
        );
    }
}

/// The seeded differential run: zero unclassified divergences, and the
/// generator actually reaches the fingerprint quirks (a degenerate
/// grammar would pass vacuously).
#[test]
fn seeded_differential_run_is_fully_classified() {
    let count = case_count();
    let mut quirk_counts = std::collections::BTreeMap::new();
    for index in 0..count {
        let case = generate_case(SEED, index as u64);
        let report = run_case(&case);
        for profile in &report.profiles {
            if let Verdict::KnownQuirk(names) = &profile.verdict {
                for name in names {
                    *quirk_counts.entry(*name).or_insert(0usize) += 1;
                }
            }
        }
        let bugs = report.bugs();
        if !bugs.is_empty() {
            // Minimize before failing so the report is a committable
            // reproducer, not a 40-line generated blob.
            let minimal = shrink(&case, |candidate| !run_case(candidate).bugs().is_empty());
            let minimal_bugs = run_case(&minimal).bugs();
            panic!(
                "case {index} (seed {SEED:#x}) produced unclassified divergences:\n\
                 {bugs:#?}\n\nminimized reproducer:\n{}\nminimized bugs: {minimal_bugs:#?}",
                minimal.to_script(),
            );
        }
    }
    for required in [
        "dup-first-reversed-label",
        "sign-extended-escape",
        "lowercase-hex-escape",
        "no-expansion",
        "macro-unsupported",
    ] {
        assert!(
            quirk_counts.get(required).copied().unwrap_or(0) > 0,
            "quirk {required} never observed over {count} cases: {quirk_counts:?}",
        );
    }
}
