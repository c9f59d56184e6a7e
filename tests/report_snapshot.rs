//! Golden-snapshot test for the report pipeline: a tiny fixed campaign
//! must reproduce the committed `exhibits_small.json` and the rendered
//! resilience table byte-for-byte. Any intentional change to an exhibit
//! regenerates the fixtures with `UPDATE_SNAPSHOTS=1 cargo test --test
//! report_snapshot`.

use std::path::PathBuf;

use spfail::report::{all_exhibits, Context};

/// Small but non-degenerate: every set filter stays populated.
const SCALE: f64 = 0.01;
const SEED: u64 = 0x5bf2_a117;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

fn check_snapshot(name: &str, actual: &str) {
    let path = fixture(name);
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {path:?} ({e}); run with UPDATE_SNAPSHOTS=1 to create it")
    });
    assert!(
        expected == actual,
        "snapshot {name} drifted; if the change is intentional, regenerate with \
         UPDATE_SNAPSHOTS=1 cargo test --test report_snapshot\n\
         --- expected ---\n{expected}\n--- actual ---\n{actual}",
    );
}

#[test]
fn small_campaign_snapshots_are_stable() {
    let ctx = Context::run(SCALE, SEED);
    let exhibits = all_exhibits(&ctx);

    // The same JSON assembly as the `experiments` binary: one object
    // keyed by exhibit id, pretty-printed.
    let mut json_out = serde_json::Map::new();
    for exhibit in &exhibits {
        json_out.insert(exhibit.id.to_string(), exhibit.json.clone());
    }
    let json = format!(
        "{}\n",
        serde_json::to_string_pretty(&serde_json::Value::Object(json_out)).expect("serialize"),
    );
    check_snapshot("exhibits_small.json", &json);

    let resilience = exhibits
        .iter()
        .find(|e| e.id == "resilience")
        .expect("resilience exhibit present");
    check_snapshot("resilience_small.txt", &resilience.rendered);

    let trace_profile = exhibits
        .iter()
        .find(|e| e.id == "trace_profile")
        .expect("trace_profile exhibit present");
    check_snapshot("trace_profile_small.txt", &trace_profile.rendered);
}

/// Two independent pipeline runs in the *same process* build every
/// exhibit byte-identically. Each `HashMap`/`HashSet` instance draws its
/// own hash seed, so any exhibit whose output leaked a map's iteration
/// order would diverge between the two builds — this pins the
/// iteration-order audit (every exhibit sorts or re-keys into `BTreeMap`
/// before rendering) as a regression test.
#[test]
fn exhibits_are_iteration_order_independent() {
    let first = Context::run(0.004, 7);
    let second = Context::run(0.004, 7);
    let a = all_exhibits(&first);
    let b = all_exhibits(&second);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.id, y.id);
        assert_eq!(
            x.rendered, y.rendered,
            "exhibit {} leaks iteration order",
            x.id
        );
        assert_eq!(
            serde_json::to_string(&x.json).expect("serialize"),
            serde_json::to_string(&y.json).expect("serialize"),
            "exhibit {} JSON leaks iteration order",
            x.id
        );
    }
}
