//! Where the simulated campaign time goes.
//!
//! The paper's campaign was budgeted around real-world latencies: DNS
//! round trips, SMTP conversations, greylist waits, and retry backoff
//! (§5, §6.1). This exhibit runs a small traced campaign under the
//! combined fault regime and renders the structured-trace profile — per
//! stack path counts, cumulative and self time, and the per-phase
//! whole-probe latency distribution — so the simulated cost model is a
//! first-class, regenerable artifact. Because sharded traces are
//! byte-identical to sequential ones (`tests/trace_equivalence.rs`),
//! this table is independent of how the campaign was parallelised.

use serde_json::json;
use spfail_netsim::{FaultPlan, FaultProfile, FlakyWindow, SimDuration};
use spfail_prober::{CampaignBuilder, RetryPolicy, TraceConfig};
use spfail_trace::{format_us, Profile};
use spfail_world::{World, WorldConfig};

use crate::pipeline::Source;
use crate::table::Table;
use crate::Exhibit;

/// Scale of the dedicated profiling world — small for the same reason
/// as [`crate::resilience`]: every `all_exhibits` caller pays for it.
const SCALE: f64 = 0.004;

/// A modest fault-plus-retry regime, so the profile exercises every
/// span kind: DNS resolves, SMTP sessions, fault stalls, greylist
/// waits, and retry backoff.
fn faults() -> FaultProfile {
    FaultProfile {
        dns: FaultPlan {
            drop_chance: 0.05,
            servfail_chance: 0.05,
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

/// Run the traced campaign and return its latency profile.
fn profile_campaign(seed: u64) -> Profile {
    let world = World::generate(WorldConfig {
        scale: SCALE,
        ..WorldConfig::small(seed)
    });
    let run = CampaignBuilder::new()
        .faults(faults())
        .retry(RetryPolicy::standard())
        .trace(TraceConfig::enabled())
        .run(&world);
    run.trace.expect("tracing was requested").profile()
}

/// The trace-profile exhibit: self/cumulative time per span path and
/// per-phase probe latency.
pub fn trace_profile(src: &impl Source) -> Exhibit {
    let profile = profile_campaign(src.config().seed);

    let mut paths = Table::new(["Stack path", "Count", "Total", "Self", "Mean"]);
    let mut path_rows = Vec::new();
    for (path, row) in profile.rows() {
        paths.row([
            path.to_string(),
            row.count.to_string(),
            format_us(row.total_us),
            format_us(row.self_us),
            format_us((row.hist.mean().unwrap_or(0.0)) as u64),
        ]);
        path_rows.push(json!({
            "path": path,
            "count": row.count,
            "total_us": row.total_us,
            "self_us": row.self_us,
        }));
    }

    let mut phases = Table::new(["Phase", "Probes", "Min", "Mean", "Max"]);
    let mut phase_rows = Vec::new();
    for (phase, hist) in profile.phases() {
        phases.row([
            phase.label(),
            hist.count().to_string(),
            format_us(hist.min().unwrap_or(0)),
            format_us(hist.mean().unwrap_or(0.0) as u64),
            format_us(hist.max().unwrap_or(0)),
        ]);
        phase_rows.push(json!({
            "phase": phase.label(),
            "probes": hist.count(),
            "min_us": hist.min(),
            "mean_us": hist.mean(),
            "max_us": hist.max(),
        }));
    }

    let rendered = format!("{}\n{}", paths.render(), phases.render());
    Exhibit {
        id: "trace_profile",
        title: "Campaign latency profile: simulated time per span path and phase",
        paper_claim: "probe pacing was dominated by protocol waits — DNS \
                      round trips, SMTP conversations, 8-minute greylist \
                      waits, and retry backoff (§5, §6.1)",
        rendered,
        json: json!({
            "scale": SCALE,
            "probes": profile.probe_count(),
            "paths": path_rows,
            "phases": phase_rows,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testctx;

    #[test]
    fn profile_covers_every_span_kind_and_phase() {
        let exhibit = trace_profile(testctx::shared());
        let paths: Vec<String> = exhibit.json["paths"]
            .as_array()
            .unwrap()
            .iter()
            .map(|row| row["path"].as_str().unwrap().to_string())
            .collect();
        assert!(paths.contains(&"probe".to_string()));
        assert!(paths.contains(&"probe;smtp_session".to_string()));
        assert!(paths.iter().any(|p| p.contains("dns_resolve")));
        assert!(paths.iter().any(|p| p.contains("retry_wait")));
        assert!(paths.iter().any(|p| p.contains("greylist_wait")));
        assert!(paths.iter().any(|p| p.contains("fault")));

        let phases: Vec<String> = exhibit.json["phases"]
            .as_array()
            .unwrap()
            .iter()
            .map(|row| row["phase"].as_str().unwrap().to_string())
            .collect();
        assert!(phases.first().is_some_and(|p| p == "initial"));
        assert!(phases.last().is_some_and(|p| p == "snapshot"));
        assert!(phases.iter().any(|p| p.starts_with("round-")));
        assert!(exhibit.json["probes"].as_u64().unwrap() > 0);
        assert!(exhibit.rendered.contains("probe;smtp_session"));
    }
}
