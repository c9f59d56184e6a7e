//! Measurement resilience under injected network faults.
//!
//! The paper's longitudinal campaign ran over the real Internet, where
//! probes are lost to DNS timeouts, greylisting tempfails, and flaky
//! hosts. This exhibit makes the cost of that noise — and the recall the
//! retry/backoff policy buys back — a first-class figure: the same small
//! world is measured fault-free, under 10% DNS datagram loss with no
//! retries, and under the same loss with the standard retry policy. The
//! per-fault-type counters come straight from
//! [`CampaignData::network`](spfail_prober::CampaignData), so the table
//! doubles as a check that the fault-injection subsystem's bookkeeping
//! reaches the report layer.

use serde_json::json;
use spfail_mta::{ConnectPolicy, SmtpQuirk};
use spfail_netsim::{FaultPlan, FaultProfile};
use spfail_prober::{CampaignBuilder, CampaignData, RetryPolicy};
use spfail_world::{HostId, World, WorldConfig};

use crate::pipeline::Source;
use crate::table::{pct, Table};
use crate::Exhibit;

/// DNS datagram drop probability used by the fault scenarios.
const DNS_DROP: f64 = 0.1;

/// Scale of the dedicated resilience world. Deliberately small: the
/// exhibit runs three full campaigns, and every `all_exhibits` caller
/// (including the end-to-end test) pays for them.
const SCALE: f64 = 0.004;

/// Ground truth: the initially vulnerable hosts a *fault-free* campaign
/// could have measured — reachable, and answering SMTP far enough into
/// the session for the SPF fingerprint to show.
fn measurable_hosts(world: &World) -> Vec<HostId> {
    world
        .initially_vulnerable_hosts()
        .into_iter()
        .filter(|&h| {
            let p = &world.host(h).profile;
            p.connect == ConnectPolicy::Accept
                && matches!(p.quirk, SmtpQuirk::None | SmtpQuirk::RejectMessage(_))
        })
        .collect()
}

/// How many of the measurable hosts a campaign actually tracked.
fn found(data: &CampaignData, measurable: &[HostId]) -> usize {
    measurable
        .iter()
        .filter(|h| data.tracked.contains(h))
        .count()
}

/// False-negative rates under fault load, with and without retries.
pub fn resilience(src: &impl Source) -> Exhibit {
    // A dedicated small world keyed to the run's seed: the exhibit is
    // deterministic per report run but independent of the main scale.
    let seed = src.config().seed;
    let build = || {
        World::generate(WorldConfig {
            scale: SCALE,
            ..WorldConfig::small(seed)
        })
    };
    let measurable = measurable_hosts(&build());
    let faults = FaultProfile {
        dns: FaultPlan::dns_timeout(DNS_DROP),
        ..FaultProfile::NONE
    };
    let scenarios: [(&str, CampaignBuilder); 3] = [
        ("fault-free", CampaignBuilder::new()),
        ("10% DNS loss", CampaignBuilder::new().faults(faults)),
        (
            "10% DNS loss + retry",
            CampaignBuilder::new()
                .faults(faults)
                .retry(RetryPolicy::standard()),
        ),
    ];

    let mut table = Table::new([
        "Scenario",
        "Found / Measurable",
        "Recall",
        "FN rate",
        "DNS timeouts",
        "Retries",
        "Recovered",
    ]);
    let mut rows = Vec::new();
    for (name, builder) in scenarios {
        let data = builder.run(&build()).data;
        let hit = found(&data, &measurable);
        let net = &data.network;
        table.row([
            name.to_string(),
            format!("{hit} / {}", measurable.len()),
            pct(hit, measurable.len()),
            pct(measurable.len() - hit, measurable.len()),
            net.dns_timeouts.to_string(),
            net.probe_retries.to_string(),
            net.probes_recovered.to_string(),
        ]);
        rows.push(json!({
            "scenario": name,
            "measurable": measurable.len(),
            "found": hit,
            "dns_timeouts": net.dns_timeouts,
            "datagrams_dropped": net.datagrams_dropped,
            "probe_retries": net.probe_retries,
            "probes_recovered": net.probes_recovered,
        }));
    }

    Exhibit {
        id: "resilience",
        title: "Measurement resilience: vulnerable-host recall under 10% DNS loss",
        paper_claim: "the campaign re-probed hosts whose measurements failed \
                      transiently; §5 reports successful measurements \
                      stabilising despite network noise",
        rendered: table.render(),
        json: json!({ "dns_drop": DNS_DROP, "scale": SCALE, "scenarios": rows }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testctx;

    #[test]
    fn retry_never_loses_recall_and_counters_are_live() {
        let exhibit = resilience(testctx::shared());
        let rows = exhibit.json["scenarios"].as_array().unwrap();
        assert_eq!(rows.len(), 3);
        let found = |i: usize| rows[i]["found"].as_u64().unwrap();
        let (clean, bare, retried) = (found(0), found(1), found(2));
        assert!(
            retried >= bare,
            "retry recall regressed: {retried} < {bare}"
        );
        // No upper-bound check against the fault-free row: the world
        // itself greylists, and retries recover those tempfails too, so
        // "faults + retry" may legitimately beat "fault-free, no retry".
        assert!(clean >= bare, "injected loss must not improve bare recall");
        assert_eq!(rows[0]["probe_retries"].as_u64(), Some(0));
        assert!(rows[1]["datagrams_dropped"].as_u64().unwrap() > 0);
        assert!(rows[2]["probe_retries"].as_u64().unwrap() > 0);
        assert!(exhibit.rendered.contains("10% DNS loss + retry"));
    }
}
