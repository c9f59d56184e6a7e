//! Figures 2–8 and the notification funnel.
//!
//! Every builder is written against [`Source`]: the longitudinal
//! figures only read the campaign's round data plus retained domains
//! and tracked hosts, all of which the streaming pipeline keeps, so the
//! eager and streaming exhibits share one implementation.
//!
//! The longitudinal builders (Figures 3 and 5–8, `attribution`) read
//! the rounds through a `View` that is dense over the sorted
//! `campaign.tracked` list: a tracked host is named by its *position*
//! in that list. Each round's status map becomes a position-sorted
//! column, and the patch timeline becomes two `u16` columns indexed by
//! position. A figure resolves each of its domains to the positions of
//! its tracked hosts once, then per round fills one `(direct, status)`
//! entry per tracked host and answers every domain by slice indexing:
//! rounds × domains slice work, not rounds × domains × map lookups.
//!
//! The view relies on the invariant the engine keeps and
//! `Session::from_state` checks on restore: every host a round names is
//! tracked, and round days strictly increase.

use std::collections::BTreeMap;

use serde_json::{json, Value};
use spfail_prober::{CampaignData, RoundStatus, SnapshotStatus};
use spfail_world::{geo, DomainId, HostId, Timeline};

use crate::pipeline::{SetFilter, Source};
use crate::series::{render_chart, Series};
use crate::table::{count_pct, pct, Table};
use crate::Exhibit;

/// Column value for a host never measured patched (or vulnerable).
const NEVER: u16 = u16::MAX;

/// One tracked host at one round: whether it was conclusively measured
/// that round, and its status after the inference rules.
type HostState = (bool, RoundStatus);

/// The campaign's longitudinal data, dense over `campaign.tracked`
/// (sorted by [`HostId`]): position `i` in every column is the host
/// `tracked[i]`. Rounds keep the campaign's order, ascending by day.
struct View<'a> {
    tracked: &'a [HostId],
    /// Per round: its day and its conclusive measurements as
    /// `(position, status)`, sorted by position. An inconclusive
    /// measurement is left out — it counts as no measurement.
    rounds: Vec<(u16, Vec<(u32, RoundStatus)>)>,
    /// First round day each host was measured patched, or [`NEVER`].
    first_patched: Vec<u16>,
    /// Last round day each host was measured vulnerable, or [`NEVER`].
    last_vulnerable: Vec<u16>,
}

impl<'a> View<'a> {
    fn new(campaign: &'a CampaignData) -> View<'a> {
        let tracked = campaign.tracked.as_slice();
        debug_assert!(tracked.windows(2).all(|w| w[0] < w[1]), "tracked is sorted");
        let mut first_patched = vec![NEVER; tracked.len()];
        let mut last_vulnerable = vec![NEVER; tracked.len()];
        let mut rounds = Vec::with_capacity(campaign.rounds.len());
        for (day, statuses) in &campaign.rounds {
            let mut by_host: Vec<(HostId, RoundStatus)> = statuses
                .iter()
                .filter(|(_, &status)| status != RoundStatus::Inconclusive)
                .map(|(&host, &status)| (host, status))
                .collect();
            by_host.sort_unstable_by_key(|(host, _)| *host);
            // Merge-walk the sorted column against the sorted tracked
            // list; a host outside it (never written by the engine) is
            // skipped.
            let mut column = Vec::with_capacity(by_host.len());
            let mut pos = 0;
            for (host, status) in by_host {
                while pos < tracked.len() && tracked[pos] < host {
                    pos += 1;
                }
                if tracked.get(pos) != Some(&host) {
                    continue;
                }
                if status == RoundStatus::Patched {
                    if first_patched[pos] == NEVER {
                        first_patched[pos] = *day;
                    }
                } else {
                    last_vulnerable[pos] = *day;
                }
                column.push((pos as u32, status));
            }
            rounds.push((*day, column));
        }
        View {
            tracked,
            rounds,
            first_patched,
            last_vulnerable,
        }
    }

    /// `domains` resolved to the positions of their tracked hosts, once
    /// per figure.
    fn resolve<'s>(
        &self,
        domains: &[DomainId],
        hosts_of: impl Fn(DomainId) -> &'s [HostId],
    ) -> DomainHosts {
        let mut positions = Vec::new();
        let mut ends = Vec::with_capacity(domains.len());
        for &domain in domains {
            positions.extend(
                hosts_of(domain)
                    .iter()
                    .filter_map(|host| self.tracked.binary_search(host).ok())
                    .map(|pos| pos as u32),
            );
            ends.push(positions.len());
        }
        DomainHosts { positions, ends }
    }

    /// Every tracked host's state on round `day`, whose conclusive
    /// measurements are `column`, written to `states` by position.
    /// Unmeasured hosts take the inference rules: vulnerable if measured
    /// vulnerable on this day or later, else patched if measured patched
    /// on or before it.
    fn fill_states(&self, day: u16, column: &[(u32, RoundStatus)], states: &mut Vec<HostState>) {
        states.clear();
        states.extend(self.first_patched.iter().zip(&self.last_vulnerable).map(
            |(&patched, &vulnerable)| {
                let status = if vulnerable != NEVER && vulnerable >= day {
                    RoundStatus::Vulnerable
                } else if patched != NEVER && patched <= day {
                    RoundStatus::Patched
                } else {
                    RoundStatus::Inconclusive
                };
                (false, status)
            },
        ));
        for &(pos, status) in column {
            states[pos as usize] = (true, status);
        }
    }
}

/// Domains as runs of tracked-host positions: domain `k` owns
/// `positions[ends[k - 1]..ends[k]]` (from 0 for the first).
struct DomainHosts {
    positions: Vec<u32>,
    ends: Vec<usize>,
}

impl DomainHosts {
    /// Each domain's positions, in the order the domains were resolved.
    fn iter(&self) -> impl Iterator<Item = &[u32]> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let hosts = &self.positions[start..end];
            start = end;
            hosts
        })
    }
}

/// `(directly_measured, status)` for one domain at one round, from its
/// tracked-host positions and the round's [`View::fill_states`]: direct
/// when every host was measured, vulnerable when any host is, patched
/// when all are. A domain with no tracked host is inconclusive.
fn domain_state(hosts: &[u32], states: &[HostState]) -> HostState {
    if hosts.is_empty() {
        return (false, RoundStatus::Inconclusive);
    }
    let mut all_direct = true;
    let mut all_patched = true;
    let mut any_vulnerable = false;
    for &pos in hosts {
        let (direct, status) = states[pos as usize];
        all_direct &= direct;
        match status {
            RoundStatus::Vulnerable => any_vulnerable = true,
            RoundStatus::Patched => {}
            RoundStatus::Inconclusive => all_patched = false,
        }
    }
    let status = if any_vulnerable {
        RoundStatus::Vulnerable
    } else if all_patched {
        RoundStatus::Patched
    } else {
        RoundStatus::Inconclusive
    };
    (all_direct, status)
}

/// Figure 2: final distribution of initially vulnerable domains.
pub fn fig2(src: &impl Source) -> Exhibit {
    let groups = [
        SetFilter::All,
        SetFilter::AlexaTopList,
        SetFilter::Alexa1000,
        SetFilter::TwoWeek,
    ];
    let mut table = Table::new([
        "Group",
        "Init. vulnerable",
        "Patched",
        "Vulnerable",
        "Unknown",
    ]);
    let mut data = serde_json::Map::new();
    for group in groups {
        let domains = src.vulnerable_domains_in(group);
        let total = domains.len();
        let mut patched = 0;
        let mut vulnerable = 0;
        let mut unknown = 0;
        for d in &domains {
            match src.campaign().snapshot.get(d) {
                Some(SnapshotStatus::Patched) => patched += 1,
                Some(SnapshotStatus::Vulnerable) => vulnerable += 1,
                _ => unknown += 1,
            }
        }
        table.row([
            group.label().to_string(),
            total.to_string(),
            count_pct(patched, total),
            count_pct(vulnerable, total),
            count_pct(unknown, total),
        ]);
        data.insert(
            group.label().to_string(),
            json!({
                "total": total,
                "patched": patched,
                "vulnerable": vulnerable,
                "unknown": unknown,
                "patched_ci95": crate::stats::proportion_json(patched, total),
            }),
        );
    }
    Exhibit {
        id: "fig2",
        title: "Figure 2: Final (Feb 2022) status of initially vulnerable domains",
        paper_claim: "~15% of all initially vulnerable domains patched by Feb 2022; \
                      Alexa Top 1000 patched least (<10%); 2-Week MX has the most \
                      inconclusive/unknown domains",
        rendered: table.render(),
        json: Value::Object(data),
    }
}

/// Figure 3: geographic distribution of vulnerable and patched hosts.
pub fn fig3(src: &impl Source) -> Exhibit {
    let view = View::new(src.campaign());
    #[derive(Default)]
    struct Bucket {
        vulnerable: usize,
        patched: usize,
        countries: BTreeMap<&'static str, usize>,
    }
    let mut buckets: BTreeMap<(i32, i32), Bucket> = BTreeMap::new();
    for (&host, &first_patched) in view.tracked.iter().zip(&view.first_patched) {
        let record = src.host(host);
        let cell = geo::bucket(&record.geo, 15.0);
        let bucket = buckets.entry(cell).or_default();
        bucket.vulnerable += 1;
        *bucket.countries.entry(record.geo.country).or_default() += 1;
        if first_patched != NEVER {
            bucket.patched += 1;
        }
    }
    let mut sorted: Vec<(&(i32, i32), &Bucket)> = buckets.iter().collect();
    sorted.sort_by_key(|(_, b)| std::cmp::Reverse(b.vulnerable));
    let mut table = Table::new(["Cell (lat,lon)", "Main country", "Vulnerable", "% Patched"]);
    for (cell, bucket) in sorted.iter().take(14) {
        let country = bucket
            .countries
            .iter()
            .max_by_key(|(_, c)| **c)
            .map(|(c, _)| *c)
            .unwrap_or("-");
        table.row([
            format!("({}, {})", cell.0 * 15, cell.1 * 15),
            country.to_string(),
            bucket.vulnerable.to_string(),
            pct(bucket.patched, bucket.vulnerable),
        ]);
    }
    Exhibit {
        id: "fig3",
        title: "Figure 3: Geographic distribution of vulnerable (a) and patched (b) hosts",
        paper_claim: "vulnerable servers across all populous regions, concentrated \
                      in Europe; high patch fractions only in small cells plus the \
                      South-Africa outlier; near-zero patching in China/Taiwan, \
                      Russia, Central/South America",
        rendered: table.render(),
        json: json!(buckets
            .iter()
            .map(|(cell, b)| json!({
                "lat_cell": cell.0,
                "lon_cell": cell.1,
                "vulnerable": b.vulnerable,
                "patched": b.patched,
            }))
            .collect::<Vec<_>>()),
    }
}

/// Figure 4: vulnerable/patched domains by site-ranking bucket.
pub fn fig4(src: &impl Source) -> Exhibit {
    let build = |set: SetFilter, rank_of: &dyn Fn(DomainId) -> Option<u32>, total_ranks: usize| {
        let mut vulnerable = vec![0usize; 20];
        let mut patched = vec![0usize; 20];
        for &d in &src.vulnerable_domains_in(set) {
            let Some(rank) = rank_of(d) else { continue };
            let bucket = (((rank as usize - 1) * 20) / total_ranks.max(1)).min(19);
            vulnerable[bucket] += 1;
            if src.campaign().snapshot.get(&d) == Some(&SnapshotStatus::Patched) {
                patched[bucket] += 1;
            }
        }
        (vulnerable, patched)
    };
    let alexa_total = src.set_size(SetFilter::AlexaTopList);
    let (alexa_vulnerable, alexa_patched) = build(
        SetFilter::AlexaTopList,
        &|d| src.domain(d).alexa_rank,
        alexa_total,
    );
    let two_week_total = src.set_size(SetFilter::TwoWeek);
    let (tw_vulnerable, tw_patched) = build(
        SetFilter::TwoWeek,
        &|d| src.domain(d).two_week_rank,
        two_week_total,
    );
    let mut table = Table::new([
        "Rank bucket",
        "Alexa vuln",
        "Alexa patched",
        "2-Week vuln",
        "2-Week patched",
    ]);
    for i in 0..20 {
        table.row([
            format!("{:>2} ({}–{}%)", i + 1, i * 5, (i + 1) * 5),
            alexa_vulnerable[i].to_string(),
            alexa_patched[i].to_string(),
            tw_vulnerable[i].to_string(),
            tw_patched[i].to_string(),
        ]);
    }
    let top5: usize = alexa_vulnerable[..5].iter().sum();
    let bottom5: usize = alexa_vulnerable[15..].iter().sum();
    let note = format!(
        "Alexa: bottom-quarter buckets hold {bottom5} vulnerable domains vs \
         {top5} in the top quarter (paper: bottom ranks ≈ 2x top ranks).\n"
    );
    Exhibit {
        id: "fig4",
        title: "Figure 4: Vulnerable/patched domains by site ranking (20 buckets)",
        paper_claim: "high-ranked domains have fewer vulnerable servers — bottom \
                      20K Alexa domains ≈ 2x the top 20K; patching slightly higher \
                      at high ranks, never above 40% anywhere",
        rendered: format!("{}{note}", table.render()),
        json: json!({
            "alexa": {"vulnerable": alexa_vulnerable, "patched": alexa_patched},
            "two_week": {"vulnerable": tw_vulnerable, "patched": tw_patched},
        }),
    }
}

/// Shared builder for the Figure 5/8 conclusiveness series.
fn conclusiveness(src: &impl Source, domains: &[DomainId]) -> (Series, Series, Vec<Value>) {
    let view = View::new(src.campaign());
    let domain_hosts = view.resolve(domains, |d| src.domain(d).hosts.as_slice());
    let mut states = Vec::new();
    let mut measured = Series::new("successful measurements");
    let mut with_inferred = Series::new("incl. inferred");
    let mut json_rows = Vec::new();
    for (day, column) in &view.rounds {
        view.fill_states(*day, column, &mut states);
        let mut direct_count = 0usize;
        let mut inferred_count = 0usize;
        for hosts in domain_hosts.iter() {
            let (is_direct, status) = domain_state(hosts, &states);
            if is_direct {
                direct_count += 1;
            } else if status != RoundStatus::Inconclusive {
                inferred_count += 1;
            }
        }
        measured.push(*day, direct_count as f64);
        with_inferred.push(*day, (direct_count + inferred_count) as f64);
        json_rows.push(json!({
            "day": day,
            "date": Timeline::date_label(*day),
            "measured": direct_count,
            "inferred": inferred_count,
            "unknown": domains.len() - direct_count - inferred_count,
        }));
    }
    (measured, with_inferred, json_rows)
}

/// Figure 5: conclusive vulnerability results over time.
pub fn fig5(src: &impl Source) -> Exhibit {
    let domains = src.campaign().vulnerable_domains.clone();
    let (measured, with_inferred, json_rows) = conclusiveness(src, &domains);
    let rendered = render_chart(
        &format!(
            "Conclusive measurements over time ({} initially vulnerable domains \
             on {} addresses)",
            domains.len(),
            src.campaign().tracked.len()
        ),
        &[measured, with_inferred],
        " domains",
    );
    Exhibit {
        id: "fig5",
        title: "Figure 5: Conclusive vulnerability results over time",
        paper_claim: "successful measurements fluctuate early and stabilise by \
                      late November; the measured+inferred band sits well above \
                      raw measurements; the gap (blacklisting, moved MTAs) grows \
                      over time",
        rendered,
        json: json!(json_rows),
    }
}

/// Shared builder for the Figure 6/7 vulnerability-rate series.
fn vulnerability_rates(src: &impl Source, window1_only: bool) -> (Vec<Series>, Vec<Value>) {
    let view = View::new(src.campaign());
    let sets = [
        SetFilter::AlexaTopList,
        SetFilter::Alexa1000,
        SetFilter::TwoWeek,
    ];
    let mut all_series: Vec<Series> = sets.iter().map(|s| Series::new(s.label())).collect();
    let mut json_rows = Vec::new();
    let hosts_per_set: Vec<DomainHosts> = sets
        .iter()
        .map(|&s| {
            view.resolve(&src.vulnerable_domains_in(s), |d| {
                src.domain(d).hosts.as_slice()
            })
        })
        .collect();
    let mut states = Vec::new();
    for (day, column) in &view.rounds {
        if window1_only && *day > Timeline::WINDOW1_END {
            break;
        }
        view.fill_states(*day, column, &mut states);
        let mut row = serde_json::Map::new();
        row.insert("day".into(), json!(day));
        row.insert("date".into(), json!(Timeline::date_label(*day)));
        for (i, set) in sets.iter().enumerate() {
            let mut vulnerable = 0usize;
            let mut known = 0usize;
            for hosts in hosts_per_set[i].iter() {
                match domain_state(hosts, &states).1 {
                    RoundStatus::Vulnerable => {
                        vulnerable += 1;
                        known += 1;
                    }
                    RoundStatus::Patched => known += 1,
                    RoundStatus::Inconclusive => {}
                }
            }
            // When a group becomes wholly unmeasurable (e.g. the Top 1000
            // after blacklisting) it drops out of the "known" pool; the
            // line carries its last value rather than plunging to zero.
            let rate = if known > 0 {
                100.0 * vulnerable as f64 / known as f64
            } else {
                all_series[i].last().unwrap_or(100.0)
            };
            all_series[i].push(*day, rate);
            row.insert(set.label().replace(' ', "_").to_lowercase(), json!(rate));
        }
        json_rows.push(Value::Object(row));
    }
    (all_series, json_rows)
}

/// Figure 6: vulnerability rates during the first measurement window.
pub fn fig6(src: &impl Source) -> Exhibit {
    let (series, json_rows) = vulnerability_rates(src, true);
    Exhibit {
        id: "fig6",
        title: "Figure 6: Vulnerability rate per domain list, first window",
        paper_claim: "during window 1, ~10% of 2-Week MX and ~4% of Alexa Top List \
                      vulnerable domains start validating safely — mostly before \
                      the private notification (proactive package tracking)",
        rendered: render_chart(
            "Vulnerable share of known-status domains, window 1 (%)",
            &series,
            "%",
        ),
        json: json!(json_rows),
    }
}

/// Figure 7: vulnerability rates over the full measurement period.
pub fn fig7(src: &impl Source) -> Exhibit {
    let (series, json_rows) = vulnerability_rates(src, false);
    let finals: Vec<String> = series
        .iter()
        .map(|s| format!("{}: {:.1}%", s.label, s.last().unwrap_or(0.0)))
        .collect();
    Exhibit {
        id: "fig7",
        title: "Figure 7: Vulnerability rate per domain list, full period",
        paper_claim: "a visible drop right after the public disclosure (Debian \
                      patched the next day), strongest for the Alexa Top List; \
                      just over 80% of inferable domains still vulnerable at the \
                      end",
        rendered: format!(
            "{}  final: {}\n",
            render_chart(
                "Vulnerable share of known-status domains, full period (%)",
                &series,
                "%",
            ),
            finals.join(", ")
        ),
        json: json!(json_rows),
    }
}

/// Figure 8: conclusive results over time, Alexa Top 1000 only.
pub fn fig8(src: &impl Source) -> Exhibit {
    let domains = src.vulnerable_domains_in(SetFilter::Alexa1000);
    let (measured, with_inferred, json_rows) = conclusiveness(src, &domains);
    Exhibit {
        id: "fig8",
        title: "Figure 8: Conclusive results over time, Alexa Top 1000",
        paper_claim: "28 vulnerable Top-1000 domains (87 servers); conclusive \
                      results dry up around mid-November (blacklisting); only the \
                      re-resolved February snapshot recovers them and shows a \
                      handful patched",
        rendered: render_chart(
            &format!(
                "Alexa Top 1000: {} initially vulnerable domains",
                domains.len()
            ),
            &[measured, with_inferred],
            " domains",
        ),
        json: json!(json_rows),
    }
}

/// Extension (§7.8 future work): patch-cause attribution.
///
/// The paper could only *correlate* patch timing with disclosure events;
/// the simulation knows each host's ground-truth cause, so this exhibit
/// reports how well the timing-window heuristic recovers it — exactly
/// the "more comprehensive analysis of package manager responses" the
/// paper proposes as future work.
pub fn attribution(src: &impl Source) -> Exhibit {
    use spfail_world::PatchCause;
    let view = View::new(src.campaign());
    // Timing-window heuristic: classify each observed patch by when it
    // was first seen.
    let window_of = |day: u16| {
        if day <= Timeline::PRIVATE_NOTIFICATION {
            "window1-proactive"
        } else if day <= Timeline::PUBLIC_DISCLOSURE {
            "between-disclosures"
        } else {
            "post-disclosure"
        }
    };
    let mut rows: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    let mut attributed = 0usize;
    let mut correct = 0usize;
    let patched = view
        .tracked
        .iter()
        .zip(&view.first_patched)
        .filter(|(_, &day)| day != NEVER);
    for (&host, &first_day) in patched {
        let truth = src.host(host).profile.patch_cause;
        let truth_label = match truth {
            Some(PatchCause::AutoUpdate(_)) => "auto-update",
            Some(PatchCause::ProactiveAdmin) => "proactive-admin",
            Some(PatchCause::PrivateNotification) => "private-notification",
            Some(PatchCause::PublicDisclosure) => "public-disclosure",
            None => "none",
        };
        let inferred = window_of(first_day);
        *rows.entry((truth_label, inferred)).or_default() += 1;
        attributed += 1;
        // The heuristic is "correct" when the window matches the cause's
        // natural window.
        let matches = matches!(
            (truth, inferred),
            (Some(PatchCause::ProactiveAdmin), "window1-proactive")
                | (Some(PatchCause::PrivateNotification), "between-disclosures")
                | (Some(PatchCause::PublicDisclosure), "post-disclosure")
                // Auto-updates land wherever their distro shipped.
                | (Some(PatchCause::AutoUpdate(_)), _)
        );
        if matches {
            correct += 1;
        }
    }
    let mut table = Table::new(["Ground-truth cause", "Observed window", "Hosts"]);
    for ((truth, inferred), count) in &rows {
        table.row([truth.to_string(), inferred.to_string(), count.to_string()]);
    }
    let accuracy = if attributed > 0 {
        format!(
            "timing-window heuristic consistent with ground truth for \
             {correct}/{attributed} observed patches ({:.0}%)\n",
            100.0 * correct as f64 / attributed as f64
        )
    } else {
        "no patches observed at this scale\n".to_string()
    };
    Exhibit {
        id: "attribution",
        title: "Extension: patch-cause attribution vs. observed timing windows",
        paper_claim: "(future work in §7.8) the paper infers causes from timing \
                      alone; the simulation exposes ground truth, quantifying how \
                      much distro auto-updates drive both patching waves",
        rendered: format!("{}{accuracy}", table.render()),
        json: json!({
            "cells": rows.iter().map(|((t, i), c)| json!({
                "truth": t, "window": i, "hosts": c
            })).collect::<Vec<_>>(),
            "attributed": attributed,
            "consistent": correct,
        }),
    }
}

/// §7.7: the notification funnel.
pub fn notification_funnel(src: &impl Source) -> Exhibit {
    let f = src.funnel();
    let delivered = f.sent - f.bounced;
    let mut table = Table::new(["Stage", "Count", "Rate", "Paper"]);
    table.row([
        "Notification emails sent".to_string(),
        f.sent.to_string(),
        "-".to_string(),
        "6,488".to_string(),
    ]);
    table.row([
        "Returned undelivered".to_string(),
        f.bounced.to_string(),
        pct(f.bounced, f.sent),
        "2,054 (31.6%)".to_string(),
    ]);
    table.row([
        "Opened (tracking image)".to_string(),
        f.opened.to_string(),
        pct(f.opened, delivered.max(1)),
        "512 (12%)".to_string(),
    ]);
    table.row([
        "Opened & eventually patched".to_string(),
        f.opened_then_patched.to_string(),
        pct(f.opened_then_patched, f.opened.max(1)),
        "177".to_string(),
    ]);
    table.row([
        "Patched between disclosures".to_string(),
        f.patched_between_disclosures.to_string(),
        pct(f.patched_between_disclosures, f.opened.max(1)),
        "9 (<1%)".to_string(),
    ]);
    table.row([
        "Unreached yet patched in window".to_string(),
        f.unreached_patched_between.to_string(),
        pct(f.unreached_patched_between, f.bounced.max(1)),
        "37 (2%)".to_string(),
    ]);
    Exhibit {
        id: "funnel",
        title: "§7.7: Response to private notification",
        paper_claim: "private notification is marginal: 12% open rate, 9 domains \
                      patched between private and public disclosure",
        rendered: table.render(),
        json: json!({
            "sent": f.sent,
            "bounced": f.bounced,
            "opened": f.opened,
            "opened_then_patched": f.opened_then_patched,
            "patched_between_disclosures": f.patched_between_disclosures,
            "unreached_patched_between": f.unreached_patched_between,
        }),
    }
}

/// The map-based view the dense [`View`] replaced, kept as the
/// differential reference for it.
#[cfg(test)]
mod reference {
    use std::collections::{BTreeMap, BTreeSet, HashMap};

    use spfail_prober::{CampaignData, RoundStatus};
    use spfail_world::HostId;

    pub(super) struct MapView {
        tracked: BTreeSet<HostId>,
        pub(super) first_patched: BTreeMap<HostId, u16>,
        last_vulnerable: BTreeMap<HostId, u16>,
    }

    impl MapView {
        pub(super) fn new(campaign: &CampaignData) -> MapView {
            let tracked: BTreeSet<HostId> = campaign.tracked.iter().copied().collect();
            let mut first_patched = BTreeMap::new();
            let mut last_vulnerable = BTreeMap::new();
            for (day, statuses) in &campaign.rounds {
                let mut by_host: Vec<(HostId, RoundStatus)> = statuses
                    .iter()
                    .map(|(&host, &status)| (host, status))
                    .collect();
                by_host.sort_unstable_by_key(|(host, _)| *host);
                for (host, status) in by_host {
                    match status {
                        RoundStatus::Patched => {
                            first_patched.entry(host).or_insert(*day);
                        }
                        RoundStatus::Vulnerable => {
                            last_vulnerable.insert(host, *day);
                        }
                        RoundStatus::Inconclusive => {}
                    }
                }
            }
            MapView {
                tracked,
                first_patched,
                last_vulnerable,
            }
        }

        fn host_status(
            &self,
            host: HostId,
            day: u16,
            direct: &HashMap<HostId, RoundStatus>,
        ) -> RoundStatus {
            match direct.get(&host) {
                Some(&RoundStatus::Vulnerable) => return RoundStatus::Vulnerable,
                Some(&RoundStatus::Patched) => return RoundStatus::Patched,
                _ => {}
            }
            if self.last_vulnerable.get(&host).is_some_and(|&d| d >= day) {
                return RoundStatus::Vulnerable;
            }
            if self.first_patched.get(&host).is_some_and(|&d| d <= day) {
                return RoundStatus::Patched;
            }
            RoundStatus::Inconclusive
        }

        /// `(directly_measured, status)` for a domain serving
        /// `domain_hosts` at one round.
        pub(super) fn domain_state(
            &self,
            domain_hosts: &[HostId],
            day: u16,
            direct: &HashMap<HostId, RoundStatus>,
        ) -> (bool, RoundStatus) {
            let hosts: Vec<HostId> = domain_hosts
                .iter()
                .copied()
                .filter(|h| self.tracked.contains(h))
                .collect();
            if hosts.is_empty() {
                return (false, RoundStatus::Inconclusive);
            }
            let all_direct = hosts.iter().all(|h| {
                matches!(
                    direct.get(h),
                    Some(RoundStatus::Vulnerable) | Some(RoundStatus::Patched)
                )
            });
            let mut all_patched = true;
            let mut any_vulnerable = false;
            for &host in &hosts {
                match self.host_status(host, day, direct) {
                    RoundStatus::Vulnerable => any_vulnerable = true,
                    RoundStatus::Patched => {}
                    RoundStatus::Inconclusive => all_patched = false,
                }
            }
            let status = if any_vulnerable {
                RoundStatus::Vulnerable
            } else if all_patched {
                RoundStatus::Patched
            } else {
                RoundStatus::Inconclusive
            };
            (all_direct, status)
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::pipeline::{Context, StreamContext};

    fn ctx() -> &'static Context {
        crate::testctx::shared()
    }

    /// The dense view answers exactly as the map-based reference: the
    /// same `(is_direct, status)` for every domain at every round, and
    /// the same first-patched day for every tracked host.
    fn assert_views_agree<'s>(
        campaign: &CampaignData,
        domains: &[DomainId],
        hosts_of: impl Fn(DomainId) -> &'s [HostId],
    ) {
        let dense = View::new(campaign);
        let reference = reference::MapView::new(campaign);
        let resolved = dense.resolve(domains, &hosts_of);
        assert_eq!(dense.rounds.len(), campaign.rounds.len());
        let mut states = Vec::new();
        for ((day, column), (map_day, direct)) in dense.rounds.iter().zip(&campaign.rounds) {
            assert_eq!(day, map_day);
            dense.fill_states(*day, column, &mut states);
            for (&domain, hosts) in domains.iter().zip(resolved.iter()) {
                assert_eq!(
                    domain_state(hosts, &states),
                    reference.domain_state(hosts_of(domain), *day, direct),
                    "domain {domain:?} on day {day}"
                );
            }
        }
        for (&host, &day) in campaign.tracked.iter().zip(&dense.first_patched) {
            assert_eq!(
                (day != NEVER).then_some(day),
                reference.first_patched.get(&host).copied(),
                "first patched day of {host:?}"
            );
        }
    }

    #[test]
    fn dense_view_matches_map_view_on_the_eager_run() {
        let c = ctx();
        assert_views_agree(&c.campaign, &c.campaign.vulnerable_domains, |d| {
            c.world.domain(d).hosts.as_slice()
        });
    }

    #[test]
    fn dense_view_matches_map_view_on_the_streaming_run() {
        // The scale and seed of `testctx::shared`.
        let src = &StreamContext::run(0.025, 11);
        let campaign = src.campaign();
        assert_views_agree(campaign, &campaign.vulnerable_domains, |d| {
            src.domain(d).hosts.as_slice()
        });
    }

    /// Edge cases the generated runs may not reach: an inconclusive
    /// direct entry, a domain with no tracked host, a host patched then
    /// vulnerable again, and a domain whose hosts were all measured.
    #[test]
    fn dense_view_matches_map_view_on_hand_built_rounds() {
        use spfail_prober::InitialMeasurement;
        use RoundStatus::{Inconclusive as I, Patched as P, Vulnerable as V};

        let h = HostId;
        let round = |entries: &[(u32, RoundStatus)]| -> HashMap<HostId, RoundStatus> {
            entries
                .iter()
                .map(|&(host, status)| (h(host), status))
                .collect()
        };
        let campaign = CampaignData {
            initial: InitialMeasurement::default(),
            tracked: vec![h(1), h(2), h(3), h(4), h(5), h(7)],
            rounds: vec![
                // Host 1 inconclusive before it is seen patched; host 2
                // patched, later vulnerable again; hosts 3 and 4 both
                // measured every round.
                (15, round(&[(1, I), (2, P), (3, V), (4, P), (5, I)])),
                (17, round(&[(1, P), (2, I), (3, V), (4, P)])),
                (19, round(&[(1, I), (2, V), (3, P), (4, P), (7, V)])),
                (21, round(&[(2, I), (3, P), (4, P), (5, I)])),
            ],
            snapshot: HashMap::new(),
            vulnerable_domains: (0..6).map(DomainId).collect(),
            ethics: Default::default(),
            network: Default::default(),
        };
        let domains: BTreeMap<DomainId, Vec<HostId>> = [
            (0, vec![h(1)]),
            (1, vec![h(6), h(8)]), // no tracked host
            (2, vec![h(2), h(6)]),
            (3, vec![h(3), h(4)]), // all measured directly
            (4, vec![h(1), h(4), h(5)]),
            (5, vec![h(7), h(2), h(7)]),
        ]
        .into_iter()
        .map(|(d, hosts)| (DomainId(d), hosts))
        .collect();
        assert_views_agree(&campaign, &campaign.vulnerable_domains, |d| {
            domains[&d].as_slice()
        });

        // Spot checks that the cases above are the ones named.
        let view = View::new(&campaign);
        let resolved = view.resolve(&campaign.vulnerable_domains, |d| domains[&d].as_slice());
        let mut states = Vec::new();
        let by_round: Vec<Vec<HostState>> = view
            .rounds
            .iter()
            .map(|(day, column)| {
                view.fill_states(*day, column, &mut states);
                resolved
                    .iter()
                    .map(|hosts| domain_state(hosts, &states))
                    .collect()
            })
            .collect();
        assert_eq!(
            by_round[0][0],
            (false, I),
            "inconclusive before the day-17 patch"
        );
        assert_eq!(
            by_round[2][0],
            (false, P),
            "inconclusive after the day-17 patch"
        );
        assert!(
            by_round.iter().all(|r| r[1] == (false, I)),
            "no tracked host"
        );
        assert_eq!(by_round[0][2], (true, P), "patched on day 15...");
        assert_eq!(
            by_round[1][2],
            (false, V),
            "...inferred vulnerable on day 17 from day 19"
        );
        assert!(
            by_round.iter().all(|r| r[3].0),
            "hosts 3 and 4 measured every round"
        );
        assert_eq!(view.first_patched, [17, 15, 19, 15, NEVER, NEVER]);
        assert_eq!(view.last_vulnerable, [NEVER, 19, 17, NEVER, NEVER, 19]);
    }

    #[test]
    fn fig2_groups_partition_sensibly() {
        let c = ctx();
        let e = fig2(c);
        let all = &e.json["All"];
        let total = all["total"].as_u64().expect("n");
        assert_eq!(
            total,
            all["patched"].as_u64().expect("n")
                + all["vulnerable"].as_u64().expect("n")
                + all["unknown"].as_u64().expect("n")
        );
        // ~80% of inferable domains stay vulnerable: at least vulnerable >
        // patched by a wide margin.
        assert!(all["vulnerable"].as_u64().expect("n") > 2 * all["patched"].as_u64().expect("n"));
    }

    #[test]
    fn fig3_has_geographic_spread() {
        let e = fig3(ctx());
        let buckets = e.json.as_array().expect("array");
        assert!(buckets.len() >= 5, "hosts spread across ≥5 geo cells");
    }

    #[test]
    fn fig4_rank_gradient_shows() {
        let e = fig4(ctx());
        let vulnerable = e.json["alexa"]["vulnerable"]
            .as_array()
            .expect("array")
            .iter()
            .map(|v| v.as_u64().expect("count"))
            .collect::<Vec<u64>>();
        let top: u64 = vulnerable[..10].iter().sum();
        let bottom: u64 = vulnerable[10..].iter().sum();
        assert!(
            bottom > top,
            "lower-ranked half must hold more vulnerable domains ({bottom} vs {top})"
        );
    }

    #[test]
    fn fig5_series_cover_every_round() {
        let c = ctx();
        let e = fig5(c);
        assert_eq!(
            e.json.as_array().expect("array").len(),
            c.campaign.rounds.len()
        );
    }

    #[test]
    fn fig7_ends_mostly_vulnerable_with_disclosure_drop() {
        let c = ctx();
        let e = fig7(c);
        let rows = e.json.as_array().expect("array");
        let last = rows.last().expect("rows");
        let final_rate = last["alexa_top_list"].as_f64().expect("rate");
        assert!(
            final_rate > 60.0,
            "most domains stay vulnerable: {final_rate}"
        );
        // The rate must drop across the disclosure.
        let before = rows
            .iter()
            .rfind(|r| r["day"].as_u64().expect("day") <= 96)
            .expect("window1 row")["alexa_top_list"]
            .as_f64()
            .expect("rate");
        assert!(
            final_rate < before,
            "post-disclosure rate {final_rate} must be below pre-disclosure {before}"
        );
    }

    #[test]
    fn fig6_is_a_prefix_of_fig7() {
        let c = ctx();
        let f6 = fig6(c);
        let f7 = fig7(c);
        let rows6 = f6.json.as_array().expect("array");
        let rows7 = f7.json.as_array().expect("array");
        assert!(rows6.len() < rows7.len());
        assert_eq!(rows6[0], rows7[0]);
    }

    #[test]
    fn fig8_top1000_dries_up() {
        let c = ctx();
        let e = fig8(c);
        let rows = e.json.as_array().expect("array");
        if rows.iter().all(|r| r["measured"].as_u64() == Some(0)) {
            return; // tiny scale may have no top-1000 vulnerable domains
        }
        let first_measured = rows[0]["measured"].as_u64().expect("n");
        let late = rows
            .iter()
            .find(|r| r["day"].as_u64().expect("day") >= 96)
            .expect("window 2 rows")["measured"]
            .as_u64()
            .expect("n");
        assert!(
            late <= first_measured,
            "conclusive Top-1000 measurements must not grow after blacklisting"
        );
    }

    #[test]
    fn funnel_is_internally_consistent() {
        let c = ctx();
        let e = notification_funnel(c);
        let sent = e.json["sent"].as_u64().expect("n");
        let bounced = e.json["bounced"].as_u64().expect("n");
        let opened = e.json["opened"].as_u64().expect("n");
        assert!(bounced <= sent);
        assert!(opened <= sent - bounced);
        assert!(e.json["patched_between_disclosures"].as_u64().expect("n") <= opened);
    }
}
