//! The world-wide folds behind Tables 1–4 and 7.
//!
//! Those exhibits summarize *every* domain and host — set sizes and
//! overlaps, TLD histograms, per-set probe-outcome ladders, macro
//! behaviour counts. The eager pipeline could walk the materialized
//! [`World`] for each table; a streaming pipeline has no world to walk.
//! Instead both modes fold the same [`WorldAggregates`] — eager from the
//! world's domain vector, streaming from a fresh [`LazyWorld`] synthesis
//! pass — over the campaign's per-host [`HostMask`] column. One
//! implementation, two domain iterators: the exhibits are equal across
//! modes by construction, and the streaming fold's live state is a few
//! fixed-size tables plus one byte of set membership per host (dropped
//! when the fold finishes).

use std::collections::BTreeMap;

use serde_json::{json, Value};
use spfail_prober::{HostClass, HostMask, BEHAVIOR_BITS};
use spfail_world::{DomainRecord, LazyWorld, World, WorldConfig};

use crate::pipeline::SetFilter;

/// The domain sets the exhibits report on, in [`SetFilter::index`]
/// order.
pub const REPORT_SETS: [SetFilter; 5] = [
    SetFilter::All,
    SetFilter::AlexaTopList,
    SetFilter::Alexa1000,
    SetFilter::TwoWeek,
    SetFilter::TopProviders,
];

/// Table 1's row/column sets, in the paper's order.
pub const TABLE1_SETS: [SetFilter; 3] = [
    SetFilter::TwoWeek,
    SetFilter::Alexa1000,
    SetFilter::AlexaTopList,
];

impl SetFilter {
    /// Index into [`REPORT_SETS`]-shaped arrays.
    pub fn index(self) -> usize {
        match self {
            SetFilter::All => 0,
            SetFilter::AlexaTopList => 1,
            SetFilter::Alexa1000 => 2,
            SetFilter::TwoWeek => 3,
            SetFilter::TopProviders => 4,
        }
    }

    /// Whether `domain` belongs to this set — the record-level form of
    /// [`crate::pipeline::Source::in_set`]. `cutoff` is the world's
    /// Alexa-1000 rank cutoff.
    pub fn member(self, domain: &DomainRecord, cutoff: usize) -> bool {
        match self {
            SetFilter::All => true,
            SetFilter::AlexaTopList => domain.in_alexa(),
            SetFilter::Alexa1000 => domain.in_alexa_top(cutoff),
            SetFilter::TwoWeek => domain.in_two_week(),
            SetFilter::TopProviders => domain.top_provider,
        }
    }
}

/// Per-set NoMsg/BlankMsg outcome counts (one Table 3 column).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Outcomes {
    /// Domains or addresses tested.
    pub total: usize,
    /// All connections refused.
    pub refused: usize,
    /// Reached the NoMsg test.
    pub nomsg_total: usize,
    /// NoMsg ended in SMTP failure.
    pub nomsg_failure: usize,
    /// NoMsg measured SPF.
    pub nomsg_measured: usize,
    /// NoMsg completed without measuring.
    pub nomsg_not_measured: usize,
    /// Reached the BlankMsg test.
    pub blank_total: usize,
    /// BlankMsg ended in SMTP failure.
    pub blank_failure: usize,
    /// BlankMsg measured SPF.
    pub blank_measured: usize,
    /// BlankMsg completed without measuring.
    pub blank_not_measured: usize,
    /// Measured by either test.
    pub total_measured: usize,
}

impl Outcomes {
    /// The machine-readable form Table 3 emits.
    pub fn to_json(&self) -> Value {
        json!({
            "total": self.total,
            "refused": self.refused,
            "nomsg_total": self.nomsg_total,
            "nomsg_failure": self.nomsg_failure,
            "nomsg_measured": self.nomsg_measured,
            "nomsg_not_measured": self.nomsg_not_measured,
            "blank_total": self.blank_total,
            "blank_failure": self.blank_failure,
            "blank_measured": self.blank_measured,
            "blank_not_measured": self.blank_not_measured,
            "total_measured": self.total_measured,
        })
    }
}

/// Table 4's measured/vulnerable/erroneous triple for one set.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Breakdown {
    /// SPF-measured population.
    pub measured: usize,
    /// Showing the vulnerable fingerprint.
    pub vulnerable: usize,
    /// Expanding erroneously without being vulnerable.
    pub erroneous: usize,
}

/// Everything Tables 1–4 and 7 read about the world at large, folded in
/// one pass over the domain stream. Indexed by [`SetFilter::index`]
/// where per-set.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldAggregates {
    /// Domains per set.
    pub set_counts: [usize; 5],
    /// Pairwise overlap counts among [`TABLE1_SETS`].
    pub overlaps: [[usize; 3]; 3],
    /// TLD histogram of the Alexa Top List.
    pub tld_alexa: BTreeMap<&'static str, usize>,
    /// TLD histogram of the 2-Week MX set.
    pub tld_two_week: BTreeMap<&'static str, usize>,
    /// Address-level Table 3 outcomes per set.
    pub addresses: [Outcomes; 5],
    /// Domain-level Table 3 outcomes per set.
    pub domains: [Outcomes; 5],
    /// Address-level Table 4 breakdown per set.
    pub table4_addresses: [Breakdown; 5],
    /// Domain-level Table 4 breakdown per set.
    pub table4_domains: [Breakdown; 5],
    /// Hosts showing each behaviour, indexed by [`BEHAVIOR_BITS`].
    pub behavior_counts: [usize; 9],
    /// SPF-measured hosts (Table 7's denominator).
    pub measured_hosts: usize,
    /// Measured hosts with at least one unknown expansion pattern.
    pub unknown_pattern_hosts: usize,
    /// Measured hosts with ≥2 distinct expansion patterns.
    pub multi_pattern_hosts: usize,
}

impl WorldAggregates {
    /// Fold from a materialized world (the eager pipeline).
    pub fn from_world(world: &World, masks: &[u32]) -> WorldAggregates {
        let mut fold = Fold::new(masks.len());
        let cutoff = world.config.top1000_cutoff();
        for domain in &world.domains {
            fold.domain(domain, masks, cutoff);
        }
        fold.finish(masks)
    }

    /// Fold from a fresh synthesis pass (the streaming pipeline): the
    /// stream yields each domain once, in id order, and no record
    /// outlives its step.
    pub fn from_config(config: &WorldConfig, masks: &[u32]) -> WorldAggregates {
        let mut fold = Fold::new(masks.len());
        let cutoff = config.top1000_cutoff();
        for step in LazyWorld::new(config.clone()) {
            fold.domain(&step.domain, masks, cutoff);
        }
        fold.finish(masks)
    }
}

/// The in-flight fold state: the aggregates under construction plus one
/// byte of set membership per host — the only O(hosts) term, dropped at
/// [`Fold::finish`].
struct Fold {
    set_counts: [usize; 5],
    overlaps: [[usize; 3]; 3],
    tld_alexa: BTreeMap<&'static str, usize>,
    tld_two_week: BTreeMap<&'static str, usize>,
    domains: [Outcomes; 5],
    table4_domains: [Breakdown; 5],
    host_sets: Vec<u8>,
}

impl Fold {
    fn new(hosts: usize) -> Fold {
        Fold {
            set_counts: [0; 5],
            overlaps: [[0; 3]; 3],
            tld_alexa: BTreeMap::new(),
            tld_two_week: BTreeMap::new(),
            domains: [Outcomes::default(); 5],
            table4_domains: [Breakdown::default(); 5],
            host_sets: vec![0u8; hosts],
        }
    }

    /// Fold one domain in.
    fn domain(&mut self, domain: &DomainRecord, masks: &[u32], cutoff: usize) {
        let mut bits = 0u8;
        for (i, set) in REPORT_SETS.iter().enumerate() {
            if set.member(domain, cutoff) {
                bits |= 1 << i;
                self.set_counts[i] += 1;
            }
        }
        for (r, row_set) in TABLE1_SETS.iter().enumerate() {
            if bits & (1 << row_set.index()) == 0 {
                continue;
            }
            for (c, col_set) in TABLE1_SETS.iter().enumerate() {
                if bits & (1 << col_set.index()) != 0 {
                    self.overlaps[r][c] += 1;
                }
            }
        }
        if bits & (1 << SetFilter::AlexaTopList.index()) != 0 {
            *self.tld_alexa.entry(domain.tld).or_default() += 1;
        }
        if bits & (1 << SetFilter::TwoWeek.index()) != 0 {
            *self.tld_two_week.entry(domain.tld).or_default() += 1;
        }

        // The domain-level outcome ladder, folded once over the member
        // hosts' masks and applied to every set holding the domain.
        let mut all_refused = true;
        let mut any_nomsg_measured = false;
        let mut all_nomsg_failed = true;
        let mut blank_ran = false;
        let mut any_blank_measured = false;
        let mut all_blank_failed = true;
        let mut any_measured = false;
        let mut any_vulnerable = false;
        let mut any_erroneous = false;
        for &host in &domain.hosts {
            self.host_sets[host.0 as usize] |= bits;
            let m = HostMask(masks[host.0 as usize]);
            all_refused &= m.nomsg_refused();
            any_nomsg_measured |= m.nomsg_measured();
            if !m.nomsg_refused() {
                all_nomsg_failed &= m.nomsg_failure();
            }
            blank_ran |= m.blank_present();
            any_blank_measured |= m.blank_measured();
            if m.blank_present() {
                all_blank_failed &= m.blank_failure();
            }
            any_measured |= m.measured();
            any_vulnerable |= m.vulnerable();
            any_erroneous |= m.erroneous();
        }
        for i in 0..REPORT_SETS.len() {
            if bits & (1 << i) == 0 {
                continue;
            }
            let o = &mut self.domains[i];
            o.total += 1;
            if all_refused {
                o.refused += 1;
                continue;
            }
            o.nomsg_total += 1;
            if any_nomsg_measured {
                o.nomsg_measured += 1;
            } else if all_nomsg_failed {
                o.nomsg_failure += 1;
            } else {
                o.nomsg_not_measured += 1;
            }
            if blank_ran {
                o.blank_total += 1;
                if any_blank_measured {
                    o.blank_measured += 1;
                } else if all_blank_failed {
                    o.blank_failure += 1;
                } else {
                    o.blank_not_measured += 1;
                }
            }
            if any_measured {
                o.total_measured += 1;
                let b = &mut self.table4_domains[i];
                b.measured += 1;
                if any_vulnerable {
                    b.vulnerable += 1;
                } else if any_erroneous {
                    b.erroneous += 1;
                }
            }
        }
    }

    /// Finish: derive the address-level tables from the membership
    /// column and the masks, and drop the column.
    fn finish(self, masks: &[u32]) -> WorldAggregates {
        let mut addresses = [Outcomes::default(); 5];
        let mut table4_addresses = [Breakdown::default(); 5];
        let mut behavior_counts = [0usize; 9];
        let mut measured_hosts = 0usize;
        let mut unknown_pattern_hosts = 0usize;
        let mut multi_pattern_hosts = 0usize;
        for (idx, &raw) in masks.iter().enumerate() {
            let mask = HostMask(raw);
            let bits = self.host_sets[idx];
            for i in 0..REPORT_SETS.len() {
                if bits & (1 << i) == 0 {
                    continue;
                }
                let o = &mut addresses[i];
                o.total += 1;
                if mask.nomsg_refused() {
                    o.refused += 1;
                } else {
                    o.nomsg_total += 1;
                    if mask.nomsg_measured() {
                        o.nomsg_measured += 1;
                    } else if mask.nomsg_failure() {
                        o.nomsg_failure += 1;
                    } else {
                        o.nomsg_not_measured += 1;
                    }
                    if mask.blank_present() {
                        o.blank_total += 1;
                        if mask.blank_measured() {
                            o.blank_measured += 1;
                        } else if mask.blank_failure() {
                            o.blank_failure += 1;
                        } else {
                            o.blank_not_measured += 1;
                        }
                    }
                    if mask.class() == HostClass::SpfMeasured {
                        o.total_measured += 1;
                    }
                }
                if mask.measured() {
                    let b = &mut table4_addresses[i];
                    b.measured += 1;
                    if mask.vulnerable() {
                        b.vulnerable += 1;
                    } else if mask.erroneous() {
                        b.erroneous += 1;
                    }
                }
            }
            if mask.measured() {
                measured_hosts += 1;
                for (i, count) in behavior_counts.iter_mut().enumerate() {
                    if mask.behavior(i) {
                        *count += 1;
                    }
                }
                if mask.unknown_patterns() {
                    unknown_pattern_hosts += 1;
                }
                if mask.multi_pattern() {
                    multi_pattern_hosts += 1;
                }
            }
        }
        debug_assert_eq!(BEHAVIOR_BITS.len(), behavior_counts.len());
        WorldAggregates {
            set_counts: self.set_counts,
            overlaps: self.overlaps,
            tld_alexa: self.tld_alexa,
            tld_two_week: self.tld_two_week,
            addresses,
            domains: self.domains,
            table4_addresses,
            table4_domains: self.table4_domains,
            behavior_counts,
            measured_hosts,
            unknown_pattern_hosts,
            multi_pattern_hosts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfail_prober::{CampaignBuilder, CampaignSummary};

    /// The two fold inputs — the materialized world and the synthesis
    /// stream — must produce identical aggregates.
    #[test]
    fn world_and_lazy_folds_agree() {
        let config = WorldConfig {
            scale: 0.004,
            ..WorldConfig::small(7)
        };
        let world = World::generate(config.clone());
        let run = CampaignBuilder::new().run(&world);
        let masks = CampaignSummary::from_data(&run.data).masks;
        let eager = WorldAggregates::from_world(&world, &masks);
        let lazy = WorldAggregates::from_config(&config, &masks);
        assert_eq!(eager, lazy);
        // Shape sanity: every host serves some domain, so the All column
        // covers the whole mask column.
        assert_eq!(eager.addresses[SetFilter::All.index()].total, masks.len());
        assert_eq!(
            eager.set_counts[SetFilter::All.index()],
            world.domains.len()
        );
        assert!(eager.measured_hosts > 0);
    }
}
