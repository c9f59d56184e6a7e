//! Domain population records and TLD sampling.

use spfail_netsim::SimRng;

use crate::config::WorldConfig;
use crate::tld::{ALEXA_TLD_WEIGHTS, MISC_TLDS, TWO_WEEK_TLD_WEIGHTS};

/// Index of a domain in [`crate::world::World::domains`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(pub u32);

/// Which measurement set a domain (or a host's primary domain) belongs to;
/// used to pick the per-set behaviour rates of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetMembership {
    /// The Alexa Top List.
    Alexa,
    /// The 2-Week MX set.
    TwoWeek,
    /// The Top Email Providers reference set.
    TopProvider,
}

/// One domain in the simulated population.
#[derive(Debug, Clone)]
pub struct DomainRecord {
    /// The domain name (synthetic, unique).
    pub name: String,
    /// Its TLD, from the static TLD tables.
    pub tld: &'static str,
    /// Rank in the Alexa Top List (1-based), if a member.
    pub alexa_rank: Option<u32>,
    /// Rank by MX-query frequency in the 2-Week MX set (1-based), if a
    /// member.
    pub two_week_rank: Option<u32>,
    /// Whether this is one of the Top Email Providers.
    pub top_provider: bool,
    /// Whether the domain publishes MX records (no-MX domains fall back to
    /// their A record per RFC 5321 and mostly refuse connections).
    pub has_mx: bool,
    /// Whether this is a short-lived spam domain whose MX records vanish
    /// before the final snapshot (§7.2).
    pub spam_churn: bool,
    /// The server addresses hosting this domain's mail.
    pub hosts: Vec<crate::hosting::HostId>,
}

impl DomainRecord {
    /// Whether the domain is in the Alexa Top `cutoff` group.
    pub fn in_alexa_top(&self, cutoff: usize) -> bool {
        self.alexa_rank.is_some_and(|r| (r as usize) <= cutoff)
    }

    /// Whether the domain is in the 2-Week MX set.
    pub fn in_two_week(&self) -> bool {
        self.two_week_rank.is_some()
    }

    /// Whether the domain is in the Alexa Top List at all.
    pub fn in_alexa(&self) -> bool {
        self.alexa_rank.is_some()
    }

    /// The host's primary set for rate selection: top providers first,
    /// then Alexa membership, then 2-Week.
    pub fn primary_set(&self) -> SetMembership {
        if self.top_provider {
            SetMembership::TopProvider
        } else if self.in_alexa() {
            SetMembership::Alexa
        } else {
            SetMembership::TwoWeek
        }
    }
}

/// A weighted TLD sampler for one population.
pub struct TldSampler {
    tlds: Vec<&'static str>,
    weights: Vec<f64>,
    /// [`SimRng::weight_total`] of `weights`, summed once.
    total: f64,
}

impl TldSampler {
    /// The Alexa Top List TLD mix: Table 2's fifteen heads plus a
    /// calibrated long tail.
    pub fn alexa(config: &WorldConfig) -> TldSampler {
        Self::build(&ALEXA_TLD_WEIGHTS, config.alexa_total as f64)
    }

    /// The 2-Week MX TLD mix.
    pub fn two_week(config: &WorldConfig) -> TldSampler {
        Self::build(&TWO_WEEK_TLD_WEIGHTS, config.two_week_total as f64)
    }

    fn build(head: &[(&'static str, u32)], population: f64) -> TldSampler {
        let mut tlds: Vec<&'static str> = head.iter().map(|(t, _)| *t).collect();
        let mut weights: Vec<f64> = head.iter().map(|(_, w)| f64::from(*w)).collect();
        // The unlisted remainder is spread across the misc tail in
        // proportion to the tail's own weights.
        let head_total: f64 = weights.iter().sum();
        let remainder = (population - head_total).max(0.0);
        let tail_total: f64 = MISC_TLDS.iter().map(|(_, w)| f64::from(*w)).sum();
        for (tld, weight) in MISC_TLDS {
            if tlds.contains(&tld) {
                continue;
            }
            tlds.push(tld);
            weights.push(remainder * f64::from(weight) / tail_total);
        }
        let total = SimRng::weight_total(&weights);
        TldSampler {
            tlds,
            weights,
            total,
        }
    }

    /// Sample one TLD.
    pub fn sample(&self, rng: &mut SimRng) -> &'static str {
        let idx = rng
            .pick_weighted_with_total(&self.weights, self.total)
            .expect("non-empty weights");
        self.tlds[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alexa_sampler_matches_table2_proportions() {
        let config = WorldConfig::default();
        let sampler = TldSampler::alexa(&config);
        let mut rng = SimRng::new(1);
        let n = 20_000;
        let com = (0..n).filter(|_| sampler.sample(&mut rng) == "com").count() as f64 / n as f64;
        // Paper: 230,801 / 418,842 = 55.1%.
        assert!((0.52..0.59).contains(&com), "com share {com}");
    }

    #[test]
    fn two_week_sampler_has_edu_and_gov() {
        let config = WorldConfig::default();
        let sampler = TldSampler::two_week(&config);
        let mut rng = SimRng::new(2);
        let samples: Vec<&str> = (0..5_000).map(|_| sampler.sample(&mut rng)).collect();
        assert!(samples.contains(&"edu"));
        assert!(samples.contains(&"gov") || samples.contains(&"us"));
    }

    #[test]
    fn misc_tail_is_reachable() {
        let config = WorldConfig::default();
        let sampler = TldSampler::alexa(&config);
        let mut rng = SimRng::new(3);
        let samples: Vec<&str> = (0..50_000).map(|_| sampler.sample(&mut rng)).collect();
        // Table 5 TLDs must occur so the patch-rate table is populated.
        for tld in ["za", "gr", "tw", "by"] {
            assert!(samples.contains(&tld), "missing tail tld {tld}");
        }
    }

    #[test]
    fn membership_predicates() {
        let d = DomainRecord {
            name: "a5.com".into(),
            tld: "com",
            alexa_rank: Some(5),
            two_week_rank: Some(12),
            top_provider: false,
            has_mx: true,
            spam_churn: false,
            hosts: vec![],
        };
        assert!(d.in_alexa());
        assert!(d.in_alexa_top(1000));
        assert!(!d.in_alexa_top(4));
        assert!(d.in_two_week());
        assert_eq!(d.primary_set(), SetMembership::Alexa);
    }
}
