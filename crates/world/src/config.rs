//! World calibration constants.
//!
//! Every number here is traceable to a paper exhibit; the doc comment on
//! each field says which. `scale` shrinks populations without touching
//! rates, so tests and benchmarks run the same world in miniature.

/// Per-set behavioural rates (address-level, Table 3 columns).
#[derive(Debug, Clone, Copy)]
pub struct SetRates {
    /// Fraction of addresses refusing TCP connections.
    pub refuse: f64,
    /// Fraction of non-refusing addresses failing mid-SMTP in the NoMsg
    /// test (the "SMTP Failure" row).
    pub smtp_failure: f64,
    /// Fraction of addresses validating SPF at `MAIL FROM` (measurable by
    /// NoMsg).
    pub spf_on_mailfrom: f64,
    /// Fraction validating SPF only at end-of-data (measurable by
    /// BlankMsg).
    pub spf_on_data: f64,
    /// Fraction of BlankMsg-tested addresses failing at DATA/message.
    pub blankmsg_failure: f64,
    /// P(vulnerable libSPF2 | host validates SPF) — Table 4.
    pub vulnerable_given_spf: f64,
    /// P(erroneous-but-not-vulnerable expansion | validates SPF) — §7.9.
    pub erroneous_given_spf: f64,
}

/// Full world configuration.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Root seed; the entire world is a pure function of it.
    pub seed: u64,
    /// Population scale: 1.0 reproduces the paper's set sizes; tests use
    /// much smaller values. Rates are scale-invariant.
    pub scale: f64,

    /// Alexa Top List size at scale 1.0 (418,842 per §5.2).
    pub alexa_total: usize,
    /// 2-Week MX size at scale 1.0 (22,911 per §5.2).
    pub two_week_total: usize,
    /// Domains in both the Alexa Top List and 2-Week MX (2,922, Table 1).
    pub overlap_toplist_two_week: usize,
    /// Domains in both the Alexa Top 1000 and 2-Week MX (135, Table 1).
    pub overlap_top1000_two_week: usize,
    /// The "Top Email Providers" reference set size (20, Table 3).
    pub top_providers: usize,
    /// How many top providers are vulnerable (4 named in §7.5).
    pub vulnerable_top_providers: usize,
    /// Vulnerable domains within the Alexa Top 1000 (28, §7.6).
    pub vulnerable_top1000_domains: usize,

    /// Behaviour rates for Alexa-hosted addresses (Table 3, left).
    pub alexa_rates: SetRates,
    /// Behaviour rates for 2-Week-MX-hosted addresses (Table 3, middle).
    pub two_week_rates: SetRates,
    /// Behaviour rates for the top-provider addresses (Table 3, right).
    pub top_provider_rates: SetRates,

    /// Fraction of SPF-validating hosts running two distinct SPF
    /// implementations (≥2 expansion patterns; 6% per §7.9).
    pub multi_impl_rate: f64,
    /// Fraction of domains without MX records (fall back to A per
    /// RFC 5321); these dominate the refused-connection pool (§7.1).
    pub no_mx_rate: f64,
    /// Mean domains per shared-hosting server; drives the address/domain
    /// fan-in (418K domains onto 175K addresses).
    pub shared_hosting_rate: f64,
    /// Fraction of hosts that greylist first contacts.
    pub greylist_rate: f64,
    /// Fraction of vulnerable hosts that eventually blacklist the prober
    /// (the Figure 5 conclusiveness decay).
    pub blacklist_rate: f64,
    /// Fraction of hosts violating RFC 5321 §4.5.1 by rejecting
    /// `postmaster@` — the dominant §7.7 bounce source.
    pub postmaster_missing_rate: f64,
    /// Per-probe chance of a transient, inconclusive measurement.
    pub flaky_rate: f64,
    /// Fraction of 2-Week-MX-only domains that are short-lived spam
    /// domains whose MX records vanish by February (§7.2).
    pub spam_churn_rate: f64,

    /// Rank multiplier span for Figure 4: the most-lowly-ranked domains
    /// are this much more likely to be vulnerable than the top ranks (~2x).
    pub rank_vulnerability_span: f64,
    /// Fraction of patch events attributable to distro auto-updates (the
    /// rest are manual admin action).
    pub auto_update_share: f64,
    /// Patch probability multiplier for Alexa Top 1000 hosts (under 10%
    /// patched per Figure 2).
    pub top1000_patch_multiplier: f64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 0x5bf2_a117,
            scale: 1.0,
            alexa_total: 418_842,
            two_week_total: 22_911,
            overlap_toplist_two_week: 2_922,
            overlap_top1000_two_week: 135,
            top_providers: 20,
            vulnerable_top_providers: 4,
            vulnerable_top1000_domains: 28,
            alexa_rates: SetRates {
                refuse: 0.47,
                smtp_failure: 0.28,
                spf_on_mailfrom: 0.14,
                spf_on_data: 0.46,
                blankmsg_failure: 0.03,
                vulnerable_given_spf: 1.0 / 6.0,
                erroneous_given_spf: 0.042,
            },
            two_week_rates: SetRates {
                refuse: 0.25,
                smtp_failure: 0.20,
                spf_on_mailfrom: 0.24,
                spf_on_data: 0.40,
                blankmsg_failure: 0.05,
                vulnerable_given_spf: 0.10,
                erroneous_given_spf: 0.045,
            },
            top_provider_rates: SetRates {
                refuse: 0.0,
                smtp_failure: 0.10,
                spf_on_mailfrom: 0.25,
                spf_on_data: 0.50,
                blankmsg_failure: 0.15,
                vulnerable_given_spf: 0.20,
                erroneous_given_spf: 0.05,
            },
            multi_impl_rate: 0.06,
            no_mx_rate: 0.30,
            shared_hosting_rate: 2.4,
            greylist_rate: 0.08,
            blacklist_rate: 0.35,
            postmaster_missing_rate: 0.25,
            flaky_rate: 0.08,
            spam_churn_rate: 0.12,
            rank_vulnerability_span: 2.4,
            auto_update_share: 0.55,
            top1000_patch_multiplier: 0.5,
        }
    }
}

impl WorldConfig {
    /// A small world for tests: same rates, ~1/100 the population.
    pub fn small(seed: u64) -> WorldConfig {
        WorldConfig {
            seed,
            scale: 0.01,
            ..WorldConfig::default()
        }
    }

    /// A small provider-heavy world: heavy shared hosting, many
    /// multi-implementation MTAs, and almost every set member publishing
    /// SPF. It is the regime of the paper's Alexa and top-provider
    /// sweeps, where thousands of probes land on MTAs whose policies
    /// intern to a handful of compiled programs, and pool hosts are named
    /// by many later domains.
    pub fn provider_heavy(seed: u64) -> WorldConfig {
        let mut config = WorldConfig {
            shared_hosting_rate: 8.0,
            multi_impl_rate: 0.5,
            ..WorldConfig::small(seed)
        };
        for rates in [
            &mut config.alexa_rates,
            &mut config.two_week_rates,
            &mut config.top_provider_rates,
        ] {
            rates.refuse = 0.05;
            rates.spf_on_mailfrom = 0.45;
            rates.spf_on_data = 0.5;
        }
        config
    }

    /// Scale a population count.
    pub fn scaled(&self, full: usize) -> usize {
        ((full as f64) * self.scale).round().max(1.0) as usize
    }

    /// The scaled Alexa Top N cutoff (1000 at full scale).
    pub fn top1000_cutoff(&self) -> usize {
        self.scaled(1000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper_populations() {
        let config = WorldConfig::default();
        assert_eq!(config.alexa_total, 418_842);
        assert_eq!(config.two_week_total, 22_911);
        assert_eq!(config.overlap_toplist_two_week, 2_922);
        assert_eq!(config.overlap_top1000_two_week, 135);
        assert_eq!(config.top_providers, 20);
    }

    #[test]
    fn scaling() {
        let config = WorldConfig::small(1);
        assert_eq!(config.scaled(418_842), 4_188);
        assert_eq!(config.scaled(10), 1, "never rounds to zero");
        assert_eq!(config.top1000_cutoff(), 10);
    }

    #[test]
    fn rates_are_probabilities() {
        let config = WorldConfig::default();
        for rates in [
            config.alexa_rates,
            config.two_week_rates,
            config.top_provider_rates,
        ] {
            for p in [
                rates.refuse,
                rates.smtp_failure,
                rates.spf_on_mailfrom,
                rates.spf_on_data,
                rates.blankmsg_failure,
                rates.vulnerable_given_spf,
                rates.erroneous_given_spf,
            ] {
                assert!((0.0..=1.0).contains(&p));
            }
            assert!(rates.spf_on_mailfrom + rates.spf_on_data <= 1.0);
        }
    }
}
