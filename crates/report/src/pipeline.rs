//! One full reproduction run, shared by every exhibit builder.
//!
//! A run is eager ([`Context`]) or streaming ([`StreamContext`]); both
//! implement [`Source`], which every exhibit builder reads. The two
//! structs stay separate because the benchmark in `perfbench/` builds
//! each one field by field and calls the registry column of its type.

use std::collections::BTreeSet;

use spfail_netsim::PolicyCacheStats;
use spfail_notify::{NotificationCampaign, NotificationRecord, NotificationReport, PixelLog};
use spfail_prober::{CampaignBuilder, CampaignData, CampaignSummary, StreamingRun};
use spfail_world::{
    DomainId, DomainRecord, HostId, HostRecord, Population, SparsePopulation, World, WorldConfig,
};

use crate::aggregates::WorldAggregates;
use crate::{Exhibit, ExhibitEntry};

/// The domain groups the paper reports on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetFilter {
    /// Every domain in either set.
    All,
    /// The Alexa Top List.
    AlexaTopList,
    /// The Alexa Top 1000 subset.
    Alexa1000,
    /// The 2-Week MX set.
    TwoWeek,
    /// The Top Email Providers reference set.
    TopProviders,
}

impl SetFilter {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            SetFilter::All => "All",
            SetFilter::AlexaTopList => "Alexa Top List",
            SetFilter::Alexa1000 => "Alexa 1000",
            SetFilter::TwoWeek => "2-Week MX",
            SetFilter::TopProviders => "Top Email Providers",
        }
    }
}

/// The results of one end-to-end run.
pub struct Context {
    /// The generated world.
    pub world: World,
    /// Measurement campaign results.
    pub campaign: CampaignData,
    /// Notification records.
    pub notifications: Vec<NotificationRecord>,
    /// The §7.7 funnel.
    pub funnel: NotificationReport,
    /// The tracking-pixel log.
    pub pixels: PixelLog,
    /// Compiled-policy cache tallies from the campaign run, `None` when
    /// the campaign ran without the cache (or was rebuilt from bare
    /// [`CampaignData`]). Every other exhibit is identical either way —
    /// the cache is measurement-transparent — so only the
    /// `cache_efficiency` exhibit reads this.
    pub cache: Option<PolicyCacheStats>,
    /// The world-wide folds behind Tables 1–4 and 7.
    pub aggregates: WorldAggregates,
}

impl Context {
    /// Run the whole reproduction at `scale` with `seed`.
    pub fn run(scale: f64, seed: u64) -> Context {
        let world = World::generate(WorldConfig {
            seed,
            scale,
            ..WorldConfig::default()
        });
        // Drive the staged session explicitly — the report pipeline is
        // the reference consumer of the stage-by-stage API.
        let (campaign, cache) = {
            let mut session = CampaignBuilder::new().session(&world);
            session.initial_sweep();
            while session.advance_round().is_some() {}
            let run = session.finish();
            (run.data, run.cache)
        };
        let mut ctx = Context::from_campaign(world, campaign);
        ctx.cache = cache;
        ctx
    }

    /// Build the exhibit context from an already-measured campaign —
    /// e.g. one continued from a [`spfail_prober::Session`] checkpoint.
    /// `campaign` must have been measured against `world`.
    pub fn from_campaign(world: World, campaign: CampaignData) -> Context {
        let mut pixels = PixelLog::new();
        // The notification list is the *measured* vulnerable set — domains
        // hosted on addresses whose initial probe showed the fingerprint —
        // exactly as the paper built it.
        let (notifications, funnel) =
            NotificationCampaign::run(&world, &campaign.vulnerable_domains, &mut pixels);
        let aggregates =
            WorldAggregates::from_world(&world, &CampaignSummary::from_data(&campaign).masks);
        Context {
            world,
            campaign,
            notifications,
            funnel,
            pixels,
            cache: None,
            aggregates,
        }
    }

    /// All domains in `set`.
    pub fn set_domains(&self, set: SetFilter) -> Vec<DomainId> {
        (0..self.world.domains.len() as u32)
            .map(DomainId)
            .filter(|&d| self.in_set(d, set))
            .collect()
    }

    /// Unique hosts serving any domain of `set`.
    pub fn set_hosts(&self, set: SetFilter) -> Vec<HostId> {
        let mut hosts = BTreeSet::new();
        for d in self.set_domains(set) {
            hosts.extend(self.world.domain(d).hosts.iter().copied());
        }
        hosts.into_iter().collect()
    }
}

/// The results of one end-to-end *streaming* run: the same campaign as
/// [`Context::run`], executed without ever materializing the world. The
/// world-wide exhibit inputs live in the folded [`WorldAggregates`] and
/// the campaign's mask column; everything domain- or host-specific the
/// exhibits read (vulnerable domains, tracked hosts and their full MX
/// groups) comes from the retained [`SparsePopulation`].
pub struct StreamContext {
    /// The configuration the streamed world was synthesized from.
    pub config: WorldConfig,
    /// The retained O(tracked) population the longitudinal and
    /// notification phases ran over.
    pub population: SparsePopulation,
    /// Measurement campaign results (`initial` is empty by design — the
    /// mask column in [`StreamContext::summary`] replaces it).
    pub campaign: CampaignData,
    /// The cross-mode campaign summary, including the mask column.
    pub summary: CampaignSummary,
    /// The world-wide folds behind Tables 1–4 and 7.
    pub aggregates: WorldAggregates,
    /// Notification records.
    pub notifications: Vec<NotificationRecord>,
    /// The §7.7 funnel.
    pub funnel: NotificationReport,
    /// The tracking-pixel log.
    pub pixels: PixelLog,
    /// Compiled-policy cache tallies, as in [`Context::cache`].
    pub cache: Option<PolicyCacheStats>,
}

impl StreamContext {
    /// Run the whole reproduction at `scale` with `seed` in streaming
    /// mode — the bounded-memory counterpart of [`Context::run`],
    /// producing bit-for-bit the same exhibits.
    pub fn run(scale: f64, seed: u64) -> StreamContext {
        let config = WorldConfig {
            seed,
            scale,
            ..WorldConfig::default()
        };
        let StreamingRun { run, population } = CampaignBuilder::new().run_streaming(config.clone());
        let aggregates = WorldAggregates::from_config(&config, &run.summary.masks);
        let mut pixels = PixelLog::new();
        let (notifications, funnel) =
            NotificationCampaign::run(&population, &run.summary.vulnerable_domains, &mut pixels);
        StreamContext {
            config,
            population,
            campaign: run.data,
            summary: run.summary,
            aggregates,
            notifications,
            funnel,
            pixels,
            cache: run.cache,
        }
    }
}

/// One pipeline run, whichever mode produced it. Every exhibit is one
/// generic builder over this trait, so an eager [`Context`] and a
/// streaming [`StreamContext`] produce each exhibit through the same
/// code. Lookups of specific domains or hosts are only valid for the
/// retained subset in streaming mode — the exhibits only ask about
/// vulnerable domains and tracked hosts, which are always retained.
pub trait Source {
    /// The world configuration.
    fn config(&self) -> &WorldConfig;

    /// The campaign's longitudinal data.
    fn campaign(&self) -> &CampaignData;

    /// Look up a domain (streaming: retained domains only).
    fn domain(&self, id: DomainId) -> &DomainRecord;

    /// Look up a host (streaming: retained hosts only).
    fn host(&self, id: HostId) -> &HostRecord;

    /// The world-wide folds.
    fn aggregates(&self) -> &WorldAggregates;

    /// The §7.7 funnel.
    fn funnel(&self) -> &NotificationReport;

    /// Compiled-policy cache tallies.
    fn cache(&self) -> Option<&PolicyCacheStats>;

    /// Whether `domain` is in `set` (streaming: retained domains only).
    fn in_set(&self, domain: DomainId, set: SetFilter) -> bool {
        set.member(self.domain(domain), self.config().top1000_cutoff())
    }

    /// How many domains `set` holds, from the aggregates fold.
    fn set_size(&self, set: SetFilter) -> usize {
        self.aggregates().set_counts[set.index()]
    }

    /// Initially vulnerable domains restricted to `set` — always
    /// retained, in both modes.
    fn vulnerable_domains_in(&self, set: SetFilter) -> Vec<DomainId> {
        self.campaign()
            .vulnerable_domains
            .iter()
            .copied()
            .filter(|&d| self.in_set(d, set))
            .collect()
    }

    /// This context's builder column of a registry entry: the column
    /// whose fn-pointer type takes `&Self`.
    fn column(entry: &ExhibitEntry) -> fn(&Self) -> Exhibit
    where
        Self: Sized;
}

impl Source for Context {
    fn config(&self) -> &WorldConfig {
        &self.world.config
    }

    fn campaign(&self) -> &CampaignData {
        &self.campaign
    }

    fn domain(&self, id: DomainId) -> &DomainRecord {
        self.world.domain(id)
    }

    fn host(&self, id: HostId) -> &HostRecord {
        self.world.host(id)
    }

    fn aggregates(&self) -> &WorldAggregates {
        &self.aggregates
    }

    fn funnel(&self) -> &NotificationReport {
        &self.funnel
    }

    fn cache(&self) -> Option<&PolicyCacheStats> {
        self.cache.as_ref()
    }

    fn column(entry: &ExhibitEntry) -> fn(&Context) -> Exhibit {
        entry.build
    }
}

impl Source for StreamContext {
    fn config(&self) -> &WorldConfig {
        &self.config
    }

    fn campaign(&self) -> &CampaignData {
        &self.campaign
    }

    fn domain(&self, id: DomainId) -> &DomainRecord {
        self.population.domain(id)
    }

    fn host(&self, id: HostId) -> &HostRecord {
        self.population.host(id)
    }

    fn aggregates(&self) -> &WorldAggregates {
        &self.aggregates
    }

    fn funnel(&self) -> &NotificationReport {
        &self.funnel
    }

    fn cache(&self) -> Option<&PolicyCacheStats> {
        self.cache.as_ref()
    }

    fn column(entry: &ExhibitEntry) -> fn(&StreamContext) -> Exhibit {
        entry.build_streaming
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_runs_end_to_end_and_sets_are_consistent() {
        let ctx = Context::run(0.004, 7);
        let all = ctx.set_domains(SetFilter::All).len();
        let alexa = ctx.set_domains(SetFilter::AlexaTopList).len();
        let two_week = ctx.set_domains(SetFilter::TwoWeek).len();
        let providers = ctx.set_domains(SetFilter::TopProviders).len();
        assert_eq!(all, ctx.world.domains.len());
        assert!(alexa > two_week);
        assert_eq!(providers, 20);
        let top1000 = ctx.set_domains(SetFilter::Alexa1000).len();
        assert!(top1000 <= alexa);
        // Every vulnerable domain is in at least one reporting set.
        for &d in &ctx.campaign.vulnerable_domains {
            assert!(ctx.in_set(d, SetFilter::All));
        }
        assert!(ctx.funnel.sent > 0);
        assert_eq!(
            ctx.set_hosts(SetFilter::All).len(),
            ctx.world.hosts.len(),
            "every host serves some domain"
        );
    }
}
