//! World assembly: the full simulated Internet, ready to probe.

use spfail_dns::{Directory, Name, QueryLog};
use spfail_mta::{Mta, PolicyCacheHandle};
use spfail_netsim::{FaultPlan, Metrics, SimClock, SimRng};
use spfail_trace::Tracer;

use crate::config::WorldConfig;
use crate::domains::{DomainId, DomainRecord};
use crate::hosting::{HostId, HostRecord};
use crate::lazy::{LazyWorld, WorldRuntime};
use crate::timeline::Timeline;

/// The assembled simulated Internet.
pub struct World {
    /// The configuration it was generated from.
    pub config: WorldConfig,
    /// All domains, indexed by [`DomainId`].
    pub domains: Vec<DomainRecord>,
    /// All hosts, indexed by [`HostId`].
    pub hosts: Vec<HostRecord>,
    /// Reverse index: domains served by each host.
    pub host_domains: Vec<Vec<DomainId>>,
    /// The shared simulation clock.
    pub clock: SimClock,
    /// The DNS directory (holds the measurement zone's authority).
    pub directory: Directory,
    /// The measurement zone's query log.
    pub query_log: QueryLog,
    /// The measurement zone origin (`spf-test.dns-lab.org`).
    pub zone_origin: Name,
    runtime: WorldRuntime,
}

/// Fault-injection hooks for [`World::build_mta_instrumented`].
#[derive(Debug, Clone)]
pub struct MtaInstrumentation<'a> {
    /// Fault plan applied to the MTA's resolver link.
    pub dns_faults: FaultPlan,
    /// Counter sink the resolver link records into.
    pub metrics: Metrics,
    /// Optional salt forked into the MTA's RNG stream. The prober passes
    /// its probe identity here when DNS faults are active, so a *retried*
    /// probe re-rolls the fault dice instead of replaying the same
    /// timeout forever. With `None` the stream depends only on the host
    /// id, exactly as [`World::build_mta_in`] always derived it.
    pub reroll: Option<&'a str>,
    /// Tracing handle installed on the MTA's resolver, so its SPF-driven
    /// DNS lookups appear as spans in the probing client's trace. The
    /// disabled default costs nothing.
    pub tracer: Tracer,
    /// Shard-shared compiled-policy cache installed on the MTA; `None`
    /// gives each of its SPF checks a cache of its own.
    pub policy_cache: Option<PolicyCacheHandle>,
}

impl World {
    /// Generate the world deterministically from `config`.
    ///
    /// This is the eager collector over [`LazyWorld`]: the streaming
    /// synthesizer is the single source of truth for generation, so the
    /// lazy and materialized worlds are identical by construction
    /// (`tests/props.rs` additionally pins host-by-host equality over
    /// random seeds and scales).
    pub fn generate(config: WorldConfig) -> World {
        let mut stream = LazyWorld::new(config);
        let mut domains = Vec::with_capacity(stream.domain_count());
        let mut hosts = Vec::new();
        let mut host_domains: Vec<Vec<DomainId>> = Vec::new();
        for step in &mut stream {
            debug_assert_eq!(step.first_fresh.0 as usize, hosts.len());
            for record in step.fresh {
                hosts.push(record);
                host_domains.push(Vec::new());
            }
            for &h in &step.domain.hosts {
                host_domains[h.0 as usize].push(step.id);
            }
            domains.push(step.domain);
        }
        let runtime = stream.into_runtime();
        World {
            config: runtime.config.clone(),
            domains,
            hosts,
            host_domains,
            clock: runtime.clock.clone(),
            directory: runtime.directory.clone(),
            query_log: runtime.query_log.clone(),
            zone_origin: runtime.zone_origin.clone(),
            runtime,
        }
    }

    /// The population-free runtime surface (clock, DNS directory, RNG
    /// root) shared with the streaming engine.
    pub fn runtime(&self) -> &WorldRuntime {
        &self.runtime
    }

    /// Look up a domain.
    pub fn domain(&self, id: DomainId) -> &DomainRecord {
        &self.domains[id.0 as usize]
    }

    /// Look up a host.
    pub fn host(&self, id: HostId) -> &HostRecord {
        &self.hosts[id.0 as usize]
    }

    /// The domains a host serves.
    pub fn domains_of(&self, id: HostId) -> &[DomainId] {
        &self.host_domains[id.0 as usize]
    }

    /// Resolve a domain's mail hosts as of measurement day `day` — the
    /// paper's MX+A/AAAA resolution step. Short-lived spam domains lose
    /// their MX records before the final snapshot (§7.2).
    pub fn resolve_mail_hosts(&self, id: DomainId, day: u16) -> Vec<HostId> {
        let d = self.domain(id);
        if d.spam_churn && day >= Timeline::WINDOW2_START {
            return Vec::new();
        }
        d.hosts.clone()
    }

    /// Hosts that were running vulnerable libSPF2 at the initial
    /// measurement.
    pub fn initially_vulnerable_hosts(&self) -> Vec<HostId> {
        (0..self.hosts.len() as u32)
            .map(HostId)
            .filter(|&h| self.host(h).profile.initially_vulnerable())
            .collect()
    }

    /// Domains with at least one initially vulnerable host.
    pub fn initially_vulnerable_domains(&self) -> Vec<DomainId> {
        (0..self.domains.len() as u32)
            .map(DomainId)
            .filter(|&d| {
                self.domain(d)
                    .hosts
                    .iter()
                    .any(|&h| self.host(h).profile.initially_vulnerable())
            })
            .collect()
    }

    /// Build the live MTA for `host` as of day `day`.
    pub fn build_mta(&self, host: HostId, day: u16) -> Mta {
        self.build_mta_in(host, day, self.directory.clone(), self.clock.clone())
    }

    /// Build an MTA against an explicit DNS directory and clock instead
    /// of the world's shared ones — the sharded campaign engine gives
    /// each shard its own directory/clock so that probing on one worker
    /// never observes another worker's queries or time.
    ///
    /// The MTA's RNG stream depends only on the host id, so a shard
    /// builds exactly the MTA the sequential engine would.
    pub fn build_mta_in(
        &self,
        host: HostId,
        day: u16,
        directory: Directory,
        clock: SimClock,
    ) -> Mta {
        self.build_mta_instrumented(
            host,
            day,
            directory,
            clock,
            MtaInstrumentation {
                dns_faults: FaultPlan::NONE,
                metrics: Metrics::new(),
                reroll: None,
                tracer: Tracer::disabled(),
                policy_cache: None,
            },
        )
    }

    /// [`World::build_mta_in`] with the fault-injection hooks wired up:
    /// the MTA's resolver queries over a zero-latency link carrying the
    /// instrumentation's fault plan and recording into its metrics.
    pub fn build_mta_instrumented(
        &self,
        host: HostId,
        day: u16,
        directory: Directory,
        clock: SimClock,
        instrumentation: MtaInstrumentation<'_>,
    ) -> Mta {
        self.runtime.build_mta_record(
            host,
            self.host(host),
            day,
            directory,
            clock,
            instrumentation,
        )
    }

    /// A deterministic RNG stream for a named consumer of this world.
    pub fn fork_rng(&self, label: &str) -> SimRng {
        self.runtime.fork_rng(label)
    }
}

// The sharded campaign engine shares one `&World` across worker
// threads; keep that capability from silently regressing.
const _: fn() = || {
    fn assert_sync<T: Sync + Send>() {}
    assert_sync::<World>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use spfail_mta::ConnectPolicy;

    fn small_world() -> World {
        World::generate(WorldConfig::small(77))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_world();
        let b = small_world();
        assert_eq!(a.domains.len(), b.domains.len());
        assert_eq!(a.hosts.len(), b.hosts.len());
        for (x, y) in a.domains.iter().zip(b.domains.iter()).take(500) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.hosts, y.hosts);
        }
        for (x, y) in a.hosts.iter().zip(b.hosts.iter()).take(500) {
            assert_eq!(x.ip, y.ip);
            assert_eq!(x.profile.patch_day, y.profile.patch_day);
        }
    }

    #[test]
    fn population_sizes_scale() {
        let w = small_world();
        let alexa = w.domains.iter().filter(|d| d.in_alexa()).count();
        let two_week = w.domains.iter().filter(|d| d.in_two_week()).count();
        assert_eq!(alexa, 4_188);
        assert_eq!(two_week, 229);
        // Table 1 overlap, scaled.
        let overlap = w
            .domains
            .iter()
            .filter(|d| d.in_alexa() && d.in_two_week())
            .count();
        assert_eq!(overlap, 29);
    }

    #[test]
    fn fan_in_is_plausible() {
        let w = small_world();
        let ratio = w.domains.len() as f64 / w.hosts.len() as f64;
        // Paper: ~440K domains on ~186K addresses ≈ 2.4.
        assert!((1.6..3.4).contains(&ratio), "domains/host {ratio}");
    }

    #[test]
    fn vulnerable_population_rate() {
        let w = small_world();
        let vulnerable = w.initially_vulnerable_hosts().len() as f64;
        let total = w.hosts.len() as f64;
        // Paper: 7,212 of ~186K addresses ≈ 3.9% of all addresses
        // (17% of *tested* servers).
        let rate = vulnerable / total;
        assert!((0.015..0.09).contains(&rate), "vulnerable host rate {rate}");
        let vulnerable_domains = w.initially_vulnerable_domains().len() as f64;
        let rate_d = vulnerable_domains / w.domains.len() as f64;
        // Paper: 18,660 of ~440K ≈ 4.3%.
        assert!(
            (0.015..0.09).contains(&rate_d),
            "vulnerable domain rate {rate_d}"
        );
    }

    #[test]
    fn providers_exist_and_some_are_vulnerable() {
        let w = small_world();
        let providers: Vec<&DomainRecord> = w.domains.iter().filter(|d| d.top_provider).collect();
        assert_eq!(providers.len(), 20);
        let vulnerable = providers
            .iter()
            .filter(|d| {
                d.hosts
                    .iter()
                    .any(|&h| w.host(h).profile.initially_vulnerable())
            })
            .count();
        assert_eq!(vulnerable, w.config.vulnerable_top_providers);
        // Vulnerable providers never patch (§7.5).
        for d in providers {
            for &h in &d.hosts {
                if w.host(h).profile.initially_vulnerable() {
                    assert_eq!(w.host(h).profile.patch_day, None);
                }
            }
        }
    }

    #[test]
    fn no_mx_domains_park_on_refusing_hosts() {
        let w = small_world();
        let mut parked = 0;
        let mut refusing = 0;
        for d in &w.domains {
            if !d.has_mx {
                parked += 1;
                if w.domain_hosts_refuse(d) {
                    refusing += 1;
                }
            }
        }
        assert!(parked > 0);
        let rate = f64::from(refusing) / f64::from(parked);
        assert!(rate > 0.8, "parked refusal rate {rate}");
    }

    #[test]
    fn spam_churn_domains_lose_mx_by_window2() {
        let w = small_world();
        let churner = (0..w.domains.len() as u32)
            .map(DomainId)
            .find(|&d| w.domain(d).spam_churn)
            .expect("some churners at this scale");
        assert!(!w.resolve_mail_hosts(churner, 0).is_empty());
        assert!(w
            .resolve_mail_hosts(churner, Timeline::WINDOW2_START)
            .is_empty());
    }

    #[test]
    fn build_mta_respects_patch_day() {
        let w = small_world();
        let host = w
            .initially_vulnerable_hosts()
            .into_iter()
            .find(|&h| w.host(h).profile.patch_day.is_some_and(|d| d <= 126))
            .expect("some patching host");
        let patch_day = w.host(host).profile.patch_day.unwrap();
        assert!(w.build_mta(host, patch_day - 1).config().is_vulnerable());
        assert!(!w.build_mta(host, patch_day).config().is_vulnerable());
    }

    #[test]
    fn reverse_index_is_consistent() {
        let w = small_world();
        for (idx, d) in w.domains.iter().enumerate() {
            for &h in &d.hosts {
                assert!(w.domains_of(h).contains(&DomainId(idx as u32)));
            }
        }
    }

    impl World {
        fn domain_hosts_refuse(&self, d: &DomainRecord) -> bool {
            d.hosts
                .iter()
                .all(|&h| self.host(h).profile.connect == ConnectPolicy::Refuse)
        }
    }
}
