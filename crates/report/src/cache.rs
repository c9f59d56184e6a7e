//! How much evaluation work the compiled-policy cache answered.
//!
//! The measurement campaign probes every host with unique sender
//! domains (paper §5.1), yet the *policies* those probes exercise are
//! overwhelmingly shared: one measurement-zone template and a handful
//! of provider records cover millions of evaluations. The prober's
//! compiled-policy cache (see `spfail_spf::compile`) exploits that —
//! each shard interns compiled policies by canonical record text and
//! replays recorded evaluation scripts — without perturbing a single
//! observable: query logs, simulated latency, the ethics budget, and
//! traces are bit-for-bit identical cache on or off
//! (`tests/policy_cache.rs`). This exhibit reports what that bought.

use serde_json::json;

use crate::pipeline::Source;
use crate::table::Table;
use crate::Exhibit;

/// The cache-efficiency exhibit: hit/miss/interned tallies of the
/// pipeline's own campaign run.
pub fn cache_efficiency(src: &impl Source) -> Exhibit {
    let mut table = Table::new(["Counter", "Value"]);
    let json = match src.cache() {
        Some(stats) => {
            let total = stats.hits + stats.misses;
            let hit_rate = stats.hit_rate().unwrap_or(0.0);
            table.row([
                "Evaluations answered from cache".to_string(),
                stats.hits.to_string(),
            ]);
            table.row(["Evaluations run live".to_string(), stats.misses.to_string()]);
            table.row(["Hit rate".to_string(), format!("{:.1}%", 100.0 * hit_rate)]);
            table.row([
                "Distinct policies interned".to_string(),
                stats.interned.to_string(),
            ]);
            json!({
                "enabled": true,
                "hits": stats.hits,
                "misses": stats.misses,
                "total": total,
                "hit_rate": hit_rate,
                "interned": stats.interned,
            })
        }
        None => {
            table.row(["Policy cache", "disabled"]);
            json!({ "enabled": false })
        }
    };
    Exhibit {
        id: "cache_efficiency",
        title: "Compiled-policy cache efficiency (measurement-transparent)",
        paper_claim: "not in the paper: the probes' unique sender domains \
                      defeat DNS caching by design (§5.1), but the SPF \
                      policies they exercise are shared — the simulator \
                      memoizes those without changing any measurement",
        rendered: table.render(),
        json,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Context;
    use crate::testctx;

    #[test]
    fn cache_exhibit_reports_a_warm_cache() {
        let exhibit = cache_efficiency(testctx::shared());
        assert_eq!(exhibit.id, "cache_efficiency");
        assert_eq!(exhibit.json["enabled"], json!(true));
        // The pipeline's campaign probes thousands of hosts against a
        // handful of distinct policies: the cache must be doing real
        // work, not idling.
        assert!(
            exhibit.json["hits"].as_u64().unwrap() > 0,
            "cache never hit"
        );
        assert!(exhibit.json["interned"].as_u64().unwrap() >= 1);
        assert!(exhibit.json["hit_rate"].as_f64().unwrap() > 0.0);
        assert!(exhibit.rendered.contains("Hit rate"));
    }

    #[test]
    fn cache_exhibit_degrades_when_disabled() {
        // A context rebuilt from bare campaign data (e.g. a checkpoint
        // continuation) carries no cache tallies.
        let mut ctx = Context::run(0.004, 7);
        ctx.cache = None;
        let exhibit = cache_efficiency(&ctx);
        assert_eq!(exhibit.json["enabled"], json!(false));
        assert!(exhibit.rendered.contains("disabled"));
    }
}
