//! The report harness: regenerate every table and figure of the paper.
//!
//! * [`pipeline`] — run the whole reproduction once (world → initial
//!   sweep → longitudinal campaign → notification campaign) and keep the
//!   results in a [`Context`] (eager) or a [`StreamContext`] (bounded
//!   memory); both implement [`Source`], the one interface every exhibit
//!   builder reads.
//! * [`table`] — plain-text table rendering.
//! * [`series`] — time-series containers and a text sparkline renderer.
//! * [`tables`] — Tables 1–7.
//! * [`resilience`] — fault-injection recall figure (not in the paper).
//! * [`trace_profile`] — structured-trace latency profile (not in the paper).
//! * [`cache`] — compiled-policy cache efficiency (not in the paper).
//! * [`figures`] — Figures 2–8 and the §7.7 notification funnel.
//!
//! The `experiments` binary drives everything:
//!
//! ```text
//! cargo run -p spfail-report --release --bin experiments -- --scale 0.05
//! ```
//!
//! printing each exhibit and emitting machine-readable JSON alongside.
//!
//! Each exhibit has one constructor, generic over [`Source`]; see
//! [`ExhibitEntry`] for why the registry still names it twice.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregates;
pub mod cache;
pub mod figures;
pub mod pipeline;
pub mod resilience;
pub mod series;
pub mod stats;
pub mod table;
pub mod tables;
pub mod trace_profile;

pub use aggregates::WorldAggregates;
pub use pipeline::{Context, Source, StreamContext};
pub use table::Table;

use serde_json::Value;

/// One regenerated exhibit.
#[derive(Debug, Clone)]
pub struct Exhibit {
    /// Identifier, e.g. `"table3"` or `"fig7"`.
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// What the paper reported, for the paper-vs-measured record.
    pub paper_claim: &'static str,
    /// The rendered text (tables and/or series plots).
    pub rendered: String,
    /// Machine-readable contents.
    pub json: Value,
}

/// One entry of the exhibit registry: a stable identifier and the
/// builder that regenerates the exhibit from a pipeline run.
///
/// Both columns name the exhibit's one generic builder, each field's
/// fn-pointer type picking the instantiation. Two columns remain because
/// callers reach the builder by context type: the benchmark in
/// `perfbench/` calls `build` on a [`Context`] and `build_streaming` on
/// a [`StreamContext`]; generic code uses [`Source::column`].
pub struct ExhibitEntry {
    /// Identifier, matching the built [`Exhibit::id`].
    pub id: &'static str,
    /// The builder for an eager pipeline run.
    pub build: fn(&Context) -> Exhibit,
    /// The same builder for a streaming pipeline run.
    pub build_streaming: fn(&StreamContext) -> Exhibit,
}

/// A registry entry whose two columns both name `$build`, the exhibit's
/// one builder.
macro_rules! exhibit {
    ($id:literal, $build:path) => {
        ExhibitEntry {
            id: $id,
            build: $build,
            build_streaming: $build,
        }
    };
}

/// The exhibit registry, in paper order. Single source of truth for
/// "every exhibit": [`all_exhibits`] walks it, and the experiments
/// binary's `--only` flag selects from it by id.
pub const EXHIBIT_REGISTRY: &[ExhibitEntry] = &[
    exhibit!("table1", tables::table1),
    exhibit!("table2", tables::table2),
    exhibit!("table3", tables::table3),
    exhibit!("table4", tables::table4),
    exhibit!("table5", tables::table5),
    exhibit!("table6", tables::table6),
    exhibit!("table7", tables::table7),
    exhibit!("fig2", figures::fig2),
    exhibit!("fig3", figures::fig3),
    exhibit!("fig4", figures::fig4),
    exhibit!("fig5", figures::fig5),
    exhibit!("fig6", figures::fig6),
    exhibit!("fig7", figures::fig7),
    exhibit!("fig8", figures::fig8),
    exhibit!("funnel", figures::notification_funnel),
    exhibit!("attribution", figures::attribution),
    exhibit!("resilience", resilience::resilience),
    exhibit!("trace_profile", trace_profile::trace_profile),
    exhibit!("cache_efficiency", cache::cache_efficiency),
];

/// Look up a registry entry by exhibit id.
pub fn exhibit_by_id(id: &str) -> Option<&'static ExhibitEntry> {
    EXHIBIT_REGISTRY.iter().find(|e| e.id == id)
}

/// Build every exhibit from one pipeline run of either mode, in paper
/// order. The eager and streaming runs of one seed and scale give
/// bit-for-bit identical exhibits.
pub fn all_exhibits<S: Source>(src: &S) -> Vec<Exhibit> {
    EXHIBIT_REGISTRY.iter().map(|e| S::column(e)(src)).collect()
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for entry in EXHIBIT_REGISTRY {
            assert!(seen.insert(entry.id), "duplicate exhibit id {}", entry.id);
        }
    }

    #[test]
    fn registry_ids_match_built_exhibits() {
        let ctx = testctx::shared();
        for entry in EXHIBIT_REGISTRY {
            assert_eq!((entry.build)(ctx).id, entry.id);
        }
        assert!(exhibit_by_id("fig7").is_some());
        assert!(exhibit_by_id("fig99").is_none());
    }
}

#[cfg(test)]
pub(crate) mod testctx {
    //! A single shared pipeline run for the exhibit tests: the campaign
    //! is deterministic, so every test can read the same context.
    use super::Context;
    use std::sync::OnceLock;

    static CTX: OnceLock<Context> = OnceLock::new();

    pub(crate) fn shared() -> &'static Context {
        // 0.025 ≈ 10.5K Alexa domains: large enough that per-set rates sit
        // within a few points of their calibration targets.
        CTX.get_or_init(|| Context::run(0.025, 11))
    }
}
