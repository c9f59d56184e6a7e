//! Which rules watch which code.
//!
//! Scoping is data, not code: the workspace config below is the single
//! place that says "these crates simulate, these modules are mergeable
//! aggregates, these files live under the allocation budget". Fixture
//! tests build their own `Config` to aim a rule at a snippet.

use crate::engine::FileMeta;

/// Per-workspace rule scoping.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crates whose library code must be wall-clock- and entropy-free:
    /// every crate that participates in the deterministic simulation.
    /// (`bench` holds only allocator tests; `lint` is tooling.)
    pub sim_crates: Vec<String>,
    /// Files whose structs are mergeable aggregates: merged across
    /// shards, so sums must be integers (`u128` moment squares are the
    /// house style) — float fields break merge associativity.
    pub aggregate_files: Vec<String>,
    /// Files under the allocation-budget regime, with an optional list
    /// of function names; an empty list covers the whole file.
    pub alloc_files: Vec<(String, Vec<String>)>,
    /// Crates whose probe-emitting functions must reference the ethics
    /// budget.
    pub ethics_crates: Vec<String>,
    /// Crates exempt from the panic-hygiene rules (tooling and bench
    /// harness code, where a panic is an acceptable failure mode).
    pub panic_exempt_crates: Vec<String>,
}

impl Config {
    /// The scoping for *this* workspace.
    pub fn workspace() -> Config {
        let sim = [
            "conformance",
            "core",
            "dns",
            "libspf2",
            "mta",
            "netsim",
            "notify",
            "prober",
            "report",
            "smtp",
            "spf",
            "trace",
            "world",
        ];
        Config {
            sim_crates: sim.iter().map(|s| s.to_string()).collect(),
            aggregate_files: vec![
                "crates/netsim/src/metrics.rs".to_string(),
                "crates/prober/src/aggregate.rs".to_string(),
            ],
            alloc_files: vec![
                ("crates/dns/src/wire.rs".to_string(), Vec::new()),
                // Only the streaming cores; `raw_value`/`apply_transform`/
                // `url_escape` are documented allocating conveniences over
                // their `*_into` counterparts.
                (
                    "crates/spf/src/expand.rs".to_string(),
                    vec![
                        "write_raw_value".to_string(),
                        "apply_transform_into".to_string(),
                        "url_escape_into".to_string(),
                        "expand".to_string(),
                    ],
                ),
                (
                    "crates/dns/src/resolver.rs".to_string(),
                    vec![
                        "resolve".to_string(),
                        "resolve_traced".to_string(),
                        "resolve_chain".to_string(),
                        "resolve_one".to_string(),
                        "replay_resolve".to_string(),
                    ],
                ),
            ],
            ethics_crates: vec!["prober".to_string()],
            panic_exempt_crates: vec!["lint".to_string(), "bench".to_string()],
        }
    }

    /// Whether `meta` is simulation library code (det rules' scope).
    pub fn in_sim_scope(&self, meta: &FileMeta) -> bool {
        !meta.is_bin && self.sim_crates.contains(&meta.crate_name)
    }

    /// Whether `meta` is library code subject to panic hygiene.
    pub fn in_panic_scope(&self, meta: &FileMeta) -> bool {
        !meta.is_bin && !self.panic_exempt_crates.contains(&meta.crate_name)
    }

    /// The configured function list for `meta` under the allocation
    /// budget, or `None` when the file is outside the regime.
    pub fn alloc_scope(&self, meta: &FileMeta) -> Option<&[String]> {
        self.alloc_files
            .iter()
            .find(|(f, _)| *f == meta.rel_path)
            .map(|(_, fns)| fns.as_slice())
    }
}
