//! Benchmark-only crate: see the `benches/` directory.
//!
//! * `exhibits` — one benchmark per paper table/figure, regenerating the
//!   exhibit from a shared pipeline run, plus the full pipeline itself.
//! * `ablations` — the design-choice ablations called out in DESIGN.md
//!   (name compression, resolver caching, probe strategy, multi-query
//!   classification).
