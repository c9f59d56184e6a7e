//! Paper-scale benchmark of the SPFail reproduction pipeline.
//!
//! Three workloads ([`workload::Workload`]) drive the whole pipeline —
//! world set-up, initial sweep, longitudinal rounds with checkpoints,
//! finish, notification, aggregates and all exhibits — through the
//! public stage functions, timing every stage and checking every
//! iteration's output hash ([`digest`]). A traced run also keeps
//! per-layer spans ([`spans`]) and replays single layer calls over a
//! host sample ([`replay`]). Times are scaled to a reference host speed
//! measured as the run goes ([`pace`]). See `perfbench/README.md`.

pub mod digest;
pub mod heap;
pub mod pace;
pub mod references;
pub mod replay;
pub mod spans;
pub mod workload;
