//! Test-only crate: `tests/alloc_count.rs` installs a counting global
//! allocator, which needs a test binary of its own. It holds the
//! allocation budgets of the hot paths and the peak-heap budgets of the
//! streamed campaign. Timing lives in `perfbench/`.
