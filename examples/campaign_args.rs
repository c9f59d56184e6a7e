//! The shared command-line vocabulary of the campaign-driving examples.
//!
//! Each example pulls this file in with `#[path = "campaign_args.rs"]
//! mod campaign_args;` and parses the same flags the same way:
//!
//! * `--shards N` — run the sharded parallel engine with `N` workers;
//! * `--dns-drop P` — inject DNS datagram loss with probability `P`;
//! * `--retry` — answer transient failures with the standard backoff;
//! * `--trace-out PATH` — record a structured trace to `PATH` (JSONL)
//!   plus `PATH.collapsed` (flamegraph stacks);
//! * `--profile` — print the per-span-path latency profile;
//! * `--incremental` — re-probe only hosts whose status can have changed;
//! * `--cache-stats` — print the policy cache's hit/miss/interned tallies;
//! * `--checkpoint PATH` — write a resumable checkpoint after the
//!   initial sweep and after every round;
//! * `--resume` — continue from the `--checkpoint` file instead of
//!   starting over;
//! * `--stop-after-round N` — checkpoint and exit once `N` rounds are
//!   done, `0` right after the sweep (a deterministic mid-campaign kill,
//!   used by the CI resume job).
//!
//! Flags accept both `--flag value` and `--flag=value`. Unknown flags,
//! and `--resume` or `--stop-after-round` without `--checkpoint`, abort
//! with exit code 2.

use spfail::netsim::{FaultPlan, FaultProfile};
use spfail::prober::{CampaignBuilder, RetryPolicy, TraceConfig};

/// Parsed campaign options. Examples use the subset they document.
#[allow(dead_code)]
pub struct CampaignArgs {
    pub shards: usize,
    pub dns_drop: f64,
    pub retry: bool,
    pub trace_out: Option<String>,
    pub profile: bool,
    pub incremental: bool,
    pub cache_stats: bool,
    pub checkpoint: Option<String>,
    pub resume: bool,
    pub stop_after_round: Option<usize>,
}

#[allow(dead_code)]
impl CampaignArgs {
    /// Parse the process arguments.
    pub fn parse() -> CampaignArgs {
        CampaignArgs::parse_from(std::env::args().skip(1))
    }

    /// Parse an explicit argument stream (testable).
    pub fn parse_from(mut args: impl Iterator<Item = String>) -> CampaignArgs {
        let mut opts = CampaignArgs {
            shards: 0,
            dns_drop: 0.0,
            retry: false,
            trace_out: None,
            profile: false,
            incremental: false,
            cache_stats: false,
            checkpoint: None,
            resume: false,
            stop_after_round: None,
        };
        let bad = |flag: &str, wants: &str| -> ! {
            eprintln!("{flag} expects {wants}");
            std::process::exit(2);
        };
        while let Some(arg) = args.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f.to_string(), Some(v.to_string())),
                None => (arg, None),
            };
            let mut value = |flag: &str, wants: &str| -> String {
                inline
                    .clone()
                    .or_else(|| args.next())
                    .unwrap_or_else(|| bad(flag, wants))
            };
            match flag.as_str() {
                "--shards" => {
                    let wants = "a positive integer";
                    opts.shards = value("--shards", wants)
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .unwrap_or_else(|| bad("--shards", wants));
                }
                "--dns-drop" => {
                    let wants = "a probability in [0, 1]";
                    opts.dns_drop = value("--dns-drop", wants)
                        .parse()
                        .ok()
                        .filter(|p| (0.0..=1.0).contains(p))
                        .unwrap_or_else(|| bad("--dns-drop", wants));
                }
                "--retry" => opts.retry = true,
                "--trace-out" => opts.trace_out = Some(value("--trace-out", "an output path")),
                "--profile" => opts.profile = true,
                "--incremental" => opts.incremental = true,
                "--cache-stats" => opts.cache_stats = true,
                "--checkpoint" => {
                    opts.checkpoint = Some(value("--checkpoint", "a checkpoint path"));
                }
                "--resume" => opts.resume = true,
                "--stop-after-round" => {
                    let wants = "a round count";
                    opts.stop_after_round = Some(
                        value("--stop-after-round", wants)
                            .parse()
                            .unwrap_or_else(|_| bad("--stop-after-round", wants)),
                    );
                }
                other => {
                    eprintln!("unknown flag {other}");
                    std::process::exit(2);
                }
            }
        }
        for (given, flag) in [
            (opts.resume, "--resume"),
            (opts.stop_after_round.is_some(), "--stop-after-round"),
        ] {
            if given && opts.checkpoint.is_none() {
                eprintln!("{flag} requires --checkpoint PATH");
                std::process::exit(2);
            }
        }
        opts
    }

    /// Whether any tracing output was requested.
    pub fn tracing(&self) -> bool {
        self.trace_out.is_some() || self.profile
    }

    /// A [`CampaignBuilder`] configured from these flags.
    pub fn builder(&self) -> CampaignBuilder {
        let mut builder = CampaignBuilder::new().shards(self.shards);
        if self.dns_drop > 0.0 {
            builder = builder.faults(FaultProfile {
                dns: FaultPlan::dns_timeout(self.dns_drop),
                ..FaultProfile::NONE
            });
        }
        if self.retry {
            builder = builder.retry(RetryPolicy::standard());
        }
        if self.tracing() {
            builder = builder.trace(TraceConfig::enabled());
        }
        if self.incremental {
            builder = builder.incremental();
        }
        builder
    }
}
