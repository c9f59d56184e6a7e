//! A complete measurement campaign in miniature (paper §5–§7): generate a
//! scaled-down Internet, run the initial sweep, the four-month
//! longitudinal measurement, and the notification campaign, then print
//! the headline findings.
//!
//! ```text
//! cargo run -p spfail --release --example measurement_campaign
//! cargo run -p spfail --release --example measurement_campaign -- --shards 4
//! cargo run -p spfail --release --example measurement_campaign -- \
//!     --shards 4 --dns-drop 0.1 --retry
//! ```
//!
//! `--shards N` runs the campaign on the sharded parallel engine; the
//! result is bit-for-bit identical for every `N` (see tests/parallel.rs).
//! `--dns-drop P` injects DNS datagram loss with probability `P` on every
//! probed host's resolver path, and `--retry` answers the induced
//! transient failures with the standard backoff policy. `--trace-out
//! PATH` records a structured trace and writes the JSONL events to
//! `PATH` plus a flamegraph-ready collapsed-stack file to
//! `PATH.collapsed`; `--profile` prints the per-span-path latency
//! profile. Either flag enables tracing, and the trace is byte-identical
//! across shard counts (see tests/trace_equivalence.rs).
//!
//! The world is never materialized: it is synthesized lazily, the
//! initial sweep streams through it, and only the vulnerable MX groups
//! are retained for the rounds, the snapshot and the notifications —
//! peak heap stays O(vulnerable) instead of O(hosts), and every
//! measurement equals the eager engine's bit for bit
//! (`tests/streaming_equivalence.rs`).
//!
//! `--checkpoint PATH` writes a resumable checkpoint after the initial
//! sweep and after every round; `--resume` continues from that file
//! (`tests/session_checkpoint.rs` proves kill-and-resume is
//! byte-identical to an uninterrupted run). `--stop-after-round N`
//! (with `--checkpoint`) exits after `N` rounds — `0` right after the
//! sweep — a deterministic kill for exercising resume. `--incremental`
//! re-probes only hosts whose status can have changed since their last
//! conclusive measurement; the measured data is identical, the probe
//! volume is not. `--cache-stats` prints the policy cache's
//! hit/miss/interned tallies. The full flag vocabulary lives in
//! `examples/campaign_args.rs`.

use spfail::notify::{NotificationCampaign, PixelLog};
use spfail::prober::{CampaignRun, CampaignState, SnapshotStatus, StreamedCampaign};
use spfail::trace::format_us;
use spfail::world::{SparsePopulation, Timeline, WorldConfig};

#[path = "campaign_args.rs"]
mod campaign_args;
use campaign_args::CampaignArgs;

/// Sweep the lazily synthesized world (or adopt the `--resume`
/// checkpoint), then drive the longitudinal rounds over the retained
/// population, checkpointing at every round boundary when `--checkpoint`
/// is given. Exits before the next round once `--stop-after-round`
/// rounds are done.
fn run_campaign(config: WorldConfig, options: &CampaignArgs) -> (CampaignRun, SparsePopulation) {
    let checkpoint = options.checkpoint.as_deref();
    let streamed = if options.resume {
        let path = checkpoint.expect("--resume requires --checkpoint");
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        let state = CampaignState::parse(&text)
            .unwrap_or_else(|e| panic!("cannot resume from {path}: {e}"));
        println!("  resumed from {path}: {} rounds done", state.rounds_done);
        StreamedCampaign::adopt(state, config)
    } else {
        StreamedCampaign::sweep(options.builder(), config)
    };
    let run = {
        let mut session = streamed
            .session()
            .expect("a streamed handoff state is self-consistent");
        let save = |session: &mut spfail::prober::Session| {
            if let Some(path) = checkpoint {
                session.checkpoint(path).expect("write checkpoint");
            }
        };
        if !options.resume {
            save(&mut session);
        }
        loop {
            if options
                .stop_after_round
                .is_some_and(|n| session.rounds_done() >= n)
            {
                println!(
                    "  stopping after round {} as requested; resume with --resume",
                    session.rounds_done()
                );
                std::process::exit(0);
            }
            if session.advance_round().is_none() {
                break;
            }
            save(&mut session);
        }
        // Every incremental run reports its round probe volume.
        if options.incremental {
            let stats = session.stats();
            println!(
                "  incremental rounds: {} probes issued, {} answered from carried state",
                stats.round_probes_issued, stats.round_probes_skipped
            );
        }
        session.finish()
    };
    (run, streamed.into_population())
}

fn main() {
    let options = CampaignArgs::parse();
    let shards = options.shards;
    let config = WorldConfig {
        scale: 0.02,
        ..WorldConfig::default()
    };
    println!(
        "streaming a 1:{:.0} scale Internet (seed 0x{:x})...",
        1.0 / config.scale,
        config.seed
    );

    println!("running the initial sweep ({})...", Timeline::date_label(0));
    println!("  (streaming engine: lazy synthesis, bounded memory)");
    if shards > 1 {
        println!("  (sharded engine, {shards} parallel workers)");
    }
    if options.dns_drop > 0.0 {
        println!(
            "  (injecting DNS datagram loss at {:.0}%{})",
            options.dns_drop * 100.0,
            if options.retry {
                ", answered with retries"
            } else {
                ", no retries"
            }
        );
    }
    let (run, population) = run_campaign(config, &options);
    println!(
        "  retained {} hosts across {} vulnerable MX groups (everything else dropped)",
        population.host_count(),
        population.domain_count()
    );
    // `run.cache` is `None` only for a resumed checkpoint whose campaign
    // ran with the cache off.
    if options.cache_stats {
        if let Some(stats) = &run.cache {
            println!(
                "policy cache: {} hits, {} misses ({:.1}% hit rate), {} policies interned",
                stats.hits,
                stats.misses,
                100.0 * stats.hit_rate().unwrap_or(0.0),
                stats.interned
            );
        }
    }
    let data = run.data;
    println!(
        "  {} addresses measured vulnerable, hosting {} domains",
        data.tracked.len(),
        data.vulnerable_domains.len()
    );
    if data.network.probe_retries > 0 {
        println!(
            "  network faults: {} DNS timeouts, {} retries, {} probes recovered",
            data.network.dns_timeouts, data.network.probe_retries, data.network.probes_recovered
        );
    }

    println!(
        "longitudinal rounds: {} measurements every {} days across two windows",
        data.rounds.len(),
        Timeline::ROUND_INTERVAL
    );

    // Patch trajectory: how many tracked hosts had been observed patched
    // by selected milestones.
    for (label, day) in [
        ("private notification", Timeline::PRIVATE_NOTIFICATION),
        ("window 1 ends", Timeline::WINDOW1_END),
        ("public disclosure", Timeline::PUBLIC_DISCLOSURE),
        ("final measurement", Timeline::END),
    ] {
        let patched = data
            .tracked
            .iter()
            .filter(|&&h| data.first_patched_day(h).is_some_and(|d| d <= day))
            .count();
        println!(
            "  by {} ({}): {}/{} hosts observed patched",
            label,
            Timeline::date_label(day),
            patched,
            data.tracked.len()
        );
    }

    // The February snapshot.
    let (mut patched, mut vulnerable, mut unknown) = (0, 0, 0);
    for status in data.snapshot.values() {
        match status {
            SnapshotStatus::Patched => patched += 1,
            SnapshotStatus::Vulnerable => vulnerable += 1,
            SnapshotStatus::Unknown => unknown += 1,
        }
    }
    let total = data.snapshot.len().max(1);
    println!(
        "February snapshot: {patched} patched ({:.0}%), {vulnerable} still vulnerable \
         ({:.0}%), {unknown} unknown",
        100.0 * patched as f64 / total as f64,
        100.0 * vulnerable as f64 / total as f64,
    );

    // The notification campaign, over the retained population: every
    // notified domain's full MX group is retained.
    let mut pixels = PixelLog::new();
    let (_records, funnel) =
        NotificationCampaign::run(&population, &data.vulnerable_domains, &mut pixels);
    println!(
        "notifications: {} sent, {} bounced ({:.1}%), {} opened, {} patched between \
         private and public disclosure",
        funnel.sent,
        funnel.bounced,
        100.0 * funnel.bounced as f64 / funnel.sent.max(1) as f64,
        funnel.opened,
        funnel.patched_between_disclosures,
    );

    if let Some(trace) = &run.trace {
        if let Some(path) = &options.trace_out {
            std::fs::write(path, trace.to_jsonl()).expect("write trace JSONL");
            let collapsed = format!("{path}.collapsed");
            std::fs::write(&collapsed, trace.to_collapsed()).expect("write collapsed stacks");
            println!(
                "trace: {} probe records -> {path} (JSONL), {collapsed} (collapsed stacks)",
                trace.len()
            );
        }
        if options.profile {
            let profile = trace.profile();
            println!("latency profile ({} probes):", profile.probe_count());
            println!(
                "  {:<34} {:>7} {:>12} {:>12}",
                "stack path", "count", "total", "self"
            );
            for (path, row) in profile.rows() {
                println!(
                    "  {:<34} {:>7} {:>12} {:>12}",
                    path,
                    row.count,
                    format_us(row.total_us),
                    format_us(row.self_us)
                );
            }
            for (phase, hist) in profile.phases() {
                println!(
                    "  phase {:<12} {:>6} probes, mean {}, max {}",
                    phase.label(),
                    hist.count(),
                    format_us(hist.mean().unwrap_or(0.0) as u64),
                    format_us(hist.max().unwrap_or(0))
                );
            }
        }
    }

    println!();
    println!(
        "paper's conclusion, reproduced: even after private notification and a\n\
         public CVE, ~80% of the initially vulnerable servers remain vulnerable."
    );
}
