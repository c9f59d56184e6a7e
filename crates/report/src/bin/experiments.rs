//! Regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run -p spfail-report --release --bin experiments -- \
//!     [--scale 0.05] [--seed 0x5bf2a117] [--json exhibits.json] [--md EXPERIMENTS.md] \
//!     [--only fig7,table3]
//! ```
//!
//! Prints each exhibit, and optionally writes the machine-readable JSON
//! and a paper-vs-measured markdown record. `--only` selects exhibits
//! from the registry by id (repeatable, comma-separable). The run is
//! the bounded-memory streaming pipeline ([`StreamContext::run`]): the
//! world is synthesized lazily and never materialized, and every exhibit
//! equals the eager pipeline's bit for bit
//! (`tests/streaming_equivalence.rs`).

use std::fmt::Write as _;
use std::time::Instant;

use spfail_report::pipeline::SetFilter;
use spfail_report::{
    all_exhibits, exhibit_by_id, Exhibit, ExhibitEntry, Source, StreamContext, EXHIBIT_REGISTRY,
};

const USAGE: &str = "usage: experiments [--scale F] [--seed N] [--json PATH] [--md PATH] \
                     [--latex DIR] [--only ID[,ID...]]";

struct Args {
    scale: f64,
    seed: u64,
    json_path: Option<String>,
    md_path: Option<String>,
    latex_dir: Option<String>,
    only: Vec<&'static ExhibitEntry>,
}

/// Every registry id, comma-separated, for help and error messages.
fn known_ids() -> String {
    EXHIBIT_REGISTRY
        .iter()
        .map(|e| e.id)
        .collect::<Vec<_>>()
        .join(", ")
}

/// Parse the arguments after the program name. `Ok(None)` asks for the
/// usage text; `Err` names what is wrong with the command line.
fn parse_args(mut iter: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        scale: 0.05,
        seed: 0x5bf2_a117,
        json_path: None,
        md_path: None,
        latex_dir: None,
        only: Vec::new(),
    };
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--scale" => {
                let raw = value("--scale")?;
                args.scale = raw
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--scale expects a positive number, got {raw:?}"))?;
            }
            "--seed" => {
                let raw = value("--seed")?;
                let seed = match raw.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16).ok(),
                    None => raw.parse().ok(),
                };
                args.seed = seed.ok_or_else(|| {
                    format!("--seed expects a decimal or 0x-prefixed hex integer, got {raw:?}")
                })?;
            }
            "--json" => args.json_path = Some(value("--json")?),
            "--md" => args.md_path = Some(value("--md")?),
            "--latex" => args.latex_dir = Some(value("--latex")?),
            "--only" => {
                for id in value("--only")?.split(',') {
                    args.only.push(exhibit_by_id(id).ok_or_else(|| {
                        format!("unknown exhibit id {id:?}; known ids: {}", known_ids())
                    })?);
                }
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Some(args))
}

/// The selected exhibits: the whole registry, or the `--only` ids in
/// the order given.
fn selected_exhibits(args: &Args, sc: &StreamContext) -> Vec<Exhibit> {
    if args.only.is_empty() {
        return all_exhibits(sc);
    }
    args.only
        .iter()
        .map(|entry| (entry.build_streaming)(sc))
        .collect()
}

/// Re-parse a rendered ASCII table back into a
/// [`Table`](spfail_report::Table) for LaTeX output. Returns `None` for
/// exhibits that are not plain tables (the sparkline figures).
fn rebuild_table(rendered: &str) -> Option<spfail_report::Table> {
    let mut lines = rendered.lines();
    let header = lines.next()?;
    let rule = lines.next()?;
    if !rule.starts_with("---") || header.contains('[') {
        return None;
    }
    // Column boundaries: split on runs of 2+ spaces in the header.
    let headers: Vec<String> = header
        .split("  ")
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    let mut table = spfail_report::Table::new(headers);
    for line in lines {
        if line.trim().is_empty() || line.starts_with('(') {
            break;
        }
        let cells: Vec<String> = line
            .split("  ")
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        if !cells.is_empty() {
            table.row(cells);
        }
    }
    Some(table)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            eprintln!("{USAGE}");
            eprintln!("exhibit ids: {}", known_ids());
            std::process::exit(0);
        }
        Err(message) => {
            eprintln!("{message}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "streaming world at scale {} (seed 0x{:x}) and running the full campaign...",
        args.scale, args.seed
    );
    let started = Instant::now();
    let sc = StreamContext::run(args.scale, args.seed);
    report(&args, &sc, started);
}

/// Print, and write where asked, the selected exhibits of one streamed
/// run. The host count is the length of the sweep's mask column.
fn report(args: &Args, sc: &StreamContext, started: Instant) {
    let domains = sc.set_size(SetFilter::All);
    let hosts = sc.summary.masks.len();
    let campaign = &sc.campaign;
    eprintln!(
        "world: {} domains, {} hosts, {} initially vulnerable hosts, {} vulnerable domains \
         ({:.1}s)",
        domains,
        hosts,
        campaign.tracked.len(),
        campaign.vulnerable_domains.len(),
        started.elapsed().as_secs_f64()
    );

    eprintln!(
        "ethics audit: {} contacts admitted immediately, {} waited 90s spacing, \
         {} greylist retries (8 min each), {} duplicate probes suppressed, \
         peak concurrency {}",
        campaign.ethics.immediate,
        campaign.ethics.spaced,
        campaign.ethics.greylist_waits,
        campaign.ethics.dedup_suppressed,
        campaign.ethics.peak_concurrency,
    );

    let exhibits = selected_exhibits(args, sc);
    let mut json_out = serde_json::Map::new();
    let mut md = String::new();
    let _ = writeln!(
        md,
        "# EXPERIMENTS — paper vs. measured\n\n\
         Generated by `cargo run -p spfail-report --release --bin experiments -- \
         --scale {} --seed 0x{:x}`.\n\n\
         Scale {} means every population count is ~{:.0}% of the paper's; all\n\
         *rates and shapes* are directly comparable. Absolute counts scale\n\
         linearly (validated by the world-generation tests).\n\n\
         World: {} domains on {} server addresses; {} addresses measured\n\
         vulnerable, hosting {} domains.\n\n\
         Companion artifacts from the same run (when the flags were given):\n\
         `exhibits.json` (per-exhibit data incl. Wilson 95% intervals) and\n\
         `latex/*.tex` (paper-ready tabulars).\n",
        args.scale,
        args.seed,
        args.scale,
        args.scale * 100.0,
        domains,
        hosts,
        campaign.tracked.len(),
        campaign.vulnerable_domains.len(),
    );

    for exhibit in &exhibits {
        println!("================================================================");
        println!("{}", exhibit.title);
        println!("================================================================");
        println!("{}", exhibit.rendered);
        json_out.insert(exhibit.id.to_string(), exhibit.json.clone());

        let _ = writeln!(md, "## {}\n", exhibit.title);
        let _ = writeln!(md, "**Paper:** {}\n", exhibit.paper_claim);
        let _ = writeln!(md, "**Measured:**\n\n```text\n{}```\n", exhibit.rendered);
    }

    if let Some(dir) = &args.latex_dir {
        std::fs::create_dir_all(dir).expect("create latex output dir");
        let mut written = 0;
        for exhibit in &exhibits {
            // Only tabular exhibits translate to LaTeX; the time-series
            // figures live in the JSON output for plotting.
            let Some(table) = rebuild_table(&exhibit.rendered) else {
                continue;
            };
            let tex = table.render_latex(exhibit.title, &format!("tab:{}", exhibit.id));
            std::fs::write(format!("{dir}/{}.tex", exhibit.id), tex).expect("write latex exhibit");
            written += 1;
        }
        eprintln!("wrote {written} LaTeX tables to {dir}/");
    }
    if let Some(path) = &args.json_path {
        std::fs::write(
            path,
            serde_json::to_string_pretty(&serde_json::Value::Object(json_out))
                .expect("serializable"),
        )
        .expect("write json output");
        eprintln!("wrote {path}");
    }
    if let Some(path) = &args.md_path {
        std::fs::write(path, md).expect("write markdown output");
        eprintln!("wrote {path}");
    }
    eprintln!("done in {:.1}s", started.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Option<Args>, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    fn error(line: &str) -> String {
        match parse(line) {
            Err(message) => message,
            Ok(_) => panic!("{line:?} must not parse"),
        }
    }

    #[test]
    fn flags_and_values_parse() {
        let args = parse("--scale 0.01 --seed 0x2a --only fig7,table3")
            .expect("valid arguments")
            .expect("not a help request");
        assert_eq!((args.scale, args.seed), (0.01, 42));
        let ids: Vec<_> = args.only.iter().map(|e| e.id).collect();
        assert_eq!(ids, ["fig7", "table3"]);
        assert_eq!(parse("--seed 2022").unwrap().unwrap().seed, 2022);
        assert!(matches!(parse("--help"), Ok(None)));
    }

    #[test]
    fn a_non_numeric_scale_is_an_error() {
        assert!(error("--scale abc").starts_with("--scale expects"));
    }

    #[test]
    fn a_non_finite_or_non_positive_scale_is_an_error() {
        for scale in ["nan", "inf", "0", "-0.5"] {
            let message = error(&format!("--scale {scale}"));
            assert!(message.starts_with("--scale expects"), "{message}");
        }
    }

    #[test]
    fn a_bad_seed_is_an_error() {
        assert!(error("--seed 0xzz").starts_with("--seed expects"));
        assert!(error("--seed twelve").starts_with("--seed expects"));
    }

    #[test]
    fn a_flag_missing_its_value_is_an_error() {
        assert_eq!(error("--json"), "--json requires a value");
        assert_eq!(error("--md out.md --scale"), "--scale requires a value");
    }

    #[test]
    fn an_unknown_flag_is_an_error() {
        assert_eq!(error("--verbose"), "unknown flag --verbose");
    }

    /// The run always streams: there is no mode flag to accept.
    #[test]
    fn the_removed_streaming_flag_is_an_error() {
        assert_eq!(error("--streaming"), "unknown flag --streaming");
    }

    #[test]
    fn an_unknown_only_id_is_an_error() {
        let message = error("--only fig7,fig99");
        assert!(
            message.starts_with("unknown exhibit id \"fig99\""),
            "{message}"
        );
        assert!(message.contains("table1"), "lists the known ids: {message}");
    }
}
