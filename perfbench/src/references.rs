//! Recorded reference output hashes (`perfbench/references.txt`).
//!
//! One line per `(workload, seed)`: `<workload> <seed> <hash>`, with the
//! seed in decimal or `0x` hex and the hash as 16 hex digits. A timed
//! iteration whose hash differs from its recorded reference counts as
//! failed. Seeds with no recorded line are checked for determinism only:
//! every iteration of the run must hash the same.

const TABLE: &str = include_str!("../references.txt");

/// Parse a seed written in decimal or `0x` hex.
pub fn parse_seed(raw: &str) -> Option<u64> {
    match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    }
}

/// The recorded hash for `workload` at `seed`, if any.
pub fn lookup(workload: &str, seed: u64) -> Option<u64> {
    TABLE
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .find_map(|line| {
            let mut fields = line.split_whitespace();
            let (name, line_seed, hash) = (fields.next()?, fields.next()?, fields.next()?);
            let matches = name == workload && parse_seed(line_seed)? == seed;
            matches.then(|| u64::from_str_radix(hash, 16).expect("reference hashes are hex"))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn every_workload_has_references_at_the_default_and_held_out_seeds() {
        for workload in Workload::ALL {
            for seed in [0x5bf2_a117, 2022] {
                assert!(
                    lookup(workload.name(), seed).is_some(),
                    "{}",
                    workload.name()
                );
            }
        }
        assert_eq!(lookup("paper_scale", 1), None);
        assert_eq!(parse_seed("0x5bf2a117"), parse_seed("1542627607"));
    }
}
