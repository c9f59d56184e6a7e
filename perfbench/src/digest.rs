//! Output hashes: the check every timed iteration must pass.
//!
//! `paper_scale` hashes the exhibit map exactly as `experiments --json`
//! writes it, so its hash equals the FNV-1a 64 hash of that file. The
//! other workloads hash a canonical text of the campaign — every
//! `CampaignData` field with hash maps in key order, plus the
//! `CampaignSummary` mask column — followed by the exhibit map without
//! `cache_efficiency`, whose tallies depend on shard count and on
//! restores (a restored session counts cache hits from zero), not on
//! what the campaign measured.

use std::fmt::{self, Write as _};

use spfail::prober::CampaignData;
use spfail::report::Exhibit;

/// FNV-1a, 64 bit: small, stable across platforms and releases.
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// The exhibit map `experiments --json` writes, byte for byte.
pub fn exhibits_json<'a>(exhibits: impl IntoIterator<Item = &'a Exhibit>) -> String {
    let mut map = serde_json::Map::new();
    for exhibit in exhibits {
        map.insert(exhibit.id.to_string(), exhibit.json.clone());
    }
    serde_json::to_string_pretty(&serde_json::Value::Object(map)).expect("exhibit JSON serializes")
}

/// `paper_scale`'s hash: the `experiments --json` file.
pub fn paper_hash(exhibits: &[Exhibit]) -> u64 {
    let mut h = Fnv::new();
    h.write(exhibits_json(exhibits).as_bytes());
    h.finish()
}

/// The other workloads' hash: campaign data, mask column, and every
/// exhibit but `cache_efficiency`.
pub fn campaign_hash(data: &CampaignData, masks: &[u32], exhibits: &[Exhibit]) -> u64 {
    let mut h = Fnv::new();
    write_campaign(&mut h, data, masks).expect("hashing cannot fail");
    h.write(exhibits_json(exhibits.iter().filter(|e| e.id != "cache_efficiency")).as_bytes());
    h.finish()
}

fn write_campaign(h: &mut Fnv, data: &CampaignData, masks: &[u32]) -> fmt::Result {
    let mut initial: Vec<_> = data.initial.results.iter().collect();
    initial.sort_by_key(|(host, _)| **host);
    for (host, result) in initial {
        writeln!(h, "initial {} {result:?}", host.0)?;
    }
    writeln!(h, "tracked {:?}", data.tracked)?;
    for (day, statuses) in &data.rounds {
        let mut sorted: Vec<_> = statuses.iter().collect();
        sorted.sort_by_key(|(host, _)| **host);
        writeln!(h, "round {day} {sorted:?}")?;
    }
    let mut snapshot: Vec<_> = data.snapshot.iter().collect();
    snapshot.sort_by_key(|(domain, _)| **domain);
    writeln!(h, "snapshot {snapshot:?}")?;
    writeln!(h, "vulnerable {:?}", data.vulnerable_domains)?;
    writeln!(h, "ethics {:?}", data.ethics)?;
    writeln!(h, "network {:?}", data.network)?;
    writeln!(h, "masks {masks:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_published_vectors() {
        let hash = |s: &str| {
            let mut h = Fnv::new();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x85944171f73967e8);
    }
}
