//! Golden digests of the lazy synthesis stream.
//!
//! `World::generate` collects the very `LazyWorld` iterator, so comparing
//! the two only shows the stream agrees with itself. These digests pin
//! what the stream *emits*: an FNV-1a 64 hash over the `Debug` form of
//! every step's domain record and fresh host records, for three worlds.
//! A change to synthesis that moves one RNG draw, one float, or one name
//! byte changes the digest; a change that only makes a step cheaper
//! leaves it alone.

use std::fmt::Write;

use spfail_world::{LazyWorld, WorldConfig};

/// FNV-1a 64, fed through `fmt::Write` so a record's `Debug` form is
/// hashed while it is formatted.
struct Fnv1a(u64);

impl Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// The stream digest of `config`, with its domain and host counts.
fn stream_digest(config: WorldConfig) -> (u64, usize, usize) {
    let mut hash = Fnv1a(0xcbf2_9ce4_8422_2325);
    let (mut domains, mut hosts) = (0, 0);
    for step in LazyWorld::new(config) {
        writeln!(
            hash,
            "{:?}|{:?}|{:?}|{:?}",
            step.id, step.domain, step.first_fresh, step.fresh
        )
        .expect("hashing cannot fail");
        domains += 1;
        hosts += step.fresh.len();
    }
    (hash.0, domains, hosts)
}

/// The provider-heavy world the `provider_stream` benchmark workload
/// streams: heavy shared hosting, many multi-implementation MTAs, and
/// almost every set member publishing SPF.
fn provider_heavy(seed: u64, scale: f64) -> WorldConfig {
    let mut config = WorldConfig {
        scale,
        shared_hosting_rate: 8.0,
        multi_impl_rate: 0.5,
        ..WorldConfig::small(seed)
    };
    for rates in [
        &mut config.alexa_rates,
        &mut config.two_week_rates,
        &mut config.top_provider_rates,
    ] {
        rates.refuse = 0.05;
        rates.spf_on_mailfrom = 0.45;
        rates.spf_on_data = 0.5;
    }
    config
}

#[test]
fn small_world_stream_digest() {
    assert_eq!(
        stream_digest(WorldConfig::small(41)),
        (0xdd01_024a_c234_c5b7, 4_388, 1_955)
    );
}

#[test]
fn provider_heavy_stream_digest() {
    assert_eq!(
        stream_digest(provider_heavy(2024, 0.01)),
        (0x8d62_2e3f_fdaf_df4f, 4_388, 1_783)
    );
}

#[test]
fn default_world_stream_digest() {
    assert_eq!(
        stream_digest(WorldConfig {
            scale: 0.01,
            ..WorldConfig::default()
        }),
        (0x5876_4561_8943_dffa, 4_388, 1_942)
    );
}
