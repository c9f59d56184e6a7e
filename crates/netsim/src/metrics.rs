//! Cheap shared counters for instrumentation and benchmarks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters shared across the simulation.
///
/// A `Metrics` handle is cheap to clone; all clones observe the same
/// counters. The benchmark in `perfbench/` reads them for, e.g., DNS query
/// volume and resolver cache hits.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Arc<MetricsInner>,
}

#[derive(Debug, Default)]
struct MetricsInner {
    connections_attempted: AtomicU64,
    connections_refused: AtomicU64,
    connections_aborted: AtomicU64,
    datagrams_sent: AtomicU64,
    datagrams_dropped: AtomicU64,
    bytes_sent: AtomicU64,
    dns_queries: AtomicU64,
    dns_cache_hits: AtomicU64,
    dns_truncated: AtomicU64,
    dns_timeouts: AtomicU64,
    dns_servfails: AtomicU64,
    smtp_tempfails: AtomicU64,
    connection_resets: AtomicU64,
    window_closed_probes: AtomicU64,
    probe_retries: AtomicU64,
    probes_recovered: AtomicU64,
}

macro_rules! counter {
    ($inc:ident, $get:ident, $field:ident, $doc:literal) => {
        #[doc = concat!("Increment the number of ", $doc, ".")]
        pub fn $inc(&self) {
            self.inner.$field.fetch_add(1, Ordering::Relaxed);
        }

        #[doc = concat!("The number of ", $doc, " so far.")]
        pub fn $get(&self) -> u64 {
            self.inner.$field.load(Ordering::Relaxed)
        }
    };
}

impl Metrics {
    /// Fresh counters, all zero.
    pub fn new() -> Self {
        Metrics::default()
    }

    counter!(
        inc_connections_attempted,
        connections_attempted,
        connections_attempted,
        "connection attempts"
    );
    counter!(
        inc_connections_refused,
        connections_refused,
        connections_refused,
        "refused connections"
    );
    counter!(
        inc_connections_aborted,
        connections_aborted,
        connections_aborted,
        "aborted connections"
    );
    counter!(
        inc_datagrams_sent,
        datagrams_sent,
        datagrams_sent,
        "datagrams sent"
    );
    counter!(
        inc_datagrams_dropped,
        datagrams_dropped,
        datagrams_dropped,
        "datagrams dropped"
    );
    counter!(
        inc_dns_queries,
        dns_queries,
        dns_queries,
        "DNS queries issued"
    );
    counter!(
        inc_dns_cache_hits,
        dns_cache_hits,
        dns_cache_hits,
        "DNS cache hits"
    );
    counter!(
        inc_dns_truncated,
        dns_truncated,
        dns_truncated,
        "truncated DNS responses retried over TCP"
    );
    counter!(
        inc_dns_timeouts,
        dns_timeouts,
        dns_timeouts,
        "DNS lookups that exhausted every retry and timed out"
    );
    counter!(
        inc_dns_servfails,
        dns_servfails,
        dns_servfails,
        "DNS queries answered with an injected SERVFAIL"
    );
    counter!(
        inc_smtp_tempfails,
        smtp_tempfails,
        smtp_tempfails,
        "SMTP sessions greeted with an injected 4xx tempfail"
    );
    counter!(
        inc_connection_resets,
        connection_resets,
        connection_resets,
        "SMTP sessions reset mid-way by an injected fault"
    );
    counter!(
        inc_window_closed_probes,
        window_closed_probes,
        window_closed_probes,
        "probes that found the host's reachability window closed"
    );
    counter!(
        inc_probe_retries,
        probe_retries,
        probe_retries,
        "probe retry attempts"
    );
    counter!(
        inc_probes_recovered,
        probes_recovered,
        probes_recovered,
        "probes whose retries recovered a conclusive measurement"
    );

    /// Add `n` bytes to the sent-bytes counter.
    pub fn add_bytes_sent(&self, n: u64) {
        self.inner.bytes_sent.fetch_add(n, Ordering::Relaxed);
    }

    /// Total bytes sent so far.
    pub fn bytes_sent(&self) -> u64 {
        self.inner.bytes_sent.load(Ordering::Relaxed)
    }

    /// Add a snapshot's counts onto these counters, field by field.
    ///
    /// This is the restore half of [`Metrics::snapshot`]: applying a
    /// snapshot to fresh counters reproduces the counters it was taken
    /// from, which is what a resumed campaign needs to continue counting
    /// where the checkpointed one stopped.
    pub fn add_snapshot(&self, s: &MetricsSnapshot) {
        let MetricsSnapshot {
            connections_attempted,
            connections_refused,
            connections_aborted,
            datagrams_sent,
            datagrams_dropped,
            bytes_sent,
            dns_queries,
            dns_cache_hits,
            dns_truncated,
            dns_timeouts,
            dns_servfails,
            smtp_tempfails,
            connection_resets,
            window_closed_probes,
            probe_retries,
            probes_recovered,
        } = *s;
        let adds = [
            (&self.inner.connections_attempted, connections_attempted),
            (&self.inner.connections_refused, connections_refused),
            (&self.inner.connections_aborted, connections_aborted),
            (&self.inner.datagrams_sent, datagrams_sent),
            (&self.inner.datagrams_dropped, datagrams_dropped),
            (&self.inner.bytes_sent, bytes_sent),
            (&self.inner.dns_queries, dns_queries),
            (&self.inner.dns_cache_hits, dns_cache_hits),
            (&self.inner.dns_truncated, dns_truncated),
            (&self.inner.dns_timeouts, dns_timeouts),
            (&self.inner.dns_servfails, dns_servfails),
            (&self.inner.smtp_tempfails, smtp_tempfails),
            (&self.inner.connection_resets, connection_resets),
            (&self.inner.window_closed_probes, window_closed_probes),
            (&self.inner.probe_retries, probe_retries),
            (&self.inner.probes_recovered, probes_recovered),
        ];
        for (counter, n) in adds {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of every counter, as a plain value that can
    /// be merged with snapshots from other shards.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            connections_attempted: self.connections_attempted(),
            connections_refused: self.connections_refused(),
            connections_aborted: self.connections_aborted(),
            datagrams_sent: self.datagrams_sent(),
            datagrams_dropped: self.datagrams_dropped(),
            bytes_sent: self.bytes_sent(),
            dns_queries: self.dns_queries(),
            dns_cache_hits: self.dns_cache_hits(),
            dns_truncated: self.dns_truncated(),
            dns_timeouts: self.dns_timeouts(),
            dns_servfails: self.dns_servfails(),
            smtp_tempfails: self.smtp_tempfails(),
            connection_resets: self.connection_resets(),
            window_closed_probes: self.window_closed_probes(),
            probe_retries: self.probe_retries(),
            probes_recovered: self.probes_recovered(),
        }
    }
}

/// A plain-value copy of [`Metrics`], produced per shard and merged into
/// campaign totals. Merging is associative and commutative (every field
/// is a sum), so the merge order of shard snapshots never matters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Connection attempts.
    pub connections_attempted: u64,
    /// Refused connections.
    pub connections_refused: u64,
    /// Aborted connections.
    pub connections_aborted: u64,
    /// Datagrams sent.
    pub datagrams_sent: u64,
    /// Datagrams dropped.
    pub datagrams_dropped: u64,
    /// Bytes sent.
    pub bytes_sent: u64,
    /// DNS queries issued.
    pub dns_queries: u64,
    /// DNS cache hits.
    pub dns_cache_hits: u64,
    /// Truncated DNS responses retried over TCP.
    pub dns_truncated: u64,
    /// DNS lookups that exhausted every retry and timed out.
    pub dns_timeouts: u64,
    /// DNS queries answered with an injected SERVFAIL.
    pub dns_servfails: u64,
    /// SMTP sessions greeted with an injected 4xx tempfail.
    pub smtp_tempfails: u64,
    /// SMTP sessions reset mid-way by an injected fault.
    pub connection_resets: u64,
    /// Probes that found the host's reachability window closed.
    pub window_closed_probes: u64,
    /// Probe retry attempts.
    pub probe_retries: u64,
    /// Probes whose retries recovered a conclusive measurement.
    pub probes_recovered: u64,
}

impl MetricsSnapshot {
    /// Combine two snapshots field-by-field.
    #[must_use]
    pub fn merge(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            connections_attempted: self.connections_attempted + other.connections_attempted,
            connections_refused: self.connections_refused + other.connections_refused,
            connections_aborted: self.connections_aborted + other.connections_aborted,
            datagrams_sent: self.datagrams_sent + other.datagrams_sent,
            datagrams_dropped: self.datagrams_dropped + other.datagrams_dropped,
            bytes_sent: self.bytes_sent + other.bytes_sent,
            dns_queries: self.dns_queries + other.dns_queries,
            dns_cache_hits: self.dns_cache_hits + other.dns_cache_hits,
            dns_truncated: self.dns_truncated + other.dns_truncated,
            dns_timeouts: self.dns_timeouts + other.dns_timeouts,
            dns_servfails: self.dns_servfails + other.dns_servfails,
            smtp_tempfails: self.smtp_tempfails + other.smtp_tempfails,
            connection_resets: self.connection_resets + other.connection_resets,
            window_closed_probes: self.window_closed_probes + other.window_closed_probes,
            probe_retries: self.probe_retries + other.probe_retries,
            probes_recovered: self.probes_recovered + other.probes_recovered,
        }
    }
}

/// Counters for the compiled-policy evaluation cache.
///
/// Deliberately *not* part of [`MetricsSnapshot`]: the cache is an
/// execution strategy, not a measurement. `MetricsSnapshot` feeds
/// `CampaignData` and checkpoints, which must stay bit-for-bit identical
/// whether the cache is on or off (and whose wire format pins exactly the
/// sixteen network counters). Cache efficiency is reported separately,
/// per shard, and merged like any other shard-local tally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PolicyCacheStats {
    /// Evaluations answered from a memoized entry.
    pub hits: u64,
    /// Evaluations that ran live (and possibly populated the cache).
    pub misses: u64,
    /// Distinct compiled policies interned, keyed by canonical text.
    pub interned: u64,
}

impl PolicyCacheStats {
    /// Combine two shard tallies field-by-field.
    #[must_use]
    pub fn merge(&self, other: &PolicyCacheStats) -> PolicyCacheStats {
        PolicyCacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            interned: self.interned + other.interned,
        }
    }

    /// Hit rate over all evaluations, `None` when nothing ran.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }
}

/// A power-of-two bucketed histogram of `u64` samples.
///
/// Bucket `i` counts samples whose value has bit-length `i` (bucket 0
/// holds zeros, bucket 1 holds `1`, bucket 2 holds `2..=3`, and so on) —
/// coarse, but allocation-free and mergeable. Shards record durations or
/// sizes locally and the campaign merges the per-shard histograms; merge
/// is associative and commutative, so shard order never matters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[(64 - value.leading_zeros()) as usize] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, if any were recorded.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any were recorded.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean sample value, if any were recorded.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Count in bucket `i` (samples of bit-length `i`).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Combine two histograms bucket-by-bucket.
    #[must_use]
    pub fn merge(&self, other: &Histogram) -> Histogram {
        let mut buckets = [0u64; 65];
        for (out, (a, b)) in buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(other.buckets.iter()))
        {
            *out = a + b;
        }
        Histogram {
            buckets,
            count: self.count + other.count,
            sum: self.sum.saturating_add(other.sum),
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_counters() {
        let m = Metrics::new();
        let m2 = m.clone();
        m.inc_dns_queries();
        m2.inc_dns_queries();
        assert_eq!(m.dns_queries(), 2);
        m.add_bytes_sent(100);
        assert_eq!(m2.bytes_sent(), 100);
    }

    #[test]
    fn counters_start_at_zero() {
        let m = Metrics::new();
        assert_eq!(m.connections_attempted(), 0);
        assert_eq!(m.connections_refused(), 0);
        assert_eq!(m.connections_aborted(), 0);
        assert_eq!(m.datagrams_sent(), 0);
        assert_eq!(m.datagrams_dropped(), 0);
        assert_eq!(m.dns_cache_hits(), 0);
    }

    fn snapshot_sample(k: u64) -> MetricsSnapshot {
        let m = Metrics::new();
        for _ in 0..k {
            m.inc_dns_queries();
            m.inc_connections_attempted();
        }
        for _ in 0..(k * 3 % 7) {
            m.inc_datagrams_sent();
        }
        m.add_bytes_sent(k * 131);
        m.snapshot()
    }

    fn histogram_sample(values: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn snapshot_reflects_counters() {
        let m = Metrics::new();
        m.inc_dns_queries();
        m.inc_dns_cache_hits();
        m.add_bytes_sent(42);
        let s = m.snapshot();
        assert_eq!(s.dns_queries, 1);
        assert_eq!(s.dns_cache_hits, 1);
        assert_eq!(s.bytes_sent, 42);
        assert_eq!(s.connections_refused, 0);
    }

    #[test]
    fn snapshot_merge_is_associative_and_commutative() {
        let (a, b, c) = (snapshot_sample(3), snapshot_sample(5), snapshot_sample(11));
        assert_eq!(a.merge(&b.merge(&c)), a.merge(&b).merge(&c));
        assert_eq!(a.merge(&b), b.merge(&a));
        // Identity: merging with a fresh snapshot changes nothing.
        assert_eq!(a.merge(&MetricsSnapshot::default()), a);
    }

    /// A snapshot with a distinct value in every field, so a swapped or
    /// dropped field in `snapshot`/`merge` cannot cancel out.
    fn distinct_snapshot(base: u64) -> MetricsSnapshot {
        let m = Metrics::new();
        let fields: [&dyn Fn(&Metrics); 15] = [
            &Metrics::inc_connections_attempted,
            &Metrics::inc_connections_refused,
            &Metrics::inc_connections_aborted,
            &Metrics::inc_datagrams_sent,
            &Metrics::inc_datagrams_dropped,
            &Metrics::inc_dns_queries,
            &Metrics::inc_dns_cache_hits,
            &Metrics::inc_dns_truncated,
            &Metrics::inc_dns_timeouts,
            &Metrics::inc_dns_servfails,
            &Metrics::inc_smtp_tempfails,
            &Metrics::inc_connection_resets,
            &Metrics::inc_window_closed_probes,
            &Metrics::inc_probe_retries,
            &Metrics::inc_probes_recovered,
        ];
        for (i, inc) in fields.iter().enumerate() {
            for _ in 0..(base + i as u64) {
                inc(&m);
            }
        }
        m.add_bytes_sent(base + fields.len() as u64);
        m.snapshot()
    }

    /// Every snapshot field reflects its counter, and `merge` sums every
    /// field. The exhaustive (no `..`) destructurings make adding a
    /// `MetricsSnapshot` field without extending this test a compile
    /// error.
    #[test]
    fn snapshot_and_merge_cover_every_field() {
        let a = distinct_snapshot(100);
        let MetricsSnapshot {
            connections_attempted,
            connections_refused,
            connections_aborted,
            datagrams_sent,
            datagrams_dropped,
            bytes_sent,
            dns_queries,
            dns_cache_hits,
            dns_truncated,
            dns_timeouts,
            dns_servfails,
            smtp_tempfails,
            connection_resets,
            window_closed_probes,
            probe_retries,
            probes_recovered,
        } = a;
        // Field order here matches the counter order in `distinct_snapshot`.
        let expected = [
            connections_attempted,
            connections_refused,
            connections_aborted,
            datagrams_sent,
            datagrams_dropped,
            dns_queries,
            dns_cache_hits,
            dns_truncated,
            dns_timeouts,
            dns_servfails,
            smtp_tempfails,
            connection_resets,
            window_closed_probes,
            probe_retries,
            probes_recovered,
        ];
        for (i, &got) in expected.iter().enumerate() {
            assert_eq!(got, 100 + i as u64, "counter {i} mis-snapshotted");
        }
        assert_eq!(bytes_sent, 100 + expected.len() as u64);

        let b = distinct_snapshot(1000);
        let merged = a.merge(&b);
        let MetricsSnapshot {
            connections_attempted,
            connections_refused,
            connections_aborted,
            datagrams_sent,
            datagrams_dropped,
            bytes_sent,
            dns_queries,
            dns_cache_hits,
            dns_truncated,
            dns_timeouts,
            dns_servfails,
            smtp_tempfails,
            connection_resets,
            window_closed_probes,
            probe_retries,
            probes_recovered,
        } = merged;
        let sums = [
            (
                connections_attempted,
                a.connections_attempted,
                b.connections_attempted,
            ),
            (
                connections_refused,
                a.connections_refused,
                b.connections_refused,
            ),
            (
                connections_aborted,
                a.connections_aborted,
                b.connections_aborted,
            ),
            (datagrams_sent, a.datagrams_sent, b.datagrams_sent),
            (datagrams_dropped, a.datagrams_dropped, b.datagrams_dropped),
            (bytes_sent, a.bytes_sent, b.bytes_sent),
            (dns_queries, a.dns_queries, b.dns_queries),
            (dns_cache_hits, a.dns_cache_hits, b.dns_cache_hits),
            (dns_truncated, a.dns_truncated, b.dns_truncated),
            (dns_timeouts, a.dns_timeouts, b.dns_timeouts),
            (dns_servfails, a.dns_servfails, b.dns_servfails),
            (smtp_tempfails, a.smtp_tempfails, b.smtp_tempfails),
            (connection_resets, a.connection_resets, b.connection_resets),
            (
                window_closed_probes,
                a.window_closed_probes,
                b.window_closed_probes,
            ),
            (probe_retries, a.probe_retries, b.probe_retries),
            (probes_recovered, a.probes_recovered, b.probes_recovered),
        ];
        for (i, &(got, lhs, rhs)) in sums.iter().enumerate() {
            assert_eq!(got, lhs + rhs, "field {i} not summed by merge");
        }
    }

    /// `add_snapshot` onto fresh counters reproduces the source, and it
    /// composes: applying two snapshots equals applying their merge.
    #[test]
    fn add_snapshot_restores_counters() {
        let a = distinct_snapshot(100);
        let fresh = Metrics::new();
        fresh.add_snapshot(&a);
        assert_eq!(fresh.snapshot(), a);
        let b = distinct_snapshot(1000);
        fresh.add_snapshot(&b);
        assert_eq!(fresh.snapshot(), a.merge(&b));
    }

    #[test]
    fn histogram_records_bucketed_stats() {
        let h = histogram_sample(&[0, 1, 2, 3, 7, 1024]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1037);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1024));
        assert_eq!(h.bucket(0), 1); // the zero
        assert_eq!(h.bucket(1), 1); // 1
        assert_eq!(h.bucket(2), 2); // 2 and 3
        assert_eq!(h.bucket(3), 1); // 7
        assert_eq!(h.bucket(11), 1); // 1024
        assert!((h.mean().expect("non-empty") - 1037.0 / 6.0).abs() < 1e-9);
        assert_eq!(Histogram::new().min(), None);
        assert_eq!(Histogram::new().mean(), None);
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative() {
        let a = histogram_sample(&[1, 2, 3]);
        let b = histogram_sample(&[0, 7, 9000]);
        let c = histogram_sample(&[u64::MAX, 5]);
        assert_eq!(a.merge(&b.merge(&c)), a.merge(&b).merge(&c));
        assert_eq!(a.merge(&b), b.merge(&a));
        assert_eq!(a.merge(&Histogram::new()), a);
        // Merge equals recording the concatenation of the sample sets.
        let all = histogram_sample(&[1, 2, 3, 0, 7, 9000, u64::MAX, 5]);
        assert_eq!(a.merge(&b).merge(&c), all);
    }
}
