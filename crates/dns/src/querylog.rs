//! The shared, timestamped query log.
//!
//! The paper's classifier never sees the probed MTA directly — it sees the
//! queries the MTA's SPF validator sends to the measurement DNS server.
//! [`QueryLog`] is that server's log: every query is recorded with its
//! source address and simulated arrival time, and the prober later filters
//! by the unique `<id>.<suite>` labels embedded in the queried names.

use std::net::IpAddr;
use std::sync::Arc;

use parking_lot::Mutex;

use spfail_netsim::SimTime;

use crate::name::Name;
use crate::rdata::RecordType;

/// One logged query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryLogEntry {
    /// Simulated arrival time.
    pub at: SimTime,
    /// Source address of the query (the resolver the MTA used; for this
    /// simulation, the MTA itself).
    pub source: IpAddr,
    /// The queried name, exactly as received.
    pub qname: Name,
    /// The queried type.
    pub qtype: RecordType,
}

/// A shared, append-only query log. Clones observe the same log.
#[derive(Debug, Clone, Default)]
pub struct QueryLog {
    entries: Arc<Mutex<Vec<QueryLogEntry>>>,
}

impl QueryLog {
    /// An empty log.
    pub fn new() -> QueryLog {
        QueryLog::default()
    }

    /// Append an entry.
    pub fn record(&self, entry: QueryLogEntry) {
        self.entries.lock().push(entry);
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// Snapshot of all entries.
    pub fn snapshot(&self) -> Vec<QueryLogEntry> {
        self.entries.lock().clone()
    }

    /// Entries appended at or after index `start` — probes record the log
    /// length before the exchange and read back only their own window,
    /// keeping classification O(probe) instead of O(campaign).
    pub fn entries_from(&self, start: usize) -> Vec<QueryLogEntry> {
        self.with_entries_from(start, <[QueryLogEntry]>::to_vec)
    }

    /// Run `f` over the entries appended at or after index `start`,
    /// borrowed in place — [`QueryLog::entries_from`] without the copy.
    /// The log is locked while `f` runs, so `f` must not touch it.
    pub fn with_entries_from<R>(&self, start: usize, f: impl FnOnce(&[QueryLogEntry]) -> R) -> R {
        let entries = self.entries.lock();
        f(entries.get(start..).unwrap_or_default())
    }

    /// Clear the log entirely.
    pub fn clear(&self) {
        self.entries.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfail_netsim::SimDuration;

    fn entry(at_secs: u64, qname: &str) -> QueryLogEntry {
        QueryLogEntry {
            at: SimTime::EPOCH + SimDuration::from_secs(at_secs),
            source: "192.0.2.10".parse().unwrap(),
            qname: Name::parse(qname).unwrap(),
            qtype: RecordType::A,
        }
    }

    #[test]
    fn clones_share_entries() {
        let log = QueryLog::new();
        let log2 = log.clone();
        log.record(entry(1, "a.test"));
        assert_eq!(log2.len(), 1);
        log2.clear();
        assert!(log.is_empty());
    }
}
