//! DNS substrate for the SPFail reproduction.
//!
//! The paper's remote-detection technique works entirely through the DNS: a
//! probed MTA fetches an SPF TXT record from the authors' authoritative
//! server for `spf-test.dns-lab.org`, expands the `%{d1r}` macro it
//! contains, and issues follow-up A/AAAA queries whose *names* reveal which
//! SPF implementation — and which bug — the MTA runs.
//!
//! This crate therefore implements a complete, self-contained DNS:
//!
//! * [`name::Name`] — domain names with RFC 1035 label semantics.
//! * [`rdata`] — A, AAAA, MX, TXT, NS, CNAME, SOA and PTR record data.
//! * [`message`] — queries and responses with full header semantics.
//! * [`wire`] — the RFC 1035 wire format, including name compression.
//! * [`zone`] — static zone data with wildcard support.
//! * [`authority`] — authoritative servers answering from zones.
//! * [`spftest`] — the dynamic measurement zone of §5.1, which synthesises
//!   per-probe SPF policies and logs every query it receives.
//! * [`querylog`] — the shared, timestamped query log the classifier reads.
//! * [`resolver`] — a caching resolver walking a directory of authorities.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod authority;
pub mod message;
pub mod name;
pub mod querylog;
pub mod rdata;
pub mod resolver;
pub mod spftest;
pub mod wire;
pub mod zone;
pub mod zonefile;

pub use authority::{Authority, StaticAuthority};
pub use message::{Header, Message, Opcode, Question, Rcode};
pub use name::{Name, NameError};
pub use querylog::{QueryLog, QueryLogEntry};
pub use rdata::{RData, Record, RecordClass, RecordType};
pub use resolver::{Directory, LookupError, LookupOutcome, Resolver, Transcript, TranscriptStep};
pub use spftest::SpfTestAuthority;
pub use zone::{Zone, ZoneBuilder};
pub use zonefile::{parse_zone, render_zone, ZoneFileError};
