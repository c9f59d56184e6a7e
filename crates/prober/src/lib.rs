//! The measurement system: remote, benign vulnerability detection at
//! Internet scale (paper §4.2 and §5).
//!
//! The probe protocol per server:
//!
//! 1. open an SMTP connection and advertise a `MAIL FROM` whose domain is
//!    a unique subdomain of the measurement zone
//!    (`<id>.<suite>.spf-test.dns-lab.org`);
//! 2. run the **NoMsg** variant first (abort before any message bytes);
//!    if it fails to elicit SPF activity, follow with **BlankMsg** (an
//!    entirely empty message);
//! 3. read the measurement zone's DNS query log and classify the server's
//!    SPF implementation from the *shape* of the queries it sent.
//!
//! Modules:
//!
//! * [`mod@classify`] — query-shape → [`spfail_libspf2::MacroBehavior`].
//! * [`ethics`] — the §6.1 self-restraints: one test per address per
//!   sweep (structural: addresses are unique), ≤250 concurrent
//!   connections, 90-second per-host spacing, 8-minute greylist waits.
//! * [`probe`] — drive one SMTP transaction against one host.
//! * [`campaign`] — the full measurement programme: the initial sweep,
//!   the every-2-days longitudinal rounds across both windows, the final
//!   re-resolving snapshot, and the §7.6 inference rules.
//! * [`session`] — the staged longitudinal engine behind
//!   [`CampaignBuilder::run`]: explicit `initial_sweep` / `advance_round`
//!   / `finish` stages, checkpoint/resume at round boundaries, and the
//!   incremental re-probing mode.
//! * [`checkpoint`] — the serialisable [`checkpoint::CampaignState`]
//!   and its text form.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod campaign;
pub mod checkpoint;
pub mod classify;
mod column;
pub mod ethics;
mod fxhash;
pub mod probe;
pub mod session;
pub mod streaming;

pub use aggregate::{CampaignSummary, HostMask, BEHAVIOR_BITS};
pub use campaign::{
    partition_hosts, shard_of, CampaignBuilder, CampaignData, CampaignRun, CampaignTiming,
    HostClass, HostInitialResult, HostResults, InitialMeasurement, RoundColumn, RoundStatus,
    SnapshotStatus,
};
pub use checkpoint::{CampaignState, WorkerState};
pub use classify::{
    classify, quirk_by_name, quirks_for_behavior, Classification, KnownQuirk, KNOWN_QUIRKS,
};
pub use column::IdColumn;
pub use ethics::{EthicsAudit, EthicsGuard};
pub use probe::{
    ProbeContext, ProbeOptions, ProbeOutcome, ProbeTest, ProbeVerdict, Prober, RetryPolicy,
    CONNECT_TIMEOUT,
};
pub use session::{Session, SessionStats};
pub use spfail_trace::{Trace, TraceConfig, Tracer};
pub use streaming::{StreamedCampaign, StreamingRun};
