//! MTA behaviour configuration.
//!
//! Each knob corresponds to a row the paper's Table 3 / Table 4 / Table 7
//! measurement distinguishes: whether connections are accepted, where in
//! the SMTP transaction things fail, at which stage SPF runs, and which
//! SPF implementation(s) the host links against.

use spfail_libspf2::MacroBehavior;

/// What happens when the prober opens a TCP connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectPolicy {
    /// Listener present, service normal.
    Accept,
    /// No listener / firewalled: "Connection Refused" in Table 3.
    Refuse,
    /// Accepts TCP but greets with a 4xx/5xx and closes ("SMTP Failure").
    RejectBanner(u16),
}

/// Mid-transaction failure quirks ("SMTP Failure" rows of Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmtpQuirk {
    /// No quirk; the transaction runs to plan.
    None,
    /// Rejects every `MAIL FROM` with the given code.
    RejectMailFrom(u16),
    /// Rejects every recipient with the given code (the username ladder
    /// runs out).
    RejectAllRcpt(u16),
    /// Accepts the envelope but rejects `DATA` with the given code.
    RejectData(u16),
    /// Accepts `DATA` but rejects the transmitted message with the code
    /// (the "BlankMsg SMTP Failure" row).
    RejectMessage(u16),
}

/// When SPF validation runs relative to the SMTP transaction.
///
/// This is what makes the two-probe design necessary: a NoMsg probe never
/// reaches end-of-data, so hosts with [`SpfStage::OnData`] reveal nothing
/// until the BlankMsg probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpfStage {
    /// The host never validates SPF ("SPF Not Measured" in both tests).
    Never,
    /// Validates as soon as `MAIL FROM` arrives (measurable by NoMsg).
    OnMailFrom,
    /// Validates at end-of-data (measurable only by BlankMsg).
    OnData,
}

/// Full behavioural configuration of a simulated MTA.
#[derive(Debug, Clone)]
pub struct MtaConfig {
    /// The hostname used in banners.
    pub hostname: String,
    /// Connection acceptance.
    pub connect: ConnectPolicy,
    /// Mid-transaction failure behaviour.
    pub quirk: SmtpQuirk,
    /// When SPF runs.
    pub spf_stage: SpfStage,
    /// The SPF implementation(s) this host runs. More than one entry
    /// models an MTA chained with a spam filter (SpamAssassin/Rspamd
    /// style), each validating independently — the paper's ≥2-distinct-
    /// expansion hosts (§7.9).
    pub spf_impls: Vec<MacroBehavior>,
    /// Whether unknown (sender, recipient) pairs are greylisted with a 450
    /// on first contact.
    pub greylist: bool,
    /// Whether an SPF `fail` verdict rejects the mail (typical); when
    /// `false` the host only annotates and accepts.
    pub reject_on_spf_fail: bool,
    /// After this many probe connections the host starts rejecting the
    /// prober (the blacklisting §7.6 hypothesises); `None` = never.
    pub blacklist_after: Option<u32>,
    /// Whether the host violates RFC 5321 §4.5.1 and rejects mail to
    /// `postmaster@` (a major cause of bounced notifications, §7.7).
    pub reject_postmaster: bool,
}

/// A host with no name and no SPF implementation that accepts every
/// connection and never validates — the blank a host profile fills in
/// (see `HostProfile::fill_mta_config` in `spfail-world`). Building it
/// allocates nothing.
impl Default for MtaConfig {
    fn default() -> MtaConfig {
        MtaConfig {
            hostname: String::new(),
            connect: ConnectPolicy::Accept,
            quirk: SmtpQuirk::None,
            spf_stage: SpfStage::Never,
            spf_impls: Vec::new(),
            greylist: false,
            reject_on_spf_fail: true,
            blacklist_after: None,
            reject_postmaster: false,
        }
    }
}

impl MtaConfig {
    /// A plain, RFC-compliant MTA validating at `MAIL FROM`.
    pub fn compliant(hostname: &str) -> MtaConfig {
        MtaConfig {
            hostname: hostname.to_string(),
            connect: ConnectPolicy::Accept,
            quirk: SmtpQuirk::None,
            spf_stage: SpfStage::OnMailFrom,
            spf_impls: vec![MacroBehavior::Compliant],
            greylist: false,
            reject_on_spf_fail: true,
            blacklist_after: None,
            reject_postmaster: false,
        }
    }

    /// A vulnerable-libSPF2 MTA validating at `MAIL FROM`.
    pub fn vulnerable(hostname: &str) -> MtaConfig {
        MtaConfig {
            spf_impls: vec![MacroBehavior::VulnerableLibSpf2],
            ..MtaConfig::compliant(hostname)
        }
    }

    /// Replace every vulnerable implementation with a patched/compliant
    /// one — what happens when the host's operator updates the package.
    pub fn apply_patch(&mut self) {
        for spf_impl in &mut self.spf_impls {
            if spf_impl.is_vulnerable() {
                *spf_impl = MacroBehavior::PatchedLibSpf2;
            }
        }
    }

    /// Whether any configured implementation is the vulnerable one.
    pub fn is_vulnerable(&self) -> bool {
        self.spf_impls.iter().any(|b| b.is_vulnerable())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let c = MtaConfig::compliant("mx.test");
        assert!(!c.is_vulnerable());
        assert_eq!(c.spf_stage, SpfStage::OnMailFrom);
        let v = MtaConfig::vulnerable("mx.test");
        assert!(v.is_vulnerable());
    }

    #[test]
    fn patching_replaces_vulnerable_impls_only() {
        let mut config = MtaConfig::vulnerable("mx.test");
        config.spf_impls.push(MacroBehavior::NoExpansion);
        config.apply_patch();
        assert!(!config.is_vulnerable());
        assert_eq!(
            config.spf_impls,
            vec![MacroBehavior::PatchedLibSpf2, MacroBehavior::NoExpansion],
            "non-vulnerable quirks are untouched by a libSPF2 update"
        );
    }
}
