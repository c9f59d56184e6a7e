//! Cross-crate detection matrix: every SPF implementation behaviour,
//! driven through a real simulated SMTP conversation, must classify back
//! to itself from the DNS queries alone.

use std::sync::Arc;

use spfail::dns::{Directory, QueryLog, SpfTestAuthority};
use spfail::libspf2::MacroBehavior;
use spfail::mta::{Mta, MtaConfig, SpfStage};
use spfail::netsim::{SimClock, SimRng};
use spfail::prober::classify;
use spfail::smtp::address::EmailAddress;
use spfail::smtp::command::Command;

struct Rig {
    directory: Directory,
    log: QueryLog,
    clock: SimClock,
}

impl Rig {
    fn new() -> Rig {
        let log = QueryLog::new();
        let directory = Directory::new();
        directory.register(Arc::new(SpfTestAuthority::new(
            SpfTestAuthority::default_origin(),
            log.clone(),
        )));
        Rig {
            directory,
            log,
            clock: SimClock::new(),
        }
    }

    fn probe(&self, config: MtaConfig, id: &str) -> spfail::prober::Classification {
        let mut mta = Mta::new(
            config,
            "198.51.100.77".parse().expect("ip"),
            self.directory.clone(),
            self.clock.clone(),
            SimRng::new(7),
        );
        let origin = SpfTestAuthority::default_origin();
        let sender = EmailAddress::new("mmj7yzdm0tbk", &format!("{id}.sde.{}", origin.to_ascii()))
            .expect("valid address");

        let log_start = self.log.len();
        mta.connect("203.0.113.25".parse().expect("ip"));
        let (mut session, _) = mta.open_session();
        session.handle(&Command::Ehlo("probe.dns-lab.org".into()));
        session.handle(&Command::MailFrom(sender));
        session.handle(&Command::RcptTo(
            EmailAddress::parse("postmaster@x.test").expect("valid"),
        ));
        session.handle(&Command::Data);
        session.handle_message("");
        classify(&self.log.entries_from(log_start), id, "sde", &origin)
    }
}

#[test]
fn every_behaviour_classifies_back_to_itself() {
    let rig = Rig::new();
    let cases = [
        (MacroBehavior::Compliant, MacroBehavior::Compliant, "c1"),
        (
            MacroBehavior::VulnerableLibSpf2,
            MacroBehavior::VulnerableLibSpf2,
            "v1",
        ),
        // Patched libSPF2 is indistinguishable from compliant on the wire
        // — that is the point of the longitudinal measurement.
        (
            MacroBehavior::PatchedLibSpf2,
            MacroBehavior::Compliant,
            "p1",
        ),
        (MacroBehavior::NoExpansion, MacroBehavior::NoExpansion, "n1"),
        (
            MacroBehavior::ReverseNoTruncate,
            MacroBehavior::ReverseNoTruncate,
            "r1",
        ),
        (
            MacroBehavior::TruncateNoReverse,
            MacroBehavior::TruncateNoReverse,
            "t1",
        ),
        (
            MacroBehavior::IgnoreTransformers,
            MacroBehavior::IgnoreTransformers,
            "i1",
        ),
        (
            MacroBehavior::EmptyExpansion,
            MacroBehavior::EmptyExpansion,
            "e1",
        ),
        (
            MacroBehavior::MacroUnsupported,
            MacroBehavior::MacroUnsupported,
            "m1",
        ),
    ];
    for (behavior, expected, id) in cases {
        let mut config = MtaConfig::compliant("mx.matrix.test");
        config.spf_impls = vec![behavior];
        config.reject_on_spf_fail = false;
        let classification = rig.probe(config, id);
        assert!(
            classification.spf_triggered,
            "{behavior:?}: SPF must have been triggered"
        );
        assert!(
            classification.behaviors.contains(&expected),
            "{behavior:?} classified as {:?}",
            classification.behaviors
        );
        assert_eq!(
            classification.behaviors.len(),
            1,
            "{behavior:?} must yield exactly one pattern"
        );
    }
}

#[test]
fn vulnerable_is_detectable_at_both_validation_stages() {
    let rig = Rig::new();
    for (stage, id) in [(SpfStage::OnMailFrom, "s1"), (SpfStage::OnData, "s2")] {
        let mut config = MtaConfig::vulnerable("mx.stage.test");
        config.spf_stage = stage;
        config.reject_on_spf_fail = false;
        let classification = rig.probe(config, id);
        assert!(
            classification.vulnerable(),
            "stage {stage:?} must still reveal the fingerprint to a full \
             (BlankMsg-style) transaction"
        );
    }
}

#[test]
fn chained_filters_show_multiple_patterns() {
    let rig = Rig::new();
    let mut config = MtaConfig::vulnerable("mx.chained.test");
    config.spf_impls = vec![MacroBehavior::VulnerableLibSpf2, MacroBehavior::NoExpansion];
    config.reject_on_spf_fail = false;
    let classification = rig.probe(config, "x9");
    assert!(classification.multi_pattern());
    assert!(classification.vulnerable());
    assert!(classification.erroneous_non_vulnerable());
}

#[test]
fn patching_changes_the_wire_signature() {
    let rig = Rig::new();
    let mut config = MtaConfig::vulnerable("mx.patchme.test");
    config.reject_on_spf_fail = false;
    let before = rig.probe(config.clone(), "w1");
    assert!(before.vulnerable());
    config.apply_patch();
    let after = rig.probe(config, "w2");
    assert!(!after.vulnerable());
    assert!(after.compliant_only());
}

#[test]
fn no_spf_host_is_inconclusive() {
    let rig = Rig::new();
    let mut config = MtaConfig::compliant("mx.nospf.test");
    config.spf_stage = SpfStage::Never;
    let classification = rig.probe(config, "z1");
    assert!(!classification.spf_triggered);
    assert!(!classification.conclusive());
}
