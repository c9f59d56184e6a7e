//! Client-side transaction plans — the NoMsg and BlankMsg probes.
//!
//! The paper's §5.1 describes two probe variants:
//!
//! * **NoMsg** — proceed through `EHLO`, `MAIL FROM`, `RCPT TO` and `DATA`,
//!   then *terminate the connection* without sending any message. Nothing
//!   can possibly land in an inbox.
//! * **BlankMsg** — as above, but after the 354 transmit a completely empty
//!   message (no headers, no subject, no body), which real mail systems
//!   overwhelmingly reject or discard.
//!
//! [`ClientRunner`] is the sans-IO mirror of the server session: the caller
//! feeds it replies and it yields the next [`ClientAction`].

use std::sync::Arc;

use spfail_netsim::ProbeError;

use crate::address::EmailAddress;
use crate::command::Command;
use crate::reply::{Reply, ReplyCategory};

/// Which probe variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransactionStep {
    /// Abort after the server accepts `DATA` (the NoMsg probe).
    AbortBeforeMessage,
    /// Send an empty message after 354 (the BlankMsg probe).
    SendBlankMessage,
}

/// A planned SMTP transaction. The HELO domain and the recipient ladder
/// are shared, so a prober planning one transaction per probe hands out
/// the same two allocations every time.
#[derive(Debug, Clone)]
pub struct TransactionPlan {
    /// Domain announced in `EHLO`.
    pub helo_domain: Arc<str>,
    /// Envelope sender (the unique probe address).
    pub sender: EmailAddress,
    /// Recipient candidates, tried in order while the server rejects them
    /// with permanent failures (the paper's username ladder).
    pub recipients: Arc<[EmailAddress]>,
    /// Probe variant.
    pub step: TransactionStep,
}

/// How a transaction concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransactionOutcome {
    /// Rejected by the banner / connect policy.
    RejectedAtConnect(u16),
    /// `EHLO` rejected.
    RejectedAtHello(u16),
    /// `MAIL FROM` rejected with a permanent failure.
    RejectedAtMailFrom(u16),
    /// Every recipient candidate was rejected; code of the last rejection.
    RejectedAtRcpt(u16),
    /// `DATA` rejected.
    RejectedAtData(u16),
    /// A transient failure (4xx) was encountered at the given stage; the
    /// prober may retry later (greylisting).
    Transient {
        /// Stage label: `"connect"`, `"mail"`, `"rcpt"` or `"data"`.
        stage: &'static str,
        /// The reply code.
        code: u16,
    },
    /// The connection was reset mid-session (injected network fault).
    ConnectionReset,
    /// NoMsg probe ran to plan: the server accepted `DATA` and the client
    /// aborted before any message bytes.
    NoMsgCompleted,
    /// BlankMsg probe: the empty message was accepted.
    MessageAccepted(u16),
    /// BlankMsg probe: the empty message was rejected after transmission.
    MessageRejected(u16),
}

impl TransactionOutcome {
    /// Whether the probe progressed far enough that the server had the
    /// envelope sender (and thus could have started SPF validation).
    pub fn reached_mail_from(&self) -> bool {
        !matches!(
            self,
            TransactionOutcome::RejectedAtConnect(_)
                | TransactionOutcome::RejectedAtHello(_)
                | TransactionOutcome::RejectedAtMailFrom(_)
                | TransactionOutcome::Transient {
                    stage: "connect",
                    ..
                }
                | TransactionOutcome::Transient { stage: "mail", .. }
        )
    }

    /// Whether this is a transient (retryable) conclusion.
    pub fn is_transient(&self) -> bool {
        matches!(self, TransactionOutcome::Transient { .. })
    }

    /// A stable lower-case tag for telemetry (trace span outcomes).
    pub fn label(&self) -> &'static str {
        match self {
            TransactionOutcome::RejectedAtConnect(_) => "rejected_connect",
            TransactionOutcome::RejectedAtHello(_) => "rejected_hello",
            TransactionOutcome::RejectedAtMailFrom(_) => "rejected_mail_from",
            TransactionOutcome::RejectedAtRcpt(_) => "rejected_rcpt",
            TransactionOutcome::RejectedAtData(_) => "rejected_data",
            TransactionOutcome::Transient { .. } => "transient",
            TransactionOutcome::ConnectionReset => "connection_reset",
            TransactionOutcome::NoMsgCompleted => "nomsg_completed",
            TransactionOutcome::MessageAccepted(_) => "message_accepted",
            TransactionOutcome::MessageRejected(_) => "message_rejected",
        }
    }

    /// Map this conclusion into the stack-wide [`ProbeError`] vocabulary,
    /// or `None` when the transaction ran to plan.
    ///
    /// A `Transient` with code 0 is a connect-level timeout (a flaky host
    /// or a closed reachability window), not a server reply.
    pub fn probe_error(&self) -> Option<ProbeError> {
        match self {
            TransactionOutcome::Transient { code: 0, .. } => Some(ProbeError::ConnectTimeout),
            TransactionOutcome::Transient { code, .. } => Some(ProbeError::SmtpTempFail(*code)),
            TransactionOutcome::ConnectionReset => Some(ProbeError::ConnectionReset),
            TransactionOutcome::RejectedAtConnect(code)
            | TransactionOutcome::RejectedAtHello(code)
            | TransactionOutcome::RejectedAtMailFrom(code)
            | TransactionOutcome::RejectedAtRcpt(code)
            | TransactionOutcome::RejectedAtData(code) => Some(ProbeError::SmtpReject(*code)),
            TransactionOutcome::NoMsgCompleted
            | TransactionOutcome::MessageAccepted(_)
            | TransactionOutcome::MessageRejected(_) => None,
        }
    }
}

/// The next thing the driver should do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientAction {
    /// Send this command and feed the reply back.
    Send(Command),
    /// Transmit the message body (BlankMsg: empty) and feed the reply back.
    SendMessage(String),
    /// Drop the connection without further commands.
    HangUp(TransactionOutcome),
    /// Send `QUIT` (best-effort) and conclude with this outcome.
    Finish(TransactionOutcome),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientState {
    WaitBanner,
    WaitHello,
    WaitMail,
    WaitRcpt,
    WaitData,
    WaitMessageAck,
    Done,
}

/// Sans-IO client state machine for one transaction.
pub struct ClientRunner {
    plan: TransactionPlan,
    state: ClientState,
    rcpt_index: usize,
}

impl ClientRunner {
    /// Start a runner; the first reply fed in must be the server banner.
    pub fn new(plan: TransactionPlan) -> ClientRunner {
        assert!(
            !plan.recipients.is_empty(),
            "a transaction plan needs at least one recipient"
        );
        ClientRunner {
            plan,
            state: ClientState::WaitBanner,
            rcpt_index: 0,
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &TransactionPlan {
        &self.plan
    }

    /// Feed the next server reply; returns what to do next.
    pub fn on_reply(&mut self, reply: &Reply) -> ClientAction {
        match self.state {
            ClientState::WaitBanner => match reply.category() {
                ReplyCategory::Success => {
                    self.state = ClientState::WaitHello;
                    ClientAction::Send(Command::Ehlo(Arc::clone(&self.plan.helo_domain)))
                }
                ReplyCategory::TransientFailure => self.conclude(TransactionOutcome::Transient {
                    stage: "connect",
                    code: reply.code,
                }),
                _ => self.conclude(TransactionOutcome::RejectedAtConnect(reply.code)),
            },
            ClientState::WaitHello => match reply.category() {
                ReplyCategory::Success => {
                    self.state = ClientState::WaitMail;
                    ClientAction::Send(Command::MailFrom(self.plan.sender.clone()))
                }
                _ => self.conclude(TransactionOutcome::RejectedAtHello(reply.code)),
            },
            ClientState::WaitMail => match reply.category() {
                ReplyCategory::Success => {
                    self.state = ClientState::WaitRcpt;
                    ClientAction::Send(Command::RcptTo(
                        self.plan.recipients[self.rcpt_index].clone(),
                    ))
                }
                ReplyCategory::TransientFailure => self.conclude(TransactionOutcome::Transient {
                    stage: "mail",
                    code: reply.code,
                }),
                _ => self.conclude(TransactionOutcome::RejectedAtMailFrom(reply.code)),
            },
            ClientState::WaitRcpt => match reply.category() {
                ReplyCategory::Success => {
                    self.state = ClientState::WaitData;
                    ClientAction::Send(Command::Data)
                }
                ReplyCategory::TransientFailure => self.conclude(TransactionOutcome::Transient {
                    stage: "rcpt",
                    code: reply.code,
                }),
                _ => {
                    // Try the next username on the ladder within the same
                    // session; give up when the ladder is exhausted.
                    self.rcpt_index += 1;
                    if self.rcpt_index < self.plan.recipients.len() {
                        ClientAction::Send(Command::RcptTo(
                            self.plan.recipients[self.rcpt_index].clone(),
                        ))
                    } else {
                        self.conclude(TransactionOutcome::RejectedAtRcpt(reply.code))
                    }
                }
            },
            ClientState::WaitData => match reply.category() {
                ReplyCategory::Intermediate => match self.plan.step {
                    TransactionStep::AbortBeforeMessage => {
                        self.state = ClientState::Done;
                        ClientAction::HangUp(TransactionOutcome::NoMsgCompleted)
                    }
                    TransactionStep::SendBlankMessage => {
                        self.state = ClientState::WaitMessageAck;
                        // Entirely blank: no headers, no subject, no body.
                        ClientAction::SendMessage(String::new())
                    }
                },
                ReplyCategory::TransientFailure => self.conclude(TransactionOutcome::Transient {
                    stage: "data",
                    code: reply.code,
                }),
                _ => self.conclude(TransactionOutcome::RejectedAtData(reply.code)),
            },
            ClientState::WaitMessageAck => {
                let outcome = if reply.is_positive() {
                    TransactionOutcome::MessageAccepted(reply.code)
                } else {
                    TransactionOutcome::MessageRejected(reply.code)
                };
                self.conclude(outcome)
            }
            ClientState::Done => ClientAction::HangUp(TransactionOutcome::RejectedAtConnect(0)),
        }
    }

    fn conclude(&mut self, outcome: TransactionOutcome) -> ClientAction {
        self.state = ClientState::Done;
        ClientAction::Finish(outcome)
    }
}

/// The paper's curated recipient username ladder (§6.3), in trial order.
pub const USERNAME_LADDER: [&str; 14] = [
    "mmj7yzdm0tbk",
    "noreply",
    "donotreply",
    "no-reply",
    "postmaster",
    "abuse",
    "admin",
    "administrator",
    "newsletters",
    "alerts",
    "info",
    "auto-confirm",
    "appointments",
    "service",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> EmailAddress {
        EmailAddress::parse(s).unwrap()
    }

    fn plan(step: TransactionStep, rcpts: &[&str]) -> TransactionPlan {
        TransactionPlan {
            helo_domain: "probe.dns-lab.org".into(),
            sender: addr("mmj7yzdm0tbk@ab1c.s1.spf-test.dns-lab.org"),
            recipients: rcpts.iter().map(|r| addr(r)).collect(),
            step,
        }
    }

    #[test]
    fn nomsg_happy_path_aborts_after_354() {
        let mut c = ClientRunner::new(plan(
            TransactionStep::AbortBeforeMessage,
            &["postmaster@mx.test"],
        ));
        assert_eq!(
            c.on_reply(&Reply::banner("mx.test")),
            ClientAction::Send(Command::Ehlo("probe.dns-lab.org".into()))
        );
        assert!(matches!(
            c.on_reply(&Reply::ehlo_ok("mx.test")),
            ClientAction::Send(Command::MailFrom(_))
        ));
        assert!(matches!(
            c.on_reply(&Reply::ok()),
            ClientAction::Send(Command::RcptTo(_))
        ));
        assert_eq!(c.on_reply(&Reply::ok()), ClientAction::Send(Command::Data));
        assert_eq!(
            c.on_reply(&Reply::start_mail_input()),
            ClientAction::HangUp(TransactionOutcome::NoMsgCompleted)
        );
    }

    #[test]
    fn blankmsg_sends_empty_body() {
        let mut c = ClientRunner::new(plan(
            TransactionStep::SendBlankMessage,
            &["postmaster@mx.test"],
        ));
        c.on_reply(&Reply::banner("mx.test"));
        c.on_reply(&Reply::ehlo_ok("mx.test"));
        c.on_reply(&Reply::ok());
        c.on_reply(&Reply::ok());
        assert_eq!(
            c.on_reply(&Reply::start_mail_input()),
            ClientAction::SendMessage(String::new())
        );
        assert_eq!(
            c.on_reply(&Reply::ok()),
            ClientAction::Finish(TransactionOutcome::MessageAccepted(250))
        );
    }

    #[test]
    fn blankmsg_rejection_is_reported() {
        let mut c = ClientRunner::new(plan(
            TransactionStep::SendBlankMessage,
            &["postmaster@mx.test"],
        ));
        c.on_reply(&Reply::banner("mx.test"));
        c.on_reply(&Reply::ehlo_ok("mx.test"));
        c.on_reply(&Reply::ok());
        c.on_reply(&Reply::ok());
        c.on_reply(&Reply::start_mail_input());
        assert_eq!(
            c.on_reply(&Reply::spf_rejected("b.test")),
            ClientAction::Finish(TransactionOutcome::MessageRejected(550))
        );
    }

    #[test]
    fn username_ladder_is_walked_on_550() {
        let mut c = ClientRunner::new(plan(
            TransactionStep::AbortBeforeMessage,
            &["a@mx.test", "b@mx.test", "c@mx.test"],
        ));
        c.on_reply(&Reply::banner("mx.test"));
        c.on_reply(&Reply::ehlo_ok("mx.test"));
        c.on_reply(&Reply::ok()); // MAIL accepted
        let next = c.on_reply(&Reply::mailbox_unavailable());
        assert_eq!(next, ClientAction::Send(Command::RcptTo(addr("b@mx.test"))));
        let next = c.on_reply(&Reply::mailbox_unavailable());
        assert_eq!(next, ClientAction::Send(Command::RcptTo(addr("c@mx.test"))));
        assert_eq!(
            c.on_reply(&Reply::mailbox_unavailable()),
            ClientAction::Finish(TransactionOutcome::RejectedAtRcpt(550))
        );
    }

    #[test]
    fn greylisting_is_transient() {
        let mut c = ClientRunner::new(plan(TransactionStep::AbortBeforeMessage, &["a@mx.test"]));
        c.on_reply(&Reply::banner("mx.test"));
        c.on_reply(&Reply::ehlo_ok("mx.test"));
        c.on_reply(&Reply::ok());
        let action = c.on_reply(&Reply::greylisted());
        assert_eq!(
            action,
            ClientAction::Finish(TransactionOutcome::Transient {
                stage: "rcpt",
                code: 450
            })
        );
        match action {
            ClientAction::Finish(outcome) => {
                assert!(outcome.is_transient());
                assert!(outcome.reached_mail_from());
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn banner_rejection() {
        let mut c = ClientRunner::new(plan(TransactionStep::AbortBeforeMessage, &["a@mx.test"]));
        let action = c.on_reply(&Reply::service_unavailable());
        assert_eq!(
            action,
            ClientAction::Finish(TransactionOutcome::Transient {
                stage: "connect",
                code: 421
            })
        );
    }

    #[test]
    fn mail_from_rejection_means_no_spf_possible() {
        let mut c = ClientRunner::new(plan(TransactionStep::AbortBeforeMessage, &["a@mx.test"]));
        c.on_reply(&Reply::banner("mx.test"));
        c.on_reply(&Reply::ehlo_ok("mx.test"));
        let action = c.on_reply(&Reply::new(553, "sender rejected"));
        let ClientAction::Finish(outcome) = action else {
            panic!("expected finish");
        };
        assert_eq!(outcome, TransactionOutcome::RejectedAtMailFrom(553));
        assert!(!outcome.reached_mail_from());
    }

    #[test]
    #[should_panic(expected = "at least one recipient")]
    fn empty_recipient_list_panics() {
        let _ = ClientRunner::new(plan(TransactionStep::AbortBeforeMessage, &[]));
    }
}
