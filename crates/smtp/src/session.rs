//! The server-side SMTP session state machine.
//!
//! A [`ServerSession`] enforces RFC 5321 command sequencing and delegates
//! every accept/reject decision to a [`ServerPolicy`]. The simulated MTAs
//! implement `ServerPolicy` to run SPF validation at the stage their
//! configuration dictates (at `MAIL FROM`, at end-of-data, or never) —
//! which is exactly the behavioural difference the paper's NoMsg/BlankMsg
//! probes distinguish.

use crate::address::EmailAddress;
use crate::command::Command;
use crate::reply::Reply;

/// Decisions a policy can make for a protocol event.
///
/// `None` means "accept with the default reply"; `Some(reply)` overrides,
/// and a 4xx/5xx reply rejects the event without advancing state.
pub trait ServerPolicy {
    /// Connection established. A failure reply here refuses service
    /// (the session closes immediately after it is sent).
    fn on_connect(&mut self) -> Option<Reply> {
        None
    }

    /// `HELO`/`EHLO` received.
    fn on_hello(&mut self, _client_domain: &str) -> Option<Reply> {
        None
    }

    /// `MAIL FROM` received. `sender` is `None` for the null reverse-path.
    fn on_mail_from(&mut self, _sender: Option<&EmailAddress>) -> Option<Reply> {
        None
    }

    /// `RCPT TO` received.
    fn on_rcpt_to(&mut self, _recipient: &EmailAddress) -> Option<Reply> {
        None
    }

    /// `DATA` received (before the 354 goes out).
    fn on_data_begin(&mut self) -> Option<Reply> {
        None
    }

    /// Message body received in full.
    fn on_message(&mut self, _body: &str) -> Option<Reply> {
        None
    }
}

/// A policy that accepts everything; useful in tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct AcceptAll;

impl ServerPolicy for AcceptAll {}

/// Session states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Banner sent, no greeting yet.
    Connected,
    /// `HELO`/`EHLO` accepted.
    Greeted,
    /// `MAIL FROM` accepted.
    MailAccepted,
    /// At least one `RCPT TO` accepted.
    RcptAccepted,
    /// 354 sent; expecting message data.
    ReceivingData,
    /// `QUIT` processed or service refused.
    Closed,
}

/// Notable things that happened during the session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionEvent {
    /// A complete message was accepted for delivery.
    MessageAccepted {
        /// The envelope sender (`None` = null reverse-path).
        sender: Option<EmailAddress>,
        /// Accepted envelope recipients.
        recipients: Vec<EmailAddress>,
        /// The message body as transmitted.
        body: String,
    },
}

/// The message size limit advertised in the EHLO response and enforced at
/// end-of-data (RFC 1870).
pub const MAX_MESSAGE_SIZE: usize = 10_485_760;

/// A server-side SMTP session.
pub struct ServerSession<P: ServerPolicy> {
    hostname: String,
    policy: P,
    state: SessionState,
    sender: Option<EmailAddress>,
    sender_is_null: bool,
    recipients: Vec<EmailAddress>,
    events: Vec<SessionEvent>,
}

impl<P: ServerPolicy> ServerSession<P> {
    /// Open a session: runs the connect hook and returns the banner (or the
    /// refusal reply, in which case the session is already [`SessionState::Closed`]).
    pub fn open(hostname: impl Into<String>, mut policy: P) -> (ServerSession<P>, Reply) {
        let decision = policy.on_connect();
        let mut session = ServerSession {
            hostname: hostname.into(),
            policy,
            state: SessionState::Connected,
            sender: None,
            sender_is_null: false,
            recipients: Vec::new(),
            events: Vec::new(),
        };
        match decision {
            Some(reply) if reply.is_failure() => {
                session.state = SessionState::Closed;
                (session, reply)
            }
            Some(reply) => (session, reply),
            None => {
                let banner = Reply::banner(&session.hostname);
                (session, banner)
            }
        }
    }

    /// Current state.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// The policy, for post-hoc inspection in tests.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Drain accumulated events.
    pub fn take_events(&mut self) -> Vec<SessionEvent> {
        std::mem::take(&mut self.events)
    }

    /// Handle one command, returning the reply.
    pub fn handle(&mut self, command: &Command) -> Reply {
        if self.state == SessionState::Closed {
            return Reply::service_unavailable();
        }
        // Between the 354 and the end-of-data marker the channel carries
        // message content, not commands; a command here is a client bug.
        if self.state == SessionState::ReceivingData {
            return Reply::bad_sequence();
        }
        match command {
            Command::Helo(domain) | Command::Ehlo(domain) => {
                let decision = self.policy.on_hello(domain);
                match decision {
                    Some(reply) if reply.is_failure() => reply,
                    Some(reply) => {
                        self.state = SessionState::Greeted;
                        reply
                    }
                    None => {
                        self.state = SessionState::Greeted;
                        if matches!(command, Command::Ehlo(_)) {
                            Reply::ehlo_ok(&self.hostname)
                        } else {
                            Reply::ok()
                        }
                    }
                }
            }
            Command::MailFrom(sender) => self.do_mail(Some(sender.clone())),
            Command::MailFromNull => self.do_mail(None),
            Command::RcptTo(recipient) => {
                if !matches!(
                    self.state,
                    SessionState::MailAccepted | SessionState::RcptAccepted
                ) {
                    return Reply::bad_sequence();
                }
                match self.policy.on_rcpt_to(recipient) {
                    Some(reply) if reply.is_failure() => reply,
                    other => {
                        self.recipients.push(recipient.clone());
                        self.state = SessionState::RcptAccepted;
                        other.unwrap_or_else(Reply::ok)
                    }
                }
            }
            Command::Data => {
                if self.state != SessionState::RcptAccepted {
                    return Reply::bad_sequence();
                }
                match self.policy.on_data_begin() {
                    Some(reply) if reply.is_failure() => reply,
                    other => {
                        self.state = SessionState::ReceivingData;
                        other.unwrap_or_else(Reply::start_mail_input)
                    }
                }
            }
            Command::Rset => {
                self.reset_envelope();
                if self.state != SessionState::Connected {
                    self.state = SessionState::Greeted;
                }
                Reply::ok()
            }
            Command::Noop => Reply::ok(),
            Command::Quit => {
                self.state = SessionState::Closed;
                Reply::closing()
            }
        }
    }

    fn do_mail(&mut self, sender: Option<EmailAddress>) -> Reply {
        if self.state != SessionState::Greeted {
            return Reply::bad_sequence();
        }
        match self.policy.on_mail_from(sender.as_ref()) {
            Some(reply) if reply.is_failure() => reply,
            other => {
                self.sender_is_null = sender.is_none();
                self.sender = sender;
                self.recipients.clear();
                self.state = SessionState::MailAccepted;
                other.unwrap_or_else(Reply::ok)
            }
        }
    }

    /// Deliver the message body after a 354. Returns the final reply.
    pub fn handle_message(&mut self, body: &str) -> Reply {
        if self.state != SessionState::ReceivingData {
            return Reply::bad_sequence();
        }
        // RFC 1870: we advertised SIZE in the EHLO response; enforce it.
        if body.len() > MAX_MESSAGE_SIZE {
            self.state = SessionState::Greeted;
            self.reset_envelope();
            return Reply::new(552, "Message size exceeds fixed maximum message size");
        }
        match self.policy.on_message(body) {
            Some(reply) if reply.is_failure() => {
                self.state = SessionState::Greeted;
                self.reset_envelope();
                reply
            }
            other => {
                self.events.push(SessionEvent::MessageAccepted {
                    sender: self.sender.clone(),
                    recipients: self.recipients.clone(),
                    body: body.to_string(),
                });
                self.state = SessionState::Greeted;
                self.reset_envelope();
                other.unwrap_or_else(Reply::ok)
            }
        }
    }

    fn reset_envelope(&mut self) {
        self.sender = None;
        self.sender_is_null = false;
        self.recipients.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> EmailAddress {
        EmailAddress::parse(s).unwrap()
    }

    fn greeted() -> ServerSession<AcceptAll> {
        let (mut s, banner) = ServerSession::open("mx.test", AcceptAll);
        assert_eq!(banner.code, 220);
        assert!(s.handle(&Command::Ehlo("probe.test".into())).is_positive());
        s
    }

    #[test]
    fn full_transaction_accepts_message() {
        let mut s = greeted();
        assert!(s.handle(&Command::MailFrom(addr("a@b.test"))).is_positive());
        assert!(s.handle(&Command::RcptTo(addr("x@mx.test"))).is_positive());
        assert_eq!(s.handle(&Command::Data).code, 354);
        assert_eq!(s.state(), SessionState::ReceivingData);
        assert!(s.handle_message("").is_positive());
        let events = s.take_events();
        assert_eq!(events.len(), 1);
        match &events[0] {
            SessionEvent::MessageAccepted {
                sender, recipients, ..
            } => {
                assert_eq!(sender.as_ref().unwrap(), &addr("a@b.test"));
                assert_eq!(recipients.len(), 1);
            }
        }
        assert_eq!(s.state(), SessionState::Greeted);
    }

    #[test]
    fn sequencing_is_enforced() {
        let (mut s, _) = ServerSession::open("mx.test", AcceptAll);
        assert_eq!(s.handle(&Command::MailFrom(addr("a@b.test"))).code, 503);
        assert_eq!(s.handle(&Command::Data).code, 503);
        assert_eq!(s.handle(&Command::RcptTo(addr("x@y.test"))).code, 503);
        s.handle(&Command::Helo("c.test".into()));
        assert_eq!(s.handle(&Command::Data).code, 503);
        assert_eq!(s.handle_message("body").code, 503);
    }

    #[test]
    fn commands_during_data_are_rejected() {
        let mut s = greeted();
        s.handle(&Command::MailFrom(addr("a@b.test")));
        s.handle(&Command::RcptTo(addr("x@mx.test")));
        assert_eq!(s.handle(&Command::Data).code, 354);
        assert_eq!(s.handle(&Command::Noop).code, 503);
        assert_eq!(s.handle(&Command::Quit).code, 503);
        // The data channel still works afterwards.
        assert!(s.handle_message("body").is_positive());
    }

    #[test]
    fn quit_closes_session() {
        let mut s = greeted();
        assert_eq!(s.handle(&Command::Quit).code, 221);
        assert_eq!(s.state(), SessionState::Closed);
        assert_eq!(s.handle(&Command::Noop).code, 421);
    }

    #[test]
    fn rset_clears_envelope() {
        let mut s = greeted();
        s.handle(&Command::MailFrom(addr("a@b.test")));
        s.handle(&Command::RcptTo(addr("x@mx.test")));
        assert!(s.handle(&Command::Rset).is_positive());
        // After RSET, RCPT is out of sequence again.
        assert_eq!(s.handle(&Command::RcptTo(addr("x@mx.test"))).code, 503);
    }

    struct RejectRcpt {
        allowed: &'static str,
    }

    impl ServerPolicy for RejectRcpt {
        fn on_rcpt_to(&mut self, recipient: &EmailAddress) -> Option<Reply> {
            if recipient.local() == self.allowed {
                None
            } else {
                Some(Reply::mailbox_unavailable())
            }
        }
    }

    #[test]
    fn policy_can_reject_recipients() {
        let (mut s, _) = ServerSession::open(
            "mx.test",
            RejectRcpt {
                allowed: "postmaster",
            },
        );
        s.handle(&Command::Ehlo("p.test".into()));
        s.handle(&Command::MailFrom(addr("a@b.test")));
        assert_eq!(s.handle(&Command::RcptTo(addr("nobody@mx.test"))).code, 550);
        // Rejection does not advance state: DATA still out of sequence.
        assert_eq!(s.handle(&Command::Data).code, 503);
        assert!(s
            .handle(&Command::RcptTo(addr("postmaster@mx.test")))
            .is_positive());
        assert_eq!(s.handle(&Command::Data).code, 354);
    }

    struct RefuseConnections;

    impl ServerPolicy for RefuseConnections {
        fn on_connect(&mut self) -> Option<Reply> {
            Some(Reply::service_unavailable())
        }
    }

    #[test]
    fn connect_hook_can_refuse_service() {
        let (s, reply) = ServerSession::open("mx.test", RefuseConnections);
        assert_eq!(reply.code, 421);
        assert_eq!(s.state(), SessionState::Closed);
    }

    struct RejectAtData;

    impl ServerPolicy for RejectAtData {
        fn on_message(&mut self, _body: &str) -> Option<Reply> {
            Some(Reply::spf_rejected("b.test"))
        }
    }

    #[test]
    fn message_rejection_resets_to_greeted() {
        let (mut s, _) = ServerSession::open("mx.test", RejectAtData);
        s.handle(&Command::Ehlo("p.test".into()));
        s.handle(&Command::MailFrom(addr("a@b.test")));
        s.handle(&Command::RcptTo(addr("x@mx.test")));
        s.handle(&Command::Data);
        let reply = s.handle_message("");
        assert_eq!(reply.code, 550);
        assert!(s.take_events().is_empty());
        assert_eq!(s.state(), SessionState::Greeted);
    }

    #[test]
    fn oversized_messages_get_552() {
        let mut s = greeted();
        s.handle(&Command::MailFrom(addr("a@b.test")));
        s.handle(&Command::RcptTo(addr("x@mx.test")));
        s.handle(&Command::Data);
        let big = "x".repeat(MAX_MESSAGE_SIZE + 1);
        assert_eq!(s.handle_message(&big).code, 552);
        assert!(s.take_events().is_empty());
        assert_eq!(s.state(), SessionState::Greeted);
    }

    #[test]
    fn null_sender_is_accepted() {
        let mut s = greeted();
        assert!(s.handle(&Command::MailFromNull).is_positive());
        assert_eq!(s.state(), SessionState::MailAccepted);
    }
}
