//! Sender Policy Framework (RFC 7208) for the SPFail reproduction.
//!
//! This crate implements the protocol the paper's vulnerabilities live in:
//!
//! * [`macrostring`] — the SPF macro language (`%{d1r}`, `%{L}`, …), parsed
//!   into a token sequence.
//! * [`expand`] — macro expansion. The RFC-compliant expander lives here;
//!   the *vulnerable* libSPF2 expander and the assorted non-compliant
//!   variants observed in the wild are in the `spfail-libspf2` crate, all
//!   plugging in through the [`expand::MacroExpander`] trait.
//! * [`record`] — `v=spf1` record parsing: mechanisms, qualifiers,
//!   modifiers.
//! * [`compile`] — the `check_host()` evaluation of RFC 7208 §4, including
//!   the 10-term lookup limit and the void-lookup limit: records lowered
//!   once into [`CompiledPolicy`] ops, walked by [`CompiledEvaluator`]
//!   through a [`PolicyCache`] that campaigns share across probes.
//! * [`eval`] — the evaluation vocabulary: the abstract [`eval::SpfDns`]
//!   the evaluator queries (so it runs against the simulated resolver),
//!   its limits, and its trace events.
//! * [`result`] — the seven SPF results.
//!
//! The design choice that matters for the reproduction: **the evaluator is
//! generic over the macro expander**. A probed MTA's observable behaviour —
//! which DNS queries it sends while validating — is a function of which
//! expander its SPF library uses. Swapping expanders is how the simulated
//! Internet gets its mix of compliant, vulnerable, and merely sloppy hosts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod eval;
pub mod expand;
pub mod macrostring;
pub mod record;
pub mod result;

pub use compile::{
    canonicalize, splice_id, templatize, CompiledEvaluator, CompiledPolicy, PolicyCache, PolicyId,
    ScriptEntry, ScriptKey, ScriptStep, ID_HOLE,
};
pub use eval::{EvalConfig, SpfDns, TraceEvent};
pub use expand::{CompliantExpander, ExpandError, MacroContext, MacroExpander};
pub use macrostring::{MacroLetter, MacroString, MacroToken, MacroTransform};
pub use record::{Mechanism, MechanismKind, Modifier, RecordError, SpfRecord};
pub use result::{Qualifier, SpfResult};
