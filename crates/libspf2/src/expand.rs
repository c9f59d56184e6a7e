//! The libSPF2 expansion engine, modelled byte-for-byte over [`MemSim`].
//!
//! This is a behavioural model of `SPF_record_expand_data` from libSPF2
//! 1.2.10, faithful to the three externally observable properties the
//! paper measures:
//!
//! * **The fingerprint.** With reversal *and* truncation requested
//!   (`%{d1r}`), the truncation logic re-emits the first label of the
//!   reversed sequence before the full reversed sequence: `example.com`
//!   expands to `com.com.example`, never `example`. This is benign —
//!   visible only in the follow-up DNS query — and unique to libSPF2.
//! * **CVE-2021-33913.** In the same reversal path, the variable tracking
//!   the buffer length is overwritten with the length of the *truncated*
//!   portion. The later URL-encoding pass allocates `3 × len + 1` bytes
//!   from that bogus length and then writes the encoding of the full
//!   duplicated expansion, overrunning the allocation by up to ~100
//!   attacker-controlled bytes.
//! * **CVE-2021-33912.** The URL-encoding loop emits each escaped byte
//!   with `sprintf(p, "%%%02x", *p_read)` where `p_read` is a signed
//!   `char*`: bytes `0x80..=0xFF` sign-extend, producing `%ffffffxx`
//!   (9 characters) where the length pass budgeted 3.
//!
//! Memory corruption therefore occurs only when URL encoding is in play
//! (an uppercase macro letter), exactly as §4.2 observes — which is what
//! makes the remote detection *safe*: the probe record uses lowercase
//! `%{d1r}`, eliciting the fingerprint without ever corrupting the target.

use spfail_spf::expand::{ExpandError, MacroContext, MacroExpander};
use spfail_spf::macrostring::{MacroString, MacroToken, MacroTransform};

use crate::memsim::MemSim;

/// libSPF2 releases the simulation distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LibSpf2Version {
    /// 1.2.10 — the long-unmaintained release the paper found deployed;
    /// vulnerable to both CVEs and produces the detection fingerprint.
    V1_2_10,
    /// The patched code (the fixes the authors contributed upstream).
    V1_2_11,
}

impl LibSpf2Version {
    /// Whether this version carries the vulnerable expansion logic.
    pub fn is_vulnerable(self) -> bool {
        matches!(self, LibSpf2Version::V1_2_10)
    }
}

/// Expander configuration.
#[derive(Debug, Clone, Copy)]
pub struct LibSpf2Config {
    /// Which release's behaviour to emulate.
    pub version: LibSpf2Version,
    /// When `true`, a heap overflow aborts the expansion with
    /// [`ExpandError::ImplementationFault`] — the simulation's equivalent
    /// of the process crashing. When `false` the corruption is recorded
    /// but the (already-written) expansion is still returned, modelling
    /// the silent-corruption case.
    pub fault_on_overflow: bool,
    /// Bytes the write pass will run past an allocation before the model
    /// stops it (the paper reports up to ~100 bytes reachable).
    pub overrun_cap: usize,
}

impl LibSpf2Config {
    /// The vulnerable release with silent corruption.
    pub fn vulnerable() -> LibSpf2Config {
        LibSpf2Config {
            version: LibSpf2Version::V1_2_10,
            fault_on_overflow: false,
            overrun_cap: 100,
        }
    }

    /// The patched release.
    pub fn patched() -> LibSpf2Config {
        LibSpf2Config {
            version: LibSpf2Version::V1_2_11,
            fault_on_overflow: false,
            overrun_cap: 100,
        }
    }
}

/// The libSPF2 macro expander over a simulated heap.
pub struct LibSpf2Expander {
    config: LibSpf2Config,
    mem: MemSim,
}

impl LibSpf2Expander {
    /// An expander with the given configuration and a fresh heap.
    pub fn new(config: LibSpf2Config) -> LibSpf2Expander {
        LibSpf2Expander {
            config,
            mem: MemSim::new(),
        }
    }

    /// Convenience: the vulnerable 1.2.10 expander.
    pub fn vulnerable() -> LibSpf2Expander {
        LibSpf2Expander::new(LibSpf2Config::vulnerable())
    }

    /// Convenience: the patched expander.
    pub fn patched() -> LibSpf2Expander {
        LibSpf2Expander::new(LibSpf2Config::patched())
    }

    /// The simulated heap, for inspecting corruption after an expansion.
    pub fn heap(&self) -> &MemSim {
        &self.mem
    }

    /// Reset the heap (e.g. between independent SMTP transactions).
    pub fn reset_heap(&mut self) {
        self.mem.reset();
    }

    /// The configured version.
    pub fn version(&self) -> LibSpf2Version {
        self.config.version
    }

    /// Expand one macro token: split, (buggy) reverse/truncate, then the
    /// (buggy) URL-encoding pass, with all buffer traffic going through
    /// the simulated heap. Returns the logical expansion text.
    fn expand_macro(
        &mut self,
        raw: &str,
        transform: &MacroTransform,
        url_escape: bool,
    ) -> Result<String, ExpandError> {
        let delims = transform.delimiters_or_default();
        let mut parts: Vec<&str> = raw.split(|c| delims.contains(&c)).collect();

        let vulnerable = self.config.version.is_vulnerable();
        let (plain_output, len_var) = if transform.reverse {
            parts.reverse();
            let truncated: Vec<&str> = match transform.digits {
                Some(n) => {
                    let keep = (n.max(1) as usize).min(parts.len());
                    parts[parts.len() - keep..].to_vec()
                }
                None => parts.clone(),
            };
            if vulnerable && transform.digits.is_some() {
                // The buggy truncation: the first label of the reversed
                // sequence is emitted again ahead of the full reversed
                // sequence, and `len` is overwritten with the length of
                // the *truncated* portion (CVE-2021-33913).
                let output = format!("{}.{}", parts[0], parts.join("."));
                let bogus_len = truncated.join(".").len();
                (output, bogus_len)
            } else {
                let output = truncated.join(".");
                let len = output.len();
                (output, len)
            }
        } else {
            let truncated: Vec<&str> = match transform.digits {
                Some(n) => {
                    let keep = (n.max(1) as usize).min(parts.len());
                    parts[parts.len() - keep..].to_vec()
                }
                None => parts,
            };
            let output = truncated.join(".");
            let len = output.len();
            (output, len)
        };

        if !url_escape {
            // Plain path: the buffer is sized from the string actually
            // assembled, so nothing overflows — the mangled expansion is
            // purely protocol-visible.
            let buf = self.mem.alloc(plain_output.len() + 1);
            self.mem.write_bytes(buf, 0, plain_output.as_bytes());
            self.mem.write(buf, plain_output.len(), 0);
            return Ok(self.mem.read_cstr(buf));
        }

        // URL-encoding pass. The length pass budgets three bytes per
        // input byte ("%xx" worst case) from the — possibly bogus —
        // `len_var` (CVE-2021-33913), then the write pass sprintf's each
        // byte, sign-extending high bytes (CVE-2021-33912).
        let alloc_size = len_var * 3 + 1;
        let buf = self.mem.alloc(alloc_size);
        let mut offset = 0usize;
        let limit = alloc_size + self.config.overrun_cap;
        let mut truncated_by_cap = false;
        'write: for &b in plain_output.as_bytes() {
            let encoded: Vec<u8> =
                if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_' | b'~') {
                    vec![b]
                } else if b < 0x80 || !vulnerable {
                    // sprintf("%%%02x", c): lowercase hex, 3 bytes.
                    format!("%{b:02x}").into_bytes()
                } else {
                    // Signed char sign-extension: -2 -> 0xfffffffe -> 10-byte
                    // output counting the NUL (9 visible characters).
                    let widened = b as i8 as i32 as u32;
                    format!("%{widened:08x}").into_bytes()
                };
            for byte in encoded {
                if offset >= limit {
                    truncated_by_cap = true;
                    break 'write;
                }
                self.mem.write(buf, offset, byte);
                offset += 1;
            }
        }
        if offset < limit {
            self.mem.write(buf, offset, 0);
        }

        if self.mem.corrupted() && self.config.fault_on_overflow {
            return Err(ExpandError::ImplementationFault(format!(
                "heap overflow: {} byte(s) past a {}-byte allocation",
                self.mem.max_overrun(),
                alloc_size,
            )));
        }

        // What the caller sees: the logical string the code wrote, which
        // C would read back from the (now possibly smashed) heap.
        let mut logical = self.mem.read_cstr(buf);
        let mut spilled = self.mem.overflowed_bytes(buf);
        if spilled.last() == Some(&0) {
            spilled.pop(); // the terminator, not payload
        }
        logical.push_str(&String::from_utf8_lossy(&spilled));
        if truncated_by_cap {
            // A real process would likely have died here already.
            return Ok(logical);
        }
        Ok(logical)
    }
}

impl MacroExpander for LibSpf2Expander {
    fn expand(
        &mut self,
        ms: &MacroString,
        ctx: &MacroContext,
        in_exp: bool,
    ) -> Result<String, ExpandError> {
        let mut out = String::new();
        // One scratch buffer for the raw letter values, reused across
        // tokens. Only the *input* path is tightened here: the buffer
        // traffic inside `expand_macro` deliberately mirrors the C
        // code's allocation pattern, bugs and all.
        let mut raw = String::new();
        for token in ms.tokens() {
            match token {
                MacroToken::Literal(text) => out.push_str(text),
                MacroToken::Percent => out.push('%'),
                MacroToken::Space => out.push(' '),
                MacroToken::UrlSpace => out.push_str("%20"),
                MacroToken::Macro {
                    letter,
                    url_escape,
                    transform,
                } => {
                    if letter.exp_only() && !in_exp {
                        return Err(ExpandError::ExpOnlyLetter(letter.as_char()));
                    }
                    raw.clear();
                    ctx.write_raw_value(*letter, &mut raw);
                    out.push_str(&self.expand_macro(&raw, transform, *url_escape)?);
                }
            }
        }
        Ok(out)
    }

    fn describe(&self) -> &'static str {
        match self.config.version {
            LibSpf2Version::V1_2_10 => "libspf2-1.2.10",
            LibSpf2Version::V1_2_11 => "libspf2-1.2.11",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfail_spf::expand::CompliantExpander;

    fn ctx() -> MacroContext {
        MacroContext::new("user", "example.com", "192.0.2.3".parse().unwrap())
    }

    fn expand_with(expander: &mut LibSpf2Expander, s: &str) -> String {
        expander
            .expand(&MacroString::parse(s).unwrap(), &ctx(), false)
            .unwrap()
    }

    /// Paper §4.2: the three-way behavioural split for `a:%{d1r}.foo.com`
    /// with sender `user@example.com`.
    #[test]
    fn paper_fingerprint_three_way() {
        // RFC-compliant behaviour.
        let compliant = CompliantExpander
            .expand(
                &MacroString::parse("%{d1r}.foo.com").unwrap(),
                &ctx(),
                false,
            )
            .unwrap();
        assert_eq!(compliant, "example.foo.com");

        // Vulnerable libSPF2 behaviour.
        let mut vulnerable = LibSpf2Expander::vulnerable();
        assert_eq!(
            expand_with(&mut vulnerable, "%{d1r}.foo.com"),
            "com.com.example.foo.com"
        );
        assert!(
            !vulnerable.heap().corrupted(),
            "the lowercase probe must never corrupt memory — that is what \
             makes the remote detection benign"
        );

        // Patched libSPF2 behaves compliantly.
        let mut patched = LibSpf2Expander::patched();
        assert_eq!(
            expand_with(&mut patched, "%{d1r}.foo.com"),
            "example.foo.com"
        );
        assert!(!patched.heap().corrupted());
    }

    #[test]
    fn deeper_domains_duplicate_first_reversed_label() {
        let ctx = MacroContext::new("u", "a.b.c", "192.0.2.3".parse().unwrap());
        let mut vulnerable = LibSpf2Expander::vulnerable();
        let out = vulnerable
            .expand(&MacroString::parse("%{d1r}").unwrap(), &ctx, false)
            .unwrap();
        assert_eq!(out, "c.c.b.a");
        let out2 = vulnerable
            .expand(&MacroString::parse("%{d2r}").unwrap(), &ctx, false)
            .unwrap();
        // Truncation count does not change the mangled output...
        assert_eq!(out2, "c.c.b.a");
    }

    #[test]
    fn reversal_without_truncation_is_correct() {
        let mut vulnerable = LibSpf2Expander::vulnerable();
        assert_eq!(expand_with(&mut vulnerable, "%{dr}"), "com.example");
        assert!(!vulnerable.heap().corrupted());
    }

    #[test]
    fn no_reversal_is_correct() {
        let mut vulnerable = LibSpf2Expander::vulnerable();
        assert_eq!(expand_with(&mut vulnerable, "%{d1}"), "com");
        assert_eq!(expand_with(&mut vulnerable, "%{d}"), "example.com");
        assert!(!vulnerable.heap().corrupted());
    }

    /// CVE-2021-33913: URL encoding + reversal + truncation with a long
    /// domain makes the write pass overrun the undersized allocation.
    #[test]
    fn cve_2021_33913_overflows() {
        let ctx = MacroContext::new(
            "u",
            "label-one.label-two.label-three.label-four.x",
            "192.0.2.3".parse().unwrap(),
        );
        let mut vulnerable = LibSpf2Expander::vulnerable();
        let out = vulnerable
            .expand(&MacroString::parse("%{D1R}").unwrap(), &ctx, false)
            .unwrap();
        // len_var = len("x") = 1 -> alloc 4 bytes; output is the full
        // duplicated reversed string, far larger.
        assert!(out.starts_with("x.x.label-four"));
        assert!(vulnerable.heap().corrupted());
        assert!(vulnerable.heap().max_overrun() > 0);
        assert!(
            vulnerable.heap().max_overrun() <= 100,
            "overrun capped at ~100 bytes as the paper reports"
        );
    }

    /// CVE-2021-33912: URL encoding of bytes >= 0x80 emits %ffffffxx.
    #[test]
    fn cve_2021_33912_sign_extension() {
        // "é" is 0xC3 0xA9 in UTF-8 — both high bytes.
        let ctx = MacroContext::new("caf\u{e9}", "example.com", "192.0.2.3".parse().unwrap());
        let mut vulnerable = LibSpf2Expander::vulnerable();
        let out = vulnerable
            .expand(&MacroString::parse("%{L}").unwrap(), &ctx, false)
            .unwrap();
        assert!(
            out.contains("%ffffffc3") && out.contains("%ffffffa9"),
            "sign-extended escapes, got {out}"
        );
        assert!(
            vulnerable.heap().corrupted(),
            "six extra bytes per high byte overflow the 3-per-byte budget"
        );

        // The patched version encodes correctly and stays in bounds.
        let mut patched = LibSpf2Expander::patched();
        let out = patched
            .expand(&MacroString::parse("%{L}").unwrap(), &ctx, false)
            .unwrap();
        assert_eq!(out, "caf%c3%a9");
        assert!(!patched.heap().corrupted());
    }

    #[test]
    fn low_ascii_escaping_stays_in_bounds() {
        let ctx = MacroContext::new("a/b c", "example.com", "192.0.2.3".parse().unwrap());
        let mut vulnerable = LibSpf2Expander::vulnerable();
        let out = vulnerable
            .expand(&MacroString::parse("%{L}").unwrap(), &ctx, false)
            .unwrap();
        assert_eq!(out, "a%2fb%20c", "lowercase hex, as sprintf %02x emits");
        assert!(!vulnerable.heap().corrupted());
    }

    #[test]
    fn fault_on_overflow_aborts_like_a_crash() {
        let ctx = MacroContext::new("caf\u{e9}", "example.com", "192.0.2.3".parse().unwrap());
        let mut expander = LibSpf2Expander::new(LibSpf2Config {
            version: LibSpf2Version::V1_2_10,
            fault_on_overflow: true,
            overrun_cap: 100,
        });
        let err = expander
            .expand(&MacroString::parse("%{L}").unwrap(), &ctx, false)
            .unwrap_err();
        assert!(matches!(err, ExpandError::ImplementationFault(_)));
    }

    #[test]
    fn overrun_is_capped() {
        // A very long crafted domain would try to run far past the end.
        let long = (0..40)
            .map(|i| format!("l{i}"))
            .collect::<Vec<_>>()
            .join(".");
        let ctx = MacroContext::new("u", &format!("{long}.z"), "192.0.2.3".parse().unwrap());
        let mut vulnerable = LibSpf2Expander::vulnerable();
        let _ = vulnerable
            .expand(&MacroString::parse("%{D1R}").unwrap(), &ctx, false)
            .unwrap();
        assert!(vulnerable.heap().corrupted());
        assert!(vulnerable.heap().max_overrun() <= 100);
    }

    #[test]
    fn heap_reset_between_transactions() {
        let ctx = MacroContext::new("caf\u{e9}", "example.com", "192.0.2.3".parse().unwrap());
        let mut vulnerable = LibSpf2Expander::vulnerable();
        let _ = vulnerable
            .expand(&MacroString::parse("%{L}").unwrap(), &ctx, false)
            .unwrap();
        assert!(vulnerable.heap().corrupted());
        vulnerable.reset_heap();
        assert!(!vulnerable.heap().corrupted());
        assert_eq!(expand_with(&mut vulnerable, "%{d}"), "example.com");
    }

    #[test]
    fn literals_and_escapes_pass_through() {
        let mut vulnerable = LibSpf2Expander::vulnerable();
        assert_eq!(expand_with(&mut vulnerable, "a%%b%_c%-d"), "a%b c%20d");
    }

    #[test]
    fn describe_names_the_version() {
        assert_eq!(LibSpf2Expander::vulnerable().describe(), "libspf2-1.2.10");
        assert_eq!(LibSpf2Expander::patched().describe(), "libspf2-1.2.11");
        assert!(LibSpf2Version::V1_2_10.is_vulnerable());
        assert!(!LibSpf2Version::V1_2_11.is_vulnerable());
    }

    #[test]
    fn custom_delimiters_follow_the_same_buggy_path() {
        let ctx = MacroContext::new("a-b-c", "example.com", "192.0.2.3".parse().unwrap());
        let mut vulnerable = LibSpf2Expander::vulnerable();
        let out = vulnerable
            .expand(&MacroString::parse("%{l1r-}").unwrap(), &ctx, false)
            .unwrap();
        // reversed = [c, b, a]; buggy duplication of first reversed label.
        assert_eq!(out, "c.c.b.a");
    }
}
