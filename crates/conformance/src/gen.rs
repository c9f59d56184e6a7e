//! The structure-aware case generator.
//!
//! Cases are derived deterministically from `(seed, index)` via the
//! simulation's splittable [`SimRng`], so a failing index reproduces
//! forever. The grammar aims every knob the divergence surface has:
//! mechanism mix and qualifiers, `redirect=`/`exp=`, macro letters with
//! digits/reversal/custom delimiters/url-escaping, exp-only letters,
//! pathological label lengths, include chains past the lookup limit, and
//! void-lookup pileups. Zone fixtures are planted at the *compliant* and
//! the *vulnerable-libSPF2* expansions of generated macro specs (plus
//! occasional wildcards), so the differential actually has records to
//! disagree about rather than collapsing into uniform NXDOMAIN.

use std::net::{IpAddr, Ipv4Addr};

use spfail_libspf2::LibSpf2Expander;
use spfail_netsim::SimRng;
use spfail_spf::expand::{CompliantExpander, MacroContext, MacroExpander};
use spfail_spf::macrostring::MacroString;

use crate::case::{ConformanceCase, FixtureData, FixtureRecord};

/// Generate case number `index` of the stream identified by `seed`.
pub fn generate_case(seed: u64, index: u64) -> ConformanceCase {
    let mut rng = SimRng::new(seed).fork_idx("conformance-case", index);
    Gen::new(&mut rng, index).build()
}

const TLDS: &[&str] = &["com", "org", "net", "test", "co.uk"];

const SENDER_LOCALS: &[&str] = &[
    "user",
    "strong-bad",
    "a.b.c",
    "a/b",
    "caf\u{e9}",
    "tilde~x_y",
    "UPPER-Case",
    "admin+tag",
    "caf\u{e9}-caf\u{e9}-caf\u{e9}",
];

const CLIENT_IPS: &[&str] = &[
    "192.0.2.3",
    "192.0.2.77",
    "198.51.100.9",
    "203.0.113.200",
    "2001:db8::1",
    "2001:db8:0:1::5",
];

const EXPLANATIONS: &[&str] = &[
    "%{i} is not allowed to send mail from %{d}",
    "see http://%{d}/why.html?s=%{S}",
    "%{c} rejected by %{r} at %{t}",
    "access denied",
    "blocked: %{I} via %{H}",
];

struct Gen<'a> {
    rng: &'a mut SimRng,
    case: ConformanceCase,
    anchor: String,
}

impl<'a> Gen<'a> {
    fn new(rng: &'a mut SimRng, index: u64) -> Gen<'a> {
        let anchor = format!("z{}.{}", rng.alnum_label(4), rng.pick(TLDS));
        let sender_domain = {
            let mut labels = Vec::new();
            for _ in 0..rng.range(1, 4) {
                let label = if rng.chance(0.04) {
                    "x".repeat(63)
                } else if rng.chance(0.1) {
                    // Mixed case exercises spelling-preserving comparison.
                    let len = rng.range(2, 8) as usize;
                    let mut l = rng.alnum_label(len);
                    l.make_ascii_uppercase();
                    l
                } else {
                    let len = rng.range(1, 10) as usize;
                    rng.alnum_label(len)
                };
                labels.push(label);
            }
            format!("{}.{}", labels.join("."), rng.pick(TLDS))
        };
        let client_ip: IpAddr = rng
            .pick(CLIENT_IPS)
            .parse()
            .expect("CLIENT_IPS holds only literal addresses");
        let sender_local = rng.pick(SENDER_LOCALS).to_string();
        let case = ConformanceCase::new(
            &format!("gen-{index}"),
            client_ip,
            &sender_local,
            &sender_domain,
        );
        Gen { rng, case, anchor }
    }

    fn build(mut self) -> ConformanceCase {
        let domain = self.case.sender_domain.clone();
        if self.rng.chance(0.04) {
            self.broken_policy(&domain);
        } else if self.rng.chance(0.05) {
            self.include_chain(&domain);
        } else if self.rng.chance(0.05) {
            self.void_pileup(&domain);
        } else {
            self.policy(&domain, 0);
        }
        if self.rng.chance(0.25) {
            self.noise();
        }
        self.case
    }

    fn push(&mut self, owner: &str, data: FixtureData) {
        self.case.records.push(FixtureRecord {
            owner: owner.to_string(),
            data,
        });
    }

    // ---- malformed / limit-stressing shapes (uniform across profiles) ----

    fn broken_policy(&mut self, domain: &str) {
        if self.rng.chance(0.25) {
            // Two SPF records at one owner: permerror per RFC 7208 §4.5.
            self.push(domain, FixtureData::Txt("v=spf1 +all".to_string()));
            self.push(domain, FixtureData::Txt("v=spf1 -all".to_string()));
            return;
        }
        let broken = [
            "v=spf1 frob:x.test -all",
            "v=spf1 a:%{q}.test -all",
            "v=spf1 redirect=r1.test redirect=r2.test",
            "v=spf1 exp=e1.test exp=e2.test -all",
            "v=spf1 ip4:999.0.2.0/24 -all",
            "v=spf1 ip4:192.0.2.0/40 -all",
        ];
        let text = *self.rng.pick(&broken);
        self.push(domain, FixtureData::Txt(text.to_string()));
    }

    fn include_chain(&mut self, domain: &str) {
        // Chains up to 12 links cross the 10-term lookup limit.
        let len = self.rng.range(2, 13) as usize;
        let links: Vec<String> = (0..len)
            .map(|i| format!("c{i}{}.{}", self.rng.alnum_label(2), self.anchor))
            .collect();
        let terminal = if self.rng.chance(0.5) { "+all" } else { "-all" };
        self.push(
            domain,
            FixtureData::Txt(format!("v=spf1 include:{} -all", links[0])),
        );
        for i in 0..len {
            let policy = if i + 1 < len {
                format!("v=spf1 include:{} -all", links[i + 1])
            } else {
                format!("v=spf1 {terminal}")
            };
            self.push(&links[i].clone(), FixtureData::Txt(policy));
        }
    }

    fn void_pileup(&mut self, domain: &str) {
        // Three void lookups cross the RFC limit of two.
        let policy = format!(
            "v=spf1 exists:v1.{a} exists:v2.{a} exists:v3.{a} +all",
            a = self.anchor
        );
        self.push(domain, FixtureData::Txt(policy));
    }

    // ---- the general policy grammar ----

    fn policy(&mut self, domain: &str, depth: usize) {
        let mut terms: Vec<String> = Vec::new();
        let n = self.rng.range(1, 5);
        for _ in 0..n {
            let term = self.mechanism(domain, depth);
            terms.push(term);
        }
        if self.rng.chance(0.75) {
            terms.push(format!("{}all", self.qualifier()));
        }
        if self.rng.chance(0.18) {
            let target = self.exp_target();
            terms.push(format!("exp={target}"));
        }
        if self.rng.chance(0.1) && depth < 3 {
            let target = format!("r{}.{}", self.rng.alnum_label(3), self.anchor);
            self.policy(&target.clone(), depth + 1);
            terms.push(format!("redirect={target}"));
        }
        if self.rng.chance(0.08) {
            terms.push(format!(
                "x-{}={}",
                self.rng.alnum_label(3),
                self.rng.alnum_label(5)
            ));
        }
        let policy = format!("v=spf1 {}", terms.join(" "));
        self.push(domain, FixtureData::Txt(policy));
    }

    fn qualifier(&mut self) -> &'static str {
        match self
            .rng
            .pick_weighted(&[0.55, 0.16, 0.12, 0.09, 0.08])
            .expect("weight table is non-empty and finite")
        {
            0 => "",
            1 => "-",
            2 => "~",
            3 => "?",
            _ => "+",
        }
    }

    fn mechanism(&mut self, domain: &str, depth: usize) -> String {
        let q = self.qualifier();
        match self
            .rng
            .pick_weighted(&[24.0, 7.0, 15.0, 7.0, 22.0, 9.0, 4.0])
            .expect("weight table is non-empty and finite")
        {
            0 => {
                // ip4, matching the client about half the time.
                if let (IpAddr::V4(ip), true) = (self.case.client_ip, self.rng.chance(0.5)) {
                    let cidr = *self.rng.pick(&[32u8, 28, 24]);
                    format!("{q}ip4:{ip}/{cidr}")
                } else {
                    format!("{q}ip4:203.0.113.0/26")
                }
            }
            1 => {
                if let (IpAddr::V6(ip), true) = (self.case.client_ip, self.rng.chance(0.5)) {
                    format!("{q}ip6:{ip}/64")
                } else {
                    format!("{q}ip6:2001:db8:9999::/48")
                }
            }
            2 => {
                // a, with optional target and prefix lengths.
                let target = if self.rng.chance(0.6) {
                    let spec = self.domain_spec(domain);
                    format!(":{spec}")
                } else {
                    // Bare `a` checks the current domain itself.
                    if self.rng.chance(0.5) {
                        self.plant_address(domain);
                    }
                    String::new()
                };
                let cidr = if self.rng.chance(0.25) { "/24" } else { "" };
                format!("{q}a{target}{cidr}")
            }
            3 => {
                let exchange = format!("mx{}.{}", self.rng.alnum_label(2), self.anchor);
                let owner = if self.rng.chance(0.7) {
                    domain.to_string()
                } else {
                    format!("m{}.{}", self.rng.alnum_label(3), self.anchor)
                };
                self.push(&owner.clone(), FixtureData::Mx(10, exchange.clone()));
                if self.rng.chance(0.7) {
                    self.plant_address(&exchange);
                }
                if owner == domain {
                    format!("{q}mx")
                } else {
                    format!("{q}mx:{owner}")
                }
            }
            4 => {
                let spec = self.domain_spec(domain);
                format!("{q}exists:{spec}")
            }
            5 => {
                // include, recursing into a planted sub-policy.
                if depth < 3 && self.rng.chance(0.75) {
                    let target = format!("i{}.{}", self.rng.alnum_label(3), self.anchor);
                    self.policy(&target.clone(), depth + 1);
                    format!("{q}include:{target}")
                } else if self.rng.chance(0.5) {
                    // Macro include: the profiles fetch *different* targets.
                    let spec = self.macro_spec(domain, true);
                    format!("{q}include:{spec}")
                } else {
                    // Dangling include: no record at the target.
                    format!(
                        "{q}include:dangling{}.{}",
                        self.rng.alnum_label(2),
                        self.anchor
                    )
                }
            }
            _ => {
                // ptr (deprecated, rare) for v4 clients; otherwise a long
                // pathological literal target.
                if let IpAddr::V4(ip) = self.case.client_ip {
                    let o = ip.octets();
                    let reverse = format!("{}.{}.{}.{}.in-addr.arpa", o[3], o[2], o[1], o[0]);
                    let host = format!("host{}.{}", self.rng.alnum_label(2), self.anchor);
                    self.push(&reverse, FixtureData::Ptr(host.clone()));
                    if self.rng.chance(0.7) {
                        self.push(&host, FixtureData::A(ip));
                    }
                    format!("{q}ptr")
                } else {
                    let label = "y".repeat(*self.rng.pick(&[63usize, 64]));
                    format!("{q}exists:{label}.{}", self.anchor)
                }
            }
        }
    }

    /// A mechanism target: a plain planted name or a macro spec.
    fn domain_spec(&mut self, domain: &str) -> String {
        if self.rng.chance(0.55) {
            self.macro_spec(domain, false)
        } else {
            let name = format!("p{}.{}", self.rng.alnum_label(4), self.anchor);
            if self.rng.chance(0.6) {
                self.plant_address(&name);
            }
            name
        }
    }

    fn macro_token(&mut self) -> String {
        let lower = ['s', 'l', 'o', 'd', 'i', 'v', 'h'];
        let exp_only = ['c', 'r', 't'];
        let mut letter = *self.rng.pick(&lower);
        if self.rng.chance(0.05) {
            letter = *self.rng.pick(&exp_only);
        }
        if self.rng.chance(0.3) {
            letter = letter.to_ascii_uppercase();
        }
        let mut body = letter.to_string();
        if self.rng.chance(0.45) {
            body.push_str(&self.rng.pick(&[1u32, 1, 2, 3, 9]).to_string());
        }
        if self.rng.chance(0.45) {
            body.push('r');
        }
        if self.rng.chance(0.2) {
            for delim in ['-', '+', '/', '_', '='] {
                if self.rng.chance(0.3) {
                    body.push(delim);
                }
            }
        }
        format!("%{{{body}}}")
    }

    /// Build a macro-bearing domain-spec and plant fixtures at the
    /// expansions the differential will actually query.
    fn macro_spec(&mut self, eval_domain: &str, plant_policies: bool) -> String {
        let mut spec = String::new();
        for i in 0..self.rng.range(1, 3) {
            if i > 0 {
                spec.push('.');
            }
            if self.rng.chance(0.8) {
                spec.push_str(&self.macro_token());
            } else {
                spec.push_str(&self.rng.alnum_label(3));
            }
        }
        if self.rng.chance(0.08) {
            let escape = *self.rng.pick(&["%%", "%-", "%_"]);
            spec.push_str(escape);
        }
        let spec = format!("{spec}.{}", self.anchor);
        let Ok(ms) = MacroString::parse(&spec) else {
            // Grammar slipped outside the macro syntax; fall back to a
            // plain (unplanted) name so the case stays valid.
            return format!("f.{}", self.anchor);
        };
        let mut ctx = MacroContext::new(
            &self.case.sender_local,
            &self.case.sender_domain,
            self.case.client_ip,
        );
        ctx.domain = eval_domain.to_string();
        let mut targets = Vec::new();
        if let Ok(expanded) = CompliantExpander.expand(&ms, &ctx, false) {
            targets.push((expanded, 0.7));
        }
        let mut vulnerable = LibSpf2Expander::vulnerable();
        if let Ok(expanded) = vulnerable.expand(&ms, &ctx, false) {
            targets.push((expanded, 0.45));
        }
        // The no-expansion profile queries the literal spec.
        targets.push((spec.clone(), 0.2));
        for (target, p) in targets {
            if self.rng.chance(p) {
                if plant_policies {
                    self.push(&target, FixtureData::Txt("v=spf1 -all".to_string()));
                } else {
                    self.plant_address(&target);
                }
            }
        }
        if !plant_policies && self.rng.chance(0.1) {
            let wildcard = format!("*.{}", self.anchor);
            self.plant_address(&wildcard);
        }
        spec
    }

    fn exp_target(&mut self) -> String {
        let target = format!("e{}.{}", self.rng.alnum_label(3), self.anchor);
        if self.rng.chance(0.8) {
            let text = *self.rng.pick(EXPLANATIONS);
            self.push(&target, FixtureData::Txt(text.to_string()));
        }
        target
    }

    fn plant_address(&mut self, owner: &str) {
        match self.case.client_ip {
            IpAddr::V4(ip) => {
                let addr = if self.rng.chance(0.7) {
                    ip
                } else {
                    Ipv4Addr::new(127, 0, 0, 9)
                };
                self.push(owner, FixtureData::A(addr));
            }
            IpAddr::V6(ip) => {
                if self.rng.chance(0.7) {
                    self.push(owner, FixtureData::Aaaa(ip));
                } else {
                    self.push(owner, FixtureData::A(Ipv4Addr::new(127, 0, 0, 9)));
                }
            }
        }
    }

    fn noise(&mut self) {
        for _ in 0..self.rng.range(1, 4) {
            let name = format!("n{}.{}", self.rng.alnum_label(4), self.anchor);
            match self.rng.below(4) {
                0 => self.plant_address(&name),
                1 => {
                    let text = format!("unrelated text {}", self.rng.alnum_label(6));
                    self.push(&name, FixtureData::Txt(text));
                }
                2 => {
                    let real = format!("real{}.{}", self.rng.alnum_label(2), self.anchor);
                    self.plant_address(&real);
                    self.push(&name, FixtureData::Cname(real));
                }
                _ => {
                    let exchange = format!("mxn{}.{}", self.rng.alnum_label(2), self.anchor);
                    self.push(&name, FixtureData::Mx(20, exchange));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate_case(42, 7);
        let b = generate_case(42, 7);
        assert_eq!(a, b);
        let c = generate_case(42, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn generated_cases_cover_the_grammar() {
        let mut saw_macro = false;
        let mut saw_redirect_or_exp = false;
        let mut saw_v6 = false;
        let mut saw_policy = false;
        for index in 0..200 {
            let case = generate_case(0x5bf5_fa11, index);
            saw_v6 |= case.client_ip.is_ipv6();
            for (_, content) in case.txt_contents() {
                if content.starts_with("v=spf1") {
                    saw_policy = true;
                    saw_macro |= content.contains("%{");
                    saw_redirect_or_exp |=
                        content.contains("redirect=") || content.contains("exp=");
                }
            }
        }
        assert!(saw_policy && saw_macro && saw_redirect_or_exp && saw_v6);
    }
}
