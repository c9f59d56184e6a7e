//! The DNS substrate as a standalone toolbox: parse a master file and
//! render the zone back in canonical form.
//!
//! ```text
//! cargo run -p spfail --example dns_toolbox
//! ```

use spfail::dns::{parse_zone, render_zone};

fn main() {
    let zone_text = concat!(
        "$ORIGIN dns-lab.org.\n",
        "$TTL 300\n",
        "@      IN SOA  ns1 hostmaster 2021101101 7200 3600 1209600 300\n",
        "@      IN NS   ns1\n",
        "ns1    IN A    192.0.2.3\n",
        "probe  IN A    203.0.113.25\n",
        "@      IN TXT  \"v=spf1 ip4:203.0.113.25 -all\"\n",
    );
    let zone = parse_zone(zone_text).expect("valid zone file");
    println!(
        "parsed {} with {} records; canonical form:",
        zone.origin(),
        zone.records().count()
    );
    print!("{}", render_zone(&zone));
}
