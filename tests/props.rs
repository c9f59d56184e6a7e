//! Property-based tests on the core data structures and invariants.
//!
//! The harness is hand-rolled on top of [`SimRng`]: each property runs a
//! fixed number of cases, every case drawing its inputs from a stream
//! forked off a per-property seed. Failures are therefore perfectly
//! reproducible (there is no time- or thread-dependent entropy), and no
//! external property-testing crate is needed.

use spfail::dns::{wire, Message, Name, RData, Record, RecordType};
use spfail::libspf2::{LibSpf2Expander, MemSim};
use spfail::netsim::{EventQueue, Histogram, SimClock, SimDuration, SimRng, SimTime};
use spfail::prober::{partition_hosts, shard_of};
use spfail::trace::{parse_collapsed, Phase, Profile, SpanKind, Trace, TraceConfig, Tracer};
use spfail::smtp::command::Command;
use spfail::smtp::reply::Reply;
use spfail::spf::expand::{
    apply_transform, url_escape, CompliantExpander, MacroContext, MacroExpander,
};
use spfail::spf::macrostring::{MacroString, MacroTransform};
use spfail::spf::record::SpfRecord;
use spfail::world::{HostId, LazyWorld, World, WorldConfig};

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

const CASES: u64 = 64;

/// One deterministic RNG per case, derived from the property's name.
fn cases(property: &str) -> Vec<SimRng> {
    let base = SimRng::new(0x5bf5_fa11).fork(property);
    (0..CASES).map(|i| base.fork_idx("case", i)).collect()
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

const LABEL_START: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
const LABEL_REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";

/// A DNS label: `[a-z0-9][a-z0-9-]{0,14}`.
fn gen_label(rng: &mut SimRng) -> String {
    let mut out = String::new();
    out.push(LABEL_START[rng.below(LABEL_START.len() as u64) as usize] as char);
    for _ in 0..rng.below(15) {
        out.push(LABEL_REST[rng.below(LABEL_REST.len() as u64) as usize] as char);
    }
    out
}

/// A name of 0..6 labels that satisfies the length limits.
fn gen_name(rng: &mut SimRng) -> Name {
    loop {
        let labels: Vec<String> = (0..rng.below(6)).map(|_| gen_label(rng)).collect();
        if let Ok(name) = Name::from_labels(labels) {
            return name;
        }
    }
}

/// A label with each letter independently upper- or lowercased.
fn gen_mixed_label(rng: &mut SimRng) -> String {
    gen_label(rng)
        .chars()
        .map(|c| {
            if rng.chance(0.5) {
                c.to_ascii_uppercase()
            } else {
                c
            }
        })
        .collect()
}

/// The reference model for a name is just its label list; a mixed-case
/// one exercises the canonical-form machinery in the compact [`Name`].
fn gen_mixed_labels(rng: &mut SimRng, max: u64) -> Vec<String> {
    loop {
        let labels: Vec<String> = (0..rng.below(max)).map(|_| gen_mixed_label(rng)).collect();
        if Name::from_labels(&labels).is_ok() {
            return labels;
        }
    }
}

/// A printable-ASCII string of up to `max` characters.
fn gen_printable(rng: &mut SimRng, max: u64) -> String {
    (0..rng.below(max + 1))
        .map(|_| (b' ' + rng.below(95) as u8) as char)
        .collect()
}

fn gen_bytes(rng: &mut SimRng, max: u64) -> Vec<u8> {
    (0..rng.below(max + 1))
        .map(|_| rng.below(256) as u8)
        .collect()
}

fn gen_rdata(rng: &mut SimRng) -> RData {
    match rng.below(7) {
        0 => {
            let octets = [
                rng.below(256) as u8,
                rng.below(256) as u8,
                rng.below(256) as u8,
                rng.below(256) as u8,
            ];
            RData::A(octets.into())
        }
        1 => {
            let mut octets = [0u8; 16];
            for b in &mut octets {
                *b = rng.below(256) as u8;
            }
            RData::Aaaa(octets.into())
        }
        2 => RData::Mx {
            preference: rng.below(u64::from(u16::MAX) + 1) as u16,
            exchange: gen_name(rng),
        },
        3 => RData::txt(&gen_printable(rng, 300)),
        4 => RData::Ns(gen_name(rng)),
        5 => RData::Cname(gen_name(rng)),
        _ => RData::Ptr(gen_name(rng)),
    }
}

fn gen_record(rng: &mut SimRng) -> Record {
    Record::new(gen_name(rng), rng.below(1 << 32) as u32, gen_rdata(rng))
}

// ---------------------------------------------------------------------------
// DNS wire format
// ---------------------------------------------------------------------------

/// encode → decode is the identity for any well-formed message.
#[test]
fn wire_round_trip() {
    for mut rng in cases("wire_round_trip") {
        let id = rng.below(u64::from(u16::MAX) + 1) as u16;
        let qname = gen_name(&mut rng);
        let answers: Vec<Record> = (0..rng.below(6)).map(|_| gen_record(&mut rng)).collect();
        let mut message = Message::query(id, qname, RecordType::TXT);
        message.answers = answers;
        let encoded = wire::encode(&message);
        let decoded = wire::decode(&encoded).expect("well-formed messages decode");
        assert_eq!(decoded, message);
        // Compression must never change the decoded meaning.
        let plain = wire::encode_uncompressed(&message);
        assert_eq!(wire::decode(&plain).expect("decodes"), message);
        assert!(encoded.len() <= plain.len());
    }
}

/// The decoder never panics on arbitrary bytes.
#[test]
fn wire_decode_never_panics() {
    for mut rng in cases("wire_decode_never_panics") {
        let bytes = gen_bytes(&mut rng, 200);
        let _ = wire::decode(&bytes);
    }
}

/// A 12-byte header with `qdcount` questions declared.
fn wire_header(qdcount: u16) -> Vec<u8> {
    let mut out = vec![0u8; 12];
    out[0] = 0x12;
    out[1] = 0x34;
    out[4] = (qdcount >> 8) as u8;
    out[5] = (qdcount & 0xff) as u8;
    out
}

/// A compression pointer aimed at its own first byte must be rejected,
/// not chased forever.
#[test]
fn wire_self_pointer_is_rejected() {
    let mut bytes = wire_header(1);
    // The question name starts at offset 12 and points at offset 12.
    bytes.extend_from_slice(&[0xc0, 12]);
    bytes.extend_from_slice(&[0, 16, 0, 1]); // TXT IN
    assert_eq!(wire::decode(&bytes), Err(wire::WireError::BadPointer));
}

/// Pointers may only move backwards; a forward target is rejected even
/// though it would terminate.
#[test]
fn wire_forward_pointer_is_rejected() {
    let mut bytes = wire_header(1);
    // Points past itself at a perfectly valid root label.
    bytes.extend_from_slice(&[0xc0, 14, 0]);
    bytes.extend_from_slice(&[0, 16, 0, 1]);
    assert_eq!(wire::decode(&bytes), Err(wire::WireError::BadPointer));
}

/// A backwards-only pointer chain that is deeper than the hop limit is
/// cut off: question `i` chases `i` pointers, so 34 questions put the
/// last name at 33 hops — one past the 32-hop cap.
#[test]
fn wire_deep_pointer_chain_is_cut_off() {
    let questions = 34usize;
    let mut bytes = wire_header(questions as u16);
    let mut name_offsets = Vec::new();
    for i in 0..questions {
        name_offsets.push(bytes.len());
        if i == 0 {
            bytes.extend_from_slice(&[1, b'a', 0]);
        } else {
            let target = name_offsets[i - 1];
            bytes.extend_from_slice(&[
                1,
                b'a',
                0xc0 | (target >> 8) as u8,
                (target & 0xff) as u8,
            ]);
        }
        bytes.extend_from_slice(&[0, 16, 0, 1]);
    }
    assert_eq!(wire::decode(&bytes), Err(wire::WireError::BadPointer));
    // One question fewer sits exactly at the cap and decodes fine.
    let questions = 33usize;
    let mut bytes = wire_header(questions as u16);
    let mut name_offsets = Vec::new();
    for i in 0..questions {
        name_offsets.push(bytes.len());
        if i == 0 {
            bytes.extend_from_slice(&[1, b'a', 0]);
        } else {
            let target = name_offsets[i - 1];
            bytes.extend_from_slice(&[
                1,
                b'a',
                0xc0 | (target >> 8) as u8,
                (target & 0xff) as u8,
            ]);
        }
        bytes.extend_from_slice(&[0, 16, 0, 1]);
    }
    let message = wire::decode(&bytes).expect("a chain at the cap decodes");
    assert_eq!(message.questions.len(), 33);
    assert_eq!(message.questions[32].name.label_count(), 33);
}

/// A message that ends in the middle of a pointer (or a label) reports
/// truncation rather than reading out of bounds.
#[test]
fn wire_truncated_pointer_is_rejected() {
    let mut bytes = wire_header(1);
    bytes.push(0xc0); // pointer high byte, then EOF
    assert_eq!(wire::decode(&bytes), Err(wire::WireError::Truncated));

    let mut bytes = wire_header(1);
    bytes.extend_from_slice(&[5, b'a', b'b']); // label claims 5, has 2
    assert_eq!(wire::decode(&bytes), Err(wire::WireError::Truncated));
}

/// The reserved `0b01`/`0b10` label-type prefixes are rejected loudly.
#[test]
fn wire_reserved_label_types_are_rejected() {
    for prefix in [0x40u8, 0x80u8] {
        let mut bytes = wire_header(1);
        bytes.extend_from_slice(&[prefix | 1, b'a', 0]);
        bytes.extend_from_slice(&[0, 16, 0, 1]);
        assert_eq!(
            wire::decode(&bytes),
            Err(wire::WireError::ReservedLabelType(prefix)),
        );
    }
}

/// Mutation fuzz: take a valid (compressed) encoding and corrupt it —
/// random byte flips and truncations. The decoder must always return,
/// and whatever it accepts must re-encode without panicking.
#[test]
fn wire_mutated_messages_never_panic() {
    for mut rng in cases("wire_mutated_messages_never_panic") {
        // Shared suffixes force real compression pointers into the wire.
        let apex = gen_name(&mut rng);
        let mut message = Message::query(
            rng.below(u64::from(u16::MAX) + 1) as u16,
            apex.clone(),
            RecordType::TXT,
        );
        for _ in 0..rng.below(4) {
            let mut record = gen_record(&mut rng);
            if let Ok(child) = apex.child(&gen_label(&mut rng)) {
                record.name = child;
            }
            message.answers.push(record);
        }
        let encoded = wire::encode(&message);

        for _ in 0..8 {
            let mut mutated = encoded.clone();
            match rng.below(3) {
                0 => {
                    let cut = rng.below(mutated.len() as u64 + 1) as usize;
                    mutated.truncate(cut);
                }
                _ => {
                    for _ in 0..1 + rng.below(4) {
                        if mutated.is_empty() {
                            break;
                        }
                        let at = rng.below(mutated.len() as u64) as usize;
                        mutated[at] = rng.below(256) as u8;
                    }
                }
            }
            if let Ok(decoded) = wire::decode(&mutated) {
                let _ = wire::encode(&decoded);
            }
        }
    }
}

/// Name parsing accepts what it produces.
#[test]
fn name_display_parse_round_trip() {
    for mut rng in cases("name_display_parse_round_trip") {
        let name = gen_name(&mut rng);
        let text = name.to_ascii();
        let reparsed = Name::parse(&text).expect("display form parses");
        assert_eq!(reparsed, name);
    }
}

/// Subdomain relations are consistent with concatenation.
#[test]
fn concat_makes_subdomains() {
    for mut rng in cases("concat_makes_subdomains") {
        let prefix = gen_label(&mut rng);
        let base = gen_name(&mut rng);
        if let Ok(child) = base.child(&prefix) {
            assert!(child.is_subdomain_of(&base));
            assert_eq!(child.parent(), base);
            assert_eq!(
                child.strip_suffix(&base).expect("is a subdomain"),
                vec![prefix]
            );
        }
    }
}

/// parse → wire → decode → to_ascii is the identity on the original
/// spelling, even for mixed-case names (the canonical form is for
/// comparisons only — the wire always carries the spelling as typed).
#[test]
fn name_wire_round_trip_preserves_spelling() {
    for mut rng in cases("name_wire_round_trip_preserves_spelling") {
        let labels = gen_mixed_labels(&mut rng, 6);
        let name = Name::from_labels(&labels).expect("generator keeps names legal");
        let text = name.to_ascii();
        let reparsed = Name::parse(&text).expect("display form parses");
        assert_eq!(reparsed.to_ascii(), text, "parse must keep the spelling");
        let mut message = Message::query(7, name.clone(), RecordType::A);
        message.answers = vec![Record::new(name.clone(), 60, RData::txt("x"))];
        for encoded in [wire::encode(&message), wire::encode_uncompressed(&message)] {
            let decoded = wire::decode(&encoded).expect("well-formed messages decode");
            assert_eq!(decoded.question().expect("question").name.to_ascii(), text);
            assert_eq!(decoded.answers[0].name.to_ascii(), text);
        }
    }
}

/// The compact name agrees with a plain `Vec<String>` label model on
/// every structural operation, and its comparisons are case-insensitive
/// where the model's are not.
#[test]
fn name_ops_match_label_list_model() {
    for mut rng in cases("name_ops_match_label_list_model") {
        let model = gen_mixed_labels(&mut rng, 5);
        let name = Name::from_labels(&model).expect("legal");

        // Label iteration reproduces the model exactly.
        let seen: Vec<&str> = name.labels().collect();
        assert_eq!(seen, model.iter().map(String::as_str).collect::<Vec<_>>());
        assert_eq!(name.label_count(), model.len());

        // parent() drops the leftmost label, like the model's tail.
        assert_eq!(
            name.parent().labels().collect::<Vec<_>>(),
            model.iter().skip(1).map(String::as_str).collect::<Vec<_>>()
        );

        // concat() at every split point rebuilds the same name, and
        // strip_suffix() inverts it with the original spelling.
        for split in 0..=model.len() {
            let prefix = Name::from_labels(&model[..split]).expect("legal");
            let suffix = Name::from_labels(&model[split..]).expect("legal");
            let rebuilt = prefix.concat(&suffix).expect("fits");
            assert_eq!(rebuilt, name);
            assert_eq!(rebuilt.to_ascii(), name.to_ascii());
            assert_eq!(name.strip_suffix(&suffix), Some(model[..split].to_vec()));
        }

        // Comparisons fold case; the model's Vec equality does not.
        let folded: Vec<String> = model.iter().map(|l| l.to_ascii_lowercase()).collect();
        let lower = Name::from_labels(&folded).expect("legal");
        assert_eq!(lower, name, "names compare case-insensitively");
        if folded != model {
            assert_ne!(lower.to_ascii(), name.to_ascii(), "spelling is preserved");
        }
    }
}

/// Compression round-trips on pathological messages where many owners
/// share deep suffixes under different spellings.
#[test]
fn compression_round_trips_on_shared_suffixes() {
    for mut rng in cases("compression_round_trips_on_shared_suffixes") {
        // A deep base name every record hangs off.
        let base = Name::from_labels(gen_mixed_labels(&mut rng, 4)).expect("legal");
        let mut message = Message::query(9, base.clone(), RecordType::TXT);
        let mut expected_spellings = vec![base.to_ascii()];
        for _ in 0..rng.range(2, 10) {
            // Walk down a random number of levels from a random ancestor
            // so suffixes repeat at every depth, some respelled.
            let mut owner = base.clone();
            for _ in 0..rng.below(3) {
                owner = owner.parent();
            }
            for _ in 0..rng.below(3) {
                let Ok(child) = owner.child(&gen_mixed_label(&mut rng)) else {
                    break;
                };
                owner = child;
            }
            expected_spellings.push(owner.to_ascii());
            message.answers.push(Record::new(owner, 60, RData::txt("t")));
        }
        let compressed = wire::encode(&message);
        let plain = wire::encode_uncompressed(&message);
        assert!(compressed.len() <= plain.len());
        let decoded = wire::decode(&compressed).expect("decodes");
        assert_eq!(decoded, message, "equality is case-insensitive");
        // Spelling survives modulo compression: a shared suffix takes the
        // spelling of its first occurrence, so compare case-folded.
        for (record, spelling) in decoded.answers.iter().zip(&expected_spellings[1..]) {
            assert_eq!(
                record.name.to_ascii().to_ascii_lowercase(),
                spelling.to_ascii_lowercase()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// SPF macros and records
// ---------------------------------------------------------------------------

/// The macro parser never panics, on anything.
#[test]
fn macro_parse_never_panics() {
    for mut rng in cases("macro_parse_never_panics") {
        let _ = MacroString::parse(&gen_printable(&mut rng, 60));
    }
}

/// The record parser never panics, on anything.
#[test]
fn record_parse_never_panics() {
    for mut rng in cases("record_parse_never_panics") {
        let _ = SpfRecord::parse(&gen_printable(&mut rng, 120));
    }
}

/// Pure literal macro-strings expand to themselves.
#[test]
fn literal_expansion_is_identity() {
    const LITERAL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789.-";
    for mut rng in cases("literal_expansion_is_identity") {
        let input: String = (0..rng.range(1, 41))
            .map(|_| LITERAL[rng.below(LITERAL.len() as u64) as usize] as char)
            .collect();
        let ms = MacroString::parse(&input).expect("literals parse");
        let ctx = MacroContext::new("u", "example.com", "192.0.2.1".parse().expect("ip"));
        let out = CompliantExpander.expand(&ms, &ctx, false).expect("expands");
        assert_eq!(out, input);
    }
}

/// Reversing twice with full retention restores the label order.
#[test]
fn double_reverse_is_identity() {
    for mut rng in cases("double_reverse_is_identity") {
        let labels: Vec<String> = (0..rng.range(1, 6)).map(|_| gen_label(&mut rng)).collect();
        let value = labels.join(".");
        let reverse = MacroTransform {
            digits: None,
            reverse: true,
            delimiters: vec![],
        };
        let once = apply_transform(&value, &reverse);
        let twice = apply_transform(&once, &reverse);
        assert_eq!(twice, value);
    }
}

/// Truncation keeps exactly min(n, len) labels — the *rightmost* ones.
#[test]
fn truncation_keeps_rightmost() {
    for mut rng in cases("truncation_keeps_rightmost") {
        let labels: Vec<String> = (0..rng.range(1, 8)).map(|_| gen_label(&mut rng)).collect();
        let n = rng.range(1, 10) as u32;
        let value = labels.join(".");
        let transform = MacroTransform {
            digits: Some(n),
            reverse: false,
            delimiters: vec![],
        };
        let out = apply_transform(&value, &transform);
        let kept: Vec<&str> = out.split('.').collect();
        let expected = labels.len().min(n as usize);
        assert_eq!(kept.len(), expected);
        assert_eq!(kept.last().copied(), labels.last().map(String::as_str));
    }
}

/// url_escape output contains only unreserved characters and percent
/// escapes, and is decodable back to the input.
#[test]
fn url_escape_is_reversible() {
    for mut rng in cases("url_escape_is_reversible") {
        let input = gen_printable(&mut rng, 40);
        let escaped = url_escape(&input);
        let mut chars = escaped.chars();
        let mut decoded = Vec::new();
        while let Some(c) = chars.next() {
            if c == '%' {
                let hi = chars.next().expect("two hex digits follow %");
                let lo = chars.next().expect("two hex digits follow %");
                decoded
                    .push(u8::from_str_radix(&format!("{hi}{lo}"), 16).expect("valid hex"));
            } else {
                assert!(c.is_ascii_alphanumeric() || "-._~".contains(c));
                decoded.push(c as u8);
            }
        }
        assert_eq!(String::from_utf8(decoded).expect("ascii"), input);
    }
}

/// The vulnerable expander is benign (no heap corruption) whenever no
/// URL escaping is requested — the property the whole measurement
/// methodology rests on.
#[test]
fn vulnerable_expander_is_benign_without_url_escape() {
    for mut rng in cases("vulnerable_expander_is_benign_without_url_escape") {
        let local = {
            let len = rng.range(1, 13) as usize;
            rng.alnum_label(len)
        };
        let domain: String = {
            let labels: Vec<String> =
                (0..rng.range(1, 6)).map(|_| gen_label(&mut rng)).collect();
            labels.join(".")
        };
        let digits = if rng.chance(0.5) {
            Some(rng.range(1, 5) as u32)
        } else {
            None
        };
        let reverse = rng.chance(0.5);
        let macro_text = match (digits, reverse) {
            (Some(n), true) => format!("%{{d{n}r}}"),
            (Some(n), false) => format!("%{{d{n}}}"),
            (None, true) => "%{dr}".to_string(),
            (None, false) => "%{d}".to_string(),
        };
        let ms = MacroString::parse(&macro_text).expect("valid macro");
        let ctx = MacroContext::new(&local, &domain, "192.0.2.1".parse().expect("ip"));
        let mut expander = LibSpf2Expander::vulnerable();
        let _ = expander.expand(&ms, &ctx, false).expect("expansion succeeds");
        assert!(
            !expander.heap().corrupted(),
            "lowercase macros must never corrupt memory"
        );
    }
}

/// Heap overruns are always bounded by the configured cap.
#[test]
fn overruns_are_bounded() {
    for mut rng in cases("overruns_are_bounded") {
        let labels: Vec<String> = (0..rng.range(2, 8)).map(|_| gen_label(&mut rng)).collect();
        let domain = labels.join(".");
        let ms = MacroString::parse("%{D1R}").expect("valid macro");
        let ctx = MacroContext::new("u", &domain, "192.0.2.1".parse().expect("ip"));
        let mut expander = LibSpf2Expander::vulnerable();
        let _ = expander.expand(&ms, &ctx, false).expect("expansion succeeds");
        assert!(expander.heap().max_overrun() <= 100);
    }
}

// ---------------------------------------------------------------------------
// Zone files
// ---------------------------------------------------------------------------

/// render → parse is the identity on zones (modulo record order).
#[test]
fn zonefile_round_trip() {
    use spfail::dns::{parse_zone, render_zone, Zone, ZoneBuilder};
    for mut rng in cases("zonefile_round_trip") {
        let origin = loop {
            let name = gen_name(&mut rng);
            if !name.is_root() {
                break name;
            }
        };
        let mut builder = ZoneBuilder::new(origin.clone());
        for _ in 0..rng.below(8) {
            let label = gen_label(&mut rng);
            let rdata = gen_rdata(&mut rng);
            // Owner must fit under the origin; overlong ones are skipped.
            if let Ok(owner) = origin.child(&label) {
                builder = builder.record(Record::new(owner, 300, rdata));
            }
        }
        let zone = builder.build();
        let rendered = render_zone(&zone);
        let reparsed = parse_zone(&rendered).expect("rendered zones parse");
        assert_eq!(reparsed.origin(), zone.origin());
        let canonical = |z: &Zone| {
            let mut rows: Vec<String> = z.records().map(|r| r.to_string()).collect();
            rows.sort();
            rows
        };
        assert_eq!(canonical(&reparsed), canonical(&zone));
    }
}

/// The zone-file parser never panics on arbitrary printable text.
#[test]
fn zonefile_parse_never_panics() {
    use spfail::dns::parse_zone;
    for mut rng in cases("zonefile_parse_never_panics") {
        let input: String = (0..rng.below(301))
            .map(|_| {
                if rng.chance(0.05) {
                    '\n'
                } else {
                    (b' ' + rng.below(95) as u8) as char
                }
            })
            .collect();
        let _ = parse_zone(&input);
    }
}

// ---------------------------------------------------------------------------
// SMTP
// ---------------------------------------------------------------------------

/// Command render/parse round-trips for addresses the generator emits.
#[test]
fn command_round_trip() {
    for mut rng in cases("command_round_trip") {
        let local = {
            let len = rng.range(1, 11) as usize;
            rng.alnum_label(len)
        };
        let domain: String = {
            let labels: Vec<String> =
                (0..rng.range(1, 4)).map(|_| gen_label(&mut rng)).collect();
            labels.join(".")
        };
        let address =
            spfail::smtp::address::EmailAddress::new(&local, &domain).expect("valid address");
        for command in [
            Command::MailFrom(address.clone()),
            Command::RcptTo(address.clone()),
            Command::Ehlo("probe.test".into()),
        ] {
            assert_eq!(Command::parse(&command.to_line()), Some(command));
        }
    }
}

/// Reply wire round-trip for arbitrary codes and simple texts.
#[test]
fn reply_round_trip() {
    for mut rng in cases("reply_round_trip") {
        let code = rng.range(200, 600) as u16;
        let text = gen_printable(&mut rng, 40);
        let reply = Reply::new(code, &text);
        assert_eq!(Reply::parse(&reply.to_wire()), Some(reply));
    }
}

/// The command parser never panics.
#[test]
fn command_parse_never_panics() {
    for mut rng in cases("command_parse_never_panics") {
        let _ = Command::parse(&gen_printable(&mut rng, 80));
    }
}

// ---------------------------------------------------------------------------
// Simulation substrate
// ---------------------------------------------------------------------------

/// Event queues pop in non-decreasing time order regardless of push order.
#[test]
fn event_queue_orders() {
    for mut rng in cases("event_queue_orders") {
        let times: Vec<u64> = (0..rng.range(1, 100)).map(|_| rng.below(1_000_000)).collect();
        let mut queue = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            queue.push(SimTime::from_micros(t), i);
        }
        let mut last = SimTime::EPOCH;
        let mut count = 0;
        while let Some((at, _)) = queue.pop() {
            assert!(at >= last);
            last = at;
            count += 1;
        }
        assert_eq!(count, times.len());
    }
}

/// Forked RNG streams are reproducible.
#[test]
fn rng_forks_reproducible() {
    use rand::RngCore;
    for mut rng in cases("rng_forks_reproducible") {
        let seed = rng.below(u64::MAX);
        let label = {
            let len = rng.range(1, 11) as usize;
            rng.alnum_label(len)
        };
        let parent = SimRng::new(seed);
        let mut a = parent.fork(&label);
        let mut b = parent.fork(&label);
        for _ in 0..8 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}

/// MemSim never lets an out-of-bounds write corrupt in-bounds data.
#[test]
fn memsim_containment() {
    for mut rng in cases("memsim_containment") {
        let size = rng.range(1, 64) as usize;
        let mut mem = MemSim::new();
        let id = mem.alloc(size);
        let mut shadow = vec![0u8; size];
        for _ in 0..rng.below(64) {
            let offset = rng.below(128) as usize;
            let value = rng.below(256) as u8;
            mem.write(id, offset, value);
            if offset < size {
                shadow[offset] = value;
            }
        }
        assert_eq!(mem.read(id), shadow.as_slice());
        assert!(mem.overflow_events().iter().all(|e| e.offset >= size));
    }
}

// ---------------------------------------------------------------------------
// Campaign sharding
// ---------------------------------------------------------------------------

/// Every host lands in exactly one shard, and the partition covers the
/// input exactly (no drops, no duplicates) for any shard count.
#[test]
fn partition_covers_every_host_exactly_once() {
    for mut rng in cases("partition_covers_every_host_exactly_once") {
        let hosts: Vec<HostId> = {
            let count = rng.below(200);
            let mut ids: Vec<u32> = (0..count).map(|_| rng.below(10_000) as u32).collect();
            ids.sort_unstable();
            ids.dedup();
            ids.into_iter().map(HostId).collect()
        };
        let shards = rng.range(1, 17) as usize;
        let parts = partition_hosts(&hosts, shards);
        assert_eq!(parts.len(), shards);
        let mut seen: Vec<HostId> = parts.iter().flatten().copied().collect();
        seen.sort();
        assert_eq!(seen, hosts, "partition must cover the input exactly");
        for (index, part) in parts.iter().enumerate() {
            for &host in part {
                assert_eq!(shard_of(host, shards), index);
            }
        }
    }
}

/// Merging disjoint shard result maps is order-independent: the merged
/// map is the same whatever order the shards are folded in.
#[test]
fn shard_merge_is_order_independent() {
    use std::collections::HashMap;
    for mut rng in cases("shard_merge_is_order_independent") {
        let hosts: Vec<HostId> = (0..rng.range(1, 120)).map(|h| HostId(h as u32)).collect();
        let shards = rng.range(1, 9) as usize;
        let parts = partition_hosts(&hosts, shards);
        // Each shard computes a per-host value (any deterministic
        // function of the host stands in for a probe outcome).
        let shard_maps: Vec<HashMap<HostId, u64>> = parts
            .iter()
            .map(|part| part.iter().map(|&h| (h, u64::from(h.0) * 31)).collect())
            .collect();
        let merge = |order: &[usize]| -> Vec<(HostId, u64)> {
            let mut merged = HashMap::new();
            for &i in order {
                merged.extend(shard_maps[i].iter().map(|(&h, &v)| (h, v)));
            }
            let mut rows: Vec<(HostId, u64)> = merged.into_iter().collect();
            rows.sort();
            rows
        };
        let forward: Vec<usize> = (0..shards).collect();
        let mut shuffled = forward.clone();
        rng.shuffle(&mut shuffled);
        assert_eq!(merge(&forward), merge(&shuffled));
    }
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

const SPAN_KINDS: [SpanKind; 5] = [
    SpanKind::DnsResolve,
    SpanKind::SmtpSession,
    SpanKind::RetryWait,
    SpanKind::GreylistWait,
    SpanKind::Fault,
];

/// Emit a random properly-nested span tree under the open probe,
/// advancing the clock by random amounts inside and between spans.
fn emit_spans(tracer: &Tracer, clock: &SimClock, rng: &mut SimRng, depth: u64) {
    for _ in 0..rng.below(4) {
        let kind = SPAN_KINDS[rng.below(SPAN_KINDS.len() as u64) as usize];
        tracer.enter(clock.now(), kind);
        clock.advance(SimDuration::from_micros(rng.below(50)));
        if depth < 3 && rng.chance(0.5) {
            emit_spans(tracer, clock, rng, depth + 1);
        }
        clock.advance(SimDuration::from_micros(rng.below(50)));
        tracer.exit(clock.now(), kind, "ok");
        clock.advance(SimDuration::from_micros(rng.below(20)));
    }
}

/// A random multi-probe trace across random phases and identities.
fn gen_trace(rng: &mut SimRng) -> Trace {
    let tracer = Tracer::new(TraceConfig::enabled());
    let clock = SimClock::new();
    for _ in 0..rng.range(1, 8) {
        let phase = match rng.below(3) {
            0 => Phase::Initial,
            1 => Phase::Round(rng.below(127) as u16),
            _ => Phase::Snapshot,
        };
        tracer.set_phase(phase);
        tracer.begin_probe(
            clock.now(),
            rng.below(64) as u32,
            rng.below(127) as u16,
            rng.below(2) as u8,
            rng.below(4) as u32,
        );
        emit_spans(&tracer, &clock, rng, 0);
        clock.advance(SimDuration::from_micros(rng.below(30)));
        tracer.end_probe(clock.now());
        clock.advance(SimDuration::from_micros(rng.below(1000)));
    }
    tracer.finish()
}

/// Spans recorded through the tracer are strictly well-parenthesized
/// per probe, and every child interval is contained in its parent's —
/// checked with an independent stack walker, not the crate's own
/// `validate` (which must agree).
#[test]
fn trace_spans_nest_and_children_stay_inside_parents() {
    for mut rng in cases("trace_spans_nest_and_children_stay_inside_parents") {
        let trace = gen_trace(&mut rng);
        for record in &trace.records {
            record.validate().expect("tracer output is well-formed");

            struct Frame {
                start: u64,
                children: Vec<(u64, u64)>,
            }
            let mut stack = vec![Frame { start: 0, children: Vec::new() }];
            for event in &record.events {
                match &event.kind {
                    spfail::trace::TraceEventKind::Enter { .. } => stack.push(Frame {
                        start: event.at_us,
                        children: Vec::new(),
                    }),
                    spfail::trace::TraceEventKind::Exit { .. } => {
                        let frame = stack.pop().expect("well-parenthesized");
                        assert!(!stack.is_empty(), "exit must not close the probe root");
                        let end = event.at_us;
                        assert!(frame.start <= end);
                        for &(cs, ce) in &frame.children {
                            assert!(
                                cs >= frame.start && ce <= end,
                                "child [{cs}, {ce}] escapes parent [{}, {end}]",
                                frame.start
                            );
                        }
                        stack
                            .last_mut()
                            .expect("parent")
                            .children
                            .push((frame.start, end));
                    }
                }
            }
            assert_eq!(stack.len(), 1, "every span closed");
            for &(cs, ce) in &stack[0].children {
                assert!(cs <= ce && ce <= record.duration_us);
            }
        }
    }
}

/// Histogram merging is associative and commutative with the empty
/// histogram as identity — the algebra per-shard latency aggregation
/// relies on.
#[test]
fn histogram_merge_is_associative_and_commutative() {
    for mut rng in cases("histogram_merge_is_associative_and_commutative") {
        let sample = |rng: &mut SimRng| {
            let mut h = Histogram::default();
            for _ in 0..rng.below(40) {
                let magnitude = 1 << rng.below(40);
                h.record(rng.below(magnitude));
            }
            h
        };
        let (a, b, c) = (sample(&mut rng), sample(&mut rng), sample(&mut rng));
        assert_eq!(a.merge(&b), b.merge(&a));
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        assert_eq!(a.merge(&Histogram::default()), a);
        assert_eq!(Histogram::default().merge(&a), a);
    }
}

/// Profile merging is associative and commutative with the empty
/// profile as identity, and any split of a trace's records profiles to
/// the whole trace's profile.
#[test]
fn profile_merge_is_associative_and_split_invariant() {
    for mut rng in cases("profile_merge_is_associative_and_split_invariant") {
        let trace = gen_trace(&mut rng);
        let whole = trace.profile();

        // Split the records at two random points into three sub-traces.
        let n = trace.records.len();
        let mut cut_a = rng.below(n as u64 + 1) as usize;
        let mut cut_b = rng.below(n as u64 + 1) as usize;
        if cut_a > cut_b {
            std::mem::swap(&mut cut_a, &mut cut_b);
        }
        let part = |range: std::ops::Range<usize>| Trace {
            records: trace.records[range].to_vec(),
        }
        .profile();
        let (a, b, c) = (part(0..cut_a), part(cut_a..cut_b), part(cut_b..n));

        assert_eq!(a.merge(&b), b.merge(&a));
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        assert_eq!(a.merge(&b).merge(&c), whole, "splits merge to the whole");
        assert_eq!(whole.merge(&Profile::default()), whole);
        assert_eq!(Profile::default().merge(&whole), whole);
    }
}

/// Collapsed-stack output parses back to exactly the nonzero self-time
/// rows of the profile it came from.
#[test]
fn collapsed_stack_output_round_trips() {
    for mut rng in cases("collapsed_stack_output_round_trips") {
        let profile = gen_trace(&mut rng).profile();
        let collapsed = profile.to_collapsed();
        let parsed = parse_collapsed(&collapsed).expect("own output parses");
        let expected: Vec<(String, u64)> = profile
            .rows()
            .filter(|(_, row)| row.self_us > 0)
            .map(|(path, row)| (path.to_string(), row.self_us))
            .collect();
        assert_eq!(parsed, expected);
        // And the rendering of the parse equals the original text.
        let rerendered: String = parsed
            .iter()
            .map(|(path, count)| format!("{path} {count}\n"))
            .collect();
        assert_eq!(rerendered, collapsed);
    }
}

/// Per-shard derived RNG streams never collide: distinct shard indices
/// always yield observably different streams.
#[test]
fn derived_shard_rng_streams_are_distinct() {
    use rand::RngCore;
    for mut rng in cases("derived_shard_rng_streams_are_distinct") {
        let seed = rng.below(u64::MAX);
        let parent = SimRng::new(seed);
        let prefixes: Vec<Vec<u64>> = (0..16)
            .map(|i| {
                let mut stream = parent.fork_idx("shard", i);
                (0..8).map(|_| stream.next_u64()).collect()
            })
            .collect();
        for i in 0..prefixes.len() {
            for j in (i + 1)..prefixes.len() {
                assert_ne!(
                    prefixes[i], prefixes[j],
                    "shards {i} and {j} drew identical streams"
                );
            }
        }
    }
}

/// Lazy world synthesis is the eager generator, record for record: for
/// random seeds and scales, driving [`LazyWorld`] emits every domain and
/// every host of [`World::generate`] with identical contents, in id
/// order, each host exactly once.
#[test]
fn lazy_world_synthesis_matches_eager_generation() {
    // World generation is the expensive part of a case; a smaller case
    // count at varied scales covers the pool/cursor state machine
    // (shared hosting, parking, providers) across its regimes.
    for mut rng in cases("lazy_world_synthesis_matches_eager_generation").into_iter().take(12) {
        let seed = rng.below(u64::MAX);
        let scale = 0.001 + 0.004 * rng.below(1 << 16) as f64 / f64::from(1 << 16);
        let config = WorldConfig {
            scale,
            ..WorldConfig::small(seed)
        };
        let world = World::generate(config.clone());
        let mut hosts_seen = 0usize;
        let mut domains_seen = 0usize;
        for step in LazyWorld::new(config) {
            // The records carry no PartialEq; their Debug form is a
            // complete field dump, so string equality is field equality.
            assert_eq!(
                format!("{:?}", step.domain),
                format!("{:?}", world.domain(step.id)),
                "seed {seed}, scale {scale}: domain {:?}",
                step.id
            );
            assert_eq!(step.first_fresh.0 as usize, hosts_seen, "fresh ids are dense");
            for (offset, fresh) in step.fresh.iter().enumerate() {
                let id = HostId(step.first_fresh.0 + offset as u32);
                assert_eq!(
                    format!("{fresh:?}"),
                    format!("{:?}", world.host(id)),
                    "seed {seed}, scale {scale}: host {id:?}"
                );
            }
            hosts_seen += step.fresh.len();
            domains_seen += 1;
        }
        assert_eq!(domains_seen, world.domains.len());
        assert_eq!(hosts_seen, world.hosts.len());
    }
}
