//! RFC 1035 wire format: encoding and decoding of complete messages,
//! including name compression on encode and compression-pointer chasing
//! (with loop protection) on decode.
//!
//! The simulation mostly passes [`Message`] values around in memory, but
//! everything that crosses a simulated link is round-tripped through this
//! codec in tests and charged by its encoded size, keeping the substrate
//! honest about what would actually fit on the wire.

use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

use bytes::{Buf, BufMut, BytesMut};

use crate::message::{Header, Message, Opcode, Question, Rcode};
use crate::name::{Name, NameError, MAX_NAME_LEN};
use crate::rdata::{RData, Record, RecordClass, RecordType, Soa};

/// Maximum compression-pointer hops tolerated while decoding one name.
const MAX_POINTER_HOPS: usize = 32;

/// Largest offset a 14-bit compression pointer can address (RFC 1035
/// §4.1.4). Labels written beyond it are never remembered as targets.
const MAX_POINTER_TARGET: usize = 0x3fff;

/// Errors decoding a wire-format message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the structure was complete.
    Truncated,
    /// A compression pointer pointed at or past its own position, or the
    /// hop limit was exceeded.
    BadPointer,
    /// An invalid label was encountered.
    BadName(NameError),
    /// A label length octet used the reserved `0b10`/`0b01` prefixes.
    ReservedLabelType(u8),
    /// Record data did not match its declared length.
    BadRdata,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadPointer => write!(f, "bad compression pointer"),
            WireError::BadName(e) => write!(f, "bad name: {e}"),
            WireError::ReservedLabelType(b) => write!(f, "reserved label type 0x{b:02x}"),
            WireError::BadRdata => write!(f, "rdata length mismatch"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<NameError> for WireError {
    fn from(e: NameError) -> Self {
        WireError::BadName(e)
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Message encoder with RFC 1035 §4.1.4 name compression.
///
/// Compression never allocates per name: instead of keying a map with
/// joined suffix `String`s, the encoder remembers the buffer offset of
/// every label it writes and matches new names' canonical suffix *bytes*
/// against the label sequences already in the buffer (chasing pointers,
/// comparing case-insensitively). First occurrence wins, exactly like the
/// old string-keyed scheme, and every emitted pointer target is by
/// construction a previously written offset `<= 0x3FFF` — i.e. strictly
/// less than the current position.
pub struct Encoder {
    buf: BytesMut,
    /// Offsets into `buf` of every label start already written, limited
    /// to those a 14-bit pointer can address.
    label_offsets: Vec<u16>,
    compress: bool,
}

impl Encoder {
    /// A new encoder. `compress` controls name compression
    /// ([`encode_uncompressed`] is the uncompressed reference).
    pub fn new(compress: bool) -> Encoder {
        Encoder {
            buf: BytesMut::with_capacity(512),
            // lint:allow(alloc-hot-path) Vec::new is allocation-free; offsets only grow when compression actually records labels
            label_offsets: Vec::new(),
            compress,
        }
    }

    /// Encode a complete message.
    pub fn encode(mut self, message: &Message) -> Vec<u8> {
        self.put_header(message);
        for q in &message.questions {
            self.put_name(&q.name);
            self.buf.put_u16(q.qtype.code());
            self.buf.put_u16(q.qclass.code());
        }
        for r in &message.answers {
            self.put_record(r);
        }
        for r in &message.authorities {
            self.put_record(r);
        }
        for r in &message.additionals {
            self.put_record(r);
        }
        // lint:allow(alloc-hot-path) one terminal copy hands the finished message to the caller; per-label work stays in buf
        self.buf.to_vec()
    }

    fn put_header(&mut self, m: &Message) {
        let h = &m.header;
        self.buf.put_u16(h.id);
        let mut flags: u16 = 0;
        if h.response {
            flags |= 1 << 15;
        }
        flags |= u16::from(h.opcode.code()) << 11;
        if h.authoritative {
            flags |= 1 << 10;
        }
        if h.truncated {
            flags |= 1 << 9;
        }
        if h.recursion_desired {
            flags |= 1 << 8;
        }
        if h.recursion_available {
            flags |= 1 << 7;
        }
        flags |= u16::from(h.rcode.code());
        self.buf.put_u16(flags);
        self.buf.put_u16(m.questions.len() as u16);
        self.buf.put_u16(m.answers.len() as u16);
        self.buf.put_u16(m.authorities.len() as u16);
        self.buf.put_u16(m.additionals.len() as u16);
    }

    fn put_name(&mut self, name: &Name) {
        let bytes = name.wire_bytes();
        let canon = name.canonical_bytes();
        let mut pos = 0usize;
        while pos < bytes.len() {
            if self.compress {
                if let Some(offset) = self.find_suffix(&canon[pos..]) {
                    self.buf.put_u16(0xc000 | offset);
                    return;
                }
                let here = self.buf.len();
                // Pointers carry 14 offset bits; labels beyond 0x3FFF are
                // written but never remembered as targets.
                if here <= MAX_POINTER_TARGET {
                    self.label_offsets.push(here as u16);
                }
            }
            let len = bytes[pos] as usize;
            self.buf.put_slice(&bytes[pos..pos + 1 + len]);
            pos += 1 + len;
        }
        self.buf.put_u8(0);
    }

    /// Offset of an already-written label sequence equal (per canonical
    /// bytes) to `suffix`, if any. Candidates are scanned oldest-first so
    /// the first occurrence of a suffix stays the compression target.
    fn find_suffix(&self, suffix: &[u8]) -> Option<u16> {
        'candidates: for &off in &self.label_offsets {
            let mut pos = off as usize;
            let mut si = 0usize;
            let mut hops = 0usize;
            loop {
                if si == suffix.len() {
                    // The candidate must terminate exactly where the
                    // suffix does: a root octet here means a whole-suffix
                    // match, anything else a longer name.
                    match self.buf.get(pos) {
                        Some(0) => return Some(off),
                        _ => continue 'candidates,
                    }
                }
                let b = match self.buf.get(pos) {
                    Some(&b) => b,
                    None => continue 'candidates,
                };
                if b & 0xc0 == 0xc0 {
                    // Previously written names may themselves end in a
                    // pointer; follow it (targets always point backwards).
                    let lo = self.buf[pos + 1] as usize;
                    let target = ((b as usize & 0x3f) << 8) | lo;
                    hops += 1;
                    if target >= pos || hops > MAX_POINTER_HOPS {
                        continue 'candidates;
                    }
                    pos = target;
                    continue;
                }
                if b == 0 {
                    // Candidate ended before the suffix was consumed.
                    continue 'candidates;
                }
                let len = b as usize;
                // `suffix` is validly framed, so its length octet sits at
                // `si` and the content fits; length octets (<= 63) never
                // collide with the case fold.
                if suffix[si] != b {
                    continue 'candidates;
                }
                for k in 0..len {
                    if self.buf[pos + 1 + k].to_ascii_lowercase() != suffix[si + 1 + k] {
                        continue 'candidates;
                    }
                }
                pos += 1 + len;
                si += 1 + len;
            }
        }
        None
    }

    fn put_record(&mut self, r: &Record) {
        self.put_name(&r.name);
        self.buf.put_u16(r.record_type().code());
        self.buf.put_u16(r.class.code());
        self.buf.put_u32(r.ttl);
        // Reserve the RDLENGTH slot, write the data, then backfill.
        let len_pos = self.buf.len();
        self.buf.put_u16(0);
        let data_start = self.buf.len();
        self.put_rdata(&r.rdata);
        let rdlen = (self.buf.len() - data_start) as u16;
        self.buf[len_pos..len_pos + 2].copy_from_slice(&rdlen.to_be_bytes());
    }

    fn put_rdata(&mut self, rdata: &RData) {
        match rdata {
            RData::A(ip) => self.buf.put_slice(&ip.octets()),
            RData::Aaaa(ip) => self.buf.put_slice(&ip.octets()),
            RData::Mx {
                preference,
                exchange,
            } => {
                self.buf.put_u16(*preference);
                self.put_name(exchange);
            }
            RData::Txt(parts) => {
                for p in parts {
                    self.buf.put_u8(p.len().min(255) as u8);
                    self.buf.put_slice(&p.as_bytes()[..p.len().min(255)]);
                }
            }
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => self.put_name(n),
            RData::Soa(soa) => {
                self.put_name(&soa.mname);
                self.put_name(&soa.rname);
                self.buf.put_u32(soa.serial);
                self.buf.put_u32(soa.refresh);
                self.buf.put_u32(soa.retry);
                self.buf.put_u32(soa.expire);
                self.buf.put_u32(soa.minimum);
            }
            RData::Opaque(bytes) => self.buf.put_slice(bytes),
        }
    }
}

/// Encode `message` with name compression enabled.
pub fn encode(message: &Message) -> Vec<u8> {
    Encoder::new(true).encode(message)
}

/// Encode `message` without name compression.
pub fn encode_uncompressed(message: &Message) -> Vec<u8> {
    Encoder::new(false).encode(message)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }

    fn take_u8(&mut self) -> Result<u8, WireError> {
        if self.remaining() < 1 {
            return Err(WireError::Truncated);
        }
        let b = self.data[self.pos];
        self.pos += 1;
        Ok(b)
    }

    fn take_u16(&mut self) -> Result<u16, WireError> {
        if self.remaining() < 2 {
            return Err(WireError::Truncated);
        }
        let mut slice = &self.data[self.pos..];
        self.pos += 2;
        Ok(slice.get_u16())
    }

    fn take_u32(&mut self) -> Result<u32, WireError> {
        if self.remaining() < 4 {
            return Err(WireError::Truncated);
        }
        let mut slice = &self.data[self.pos..];
        self.pos += 4;
        Ok(slice.get_u32())
    }

    fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Decode a possibly compressed name starting at the current position.
    /// Labels are accumulated directly in wire form on the stack; the only
    /// allocation is the one the resulting [`Name`] itself may need.
    fn take_name(&mut self) -> Result<Name, WireError> {
        let mut wire = [0u8; MAX_NAME_LEN];
        let mut wlen = 0usize;
        let mut pos = self.pos;
        let mut jumped = false;
        let mut hops = 0;
        loop {
            let len = *self.data.get(pos).ok_or(WireError::Truncated)? as usize;
            match len & 0xc0 {
                0x00 => {
                    if len == 0 {
                        if !jumped {
                            self.pos = pos + 1;
                        }
                        return Name::from_wire(&wire[..wlen]).map_err(WireError::BadName);
                    }
                    let bytes = self
                        .data
                        .get(pos + 1..pos + 1 + len)
                        .ok_or(WireError::Truncated)?;
                    if wlen + 1 + len > MAX_NAME_LEN - 1 {
                        return Err(WireError::BadName(NameError::NameTooLong));
                    }
                    wire[wlen] = len as u8;
                    wire[wlen + 1..wlen + 1 + len].copy_from_slice(bytes);
                    wlen += 1 + len;
                    pos += 1 + len;
                }
                0xc0 => {
                    let second = *self.data.get(pos + 1).ok_or(WireError::Truncated)?;
                    let target = ((len & 0x3f) << 8) | second as usize;
                    // Pointers must move strictly backwards to rule out loops.
                    if target >= pos {
                        return Err(WireError::BadPointer);
                    }
                    hops += 1;
                    if hops > MAX_POINTER_HOPS {
                        return Err(WireError::BadPointer);
                    }
                    if !jumped {
                        self.pos = pos + 2;
                        jumped = true;
                    }
                    pos = target;
                }
                other => return Err(WireError::ReservedLabelType(other as u8)),
            }
        }
    }

    fn take_question(&mut self) -> Result<Question, WireError> {
        let name = self.take_name()?;
        let qtype = RecordType::from_code(self.take_u16()?);
        let qclass = RecordClass::from_code(self.take_u16()?);
        Ok(Question {
            name,
            qtype,
            qclass,
        })
    }

    fn take_record(&mut self) -> Result<Record, WireError> {
        let name = self.take_name()?;
        let rtype = RecordType::from_code(self.take_u16()?);
        let class = RecordClass::from_code(self.take_u16()?);
        let ttl = self.take_u32()?;
        let rdlen = self.take_u16()? as usize;
        let data_end = self.pos + rdlen;
        if data_end > self.data.len() {
            return Err(WireError::Truncated);
        }
        let rdata = match rtype {
            RecordType::A => {
                let bytes = self.take_bytes(4)?;
                RData::A(Ipv4Addr::new(bytes[0], bytes[1], bytes[2], bytes[3]))
            }
            RecordType::AAAA => {
                let bytes = self.take_bytes(16)?;
                let mut octets = [0u8; 16];
                octets.copy_from_slice(bytes);
                RData::Aaaa(Ipv6Addr::from(octets))
            }
            RecordType::MX => {
                let preference = self.take_u16()?;
                let exchange = self.take_name()?;
                RData::Mx {
                    preference,
                    exchange,
                }
            }
            RecordType::TXT => {
                // lint:allow(alloc-hot-path) decode builds owned RData; it runs on cache misses only, never the hit path
                let mut parts = Vec::new();
                while self.pos < data_end {
                    let len = self.take_u8()? as usize;
                    if self.pos + len > data_end {
                        return Err(WireError::BadRdata);
                    }
                    let bytes = self.take_bytes(len)?;
                    parts.push(String::from_utf8_lossy(bytes).into_owned());
                }
                RData::Txt(parts)
            }
            RecordType::NS => RData::Ns(self.take_name()?),
            RecordType::CNAME => RData::Cname(self.take_name()?),
            RecordType::PTR => RData::Ptr(self.take_name()?),
            RecordType::SOA => {
                let mname = self.take_name()?;
                let rname = self.take_name()?;
                RData::Soa(Soa {
                    mname,
                    rname,
                    serial: self.take_u32()?,
                    refresh: self.take_u32()?,
                    retry: self.take_u32()?,
                    expire: self.take_u32()?,
                    minimum: self.take_u32()?,
                })
            }
            RecordType::SPF | RecordType::Other(_) => {
                // lint:allow(alloc-hot-path) decode builds owned RData; it runs on cache misses only, never the hit path
                RData::Opaque(self.take_bytes(rdlen)?.to_vec())
            }
        };
        if self.pos != data_end {
            return Err(WireError::BadRdata);
        }
        Ok(Record {
            name,
            class,
            ttl,
            rdata,
        })
    }
}

/// Decode a complete message from wire form.
pub fn decode(data: &[u8]) -> Result<Message, WireError> {
    let mut d = Decoder { data, pos: 0 };
    let id = d.take_u16()?;
    let flags = d.take_u16()?;
    let header = Header {
        id,
        response: flags & (1 << 15) != 0,
        opcode: Opcode::from_code(((flags >> 11) & 0x0f) as u8),
        authoritative: flags & (1 << 10) != 0,
        truncated: flags & (1 << 9) != 0,
        recursion_desired: flags & (1 << 8) != 0,
        recursion_available: flags & (1 << 7) != 0,
        rcode: Rcode::from_code((flags & 0x0f) as u8),
    };
    let qdcount = d.take_u16()? as usize;
    let ancount = d.take_u16()? as usize;
    let nscount = d.take_u16()? as usize;
    let arcount = d.take_u16()? as usize;

    let mut message = Message {
        header,
        ..Message::default()
    };
    for _ in 0..qdcount {
        message.questions.push(d.take_question()?);
    }
    for _ in 0..ancount {
        message.answers.push(d.take_record()?);
    }
    for _ in 0..nscount {
        message.authorities.push(d.take_record()?);
    }
    for _ in 0..arcount {
        message.additionals.push(d.take_record()?);
    }
    Ok(message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn sample_response() -> Message {
        let q = Message::query(0x1234, name("mail.example.com"), RecordType::MX);
        Message::respond_to(&q)
            .with_answer(Record::new(
                name("mail.example.com"),
                300,
                RData::Mx {
                    preference: 10,
                    exchange: name("mx1.mail.example.com"),
                },
            ))
            .with_answer(Record::new(
                name("mail.example.com"),
                300,
                RData::Mx {
                    preference: 20,
                    exchange: name("mx2.mail.example.com"),
                },
            ))
            .with_authority(Record::new(
                name("example.com"),
                3600,
                RData::Ns(name("ns1.example.com")),
            ))
    }

    #[test]
    fn round_trip_query() {
        let q = Message::query(7, name("spf-test.dns-lab.org"), RecordType::TXT);
        let wire = encode(&q);
        assert_eq!(decode(&wire).unwrap(), q);
    }

    #[test]
    fn round_trip_full_response() {
        let m = sample_response();
        assert_eq!(decode(&encode(&m)).unwrap(), m);
        assert_eq!(decode(&encode_uncompressed(&m)).unwrap(), m);
    }

    #[test]
    fn compression_shrinks_repeated_suffixes() {
        let m = sample_response();
        let compressed = encode(&m);
        let plain = encode_uncompressed(&m);
        assert!(
            compressed.len() < plain.len(),
            "compressed={} plain={}",
            compressed.len(),
            plain.len()
        );
    }

    #[test]
    fn round_trip_all_rdata_types() {
        let q = Message::query(1, name("x.test"), RecordType::A);
        let m = Message::respond_to(&q)
            .with_answer(Record::new(
                name("x.test"),
                60,
                RData::A("192.0.2.9".parse().unwrap()),
            ))
            .with_answer(Record::new(
                name("x.test"),
                60,
                RData::Aaaa("2001:db8::1".parse().unwrap()),
            ))
            .with_answer(Record::new(
                name("x.test"),
                60,
                RData::txt("v=spf1 a:%{d1r}.x.test -all"),
            ))
            .with_answer(Record::new(
                name("x.test"),
                60,
                RData::Cname(name("y.test")),
            ))
            .with_answer(Record::new(name("x.test"), 60, RData::Ptr(name("p.test"))))
            .with_answer(Record::new(
                name("test"),
                60,
                RData::Soa(Soa {
                    mname: name("ns.test"),
                    rname: name("hostmaster.test"),
                    serial: 2021101101,
                    refresh: 7200,
                    retry: 3600,
                    expire: 1209600,
                    minimum: 300,
                }),
            ));
        assert_eq!(decode(&encode(&m)).unwrap(), m);
    }

    #[test]
    fn txt_with_multiple_strings_round_trips() {
        let long = "a".repeat(300);
        let q = Message::query(2, name("t.test"), RecordType::TXT);
        let m =
            Message::respond_to(&q).with_answer(Record::new(name("t.test"), 60, RData::txt(&long)));
        let decoded = decode(&encode(&m)).unwrap();
        assert_eq!(
            decoded.answers[0].rdata.txt_joined().unwrap(),
            long,
            "joined TXT must reconstruct the logical string"
        );
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let m = sample_response();
        let wire = encode(&m);
        for cut in 0..wire.len() {
            // Every prefix must decode to an error or a (different) message,
            // never panic.
            let _ = decode(&wire[..cut]);
        }
        assert_eq!(decode(&wire[..4]), Err(WireError::Truncated));
    }

    #[test]
    fn forward_pointer_is_rejected() {
        // Header (12 bytes) + a question whose name is a pointer to itself.
        let mut data = vec![0u8; 12];
        data[4] = 0;
        data[5] = 1; // qdcount = 1
        data.extend_from_slice(&[0xc0, 12]); // pointer to its own offset
        data.extend_from_slice(&[0, 1, 0, 1]);
        assert_eq!(decode(&data), Err(WireError::BadPointer));
    }

    #[test]
    fn reserved_label_type_is_rejected() {
        let mut data = vec![0u8; 12];
        data[4] = 0;
        data[5] = 1;
        data.extend_from_slice(&[0x80, 0]); // 0b10 prefix is reserved
        data.extend_from_slice(&[0, 1, 0, 1]);
        assert_eq!(decode(&data), Err(WireError::ReservedLabelType(0x80)));
    }

    #[test]
    fn header_flags_round_trip() {
        let mut m = Message::query(0xffff, name("f.test"), RecordType::AAAA);
        m.header.truncated = true;
        m.header.recursion_available = true;
        m.header.rcode = Rcode::Refused;
        let decoded = decode(&encode(&m)).unwrap();
        assert_eq!(decoded.header, m.header);
    }

    #[test]
    fn compression_matches_suffixes_case_insensitively() {
        // RFC 1035 §4.1.4 compression compares names case-insensitively;
        // the encoder keys on canonical bytes, so a differently-spelled
        // repeat of the same suffix must still compress. The decoded
        // message is equal (names compare case-insensitively); the
        // compressed suffix inherits the spelling of its first occurrence,
        // exactly as on the real wire.
        let q = Message::query(9, name("MAIL.Example.COM"), RecordType::A);
        let m = Message::respond_to(&q)
            .with_answer(Record::new(
                name("mail.example.com"),
                60,
                RData::A("192.0.2.1".parse().unwrap()),
            ))
            .with_answer(Record::new(
                name("other.EXAMPLE.com"),
                60,
                RData::A("192.0.2.2".parse().unwrap()),
            ));
        let compressed = encode(&m);
        let plain = encode_uncompressed(&m);
        assert!(compressed.len() < plain.len());
        let decoded = decode(&compressed).unwrap();
        assert_eq!(decoded, m);
        // Own label kept its spelling; the suffix took the question's.
        assert_eq!(decoded.answers[1].name.to_ascii(), "other.Example.COM");
    }

    /// Walk an encoded message and collect (pointer position, target) for
    /// every compression pointer inside a name field.
    fn collect_pointers(wire: &[u8]) -> Vec<(usize, usize)> {
        let decoded = decode(wire).expect("message must decode");
        // Re-walk the raw bytes: skip the header, then for each question
        // and record walk the name's labels watching for pointers.
        let mut pointers = Vec::new();
        let mut pos = 12;
        let mut walk_name = |pos: &mut usize| loop {
            let b = wire[*pos];
            if b & 0xc0 == 0xc0 {
                let target = ((b as usize & 0x3f) << 8) | wire[*pos + 1] as usize;
                pointers.push((*pos, target));
                *pos += 2;
                return;
            }
            *pos += 1 + b as usize;
            if b == 0 {
                return;
            }
        };
        for _ in &decoded.questions {
            walk_name(&mut pos);
            pos += 4;
        }
        for section in [&decoded.answers, &decoded.authorities, &decoded.additionals] {
            for _ in section {
                walk_name(&mut pos);
                pos += 8; // type, class, ttl
                let rdlen = u16::from_be_bytes([wire[pos], wire[pos + 1]]) as usize;
                pos += 2 + rdlen; // rdata may hold names; outer walk suffices
            }
        }
        pointers
    }

    #[test]
    fn pointer_targets_always_precede_their_position() {
        let wire = encode(&sample_response());
        let pointers = collect_pointers(&wire);
        assert!(!pointers.is_empty(), "sample must actually compress");
        for (pos, target) in pointers {
            assert!(
                target < pos,
                "pointer at {pos} must point strictly backwards, got {target}"
            );
            assert!(target >= 12, "pointer into the header is nonsense");
        }
    }

    #[test]
    fn pointer_offset_limit_is_enforced_for_large_messages() {
        // Enough fat TXT records to push the buffer far past 0x3FFF, with
        // compressible owner names sprinkled throughout. Labels written
        // beyond the limit must never become pointer targets.
        let q = Message::query(3, name("big.test"), RecordType::TXT);
        let mut m = Message::respond_to(&q);
        let filler = "f".repeat(250);
        for i in 0..120 {
            m = m
                .with_answer(Record::new(
                    name(&format!("r{i}.pad.big.test")),
                    60,
                    RData::txt(&filler),
                ))
                .with_answer(Record::new(
                    name(&format!("r{i}.pad.big.test")),
                    60,
                    RData::A("192.0.2.7".parse().unwrap()),
                ));
        }
        let wire = encode(&m);
        assert!(
            wire.len() > MAX_POINTER_TARGET + 2,
            "message must outgrow the pointer window: {} bytes",
            wire.len()
        );
        let pointers = collect_pointers(&wire);
        assert!(!pointers.is_empty());
        for (pos, target) in &pointers {
            assert!(target < pos, "forward pointer at {pos} -> {target}");
            assert!(
                *target <= MAX_POINTER_TARGET,
                "pointer target {target} beyond the 14-bit window"
            );
        }
        // And the whole thing still round-trips.
        assert_eq!(decode(&wire).unwrap(), m);
    }
}
