//! Domain names with RFC 1035 label semantics.
//!
//! A [`Name`] stores its labels as a single buffer in DNS wire form —
//! length-prefixed labels, without the trailing root octet — so the hot
//! paths never touch a per-label `String`:
//!
//! * names up to [`INLINE_NAME_CAP`] wire bytes live inline in the value
//!   (no heap at all); longer names share one `Arc<[u8]>` allocation;
//! * `clone()` is a small memcpy or a reference-count bump, never a heap
//!   allocation;
//! * a canonical (ASCII-lowercased) copy of the wire bytes is computed
//!   once at construction — and only when the spelling actually contains
//!   uppercase — so equality, hashing, ordering and suffix tests are
//!   case-insensitive (RFC 1035 §2.3.3, RFC 4343) byte comparisons with
//!   no per-comparison folding allocations;
//! * `parent()` of a shared name is a pure offset bump into the same
//!   buffer.
//!
//! The original spelling is preserved for display. Label and name length
//! limits are enforced at construction so the wire encoder never has to
//! fail on an oversized name. The length-prefix framing is a prefix code,
//! which is what makes whole-buffer comparison equivalent to
//! label-by-label comparison.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;
use std::sync::Arc;

/// Maximum length of a single label, per RFC 1035.
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a full name on the wire (labels + length octets + root).
pub const MAX_NAME_LEN: usize = 255;
/// Longest wire form (without root octet) stored inline, without heap.
/// 38 bytes covers every fixed zone name and the expanded probe names of
/// the measurement design (`<word>.<id>.<suite>.spf-test.dns-lab.org`).
pub const INLINE_NAME_CAP: usize = 38;

/// Wire bytes excluding the root octet can span at most this much.
const MAX_WIRE_CONTENT: usize = MAX_NAME_LEN - 1;

/// Errors constructing a [`Name`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// A label was empty (`foo..bar`).
    EmptyLabel,
    /// A label exceeded 63 octets.
    LabelTooLong(String),
    /// The whole name exceeded 255 octets in wire form.
    NameTooLong,
    /// A label contained a byte outside printable ASCII.
    InvalidByte(u8),
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::EmptyLabel => write!(f, "empty label"),
            NameError::LabelTooLong(l) => write!(f, "label too long: {:.16}...", l),
            NameError::NameTooLong => write!(f, "name exceeds 255 octets"),
            NameError::InvalidByte(b) => write!(f, "invalid byte 0x{b:02x} in label"),
        }
    }
}

impl std::error::Error for NameError {}

/// Storage for the original-spelling wire bytes.
#[derive(Clone)]
enum Repr {
    /// Short names live entirely in the value.
    Inline {
        /// Number of wire bytes used in `buf`.
        len: u8,
        /// Length-prefixed labels, no root octet.
        buf: [u8; INLINE_NAME_CAP],
    },
    /// Long names share one allocation; `start` lets `parent()` reuse it.
    Shared {
        /// Length-prefixed labels of this name and possibly ancestors'
        /// prefixes before `start`.
        buf: Arc<[u8]>,
        /// Offset of this name's first label within `buf`.
        start: u16,
    },
}

/// A fully qualified domain name.
///
/// The root name has zero labels. `Name` values returned by the parser and
/// all constructors are guaranteed to satisfy the RFC length limits.
#[derive(Clone)]
pub struct Name {
    repr: Repr,
    /// Canonical (lowercased) wire bytes of the whole name, allocated once
    /// at construction iff the spelling contains uppercase. `None` means
    /// the spelling already is canonical.
    canon: Option<Arc<[u8]>>,
}

impl Name {
    /// The root name (zero labels).
    pub fn root() -> Name {
        Name {
            repr: Repr::Inline {
                len: 0,
                buf: [0; INLINE_NAME_CAP],
            },
            canon: None,
        }
    }

    /// Parse a dotted name. A single trailing dot is accepted and ignored;
    /// an empty string or `"."` yields the root.
    pub fn parse(s: &str) -> Result<Name, NameError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Name::root());
        }
        let mut wire = [0u8; MAX_WIRE_CONTENT];
        let mut len = 0usize;
        for label in s.split('.') {
            len = Self::push_label(&mut wire, len, label)?;
        }
        Ok(Self::from_wire_unchecked(&wire[..len]))
    }

    /// Construct from pre-split labels.
    pub fn from_labels<I, S>(iter: I) -> Result<Name, NameError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut wire = [0u8; MAX_WIRE_CONTENT];
        let mut len = 0usize;
        for label in iter {
            len = Self::push_label(&mut wire, len, label.as_ref())?;
        }
        Ok(Self::from_wire_unchecked(&wire[..len]))
    }

    /// Validate `label` and append it (length-prefixed) to `wire` at
    /// offset `len`, returning the new offset.
    fn push_label(
        wire: &mut [u8; MAX_WIRE_CONTENT],
        len: usize,
        label: &str,
    ) -> Result<usize, NameError> {
        Self::check_label(label)?;
        let next = len + 1 + label.len();
        if next > MAX_WIRE_CONTENT {
            return Err(NameError::NameTooLong);
        }
        wire[len] = label.len() as u8;
        wire[len + 1..next].copy_from_slice(label.as_bytes());
        Ok(next)
    }

    fn check_label(label: &str) -> Result<(), NameError> {
        if label.is_empty() {
            return Err(NameError::EmptyLabel);
        }
        if label.len() > MAX_LABEL_LEN {
            return Err(NameError::LabelTooLong(label.to_string()));
        }
        for &b in label.as_bytes() {
            Self::check_byte(b)?;
        }
        Ok(())
    }

    /// Accept any printable ASCII except the label separator. SPF macro
    /// mishandling produces labels like `%{d1r}` that a strict hostname
    /// check would reject — and observing those on the wire is precisely
    /// the point of the measurement.
    fn check_byte(b: u8) -> Result<(), NameError> {
        if !(0x21..=0x7e).contains(&b) || b == b'.' {
            return Err(NameError::InvalidByte(b));
        }
        Ok(())
    }

    /// Build a `Name` from already-validated wire bytes (length-prefixed
    /// labels, no root octet). Chooses inline vs shared storage and
    /// computes the canonical form when the spelling has uppercase.
    fn from_wire_unchecked(bytes: &[u8]) -> Name {
        debug_assert!(bytes.len() <= MAX_WIRE_CONTENT);
        // Length octets are <= 63 and thus never in `A..=Z`, so scanning
        // and folding the whole buffer — framing included — is safe.
        let canon = if bytes.iter().any(u8::is_ascii_uppercase) {
            let mut lower = bytes.to_vec();
            lower.make_ascii_lowercase();
            Some(Arc::from(lower))
        } else {
            None
        };
        let repr = if bytes.len() <= INLINE_NAME_CAP {
            let mut buf = [0u8; INLINE_NAME_CAP];
            buf[..bytes.len()].copy_from_slice(bytes);
            Repr::Inline {
                len: bytes.len() as u8,
                buf,
            }
        } else {
            Repr::Shared {
                buf: Arc::from(bytes),
                start: 0,
            }
        };
        Name { repr, canon }
    }

    /// Construct from wire bytes (length-prefixed labels, no root octet),
    /// validating label bytes and length limits. Used by the wire decoder
    /// so no per-label `String` is ever allocated on decode.
    pub(crate) fn from_wire(bytes: &[u8]) -> Result<Name, NameError> {
        if bytes.len() > MAX_WIRE_CONTENT {
            return Err(NameError::NameTooLong);
        }
        let mut pos = 0usize;
        while pos < bytes.len() {
            let len = bytes[pos] as usize;
            if len == 0 {
                return Err(NameError::EmptyLabel);
            }
            let end = pos + 1 + len;
            if end > bytes.len() {
                // A dangling length octet would break the framing the
                // whole representation relies on.
                return Err(NameError::EmptyLabel);
            }
            for &b in &bytes[pos + 1..end] {
                Self::check_byte(b)?;
            }
            pos = end;
        }
        Ok(Self::from_wire_unchecked(bytes))
    }

    /// The wire bytes in the original spelling (length-prefixed labels,
    /// without the trailing root octet).
    pub(crate) fn wire_bytes(&self) -> &[u8] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Shared { buf, start } => &buf[*start as usize..],
        }
    }

    /// The canonical (lowercased) wire bytes. Shared by equality,
    /// hashing, ordering and the suffix tests, so all of them agree on
    /// case-insensitivity without folding anything per call.
    pub(crate) fn canonical_bytes(&self) -> &[u8] {
        match &self.canon {
            Some(c) => c,
            None => self.wire_bytes(),
        }
    }

    /// Length of this name in RFC 1035 wire form (uncompressed).
    pub fn wire_len(&self) -> usize {
        self.wire_bytes().len() + 1
    }

    /// A copy of this name with `replacement` written at each wire
    /// byte `offset` (0 = this name's first length octet). Every target
    /// range must lie inside a single label's content bytes and the
    /// replacement must be valid label bytes — callers splice a recorded
    /// probe id for a same-length one, so both invariants hold by
    /// construction. This re-instantiates a memoized name without
    /// re-parsing its dotted spelling.
    pub fn splice_content(&self, offsets: &[u16], replacement: &[u8]) -> Name {
        debug_assert!(replacement.iter().all(|&b| Self::check_byte(b).is_ok()));
        let bytes = self.wire_bytes();
        let mut buf = [0u8; MAX_WIRE_CONTENT];
        let wire = &mut buf[..bytes.len()];
        wire.copy_from_slice(bytes);
        #[cfg(debug_assertions)]
        for &offset in offsets {
            let (at, end) = (offset as usize, offset as usize + replacement.len());
            let mut pos = 0usize; // walk the framing: each label's length octet
            let mut ok = false;
            while pos < wire.len() {
                let content = pos + 1..pos + 1 + wire[pos] as usize;
                if content.start <= at && end <= content.end {
                    ok = true;
                    break;
                }
                pos = content.end;
            }
            debug_assert!(ok, "splice range {at}..{end} crosses label framing");
        }
        for &offset in offsets {
            let at = offset as usize;
            wire[at..at + replacement.len()].copy_from_slice(replacement);
        }
        Self::from_wire_unchecked(wire)
    }

    /// Number of labels (the root has zero).
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// Whether this is the root name.
    pub fn is_root(&self) -> bool {
        self.wire_bytes().is_empty()
    }

    /// Iterate over the labels, leftmost (deepest) first, in the original
    /// spelling. No allocation.
    pub fn labels(&self) -> Labels<'_> {
        Labels {
            rest: self.wire_bytes(),
        }
    }

    /// The leftmost label, if any.
    pub fn first_label(&self) -> Option<&str> {
        self.labels().next()
    }

    /// The top-level domain (rightmost label), lowercased, if any.
    pub fn tld(&self) -> Option<String> {
        self.labels().last().map(|l| l.to_ascii_lowercase())
    }

    /// The parent name (this name minus its leftmost label). The root's
    /// parent is the root. For shared storage this is an offset bump into
    /// the same buffer — no copy.
    pub fn parent(&self) -> Name {
        let bytes = self.wire_bytes();
        if bytes.is_empty() {
            return Name::root();
        }
        let skip = 1 + bytes[0] as usize;
        let repr = match &self.repr {
            Repr::Inline { len, buf } => {
                let new_len = *len as usize - skip;
                let mut new_buf = [0u8; INLINE_NAME_CAP];
                new_buf[..new_len].copy_from_slice(&buf[skip..*len as usize]);
                Repr::Inline {
                    len: new_len as u8,
                    buf: new_buf,
                }
            }
            Repr::Shared { buf, start } => Repr::Shared {
                buf: buf.clone(),
                start: start + skip as u16,
            },
        };
        // The parent only needs a canonical copy when uppercase survives
        // the cut; `canon == None` already implies an all-lowercase name.
        let canon = if bytes[skip..].iter().any(u8::is_ascii_uppercase) {
            self.canon.as_ref().map(|c| Arc::from(&c[skip..]))
        } else {
            None
        };
        Name { repr, canon }
    }

    /// Prepend a single label, returning the child name.
    pub fn child(&self, label: &str) -> Result<Name, NameError> {
        Self::check_label(label)?;
        let bytes = self.wire_bytes();
        let total = 1 + label.len() + bytes.len();
        if total > MAX_WIRE_CONTENT {
            return Err(NameError::NameTooLong);
        }
        let mut wire = [0u8; MAX_WIRE_CONTENT];
        wire[0] = label.len() as u8;
        wire[1..1 + label.len()].copy_from_slice(label.as_bytes());
        wire[1 + label.len()..total].copy_from_slice(bytes);
        Ok(Self::from_wire_unchecked(&wire[..total]))
    }

    /// Concatenate: `self` prepended to `suffix` (i.e. `self.suffix`).
    pub fn concat(&self, suffix: &Name) -> Result<Name, NameError> {
        let a = self.wire_bytes();
        let b = suffix.wire_bytes();
        let total = a.len() + b.len();
        if total > MAX_WIRE_CONTENT {
            return Err(NameError::NameTooLong);
        }
        let mut wire = [0u8; MAX_WIRE_CONTENT];
        wire[..a.len()].copy_from_slice(a);
        wire[a.len()..total].copy_from_slice(b);
        Ok(Self::from_wire_unchecked(&wire[..total]))
    }

    /// Offset of the label boundary where `suffix` begins inside `self`'s
    /// canonical bytes, or `None` when `self` is not `suffix` or under it.
    /// Walking boundaries (instead of `ends_with`) is what keeps
    /// `badexample.com` out of `example.com` — and guards against content
    /// bytes that happen to collide with length octets, which printable
    /// labels like `%{d1r}` can produce.
    fn suffix_start(&self, suffix: &Name) -> Option<usize> {
        let sc = self.canonical_bytes();
        let oc = suffix.canonical_bytes();
        if oc.len() > sc.len() {
            return None;
        }
        let mut pos = 0usize;
        while sc.len() - pos > oc.len() {
            pos += 1 + sc[pos] as usize;
            if pos > sc.len() {
                return None;
            }
        }
        (sc.len() - pos == oc.len() && sc[pos..] == *oc).then_some(pos)
    }

    /// Case-insensitive test for whether `self` equals `other` or is a
    /// subdomain of it. Every name is under the root.
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        self.suffix_start(other).is_some()
    }

    /// Strip `suffix` from the end of the name, returning the remaining
    /// prefix labels (deepest first, original spelling), or `None` when
    /// `self` is not under `suffix`.
    pub fn strip_suffix(&self, suffix: &Name) -> Option<Vec<String>> {
        let boundary = self.suffix_start(suffix)?;
        let bytes = self.wire_bytes();
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos < boundary {
            let len = bytes[pos] as usize;
            out.push(
                std::str::from_utf8(&bytes[pos + 1..pos + 1 + len])
                    .expect("labels are printable ASCII")
                    .to_string(),
            );
            pos += 1 + len;
        }
        Some(out)
    }

    /// [`Name::strip_suffix`] without the copies: the prefix labels
    /// borrowed from the name, or `None` when `self` is not under
    /// `suffix`.
    pub fn prefix_labels(&self, suffix: &Name) -> Option<Labels<'_>> {
        let boundary = self.suffix_start(suffix)?;
        Some(Labels {
            rest: &self.wire_bytes()[..boundary],
        })
    }

    /// A copy with all labels lowercased (canonical form). When the name
    /// already carries a canonical buffer this shares it — no allocation.
    pub fn to_lowercase(&self) -> Name {
        match &self.canon {
            None => self.clone(),
            Some(c) => Name {
                repr: Repr::Shared {
                    buf: c.clone(),
                    start: 0,
                },
                canon: None,
            },
        }
    }

    /// The canonical ASCII representation without a trailing dot; the root
    /// is rendered as `"."`.
    pub fn to_ascii(&self) -> String {
        if self.is_root() {
            return ".".to_string();
        }
        let mut out = String::with_capacity(self.wire_bytes().len());
        for label in self.labels() {
            if !out.is_empty() {
                out.push('.');
            }
            out.push_str(label);
        }
        out
    }
}

/// Iterator over a name's labels as `&str`, leftmost first. See
/// [`Name::labels`].
#[derive(Clone)]
pub struct Labels<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Labels<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let (&len, rest) = self.rest.split_first()?;
        let (label, rest) = rest.split_at(len as usize);
        self.rest = rest;
        Some(std::str::from_utf8(label).expect("labels are printable ASCII"))
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        // Length-prefixed labels form a prefix code, so canonical-buffer
        // equality is exactly case-insensitive label-sequence equality.
        self.canonical_bytes() == other.canonical_bytes()
    }
}

impl std::cmp::Eq for Name {}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let c = self.canonical_bytes();
        state.write_usize(c.len());
        state.write(c);
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Offsets of each label start within `bytes`. Wire content is <= 254
/// bytes and every label takes >= 2, so a fixed stack array suffices.
fn label_starts(bytes: &[u8]) -> ([u8; MAX_NAME_LEN / 2], usize) {
    let mut starts = [0u8; MAX_NAME_LEN / 2];
    let mut count = 0usize;
    let mut pos = 0usize;
    while pos < bytes.len() {
        starts[count] = pos as u8;
        count += 1;
        pos += 1 + bytes[pos] as usize;
    }
    (starts, count)
}

fn label_at(bytes: &[u8], start: u8) -> &[u8] {
    let start = start as usize;
    let len = bytes[start] as usize;
    &bytes[start + 1..start + 1 + len]
}

impl Ord for Name {
    /// Canonical DNS ordering: compare label sequences right-to-left,
    /// case-insensitively (RFC 4034 §6.1, simplified to ASCII).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let a = self.canonical_bytes();
        let b = other.canonical_bytes();
        let (a_starts, a_count) = label_starts(a);
        let (b_starts, b_count) = label_starts(b);
        let mut i = a_count;
        let mut j = b_count;
        while i > 0 && j > 0 {
            i -= 1;
            j -= 1;
            let ord = label_at(a, a_starts[i]).cmp(label_at(b, b_starts[j]));
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        a_count.cmp(&b_count)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str(".");
        }
        let mut first = true;
        for label in self.labels() {
            if !first {
                f.write_str(".")?;
            }
            first = false;
            f.write_str(label)?;
        }
        Ok(())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({self})")
    }
}

impl FromStr for Name {
    type Err = NameError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        assert_eq!(n("example.com").to_ascii(), "example.com");
        assert_eq!(n("example.com.").to_ascii(), "example.com");
        assert_eq!(n(".").to_ascii(), ".");
        assert_eq!(n("").to_ascii(), ".");
        assert_eq!(format!("{}", n("Foo.Example.COM")), "Foo.Example.COM");
    }

    #[test]
    fn rejects_bad_labels() {
        assert_eq!(Name::parse("foo..bar"), Err(NameError::EmptyLabel));
        let long = "a".repeat(64);
        assert!(matches!(
            Name::parse(&format!("{long}.com")),
            Err(NameError::LabelTooLong(_))
        ));
        assert!(matches!(
            Name::parse("fo o.com"),
            Err(NameError::InvalidByte(b' '))
        ));
    }

    #[test]
    fn accepts_macro_literal_labels() {
        // A non-expanding SPF implementation queries for the literal macro.
        let name = n("%{d1r}.abc.spf-test.dns-lab.org");
        assert_eq!(name.first_label(), Some("%{d1r}"));
    }

    #[test]
    fn rejects_overlong_names() {
        let label = "a".repeat(63);
        let s = vec![label; 5].join(".");
        assert_eq!(Name::parse(&s), Err(NameError::NameTooLong));
    }

    #[test]
    fn equality_is_case_insensitive() {
        assert_eq!(n("Example.COM"), n("example.com"));
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(n("Example.COM"));
        assert!(set.contains(&n("example.com")));
    }

    #[test]
    fn subdomain_relationships() {
        assert!(n("mail.example.com").is_subdomain_of(&n("example.com")));
        assert!(n("example.com").is_subdomain_of(&n("example.com")));
        assert!(n("example.com").is_subdomain_of(&Name::root()));
        assert!(!n("example.com").is_subdomain_of(&n("mail.example.com")));
        assert!(!n("badexample.com").is_subdomain_of(&n("example.com")));
        assert!(n("MAIL.EXAMPLE.com").is_subdomain_of(&n("example.COM")));
    }

    #[test]
    fn strip_suffix_returns_prefix_labels() {
        assert_eq!(
            n("a.b.example.com").strip_suffix(&n("example.com")),
            Some(vec!["a".to_string(), "b".to_string()])
        );
        assert_eq!(n("a.example.com").strip_suffix(&n("other.com")), None);
        assert_eq!(
            n("example.com").strip_suffix(&n("example.com")),
            Some(vec![])
        );
    }

    #[test]
    fn parent_and_child() {
        assert_eq!(n("a.b.c").parent(), n("b.c"));
        assert_eq!(Name::root().parent(), Name::root());
        assert_eq!(n("b.c").child("a").unwrap(), n("a.b.c"));
        assert_eq!(n("x").concat(&n("y.z")).unwrap(), n("x.y.z"));
    }

    #[test]
    fn tld_and_first_label() {
        assert_eq!(n("mail.example.com").tld(), Some("com".to_string()));
        assert_eq!(n("mail.example.COM").tld(), Some("com".to_string()));
        assert_eq!(Name::root().tld(), None);
        assert_eq!(n("mail.example.com").first_label(), Some("mail"));
    }

    #[test]
    fn canonical_ordering_right_to_left() {
        let mut names = [n("b.com"), n("a.org"), n("a.com"), n("com")];
        names.sort();
        assert_eq!(
            names.iter().map(|x| x.to_ascii()).collect::<Vec<_>>(),
            vec!["com", "a.com", "b.com", "a.org"]
        );
    }

    #[test]
    fn wire_len_counts_length_octets_and_root() {
        assert_eq!(Name::root().wire_len(), 1);
        // 7example3com0 -> 1+7 + 1+3 + 1 = 13
        assert_eq!(n("example.com").wire_len(), 13);
    }

    #[test]
    fn lowercase_copy() {
        assert_eq!(n("FoO.CoM").to_lowercase().to_ascii(), "foo.com");
    }

    // ---- behaviours specific to the compact representation ----

    /// A name beyond the inline capacity must behave identically to a
    /// short one: this exercises the `Shared` storage arm everywhere.
    fn long_name() -> Name {
        n("some-quite-long-label.another-long-label.k7q2xyz.suite1.spf-test.dns-lab.org")
    }

    #[test]
    fn shared_storage_round_trips() {
        let name = long_name();
        assert!(name.wire_len() > INLINE_NAME_CAP + 1);
        assert_eq!(Name::parse(&name.to_ascii()).unwrap(), name);
        assert_eq!(name.label_count(), 7);
        assert_eq!(name.first_label(), Some("some-quite-long-label"));
    }

    #[test]
    fn shared_parent_shares_the_buffer() {
        let name = long_name();
        let mut walk = name.clone();
        let mut expected: Vec<String> = name.labels().map(str::to_string).collect();
        while !expected.is_empty() {
            assert_eq!(
                walk.labels().collect::<Vec<_>>(),
                expected.iter().map(String::as_str).collect::<Vec<_>>()
            );
            walk = walk.parent();
            expected.remove(0);
        }
        assert!(walk.is_root());
    }

    #[test]
    fn clone_is_allocation_free_in_shape() {
        // Not an allocator assertion (that lives in crates/bench), but the
        // structural guarantee it relies on: clones of shared names point
        // at the same buffer.
        let name = long_name();
        let clone = name.clone();
        assert_eq!(name, clone);
        match (&name.repr, &clone.repr) {
            (Repr::Shared { buf: a, .. }, Repr::Shared { buf: b, .. }) => {
                assert!(Arc::ptr_eq(a, b));
            }
            _ => panic!("long names must use shared storage"),
        }
    }

    #[test]
    fn canonical_form_only_allocated_for_uppercase() {
        assert!(n("mail.example.com").canon.is_none());
        assert!(n("MAIL.example.com").canon.is_some());
        // Case-folded spelling keeps original for display, canonical for
        // comparisons.
        let mixed = n("MAIL.Example.COM");
        assert_eq!(mixed.to_ascii(), "MAIL.Example.COM");
        assert_eq!(mixed.to_lowercase().to_ascii(), "mail.example.com");
        assert_eq!(mixed, n("mail.example.com"));
    }

    #[test]
    fn mixed_case_ordering_matches_lowercase_ordering() {
        let mut upper = [n("B.COM"), n("A.ORG"), n("A.COM"), n("COM")];
        let mut lower = [n("b.com"), n("a.org"), n("a.com"), n("com")];
        upper.sort();
        lower.sort();
        for (u, l) in upper.iter().zip(lower.iter()) {
            assert_eq!(u, l);
        }
    }

    #[test]
    fn strip_suffix_is_case_insensitive_and_preserves_spelling() {
        assert_eq!(
            n("A.B.Example.COM").strip_suffix(&n("example.com")),
            Some(vec!["A".to_string(), "B".to_string()])
        );
    }
}
