//! Keys and their classification into short / medium / long (§3.2.3).

use bytes::Bytes;
use core::fmt;

/// Bytes of an aggregator's key part (`kPart`); the paper uses 64-bit
/// aggregators split into a 32-bit `kPart` and a 32-bit `vPart`.
pub const KPART_BYTES: usize = 4;

/// A validated aggregation key.
///
/// Keys are arbitrary non-empty byte strings that contain no NUL bytes.
/// The NUL restriction exists because the switch stores key segments
/// zero-padded to the aggregator width (§3.2.1: "If a key is less than n
/// bits, ASK pads it"); forbidding NUL makes the padding reversible, so the
/// receiver can reconstruct exact keys when fetching switch state.
///
/// # Examples
///
/// ```
/// use ask_wire::key::Key;
///
/// let k = Key::from_str("hello")?;
/// assert_eq!(k.len(), 5);
/// # Ok::<(), ask_wire::key::KeyError>(())
/// ```
///
/// # Representation
///
/// Keys up to [`INLINE_KEY_CAP`] bytes are stored inline — no heap
/// allocation, no reference counting — which covers every short and medium
/// key the switch can handle (§3.2.3) and makes the per-tuple hot paths
/// (decode, packetize, residual merge) allocation- and atomic-free. Longer
/// keys fall back to shared [`Bytes`] storage.
#[derive(Clone)]
pub struct Key(Repr);

/// Keys at most this long are stored inline in the [`Key`] value itself.
pub const INLINE_KEY_CAP: usize = 23;

/// The longest valid key, in bytes: long-kv and fetch-reply entries carry
/// a key's length in a 16-bit field.
pub const MAX_KEY_LEN: usize = u16::MAX as usize;

#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [u8; INLINE_KEY_CAP] },
    Heap(Bytes),
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Key {}

impl core::hash::Hash for Key {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key({:?})", self.as_bytes())
    }
}

/// Error building a [`Key`] from raw bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyError {
    /// Keys must be non-empty.
    Empty,
    /// Keys must not contain NUL bytes (padding would be ambiguous).
    ContainsNul,
    /// Keys must be at most [`MAX_KEY_LEN`] bytes (the wire's 16-bit
    /// entry length field).
    TooLong,
}

impl fmt::Display for KeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyError::Empty => write!(f, "keys must be non-empty"),
            KeyError::ContainsNul => write!(f, "keys must not contain NUL bytes"),
            KeyError::TooLong => write!(f, "keys must be at most {MAX_KEY_LEN} bytes"),
        }
    }
}

impl std::error::Error for KeyError {}

impl Key {
    /// Stores already-validated bytes, choosing the inline representation
    /// when they fit.
    fn store(bytes: &[u8]) -> Self {
        debug_assert!(!bytes.is_empty() && !bytes.contains(&0));
        if bytes.len() <= INLINE_KEY_CAP {
            let mut buf = [0u8; INLINE_KEY_CAP];
            buf[..bytes.len()].copy_from_slice(bytes);
            Key(Repr::Inline {
                len: bytes.len() as u8,
                buf,
            })
        } else {
            Key(Repr::Heap(Bytes::copy_from_slice(bytes)))
        }
    }

    /// Validates and wraps raw key bytes.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError`] if `bytes` is empty, contains a NUL byte, or
    /// is longer than [`MAX_KEY_LEN`].
    pub fn new(bytes: Bytes) -> Result<Self, KeyError> {
        validate(&bytes)?;
        Ok(Key::from_validated_bytes(bytes))
    }

    /// Validates and copies raw key bytes — the borrowed counterpart of
    /// [`Key::new`]. Keys up to [`INLINE_KEY_CAP`] bytes never touch the
    /// heap, so harvest paths that rebuild keys from table or wire bytes
    /// stay allocation-free.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Key::new`].
    pub fn from_slice(bytes: &[u8]) -> Result<Self, KeyError> {
        validate(bytes)?;
        Ok(Key::store(bytes))
    }

    /// Wraps bytes the caller has already validated (non-empty, no NUL).
    /// Crate-private: used by the codec's hot decode path, which checks the
    /// invariants itself while scanning off the zero padding.
    pub(crate) fn from_validated_slice(bytes: &[u8]) -> Self {
        Key::store(bytes)
    }

    /// [`Key::from_validated_slice`] for bytes the caller holds shared: a
    /// key longer than [`INLINE_KEY_CAP`] keeps `bytes` itself (usually a
    /// slice of the frame it arrived in) instead of copying it.
    pub(crate) fn from_validated_bytes(bytes: Bytes) -> Self {
        if bytes.len() <= INLINE_KEY_CAP {
            Key::store(&bytes)
        } else {
            Key(Repr::Heap(bytes))
        }
    }

    /// Builds a key from a string slice.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Key::new`].
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Result<Self, KeyError> {
        Key::from_slice(s.as_bytes())
    }

    /// Builds a 4-byte key from an integer (useful for synthetic workloads
    /// where keys are opaque ids). The encoding avoids NUL bytes by mapping
    /// each base-255 digit to `1..=255`. Always inline, never allocates.
    pub fn from_u64(mut v: u64) -> Self {
        let mut buf = [0u8; INLINE_KEY_CAP];
        let mut len = 0usize;
        loop {
            buf[len] = (v % 255) as u8 + 1;
            len += 1;
            v /= 255;
            if v == 0 {
                break;
            }
        }
        Key(Repr::Inline {
            len: len as u8,
            buf,
        })
    }

    /// The raw key bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(b) => b,
        }
    }

    /// Byte length of the key.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(b) => b.len(),
        }
    }

    /// Always false — keys are validated non-empty — but provided for
    /// completeness alongside [`Key::len`].
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Classifies the key given `m`, the number of coalesced aggregator
    /// arrays per medium-key group (§3.2.3): short keys fit one `kPart`
    /// (≤ 4 bytes), medium keys fit `m` coalesced `kPart`s, long keys bypass
    /// the switch.
    pub fn class(&self, medium_segments: usize) -> KeyClass {
        let len = self.len();
        if len <= KPART_BYTES {
            KeyClass::Short
        } else if len <= KPART_BYTES * medium_segments {
            KeyClass::Medium
        } else {
            KeyClass::Long
        }
    }

    /// Packs bytes `[4i, 4i+4)` of the key, zero-padded, into a `u32` — the
    /// value stored in a `kPart` register. Segment 0 of a short key is the
    /// whole key.
    pub fn segment(&self, i: usize) -> u32 {
        let bytes = self.as_bytes();
        let mut word = [0u8; KPART_BYTES];
        let start = i * KPART_BYTES;
        if start < bytes.len() {
            let end = (start + KPART_BYTES).min(bytes.len());
            word[..end - start].copy_from_slice(&bytes[start..end]);
        }
        u32::from_be_bytes(word)
    }

    /// Number of `kPart` segments the key occupies.
    pub fn segments(&self) -> usize {
        self.len().div_ceil(KPART_BYTES)
    }

    /// Reconstructs a key from packed segments (inverse of [`Key::segment`]),
    /// stripping zero padding.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError`] if the segments decode to an invalid key (all
    /// padding, or an embedded NUL, which cannot come from a valid key).
    pub fn from_segments(segments: &[u32]) -> Result<Self, KeyError> {
        // Unpack on the stack so a switch harvest builds no heap buffer per
        // key. Sixteen segments is 64 bytes, far wider than any medium
        // group in use; wider inputs spill to a `Vec`.
        const STACK_SEGMENTS: usize = 16;
        let mut stack = [0u8; STACK_SEGMENTS * KPART_BYTES];
        let mut spill = Vec::new();
        let buf: &mut [u8] = if segments.len() <= STACK_SEGMENTS {
            &mut stack[..segments.len() * KPART_BYTES]
        } else {
            spill.resize(segments.len() * KPART_BYTES, 0);
            &mut spill
        };
        for (chunk, seg) in buf.chunks_exact_mut(KPART_BYTES).zip(segments) {
            chunk.copy_from_slice(&seg.to_be_bytes());
        }
        let len = buf.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        Key::from_slice(&buf[..len])
    }

    /// A stable 64-bit hash of the key (FNV-1a), used for subspace
    /// partitioning and aggregator indexing. Deterministic across runs so
    /// simulations are reproducible.
    pub fn hash64(&self) -> u64 {
        fnv1a(self.as_bytes())
    }

    /// Inverse of [`Key::from_u64`]: decodes the integer a key encodes, or
    /// `None` if the key was not produced by `from_u64` (some byte outside
    /// the base-255 digit alphabet, or a value overflowing `u64`).
    ///
    /// # Examples
    ///
    /// ```
    /// use ask_wire::key::Key;
    ///
    /// assert_eq!(Key::from_u64(123_456).to_u64(), Some(123_456));
    /// ```
    pub fn to_u64(&self) -> Option<u64> {
        let mut value: u64 = 0;
        let mut mul: u64 = 1;
        let bytes = self.as_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            if b == 0 {
                return None;
            }
            let digit = (b - 1) as u64;
            value = value.checked_add(digit.checked_mul(mul)?)?;
            if i + 1 < bytes.len() {
                mul = mul.checked_mul(255)?;
            }
        }
        Some(value)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match core::str::from_utf8(self.as_bytes()) {
            Ok(s) => write!(f, "{s:?}"),
            Err(_) => write!(f, "{:02x?}", self.as_bytes()),
        }
    }
}

impl AsRef<[u8]> for Key {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

/// The [`Key`] invariants: non-empty, at most [`MAX_KEY_LEN`] bytes, no
/// NUL byte.
fn validate(bytes: &[u8]) -> Result<(), KeyError> {
    if bytes.is_empty() {
        return Err(KeyError::Empty);
    }
    if bytes.len() > MAX_KEY_LEN {
        return Err(KeyError::TooLong);
    }
    if bytes.contains(&0) {
        return Err(KeyError::ContainsNul);
    }
    Ok(())
}

/// FNV-1a over a byte slice.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Size class of a key relative to the aggregator layout (§3.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyClass {
    /// Fits one `kPart` (≤ 4 bytes): handled by a single aggregator array.
    Short,
    /// Fits `m` coalesced `kPart`s: handled by a medium-key group.
    Medium,
    /// Too long for the switch: bypasses INA, aggregated at the receiver.
    Long,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_bad_keys() {
        assert_eq!(Key::new(Bytes::new()).unwrap_err(), KeyError::Empty);
        assert_eq!(
            Key::new(Bytes::from_static(b"a\0b")).unwrap_err(),
            KeyError::ContainsNul
        );
        assert!(!Key::from_str("ok").unwrap().is_empty());
    }

    #[test]
    fn from_slice_validates_exactly_like_new() {
        let cases: [&[u8]; 7] = [
            b"",
            b"\0",
            b"a\0b",
            b"trailing\0",
            b"ok",
            b"exactly-23-bytes-long!!",
            b"twenty-four-bytes-long!!",
        ];
        for bytes in cases {
            let owned = Key::new(Bytes::copy_from_slice(bytes));
            assert_eq!(Key::from_slice(bytes), owned, "{bytes:?}");
        }
        assert_eq!(Key::from_slice(b"").unwrap_err(), KeyError::Empty);
        assert_eq!(Key::from_slice(b"a\0b").unwrap_err(), KeyError::ContainsNul);
        assert_eq!(Key::from_slice(b"abc").unwrap().as_bytes(), b"abc");
    }

    #[test]
    fn fail_validation_if_exceeding_max_key_len() {
        let under = vec![b'k'; MAX_KEY_LEN - 1];
        assert!(Key::from_slice(&under).is_ok());

        let max = vec![b'k'; MAX_KEY_LEN];
        assert_eq!(Key::from_slice(&max).unwrap().len(), 65_535);
        assert!(Key::new(Bytes::from(max)).is_ok());

        for len in [MAX_KEY_LEN + 1, MAX_KEY_LEN + 2] {
            let over = vec![b'k'; len];
            assert_eq!(Key::from_slice(&over).unwrap_err(), KeyError::TooLong);
            assert_eq!(Key::new(Bytes::from(over)).unwrap_err(), KeyError::TooLong);
        }
    }

    #[test]
    fn from_segments_rejects_padding_and_embedded_nul() {
        assert_eq!(Key::from_segments(&[]).unwrap_err(), KeyError::Empty);
        assert_eq!(Key::from_segments(&[0, 0]).unwrap_err(), KeyError::Empty);
        // A zero byte before the last non-zero one is an embedded NUL.
        let nul = u32::from_be_bytes([b'a', 0, b'b', 0]);
        assert_eq!(Key::from_segments(&[nul]).unwrap_err(), KeyError::ContainsNul);
        // Wider than the stack buffer: spills, still exact.
        let long = Key::from_str(&"w".repeat(70)).unwrap();
        let segs: Vec<u32> = (0..long.segments()).map(|i| long.segment(i)).collect();
        assert_eq!(Key::from_segments(&segs).unwrap(), long);
    }

    #[test]
    fn classification_boundaries() {
        let m = 2; // medium keys are 5..=8 bytes
        assert_eq!(Key::from_str("abcd").unwrap().class(m), KeyClass::Short);
        assert_eq!(Key::from_str("abcde").unwrap().class(m), KeyClass::Medium);
        assert_eq!(
            Key::from_str("abcdefgh").unwrap().class(m),
            KeyClass::Medium
        );
        assert_eq!(Key::from_str("abcdefghi").unwrap().class(m), KeyClass::Long);
    }

    #[test]
    fn segments_pack_and_unpack() {
        let k = Key::from_str("yours").unwrap();
        assert_eq!(k.segments(), 2);
        let segs: Vec<u32> = (0..2).map(|i| k.segment(i)).collect();
        assert_eq!(segs[0], u32::from_be_bytes(*b"your"));
        assert_eq!(segs[1], u32::from_be_bytes([b's', 0, 0, 0]));
        assert_eq!(Key::from_segments(&segs).unwrap(), k);
    }

    #[test]
    fn distinct_long_keys_have_distinct_first_segments_hashing() {
        // "yours" and "yourself" share the "your" prefix; coalesced
        // placement distinguishes them by hashing the *whole* key.
        let a = Key::from_str("yours").unwrap();
        let b = Key::from_str("yourself").unwrap();
        assert_eq!(a.segment(0), b.segment(0));
        assert_ne!(a.hash64(), b.hash64());
    }

    #[test]
    fn from_u64_roundtrips_uniqueness() {
        let mut seen = std::collections::HashSet::new();
        for v in 0..10_000u64 {
            let k = Key::from_u64(v);
            assert!(seen.insert(k.clone()), "collision at {v} ({k})");
            assert!(k.len() <= 8);
        }
    }

    #[test]
    fn from_u64_has_no_nul() {
        for v in [0u64, 1, 254, 255, 256, 65_535, u64::MAX] {
            let k = Key::from_u64(v);
            assert!(!k.as_bytes().contains(&0));
        }
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!Key::from_str("x").unwrap().to_string().is_empty());
    }

    #[test]
    fn hash_is_stable() {
        // Pin the FNV-1a value so cross-run determinism is explicit.
        assert_eq!(Key::from_str("hello").unwrap().hash64(), fnv1a(b"hello"));
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }
}
