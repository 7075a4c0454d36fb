//! Hand-rolled binary wire codec.
//!
//! Byte counts drive the communication cost model, so the encoding is kept
//! explicit and deterministic: little-endian fixed-width integers, `f64` as
//! IEEE-754 bits, and length-prefixed sequences. No external serialization
//! crate is used (DESIGN.md §5).

use std::fmt;
use std::io::{Read, Write};

/// Decoding error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    UnexpectedEnd,
    /// An enum tag byte was not recognized.
    BadTag(u8),
    /// A declared length exceeds the remaining input.
    BadLength(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEnd => write!(f, "unexpected end of input"),
            WireError::BadTag(t) => write!(f, "unrecognized tag byte {t}"),
            WireError::BadLength(l) => write!(f, "declared length {l} exceeds input"),
        }
    }
}

impl std::error::Error for WireError {}

/// Where [`Wire::encode`] writes its bytes: a buffer, or a counter that
/// only measures. Encoding into the counter is how every message's exact
/// size is derived, so `encode` is the one definition of a wire format.
pub trait WireSink {
    /// Appends one byte.
    fn push(&mut self, byte: u8);
    /// Appends a run of bytes.
    fn extend_from_slice(&mut self, bytes: &[u8]);
}

impl WireSink for Vec<u8> {
    fn push(&mut self, byte: u8) {
        Vec::push(self, byte);
    }
    fn extend_from_slice(&mut self, bytes: &[u8]) {
        Vec::extend_from_slice(self, bytes);
    }
}

/// A [`WireSink`] that counts the bytes it is given and stores none.
struct ByteCounter(usize);

impl WireSink for ByteCounter {
    fn push(&mut self, _byte: u8) {
        self.0 += 1;
    }
    fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// Types with a canonical wire encoding.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode<S: WireSink>(&self, out: &mut S);

    /// Decodes a value from the front of `input`, advancing it.
    ///
    /// # Errors
    /// Returns a [`WireError`] on truncated or malformed input.
    fn decode(input: &mut &[u8]) -> Result<Self, WireError>;

    /// Exact encoded size in bytes, derived by encoding into a sink that
    /// only counts (no allocation).
    fn encoded_len(&self) -> usize {
        let mut counter = ByteCounter(0);
        self.encode(&mut counter);
        counter.0
    }

    /// Encodes into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        buf
    }

    /// Decodes a value that must consume the entire input.
    ///
    /// # Errors
    /// Returns [`WireError::BadLength`] when trailing bytes remain.
    fn from_bytes(mut input: &[u8]) -> Result<Self, WireError> {
        let v = Self::decode(&mut input)?;
        if input.is_empty() {
            Ok(v)
        } else {
            Err(WireError::BadLength(input.len()))
        }
    }
}

/// Splits `n` bytes off the front of `input`, erroring when short — the
/// primitive decoder building block (exposed for downstream message enums).
///
/// # Errors
/// Returns [`WireError::UnexpectedEnd`] when fewer than `n` bytes remain.
pub fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if input.len() < n {
        return Err(WireError::UnexpectedEnd);
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

macro_rules! impl_wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode<S: WireSink>(&self, buf: &mut S) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
                let bytes = take(input, std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("exact length")))
            }
        }
    )*};
}

impl_wire_int!(u8, u16, u32, u64, i64);

impl Wire for f64 {
    fn encode<S: WireSink>(&self, buf: &mut S) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let bytes = take(input, 8)?;
        Ok(f64::from_le_bytes(bytes.try_into().expect("exact length")))
    }
}

impl Wire for usize {
    fn encode<S: WireSink>(&self, buf: &mut S) {
        (*self as u64).encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(u64::decode(input)? as usize)
    }
}

impl Wire for bool {
    fn encode<S: WireSink>(&self, buf: &mut S) {
        buf.push(u8::from(*self));
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode<S: WireSink>(&self, buf: &mut S) {
        (self.len() as u32).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = u32::decode(input)? as usize;
        // Guard against absurd lengths from corrupt input.
        if len > input.len().saturating_mul(8).saturating_add(16) {
            return Err(WireError::BadLength(len));
        }
        let mut out = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            out.push(T::decode(input)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode<S: WireSink>(&self, buf: &mut S) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for String {
    fn encode<S: WireSink>(&self, buf: &mut S) {
        (self.len() as u32).encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = u32::decode(input)? as usize;
        let bytes = take(input, len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadTag(0xff))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode<S: WireSink>(&self, buf: &mut S) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::decode(input)?, B::decode(input)?))
    }
}

// ---------------------------------------------------------------------------
// Length-prefixed stream framing
// ---------------------------------------------------------------------------

/// Upper bound on a single frame's payload. Large enough for any selection
/// request or reply this workspace produces, small enough that a corrupt or
/// hostile length prefix cannot trigger a huge allocation.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// A failure while reading a framed message off a byte stream.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (including EOF *inside* a frame).
    Io(std::io::Error),
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    TooLarge(usize),
    /// The payload arrived intact but does not decode as the expected type.
    Wire(WireError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::TooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME_BYTES}-byte cap")
            }
            FrameError::Wire(e) => write!(f, "frame payload undecodable: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            FrameError::Wire(e) => Some(e),
            FrameError::TooLarge(_) => None,
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes `msg` as one frame: a little-endian `u32` payload length followed
/// by the payload's canonical [`Wire`] encoding, then flushes.
///
/// # Errors
/// Propagates stream errors.
///
/// # Panics
/// Panics if the encoding exceeds [`MAX_FRAME_BYTES`] (a frame that
/// [`read_frame`] would refuse; sending it would only poison the peer).
pub fn write_frame<W: Write>(w: &mut W, msg: &impl Wire) -> std::io::Result<()> {
    let payload = msg.to_bytes();
    assert!(payload.len() <= MAX_FRAME_BYTES, "outbound frame exceeds MAX_FRAME_BYTES");
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&payload)?;
    w.flush()
}

/// Reads one frame and decodes its payload. Returns `Ok(None)` on a clean
/// EOF *at a frame boundary* (the peer closed between messages); EOF inside
/// a frame is an [`FrameError::Io`] error.
///
/// # Errors
/// [`FrameError`] on stream failure, an oversized length prefix, or a
/// payload that does not decode as `T` (trailing bytes included).
pub fn read_frame<R: Read, T: Wire>(r: &mut R) -> Result<Option<T>, FrameError> {
    let mut len_bytes = [0u8; 4];
    // Hand-rolled first-byte probe so that "peer closed between frames" is
    // distinguishable from "peer died mid-frame".
    match r.read(&mut len_bytes[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
            return read_frame(r);
        }
        Err(e) => return Err(FrameError::Io(e)),
    }
    r.read_exact(&mut len_bytes[1..])?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    T::from_bytes(&payload).map(Some).map_err(FrameError::Wire)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), v.encoded_len(), "encoded_len must be exact");
        assert_eq!(T::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(u8::MAX);
        roundtrip(12_345u32);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(std::f64::consts::PI);
        roundtrip(f64::NEG_INFINITY);
        roundtrip(true);
        roundtrip(987_654usize);
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<f64>::new());
        roundtrip("hello wire".to_owned());
        roundtrip((7u32, vec![1.5f64, -2.5]));
        roundtrip(vec![vec![1u8, 2], vec![], vec![3]]);
        roundtrip(Option::<u64>::None);
        roundtrip(Some(42u64));
        roundtrip(vec![Some(1.5f64), None, Some(-3.0)]);
    }

    #[test]
    fn option_tag_is_validated() {
        assert_eq!(Option::<u64>::from_bytes(&[2]), Err(WireError::BadTag(2)));
        assert_eq!(Option::<u64>::from_bytes(&[0]), Ok(None));
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = 123_456u64.to_bytes();
        assert_eq!(u64::from_bytes(&bytes[..4]), Err(WireError::UnexpectedEnd));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 1u8.to_bytes();
        bytes.push(0);
        assert!(matches!(u8::from_bytes(&bytes), Err(WireError::BadLength(1))));
    }

    #[test]
    fn bad_bool_tag_rejected() {
        assert_eq!(bool::from_bytes(&[2]), Err(WireError::BadTag(2)));
    }

    #[test]
    fn absurd_vec_length_rejected() {
        // Claim 2^31 elements with 0 bytes of payload.
        let mut buf = Vec::new();
        (u32::MAX / 2).encode(&mut buf);
        assert!(Vec::<u64>::from_bytes(&buf).is_err());
    }

    #[test]
    fn frames_roundtrip_over_a_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &vec![1u64, 2, 3]).unwrap();
        write_frame(&mut buf, &"two".to_owned()).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame::<_, Vec<u64>>(&mut r).unwrap(), Some(vec![1, 2, 3]));
        assert_eq!(read_frame::<_, String>(&mut r).unwrap(), Some("two".to_owned()));
        // Clean EOF at the frame boundary: None, not an error.
        assert!(read_frame::<_, String>(&mut r).unwrap().is_none());
    }

    #[test]
    fn truncated_frame_is_an_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &vec![7u64; 4]).unwrap();
        let mut r = &buf[..buf.len() - 3];
        assert!(matches!(read_frame::<_, Vec<u64>>(&mut r), Err(FrameError::Io(_))));
        // Truncated even inside the length prefix: still Io, not None.
        let mut r = &buf[..2];
        assert!(matches!(read_frame::<_, Vec<u64>>(&mut r), Err(FrameError::Io(_))));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let bytes = (u32::MAX).to_le_bytes().to_vec();
        let mut r = &bytes[..];
        assert!(matches!(
            read_frame::<_, Vec<u64>>(&mut r),
            Err(FrameError::TooLarge(n)) if n == u32::MAX as usize
        ));
    }

    #[test]
    fn frame_payload_type_mismatch_is_a_wire_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &3u8).unwrap();
        let mut r = &buf[..];
        assert!(matches!(read_frame::<_, u64>(&mut r), Err(FrameError::Wire(_))));
    }

    #[test]
    fn vec_len_matches_distance_batches() {
        // A batch of 100 f64 partial distances costs 4 + 800 bytes.
        let batch = vec![0.5f64; 100];
        assert_eq!(batch.encoded_len(), 804);
    }
}
