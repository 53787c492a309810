//! Versioned, length-prefixed binary frame codec for [`BlockMsg`]s.
//!
//! The byte-oriented transport backend (shared-memory rings) ships every
//! [`WireEnvelope`] as one *frame*:
//!
//! ```text
//! ┌──────────────┬───────────────────────────────────────────────┐
//! │ length  u32  │ body (length bytes)                           │
//! └──────────────┴───────────────────────────────────────────────┘
//!
//! body layout (all integers little-endian):
//!   offset  size  field
//!        0     4  magic          b"PGLU"
//!        4     1  version        2
//!        5     1  role tag       1..=5 (see below)
//!        6     1  width tag      payload element width in bytes (8 | 4)
//!        7     1  reserved       0
//!        8     4  from           sending rank
//!       12     8  seq            sender-side sequence number
//!       20     8  delay_nanos    injected delivery delay (fault layer)
//!       28     8  bi             block row
//!       36     8  bj             block column
//!       44     8  reserved       0
//!       52     4  nvals          payload element count
//!       56    wn  payload        nvals elements of width w
//! ```
//!
//! Role tags: 1 `DiagFactor`, 2 `LPanel`, 3 `UPanel`, 4 `XSegment`,
//! 5 `Partial`. Tags 6 and 7 are retired and decode as
//! [`CodecError::BadRole`]. The eight bytes at offset 44 are reserved:
//! written as zero and ignored on decode, so the header keeps its size
//! and every frame its exact bytes.
//!
//! Version 2 added the width tag (byte 6, previously reserved-zero):
//! an f32 factorisation ships 4-byte elements, and a receiver expecting
//! one element width rejects frames carrying the other
//! ([`CodecError::WidthMismatch`]) instead of reinterpreting bytes.
//! Version-1 frames — whose width byte was always 0 — are rejected as
//! [`CodecError::BadVersion`] before the width is even inspected.
//!
//! Decoding is defensive: wrong magic, unknown version or role, a
//! mismatched element width, an oversized or undersized length prefix,
//! and a body whose length disagrees with its element count all surface
//! as a structured [`CodecError`] — never a panic, never an
//! out-of-bounds read. The
//! [`FrameDecoder`] reassembles frames from an arbitrary byte stream
//! (a ring read may split a frame or carry several).
//!
//! Fan-out stays one-serialise: [`PayloadMemo`] caches the encoded bytes
//! of the most recent `Arc<[S]>` payload, so a finished block scattered
//! to several destinations is encoded **once** and only the 60-byte
//! header + length prefix is rewritten per edge.

use std::sync::Arc;

use pangulu_sparse::Scalar;

use crate::msg::{BlockMsg, BlockRole};
use crate::transport::WireEnvelope;

/// Frame magic: the first four body bytes of every frame.
pub const MAGIC: [u8; 4] = *b"PGLU";
/// Current frame-format version. Version 2 added the payload
/// element-width tag at body offset 6.
pub const VERSION: u8 = 2;
/// Fixed body header size (before the payload values).
pub const HEADER_LEN: usize = 56;
/// Upper bound on the body length a decoder will accept. Anything larger
/// is rejected as [`CodecError::Oversized`] before any allocation.
pub const MAX_FRAME_LEN: u32 = 1 << 30;

/// A structured decode failure. Every variant is a malformed or hostile
/// input the decoder refuses without panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The body did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unknown frame-format version.
    BadVersion(u8),
    /// Unknown role tag.
    BadRole(u8),
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// A complete body was shorter than its own layout requires.
    Truncated {
        /// Bytes the layout requires.
        needed: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The frame carries elements of a different width than the
    /// receiver's precision expects (e.g. an f32 payload arriving at an
    /// f64 endpoint). Reinterpreting would silently corrupt values, so
    /// the frame is rejected instead.
    WidthMismatch {
        /// Element width the receiver expects.
        expected: u8,
        /// Element width stamped in the frame header.
        got: u8,
    },
    /// The length prefix disagrees with the header's element count.
    LengthMismatch {
        /// Body length claimed by the prefix.
        claimed: usize,
        /// Body length derived from `nvals`.
        derived: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic(m) => {
                write!(f, "bad frame magic {m:02x?} (expected {MAGIC:02x?})")
            }
            CodecError::BadVersion(v) => {
                write!(f, "unsupported frame version {v} (speak {VERSION})")
            }
            CodecError::BadRole(t) => write!(f, "unknown role tag {t}"),
            CodecError::Oversized(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            CodecError::Truncated { needed, have } => {
                write!(f, "truncated frame: need {needed} bytes, have {have}")
            }
            CodecError::WidthMismatch { expected, got } => {
                write!(f, "frame carries {got}-byte elements, receiver expects {expected}-byte")
            }
            CodecError::LengthMismatch { claimed, derived } => {
                write!(f, "frame length prefix {claimed} disagrees with payload-derived {derived}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

fn role_tag(role: BlockRole) -> u8 {
    match role {
        BlockRole::DiagFactor => 1,
        BlockRole::LPanel => 2,
        BlockRole::UPanel => 3,
        BlockRole::XSegment => 4,
        BlockRole::Partial => 5,
    }
}

fn role_from(tag: u8) -> Result<BlockRole, CodecError> {
    Ok(match tag {
        1 => BlockRole::DiagFactor,
        2 => BlockRole::LPanel,
        3 => BlockRole::UPanel,
        4 => BlockRole::XSegment,
        5 => BlockRole::Partial,
        other => return Err(CodecError::BadRole(other)),
    })
}

/// Body length of a frame carrying `nvals` payload elements of
/// precision `S`.
pub fn body_len<S: Scalar>(nvals: usize) -> usize {
    HEADER_LEN + S::WIDTH * nvals
}

/// Encodes a payload slice to its wire representation (little-endian
/// elements of `S::WIDTH` bytes each).
pub fn encode_payload<S: Scalar>(values: &[S]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * S::WIDTH);
    for v in values {
        v.write_le(&mut out);
    }
    out
}

/// Appends the length prefix and body header for `env` to `out`. The
/// caller appends the (possibly shared, pre-encoded) payload bytes after
/// it; together they form one complete frame.
pub fn encode_header<S: Scalar>(env: &WireEnvelope<S>, out: &mut Vec<u8>) {
    let nvals = env.msg.values.len();
    out.extend_from_slice(&(body_len::<S>(nvals) as u32).to_le_bytes());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(role_tag(env.msg.role));
    out.push(S::WIDTH_TAG);
    out.push(0);
    out.extend_from_slice(&env.from.to_le_bytes());
    out.extend_from_slice(&env.seq.to_le_bytes());
    out.extend_from_slice(&env.delay_nanos.to_le_bytes());
    out.extend_from_slice(&(env.msg.bi as u64).to_le_bytes());
    out.extend_from_slice(&(env.msg.bj as u64).to_le_bytes());
    out.extend_from_slice(&[0u8; 8]);
    out.extend_from_slice(&(nvals as u32).to_le_bytes());
}

/// Encodes one complete frame (length prefix + header + payload).
pub fn encode_frame<S: Scalar>(env: &WireEnvelope<S>) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + body_len::<S>(env.msg.values.len()));
    encode_header(env, &mut out);
    out.extend_from_slice(&encode_payload(&env.msg.values));
    out
}

fn rd_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("4-byte slice"))
}

fn rd_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("8-byte slice"))
}

/// Decodes one complete frame **body** (the bytes after the length
/// prefix). `claimed` is the length the prefix announced; the body slice
/// must already be that long — the [`FrameDecoder`] guarantees it.
pub fn decode_body<S: Scalar>(body: &[u8]) -> Result<WireEnvelope<S>, CodecError> {
    if body.len() < HEADER_LEN {
        return Err(CodecError::Truncated { needed: HEADER_LEN, have: body.len() });
    }
    let magic: [u8; 4] = body[0..4].try_into().expect("4-byte slice");
    if magic != MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    if body[4] != VERSION {
        return Err(CodecError::BadVersion(body[4]));
    }
    if body[6] != S::WIDTH_TAG {
        return Err(CodecError::WidthMismatch { expected: S::WIDTH_TAG, got: body[6] });
    }
    let nvals = rd_u32(body, 52) as usize;
    let derived = body_len::<S>(nvals);
    if body.len() != derived {
        return Err(CodecError::LengthMismatch { claimed: body.len(), derived });
    }
    let role = role_from(body[5])?;
    let mut values = Vec::with_capacity(nvals);
    for i in 0..nvals {
        let at = HEADER_LEN + S::WIDTH * i;
        values.push(S::read_le(&body[at..at + S::WIDTH]));
    }
    Ok(WireEnvelope {
        from: rd_u32(body, 8),
        seq: rd_u64(body, 12),
        delay_nanos: rd_u64(body, 20),
        msg: BlockMsg {
            bi: rd_u64(body, 28) as usize,
            bj: rd_u64(body, 36) as usize,
            role,
            values: values.into(),
        },
    })
}

/// Incremental frame reassembly over an arbitrary byte stream.
///
/// Feed raw bytes with [`FrameDecoder::extend`]; pull complete envelopes
/// with [`FrameDecoder::next_frame`], which returns `Ok(None)` while a
/// frame is still incomplete and a [`CodecError`] as soon as the stream
/// is provably malformed (at which point the stream is unrecoverable —
/// framing is lost).
pub struct FrameDecoder<S: Scalar = f64> {
    buf: Vec<u8>,
    pos: usize,
    _marker: std::marker::PhantomData<S>,
}

impl<S: Scalar> Default for FrameDecoder<S> {
    fn default() -> Self {
        FrameDecoder { buf: Vec::new(), pos: 0, _marker: std::marker::PhantomData }
    }
}

impl<S: Scalar> FrameDecoder<S> {
    /// A fresh decoder with an empty reassembly buffer.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends raw stream bytes to the reassembly buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact lazily so the buffer cannot grow without bound.
        if self.pos > 0 && (self.pos >= 4096 || self.pos == self.buf.len()) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Extracts the next complete frame, if one is fully buffered.
    pub fn next_frame(&mut self) -> Result<Option<WireEnvelope<S>>, CodecError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let claimed = rd_u32(avail, 0);
        if claimed > MAX_FRAME_LEN {
            return Err(CodecError::Oversized(claimed));
        }
        let claimed = claimed as usize;
        if claimed < HEADER_LEN {
            return Err(CodecError::Truncated { needed: HEADER_LEN, have: claimed });
        }
        if avail.len() < 4 + claimed {
            return Ok(None);
        }
        let env = decode_body::<S>(&avail[4..4 + claimed])?;
        self.pos += 4 + claimed;
        Ok(Some(env))
    }
}

/// One-slot encode-once cache for scattered payloads.
///
/// `finish_block` fans one `Arc<[S]>` out to every dependent rank with
/// consecutive sends; the memo recognises the repeated payload (by
/// pointer identity, keeping a strong reference so the allocation cannot
/// be recycled under the key) and hands back the same encoded bytes, so
/// the scatter serialises the values exactly once.
/// The memo slot: the payload used as key (held strongly, so the
/// allocation cannot be recycled under it) and its encoded bytes.
type MemoSlot<S> = (Arc<[S]>, Arc<[u8]>);

pub struct PayloadMemo<S: Scalar = f64> {
    cached: Option<MemoSlot<S>>,
}

impl<S: Scalar> Default for PayloadMemo<S> {
    fn default() -> Self {
        PayloadMemo { cached: None }
    }
}

impl<S: Scalar> PayloadMemo<S> {
    /// Returns the wire bytes of `values`, encoding only when the payload
    /// differs from the previous call's. `fresh_bytes` is bumped by the
    /// number of bytes newly produced.
    pub fn encoded(&mut self, values: &Arc<[S]>, fresh_bytes: &mut u64) -> Arc<[u8]> {
        if let Some((vals, bytes)) = &self.cached {
            if Arc::ptr_eq(vals, values) {
                return bytes.clone();
            }
        }
        let bytes: Arc<[u8]> = encode_payload(values).into();
        *fresh_bytes += bytes.len() as u64;
        self.cached = Some((values.clone(), bytes.clone()));
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(role: BlockRole, values: Vec<f64>) -> WireEnvelope<f64> {
        WireEnvelope {
            from: 3,
            seq: 41,
            delay_nanos: 1250,
            msg: BlockMsg { bi: 7, bj: 9, role, values: values.into() },
        }
    }

    #[test]
    fn roundtrip_every_role() {
        let roles = [
            BlockRole::DiagFactor,
            BlockRole::LPanel,
            BlockRole::UPanel,
            BlockRole::XSegment,
            BlockRole::Partial,
        ];
        for role in roles {
            let e = env(role, vec![1.5, -2.25, f64::MIN_POSITIVE, 0.0]);
            let frame = encode_frame(&e);
            let got = decode_body::<f64>(&frame[4..]).expect("decode");
            assert_eq!(got.from, e.from);
            assert_eq!(got.seq, e.seq);
            assert_eq!(got.delay_nanos, e.delay_nanos);
            assert_eq!(got.msg.bi, e.msg.bi);
            assert_eq!(got.msg.bj, e.msg.bj);
            assert_eq!(got.msg.role, e.msg.role);
            assert_eq!(&*got.msg.values, &*e.msg.values);
        }
    }

    #[test]
    fn decoder_reassembles_split_frames() {
        let a = encode_frame(&env(BlockRole::LPanel, vec![1.0, 2.0]));
        let b = encode_frame(&env(BlockRole::Partial, vec![3.0]));
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        let mut dec = FrameDecoder::<f64>::new();
        let mut got = Vec::new();
        for chunk in stream.chunks(7) {
            dec.extend(chunk);
            while let Some(e) = dec.next_frame().expect("clean stream") {
                got.push(e);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(&*got[0].msg.values, &[1.0, 2.0]);
        assert_eq!(got[1].msg.role, BlockRole::Partial);
        assert_eq!(dec.pending_bytes(), 0);
    }

    #[test]
    fn retired_role_tags_are_bad_role() {
        for tag in [0u8, 6, 7] {
            let mut frame = encode_frame(&env(BlockRole::LPanel, vec![1.0]));
            frame[4 + 5] = tag;
            assert_eq!(decode_body::<f64>(&frame[4..]).unwrap_err(), CodecError::BadRole(tag));
        }
    }

    #[test]
    fn bad_magic_is_an_error_not_a_panic() {
        let mut frame = encode_frame(&env(BlockRole::UPanel, vec![1.0]));
        frame[4] = b'X';
        let mut dec = FrameDecoder::<f64>::new();
        dec.extend(&frame);
        assert!(matches!(dec.next_frame(), Err(CodecError::BadMagic(_))));
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        let mut dec = FrameDecoder::<f64>::new();
        dec.extend(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert_eq!(dec.next_frame(), Err(CodecError::Oversized(MAX_FRAME_LEN + 1)));
    }

    #[test]
    fn memo_encodes_a_fanout_payload_once() {
        let values: Arc<[f64]> = vec![1.0, 2.0, 3.0].into();
        let mut memo = PayloadMemo::default();
        let mut fresh = 0u64;
        let a = memo.encoded(&values, &mut fresh);
        let b = memo.encoded(&values, &mut fresh);
        assert!(Arc::ptr_eq(&a, &b), "fan-out must reuse the encoded buffer");
        assert_eq!(fresh, 24, "three f64s encoded exactly once");
        let other: Arc<[f64]> = vec![9.0].into();
        let c = memo.encoded(&other, &mut fresh);
        assert_eq!(&*c, &9.0f64.to_le_bytes());
        assert_eq!(fresh, 32);
    }
}
