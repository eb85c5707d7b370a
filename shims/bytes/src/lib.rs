//! In-tree stand-in for the `bytes` crate.
//!
//! [`Bytes`] is an `Arc`-backed immutable byte buffer with O(1) `clone` and
//! `slice`; [`BytesMut`] is a growable builder that freezes into one. As
//! upstream, `Bytes::from(Vec<u8>)` and [`BytesMut::freeze`] take the
//! vector's allocation over without copying it. The [`Buf`]/[`BufMut`]
//! traits carry the little-endian accessor subset the wire codec uses, and
//! `Buf` is implemented for `&[u8]` so a borrowed slice parses without
//! becoming a `Bytes`. Semantics (cursor advance, panic on underflow) match
//! upstream for that subset.

use std::ops::Range;
use std::sync::Arc;

/// Immutable, cheaply cloneable byte buffer view.
#[derive(Debug, Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Length of the view in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the view is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Sub-view of `range` (relative to this view), sharing the allocation.
    ///
    /// # Panics
    /// Panics when the range is out of bounds.
    #[must_use]
    pub fn slice(&self, range: Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice out of bounds"
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Copies the view into a fresh `Vec<u8>`.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Copies a slice into a fresh `Bytes` (one copy) — the reuse-friendly
    /// way to ship a staging buffer's contents without consuming the
    /// buffer.
    #[must_use]
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        data.to_vec().into()
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

/// Takes the vector's allocation over: O(1), no copy.
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

/// Growable byte buffer that freezes into [`Bytes`].
#[derive(Debug, Clone, Default)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// Empty buffer with no allocation.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty buffer with at least `cap` bytes of capacity.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Current length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no bytes have been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Converts into an immutable [`Bytes`] over the same allocation
    /// (O(1), no copy).
    #[must_use]
    pub fn freeze(self) -> Bytes {
        self.buf.into()
    }

    /// Clears the buffer, keeping its capacity — the reuse primitive for
    /// per-worker staging buffers.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Reserves capacity for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Appends raw bytes (the inherent spelling of [`BufMut::put_slice`],
    /// for call sites that don't want the trait in scope).
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }

    /// Current capacity in bytes — lets pools observe warm-up.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl AsMut<[u8]> for BytesMut {
    fn as_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

/// Read cursor over a byte source (little-endian accessor subset).
///
/// Accessors consume from the front and panic when fewer bytes remain than
/// requested, matching upstream `bytes`.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Borrows the unread bytes.
    fn chunk(&self) -> &[u8];

    /// Drops `n` bytes from the front.
    fn advance(&mut self, n: usize);

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(&self.chunk()[..4]);
        self.advance(4);
        u32::from_le_bytes(raw)
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        u64::from_le_bytes(raw)
    }

    /// Reads a little-endian `f64`.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end of Bytes");
        self.start += n;
    }
}

/// A borrowed slice is its own cursor: reading shrinks it from the front.
impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end of slice");
        *self = &self[n..];
    }
}

/// Write cursor appending to a byte sink (little-endian subset).
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_le_accessors() {
        let mut b = BytesMut::with_capacity(32);
        b.put_u32_le(0xDEAD_BEEF);
        b.put_u8(7);
        b.put_u64_le(42);
        b.put_f64_le(-1.5);
        let mut bytes = b.freeze();
        assert_eq!(bytes.len(), 4 + 1 + 8 + 8);
        assert_eq!(bytes.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(bytes.get_u8(), 7);
        assert_eq!(bytes.get_u64_le(), 42);
        assert_eq!(bytes.get_f64_le(), -1.5);
        assert_eq!(bytes.remaining(), 0);
    }

    #[test]
    fn slice_shares_and_offsets() {
        let bytes: Bytes = vec![0, 1, 2, 3, 4, 5].into();
        let mid = bytes.slice(2..5);
        assert_eq!(mid.to_vec(), vec![2, 3, 4]);
        assert_eq!(bytes.len(), 6, "parent view unaffected");
        let sub = mid.slice(1..2);
        assert_eq!(sub.to_vec(), vec![3]);
    }

    #[test]
    #[should_panic(expected = "advance past end")]
    fn advance_past_end_panics() {
        let mut b: Bytes = vec![1u8].into();
        b.advance(2);
    }

    #[test]
    fn from_vec_and_freeze_keep_the_allocation() {
        let v = vec![1u8, 2, 3, 4];
        let ptr = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ref().as_ptr(), ptr);

        let mut b = BytesMut::with_capacity(16);
        b.put_u64_le(7);
        let ptr = b.as_ref().as_ptr();
        assert_eq!(b.freeze().as_ref().as_ptr(), ptr);
    }

    #[test]
    fn slice_shares_the_allocation() {
        let bytes: Bytes = vec![0, 1, 2, 3, 4, 5].into();
        let base = bytes.as_ref().as_ptr();
        assert_eq!(bytes.slice(2..5).as_ref().as_ptr(), base.wrapping_add(2));
        assert_eq!(
            bytes.slice(2..5).slice(1..2).as_ref().as_ptr(),
            base.wrapping_add(3)
        );
    }

    #[test]
    fn slice_cursor_reads_like_bytes() {
        let mut b = BytesMut::new();
        b.put_u32_le(0xDEAD_BEEF);
        b.put_u8(7);
        b.put_u64_le(42);
        b.put_f64_le(-1.5);
        let raw = b.freeze();
        let mut slice: &[u8] = raw.as_ref();
        let mut bytes = raw.clone();
        assert_eq!(slice.get_u32_le(), bytes.get_u32_le());
        assert_eq!(slice.get_u8(), bytes.get_u8());
        assert_eq!(slice.remaining(), bytes.remaining());
        assert_eq!(slice.get_u64_le(), bytes.get_u64_le());
        assert_eq!(slice.get_f64_le().to_bits(), bytes.get_f64_le().to_bits());
        assert_eq!(slice.remaining(), 0);
        assert_eq!(bytes.remaining(), 0);
        assert!(slice.chunk().is_empty());
    }

    #[test]
    #[should_panic(expected = "advance past end")]
    fn slice_advance_past_end_panics() {
        let mut s: &[u8] = &[1u8];
        s.advance(2);
    }

    #[test]
    #[should_panic]
    fn slice_get_past_end_panics() {
        let mut s: &[u8] = &[1u8, 2, 3, 4];
        let _ = s.get_u64_le();
    }

    #[test]
    #[should_panic]
    fn bytes_get_past_end_panics() {
        let mut b: Bytes = vec![1u8, 2, 3, 4].into();
        let _ = b.get_u64_le();
    }

    #[test]
    fn equality_ignores_offsets() {
        let a: Bytes = vec![9, 8, 7].into();
        let b: Bytes = vec![0, 9, 8, 7].into();
        assert_eq!(a, b.slice(1..4));
    }
}
