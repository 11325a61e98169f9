//! Minimal, std-only reimplementation of the subset of the `bytes` crate API
//! that Canal Mesh uses (`Bytes`, `BytesMut`, `Buf`, `BufMut`).
//!
//! The build environment has no crates.io access, so the workspace vendors
//! this shim as a path dependency named `bytes`; call sites are unchanged.
//! `Bytes` is a cheaply cloneable view (`Arc<[u8]>` + range) and `BytesMut`
//! is a growable `Vec<u8>` wrapper. All integer accessors are big-endian,
//! matching the real crate's `get_u16`/`put_u16` family.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// Read-side cursor trait: a shrinking window over a byte sequence.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// The unconsumed bytes as one contiguous slice.
    fn chunk(&self) -> &[u8];
    /// Consume `cnt` bytes from the front.
    fn advance(&mut self, cnt: usize);

    /// Pop one byte.
    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    /// Pop a big-endian `u16`.
    fn get_u16(&mut self) -> u16 {
        let c = self.chunk();
        let v = u16::from_be_bytes([c[0], c[1]]);
        self.advance(2);
        v
    }

    /// Pop a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        let c = self.chunk();
        let v = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
        self.advance(4);
        v
    }

    /// Pop a big-endian `u64`.
    fn get_u64(&mut self) -> u64 {
        let c = self.chunk();
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&c[..8]);
        self.advance(8);
        u64::from_be_bytes(raw)
    }

    /// Fill `dst` from the front of the buffer.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }
}

/// Write-side trait: append primitives to a growable buffer.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

/// Immutable, cheaply cloneable byte buffer: a shared allocation plus a
/// `[start, end)` view into it. `slice`/`split_off` are O(1) and allocation
/// free; `advance` narrows the view in place.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copy a slice into a fresh buffer: one allocation, one copy.
    pub fn copy_from_slice(src: &[u8]) -> Self {
        Bytes {
            data: Arc::from(src),
            start: 0,
            end: src.len(),
        }
    }

    /// `head` followed by `tail` in one fresh buffer: one allocation of
    /// exactly their summed length (a `TrustedLen` iterator collects into an
    /// `Arc<[u8]>` without a staging `Vec`), zero-filled, then each part
    /// copied in once.
    pub fn concat(head: &[u8], tail: &[u8]) -> Self {
        let len = head.len() + tail.len();
        let mut data: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
        // Just created, so never shared: `get_mut` always succeeds.
        if let Some(buf) = Arc::get_mut(&mut data) {
            let (h, t) = buf.split_at_mut(head.len());
            h.copy_from_slice(head);
            t.copy_from_slice(tail);
        }
        Bytes { data, start: 0, end: len }
    }

    /// Length of the visible window.
    pub(crate) fn len(&self) -> usize {
        self.end - self.start
    }

    /// The visible bytes.
    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    fn resolve(&self, range: impl RangeBounds<usize>) -> (usize, usize) {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of range");
        (lo, hi)
    }

    /// O(1) sub-view sharing the same allocation.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let (lo, hi) = self.resolve(range);
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Split off and return everything from `at`; `self` keeps the front.
    pub fn split_off(&mut self, at: usize) -> Bytes {
        let tail = self.slice(at..);
        self.end = self.start + at;
        tail
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        self.start += cnt;
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: v.into(),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(s: &[u8; N]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl From<&str> for Bytes {
    fn from(s: &str) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for e in std::ascii::escape_default(b) {
                write!(f, "{}", e as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Growable byte buffer; freezes into a shareable [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    inner: Vec<u8>,
}

impl BytesMut {
    /// Empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            inner: Vec::with_capacity(cap),
        }
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.inner.extend_from_slice(src);
    }

    /// Remove and return the first `at` bytes; `self` keeps the rest.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        let tail = self.inner.split_off(at);
        BytesMut {
            inner: std::mem::replace(&mut self.inner, tail),
        }
    }

    /// Convert into an immutable, cheaply cloneable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.inner)
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.inner.extend_from_slice(src);
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.inner
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.inner
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.inner
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(v: Vec<u8>) -> Self {
        BytesMut { inner: v }
    }
}

impl From<&[u8]> for BytesMut {
    fn from(s: &[u8]) -> Self {
        BytesMut { inner: s.to_vec() }
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        b.freeze()
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BytesMut({:?})", Bytes::from(self.inner.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_ints_big_endian() {
        let mut w = BytesMut::with_capacity(16);
        w.put_u8(0xAB);
        w.put_u16(0x1234);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0102_0304_0506_0708);
        assert_eq!(w.len(), 15);
        let mut r = w.freeze();
        assert_eq!(r.get_u8(), 0xAB);
        assert_eq!(r.get_u16(), 0x1234);
        assert_eq!(r.get_u32(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64(), 0x0102_0304_0506_0708);
        assert!(r.is_empty());
    }

    #[test]
    fn slice_shares_allocation_and_windows_correctly() {
        let b = Bytes::from(b"hello world");
        let w = b.slice(6..);
        assert_eq!(w.as_slice(), b"world");
        let h = b.slice(0..5);
        assert_eq!(h.as_slice(), b"hello");
        // Nested slices compose.
        assert_eq!(w.slice(1..3).as_slice(), b"or");
    }

    #[test]
    fn advance_and_split_views() {
        let mut b = Bytes::from(b"abcdef");
        b.advance(2);
        assert_eq!(b.as_slice(), b"cdef");
        let tail = b.split_off(2);
        assert_eq!(b.as_slice(), b"cd");
        assert_eq!(tail.as_slice(), b"ef");

        let mut m = BytesMut::from(&b"abcdef"[..]);
        let head = m.split_to(2);
        assert_eq!(&head[..], b"ab");
        assert_eq!(&m[..], b"cdef");
    }

    #[test]
    fn mut_indexing_patches_in_place() {
        let mut m = BytesMut::from(&b"xx-xx"[..]);
        m[2..3].copy_from_slice(b"+");
        assert_eq!(&m[..], b"xx+xx");
    }

    #[test]
    #[should_panic(expected = "slice out of range")]
    fn slice_out_of_range_panics() {
        let _ = Bytes::from(b"ab").slice(0..3);
    }

    #[test]
    fn concat_is_head_then_tail() {
        let cases: [(&[u8], &[u8]); 4] = [(b"head", b"tail"), (b"", b"tail"), (b"head", b""), (b"", b"")];
        for (head, tail) in cases {
            let joined = Bytes::concat(head, tail);
            assert_eq!(joined.as_slice(), [head, tail].concat().as_slice());
            assert_eq!(joined.len(), head.len() + tail.len());
            assert_eq!(joined.is_empty(), head.is_empty() && tail.is_empty());
            // Slices and clones of the result see the same bytes.
            assert_eq!(joined.slice(..head.len()).as_slice(), head);
            assert_eq!(joined.slice(head.len()..).as_slice(), tail);
            let copy = joined.clone();
            assert_eq!(copy, joined);
            assert!(Arc::ptr_eq(&copy.data, &joined.data), "a clone shares the buffer");
        }
        // A slice outlives the buffer it was cut from.
        let mut joined = Bytes::concat(b"abc", b"def");
        let middle = joined.slice(2..4);
        joined.advance(3);
        drop(joined);
        assert_eq!(middle.as_slice(), b"cd");
    }

    #[test]
    fn equality_across_views() {
        let a = Bytes::from(b"payload");
        let b = Bytes::from(b"xxpayload").slice(2..);
        assert_eq!(a, b);
        assert_eq!(a, *b"payload");
    }
}
