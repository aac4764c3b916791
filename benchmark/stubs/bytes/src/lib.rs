//! Local stand-in for `bytes`: big-endian reads from `&[u8]` and writes
//! into a growable buffer.

use std::ops::Deref;

/// An immutable byte buffer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bytes(Vec<u8>);

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// A growable byte buffer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    pub fn with_capacity(n: usize) -> Self {
        BytesMut(Vec::with_capacity(n))
    }

    pub fn freeze(self) -> Bytes {
        Bytes(self.0)
    }
}

/// Append to a buffer.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }
}

/// Consume from the front of a buffer. The `get_*` methods panic when
/// fewer bytes remain than they read, as in the published crate.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, n: usize);

    fn copy_to_array<const N: usize>(&mut self) -> [u8; N] {
        let out: [u8; N] = self.chunk()[..N].try_into().expect("slice of length N");
        self.advance(N);
        out
    }
    fn get_u8(&mut self) -> u8 {
        self.copy_to_array::<1>()[0]
    }
    fn get_u16(&mut self) -> u16 {
        u16::from_be_bytes(self.copy_to_array())
    }
    fn get_u32(&mut self) -> u32 {
        u32::from_be_bytes(self.copy_to_array())
    }
    fn get_u64(&mut self) -> u64 {
        u64::from_be_bytes(self.copy_to_array())
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
}
