//! Growable storage whose elements never move.
//!
//! A `Vec` grows by reallocating, which copies every element and, for
//! the per-shard stores of a metro run (megabytes each), leaves the old
//! block behind in the allocator's heap while the new one fills.  A
//! [`Chunks`] store grows by adding fixed-size chunks instead: each
//! chunk is allocated once, never reallocated, and kept by
//! [`Chunks::clear`] for the next fill.  An element's address is fixed
//! from its `push` until the store is dropped.
//!
//! A chunk is a fixed-size array, filled on allocation with copies of
//! the element that opens it, so an index splits into a chunk and an
//! offset that needs no bounds check.  Only the last chunk has slots
//! past the store's length, so the filling writes less than one chunk
//! more than the elements need.

use std::ops::{Index, IndexMut};

/// Elements per chunk unless a store picks its own length.  A power of
/// two, so an index splits into chunk and offset by a shift and a mask.
/// At 40-byte elements a chunk is 40 KiB, far below the size at which a
/// growing store's copies and abandoned blocks show in a metro run's
/// peak memory.
pub(crate) const CHUNK_LEN: usize = 1024;

/// A growable array of fixed-size chunks of `LEN` elements (a power of
/// two).
#[derive(Debug, Clone)]
pub(crate) struct Chunks<T, const LEN: usize = CHUNK_LEN> {
    /// The elements `0..len` in order, then stale ones up to the end of
    /// the last chunk.
    chunks: Vec<Box<[T; LEN]>>,
    len: usize,
}

impl<T, const LEN: usize> Default for Chunks<T, LEN> {
    fn default() -> Self {
        Self {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Copy, const LEN: usize> Chunks<T, LEN> {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Elements the allocated chunks hold without allocating.
    pub(crate) fn capacity(&self) -> usize {
        self.chunks.len() * LEN
    }

    /// Append `value`, allocating a chunk only when every allocated one
    /// is full.
    pub(crate) fn push(&mut self, value: T) {
        let chunk = self.len / LEN;
        if chunk == self.chunks.len() {
            let Ok(filled) = vec![value; LEN].into_boxed_slice().try_into() else {
                unreachable!("a chunk holds LEN elements");
            };
            self.chunks.push(filled);
        } else {
            self.chunks[chunk][self.len % LEN] = value;
        }
        self.len += 1;
    }

    /// Remove and return the last element, keeping its chunk.
    pub(crate) fn pop(&mut self) -> Option<T> {
        let last = *self.get(self.len.checked_sub(1)?)?;
        self.len -= 1;
        Some(last)
    }

    pub(crate) fn get(&self, index: usize) -> Option<&T> {
        (index < self.len).then(|| &self[index])
    }

    /// Every element, in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flat_map(|c| c.iter()).take(self.len)
    }

    /// Every element, in index order, for update.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.chunks
            .iter_mut()
            .flat_map(|c| c.iter_mut())
            .take(self.len)
    }

    /// Remove every element, keeping every chunk.
    pub(crate) fn clear(&mut self) {
        self.len = 0;
    }
}

/// Indexing checks only that the chunk exists: an index past the length
/// inside the last chunk reads a stale element (debug builds panic).
impl<T: Copy, const LEN: usize> Index<usize> for Chunks<T, LEN> {
    type Output = T;

    #[inline]
    fn index(&self, index: usize) -> &T {
        debug_assert!(
            index < self.len,
            "index {index} past the length {}",
            self.len
        );
        &self.chunks[index / LEN][index % LEN]
    }
}

impl<T: Copy, const LEN: usize> IndexMut<usize> for Chunks<T, LEN> {
    #[inline]
    fn index_mut(&mut self, index: usize) -> &mut T {
        debug_assert!(
            index < self.len,
            "index {index} past the length {}",
            self.len
        );
        &mut self.chunks[index / LEN][index % LEN]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elements_keep_their_address_while_the_store_grows() {
        let mut store: Chunks<_> = Chunks::default();
        store.push(7u64);
        let first: *const u64 = &store[0];
        for i in 1..10 * CHUNK_LEN as u64 {
            store.push(i);
        }
        assert!(std::ptr::eq(first, &store[0]), "the first element moved");
        assert_eq!(store.len(), 10 * CHUNK_LEN);
        assert_eq!(store.capacity(), 10 * CHUNK_LEN);
        assert_eq!(store[CHUNK_LEN + 3], CHUNK_LEN as u64 + 3);
        assert_eq!(store.get(10 * CHUNK_LEN), None);
        assert_eq!(store.iter().count(), store.len());
    }

    #[test]
    fn pop_and_clear_keep_the_chunks() {
        let mut store: Chunks<_> = Chunks::default();
        for i in 0..3 * CHUNK_LEN as u32 {
            store.push(i);
        }
        for _ in 0..CHUNK_LEN + 1 {
            store.pop();
        }
        assert_eq!(store.len(), 2 * CHUNK_LEN - 1);
        assert_eq!(store[store.len() - 1], 2 * CHUNK_LEN as u32 - 2);
        store.push(9);
        assert_eq!(
            (store[2 * CHUNK_LEN - 1], store.get(2 * CHUNK_LEN)),
            (9, None)
        );
        store.clear();
        assert!(store.len() == 0 && store.pop().is_none());
        assert_eq!(store.capacity(), 3 * CHUNK_LEN, "clear keeps every chunk");
        for i in 0..3 * CHUNK_LEN as u32 {
            store.push(i);
        }
        assert_eq!(store.capacity(), 3 * CHUNK_LEN, "a refill reuses them");
        assert_eq!(
            store.clone().iter().copied().sum::<u32>(),
            store.iter().sum()
        );
    }
}
