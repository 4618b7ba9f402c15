//! An implicit 4-ary min-heap over a growable store: the event queue's
//! near and overflow heaps and the sharded engine's barrier-merge queue.
//!
//! The heap is generic over its store, so a heap that stays small keeps
//! a plain `Vec`, and one that can grow to megabytes keeps fixed
//! [`Chunks`] that grow without copying.

use crate::chunks::Chunks;

/// Children per node.
const ARITY: usize = 4;

/// A heap element: the heap pops the smallest key first.  Keys of the
/// elements in one heap are distinct wherever the pop order is observed,
/// so the order is total and any correct heap pops the same sequence.
pub(crate) trait Keyed: Copy {
    type Key: Ord;

    fn key(&self) -> Self::Key;
}

/// `true` when `a` pops before `b`.
#[inline]
pub(crate) fn precedes<E: Keyed>(a: &E, b: &E) -> bool {
    a.key() < b.key()
}

/// What a [`Heap`] keeps its elements in.
pub(crate) trait Store: Default {
    type Item: Keyed;

    fn len(&self) -> usize;
    fn at(&self, index: usize) -> &Self::Item;
    /// The index of the earliest of the items `first..end`.
    fn earliest(&self, first: usize, end: usize) -> usize;
    fn set(&mut self, index: usize, item: Self::Item);
    fn push(&mut self, item: Self::Item);
    fn pop(&mut self) -> Option<Self::Item>;
}

impl<E: Keyed> Store for Vec<E> {
    type Item = E;

    #[inline]
    fn len(&self) -> usize {
        Vec::len(self)
    }

    #[inline]
    fn at(&self, index: usize) -> &E {
        &self[index]
    }

    #[inline]
    fn earliest(&self, first: usize, end: usize) -> usize {
        let items = &self[first..end];
        let mut best = 0;
        for (i, item) in items.iter().enumerate().skip(1) {
            if precedes(item, &items[best]) {
                best = i;
            }
        }
        first + best
    }

    #[inline]
    fn set(&mut self, index: usize, item: E) {
        self[index] = item;
    }

    #[inline]
    fn push(&mut self, item: E) {
        Vec::push(self, item);
    }

    #[inline]
    fn pop(&mut self) -> Option<E> {
        Vec::pop(self)
    }
}

impl<E: Keyed> Store for Chunks<E> {
    type Item = E;

    fn len(&self) -> usize {
        Chunks::len(self)
    }

    fn at(&self, index: usize) -> &E {
        &self[index]
    }

    fn earliest(&self, first: usize, end: usize) -> usize {
        (first + 1..end).fold(first, |best, i| {
            if precedes(&self[i], &self[best]) {
                i
            } else {
                best
            }
        })
    }

    fn set(&mut self, index: usize, item: E) {
        self[index] = item;
    }

    fn push(&mut self, item: E) {
        Chunks::push(self, item);
    }

    fn pop(&mut self) -> Option<E> {
        Chunks::pop(self)
    }
}

/// An implicit 4-ary min-heap.
#[derive(Debug, Clone, Default)]
pub(crate) struct Heap<S> {
    /// Heap order: the children of node `i` are `ARITY * i + 1 ..=
    /// ARITY * i + ARITY`, and no child pops before its parent.
    pub(crate) items: S,
}

impl<S: Store> Heap<S> {
    #[inline]
    pub(crate) fn push(&mut self, item: S::Item) {
        self.items.push(item);
        self.sift_up(self.items.len() - 1, item);
    }

    pub(crate) fn pop(&mut self) -> Option<S::Item> {
        let last = self.items.pop()?;
        if self.items.len() == 0 {
            return Some(last);
        }
        let first = *self.items.at(0);
        self.sift_down(last);
        Some(first)
    }

    pub(crate) fn peek(&self) -> Option<&S::Item> {
        (self.items.len() > 0).then(|| self.items.at(0))
    }

    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.items.len() == 0
    }

    /// Move `item`, just written at `pos`, up past every parent it pops
    /// before, shifting those parents down into the hole.
    fn sift_up(&mut self, mut pos: usize, item: S::Item) {
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            let above = *self.items.at(parent);
            if !precedes(&item, &above) {
                break;
            }
            self.items.set(pos, above);
            pos = parent;
        }
        self.items.set(pos, item);
    }

    /// Refill the root hole with `item` (the former last element): move
    /// the earliest child up while it pops before `item`, and stop at the
    /// first level where `item` fits.
    fn sift_down(&mut self, item: S::Item) {
        let len = self.items.len();
        let mut pos = 0;
        loop {
            let first_child = ARITY * pos + 1;
            if first_child >= len {
                break;
            }
            let best = self
                .items
                .earliest(first_child, len.min(first_child + ARITY));
            let child = *self.items.at(best);
            if !precedes(&child, &item) {
                break;
            }
            self.items.set(pos, child);
            pos = best;
        }
        self.items.set(pos, item);
    }
}
