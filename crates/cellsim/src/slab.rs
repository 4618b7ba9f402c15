//! A generational slab: dense, free-list-recycled storage for short-lived
//! per-connection state.
//!
//! The simulator admits and releases connections millions of times per
//! run; a `HashMap<u64, _>` pays a SipHash plus a probe sequence on every
//! touch and re-allocates as it grows.  A [`Slab`] instead hands out
//! [`SlotId`] handles (index + generation): insertion reuses a free slot
//! when one exists (so steady-state call setup/teardown never allocates),
//! lookup is a bounds-checked array access, and the generation counter
//! makes stale handles — e.g. a departure event whose connection already
//! handed off and completed elsewhere — miss safely instead of aliasing a
//! recycled slot.
//!
//! Each slot also carries a caller-defined `u32` *tag* beside its value
//! (the engines keep a call's position in its station there).
//!
//! An entry is the generation, the tag and the value, with no `Option`
//! around the value: 40 bytes for a [`crate::mobility::UserState`].  The
//! generation's parity says whether the slot is live (odd) or vacant
//! (even), and a vacant slot's tag links it into the free list, so the
//! free list costs no storage of its own.  Values are `Copy`, so a vacant
//! slot's stale value needs no drop.  Entries live in fixed-size chunks
//! that are never reallocated, so a slab grows without copying and keeps
//! its chunks across [`Slab::clear`].

use crate::chunks::Chunks;
use serde::{Deserialize, Serialize};

/// A slot index the slab never issues: the free list's end, and the
/// index a packed event stores for "no user".
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// A generational handle into a [`Slab`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SlotId {
    index: u32,
    generation: u32,
}

impl SlotId {
    /// The slot's position in the slab's backing storage.
    #[must_use]
    pub fn index(self) -> usize {
        self.index as usize
    }

    /// The generation the handle was issued for.
    #[must_use]
    pub fn generation(self) -> u32 {
        self.generation
    }

    /// The handle's index and generation, as a packed event stores them.
    pub(crate) fn parts(self) -> (u32, u32) {
        (self.index, self.generation)
    }

    /// The handle with these parts.
    pub(crate) fn from_parts(index: u32, generation: u32) -> Self {
        Self { index, generation }
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry<T> {
    /// Odd while the slot holds a value; bumped on every insert and
    /// remove, so a handle matches only the value it was issued for.
    generation: u32,
    /// The caller's tag while live; the next vacant slot (or [`NO_SLOT`])
    /// while vacant.
    tag: u32,
    /// The live value, or the last one the slot held.
    value: T,
}

impl<T> Entry<T> {
    fn is_live(&self) -> bool {
        self.generation & 1 == 1
    }
}

/// Dense generational storage with a free list.
#[derive(Debug, Clone)]
pub struct Slab<T: Copy> {
    entries: Chunks<Entry<T>>,
    /// The most recently vacated slot, or [`NO_SLOT`].
    free: u32,
    len: usize,
}

impl<T: Copy> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> Slab<T> {
    /// An empty slab.
    #[must_use]
    pub fn new() -> Self {
        Self {
            entries: Chunks::default(),
            free: NO_SLOT,
            len: 0,
        }
    }

    /// Number of live values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no values are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Capacity of the backing storage (live + recyclable slots).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// The slot index the next insertion will use.
    ///
    /// # Panics
    ///
    /// If every slot is live and the slab already holds `u32::MAX` slots.
    #[must_use]
    pub fn vacant_index(&self) -> u32 {
        if self.free != NO_SLOT {
            return self.free;
        }
        u32::try_from(self.entries.len())
            .ok()
            .filter(|&index| index != NO_SLOT)
            .expect("slab exceeds u32::MAX slots")
    }

    /// Insert a value with tag 0, reusing a freed slot when one exists.
    pub fn insert(&mut self, value: T) -> SlotId {
        self.insert_tagged(value, 0)
    }

    /// Insert a value with `tag`, reusing a freed slot when one exists;
    /// the handle's index is [`Slab::vacant_index`] as it was before the
    /// call.
    pub fn insert_tagged(&mut self, value: T, tag: u32) -> SlotId {
        let index = self.vacant_index();
        self.len += 1;
        if index == self.free {
            let entry = &mut self.entries[index as usize];
            debug_assert!(!entry.is_live(), "free list pointed at a live slot");
            self.free = entry.tag;
            entry.generation = entry.generation.wrapping_add(1);
            entry.tag = tag;
            entry.value = value;
            SlotId {
                index,
                generation: entry.generation,
            }
        } else {
            self.entries.push(Entry {
                generation: 1,
                tag,
                value,
            });
            SlotId {
                index,
                generation: 1,
            }
        }
    }

    /// The live entry behind `id`, if the handle is still current.
    fn live(&self, id: SlotId) -> Option<&Entry<T>> {
        let entry = self.entries.get(id.index())?;
        (entry.generation == id.generation && entry.is_live()).then_some(entry)
    }

    /// The tag of the value behind `id`, if the handle is still current.
    #[must_use]
    pub fn tag(&self, id: SlotId) -> Option<u32> {
        self.live(id).map(|entry| entry.tag)
    }

    /// Set the tag of the live value in slot `index` (a [`SlotId::index`]
    /// its owner recorded).
    ///
    /// # Panics
    ///
    /// If `index` is past every slot; in debug builds also if the slot is
    /// free.
    pub fn set_tag(&mut self, index: usize, tag: u32) {
        let entry = &mut self.entries[index];
        debug_assert!(entry.is_live(), "tagging a free slot");
        entry.tag = tag;
    }

    /// The value behind `id`, if the handle is still current.
    #[must_use]
    pub fn get(&self, id: SlotId) -> Option<&T> {
        self.live(id).map(|entry| &entry.value)
    }

    /// Remove and return the value behind `id`; stale or double-freed
    /// handles return `None`.  The slot's generation is bumped so every
    /// outstanding handle to it goes stale, and the slot joins the free
    /// list for reuse.
    pub fn remove(&mut self, id: SlotId) -> Option<T> {
        let value = self.live(id)?.value;
        let entry = &mut self.entries[id.index()];
        entry.generation = entry.generation.wrapping_add(1);
        entry.tag = self.free;
        self.free = id.index;
        self.len -= 1;
        Some(value)
    }

    /// Drop every live value and invalidate every outstanding handle,
    /// keeping the backing storage for reuse.  Insertions then reuse the
    /// slots from the highest index down.
    pub fn clear(&mut self) {
        let mut next = NO_SLOT;
        for (index, entry) in self.entries.iter_mut().enumerate() {
            if entry.is_live() {
                entry.generation = entry.generation.wrapping_add(1);
            }
            entry.tag = next;
            next = index as u32;
        }
        self.free = next;
        self.len = 0;
    }

    /// Iterator over the live values (slot-index order).
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &T)> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_live())
            .map(|(i, e)| {
                (
                    SlotId {
                        index: i as u32,
                        generation: e.generation,
                    },
                    &e.value,
                )
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a), Some(&"a"));
        assert_eq!(slab.get(b), Some(&"b"));
        assert_eq!(slab.remove(a), Some("a"));
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.remove(a), None, "double free misses");
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn freed_slots_are_reused_without_growing() {
        let mut slab = Slab::new();
        let ids: Vec<SlotId> = (0..8).map(|i| slab.insert(i)).collect();
        let cap = slab.entries.len();
        for id in &ids {
            slab.remove(*id);
        }
        for i in 0..8 {
            slab.insert(100 + i);
        }
        assert_eq!(slab.entries.len(), cap, "teardown/setup must recycle slots");
        assert_eq!(slab.len(), 8);
    }

    #[test]
    fn stale_handles_miss_recycled_slots() {
        let mut slab = Slab::new();
        let old = slab.insert(1);
        slab.remove(old);
        let new = slab.insert(2);
        assert_eq!(old.index(), new.index(), "slot is recycled");
        assert_ne!(old.generation(), new.generation());
        assert_eq!(slab.get(old), None, "stale handle must miss");
        assert_eq!(slab.get(new), Some(&2));
    }

    #[test]
    fn clear_invalidates_everything_and_keeps_capacity() {
        let mut slab = Slab::new();
        let ids: Vec<SlotId> = (0..16).map(|i| slab.insert(i)).collect();
        let cap = slab.capacity();
        slab.clear();
        assert!(slab.is_empty());
        assert_eq!(slab.capacity(), cap);
        for id in ids {
            assert_eq!(slab.get(id), None);
        }
        let reborn = slab.insert(7);
        assert_eq!(slab.get(reborn), Some(&7));
        assert!(reborn.index() < 16, "clear feeds the free list");
    }

    #[test]
    fn tags_follow_their_slot_and_stale_handles_miss_them() {
        let mut slab = Slab::new();
        assert_eq!(slab.vacant_index(), 0);
        let a = slab.insert_tagged("a", 7);
        let b = slab.insert("b");
        assert_eq!((slab.tag(a), slab.tag(b)), (Some(7), Some(0)));
        slab.set_tag(b.index(), 9);
        assert_eq!(slab.tag(b), Some(9));
        slab.remove(a);
        assert_eq!(slab.tag(a), None, "a freed slot's tag is gone");
        assert_eq!(
            slab.vacant_index() as usize,
            a.index(),
            "the freed slot is next"
        );
        let c = slab.insert_tagged("c", 3);
        assert_eq!(c.index(), a.index());
        assert_eq!((slab.tag(a), slab.tag(c)), (None, Some(3)));
        assert_eq!(slab.vacant_index(), 2);
    }

    #[test]
    fn user_entries_are_40_bytes() {
        // The generation and the tag share one word; no `Option`
        // discriminant pads the value.
        assert_eq!(std::mem::size_of::<Entry<crate::mobility::UserState>>(), 40);
    }

    #[test]
    fn iter_visits_live_values_in_slot_order() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let _b = slab.insert("b");
        let _c = slab.insert("c");
        slab.remove(a);
        let seen: Vec<&str> = slab.iter().map(|(_, v)| *v).collect();
        assert_eq!(seen, vec!["b", "c"]);
        for (id, v) in slab.iter() {
            assert_eq!(slab.get(id), Some(v));
        }
    }
}
