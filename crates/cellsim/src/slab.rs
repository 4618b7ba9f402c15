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
//! (the engines keep a call's position in its station there).  The tag
//! sits in the alignment padding after the generation, so for 8-byte
//! aligned values it costs no memory.

use serde::{Deserialize, Serialize};

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
}

#[derive(Debug, Clone)]
struct Entry<T> {
    generation: u32,
    tag: u32,
    value: Option<T>,
}

/// Dense generational storage with a free list.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    #[must_use]
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
            free: Vec::new(),
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
    #[must_use]
    pub fn vacant_index(&self) -> u32 {
        match self.free.last() {
            Some(&index) => index,
            None => u32::try_from(self.entries.len()).expect("slab exceeds u32::MAX slots"),
        }
    }

    /// Insert a value with tag 0, reusing a freed slot when one exists.
    pub fn insert(&mut self, value: T) -> SlotId {
        self.insert_tagged(value, 0)
    }

    /// Insert a value with `tag`, reusing a freed slot when one exists;
    /// the handle's index is [`Slab::vacant_index`] as it was before the
    /// call.
    pub fn insert_tagged(&mut self, value: T, tag: u32) -> SlotId {
        self.len += 1;
        if let Some(index) = self.free.pop() {
            let entry = &mut self.entries[index as usize];
            debug_assert!(entry.value.is_none(), "free list pointed at a live slot");
            entry.tag = tag;
            entry.value = Some(value);
            SlotId {
                index,
                generation: entry.generation,
            }
        } else {
            let index = self.vacant_index();
            self.entries.push(Entry {
                generation: 0,
                tag,
                value: Some(value),
            });
            SlotId {
                index,
                generation: 0,
            }
        }
    }

    /// The tag of the value behind `id`, if the handle is still current.
    #[must_use]
    pub fn tag(&self, id: SlotId) -> Option<u32> {
        let entry = self.entries.get(id.index())?;
        (entry.generation == id.generation && entry.value.is_some()).then_some(entry.tag)
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
        debug_assert!(entry.value.is_some(), "tagging a free slot");
        entry.tag = tag;
    }

    /// The value behind `id`, if the handle is still current.
    #[must_use]
    pub fn get(&self, id: SlotId) -> Option<&T> {
        let entry = self.entries.get(id.index())?;
        if entry.generation != id.generation {
            return None;
        }
        entry.value.as_ref()
    }

    /// Remove and return the value behind `id`; stale or double-freed
    /// handles return `None`.  The slot's generation is bumped so every
    /// outstanding handle to it goes stale, and the slot joins the free
    /// list for reuse.
    pub fn remove(&mut self, id: SlotId) -> Option<T> {
        let entry = self.entries.get_mut(id.index())?;
        if entry.generation != id.generation {
            return None;
        }
        let value = entry.value.take()?;
        entry.generation = entry.generation.wrapping_add(1);
        self.free.push(id.index);
        self.len -= 1;
        Some(value)
    }

    /// Drop every live value and invalidate every outstanding handle,
    /// keeping the backing storage for reuse.
    pub fn clear(&mut self) {
        self.free.clear();
        for (index, entry) in self.entries.iter_mut().enumerate() {
            if entry.value.take().is_some() {
                entry.generation = entry.generation.wrapping_add(1);
            }
            self.free.push(index as u32);
        }
        self.len = 0;
    }

    /// Iterator over the live values (slot-index order).
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &T)> {
        self.entries.iter().enumerate().filter_map(|(i, e)| {
            e.value.as_ref().map(|v| {
                (
                    SlotId {
                        index: i as u32,
                        generation: e.generation,
                    },
                    v,
                )
            })
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
    fn user_entries_stay_48_bytes() {
        // The tag fills the padding after the generation.
        assert_eq!(std::mem::size_of::<Entry<crate::mobility::UserState>>(), 48);
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
