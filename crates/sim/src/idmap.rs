//! A map keyed by request ids that are handed out in increasing order.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

/// Live ids at most this far past the oldest dense entry are stored
/// densely; ids outside the window fall back to a tree. Bounds the dense
/// window's memory whatever ids a caller uses.
const MAX_WINDOW: u64 = 1 << 14;

/// A map from `u64` request ids to values, for ids that are allocated in
/// increasing order and retire roughly in order — the in-flight request
/// tables of a memory system.
///
/// Ids within a window of the oldest live id sit in a ring indexed by
/// offset, so insert, lookup and remove are an index rather than a tree
/// walk. Ids outside the window (a caller's arbitrary ids, or a request
/// that outlives 16 K later ones) go to a `BTreeMap`, so any id pattern
/// is correct and memory stays bounded.
///
/// # Example
///
/// ```rust
/// use matraptor_sim::IdMap;
///
/// let mut m = IdMap::new();
/// m.insert(7, 'a');
/// m.insert(8, 'b');
/// assert_eq!(m.remove(7), Some('a'));
/// assert_eq!(m.entries(), vec![(8, 'b')]);
/// ```
#[derive(Debug, Clone)]
pub struct IdMap<V> {
    /// Id of `window[0]`.
    base: u64,
    /// Dense entries; `window[0]` is occupied whenever the window is not
    /// empty.
    window: VecDeque<Option<V>>,
    /// Entries whose ids fell outside the window when first inserted; an
    /// id lives in exactly one of `window` and `overflow`.
    overflow: BTreeMap<u64, V>,
    len: usize,
}

impl<V> Default for IdMap<V> {
    fn default() -> Self {
        IdMap { base: 0, window: VecDeque::new(), overflow: BTreeMap::new(), len: 0 }
    }
}

impl<V: Copy> IdMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map has no live entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The window slot holding `id`, if it is there.
    fn slot(&self, id: u64) -> Option<usize> {
        let off = id.checked_sub(self.base)?;
        (off < self.window.len() as u64 && self.window[off as usize].is_some())
            .then_some(off as usize)
    }

    /// Inserts `v` at `id`, returning the value it replaced.
    pub fn insert(&mut self, id: u64, v: V) -> Option<V> {
        if let Entry::Occupied(mut e) = self.overflow.entry(id) {
            return Some(e.insert(v));
        }
        if self.window.is_empty() {
            self.base = id;
        }
        let old = match id.checked_sub(self.base) {
            Some(off) if off < MAX_WINDOW => {
                let off = off as usize;
                if off >= self.window.len() {
                    self.window.resize(off + 1, None);
                }
                self.window[off].replace(v)
            }
            _ => self.overflow.insert(id, v),
        };
        if old.is_none() {
            // conformance:allow(cast-safety): counts live entries, bounded by memory
            self.len += 1;
        }
        old
    }

    /// The value at `id`.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut V> {
        match self.slot(id) {
            Some(i) => self.window[i].as_mut(),
            None => self.overflow.get_mut(&id),
        }
    }

    /// Whether `id` has a live entry.
    pub fn contains_key(&self, id: u64) -> bool {
        self.slot(id).is_some() || self.overflow.contains_key(&id)
    }

    /// Removes and returns the value at `id`.
    pub fn remove(&mut self, id: u64) -> Option<V> {
        let v = match self.slot(id) {
            Some(i) => {
                let v = self.window[i].take();
                while let Some(None) = self.window.front() {
                    self.window.pop_front();
                    // Wraps only past the last id, once the window is empty.
                    self.base = self.base.wrapping_add(1);
                }
                v
            }
            None => self.overflow.remove(&id),
        };
        if v.is_some() {
            // conformance:allow(cast-safety): a live entry was just removed, so len ≥ 1
            self.len -= 1;
        }
        v
    }

    /// Every live entry in increasing id order.
    pub fn entries(&self) -> Vec<(u64, V)> {
        let dense = self.window.iter().enumerate();
        let mut out: Vec<(u64, V)> = dense
            .filter_map(|(i, v)| v.map(|v| (self.base + i as u64, v)))
            .chain(self.overflow.iter().map(|(&id, &v)| (id, v)))
            .collect();
        if !self.overflow.is_empty() {
            out.sort_unstable_by_key(|&(id, _)| id);
        }
        out
    }
}

impl<V: Copy> FromIterator<(u64, V)> for IdMap<V> {
    fn from_iter<I: IntoIterator<Item = (u64, V)>>(iter: I) -> Self {
        let mut m = IdMap::new();
        for (id, v) in iter {
            m.insert(id, v);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A deterministic xorshift stream, enough to shuffle ids.
    fn stream(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// Replays random inserts/removes on an `IdMap` and a `BTreeMap` and
    /// requires identical answers and contents after every step.
    fn agrees_with_btreemap(mut next_id: impl FnMut(&mut dyn FnMut() -> u64) -> u64, seed: u64) {
        let mut rng = stream(seed);
        let mut m = IdMap::new();
        let mut reference = BTreeMap::new();
        for step in 0..4000u64 {
            let id = next_id(&mut rng);
            if rng().is_multiple_of(3) {
                assert_eq!(m.remove(id), reference.remove(&id), "remove {id} at {step}");
            } else {
                assert_eq!(m.insert(id, step), reference.insert(id, step), "insert {id} at {step}");
            }
            assert_eq!(m.contains_key(id), reference.contains_key(&id));
            assert_eq!(m.get_mut(id).copied(), reference.get(&id).copied());
            assert_eq!(m.len(), reference.len());
        }
        let want: Vec<(u64, u64)> = reference.into_iter().collect();
        assert_eq!(m.entries(), want);
        assert_eq!(want.iter().copied().collect::<IdMap<u64>>().entries(), want);
    }

    #[test]
    fn monotone_ids_agree_with_a_btreemap() {
        let mut counter = 0u64;
        agrees_with_btreemap(
            |rng| {
                counter += 1;
                // Mostly fresh ids, sometimes a recent one again.
                if rng().is_multiple_of(2) {
                    counter
                } else {
                    counter.saturating_sub(rng() % 64)
                }
            },
            1,
        );
    }

    #[test]
    fn scattered_ids_agree_with_a_btreemap() {
        agrees_with_btreemap(|rng| rng() % 200, 2);
        agrees_with_btreemap(|rng| rng() % (4 * MAX_WINDOW), 3);
        agrees_with_btreemap(
            |rng| if rng().is_multiple_of(2) { rng() % 8 } else { u64::MAX - rng() % 8 },
            4,
        );
    }

    #[test]
    fn a_straggler_does_not_grow_the_window_without_bound() {
        let mut m = IdMap::new();
        m.insert(0, ());
        for id in 1..3 * MAX_WINDOW {
            m.insert(id, ());
            m.remove(id);
        }
        assert!(m.window.len() as u64 <= MAX_WINDOW);
        assert_eq!(m.entries(), vec![(0, ())]);
    }
}
