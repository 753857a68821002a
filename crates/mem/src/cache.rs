//! A generic set-associative tag store with LRU replacement.

use crate::{CacheGeometry, LineAddr};
use std::fmt;
use std::num::NonZeroU32;

/// Error returned by [`SetAssocCache::insert_respecting`] when every way of
/// the target set holds a pinned (non-evictable) line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PinnedSetFull;

impl fmt::Display for PinnedSetFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("all ways of the set hold pinned lines")
    }
}

impl std::error::Error for PinnedSetFull {}

/// Outcome of inserting a line into a [`SetAssocCache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictionOutcome {
    /// The line was already present (its LRU position was refreshed).
    Hit,
    /// The line was inserted into a free way.
    Inserted,
    /// The line was inserted, evicting the returned victim.
    Evicted(LineAddr),
}

/// A set-associative tag store with true-LRU replacement, carrying a payload
/// of type `T` per line.
///
/// This models the *presence* side of a cache (tags + replacement); data
/// lives in the flat [`Memory`](crate::Memory). The payload `T` carries
/// per-line metadata such as MESI state or HTM read/write membership.
///
/// # Examples
///
/// ```
/// use clear_mem::{CacheGeometry, LineAddr, SetAssocCache, EvictionOutcome};
///
/// let mut c: SetAssocCache<()> = SetAssocCache::new(CacheGeometry::new(2, 2));
/// assert_eq!(c.insert(LineAddr(0), ()), EvictionOutcome::Inserted);
/// assert_eq!(c.insert(LineAddr(2), ()), EvictionOutcome::Inserted); // same set
/// assert_eq!(c.insert(LineAddr(4), ()), EvictionOutcome::Evicted(LineAddr(0)));
/// assert!(c.get(LineAddr(2)).is_some());
/// ```
#[derive(Clone)]
pub struct SetAssocCache<T> {
    geometry: CacheGeometry,
    /// `sets × ways` entries; `None` = free way.
    ways: Vec<Option<Entry<T>>>,
    /// Counter for LRU stamps; when it would wrap, every set's stamps are
    /// renormalised (see [`SetAssocCache::next_tick`]).
    tick: u32,
}

/// One way. With a payload of at most 4 bytes (the coherence layer's line
/// metadata, the CRT's `()`) an `Option<Entry<T>>` is 16 bytes: a u32
/// stamp rather than a u64 one keeps a 512-core machine's L1 tag stores
/// 3 MB smaller, and a stamp that is never zero lets `Option` use it as
/// its niche when the payload has none.
#[derive(Clone, Debug)]
struct Entry<T> {
    line: LineAddr,
    last_use: NonZeroU32,
    payload: T,
}

impl<T> SetAssocCache<T> {
    /// Creates an empty cache with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        let mut ways = Vec::new();
        ways.resize_with(geometry.lines(), || None);
        SetAssocCache {
            geometry,
            ways,
            tick: 0,
        }
    }

    /// The geometry this cache was created with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// The next LRU stamp. Stamps are only ever compared within one set,
    /// so when the counter would wrap, each set's stamps are rewritten as
    /// their ranks `1..=ways` — the same recency order, hence the same
    /// eviction decisions — and the counter restarts above them.
    fn next_tick(&mut self) -> NonZeroU32 {
        if self.tick == u32::MAX {
            for set in self.ways.chunks_mut(self.geometry.ways) {
                let mut order: Vec<&mut Entry<T>> = set.iter_mut().flatten().collect();
                order.sort_unstable_by_key(|e| e.last_use);
                for (rank, e) in order.into_iter().enumerate() {
                    e.last_use = NonZeroU32::MIN.saturating_add(rank as u32);
                }
            }
            self.tick = self.geometry.ways as u32;
        }
        self.tick += 1;
        NonZeroU32::new(self.tick).expect("incremented from a u32 below MAX")
    }

    fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        let set = self.geometry.set_index(line);
        let start = set * self.geometry.ways;
        start..start + self.geometry.ways
    }

    /// Returns a reference to the payload of `line` if present, refreshing
    /// its LRU position.
    pub fn touch(&mut self, line: LineAddr) -> Option<&mut T> {
        let tick = self.next_tick();
        let range = self.set_range(line);
        self.ways[range]
            .iter_mut()
            .flatten()
            .find(|e| e.line == line)
            .map(|e| {
                e.last_use = tick;
                &mut e.payload
            })
    }

    /// Index of `line`'s way in the backing store, if cached — lets a
    /// probe/apply pair share one lookup via [`SetAssocCache::payload_at`]
    /// and [`SetAssocCache::touch_at`] instead of re-scanning the set.
    /// The index stays valid until the cache is mutated.
    pub fn find_way(&self, line: LineAddr) -> Option<usize> {
        let range = self.set_range(line);
        let start = range.start;
        self.ways[range]
            .iter()
            .position(|e| e.as_ref().is_some_and(|e| e.line == line))
            .map(|i| start + i)
    }

    /// Payload at a way index obtained from [`SetAssocCache::find_way`].
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range or the way is free.
    pub fn payload_at(&self, way: usize) -> &T {
        &self.ways[way].as_ref().expect("occupied way").payload
    }

    /// Refreshes the LRU position of the entry at `way` (same effect as
    /// [`SetAssocCache::touch`] on its line) and returns its payload.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range or the way is free.
    pub fn touch_at(&mut self, way: usize) -> &mut T {
        let tick = self.next_tick();
        let e = self.ways[way].as_mut().expect("occupied way");
        e.last_use = tick;
        &mut e.payload
    }

    /// Returns a reference to the payload of `line` if present, without
    /// touching LRU state.
    pub fn get(&self, line: LineAddr) -> Option<&T> {
        let range = self.set_range(line);
        self.ways[range]
            .iter()
            .flatten()
            .find(|e| e.line == line)
            .map(|e| &e.payload)
    }

    /// Returns a mutable reference to the payload of `line` if present,
    /// without touching LRU state.
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut T> {
        let range = self.set_range(line);
        self.ways[range]
            .iter_mut()
            .flatten()
            .find(|e| e.line == line)
            .map(|e| &mut e.payload)
    }

    /// Returns `true` if `line` is present.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.get(line).is_some()
    }

    /// Inserts `line` with `payload`, evicting the LRU way of its set if the
    /// set is full. If the line is already present its payload is replaced
    /// and `Hit` is returned.
    pub fn insert(&mut self, line: LineAddr, payload: T) -> EvictionOutcome {
        let tick = self.next_tick();
        let range = self.set_range(line);

        // Already present?
        if let Some(e) = self.ways[range.clone()]
            .iter_mut()
            .flatten()
            .find(|e| e.line == line)
        {
            e.last_use = tick;
            e.payload = payload;
            return EvictionOutcome::Hit;
        }

        // Free way?
        if let Some(slot) = self.ways[range.clone()].iter_mut().find(|w| w.is_none()) {
            *slot = Some(Entry {
                line,
                last_use: tick,
                payload,
            });
            return EvictionOutcome::Inserted;
        }

        // Evict LRU.
        let victim_idx = range
            .clone()
            .min_by_key(|&i| self.ways[i].as_ref().map_or(0, |e| e.last_use.get()))
            .expect("non-empty set");
        let victim = self.ways[victim_idx]
            .replace(Entry {
                line,
                last_use: tick,
                payload,
            })
            .expect("victim way occupied");
        EvictionOutcome::Evicted(victim.line)
    }

    /// Inserts `line` only if it does not require evicting a *pinned* entry.
    ///
    /// `pinned` decides, from the payload, whether a resident line may be
    /// evicted.
    ///
    /// # Errors
    ///
    /// Returns [`PinnedSetFull`] (and leaves the cache unchanged) when all
    /// ways of the set are occupied by pinned lines. This models the fact
    /// that locked or transactionally-tracked lines cannot be silently
    /// dropped.
    pub fn insert_respecting<F>(
        &mut self,
        line: LineAddr,
        payload: T,
        pinned: F,
    ) -> Result<EvictionOutcome, PinnedSetFull>
    where
        F: Fn(&T) -> bool,
    {
        let tick = self.next_tick();
        let range = self.set_range(line);

        if let Some(e) = self.ways[range.clone()]
            .iter_mut()
            .flatten()
            .find(|e| e.line == line)
        {
            e.last_use = tick;
            e.payload = payload;
            return Ok(EvictionOutcome::Hit);
        }

        if let Some(slot) = self.ways[range.clone()].iter_mut().find(|w| w.is_none()) {
            *slot = Some(Entry {
                line,
                last_use: tick,
                payload,
            });
            return Ok(EvictionOutcome::Inserted);
        }

        let victim_idx = range
            .clone()
            .filter(|&i| {
                self.ways[i]
                    .as_ref()
                    .map(|e| !pinned(&e.payload))
                    .unwrap_or(true)
            })
            .min_by_key(|&i| self.ways[i].as_ref().map_or(0, |e| e.last_use.get()));

        match victim_idx {
            Some(i) => {
                let victim = self.ways[i]
                    .replace(Entry {
                        line,
                        last_use: tick,
                        payload,
                    })
                    .expect("victim way occupied");
                Ok(EvictionOutcome::Evicted(victim.line))
            }
            None => Err(PinnedSetFull),
        }
    }

    /// Removes `line`, returning its payload if it was present.
    pub fn remove(&mut self, line: LineAddr) -> Option<T> {
        let range = self.set_range(line);
        for i in range {
            if self.ways[i]
                .as_ref()
                .map(|e| e.line == line)
                .unwrap_or(false)
            {
                return self.ways[i].take().map(|e| e.payload);
            }
        }
        None
    }

    /// Iterates over all resident `(line, payload)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &T)> {
        self.ways.iter().flatten().map(|e| (e.line, &e.payload))
    }

    /// Iterates mutably over all resident `(line, payload)` pairs.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (LineAddr, &mut T)> {
        self.ways
            .iter_mut()
            .flatten()
            .map(|e| (e.line, &mut e.payload))
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.ways.iter().flatten().count()
    }

    /// Returns `true` if no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every resident line.
    pub fn clear(&mut self) {
        self.ways.iter_mut().for_each(|w| *w = None);
    }

    /// Checks whether a *set of lines* can be resident simultaneously:
    /// i.e., no set receives more lines than it has ways. This is the
    /// discovery-phase lockability test of §4.1 (assessment 2).
    pub fn fits_simultaneously<I>(geometry: CacheGeometry, lines: I) -> bool
    where
        I: IntoIterator<Item = LineAddr>,
    {
        let mut counts = vec![0usize; geometry.sets];
        for l in lines {
            let s = geometry.set_index(l);
            counts[s] += 1;
            if counts[s] > geometry.ways {
                return false;
            }
        }
        true
    }
}

impl<T: fmt::Debug> fmt::Debug for SetAssocCache<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SetAssocCache")
            .field("geometry", &self.geometry)
            .field("resident", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache<u32> {
        SetAssocCache::new(CacheGeometry::new(2, 2))
    }

    #[test]
    fn insert_then_get() {
        let mut c = small();
        assert_eq!(c.insert(LineAddr(1), 7), EvictionOutcome::Inserted);
        assert_eq!(c.get(LineAddr(1)), Some(&7));
        assert!(c.contains(LineAddr(1)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn reinsert_is_hit_and_replaces_payload() {
        let mut c = small();
        c.insert(LineAddr(1), 7);
        assert_eq!(c.insert(LineAddr(1), 8), EvictionOutcome::Hit);
        assert_eq!(c.get(LineAddr(1)), Some(&8));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_picks_oldest() {
        let mut c = small();
        // Lines 0, 2, 4 all map to set 0 (2 sets).
        c.insert(LineAddr(0), 0);
        c.insert(LineAddr(2), 2);
        c.touch(LineAddr(0)); // 2 becomes LRU
        assert_eq!(
            c.insert(LineAddr(4), 4),
            EvictionOutcome::Evicted(LineAddr(2))
        );
        assert!(c.contains(LineAddr(0)));
        assert!(c.contains(LineAddr(4)));
    }

    #[test]
    fn remove_returns_payload() {
        let mut c = small();
        c.insert(LineAddr(3), 9);
        assert_eq!(c.remove(LineAddr(3)), Some(9));
        assert_eq!(c.remove(LineAddr(3)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn insert_respecting_refuses_when_all_pinned() {
        let mut c = small();
        c.insert(LineAddr(0), 1); // set 0
        c.insert(LineAddr(2), 1); // set 0
        let r = c.insert_respecting(LineAddr(4), 1, |&p| p == 1);
        assert_eq!(r, Err(PinnedSetFull));
        assert!(c.contains(LineAddr(0)) && c.contains(LineAddr(2)));
    }

    #[test]
    fn insert_respecting_evicts_unpinned() {
        let mut c = small();
        c.insert(LineAddr(0), 1); // pinned
        c.insert(LineAddr(2), 0); // not pinned
        let r = c.insert_respecting(LineAddr(4), 2, |&p| p == 1);
        assert_eq!(r, Ok(EvictionOutcome::Evicted(LineAddr(2))));
    }

    #[test]
    fn fits_simultaneously_respects_associativity() {
        let g = CacheGeometry::new(2, 2);
        // 0, 2, 4 map to set 0: three lines in a 2-way set do not fit.
        assert!(!SetAssocCache::<()>::fits_simultaneously(
            g,
            [LineAddr(0), LineAddr(2), LineAddr(4)]
        ));
        assert!(SetAssocCache::<()>::fits_simultaneously(
            g,
            [LineAddr(0), LineAddr(2), LineAddr(1), LineAddr(3)]
        ));
    }

    #[test]
    fn iter_visits_all() {
        let mut c = small();
        c.insert(LineAddr(0), 10);
        c.insert(LineAddr(1), 11);
        let mut v: Vec<_> = c.iter().map(|(l, &p)| (l.0, p)).collect();
        v.sort();
        assert_eq!(v, vec![(0, 10), (1, 11)]);
    }

    #[test]
    fn way_entries_are_16_bytes_with_a_small_payload() {
        #[allow(dead_code)]
        #[derive(Clone, Copy)]
        enum State {
            A,
            B,
        }
        type Meta = (State, bool, bool, bool);
        assert_eq!(std::mem::size_of::<Option<Entry<Meta>>>(), 16);
        assert_eq!(std::mem::size_of::<Option<Entry<()>>>(), 16);
    }

    #[test]
    fn stamp_wrap_keeps_every_eviction_decision() {
        // The same access stream through a cache whose stamp counter
        // wraps mid-stream and through a fresh one must evict the same
        // lines in the same order.
        use crate::rng::SplitMix64;
        let g = CacheGeometry::new(4, 3);
        let mut fresh: SetAssocCache<u32> = SetAssocCache::new(g);
        let mut wrapping: SetAssocCache<u32> = SetAssocCache::new(g);
        wrapping.tick = u32::MAX - 40;
        let mut rng = SplitMix64::new(7);
        for i in 0..400u32 {
            let line = LineAddr(rng.below(24));
            match rng.below(4) {
                0 => assert_eq!(
                    fresh.touch(line).copied(),
                    wrapping.touch(line).copied(),
                    "touch {i}"
                ),
                1 => assert_eq!(
                    fresh.insert_respecting(line, i, |&p| p % 5 == 0),
                    wrapping.insert_respecting(line, i, |&p| p % 5 == 0),
                    "insert_respecting {i}"
                ),
                _ => assert_eq!(
                    fresh.insert(line, i),
                    wrapping.insert(line, i),
                    "insert {i}"
                ),
            }
        }
        assert!(wrapping.tick < 1000, "the counter wrapped and restarted");
        let mut a: Vec<_> = fresh.iter().map(|(l, &p)| (l, p)).collect();
        let mut b: Vec<_> = wrapping.iter().map(|(l, &p)| (l, p)).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn clear_empties() {
        let mut c = small();
        c.insert(LineAddr(0), 1);
        c.clear();
        assert!(c.is_empty());
    }
}
