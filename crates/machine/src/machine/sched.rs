//! The core scheduler: an indexed binary min-heap over `(clock, core_id)`.
//!
//! [`Machine::run`](super::Machine::run) must always advance the core with
//! the smallest clock, ties broken by core id. A linear scan is O(cores)
//! per simulated step; this heap makes it O(log cores) while selecting the
//! *exact same* core every step, because `(clock, core_id)` is a total
//! order. Clocks only ever increase, so re-keying after a step or a remote
//! abort is a sift-down plus a defensive sift-up. The keys live in the heap
//! array itself, so a sift compares adjacent memory instead of chasing
//! core ids into a side table.
//!
//! Three queries serve the wide-machine paths without popping anything:
//! [`CoreHeap::has_tie`] and [`CoreHeap::tied_in_order`] read the cores
//! tied at the minimum clock (batch formation), and [`CoreHeap::retain`]
//! drops a whole set of cores in one O(n) pass (the bulk re-park of
//! fallback waiters).

/// Indexed min-heap of core ids keyed by `(clock, core_id)`.
#[derive(Debug)]
pub(super) struct CoreHeap {
    /// Heap array of `(clock, core)` keys.
    heap: Vec<(u64, usize)>,
    /// `pos[core]` = index of `core` in `heap`, or [`CoreHeap::ABSENT`].
    pos: Vec<usize>,
}

impl CoreHeap {
    const ABSENT: usize = usize::MAX;

    /// An empty heap able to hold cores `0..n`.
    pub(super) fn new(n: usize) -> Self {
        CoreHeap {
            heap: Vec::with_capacity(n),
            pos: vec![Self::ABSENT; n],
        }
    }

    /// Inserts `core` with the given clock. Must not already be present.
    pub(super) fn push(&mut self, core: usize, clock: u64) {
        debug_assert_eq!(self.pos[core], Self::ABSENT, "core {core} already queued");
        self.heap.push((clock, core));
        self.sift_up(self.heap.len() - 1);
    }

    /// The core with the smallest `(clock, core_id)`, if any.
    pub(super) fn peek(&self) -> Option<usize> {
        self.heap.first().map(|&(_, core)| core)
    }

    /// Updates `core`'s clock and restores heap order. Returns `false`
    /// (and does nothing) if the core is not in the heap.
    pub(super) fn update(&mut self, core: usize, clock: u64) -> bool {
        let i = self.pos[core];
        if i == Self::ABSENT {
            return false;
        }
        let old = self.heap[i].0;
        if clock == old {
            return true; // key unchanged, heap order intact
        }
        self.heap[i].0 = clock;
        if clock > old {
            // Clocks are monotonic in the machine, so sifting down suffices.
            self.sift_down(i);
        } else {
            self.sift_up(i);
        }
        true
    }

    /// Removes `core` from the heap. No-op if absent.
    pub(super) fn remove(&mut self, core: usize) {
        let i = self.pos[core];
        if i == Self::ABSENT {
            return;
        }
        self.pos[core] = Self::ABSENT;
        let last = self.heap.pop().expect("non-empty heap");
        if last.1 != core {
            self.heap[i] = last;
            let i = self.sift_down(i);
            self.sift_up(i);
        }
    }

    /// `true` when at least two cores share the minimum clock (O(1): a tie
    /// at the minimum always reaches a child of the root).
    pub(super) fn has_tie(&self) -> bool {
        let Some(&(clock, _)) = self.heap.first() else {
            return false;
        };
        self.heap[1..self.heap.len().min(3)]
            .iter()
            .any(|&(c, _)| c == clock)
    }

    /// The cores tied at the minimum clock, in ascending id order — the
    /// order repeated pops would return them — produced lazily, so a
    /// caller that stops early pays only for what it read. A node's key is
    /// never below its parent's, so the tied cores form a subtree at the
    /// root that is heap-ordered by id: the next core is always the
    /// smallest id on the `frontier` (a reused buffer of `(core, heap
    /// index)`) of visited nodes' tied children.
    pub(super) fn tied_in_order<'a>(
        &'a self,
        frontier: &'a mut Vec<(usize, usize)>,
    ) -> impl Iterator<Item = usize> + 'a {
        frontier.clear();
        let clock = self.heap.first().map_or(0, |&(clock, _)| clock);
        if let Some(&(_, core)) = self.heap.first() {
            frontier.push((core, 0));
        }
        std::iter::from_fn(move || {
            let mut at = 0;
            for j in 1..frontier.len() {
                if frontier[j].0 < frontier[at].0 {
                    at = j;
                }
            }
            let (core, i) = *frontier.get(at)?;
            frontier.swap_remove(at);
            for child in [2 * i + 1, 2 * i + 2] {
                if let Some(&(key, id)) = self.heap.get(child) {
                    if key == clock {
                        frontier.push((id, child));
                    }
                }
            }
            Some(core)
        })
    }

    /// Removes every core for which `keep` returns `false`, in one pass
    /// plus an O(n) re-heapify (instead of one O(log n) `remove` each).
    pub(super) fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let mut kept = 0;
        for i in 0..self.heap.len() {
            let entry = self.heap[i];
            if keep(entry.1) {
                self.heap[kept] = entry;
                self.pos[entry.1] = kept;
                kept += 1;
            } else {
                self.pos[entry.1] = Self::ABSENT;
            }
        }
        if kept == self.heap.len() {
            return; // nothing removed, heap order intact
        }
        self.heap.truncate(kept);
        for i in (0..kept / 2).rev() {
            self.sift_down(i);
        }
    }

    /// Moves the entry at `i` up to its place; returns its final index.
    /// Parents shift down into the hole instead of swapping.
    fn sift_up(&mut self, mut i: usize) -> usize {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if entry >= self.heap[parent] {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, entry);
        i
    }

    /// Moves the entry at `i` down to its place; returns its final index.
    fn sift_down(&mut self, mut i: usize) -> usize {
        let entry = self.heap[i];
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let child = if r < n && self.heap[r] < self.heap[l] {
                r
            } else {
                l
            };
            if self.heap[child] >= entry {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, entry);
        i
    }

    fn place(&mut self, i: usize, entry: (u64, usize)) {
        self.heap[i] = entry;
        self.pos[entry.1] = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(h: &mut CoreHeap) -> Vec<usize> {
        let mut out = Vec::new();
        while let Some(c) = h.peek() {
            out.push(c);
            h.remove(c);
        }
        out
    }

    #[test]
    fn pops_in_clock_then_id_order() {
        let mut h = CoreHeap::new(4);
        h.push(0, 30);
        h.push(1, 10);
        h.push(2, 10);
        h.push(3, 20);
        assert_eq!(drain(&mut h), vec![1, 2, 3, 0]);
    }

    #[test]
    fn update_rekeys() {
        let mut h = CoreHeap::new(3);
        for c in 0..3 {
            h.push(c, 0);
        }
        assert_eq!(h.peek(), Some(0));
        assert!(h.update(0, 100));
        assert_eq!(h.peek(), Some(1));
        assert!(h.update(1, 50));
        assert_eq!(h.peek(), Some(2));
        h.remove(2);
        assert_eq!(drain(&mut h), vec![1, 0]);
    }

    #[test]
    fn update_or_remove_of_absent_core_is_a_noop() {
        let mut h = CoreHeap::new(2);
        h.push(0, 5);
        assert!(!h.update(1, 9));
        h.remove(1);
        assert_eq!(drain(&mut h), vec![0]);
    }

    #[test]
    fn tied_set_is_the_repeated_pop_order() {
        use clear_mem::rng::SplitMix64;
        let mut rng = SplitMix64::new(0x71ED);
        let mut frontier = Vec::new();
        for round in 0..300 {
            let n = 1 + rng.index(40);
            let mut h = CoreHeap::new(n);
            // Few distinct clocks, so ties are large and nest deep.
            for c in 0..n {
                h.push(c, rng.below(1 + round % 4));
            }
            let out: Vec<usize> = h.tied_in_order(&mut frontier).collect();
            assert_eq!(h.has_tie(), out.len() >= 2, "round {round}");
            let clock = h.heap[0].0;
            let mut popped = Vec::new();
            while let Some(&(key, c)) = h.heap.first() {
                if key != clock {
                    break;
                }
                popped.push(c);
                h.remove(c);
            }
            assert_eq!(out, popped, "round {round}");
        }
        let empty = CoreHeap::new(3);
        assert_eq!(empty.tied_in_order(&mut frontier).next(), None);
        assert!(!empty.has_tie());
    }

    #[test]
    fn matches_linear_scan_on_random_schedule() {
        use clear_mem::rng::SplitMix64;
        let n = 9;
        let mut rng = SplitMix64::new(0xC0FE);
        let mut clocks: Vec<Option<u64>> = (0..n).map(|_| Some(0)).collect();
        let mut h = CoreHeap::new(n);
        for c in 0..n {
            h.push(c, 0);
        }
        for _ in 0..2000 {
            let expect = clocks
                .iter()
                .enumerate()
                .filter_map(|(i, c)| c.map(|v| (v, i)))
                .min()
                .map(|(_, i)| i);
            assert_eq!(h.peek(), expect);
            let Some(c) = expect else { break };
            if rng.below(20) == 0 {
                clocks[c] = None;
                h.remove(c);
            } else if rng.below(30) == 0 {
                // Bulk removal of a random subset (the herd re-park): the
                // heap must agree with the scan while they are out, and
                // again once they come back.
                let drop: Vec<bool> = (0..n).map(|_| rng.below(3) == 0).collect();
                h.retain(|core| !drop[core]);
                let out: Vec<(usize, u64)> = (0..n)
                    .filter(|&core| drop[core])
                    .filter_map(|core| clocks[core].take().map(|v| (core, v)))
                    .collect();
                let expect = clocks
                    .iter()
                    .enumerate()
                    .filter_map(|(i, c)| c.map(|v| (v, i)))
                    .min()
                    .map(|(_, i)| i);
                assert_eq!(h.peek(), expect, "after bulk removal");
                for (core, v) in out {
                    let v = v + rng.below(9);
                    clocks[core] = Some(v);
                    h.push(core, v);
                }
            } else {
                let bump = rng.below(50);
                let v = clocks[c].unwrap() + bump;
                clocks[c] = Some(v);
                h.update(c, v);
                // Occasionally a "remote abort" bumps another core too.
                if rng.flip() {
                    let other = rng.index(n);
                    if let Some(o) = clocks[other] {
                        clocks[other] = Some(o + 7);
                        h.update(other, o + 7);
                    }
                }
            }
        }
    }
}
