//! Parked lock waits: failed lock polls charged in closed form.
//!
//! A core whose step is a failed lock poll would poll again every
//! `spin_interval` cycles, and every one of those polls fails until some
//! other core releases what it waits for. Instead of stepping them, the
//! run loop takes the core out of the [`CoreHeap`] after its first failed
//! poll and *parks* it with its next poll clock `p`. Two poll kinds park
//! (see [`Wait`]): the fallback-lock waits of `start_attempt` and the
//! probe-detected line-lock spin of `lock_step`.
//!
//! Each kind has its own wait list, and only a release can end a wait: a
//! fallback waiter by `release_write` or the *last* reader's
//! `release_read` of the fallback lock, a line waiter by an `unlock_all`
//! that frees lines. Each release site raises its kind's wake flag. After
//! the step that raised it, popped at key `(T, c)`, the loop re-evaluates
//! the blocking condition of every core parked on that kind. A core no
//! longer blocked is charged the `k` polls it would have made at keys
//! `(p + i·s, w) < (T, c)` — clock, wait counter, `steps`,
//! `sched_updates` and (line spins) `allocs_avoided`, each `k` times the
//! per-poll delta — and re-enters the heap at its first poll after the
//! release. Those polls would all have failed: the blocking state only
//! changes inside steps, and the flag guarantees none before `(T, c)`
//! unblocked the core. A core still blocked stays parked.
//!
//! A write release wakes the whole fallback *herd*, and the first of it
//! to poll in fallback mode takes the write lock again. From then until
//! the next release every fallback poll fails, so the step that took the
//! lock also moves every woken fallback waiter that has not polled since
//! its wake straight back to the parked set ([`Machine::repark_herd`]),
//! clock unchanged: that clock is its next poll, which the `k` rule of the
//! next wake (or [`Machine::expire_parked`]) charges with the rest, and
//! which [`Machine::parked_poll_cut`] sees. Per-poll stepping would have
//! made exactly those polls, each failing.
//!
//! Two places see parked cores' virtual polls without a release: the
//! `max_cycles` stop, which charges every poll at or below the limit
//! ([`Machine::expire_parked`]), and batch formation, which must cut a
//! batch where a virtual poll falls between two members
//! ([`Machine::parked_poll_cut`]).
//!
//! Pending-op stalls (`PendingOp` retries of a load or store to a line
//! another core holds locked) are *not* parked: each retry re-runs
//! `Discovery::on_access` and the access policy, so they are not pure
//! polls.
use super::*;

/// What a parked core polls for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Wait {
    /// The fallback lock, from `start_attempt`: the planned mode decides
    /// whether the poll needs the lock free (fallback) or only free of a
    /// writer (speculative and CL attempts).
    Fallback,
    /// The lock group at the current `LockAcquire` index, from
    /// `lock_step`: some line of the group is locked by another core.
    Line,
}

impl Wait {
    /// The index of this kind's list in `Machine::parked`.
    fn list(self) -> usize {
        self as usize
    }
}

/// What the current step did that the run loop acts on after it.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct Wakes {
    /// The fallback lock was released: re-check the fallback waiters.
    fallback: bool,
    /// Line locks were freed: re-check the line waiters.
    line: bool,
    /// A core took the fallback write lock while the herd was out.
    repark: bool,
}

impl Wakes {
    /// `true` when the run loop has anything to do after the step.
    pub(super) fn any(self) -> bool {
        self.fallback | self.line | self.repark
    }
}

/// The number of polls a core parked with next poll clock `p` and id `w`
/// makes before the step popped at key `(t, c)`: the `i ≥ 0` with
/// `(p + i·s, w) < (t, c)` under the scheduler's `(clock, core_id)` order.
pub(super) fn polls_before(p: u64, w: usize, s: u64, t: u64, c: usize) -> u64 {
    if p > t {
        return 0;
    }
    let d = t - p;
    d.div_ceil(s) + u64::from(d.is_multiple_of(s) && w < c)
}

impl Machine {
    /// Applies `k` failed polls of kind `wait` to core `c`'s clock and wait
    /// counters (the step and scheduler counters are the caller's).
    pub(super) fn charge_polls(&mut self, c: usize, wait: Wait, k: u64) {
        let cycles = k * self.config.timing.spin_interval;
        self.clocks[c] += cycles;
        match wait {
            Wait::Fallback => self.stats.fallback_wait_cycles += cycles,
            Wait::Line => {
                self.cores[c].lock_wait_acc += cycles;
                self.stats.lock_spin_cycles += cycles;
            }
        }
    }

    /// Bulk-releases core `c`'s line locks; raises the line wake when any
    /// lock was actually freed.
    pub(super) fn release_lines(&mut self, c: usize) {
        if self.coherence.unlock_all(CoreId(c)) {
            self.wakes.line = true;
        }
    }

    /// Releases core `c`'s fallback read lock, if held; raises the
    /// fallback wake when it was the last reader (while others remain, no
    /// fallback poll's outcome changes).
    pub(super) fn release_fallback_read(&mut self, c: usize) {
        if self.fallback.is_reader(CoreId(c)) {
            self.fallback.release_read(CoreId(c));
            self.wakes.fallback |= !self.fallback.has_readers();
        }
    }

    /// Releases the fallback write lock core `c` holds; raises the
    /// fallback wake.
    pub(super) fn release_fallback_write(&mut self, c: usize) {
        self.fallback.release_write(CoreId(c));
        self.wakes.fallback = true;
    }

    /// The stepping core took the fallback write lock: asks the run loop
    /// to re-park the unpolled herd, if any is out.
    pub(super) fn fallback_write_taken(&mut self) {
        self.wakes.repark = self.herd_len > 0;
    }

    /// Core `c` is about to poll in `start_attempt`: it leaves the
    /// unpolled herd.
    pub(super) fn herd_polls(&mut self, c: usize) {
        if self.herd[c] {
            self.herd[c] = false;
            self.herd_len -= 1;
        }
    }

    /// A failed poll by the stepping core `c`: charges it and asks the run
    /// loop to park `c` after this step.
    pub(super) fn poll_failed(&mut self, c: usize, wait: Wait) {
        assert!(
            self.config.timing.spin_interval > 0,
            "a zero spin_interval never advances a waiting core"
        );
        self.charge_polls(c, wait, 1);
        self.park_request = Some(wait);
    }

    /// Takes core `c` (already out of the heap) into the parked set.
    pub(super) fn park(&mut self, c: usize, wait: Wait) {
        debug_assert!(self.waits[c].is_none(), "core {c} parked twice");
        self.waits[c] = Some(wait);
        self.parked[wait.list()].push(c);
    }

    /// `true` while parked core `c`'s next poll would fail again. Mirrors
    /// the failing branches of `start_attempt` and `lock_step` exactly.
    fn still_blocked(&self, c: usize, wait: Wait) -> bool {
        match wait {
            Wait::Fallback => match self.cores[c].planned {
                RetryMode::Fallback => {
                    self.fallback.writer().is_some() || self.fallback.has_readers()
                }
                _ => self.fallback.writer().is_some(),
            },
            Wait::Line => {
                let Phase::LockAcquire { idx } = self.phases[c] else {
                    unreachable!("line waiter outside lock acquisition");
                };
                let dir = self.coherence.dir_geometry();
                let list = &self.cores[c].lock_list;
                let set = dir.set_index(list[idx]);
                list[idx..]
                    .iter()
                    .take_while(|l| dir.set_index(**l) == set)
                    .any(|&l| self.coherence.locked_by(l).is_some_and(|h| h.0 != c))
            }
        }
    }

    /// Acts on what the step popped at key `(t, c)` raised: wakes the
    /// kinds whose locks it released, then re-parks the herd if it took
    /// the fallback write lock.
    pub(super) fn after_wakes(&mut self, sched: &mut CoreHeap, t: u64, c: usize) {
        let wakes = std::mem::take(&mut self.wakes);
        if wakes.fallback {
            self.wake_parked(sched, Wait::Fallback, t, c);
        }
        if wakes.line {
            self.wake_parked(sched, Wait::Line, t, c);
        }
        if wakes.repark {
            self.repark_herd(sched);
        }
    }

    /// Wakes every core parked on `wait` that the step popped at key
    /// `(t, c)` unblocked: charges its polls before that key and puts it
    /// back in the heap. Woken fallback waiters join the herd.
    fn wake_parked(&mut self, sched: &mut CoreHeap, wait: Wait, t: u64, c: usize) {
        let s = self.config.timing.spin_interval;
        let mut list = std::mem::take(&mut self.parked[wait.list()]);
        list.retain(|&w| {
            if self.still_blocked(w, wait) {
                return true;
            }
            let k = polls_before(self.clocks[w], w, s, t, c);
            self.unpark(w, wait, k);
            sched.push(w, self.clocks[w]);
            if wait == Wait::Fallback {
                self.herd[w] = true;
                self.herd_len += 1;
            }
            false
        });
        self.parked[wait.list()] = list;
    }

    /// The step just taken holds the fallback write lock, so every
    /// fallback poll fails until its release: moves each unpolled herd
    /// member out of the heap (one O(n) filter) and back to the fallback
    /// list with its clock, its next poll, unchanged.
    fn repark_herd(&mut self, sched: &mut CoreHeap) {
        let list = &mut self.parked[Wait::Fallback.list()];
        let before = list.len();
        let (herd, waits) = (&mut self.herd, &mut self.waits);
        sched.retain(|w| {
            if !herd[w] {
                return true;
            }
            herd[w] = false;
            waits[w] = Some(Wait::Fallback);
            list.push(w);
            false
        });
        let moved = list.len() - before;
        debug_assert_eq!(moved, self.herd_len, "every herd member is in the heap");
        self.herd_len = 0;
        #[cfg(debug_assertions)]
        {
            self.herd_reparked += moved as u64;
        }
        #[cfg(debug_assertions)]
        for &w in &self.parked[Wait::Fallback.list()][before..] {
            debug_assert!(
                self.phases[w] == Phase::StartAttempt && self.still_blocked(w, Wait::Fallback),
                "re-parked core {w} would not fail its next poll"
            );
            debug_assert!(
                self.cores[w].planned != RetryMode::SpeculativeRetry
                    || self.cores[w].explicit_fb_recorded,
                "re-parked core {w} skipped its explicit-fallback abort"
            );
        }
    }

    /// Charges parked core `w` its `k` virtual polls — as steps and heap
    /// re-keys, exactly as the scheduler would have counted them — and
    /// clears its wait.
    fn unpark(&mut self, w: usize, wait: Wait, k: u64) {
        self.charge_polls(w, wait, k);
        if wait == Wait::Line {
            // Each `lock_step` call reuses the group scratch buffer.
            self.perf.allocs_avoided += k;
        }
        self.perf.steps += k;
        self.perf.sched_updates += k;
        self.waits[w] = None;
    }

    /// The `max_cycles` stop: parked cores keep polling until their clocks
    /// pass the limit, so each is charged every poll at or below it.
    pub(super) fn expire_parked(&mut self) {
        let limit = self.config.max_cycles.saturating_add(1);
        let s = self.config.timing.spin_interval;
        for wait in [Wait::Fallback, Wait::Line] {
            for w in std::mem::take(&mut self.parked[wait.list()]) {
                let k = polls_before(self.clocks[w], w, s, limit, 0);
                self.unpark(w, wait, k);
            }
        }
    }

    /// The lowest parked core id strictly between `first` and `last` with
    /// a virtual poll at exactly `clock`. Per-poll stepping would pop that
    /// core between batch members `first..=last` and cut the batch there
    /// (a poll is never local), so batch formation stops before any member
    /// past it. The id range is checked before the poll arithmetic.
    pub(super) fn parked_poll_cut(&self, first: usize, last: usize, clock: u64) -> Option<usize> {
        let s = self.config.timing.spin_interval;
        self.parked
            .iter()
            .flatten()
            .copied()
            .filter(|&w| first < w && w < last)
            .filter(|&w| {
                let p = self.clocks[w];
                p <= clock && (clock - p).is_multiple_of(s)
            })
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::polls_before;

    const S: u64 = 15;

    #[test]
    fn release_before_the_first_poll_charges_nothing() {
        assert_eq!(polls_before(100, 3, S, 99, 7), 0);
        assert_eq!(polls_before(100, 3, S, 0, 0), 0);
    }

    #[test]
    fn a_poll_at_the_release_clock_counts_only_below_the_releasing_id() {
        // Poll at exactly (100, 3): before (100, 7), after (100, 2).
        assert_eq!(polls_before(100, 3, S, 100, 7), 1);
        assert_eq!(polls_before(100, 3, S, 100, 2), 0);
        // Same edge one interval later: polls at 100 and 115.
        assert_eq!(polls_before(100, 3, S, 115, 7), 2);
        assert_eq!(polls_before(100, 3, S, 115, 2), 1);
    }

    #[test]
    fn polls_strictly_before_the_release_clock_all_count() {
        assert_eq!(polls_before(100, 3, S, 101, 0), 1);
        assert_eq!(polls_before(100, 3, S, 114, 0), 1);
        assert_eq!(polls_before(100, 3, S, 116, 0), 2);
        assert_eq!(polls_before(0, 0, 1, 10, 0), 10);
    }

    #[test]
    fn matches_enumerating_the_polls() {
        for p in 0..40u64 {
            for t in 0..80u64 {
                for (w, c) in [(1, 4), (4, 1)] {
                    let expect = (0..)
                        .map(|i| p + i * S)
                        .take_while(|&q| (q, w) < (t, c))
                        .count() as u64;
                    assert_eq!(polls_before(p, w, S, t, c), expect, "p={p} t={t}");
                }
            }
        }
    }

    /// A herd member re-parked at its unpolled next-poll clock `p` and
    /// woken by the release at `(t, c)` is charged what stepping every
    /// poll charges: each poll at `p + i·s` before the release fails —
    /// the first one stepped and parked at `p + s` under the old rule.
    #[test]
    fn reparked_herd_member_is_charged_every_stepped_poll() {
        for p in 0..50u64 {
            for t in 0..100u64 {
                for (w, c) in [(1, 4), (4, 1), (2, 2)] {
                    let stepped = (0..)
                        .map(|i| p + i * S)
                        .take_while(|&q| (q, w) < (t, c))
                        .count() as u64;
                    let first_poll_then_parked = if (p, w) < (t, c) {
                        1 + polls_before(p + S, w, S, t, c)
                    } else {
                        0
                    };
                    assert_eq!(polls_before(p, w, S, t, c), stepped, "p={p} t={t}");
                    assert_eq!(first_poll_then_parked, stepped, "p={p} t={t}");
                }
            }
        }
    }
}
