//! The NS-CL/S-CL lock-acquisition phase: lexicographical order, group
//! locking with the ALT Hit-bit fast path, and lock-conflict policy.
use super::park::Wait;
use super::*;

impl Machine {
    pub(super) fn lock_step(&mut self, c: usize, idx: usize) {
        if idx >= self.cores[c].lock_list.len() {
            self.phases[c] = Phase::Running;
            return;
        }
        // Lexicographical conflict groups (same directory set) are locked
        // together (§5): entries are lex-sorted, so a group is a maximal
        // consecutive run with one set index.
        let dir = self.coherence.dir_geometry();
        // The group and victim lists reuse per-machine scratch buffers; both
        // are restored before every exit from this function.
        let mut group = std::mem::take(&mut self.scratch_group);
        group.clear();
        {
            let list = &self.cores[c].lock_list;
            let set = dir.set_index(list[idx]);
            group.extend(
                list[idx..]
                    .iter()
                    .take_while(|l| dir.set_index(**l) == set)
                    .copied(),
            );
        }
        self.perf.allocs_avoided += 1;

        // Policy check over the whole group before stealing anything.
        let mut victims = std::mem::take(&mut self.scratch_victims);
        victims.clear();
        let mut spin = false;
        for &line in &group {
            let probe = self.coherence.probe(CoreId(c), line, Access::Write);
            if probe.locked_by_other.is_some() {
                // Another core holds a group line locked: retried request
                // (Fig. 6).
                spin = true;
                break;
            }
            for i in probe
                .remote_impacts
                .iter()
                .filter(|i| i.is_tx_conflict(true))
            {
                victims.push(self.tx_info(i.core.0));
            }
        }
        let nacked = !spin && !victims.is_empty() && {
            self.perf.allocs_avoided += 1;
            let me = self.tx_info(c);
            self.backend.resolve(me, &victims) == Resolution::NackRequester
        };
        self.scratch_victims = victims;
        if spin {
            self.poll_failed(c, Wait::Line);
            self.scratch_group = group;
            return;
        }
        if nacked {
            self.perform_abort(c, AbortKind::Nacked);
            self.scratch_group = group;
            return;
        }
        // Record the ALT Hit bits (group-locking probe of §5).
        for &line in &group {
            let hit = self.coherence.has_exclusive(CoreId(c), line);
            if let Some(alt) = self.cores[c].alt.as_mut() {
                alt.mark_hit(line, hit);
            }
        }
        let result = if group.len() == 1 {
            self.coherence.lock_line(CoreId(c), group[0])
        } else {
            self.coherence.lock_group(CoreId(c), &group)
        };
        match result {
            Ok(ok) => {
                self.clocks[c] += ok.latency;
                let impacts = ok.remote_impacts;
                // The accumulated spin wait paid for the whole group; it is
                // attributed to the group's first lock to keep per-line
                // totals additive.
                let mut wait_cycles = std::mem::take(&mut self.cores[c].lock_wait_acc);
                self.metrics_on_locks_acquired(wait_cycles);
                for &line in &group {
                    if let Some(alt) = self.cores[c].alt.as_mut() {
                        alt.mark_locked(line);
                    }
                    self.trace.record(
                        self.clocks[c],
                        c,
                        TraceEvent::LockAcquired { line, wait_cycles },
                    );
                    wait_cycles = 0;
                }
                // The impacts list of a group lock spans lines; CRT
                // attribution uses the first group line, which is exact for
                // single-line groups and conservative otherwise.
                self.abort_victims_tagged(c, group[0], &impacts, AbortKind::MemoryConflict, true);
                self.phases[c] = Phase::LockAcquire {
                    idx: idx + group.len(),
                };
            }
            Err(LockFail::LockedBy(_)) => self.charge_polls(c, Wait::Line, 1),
            Err(LockFail::Capacity) => {
                // Should not happen (discovery verified the fit); treat as a
                // capacity abort and fall back to a speculative retry.
                self.cores[c].planned = RetryMode::SpeculativeRetry;
                self.cores[c].alt = None;
                self.perform_abort(c, AbortKind::Capacity);
            }
        }
        self.scratch_group = group;
    }
}
