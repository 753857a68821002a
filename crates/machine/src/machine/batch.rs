//! Deterministic intra-run parallel stepping.
//!
//! # The batch rule
//!
//! The sequential scheduler pops cores in ascending `(clock, core_id)`
//! order. When several cores are tied at the minimum clock, their steps
//! execute back-to-back; if each of those steps is **local** — it touches
//! only the core's own state plus at most one directory shard, claims a
//! shard no other batch member claims, strictly advances the core's
//! clock, and performs no abort/commit/trace/RNG/global-memory effect —
//! then the steps commute: they can run as one batch, in any order, with
//! a byte-identical outcome.
//!
//! A batch is the maximal *prefix*, in pop order, of minimum-clock cores
//! whose next step classifies as local, cut at the first global step or
//! duplicate shard claim. A parked core (see the `park` module) whose
//! virtual poll falls at the batch clock counts as such a global step: it
//! is out of the heap, so formation cuts at its id explicitly.
//! Classification runs against the pre-batch state, which is sound
//! precisely because every admitted step is local: no member can change
//! state another member's classification or execution reads.
//!
//! Local step kinds (mirroring the sequential paths they replace exactly):
//!
//! * **Think** with `until > clock` — a pure phase transition
//!   ([`Phase::Think`] handling in `step_core`);
//! * **Compute / taken-branch retirement** — VM plus own clock
//!   (`run_step`);
//! * **Store-queue forward** — a load served by the core's own
//!   speculative store buffer (`do_load`);
//! * **L1-hit load/store** in speculative non-failed mode: the probe shows
//!   `ServedBy::L1`, no lock holder and no remote impacts, so the apply
//!   touches only the own cache way and the line's directory entry —
//!   executed through [`LocalView::apply_hit`] against the claimed shard.
//!
//! Everything else — commits, aborts, lock acquisition, misses, conflict
//! resolution, fallback interaction, failed-mode discovery — stays on the
//! sequential path, which is also the only place the RNG, the trace, and
//! cross-core effects live.
//!
//! Formation costs O(batch), not O(cores): an O(1) tie check, then the
//! tied cores are read in place from the heap in pop order and classified
//! until the first that is not local (an O(1) cache-and-lock check for
//! memory steps); it allocates nothing and touches the heap only to
//! re-key the members of a batch that runs.
//!
//! Members step one after another on the scheduler thread through
//! allocation-free per-core views: a batch replaces its members' heap
//! pops, not their execution. Worker threads would not repay their
//! spawn below about 2000 members, a batch size no machine the
//! repository runs reaches (DESIGN.md §10).

use super::*;
use clear_coherence::LocalView;

/// A classified local step, recorded at batch-formation time.
#[derive(Clone, Copy, Debug)]
pub(super) enum LocalStep {
    /// `Phase::Think` expiring strictly in the future.
    Think { until: u64 },
    /// One VM step whose effect stays core-local; `shard` is the claimed
    /// directory shard for an L1-hit access (`None` for compute, branch
    /// and store-queue-forward steps).
    Exec { shard: Option<usize> },
}

impl Machine {
    /// `true` when batches may form at all: `sim_threads` of at least
    /// two, and an L1 latency of at least one cycle so every local
    /// step strictly advances its core's clock (a zero-latency hit would
    /// let the sequential scheduler re-pop the same core before later
    /// batch members, breaking the commutation argument). The
    /// limited-R/W-set backend disables batching wholesale: its tracker
    /// can turn any speculative access into a capacity abort — a global
    /// effect the local-step classifier cannot see.
    pub(super) fn batching_viable(&self) -> bool {
        self.sim_threads >= 2
            && self.config.coherence.lat_l1 >= 1
            && self.backend.rw_limits().is_none()
    }

    /// Attempts to form and execute one parallel batch starting at the
    /// scheduler minimum. Returns `true` if a batch of ≥ 2 steps ran (its
    /// members re-keyed in the heap); `false` leaves the heap untouched
    /// for the sequential path. Formation reads the tied set in place and
    /// allocates nothing: the heap changes only when a batch runs.
    pub(super) fn try_parallel_batch(&mut self, sched: &mut CoreHeap) -> bool {
        // Most steps have no tie at all: check that first (O(1)), then the
        // minimum's own step, before reading the tied set.
        if !sched.has_tie() {
            return false;
        }
        let first = sched.peek().expect("caller checked");
        let clock = self.clocks[first];
        let Some(step) = self.classify_local(first, clock) else {
            return false;
        };
        let mut frontier = std::mem::take(&mut self.scratch_frontier);
        let mut members = std::mem::take(&mut self.scratch_members);
        members.clear();
        members.push((first, step));
        let mut tied = sched.tied_in_order(&mut frontier);
        let lead = tied.next();
        debug_assert_eq!(lead, Some(first), "the minimum leads its tie");
        for c in tied {
            let Some(step) = self.classify_local(c, clock) else {
                break;
            };
            if let LocalStep::Exec { shard: Some(s) } = step {
                if members
                    .iter()
                    .any(|&(_, m)| matches!(m, LocalStep::Exec { shard: Some(t) } if t == s))
                {
                    break;
                }
            }
            members.push((c, step));
        }
        self.scratch_frontier = frontier;
        // A parked core's virtual poll at this clock cuts the batch where
        // per-poll stepping would have popped it.
        if let [_, .., (last, _)] = members[..] {
            if let Some(w) = self.parked_poll_cut(first, last, clock) {
                members.truncate(members.partition_point(|&(c, _)| c < w));
            }
        }
        let n = members.len();
        if n >= 2 {
            self.execute_batch(&members);
            for &(c, _) in &members {
                debug_assert!(self.clocks[c] > clock, "local steps must advance");
                sched.update(c, self.clocks[c]);
            }
            // Mirror the sequential loop's per-step accounting (one step
            // and one successful heap re-key per member).
            let n = n as u64;
            self.perf.steps += n;
            self.perf.sched_updates += n;
            self.perf.par_batches += 1;
            self.perf.par_batch_steps += n;
            self.perf.par_batch_max = self.perf.par_batch_max.max(n);
        }
        self.scratch_members = members;
        n >= 2
    }

    /// Classifies core `c`'s next step against current (pre-batch) state:
    /// `Some` iff it is provably local.
    fn classify_local(&self, c: usize, clock: u64) -> Option<LocalStep> {
        match self.phases[c] {
            // A think step with `until == clock` leaves the clock in place,
            // so the sequential scheduler would re-pop this core (now in
            // StartAttempt — global) before later batch members.
            Phase::Think { until } if until > clock => Some(LocalStep::Think { until }),
            Phase::Running => self.classify_running(c),
            _ => None,
        }
    }

    fn classify_running(&self, c: usize) -> Option<LocalStep> {
        let core = &self.cores[c];
        // Stalled operations retry through the sequential path; only plain
        // speculative execution outside failed-mode discovery is local
        // (NS-CL/S-CL/fallback and failed mode have global side channels).
        if core.pending.is_some() || core.mode != ExecMode::Speculative {
            return None;
        }
        if core.discovery.as_ref().is_some_and(|d| d.in_failed_mode()) {
            return None;
        }
        let vm = core.vm.as_ref()?;
        // Steps the sequential pre-checks would divert (caps, in-core
        // window overflow) stay sequential.
        if vm.retired() > self.config.attempt_instr_cap {
            return None;
        }
        if self.backend.speculation() == SpeculationKind::InCore
            && (vm.retired() > self.config.rob_size || vm.stores_retired() > self.config.sq_size)
        {
            return None;
        }
        let (addr, access) = match vm.peek_effect() {
            Effect::Compute { .. } | Effect::Branch { .. } => {
                return Some(LocalStep::Exec { shard: None })
            }
            Effect::Commit | Effect::Abort { .. } => return None,
            Effect::Load { addr, .. } => (addr, Access::Read),
            Effect::Store { addr, .. } => (addr, Access::Write),
        };
        if self.fault(addr) {
            return None;
        }
        let line = addr.line();
        if core
            .discovery
            .as_ref()
            .is_some_and(|d| d.would_overflow(line))
        {
            return None;
        }
        if access == Access::Read && !core.sq.is_empty() && core.sq.contains_key(&addr.0) {
            // Store-to-load forward: no coherence traffic at all.
            return Some(LocalStep::Exec { shard: None });
        }
        let hit = self.coherence.is_unlocked_l1_hit(CoreId(c), line, access);
        #[cfg(debug_assertions)]
        {
            let mut impacts = Vec::new();
            let p = self.coherence.probe(CoreId(c), line, access, &mut impacts);
            let probed = p.locked_by_other.is_none()
                && p.served_by == clear_coherence::ServedBy::L1
                && impacts.is_empty();
            debug_assert_eq!(hit, probed, "cheap L1-hit check disagrees with probe");
        }
        hit.then(|| LocalStep::Exec {
            shard: Some(CoherenceSystem::shard_of(line)),
        })
    }

    /// Executes a formed batch: think transitions and VM steps through
    /// per-core/per-shard views, then merges the buffered L1-hit counts at
    /// the barrier.
    fn execute_batch(&mut self, members: &[(usize, LocalStep)]) {
        let mut hits = 0;
        for &(c, step) in members {
            match step {
                LocalStep::Think { until } => self.end_think(c, until),
                LocalStep::Exec { shard } => {
                    let mut view = self.coherence.local_view(c, shard);
                    step_local(
                        &mut self.cores[c],
                        &mut self.clocks[c],
                        &mut view,
                        &self.memory,
                    );
                    hits += view.l1_hits();
                }
            }
        }
        self.coherence.merge_local_hits(hits);
    }

    /// A think step: the core's clock jumps to `until` and it moves on to
    /// its next attempt.
    pub(super) fn end_think(&mut self, c: usize, until: u64) {
        self.clocks[c] = until;
        self.phases[c] = Phase::StartAttempt;
    }
}

/// Executes one classified-local VM step, mirroring the corresponding
/// sequential `run_step`/`do_load`/`do_store` paths instruction for
/// instruction.
fn step_local(core: &mut Core, clock: &mut u64, view: &mut LocalView<'_>, memory: &Memory) {
    let effect = core.vm.as_mut().expect("vm armed").step();
    match effect {
        Effect::Compute { cycles } => {
            *clock += cycles.max(1) as u64;
        }
        Effect::Branch { cond_indirect, .. } => {
            *clock += 1;
            if let Some(d) = core.discovery.as_mut() {
                d.on_branch(cond_indirect);
            }
        }
        Effect::Load {
            addr,
            addr_indirect,
            ..
        } => {
            let line = addr.line();
            core.fp_cur.insert(line);
            if let Some(d) = core.discovery.as_mut() {
                d.on_access(line, false, addr_indirect);
                debug_assert!(!d.overflowed(), "classifier predicted no overflow");
            }
            if !core.sq.is_empty() {
                if let Some(&v) = core.sq.get(&addr.0) {
                    *clock += 1;
                    core.vm.as_mut().unwrap().finish_load(v);
                    return;
                }
            }
            let lat = view.apply_hit(line, Access::Read, TxTrack::Read);
            *clock += lat;
            let v = memory.load_word(addr);
            core.vm.as_mut().unwrap().finish_load(v);
        }
        Effect::Store {
            addr,
            value,
            addr_indirect,
        } => {
            let line = addr.line();
            core.fp_cur.insert(line);
            if let Some(d) = core.discovery.as_mut() {
                d.on_access(line, true, addr_indirect);
                debug_assert!(!d.overflowed(), "classifier predicted no overflow");
            }
            let lat = view.apply_hit(line, Access::Write, TxTrack::Write);
            *clock += lat;
            core.sq.insert(addr.0, value);
        }
        Effect::Commit | Effect::Abort { .. } => {
            unreachable!("classifier admitted a global step into a batch")
        }
    }
}
