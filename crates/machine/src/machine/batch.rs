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
//! then the steps commute and can run on worker threads simultaneously
//! with a byte-identical outcome.
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
//! Worker threads are `std::thread::scope` bound (no external deps);
//! batches smaller than [`PAR_CUTOFF`] execute inline on the scheduler
//! thread, which produces the same bytes, so all counters are independent
//! of the worker count.

use super::*;
use clear_coherence::{LocalView, ServedBy};
use clear_mem::disjoint_muts;

/// Minimum batch size worth shipping to worker threads; below this the
/// batch executes inline (identical results, no spawn overhead).
const PAR_CUTOFF: usize = 8;

/// A classified local step, recorded at batch-formation time.
#[derive(Clone, Copy, Debug)]
enum LocalStep {
    /// `Phase::Think` expiring strictly in the future.
    Think { until: u64 },
    /// One VM step whose effect stays core-local; `shard` is the claimed
    /// directory shard for an L1-hit access (`None` for compute, branch
    /// and store-queue-forward steps).
    Exec { shard: Option<usize> },
}

/// One batch member's working set, handed to a worker thread.
struct LocalTask<'a> {
    core: &'a mut Core,
    clock: &'a mut u64,
    view: LocalView<'a>,
}

impl Machine {
    /// `true` when parallel batches may form at all: a worker budget of at
    /// least two, and an L1 latency of at least one cycle so every local
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
    /// scheduler minimum. Returns `true` if a batch of ≥ 2 steps ran (the
    /// heap is already re-keyed); `false` leaves the heap untouched for
    /// the sequential path.
    pub(super) fn try_parallel_batch(&mut self, sched: &mut CoreHeap) -> bool {
        let first = sched.peek().expect("caller checked");
        let clock = self.clocks[first];
        let Some(step) = self.classify_local(first, clock) else {
            return false;
        };
        let mut members: Vec<(usize, LocalStep)> = vec![(first, step)];
        let mut claims: Vec<usize> = Vec::new();
        if let LocalStep::Exec { shard: Some(s) } = step {
            claims.push(s);
        }
        sched.remove(first);
        // A parked core's virtual poll at this clock cuts the batch where
        // per-poll stepping would have popped it (computed on demand: most
        // attempts end at the first candidate).
        let mut cut: Option<Option<usize>> = None;
        while let Some(c) = sched.peek() {
            if self.clocks[c] != clock {
                break;
            }
            let cut = *cut.get_or_insert_with(|| self.parked_poll_cut(first, clock));
            if cut.is_some_and(|w| w < c) {
                break;
            }
            let Some(step) = self.classify_local(c, clock) else {
                break;
            };
            if let LocalStep::Exec { shard: Some(s) } = step {
                if claims.contains(&s) {
                    break;
                }
                claims.push(s);
            }
            sched.remove(c);
            members.push((c, step));
        }
        if members.len() < 2 {
            sched.push(first, clock);
            return false;
        }
        self.execute_batch(&members);
        for &(c, _) in &members {
            debug_assert!(self.clocks[c] > clock, "local steps must advance");
            sched.push(c, self.clocks[c]);
        }
        let n = members.len() as u64;
        // Mirror the sequential loop's per-step accounting (one step and
        // one successful heap re-key per member).
        self.perf.steps += n;
        self.perf.sched_updates += n;
        self.perf.par_batches += 1;
        self.perf.par_batch_steps += n;
        self.perf.par_batch_max = self.perf.par_batch_max.max(n);
        true
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
        match vm.peek_effect() {
            Effect::Compute { .. } | Effect::Branch { .. } => Some(LocalStep::Exec { shard: None }),
            Effect::Commit | Effect::Abort { .. } => None,
            Effect::Load { addr, .. } => {
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
                if !core.sq.is_empty() && core.sq.contains_key(&addr.0) {
                    // Store-to-load forward: no coherence traffic at all.
                    return Some(LocalStep::Exec { shard: None });
                }
                self.classify_probe(c, line, Access::Read)
            }
            Effect::Store { addr, .. } => {
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
                self.classify_probe(c, line, Access::Write)
            }
        }
    }

    fn classify_probe(&self, c: usize, line: LineAddr, access: Access) -> Option<LocalStep> {
        let p = self.coherence.probe(CoreId(c), line, access);
        if p.locked_by_other.is_some()
            || p.served_by != ServedBy::L1
            || !p.remote_impacts.is_empty()
        {
            return None;
        }
        Some(LocalStep::Exec {
            shard: Some(CoherenceSystem::shard_of(line)),
        })
    }

    /// Executes a formed batch: think transitions inline, VM steps through
    /// split per-core/per-shard views — on scoped worker threads when the
    /// batch is large enough — then merges the buffered L1-hit counts at
    /// the barrier.
    fn execute_batch(&mut self, members: &[(usize, LocalStep)]) {
        for &(c, step) in members {
            if let LocalStep::Think { until } = step {
                self.clocks[c] = until;
                self.phases[c] = Phase::StartAttempt;
            }
        }
        let exec: Vec<(usize, Option<usize>)> = members
            .iter()
            .filter_map(|&(c, step)| match step {
                LocalStep::Exec { shard } => Some((c, shard)),
                LocalStep::Think { .. } => None,
            })
            .collect();
        if exec.is_empty() {
            return;
        }
        let ids: Vec<usize> = exec.iter().map(|&(c, _)| c).collect();
        let views = self.coherence.split_local_views(&exec);
        let cores = disjoint_muts(&mut self.cores, &ids);
        let clocks = disjoint_muts(&mut self.clocks, &ids);
        let memory = &self.memory;
        let mut tasks: Vec<LocalTask<'_>> = views
            .into_iter()
            .zip(cores)
            .zip(clocks)
            .map(|((view, core), clock)| LocalTask { core, clock, view })
            .collect();
        if tasks.len() >= PAR_CUTOFF {
            let chunk = tasks.len().div_ceil(self.sim_threads);
            std::thread::scope(|s| {
                for chunk_tasks in tasks.chunks_mut(chunk) {
                    s.spawn(move || {
                        for t in chunk_tasks {
                            step_local(t, memory);
                        }
                    });
                }
            });
        } else {
            for t in &mut tasks {
                step_local(t, memory);
            }
        }
        let hits: u64 = tasks.iter().map(|t| t.view.l1_hits()).sum();
        drop(tasks);
        self.coherence.merge_local_hits(hits);
    }
}

/// Executes one classified-local VM step, mirroring the corresponding
/// sequential `run_step`/`do_load`/`do_store` paths instruction for
/// instruction.
fn step_local(task: &mut LocalTask<'_>, memory: &Memory) {
    let core = &mut *task.core;
    let effect = core.vm.as_mut().expect("vm armed").step();
    match effect {
        Effect::Compute { cycles } => {
            *task.clock += cycles.max(1) as u64;
        }
        Effect::Branch { cond_indirect, .. } => {
            *task.clock += 1;
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
                    *task.clock += 1;
                    core.vm.as_mut().unwrap().finish_load(v);
                    return;
                }
            }
            let lat = task.view.apply_hit(line, Access::Read, TxTrack::Read);
            *task.clock += lat;
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
            let lat = task.view.apply_hit(line, Access::Write, TxTrack::Write);
            *task.clock += lat;
            core.sq.insert(addr.0, value);
        }
        Effect::Commit | Effect::Abort { .. } => {
            unreachable!("classifier admitted a global step into a batch")
        }
    }
}
