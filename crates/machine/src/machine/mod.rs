//! The multicore machine: drives AR programs through HTM, CLEAR, the
//! coherence protocol, timing and statistics.
//!
//! # Execution model
//!
//! Each simulated core owns a clock; the machine repeatedly advances the
//! core with the smallest clock (ties broken by core id — fully
//! deterministic) by one *step*: one retired instruction, one lock
//! acquisition, one spin poll, or one phase transition. Memory operations
//! are routed through the store queue, the CLEAR discovery logic, and the
//! two-phase coherence API; conflicting remote transactions are resolved by
//! the HTM policy (requester-wins / PowerTM / §5.2 NACK rules).
//!
//! A core whose step is a failed lock poll is *parked* out of the
//! scheduler until a release can unblock it; its skipped polls are then
//! charged in closed form, so every counter matches per-poll stepping
//! (see the `park` module).
//!
//! # Simplifications vs. the paper (documented per DESIGN.md)
//!
//! * NS-CL/S-CL acquire all their locks *before* executing the body rather
//!   than overlapping locking with execution; this only shifts a small
//!   constant of latency.
//! * Speculative store data is buffered in the store queue until commit
//!   (lazy data, eager conflict detection), which is observationally
//!   equivalent for other cores.

use crate::perf::PerfCounters;
use crate::{
    compute_energy, MachineConfig, RunStats, SpeculationBackend, SpeculationKind, Trace, TraceEvent,
};
use clear_coherence::{Access, CoherenceSystem, CoreId, LockFail, RemoteImpact, TxTrack};
use clear_core::{decide, Alt, Crt, Discovery, Ert, RetryMode};
use clear_htm::{
    AbortKind, FallbackLock, PowerToken, Resolution, RwSetOverflow, RwSetTracker, TxInfo,
};
use clear_isa::{ArInvocation, Effect, Vm, Workload};
use clear_mem::rng::Xoshiro256PlusPlus;
use clear_mem::{Addr, FxHashMap, FxHashSet, LineAddr, LineSet, Memory};
use sched::CoreHeap;
use std::sync::Arc;

/// The execution mode of the current attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ExecMode {
    Speculative,
    NsCl,
    SCl,
    Fallback,
}

impl ExecMode {
    fn commit_bucket(self) -> RetryMode {
        match self {
            ExecMode::Speculative => RetryMode::SpeculativeRetry,
            ExecMode::NsCl => RetryMode::NsCl,
            ExecMode::SCl => RetryMode::SCl,
            ExecMode::Fallback => RetryMode::Fallback,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Fetch the next AR from the workload.
    Idle,
    /// Non-AR think time until the given cycle.
    Think { until: u64 },
    /// Begin the next attempt in the planned mode.
    StartAttempt,
    /// CL modes: acquiring the lock list in lexicographical order.
    LockAcquire { idx: usize },
    /// Executing the AR body.
    Running,
    /// The thread has no more ARs.
    Finished,
}

#[derive(Clone, Copy, Debug)]
enum PendingOp {
    Load {
        addr: Addr,
        indirect: bool,
    },
    Store {
        addr: Addr,
        value: u64,
        indirect: bool,
    },
}

/// Bulk per-core state. The two hottest fields — the clock (the scheduler
/// key, read every step for every re-key and the debug cross-check scan)
/// and the phase (scanned for liveness) — live in dedicated
/// struct-of-arrays vectors on [`Machine`] (`clocks` / `phases`) so the
/// scheduler walks dense arrays instead of striding over this struct.
struct Core {
    vm: Option<Vm>,
    inv: Option<ArInvocation>,
    mode: ExecMode,
    pending: Option<PendingOp>,
    /// Speculative store buffer: word address -> value.
    sq: FxHashMap<u64, u64>,
    /// Abort held while failed-mode discovery continues (§4.1).
    held_abort: Option<AbortKind>,
    /// The armed discovery of the current speculative attempt.
    discovery: Option<Discovery>,
    /// A disarmed discovery kept for its buffers: the next attempt re-arms
    /// it instead of allocating a fresh one.
    spare_discovery: Option<Discovery>,
    /// Mode chosen for the next attempt.
    planned: RetryMode,
    /// Learned footprint for CL-mode retries.
    alt: Option<Alt>,
    /// A retired ALT kept for its storage: the next discovery decision
    /// swaps it in for the learned one (see [`Discovery::swap_alt`]).
    spare_alt: Option<Alt>,
    lock_list: Vec<LineAddr>,
    retries_counted: u32,
    retries_total: u32,
    power: bool,
    explicit_fb_recorded: bool,
    ert: Ert,
    crt: Crt,
    /// Footprint of the current attempt (Fig. 1 instrumentation).
    fp_cur: LineSet,
    /// Footprint of the first (aborted) attempt of this invocation.
    fp_first: Option<LineSet>,
    /// Cycle at which the current attempt started (trace attribution:
    /// the `Abort` event reports the attempt's cycle span).
    attempt_started_at: u64,
    /// Cycle at which the *first* attempt of the current invocation
    /// started (metrics: time-to-commit spans every retry and back-off).
    first_attempt_at: Option<u64>,
    /// Cycles spent spinning in the current lock-acquisition phase,
    /// reported by the next `LockAcquired` trace event.
    lock_wait_acc: u64,
    /// Bounded read/write-set buffers of the limited-R/W-set backend;
    /// `None` for every backend without [`SpeculationBackend::rw_limits`].
    lrws: Option<RwSetTracker>,
    /// The current attempt (or planned retry) is NS-CL driven by a static
    /// plan: the access path re-checks line locks and aborts with
    /// [`AbortKind::PlanViolation`] on a miss instead of trusting the
    /// discovery-built exactness invariant.
    plan_nscl: bool,
    /// Resolved root-slot lines of this invocation's likely-immutable
    /// plan; empty when no such plan applies.
    plan_roots: Vec<LineAddr>,
    /// A store of this invocation landed in a root-slot line: the
    /// partial-discovery confirmation failed, no S-CL upgrade.
    plan_root_dirty: bool,
}

impl Core {
    fn new(backend: &dyn SpeculationBackend) -> Self {
        let cc = backend.clear().copied().unwrap_or_default();
        Core {
            vm: None,
            inv: None,
            mode: ExecMode::Speculative,
            pending: None,
            sq: FxHashMap::default(),
            held_abort: None,
            discovery: None,
            spare_discovery: None,
            planned: RetryMode::SpeculativeRetry,
            alt: None,
            spare_alt: None,
            lock_list: Vec::new(),
            retries_counted: 0,
            retries_total: 0,
            power: false,
            explicit_fb_recorded: false,
            ert: Ert::new(cc.ert_entries),
            crt: Crt::new(cc.crt_sets, cc.crt_ways),
            fp_cur: LineSet::new(),
            fp_first: None,
            attempt_started_at: 0,
            first_attempt_at: None,
            lock_wait_acc: 0,
            lrws: backend.rw_limits().map(RwSetTracker::new),
            plan_nscl: false,
            plan_roots: Vec::new(),
            plan_root_dirty: false,
        }
    }

    /// Arms a discovery for a speculative attempt, re-arming the spare one
    /// when there is one.
    fn arm_discovery(&mut self, cc: &clear_core::ClearConfig, dir: clear_mem::CacheGeometry) {
        let mut d = self
            .spare_discovery
            .take()
            .unwrap_or_else(|| Discovery::new(cc, dir));
        d.rearm();
        self.discovery = Some(d);
    }

    /// Disarms the current discovery, keeping it as the spare.
    fn disarm_discovery(&mut self) {
        if let Some(d) = self.discovery.take() {
            self.spare_discovery = Some(d);
        }
    }

    /// Drops the CL-mode footprint, keeping its storage as the spare ALT.
    fn retire_alt(&mut self) {
        if let Some(alt) = self.alt.take() {
            self.spare_alt = Some(alt);
        }
    }

    /// Takes the ALT `d` learned for a CL retry, handing `d` the spare
    /// table (after retiring the current one) for its next arming.
    fn adopt_learned_alt(&mut self, d: &mut Discovery) -> Alt {
        self.retire_alt();
        d.swap_alt(self.spare_alt.take())
    }
}

/// The simulated multicore machine.
///
/// # Examples
///
/// See the crate-level docs and the repository `examples/` directory; the
/// unit tests below exercise single-workload runs end to end.
pub struct Machine {
    config: MachineConfig,
    /// The speculation policy surface (see [`SpeculationBackend`]).
    backend: Box<dyn SpeculationBackend>,
    cores: Vec<Core>,
    /// Per-core clocks, indexed by core id (SoA twin of `cores`; see
    /// [`Core`]).
    clocks: Vec<u64>,
    /// Per-core phases, indexed by core id (SoA twin of `cores`).
    phases: Vec<Phase>,
    /// What each core is parked on, indexed by core id: `Some` exactly
    /// while it is out of the scheduler heap waiting for a release (see
    /// the `park` module).
    waits: Vec<Option<park::Wait>>,
    /// Resolved [`MachineConfig::sim_threads`]; `1` disables batch
    /// stepping.
    sim_threads: usize,
    coherence: CoherenceSystem,
    fallback: FallbackLock,
    power_token: PowerToken,
    memory: Memory,
    workload: Box<dyn Workload>,
    stats: RunStats,
    rng: Xoshiro256PlusPlus,
    trace: Trace,
    /// Cores whose clocks were pushed forward by a remote abort since the
    /// last scheduler step; the run loop re-keys their heap entries.
    sched_touched: Vec<usize>,
    /// Cores parked on a failed lock poll, one list per [`park::Wait`]
    /// kind, each in no particular order.
    parked: [Vec<usize>; 2],
    /// Set by a failed poll: the run loop parks the stepping core.
    park_request: Option<park::Wait>,
    /// Raised by releases (and a fallback write acquisition) during the
    /// current step; the run loop then re-checks the matching parked
    /// cores.
    wakes: park::Wakes,
    /// `herd[c]`: core `c` was woken from a fallback wait and has not
    /// polled since (see the `park` module); `herd_len` counts them.
    herd: Vec<bool>,
    herd_len: usize,
    /// Cores moved back to the parked set by herd re-parks, counted in
    /// debug builds only (see [`Machine::herd_reparks`]).
    #[cfg(debug_assertions)]
    herd_reparked: u64,
    /// Simulator-kernel counters for the current run (see [`crate::perf`]).
    perf: PerfCounters,
    /// Opt-in metrics registry and hooks (see the `metrics` module).
    metrics: Option<Box<metrics::MachineMetrics>>,
    /// ARs whose static plan tripped the NS-CL guard: the fast path is
    /// disabled for them for the rest of the run.
    poisoned_plans: FxHashSet<u32>,
    /// Reused buffers for per-access/per-lock remote impacts, victim
    /// collection and lock groups; taken, filled, and put back on the hot
    /// path.
    scratch_impacts: Vec<RemoteImpact>,
    scratch_victims: Vec<TxInfo>,
    scratch_group: Vec<LineAddr>,
    /// Reused buffers of batch formation: the tied-set walk's frontier and
    /// the members.
    scratch_frontier: Vec<(usize, usize)>,
    scratch_members: Vec<(usize, batch::LocalStep)>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("cores", &self.config.cores)
            .field("workload", &self.workload.meta().name)
            .finish()
    }
}

impl Machine {
    /// Builds a machine, lays out the workload in simulated memory and
    /// allocates the fallback lock line. The machine runs the
    /// configuration's [`MachineConfig::backend`].
    pub fn new(config: MachineConfig, workload: Box<dyn Workload>) -> Self {
        let backend = Box::new(config.backend);
        Machine::with_backend(config, workload, backend)
    }

    /// Builds a machine running an explicit [`SpeculationBackend`] in
    /// place of the configuration's `backend` field; everything else
    /// (cores, coherence, retry policy, timing, …) applies unchanged.
    pub fn with_backend(
        config: MachineConfig,
        mut workload: Box<dyn Workload>,
        backend: Box<dyn SpeculationBackend>,
    ) -> Self {
        let mut memory = Memory::new();
        let fallback_line = memory.alloc_line().line();
        workload.setup(&mut memory, config.cores);
        let cores = (0..config.cores)
            .map(|_| Core::new(backend.as_ref()))
            .collect();
        let rng = Xoshiro256PlusPlus::seed_from_u64(config.seed);
        let sim_threads = match config.sim_threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        };
        Machine {
            backend,
            coherence: CoherenceSystem::new(config.coherence),
            fallback: FallbackLock::new(fallback_line),
            power_token: PowerToken::new(),
            memory,
            workload,
            cores,
            clocks: vec![0; config.cores],
            phases: vec![Phase::Idle; config.cores],
            waits: vec![None; config.cores],
            sim_threads,
            stats: RunStats::default(),
            rng,
            trace: Trace::new(),
            sched_touched: Vec::new(),
            parked: [Vec::new(), Vec::new()],
            park_request: None,
            wakes: park::Wakes::default(),
            herd: vec![false; config.cores],
            herd_len: 0,
            #[cfg(debug_assertions)]
            herd_reparked: 0,
            perf: PerfCounters::default(),
            metrics: None,
            poisoned_plans: FxHashSet::default(),
            scratch_impacts: Vec::new(),
            scratch_victims: Vec::new(),
            scratch_group: Vec::new(),
            scratch_frontier: Vec::new(),
            scratch_members: Vec::new(),
            config,
        }
    }

    /// Enables event tracing (see [`Trace`]). Call before [`Machine::run`].
    pub fn enable_tracing(&mut self) {
        self.trace.enable();
    }

    /// Enables event tracing with an explicit ring-buffer capacity; once
    /// full, each new record evicts the oldest and counts as dropped.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn enable_tracing_with_capacity(&mut self, capacity: usize) {
        self.trace = Trace::with_capacity(capacity);
        self.trace.enable();
    }

    /// The recorded trace (empty unless tracing was enabled).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The final committed memory state.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// The workload under simulation.
    pub fn workload(&self) -> &dyn Workload {
        self.workload.as_ref()
    }

    /// How many times a core was moved back to the parked set by a herd
    /// re-park so far (see the `park` module). Debug builds only: it lets
    /// tests see that the path ran, and is not a simulated counter.
    #[cfg(debug_assertions)]
    pub fn herd_reparks(&self) -> u64 {
        self.herd_reparked
    }

    /// The speculation backend driving this machine.
    pub fn backend(&self) -> &dyn SpeculationBackend {
        self.backend.as_ref()
    }

    /// Runs the workload to completion (or to the `max_cycles` safety stop)
    /// and returns the collected statistics.
    ///
    /// Core selection uses an indexed min-heap keyed on `(clock, core_id)`
    /// — a total order, so every step advances the exact same core a
    /// linear `min_by_key` scan would pick, in O(log cores).
    ///
    /// With [`MachineConfig::sim_threads`] ≥ 2 (or `0` = auto), cores tied
    /// at the minimum clock whose next step is provably local — an L1 hit
    /// in a distinct directory shard, a compute/branch step, or think time
    /// — are stepped as one batch (see the `batch` module). The
    /// batch path is byte-identical to sequential stepping: only the
    /// `par_batch_*` perf counters reveal it ran.
    pub fn run(&mut self) -> RunStats {
        let started = std::time::Instant::now();
        let batching = self.batching_viable();
        let mut sched = CoreHeap::new(self.cores.len());
        for (i, &phase) in self.phases.iter().enumerate() {
            if phase != Phase::Finished {
                sched.push(i, self.clocks[i]);
            }
        }
        self.sched_touched.clear();
        while let Some(c) = sched.peek() {
            #[cfg(debug_assertions)]
            self.debug_assert_heap_min(c);
            let t = self.clocks[c];
            if t > self.config.max_cycles {
                self.stats.timed_out = true;
                break;
            }
            if batching && self.try_parallel_batch(&mut sched) {
                // Batch members were re-keyed inside; local steps never
                // touch `sched_touched`, release a lock or finish a core.
                debug_assert!(!self.wakes.any() && self.park_request.is_none());
                continue;
            }
            self.step_core(c);
            self.perf.steps += 1;
            if self.phases[c] == Phase::Finished {
                sched.remove(c);
            } else if let Some(wait) = self.park_request.take() {
                // A failed lock poll: the core leaves the heap until a
                // release wakes it (the re-key still counts, as stepping
                // the poll would have re-keyed it).
                sched.remove(c);
                self.perf.sched_updates += 1;
                self.park(c, wait);
            } else if sched.update(c, self.clocks[c]) {
                self.perf.sched_updates += 1;
            }
            // Remote aborts pushed victim clocks forward; re-key them.
            if !self.sched_touched.is_empty() {
                for i in 0..self.sched_touched.len() {
                    let v = self.sched_touched[i];
                    debug_assert!(self.waits[v].is_none(), "parked core {v} re-keyed");
                    if v != c && sched.update(v, self.clocks[v]) {
                        self.perf.sched_updates += 1;
                    }
                }
                self.sched_touched.clear();
            }
            if self.wakes.any() {
                self.after_wakes(&mut sched, t, c);
            }
        }
        if self.parked.iter().any(|list| !list.is_empty()) {
            // Parked cores poll on until the safety stop: a run cannot
            // finish with waiters left (nothing is left to release them).
            self.stats.timed_out = true;
            self.expire_parked();
        }
        self.perf.run_wall_ns += started.elapsed().as_nanos() as u64;
        self.finalize_stats();
        self.stats.clone()
    }

    /// Debug-build cross-check: the heap's minimum must be exactly what
    /// the replaced linear scan would have picked. Parked cores are out of
    /// the heap by design (their polls are virtual until a wake). A plain
    /// indexed loop: this runs every step of every debug-build test.
    #[cfg(debug_assertions)]
    fn debug_assert_heap_min(&self, picked: usize) {
        let mut scan: Option<(u64, usize)> = None;
        for i in 0..self.clocks.len() {
            if self.phases[i] == Phase::Finished || self.waits[i].is_some() {
                continue;
            }
            let key = (self.clocks[i], i);
            if scan.is_none_or(|best| key < best) {
                scan = Some(key);
            }
        }
        debug_assert_eq!(
            scan.map(|(_, i)| i),
            Some(picked),
            "heap disagrees with linear scan"
        );
    }

    fn finalize_stats(&mut self) {
        self.stats.total_cycles = self.clocks.iter().copied().max().unwrap_or(0);
        self.stats.coherence = self.coherence.stats();
        self.perf.coherence_requests = self.stats.coherence.requests();
        self.perf.shards = self.coherence.shard_count() as u64;
        self.perf.shard_lines = self.coherence.shard_lines();
        self.perf.shard_lines_max = self.coherence.shard_lines_max();
        self.perf.trace_events_recorded = self.trace.recorded();
        self.perf.trace_events_dropped = self.trace.dropped();
        self.stats.perf = self.perf;
        self.stats.lock_ops = self.stats.coherence.locks + self.stats.coherence.unlocks;
        self.stats.energy = compute_energy(
            &self.config.energy,
            self.config.cores,
            self.stats.total_cycles,
            self.stats.instructions_retired + self.stats.instructions_wasted,
            self.stats.aborts.total(),
            self.stats.lock_ops,
            &self.stats.coherence,
        );
        self.metrics_on_finalize();
    }

    fn jitter(&mut self) -> u64 {
        if self.config.timing.backoff_jitter == 0 {
            0
        } else {
            self.rng.gen_range(0..self.config.timing.backoff_jitter)
        }
    }

    fn clear_enabled(&self) -> bool {
        self.backend.clear().is_some()
    }

    fn tx_info(&self, c: usize) -> TxInfo {
        TxInfo {
            core: CoreId(c),
            power: self.cores[c].power,
            scl: self.cores[c].mode == ExecMode::SCl
                && matches!(self.phases[c], Phase::Running | Phase::LockAcquire { .. }),
        }
    }

    fn step_core(&mut self, c: usize) {
        match self.phases[c] {
            Phase::Finished => {}
            Phase::Idle => self.fetch_next(c),
            Phase::Think { until } => self.end_think(c, until),
            Phase::StartAttempt => self.start_attempt(c),
            Phase::LockAcquire { idx } => self.lock_step(c, idx),
            Phase::Running => self.run_step(c),
        }
    }

    fn fetch_next(&mut self, c: usize) {
        match self.workload.next_ar(c, &self.memory) {
            None => self.phases[c] = Phase::Finished,
            Some(inv) => {
                self.trace
                    .record(self.clocks[c], c, TraceEvent::ArFetched { ar: inv.ar });
                let until = self.clocks[c] + inv.think_cycles;
                // A-priori locking (§2.2 comparator): eligible ARs start in
                // NS-CL with their statically-known footprint, bypassing
                // speculation entirely.
                let apriori_alt = if self.backend.locks_declared_footprints() {
                    inv.static_footprint.as_ref().and_then(|lines| {
                        if !self.coherence.fits_locked(lines) {
                            return None;
                        }
                        let cc = self.backend.clear().copied().unwrap_or_default();
                        let mut alt = Alt::new(cc.alt_entries, self.coherence.dir_geometry());
                        for &l in lines {
                            if alt.observe(l, true).is_err() {
                                return None;
                            }
                        }
                        Some(alt)
                    })
                } else {
                    None
                };
                // Static fast path: once this AR has shown contention, a
                // proved-immutable plan applies eagerly — the first attempt
                // is already NS-CL and no discovery run ever happens.
                let plan_alt = if apriori_alt.is_none()
                    && self
                        .stats
                        .ar_stats
                        .get(&inv.ar.0)
                        .is_some_and(|e| e.aborts > 0)
                {
                    self.plan_nscl_alt(&inv)
                } else {
                    None
                };
                let plan_roots = if apriori_alt.is_none() && plan_alt.is_none() {
                    self.plan_root_lines(&inv)
                } else {
                    Vec::new()
                };
                if let Some((_, footprint)) = &plan_alt {
                    self.trace.record(
                        self.clocks[c],
                        c,
                        TraceEvent::DiscoveryElided {
                            ar: inv.ar,
                            eager: true,
                        },
                    );
                    self.trace.record(
                        self.clocks[c],
                        c,
                        TraceEvent::Decision {
                            ar: inv.ar,
                            mode: RetryMode::NsCl,
                            footprint: *footprint,
                            immutable: true,
                        },
                    );
                    self.stats.discovery_runs_elided += 1;
                }
                let core = &mut self.cores[c];
                core.inv = Some(inv);
                if let Some(alt) = apriori_alt {
                    core.alt = Some(alt);
                    core.planned = RetryMode::NsCl;
                    core.plan_nscl = false;
                } else if let Some((alt, _)) = plan_alt {
                    core.alt = Some(alt);
                    core.planned = RetryMode::NsCl;
                    core.plan_nscl = true;
                } else {
                    core.planned = RetryMode::SpeculativeRetry;
                    core.retire_alt();
                    core.plan_nscl = false;
                }
                core.plan_roots = plan_roots;
                core.plan_root_dirty = false;
                core.retries_counted = 0;
                core.retries_total = 0;
                core.fp_first = None;
                core.first_attempt_at = None;
                self.phases[c] = Phase::Think { until };
            }
        }
    }

    fn arm_vm(&mut self, c: usize) {
        let inv = self.cores[c].inv.as_ref().expect("invocation present");
        let mut vm = Vm::new(Arc::clone(&inv.program));
        for &(r, v) in &inv.args {
            vm.set_reg(r, v);
        }
        let core = &mut self.cores[c];
        core.vm = Some(vm);
        core.pending = None;
        core.sq.clear();
        core.held_abort = None;
        core.fp_cur.clear();
        if let Some(t) = core.lrws.as_mut() {
            t.clear();
        }
    }
}

mod attempt;
mod batch;
mod conflicts;
mod locking;
mod memops;
mod metrics;
mod park;
mod plans;
mod sched;
