//! Machine-side metrics collection: lightweight hooks on the attempt /
//! commit / abort / lock paths feeding a [`clear_metrics`] registry.
//!
//! Collection is strictly opt-in ([`Machine::enable_metrics`]) and records
//! only simulated-deterministic values (cycles, counts — never wall-clock
//! time), so an enabled registry snapshot is byte-reproducible across
//! hosts, worker counts and `sim_threads` modes. A disabled machine pays a
//! branch per hook. An enabled one folds each event into typed state —
//! histograms indexed by retry mode and AR class, arrays of counters
//! indexed by mode and abort kind — with no heap allocation and no keyed
//! lookup, and writes that state into its registry once, when the run
//! ends: only the series that saw at least one event are created, so the
//! snapshot equals the one per-event registry updates would have built.
//! perfbench's traced serve-queue run reads the enabled hooks at about
//! 2 ns per simulated step (median of four runs on a 2-vCPU Xeon
//! container, within that probe's ±10 ns noise).
//! Every hook sits on a sequential path of the run loop — commits, aborts
//! and lock acquisitions are never executed inside parallel step batches —
//! so no synchronization is needed.

use super::*;
use clear_isa::Mutability;
use clear_metrics::{families, Log2Hist, MetricsRegistry};
use std::fmt::Write as _;

/// The AR mutability classes, in time-to-commit histogram order, as
/// metric labels (Table 1 taxonomy; the serve loop's "per AR class"
/// percentiles key on this).
const CLASS_LABELS: [&str; 3] = ["immutable", "likely-immutable", "mutable"];

/// The position of an AR's static mutability class in [`CLASS_LABELS`].
fn class_index(m: Mutability) -> usize {
    match m {
        Mutability::Immutable => 0,
        Mutability::LikelyImmutable => 1,
        Mutability::Mutable => 2,
    }
}

/// The retry modes, in time-to-commit histogram and commit counter order.
const MODES: [RetryMode; 4] = [
    RetryMode::SpeculativeRetry,
    RetryMode::NsCl,
    RetryMode::SCl,
    RetryMode::Fallback,
];

/// A [`RetryMode`]'s position in [`MODES`].
fn mode_index(mode: RetryMode) -> usize {
    match mode {
        RetryMode::SpeculativeRetry => 0,
        RetryMode::NsCl => 1,
        RetryMode::SCl => 2,
        RetryMode::Fallback => 3,
    }
}

/// A [`RetryMode`] as a metric label.
fn mode_label(mode: RetryMode) -> &'static str {
    match mode {
        RetryMode::SpeculativeRetry => "speculative",
        RetryMode::NsCl => "nscl",
        RetryMode::SCl => "scl",
        RetryMode::Fallback => "fallback",
    }
}

/// Metrics state carried by an enabled machine: the run's events folded
/// into typed state, written into `registry` when the run ends.
pub(super) struct MachineMetrics {
    registry: MetricsRegistry,
    /// AR id → index of its static mutability class, from the workload's
    /// metadata.
    ar_class: FxHashMap<u32, usize>,
    /// The speculation backend's stable name, stamped on every
    /// time-to-commit series.
    backend: &'static str,
    /// Time-to-commit by retry mode ([`MODES`] order).
    ttc_by_mode: [Log2Hist; 4],
    /// Time-to-commit by AR class ([`CLASS_LABELS`] order).
    ttc_by_class: [Log2Hist; 3],
    /// Commits by retry mode ([`MODES`] order).
    commits: [u64; 4],
    /// Aborts by [`AbortKind::index`].
    aborts: [u64; AbortKind::ALL.len()],
    /// Spin cycles per acquired conflict group.
    lock_wait: Log2Hist,
}

impl MachineMetrics {
    fn new(backend: &'static str, ar_class: FxHashMap<u32, usize>) -> Self {
        MachineMetrics {
            registry: MetricsRegistry::new(),
            ar_class,
            backend,
            ttc_by_mode: Default::default(),
            ttc_by_class: Default::default(),
            commits: [0; 4],
            aborts: [0; AbortKind::ALL.len()],
            lock_wait: Log2Hist::new(),
        }
    }

    fn on_commit(&mut self, mode: RetryMode, ttc: u64, ar: Option<u32>) {
        let m = mode_index(mode);
        self.ttc_by_mode[m].observe(ttc);
        if let Some(&class) = ar.and_then(|id| self.ar_class.get(&id)) {
            self.ttc_by_class[class].observe(ttc);
        }
        self.commits[m] += 1;
    }

    fn on_abort(&mut self, kind: AbortKind) {
        self.aborts[kind.index()] += 1;
    }

    fn on_locks_acquired(&mut self, wait_cycles: u64) {
        self.lock_wait.observe(wait_cycles);
    }

    /// Writes the folded events into the registry — one series per mode,
    /// class, abort kind or lock wait that saw an event — and resets the
    /// folds, so a later run adds to the registry as per-event updates
    /// would have.
    fn flush(&mut self) {
        let reg = &mut self.registry;
        for (i, mode) in MODES.into_iter().enumerate() {
            let mode = mode_label(mode);
            let ttc = std::mem::take(&mut self.ttc_by_mode[i]);
            if ttc.count() > 0 {
                let labels = [("mode", mode), ("backend", self.backend)];
                reg.merge_hist(families::TTC_CYCLES, &labels, &ttc);
            }
            let commits = std::mem::take(&mut self.commits[i]);
            if commits > 0 {
                reg.inc(families::COMMITS, &[("mode", mode)], commits);
            }
        }
        for (ttc, class) in self.ttc_by_class.iter_mut().zip(CLASS_LABELS) {
            let ttc = std::mem::take(ttc);
            if ttc.count() > 0 {
                reg.merge_hist(families::TTC_CLASS_CYCLES, &[("class", class)], &ttc);
            }
        }
        for kind in AbortKind::ALL {
            let n = std::mem::take(&mut self.aborts[kind.index()]);
            if n > 0 {
                reg.inc(families::ABORTS, &[("cause", kind.name())], n);
            }
        }
        let lock_wait = std::mem::take(&mut self.lock_wait);
        if lock_wait.count() > 0 {
            reg.merge_hist(families::LOCK_WAIT_CYCLES, &[], &lock_wait);
        }
    }
}

impl Machine {
    /// Enables metrics collection (see [`clear_metrics`]). Call before
    /// [`Machine::run`]; the run folds its events and, when it ends,
    /// writes them into the registry together with shard-occupancy gauges
    /// and the simulator perf counters. The
    /// registry stores only simulated-deterministic values, so snapshots
    /// are byte-identical across hosts and thread counts (two multi-
    /// threaded runs agree on the `par_batch_*` gauges too, exactly as
    /// [`PerfCounters`] documents).
    pub fn enable_metrics(&mut self) {
        let mut ar_class = FxHashMap::default();
        for ar in self.workload.meta().ars {
            ar_class.insert(ar.id.0, class_index(ar.mutability));
        }
        self.metrics = Some(Box::new(MachineMetrics::new(self.backend.name(), ar_class)));
    }

    /// The collected metrics (`None` unless [`Machine::enable_metrics`]
    /// was called), complete once [`Machine::run`] has returned.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref().map(|m| &m.registry)
    }

    /// Takes the collected metrics out of the machine, for merging across
    /// runs/batches (`None` unless enabled).
    pub fn take_metrics(&mut self) -> Option<MetricsRegistry> {
        self.metrics.take().map(|m| m.registry)
    }

    /// Commit hook: time-to-commit histograms (per mode × backend and per
    /// AR class) plus the per-mode commit counter. `ttc` spans from the
    /// first attempt of the invocation (retries and back-off included) to
    /// the committing step.
    pub(super) fn metrics_on_commit(&mut self, c: usize, mode: RetryMode) {
        if self.metrics.is_none() {
            return;
        }
        let started = self.cores[c].first_attempt_at.unwrap_or(self.clocks[c]);
        let ttc = self.clocks[c].saturating_sub(started);
        let ar = self.cores[c].inv.as_ref().map(|inv| inv.ar.0);
        self.metrics
            .as_mut()
            .expect("checked above")
            .on_commit(mode, ttc, ar);
    }

    /// Abort hook: the abort-cause taxonomy counter.
    pub(super) fn metrics_on_abort(&mut self, kind: AbortKind) {
        if let Some(mx) = self.metrics.as_mut() {
            mx.on_abort(kind);
        }
    }

    /// Lock-acquisition hook: one lock-wait sample per acquired conflict
    /// group (the spin cycles accumulated while the group was contended).
    pub(super) fn metrics_on_locks_acquired(&mut self, wait_cycles: u64) {
        if let Some(mx) = self.metrics.as_mut() {
            mx.on_locks_acquired(wait_cycles);
        }
    }

    /// Run-end hook: the folded commit / abort / lock-wait events, the
    /// simulator perf counters as gauges (wall-clock time excluded by
    /// design) and the coherence layer's per-shard occupancy /
    /// lock-traffic profile.
    pub(super) fn metrics_on_finalize(&mut self) {
        let Some(mx) = self.metrics.as_mut() else {
            return;
        };
        mx.flush();
        let perf = self.perf;
        let lrws_reads = self.stats.lrws_read_capacity_aborts;
        let lrws_writes = self.stats.lrws_write_capacity_aborts;
        // Only exported when static plans are configured, so runs without
        // them keep their metrics snapshots byte-identical.
        let plan_counters = self.config.static_plans.is_some().then_some([
            ("discovery_runs_elided", self.stats.discovery_runs_elided),
            ("partial_discovery_runs", self.stats.partial_discovery_runs),
            ("static_plan_violations", self.stats.static_plan_violations),
        ]);
        let reg = &mut self.metrics.as_mut().expect("checked above").registry;
        for (counter, value) in [
            ("steps", perf.steps),
            ("sched_updates", perf.sched_updates),
            ("coherence_requests", perf.coherence_requests),
            ("allocs_avoided", perf.allocs_avoided),
            ("trace_events_recorded", perf.trace_events_recorded),
            ("trace_events_dropped", perf.trace_events_dropped),
            ("shards", perf.shards),
            ("shard_lines", perf.shard_lines),
            ("shard_lines_max", perf.shard_lines_max),
            ("par_batches", perf.par_batches),
            ("par_batch_steps", perf.par_batch_steps),
            ("par_batch_max", perf.par_batch_max),
            ("lrws_read_capacity_aborts", lrws_reads),
            ("lrws_write_capacity_aborts", lrws_writes),
        ] {
            reg.set_gauge(families::SIM_PERF, &[("counter", counter)], value);
        }
        for (counter, value) in plan_counters.into_iter().flatten() {
            reg.set_gauge(families::SIM_PERF, &[("counter", counter)], value);
        }
        let mut shard = String::new();
        for p in self.coherence.shard_profiles() {
            shard.clear();
            write!(shard, "{}", p.shard).expect("writing to a String");
            let labels = [("shard", shard.as_str())];
            reg.set_gauge(families::SHARD_LINES, &labels, p.lines);
            if p.locks > 0 {
                reg.inc(families::SHARD_LOCKS, &labels, p.locks);
            }
            if p.lock_nacks > 0 {
                reg.inc(families::SHARD_LOCK_NACKS, &labels, p.lock_nacks);
            }
        }
    }
}
