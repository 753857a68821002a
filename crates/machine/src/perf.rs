//! Zero-dependency performance counters for the simulation kernel itself.
//!
//! These measure the *simulator*, not the simulated machine: how many
//! scheduler steps a run took, how much coherence traffic it generated,
//! how many heap allocations the scratch-buffer reuse avoided, and how
//! long the run took in wall-clock time. They surface through
//! [`RunStats::perf`](crate::RunStats::perf), the harness JSON, and the
//! `sim_throughput` gated experiment, so kernel speedups (and regressions)
//! are tracked like any other golden metric.
//!
//! Every counter except [`PerfCounters::run_wall_ns`] is a pure function
//! of the simulated run and therefore byte-reproducible across hosts;
//! wall-clock time is explicitly excluded from golden comparisons.

/// Counters describing one [`Machine::run`](crate::Machine::run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// Scheduler steps (instructions, lock acquisitions, spins, phase
    /// transitions — one per core advance). Includes the failed lock polls
    /// of parked cores, which are charged in closed form when a release
    /// wakes them rather than stepped one by one: the count is what
    /// per-poll stepping would execute, not the host's work.
    pub steps: u64,
    /// Scheduler heap re-keys (one per step, closed-form polls included,
    /// plus one per remote abort).
    pub sched_updates: u64,
    /// Coherence requests served at any level (L1/L2/L3/memory).
    pub coherence_requests: u64,
    /// Heap allocations avoided by reusing scratch buffers (victim lists,
    /// lock lists, conflict filters, store-queue drains).
    pub allocs_avoided: u64,
    /// Trace records emitted (retained or dropped); zero unless tracing
    /// was enabled. A pure function of the run, so golden-gated.
    pub trace_events_recorded: u64,
    /// Trace records evicted by ring-buffer overflow; also deterministic
    /// and golden-gated.
    pub trace_events_dropped: u64,
    /// Directory shards instantiated by the run (each shard covers a
    /// 64-line address range).
    pub shards: u64,
    /// Directory entries instantiated across all shards (occupancy).
    pub shard_lines: u64,
    /// Directory entries in the fullest shard (imbalance indicator; equal
    /// to `shard_lines / shards` only for a perfectly uniform footprint).
    pub shard_lines_max: u64,
    /// Parallel step batches formed (≥ 2 same-clock cores with provably
    /// local, shard-disjoint next steps). Zero when `sim_threads` is 1.
    /// Batch counters are a function of the thread *mode* (off vs on), not
    /// the worker count, so any two multi-threaded runs agree on them.
    pub par_batches: u64,
    /// Scheduler steps executed inside parallel batches.
    pub par_batch_steps: u64,
    /// Largest batch formed.
    pub par_batch_max: u64,
    /// Wall-clock nanoseconds spent inside `Machine::run`. Host-dependent:
    /// never compared against goldens.
    pub run_wall_ns: u64,
}

impl PerfCounters {
    /// Simulator throughput in steps per wall-clock second; `0.0` when no
    /// time was measured.
    pub fn steps_per_sec(&self) -> f64 {
        if self.run_wall_ns == 0 {
            0.0
        } else {
            self.steps as f64 * 1e9 / self.run_wall_ns as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_per_sec_guards_zero_time() {
        let mut p = PerfCounters::default();
        assert_eq!(p.steps_per_sec(), 0.0);
        p.steps = 1000;
        p.run_wall_ns = 500_000_000; // 0.5 s
        assert!((p.steps_per_sec() - 2000.0).abs() < 1e-9);
    }
}
