//! Heap-allocation budget of the simulation kernel.
//!
//! A counting global allocator tallies the calls that obtain heap memory
//! (`alloc`, `alloc_zeroed`, `realloc`) per thread, so tests running in
//! parallel do not see each other's allocations. The budget pins the
//! kernel rule of DESIGN.md: the run loop does no heap allocation per
//! step or per event. What a serve-shaped run still allocates is the
//! workload's own AR stream and the per-run finalize (run-statistics copy,
//! metric series keys), a small constant per AR or per run.
//!
//! ```text
//! cargo test --release --offline --test alloc_budget
//! ```

use clear_coherence::{Access, CoherenceConfig, CoherenceSystem, CoreId, TxTrack};
use clear_isa::{ArInvocation, Workload, WorkloadMeta};
use clear_machine::{Machine, Preset};
use clear_mem::rng::Xoshiro256PlusPlus;
use clear_mem::{LineAddr, Memory};
use clear_workloads::{by_name, Size};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the current thread's heap allocations, then defers to the
/// system allocator.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations the current thread made while running `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (r, ALLOCS.with(Cell::get) - before)
}

/// One `clear-harness serve` batch: `ars` invocations of the inner
/// workload, each with an open-loop arrival gap as its think time.
struct ServeBatch {
    inner: Box<dyn Workload>,
    left: usize,
    gaps: Xoshiro256PlusPlus,
}

impl Workload for ServeBatch {
    fn meta(&self) -> WorkloadMeta {
        self.inner.meta()
    }

    fn setup(&mut self, mem: &mut Memory, threads: usize) {
        self.inner.setup(mem, threads);
    }

    fn next_ar(&mut self, tid: usize, mem: &Memory) -> Option<ArInvocation> {
        if self.left == 0 {
            return None;
        }
        let mut inv = self.inner.next_ar(tid, mem)?;
        self.left -= 1;
        // The serve default: gaps uniform in [0, 2 * 24].
        inv.think_cycles = self.gaps.gen_range(0..49);
        Some(inv)
    }
}

#[test]
fn serve_batch_run_stays_within_allocation_budget() {
    const BUDGET_PER_STEP: f64 = 0.05;
    let (mut steps, mut allocs) = (0u64, 0u64);
    for seed in 1..=4u64 {
        let batch = ServeBatch {
            inner: by_name("queue", Size::Tiny, seed).expect("queue exists"),
            left: 256,
            gaps: Xoshiro256PlusPlus::seed_from_u64(seed),
        };
        let mut cfg = Preset::C.config(8, 5);
        cfg.seed = seed;
        cfg.sim_threads = 1;
        let mut machine = Machine::new(cfg, Box::new(batch));
        machine.enable_metrics();
        let (stats, n) = allocations(|| machine.run());
        assert!(!stats.timed_out);
        assert!(stats.aborts.total() > 0, "the batch must contend");
        steps += stats.perf.steps;
        allocs += n;
        let registry = machine.take_metrics().expect("metrics enabled");
        assert!(!registry.is_empty());
    }
    let per_step = allocs as f64 / steps as f64;
    assert!(
        per_step <= BUDGET_PER_STEP,
        "{allocs} heap allocations over {steps} steps: {per_step:.3} per step \
         (budget {BUDGET_PER_STEP})"
    );
}

#[test]
fn probe_and_apply_with_remote_impacts_allocate_nothing() {
    let mut sys = CoherenceSystem::new(CoherenceConfig::table2(8));
    let mut impacts = Vec::with_capacity(8);
    let lines = [LineAddr(3), LineAddr(40), LineAddr(77)];
    // Every core shares every line; the directory and caches are warm.
    for &l in &lines {
        for c in 0..8 {
            sys.apply(CoreId(c), l, Access::Read, TxTrack::None)
                .unwrap();
        }
    }
    let ((), n) = allocations(|| {
        for (i, &l) in lines.iter().enumerate() {
            let p = sys.probe(CoreId(i), l, Access::Write, &mut impacts);
            assert_eq!(impacts.len(), 7, "seven remote sharers");
            sys.apply_probed(CoreId(i), l, Access::Write, TxTrack::None, p, &impacts)
                .unwrap();
            // A read of the now-exclusive line downgrades its owner.
            let p = sys.probe(CoreId(7 - i), l, Access::Read, &mut impacts);
            assert_eq!(impacts.len(), 1, "one exclusive owner");
            sys.apply_probed(CoreId(7 - i), l, Access::Read, TxTrack::None, p, &impacts)
                .unwrap();
        }
    });
    assert_eq!(n, 0, "probe + apply_probed allocated {n} times");
}
