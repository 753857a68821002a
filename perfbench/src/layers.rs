//! Outside-in timing of single layers.
//!
//! The machine's layers are not reachable from outside `Machine::run`, so
//! their per-unit costs are measured by replaying a workload's own AR
//! stream through each layer's public API:
//!
//! - [`Stream::record`] executes a sample of the stream serially on the
//!   clear-isa VM and records every invocation's load values and every
//!   memory access (untimed);
//! - [`Stream::vm_ns_per_step`] re-executes the recorded invocations
//!   through `Vm::step`;
//! - [`Stream::coherence_ns_per_request`] applies the recorded accesses to
//!   a `CoherenceSystem` on `CoherenceConfig::table2(cores)`;
//! - [`Stream::core_ns_per_access`] feeds them to CLEAR's `Discovery` and
//!   assesses and decides each invocation.
//!
//! Each cost is the median of [`REPLAY_REPS`] timed passes. [`probe_hooks`]
//! times the machine's metrics and trace hooks as the difference between
//! the same runs with and without them.

use crate::spans::span;
use crate::stats::median;
use clear_coherence::{Access, CoherenceConfig, CoherenceSystem, CoreId, TxTrack};
use clear_core::{decide, ClearConfig, Discovery};
use clear_isa::{ArInvocation, Effect, Program, Reg, Vm, Workload, WorkloadMeta};
use clear_machine::{Machine, MachineConfig};
use clear_mem::rng::Xoshiro256PlusPlus;
use clear_mem::{Addr, LineAddr, Memory, LINE_BYTES, WORD_BYTES};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Timed passes per replay; the median is reported.
const REPLAY_REPS: usize = 3;

/// Reference steps after which one replayed invocation counts as a
/// runaway and is dropped from the sample.
const STEP_CAP: u64 = 200_000;

/// A workload wrapper through which the benchmark observes a machine from
/// outside: `Workload::setup` runs in its own span (so the traced run can
/// split `Machine::new` into workload set-up and the machine's own
/// construction), and the instant of every AR fetch is recorded (so a run
/// can be cut into the intervals between fetches).
pub struct Observed {
    inner: Box<dyn Workload>,
    pub fetches: Rc<RefCell<Vec<Instant>>>,
}

impl Observed {
    pub fn new(inner: Box<dyn Workload>) -> Observed {
        Observed {
            inner,
            fetches: Rc::default(),
        }
    }
}

impl Workload for Observed {
    fn meta(&self) -> WorkloadMeta {
        self.inner.meta()
    }

    fn setup(&mut self, mem: &mut Memory, threads: usize) {
        span("workloads.setup", || self.inner.setup(mem, threads));
    }

    fn next_ar(&mut self, tid: usize, mem: &Memory) -> Option<ArInvocation> {
        self.fetches.borrow_mut().push(Instant::now());
        self.inner.next_ar(tid, mem)
    }

    fn validate(&self, mem: &Memory) -> Result<(), String> {
        self.inner.validate(mem)
    }
}

/// A serve-shaped batch outside `serve_session`: the inner stream capped
/// at `left` invocations, each given an open-loop think time drawn like the
/// serve loop's synthetic arrivals (uniform in `0..=2*rate`).
pub struct Rationed {
    pub inner: Box<dyn Workload>,
    pub left: usize,
    pub rate: u64,
    pub gaps: Xoshiro256PlusPlus,
}

impl Workload for Rationed {
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
        inv.think_cycles = self.gaps.gen_range(0..(2 * self.rate + 1));
        Some(inv)
    }

    fn validate(&self, mem: &Memory) -> Result<(), String> {
        self.inner.validate(mem)
    }
}

/// One recorded memory access.
struct RecordedAccess {
    core: usize,
    line: LineAddr,
    write: bool,
    indirect: bool,
}

/// One recorded invocation: enough to re-execute it on a fresh VM.
struct Invocation {
    program: Arc<Program>,
    args: Vec<(Reg, u64)>,
    loads: Vec<u64>,
    /// Index range of this invocation's accesses in its segment.
    accesses: std::ops::Range<usize>,
}

/// The recorded sample of one workload instance.
struct Segment {
    cores: usize,
    invocations: Vec<Invocation>,
    accesses: Vec<RecordedAccess>,
}

/// A recorded sample of a workload's AR stream.
#[derive(Default)]
pub struct Stream {
    segments: Vec<Segment>,
    /// VM steps (instructions) in the recorded invocations.
    pub instructions: u64,
    /// Memory accesses in the recorded invocations.
    pub accesses: u64,
}

fn faulty(addr: Addr) -> bool {
    addr.0 < LINE_BYTES || !addr.0.is_multiple_of(WORD_BYTES)
}

impl Stream {
    /// Records up to `budget` instructions from each of the given workload
    /// instances, threads taking turns one invocation at a time and stores
    /// applied immediately (the serial reference semantics).
    pub fn record(
        instances: impl IntoIterator<Item = (Box<dyn Workload>, usize)>,
        budget: u64,
    ) -> Stream {
        let mut stream = Stream::default();
        for (mut workload, cores) in instances {
            let start = stream.instructions;
            let mut mem = Memory::new();
            mem.alloc_line();
            workload.setup(&mut mem, cores);
            let mut seg = Segment {
                cores,
                invocations: Vec::new(),
                accesses: Vec::new(),
            };
            let mut live = vec![true; cores];
            while live.iter().any(|&l| l) && stream.instructions - start < budget {
                for (tid, alive) in live.iter_mut().enumerate() {
                    if !*alive {
                        continue;
                    }
                    match workload.next_ar(tid, &mem) {
                        None => *alive = false,
                        Some(inv) => {
                            stream.instructions += execute(&inv, tid, &mut mem, &mut seg);
                        }
                    }
                }
            }
            stream.accesses += seg.accesses.len() as u64;
            stream.segments.push(seg);
        }
        stream
    }

    /// Median nanoseconds per `Vm::step` re-executing the recorded
    /// invocations (loads are fed their recorded values).
    pub fn vm_ns_per_step(&self) -> f64 {
        per_unit(self.instructions, || {
            let mut steps = 0u64;
            for inv in self.segments.iter().flat_map(|s| &s.invocations) {
                let mut vm = Vm::new(Arc::clone(&inv.program));
                for &(r, v) in &inv.args {
                    vm.set_reg(r, v);
                }
                let mut loads = inv.loads.iter();
                loop {
                    steps += 1;
                    match vm.step() {
                        Effect::Load { .. } => {
                            vm.finish_load(*loads.next().expect("recorded load"))
                        }
                        Effect::Commit | Effect::Abort { .. } => break,
                        _ => {}
                    }
                }
            }
            black_box(steps);
        })
    }

    /// Median nanoseconds per `CoherenceSystem::apply` replaying the
    /// recorded accesses on a cold Table 2 hierarchy per instance.
    pub fn coherence_ns_per_request(&self) -> f64 {
        let mut samples = Vec::new();
        for _ in 0..REPLAY_REPS {
            let mut ns = 0u128;
            for seg in &self.segments {
                let mut coh = CoherenceSystem::new(CoherenceConfig::table2(seg.cores));
                let t = Instant::now();
                for a in &seg.accesses {
                    let access = if a.write { Access::Write } else { Access::Read };
                    let _ = black_box(coh.apply(CoreId(a.core), a.line, access, TxTrack::None));
                }
                ns += t.elapsed().as_nanos();
                drop(black_box(coh));
            }
            samples.push(ns as f64 / self.accesses.max(1) as f64);
        }
        median(&samples)
    }

    /// Median nanoseconds per access of CLEAR's per-invocation work:
    /// `Discovery::on_access` for every access, then `assess` (with the
    /// coherence layer's lockability test) and `decide` once per
    /// invocation, amortized over the accesses.
    pub fn core_ns_per_access(&self) -> f64 {
        let dir = CoherenceConfig::table2(1).directory;
        let mut discovery = Discovery::new(&ClearConfig::default(), dir);
        per_unit(self.accesses, || {
            for seg in &self.segments {
                let coh = CoherenceSystem::new(CoherenceConfig::table2(seg.cores));
                for inv in &seg.invocations {
                    discovery.rearm();
                    for a in &seg.accesses[inv.accesses.clone()] {
                        discovery.on_access(a.line, a.write, a.indirect);
                    }
                    let assessment = discovery.assess(|lines| coh.fits_locked(lines));
                    black_box(decide(&assessment));
                }
            }
        })
    }
}

/// Runs `pass` [`REPLAY_REPS`] times; median nanoseconds per unit.
fn per_unit(units: u64, mut pass: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPLAY_REPS)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_nanos() as f64 / units.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Executes one invocation serially against `mem`, recording it into
/// `seg`; returns the instructions it retired (0 if it was dropped).
fn execute(inv: &ArInvocation, core: usize, mem: &mut Memory, seg: &mut Segment) -> u64 {
    let mut vm = Vm::new(Arc::clone(&inv.program));
    for &(r, v) in &inv.args {
        vm.set_reg(r, v);
    }
    let first = seg.accesses.len();
    let mut loads = Vec::new();
    let mut steps = 0u64;
    loop {
        steps += 1;
        if steps > STEP_CAP {
            seg.accesses.truncate(first);
            return 0;
        }
        match vm.step() {
            Effect::Load {
                addr,
                addr_indirect,
                ..
            } => {
                if faulty(addr) {
                    seg.accesses.truncate(first);
                    return 0;
                }
                let v = mem.load_word(addr);
                vm.finish_load(v);
                loads.push(v);
                seg.accesses.push(RecordedAccess {
                    core,
                    line: addr.line(),
                    write: false,
                    indirect: addr_indirect,
                });
            }
            Effect::Store {
                addr,
                value,
                addr_indirect,
            } => {
                if faulty(addr) {
                    seg.accesses.truncate(first);
                    return 0;
                }
                mem.store_word(addr, value);
                seg.accesses.push(RecordedAccess {
                    core,
                    line: addr.line(),
                    write: true,
                    indirect: addr_indirect,
                });
            }
            Effect::Commit | Effect::Abort { .. } => break,
            Effect::Compute { .. } | Effect::Branch { .. } => {}
        }
    }
    seg.invocations.push(Invocation {
        program: Arc::clone(&inv.program),
        args: inv.args.clone(),
        loads,
        accesses: first..seg.accesses.len(),
    });
    steps
}

/// Host cost of the machine's optional hooks.
pub struct HookCost {
    /// Extra nanoseconds per scheduler step with `enable_metrics`.
    pub metrics_ns_per_step: f64,
    /// Extra nanoseconds per scheduler step with `enable_tracing`.
    pub trace_ns_per_step: f64,
}

/// Trace ring capacity for the trace-hook probe: bounded, so long probe
/// runs keep constant memory.
const PROBE_TRACE_CAPACITY: usize = 1 << 16;

/// Host seconds after which the hook probe starts no further repetition.
const PROBE_BUDGET_S: f64 = 5.0;

/// Times the machines built by `make` three ways — plain, with metrics and
/// with tracing — interleaved, up to `reps` times each (fewer once
/// [`PROBE_BUDGET_S`] is spent, at least once), and reports each hook's
/// median extra run time per step. Only `Machine::run` is timed.
pub fn probe_hooks(
    make: impl Fn() -> Vec<(Box<dyn Workload>, MachineConfig)>,
    reps: usize,
) -> HookCost {
    let started = Instant::now();
    let mut times = [Vec::new(), Vec::new(), Vec::new()];
    let mut steps = 0u64;
    for rep in 0..reps.max(1) {
        if rep > 0 && started.elapsed().as_secs_f64() > PROBE_BUDGET_S {
            break;
        }
        for (mode, samples) in times.iter_mut().enumerate() {
            let mut ns = 0u128;
            steps = 0;
            for (workload, cfg) in make() {
                let mut m = Machine::new(cfg, workload);
                match mode {
                    1 => m.enable_metrics(),
                    2 => m.enable_tracing_with_capacity(PROBE_TRACE_CAPACITY),
                    _ => {}
                }
                let t = Instant::now();
                let stats = m.run();
                ns += t.elapsed().as_nanos();
                steps += stats.perf.steps;
            }
            samples.push(ns as f64);
        }
    }
    let [plain, metrics, tracing] = times.map(|s| median(&s));
    let per_step = |t: f64| (t - plain) / steps.max(1) as f64;
    HookCost {
        metrics_ns_per_step: per_step(metrics),
        trace_ns_per_step: per_step(tracing),
    }
}
