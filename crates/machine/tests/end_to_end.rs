//! End-to-end machine tests: tiny synthetic workloads driven through every
//! preset, checking atomicity and the expected mode behaviour.

use clear_isa::{
    ArId, ArInvocation, ArSpec, Mutability, Program, ProgramBuilder, Reg, Workload, WorkloadMeta,
};
use clear_machine::{Machine, Preset};
use clear_mem::{Addr, Memory};
use std::sync::Arc;

/// Builds the canonical increment program: `mem[r0] += 1`.
fn inc_program() -> Arc<Program> {
    let mut p = ProgramBuilder::new();
    p.ld(Reg(1), Reg(0), 0)
        .addi(Reg(1), Reg(1), 1)
        .st(Reg(0), 0, Reg(1))
        .xend();
    Arc::new(p.build())
}

/// N threads increment a single shared counter `ops` times each: the
/// highest-contention immutable AR possible.
struct SharedCounter {
    addr: Addr,
    remaining: Vec<u32>,
    ops: u32,
    program: Arc<Program>,
}

impl SharedCounter {
    fn new(ops: u32) -> Self {
        SharedCounter {
            addr: Addr::NULL,
            remaining: vec![],
            ops,
            program: inc_program(),
        }
    }
}

impl Workload for SharedCounter {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "shared-counter".into(),
            ars: vec![ArSpec {
                id: ArId(0),
                name: "inc".into(),
                mutability: Mutability::Immutable,
            }],
        }
    }

    fn setup(&mut self, mem: &mut Memory, threads: usize) {
        self.addr = mem.alloc_words(1);
        self.remaining = vec![self.ops; threads];
    }

    fn next_ar(&mut self, tid: usize, _mem: &Memory) -> Option<ArInvocation> {
        if self.remaining[tid] == 0 {
            return None;
        }
        self.remaining[tid] -= 1;
        Some(ArInvocation {
            ar: ArId(0),
            program: Arc::clone(&self.program),
            args: vec![(Reg(0), self.addr.0)],
            think_cycles: 15,
            static_footprint: None,
        })
    }

    fn validate(&self, mem: &Memory) -> Result<(), String> {
        let v = mem.load_word(self.addr);
        let expect = self.ops as u64 * self.remaining.len() as u64;
        if v == expect {
            Ok(())
        } else {
            Err(format!("counter is {v}, expected {expect}"))
        }
    }
}

/// Each thread increments its own counter: zero contention.
struct PrivateCounters {
    addrs: Vec<Addr>,
    remaining: Vec<u32>,
    ops: u32,
    program: Arc<Program>,
}

impl PrivateCounters {
    fn new(ops: u32) -> Self {
        PrivateCounters {
            addrs: vec![],
            remaining: vec![],
            ops,
            program: inc_program(),
        }
    }
}

impl Workload for PrivateCounters {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "private-counters".into(),
            ars: vec![ArSpec {
                id: ArId(0),
                name: "inc".into(),
                mutability: Mutability::Immutable,
            }],
        }
    }

    fn setup(&mut self, mem: &mut Memory, threads: usize) {
        self.addrs = (0..threads).map(|_| mem.alloc_words(1)).collect();
        self.remaining = vec![self.ops; threads];
    }

    fn next_ar(&mut self, tid: usize, _mem: &Memory) -> Option<ArInvocation> {
        if self.remaining[tid] == 0 {
            return None;
        }
        self.remaining[tid] -= 1;
        Some(ArInvocation {
            ar: ArId(0),
            program: Arc::clone(&self.program),
            args: vec![(Reg(0), self.addrs[tid].0)],
            think_cycles: 10,
            static_footprint: None,
        })
    }

    fn validate(&self, mem: &Memory) -> Result<(), String> {
        for (t, &a) in self.addrs.iter().enumerate() {
            let v = mem.load_word(a);
            if v != self.ops as u64 {
                return Err(format!("thread {t} counter is {v}, expected {}", self.ops));
            }
        }
        Ok(())
    }
}

fn run(preset: Preset, cores: usize, w: Box<dyn Workload>) -> (Machine, clear_machine::RunStats) {
    let mut cfg = preset.config(cores, 4);
    cfg.seed = 42;
    let mut m = Machine::new(cfg, w);
    let stats = m.run();
    (m, stats)
}

#[test]
fn shared_counter_conserved_under_all_presets() {
    for preset in Preset::ALL {
        let (m, stats) = run(preset, 4, Box::new(SharedCounter::new(40)));
        assert!(!stats.timed_out, "{preset}: timed out");
        assert_eq!(stats.commits(), 160, "{preset}: wrong commit count");
        m.workload()
            .validate(m.memory())
            .unwrap_or_else(|e| panic!("{preset}: atomicity violated: {e}"));
    }
}

#[test]
fn private_counters_commit_speculatively_without_aborts() {
    for preset in Preset::ALL {
        let (m, stats) = run(preset, 4, Box::new(PrivateCounters::new(50)));
        assert!(!stats.timed_out);
        assert_eq!(stats.commits(), 200, "{preset}");
        m.workload().validate(m.memory()).unwrap();
        assert_eq!(
            stats.commits_by_mode.speculative, 200,
            "{preset}: low contention should commit speculatively"
        );
        assert_eq!(stats.aborts.total(), 0, "{preset}: no conflicts expected");
        assert_eq!(stats.commits_by_retries.get(&0), Some(&200), "{preset}");
    }
}

#[test]
fn contended_baseline_aborts_and_clear_uses_cl_modes() {
    let (_, b) = run(Preset::B, 4, Box::new(SharedCounter::new(40)));
    assert!(b.aborts.total() > 0, "high contention must abort");
    assert_eq!(b.commits_by_mode.nscl + b.commits_by_mode.scl, 0);

    let (_, c) = run(Preset::C, 4, Box::new(SharedCounter::new(40)));
    assert!(
        c.commits_by_mode.nscl > 0,
        "immutable AR under CLEAR should commit in NS-CL: {:?}",
        c.commits_by_mode
    );
}

#[test]
fn clear_reduces_aborts_per_commit_under_contention() {
    let (_, b) = run(Preset::B, 8, Box::new(SharedCounter::new(30)));
    let (_, c) = run(Preset::C, 8, Box::new(SharedCounter::new(30)));
    assert!(
        c.aborts_per_commit() < b.aborts_per_commit(),
        "CLEAR should reduce aborts/commit: B={:.2} C={:.2}",
        b.aborts_per_commit(),
        c.aborts_per_commit()
    );
}

#[test]
fn clear_improves_first_retry_share() {
    let (_, b) = run(Preset::B, 8, Box::new(SharedCounter::new(30)));
    let (_, c) = run(Preset::C, 8, Box::new(SharedCounter::new(30)));
    assert!(
        c.first_retry_share() >= b.first_retry_share(),
        "B={:.2} C={:.2}",
        b.first_retry_share(),
        c.first_retry_share()
    );
}

#[test]
fn runs_are_deterministic() {
    let (_, a) = run(Preset::W, 4, Box::new(SharedCounter::new(25)));
    let (_, b) = run(Preset::W, 4, Box::new(SharedCounter::new(25)));
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.aborts.total(), b.aborts.total());
    assert_eq!(a.commits_by_mode, b.commits_by_mode);
}

#[test]
fn energy_is_positive_and_includes_both_components() {
    let (_, s) = run(Preset::B, 2, Box::new(SharedCounter::new(10)));
    assert!(s.energy.static_energy > 0.0);
    assert!(s.energy.dynamic_energy > 0.0);
    assert!(s.energy.total() > s.energy.static_energy);
}

#[test]
fn single_core_never_conflicts() {
    let (m, s) = run(Preset::B, 1, Box::new(SharedCounter::new(100)));
    assert_eq!(s.commits(), 100);
    assert_eq!(s.aborts.total(), 0);
    m.workload().validate(m.memory()).unwrap();
}

/// A single AR that executes far more instructions than the ROB holds.
struct BigAr {
    addr: Addr,
    remaining: Vec<u32>,
    program: Arc<Program>,
}

impl BigAr {
    fn new(instrs: u32) -> Self {
        let mut p = ProgramBuilder::new();
        // A long compute loop followed by one shared increment.
        let top = p.label();
        let done = p.label();
        p.li(Reg(2), 0).li(Reg(3), instrs as u64);
        p.bind(top)
            .branch(clear_isa::Cond::Ge, Reg(2), Reg(3), done)
            .addi(Reg(2), Reg(2), 1)
            .jmp(top)
            .bind(done)
            .ld(Reg(1), Reg(0), 0)
            .addi(Reg(1), Reg(1), 1)
            .st(Reg(0), 0, Reg(1))
            .xend();
        BigAr {
            addr: Addr::NULL,
            remaining: vec![],
            program: Arc::new(p.build()),
        }
    }
}

impl Workload for BigAr {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "big-ar".into(),
            ars: vec![ArSpec {
                id: ArId(0),
                name: "long".into(),
                mutability: Mutability::Immutable,
            }],
        }
    }
    fn setup(&mut self, mem: &mut Memory, threads: usize) {
        self.addr = mem.alloc_words(1);
        self.remaining = vec![8; threads];
    }
    fn next_ar(&mut self, tid: usize, _mem: &Memory) -> Option<ArInvocation> {
        if self.remaining[tid] == 0 {
            return None;
        }
        self.remaining[tid] -= 1;
        Some(ArInvocation {
            ar: ArId(0),
            program: Arc::clone(&self.program),
            args: vec![(Reg(0), self.addr.0)],
            think_cycles: 10,
            static_footprint: None,
        })
    }
    fn validate(&self, mem: &Memory) -> Result<(), String> {
        let v = mem.load_word(self.addr);
        let want = 8 * self.remaining.len() as u64;
        (v == want)
            .then_some(())
            .ok_or_else(|| format!("counter {v} != {want}"))
    }
}

#[test]
fn in_core_speculation_bounds_ar_size_to_the_rob() {
    use clear_core::ClearConfig;
    use clear_htm::HtmFlavor;
    use clear_machine::{Backend, SpeculationKind};
    // ~600 retired instructions per AR: exceeds the 352-entry ROB.
    let w = BigAr::new(200);
    let backend = Backend::Clear {
        clear: ClearConfig::default(),
        flavor: HtmFlavor::RequesterWins,
        speculation: SpeculationKind::InCore,
    };
    let mut cfg = backend.config(4, 3);
    cfg.seed = 5;
    let mut m = Machine::new(cfg, Box::new(w));
    let s = m.run();
    assert!(!s.timed_out);
    assert_eq!(s.commits(), 32);
    m.workload().validate(m.memory()).unwrap();
    // Every AR overflows the window: no speculative or CL commits at all.
    assert_eq!(
        s.commits_by_mode.speculative + s.commits_by_mode.nscl + s.commits_by_mode.scl,
        0,
        "oversized ARs cannot commit inside an in-core window: {:?}",
        s.commits_by_mode
    );
    assert_eq!(s.commits_by_mode.fallback, 32);
}

#[test]
fn htm_speculation_commits_the_same_ar_speculatively() {
    let w = BigAr::new(200);
    let mut cfg = Preset::C.config(4, 3);
    cfg.seed = 5;
    let mut m = Machine::new(cfg, Box::new(w));
    let s = m.run();
    assert!(s.commits_by_mode.fallback < 32, "HTM is not ROB-bounded");
    m.workload().validate(m.memory()).unwrap();
}

#[test]
fn in_core_small_ars_still_speculate() {
    let mut cfg = clear_machine::Backend::Sle.config(4, 4);
    cfg.seed = 2;
    let mut m = Machine::new(cfg, Box::new(PrivateCounters::new(30)));
    let s = m.run();
    assert_eq!(s.commits_by_mode.speculative, 120);
    assert_eq!(s.aborts.total(), 0);
    m.workload().validate(m.memory()).unwrap();
}

#[test]
fn trace_records_the_clear_protocol_sequence() {
    use clear_machine::TraceEvent;
    let mut cfg = Preset::C.config(4, 4);
    cfg.seed = 42;
    let mut m = Machine::new(cfg, Box::new(SharedCounter::new(40)));
    m.enable_tracing();
    let stats = m.run();
    assert!(stats.commits_by_mode.nscl > 0);

    assert!(!m.trace().is_empty());
    // Somewhere: a conflict leads to failed mode, then an NS-CL decision,
    // then locks, then an NS-CL commit.
    let has = |f: &dyn Fn(&TraceEvent) -> bool| m.trace().records().any(|r| f(&r.event));
    assert!(has(&|e| matches!(e, TraceEvent::ConflictReceived { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::EnterFailedMode)));
    assert!(has(&|e| matches!(
        e,
        TraceEvent::Decision {
            mode: clear_core::RetryMode::NsCl,
            immutable: true,
            ..
        }
    )));
    assert!(has(&|e| matches!(e, TraceEvent::LockAcquired { .. })));
    assert!(has(&|e| matches!(
        e,
        TraceEvent::Commit {
            mode: clear_core::RetryMode::NsCl,
            retries: 1
        }
    )));

    // Per-core ordering: a Decision for NS-CL is followed (eventually) by
    // an NS-CL AttemptStart on the same core.
    for core in 0..4 {
        let evs: Vec<_> = m.trace().core_events(core).collect();
        for (i, e) in evs.iter().enumerate() {
            if let TraceEvent::Decision {
                mode: clear_core::RetryMode::NsCl,
                ..
            } = e
            {
                assert!(
                    evs[i..].iter().any(|e2| matches!(
                        e2,
                        TraceEvent::AttemptStart {
                            mode: clear_core::RetryMode::NsCl
                        }
                    )),
                    "NS-CL decision without NS-CL attempt on core {core}"
                );
            }
        }
    }
}

#[test]
fn tracing_disabled_by_default_and_does_not_change_results() {
    let mut cfg = Preset::C.config(4, 4);
    cfg.seed = 42;
    let mut a = Machine::new(cfg.clone(), Box::new(SharedCounter::new(40)));
    let sa = a.run();
    assert!(a.trace().is_empty());

    let mut b = Machine::new(cfg, Box::new(SharedCounter::new(40)));
    b.enable_tracing();
    let sb = b.run();
    assert_eq!(
        sa.total_cycles, sb.total_cycles,
        "tracing must not perturb timing"
    );
    assert_eq!(sa.aborts.total(), sb.aborts.total());
}
