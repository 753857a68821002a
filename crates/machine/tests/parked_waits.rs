//! Exactness of parked lock waits: a core whose step is a failed lock poll
//! leaves the scheduler and is charged its polls in closed form when a
//! release wakes it. Every simulated counter — `steps`, `sched_updates`,
//! `allocs_avoided` and the `par_batch_*` counters included — and the
//! final memory must equal what per-poll stepping produced.
//!
//! `data/parked_waits.txt` pins, per cell, a hash of the final memory
//! words and the full `RunStats` Debug rendering (wall time zeroed), as
//! produced by the run loop that stepped every poll. Regenerate it only
//! when a change is *meant* to move simulated results, and say why.

use clear_core::ClearConfig;
use clear_htm::HtmFlavor;
use clear_machine::{Backend, Machine, MachineConfig, Preset, RunStats, SpeculationKind};
use clear_workloads::{by_name, Size};

/// One pinned run.
struct Cell {
    bench: &'static str,
    size: Size,
    cores: usize,
    /// The label's policy column: a preset letter, or a name for a policy
    /// outside the four presets.
    policy: String,
    backend: Backend,
    sim_threads: usize,
    /// Overrides the configuration's `max_cycles` safety stop.
    max_cycles: Option<u64>,
}

impl Cell {
    fn label(&self) -> String {
        let mut s = format!(
            "{}/{:?}/{}c/{}/t{}",
            self.bench, self.size, self.cores, self.policy, self.sim_threads
        );
        if let Some(m) = self.max_cycles {
            s.push_str(&format!("/max{m}"));
        }
        s
    }

    fn config(&self) -> MachineConfig {
        let mut cfg = self.backend.config(self.cores, 5);
        cfg.seed = 1;
        cfg.sim_threads = self.sim_threads;
        if let Some(m) = self.max_cycles {
            cfg.max_cycles = m;
        }
        cfg
    }

    /// `true` when the cell runs one of the four presets.
    fn is_preset(&self) -> bool {
        Preset::ALL.iter().any(|p| p.backend() == self.backend)
    }

    /// Runs the cell: `(memory hash, RunStats Debug with wall time
    /// zeroed)`, and the machine for further queries.
    fn run(&self) -> (u64, String, Machine) {
        let w = by_name(self.bench, self.size, 1).expect("known benchmark");
        let mut m = Machine::new(self.config(), w);
        let mut stats: RunStats = m.run();
        stats.perf.run_wall_ns = 0;
        (fnv1a(m.memory().words()), format!("{stats:?}"), m)
    }
}

/// FNV-1a over the little-endian bytes of every memory word.
fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn cells() -> Vec<Cell> {
    let mut v = Vec::new();
    for cores in [64, 128] {
        for preset in Preset::ALL {
            for sim_threads in [1, 2] {
                v.push(Cell {
                    bench: "genome",
                    size: Size::Tiny,
                    cores,
                    policy: preset.to_string(),
                    backend: preset.backend(),
                    sim_threads,
                    max_cycles: None,
                });
            }
        }
    }
    for bench in ["labyrinth", "sorted-list"] {
        v.push(Cell {
            bench,
            size: Size::Small,
            cores: 32,
            policy: "C".to_string(),
            backend: Preset::C.backend(),
            sim_threads: 1,
            max_cycles: None,
        });
    }
    v.push(Cell {
        bench: "queue",
        size: Size::Small,
        cores: 8,
        policy: "C".to_string(),
        backend: Preset::C.backend(),
        sim_threads: 1,
        max_cycles: None,
    });
    // Stops mid-run while most cores queue on the fallback lock: the
    // parked waiters must end on the clocks and wait counters per-poll
    // stepping left them with.
    v.push(Cell {
        bench: "labyrinth",
        size: Size::Small,
        cores: 32,
        policy: "C".to_string(),
        backend: Preset::C.backend(),
        sim_threads: 1,
        max_cycles: Some(TIMEOUT_CYCLES),
    });
    // Policies outside the four presets, which no golden pins.
    for bench in ["arrayswap", "mwobject"] {
        v.push(Cell {
            bench,
            size: Size::Small,
            cores: 8,
            policy: "apriori".to_string(),
            backend: Backend::APriori,
            sim_threads: 1,
            max_cycles: None,
        });
    }
    let clear_incore = Backend::Clear {
        clear: ClearConfig::default(),
        flavor: HtmFlavor::RequesterWins,
        speculation: SpeculationKind::InCore,
    };
    let others = [
        ("clear-incore", clear_incore),
        ("sle", Backend::Sle),
        ("lrws", Backend::Lrws),
    ];
    // genome fits both the ROB and the R/W-set buffers; sorted-list's
    // traversals overflow them, so its cells differ from B and C.
    for (bench, size, cores) in [("genome", Size::Small, 32), ("sorted-list", Size::Small, 8)] {
        for (policy, backend) in others {
            v.push(Cell {
                bench,
                size,
                cores,
                policy: policy.to_string(),
                backend,
                sim_threads: 1,
                max_cycles: None,
            });
        }
    }
    // A 256-core genome herd: write releases wake hundreds of fallback
    // waiters at once, and the next writer re-parks the rest in bulk.
    for sim_threads in [1, 2] {
        v.push(Cell {
            bench: "genome",
            size: Size::Tiny,
            cores: 256,
            policy: "C".to_string(),
            backend: Preset::C.backend(),
            sim_threads,
            max_cycles: None,
        });
    }
    v
}

/// The safety stop of the timed-out cell.
const TIMEOUT_CYCLES: u64 = 40_000;

/// The pinned `(memory hash, stats)` of `label`.
fn pinned(label: &str) -> (u64, &'static str) {
    let data = include_str!("data/parked_waits.txt");
    for line in data.lines() {
        let mut parts = line.splitn(3, '\t');
        if parts.next() == Some(label) {
            let hash = parts.next().expect("hash column");
            let stats = parts.next().expect("stats column");
            let hash = u64::from_str_radix(hash, 16).expect("hex hash");
            return (hash, stats);
        }
    }
    panic!("no pin for {label}");
}

/// Runs `cell`, asserts it matches its pin, and returns the machine.
fn check_cell(cell: &Cell) -> Machine {
    let label = cell.label();
    let (hash, stats, m) = cell.run();
    let (want_hash, want_stats) = pinned(&label);
    assert_eq!(stats, want_stats, "{label}: RunStats drifted");
    assert_eq!(hash, want_hash, "{label}: final memory drifted");
    m
}

fn check(cells: impl Iterator<Item = Cell>) {
    for cell in cells {
        check_cell(&cell);
    }
}

#[test]
fn genome_at_64_cores_matches_per_poll_stepping() {
    check(cells().into_iter().filter(|c| c.cores == 64));
}

#[test]
fn genome_at_128_cores_matches_per_poll_stepping() {
    check(cells().into_iter().filter(|c| c.cores == 128));
}

#[test]
fn genome_herd_at_256_cores_is_reparked_and_matches_per_poll_stepping() {
    for cell in cells().into_iter().filter(|c| c.cores == 256) {
        let _m = check_cell(&cell);
        // The re-park counter exists in debug builds only.
        #[cfg(debug_assertions)]
        assert!(
            _m.herd_reparks() > 0,
            "{}: the herd re-park path must run",
            cell.label()
        );
    }
}

#[test]
fn contended_small_cells_match_per_poll_stepping() {
    check(
        cells()
            .into_iter()
            .filter(|c| c.bench != "genome" && c.max_cycles.is_none() && c.is_preset()),
    );
}

#[test]
fn policies_outside_the_presets_keep_their_pins() {
    check(cells().into_iter().filter(|c| !c.is_preset()));
}

#[test]
fn timed_out_run_ends_on_per_poll_clocks() {
    let cell = cells()
        .into_iter()
        .find(|c| c.max_cycles.is_some())
        .expect("timeout cell");
    let (_, stats, _) = cell.run();
    assert!(stats.contains("timed_out: true"), "the cell must time out");
    assert!(
        !stats.contains("fallback_wait_cycles: 0,"),
        "the cell must stop while cores wait on the fallback lock"
    );
    check(std::iter::once(cell));
}
