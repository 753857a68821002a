//! Machine configuration and the four evaluated presets.

use clear_coherence::CoherenceConfig;
use clear_core::{ClearConfig, StaticPlanSet};
use clear_htm::{HtmFlavor, RetryPolicy};
use std::sync::Arc;

use crate::{Backend, EnergyConfig};

/// How far speculation can extend (§4.1 vs §4.2 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpeculationKind {
    /// Out-of-core speculation backed by HTM facilities: speculative state
    /// is tracked at the private cache, instructions retire inside the AR,
    /// and only the store queue bounds failed-mode discovery (§4.2).
    Htm,
    /// In-core speculation only (SLE-style, §4.1): the speculative window
    /// is delimited by the reorder buffer, so both ordinary speculative
    /// attempts and failed-mode discovery abort when the AR exceeds the
    /// ROB (or the SQ for stores). NS-CL is unaffected — it retires
    /// non-speculatively.
    InCore,
}

/// Fixed micro-architectural costs charged by the timing model (cycles).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimingConfig {
    /// Starting a speculative attempt (`XBegin`: checkpoint + RAS save).
    pub xbegin_cost: u64,
    /// Committing (`XEnd`: write-set publication).
    pub commit_cost: u64,
    /// Abort penalty (pipeline flush + checkpoint restore).
    pub abort_penalty: u64,
    /// Re-poll interval while spinning on the fallback lock or on a locked
    /// cacheline (the Fig. 6 retried-request interval).
    pub spin_interval: u64,
    /// Maximum random jitter added to the abort penalty (desynchronises
    /// convoys; deterministic via the run seed).
    pub backoff_jitter: u64,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            xbegin_cost: 5,
            commit_cost: 10,
            abort_penalty: 100,
            spin_interval: 15,
            backoff_jitter: 16,
        }
    }
}

/// Full configuration of a simulated machine run.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of cores/threads (the paper evaluates 32).
    pub cores: usize,
    /// Coherence substrate configuration.
    pub coherence: CoherenceConfig,
    /// The speculation policy (requester-wins TSX by default).
    pub backend: Backend,
    /// Bounded-retry policy before the fallback path.
    pub retry: RetryPolicy,
    /// Analyzer-emitted static plans (`clear_analysis::workload_plans`):
    /// proved-immutable ARs skip the discovery run on their first abort
    /// (or eagerly once contention was observed) and enter NS-CL with the
    /// plan's lock set; likely-immutable ARs take a shortened discovery
    /// that only confirms root-slot stability. `None` (the default, and
    /// every preset) runs pure dynamic discovery. Requires a
    /// [`Backend::Clear`]; ignored otherwise.
    pub static_plans: Option<Arc<StaticPlanSet>>,
    /// Reorder-buffer size in instructions (Table 2: 352). Bounds every
    /// speculative attempt under [`SpeculationKind::InCore`].
    pub rob_size: u64,
    /// Store-queue entries (Table 2: 72). Bounds failed-mode discovery.
    pub sq_size: u64,
    /// Safety cap on instructions per failed-mode discovery continuation
    /// (failed executions may observe torn data and loop; real hardware is
    /// bounded by physical queues).
    pub failed_instr_cap: u64,
    /// Safety cap on instructions per attempt (workload-bug guard).
    pub attempt_instr_cap: u64,
    /// Timing constants.
    pub timing: TimingConfig,
    /// Energy model coefficients.
    pub energy: EnergyConfig,
    /// Run seed (backoff jitter; workloads carry their own seeds).
    pub seed: u64,
    /// Hard stop after this many cycles on any core (deadlock guard).
    pub max_cycles: u64,
    /// Deterministic intra-run batch stepping: `1` (the default) steps
    /// cores strictly one at a time; `n ≥ 2` (or `0`, resolved to the
    /// host's core count) steps cores tied at the minimum clock whose
    /// next steps are provably local as one batch, on the calling
    /// thread. Results are byte-identical for every value — only the
    /// `par_batch_*` perf counters differ between `1` and `≥ 2`.
    pub sim_threads: usize,
}

impl MachineConfig {
    /// Table 2 baseline with the given core count.
    pub fn table2(cores: usize) -> Self {
        MachineConfig {
            cores,
            coherence: CoherenceConfig::table2(cores),
            backend: Backend::Tsx,
            retry: RetryPolicy::default(),
            static_plans: None,
            rob_size: 352,
            sq_size: 72,
            failed_instr_cap: 50_000,
            attempt_instr_cap: 2_000_000,
            timing: TimingConfig::default(),
            energy: EnergyConfig::default(),
            seed: 1,
            max_cycles: 2_000_000_000,
            sim_threads: 1,
        }
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::table2(32)
    }
}

/// The four configurations of the paper's figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Preset {
    /// **B** — requester-wins baseline.
    B,
    /// **P** — PowerTM.
    P,
    /// **C** — CLEAR over requester-wins.
    C,
    /// **W** — CLEAR over PowerTM.
    W,
}

impl Preset {
    /// All presets in figure order.
    pub const ALL: [Preset; 4] = [Preset::B, Preset::P, Preset::C, Preset::W];

    /// Single-letter label used in the figures.
    pub fn letter(self) -> char {
        match self {
            Preset::B => 'B',
            Preset::P => 'P',
            Preset::C => 'C',
            Preset::W => 'W',
        }
    }

    /// `true` if CLEAR is enabled.
    pub fn clear_enabled(self) -> bool {
        matches!(self, Preset::C | Preset::W)
    }

    /// The speculation backend this preset runs.
    pub fn backend(self) -> Backend {
        match self {
            Preset::B => Backend::Tsx,
            Preset::P => Backend::PowerTm,
            Preset::C => Backend::CLEAR,
            Preset::W => Backend::Clear {
                clear: ClearConfig::DEFAULT,
                flavor: HtmFlavor::PowerTm,
                speculation: SpeculationKind::Htm,
            },
        }
    }

    /// Builds a machine configuration for this preset.
    pub fn config(self, cores: usize, max_retries: u32) -> MachineConfig {
        self.backend().config(cores, max_retries)
    }
}

impl std::fmt::Display for Preset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.letter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_map_to_flavor_and_clear() {
        let flavor_and_clear = |p: Preset| match p.config(4, 5).backend {
            Backend::Tsx => (HtmFlavor::RequesterWins, false),
            Backend::PowerTm => (HtmFlavor::PowerTm, false),
            Backend::Clear {
                clear,
                flavor,
                speculation: SpeculationKind::Htm,
            } if clear == ClearConfig::default() => (flavor, true),
            other => panic!("{p} runs {other:?}"),
        };
        assert_eq!(
            flavor_and_clear(Preset::B),
            (HtmFlavor::RequesterWins, false)
        );
        assert_eq!(flavor_and_clear(Preset::P), (HtmFlavor::PowerTm, false));
        assert_eq!(
            flavor_and_clear(Preset::C),
            (HtmFlavor::RequesterWins, true)
        );
        assert_eq!(flavor_and_clear(Preset::W), (HtmFlavor::PowerTm, true));
        for p in Preset::ALL {
            assert_eq!(p.clear_enabled(), flavor_and_clear(p).1, "{p}");
        }
    }

    #[test]
    fn preset_letters() {
        let s: String = Preset::ALL.iter().map(|p| p.letter()).collect();
        assert_eq!(s, "BPCW");
    }

    #[test]
    fn table2_defaults() {
        let m = MachineConfig::default();
        assert_eq!(m.cores, 32);
        assert_eq!(m.sq_size, 72);
        assert_eq!(m.rob_size, 352);
        assert_eq!(m.backend, Backend::Tsx);
        assert_eq!(m.retry.max_retries, 5);
    }
}
