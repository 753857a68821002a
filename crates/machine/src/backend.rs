//! Speculation backends: the attempt/conflict/fallback policy surface of
//! the machine as a trait, and [`Backend`], the built-in design points.
//!
//! The machine's mechanism — coherence, scheduling, batching, workloads,
//! statistics — is shared by every HTM design point; what differs between
//! CLEAR, requester-wins TSX, PowerTM, SLE, a-priori locking and the FORTH
//! limited read/write-set scheme is *policy*: how conflicts are
//! arbitrated, when an AR gives up and takes the fallback path, whether
//! cacheline-locked re-execution (CLEAR) is available, how far speculation
//! may extend, and which structural bounds raise capacity aborts.
//! [`SpeculationBackend`] captures exactly that surface.
//!
//! [`MachineConfig::backend`] selects one [`Backend`], which
//! [`Machine::new`](crate::Machine::new) runs;
//! [`Machine::with_backend`](crate::Machine::with_backend) accepts any
//! other implementation of the trait, such as a test's fault-injecting
//! one.

use crate::{MachineConfig, SpeculationKind};
use clear_core::{ClearConfig, RetryMode};
use clear_htm::{resolve_conflict, HtmFlavor, LrwsConfig, Resolution, RetryPolicy, TxInfo};

/// The policy surface of one speculation design point.
///
/// Implementations must be deterministic pure functions of their inputs:
/// the machine calls these on the hot path and replays must be
/// byte-identical. The default methods encode the common best-effort-HTM
/// behaviour; backends override only where they differ.
pub trait SpeculationBackend: std::fmt::Debug + Send + Sync {
    /// Short stable name (report keys, trace phases, CLI selection).
    fn name(&self) -> &'static str;

    /// CLEAR configuration when cacheline-locked re-execution (NS-CL/S-CL
    /// discovery, ERT/ALT/CRT) is part of this backend; `None` disables
    /// the whole CLEAR path.
    fn clear(&self) -> Option<&ClearConfig> {
        None
    }

    /// How far speculation extends: HTM-backed (cache-tracked) or in-core
    /// only (ROB/SQ-delimited, SLE-style).
    fn speculation(&self) -> SpeculationKind {
        SpeculationKind::Htm
    }

    /// Arbitrates a transactional conflict between `requester` and the
    /// conflicting `victims`.
    fn resolve(&self, requester: TxInfo, victims: &[TxInfo]) -> Resolution;

    /// `true` when a once-aborted transaction competes for the global
    /// PowerTM power token on its retry.
    fn acquires_power_token(&self) -> bool {
        false
    }

    /// `true` when an AR with `counted_retries` failed attempts must take
    /// the fallback path instead of retrying speculatively.
    fn must_fall_back(&self, policy: &RetryPolicy, counted_retries: u32) -> bool {
        policy.must_fall_back(counted_retries)
    }

    /// `true` for re-execution modes whose attempts cannot abort once
    /// started — the paper's single-retry bound. Only CLEAR's NS-CL mode
    /// makes that promise (every footprint line is held locked and the
    /// body retires non-speculatively); best-effort backends guarantee
    /// nothing, so conformance oracles scanning for a violated bound get
    /// an honest `false` instead of a CLEAR-specific enum check that
    /// silently passes.
    fn guarantees_commit(&self, mode: RetryMode) -> bool {
        self.clear().is_some() && mode == RetryMode::NsCl
    }

    /// Read/write-set capacity bounds when this backend tracks
    /// speculative footprints in limited dedicated buffers (the FORTH
    /// scheme); `None` leaves footprint tracking to the cache hierarchy.
    fn rw_limits(&self) -> Option<LrwsConfig> {
        None
    }

    /// `true` when ARs whose invocation declares a `static_footprint` lock
    /// it up front and run NS-CL from their first attempt (the a-priori
    /// locking comparator of §2.2).
    fn locks_declared_footprints(&self) -> bool {
        false
    }
}

/// The built-in speculation policies, one per evaluated design point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Intel-TSX-like requester-wins best-effort HTM (preset **B**).
    Tsx,
    /// PowerTM: requester-wins plus a single global power token whose
    /// holder wins every conflict (preset **P**).
    PowerTm,
    /// SLE-style in-core speculation: the reorder buffer delimits every
    /// speculative window (§4.1); conflicts resolve requester-wins.
    Sle,
    /// The FORTH limited read/write-set HTM: speculative footprints live in
    /// two small dedicated per-core buffers (the [`LrwsConfig`] default
    /// bounds); overflowing either raises a capacity abort. Conflicts
    /// resolve requester-wins over the unmodified protocol.
    Lrws,
    /// A-priori cacheline locking (the MCAS \[33\] / MAD-atomics \[16\]
    /// comparator of §2.2) over requester-wins TSX: ARs whose invocation
    /// carries a `static_footprint` lock it up front and execute
    /// non-speculatively from the *first* attempt — no discovery, but also
    /// no speculation in low-contention phases, and exclusivity is
    /// requested even for read-only lines. ARs without a static footprint
    /// run the baseline.
    APriori,
    /// CLEAR over a best-effort substrate: single-retry bounding via
    /// discovery and cacheline-locked re-execution (presets **C**/**W**,
    /// and CLEAR-SLE when `speculation` is in-core).
    Clear {
        /// CLEAR structure sizes and policies.
        clear: ClearConfig,
        /// The substrate HTM flavour (requester-wins for C, PowerTM for W).
        flavor: HtmFlavor,
        /// The substrate speculation kind (HTM-backed or in-core).
        speculation: SpeculationKind,
    },
}

impl Backend {
    /// CLEAR with the paper's structure sizes over requester-wins HTM
    /// (preset **C**).
    pub const CLEAR: Backend = Backend::Clear {
        clear: ClearConfig::DEFAULT,
        flavor: HtmFlavor::RequesterWins,
        speculation: SpeculationKind::Htm,
    };

    /// The backends swept by backend-axis experiments, in shootout column
    /// order.
    pub const ALL: [Backend; 5] = [
        Backend::Tsx,
        Backend::PowerTm,
        Backend::Sle,
        Backend::CLEAR,
        Backend::Lrws,
    ];

    /// Resolves a name of one of [`Backend::ALL`] back to its backend.
    pub fn from_name(name: &str) -> Option<Self> {
        Backend::ALL.into_iter().find(|b| b.name() == name)
    }

    /// Builds the Table 2 machine configuration running this backend.
    pub fn config(self, cores: usize, max_retries: u32) -> MachineConfig {
        MachineConfig {
            backend: self,
            retry: RetryPolicy::new(max_retries),
            ..MachineConfig::table2(cores)
        }
    }

    fn flavor(&self) -> HtmFlavor {
        match self {
            Backend::PowerTm => HtmFlavor::PowerTm,
            Backend::Clear { flavor, .. } => *flavor,
            _ => HtmFlavor::RequesterWins,
        }
    }
}

impl SpeculationBackend for Backend {
    fn name(&self) -> &'static str {
        match self {
            Backend::Tsx => "tsx",
            Backend::PowerTm => "powertm",
            Backend::Sle => "sle",
            Backend::Lrws => "lrws",
            Backend::APriori => "apriori",
            Backend::Clear { .. } => "clear",
        }
    }

    fn clear(&self) -> Option<&ClearConfig> {
        match self {
            Backend::Clear { clear, .. } => Some(clear),
            _ => None,
        }
    }

    fn speculation(&self) -> SpeculationKind {
        match self {
            Backend::Sle => SpeculationKind::InCore,
            Backend::Clear { speculation, .. } => *speculation,
            _ => SpeculationKind::Htm,
        }
    }

    fn resolve(&self, requester: TxInfo, victims: &[TxInfo]) -> Resolution {
        resolve_conflict(self.flavor(), requester, victims)
    }

    fn acquires_power_token(&self) -> bool {
        self.flavor() == HtmFlavor::PowerTm
    }

    fn rw_limits(&self) -> Option<LrwsConfig> {
        matches!(self, Backend::Lrws).then(LrwsConfig::default)
    }

    fn locks_declared_footprints(&self) -> bool {
        matches!(self, Backend::APriori)
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Preset;

    #[test]
    fn presets_map_to_the_expected_backends() {
        let b = Preset::B.backend();
        assert_eq!(b.name(), "tsx");
        assert!(!b.acquires_power_token());
        let p = Preset::P.backend();
        assert_eq!(p.name(), "powertm");
        assert!(p.acquires_power_token());
        let c = Preset::C.backend();
        assert_eq!(c.name(), "clear");
        assert!(c.clear().is_some());
        let w = Preset::W.backend();
        assert_eq!(w.name(), "clear");
        assert!(w.acquires_power_token());
    }

    #[test]
    fn sle_lrws_and_apriori_answer_their_axes() {
        assert_eq!(Backend::Sle.speculation(), SpeculationKind::InCore);
        assert!(!Backend::Sle.acquires_power_token());
        assert_eq!(Backend::Lrws.rw_limits(), Some(LrwsConfig::default()));
        assert!(Backend::Lrws.clear().is_none());
        assert!(Backend::APriori.locks_declared_footprints());
        for b in Backend::ALL {
            assert!(!b.locks_declared_footprints(), "{b}");
        }
    }

    #[test]
    fn clear_sle_combination_keeps_both_axes() {
        let b = Backend::Clear {
            clear: ClearConfig::default(),
            flavor: HtmFlavor::RequesterWins,
            speculation: SpeculationKind::InCore,
        };
        assert_eq!(b.name(), "clear");
        assert_eq!(b.speculation(), SpeculationKind::InCore);
    }

    #[test]
    fn only_clear_guarantees_nscl_commits() {
        let clear = Backend::CLEAR;
        assert!(clear.guarantees_commit(RetryMode::NsCl));
        assert!(!clear.guarantees_commit(RetryMode::SCl));
        assert!(!clear.guarantees_commit(RetryMode::Fallback));
        for b in [
            Backend::Tsx,
            Backend::PowerTm,
            Backend::Sle,
            Backend::Lrws,
            Backend::APriori,
        ] {
            assert!(
                !b.guarantees_commit(RetryMode::NsCl),
                "{b} claims a bound it cannot enforce"
            );
        }
    }

    #[test]
    fn backend_resolution_matches_the_flavor_policy() {
        use clear_coherence::CoreId;
        let plain = |core| TxInfo {
            core: CoreId(core),
            power: false,
            scl: false,
        };
        let mut power_victim = plain(1);
        power_victim.power = true;
        // Requester-wins backends ignore the power bit.
        for b in [
            Backend::Tsx,
            Backend::Sle,
            Backend::Lrws,
            Backend::APriori,
            Backend::CLEAR,
        ] {
            assert_eq!(
                b.resolve(plain(0), &[power_victim]),
                Resolution::AbortVictims,
                "{b}"
            );
        }
        assert_eq!(
            Backend::PowerTm.resolve(plain(0), &[power_victim]),
            Resolution::NackRequester
        );
    }

    #[test]
    fn backends_round_trip_names_and_configs() {
        for b in Backend::ALL {
            assert_eq!(Backend::from_name(b.name()), Some(b));
            assert_eq!(b.to_string(), b.name());
            let cfg = b.config(8, 3);
            assert_eq!(cfg.cores, 8);
            assert_eq!(cfg.retry.max_retries, 3);
            assert_eq!(cfg.backend, b);
        }
        assert_eq!(Backend::from_name("apriori"), None);
        assert_eq!(Backend::from_name("no-such"), None);
    }
}
