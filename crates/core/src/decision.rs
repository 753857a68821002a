//! The Fig. 2 decision tree: choosing the re-execution mode after an abort.

use crate::DiscoveryAssessment;
use std::fmt;

/// How an aborted AR re-executes (§4.3, in the paper's reverse-hierarchy
/// numbering).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RetryMode {
    /// 3 — Non-Speculative Cacheline-Locked execution: the footprint is
    /// immutable and simultaneously lockable; completion is guaranteed.
    NsCl,
    /// 2 — Speculative Cacheline-Locked execution: lockable but not
    /// guaranteed immutable; conflict detection stays armed.
    SCl,
    /// 1 — Plain speculative retry (baseline SLE/HTM behaviour).
    SpeculativeRetry,
    /// 0 — The fallback path (coarse-grain mutual exclusion). Chosen by the
    /// retry policy, not by discovery; included for reporting completeness.
    Fallback,
}

// Whether a mode's attempts are guaranteed to commit once started (the
// paper's single-retry bound) is a property of the *backend*, not of the
// mode name: NS-CL only carries the guarantee when CLEAR's discovery built
// it. Conformance oracles therefore ask
// `SpeculationBackend::guarantees_commit(mode)` in `clear-machine` instead
// of an enum check here.

impl fmt::Display for RetryMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RetryMode::NsCl => "NS-CL",
            RetryMode::SCl => "S-CL",
            RetryMode::SpeculativeRetry => "speculative",
            RetryMode::Fallback => "fallback",
        };
        f.write_str(s)
    }
}

/// Applies the decision tree of Fig. 2 to a discovery assessment:
///
/// 1. core structures overflowed → the AR is non-convertible → plain
///    speculative retry (the caller also clears the ERT Is-Convertible
///    bit);
/// 2. the address set cannot be simultaneously locked → speculative retry;
/// 3. indirections present → S-CL; otherwise → NS-CL.
///
/// This tree only runs when an attempt reaches a discovery decision. A
/// [`StaticPlan`](crate::StaticPlan) can override the path *before* that
/// point: a proved-immutable plan lets the machine choose NS-CL on the
/// first abort (or eagerly under contention) without any discovery run,
/// and a likely-immutable plan upgrades the S-CL outcome below to lock
/// the whole learned footprint once root-slot stability is confirmed.
/// The precedence is documented in DESIGN.md §8: static override first
/// (guarded at run time), then this dynamic tree as the general path.
///
/// # Examples
///
/// ```
/// use clear_core::{decide, DiscoveryAssessment, RetryMode};
///
/// // No static plan for this AR: the dynamic tree decides. Lockable but
/// // mutable (an indirection was observed) → S-CL.
/// let a = DiscoveryAssessment {
///     overflowed: false,
///     lockable: true,
///     immutable: false,
///     footprint: 0,
/// };
/// assert_eq!(decide(&a), RetryMode::SCl);
/// ```
pub fn decide(a: &DiscoveryAssessment) -> RetryMode {
    if a.overflowed || !a.lockable {
        RetryMode::SpeculativeRetry
    } else if a.immutable {
        RetryMode::NsCl
    } else {
        RetryMode::SCl
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assessment(overflowed: bool, lockable: bool, immutable: bool) -> DiscoveryAssessment {
        DiscoveryAssessment {
            overflowed,
            lockable,
            immutable,
            footprint: 0,
        }
    }

    #[test]
    fn immutable_lockable_is_nscl() {
        assert_eq!(decide(&assessment(false, true, true)), RetryMode::NsCl);
    }

    #[test]
    fn mutable_lockable_is_scl() {
        assert_eq!(decide(&assessment(false, true, false)), RetryMode::SCl);
    }

    #[test]
    fn unlockable_is_speculative() {
        assert_eq!(
            decide(&assessment(false, false, true)),
            RetryMode::SpeculativeRetry
        );
        assert_eq!(
            decide(&assessment(false, false, false)),
            RetryMode::SpeculativeRetry
        );
    }

    #[test]
    fn overflow_is_speculative() {
        assert_eq!(
            decide(&assessment(true, false, true)),
            RetryMode::SpeculativeRetry
        );
    }

    #[test]
    fn display_names_match_figures() {
        assert_eq!(RetryMode::NsCl.to_string(), "NS-CL");
        assert_eq!(RetryMode::SCl.to_string(), "S-CL");
        assert_eq!(RetryMode::SpeculativeRetry.to_string(), "speculative");
        assert_eq!(RetryMode::Fallback.to_string(), "fallback");
    }
}
