//! CLEAR hardware configuration.

/// Which read lines S-CL locks in addition to the write set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SclLockPolicy {
    /// Lock the write set plus reads recorded in the CRT (the paper's
    /// choice, §4.4.2: avoids requesting exclusivity for shared reads).
    WriteSetPlusCrt,
    /// Lock every accessed line (the "lock all" alternative discussed and
    /// rejected in §4.4.2; kept as an ablation).
    AllAccessed,
}

/// Sizes of the CLEAR structures (§5, Fig. 7 defaults; < 1 KiB per core).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClearConfig {
    /// ERT entries (paper: 16, fully associative).
    pub ert_entries: usize,
    /// ALT entries (paper: 32). Footprints above this are non-convertible.
    pub alt_entries: usize,
    /// CRT sets (paper: 8 sets × 8 ways = 64 entries).
    pub crt_sets: usize,
    /// CRT ways.
    pub crt_ways: usize,
    /// S-CL read-locking policy.
    pub scl_lock_policy: SclLockPolicy,
}

impl ClearConfig {
    /// The paper's sizes (the [`Default`]), usable in constants.
    pub const DEFAULT: ClearConfig = ClearConfig {
        ert_entries: 16,
        alt_entries: 32,
        crt_sets: 8,
        crt_ways: 8,
        scl_lock_policy: SclLockPolicy::WriteSetPlusCrt,
    };
}

impl Default for ClearConfig {
    fn default() -> Self {
        ClearConfig::DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ClearConfig::default();
        assert_eq!(c.ert_entries, 16);
        assert_eq!(c.alt_entries, 32);
        assert_eq!(c.crt_sets * c.crt_ways, 64);
        assert_eq!(c.scl_lock_policy, SclLockPolicy::WriteSetPlusCrt);
    }
}
