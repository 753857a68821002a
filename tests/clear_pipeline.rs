//! Integration tests of the CLEAR pipeline across crates: discovery →
//! decision → ordered locking through the coherence substrate.

use clear_coherence::{CoherenceConfig, CoherenceSystem, CoreId};
use clear_core::{decide, ClearConfig, Discovery, RetryMode};
use clear_mem::{lock_order, LineAddr};

#[test]
fn discovered_footprint_locks_deadlock_free_in_order() {
    let mut sys = CoherenceSystem::new(CoherenceConfig::table2(4));
    let dir = sys.dir_geometry();

    // Two cores discover overlapping footprints.
    let fp_a = [LineAddr(10), LineAddr(20), LineAddr(30)];
    let fp_b = [LineAddr(30), LineAddr(20), LineAddr(40)];

    let order_a: Vec<LineAddr> = lock_order(dir, &fp_a).into_iter().map(|(l, _)| l).collect();
    let order_b: Vec<LineAddr> = lock_order(dir, &fp_b).into_iter().map(|(l, _)| l).collect();

    // Interleave the two lock acquisitions with retries; lexicographical
    // order guarantees someone always makes progress.
    let (mut ia, mut ib) = (0, 0);
    let mut steps = 0;
    while ia < order_a.len() || ib < order_b.len() {
        steps += 1;
        assert!(steps < 1000, "livelock in ordered locking");
        if ia < order_a.len()
            && sys
                .lock_line(CoreId(0), order_a[ia], &mut Vec::new())
                .is_ok()
        {
            ia += 1;
            continue;
        }
        if ib < order_b.len()
            && sys
                .lock_line(CoreId(1), order_b[ib], &mut Vec::new())
                .is_ok()
        {
            ib += 1;
            continue;
        }
        // Whoever is blocked releases nothing (locks are held), but at
        // least one core must have been able to proceed above unless one
        // finished all its locks while the other waits on it.
        if ia == order_a.len() {
            sys.unlock_all(CoreId(0));
        }
        if ib == order_b.len() {
            sys.unlock_all(CoreId(1));
        }
    }
    sys.unlock_all(CoreId(0));
    sys.unlock_all(CoreId(1));
    assert_eq!(sys.locked_count(CoreId(0)), 0);
    assert_eq!(sys.locked_count(CoreId(1)), 0);
}

#[test]
fn discovery_feeds_decision_feeds_lock_list() {
    let cfg = ClearConfig::default();
    let sys = CoherenceSystem::new(CoherenceConfig::table2(2));
    let mut d = Discovery::new(&cfg, sys.dir_geometry());

    // An AR writing two lines and reading one, all direct.
    d.on_access(LineAddr(100), true, false);
    d.on_access(LineAddr(7), false, false);
    d.on_access(LineAddr(55), true, false);
    let a = d.assess(|fp| sys.fits_locked(fp));
    assert_eq!(decide(&a), RetryMode::NsCl);

    let mut alt = d.swap_alt(None);
    alt.mark_all_needs_locking();
    let list = alt.lock_list();
    assert_eq!(list.len(), 3);
    // Lock list is in lexicographical (directory-set) order.
    let dir = sys.dir_geometry();
    let keys: Vec<_> = list
        .iter()
        .map(|&l| clear_mem::LexKey::new(dir, l))
        .collect();
    assert!(keys.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn oversized_footprint_is_never_convertible() {
    let cfg = ClearConfig::default();
    let sys = CoherenceSystem::new(CoherenceConfig::table2(2));
    let mut d = Discovery::new(&cfg, sys.dir_geometry());
    for i in 0..40u64 {
        d.on_access(LineAddr(i), false, false);
    }
    let a = d.assess(|fp| sys.fits_locked(fp));
    assert!(a.overflowed, "40 lines exceed the 32-entry ALT");
    assert_eq!(decide(&a), RetryMode::SpeculativeRetry);
}

#[test]
fn same_set_heavy_footprint_fails_the_l1_fit_check() {
    // 13 lines in the same L1 set exceed 12-way associativity.
    let sys = CoherenceSystem::new(CoherenceConfig::table2(2));
    let sets = 64u64; // Table 2 L1
    let lines: Vec<LineAddr> = (0..13).map(|i| LineAddr(5 + i * sets)).collect();
    assert!(!sys.fits_locked(&lines));

    let cfg = ClearConfig::default();
    let mut d = Discovery::new(&cfg, sys.dir_geometry());
    for &l in &lines {
        d.on_access(l, true, false);
    }
    let a = d.assess(|fp| sys.fits_locked(fp));
    assert!(!a.lockable);
    assert_eq!(decide(&a), RetryMode::SpeculativeRetry);
}

#[test]
fn nack_breaks_the_fig5_cycle() {
    // Fig. 5: core 0 holds b locked and wants a; core 1 holds a locked and
    // wants b. Non-locking loads get NACKed (probe reports the lock holder)
    // instead of waiting forever.
    let mut sys = CoherenceSystem::new(CoherenceConfig::table2(2));
    let (a, b) = (LineAddr(1), LineAddr(2));
    sys.lock_line(CoreId(0), b, &mut Vec::new()).unwrap();
    sys.lock_line(CoreId(1), a, &mut Vec::new()).unwrap();

    let p0 = sys.probe(CoreId(0), a, clear_coherence::Access::Read, &mut Vec::new());
    let p1 = sys.probe(CoreId(1), b, clear_coherence::Access::Read, &mut Vec::new());
    assert_eq!(p0.locked_by_other, Some(CoreId(1)));
    assert_eq!(p1.locked_by_other, Some(CoreId(0)));
    // The policy layer NACKs these loads; the aborting core releases its
    // locks, letting the other proceed.
    sys.unlock_all(CoreId(0));
    assert!(sys
        .probe(CoreId(1), b, clear_coherence::Access::Read, &mut Vec::new())
        .locked_by_other
        .is_none());
}
