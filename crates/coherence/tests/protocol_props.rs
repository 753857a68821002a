//! Protocol-level property tests: for any sequence of reads, writes,
//! locks, unlocks and transactional clears, the MESI single-writer /
//! multiple-reader invariant and lock exclusivity must hold.
//!
//! Cases are generated by the in-tree [`SplitMix64`] PRNG from fixed
//! seeds, so every run explores the same deterministic input space.

use clear_coherence::{
    Access, CoherenceConfig, CoherenceSystem, CoreId, LockFail, RemoteImpact, ServedBy, TxTrack,
};
use clear_mem::rng::SplitMix64;
use clear_mem::LineAddr;
use std::collections::HashMap;

const CORES: usize = 4;
const LINES: u64 = 16;
const CASES: u64 = 64;

fn case_rng(test_seed: u64, case: u64) -> SplitMix64 {
    SplitMix64::new(test_seed ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

#[derive(Clone, Debug)]
enum Op {
    Read { core: usize, line: u64, tx: bool },
    Write { core: usize, line: u64, tx: bool },
    Lock { core: usize, line: u64 },
    UnlockAll { core: usize },
    ClearTx { core: usize },
}

fn gen_op(rng: &mut SplitMix64) -> Op {
    match rng.index(5) {
        0 => Op::Read {
            core: rng.index(CORES),
            line: rng.below(LINES),
            tx: rng.flip(),
        },
        1 => Op::Write {
            core: rng.index(CORES),
            line: rng.below(LINES),
            tx: rng.flip(),
        },
        2 => Op::Lock {
            core: rng.index(CORES),
            line: rng.below(LINES),
        },
        3 => Op::UnlockAll {
            core: rng.index(CORES),
        },
        _ => Op::ClearTx {
            core: rng.index(CORES),
        },
    }
}

fn gen_ops(rng: &mut SplitMix64, min: usize, max: usize) -> Vec<Op> {
    let len = min + rng.index(max - min);
    (0..len).map(|_| gen_op(rng)).collect()
}

/// Single-writer / multiple-reader: if any core holds a line exclusively,
/// no other core caches it; a locked line is held exclusively by its
/// locker.
fn check_invariants(sys: &CoherenceSystem) {
    for line in 0..LINES {
        let l = LineAddr(line);
        let exclusive: Vec<usize> = (0..CORES)
            .filter(|&c| sys.has_exclusive(CoreId(c), l))
            .collect();
        assert!(
            exclusive.len() <= 1,
            "line {line}: two exclusive holders {exclusive:?}"
        );
        if let Some(&owner) = exclusive.first() {
            for c in 0..CORES {
                if c != owner {
                    assert!(
                        !sys.is_cached(CoreId(c), l),
                        "line {line}: core {c} caches a line core {owner} holds exclusively"
                    );
                }
            }
        }
        if let Some(holder) = sys.locked_by(l) {
            assert!(
                sys.has_exclusive(holder, l),
                "line {line}: locked by {holder} without exclusive permission"
            );
        }
    }
}

fn apply_op(sys: &mut CoherenceSystem, op: &Op) {
    match *op {
        Op::Read { core, line, tx } => {
            let l = LineAddr(line);
            if sys.locked_by(l).map(|h| h != CoreId(core)).unwrap_or(false) {
                return; // policy layer would retry/NACK; never apply
            }
            let track = if tx { TxTrack::Read } else { TxTrack::None };
            match sys.apply(CoreId(core), l, Access::Read, track) {
                Ok(_) | Err(LockFail::Capacity) => {}
                Err(e) => panic!("unexpected {e}"),
            }
        }
        Op::Write { core, line, tx } => {
            let l = LineAddr(line);
            if sys.locked_by(l).map(|h| h != CoreId(core)).unwrap_or(false) {
                return;
            }
            let track = if tx { TxTrack::Write } else { TxTrack::None };
            match sys.apply(CoreId(core), l, Access::Write, track) {
                Ok(_) | Err(LockFail::Capacity) => {}
                Err(e) => panic!("unexpected {e}"),
            }
        }
        Op::Lock { core, line } => {
            let _ = sys.lock_line(CoreId(core), LineAddr(line), &mut Vec::new());
        }
        Op::UnlockAll { core } => {
            // The return value reports whether any lock was released.
            let held = sys.locked_count(CoreId(core)) > 0;
            assert_eq!(sys.unlock_all(CoreId(core)), held, "unlock_all result");
            assert_eq!(sys.locked_count(CoreId(core)), 0);
        }
        Op::ClearTx { core } => sys.clear_tx(CoreId(core)),
    }
}

#[test]
fn swmr_and_lock_exclusivity_hold() {
    for case in 0..CASES {
        let mut rng = case_rng(0x5432, case);
        let ops = gen_ops(&mut rng, 1, 300);
        let mut sys = CoherenceSystem::new(CoherenceConfig::small(CORES));
        for op in &ops {
            apply_op(&mut sys, op);
            check_invariants(&sys);
        }
    }
}

/// Locks are never silently dropped: after a successful lock and before
/// any unlock by that core, the line reports the right holder.
#[test]
fn lock_holder_is_stable() {
    for case in 0..CASES {
        let mut rng = case_rng(0x10cb, case);
        let pre = gen_ops(&mut rng, 0, 50);
        let line = rng.below(LINES);
        let post = gen_ops(&mut rng, 0, 50);

        let mut sys = CoherenceSystem::new(CoherenceConfig::small(CORES));
        for op in &pre {
            apply_op(&mut sys, op);
        }
        if sys
            .lock_line(CoreId(0), LineAddr(line), &mut Vec::new())
            .is_ok()
        {
            for op in &post {
                // Skip core 0's own unlocks to test stability.
                if matches!(op, Op::UnlockAll { core: 0 }) {
                    continue;
                }
                apply_op(&mut sys, op);
                assert_eq!(
                    sys.locked_by(LineAddr(line)),
                    Some(CoreId(0)),
                    "case {case}"
                );
            }
        }
    }
}

/// clear_tx leaves no transactional lines behind.
#[test]
fn clear_tx_is_complete() {
    for case in 0..CASES {
        let mut rng = case_rng(0xc1ea, case);
        let ops = gen_ops(&mut rng, 1, 100);
        let mut sys = CoherenceSystem::new(CoherenceConfig::small(CORES));
        for op in &ops {
            apply_op(&mut sys, op);
        }
        for c in 0..CORES {
            sys.clear_tx(CoreId(c));
            assert!(sys.tx_lines(CoreId(c)).is_empty(), "case {case} core {c}");
        }
    }
}

/// Probe never mutates: two identical probes agree, and an apply-free
/// sequence of probes leaves all inspection results unchanged.
#[test]
fn probe_is_pure() {
    for case in 0..CASES {
        let mut rng = case_rng(0x9085, case);
        let ops = gen_ops(&mut rng, 1, 60);
        let core = rng.index(CORES);
        let line = rng.below(LINES);

        let mut sys = CoherenceSystem::new(CoherenceConfig::small(CORES));
        for op in &ops {
            apply_op(&mut sys, op);
        }
        let l = LineAddr(line);
        let (mut i1, mut i2) = (Vec::new(), Vec::new());
        let p1 = sys.probe(CoreId(core), l, Access::Write, &mut i1);
        let p2 = sys.probe(CoreId(core), l, Access::Write, &mut i2);
        assert_eq!(p1.latency, p2.latency, "case {case}");
        assert_eq!(p1.locked_by_other, p2.locked_by_other, "case {case}");
        assert_eq!(i1, i2, "case {case}");
    }
}

/// The O(1) batch classifier query agrees with the full probe's verdict
/// for every core, line and access kind, after every operation.
#[test]
fn unlocked_l1_hit_matches_probe_verdict() {
    let mut hits = 0;
    let mut impacts = Vec::new();
    for case in 0..CASES {
        let mut rng = case_rng(0x11b1, case);
        let ops = gen_ops(&mut rng, 1, 200);
        let mut sys = CoherenceSystem::new(CoherenceConfig::small(CORES));
        for op in &ops {
            apply_op(&mut sys, op);
            for core in 0..CORES {
                for line in 0..LINES {
                    for access in [Access::Read, Access::Write] {
                        let (c, l) = (CoreId(core), LineAddr(line));
                        let p = sys.probe(c, l, access, &mut impacts);
                        let verdict = p.locked_by_other.is_none()
                            && p.served_by == ServedBy::L1
                            && impacts.is_empty();
                        assert_eq!(
                            sys.is_unlocked_l1_hit(c, l, access),
                            verdict,
                            "case {case}: {op:?} then {access:?} by core {core} of line {line}"
                        );
                        hits += u64::from(verdict);
                    }
                }
            }
        }
    }
    assert!(hits > 0, "the op sequences must produce local hits");
}

/// A reference model of the impacts an access has: every other core, in
/// ascending id order, scanned through the public inspection queries, with
/// the transactional bits of each copy tracked by the test itself.
struct ImpactModel {
    cores: usize,
    /// `(core, line)` → (tx_read, tx_write) of a currently cached copy.
    tx: HashMap<(usize, u64), (bool, bool)>,
}

impl ImpactModel {
    fn new(cores: usize) -> Self {
        ImpactModel {
            cores,
            tx: HashMap::new(),
        }
    }

    fn expected(
        &self,
        sys: &CoherenceSystem,
        core: usize,
        line: u64,
        access: Access,
    ) -> Vec<RemoteImpact> {
        let l = LineAddr(line);
        let hit = sys.is_cached(CoreId(core), l)
            && (access == Access::Read || sys.has_exclusive(CoreId(core), l));
        if hit {
            return Vec::new();
        }
        (0..self.cores)
            .filter(|&c| c != core && sys.is_cached(CoreId(c), l))
            .filter(|&c| access == Access::Write || sys.has_exclusive(CoreId(c), l))
            .map(|c| {
                let (tx_read, tx_write) = self.tx.get(&(c, line)).copied().unwrap_or_default();
                RemoteImpact {
                    line: l,
                    core: CoreId(c),
                    tx_read,
                    tx_write,
                    would_invalidate: access == Access::Write,
                }
            })
            .collect()
    }

    /// Tracks an applied access: invalidated copies lose their bits, and
    /// the requester's copy (fresh unless it was cached) gains `track`.
    fn applied(
        &mut self,
        core: usize,
        line: u64,
        impacts: &[RemoteImpact],
        was_cached: bool,
        track: TxTrack,
    ) {
        for i in impacts.iter().filter(|i| i.would_invalidate) {
            self.tx.remove(&(i.core.0, line));
        }
        let bits = self.tx.entry((core, line)).or_default();
        if !was_cached {
            *bits = (false, false);
        }
        match track {
            TxTrack::None => {}
            TxTrack::Read => bits.0 = true,
            TxTrack::Write => bits.1 = true,
        }
    }

    fn cleared(&mut self, core: usize) {
        self.tx.retain(|&(c, _), _| c != core);
    }
}

/// The caller-buffer impact API reports exactly the reference impacts, in
/// the same order, for probes, applies and lock acquisitions over random
/// op sequences — at 8 cores and at 128, where sharer sets outgrow the
/// inline bitset word.
#[test]
fn impacts_match_reference_collection() {
    // (cores, lines, cases, ops per case, per-mille of ops that are
    // accesses, then lock acquisitions, and writes per access 1-in-N): the
    // wide run writes rarely so sharer sets grow past 64 cores.
    for (cores, lines, cases, ops, access_pm, lock_pm, write_one_in) in [
        (8usize, 16u64, 48u64, 400, 750, 125, 3),
        (128, 6, 8, 1500, 980, 10, 200),
    ] {
        let mut compared = 0usize;
        let mut widest = 0usize;
        let mut impacts = Vec::new();
        for case in 0..cases {
            let mut rng = case_rng(0x1a9c ^ cores as u64, case);
            let mut sys = CoherenceSystem::new(CoherenceConfig::small(cores));
            let mut model = ImpactModel::new(cores);
            for _ in 0..ops {
                let core = rng.index(cores);
                let line = rng.below(lines);
                let l = LineAddr(line);
                let foreign_lock = sys.locked_by(l).is_some_and(|h| h != CoreId(core));
                let kind = rng.below(1000);
                if kind < access_pm {
                    let access = if rng.index(write_one_in) == 0 {
                        Access::Write
                    } else {
                        Access::Read
                    };
                    let expected = model.expected(&sys, core, line, access);
                    let p = sys.probe(CoreId(core), l, access, &mut impacts);
                    assert_eq!(impacts, expected, "{cores} cores, case {case}: probe");
                    compared += 1;
                    widest = widest.max(impacts.len());
                    if foreign_lock {
                        continue;
                    }
                    let track = match (access, rng.flip()) {
                        (_, false) => TxTrack::None,
                        (Access::Read, true) => TxTrack::Read,
                        (Access::Write, true) => TxTrack::Write,
                    };
                    let was_cached = sys.is_cached(CoreId(core), l);
                    let ok = sys
                        .apply_probed(CoreId(core), l, access, track, p, &impacts)
                        .is_ok();
                    // Remote copies are updated before the requester's
                    // install, so a capacity failure still stole them.
                    for i in impacts.iter().filter(|i| i.would_invalidate) {
                        assert!(!sys.is_cached(i.core, l), "{cores} cores, case {case}");
                    }
                    if ok {
                        model.applied(core, line, &impacts, was_cached, track);
                    } else {
                        model.applied(core, line, &impacts, true, TxTrack::None);
                        model.tx.remove(&(core, line));
                    }
                } else if kind < access_pm + lock_pm {
                    let expected = model.expected(&sys, core, line, Access::Write);
                    let was_cached = sys.is_cached(CoreId(core), l);
                    match sys.lock_line(CoreId(core), l, &mut impacts) {
                        Ok(_) => {
                            assert_eq!(impacts, expected, "{cores} cores, case {case}: lock");
                            compared += 1;
                            model.applied(core, line, &impacts, was_cached, TxTrack::None);
                        }
                        Err(LockFail::LockedBy(_)) => assert!(foreign_lock),
                        Err(LockFail::Capacity) => {
                            model.applied(core, line, &expected, true, TxTrack::None);
                            model.tx.remove(&(core, line));
                        }
                    }
                } else if rng.flip() {
                    sys.clear_tx(CoreId(core));
                    model.cleared(core);
                } else {
                    sys.unlock_all(CoreId(core));
                }
            }
        }
        assert!(compared > 1000, "{cores} cores: {compared} comparisons");
        if cores > 64 {
            assert!(widest > 64, "128 cores: widest impact list {widest}");
        }
    }
}
