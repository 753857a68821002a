//! Drive CLEAR's discovery machinery directly (no machine, no workload):
//! feed accesses to a [`clear_core::Discovery`], watch the Fig. 2 decision
//! tree pick a retry mode, and print the resulting ALT lock order.
//!
//! ```text
//! cargo run --example discovery_trace
//! ```

use clear_core::{decide, ClearConfig, Discovery, RetryMode};
use clear_mem::{lock_order, CacheGeometry, LineAddr};

fn assess(label: &str, feed: impl FnOnce(&mut Discovery)) {
    let dir = CacheGeometry::new(8, 16);
    let mut d = Discovery::new(&ClearConfig::default(), dir);
    feed(&mut d);
    let a = d.assess(|lines| lines.len() <= 12);
    let mode = decide(&a);
    println!("{label}:");
    let footprint = d.alt().footprint();
    println!("  footprint = {footprint:?}");
    println!(
        "  overflowed={} lockable={} immutable={}",
        a.overflowed, a.lockable, a.immutable
    );
    println!("  decision  = {mode}");
    if mode == RetryMode::NsCl || mode == RetryMode::SCl {
        let order = lock_order(dir, &footprint);
        println!("  lock order (line, last-of-group) = {order:?}");
    }
    println!();
}

fn main() {
    // Listing 1 (arrayswap): two direct accesses, no indirection -> NS-CL.
    assess("arrayswap-like AR (immutable)", |d| {
        d.on_access(LineAddr(0x10), true, false);
        d.on_access(LineAddr(0x24), true, false);
    });

    // Listing 2 (bitcoin): addresses derived from a loaded pointer -> S-CL.
    assess("bitcoin-like AR (indirection)", |d| {
        d.on_access(LineAddr(0x8), false, false); // load users pointer
        d.on_access(LineAddr(0x40), true, true); // users[from], indirect
        d.on_access(LineAddr(0x48), true, true); // users[to], indirect
    });

    // Listing 3 (sorted-list): pointer chase with dependent branches -> S-CL,
    // and with a large footprint -> speculative retry.
    assess("sorted-list-like AR (mutable, large)", |d| {
        for i in 0..40u64 {
            d.on_access(LineAddr(0x100 + i), false, i > 0);
            d.on_branch(true);
        }
        d.on_access(LineAddr(0x200), true, true);
    });

    // Same-directory-set footprint: lexicographical conflict group.
    assess("group-locking AR (same directory set)", |d| {
        d.on_access(LineAddr(0x11), true, false);
        d.on_access(LineAddr(0x19), true, false); // same set of an 8-set directory
        d.on_access(LineAddr(0x21), true, false);
    });
}
