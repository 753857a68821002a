//! Simulated memory substrate for the CLEAR reproduction.
//!
//! This crate provides the ground-level types every other crate builds on:
//!
//! * [`Addr`] / [`LineAddr`] — byte- and cacheline-granular addresses;
//! * [`CacheGeometry`] and [`SetAssocCache`] — a generic set-associative
//!   tag store with LRU replacement, used both for the private-cache model
//!   and for CLEAR's "can the footprint be held simultaneously?" check;
//! * [`Memory`] — the flat simulated shared memory (word addressed) with a
//!   simple line-aligned bump allocator;
//! * [`LexKey`] — the deadlock-free lexicographical lock ordering key used
//!   when locking cachelines (ordered by directory set index, then line
//!   address), following §5 of the paper and MAD atomics \[16\];
//! * [`hash`] — a deterministic Fx-style hasher ([`FxHashMap`] /
//!   [`FxHashSet`]) and [`LineSet`], a small-inline cacheline set, both
//!   built for the simulator's hot paths.
//!
//! # Examples
//!
//! ```
//! use clear_mem::{Addr, Memory};
//!
//! let mut mem = Memory::new();
//! let base = mem.alloc_words(8);
//! mem.store_word(base, 42);
//! assert_eq!(mem.load_word(base), 42);
//! assert_eq!(base.line(), Addr(base.0 + 8).line());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod cache;
mod corebitset;
mod geometry;
pub mod hash;
mod lex;
mod lineset;
mod memory;
pub mod rng;

pub use addr::{Addr, LineAddr, LINE_BYTES, WORD_BYTES};
pub use cache::{EvictionOutcome, PinnedSetFull, SetAssocCache};
pub use corebitset::{CoreBitIter, CoreBitSet};
pub use geometry::CacheGeometry;
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use lex::{lock_order, LexKey};
pub use lineset::{LineBitSet, LineSet};
pub use memory::Memory;
