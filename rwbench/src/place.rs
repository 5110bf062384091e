//! Gives every window's shared objects fresh memory addresses.
//!
//! How long a cache line takes to move between two cores depends on its
//! physical address. A lock freed and rebuilt for the next window would
//! land at the same address, so every window of a process would share
//! one placement, and runs would differ by where their process happened
//! to put the lock. Placing each object after a spacer of varying size,
//! and never freeing it, lets every run average over many placements.

use oll_util::XorShift64;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static SEED: AtomicU64 = AtomicU64::new(0);
static PLACED: AtomicU64 = AtomicU64::new(0);

/// Seeds the spacer sizes.
pub fn seed(seed: u64) {
    SEED.store(seed, Relaxed);
}

/// Moves `value` to a fresh heap address, between 0 and 63 cache lines
/// past the previous allocation, and keeps it there for the rest of the
/// process.
pub fn place<T>(value: T) -> &'static mut T {
    let n = PLACED.fetch_add(1, Relaxed) as usize;
    let lines = XorShift64::for_thread(SEED.load(Relaxed), n).next_below(64) as usize;
    Box::leak(vec![0u8; 64 * lines + 1].into_boxed_slice());
    Box::leak(Box::new(value))
}
