//! The benchmark's timer: a cheap tick counter, converted to nanoseconds
//! with a rate measured against `std::time::Instant` over the whole run.
//!
//! On x86-64 a tick is one time-stamp-counter cycle (`rdtsc`), about half
//! the cost of an `Instant::now()` pair. Elsewhere a tick is a nanosecond
//! read from `Instant`. Tick differences are taken with `saturating_sub`,
//! so a thread moving between CPUs can never produce a negative time.

use std::sync::OnceLock;
use std::time::Instant;

fn epoch() -> &'static (Instant, u64) {
    static EPOCH: OnceLock<(Instant, u64)> = OnceLock::new();
    EPOCH.get_or_init(|| (Instant::now(), raw_ticks()))
}

#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn raw_ticks() -> u64 {
    // SAFETY: `rdtsc` has no memory effects and exists on every x86-64 CPU.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn raw_ticks() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Starts the calibration interval. Call once before any timing.
pub fn start() {
    epoch();
}

/// The current tick count.
#[inline(always)]
pub fn now() -> u64 {
    raw_ticks()
}

/// Ticks per nanosecond, measured from [`start`] until this call. The
/// longer the interval, the finer the estimate, so call it at the end of
/// the run.
pub fn ticks_per_ns() -> f64 {
    let (t0, c0) = *epoch();
    let ns = t0.elapsed().as_nanos() as f64;
    let ticks = raw_ticks().saturating_sub(c0) as f64;
    if ns > 0.0 && ticks > 0.0 {
        ticks / ns
    } else {
        1.0
    }
}
