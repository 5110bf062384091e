//! Worker loops: what one thread does in a window, for each layer.
//!
//! Every loop loads the phase before each operation and leaves on
//! [`STOP`]. Timed calls are bracketed by two clock reads, so each
//! recorded time includes the cost of one read (see `timer_ns`).

use crate::clock;
use crate::window::{Ctx, Tally, COUNT, STOP, WAITS};
use oll_core::RwHandle;
use oll_csnzi::{ArrivalPolicy, CSnzi, LeafCursor};
use std::sync::atomic::{AtomicU64, Ordering};

/// One read in this many is timed in the wait-timing phase; every write
/// is.
pub const READ_SAMPLE: u64 = 8;

/// Span slots of [`lock_loop`].
pub const LOCK_READ: usize = 0;
pub const UNLOCK_READ: usize = 1;
pub const LOCK_WRITE: usize = 2;
pub const UNLOCK_WRITE: usize = 3;

/// Closed-loop acquire/release through a lock handle. With `TRACED`,
/// every call is timed in the counted phase; otherwise the wait-timing
/// phase (if the plan has one) times `lock_write` calls and a sample of
/// `lock_read` calls.
#[inline(never)]
pub fn lock_loop<H: RwHandle, const TRACED: bool>(h: &mut H, ctx: &Ctx, mut t: Tally) -> Tally {
    let rec = ctx.record;
    let mut i = 0usize;
    let mut reads = 0u64;
    loop {
        let phase = ctx.phase();
        if phase == STOP {
            break;
        }
        let counted = phase == COUNT;
        let read = ctx.ops.is_read(i);
        i = i.wrapping_add(1);
        let ok = if read {
            reads += 1;
            if TRACED && counted {
                let a = clock::now();
                h.lock_read();
                let b = clock::now();
                let ok = rec.read_ok();
                let c = clock::now();
                h.unlock_read();
                let d = clock::now();
                t.spans[LOCK_READ].add(b.saturating_sub(a));
                t.spans[UNLOCK_READ].add(d.saturating_sub(c));
                ok
            } else if phase == WAITS && reads.is_multiple_of(READ_SAMPLE) {
                let a = clock::now();
                h.lock_read();
                let b = clock::now();
                let ok = rec.read_ok();
                h.unlock_read();
                if let Some(w) = t.read_wait.as_mut() {
                    w.record(b.saturating_sub(a));
                }
                ok
            } else {
                h.lock_read();
                let ok = rec.read_ok();
                h.unlock_read();
                ok
            }
        } else {
            t.writes += 1;
            if TRACED && counted {
                let a = clock::now();
                h.lock_write();
                let b = clock::now();
                let ok = rec.write_ok();
                let c = clock::now();
                h.unlock_write();
                let d = clock::now();
                t.spans[LOCK_WRITE].add(b.saturating_sub(a));
                t.spans[UNLOCK_WRITE].add(d.saturating_sub(c));
                ok
            } else if phase == WAITS {
                let a = clock::now();
                h.lock_write();
                let b = clock::now();
                let ok = rec.write_ok();
                h.unlock_write();
                if let Some(w) = t.write_wait.as_mut() {
                    w.record(b.saturating_sub(a));
                }
                ok
            } else {
                h.lock_write();
                let ok = rec.write_ok();
                h.unlock_write();
                ok
            }
        };
        t.ops += 1;
        t.counted += counted as u64;
        t.failed += !ok as u64;
    }
    t
}

/// Span slot of [`cas_loop`].
pub const CAS: usize = 0;

/// Timed compare-and-swap increments of one shared word: a load, then
/// CAS until one succeeds. Returns the increments made in `t.ops`; the
/// caller checks the word against their sum.
#[inline(never)]
pub fn cas_loop(word: &AtomicU64, ctx: &Ctx, mut t: Tally) -> Tally {
    loop {
        let phase = ctx.phase();
        if phase == STOP {
            break;
        }
        let a = clock::now();
        let mut old = word.load(Ordering::Relaxed);
        while let Err(seen) =
            word.compare_exchange_weak(old, old + 1, Ordering::AcqRel, Ordering::Relaxed)
        {
            old = seen;
        }
        let b = clock::now();
        if phase == COUNT {
            t.spans[CAS].add(b.saturating_sub(a));
            t.counted += 1;
        }
        t.ops += 1;
    }
    t
}

/// Span slots of [`csnzi_loop`].
pub const ARRIVE: usize = 0;
pub const DEPART: usize = 1;
pub const CLOSE_OPEN: usize = 2;
/// Event slots of [`csnzi_loop`]: arrivals whose ticket is not the root,
/// and arrivals refused because the C-SNZI was closed.
pub const TREE: usize = 0;
pub const REFUSED: usize = 1;

/// The C-SNZI used as the locks use it: a read arrives (retrying while a
/// writer has it closed), checks the record and departs; a write closes
/// it once empty, updates the record and opens it. Every `arrive_cached`
/// call is timed; a write's close retries and its `open` are timed as
/// one.
#[inline(never)]
pub fn csnzi_loop(c: &CSnzi, mut policy: ArrivalPolicy, ctx: &Ctx, mut t: Tally) -> Tally {
    let rec = ctx.record;
    let mut cursor = LeafCursor::new();
    let mut i = 0usize;
    loop {
        let phase = ctx.phase();
        if phase == STOP {
            break;
        }
        let counted = phase == COUNT;
        let read = ctx.ops.is_read(i);
        i = i.wrapping_add(1);
        let ok = if read {
            let ticket = loop {
                let a = clock::now();
                let ticket = c.arrive_cached(&mut policy, &mut cursor);
                let b = clock::now();
                if counted {
                    t.spans[ARRIVE].add(b.saturating_sub(a));
                }
                if ticket.arrived() {
                    break ticket;
                }
                if counted {
                    t.events[REFUSED] += 1;
                }
                std::hint::spin_loop();
            };
            if counted && !ticket.is_root() {
                t.events[TREE] += 1;
            }
            let ok = rec.read_ok();
            let a = clock::now();
            let held = c.depart(ticket);
            let b = clock::now();
            debug_assert!(held, "writers close only an empty C-SNZI");
            if counted {
                t.spans[DEPART].add(b.saturating_sub(a));
            }
            ok
        } else {
            t.writes += 1;
            let a = clock::now();
            while !c.close_if_empty() {
                std::hint::spin_loop();
            }
            let b = clock::now();
            let ok = rec.write_ok();
            let d = clock::now();
            c.open();
            let e = clock::now();
            if counted {
                t.spans[CLOSE_OPEN].add(b.saturating_sub(a) + e.saturating_sub(d));
            }
            ok
        };
        t.ops += 1;
        t.counted += counted as u64;
        t.failed += !ok as u64;
    }
    t
}
