//! One measured window: set-up, warm-up, then the measured phases.
//!
//! The caller builds the object under test; `window` starts the worker
//! threads, which register with it and meet at a start barrier. A
//! coordinator then steps a shared phase word through warm-up, the
//! counted phase and, when asked, the wait-timing phase, and reads the
//! clock at each step. Workers load the phase before every operation, so
//! each operation belongs to exactly one phase.

use crate::hist::Hist;
use crate::place::place;
use crate::workload::{Ops, Record};
use oll_util::CachePadded;
use std::sync::atomic::{AtomicU8, Ordering::Relaxed};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Operations run but are not counted.
pub const WARM: u8 = 0;
/// Operations are counted (and timed per call in a traced run).
pub const COUNT: u8 = 1;
/// Every write and a sample of reads are timed.
pub const WAITS: u8 = 2;
/// Workers leave their loops.
pub const STOP: u8 = 3;

/// How long each phase of a window lasts. A zero `waits` skips the
/// wait-timing phase.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warm: Duration,
    pub count: Duration,
    pub waits: Duration,
}

impl Plan {
    /// A window whose measured phases last `count` and `waits`, after a
    /// warm-up of a quarter of the counted phase (at most 50 ms).
    pub fn new(count: Duration, waits: Duration) -> Self {
        Self {
            warm: (count / 4).min(Duration::from_millis(50)),
            count,
            waits,
        }
    }
}

/// What a worker sees of its window.
pub struct Ctx<'a> {
    phase: &'a AtomicU8,
    barrier: &'a Barrier,
    /// The protected record.
    pub record: &'a Record,
    /// This worker's operation sequence.
    pub ops: &'a Ops,
}

impl Ctx<'_> {
    /// The current phase.
    #[inline(always)]
    pub fn phase(&self) -> u8 {
        self.phase.load(Relaxed)
    }

    /// Marks this worker as set up and waits for the start.
    pub fn ready(&self) {
        self.barrier.wait();
    }
}

/// Total ticks spent in, and calls made to, one timed function.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    pub ticks: u64,
    pub calls: u64,
}

impl Span {
    #[inline(always)]
    pub fn add(&mut self, ticks: u64) {
        self.ticks += ticks;
        self.calls += 1;
    }
}

/// A worker's counts; merged over the workers of a window.
#[derive(Default)]
pub struct Tally {
    /// Operations run, each with a record check.
    pub ops: u64,
    /// Writes to the protected record.
    pub writes: u64,
    /// Record checks that failed.
    pub failed: u64,
    /// Operations run in the counted phase.
    pub counted: u64,
    /// Per-call timings of the traced functions; the body names them.
    pub spans: [Span; 4],
    /// Body-specific event counts.
    pub events: [u64; 2],
    /// `lock_read` wait times, in ticks.
    pub read_wait: Option<Box<Hist>>,
    /// `lock_write` wait times, in ticks.
    pub write_wait: Option<Box<Hist>>,
}

impl Tally {
    /// An empty tally; with `waits`, it carries wait-time histograms.
    pub fn new(waits: bool) -> Self {
        let hist = || {
            let mut h = Box::<Hist>::default();
            h.prefault();
            h
        };
        Self {
            read_wait: waits.then(hist),
            write_wait: waits.then(hist),
            ..Self::default()
        }
    }

    fn merge(&mut self, other: Tally) {
        self.ops += other.ops;
        self.writes += other.writes;
        self.failed += other.failed;
        self.counted += other.counted;
        for (a, b) in self.spans.iter_mut().zip(other.spans) {
            a.ticks += b.ticks;
            a.calls += b.calls;
        }
        for (a, b) in self.events.iter_mut().zip(other.events) {
            *a += b;
        }
        for (a, b) in [
            (&mut self.read_wait, other.read_wait),
            (&mut self.write_wait, other.write_wait),
        ] {
            match (a.as_mut(), b) {
                (Some(a), Some(b)) => a.merge(&b),
                (None, b) => *a = b,
                _ => {}
            }
        }
    }
}

/// Wall times of a window, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Times {
    /// From the caller's `start` until every worker was at the barrier.
    pub setup: f64,
    /// Length of the counted phase.
    pub count: f64,
}

/// The outcome of a window.
pub struct Outcome {
    pub tally: Tally,
    pub times: Times,
    /// Whether the final record equals the writes counted.
    pub record_ok: bool,
}

/// Runs one window with one worker per entry of `ops`. Each worker runs
/// `work`, which must call [`Ctx::ready`] once set up and return when the
/// phase reads [`STOP`]. `start` is when the caller began building the
/// object under test.
pub fn window<F>(ops: &[Ops], plan: &Plan, start: Instant, work: F) -> Outcome
where
    F: Fn(&Ctx) -> Tally + Sync,
{
    let phase: &CachePadded<AtomicU8> = place(CachePadded::new(AtomicU8::new(WARM)));
    let barrier = Barrier::new(ops.len() + 1);
    let record: &Record = place(Record::default());
    let (tally, times) = std::thread::scope(|s| {
        let workers: Vec<_> = ops
            .iter()
            .map(|ops| {
                let ctx = Ctx {
                    phase,
                    barrier: &barrier,
                    record,
                    ops,
                };
                let work = &work;
                s.spawn(move || work(&ctx))
            })
            .collect();
        barrier.wait();
        let setup = start.elapsed().as_secs_f64();
        std::thread::sleep(plan.warm);
        phase.store(COUNT, Relaxed);
        let counted = Instant::now();
        std::thread::sleep(plan.count);
        let next = if plan.waits.is_zero() { STOP } else { WAITS };
        phase.store(next, Relaxed);
        let count = counted.elapsed().as_secs_f64();
        if next == WAITS {
            std::thread::sleep(plan.waits);
            phase.store(STOP, Relaxed);
        }
        let mut tally = Tally::default();
        for w in workers {
            tally.merge(w.join().expect("a worker panicked"));
        }
        (tally, Times { setup, count })
    });
    let record_ok = record.holds(tally.writes);
    Outcome {
        tally,
        times,
        record_ok,
    }
}
