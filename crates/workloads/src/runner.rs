//! The throughput runner: the paper's tight acquire/release loop (§5.1).

use crate::config::{LockKind, LockOptions, WorkloadConfig};
use oll_baselines::{
    CentralizedRwLock, KsuhLock, McsMutex, McsRwLock, McsRwReaderPref, McsRwWriterPref,
    PerThreadRwLock, SolarisLikeRwLock, StdRwLock,
};
use oll_core::{FollLock, GollLock, RollLock, RwHandle, RwLockFamily, SelfTuning};
use oll_csnzi::TreeShape;
use oll_hazard::PoisonPolicy;
use oll_telemetry::LockSnapshot;
use oll_util::XorShift64;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The outcome of one throughput measurement (averaged over
/// `config.runs` repetitions).
#[derive(Debug, Clone, Copy)]
pub struct ThroughputResult {
    /// The lock measured.
    pub kind: LockKind,
    /// Thread count used.
    pub threads: usize,
    /// Read percentage used.
    pub read_pct: u32,
    /// Mean acquisitions per second over all runs.
    pub acquires_per_sec: f64,
    /// Mean wall time of a run.
    pub elapsed: Duration,
    /// Total acquisitions in one run.
    pub total_acquisitions: usize,
    /// Mean share of a run's wall time during which every thread was
    /// inside its acquisition loop at once (1.0 for one thread). Near 0
    /// means the threads ran one after another, so the point measured
    /// uncontended fast paths whatever its thread count.
    pub overlap: f64,
}

#[inline]
fn dummy_work(iters: u32) {
    for _ in 0..iters {
        std::hint::spin_loop();
    }
}

/// A measurement of one freshly built lock, of whichever family
/// [`with_lock`] builds.
pub(crate) trait Measure {
    /// What the measurement returns.
    type Out;
    /// Measures `lock`.
    fn run<L: RwLockFamily>(self, lock: L) -> Self::Out;
}

/// Builds a `kind` lock for `capacity` threads as `opts` asks and hands it
/// to `m`. The OLL locks go through their builders (adaptive C-SNZIs,
/// tree shape, cohort gate, BRAVO bias) and under the [`SelfTuning`]
/// controller when asked; the baselines have nothing to configure. The
/// hazard layer is armed on every lock when `opts.hazard` is set.
pub(crate) fn with_lock<M: Measure>(
    kind: LockKind,
    capacity: usize,
    opts: &LockOptions,
    m: M,
) -> M::Out {
    fn arm_and_run<M: Measure, L: RwLockFamily>(m: M, lock: L, hazard: bool) -> M::Out {
        if hazard {
            let h = lock.hazard();
            h.set_poison_policy(PoisonPolicy::Poison);
            h.detect_deadlocks(true);
        }
        m.run(lock)
    }
    let shape = opts.shape_threads.map(TreeShape::for_threads);
    // Each OLL lock is one of four types: plain or BRAVO-biased, bare or
    // under SelfTuning.
    macro_rules! oll {
        ($builder:expr) => {{
            let b = $builder.adaptive(opts.adaptive);
            let b = match shape {
                Some(s) => b.tree_shape(s),
                None => b,
            };
            match (opts.biased, opts.self_tuning) {
                (false, false) => arm_and_run(m, b.build(), opts.hazard),
                (false, true) => arm_and_run(m, SelfTuning::new(b.build()), opts.hazard),
                (true, false) => arm_and_run(m, b.biased(true).build_biased(), opts.hazard),
                (true, true) => arm_and_run(
                    m,
                    SelfTuning::new(b.biased(true).build_biased()),
                    opts.hazard,
                ),
            }
        }};
    }
    match kind {
        LockKind::Goll => oll!(GollLock::builder(capacity)),
        LockKind::Foll => oll!(FollLock::builder(capacity).cohort(opts.cohort)),
        LockKind::Roll => oll!(RollLock::builder(capacity).cohort(opts.cohort)),
        LockKind::Ksuh => arm_and_run(m, KsuhLock::new(capacity), opts.hazard),
        LockKind::SolarisLike => arm_and_run(m, SolarisLikeRwLock::new(capacity), opts.hazard),
        LockKind::Centralized => arm_and_run(m, CentralizedRwLock::new(capacity), opts.hazard),
        LockKind::McsRw => arm_and_run(m, McsRwLock::new(capacity), opts.hazard),
        LockKind::McsRwReaderPref => arm_and_run(m, McsRwReaderPref::new(capacity), opts.hazard),
        LockKind::McsRwWriterPref => arm_and_run(m, McsRwWriterPref::new(capacity), opts.hazard),
        LockKind::PerThread => arm_and_run(m, PerThreadRwLock::new(capacity), opts.hazard),
        LockKind::StdRw => arm_and_run(m, StdRwLock::new(capacity), opts.hazard),
        LockKind::McsMutex => arm_and_run(m, McsMutex::new(capacity), opts.hazard),
    }
}

/// Measures one run: barrier-synchronized start, join-synchronized stop.
/// Returns the run's wall time, its overlap share (see
/// [`ThroughputResult::overlap`]), and the lock's full telemetry for the
/// run (`None` unless built with the `telemetry` feature).
fn measure<L: RwLockFamily>(
    lock: L,
    config: &WorkloadConfig,
) -> (Duration, f64, Option<LockSnapshot>) {
    // Thread spawn/registration cost happens before the barrier. Each
    // worker records its own start (at barrier release) and end (after its
    // last release); the run's elapsed time is max(end) - min(start),
    // i.e. "the amount of time needed for all threads to complete" their
    // acquisitions. Workers must self-timestamp: on an oversubscribed
    // machine a coordinator thread may not be scheduled again until the
    // workers are already done.
    let barrier = Barrier::new(config.threads);
    let state = AtomicI64::new(0);

    let spans: std::sync::Mutex<Vec<(Instant, Instant)>> =
        std::sync::Mutex::new(Vec::with_capacity(config.threads));
    std::thread::scope(|scope| {
        for tid in 0..config.threads {
            let lock = &lock;
            let barrier = &barrier;
            let state = &state;
            let spans = &spans;
            scope.spawn(move || {
                let mut handle = lock.handle().expect("capacity sized to thread count");
                let mut rng = XorShift64::for_thread(config.seed, tid);
                barrier.wait();
                let start = Instant::now();
                for _ in 0..config.acquisitions_per_thread {
                    if rng.percent(config.read_pct) {
                        handle.lock_read();
                        if config.verify {
                            let s = state.fetch_add(1, Ordering::SeqCst);
                            assert!(s >= 0, "reader entered while a writer was inside");
                        }
                        dummy_work(config.critical_work);
                        if config.verify {
                            state.fetch_sub(1, Ordering::SeqCst);
                        }
                        handle.unlock_read();
                    } else {
                        handle.lock_write();
                        if config.verify {
                            let s = state.swap(-1, Ordering::SeqCst);
                            assert_eq!(s, 0, "writer entered while the lock was held");
                        }
                        dummy_work(config.critical_work);
                        if config.verify {
                            state.store(0, Ordering::SeqCst);
                        }
                        handle.unlock_write();
                    }
                    dummy_work(config.outside_work);
                }
                let end = Instant::now();
                spans.lock().unwrap().push((start, end));
            });
        }
    });
    let spans = spans.into_inner().unwrap();
    let first_start = spans.iter().map(|s| s.0).min().expect("threads ran");
    let last_end = spans.iter().map(|s| s.1).max().expect("threads ran");
    let last_start = spans.iter().map(|s| s.0).max().expect("threads ran");
    let first_end = spans.iter().map(|s| s.1).min().expect("threads ran");
    let elapsed = last_end.duration_since(first_start);
    // `saturating_duration_since` is zero when the last thread started
    // after the first one finished: no moment had every thread running.
    let all_running = first_end.saturating_duration_since(last_start);
    let overlap = if elapsed.is_zero() {
        1.0
    } else {
        all_running.as_secs_f64() / elapsed.as_secs_f64()
    };
    let snap = lock.telemetry().snapshot();
    (elapsed, overlap, snap)
}

/// [`Measure`] for [`measure`].
struct Throughput<'a>(&'a WorkloadConfig);

impl Measure for Throughput<'_> {
    type Out = (Duration, f64, Option<LockSnapshot>);
    fn run<L: RwLockFamily>(self, lock: L) -> Self::Out {
        measure(lock, self.0)
    }
}

/// Runs `config` against lock `kind`, averaging `config.runs` repetitions.
pub fn run_throughput(kind: LockKind, config: &WorkloadConfig) -> ThroughputResult {
    run_throughput_profiled(kind, config).0
}

/// Like [`run_throughput`], additionally returning the lock's telemetry
/// profile accumulated over all runs. The profile is `None` unless the
/// workspace was built with the `telemetry` feature (the instrumented
/// locks record; uninstrumented baselines return an empty-handed
/// snapshot of nothing and also yield `None`).
pub fn run_throughput_profiled(
    kind: LockKind,
    config: &WorkloadConfig,
) -> (ThroughputResult, Option<LockSnapshot>) {
    run_throughput_profiled_with(kind, config, &LockOptions::default())
}

/// Like [`run_throughput_profiled`], applying `opts` when constructing
/// the OLL locks (adaptive C-SNZIs, explicit tree shapes, BRAVO reader
/// biasing). Baseline locks have nothing to configure and ignore `opts`.
pub fn run_throughput_profiled_with(
    kind: LockKind,
    config: &WorkloadConfig,
    opts: &LockOptions,
) -> (ThroughputResult, Option<LockSnapshot>) {
    let mut total = Duration::ZERO;
    let mut overlap = 0.0;
    let mut profile: Option<LockSnapshot> = None;
    let runs = config.runs.max(1);
    for _ in 0..runs {
        let (elapsed, run_overlap, snap) =
            with_lock(kind, config.threads, opts, Throughput(config));
        total += elapsed;
        overlap += run_overlap;
        match (&mut profile, snap) {
            (Some(p), Some(s)) => p.merge(&s),
            (p @ None, Some(s)) => *p = Some(s),
            _ => {}
        }
    }
    if let Some(p) = &mut profile {
        // Each run registered a fresh lock under an auto-sequenced name;
        // label the aggregate by what was measured instead.
        p.name = format!("{} t={}", kind.name(), config.threads);
    }
    let mean = total / runs as u32;
    let total_acqs = config.total_acquisitions();
    (
        ThroughputResult {
            kind,
            threads: config.threads,
            read_pct: config.read_pct,
            acquires_per_sec: total_acqs as f64 / mean.as_secs_f64(),
            elapsed: mean,
            total_acquisitions: total_acqs,
            overlap: overlap / runs as f64,
        },
        profile,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(read_pct: u32) -> WorkloadConfig {
        WorkloadConfig {
            threads: 3,
            read_pct,
            acquisitions_per_thread: 300,
            critical_work: 0,
            outside_work: 0,
            seed: 42,
            runs: 1,
            verify: true,
        }
    }

    #[test]
    fn every_lock_survives_verified_mixed_workload() {
        for kind in LockKind::ALL {
            let r = run_throughput(kind, &tiny(70));
            assert!(
                r.acquires_per_sec > 0.0,
                "{}: nonpositive throughput",
                kind.name()
            );
            assert_eq!(r.total_acquisitions, 900);
        }
    }

    #[test]
    fn read_only_and_write_only_extremes() {
        for kind in LockKind::FIGURE5 {
            run_throughput(kind, &tiny(100));
            run_throughput(kind, &tiny(0));
        }
    }

    #[test]
    fn adaptive_options_produce_working_oll_locks() {
        let opts = LockOptions {
            adaptive: true,
            shape_threads: Some(2),
            ..LockOptions::default()
        };
        for kind in [LockKind::Goll, LockKind::Foll, LockKind::Roll] {
            let (r, _) = run_throughput_profiled_with(kind, &tiny(90), &opts);
            assert!(
                r.acquires_per_sec > 0.0,
                "{}: nonpositive adaptive throughput",
                kind.name()
            );
        }
    }

    #[test]
    fn biased_options_produce_working_oll_locks() {
        let opts = LockOptions {
            biased: true,
            ..LockOptions::default()
        };
        for kind in [LockKind::Goll, LockKind::Foll, LockKind::Roll] {
            let (r, _) = run_throughput_profiled_with(kind, &tiny(90), &opts);
            assert!(
                r.acquires_per_sec > 0.0,
                "{}: nonpositive biased throughput",
                kind.name()
            );
        }
    }

    #[test]
    fn cohort_options_produce_working_oll_locks() {
        let opts = LockOptions {
            cohort: true,
            ..LockOptions::default()
        };
        // Write-heavy mixes exercise the cohort writer gate; GOLL has no
        // cohort path and must ignore the flag.
        for kind in [LockKind::Goll, LockKind::Foll, LockKind::Roll] {
            let (r, _) = run_throughput_profiled_with(kind, &tiny(10), &opts);
            assert!(
                r.acquires_per_sec > 0.0,
                "{}: nonpositive cohort throughput",
                kind.name()
            );
        }
    }

    #[test]
    fn single_thread_runs() {
        let config = WorkloadConfig {
            threads: 1,
            ..tiny(50)
        };
        let r = run_throughput(LockKind::Foll, &config);
        assert_eq!(r.threads, 1);
        assert_eq!(r.overlap, 1.0, "one thread always overlaps itself");
    }
}
