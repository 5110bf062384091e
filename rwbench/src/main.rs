//! Closed-loop benchmark of the OLL reader-writer locks.
//!
//! `rwbench --workload <name> --seed <n> --seconds <s> --mode <mode>`
//! measures one workload for about `s` seconds and prints one JSON line:
//! every series it measured, one value per repetition, plus the counts
//! of attempted and failed operations. `run.py` turns those series into
//! the benchmark's metrics. Modes:
//!
//! - `e2e`: GOLL, FOLL and ROLL in turn, untraced: acquisitions per
//!   second, `lock_read`/`lock_write` wait quantiles, and set-up time.
//! - `layers`: the per-layer ladder. Untraced throughput of the three
//!   locks and two baselines, then every call into each layer timed:
//!   a shared CAS word, a standalone C-SNZI, the three locks, and four
//!   wrappers stacked on FOLL.
//! - `counts`: the three locks' telemetry event counts; needs a build
//!   with the `telemetry` feature.

mod bodies;
mod clock;
mod hist;
mod place;
mod window;
mod workload;

use bodies::{ARRIVE, CAS, CLOSE_OPEN, DEPART, LOCK_READ, LOCK_WRITE, REFUSED, TREE};
use bodies::{UNLOCK_READ, UNLOCK_WRITE};
use oll_baselines::{CentralizedRwLock, StdRwLock};
use oll_core::{FollLock, GollLock, RollLock, RwLockFamily, SelfTuning};
use oll_csnzi::{ArrivalPolicy, CSnzi, TreeShape};
use oll_telemetry::{LockEvent, LockSnapshot};
use oll_util::CachePadded;
use place::place;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use window::{window, Outcome, Plan, Span, Tally};
use workload::{Ops, Workload};

/// Target length of one measured phase. A run repeats its schedule as
/// often as its seconds allow, so a longer run gives more repetitions,
/// not longer phases.
const TARGET_PHASE_S: f64 = 0.1;
/// Measured phases in one repetition of each mode.
const E2E_PHASES: usize = 2 * OLL.len();
const LAYER_PHASES: usize = 16;
const COUNT_PHASES: usize = OLL.len();

/// Splits `seconds` into repetitions of `phases` phases each, every phase
/// close to [`TARGET_PHASE_S`]; returns the repetitions and phase length.
fn schedule(seconds: f64, phases: usize) -> (usize, Duration) {
    let reps = ((seconds / (phases as f64 * TARGET_PHASE_S)).round() as usize).max(1);
    let phase = Duration::from_secs_f64(seconds / (reps * phases) as f64);
    (reps, phase)
}

/// The locks and lock stacks the benchmark drives.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Goll,
    Foll,
    Roll,
    Std,
    Centralized,
    /// FOLL under BRAVO reader biasing.
    Bravo,
    /// FOLL under the `SelfTuning` controller.
    Tuned,
    /// FOLL with the cohort writer gate.
    Cohort,
    /// FOLL with adaptive C-SNZIs.
    Adaptive,
}

const OLL: [Kind; 3] = [Kind::Goll, Kind::Foll, Kind::Roll];

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Goll => "goll",
            Kind::Foll => "foll",
            Kind::Roll => "roll",
            Kind::Std => "std",
            Kind::Centralized => "centralized",
            Kind::Bravo => "bravo",
            Kind::Tuned => "tuned",
            Kind::Cohort => "cohort",
            Kind::Adaptive => "adaptive",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    E2e,
    Layers,
    Counts,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::E2e => "e2e",
            Mode::Layers => "layers",
            Mode::Counts => "counts",
        }
    }
}

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    mode: Mode,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut mode) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--mode" => {
                mode = Some(match value.as_str() {
                    "e2e" => Mode::E2e,
                    "layers" => Mode::Layers,
                    "counts" => Mode::Counts,
                    m => return Err(format!("unknown mode {m}")),
                })
            }
            f => return Err(format!("unknown flag {f}")),
        }
    }
    let workload_name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&workload_name)
            .ok_or(format!("unknown workload {workload_name}"))?,
        workload_name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        mode: mode.ok_or("--mode is required")?,
    })
}

/// Mean ticks per call of a span; 0 with no calls.
fn mean(s: Span) -> f64 {
    ratio(s.ticks, s.calls)
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Mean ticks of one clock read, from back-to-back reads.
fn timer_ticks() -> f64 {
    let mut s = Span::default();
    for _ in 0..200_000 {
        let a = clock::now();
        let b = clock::now();
        s.add(b.saturating_sub(a));
    }
    mean(s)
}

/// One run: the workload's inputs, what was measured, and the checks.
struct Bench {
    threads: usize,
    ops: Vec<Ops>,
    series: BTreeMap<String, Vec<f64>>,
    /// Series measured in clock ticks, converted to ns on output.
    tick_series: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    failed: u64,
    records_ok: bool,
}

impl Bench {
    fn new(workload: Workload, seed: u64) -> Self {
        let threads = workload.threads();
        Self {
            threads,
            ops: (0..threads)
                .map(|tid| Ops::new(seed, tid, workload.read_pct()))
                .collect(),
            series: BTreeMap::new(),
            tick_series: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            records_ok: true,
        }
    }

    fn push(&mut self, name: impl Into<String>, value: f64) {
        self.series.entry(name.into()).or_default().push(value);
    }

    fn push_ticks(&mut self, name: impl Into<String>, ticks: f64) {
        self.tick_series.entry(name.into()).or_default().push(ticks);
    }

    fn check(&mut self, out: &Outcome) {
        self.attempted += out.tally.ops;
        self.failed += out.tally.failed;
        self.records_ok &= out.record_ok;
    }

    /// Builds a lock with `make` (inside the set-up time) and runs one
    /// window through its handles.
    fn run_lock<L, const TRACED: bool>(
        &mut self,
        make: impl FnOnce(usize) -> L,
        plan: &Plan,
    ) -> (Outcome, Option<LockSnapshot>)
    where
        L: RwLockFamily + 'static,
    {
        let start = Instant::now();
        let lock: &'static L = place(make(self.threads));
        let waits = !plan.waits.is_zero();
        let out = window(&self.ops, plan, start, |ctx| {
            let tally = Tally::new(waits);
            let h = place(
                lock.handle()
                    .expect("locks are sized for the workload's threads"),
            );
            ctx.ready();
            bodies::lock_loop::<_, TRACED>(h, ctx, tally)
        });
        let snapshot = lock.telemetry().snapshot();
        self.check(&out);
        (out, snapshot)
    }

    fn run_kind<const TRACED: bool>(
        &mut self,
        kind: Kind,
        plan: &Plan,
    ) -> (Outcome, Option<LockSnapshot>) {
        match kind {
            Kind::Goll => self.run_lock::<_, TRACED>(GollLock::new, plan),
            Kind::Foll => self.run_lock::<_, TRACED>(FollLock::new, plan),
            Kind::Roll => self.run_lock::<_, TRACED>(RollLock::new, plan),
            Kind::Std => self.run_lock::<_, TRACED>(StdRwLock::new, plan),
            Kind::Centralized => self.run_lock::<_, TRACED>(CentralizedRwLock::new, plan),
            Kind::Bravo => self
                .run_lock::<_, TRACED>(|c| FollLock::builder(c).biased(true).build_biased(), plan),
            Kind::Tuned => self.run_lock::<_, TRACED>(|c| SelfTuning::new(FollLock::new(c)), plan),
            Kind::Cohort => {
                self.run_lock::<_, TRACED>(|c| FollLock::builder(c).cohort(true).build(), plan)
            }
            Kind::Adaptive => {
                self.run_lock::<_, TRACED>(|c| FollLock::builder(c).adaptive(true).build(), plan)
            }
        }
    }

    /// End-to-end metrics: each repetition measures GOLL, FOLL and ROLL
    /// in turn (rotating which goes first), each in a counted phase and
    /// then a wait-timing phase of equal length. Every window records its
    /// set-up time.
    fn e2e(&mut self, seconds: f64) -> usize {
        let (reps, phase) = schedule(seconds, E2E_PHASES);
        let plan = Plan::new(phase, phase);
        for rep in 0..reps {
            for k in 0..OLL.len() {
                let kind = OLL[(rep + k) % OLL.len()];
                let (out, _) = self.run_kind::<false>(kind, &plan);
                let n = kind.name();
                self.push("setup_s", out.times.setup);
                self.push(
                    format!("{n}.acq_per_s"),
                    out.tally.counted as f64 / out.times.count,
                );
                for (op, hist) in [
                    ("read", &out.tally.read_wait),
                    ("write", &out.tally.write_wait),
                ] {
                    let h = hist.as_ref().expect("wait phases carry histograms");
                    self.push_ticks(format!("{n}.{op}_wait_p99_ns"), h.quantile(0.99));
                    self.push_ticks(format!("{n}.{op}_wait_p50_ns"), h.quantile(0.5));
                    self.push(format!("{n}.{op}_wait_samples"), h.len() as f64);
                }
            }
        }
        reps
    }

    /// The per-layer ladder.
    fn layers(&mut self, seconds: f64) -> usize {
        let (reps, phase) = schedule(seconds, LAYER_PHASES);
        let plan = Plan::new(phase, Duration::ZERO);
        for _ in 0..reps {
            self.push_ticks("trace.timer_ns", timer_ticks());
            for kind in [
                Kind::Goll,
                Kind::Foll,
                Kind::Roll,
                Kind::Std,
                Kind::Centralized,
            ] {
                let (out, _) = self.run_kind::<false>(kind, &plan);
                let rate = out.tally.counted as f64 / out.times.count;
                self.push(format!("{}.acq_per_s", kind.name()), rate);
            }
            self.util(&plan);
            self.csnzi(&plan);
            for kind in OLL {
                let (out, _) = self.run_kind::<true>(kind, &plan);
                let n = kind.name();
                let rate = out.tally.counted as f64 / out.times.count;
                self.push(format!("{n}.traced_acq_per_s"), rate);
                let s = out.tally.spans;
                self.push_ticks(format!("{n}.lock_read_ns"), mean(s[LOCK_READ]));
                self.push_ticks(format!("{n}.unlock_read_ns"), mean(s[UNLOCK_READ]));
                self.push_ticks(format!("{n}.lock_write_ns"), mean(s[LOCK_WRITE]));
                self.push_ticks(format!("{n}.unlock_write_ns"), mean(s[UNLOCK_WRITE]));
                self.push(
                    format!("{n}.read_share"),
                    ratio(s[LOCK_READ].calls, out.tally.counted),
                );
            }
            for kind in [Kind::Bravo, Kind::Tuned, Kind::Cohort, Kind::Adaptive] {
                let (out, _) = self.run_kind::<true>(kind, &plan);
                let s = out.tally.spans;
                let n = kind.name();
                let read = ratio(
                    s[LOCK_READ].ticks + s[UNLOCK_READ].ticks,
                    s[LOCK_READ].calls,
                );
                let write = ratio(
                    s[LOCK_WRITE].ticks + s[UNLOCK_WRITE].ticks,
                    s[LOCK_WRITE].calls,
                );
                self.push_ticks(format!("{n}.read_ns"), read);
                self.push_ticks(format!("{n}.write_ns"), write);
            }
        }
        reps
    }

    /// The floor rung: CAS increments of one shared padded word.
    fn util(&mut self, plan: &Plan) {
        let start = Instant::now();
        let word: &CachePadded<AtomicU64> = place(CachePadded::new(AtomicU64::new(0)));
        let out = window(&self.ops, plan, start, |ctx| {
            let tally = Tally::new(false);
            ctx.ready();
            bodies::cas_loop(word, ctx, tally)
        });
        self.check(&out);
        self.records_ok &= word.load(Ordering::Relaxed) == out.tally.ops;
        self.push_ticks("util.cas_ns", mean(out.tally.spans[CAS]));
    }

    /// A standalone C-SNZI shaped as GOLL builds it, used as a lock: first
    /// with the locks' arrival policy, then with arrivals pinned to the
    /// root and to the tree.
    fn csnzi(&mut self, plan: &Plan) {
        let policies = [
            ("policy", ArrivalPolicy::default()),
            ("direct", ArrivalPolicy::always_direct()),
            ("tree", ArrivalPolicy::always_tree()),
        ];
        for (which, policy) in policies {
            let start = Instant::now();
            let c: &CSnzi = place(CSnzi::new(TreeShape::for_threads(self.threads)));
            let out = window(&self.ops, plan, start, |ctx| {
                let tally = Tally::new(false);
                let policy = policy.clone();
                ctx.ready();
                bodies::csnzi_loop(c, policy, ctx, tally)
            });
            self.check(&out);
            let t = &out.tally;
            let (arrive, depart) = (t.spans[ARRIVE], t.spans[DEPART]);
            if which == "policy" {
                self.push_ticks("csnzi.arrive_ns", mean(arrive));
                self.push_ticks("csnzi.depart_ns", mean(depart));
                self.push_ticks("csnzi.close_open_ns", mean(t.spans[CLOSE_OPEN]));
                self.push("csnzi.tree_share", ratio(t.events[TREE], depart.calls));
                self.push(
                    "csnzi.arrive_fail_share",
                    ratio(t.events[REFUSED], arrive.calls),
                );
            } else {
                let pair = ratio(arrive.ticks + depart.ticks, depart.calls);
                self.push_ticks(format!("csnzi.{which}_ns"), pair);
            }
        }
    }

    /// Telemetry counts of the three locks.
    fn counts(&mut self, seconds: f64) -> usize {
        let (reps, phase) = schedule(seconds, COUNT_PHASES);
        let plan = Plan::new(phase, Duration::ZERO);
        for _ in 0..reps {
            for kind in OLL {
                let (_, snapshot) = self.run_kind::<false>(kind, &plan);
                let s = snapshot.expect("counts mode needs a build with the `telemetry` feature");
                let n = kind.name();
                let root_writes = s.get(LockEvent::CsnziRootWrite);
                let root_fails = s.get(LockEvent::CsnziRootCasFail);
                let acquires = s.reads() + s.writes();
                self.push(
                    format!("{n}.read_slow_share"),
                    ratio(s.get(LockEvent::ReadSlow), s.reads()),
                );
                self.push(
                    format!("{n}.write_slow_share"),
                    ratio(s.get(LockEvent::WriteSlow), s.writes()),
                );
                self.push(
                    format!("{n}.root_writes_per_acq"),
                    ratio(root_writes, acquires),
                );
                self.push(
                    format!("{n}.root_cas_fail_share"),
                    ratio(root_fails, root_fails + root_writes),
                );
            }
        }
        reps
    }

    fn into_json(mut self, args: &Args, reps: usize) -> String {
        let tpn = clock::ticks_per_ns();
        for (name, ticks) in std::mem::take(&mut self.tick_series) {
            self.series
                .insert(name, ticks.into_iter().map(|t| t / tpn).collect());
        }
        let series: Vec<String> = self
            .series
            .iter()
            .map(|(name, values)| {
                let values: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
                format!("\"{name}\":[{}]", values.join(","))
            })
            .collect();
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        format!(
            "{{\"workload\":\"{}\",\"mode\":\"{}\",\"threads\":{},\"nproc\":{nproc},\"seed\":{},\"seconds\":{},\
             \"reps\":{reps},\"ticks_per_ns\":{tpn},\"attempted\":{},\"failed\":{},\
             \"records_ok\":{},\"series\":{{{}}}}}",
            args.workload_name,
            args.mode.name(),
            self.threads,
            args.seed,
            args.seconds,
            self.attempted,
            self.failed,
            self.records_ok,
            series.join(",")
        )
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rwbench: {e}");
            eprintln!(
                "usage: rwbench --workload uncontended|read_mostly|mixed --seed N \
                 --seconds S --mode e2e|layers|counts"
            );
            std::process::exit(2);
        }
    };
    clock::start();
    place::seed(args.seed);
    let mut bench = Bench::new(args.workload, args.seed);
    let reps = match args.mode {
        Mode::E2e => bench.e2e(args.seconds),
        Mode::Layers => bench.layers(args.seconds),
        Mode::Counts => bench.counts(args.seconds),
    };
    println!("{}", bench.into_json(&args, reps));
}
