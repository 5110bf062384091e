//! Paired A/B comparison of one boolean lock option (`fig5 --ab FLAG`).
//!
//! Every selected (lock × panel × threads) point runs as `runs` adjacent
//! pairs: half A with FLAG off, half B with it on, the order alternating
//! pair to pair so warm-up and drift bias neither side. Each pair yields
//! one delta `(B − A) / A` in percent. A row (lock × panel) reports the
//! median of its pairs' deltas with the first and third quartiles, so a
//! change can be told from noise: a row whose quartiles straddle 0 is
//! "no detectable change". The overall figure is the median of all pairs.

use crate::config::{Fig5Panel, LockKind, LockOptions, WorkloadConfig};
use crate::runner::run_throughput_profiled_with;
use crate::sweep::{point_config, SweepOptions};
use oll_obs::{Sampler, SamplerConfig};
use std::fmt::Write as _;

/// The lock option an A/B run varies — one of `fig5`'s boolean flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbFlag {
    /// A continuous-monitoring sampler runs around every B half.
    Obs,
    /// [`LockOptions::cohort`].
    Cohort,
    /// [`LockOptions::self_tuning`].
    SelfTuning,
    /// [`LockOptions::biased`].
    Biased,
    /// [`LockOptions::adaptive`].
    Adaptive,
    /// [`LockOptions::hazard`].
    Hazard,
}

impl AbFlag {
    /// Every flag, in `fig5` option order.
    const ALL: [AbFlag; 6] = [
        AbFlag::Obs,
        AbFlag::Cohort,
        AbFlag::SelfTuning,
        AbFlag::Biased,
        AbFlag::Adaptive,
        AbFlag::Hazard,
    ];

    /// The `fig5` option without its dashes; also the key its member is
    /// merged under.
    pub fn name(self) -> &'static str {
        match self {
            AbFlag::Obs => "obs",
            AbFlag::Cohort => "cohort",
            AbFlag::SelfTuning => "self-tuning",
            AbFlag::Biased => "biased",
            AbFlag::Adaptive => "adaptive",
            AbFlag::Hazard => "hazard",
        }
    }

    /// Parses a flag name (see [`AbFlag::name`]).
    pub fn parse(s: &str) -> Option<AbFlag> {
        AbFlag::ALL.into_iter().find(|f| f.name() == s)
    }

    /// The cargo feature this build lacks for B to differ from A, if any.
    pub fn missing_feature(self) -> Option<&'static str> {
        match self {
            AbFlag::Obs => (!oll_obs::enabled()).then_some("obs"),
            AbFlag::Hazard => (!oll_hazard::Hazard::enabled()).then_some("hazard"),
            _ => None,
        }
    }

    /// `opts` with this flag set to `on` (unchanged for [`AbFlag::Obs`],
    /// which is not a lock option).
    fn with(self, opts: &LockOptions, on: bool) -> LockOptions {
        let mut o = *opts;
        match self {
            AbFlag::Obs => {}
            AbFlag::Cohort => o.cohort = on,
            AbFlag::SelfTuning => o.self_tuning = on,
            AbFlag::Biased => o.biased = on,
            AbFlag::Adaptive => o.adaptive = on,
            AbFlag::Hazard => o.hazard = on,
        }
        o
    }
}

/// The spread of a set of paired deltas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbStats {
    /// Median delta `(B − A) / A`, percent.
    pub median_pct: f64,
    /// First quartile of the deltas, percent.
    pub q1_pct: f64,
    /// Third quartile of the deltas, percent.
    pub q3_pct: f64,
    /// Number of pairs.
    pub pairs: usize,
    /// Median over the pairs of the smaller of the two halves'
    /// [`crate::runner::ThroughputResult::overlap`].
    pub overlap: f64,
}

impl AbStats {
    /// The spread of `pairs`, each a (delta %, overlap) tuple.
    fn of(pairs: &[(f64, f64)]) -> AbStats {
        let mut deltas: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let mut overlaps: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        AbStats {
            median_pct: quantile(&mut deltas, 0.5),
            q1_pct: quantile(&mut deltas, 0.25),
            q3_pct: quantile(&mut deltas, 0.75),
            pairs: pairs.len(),
            overlap: quantile(&mut overlaps, 0.5),
        }
    }

    /// True when the quartiles straddle 0: the delta is inside the
    /// measured noise.
    pub fn no_detectable_change(&self) -> bool {
        self.q1_pct <= 0.0 && self.q3_pct >= 0.0
    }
}

/// The `q`-quantile of a non-empty `xs`, interpolating linearly between
/// order statistics (sorts `xs`).
fn quantile(xs: &mut [f64], q: f64) -> f64 {
    xs.sort_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// One lock × panel row.
#[derive(Debug, Clone)]
pub struct AbRow {
    /// The lock.
    pub kind: LockKind,
    /// The panel.
    pub panel: Fig5Panel,
    /// The spread of the row's paired deltas.
    pub stats: AbStats,
}

/// A whole `--ab` run.
#[derive(Debug, Clone)]
pub struct AbResult {
    /// The option varied.
    pub flag: AbFlag,
    /// Panels run.
    pub panels: Vec<Fig5Panel>,
    /// Options shared by both halves.
    pub opts: SweepOptions,
    /// The sampler tick during B halves (only for [`AbFlag::Obs`]).
    pub interval_ms: Option<u64>,
    /// Locality ranks detected on this machine.
    pub ranks: usize,
    /// One row per lock × panel.
    pub rows: Vec<AbRow>,
    /// The spread over every pair of every row.
    pub overall: AbStats,
}

/// Runs every (lock × panel × threads) point of `opts` as
/// `opts.base.runs` adjacent A/B pairs varying `flag`. For
/// [`AbFlag::Obs`] a sampler configured by `sampler` runs around each B
/// half.
pub fn run_ab(
    flag: AbFlag,
    panels: &[Fig5Panel],
    opts: &SweepOptions,
    sampler: &SamplerConfig,
) -> AbResult {
    let run = |kind: LockKind, config: &WorkloadConfig, b: bool| {
        let daemon = (b && flag == AbFlag::Obs).then(|| Sampler::start(sampler.clone()));
        let options = flag.with(&opts.lock_options, b);
        let r = run_throughput_profiled_with(kind, config, &options).0;
        daemon.map(Sampler::stop);
        r
    };
    let (mut rows, mut all, mut b_first) = (Vec::new(), Vec::new(), false);
    for &kind in &opts.locks {
        for &panel in panels {
            let mut pairs = Vec::new();
            for &threads in &opts.thread_counts {
                let config = WorkloadConfig {
                    runs: 1,
                    ..point_config(panel, threads, &opts.base)
                };
                let point_start = pairs.len();
                for _ in 0..opts.base.runs.max(1) {
                    b_first = !b_first;
                    let (a, b) = if b_first {
                        let b = run(kind, &config, true);
                        (run(kind, &config, false), b)
                    } else {
                        let a = run(kind, &config, false);
                        (a, run(kind, &config, true))
                    };
                    let delta = (b.acquires_per_sec - a.acquires_per_sec) / a.acquires_per_sec;
                    pairs.push((delta * 100.0, a.overlap.min(b.overlap)));
                }
                if opts.progress {
                    eprintln!(
                        "  {:<13} panel={} threads={threads:<3} -> median delta {:+.2}%",
                        kind.name(),
                        panel.tag(),
                        AbStats::of(&pairs[point_start..]).median_pct
                    );
                }
            }
            all.extend_from_slice(&pairs);
            let stats = AbStats::of(&pairs);
            rows.push(AbRow { kind, panel, stats });
        }
    }
    AbResult {
        flag,
        panels: panels.to_vec(),
        opts: opts.clone(),
        interval_ms: (flag == AbFlag::Obs).then_some(sampler.interval.as_millis() as u64),
        ranks: oll_util::topology::rank_count(),
        rows,
        overall: AbStats::of(&all),
    }
}

impl AbResult {
    /// The comparison as an aligned text table, one line per row plus
    /// the overall figure, each with its verdict.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "A/B --{}: delta = (B-A)/A with A off and B on; median [q1, q3] of paired runs\n\
             {:<13} {:>5} {:>8} {:>8} {:>8} {:>5} {:>7}  verdict\n",
            self.flag.name(),
            "lock",
            "panel",
            "median",
            "q1",
            "q3",
            "pairs",
            "overlap"
        );
        let rows = self
            .rows
            .iter()
            .map(|r| (r.kind.name(), r.panel.tag(), &r.stats));
        for (lock, panel, s) in rows.chain([("overall", "", &self.overall)]) {
            let verdict = match s.median_pct {
                _ if s.no_detectable_change() => "no detectable change",
                m if m > 0.0 => "faster with B",
                _ => "slower with B",
            };
            let _ = writeln!(
                out,
                "{lock:<13} {panel:>5} {:>+7.2}% {:>+7.2}% {:>+7.2}% {:>5} {:>7.2}  {verdict}",
                s.median_pct, s.q1_pct, s.q3_pct, s.pairs, s.overlap
            );
        }
        out
    }
}
