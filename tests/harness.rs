//! End-to-end checks of the Figure 5 harness itself: panel sweeps produce
//! complete, well-formed output, and the relationships that should hold
//! on *any* machine (not just the paper's 256-thread T5440) do hold.

use oll::workloads::config::{Fig5Panel, LockKind, LockOptions, WorkloadConfig};
use oll::workloads::report::{factor_at_peak, render_csv, render_table};
use oll::workloads::runner::ThroughputResult;
use oll::workloads::sweep::{run_panel, SweepOptions};

fn tiny_opts(locks: Vec<LockKind>) -> SweepOptions {
    SweepOptions {
        thread_counts: vec![1, 2, 4],
        locks,
        base: WorkloadConfig {
            threads: 1,
            read_pct: 100,
            acquisitions_per_thread: 1_500,
            critical_work: 0,
            outside_work: 0,
            seed: 0x600D_F00D,
            runs: 1,
            verify: false,
        },
        progress: false,
        collect_telemetry: false,
        lock_options: LockOptions::default(),
    }
}

#[test]
fn every_panel_runs_with_figure5_locks() {
    // One quick point per panel keeps this test minutes-proof.
    let opts = SweepOptions {
        thread_counts: vec![2],
        ..tiny_opts(LockKind::FIGURE5.to_vec())
    };
    for panel in Fig5Panel::ALL {
        let r = run_panel(panel, &opts);
        assert_eq!(r.series.len(), 5);
        for s in &r.series {
            assert_eq!(s.points.len(), 1);
            assert!(s.points[0].acquires_per_sec > 0.0);
            assert_eq!(s.points[0].read_pct, panel.read_pct());
        }
        let table = render_table(&r);
        assert!(table.contains("Figure 5"));
        let csv = render_csv(&r, true);
        assert_eq!(csv.lines().count(), 1 + 5);
    }
}

/// The least share of a point's wall time during which all its threads
/// must be inside their acquisition loops at once for the point to
/// measure contention rather than threads running one after another.
const MIN_OVERLAP: f64 = 0.25;

/// `kind`'s 4-thread point on `panel`, sized so its threads overlap:
/// it starts at 200,000 acquisitions per thread (20,000 on panels at
/// <=50% reads) and doubles, up to four times, while the overlap stays
/// under [`MIN_OVERLAP`].
fn overlapped_point(kind: LockKind, panel: Fig5Panel) -> ThroughputResult {
    let mut opts = SweepOptions {
        thread_counts: vec![4],
        ..tiny_opts(vec![kind])
    };
    opts.base.acquisitions_per_thread = 200_000;
    loop {
        let point = run_panel(panel, &opts).series[0].points[0];
        if point.overlap >= MIN_OVERLAP || opts.base.acquisitions_per_thread >= 3_200_000 {
            return point;
        }
        opts.base.acquisitions_per_thread *= 2;
    }
}

#[test]
fn read_only_throughput_beats_write_only_for_rw_locks() {
    // At equal thread counts, 100% reads must outperform 0% reads for any
    // reader-writer lock (readers share; writers serialize). This is only
    // observable with real parallelism: on a single hardware thread,
    // concurrent readers cannot overlap, so the two workloads cost the
    // same and the comparison is noise. Short points are no better: if
    // the threads run one after another, the comparison prices the
    // uncontended fast paths, so both points must first show overlap.
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    if hw < 2 {
        eprintln!("skipping shape assertion: single hardware thread (see EXPERIMENTS.md)");
        return;
    }
    for kind in [LockKind::Foll, LockKind::Roll, LockKind::Goll] {
        let read_only = overlapped_point(kind, Fig5Panel::A);
        let write_only = overlapped_point(kind, Fig5Panel::F);
        for p in [&read_only, &write_only] {
            assert!(
                p.overlap >= MIN_OVERLAP,
                "{}: {}% reads point overlapped for {:.3} of its run, below {MIN_OVERLAP}",
                kind.name(),
                p.read_pct,
                p.overlap
            );
        }
        let r = read_only.acquires_per_sec;
        let w = write_only.acquires_per_sec;
        assert!(
            r > w,
            "{}: read-only ({r:.0}/s) should beat write-only ({w:.0}/s) at 4 threads",
            kind.name()
        );
    }
}

#[test]
fn factor_helper_compares_series() {
    let opts = tiny_opts(vec![LockKind::Foll, LockKind::Ksuh]);
    let panel = run_panel(Fig5Panel::A, &opts);
    let f = factor_at_peak(&panel, LockKind::Foll, LockKind::Ksuh).unwrap();
    assert!(f.is_finite() && f > 0.0);
}

#[test]
fn csv_rows_are_parseable() {
    let opts = SweepOptions {
        thread_counts: vec![1, 2],
        ..tiny_opts(vec![LockKind::Goll])
    };
    let panel = run_panel(Fig5Panel::C, &opts);
    let csv = render_csv(&panel, true);
    for line in csv.lines().skip(1) {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), 6, "line: {line}");
        assert_eq!(fields[0], "c");
        assert_eq!(fields[1], "95");
        assert!(fields[3].parse::<usize>().is_ok());
        assert!(fields[4].parse::<f64>().unwrap() > 0.0);
        assert!(fields[5].parse::<f64>().unwrap() > 0.0);
    }
}
