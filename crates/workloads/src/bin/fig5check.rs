//! `fig5check` — validate an `oll.fig5` JSON document.
//!
//! ```text
//! USAGE:
//!   fig5check PATH [--expect-adaptive] [--expect-biased] [--expect-hazard]
//!             [--expect-shape N] [--expect-async] [--expect-async-tasks N]
//!             [--expect-ab KEY[,KEY…]]
//! ```
//!
//! Parses the document with the in-tree parser (`oll_workloads::json`),
//! checks the schema shape the renderer promises (every panel carries
//! `adaptive`/`biased`/`hazard`/`shape_threads`, every point a positive
//! throughput), and exits nonzero with a diagnostic on the first
//! violation. CI's bench-smoke lane runs it against short
//! `fig5 --adaptive --json` and `fig5 --biased --json` sweeps so both
//! option paths are validated end to end: CLI flag → lock builders →
//! sweep → JSON report → parser.
//!
//! `--expect-async` requires the document to carry the `"async"` member
//! that `fig5_async --merge` folds in (an `oll.fig5_async` panel) and
//! re-checks its invariants: every task accounted for (granted or timed
//! out), zero C-SNZI surplus and zero queued waiters at exit, positive
//! throughput. `--expect-async-tasks N` additionally demands the
//! recorded run drove at least N tasks — the committed
//! `BENCH_fig5.json` is checked with `--expect-async-tasks 1000000`.
//!
//! `--expect-ab KEY[,KEY…]` requires an `oll.fig5_ab` member under each
//! KEY — the `fig5 --ab KEY --merge` paired comparisons, e.g.
//! `--expect-ab obs,cohort,self-tuning`.
//!
//! Regardless of the `--expect-*` flags, any merged members present are
//! checked: every A/B member against the one schema
//! (`oll_workloads::json::check_ab_member`: a flag that disagrees with
//! its key, or a row without its spread, fails), and all members for
//! agreement — a member from a different schema revision (its `version`
//! differs from the document's), or members recorded on machines with
//! disagreeing locality topologies (their `ranks` differ), are rejected.
//! A `BENCH_fig5.json` assembled from stale or foreign member runs fails
//! instead of parsing clean.

use oll_workloads::json::check_ab_member;
use oll_workloads::json::parse::{self, Value};
use std::process::exit;

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: fig5check PATH [--expect-adaptive] [--expect-biased] [--expect-hazard] \
         [--expect-shape N] [--expect-async] [--expect-async-tasks N] \
         [--expect-ab KEY[,KEY...]]"
    );
    exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("fig5check: FAIL: {msg}");
    exit(1);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut path = None;
    let mut expect_adaptive = false;
    let mut expect_biased = false;
    let mut expect_hazard = false;
    let mut expect_shape = None;
    let mut expect_async = false;
    let mut expect_async_tasks = None;
    let mut expect_ab: Vec<String> = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--expect-adaptive" => expect_adaptive = true,
            "--expect-biased" => expect_biased = true,
            "--expect-hazard" => expect_hazard = true,
            "--expect-async" => expect_async = true,
            "--expect-ab" => {
                let v = argv
                    .get(i + 1)
                    .unwrap_or_else(|| usage("missing value for --expect-ab"));
                expect_ab.extend(v.split(',').map(str::to_string));
                i += 1;
            }
            "--expect-async-tasks" => {
                let v = argv
                    .get(i + 1)
                    .unwrap_or_else(|| usage("missing value for --expect-async-tasks"));
                expect_async_tasks = Some(
                    v.parse::<u64>()
                        .unwrap_or_else(|_| usage("bad --expect-async-tasks")),
                );
                expect_async = true;
                i += 1;
            }
            "--expect-shape" => {
                let v = argv
                    .get(i + 1)
                    .unwrap_or_else(|| usage("missing value for --expect-shape"));
                expect_shape = Some(
                    v.parse::<u64>()
                        .unwrap_or_else(|_| usage("bad --expect-shape")),
                );
                i += 1;
            }
            "--help" | "-h" => usage("help requested"),
            other if path.is_none() => path = Some(other.to_string()),
            other => usage(&format!("unexpected argument `{other}`")),
        }
        i += 1;
    }
    let path = path.unwrap_or_else(|| usage("missing PATH"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")));
    let doc = parse::parse(&text).unwrap_or_else(|e| fail(&format!("{path}: not valid JSON: {e}")));

    if doc.get("schema").and_then(Value::as_str) != Some("oll.fig5") {
        fail("schema is not \"oll.fig5\"");
    }
    let panels = doc
        .get("panels")
        .and_then(Value::as_arr)
        .unwrap_or_else(|| fail("missing panels array"));
    if panels.is_empty() {
        fail("no panels");
    }
    let mut points = 0usize;
    for (pi, panel) in panels.iter().enumerate() {
        let tag = panel
            .get("panel")
            .and_then(Value::as_str)
            .unwrap_or_else(|| fail(&format!("panel[{pi}]: missing tag")));
        let adaptive = panel
            .get("adaptive")
            .and_then(Value::as_bool)
            .unwrap_or_else(|| fail(&format!("panel {tag}: missing adaptive flag")));
        if expect_adaptive && !adaptive {
            fail(&format!("panel {tag}: adaptive=false, expected true"));
        }
        let biased = panel
            .get("biased")
            .and_then(Value::as_bool)
            .unwrap_or_else(|| fail(&format!("panel {tag}: missing biased flag")));
        if expect_biased && !biased {
            fail(&format!("panel {tag}: biased=false, expected true"));
        }
        let hazard = panel
            .get("hazard")
            .and_then(Value::as_bool)
            .unwrap_or_else(|| fail(&format!("panel {tag}: missing hazard flag")));
        if expect_hazard && !hazard {
            fail(&format!("panel {tag}: hazard=false, expected true"));
        }
        let shape = panel.get("shape_threads");
        match (expect_shape, shape.and_then(Value::as_u64)) {
            (Some(want), Some(got)) if want != got => fail(&format!(
                "panel {tag}: shape_threads={got}, expected {want}"
            )),
            (Some(want), None) => {
                fail(&format!("panel {tag}: shape_threads=null, expected {want}"))
            }
            _ => {}
        }
        let series = panel
            .get("series")
            .and_then(Value::as_arr)
            .unwrap_or_else(|| fail(&format!("panel {tag}: missing series")));
        if series.is_empty() {
            fail(&format!("panel {tag}: no series"));
        }
        for s in series {
            let lock = s
                .get("lock")
                .and_then(Value::as_str)
                .unwrap_or_else(|| fail(&format!("panel {tag}: series missing lock name")));
            let pts = s
                .get("points")
                .and_then(Value::as_arr)
                .unwrap_or_else(|| fail(&format!("panel {tag}/{lock}: missing points")));
            for p in pts {
                let rate = p
                    .get("acquires_per_sec")
                    .and_then(Value::as_f64)
                    .unwrap_or_else(|| fail(&format!("panel {tag}/{lock}: missing throughput")));
                if !(rate.is_finite() && rate > 0.0) {
                    fail(&format!(
                        "panel {tag}/{lock}: non-positive throughput {rate}"
                    ));
                }
                points += 1;
            }
        }
    }
    // Every merged member is checked whenever present (the `--expect-*`
    // flags only demand presence): A/B members against their schema, and
    // all members for a shared schema revision and locality topology.
    let version = doc
        .get("version")
        .and_then(Value::as_u64)
        .unwrap_or_else(|| fail("missing version"));
    let Value::Obj(members) = &doc else {
        fail("top-level value is not an object")
    };
    let mut ranks_seen: Option<(&str, u64)> = None;
    let mut ab_summary = String::new();
    for (key, member) in members {
        let key = key.as_str();
        if matches!(key, "schema" | "version" | "panels") {
            continue;
        }
        if key == "async" {
            if member.get("schema").and_then(Value::as_str) != Some("oll.fig5_async") {
                fail("member async: schema is not \"oll.fig5_async\"");
            }
        } else {
            let s = check_ab_member(key, member).unwrap_or_else(|e| fail(&e));
            ab_summary.push_str(&format!(
                ", {key} {:+.2}% [{:+.2}, {:+.2}]{}",
                s.median_pct,
                s.q1_pct,
                s.q3_pct,
                if s.no_detectable_change() {
                    " (no detectable change)"
                } else {
                    ""
                }
            ));
        }
        match member.get("version").and_then(Value::as_u64) {
            Some(v) if v == version => {}
            Some(v) => fail(&format!(
                "member {key}: version {v} disagrees with the document's \
                 {version} (regenerate the stale member)"
            )),
            None => fail(&format!("member {key}: missing version")),
        }
        if let Some(r) = member.get("ranks").and_then(Value::as_u64) {
            match ranks_seen {
                Some((other, seen)) if seen != r => fail(&format!(
                    "member {key}: {r} locality rank(s) disagrees with \
                     member {other}'s {seen} (members recorded on \
                     different machines?)"
                )),
                Some(_) => {}
                None => ranks_seen = Some((key, r)),
            }
        }
    }
    for key in &expect_ab {
        if doc.get(key).is_none() {
            fail(&format!(
                "missing {key} member (run fig5 --ab {key} --merge)"
            ));
        }
    }
    let mut async_tasks = None;
    if expect_async {
        let a = doc
            .get("async")
            .unwrap_or_else(|| fail("missing async member (run fig5_async --merge)"));
        let field = |key: &str| -> u64 {
            a.get(key)
                .and_then(Value::as_u64)
                .unwrap_or_else(|| fail(&format!("async member: missing {key}")))
        };
        let tasks = field("tasks");
        let workers = field("workers");
        if tasks == 0 || workers == 0 {
            fail("async member: zero tasks or workers");
        }
        if let Some(want) = expect_async_tasks {
            if tasks < want {
                fail(&format!(
                    "async member: {tasks} task(s), expected >= {want}"
                ));
            }
        }
        let accounted = field("granted_reads") + field("granted_writes") + field("timed_out");
        if accounted != tasks {
            fail(&format!(
                "async member: {accounted} task(s) accounted for, expected {tasks}"
            ));
        }
        if field("surplus_at_exit") != 0 || field("queued_at_exit") != 0 {
            fail("async member: leaked exit state (surplus or queue nonzero)");
        }
        let rate = a
            .get("tasks_per_sec")
            .and_then(Value::as_f64)
            .unwrap_or_else(|| fail("async member: missing tasks_per_sec"));
        if !(rate.is_finite() && rate > 0.0) {
            fail(&format!("async member: non-positive throughput {rate}"));
        }
        if a.get("grant_latency").is_none() {
            fail("async member: missing grant_latency");
        }
        async_tasks = Some((tasks, workers));
    }
    println!(
        "fig5check: OK: {path}: {} panel(s), {points} point(s){}{}{}{}{}{ab_summary}",
        panels.len(),
        if expect_adaptive { ", adaptive" } else { "" },
        if expect_biased { ", biased" } else { "" },
        if expect_hazard { ", hazard" } else { "" },
        match expect_shape {
            Some(n) => format!(", shape_threads={n}"),
            None => String::new(),
        },
        match async_tasks {
            Some((t, w)) => format!(", async {t} task(s) on {w} worker(s)"),
            None => String::new(),
        },
    );
}
