#!/usr/bin/env bash
# Regenerate the committed measurement artifacts from the evaluation
# binaries, so the checked-in numbers can always be reproduced (and
# refreshed) with one command on the current machine:
#
#   fig5_results.txt / fig5_results.csv   full Figure 5 sweep
#   latency_results.txt                   tail-latency table
#   fig5_biased.json / fig5_unbiased.json BRAVO before/after pair
#                                         (EXPERIMENTS.md, DESIGN.md #11)
#   BENCH_fig5.json                       trajectory file: a small fixed
#                                         sweep lets diffs across commits
#                                         show the perf trend,
#                                         plus the async panel and the
#                                         paired A/B members (fig5 --ab)
#
# ablation_results.txt is historical output of a removed Criterion
# package and is not regenerated; per-layer costs come from rwbench
# (python3 rwbench/run.py --trace 1, see rwbench/README.md).
#
# Usage:  ./scripts/regen_results.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> building release binaries"
cargo build --release -p oll-workloads

FIG5=target/release/fig5
LATENCY=target/release/latency
FIG5CHECK=target/release/fig5check

echo "==> fig5_results.{txt,csv}: full panel sweep"
"$FIG5" --panel all --threads 1,2,4,8,16 --runs 3 \
    --csv fig5_results.csv | tee fig5_results.txt

echo "==> latency_results.txt"
"$LATENCY" --threads 4 --read-pct 95 --locks all | tee latency_results.txt

echo "==> BRAVO before/after pair (panel a, OLL locks, 16 threads)"
"$FIG5" --panel a --threads 16 --runs 5 --locks GOLL,FOLL,ROLL \
    --json fig5_unbiased.json >/dev/null
"$FIG5" --panel a --threads 16 --runs 5 --locks GOLL,FOLL,ROLL \
    --biased --json fig5_biased.json >/dev/null
"$FIG5CHECK" fig5_biased.json --expect-biased

echo "==> BENCH_fig5.json: fixed trajectory sweep (panel b, OLL locks)"
# Deliberately small and fixed so the committed file stays comparable
# run-over-run: same panel, same thread counts, same lock set.
"$FIG5" --panel b --threads 1,2,4,8 --runs 3 --locks GOLL,FOLL,ROLL \
    --json BENCH_fig5.json >/dev/null
"$FIG5CHECK" BENCH_fig5.json

echo "==> BENCH_fig5.json async panel: 1M tasks on 8 workers (fig5_async)"
# The async lock family's headline demonstration: one million
# concurrently queued lock-user tasks on eight worker threads, every
# task granted or cleanly cancelled, zero surplus and zero queued
# waiters at exit. Folded into BENCH_fig5.json as its "async" member.
cargo build --release -p oll-workloads --features async
target/release/fig5_async --tasks 1000000 --workers 8 --merge BENCH_fig5.json
"$FIG5CHECK" BENCH_fig5.json --expect-async --expect-async-tasks 1000000

echo "==> BENCH_fig5.json A/B members: cohort and self-tuning (fig5 --ab)"
# Paired A/B comparisons (EXPERIMENTS.md, "Paired A/B method"): every
# point runs as --runs adjacent pairs, the option off (A) and on (B),
# the order alternating; each lock x panel row records the median
# delta (B-A)/A with its quartiles, pair count and thread overlap, and
# is folded into BENCH_fig5.json as the member keyed by the option.
# Rows need at least 10 pairs (4 thread counts x --runs). --ab keeps
# fig5's /10 rule at <=50% reads, so --acquisitions 1000000 gives the
# cohort gate 100k writes per thread on panel f.
"$FIG5" --ab cohort --panel f --locks FOLL,ROLL --threads 1,2,4,8 \
    --acquisitions 1000000 --runs 5 --merge BENCH_fig5.json
# One panel per controller regime: read-heavy, mixed, write-heavy.
"$FIG5" --ab self-tuning --panel b,e,f --locks GOLL,FOLL,ROLL --threads 1,2,4,8 \
    --acquisitions 100000 --runs 3 --merge BENCH_fig5.json

echo "==> BENCH_fig5.json obs member: sampler A/B (fig5 --ab obs)"
# The same panel-b points bare and under a live 100 ms sampler. The
# bound reads "median delta >= -2%". Needs the obs build; fig5 exits 2
# without it.
cargo build --release -p oll-workloads --features obs
"$FIG5" --ab obs --panel b --threads 1,2,4,8 --acquisitions 200000 --runs 5 \
    --merge BENCH_fig5.json
"$FIG5CHECK" BENCH_fig5.json --expect-ab obs,cohort,self-tuning \
    --expect-async --expect-async-tasks 1000000

echo "==> done; review the diffs before committing"
