#!/usr/bin/env python3
"""Bench-regression gate: compare a fresh BENCH_throughput.json against the
committed baseline.

The throughput bench (bench/throughput.cpp --scale) emits a results array
of per-leg entries {kernel, isa, threads, balls_per_sec, ...}.  This gate
matches fresh legs to baseline legs and fails when any fresh leg is slower
than (1 - tolerance) x its baseline, or when a headline speedup ratio
(kernel_vs_fused_speedup, shard_vs_fused_speedup) drops below the same
bound.

Matching is by the exact (kernel, isa, threads, weighting, sampler,
departures) tuple:
since the bench's auto mode runs one leg per supported SIMD backend, avx2
and avx512 legs coexist as separately gated entries, and folding them
together would let a fast new backend mask a regression in an old one.
The weighting/sampler pair keys the generalized-model legs and the
departures spec keys the steady-state churn leg (entries without the
fields, from the pre-PR-5 / pre-PR-9 schemas, default to "unit"/
"uniform"/"none").

Cross-machine portability is handled by skipping, not failing:
  * a baseline leg whose ISA is absent from the fresh run's
    "supported_isas" (the bench records what its CPU can execute) is
    skipped with a notice -- an aarch64 runner can never reproduce an
    avx512 leg, and vice versa;
  * multi-thread scaling legs (threads > 1) are only gated when the fresh
    runner actually has that many cores ("hardware_concurrency"); an
    oversubscribed leg time-slices and its rate says nothing about the
    code;
  * legs present in only one file are reported and skipped.

A file that repeats a leg key fails the gate outright: the bench emits one
entry per key, and a repeat would let one entry shadow the other.

Each per-leg line also prints both legs' "cv" (coefficient of variation of
the timed reps, "n/a" in files without it), so a ratio can be read
against the spread of the reps behind it.

The default tolerance is deliberately generous (40%): the baseline is
recorded at paper scale on a developer machine while CI runs a reduced
smoke scale on shared runners, so the gate is meant to catch real
regressions (a broken fast path, an accidental serial fallback), not
machine-to-machine noise.
"""

import argparse
import json
import sys


def leg_key(entry):
    return (entry["kernel"], entry["isa"], entry["threads"],
            entry.get("weighting", "unit"), entry.get("sampler", "uniform"),
            entry.get("departures", "none"))


def cv_text(entry):
    """A leg's coefficient of variation over its timed reps, or "n/a" for
    files from before the field existed.  Printed, never gated: it says
    how far apart the reps behind a ratio were."""
    cv = entry.get("cv")
    return "n/a" if cv is None else f"{cv:.1%}"


def index_legs(doc, path):
    """Legs of `doc` by leg_key.  A key that repeats would let one of its
    entries silently shadow the other, so it fails the gate, named, as
    does a leg missing a key field."""
    legs = {}
    for entry in doc.get("results", []):
        try:
            key = leg_key(entry)
        except KeyError as missing:
            raise SystemExit(f"FAILED: {path} has a leg without field {missing}: {entry}")
        if key in legs:
            raise SystemExit(f"FAILED: {path} repeats leg key {key}")
        legs[key] = entry
    return legs


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_throughput.json (the reference)")
    parser.add_argument("--fresh", required=True,
                        help="BENCH_throughput.json from this run")
    parser.add_argument("--tolerance", type=float, default=0.40,
                        help="allowed fractional slowdown before failing (default 0.40)")
    args = parser.parse_args()
    if not 0.0 <= args.tolerance < 1.0:
        parser.error("--tolerance must be in [0, 1)")

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)

    base_legs = index_legs(baseline, args.baseline)
    fresh_legs = index_legs(fresh, args.fresh)
    floor = 1.0 - args.tolerance
    # The fresh file knows the runner it ran on; older baselines / fresh
    # files may predate the host-metadata and supported-ISA fields (None =
    # unknown, never skip on it).
    runner_cores = fresh.get("hardware_concurrency", 0)
    runner_isas = fresh.get("supported_isas")
    failures = []
    print(f"bench-regression gate: tolerance {args.tolerance:.0%} "
          f"(fail below {floor:.0%} of baseline)")
    if runner_cores:
        print(f"  runner: {fresh.get('cpu_model', 'unknown CPU')} "
              f"({runner_cores} hardware threads)")
    if runner_isas is not None:
        print(f"  runner backends: {', '.join(runner_isas)}")

    for key, base in sorted(base_legs.items()):
        kernel, isa, threads, weighting, sampler, departures = key
        label = f"kernel={kernel:<6} isa={isa:<6} threads={threads}"
        if weighting != "unit" or sampler != "uniform":
            label += f" weighting={weighting} sampler={sampler}"
        if departures != "none":
            label += f" departures={departures}"
        if (runner_isas is not None and isa not in ("none",)
                and isa not in runner_isas):
            print(f"  SKIP {label}: this runner's CPU does not support "
                  f"{isa} (supports: {', '.join(runner_isas)})")
            continue
        if key not in fresh_legs:
            print(f"  SKIP {label}: leg missing from fresh results")
            continue
        if runner_cores and threads > runner_cores:
            print(f"  SKIP {label}: leg needs {threads} threads but the runner "
                  f"has {runner_cores}; oversubscribed timings are not gateable")
            continue
        base_rate = base["balls_per_sec"]
        fresh_rate = fresh_legs[key]["balls_per_sec"]
        ratio = fresh_rate / base_rate
        verdict = "ok" if ratio >= floor else "REGRESSION"
        print(f"  {verdict:<10} {label}: {fresh_rate:.3e} vs baseline "
              f"{base_rate:.3e} balls/s ({ratio:.0%}; "
              f"cv {cv_text(fresh_legs[key])} vs {cv_text(base)})")
        if ratio < floor:
            failures.append(label)

    for key in sorted(set(fresh_legs) - set(base_legs)):
        print(f"  NOTE new leg not in baseline: kernel={key[0]} isa={key[1]} threads={key[2]} "
              f"weighting={key[3]} sampler={key[4]} departures={key[5]}")

    # Headline speedup ratios are machine-independent-ish (same run, same
    # machine, two legs) but NOT scale-independent: at smoke scale the
    # serial fused loop is cache-resident and fast, at paper scale it is
    # DRAM-bound, so ratios over the fused leg shift with (n, m) even on
    # identical hardware.  Gate them only when both files ran the same
    # scale; a cross-scale comparison is skipped like any other
    # ungateable leg (the per-leg rate checks above still apply at every
    # scale and are what catch a broken fast path).
    same_scale = (baseline.get("n"), baseline.get("m")) == (fresh.get("n"), fresh.get("m"))
    for ratio_key in ("kernel_vs_fused_speedup", "shard_vs_fused_speedup"):
        if ratio_key not in baseline or ratio_key not in fresh:
            continue
        ratio = fresh[ratio_key] / baseline[ratio_key]
        if not same_scale:
            print(f"  SKIP {ratio_key}: {fresh[ratio_key]:.2f}x vs baseline "
                  f"{baseline[ratio_key]:.2f}x -- baseline scale "
                  f"n={baseline.get('n')}/m={baseline.get('m')} differs from fresh "
                  f"n={fresh.get('n')}/m={fresh.get('m')}; speedup-over-fused ratios "
                  f"are scale-dependent and not gateable across scales")
            continue
        verdict = "ok" if ratio >= floor else "REGRESSION"
        print(f"  {verdict:<10} {ratio_key}: {fresh[ratio_key]:.2f}x vs baseline "
              f"{baseline[ratio_key]:.2f}x ({ratio:.0%})")
        if ratio < floor:
            failures.append(ratio_key)

    if failures:
        print(f"FAILED: {len(failures)} regression(s): {', '.join(failures)}")
        return 1
    print("PASSED: no leg regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
