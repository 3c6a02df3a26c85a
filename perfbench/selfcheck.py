#!/usr/bin/env python3
"""Toy-size self-check of the benchmark.

Runs every workload at tiny problem sizes through perfbench/run.py, in both
modes, and checks that

  * the last stdout line is one JSON object with exactly the keys correct,
    attempted, failed and metrics, and the run's output checks pass;
  * every metric BENCHMARK.json names for that mode (end_to_end untraced,
    per_layer traced) is emitted exactly once, with its unit, and nothing
    else is;
  * a run with one deliberately corrupted expectation (--corrupt) reports
    failed > 0, i.e. the output checks can fail.

    python3 perfbench/selfcheck.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def pairs_no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    duplicates = {k for k in keys if keys.count(k) > 1}
    if duplicates:
        raise ValueError(f"duplicate keys {sorted(duplicates)}")
    return dict(pairs)


def run(workload, trace, corrupt=False):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--toy"]
    if corrupt:
        cmd.append("--corrupt")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1], object_pairs_hook=pairs_no_duplicates)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    # noisy_campaign is not in BENCHMARK.json (too unsteady to gate on) but
    # stays runnable, so it is checked too.
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in ["noisy_campaign"] + [w for w in workloads if w != "noisy_campaign"]:
        for trace in (0, 1):
            label = f"{workload} trace {trace}"
            try:
                result = run(workload, trace)
            except (RuntimeError, ValueError) as e:
                problems.append(f"{label}: {e}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: output checks did not pass: {result}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(k for k in got.keys() & expected[trace].keys()
                               if got[k] != expected[trace][k])
                problems.append(f"{label}: missing {missing}, unexpected {extra}, "
                                f"wrong units {units}")
            print(f"ok   {label}: {len(got)} metrics, {result['attempted']} checks")
        try:
            corrupted = run(workload, 0, corrupt=True)
        except (RuntimeError, ValueError) as e:
            problems.append(f"{workload} corrupt: {e}")
            continue
        if corrupted["failed"] < 1 or corrupted["correct"]:
            problems.append(f"{workload}: the corrupted expectation was not caught")
        else:
            print(f"ok   {workload} corrupt: fail_frac "
                  f"{corrupted['failed'] / corrupted['attempted']:.3f}")
    for p in problems:
        print(f"FAIL {p}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
