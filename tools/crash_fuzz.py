#!/usr/bin/env python3
"""Crash-fault injection harness for the campaign checkpoint/restore path.

Runs the `campaign` example with journaling + mid-run checkpoints, SIGKILLs
it at a randomized ball count via the NB_CRASH_AFTER_BALLS hook (the process
raises SIGKILL against itself -- no destructors, no flushes), then resumes
with `--resume` -- possibly killing the resumed run again at a fresh random
point -- until a run completes.  The surviving aggregate JSON must be
byte-identical to an uninterrupted reference run, and no per-cell
checkpoint files may remain.

    $ python3 tools/crash_fuzz.py --binary build/campaign --trials 10

With --departures the registry-backed cells run as steady-state churn
cells (warm-up + arrival/departure pairs), so the kill points also land
mid-churn with the lease ring / occupancy counter in flight.  --churn
passes the churn occupancy through (default: m resident balls), e.g.
--churn N for occupancy n, where every drain block drains each resident
ball and the multi-shard settle clamps and re-serves.

--kernel, --threads-per-run and --shards pass through to the
campaign's engine flags, so the kill points can land inside the windowed
engine's one-shard (--kernel scalar) or multi-shard (--threads-per-run 2
--shards 4) windows and departure blocks; pick --n >= 8192 so b-Batch
windows clear the engine's min_window.

Exit status 0 iff every trial produced byte-identical output.
"""

import argparse
import glob
import os
import random
import shutil
import subprocess
import sys
import tempfile

SIGKILL_STATUS = -9  # subprocess reports a SIGKILLed child as -SIGKILL


def campaign_cmd(binary, args, json_path, journal=None, resume=False):
    cmd = [
        binary,
        "--n", str(args.n),
        "--m-mult", str(args.m_mult),
        "--runs", str(args.runs),
        "--seed", str(args.campaign_seed),
        "--threads", str(args.threads),
        "--json", json_path,
    ]
    if args.departures != "none":
        cmd += ["--departures", args.departures]
    if args.churn is not None:
        cmd += ["--churn", str(args.churn)]
    for flag in ("kernel", "threads_per_run", "shards"):
        value = getattr(args, flag)
        if value is not None:
            cmd += ["--" + flag.replace("_", "-"), str(value)]
    if journal is not None:
        cmd += ["--journal", journal, "--checkpoint-every", str(args.checkpoint_every)]
    if resume:
        cmd.append("--resume")
    return cmd


def run_campaign(cmd, crash_after=None):
    env = os.environ.copy()
    env.pop("NB_CRASH_AFTER_BALLS", None)
    if crash_after is not None:
        env["NB_CRASH_AFTER_BALLS"] = str(crash_after)
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT)
    return proc.returncode, proc.stdout.decode(errors="replace")


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def one_trial(trial, args, binary, reference, workdir):
    journal = os.path.join(workdir, "campaign.jsonl")
    json_path = os.path.join(workdir, "campaign.json")
    kills = 0
    attempts = 0
    resume = False
    while True:
        attempts += 1
        if attempts > args.max_resumes:
            print(f"trial {trial}: FAIL -- no completion after "
                  f"{args.max_resumes} resume attempts", flush=True)
            return False
        # Keep injecting fresh random kill points on resume too, but give
        # the last few attempts a clean run so the trial always terminates.
        crash_after = None
        if attempts <= args.max_resumes - 2:
            crash_after = random.randint(1, args.total_balls)
        cmd = campaign_cmd(binary, args, json_path, journal, resume=resume)
        status, output = run_campaign(cmd, crash_after)
        if status == 0:
            break
        if status != SIGKILL_STATUS:
            print(f"trial {trial}: FAIL -- unexpected exit {status} "
                  f"(crash_after={crash_after}):\n{output}", flush=True)
            return False
        kills += 1
        resume = True

    produced = read_bytes(json_path)
    if produced != reference:
        print(f"trial {trial}: FAIL -- resumed aggregate JSON differs from "
              f"uninterrupted reference after {kills} kill(s)", flush=True)
        return False
    leftovers = glob.glob(journal + ".cell*.ckpt")
    if leftovers:
        print(f"trial {trial}: FAIL -- stale checkpoint files after "
              f"completion: {leftovers}", flush=True)
        return False
    print(f"trial {trial}: ok ({kills} kill(s), {attempts} run(s), "
          f"byte-identical)", flush=True)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--binary", required=True,
                        help="path to the built campaign example")
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--seed", type=int, default=20220713,
                        help="fuzzer RNG seed (crash points)")
    parser.add_argument("--n", type=int, default=200)
    parser.add_argument("--m-mult", type=int, default=20)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--campaign-seed", type=int, default=2022)
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--checkpoint-every", type=int, default=500)
    parser.add_argument("--departures", default="none",
                        help="departure channel for the registry-backed cells "
                             "(none | random | lease | drain); non-none runs "
                             "them as steady-state churn cells")
    parser.add_argument("--churn", type=int, default=None,
                        help="campaign --churn: churn occupancy of the churn "
                             "cells (default m)")
    parser.add_argument("--kernel", default=None,
                        help="campaign --kernel backend (off | scalar | simd | ...)")
    parser.add_argument("--threads-per-run", type=int, default=None,
                        help="campaign --threads-per-run (windowed engine workers)")
    parser.add_argument("--shards", type=int, default=None,
                        help="campaign --shards (sampling contract)")
    parser.add_argument("--max-resumes", type=int, default=40)
    args = parser.parse_args()

    binary = os.path.abspath(args.binary)
    if not os.path.exists(binary):
        print(f"error: no such binary: {binary}")
        return 2
    # The campaign example sweeps 9 configs (6 noise-grid + 2 batch + 1
    # factory); kill points are drawn from the whole campaign's ball span.
    # A churn cell's progress span is occupancy + 2 * events, 3m at the
    # default occupancy m (the factory cell stays insertion-only at m), vs
    # m for a plain cell.
    m = args.n * args.m_mult
    per_cell = m
    if args.departures != "none":
        per_cell = (args.churn or m) + 2 * m
    args.total_balls = args.runs * (8 * per_cell + args.n * args.m_mult)
    random.seed(args.seed)

    root = tempfile.mkdtemp(prefix="nb_crash_fuzz_")
    try:
        ref_json = os.path.join(root, "reference.json")
        status, output = run_campaign(campaign_cmd(binary, args, ref_json))
        if status != 0:
            print(f"error: reference run failed ({status}):\n{output}")
            return 2
        reference = read_bytes(ref_json)

        failures = 0
        for trial in range(1, args.trials + 1):
            workdir = os.path.join(root, f"trial{trial}")
            os.makedirs(workdir)
            if not one_trial(trial, args, binary, reference, workdir):
                failures += 1
        if failures:
            print(f"crash fuzz: {failures}/{args.trials} trial(s) FAILED")
            return 1
        print(f"crash fuzz: all {args.trials} trials byte-identical "
              f"after SIGKILL + resume")
        return 0
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
