#!/usr/bin/env python3
"""Run perfbench on several seeds per workload and report the spread.

    python3 perfbench/spread.py [--workloads a,b] [--runs 10]
                                [--first-seed 0x5eed] [--same-seed]
                                [--trace 0|1]
                                [--record perfbench/records/<name>.json]

Run i uses seed first-seed + i (the default seed first, so its digests
are checked), or first-seed every time with --same-seed.  For each
end-to-end metric of each workload it prints the median of the runs and
the distance between their first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, and flags
a spread above a third of the metric's bound in BENCHMARK.json.  With
--record it also writes every run's values, stamped with the git SHA,
a hash of the benchmark's sources (so a record made before its commit
can be matched to it), and the CPU model and nproc of the machine.
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git(*args):
    try:
        out = subprocess.run(["git", "-C", ROOT] + list(args),
                             capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None
    except OSError:
        return None


def source_hash():
    """SHA-256 over BENCHMARK.json and the benchmark's sources, records
    excluded, in path order."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "BENCHMARK.json")]
    for d, dirs, names in os.walk(HERE):
        dirs[:] = sorted(x for x in dirs
                         if x not in ("records", "__pycache__"))
        files += [os.path.join(d, n) for n in sorted(names)]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def run_once(workload, seed, seconds, trace):
    """One benchmark run; @return (result dict, wall seconds)."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", trace], capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s seed %s failed (exit %d)"
                         % (workload, seed, proc.returncode))
    return json.loads(lines[-1]), wall


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=lambda s: int(s, 0),
                    default=0x5eed)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--record")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    record = {
        "git_sha": git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(git("status", "--porcelain")),
        "source_sha256": source_hash(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "date_utc": datetime.datetime.now(datetime.timezone.utc)
                    .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "run_seconds": bench["run_seconds"],
        "trace": int(args.trace),
        "workloads": {},
    }
    steady = True
    for workload in args.workloads.split(","):
        step = 0 if args.same_seed else 1
        seeds = [args.first_seed + step * i for i in range(args.runs)]
        values, walls = {}, []
        for seed in seeds:
            result, wall = run_once(workload, seed, bench["run_seconds"],
                                    args.trace)
            walls.append(round(wall, 2))
            if not result["correct"] or result["failed"]:
                raise SystemExit("%s seed %d: %r" % (workload, seed, result))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        stats = {}
        for name, vals in values.items():
            entry = {"values": vals}
            if len(vals) >= 2:
                q1, med, q3 = statistics.quantiles(vals, n=4)
                med = statistics.median(vals)
                spread = (q3 - q1) / med if med else 0.0
                entry.update(median=med, q1=q1, q3=q3, spread=spread)
                bound = bounds.get(name)
                flag = ""
                if bound is not None:
                    entry["bound"] = bound
                    if spread > bound / 3:
                        flag = "  <-- above bound/3"
                        steady = False
                print("%-24s %-20s median %-10.5g spread %.4f%s  %s"
                      % (workload, name, med, spread, flag,
                         " ".join("%.4g" % v for v in vals)))
            stats[name] = entry
        print("%-24s run wall seconds %s" % (workload, walls))
        record["workloads"][workload] = {"seeds": seeds, "wall_s": walls,
                                         "metrics": stats}
    if args.record:
        os.makedirs(os.path.dirname(os.path.abspath(args.record)),
                    exist_ok=True)
        with open(args.record, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
