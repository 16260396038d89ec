#!/usr/bin/env python3
"""Steadiness sweep: run workloads repeatedly over several seeds and report spread.

    python3 perfbench/sweep.py --workloads count query --seeds 1 2 3 4 5 \\
        [--seconds S] [--out results.json] [--against earlier.json]

Each (workload, seed) pair is one run of ``perfbench/run.py --trace 0``, one
at a time.  For every end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the IQR as a
share of the median next to the metric's bound in BENCHMARK.json; a spread
at or above the bound is marked FAIL, one above a third of it "wide".  With
``--against`` it also compares each median with the earlier sweep's and
marks a change for the worse larger than the bound.  Exits 1 if any run
failed or any check is marked FAIL.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "info": info, **result}


def summarize(runs: list[dict], spec: dict, against: list[dict] | None) -> bool:
    ok = True
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        failed = sum(r["failed"] for r in mine)
        digests = {r["seed"]: r["info"]["digest"][:12] for r in mine}
        print(f"{workload}: {len(mine)} runs, failed jobs {failed}, digests {digests}")
        ok &= failed == 0 and all(r["correct"] for r in mine)
        for name, metric in bounds.items():
            values = [r["metrics"][name]["value"] for r in mine]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            bound = metric["bound"]
            verdict = "ok" if spread < bound / 3 else ("wide" if spread < bound else "FAIL")
            if name != "setup_s":
                ok &= verdict != "FAIL"
            line = (
                f"  {name:<12} median {med:10.4f} q1 {q1:10.4f} q3 {q3:10.4f}"
                f"  iqr/median {spread:6.3f}  bound {bound:.2f}  {verdict}"
            )
            if against:
                old = [r["metrics"][name]["value"] for r in against if r["workload"] == workload]
                if old:
                    old_med = statistics.median(old)
                    change = (med - old_med) / old_med
                    worse = change if metric["better"] == "lower" else -change
                    line += f"  vs earlier {old_med:10.4f} ({change:+.3f}) {'WORSE' if worse > bound else 'same'}"
                    ok &= worse <= bound
            print(line)
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=None, help="write the raw runs here as JSON")
    parser.add_argument("--against", type=Path, default=None, help="an earlier --out file to compare medians with")
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("give at least two seeds")

    runs = []
    for workload in args.workloads:
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.seconds))
            m = runs[-1]["metrics"]
            print(
                f"# {workload} seed {seed}: "
                + " ".join(f"{k}={v['value']:.4g}" for k, v in m.items())
                + f" ref_ms={runs[-1]['info']['host.ref_ms']:.3f}",
                flush=True,
            )
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1))
    against = json.loads(args.against.read_text()) if args.against else None
    return 0 if summarize(runs, spec, against) else 1


if __name__ == "__main__":
    sys.exit(main())
