#!/usr/bin/env python3
"""permemc benchmark runner.

    python3 perfbench/run.py --workload {count,decompose,query,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` it times jobs for S seconds and prints the end-to-end
metrics; with ``--trace 1`` it runs a fixed set of jobs untraced and then
traced, in rounds for about S seconds, and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries diagnostics (versions, digest, raw wall time, host reference time).

Every timed job is bracketed by a short reference loop, and times are
reported drift-corrected: T x R0 / R, where T is the CPU time of the job
(the benchmark's thread for in-process jobs; the child plus the parent's
spawning thread for ``cli``), R is the mean of the two bracketing
reference-loop CPU times and R0 is the constant ``R0_MS``.  On a shared host
the CPU's speed drifts by tens of percent within minutes, which R follows,
and a job's wall time also includes waits for a CPU, which no reference
loop sees; CPU time leaves those out.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

PINNED_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Reference-loop CPU time (ms) that corrected times are scaled to.
R0_MS = 0.5
REF_ITERS = 1500
SETUP_REPEATS = 7
WARMUP_INDEX = 10**6

END_TO_END = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("counting.self_ms", "ms"),
    ("counting.calls", "count"),
    ("counting.failed", "count"),
    ("counting.permanent_ryser.self_ms", "ms"),
    ("counting.permanent_ryser.calls", "count"),
    ("counting.ryser_steps", "count"),
    ("counting.ryser_ns_per_step", "ns"),
    ("counting.board_prep.self_ms", "ms"),
    ("counting.closed_forms.self_ms", "ms"),
    ("spread.self_ms", "ms"),
    ("spread.calls", "count"),
    ("spread.failed", "count"),
    ("spread.max_ratio_set.self_ms", "ms"),
    ("spread.max_ratio_set.calls", "count"),
    ("spread.spread_approximate.self_ms", "ms"),
    ("spread.verify_approximation.self_ms", "ms"),
    ("spread.supports", "count"),
    ("spread.support_yield", "ratio"),
    ("spread.is_r_spread.self_ms", "ms"),
    ("spread.exact_spreadness.self_ms", "ms"),
    ("spread.is_rq_spread.self_ms", "ms"),
    ("spread.subsets", "count"),
    ("solvers.self_ms", "ms"),
    ("solvers.calls", "count"),
    ("solvers.failed", "count"),
    ("solvers.matching_number.self_ms", "ms"),
    ("solvers.covering_number.self_ms", "ms"),
    ("solvers.coset_certificate.self_ms", "ms"),
    ("solvers.star_union_slack_sides.self_ms", "ms"),
    ("core.self_ms", "ms"),
    ("core.calls", "count"),
    ("core.failed", "count"),
    ("core.family_builds", "count"),
    ("core.family_build.self_ms", "ms"),
    ("core.subfamily_containing.self_ms", "ms"),
    ("core.enumerate_family.self_ms", "ms"),
    ("core.contains.calls", "count"),
    ("core.contains.self_ms", "ms"),
    ("construct.self_ms", "ms"),
    ("construct.calls", "count"),
    ("construct.make_hm_star_union.self_ms", "ms"),
    ("construct.apply_isomorphism.self_ms", "ms"),
    ("io.self_ms", "ms"),
    ("io.parse_family.self_ms", "ms"),
    ("io.parse_matrix.self_ms", "ms"),
    ("io.family_json.self_ms", "ms"),
    ("cli.child_ms", "ms"),
    ("cli.startup_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("cli.failed", "count"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
    ("host.ref_ms", "ms"),
    ("host.wall_job_p50_ms", "ms"),
    ("share.counting", "%"),
    ("share.spread", "%"),
    ("share.solvers", "%"),
    ("share.core", "%"),
    ("share.construct", "%"),
    ("share.io", "%"),
    ("share.cli", "%"),
]

# Per-layer metrics that sum the self time of several spans.
SPAN_GROUPS = {
    "counting.board_prep.self_ms": ("counting._reduced_forbidden_matrix", "counting._rows_of"),
    "counting.closed_forms.self_ms": (
        "counting.derangement_count",
        "counting.derangement_count_inclusion_exclusion",
        "counting.round_factorial_over_e",
        "counting.pointed_derangement_count",
    ),
}

# Work counters repeated exactly for a given seed (per-job means over whole rounds).
EXACT_COUNTERS = (
    "counting.ryser_steps",
    "spread.subsets",
    "spread.max_ratio_set.calls",
    "core.family_builds",
    "core.contains.calls",
)


def _ref_body() -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(REF_ITERS):
        k = i & 63
        table[k] = table.get(k, 0) + i * i
        acc ^= table[k] >> (i & 7)
    return acc


def reference_ms() -> float:
    """Median of three CPU-time measurements of the fixed reference loop, in ms."""
    times = []
    for _ in range(3):
        t0 = time.thread_time()
        _ref_body()
        times.append(time.thread_time() - t0)
    times.sort()
    return times[1] * 1000.0


def tail(values: list[float]) -> tuple[float, int]:
    """(value, percentile) at the highest whole percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    pct = (100 * (n - 10)) // n
    return ordered[max(math.ceil(pct * n / 100) - 1, 0)], pct


def time_job(wl, inp, tracer=None) -> dict:
    """Run and check one job; the reference loop brackets the timed call only."""
    r1 = reference_ms()
    t0, c0 = time.perf_counter(), time.thread_time()
    out, problems = None, []
    try:
        out = wl.run(inp, tracer)
    except Exception as exc:  # a failing job is counted, not fatal
        problems = [f"{type(exc).__name__}: {exc}"]
    cpu_ms = (time.thread_time() - c0) * 1000.0
    wall_ms = (time.perf_counter() - t0) * 1000.0
    r2 = reference_ms()
    if out is not None and not wl.in_process:
        cpu_ms += out["child_cpu_s"] * 1000.0
    if not problems:
        try:
            problems = wl.check(inp, out)
        except Exception as exc:  # a malformed output is a failed job
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    ref = (r1 + r2) / 2
    return {"out": out, "problems": problems, "wall_ms": wall_ms, "ref_ms": ref, "ms": cpu_ms * R0_MS / ref}


def measure_setup(name: str, seed: int, workdir: Path) -> list[float]:
    """Drift-corrected CPU seconds from a fresh interpreter to ready inputs, per repeat."""
    from workloads import child_env, wait_child

    env = child_env(ROOT)
    samples = []
    for k in range(SETUP_REPEATS + 1):
        child_dir = workdir / f"setup{k}"
        child_dir.mkdir(parents=True)
        argv = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", name]
        argv += ["--seed", str(seed), "--workdir", str(child_dir)]
        r1 = reference_ms()
        c0 = time.thread_time()
        code, usage = wait_child(argv, env, ROOT, workdir / "setup.out", workdir / "setup.err")
        cpu_s = time.thread_time() - c0 + usage.ru_utime + usage.ru_stime
        r2 = reference_ms()
        if code != 0:
            raise RuntimeError("set-up child failed:\n" + (workdir / "setup.err").read_text())
        if k:  # the first child only fills the byte-code caches
            samples.append(cpu_s * R0_MS / ((r1 + r2) / 2))
        shutil.rmtree(child_dir)
    return samples


def canonical(wl, rec: dict):
    return None if rec["problems"] else wl.canonical(rec["out"])


def digest(canon: list) -> str:
    return hashlib.sha256(json.dumps(canon, sort_keys=True).encode()).hexdigest()


def end_to_end(wl, args, workdir: Path) -> tuple[list[dict], dict, dict]:
    setup_samples = measure_setup(wl.name, args.seed, workdir)
    wl.setup(args.seed, workdir)
    wl.prepare_oracle()
    gc.collect()
    gc.freeze()
    time_job(wl, wl.job_input(WARMUP_INDEX))

    records, canon = [], []
    deadline = time.perf_counter() + args.seconds
    while len(records) < wl.trace_jobs or len(records) % wl.block or time.perf_counter() < deadline:
        rec = time_job(wl, wl.job_input(len(records)))
        if len(records) < wl.trace_jobs:
            canon.append(canonical(wl, rec))
        del rec["out"]  # keep no outputs, so peak_rss_mb is not the benchmark's own records
        records.append(rec)
    job_ms = [r["ms"] for r in records]
    tail_ms, tail_pct = tail(job_ms)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "jobs_per_s": 1000.0 * len(job_ms) / sum(job_ms),
        "job_p50_ms": statistics.median(job_ms),
        "job_tail_ms": tail_ms,
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    info = {
        "job_tail_percentile": tail_pct,
        "job_samples": len(job_ms),
        "setup_s_samples": setup_samples,
        "host.ref_ms": statistics.mean(r["ref_ms"] for r in records),
        "host.wall_job_p50_ms": statistics.median(r["wall_ms"] for r in records),
        "digest": digest(canon),
    }
    return records, metrics, info


def _job_layers(rec: dict, delta: dict, cli_trace: dict | None) -> dict:
    """One traced job's layer data, with times drift-corrected to ms."""
    f = 1000.0 * R0_MS / rec["ref_ms"]
    job = {
        "ms": rec["ms"],
        "self_ms": {k: v * f for k, v in delta["self_s"].items()},
        "calls": delta["calls"],
        "failed": delta["failed"],
        "counters": delta["counters"],
        "covered_ms": delta["top_level_s"] * f,
        "cli": None,
    }
    if cli_trace is not None:
        startup, imported = cli_trace["startup_s"] * f, cli_trace["import_s"] * f
        job["covered_ms"] += startup + imported
        job["cli"] = {"startup": startup, "import": imported, "failed": int(rec["out"]["code"] != 0)}
    return job


def per_layer(wl, args, workdir: Path) -> tuple[list[dict], dict, dict]:
    from tracer import LAYERS, Tracer, diff

    wl.setup(args.seed, workdir)
    wl.prepare_oracle()
    gc.collect()
    gc.freeze()
    time_job(wl, wl.job_input(WARMUP_INDEX))

    tracer = Tracer()
    untraced, traced, jobs = [], [], []
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        untraced += [time_job(wl, wl.job_input(i)) for i in range(wl.trace_jobs)]
        if wl.in_process:
            tracer.install()
        try:
            for i in range(wl.trace_jobs):
                tracer.job = [rounds, i]
                before = tracer.snapshot()
                rec = time_job(wl, wl.job_input(i), tracer)
                traced.append(rec)
                cli_trace = None if wl.in_process or rec["out"] is None else rec["out"]["trace"]
                if cli_trace is not None:
                    tracer.spans += [(*s[:5], [rounds, i]) for s in cli_trace["spans"]]
                    delta = cli_trace
                else:
                    delta = diff(tracer.snapshot(), before)
                jobs.append(_job_layers(rec, delta, cli_trace))
        finally:
            tracer.uninstall()
        rounds += 1

    m = len(jobs)
    self_ms, calls, failed, counters = {}, {}, {}, {}
    for job in jobs:
        for total, part in ((self_ms, job["self_ms"]), (calls, job["calls"]), (failed, job["failed"]), (counters, job["counters"])):
            for k, v in part.items():
                total[k] = total.get(k, 0) + v

    def span_ms(*names):
        return sum(self_ms.get(n, 0.0) for n in names) / m

    def layer_sum(table, layer):
        return sum(v for k, v in table.items() if k.startswith(layer + ".")) / m

    job_ms = sum(j["ms"] for j in jobs) / m
    cli_jobs = [j["cli"] for j in jobs if j["cli"] is not None]
    startup_ms = sum(c["startup"] for c in cli_jobs) / m
    import_ms = sum(c["import"] for c in cli_jobs) / m
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = layer_sum(self_ms, layer)
        metrics[f"{layer}.calls"] = layer_sum(calls, layer)
        metrics[f"{layer}.failed"] = layer_sum(failed, layer)
    ryser_steps = counters.get("counting.ryser_steps", 0)
    max_ratio_calls = calls.get("spread.max_ratio_set", 0)
    metrics.update(
        {
            "counting.ryser_steps": ryser_steps / m,
            "counting.ryser_ns_per_step": (
                1e6 * self_ms.get("counting.permanent_ryser", 0.0) / ryser_steps if ryser_steps else 0.0
            ),
            "spread.supports": counters.get("spread.supports", 0) / m,
            "spread.support_yield": (
                counters.get("spread.supports", 0) / max_ratio_calls if max_ratio_calls else 0.0
            ),
            "spread.subsets": counters.get("spread.subsets", 0) / m,
            "core.family_builds": calls.get("core.family_build", 0) / m,
            "cli.child_ms": job_ms if cli_jobs else 0.0,
            "cli.startup_ms": startup_ms,
            "cli.import_ms": import_ms,
            "cli.failed": sum(c["failed"] for c in cli_jobs) / m,
            "trace.overhead": (
                statistics.mean(r["ms"] for r in untraced) / statistics.mean(r["ms"] for r in traced)
            ),
            "trace.coverage": sum(j["covered_ms"] for j in jobs) / m / job_ms,
            "host.ref_ms": statistics.mean(r["ref_ms"] for r in untraced + traced),
            "host.wall_job_p50_ms": statistics.median(r["wall_ms"] for r in untraced),
        }
    )
    for name, _ in PER_LAYER:
        head, _, tail_name = name.rpartition(".")
        if name in metrics:
            continue
        if name in SPAN_GROUPS:
            metrics[name] = span_ms(*SPAN_GROUPS[name])
        elif tail_name == "self_ms":
            metrics[name] = span_ms(head)
        elif tail_name == "calls":
            metrics[name] = calls.get(head, 0) / m
    for layer in LAYERS:
        extra = startup_ms + import_ms if layer == "cli" else 0.0
        metrics[f"share.{layer}"] = 100.0 * (metrics[f"{layer}.self_ms"] + extra) / job_ms

    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{wl.name}-s{args.seed}.json"
    spans_path.write_text(json.dumps({"fields": ["id", "parent", "name", "start", "end", "job"], "spans": tracer.spans}))
    info = {
        "rounds": rounds,
        "traced_jobs": m,
        "exact_counters": {k: metrics[k] for k in EXACT_COUNTERS},
        "spans_file": str(spans_path.relative_to(ROOT)),
        "digest": digest([canonical(wl, r) for r in untraced[: wl.trace_jobs]]),
    }
    missing = [n for n, _ in PER_LAYER if n not in metrics]
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {missing}")
    return untraced + traced, {k: metrics[k] for k, _ in PER_LAYER}, info


def print_layer_table(metrics: dict) -> None:
    for layer in ("counting", "spread", "solvers", "core", "construct", "io"):
        print(f"  {layer:<10} self {metrics[f'{layer}.self_ms']:9.2f} ms/job  share {metrics[f'share.{layer}']:5.1f} %")
    cli_ms = metrics["cli.startup_ms"] + metrics["cli.import_ms"] + metrics["cli.main.self_ms"]
    print(f"  {'cli':<10} self {cli_ms:9.2f} ms/job  share {metrics['share.cli']:5.1f} %  (start-up + import + main)")
    print(f"  coverage {metrics['trace.coverage']:.3f}  overhead (traced/untraced jobs_per_s) {metrics['trace.overhead']:.3f}")


def versions() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__, "nproc": os.cpu_count()}


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "permemc" / "__init__.py").is_file():
        print(f"perfbench: no program found at {SRC / 'permemc'}", file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        env = dict(os.environ, **PINNED_ENV)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)
    # One CPU for this process and its children, so that the reference loop
    # runs on the CPU that does the timed work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import permemc

    if not Path(permemc.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: permemc imported from {permemc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    args = parse_args(argv)
    wl = workloads.make(args.workload, ROOT)
    if args.setup_only:
        wl.setup(args.seed, Path(args.workdir))
        return 0

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            records, metrics, info = per_layer(wl, args, workdir)
        else:
            records, metrics, info = end_to_end(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = dict(END_TO_END + PER_LAYER)
    failed = [r for r in records if r["problems"]]
    for r in failed[:5]:
        print("perfbench: failed job:", "; ".join(r["problems"]), file=sys.stderr)
    if args.trace:
        print_layer_table(metrics)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **versions(), **info}))
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(records),
                "failed": len(failed),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
