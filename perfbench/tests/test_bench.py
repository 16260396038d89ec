"""Smoke tests of the benchmark itself: oracles, failure counting, tracing, spec.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import permemc  # noqa: E402
import permemc.counting  # noqa: E402


def brute_permanent(rows):
    n = len(rows)
    return sum(all(rows[i][p[i]] for i in range(n)) for p in itertools.permutations(range(n)))


def test_derangement_numbers():
    assert [oracles.derangement_number(n) for n in range(8)] == [1, 0, 1, 2, 9, 44, 265, 1854]


@pytest.mark.parametrize("seed", range(30))
def test_independent_permanents_agree_with_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    dense = [[int(rng.random() < 0.7) for _ in range(n)] for _ in range(n)]
    assert oracles.subset_dp_permanent(dense) == brute_permanent(dense)
    # at most two zeros per row and column: the union of two permutation boards
    a, b = rng.sample(range(n), n), rng.sample(range(n), n)
    board = [[0 if j in (a[i], b[i]) else 1 for j in range(n)] for i in range(n)]
    assert oracles.rook_permanent(board) == brute_permanent(board)


def test_relabelling_matches_the_program():
    rng = random.Random(5)
    fam = permemc.make_hm(5, (2, 1, 3, 4, 5))
    rho, pi = tuple(rng.sample(range(1, 6), 5)), tuple(rng.sample(range(1, 6), 5))
    expected = permemc.apply_isomorphism(rho, fam, pi)
    assert {oracles.relabel(rho, p, pi) for p in fam.members} == set(expected.members)
    assert oracles.cell_image(rho, (2, 4), pi) == permemc.star_center_image(rho, (2, 4), pi)


def test_corrupted_count_output_is_counted_as_failed(monkeypatch):
    wl = workloads.make("count", ROOT)
    wl.setup(seed=3, workdir=None)
    wl.prepare_oracle()
    inp = wl.job_input(0)
    assert run.time_job(wl, inp)["problems"] == []

    original = permemc.counting.permanent_ryser
    monkeypatch.setattr(permemc.counting, "permanent_ryser", lambda m: original(m) + 1)
    rec = run.time_job(wl, inp)
    assert rec["problems"], "a wrong permanent must fail the job"


def test_corrupted_query_output_is_counted_as_failed():
    wl = workloads.make("query", ROOT)
    wl.setup(seed=3, workdir=None)
    wl.prepare_oracle()
    inp = wl.job_input(0)
    out = wl.run(inp)
    assert wl.check(inp, out) == []
    nu, witness = out["nu"]
    out["nu"] = (nu, (witness[0], witness[0]))
    assert wl.check(inp, out)


def test_raising_job_is_counted_as_failed(monkeypatch):
    wl = workloads.make("count", ROOT)
    wl.setup(seed=3, workdir=None)
    wl.prepare_oracle()

    def broken(*args, **kwargs):
        raise ValueError("broken on purpose")

    monkeypatch.setattr(permemc.counting, "derangement_count", broken)
    assert run.time_job(wl, wl.job_input(1))["problems"] == ["ValueError: broken on purpose"]


def test_tracer_nests_cross_layer_calls_and_uninstalls():
    import permemc.core
    import permemc.spread

    original = permemc.spread.subfamily_containing
    tracer = Tracer()
    tracer.install()
    try:
        tracer.job = 0
        fam = permemc.make_star(4, (1, 1))
        permemc.spread.spread_approximate(fam, permemc.symmetric_group(4), 3, 2)
    finally:
        tracer.uninstall()
    assert permemc.spread.subfamily_containing is original
    assert permemc.core.subfamily_containing is original
    names = {s[0]: s[2] for s in tracer.spans}
    nested = [s for s in tracer.spans if s[2] == "core.subfamily_containing"]
    assert nested and all(names[s[1]] == "spread.spread_approximate" for s in nested)
    snap = tracer.snapshot()
    assert snap["calls"]["spread.max_ratio_set"] == snap["counters"]["spread.supports"]
    assert snap["top_level_s"] <= sum(snap["self_s"].values()) + 1e-9


def test_spec_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 101))
    value, pct = run.tail(values)
    assert pct == 90 and sum(v > value for v in values) >= 10
