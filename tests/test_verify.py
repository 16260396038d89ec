"""Each ``verify`` check below notices a plausible fault in the kernel it
reads: with the kernel monkeypatched to a wrong answer, the check reports
``fail`` and every other check of its suite keeps its status."""

import pytest

from permemc import core, counting, spread, verify
from permemc.core import Family


def _statuses(suite):
    checks = verify.run_suite(suite, 0)["checks"]
    statuses = {chk["id"]: chk["status"] for chk in checks}
    assert len(statuses) == len(checks)
    return statuses


def _overlapping(real):
    """``spread_approximate`` that also files the first extracted member as
    a branch of its own, under its whole graph: the branches overlap, while
    the supports and the remainder stay as they were and the new branch's
    trace (one empty residue) is spread."""

    def faulty(fam, ambient, r, q):
        res = real(fam, ambient, r, q)
        if not res.branches:
            return res
        member = next(iter(res.branches.values())).members[0]
        branches = {**res.branches, core.graph(member): Family(fam.n, [member])}
        return spread.ApproximationResult(res.supports, res.remainder, branches, res.stop_set)

    return faulty


def _cut_from_the_root(real):
    """``subfamily_containing`` that cuts from the family's root, so a branch
    also takes members that an earlier branch already holds."""
    return lambda fam, cells: real(core._root(fam)[0], cells)


def _trace_dropping_one(real):
    """``core.trace`` that loses its last residue on families of more than 24 members."""
    return lambda fam, cells: real(fam, cells)[: -1 if len(fam) > 24 else None]


def _measuring_the_empty_support(real):
    """``verify_approximation`` that reports supports holding the empty set
    as measured: their ν, and no degenerate flag."""

    def faulty(res, *args):
        measured = {"nu_supports": core.set_matching_number(res.supports), "degenerate_empty_support": False}
        return spread.ApproximationCheck(**{**vars(real(res, *args)), **measured})

    return faulty


@pytest.mark.parametrize(
    "suite, check_id, module, name, fault",
    [
        ("counts", "derangement-trace-lower-bound", counting, "derangement_containment_count", lambda real: lambda n, cells: 1),
        ("approx", "corpus-covering", spread, "spread_approximate", _overlapping),
        ("approx", "corpus-covering", spread, "subfamily_containing", _cut_from_the_root),
        ("extremal", "trace-formula", core, "trace", _trace_dropping_one),
        ("spread", "spread-lemma-half", spread, "spread_lemma_bound", lambda real: lambda *a: real(*a) and real(*a) / 2),
        ("approx", "measured-support-matching", spread, "verify_approximation", _measuring_the_empty_support),
    ],
)
def test_check_fails_on_a_faulty_kernel(monkeypatch, suite, check_id, module, name, fault):
    before = _statuses(suite)
    assert before[check_id] == "pass"
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    after = _statuses(suite)
    assert after[check_id] == "fail"
    assert {k: v for k, v in after.items() if k != check_id} == {k: v for k, v in before.items() if k != check_id}
