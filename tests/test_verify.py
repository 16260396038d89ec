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


def _trace_dropping_one(real):
    """``core.trace`` that loses its last residue on families of more than 24 members."""
    return lambda fam, cells: real(fam, cells)[: -1 if len(fam) > 24 else None]


@pytest.mark.parametrize(
    "suite, check_id, module, name, fault",
    [
        ("counts", "derangement-trace-lower-bound", counting, "derangement_containment_count", lambda real: lambda n, cells: 1),
        ("approx", "corpus-covering", spread, "spread_approximate", _overlapping),
        ("extremal", "trace-formula", core, "trace", _trace_dropping_one),
    ],
)
def test_check_fails_on_a_faulty_kernel(monkeypatch, suite, check_id, module, name, fault):
    before = _statuses(suite)
    assert before[check_id] == "pass"
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    after = _statuses(suite)
    assert after[check_id] == "fail"
    assert {k: v for k, v in after.items() if k != check_id} == {k: v for k, v in before.items() if k != check_id}
