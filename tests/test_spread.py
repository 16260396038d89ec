"""Spreadness calculus: exact checks, maximal-ratio sets, the greedy
decomposition and its guarantees, and containment probabilities."""

import functools
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from permemc import (
    Family,
    apply_isomorphism,
    containment_probability,
    derangements,
    exact_spreadness,
    family,
    graph,
    is_partial_permutation,
    is_r_spread,
    is_rq_spread,
    make_hm,
    make_hm_star_union,
    make_star,
    make_star_union,
    max_ratio_set,
    spread_approximate,
    spread_lemma_bound,
    subfamily_containing,
    symmetric_group,
    trace,
    verify_approximation,
)
from permemc import spread
from permemc.spread import _distinct_trace_counts
from permemc.verify import random_subfamily


def test_r_spread_sigma3_threshold():
    # spreadness of the full family on [3] is 6^(1/3) = 1.8171...
    assert is_r_spread(symmetric_group(3), Fraction(9, 5)).is_spread
    report = is_r_spread(symmetric_group(3), 2)
    assert not report.is_spread
    assert len(report.witness) == 3  # a full member is the worst offender
    assert report.witness_ratio == Fraction(1, 6)


def test_r_spread_singleton_family():
    single = family(3, [(2, 3, 1)])
    assert is_r_spread(single, 1).is_spread
    assert not is_r_spread(single, Fraction(101, 100)).is_spread


def test_r_spread_empty_family_rejected():
    with pytest.raises(ValueError):
        is_r_spread(Family(3, ()), 2)


def test_r_spread_on_residues():
    residues = trace(symmetric_group(4), [(1, 1)])
    assert is_r_spread(residues, Fraction(9, 5)).is_spread


def test_exact_spreadness_closed_form():
    for n in (3, 4, 5):
        value, witness = exact_spreadness(symmetric_group(n))
        assert abs(value - math.factorial(n) ** (1.0 / n)) <= 1e-9
        assert len(witness) == n  # attained at a full member


def test_exact_tie_across_sizes_goes_to_least_witness():
    # 125 members: {(1,1),(2,2),(3,j)} for j = 1..5 and 120 singletons.
    # X = ((1,1),(2,2)) has value (125/5)^(1/2) = 5 and each 3-set
    # ((1,1),(2,2),(3,j)) has (125/1)^(1/3) = 5 exactly; in floats the
    # cube root rounds to 4.999999999999999, but the tie must go to the
    # lexicographically least X, the 2-set.
    members = [{(1, 1), (2, 2), (3, j)} for j in range(1, 6)] + [{(9, j)} for j in range(1, 121)]
    pair = ((1, 1), (2, 2))
    assert exact_spreadness(members) == (5.0, pair)
    report = is_r_spread(members, 6, want_exact=True)
    assert not report.is_spread
    assert report.witness == pair
    assert report.witness_ratio == Fraction(5, 125)
    assert report.exact_spreadness == 5.0
    assert report.to_json() == {
        "is_spread": False, "witness": ["1:1", "2:2"], "witness_ratio": "1/25", "exact_spreadness": 5.0
    }
    passing = is_r_spread(members, 5)
    assert passing.is_spread
    assert passing.to_json() == {"is_spread": True, "witness": None, "witness_ratio": None, "exact_spreadness": None}


def _oracle_counts(members, max_size=None):
    """|F(X)| for every nonempty X of at most max_size cells, from every
    subset of every member."""
    counts = {}
    for m in members:
        cells = sorted(m)
        top = len(cells) if max_size is None else min(len(cells), max_size)
        for t in range(1, top + 1):
            for sub in itertools.combinations(cells, t):
                counts[sub] = counts.get(sub, 0) + 1
    return counts


def _oracle_worst(counts, total, subs):
    # (|F|/|F(X)|)^{60/|X|} is exact and ranks like (|F|/|F(X)|)^{1/|X|} for
    # |X| <= 6; ties go to the lexicographically least X
    return min(subs, key=lambda sub: (Fraction(total, counts[sub]) ** (60 // len(sub)), sub), default=None)


def _oracle_violator(members, r):
    """The worst offender among the X with |F(X)| r^|X| > |F|, or None."""
    counts = _oracle_counts(members)
    violating = [sub for sub, c in counts.items() if c * r ** len(sub) > len(members)]
    return _oracle_worst(counts, len(members), violating)


def test_witness_ranking_matches_exact_oracle():
    rng = random.Random(19)
    sigma4, sigma5 = symmetric_group(4), symmetric_group(5)
    cases = [random_subfamily(rng, sigma4, rng.randint(1, 24)) for _ in range(40)]
    cases += [random_subfamily(rng, sigma5, rng.randint(1, 120)) for _ in range(25)]
    for _ in range(60):
        # raw cell sets of 0..6 cells, some empty, some repeated
        sets = [
            {(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(rng.randint(0, 6))} for _ in range(rng.randint(1, 8))
        ]
        cases.append(sets + rng.sample(sets, rng.randint(0, len(sets))))
    for fam in cases:
        members = [frozenset(m) for m in (fam.graphs() if isinstance(fam, Family) else fam)]
        total = len(members)
        for max_size in (None, 0, 1, 2):
            assert _distinct_trace_counts(members, max_size) == _oracle_counts(members, max_size)
        counts = _oracle_counts(members)
        worst = _oracle_worst(counts, total, counts)
        value = None if worst is None else (total / counts[worst]) ** (1.0 / len(worst))
        if worst is None:
            with pytest.raises(ValueError, match="every member is empty"):
                exact_spreadness(fam)
        else:
            assert exact_spreadness(fam) == (value, worst)

        r = Fraction(rng.randint(5, 40), 10)  # 1/2 to 4, r <= 1 included
        witness = _oracle_violator(members, r)
        ratio = None if witness is None else Fraction(counts[witness], total)
        expected = (witness is None, witness, ratio)
        report = is_r_spread(fam, r)
        assert (report.is_spread, report.witness, report.witness_ratio, report.exact_spreadness) == (*expected, None)
        report = is_r_spread(fam, r, want_exact=True)
        assert (report.is_spread, report.witness, report.witness_ratio, report.exact_spreadness) == (*expected, value)

        q = rng.randint(0, 2)
        restrictions = [(), *sorted(_oracle_counts(members, q), key=lambda sub: (len(sub), sub))]
        failing = None
        for sub in restrictions:
            residues = [m - frozenset(sub) for m in members if m >= frozenset(sub)]
            inner = _oracle_violator(residues, r)
            if inner is not None:
                failing = (sub, inner, Fraction(_oracle_counts(residues)[inner], len(residues)))
                break
        report = is_rq_spread(fam, r, q)
        if failing is None:
            assert report.is_spread and report.restriction is None and report.inner is None
        else:
            assert not report.is_spread
            assert (report.restriction, report.inner.witness, report.inner.witness_ratio) == failing


def _r_floor_worst_offender(index, carrier, skip=frozenset(), r=None):
    """The worst-offender walk with the r-floor alone: every X that could
    violate r-spreadness, ranked exactly, ties going to the least X; it keeps
    nothing on the Family its index names."""
    masks, top = index[0], index[1] - len(skip)
    total = carrier.bit_count()
    floor = total * r.denominator**top // r.numerator**top + 1
    free = {c: m for c, m in masks.items() if c not in skip}
    counts = {sub: carriers.bit_count() for sub, carriers in spread._walk(free, carrier, None, floor)}
    if not counts:
        return None
    rank = functools.cmp_to_key(lambda a, b: spread._compare_spreadness(total, a, b))
    best = min(((len(sub), cnt) for sub, cnt in counts.items()), key=rank)
    return min((sub, cnt) for sub, cnt in counts.items() if spread._compare_spreadness(total, (len(sub), cnt), best) == 0)


def _floor_cases():
    """Fresh families and cell-set lists from one seed, so that no Family
    carries a worst offender kept by an earlier run."""
    rng = random.Random(29)
    cases = []
    for n, count in ((3, 8), (4, 16), (5, 12)):
        ambient = symmetric_group(n)
        cases += [(random_subfamily(rng, ambient, rng.randint(1, min(len(ambient), 60))), ambient) for _ in range(count)]
        cases.append((ambient, ambient))
    for _ in range(30):
        # raw cell sets of 0..6 cells, some empty, some repeated
        sets = [
            {(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(rng.randint(0, 6))} for _ in range(rng.randint(1, 8))
        ]
        cases.append((sets + rng.sample(sets, rng.randint(0, len(sets))), None))
    return cases


def test_worst_offender_floor_matches_r_floor_walk(monkeypatch):
    case_count = len(_floor_cases())

    def reports():
        out = []
        for fam, ambient in _floor_cases():
            for r in (Fraction(1, 2), 1, Fraction(6, 5), 2, 3):
                out.append(is_r_spread(fam, r))
                out += [is_rq_spread(fam, r, q) for q in (0, 1, 2)]
                if ambient is not None:
                    res = spread_approximate(fam, ambient, r, 2)
                    out.append(verify_approximation(res, fam, ambient, r, 2))
        return out

    pruned = reports()
    assert sum(not rep.is_spread for rep in pruned if not hasattr(rep, "ok")) > case_count
    monkeypatch.setattr(spread, "_worst_offender", _r_floor_worst_offender)
    assert reports() == pruned


def test_kept_worst_offender_answers_like_a_fresh_family():
    # one Family asked all four calls in every order answers as fresh
    # Families do, whichever call walks first and keeps its worst offender
    rng = random.Random(30)
    ambients = [symmetric_group(4), symmetric_group(5), symmetric_group(6), derangements(6)]
    checked = 0
    for ambient in ambients:
        for _ in range(3):
            fam = random_subfamily(rng, ambient, rng.randint(1, min(len(ambient), 60)))
            for r in (Fraction(1, 2), 1, Fraction(6, 5), 2, 3):
                calls = (
                    lambda fam: is_r_spread(fam, r),
                    lambda fam: is_r_spread(fam, r, True),
                    exact_spreadness,
                    lambda fam: is_rq_spread(fam, r, 1),
                )
                fresh = [call(Family(fam.n, fam.members)) for call in calls]
                for order in itertools.permutations(range(len(calls))):
                    one = Family(fam.n, fam.members)
                    answers = {i: calls[i](one) for i in order}
                    assert [answers[i] for i in range(len(calls))] == fresh, (fam.members, r, order)
                checked += not fresh[0].is_spread
    assert checked >= 20, checked


def _size_cut(c, total, top):
    """The walk's size cut over a Family's index: the largest k <= top with
    ceil(c^k/|F|^(k-1)) <= (top-k)!."""
    return next((k for k in range(top, 0, -1) if -(-(c**k) // total ** (k - 1)) <= math.factorial(top - k)), 0)


def _charged(fam, floor, top):
    """Sets a worst-offender walk of the whole family at ``floor``, cut at
    ``top`` cells, charges: exactly the X of at most top cells with
    |F(X)| >= floor."""
    return len(_distinct_trace_counts(fam.graphs(), top, floor))


def test_an_r_pruned_walk_keeps_nothing(monkeypatch):
    # a family where r's floor lies above the c-floor and r-spreadness
    # fails: under a budget that the r-pruned walk meets and the exact walk
    # does not, is_r_spread answers and exact_spreadness refuses, before
    # and after is_r_spread, so the pruned walk's witness is not kept.  No
    # single cell violates when r's floor is above the c-floor, so the
    # search adds one to four members to the (n - 2)! through (1, 1), (2, 2).
    # Both floors are taken at the walk's size cut.
    rng = random.Random(31)
    r = Fraction(3, 2)
    for _ in range(200):
        n = rng.choice((4, 5))
        ambient = symmetric_group(n)
        pair = subfamily_containing(ambient, [(1, 1), (2, 2)])
        fam = Family(n, pair.members + tuple(rng.sample(ambient.difference(pair).members, rng.randint(1, 4))))
        total = len(fam)
        c = max(map(int.bit_count, fam.cell_masks.values()))
        top = _size_cut(c, total, n)
        c_floor = -(-(c**top) // total ** (top - 1))
        r_floor = total * r.denominator**top // r.numerator**top + 1
        if (
            r_floor > c_floor
            and _charged(fam, r_floor, top) < _charged(fam, c_floor, top)
            and not is_r_spread(fam, r).is_spread
        ):
            break
    else:
        pytest.fail("no family found")
    expected, pruned, exact = is_r_spread(fam, r), _charged(fam, r_floor, top), _charged(fam, c_floor, top)
    fam = Family(fam.n, fam.members)
    monkeypatch.setattr(spread, "_SUBSET_BUDGET", pruned)
    with pytest.raises(ValueError, match="too large"):
        exact_spreadness(fam)
    assert is_r_spread(fam, r) == expected
    with pytest.raises(ValueError, match="too large"):
        exact_spreadness(fam)
    with pytest.raises(ValueError, match="too large"):
        is_r_spread(fam, r, True)
    # the exact walk, once it answers, is kept and answers under any budget
    monkeypatch.setattr(spread, "_SUBSET_BUDGET", exact)
    value = exact_spreadness(fam)
    monkeypatch.setattr(spread, "_SUBSET_BUDGET", 0)
    assert exact_spreadness(fam) == value and is_r_spread(fam, r) == expected


def test_slice_and_parent_keep_separate_worst_offenders():
    parent = symmetric_group(4)
    part = subfamily_containing(parent, [(1, 1)]).difference(subfamily_containing(parent, [(2, 2)]))
    assert part._view is not None and part._view[0] is parent
    fresh_parent = exact_spreadness(symmetric_group(4))
    fresh_part = exact_spreadness(Family(4, part.members))
    assert fresh_parent != fresh_part
    assert exact_spreadness(parent) == fresh_parent
    assert exact_spreadness(part) == fresh_part
    assert is_r_spread(parent, 3, True).witness == fresh_parent[1]
    assert is_r_spread(part, 2, True).exact_spreadness == fresh_part[0]
    # and the other way round: the slice walks first
    parent = symmetric_group(4)
    part = subfamily_containing(parent, [(1, 1)]).difference(subfamily_containing(parent, [(2, 2)]))
    assert exact_spreadness(part) == fresh_part
    assert exact_spreadness(parent) == fresh_parent


def test_spreadness_monotone():
    rng = random.Random(13)
    ambient = symmetric_group(4)
    for _ in range(30):
        fam = random_subfamily(rng, ambient, rng.randint(2, 20))
        hi = rng.randint(11, 25)
        lo = rng.randint(10, hi)
        if is_r_spread(fam, Fraction(hi, 10)).is_spread:
            assert is_r_spread(fam, Fraction(lo, 10)).is_spread


def test_subfamily_spreadness_scaling():
    # H subset of F with |H| >= c|F| and F r-spread  =>  H is cr-spread
    rng = random.Random(14)
    ambient = symmetric_group(4)
    levels = [Fraction(k, 8) for k in range(8, 25)]
    checked = 0
    for _ in range(200):
        fam = random_subfamily(rng, ambient, rng.randint(2, 24))
        passing = [r for r in levels if is_r_spread(fam, r).is_spread]
        if not passing:
            continue
        r = passing[-1]
        sub = random_subfamily(rng, fam, rng.randint(1, len(fam)))
        c = Fraction(len(sub), len(fam))
        assert is_r_spread(sub, c * r).is_spread
        checked += 1
    assert checked >= 150


def test_rq_spread_sigma4():
    report = is_rq_spread(symmetric_group(4), Fraction(6, 5), 2)
    assert report.is_spread
    assert report.to_json() == {"is_spread": True, "restriction": None, "inner": None}


def test_rq_spread_failure_carries_restriction():
    single = family(3, [(2, 3, 1)])
    report = is_rq_spread(single, 2, 1)
    assert not report.is_spread
    assert report.inner is not None and not report.inner.is_spread


def test_rq_spread_rejects_negative_q():
    with pytest.raises(ValueError):
        is_rq_spread(symmetric_group(3), 2, -1)


def test_rq_spread_q_zero_is_plain_r_spread():
    for fam, r in [(symmetric_group(3), Fraction(9, 5)), (symmetric_group(3), 2), (derangements(4), 2)]:
        assert is_rq_spread(fam, r, 0).is_spread == is_r_spread(fam, r).is_spread


def test_subset_budget_charges_each_set_walked(monkeypatch):
    # one k-cell set: every one of its 2^k - 1 nonempty subsets has count 1,
    # so both floors are 1 and the walk visits them all; cut at 2 cells, it
    # visits the k + C(k, 2) sets of at most 2 cells
    for k in (1, 6, 12):
        wide = [[(1, c) for c in range(1, k + 1)]]
        cut = k + k * (k - 1) // 2
        monkeypatch.setattr(spread, "_SUBSET_BUDGET", cut)
        assert len(_distinct_trace_counts(wide, 2)) == cut
        monkeypatch.setattr(spread, "_SUBSET_BUDGET", cut - 1)
        with pytest.raises(ValueError, match="too large"):
            _distinct_trace_counts(wide, 2)
        monkeypatch.setattr(spread, "_SUBSET_BUDGET", 2**k - 1)
        assert len(_distinct_trace_counts(wide)) == 2**k - 1
        report = is_r_spread(wide, 2)
        assert (report.is_spread, report.witness, report.witness_ratio) == (False, ((1, 1),), 1)
        assert exact_spreadness(wide) == (1.0, ((1, 1),))
        monkeypatch.setattr(spread, "_SUBSET_BUDGET", 2**k - 2)
        for call in (lambda: _distinct_trace_counts(wide), lambda: is_r_spread(wide, 2), lambda: exact_spreadness(wide)):
            with pytest.raises(ValueError, match="too large"):
                call()


def test_certain_refusal_comes_before_the_walk(monkeypatch):
    # at floor 1 a walk visits all 2^k - 1 nonempty subsets of a carrier with
    # k walkable cells, so one over the budget is refused without walking
    start = time.perf_counter()
    with pytest.raises(ValueError, match="too large"):
        is_r_spread([[(1, c) for c in range(1, 24)]], 2)
    assert time.perf_counter() - start < 1
    walks = []
    walk = spread._walk
    monkeypatch.setattr(spread, "_walk", lambda *args: walks.append(args) or walk(*args))
    wide = [[(1, c) for c in range(1, 7)]]
    sigma6 = symmetric_group(6)
    monkeypatch.setattr(spread, "_SUBSET_BUDGET", 2**6 - 2)
    short = Family(6, sigma6.members[1:])  # c-floor 1, so 6-cell members walk all 63 subsets
    for call in (lambda: is_r_spread(wide, 2), lambda: exact_spreadness(wide), lambda: exact_spreadness(short)):
        with pytest.raises(ValueError, match="too large"):
            call()
    assert walks == []
    # Σ_6 itself is answered in closed form, without a walk
    assert exact_spreadness(sigma6) == (720 ** (1 / 6), tuple((i, i) for i in range(1, 7))) and walks == []
    monkeypatch.setattr(spread, "_SUBSET_BUDGET", 2**6 - 1)
    assert exact_spreadness(wide) == (1.0, ((1, 1),)) and len(walks) == 1
    # two copies of the set: the c-floor is 2, so the walk starts and refuses as it runs
    monkeypatch.setattr(spread, "_SUBSET_BUDGET", 2**6 - 2)
    with pytest.raises(ValueError, match="too large"):
        exact_spreadness(wide * 2)
    assert len(walks) == 2
    # carriers with fewer cells than the index's bound: the refusal counts the carriers' own
    index, _ = spread._index([[(1, c) for c in range(1, 9)], [(2, 1), (2, 2), (2, 3)]])
    monkeypatch.setattr(spread, "_SUBSET_BUDGET", 2**3 - 2)
    with pytest.raises(ValueError, match="too large"):
        spread._worst_offender(index, 0b10)
    assert len(walks) == 2
    monkeypatch.setattr(spread, "_SUBSET_BUDGET", 2**3 - 1)
    assert spread._worst_offender(index, 0b10) == (((2, 1),), 1) and len(walks) == 3


def test_r_spread_sigma8_is_walked_under_the_floor():
    # Σ_8 less one member has 10.3 M member subsets, but the r-floor cuts
    # all but a few thousand of them, so the walk stays far inside the
    # budget; Σ_8 itself is answered in closed form
    sigma8 = symmetric_group(8)
    assert is_r_spread(Family(8, sigma8.members[1:]), 2).is_spread
    assert is_r_spread(sigma8, 2).is_spread


_RS = (Fraction(1, 2), 1, Fraction(6, 5), 2, 3)


def _uncapped(fam):
    """A Family's index with the size cut and the closed form off (the walk
    a list of cell sets gets, with K = n: the index names no Family), and
    the bitmask of its members."""
    (masks, n, _), full = spread._index(fam)
    return (masks, n, None), full


def _dense_families(rng):
    """Relabelled families, n <= 7, where the size cut applies: pinned
    intersecting families and their star unions, unions of two or three
    stars, and Σ_n less up to three members."""
    out = []
    for i in range(24):
        n, kind = rng.randint(4, 7), i % 4
        if kind == 0:
            s = rng.randint(2, 3)
            sigma = [rng.randint(s, n)]
            sigma += rng.sample([v for v in range(1, n + 1) if v != sigma[0]], n - 1)
            fam = make_hm_star_union(n, s, sigma)
        elif kind < 3:
            grid = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
            fam = make_star_union(n, rng.sample(grid, kind + 1)).family
        else:
            members = list(symmetric_group(n).members)
            fam = Family(n, rng.sample(members, len(members) - rng.randint(0, 3)))
        out.append(apply_isomorphism(rng.sample(range(1, n + 1), n), fam, rng.sample(range(1, n + 1), n)))
    return out


def test_size_cut_agrees_with_the_uncapped_walk():
    # the worst offender, every spread report and max_ratio_set over a
    # Family's index against the same kernels with the cut off, on the
    # whole family and on traces by one or two cells of its members
    rng = random.Random(33)
    cut = 0
    for fam in _dense_families(rng):
        index, full = spread._index(fam)
        uncapped = _uncapped(fam)[0]
        masks = index[0]
        restrictions = [()]
        for p in rng.sample(fam.members, 3):
            restrictions += [rng.sample(sorted(graph(p)), k) for k in (1, 2)]
        for cells in restrictions:
            skip, carrier = frozenset(cells), full
            for cell in cells:
                carrier &= masks[cell]
            worst = spread._worst_offender(uncapped, carrier, skip)
            assert spread._worst_offender(index, carrier, skip) == worst
            for r in _RS:
                expected = spread._spread_report(uncapped, carrier, skip, r)
                assert spread._spread_report(index, carrier, skip, r) == expected, (fam.members, cells, r)
            top, total = fam.n - len(skip), carrier.bit_count()
            c = max((m & carrier).bit_count() for cell, m in masks.items() if cell not in skip)
            cut += _size_cut(c, total, top) < top
        for r in _RS:
            for rho in (r / 2, r):
                assert max_ratio_set(fam, rho) == max_ratio_set(fam.graphs(), rho), (fam.members, rho)
    assert cut >= 60, cut


def test_sigma_trace_closed_form_agrees_with_the_walk(monkeypatch):
    # a trace of Σ_n by a partial permutation A of at most two cells is Σ_K
    # on its K = n - |A| free rows and columns; the maps of those, in
    # order, onto [K] keep the walk's row-major order, so the uncapped walk
    # of Σ_K, relabelled, answers for it.  The closed form walks nothing.
    oracle = {0: (None, [spread.SpreadReport(True)] * len(_RS))}
    for k in range(1, 8):
        index, full = _uncapped(symmetric_group(k))
        oracle[k] = (
            spread._worst_offender(index, full),
            [spread._spread_report(index, full, frozenset(), r) for r in _RS],
        )
    walks = []
    walk = spread._walk
    monkeypatch.setattr(spread, "_walk", lambda *args: walks.append(args) or walk(*args))
    checked = 0
    for n in range(1, 8):
        index, full = spread._index(symmetric_group(n))
        masks = index[0]
        for size in (0, 1, 2):
            for cells in itertools.combinations(masks, size):
                if not is_partial_permutation(cells):
                    continue
                skip, carrier = frozenset(cells), full
                for cell in cells:
                    carrier &= masks[cell]
                rows, cols = (sorted(set(range(1, n + 1)).difference(cell[i] for cell in cells)) for i in (0, 1))

                def relabel(x):
                    return tuple((rows[i - 1], cols[j - 1]) for i, j in x)

                worst, reports = oracle[n - size]
                if worst is not None:
                    worst = (relabel(worst[0]), worst[1])
                reports = [
                    rep
                    if rep.witness is None
                    else spread.SpreadReport(rep.is_spread, relabel(rep.witness), rep.witness_ratio, rep.exact_spreadness)
                    for rep in reports
                ]
                assert spread._worst_offender(index, carrier, skip) == worst, (n, cells)
                assert [spread._spread_report(index, carrier, skip, r) for r in _RS] == reports, (n, cells)
                checked += 1
    # only the traces by a whole member (K = 0) walk, over no cells
    assert checked == 1771 and all(masks == {} for masks, *_ in walks), checked


def test_rq_spread_reports_input_errors_before_refusing(monkeypatch):
    # both the whole walk (255 sets) and the restriction walk (8 + 28) are over 10
    wide = [[(1, c) for c in range(1, 9)]]
    monkeypatch.setattr(spread, "_SUBSET_BUDGET", 10)
    with pytest.raises(ValueError, match="too large"):
        is_rq_spread(wide, 2, 2)
    with pytest.raises(ValueError, match="r must be positive"):
        is_rq_spread(wide, 0, 2)
    with pytest.raises(ValueError, match="q must be non-negative"):
        is_rq_spread(wide, 2, -1)


def test_derangement_trace_proof_inequality_size_at_most_one():
    # |D_5(S)| > (5-|S|)!/3 for every nonempty-trace restriction, |S| <= 1
    d5 = derangements(5)
    assert 3 * len(d5) > math.factorial(5)
    for x in range(1, 6):
        for y in range(1, 6):
            if x == y:
                continue
            count = len(trace(d5, [(x, y)]))
            assert 3 * count > math.factorial(4)


def test_max_ratio_set_sigma3_empty():
    assert max_ratio_set(symmetric_group(3), Fraction(9, 5)) == frozenset()


def test_max_ratio_set_star_center():
    star = make_star(5, (1, 1))
    assert max_ratio_set(star, Fraction(5, 4)) == frozenset({(1, 1)})


def test_max_ratio_set_singleton_family_full_graph():
    lone = family(4, [(2, 1, 4, 3)])
    assert max_ratio_set(lone, 2) == graph((2, 1, 4, 3))


def test_max_ratio_set_is_inclusion_maximal_via_jumps():
    # nine pairwise disjoint permutations (cyclic shifts): at ratio 3 no
    # singleton qualifies (1 < 9/3), yet every in-member pair does
    # (1 >= 9 * 3^-2), so single-cell growth alone would stall at the empty
    # set and return a non-maximal answer.
    members = [tuple((i + shift) % 9 + 1 for i in range(9)) for shift in range(9)]
    fam = family(9, members)
    result = max_ratio_set(fam, 3)
    assert result == graph(tuple(range(1, 10)))  # grows to a full member
    residues = [graph(p) - result for p in fam.members if graph(p) >= result]
    assert is_r_spread(residues, 3).is_spread


def test_max_ratio_set_trace_always_spread():
    rng = random.Random(15)
    ambient = symmetric_group(4)
    for _ in range(40):
        fam = random_subfamily(rng, ambient, rng.randint(1, 24))
        rho = Fraction(rng.randint(11, 30), 10)
        x = max_ratio_set(fam, rho)
        residues = [graph(p) - x for p in fam.members if graph(p) >= x]
        assert residues
        assert is_r_spread(residues, rho).is_spread


def test_spread_approximate_star_pinned():
    star = make_star(5, (1, 1))
    ambient = symmetric_group(5)
    res = spread_approximate(star, ambient, Fraction(5, 2), 4)
    assert res.supports == (frozenset({(1, 1)}),)
    assert len(res.remainder) == 0
    branch = res.branches[frozenset({(1, 1)})]
    assert branch == star
    residues = [graph(p) - frozenset({(1, 1)}) for p in branch.members]
    assert len(residues) == 24 and all(len(r) == 4 for r in residues)


def test_spread_approximate_degenerate_threshold_one():
    sigma3 = symmetric_group(3)
    res = spread_approximate(sigma3, sigma3, 2, 3)
    assert res.supports == (frozenset(),)
    assert len(res.remainder) == 0
    assert res.branches[frozenset()] == sigma3


def test_spread_approximate_two_star_union_actual_behavior():
    """At r = 5/2 no singleton reaches |F|/(r/2) = 38.4 on the 48-member
    union, so the greedy stops at the empty support in one step."""
    union = make_star_union(5, [(1, 1), (1, 2)]).family
    res = spread_approximate(union, symmetric_group(5), Fraction(5, 2), 4)
    assert res.supports == (frozenset(),)
    assert len(res.remainder) == 0


def test_spread_approximate_two_star_union_peels_with_r4():
    """With r = 4 the first star is extracted; the leftover star then grows
    past its center (pairs tie the threshold), stopping on an oversized set."""
    union = make_star_union(5, [(1, 1), (1, 2)]).family
    res = spread_approximate(union, symmetric_group(5), 4, 4)
    assert res.supports == (frozenset({(1, 1)}),)
    assert res.stop_set is not None and len(res.stop_set) > 4
    assert len(res.remainder) == 24


def test_spread_approximate_requires_containment():
    with pytest.raises(ValueError):
        spread_approximate(symmetric_group(3), family(3, [(1, 2, 3)]), 2, 2)


def test_verify_approximation_guarantees():
    rng = random.Random(16)
    sigma4 = symmetric_group(4)
    sigma5 = symmetric_group(5)
    cases = [
        (make_star(4, (2, 3)), sigma4, Fraction(5, 2), 3),
        (make_star(5, (1, 1)), sigma5, Fraction(5, 2), 4),
        (make_star_union(5, [(1, 1), (1, 2)]).family, sigma5, Fraction(5, 2), 4),
        (make_hm(4, (2, 1, 4, 3)), sigma4, 2, 3),
        (make_hm_star_union(5, 3, (3, 1, 2, 4, 5)), sigma5, Fraction(5, 2), 3),
    ]
    for _ in range(6):
        cases.append((random_subfamily(rng, sigma4, rng.randint(2, 20)), sigma4, Fraction(5, 2), 3))
    for fam, ambient, r, q in cases:
        res = spread_approximate(fam, ambient, r, q)
        chk = verify_approximation(res, fam, ambient, r, q)
        assert chk.covering_ok
        assert chk.branch_traces_spread
        assert chk.remainder_status in ("pass", "conditional")
        union = set()
        for branch in res.branches.values():
            assert not (union & set(branch.members))
            union |= set(branch.members)
        assert union == set(fam.difference(res.remainder).members)


def test_verify_approximation_conditional_when_ambient_thin():
    two = family(4, [(1, 2, 3, 4), (2, 1, 4, 3)])
    res = spread_approximate(two, two, 3, 1)
    chk = verify_approximation(res, two, two, 3, 1)
    assert chk.remainder_status == "conditional"
    assert not chk.remainder_hypothesis_checked


@pytest.mark.parametrize("r", [0, -2, Fraction(-1, 3)], ids=["zero", "negative", "negative-fraction"])
def test_verify_approximation_refuses_non_positive_r(r):
    # without branches no branch check reads r, so the refusal must not depend on one
    two = family(4, [(1, 2, 3, 4), (2, 1, 4, 3)])
    bare = spread_approximate(two, two, 3, 1)
    star = make_star(4, (1, 1))
    branched = spread_approximate(star, symmetric_group(4), 3, 1)
    assert not bare.branches and branched.branches
    for res, fam, ambient in ((bare, two, two), (branched, star, symmetric_group(4))):
        with pytest.raises(ValueError, match="^r must be positive$"):
            verify_approximation(res, fam, ambient, r, 1)


def test_r_and_rho_that_are_not_numbers_are_refused_as_values():
    with pytest.raises(ValueError, match="^rho must be positive$"):
        max_ratio_set(symmetric_group(3), None)
    with pytest.raises(ValueError, match="^r must be positive$"):
        is_r_spread(symmetric_group(3), [2])


def test_spread_approximate_deterministic():
    rng = random.Random(17)
    fam = random_subfamily(rng, symmetric_group(4), 15)
    a = spread_approximate(fam, symmetric_group(4), Fraction(5, 2), 3)
    b = spread_approximate(fam, symmetric_group(4), Fraction(5, 2), 3)
    assert a.supports == b.supports
    assert a.remainder == b.remainder
    assert list(a.branches.items()) == list(b.branches.items())


def test_large_family_has_spread_witness():
    # families above r^n in size admit an r-spread trace with > 1 residues
    rng = random.Random(18)
    r = Fraction(6, 5)
    for n in (3, 4):
        ambient = symmetric_group(n)
        floor = int(float(r) ** n) + 1
        for _ in range(10):
            fam = random_subfamily(rng, ambient, rng.randint(floor, len(ambient)))
            if is_r_spread(fam, r).is_spread:
                assert len(fam) > 1
                continue
            x = max_ratio_set(fam, r)
            residues = [graph(p) - x for p in fam.members if graph(p) >= x]
            assert len(residues) > 1
            assert is_r_spread(residues, r).is_spread


def test_containment_probability_single_member():
    est = containment_probability(family(4, [(2, 1, 4, 3)]), Fraction(1, 3))
    assert est.value == Fraction(1, 3) ** 4


def test_containment_probability_sigma2():
    est = containment_probability(symmetric_group(2), Fraction(1, 2))
    assert est.value == Fraction(7, 16)
    assert est.to_json() == {"value": "7/16", "mode": "exact", "standard_error": None, "samples": None, "seed": None}


def _containment_member_ie(members, p):
    # inclusion-exclusion over the nonempty member subsets
    return sum(
        (-1) ** (size + 1) * p ** len(frozenset().union(*combo))
        for size in range(1, len(members) + 1)
        for combo in itertools.combinations(members, size)
    )


def _containment_cell_sum(members, p):
    # p^|S| (1-p)^(k-|S|) summed over the subsets S of the k relevant cells
    # that contain some member
    relevant = sorted(set().union(*members))
    k = len(relevant)
    return sum(
        p ** len(kept) * (1 - p) ** (k - len(kept))
        for size in range(k + 1)
        for kept in map(frozenset, itertools.combinations(relevant, size))
        if any(m <= kept for m in members)
    )


def test_containment_probability_matches_both_oracles():
    rng = random.Random(31)
    grid = [(x, y) for x in range(1, 5) for y in range(1, 5)]
    cases = []
    for ambient in (symmetric_group(3), symmetric_group(4), derangements(4)):
        for _ in range(12):
            cases.append([graph(p) for p in rng.sample(list(ambient.members), rng.randint(1, min(10, len(ambient))))])
    for _ in range(25):
        base = [frozenset(rng.sample(grid, rng.randint(0, 4))) for _ in range(rng.randint(1, 5))]
        # repeated and nested members, and at most 14 relevant cells
        extra = [rng.choice(base) for _ in range(rng.randint(0, 2))]
        extra += [frozenset(rng.sample(sorted(m), len(m) // 2)) for m in base[:2]]
        members = base + extra
        if len(set().union(*members)) <= 14:
            cases.append(members)
    # disjoint 2-cell members interleaved in row-major order
    for width in (2, 3, 5, 7):
        cells = grid[: 2 * width]
        cases.append([frozenset({cells[i], cells[i + width]}) for i in range(width)])
    checked = [0, 0]
    for members in cases:
        p = Fraction(rng.randint(1, 9), 10)
        value = containment_probability(members, p).value
        assert isinstance(value, Fraction)
        assert 0 <= value <= 1
        if len(members) <= 10:
            assert value == _containment_member_ie(members, p)
            checked[0] += 1
        if len(set().union(*members)) <= 14:
            assert value == _containment_cell_sum(members, p)
            checked[1] += 1
    assert min(checked) >= 60


def test_containment_probability_wide_family_scan_path():
    # 24 members over 16 cells, beyond what member inclusion-exclusion can
    # sum; cross-check against a subfamily small enough for it
    sigma4 = symmetric_group(4)
    part = family(4, sigma4.members[:12])
    ie = containment_probability(part, Fraction(1, 2)).value
    assert 0 < ie < 1
    assert ie == _containment_member_ie([graph(p) for p in part.members], Fraction(1, 2))
    wide = containment_probability(sigma4, Fraction(1, 2)).value
    assert 0 < wide < 1
    assert wide >= ie  # more members can only help containment


def test_containment_scan_matches_inclusion_exclusion():
    # the exact value equals both the cell-subset scan and member
    # inclusion-exclusion on small subfamilies of Σ_3
    rng = random.Random(31)
    for _ in range(5):
        fam = random_subfamily(rng, symmetric_group(3), rng.randint(2, 6))
        members = [graph(p) for p in fam.members]
        p = Fraction(rng.randint(1, 9), 10)
        value = containment_probability(fam, p).value
        assert value == _containment_cell_sum(members, p) == _containment_member_ie(members, p)


def test_containment_probability_pinned_values():
    assert containment_probability(symmetric_group(4), Fraction(1, 2)).value == Fraction(37823, 65536)
    assert containment_probability(derangements(5), Fraction(2, 5)).value == Fraction(
        22488450596224, 95367431640625
    )


def test_containment_probability_exact_cell_cap():
    from permemc.spread import EXACT_CELL_CAP

    wide = [frozenset({(1, y)}) for y in range(1, EXACT_CELL_CAP + 2)]
    with pytest.raises(ValueError, match=f"capped at {EXACT_CELL_CAP} distinct cells"):
        containment_probability(wide, Fraction(1, 2))
    assert containment_probability(wide[:-1], Fraction(1, 2)).value == 1 - Fraction(1, 2) ** EXACT_CELL_CAP


def test_max_ratio_set_maximality_oracle():
    # the returned set qualifies and no proper superset with nonempty trace
    # does, checked against full superset enumeration
    import itertools

    rng = random.Random(32)
    for _ in range(30):
        fam = random_subfamily(rng, symmetric_group(4), rng.randint(1, 15))
        rho = Fraction(rng.randint(10, 30), 10)
        x = max_ratio_set(fam, rho)
        members = [graph(p) for p in fam.members]
        total = len(members)
        count = sum(1 for m in members if x <= m)
        assert count * rho ** len(x) >= total
        seen = set()
        for m in members:
            if not (x <= m):
                continue
            residual = sorted(m - x)
            for t in range(1, len(residual) + 1):
                for ext in itertools.combinations(residual, t):
                    y = x | frozenset(ext)
                    if y in seen:
                        continue
                    seen.add(y)
                    cy = sum(1 for mm in members if y <= mm)
                    assert cy * rho ** len(y) < total


def _max_ratio_set_oracle(sets, rho):
    """Greedy growth as specified, by plain scans: the least qualifying
    single cell, else the least qualifying extension of the least size,
    searched size by size over the t-subsets of the members containing X.
    Returns the set and the number of multi-cell jumps taken."""
    members = [frozenset(m) for m in sets]
    total = len(members)

    def qualifies(x):
        return sum(1 for m in members if x <= m) * rho ** len(x) >= total

    chosen, jumps = frozenset(), 0
    while True:
        carriers = [m - chosen for m in members if chosen <= m]
        single = sorted(c for c in set().union(*carriers) if qualifies(chosen | {c}))
        if single:
            chosen |= {single[0]}
            continue
        jump = None
        for t in range(2, max(map(len, carriers), default=0) + 1):
            extensions = set()
            for m in carriers:
                extensions.update(itertools.combinations(sorted(m), t))
            jump = next((ext for ext in sorted(extensions) if qualifies(chosen | set(ext))), None)
            if jump:
                break
        if jump is None:
            return chosen, jumps
        chosen |= set(jump)
        jumps += 1


def test_max_ratio_set_matches_per_size_jump_oracle():
    rng = random.Random(47)

    def cells():
        return frozenset((rng.randint(1, 4), rng.randint(1, 4)) for _ in range(rng.randint(0, 5)))

    jumps = empties = duplicates = 0
    for _ in range(480):
        rho = Fraction(rng.randint(1, 10), 2)
        if rng.random() < 0.5:
            n = rng.choice([4, 5])
            fam = random_subfamily(rng, symmetric_group(n), rng.randint(1, 24 if n == 4 else 30))
            sets = fam.graphs()
        else:  # raw cell-set lists, with empty sets and duplicate members
            fam = []
            for _ in range(rng.randint(1, 11)):
                fam.append(rng.choice(fam) if fam and rng.random() < 0.3 else cells())
            sets = fam
            empties += frozenset() in fam
            duplicates += len(set(fam)) < len(fam)
        expected, taken = _max_ratio_set_oracle(sets, rho)
        assert max_ratio_set(fam, rho) == expected
        jumps += taken
    assert empties >= 50 and duplicates >= 50, (empties, duplicates)
    assert jumps >= 20, jumps


def test_max_ratio_set_jump_respects_subset_budget(monkeypatch):
    # no single cell qualifies, and a jump needs a count of at least 4, so
    # the jump's walk ends at its first level: none of the 2^23 subsets is
    # charged, even against a budget of 0
    wide = [[(1, c) for c in range(1, 24)]]
    monkeypatch.setattr(spread, "_SUBSET_BUDGET", 0)
    assert max_ratio_set(wide, Fraction(1, 2)) == frozenset()


def test_containment_probability_monte_carlo_matches_exact():
    rng = random.Random(19)
    for i in range(4):
        fam = random_subfamily(rng, symmetric_group(3), rng.randint(1, 6))
        p = Fraction(rng.randint(2, 7), 10)
        exact = containment_probability(fam, p).value
        mc = containment_probability(fam, p, "monte_carlo", samples=50_000, seed=100 + i)
        se = max(mc.standard_error, 1e-9)
        assert abs(mc.value - float(exact)) <= 3 * se


def test_containment_probability_monte_carlo_deterministic():
    fam = symmetric_group(3)
    a = containment_probability(fam, Fraction(1, 2), "monte_carlo", samples=10_000, seed=5)
    b = containment_probability(fam, Fraction(1, 2), "monte_carlo", samples=10_000, seed=5)
    assert a.value == b.value


def test_containment_probability_monte_carlo_wide_family():
    # The 8 cyclic shifts of [8] cover all 64 cells, more than one machine
    # word per sample.  They are pairwise disjoint, so the exact value is
    # 1 - (1 - p^8)^8.
    shifts = family(8, [tuple((i + k) % 8 + 1 for i in range(8)) for k in range(8)])
    est = containment_probability(shifts, Fraction(1, 2), "monte_carlo", samples=1000, seed=1)
    exact = 1 - (1 - Fraction(1, 2) ** 8) ** 8
    assert 0 <= est.value <= 1
    assert abs(est.value - float(exact)) <= 3 * est.standard_error


def test_containment_probability_monte_carlo_pinned_bits():
    # The same (seed, samples) must give the same estimate on every run.  The
    # value was 0.862 while samples came from numpy's Philox stream; drawing
    # keep masks from random.Random(seed) changed it to 0.8558.
    est = containment_probability(derangements(5), Fraction(2, 3), "monte_carlo", samples=5000, seed=11)
    assert est.value == 0.8558


@pytest.mark.parametrize("a, b", [(1, 1), (3, 2), (5, 3), (1, 4), (13, 4), (1, 6)])
def test_containment_probability_monte_carlo_keeps_dyadic_p_exactly(a, b):
    # With one cell and one block, row i is kept exactly when its uniform,
    # read to b binary digits from bit i of the first b planes, is below
    # p = a/2^b: no statistics are needed.
    for rows in (1, 7, 64, 1000, 65_536):
        for seed in (0, 1, 99):
            rng = random.Random(seed)
            # bit i of each plane, as characters at index i, first plane first
            planes = [format(rng.getrandbits(rows), f"0{rows}b")[::-1] for _ in range(b)]
            below = sum(int("".join(digits), 2) < a for digits in zip(*planes))
            p = Fraction(a, 2**b)
            est = containment_probability([{(1, 1)}], p, "monte_carlo", samples=rows, seed=seed)
            assert est.value * rows == below, (rows, seed)


@pytest.mark.parametrize(
    "fam, seed, expected",
    [([frozenset(), {(1, 1)}], 3, 1.0), (symmetric_group(3), 2**200, None)],
    ids=["empty-member-hits-every-sample", "seed-beyond-128-bits"],
)
def test_containment_probability_monte_carlo_edge_cases(fam, seed, expected):
    a = containment_probability(fam, Fraction(1, 2), "monte_carlo", samples=1000, seed=seed)
    b = containment_probability(fam, Fraction(1, 2), "monte_carlo", samples=1000, seed=seed)
    assert a.value == b.value and 0 <= a.value <= 1
    assert expected is None or a.value == expected


@pytest.mark.parametrize("p", [0, 1, Fraction(3, 2), Fraction(-1, 2)])
def test_containment_probability_rejects_p_outside_unit_interval(p):
    for mode in ("exact", "monte_carlo"):
        with pytest.raises(ValueError):
            containment_probability(symmetric_group(2), p, mode, samples=100, seed=0)


def test_containment_probability_requires_seed():
    with pytest.raises(ValueError):
        containment_probability(symmetric_group(3), Fraction(1, 2), "monte_carlo", samples=10)


def test_spread_lemma_bound_half():
    assert spread_lemma_bound(8, 16, math.log2(16), 1) == 0.5
    # non-power-of-two k: still 1/2 up to float rounding
    assert abs(spread_lemma_bound(5, 16, math.log2(10), 1) - 0.5) < 1e-12


def test_spread_lemma_bound_returns_nonpositive_values():
    # r*delta = 16 > 2, so the float comes back even though it is <= 0
    assert spread_lemma_bound(100, 16, 1, 1) == -49.0


def test_spread_lemma_bound_takes_r_and_delta_of_any_size():
    # log2(r*delta) = 4 + log2(10^400) = 1332.77..., far past where float(r*delta) overflows
    log = 4 + 400 * math.log2(10)
    for r, delta in ((16 * 10**400, 1), (16, 10**400), (Fraction(10**800, 10**400), 16)):
        assert math.isclose(spread_lemma_bound(3, r, 2, delta), 1 - 3 * (2 / log) ** 2, rel_tol=1e-15)
    # a power past the float range comes out as -inf, as a product past it does
    assert spread_lemma_bound(1, 3, 4000, 1) == spread_lemma_bound(10**308, 3, 20, 1) == -math.inf


def test_spread_lemma_bound_vacuous():
    assert spread_lemma_bound(4, 2, 2.0, 1) is None
    assert spread_lemma_bound(4, 1, 2.0, Fraction(1, 2)) is None
    # desk-scale spreadness levels with proof-style delta are always vacuous
    for n in range(3, 11):
        delta = Fraction(1, 16 * max(1, math.ceil(math.log2(2 * n))))
        assert spread_lemma_bound(n, Fraction(45, 10), math.log2(2 * n), delta) is None


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: exact_spreadness(Family(3, ())), "empty family"),
        (lambda: exact_spreadness([frozenset()]), "every member is empty"),
        (lambda: max_ratio_set(Family(3, ()), 2), "empty family"),
        (lambda: max_ratio_set(symmetric_group(3), 0), "rho must be positive"),
        (lambda: max_ratio_set(symmetric_group(3), Fraction(-1, 2)), "rho must be positive"),
        (lambda: containment_probability(symmetric_group(3), Fraction(1, 2), mode="x"), "unknown mode"),
        (
            lambda: containment_probability(symmetric_group(3), Fraction(1, 2), "monte_carlo", samples=10, seed=-1),
            "seed >= 0",
        ),
        (
            lambda: containment_probability(symmetric_group(3), Fraction(1, 2), "monte_carlo", samples=10, seed=1.5),
            "seed >= 0",
        ),
        (
            lambda: containment_probability(symmetric_group(3), Fraction(1, 2), "monte_carlo", samples=10.5, seed=1),
            "samples >= 1",
        ),
        (lambda: spread_lemma_bound(0, 8, 1, 1), "k must be at least 1"),
        (lambda: spread_lemma_bound(1.5, 8, 1, 1), "k must be at least 1"),
        (lambda: is_rq_spread(symmetric_group(3), 2, 1.5), "q must be non-negative"),
        (lambda: spread_approximate(symmetric_group(3), symmetric_group(3), 2, 2.5), "q must be at least 1"),
        (
            lambda: verify_approximation(
                spread_approximate(symmetric_group(3), symmetric_group(3), 2, 1), symmetric_group(3), symmetric_group(3), 2, 2.5
            ),
            "q must be at least 1",
        ),
        (
            lambda: verify_approximation(
                spread_approximate(symmetric_group(3), symmetric_group(3), 2, 1), symmetric_group(3), symmetric_group(3), 2, 0
            ),
            "q must be at least 1",
        ),
        (lambda: spread_approximate(symmetric_group(3), symmetric_group(3), 2, 4097), "q must be at most 4096"),
        (
            lambda: verify_approximation(
                spread_approximate(symmetric_group(3), symmetric_group(3), 2, 1),
                symmetric_group(3),
                symmetric_group(3),
                2,
                10**400,
            ),
            "q must be at most 4096",
        ),
    ],
    ids=[
        "spreadness-empty-family",
        "spreadness-empty-member",
        "max-ratio-empty-family",
        "max-ratio-rho-0",
        "max-ratio-rho-negative",
        "containment-unknown-mode",
        "containment-negative-seed",
        "containment-float-seed",
        "containment-float-samples",
        "lemma-bound-k0",
        "lemma-bound-float-k",
        "rq-spread-float-q",
        "approximate-float-q",
        "verify-approximation-float-q",
        "verify-approximation-q0",
        "approximate-q-past-cap",
        "verify-approximation-huge-q",
    ],
)
def test_bad_inputs_fail_cleanly(call, match):
    with pytest.raises(ValueError, match=match):
        call()
