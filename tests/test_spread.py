"""Spreadness calculus: exact checks, maximal-ratio sets, the greedy
decomposition and its guarantees, and containment probabilities."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from permemc import (
    Family,
    containment_probability,
    derangements,
    exact_spreadness,
    family,
    graph,
    is_r_spread,
    is_rq_spread,
    make_hm,
    make_hm_star_union,
    make_star,
    make_star_union,
    max_ratio_set,
    spread_approximate,
    spread_lemma_bound,
    symmetric_group,
    trace,
    verify_approximation,
)
from permemc.spread import _SUBSET_BUDGET


def _random_subfamily(rng, ambient, size):
    return family(ambient.n, rng.sample(list(ambient.members), size))


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
    assert is_r_spread(members, 5).is_spread


def test_witness_ranking_matches_exact_oracle():
    # oracle: rank every X by the exact rational (|F|/|F(X)|)^{L/|X|}, L the
    # lcm of the sizes, then lexicographically
    rng = random.Random(19)
    ambient = symmetric_group(4)
    lcm = 12
    for _ in range(40):
        fam = _random_subfamily(rng, ambient, rng.randint(1, 24))
        members = [sorted(m) for m in fam.graphs()]
        counts = {}
        for m in members:
            for t in range(1, len(m) + 1):
                for sub in itertools.combinations(m, t):
                    counts[sub] = counts.get(sub, 0) + 1
        total = len(members)
        rank = {sub: (Fraction(total, c) ** (lcm // len(sub)), sub) for sub, c in counts.items()}
        witness = min(counts, key=rank.get)
        value, got = exact_spreadness(fam)
        assert got == witness
        assert value == (total / counts[witness]) ** (1.0 / len(witness))
        r = Fraction(rng.randint(11, 40), 10)
        violating = [sub for sub, c in counts.items() if c * r ** len(sub) > total]
        report = is_r_spread(fam, r)
        assert report.witness == (min(violating, key=rank.get) if violating else None)


def test_spreadness_monotone():
    rng = random.Random(13)
    ambient = symmetric_group(4)
    for _ in range(30):
        fam = _random_subfamily(rng, ambient, rng.randint(2, 20))
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
        fam = _random_subfamily(rng, ambient, rng.randint(2, 24))
        passing = [r for r in levels if is_r_spread(fam, r).is_spread]
        if not passing:
            continue
        r = passing[-1]
        sub = _random_subfamily(rng, fam, rng.randint(1, len(fam)))
        c = Fraction(len(sub), len(fam))
        assert is_r_spread(sub, c * r).is_spread
        checked += 1
    assert checked >= 150


def test_rq_spread_sigma4():
    assert is_rq_spread(symmetric_group(4), Fraction(6, 5), 2).is_spread


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


def test_subset_budget_refuses_before_enumerating():
    # one 23-cell set has 2^23 > _SUBSET_BUDGET subsets; the guard fires first
    wide = [[(1, c) for c in range(1, 24)]]
    assert 2**23 > _SUBSET_BUDGET
    with pytest.raises(ValueError, match="too large"):
        is_r_spread(wide, 2)
    with pytest.raises(ValueError, match="too large"):
        exact_spreadness(wide)


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
        fam = _random_subfamily(rng, ambient, rng.randint(1, 24))
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
        cases.append((_random_subfamily(rng, sigma4, rng.randint(2, 20)), sigma4, Fraction(5, 2), 3))
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


def test_spread_approximate_deterministic():
    rng = random.Random(17)
    fam = _random_subfamily(rng, symmetric_group(4), 15)
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
            fam = _random_subfamily(rng, ambient, rng.randint(floor, len(ambient)))
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


def test_containment_probability_wide_family_scan_path():
    # 24 members over 16 cells forces the subset-scan branch; cross-check
    # against inclusion-exclusion on a subfamily small enough for both.
    sigma4 = symmetric_group(4)
    part = family(4, sigma4.members[:12])
    ie = containment_probability(part, Fraction(1, 2)).value
    assert 0 < ie < 1
    wide = containment_probability(sigma4, Fraction(1, 2)).value
    assert 0 < wide < 1
    assert wide >= ie  # more members can only help containment


def test_containment_scan_matches_inclusion_exclusion():
    # the wide-family subset-scan path is exact: equal to member IE wherever
    # both apply
    from permemc.spread import (
        _containment_inclusion_exclusion,
        _containment_subset_scan,
    )

    rng = random.Random(31)
    for _ in range(5):
        fam = _random_subfamily(rng, symmetric_group(3), rng.randint(2, 6))
        members = [graph(p) for p in fam.members]
        relevant = sorted(set().union(*members))
        p = Fraction(rng.randint(1, 9), 10)
        assert _containment_subset_scan(members, relevant, p) == _containment_inclusion_exclusion(members, p)


def test_max_ratio_set_maximality_oracle():
    # the returned set qualifies and no proper superset with nonempty trace
    # does, checked against full superset enumeration
    import itertools

    rng = random.Random(32)
    for _ in range(30):
        fam = _random_subfamily(rng, symmetric_group(4), rng.randint(1, 15))
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


def test_containment_probability_monte_carlo_matches_exact():
    rng = random.Random(19)
    for i in range(4):
        fam = _random_subfamily(rng, symmetric_group(3), rng.randint(1, 6))
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
    # with fewer than 64 relevant cells the sampled bits must not change
    est = containment_probability(derangements(5), Fraction(2, 3), "monte_carlo", samples=5000, seed=11)
    assert est.value == 0.862


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


def test_spread_lemma_bound_vacuous():
    assert spread_lemma_bound(4, 2, 2.0, 1) is None
    assert spread_lemma_bound(4, 1, 2.0, Fraction(1, 2)) is None
    # desk-scale spreadness levels with proof-style delta are always vacuous
    for n in range(3, 11):
        delta = Fraction(1, 16 * max(1, math.ceil(math.log2(2 * n))))
        assert spread_lemma_bound(n, Fraction(45, 10), math.log2(2 * n), delta) is None
