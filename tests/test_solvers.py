"""Exact solvers, certificates, classifiers, and inequality evaluators."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from permemc import (
    Family,
    apply_isomorphism,
    classify_cross_free_families,
    containment_implies_matching_check,
    coset_certificate,
    covering_number,
    cross_matching,
    derangement_star,
    derangements,
    family,
    graph,
    intersects,
    make_hm,
    make_star,
    make_star_union,
    matching_number,
    pointed_derangement_count,
    star_union_slack_sides,
    support_union_bound_sides,
    symmetric_group,
)
from permemc.solvers import coset_representative
from permemc.verify import brute_nu, brute_tau


def _random_subfamily(rng, ambient, size):
    return family(ambient.n, rng.sample(list(ambient.members), size))


def test_nu_star_is_one():
    assert matching_number(make_star(5, (2, 3)))[0] == 1


def test_nu_sigma4_is_four():
    nu, witness = matching_number(symmetric_group(4))
    assert nu == 4
    assert all(not intersects(a, b) for a, b in itertools.combinations(witness, 2))


def test_nu_derangements4_is_three():
    assert matching_number(derangements(4))[0] == 3


def test_nu_empty_family():
    assert matching_number(Family(3, ())) == (0, ())


def test_degenerate_n1():
    one = symmetric_group(1)
    assert matching_number(one) == (1, ((1,),))
    assert covering_number(one) == (1, ((1, 1),))
    cert = coset_certificate(one, s=2)
    assert cert.class_count == 1 and cert.certified


def test_nu_witness_is_valid_and_lex_least():
    fam = symmetric_group(3)
    nu, witness = matching_number(fam)
    assert nu == 3
    assert witness[0] == (1, 2, 3)  # include-first lexicographic search


def test_nu_vs_exhaustive_500():
    rng = random.Random(21)
    ambient = symmetric_group(4)
    for _ in range(500):
        fam = _random_subfamily(rng, ambient, rng.randint(1, 24))
        nu, witness = matching_number(fam)
        assert nu == brute_nu(fam.graphs())
        assert len(witness) == nu
        assert all(not intersects(a, b) for a, b in itertools.combinations(witness, 2))


def test_tau_star_is_center():
    tau, cover = covering_number(make_star(4, (2, 3)))
    assert tau == 1 and cover == ((2, 3),)


def test_tau_sigma3():
    tau, cover = covering_number(symmetric_group(3))
    assert tau == 3
    assert cover == ((1, 1), (1, 2), (1, 3))


def test_tau_hm_pinned():
    tau, cover = covering_number(make_hm(4, (2, 1, 4, 3)))
    assert tau == 2 and cover == ((1, 1), (1, 2))


def test_tau_empty_rejected():
    with pytest.raises(ValueError):
        covering_number(Family(3, ()))


def test_tau_vs_exhaustive_500_and_tau_ge_nu():
    rng = random.Random(22)
    ambient = symmetric_group(4)
    for _ in range(500):
        fam = _random_subfamily(rng, ambient, rng.randint(1, 24))
        tau, cover = covering_number(fam)
        assert tau == brute_tau(fam)
        assert all(graph(p) & set(cover) for p in fam.members)
        assert tau >= matching_number(fam)[0]


def test_coset_partition_structure():
    for n in range(1, 8):
        cert = coset_certificate(symmetric_group(n), s=n + 1)
        assert cert.class_count == math.factorial(n - 1)
        assert cert.classes_pairwise_disjoint
        assert cert.max_load == n  # the full family loads every coset fully
        assert cert.certified  # n <= s - 1 = n


def test_coset_representative_fixes_one():
    rng = random.Random(23)
    for _ in range(30):
        p = tuple(rng.sample(range(1, 7), 6))
        rep = coset_representative(p)
        assert rep[0] == 1


def test_coset_classes_are_shift_orbits():
    # the class of p is exactly {p composed with every power of the cycle}
    from permemc import compose

    rng = random.Random(28)
    n = 5
    shift = tuple(list(range(2, n + 1)) + [1])
    for _ in range(20):
        p = tuple(rng.sample(range(1, n + 1), n))
        orbit = set()
        q = p
        for _ in range(n):
            orbit.add(q)
            q = compose(q, shift)
        assert len(orbit) == n
        reps = {coset_representative(x) for x in orbit}
        assert len(reps) == 1


def test_coset_star_union_equality_instance():
    union = make_star_union(5, [(1, 1), (1, 2)]).family
    cert = coset_certificate(union, s=3, assert_matching_bound=True)
    assert cert.family_size == 48 == cert.bound
    assert cert.max_load == 2
    assert cert.certified


def test_coset_empty_family():
    cert = coset_certificate(Family(4, ()), s=2)
    assert cert.certified and cert.max_load == 0


def test_coset_assert_matching_bound_raises():
    # the full family has n pairwise disjoint members per coset
    with pytest.raises(ValueError):
        coset_certificate(symmetric_group(4), s=2, assert_matching_bound=True)


def test_cross_matching_pinned_witness():
    f1 = derangement_star(4, (1, 2))
    f2 = derangement_star(4, (2, 1))
    assert cross_matching([f1, f2]) == ((2, 3, 4, 1), (4, 1, 2, 3))


def test_cross_matching_self_intersecting():
    same = family(4, [(2, 1, 4, 3)])
    assert cross_matching([same, same]) is None


def test_cross_matching_single_family():
    f1 = derangement_star(4, (1, 2))
    assert cross_matching([f1]) == ((2, 1, 4, 3),)


def test_cross_matching_t_mismatch():
    with pytest.raises(ValueError):
        cross_matching([derangements(4)], t=2)


def test_cross_matching_vs_brute():
    rng = random.Random(24)
    ambient = symmetric_group(4)
    found = 0
    for _ in range(300):
        fams = [_random_subfamily(rng, ambient, rng.randint(1, 8)) for _ in range(rng.randint(2, 4))]
        got = cross_matching(fams)
        # the first pairwise disjoint tuple of the product in (size, index) order
        order = sorted(range(len(fams)), key=lambda i: (len(fams[i]), i))
        brute = None
        for combo in itertools.product(*[fams[i].members for i in order]):
            if all(not intersects(a, b) for a, b in itertools.combinations(combo, 2)):
                brute = tuple(dict(sorted(zip(order, combo))).values())
                break
        assert got == brute
        found += got is not None
    assert 50 <= found <= 250, found


def test_classify_pinned_containment_both():
    single = family(4, [(2, 1, 4, 3)])
    cls = classify_cross_free_families([single, single], [(1, 2), (2, 1)])
    assert cls.alternative == "both"
    assert 1 in cls.containment_witnesses
    assert cls.union_size == 1


def test_classify_size_bound_arithmetic():
    # t = 3, n = 6: (3 - 1.01) d_{6,1} = 1.99 * 53
    bound = Fraction(100 * 3 - 101, 100) * pointed_derangement_count(6)
    assert bound == Fraction(10547, 100)
    assert float(bound) == 105.47


def test_classify_rejects_cross_matching_input():
    f1 = derangement_star(4, (1, 2))
    f2 = derangement_star(4, (2, 1))
    with pytest.raises(ValueError):
        classify_cross_free_families([f1, f2], [(1, 2), (2, 1)])


def test_classify_rejects_bad_membership():
    bad = family(4, [(2, 3, 4, 1)])  # does not map 2 to 1
    with pytest.raises(ValueError):
        classify_cross_free_families([bad], [(2, 1)])


def test_classify_vs_brute_random():
    rng = random.Random(25)
    done = 0
    while done < 100:
        n = rng.randint(4, 5)
        ders = derangements(n)
        t = rng.randint(2, 3)
        cells = rng.sample(
            [(x, y) for x in range(1, n + 1) for y in range(1, n + 1) if x != y], t
        )
        fams = []
        for cell in cells:
            star = [p for p in ders.members if p[cell[0] - 1] == cell[1]]
            fams.append(family(n, rng.sample(star, rng.randint(0, min(3, len(star))))))
        if all(len(f) > 0 for f in fams) and cross_matching(fams) is not None:
            continue
        cls = classify_cross_free_families(fams, cells)
        union = set()
        for f in fams:
            union |= set(f.members)
        expect_contained = []
        for j in range(t):
            others = [cells[i] for i in range(t) if i != j]
            if all(any(p[c[0] - 1] == c[1] for c in others) for p in union):
                expect_contained.append(j + 1)
        expect_size = 100 * len(union) <= (100 * t - 101) * pointed_derangement_count(n)
        assert cls.containment_witnesses == tuple(expect_contained)
        assert cls.size_holds == expect_size
        expected_alt = (
            "both"
            if expect_contained and expect_size
            else "containment"
            if expect_contained
            else "size"
            if expect_size
            else "neither"
        )
        assert cls.alternative == expected_alt
        done += 1


def test_upclosed_check_disjoint_singletons():
    bases = [[frozenset({(1, 1)})], [frozenset({(2, 2)})]]
    report = containment_implies_matching_check(bases, 2, Fraction(1, 10))
    assert report.probabilities == (Fraction(1, 10), Fraction(1, 10))
    assert report.representatives is not None
    # p = 1/10 gives threshold 3*2*(1/10) = 3/5 > 1/10: hypothesis fails
    assert not report.hypothesis_met
    assert report.implication_held is None


def test_upclosed_check_hypothesis_met():
    # rich bases on disjoint cells push the probability over 3sp
    bases = [
        [frozenset({(1, c)}) for c in range(1, 5)],
        [frozenset({(2, c)}) for c in range(1, 5)],
    ]
    p = Fraction(1, 2)
    report = containment_implies_matching_check(bases, 2, Fraction(1, 100))
    assert report.hypothesis_met is False or report.implication_held
    report = containment_implies_matching_check(bases, 2, Fraction(1, 1000))
    # Pr = 1 - (1 - 1/1000)^4 ~ 1/250 < 3*2/1000: still short; just sanity
    assert isinstance(report.probabilities[0], Fraction)


def test_upclosed_check_random_instances():
    rng = random.Random(26)
    cells = [(r, c) for r in (1, 2) for c in range(1, 6)]
    for _ in range(10):
        b1 = [frozenset({rng.choice(cells)}) for _ in range(3)]
        b2 = [frozenset({rng.choice(cells)}) for _ in range(3)]
        p = Fraction(1, rng.randint(2, 8))
        report = containment_implies_matching_check([b1, b2], 2, p)
        if report.hypothesis_met:
            assert report.implication_held


def test_upclosed_check_ground_cap():
    bases = [[frozenset({(1, c)}) for c in range(1, 26)]]
    with pytest.raises(ValueError):
        containment_implies_matching_check(bases, 1, Fraction(1, 2))


def test_support_sides_pinned_two_cell():
    sides = support_union_bound_sides(
        symmetric_group(4), [frozenset({(1, 1), (2, 2)})], Fraction(1, 2), 2
    )
    assert sides.lhs == 2  # (n-2)! members through a 2-cell set
    assert not sides.trivial
    assert not sides.maximal  # replacing by a singleton keeps nu < 2
    assert sides.singleton_count == 0
    assert sides.max_star_size == 6
    assert sides.rhs == Fraction(0) + Fraction(1, 2) * 1 * 6
    assert sides.holds


def test_support_sides_trivial_flag():
    sides = support_union_bound_sides(symmetric_group(4), [frozenset({(1, 1)})], Fraction(1, 2), 2)
    assert sides.trivial
    assert not sides.corollary_applicable


def test_support_sides_boundary_l_eq_s_minus_2():
    sides = support_union_bound_sides(
        symmetric_group(4),
        [frozenset({(1, 1)}), frozenset({(2, 2), (3, 3)})],
        Fraction(1, 2),
        3,
        r=1000,
        q=2,
    )
    assert sides.singleton_count == 1
    assert sides.matching_ok  # nu = 2 < 3
    # eps*r = 500 >= 8*e*2*2 ~ 87: hypothesis met under the sound rounding
    assert sides.hypothesis_met
    singles = len(make_star(4, (1, 1)))
    assert sides.singleton_union_size == singles
    assert sides.rhs == singles + Fraction(1, 2) * 1 * 6


def test_support_sides_maximality_detected():
    # {(1,1)} and {(2,2)} with s = 2: any proper-subset replacement gives
    # the empty set, which is disjoint from everything, creating a
    # 2-matching; so the family is maximal.
    sides = support_union_bound_sides(
        symmetric_group(4), [frozenset({(1, 1)}), frozenset({(2, 1)})], Fraction(1, 2), 2
    )
    assert not sides.matching_ok or sides.maximal  # nu = 1 < 2 here: maximal
    assert sides.maximal


def test_star_slack_sigma4():
    fam = family(4, [(1, 2, 3, 4)])
    sides = star_union_slack_sides(fam, symmetric_group(4), 2)
    assert sides.best_union_size == 6
    assert sides.slack == Fraction(24, 4**4)
    assert sides.holds


def test_star_slack_derangements5():
    d5 = derangements(5)
    fam = family(5, [(2, 1, 4, 5, 3)])
    sides = star_union_slack_sides(fam, d5, 3)
    assert sides.best_union_size == 22
    assert sides.best_cells == ((1, 2), (1, 3))


def test_star_slack_tight_case():
    best = make_star(4, (1, 1))
    sides = star_union_slack_sides(best, symmetric_group(4), 2)
    assert sides.lhs == sides.best_union_size == 6
    assert sides.holds


def test_star_slack_requires_containment():
    with pytest.raises(ValueError):
        star_union_slack_sides(symmetric_group(4), derangements(4), 2)


def test_isomorphism_preserves_nu_tau_with_certificates():
    rng = random.Random(27)
    ambient = symmetric_group(4)
    for _ in range(100):
        fam = _random_subfamily(rng, ambient, rng.randint(1, 20))
        rho = tuple(rng.sample(range(1, 5), 4))
        pi = tuple(rng.sample(range(1, 5), 4))
        image = apply_isomorphism(rho, fam, pi)
        nu1, wit1 = matching_number(fam)
        nu2, wit2 = matching_number(image)
        assert nu1 == nu2
        mapped = apply_isomorphism(rho, family(4, wit1), pi)
        assert all(not intersects(a, b) for a, b in itertools.combinations(mapped.members, 2))
        assert covering_number(fam)[0] == covering_number(image)[0]
