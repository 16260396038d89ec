"""Exact solvers, certificates, classifiers, and inequality evaluators."""

import functools
import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from operator import and_

import pytest

from permemc import (
    DimensionMismatch,
    Family,
    apply_isomorphism,
    classify_cross_free_families,
    compose,
    containment_implies_matching_check,
    coset_certificate,
    covering_number,
    cross_matching,
    derangement_star,
    derangements,
    family,
    identity,
    intersects,
    inverse,
    is_partial_permutation,
    make_hm,
    make_star,
    make_star_union,
    matching_number,
    pointed_derangement_count,
    star_union_slack_sides,
    subfamily_containing,
    support_union_bound_sides,
    symmetric_group,
)
from permemc import core, solvers, verify
from permemc.core import max_disjoint
from permemc.solvers import StarSlackSides, _disjoint_representatives, coset_representative
from permemc.verify import brute_nu, brute_tau, random_subfamily


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
        fam = random_subfamily(rng, ambient, rng.randint(1, 24))
        nu, witness = matching_number(fam)
        assert nu == brute_nu(fam.graphs())
        assert len(witness) == nu
        assert all(not intersects(a, b) for a, b in itertools.combinations(witness, 2))


def test_matching_number_cached_index_matches_fresh_index():
    rng = random.Random(34)
    ambients = [symmetric_group(4), symmetric_group(5), derangements(5), derangements(6)]
    for _ in range(120):
        ambient = rng.choice(ambients)
        fam = random_subfamily(rng, ambient, rng.randint(1, min(len(ambient), 40)))
        fresh = max_disjoint(fam.graphs())
        assert matching_number(fam) == (len(fresh), tuple(fam.members[j] for j in fresh))


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
        fam = random_subfamily(rng, ambient, rng.randint(1, 24))
        tau, cover = covering_number(fam)
        assert (tau, cover) == brute_tau(fam)
        assert tau >= matching_number(fam)[0]


def test_tau_pruned_search_matches_combinations_oracle():
    rng = random.Random(12)
    ambients = [symmetric_group(n) for n in (3, 4, 5, 6)] + [derangements(n) for n in (4, 5, 6)]
    for ambient in ambients:
        sizes = [1, len(ambient)] + [rng.randint(2, min(len(ambient), 30)) for _ in range(12)]
        for size in sizes:
            fam = random_subfamily(rng, ambient, size)
            assert covering_number(fam) == brute_tau(fam)


def test_tau_pinned_sigma7_instance():
    # the unpruned search scans all C(49,5) combinations, then C(49,6) ones up to the witness
    fam = Family(7, random.Random(3).sample(symmetric_group(7).members, 40))
    assert covering_number(fam) == (6, ((2, 2), (2, 3), (2, 6), (4, 6), (7, 2), (7, 6)))


def test_tau_budget_charges_each_prefix_extended(monkeypatch):
    # Σ_3: the greedy floor is 3, and (1,1), (1,2), (1,3) are the first
    # three prefixes extended at t = 3: 3 prefixes.  The pinned Σ_7 instance
    # extends none at t = 3, then 25, 493 and 4,250 at t = 4, 5 and 6: the
    # budget is charged over all sizes, 4,768 prefixes.
    pinned = Family(7, random.Random(3).sample(symmetric_group(7).members, 40))
    for fam, extended, tau in ((symmetric_group(3), 3, 3), (pinned, 4768, 6)):
        monkeypatch.setattr(core, "_SUBSET_BUDGET", extended)
        assert covering_number(fam)[0] == tau
        monkeypatch.setattr(core, "_SUBSET_BUDGET", extended - 1)
        with pytest.raises(ValueError, match="^cell-combination search too large$"):
            covering_number(fam)


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


@functools.lru_cache(maxsize=None)
def _enumerated_cosets(n):
    """Σ_n split into left cosets of the cyclic shift by enumeration: the
    representative of p is p∘c^k for the shift c = (2, ..., n, 1) and
    p(1 + k) = 1, found by composing k times."""
    shift = tuple(list(range(2, n + 1)) + [1])

    def rep(p):
        power = identity(n)
        for _ in range(inverse(p)[0] - 1):
            power = compose(power, shift)
        return compose(p, power)

    classes = {}
    for p in itertools.permutations(range(1, n + 1)):
        classes.setdefault(rep(p), []).append(p)
    disjoint = all(
        not intersects(a, b) for cls in classes.values() for a, b in itertools.combinations(cls, 2)
    )
    rep_of = {p: r for r, cls in classes.items() for p in cls}
    return rep_of, len(classes), disjoint


def _coset_oracle(fam, s):
    rep_of, class_count, disjoint = _enumerated_cosets(fam.n)
    loads = dict.fromkeys(rep_of.values(), 0)
    for p in fam.members:
        loads[rep_of[p]] += 1
    max_load = max(loads.values())
    histogram = {}
    for v in loads.values():
        histogram[v] = histogram.get(v, 0) + 1
    bound = (s - 1) * math.factorial(fam.n - 1)
    return {
        "n": fam.n,
        "s": s,
        "class_count": class_count,
        "max_load": max_load,
        "load_histogram": {str(k): v for k, v in sorted(histogram.items())},
        "classes_pairwise_disjoint": disjoint,
        "family_size": len(fam),
        "bound": bound,
        "certified": max_load <= s - 1 and len(fam) <= bound,
    }


def test_coset_certificate_matches_enumerated_oracle():
    for n in range(1, 7):
        for s in (2, 3, n + 1):
            assert coset_certificate(symmetric_group(n), s).to_json() == _coset_oracle(symmetric_group(n), s)
            assert coset_certificate(Family(n, ()), s).to_json() == _coset_oracle(Family(n, ()), s)
    rng = random.Random(41)
    for _ in range(180):
        ambient = symmetric_group(rng.choice([4, 5, 6]))
        fam = random_subfamily(rng, ambient, rng.randint(1, min(len(ambient), 80)))
        s = rng.choice([2, 3, 4])
        assert coset_certificate(fam, s).to_json() == _coset_oracle(fam, s)


def test_coset_representative_matches_enumerated_oracle():
    rep_of, _, _ = _enumerated_cosets(6)
    assert len(rep_of) == 720
    for p, rep in rep_of.items():
        assert coset_representative(p) == rep


def test_coset_certificate_beyond_enumeration_cap():
    # Σ_12 has 12! members, far past the enumeration cap; only the three
    # members are visited.  The identity and the shift share a coset.
    n = 12
    ident = tuple(range(1, n + 1))
    shift = tuple(list(range(2, n + 1)) + [1])
    reverse = tuple(range(n, 0, -1))
    fam = Family(n, (ident, shift, reverse))
    cert = coset_certificate(fam, s=2)
    classes = math.factorial(11)
    touched = 2
    assert cert.class_count == classes
    assert cert.classes_pairwise_disjoint
    assert cert.load_histogram == {0: classes - touched, 1: 1, 2: 1}
    assert cert.max_load == 2 and not cert.certified
    assert coset_certificate(fam, s=3).certified


def test_coset_star_union_equality_instance():
    union = make_star_union(5, [(1, 1), (1, 2)]).family
    cert = coset_certificate(union, s=3)
    assert cert.family_size == 48 == cert.bound
    assert cert.max_load == 2
    assert cert.certified


def test_coset_empty_family():
    cert = coset_certificate(Family(4, ()), s=2)
    assert cert.certified and cert.max_load == 0


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


def _first_disjoint_picks(collections, meet):
    """The positions, within each collection, of the first tuple of
    ``itertools.product`` over the collections in (size, index) order whose
    picks pairwise do not ``meet``; None if there is none."""
    order = sorted(range(len(collections)), key=lambda i: (len(collections[i]), i))
    for combo in itertools.product(*[range(len(collections[i])) for i in order]):
        chosen = [collections[i][k] for i, k in zip(order, combo)]
        if not any(meet(a, b) for a, b in itertools.combinations(chosen, 2)):
            return [k for _, k in sorted(zip(order, combo))]
    return None


def _drawn_family(rng, ambient):
    """A validated random subfamily, an empty family, or a slice (through
    one or two cells, one at a time, so some are slices of slices) of the
    ambient family or of a random subfamily: each has its own cell index."""
    roll = rng.random()
    if roll < 0.1:
        return Family(ambient.n, ())
    if roll < 0.4:
        fam = ambient if rng.random() < 0.5 else random_subfamily(rng, ambient, rng.randint(2, 12))
        for _ in range(rng.randint(1, 2)):
            fam = subfamily_containing(fam, [(rng.randint(1, ambient.n), rng.randint(1, ambient.n))])
        return fam
    return random_subfamily(rng, ambient, rng.randint(1, 8))


def test_cross_matching_vs_brute():
    rng = random.Random(24)
    ambient = symmetric_group(4)
    found = 0
    for _ in range(300):
        fams = [_drawn_family(rng, ambient) for _ in range(rng.randint(2, 4))]
        got, picks = cross_matching(fams), _first_disjoint_picks([f.members for f in fams], intersects)
        assert got == (None if picks is None else tuple(f.members[k] for f, k in zip(fams, picks)))
        found += got is not None
    assert 50 <= found <= 250, found


def _random_collections(rng):
    """Up to 4 collections of up to 4 cell sets in a 4x4 grid: empty sets,
    sets repeated across collections, row or column clashes, and empty
    collections mixed in."""
    pool, collections = [], []
    for _ in range(rng.randint(0, 4)):
        coll = []
        for _ in range(rng.randint(0, 4)):
            roll = rng.random()
            if roll < 0.1:
                cells = frozenset()
            elif roll < 0.3 and pool:
                cells = rng.choice(pool)
            else:
                cells = frozenset((rng.randint(1, 4), rng.randint(1, 4)) for _ in range(rng.randint(1, 3)))
            pool.append(cells)
            coll.append(cells)
        collections.append(coll)
    return collections


def test_disjoint_representatives_match_product_scan():
    rng = random.Random(35)
    shapes = {"none": 0, "empty_collection": 0, "empty_set": 0, "shared": 0, "clash": 0, "found": 0, "missing": 0}
    for _ in range(1500):
        colls = _random_collections(rng)
        got = _disjoint_representatives(colls)
        assert got == _first_disjoint_picks(colls, and_)
        sets = [cells for coll in colls for cells in coll]
        shapes["none"] += not colls
        shapes["empty_collection"] += any(not coll for coll in colls)
        shapes["empty_set"] += frozenset() in sets
        shapes["shared"] += any(set(a) & set(b) for a, b in itertools.combinations(colls, 2))
        shapes["clash"] += any(not is_partial_permutation(cells) for cells in sets)
        shapes["found"] += got is not None and bool(colls)
        shapes["missing"] += got is None
    assert all(v >= 50 for v in shapes.values()), shapes


@pytest.mark.parametrize(
    "n, witness",
    [
        (8, ((2, 1, 3, 4, 5, 6, 7, 8), (1, 3, 2, 5, 4, 7, 8, 6), (3, 2, 1, 6, 7, 8, 4, 5))),
        (9, ((2, 1, 3, 4, 5, 6, 7, 8, 9), (1, 3, 2, 5, 4, 7, 6, 9, 8), (3, 2, 1, 6, 7, 8, 9, 4, 5))),
    ],
    ids=["8", "9"],
)
def test_cross_matching_three_stars_in_bounded_memory(n, witness):
    stars = [make_star(n, c) for c in ((1, 2), (2, 3), (3, 1))]
    tracemalloc.start()
    try:
        got = cross_matching(stars)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == witness
    # an N x N disjointness table over the 15,120 members of n = 8 alone takes about 28 MiB,
    # and a second, general index of the 120,960 members of n = 9 about 76 MiB
    assert peak < 16 * 2**20, peak


def test_cross_matching_of_no_families_is_empty():
    assert cross_matching([]) == ()


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_disjoint_representatives_deeper_than_the_recursion_limit():
    # 300 collections under a recursion limit of 100 frames past the caller's
    shifts = [family(300, [tuple((i + k) % 300 + 1 for i in range(300))]) for k in range(300)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        witness = cross_matching(shifts)
        report = containment_implies_matching_check([[frozenset()]] * 300, 300, Fraction(1, 10**4))
    finally:
        sys.setrecursionlimit(limit)
    assert witness == tuple(f.members[0] for f in shifts)
    assert report.representatives == (frozenset(),) * 300 and report.implication_held


def test_disjoint_representatives_end_a_branch_when_a_later_collection_runs_dry():
    # 40 collections {(i,1)}, {(i,2)}, branched first, and a last collection
    # of three sets that each meet all 80 singletons: every choice among the
    # 2^40 singleton picks leaves the last collection empty, which the row
    # bound sees at the first pick
    pairs = [[frozenset({(i, 1)}), frozenset({(i, 2)})] for i in range(1, 41)]
    every = frozenset(cell for coll in pairs for cells in coll for cell in cells)
    assert _disjoint_representatives([*pairs, [every | {(0, j)} for j in range(3)]]) is None
    # with one of the three sets free of the singletons, the first tuple is found
    assert _disjoint_representatives([*pairs, [every, every, frozenset({(0, 0)})]]) == [0] * 40 + [2]


def test_tau_deeper_than_the_recursion_limit():
    # the 300 cyclic shifts are pairwise disjoint, so every cover takes 300 cells
    shifts = family(300, [tuple((i + k) % 300 + 1 for i in range(300)) for k in range(300)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        tau, cover = covering_number(shifts)
    finally:
        sys.setrecursionlimit(limit)
    assert tau == 300 and cover == tuple((1, c) for c in range(1, 301))


def test_matching_number_beyond_the_old_table_cap():
    # more than 2^17 members, all of them mapping 1 to 1, so nu = 1
    members = tuple(itertools.islice(itertools.permutations(range(1, 11)), 2**17 + 1))
    assert matching_number(Family._of(10, members)) == (1, (members[0],))


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


def test_classify_rejects_cells_outside_the_grid():
    # p[x - 1] with x = 0 would read p(4): (0, 3) must not pass as "through (4, 3)"
    g = family(4, [p for p in derangements(4).members if p[3] == 3])
    for cells in ([(0, 3), (4, 3)], [(7, 3), (4, 3)], [(4, 3), (2, 5)]):
        with pytest.raises(ValueError, match="outside"):
            classify_cross_free_families([g, g], cells)
    with pytest.raises(ValueError, match="outside"):
        classify_cross_free_families([Family(4, ())], [(0, 1)])


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


def test_verify_upclosed_random_meets_its_hypothesis(monkeypatch):
    # seven distinct singletons per basis give 1 - (1 - p)^7 >= 6p for p <= 1/20,
    # so the check's instances meet the hypothesis and the implication is tested
    reports = []
    check = solvers.containment_implies_matching_check

    def spy(bases, s, p):
        reports.append(check(bases, s, p))
        return reports[-1]

    monkeypatch.setattr(solvers, "containment_implies_matching_check", spy)
    records = {c["id"]: c for c in verify.suite_solvers(0)["checks"]}
    drawn = reports[-10:]  # the pinned upclosed checks come first
    assert len(reports) == 12 and any(r.hypothesis_met and r.implication_held for r in drawn)
    assert all(r.implication_held for r in drawn if r.hypothesis_met)
    assert records["upclosed-random"]["status"] == "pass"
    assert records["upclosed-random"]["description"] == (
        "the implication held on every randomized instance with a true hypothesis"
    )


def test_upclosed_check_ground_cap():
    from permemc.spread import EXACT_CELL_CAP

    bases = [[frozenset({(1, c)}) for c in range(1, 26)]]
    with pytest.raises(ValueError):
        containment_implies_matching_check(bases, 1, Fraction(1, 2))
    # 13 + 12 cells: each basis fits the exact cap, their ground does not
    bases = [[frozenset({(1, c)}) for c in range(1, 14)], [frozenset({(2, c)}) for c in range(1, 13)]]
    with pytest.raises(ValueError, match=f"ground set capped at {EXACT_CELL_CAP} cells"):
        containment_implies_matching_check(bases, 2, Fraction(1, 2))
    report = containment_implies_matching_check([bases[0][:12], bases[1]], 2, Fraction(1, 2))
    assert report.probabilities == (1 - Fraction(1, 2) ** 12,) * 2


def test_support_sides_pinned_two_cell():
    sides = support_union_bound_sides(
        symmetric_group(4), [frozenset({(1, 1), (2, 2)})], Fraction(1, 2), 2
    )
    assert sides.lhs == 2  # (n-2)! members through a 2-cell set
    assert not sides.trivial
    assert not sides.maximal  # replacing by a singleton keeps nu < 2
    assert sides.singleton_count == 0
    assert sides.max_star_size == 6
    assert sides.max_star_cell == (1, 1)  # every star of Σ_4 has 6 members: ties go to the least cell
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
    assert sides.to_json() == {
        "best_union_size": 6,
        "best_cells": ["1:1"],
        "slack": "3/32",
        "lhs": 1,
        "rhs": "195/32",
        "holds": True,
    }


def test_star_slack_derangements5():
    d5 = derangements(5)
    fam = family(5, [(2, 1, 4, 5, 3)])
    sides = star_union_slack_sides(fam, d5, 3)
    assert sides.best_union_size == 22
    assert sides.best_cells == ((1, 2), (1, 3))
    # |D_5| = 44, so the slack is 44/5^4 and the right side 22 + 44/625
    assert sides.to_json() == {
        "best_union_size": 22,
        "best_cells": ["1:2", "1:3"],
        "slack": "44/625",
        "lhs": 1,
        "rhs": "13794/625",
        "holds": True,
    }


def test_star_slack_tight_case():
    best = make_star(4, (1, 1))
    sides = star_union_slack_sides(best, symmetric_group(4), 2)
    assert sides.lhs == sides.best_union_size == 6
    assert sides.holds


def test_star_slack_more_stars_than_cells():
    # s - 1 = 8 exceeds the 6 cells of the ambient members: all of them are taken
    ambient = family(3, [(1, 2, 3), (2, 3, 1)])
    sides = star_union_slack_sides(family(3, [(1, 2, 3)]), ambient, 9)
    assert sides.best_cells == ((1, 1), (1, 2), (2, 2), (2, 3), (3, 1), (3, 3))
    assert sides.best_union_size == 2 and sides.slack == Fraction(2, 81) and sides.holds


def _combinations_star_slack(fam, ambient, s):
    """The exhaustive star-union search: every (s-1)-combination of the
    ambient's cells in row-major order, the first largest union kept."""
    masks = ambient.cell_masks
    best, best_cells = -1, ()
    for combo in itertools.combinations(sorted(masks), min(s - 1, len(masks))):
        size = functools.reduce(int.__or__, (masks[c] for c in combo), 0).bit_count()
        if size > best:
            best, best_cells = size, combo
    slack = Fraction(len(ambient), ambient.n**4)
    return StarSlackSides(best, best_cells, slack, len(fam), best + slack, len(fam) <= best + slack).to_json()


def test_star_union_branch_and_bound_matches_combinations_oracle():
    rng = random.Random(21)
    cases = [(family(3, [(1, 2, 3)]), family(3, [(1, 2, 3), (2, 3, 1)]), 9)]  # s - 1 beyond the cell count
    ambients = [
        (symmetric_group(5), (1, 2, 3, 8, 30, 120)),  # the whole Σ_n: every union of s-1 stars in a row ties
        (symmetric_group(6), (1, 4, 12, 40, 720)),
        (symmetric_group(7), (3, 12, 60)),
        (derangements(6), (2, 9, 30, 265)),
        (derangements(7), (2, 9, 30)),
    ]
    for ambient, sizes in ambients:
        for size in sizes:
            sub = random_subfamily(rng, ambient, size)
            fam = random_subfamily(rng, sub, rng.randint(0, len(sub)))
            for s in range(2, 6 if len(sub) < 60 else 5):
                cases.append((fam, sub, s))
        cases.append((family(ambient.n, ambient.members[:1]), family(ambient.n, ambient.members[:1]), ambient.n + 3))
    for fam, ambient, s in cases:
        assert star_union_slack_sides(fam, ambient, s).to_json() == _combinations_star_slack(fam, ambient, s)
    # all 49 stars of Σ_7 tie at 720 members, and four cells of one row cover the most
    sides = star_union_slack_sides(symmetric_group(7), symmetric_group(7), 5)
    assert sides.to_json() == {
        "best_union_size": 2880,
        "best_cells": ["1:1", "1:2", "1:3", "1:4"],
        "slack": "720/343",
        "lhs": 5040,
        "rhs": "988560/343",
        "holds": False,
    }


def test_star_union_answers_beyond_the_combination_count():
    # C(49, 6) is over 2,000,000 combinations, but the bound leaves few
    # prefixes to extend
    s7 = symmetric_group(7)
    sides = star_union_slack_sides(s7, s7, 7)
    assert sides.best_union_size == 4320 and sides.best_cells == tuple((1, c) for c in range(1, 7))


def test_star_union_budget_charges_each_prefix_extended(monkeypatch):
    # Σ_3, s = 3: (1,1) then (1,2) cover 4 of 6; every star holds 2, so no
    # other prefix can pass 4: 2 prefixes.  s = 4: (1,1), (1,2), (1,3) cover
    # all 6: 3 prefixes.  Σ_6, s = 9: the first eight cells cover all 720
    # members and the walk stops there: 8 prefixes.  {123, 213, 312}, s = 2:
    # the stars of (1,1), (1,2) and (1,3) hold one member, (2,1)'s holds two
    # and no star holds three: 4 prefixes.
    s3 = symmetric_group(3)
    three = family(3, [(1, 2, 3), (2, 1, 3), (3, 1, 2)])
    cases = ((s3, 3, 2, 4), (s3, 4, 3, 6), (symmetric_group(6), 9, 8, 720), (three, 2, 4, 2))
    for ambient, s, extended, best in cases:
        monkeypatch.setattr(core, "_SUBSET_BUDGET", extended)
        assert star_union_slack_sides(ambient, ambient, s).best_union_size == best
        monkeypatch.setattr(core, "_SUBSET_BUDGET", extended - 1)
        with pytest.raises(ValueError, match="cell-combination search too large"):
            star_union_slack_sides(ambient, ambient, s)


def test_support_sides_empty_ambient():
    sides = support_union_bound_sides(Family(3, ()), [{(1, 1)}], Fraction(1, 2), 2)
    assert (sides.lhs, sides.singleton_union_size, sides.max_star_size, sides.max_star_cell) == (0, 0, 0, None)
    assert sides.rhs == 0 and sides.holds and sides.corollary_holds


def test_star_slack_requires_containment():
    with pytest.raises(ValueError):
        star_union_slack_sides(symmetric_group(4), derangements(4), 2)


def test_isomorphism_preserves_nu_tau_with_certificates():
    rng = random.Random(27)
    ambient = symmetric_group(4)
    for _ in range(100):
        fam = random_subfamily(rng, ambient, rng.randint(1, 20))
        rho = tuple(rng.sample(range(1, 5), 4))
        pi = tuple(rng.sample(range(1, 5), 4))
        image = apply_isomorphism(rho, fam, pi)
        nu1, wit1 = matching_number(fam)
        nu2, wit2 = matching_number(image)
        assert nu1 == nu2
        mapped = apply_isomorphism(rho, family(4, wit1), pi)
        assert all(not intersects(a, b) for a, b in itertools.combinations(mapped.members, 2))
        assert covering_number(fam)[0] == covering_number(image)[0]


@pytest.mark.parametrize(
    "families, cells, error, match",
    [
        ([Family(4, ())], [], ValueError, "one cell per family"),
        ([Family(4, ()), Family(4, ())], [(1, 2), (1, 2)], ValueError, "cells must be distinct"),
        ([], [], ValueError, "at least one family"),
        ([Family(4, ()), Family(5, ())], [(1, 2), (2, 1)], DimensionMismatch, r"different \[n\]"),
        ([Family(4, ()), Family(4, ())], [(1, 1), (1, 2)], ValueError, "diagonal"),
    ],
    ids=["cell-count-mismatch", "repeated-cells", "no-families", "mixed-n", "diagonal-cell"],
)
def test_classify_bad_inputs_fail_cleanly(families, cells, error, match):
    with pytest.raises(error, match=match):
        classify_cross_free_families(families, cells)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: containment_implies_matching_check([[{(1, 1)}]], 2, Fraction(1, 10)), "exactly s"),
        (lambda: support_union_bound_sides(symmetric_group(3), [], 1, 2), "must be nonempty"),
        (lambda: star_union_slack_sides(symmetric_group(3), symmetric_group(3), 1), "s must be at least 2"),
        (lambda: star_union_slack_sides(symmetric_group(3), symmetric_group(3), 2.5), "s must be at least 2"),
        (lambda: classify_cross_free_families([derangement_star(4, (1, 2))], [(1.0, 2)]), r"cell \(1.0, 2\) outside"),
        (lambda: containment_implies_matching_check([[{(1, 1)}], [{(2, 2)}]], 2.0, Fraction(1, 10)), "non-negative"),
        (lambda: containment_implies_matching_check([[{(1, 1)}], [{(2, 2)}]], "2", Fraction(1, 10)), "non-negative"),
        (lambda: coset_certificate(symmetric_group(3), 2.5), "s must be at least 1"),
        (lambda: coset_certificate(symmetric_group(3), 0), "s must be at least 1"),
        (lambda: support_union_bound_sides(symmetric_group(3), [{(1, 1)}], 1, 2.0), "s must be at least 1"),
        (lambda: support_union_bound_sides(symmetric_group(3), [{(1, 1)}], 1, 0), "s must be at least 1"),
    ],
    ids=[
        "upclosed-wrong-count",
        "support-sides-no-supports",
        "star-slack-s1",
        "star-slack-float-s",
        "classify-float-cell",
        "upclosed-float-s",
        "upclosed-string-s",
        "coset-float-s",
        "coset-s0",
        "support-sides-float-s",
        "support-sides-s0",
    ],
)
def test_bad_inputs_fail_cleanly(call, match):
    with pytest.raises(ValueError, match=match):
        call()
