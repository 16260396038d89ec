"""Permutation, partial permutation, family, and trace-calculus behavior."""

import itertools
import math
import random

import pytest

from permemc import (
    DimensionMismatch,
    cell_masks,
    compose,
    contains_cells,
    derangements,
    double_derangements,
    double_derangement_count,
    enumerate_family,
    family,
    graph,
    identity,
    intersects,
    inverse,
    is_derangement,
    is_partial_permutation,
    partial_permutation,
    set_matching_number,
    subfamily_containing,
    subfamily_containing_any,
    symmetric_group,
    trace,
)
from permemc.core import ENUMERATION_CAP, disjoint_masks, max_disjoint
from permemc.verify import brute_nu


def test_compose_identity():
    assert compose(identity(3), (2, 3, 1)) == (2, 3, 1)


def test_compose_involution():
    assert compose((2, 1, 3), (2, 1, 3)) == (1, 2, 3)


def test_compose_cycles_cancel():
    # direct evaluation: a(b(i)) with a = (2,3,1), b = (3,1,2)
    assert compose((2, 3, 1), (3, 1, 2)) == (1, 2, 3)
    assert compose((3, 1, 2), (2, 3, 1)) == (1, 2, 3)


def test_compose_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        compose((1, 2), (2, 3, 1))


def test_inverse_round_trip():
    rng = random.Random(1)
    for _ in range(20):
        p = tuple(rng.sample(range(1, 7), 6))
        assert compose(p, inverse(p)) == identity(6)
        assert compose(inverse(p), p) == identity(6)


def test_intersects_equal():
    assert intersects((1, 2, 3), (1, 2, 3))


def test_intersects_disjoint_pair():
    assert not intersects((2, 1, 4, 3), (3, 4, 1, 2))


def test_intersects_single_position():
    assert intersects((1, 2, 4, 3), (2, 1, 4, 3))


def test_intersects_matches_graph_intersection():
    rng = random.Random(2)
    for _ in range(50):
        a = tuple(rng.sample(range(1, 6), 5))
        b = tuple(rng.sample(range(1, 6), 5))
        assert intersects(a, b) == bool(graph(a) & graph(b))


def test_disjointness_duality_exhaustive():
    # a, b disjoint  <=>  a b^{-1} is a derangement
    for n in (2, 3, 4, 5):
        members = symmetric_group(n).members
        for a in members:
            for b in members:
                assert (not intersects(a, b)) == is_derangement(compose(a, inverse(b)))


def test_partial_permutation_validation():
    assert is_partial_permutation([(1, 1), (2, 2)])
    assert not is_partial_permutation([(1, 1), (2, 1)])
    assert not is_partial_permutation([(1, 1), (1, 2)])
    with pytest.raises(ValueError):
        partial_permutation([(1, 1), (2, 1)])
    with pytest.raises(ValueError):
        partial_permutation([(1, 7)], n=4)


def test_family_canonical_order_and_dedup():
    f = family(3, [(3, 1, 2), (1, 2, 3), (3, 1, 2)])
    assert f.members == ((1, 2, 3), (3, 1, 2))
    assert len(f) == 2


def test_family_rejects_non_permutations():
    with pytest.raises(ValueError):
        family(3, [(1, 2, 2)])
    with pytest.raises(ValueError):
        family(3, [(1, 2)])


def test_family_label_ignored_by_equality():
    a = family(3, [(1, 2, 3)], label="x")
    b = family(3, [(1, 2, 3)], label="y")
    assert a == b


def test_trace_star_size():
    assert len(trace(symmetric_group(4), [(1, 1)])) == math.factorial(3)


def test_trace_empty_restriction_is_family():
    f = symmetric_group(3)
    assert len(trace(f, [])) == len(f)


def test_trace_column_clash_empty():
    assert trace(symmetric_group(3), [(1, 1), (2, 1)]) == ()


def test_trace_residue_sizes():
    residues = trace(symmetric_group(4), [(2, 3)])
    assert all(len(r) == 3 for r in residues)
    assert all((2, 3) not in r for r in residues)


def test_subfamily_pinned():
    sub = subfamily_containing(symmetric_group(3), [(1, 1)])
    assert sub.members == ((1, 2, 3), (1, 3, 2))


def test_subfamily_empty_restriction():
    f = symmetric_group(3)
    assert subfamily_containing(f, []) == f


def test_subfamily_row_clash():
    assert len(subfamily_containing(symmetric_group(3), [(1, 1), (1, 2)])) == 0


def test_subfamily_union_form():
    f = symmetric_group(3)
    u = subfamily_containing_any(f, [[(1, 1)], [(1, 2)]])
    assert len(u) == 4  # two disjoint stars of size 2


def test_trace_subfamily_adjunction_exhaustive():
    # |F[X]| = |F(X)| for every restriction of size <= 3 on subfamilies of [4]
    rng = random.Random(3)
    ambient = symmetric_group(4)
    cells = [(x, y) for x in range(1, 5) for y in range(1, 5)]
    for _ in range(25):
        f = family(4, rng.sample(list(ambient.members), rng.randint(1, 24)))
        for size in (1, 2, 3):
            for restriction in itertools.combinations(cells, size):
                assert len(subfamily_containing(f, restriction)) == len(trace(f, restriction))
                if not is_partial_permutation(restriction):
                    assert len(trace(f, restriction)) == 0


def test_cell_index_agrees_with_direct_scan():
    # The cached cell -> member-bitmask index against contains_cells, on
    # random subfamilies of the full families on [4] and [5].  Restrictions
    # include the empty set, cells outside [n]^2 and row or column clashes.
    rng = random.Random(41)
    for n in (4, 5):
        ambient = symmetric_group(n)
        grid = [(x, y) for x in range(0, n + 2) for y in range(0, n + 2)]
        for _ in range(30):
            f = family(n, rng.sample(list(ambient.members), rng.randint(0, len(ambient))))
            masks = f.cell_masks
            assert masks is f.cell_masks  # built once, then cached
            assert masks == cell_masks(f.graphs())
            for c in grid:
                direct = sum(1 << i for i, p in enumerate(f.members) if contains_cells(p, [c]))
                assert masks.get(c, 0) == direct
            restrictions = [[], [(1, 1), (1, 2)], [(1, 1), (2, 1)], [(0, 1)], [(n + 1, 1)]]
            restrictions += [rng.sample(grid, rng.randint(1, 3)) for _ in range(10)]
            for x in restrictions:
                through = tuple(p for p in f.members if contains_cells(p, x))
                assert subfamily_containing(f, x).members == through
                assert trace(f, x) == tuple(sorted((graph(p) - set(x) for p in through), key=sorted))
            for k in range(4):
                sets = rng.sample(restrictions, k)
                through = tuple(p for p in f.members if any(contains_cells(p, x) for x in sets))
                assert subfamily_containing_any(f, sets).members == through


def test_membership_rejects_non_members_and_wrong_lengths():
    f = family(4, [(1, 2, 3, 4), (2, 1, 4, 3)])
    assert (2, 1, 4, 3) in f and [1, 2, 3, 4] in f
    assert (1, 2, 4, 3) not in f
    assert (1, 2, 3) not in f and (1, 2, 3, 4, 5) not in f and () not in f
    assert (1, 2, 3) not in family(3, [])


def test_enumerate_all_sizes():
    assert len(symmetric_group(4)) == 24
    assert len(enumerate_family(1)) == 1


def test_enumerate_derangements_pinned():
    assert derangements(3).members == ((2, 3, 1), (3, 1, 2))
    assert len(derangements(1)) == 0


def test_enumerate_double_derangements_vs_permanent():
    sigma = (2, 1, 4, 3)
    assert len(double_derangements(4, sigma)) == double_derangement_count(4, sigma)
    for p in double_derangements(4, sigma):
        assert is_derangement(p) and not intersects(p, sigma)


def test_enumerate_cap():
    with pytest.raises(ValueError):
        enumerate_family(ENUMERATION_CAP + 1)
    with pytest.raises(ValueError):
        enumerate_family(0)


def test_enumerate_bad_kind_and_missing_sigma():
    with pytest.raises(ValueError):
        enumerate_family(3, "everything")
    with pytest.raises(ValueError):
        enumerate_family(3, "double_derangements")


def test_family_set_operations():
    f = symmetric_group(3)
    g = family(3, [(1, 2, 3), (2, 3, 1)])
    assert g.issubset(f)
    assert len(f.difference(g)) == 4
    assert f.union(g) == f


def test_set_matching_number_basics():
    one_row = [frozenset({(1, 1)}), frozenset({(1, 2)}), frozenset({(1, 1), (1, 2)})]
    assert set_matching_number([]) == 0 == brute_nu([])
    assert set_matching_number(one_row) == 2 == brute_nu(one_row)
    # the empty set is disjoint from everything, another empty set included
    with_empty = [frozenset(), frozenset({(1, 1)}), frozenset({(1, 1), (1, 2)})]
    assert set_matching_number(with_empty) == 2 == brute_nu(with_empty)
    assert set_matching_number([frozenset(), frozenset()]) == 2 == brute_nu([frozenset()] * 2)
    # duplicates of a nonempty set meet each other
    assert set_matching_number([frozenset({(1, 1)})] * 3) == 1


def test_set_matching_number_vs_graphs():
    fam = derangements(4)
    assert set_matching_number(fam.graphs()) == 3 == brute_nu(fam.graphs())


def _random_cell_sets(rng):
    """Up to 10 cell sets in a 4x4 grid: empty sets, duplicates, and sets
    with row or column clashes (not partial permutations) mixed in."""
    sets = []
    for _ in range(rng.randint(0, 10)):
        roll = rng.random()
        if roll < 0.1:
            sets.append(frozenset())
        elif roll < 0.2 and sets:
            sets.append(rng.choice(sets))
        else:
            size = rng.randint(1, 4)
            sets.append(frozenset((rng.randint(1, 4), rng.randint(1, 4)) for _ in range(size)))
    return sets


def test_set_matching_number_vs_brute_nu_random():
    rng = random.Random(31)
    shapes = {"empty": 0, "duplicate": 0, "clash": 0}
    for _ in range(600):
        sets = _random_cell_sets(rng)
        shapes["empty"] += frozenset() in sets
        shapes["duplicate"] += len(set(sets)) < len(sets)
        shapes["clash"] += any(not is_partial_permutation(s) for s in sets)
        assert set_matching_number(sets) == brute_nu(sets)
    assert all(v >= 50 for v in shapes.values()), shapes


def test_max_disjoint_witness_is_disjoint_and_lex_least():
    rng = random.Random(32)
    for _ in range(300):
        sets = _random_cell_sets(rng)
        picks = max_disjoint(sets)
        assert len(picks) == brute_nu(sets)
        assert all(not (sets[i] & sets[j]) for i, j in itertools.combinations(picks, 2))
        least = next(
            combo
            for combo in itertools.combinations(range(len(sets)), len(picks))
            if all(not (sets[i] & sets[j]) for i, j in itertools.combinations(combo, 2))
        )
        assert picks == least


def test_disjoint_masks_match_pairwise_scan():
    rng = random.Random(33)
    for _ in range(200):
        sets = _random_cell_sets(rng)
        expected = [
            sum(1 << j for j, b in enumerate(sets) if j != i and not (a & b))
            for i, a in enumerate(sets)
        ]
        assert disjoint_masks(sets) == expected
    fam = derangements(5)
    graphs = fam.graphs()
    assert disjoint_masks(graphs, fam.cell_masks) == disjoint_masks(graphs)
