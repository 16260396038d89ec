"""Permutation, partial permutation, family, and trace-calculus behavior."""

import itertools
import math
import random
from array import array
from fractions import Fraction
from functools import reduce
from operator import or_

import pytest

from permemc import (
    DimensionMismatch,
    Family,
    apply_isomorphism,
    cell_masks,
    classify_cross_free_families,
    compose,
    containment_implies_matching_check,
    containment_probability,
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
    is_permutation,
    is_r_spread,
    make_hm,
    make_hm_star_union,
    make_star,
    make_star_union,
    partial_permutation,
    set_matching_number,
    spread_lemma_bound,
    subfamily_containing,
    star_center_image,
    subfamily_containing_any,
    support_union_bound_sides,
    symmetric_group,
    trace,
)
import permemc.core
from permemc.core import ENUMERATION_CAP, _selected, as_cell, as_permutation, max_disjoint
from permemc.verify import brute_nu


def test_compose_identity():
    assert compose(identity(3), (2, 3, 1)) == (2, 3, 1)
    assert identity(0) == () == inverse(())
    assert inverse([2, 3, 1]) == (3, 1, 2)


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


def test_family_reads_members_like_the_family_constructor():
    # a member that is not iterable is named in the same ValueError by both entry points
    for build in (family, Family):
        with pytest.raises(ValueError, match=r"^not a permutation of \[3\]: 5$"):
            build(3, [5])
        with pytest.raises(ValueError, match=r"^not a permutation of \[3\]: None$"):
            build(3, [(1, 2, 3), None])
        # an iterable member is named by the tuple read from it, not by the object given
        with pytest.raises(ValueError, match=r"^not a permutation of \[3\]: \(1, 1, 2\)$"):
            build(3, [iter([1, 1, 2])])
        with pytest.raises(ValueError, match=r"^not a permutation of \[3\]: \(1, 2\)$"):
            build(3, [(2, 1, 3), [1, 2]])
    assert family(3, iter([(2, 1, 3), iter([1, 2, 3])])) == Family(3, [(1, 2, 3), (2, 1, 3)])


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


def test_trace_of_a_slice_cuts_through_its_roots_index():
    sub = subfamily_containing(symmetric_group(4), [(1, 1)])
    assert trace(sub, [(2, 3)]) == trace(Family(4, sub.members), [(2, 3)]) and "cell_masks" not in vars(sub)


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


def _assert_same_index(f):
    """The family's index, as its build left it and as built again from its
    members, equals the general build's, keys in one row-major order."""
    masks, again, general = f.cell_masks, Family._of(f.n, f.members).cell_masks, cell_masks(enumerate(p, 1) for p in f.members)
    assert masks == again == general
    assert list(masks) == list(again) == list(general) == sorted(masks)


def test_row_wise_index_agrees_with_the_general_build():
    # Family.cell_masks reads a family with n <= 255 row by row, one byte per
    # image: a row of at least n members is searched for each image, a
    # shorter one reads its own; larger n and lists take the general
    # byte-bitmap build.  Every build gives its keys in row-major order.
    rng = random.Random(23)
    for n in range(1, 13):
        ambient = symmetric_group(n) if n <= 7 else None
        for _ in range(12 if n <= 7 else 3):
            if ambient is None:
                members = [rng.sample(range(1, n + 1), n) for _ in range(rng.randint(0, 300))]
            else:
                members = rng.sample(ambient.members, rng.randint(0, len(ambient)))
            _assert_same_index(family(n, members))
    for f in (family(4, []), symmetric_group(6), derangements(6), symmetric_group(8), derangements(8)):
        _assert_same_index(f)
    for n in (255, 256):  # one on each side of the byte switch
        _assert_same_index(family(n, [rng.sample(range(1, n + 1), n) for _ in range(rng.randint(2, 9))]))
    _assert_same_index(family(255, [rng.sample(range(1, 256), 255) for _ in range(5)]))
    for n in (5, 12, 40):  # rows one member short of n, of exactly n, and one longer
        for size in (n - 1, n, n + 1):
            _assert_same_index(family(n, [rng.sample(range(1, n + 1), n) for _ in range(size)]))
    shifts = family(300, [tuple((i + k) % 300 + 1 for i in range(300)) for k in (0, 1, 299)])
    _assert_same_index(shifts)
    assert [shifts.cell_masks[c] for c in ((1, 1), (1, 2), (1, 300), (300, 1))] == [0b001, 0b010, 0b100, 0b010]


class _OneShot:
    """An iterator over a member's images that can be read only once."""

    def __init__(self, images):
        self.images, self.rest = tuple(images), iter(images)

    def __iter__(self):
        return self

    def __next__(self):
        return next(self.rest)

    def __repr__(self):
        return f"_OneShot({self.images})"


def _oracle_build(n, members):
    """The members ``Family(n, members)`` keeps, by ``as_permutation`` on each
    member in turn, or the ValueError text naming the first one it refuses:
    by the tuple read from it, or by the member itself if it is not iterable."""
    read = []
    for m in members:
        try:
            read.append(tuple(m))
        except TypeError:
            read.append(m)
    perms = [as_permutation(m, n) for m in read]
    if None in perms:
        return f"not a permutation of [{n}]: {read[perms.index(None)]}"
    return tuple(sorted(set(perms)))


def _member_inputs(rng, n):
    """Factories of member lists over [n], valid and invalid: each call of a
    factory builds fresh objects, so one-shot iterators can be read again."""
    wraps = [tuple, list, _OneShot, lambda p: tuple(True if v == 1 else v for v in p)]
    if n <= 255:
        wraps += [bytes, bytearray, lambda p: array("B", p)]
    bad = [
        lambda p: (float(p[0]), *p[1:]),
        lambda p: (str(p[0]), *p[1:]),
        lambda p: p[:-1],
        lambda p: (*p, n + 1),
        lambda p: (0, *p[1:]),
        lambda p: (-1, *p[1:]),
        lambda p: (n + 1, *p[1:]),
        lambda p: (255, *p[1:]),
        lambda p: (256, *p[1:]),
        lambda p: (p[0], p[0], *p[2:]) if n > 1 else (2,),
        lambda p: 5,
        lambda p: "".join(map(str, p)),
        lambda p: _OneShot((*p[:-1], 0)),
    ]
    for _ in range(25):
        size = rng.randint(0, 12)
        members = [rng.sample(range(1, n + 1), n) for _ in range(size)]
        members += rng.sample(members, min(size, rng.randint(0, 3)))  # duplicates
        shapes = [rng.choice(wraps) for _ in members]
        where = rng.randrange(len(members)) if members and rng.random() < 0.5 else None
        mistake = rng.choice(bad)

        def build(members=members, shapes=shapes, where=where, mistake=mistake):
            out = [wrap(p) for wrap, p in zip(shapes, members)]
            if where is not None:
                out[where] = mistake(members[where])
            return out

        yield build


def test_validated_family_agrees_with_the_per_member_oracle():
    # Family(...) reads members as byte strings for n <= 255 and builds the
    # index in the same pass; every answer must be the as_permutation
    # loop's: the same members, the same first refused member, the index of
    # the general build with its key order
    rng = random.Random(31)
    factories = []
    for n in (1, 2, 3, 5, 7, 256):
        factories += [(n, build) for build in _member_inputs(rng, n)]
    factories += [(2, lambda: [array("h", [513])]), (2, lambda: [(1, 2), array("h", [513])])]  # raw bytes 01 02
    factories += [(3, lambda: []), (3, lambda: [_OneShot((2, 3, 1)), _OneShot((1, 1, 3)), 5])]
    factories += [(3, lambda: [_OneShot((2, 3, 1)), 5, _OneShot((1, 1, 3))])]
    # a value outside [n] in place of a missing one; a short and a long member whose rows line up
    factories += [(3, lambda: [(4, 2, 3)]), (2, lambda: [(3, 3)]), (2, lambda: [(1,), (2, 1, 2)])]
    valid = refused = 0
    for n, build in factories:
        expected = _oracle_build(n, build())
        if isinstance(expected, str):
            with pytest.raises(ValueError) as err:
                Family(n, build())
            assert str(err.value) == expected
            refused += 1
            continue
        fam = Family(n, iter(build()))
        if expected and n <= 255:
            valid += 1
            assert "cell_masks" in fam.__dict__  # indexed as the members were read
        assert fam.members == expected
        assert all(type(v) is int for p in fam.members for v in p)
        general = cell_masks(enumerate(p, 1) for p in expected)
        assert fam.cell_masks == general and list(fam.cell_masks) == list(general)
    assert valid >= 40 and refused >= 60, (valid, refused)


def _zip_selected(fam, mask):
    """The member slice read bit by bit from ``bin``, one comparison per member."""
    return tuple(p for p, bit in zip(fam.members, bin(mask)[:1:-1]) if bit == "1")


def test_selected_agrees_with_the_bit_string_reading():
    rng = random.Random(29)
    for f in (family(3, []), family(3, [(1, 2, 3)]), symmetric_group(4), derangements(6), symmetric_group(6)):
        size = len(f)
        full = (1 << size) - 1
        masks = [0, full, full << 3 | 5, 1 << (size + 40)]
        masks += [1 << i for i in range(size)]
        masks += [rng.getrandbits(size) for _ in range(40)]
        masks += [rng.getrandbits(size + 70) for _ in range(10)]  # wider than the family
        for mask in masks:
            assert _selected(f, mask) == _zip_selected(f, mask), (f.n, mask)
    assert _selected(symmetric_group(4), 0b1001) == ((1, 2, 3, 4), (1, 3, 4, 2))  # bit i is member i


def test_slices_of_slices_agree_with_filtering_the_members():
    rng = random.Random(31)
    ambient = symmetric_group(6)
    grid = [(x, y) for x in range(1, 7) for y in range(1, 7)]
    for _ in range(40):
        f = family(6, rng.sample(ambient.members, rng.randint(1, len(ambient))))
        members = set(f.members)
        g = f
        for _ in range(rng.randint(1, 5)):
            x = rng.sample(grid, rng.randint(0, 2))
            if rng.random() < 0.5:
                g = subfamily_containing(g, x)
                members = {p for p in members if contains_cells(p, x)}
            else:
                g = g.difference(subfamily_containing(f, x))
                members = {p for p in members if not contains_cells(p, x)}
            assert g.members == tuple(sorted(members))
            assert g._view[0] is f  # every slice views the first parent


def test_membership_rejects_non_members_and_wrong_lengths():
    f = family(4, [(1, 2, 3, 4), (2, 1, 4, 3)])
    assert (2, 1, 4, 3) in f and [1, 2, 3, 4] in f
    assert (1, 2, 4, 3) not in f
    assert (1, 2, 3) not in f and (1, 2, 3, 4, 5) not in f and () not in f
    assert (1, 2, 3) not in family(3, [])


def test_membership_reads_the_probe_by_the_permutation_rule():
    # a probe that Family(...) would refuse is no member, and no probe raises
    sigma3 = symmetric_group(3)
    with pytest.raises(ValueError):
        family(3, [(2.0, 1, 3)])
    assert (2, 1, 3) in sigma3 and (2.0, 1, 3) not in sigma3 and (2, 1.0, 3) not in sigma3
    assert 5 not in sigma3 and None not in sigma3 and "213" not in sigma3
    assert ([2], 1, 3) not in sigma3 and [[2], 1, 3] not in sigma3


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


def test_issubset_agrees_with_the_member_set_rule():
    # a Family with n! members over [n] is Σ_n, so every family over [n] is
    # a subset of it by sizes alone, with no member hashed
    rng = random.Random(34)
    fams = []
    for n in range(1, 7):
        sigma = symmetric_group(n)
        star = subfamily_containing(sigma, [(1, 1)])
        fams += [sigma, derangements(n), family(n, []), star, sigma.difference(star)]
        fams += [subfamily_containing(sigma, []), family(n, rng.sample(sigma.members, rng.randint(1, len(sigma))))]
    for a in fams:
        for b in fams:
            assert a.issubset(b) == (a.n == b.n and set(a.members) <= set(b.members)), (a, b)
    for n in range(1, 7):
        sigma = symmetric_group(n)
        for f in (family(n, rng.sample(sigma.members, rng.randint(0, len(sigma)))), subfamily_containing(sigma, [(1, 2)])):
            assert f.issubset(sigma) and f.issubset(subfamily_containing(sigma, []))
            assert "_member_set" not in vars(f) and "_member_set" not in vars(sigma)


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


def _or_loop_cell_masks(sets):
    """The quadratic cell index: each set's bit ORed into its cells' masks."""
    masks = {}
    for i, cells in enumerate(sets):
        bit = 1 << i
        for c in cells:
            masks[c] = masks.get(c, 0) | bit
    return masks


def _table_max_disjoint(sets):
    """A recursive include-first branch and bound over a table of N
    disjointness masks: the oracle for ``max_disjoint``'s table-free
    searches."""
    index = _or_loop_cell_masks(sets)
    full = (1 << len(sets)) - 1
    disjoint = [full & ~reduce(or_, (index[c] for c in cells), 1 << i) for i, cells in enumerate(sets)]
    by_row = {}
    for (r, _), mask in index.items():
        by_row.setdefault(r, []).append(mask)
    rows = [(masks, ~reduce(or_, masks)) for masks in by_row.values()]
    best = []
    chosen = []

    def rec(cand):
        if len(chosen) > len(best):
            best[:] = chosen
        room = len(best) - len(chosen)  # prune once the bound cannot beat best
        if cand.bit_count() <= room:
            return
        for masks, missing in rows:
            if (cand & missing).bit_count() + len([m for m in masks if m & cand]) <= room:
                return
        while cand:
            j = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            chosen.append(j)
            rec(cand & disjoint[j])
            chosen.pop()

    rec(full)
    return tuple(best)


def _general_cell_sets(rng):
    """Up to 16 cell sets in a grid of 2 to 6 rows and columns: empty sets,
    duplicates, row or column clashes and sets missing from most rows."""
    side = rng.randint(2, 6)
    sets = []
    for _ in range(rng.randint(0, 16)):
        roll = rng.random()
        if roll < 0.08:
            sets.append(frozenset())
        elif roll < 0.2 and sets:
            sets.append(rng.choice(sets))
        else:
            sets.append(frozenset((rng.randint(1, side), rng.randint(1, side)) for _ in range(rng.randint(1, 4))))
    return sets


def test_max_disjoint_matches_the_table_oracle():
    rng = random.Random(19)
    shapes = {"none": 0, "empty": 0, "duplicate": 0, "clash": 0, "missing_row": 0, "beyond_greedy": 0}
    for _ in range(2400):
        sets = _general_cell_sets(rng)
        picks = max_disjoint(sets)
        assert picks == _table_max_disjoint(sets), sets
        rows = {r for cells in sets for r, _ in cells}
        shapes["none"] += not sets
        shapes["empty"] += frozenset() in sets
        shapes["duplicate"] += len(set(sets)) < len(sets)
        shapes["clash"] += any(not is_partial_permutation(s) for s in sets)
        shapes["missing_row"] += any({r for r, _ in cells} < rows for cells in sets if cells)
        taken, greedy = set(), 0  # the greedy packing in index order
        for cells in sets:
            if not cells & taken:
                taken |= cells
                greedy += 1
        shapes["beyond_greedy"] += greedy < len(picks)
    assert all(v >= 50 for v in shapes.values()), shapes
    for ambient in [symmetric_group(k) for k in (3, 4, 5, 6)] + [derangements(7)]:
        for _ in range(60):
            fam = family(ambient.n, rng.sample(ambient.members, rng.randint(1, min(len(ambient), 120))))
            assert max_disjoint(fam.graphs()) == _table_max_disjoint(fam.graphs())


def test_cell_masks_match_the_or_loop():
    rng = random.Random(20)
    for _ in range(400):
        sets = _general_cell_sets(rng) + [[(rng.randint(1, 9), 1)] * 2 for _ in range(rng.randint(0, 12))]
        masks = cell_masks(sets)
        assert masks == _or_loop_cell_masks(sets)
        assert list(masks) == sorted(masks)  # row-major, whatever order the sets meet the cells in
        assert cell_masks(iter(sets)) == masks
    assert cell_masks([]) == {}


def test_matching_number_deeper_than_the_recursion_limit():
    # deeper than the interpreter's default recursion limit of 1,000
    assert set_matching_number([{(1, i)} for i in range(1, 1201)]) == 1200
    # greedy takes the two-cell set first and stops at 1200; the include-first
    # witness search must then descend 1201 levels
    sets = [{(1, 1), (1, 2)}] + [{(1, i)} for i in range(1, 1202)]
    assert max_disjoint(sets) == tuple(range(1, 1202))


_S3_HEAD = ((1, 2, 3), (1, 3, 2), (2, 1, 3))


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: intersects((1, 2), (1, 2, 3)), DimensionMismatch, r"permutations of \[2\] and \[3\]"),
        (lambda: symmetric_group(2).union(symmetric_group(3)), DimensionMismatch, r"different \[n\]"),
        (lambda: double_derangements(3, (1, 1, 2)), ValueError, "sigma is not a permutation"),
        (lambda: double_derangements(3, (1, 2)), ValueError, "sigma is not a permutation"),
        (lambda: apply_isomorphism((1, 2), symmetric_group(3), (1, 2, 3)), DimensionMismatch, "isomorphism dimensions"),
        # non-integers are refused, never truncated
        (lambda: double_derangements(3, (2.0, 3, 1)), ValueError, "sigma is not a permutation"),
        (lambda: make_hm(4, (2.0, 1, 4, 3)), ValueError, "sigma is not a permutation"),
        (lambda: apply_isomorphism((2.0, 1, 3), symmetric_group(3), (1, 2, 3)), ValueError, "must be permutations"),
        (lambda: partial_permutation([(1.9, 2)]), ValueError, "not a partial permutation"),
        (lambda: partial_permutation([("1", 2)], 3), ValueError, "not a partial permutation"),
        (lambda: make_star(4, (1.5, 2)), ValueError, r"cell \(1.5, 2\) outside \[4\]\^2"),
        (lambda: make_star(4, ("1", 2)), ValueError, r"outside \[4\]\^2"),
        # n follows one rule too: a positive integer
        (lambda: symmetric_group(2.5), ValueError, "n must be a positive integer"),
        (lambda: derangements(3.0), ValueError, "n must be a positive integer"),
        (lambda: make_star(3.0, (1, 1)), ValueError, "n must be a positive integer"),
        (lambda: make_star_union(2.5, []), ValueError, "n must be a positive integer"),
        (lambda: make_star_union(0, []), ValueError, "n must be a positive integer"),
        (lambda: make_hm(3.0, (2, 1, 3)), ValueError, "n must be a positive integer"),
        (lambda: make_hm_star_union(5, 2.5, (3, 1, 2, 4, 5)), ValueError, "s must be at least 2"),
        # star centers are checked like any cell, and rho and pi like any permutation
        (lambda: star_center_image((2, 3, 1), (0, 1), (3, 1, 2)), ValueError, r"cell \(0, 1\) outside \[3\]\^2"),
        (lambda: star_center_image((2, 3, 1), (1, 4), (3, 1, 2)), ValueError, r"cell \(1, 4\) outside \[3\]\^2"),
        (lambda: star_center_image((2, 3, 1), (1.0, 2), (3, 1, 2)), ValueError, r"outside \[3\]\^2"),
        (lambda: star_center_image((1, 1, 3), (1, 1), (3, 1, 2)), ValueError, "must be permutations"),
        (lambda: partial_permutation([(1, 2, 3)]), ValueError, "cells must be pairs of integers"),
        # collections of cell sets read every cell by the one cell rule
        (lambda: is_r_spread([[(1, 1)], [(1, "x")]], 2), ValueError, r"not a cell \(a pair of integers\): \(1, 'x'\)"),
        (lambda: is_r_spread([[(1, 1.0)], [(1, 2)]], 2), ValueError, r"not a cell \(a pair of integers\): \(1, 1.0\)"),
        (lambda: set_matching_number([[(1, 1)], ["a"]]), ValueError, r"not a cell \(a pair of integers\): 'a'"),
        (lambda: set_matching_number([[(1, 1)], 5]), ValueError, "not a set of cells: 5"),
        (lambda: containment_probability([[(1, 1)], [(1, "x")]], Fraction(1, 2)), ValueError, r"not a cell .*\(1, 'x'\)"),
        (
            lambda: containment_implies_matching_check([[[(1, 1)]], [[(1, "x")]]], 2, Fraction(1, 2)),
            ValueError,
            r"not a cell .*\(1, 'x'\)",
        ),
        (
            lambda: support_union_bound_sides(symmetric_group(3), [[(1, 1)], [(1.5, 2)]], Fraction(1, 2), 2),
            ValueError,
            r"not a cell .*\(1.5, 2\)",
        ),
        # rationals are read by one rule: a non-number, NaN, an infinity or a zero denominator is a value error
        (lambda: is_r_spread(symmetric_group(3), float("inf")), ValueError, "^r must be positive$"),
        (lambda: is_r_spread(symmetric_group(3), float("nan")), ValueError, "^r must be positive$"),
        (lambda: is_r_spread(symmetric_group(3), "1/0"), ValueError, "^r must be positive$"),
        (lambda: containment_probability(symmetric_group(3), None), ValueError, "^p must lie strictly between 0 and 1$"),
        (
            lambda: containment_probability(symmetric_group(3), float("inf")),
            ValueError,
            "^p must lie strictly between 0 and 1$",
        ),
        (
            lambda: support_union_bound_sides(symmetric_group(3), [[(1, 1)]], None, 2),
            ValueError,
            "^eps must be a rational number$",
        ),
        (
            lambda: support_union_bound_sides(symmetric_group(3), [[(1, 1)]], float("inf"), 2),
            ValueError,
            "^eps must be a rational number$",
        ),
        (
            lambda: support_union_bound_sides(symmetric_group(3), [[(1, 1)]], Fraction(1, 2), 2, 40, 1.5),
            ValueError,
            "^q must be non-negative$",
        ),
        (lambda: spread_lemma_bound(2, 3, 1, float("inf")), ValueError, "^delta must be a rational number$"),
        (lambda: spread_lemma_bound(2, 16, None, 1), ValueError, "^beta must be a rational number$"),
        (lambda: spread_lemma_bound(2, 16, "x", 1), ValueError, "^beta must be a rational number$"),
        (lambda: spread_lemma_bound(2, 16, float("inf"), 1), ValueError, "^beta must be a rational number$"),
        (lambda: spread_lemma_bound(2, 16, float("nan"), 1), ValueError, "^beta must be a rational number$"),
        (lambda: spread_lemma_bound(2, 2, None, 1), ValueError, "^beta must be a rational number$"),
        (lambda: spread_lemma_bound(10**400, 16, 2, 1), ValueError, "^k is outside the float range$"),
        (lambda: spread_lemma_bound(2, 16, 10**400, 1), ValueError, "^beta is outside the float range$"),
        (lambda: spread_lemma_bound(2, 16, -(10**400), 1), ValueError, "^beta is outside the float range$"),
        # permutations and cells that are not even iterable are values that break the rule
        (lambda: apply_isomorphism(5, symmetric_group(3), (1, 2, 3)), ValueError, "must be permutations"),
        (lambda: star_center_image(5, (1, 1), (1, 2, 3)), ValueError, "must be permutations"),
        (lambda: make_star_union(3, [5]), ValueError, r"^cell 5 outside \[3\]\^2$"),
        (lambda: classify_cross_free_families([derangements(3)], [5]), ValueError, r"^cell 5 outside \[3\]\^2$"),
        (lambda: partial_permutation([(2, 2)], 2.5), ValueError, "^n must be non-negative$"),
        (lambda: partial_permutation([(2, 2)], "x"), ValueError, "^n must be non-negative$"),
        (lambda: partial_permutation([(1, 4)], 3), ValueError, r"^cell \(1, 4\) outside \[3\]\^2$"),
        (lambda: identity(-1), ValueError, "^n must be non-negative$"),
        (lambda: identity(None), ValueError, "^n must be non-negative$"),
        (lambda: identity(2.0), ValueError, "^n must be non-negative$"),
        (lambda: identity(10**29), ValueError, "^n is too large$"),
        # a validated build refuses an image outside [n] or a repeated one, whether
        # its rows are shorter than n (one member) or not (three members before it)
        (lambda: Family(3, [(0, 1, 2)]), ValueError, r"^not a permutation of \[3\]: \(0, 1, 2\)$"),
        (lambda: Family(3, [*_S3_HEAD, (0, 1, 2)]), ValueError, r"^not a permutation of \[3\]: \(0, 1, 2\)$"),
        (lambda: Family(3, [(1, 2, 4)]), ValueError, r"^not a permutation of \[3\]: \(1, 2, 4\)$"),
        (lambda: Family(3, [*_S3_HEAD, (1, 2, 4)]), ValueError, r"^not a permutation of \[3\]: \(1, 2, 4\)$"),
        (lambda: Family(3, [(1, 2, 255)]), ValueError, r"^not a permutation of \[3\]: \(1, 2, 255\)$"),
        (lambda: Family(3, [*_S3_HEAD, (1, 2, 255)]), ValueError, r"^not a permutation of \[3\]: \(1, 2, 255\)$"),
        (lambda: Family(3, [(1, 1, 2)]), ValueError, r"^not a permutation of \[3\]: \(1, 1, 2\)$"),
        (lambda: Family(3, [*_S3_HEAD, (1, 1, 2)]), ValueError, r"^not a permutation of \[3\]: \(1, 1, 2\)$"),
        (lambda: Family(3, None), ValueError, r"^members must be a collection of permutations, not None$"),
        (lambda: inverse((1, 1)), ValueError, "^p must be a permutation$"),
        (lambda: inverse((0, 1)), ValueError, "^p must be a permutation$"),
        (lambda: inverse(None), ValueError, "^p must be a permutation$"),
    ],
    ids=[
        "intersects-mixed-n",
        "union-mixed-n",
        "double-derangements-repeated-sigma",
        "double-derangements-short-sigma",
        "isomorphism-length-mismatch",
        "double-derangements-float-sigma",
        "make-hm-float-sigma",
        "isomorphism-float-rho",
        "partial-permutation-float-cell",
        "partial-permutation-string-cell",
        "star-float-center",
        "star-string-center",
        "symmetric-group-float-n",
        "derangements-float-n",
        "star-float-n",
        "star-union-float-n-no-centers",
        "star-union-n0-no-centers",
        "make-hm-float-n",
        "make-hm-star-union-float-s",
        "star-image-cell-row-0",
        "star-image-cell-column-4",
        "star-image-float-cell",
        "star-image-repeated-rho",
        "partial-permutation-triple",
        "r-spread-string-cell",
        "r-spread-float-cell",
        "set-matching-string-cell",
        "set-matching-integer-set",
        "containment-probability-string-cell",
        "rainbow-check-string-cell",
        "support-sides-float-cell",
        "r-spread-infinite-r",
        "r-spread-nan-r",
        "r-spread-zero-denominator-r",
        "containment-probability-none-p",
        "containment-probability-infinite-p",
        "support-sides-none-eps",
        "support-sides-infinite-eps",
        "support-sides-float-q",
        "spread-lemma-infinite-delta",
        "spread-lemma-none-beta",
        "spread-lemma-string-beta",
        "spread-lemma-infinite-beta",
        "spread-lemma-nan-beta",
        "spread-lemma-vacuous-none-beta",
        "spread-lemma-huge-k",
        "spread-lemma-huge-beta",
        "spread-lemma-huge-negative-beta",
        "isomorphism-integer-rho",
        "star-image-integer-rho",
        "star-union-integer-center",
        "classify-integer-cell",
        "partial-permutation-float-n",
        "partial-permutation-string-n",
        "partial-permutation-cell-outside",
        "identity-negative-n",
        "identity-none-n",
        "identity-float-n",
        "identity-huge-n",
        "family-image-0-one-member",
        "family-image-0-rows-past-n",
        "family-image-n-plus-1-one-member",
        "family-image-n-plus-1-rows-past-n",
        "family-image-255-one-member",
        "family-image-255-rows-past-n",
        "family-repeated-image-one-member",
        "family-repeated-image-rows-past-n",
        "family-none-members",
        "inverse-repeated-value",
        "inverse-value-0",
        "inverse-none",
    ],
)
def test_bad_inputs_fail_cleanly(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_as_permutation_agrees_with_the_sorting_oracle():
    rng = random.Random(16)
    for _ in range(3000):
        n = rng.randint(1, 7)
        image = tuple(rng.randint(0, n + 1) for _ in range(rng.randint(n - 1, n + 1)))
        oracle = len(image) == n and sorted(image) == list(range(1, n + 1))
        assert as_permutation(image, n) == (image if oracle else None)
        assert as_permutation(list(image), n) == (image if oracle else None)
        assert is_permutation(image) == (sorted(image) == list(range(1, len(image) + 1)))
        # n = None reads a permutation of its own length
        assert as_permutation(image, None) == (image if sorted(image) == list(range(1, len(image) + 1)) else None)
    perm = tuple(rng.sample(range(1, 8), 7))
    assert as_permutation(iter(perm), 7) == perm
    assert as_permutation(iter(perm), None) == perm and as_permutation(iter(()), None) == ()
    for image in [5, None, 2.5, (1, 2.0)]:
        assert as_permutation(image, None) is None


def test_as_cell_agrees_with_the_range_oracle():
    rng = random.Random(17)
    for _ in range(3000):
        n = rng.randint(1, 8)
        cell = (rng.randint(-1, n + 1), rng.randint(-1, n + 1))
        r, c = cell
        assert as_cell(cell, n) == (cell if 1 <= r <= n and 1 <= c <= n else None)
        assert as_cell(list(cell), None) == cell
    for cell in [(1.0, 1), (1, "1"), (1,), (1, 1, 1), 11, None, "11"]:
        assert as_cell(cell, 3) is None and as_cell(cell, None) is None
    assert type(as_cell((True, 1), 1)[0]) is int


def test_star_center_image_matches_apply_isomorphism():
    rho, pi = (2, 3, 1, 4), (3, 1, 4, 2)
    for x, y in itertools.product(range(1, 5), repeat=2):
        image = apply_isomorphism(rho, make_star(4, (x, y)), pi)
        assert image == make_star(4, star_center_image(rho, (x, y), pi))


def test_contains_cells_reads_a_non_cell_as_false():
    p = (2, 3, 1)
    assert contains_cells(p, [(1, 2), (3, 1)])
    for cells in ([(1.0, 2)], [(0, 3)], [(4, 1)], [(1, 2), 5], [(1, 2, 3)]):
        assert not contains_cells(p, cells)


def test_as_permutation_refuses_non_integers():
    assert as_permutation((True, 2), 2) == (1, 2)  # bool is an int
    assert all(type(v) is int for v in as_permutation((True, 2), 2))
    for image in [(1.0, 2), (1, "2"), ("1", "2"), (1, None), (2.5, 1)]:
        assert as_permutation(image, 2) is None
        assert not is_permutation(image)
    assert as_permutation(12, 2) is None  # not iterable


def test_core_doctests():
    import doctest

    assert doctest.testmod(permemc.core).failed == 0
