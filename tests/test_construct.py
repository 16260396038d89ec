"""Extremal constructors and the two-sided isomorphism action."""

import itertools
import math
import random

import pytest

from permemc import (
    apply_isomorphism,
    compose,
    derangement_star,
    derangements,
    family,
    identity,
    intersects,
    is_derangement,
    make_hm,
    make_hm_star_union,
    make_star,
    make_star_union,
    pointed_derangement_count,
    star_center_image,
    symmetric_group,
)
from permemc.construct import expected_hm_star_union_size


def test_star_size():
    for n in range(2, 7):
        assert len(make_star(n, (1, 1))) == math.factorial(n - 1)
    assert len(make_star(4, (1, 1))) == 6


def test_star_degenerate_n1():
    assert make_star(1, (1, 1)).members == ((1,),)


def test_star_cell_bounds():
    with pytest.raises(ValueError):
        make_star(3, (0, 1))
    with pytest.raises(ValueError):
        make_star(3, (1, 4))


def test_star_union_same_row_disjoint():
    union = make_star_union(5, [(1, 1), (1, 2)])
    assert len(union.family) == 48
    assert union.pairwise_disjoint


def test_star_union_general_position_not_disjoint():
    union = make_star_union(5, [(1, 1), (2, 2)])
    assert not union.pairwise_disjoint
    assert len(union.family) == 48 - math.factorial(3)


def test_star_union_duplicate_cells_rejected():
    with pytest.raises(ValueError):
        make_star_union(4, [(1, 1), (1, 1)])


def test_derangement_star_pinned():
    star = derangement_star(4, (1, 2))
    assert star.members == ((2, 1, 4, 3), (2, 3, 4, 1), (2, 4, 1, 3))
    assert len(star) == pointed_derangement_count(4)


def test_derangement_star_diagonal_rejected():
    with pytest.raises(ValueError):
        derangement_star(4, (2, 2))
    with pytest.raises(ValueError):
        make_star_union(4, [(1, 1)], derangement=True)


def test_derangement_star_union_sizes():
    union = make_star_union(5, [(1, 2), (1, 3)], derangement=True)
    assert len(union.family) == 2 * pointed_derangement_count(5)
    assert union.pairwise_disjoint


def test_hm_pinned_members():
    hm = make_hm(4, (2, 1, 4, 3))
    assert hm.members == ((1, 2, 4, 3), (1, 3, 4, 2), (1, 4, 2, 3), (2, 1, 4, 3))
    assert len(hm) == 4


def test_hm_contains_sigma_and_intersecting():
    rng = random.Random(5)
    for n in (4, 5):
        for _ in range(5):
            sigma = tuple(rng.sample(range(1, n + 1), n))
            if sigma[0] == 1:
                continue
            hm = make_hm(n, sigma)
            assert sigma in hm
            for p in hm:
                assert intersects(p, sigma)


def test_hm_size_identity():
    # (n-1)! - d_{n,1} + 1; the n = 5 instance is 24 - 11 + 1 = 14
    assert len(make_hm(5, (2, 1, 4, 5, 3))) == 14
    for n in (4, 5, 6):
        sigma = tuple([2, 1] + list(range(3, n + 1)))
        assert len(make_hm(n, sigma)) == expected_hm_star_union_size(n, 2)


def test_hm_rejects_fixed_one():
    with pytest.raises(ValueError):
        make_hm(4, (1, 2, 4, 3))


def test_hm_star_union_size():
    fam = make_hm_star_union(5, 3, (3, 1, 2, 4, 5))
    assert len(fam) == 2 * 24 - 11 + 1 == 38


def test_hm_star_union_reduces_to_hm():
    assert make_hm_star_union(4, 2, (2, 1, 4, 3)) == make_hm(4, (2, 1, 4, 3))


def _filtered_star_union(n, centers, derangement):
    """Members of Σ_n (or D_n) through one of the centers, and whether no
    member lies in two of the stars, by filtering the whole ambient list."""
    ambient = [p for p in itertools.permutations(range(1, n + 1)) if not derangement or is_derangement(p)]
    hits = [sum(p[x - 1] == y for x, y in centers) for p in ambient]
    return tuple(p for p, k in zip(ambient, hits) if k), max(hits, default=0) <= 1


def test_hm_star_union_matches_filtered_definition():
    # the stars Σ_n[(1, i)], i = 2..s-1, plus the permutations fixing 1 that
    # meet sigma, plus sigma, in the order of a filtered Σ_n; every valid
    # (s, sigma) for n <= 6
    for n in range(1, 7):
        full = list(itertools.permutations(range(1, n + 1)))
        for s in range(2, n + 2):
            for sigma in [p for p in full if p[0] >= s]:
                expected = tuple(
                    p for p in full if p == sigma or 2 <= p[0] < s or (p[0] == 1 and intersects(p, sigma))
                )
                assert make_hm_star_union(n, s, sigma).members == expected, (n, s, sigma)


def test_star_union_matches_filtered_stars():
    # every center set of size <= 3 for n <= 5, random ones for n = 6, 7;
    # members in order and the disjointness flag against a filtered Σ_n / D_n
    rng = random.Random(12)
    for n in range(1, 8):
        grid = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
        for derangement in (False, True):
            cells = [c for c in grid if c[0] != c[1]] if derangement else grid
            if n <= 5:
                center_sets = [cs for k in range(4) for cs in itertools.combinations(cells, k)]
            else:
                center_sets = [rng.sample(cells, rng.randint(1, 4)) for _ in range(12)]
            for centers in center_sets:
                union = make_star_union(n, centers, derangement)
                expected, disjoint = _filtered_star_union(n, centers, derangement)
                assert union.family.members == expected, (n, centers, derangement)
                assert union.pairwise_disjoint == disjoint, (n, centers, derangement)
                if len(centers) == 1:
                    maker = derangement_star if derangement else make_star
                    assert maker(n, centers[0]).members == expected
    with pytest.raises(ValueError, match=r"cell \(1, 6\) outside \[5\]\^2"):
        make_star_union(5, [(1, 2), (1, 6)])
    assert make_star_union(5, []).family == family(5, [])


def test_hm_star_union_preconditions():
    with pytest.raises(ValueError):
        make_hm_star_union(5, 1, (2, 1, 4, 5, 3))
    with pytest.raises(ValueError):
        make_hm_star_union(5, 3, (2, 1, 4, 5, 3))  # sigma(1) = 2 inside [s-1]
    with pytest.raises(ValueError):
        make_hm_star_union(3, 5, (3, 1, 2))


def test_apply_isomorphism_identity():
    fam = family(4, [(2, 1, 4, 3), (1, 2, 3, 4)])
    assert apply_isomorphism(identity(4), fam, identity(4)) == fam


def test_apply_isomorphism_preserves_size():
    # against {rho ∘ p ∘ pi} from the definition, on random families with
    # the empty one among them; n = 300 takes the path for images wider than a byte
    rng = random.Random(6)
    cases = [family(3, [])]
    for n, trials in ((4, 20), (1, 1), (2, 4), (5, 10), (7, 6)):
        ambient = list(symmetric_group(n).members)
        cases += [family(n, rng.sample(ambient, rng.randint(0, min(40, len(ambient))))) for _ in range(trials)]
    cases.append(family(300, [tuple((i + k) % 300 + 1 for i in range(300)) for k in (0, 1, 299)]))
    for fam in cases:
        n = fam.n
        rho = tuple(rng.sample(range(1, n + 1), n))
        pi = tuple(rng.sample(range(1, n + 1), n))
        image = apply_isomorphism(rho, fam, pi)
        assert len(image) == len(fam)
        assert list(image.members) == sorted({compose(compose(rho, p), pi) for p in fam.members})
        assert all(type(v) is int for p in image.members for v in p)


def test_apply_isomorphism_star_mapping():
    rng = random.Random(8)
    for n in (4, 5):
        for _ in range(10):
            rho = tuple(rng.sample(range(1, n + 1), n))
            pi = tuple(rng.sample(range(1, n + 1), n))
            cell = (rng.randint(1, n), rng.randint(1, n))
            image = apply_isomorphism(rho, make_star(n, cell), pi)
            assert image == make_star(n, star_center_image(rho, cell, pi))


def test_apply_isomorphism_preserves_derangement_star_structure():
    rho = (2, 3, 1, 4)
    pi = (1, 2, 3, 4)
    image = apply_isomorphism(rho, derangements(4), pi)
    assert len(image) == len(derangements(4))
