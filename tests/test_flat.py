"""A Family over [n] with n <= 255 keeps its members as ``flat``, one byte
per image, and lists tuples only when ``members`` is read.  Every producer
is checked here against a tuple oracle (the members written out from their
definition and the kernels' general paths over them), at small n and at
n = 255, the largest flat n, next to n = 256, which keeps tuples.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from permemc import (
    Family,
    apply_isomorphism,
    cell_masks,
    coset_certificate,
    covering_number,
    derangement_star,
    enumerate_family,
    family,
    graph,
    make_hm,
    make_hm_star_union,
    make_star,
    make_star_union,
    matching_number,
    max_ratio_set,
    star_union_slack_sides,
    subfamily_containing,
    symmetric_group,
)
from permemc.core import max_disjoint
from permemc.io import _format_rows, family_json, format_family, parse_family
from permemc.solvers import coset_representative
from permemc.spread import exact_spreadness, is_r_spread, is_rq_spread, spread_approximate, verify_approximation


def _brute_tau(members):
    """The first cell combination, in ``itertools.combinations`` order over
    the row-major cells of the members, that meets every member."""
    cells = sorted({(i, v) for p in members for i, v in enumerate(p, 1)})
    for t in range(1, len(members) + 1):
        for combo in itertools.combinations(cells, t):
            if all(any(p[r - 1] == c for r, c in combo) for p in members):
                return t, combo


def _assert_matches_oracle(fam, members, tau=True):
    """``fam`` against its members as sorted distinct tuples."""
    n = fam.n
    expected = tuple(sorted(set(map(tuple, members))))
    assert fam.members == expected and list(fam) == list(expected) and len(fam) == len(expected)
    assert all(type(v) is int for p in fam.members for v in p)
    again = Family(n, list(reversed(expected)))
    assert fam == again and hash(fam) == hash(again)
    if expected:
        assert fam != Family(n, expected[1:])
    general = cell_masks(enumerate(p, 1) for p in expected)
    assert fam.cell_masks == general and list(fam.cell_masks) == list(general)
    picks = max_disjoint([graph(p) for p in expected])
    assert matching_number(fam) == (len(picks), tuple(expected[j] for j in picks))
    if expected and tau:
        assert covering_number(fam) == _brute_tau(expected)
    loads = Counter(map(coset_representative, expected))
    certificate = coset_certificate(fam, 2)
    assert certificate.max_load == max(loads.values(), default=0) and certificate.family_size == len(expected)
    assert sum(k * v for k, v in certificate.load_histogram.items()) == len(expected)
    assert format_family(fam) == _format_rows("n", n, expected)
    if len(expected) <= 1000:
        assert family_json(fam) == {"n": n, "size": len(expected), "members": [list(p) for p in expected]}


def _producers(rng):
    """(family, its members written out from the definition) for every producer, n <= 7."""
    for n in range(1, 8):
        perms = list(itertools.permutations(range(1, n + 1)))
        ders = [p for p in perms if all(v != i for i, v in enumerate(p, 1))]
        sigma = tuple(rng.sample(range(1, n + 1), n))
        yield enumerate_family(n, "all"), perms
        yield enumerate_family(n, "derangements"), ders
        yield enumerate_family(n, "double_derangements", sigma), [p for p in ders if all(map(int.__ne__, p, sigma))]
        x, y = rng.randint(1, n), rng.randint(1, n)
        yield make_star(n, (x, y)), [p for p in perms if p[x - 1] == y]
        if x != y:
            yield derangement_star(n, (x, y)), [p for p in ders if p[x - 1] == y]
        grid = [(i, v) for i in range(1, n + 1) for v in range(1, n + 1)]
        for derangement in (False, True):
            centers = [c for c in rng.sample(grid, min(len(grid), rng.randint(1, 3))) if not derangement or c[0] != c[1]]
            pool = ders if derangement else perms
            union = make_star_union(n, centers, derangement)
            through = [p for p in pool if any(p[i - 1] == v for i, v in centers)]
            assert union.pairwise_disjoint == (len(through) == sum(p[i - 1] == v for p in pool for i, v in centers))
            yield union.family, through
        if n >= 2:
            s = rng.randint(2, n)
            first = rng.randint(s, n)  # sigma(1) outside [s - 1]
            sigma = (first, *rng.sample([v for v in range(1, n + 1) if v != first], n - 1))
            hm = [p for p in perms if p[0] in range(2, s) or (p[0] == 1 and any(map(int.__eq__, p, sigma)))]
            yield (make_hm(n, sigma) if s == 2 else make_hm_star_union(n, s, sigma)), [*hm, sigma]
        some = rng.sample(perms, rng.randint(0, min(len(perms), 30)))
        yield Family(n, iter(some)), some
        yield parse_family(f"n={n}\n" + "".join(" ".join(map(str, p)) + "\n" for p in some)), some
        rho, pi = tuple(rng.sample(range(1, n + 1), n)), tuple(rng.sample(range(1, n + 1), n))
        yield apply_isomorphism(rho, Family(n, some), pi), [tuple(rho[p[j - 1] - 1] for j in pi) for p in some]
        cell = rng.choice(grid)
        yield subfamily_containing(Family(n, some), [cell]), [p for p in some if p[cell[0] - 1] == cell[1]]


def test_every_producer_agrees_with_the_tuple_oracle():
    rng = random.Random(36)
    count = 0
    for fam, members in _producers(rng):
        _assert_matches_oracle(fam, members, tau=len(set(members)) <= 12 and fam.n <= 6)
        count += 1
    assert count >= 75


@pytest.mark.parametrize("n", [255, 256])
def test_the_largest_flat_n_and_the_first_tuple_n_agree_with_the_oracle(n):
    rng = random.Random(n)
    for size in (0, 1, 2, 3):
        members = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(size)]
        fams = [Family(n, members), parse_family(f"n={n}\n" + "".join(" ".join(map(str, p)) + "\n" for p in members))]
        rho, pi = tuple(rng.sample(range(1, n + 1), n)), tuple(rng.sample(range(1, n + 1), n))
        fams.append(apply_isomorphism(rho, Family(n, members), pi))
        relabelled = [tuple(rho[p[j - 1] - 1] for j in pi) for p in members]
        for fam, expected in zip(fams, (members, members, relabelled)):
            assert ("flat" in vars(fam), "members" in vars(fam)) == ((True, False) if n <= 255 else (False, True))
            _assert_matches_oracle(fam, expected, tau=size <= 2)


class _Index:
    """An image that is read only by ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


HOSTILE = {
    "int": lambda n: 5,
    "huge int": lambda n: 10**12,
    "string": lambda n: "123" if n == 3 else "1" * n,
    "float image": lambda n: (1.0, *range(2, n + 1)),
    "bool image": lambda n: (True, *range(2, n + 1)),
    "image 256": lambda n: (256, *range(2, n + 1)),
    "image -1": lambda n: (-1, *range(2, n + 1)),
    "generator": lambda n: (v for v in range(1, n + 1)),
    "list": lambda n: list(range(1, n + 1)),
    "too short": lambda n: tuple(range(1, n)),
    "too long": lambda n: tuple(range(1, n + 2)),
    "None": lambda n: None,
    "__index__ images": lambda n: tuple(map(_Index, range(1, n + 1))),
}

#: ``p in F`` for each hostile probe, by the one permutation rule (each
#: value read by ``__index__``), for Σ_3 and for Families over [256], [255]
#: and [300] holding the identity and its reverse.
HOSTILE_ANSWERS = {"bool image": True, "generator": True, "list": True, "__index__ images": True}

HOSTILE_FAMILIES = [
    symmetric_group(3),
    *(family(n, [tuple(range(1, n + 1)), tuple(range(n, 0, -1))]) for n in (256, 255, 300)),
]


@pytest.mark.parametrize("fam", HOSTILE_FAMILIES)
def test_membership_answers_hostile_probes_as_the_tuple_family(fam):
    for name, probe in HOSTILE.items():
        assert (probe(fam.n) in fam) == HOSTILE_ANSWERS.get(name, False), name
        assert fam.restrict([probe(fam.n)]) == Family(fam.n, [probe(fam.n)] if name in HOSTILE_ANSWERS else []), name
    assert (b"\x01\x02\x03" in fam) == (fam.n == 3)
    # restrict keeps exactly the members that ``in`` accepts, each probe read once
    accepted = [probe(fam.n) for probe in HOSTILE.values() if probe(fam.n) in fam]
    assert fam.restrict(probe(fam.n) for probe in HOSTILE.values()) == Family(fam.n, accepted)
    assert fam.restrict([*fam, 5, None]) == fam


def test_a_family_neither_built_nor_cut_has_no_members():
    for n in (2, 300):
        fam = object.__new__(Family)
        fam.__dict__["n"] = n  # as a failed ``Family(n)`` leaves it
        assert not hasattr(fam, "members") and not hasattr(fam, "flat")
        with pytest.raises(AttributeError):
            fam.members
    assert not hasattr(object.__new__(Family), "members")


def test_a_query_job_lists_no_member_tuples():
    # the query benchmark's job: build, relabel, then every read-only kernel
    n, s = 6, 3
    ambient = symmetric_group(n)

    def build():
        return apply_isomorphism((2, 3, 1, 5, 4, 6), make_hm_star_union(n, s, (3, 1, 2, 4, 5, 6)), (6, 5, 4, 3, 2, 1))

    fam, expected = build(), set(build().members)
    matching_number(fam)
    covering_number(fam)
    coset_certificate(fam, s)
    star_union_slack_sides(fam, ambient, s)
    is_r_spread(fam, 2)
    exact_spreadness(fam)
    is_rq_spread(fam, 2, 1)
    probes = list(itertools.islice(itertools.permutations(range(1, 7)), 0, 720, 7))
    assert [p in fam for p in probes] == [p in expected for p in probes] and any(p in fam for p in probes)
    subs = [subfamily_containing(fam, cells) for cells in ([(1, 2)], [(2, 3), (4, 4)])]
    assert "members" not in vars(fam) and "members" not in vars(ambient)
    assert all("members" not in vars(sub) and "flat" not in vars(sub) for sub in subs)


def test_a_decompose_job_lists_no_member_tuples():
    ambient = symmetric_group(6)
    for members in (make_star(6, (2, 3)).members, make_hm(6, (2, 1, 3, 4, 5, 6)).members):
        fam = Family(6, members)
        res = spread_approximate(fam, ambient, Fraction(5, 2), 4)
        assert verify_approximation(res, fam, ambient, Fraction(5, 2), 4).ok
        max_ratio_set(fam, 2)
        assert "members" not in vars(fam) and "members" not in vars(ambient)
        assert all("members" not in vars(b) for b in (*res.branches.values(), res.remainder))
