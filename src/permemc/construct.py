"""Constructors for the extremal families: stars, star unions, and the
Hilton-Milner style families, plus the two-sided isomorphism action."""

from __future__ import annotations

import heapq
import itertools
import math
from operator import eq

from .core import (
    Cell,
    DimensionMismatch,
    Family,
    Perm,
    _cell,
    _check_cap,
    _integer,
    _permutation,
    _Record,
    is_derangement,
)
from .counting import pointed_derangement_count


def _star(n: int, x: int, y: int):
    """Σ_n[(x, y)] in lexicographic order: y sits at position x and the
    other values are permuted lexicographically around it."""
    _check_cap(n)
    rest = itertools.permutations(v for v in range(1, n + 1) if v != y)
    return (q[: x - 1] + (y,) + q[x - 1 :] for q in rest)


def make_star(n: int, cell: Cell) -> Family:
    """The star Σ_n[(x, y)]: all permutations mapping x to y; size (n-1)!."""
    return make_star_union(n, [cell]).family


def derangement_star(n: int, cell: Cell) -> Family:
    """D_n[(x, y)]: derangements through one off-diagonal cell; size d_{n,1}."""
    return make_star_union(n, [cell], derangement=True).family


class StarUnion(_Record):
    family: Family
    centers: tuple[Cell, ...]
    pairwise_disjoint: bool


def make_star_union(n: int, cells, derangement: bool = False) -> StarUnion:
    """Union of full stars (or derangement stars) with the given centers.

    The stars are generated sorted and merged.  Also reports whether they
    are pairwise disjoint as families (the union is as large as the stars
    together), which for full stars happens exactly when the centers share
    a row with distinct columns or share a column with distinct rows.
    """
    n = _integer(n)
    centers = tuple(sorted(_cell(cell, n) for cell in cells))
    if len(set(centers)) != len(centers):
        raise ValueError("duplicate star centers")
    if derangement and any(x == y for x, y in centers):
        raise ValueError("derangement stars need off-diagonal centers")
    stars = [tuple(p for p in _star(n, x, y) if not derangement or is_derangement(p)) for x, y in centers]
    members = tuple(p for p, _ in itertools.groupby(heapq.merge(*stars)))  # merged in order, repeats dropped
    return StarUnion(Family._of(n, members), centers, len(members) == sum(map(len, stars)))


def make_hm(n: int, sigma: Perm) -> Family:
    """The maximal non-trivial intersecting family pinned to cell (1, 1).

    All permutations fixing 1 that intersect sigma, together with sigma
    itself; requires sigma(1) != 1.  Size (n-1)! - d_{n,1} + 1.
    """
    return make_hm_star_union(n, 2, sigma)


def make_hm_star_union(n: int, s: int, sigma: Perm) -> Family:
    """s-2 full stars on row 1 glued to the pinned intersecting family.

    The union of the stars Σ_n[(1, i)] for i = 2..s-1 with make_hm(n, sigma);
    requires 2 <= s, s - 1 <= n and sigma(1) outside [s-1].  For s = 2 this
    is exactly make_hm.  Size (s-1)(n-1)! - d_{n,1} + 1.  The blocks (pinned,
    stars, sigma) start with 1, 2..s-1 and sigma(1) >= s, so come out sorted.
    """
    n = _integer(n)
    s = _integer(s, 2, "s must be at least 2")
    if s - 1 > n:
        raise ValueError("s - 1 must not exceed n")
    sigma = _permutation(sigma, n, f"sigma is not a permutation of [{n}]")
    if sigma[0] <= s - 1:
        raise ValueError(f"sigma(1) must lie outside [{s - 1}]")
    pinned = (p for p in _star(n, 1, 1) if any(map(eq, p, sigma)))
    stars = itertools.chain.from_iterable(_star(n, 1, i) for i in range(2, s))
    return Family._of(n, (*pinned, *stars, sigma))


def expected_hm_star_union_size(n: int, s: int) -> int:
    return (s - 1) * math.factorial(n - 1) - pointed_derangement_count(n) + 1


def apply_isomorphism(rho: Perm, fam: Family, pi: Perm) -> Family:
    """The family {rho ∘ p ∘ pi : p in F}.

    Sends the star with center (x, y) to the star with center
    (pi^{-1}(x), rho(y)); preserves size, matching number and covering
    number (the certificates transport through the same maps).
    """
    n = fam.n
    message = f"rho and pi must be permutations of [{n}]"
    rho, pi = _permutation(rho, None, message), _permutation(pi, None, message)
    if len(rho) != n or len(pi) != n:
        raise DimensionMismatch("isomorphism dimensions do not match the family")
    if n > 255:
        return Family._of(n, tuple(sorted(tuple(rho[p[j - 1] - 1] for j in pi) for p in fam.members)))
    # row j of the image is row pi(j) of F (its members' images there, one
    # byte each) with every value v sent to rho(v)
    flat = bytes(itertools.chain.from_iterable(fam.members))
    table = bytes((0, *rho, *range(n + 1, 256)))
    return Family._of(n, tuple(sorted(zip(*(flat[j - 1 :: n].translate(table) for j in pi)))))


def star_center_image(rho: Perm, cell: Cell, pi: Perm) -> Cell:
    """Where apply_isomorphism(rho, -, pi) sends a star centered at ``cell``."""
    rho = _permutation(rho, None, "rho and pi must be permutations")
    n = len(rho)
    pi = _permutation(pi, n, f"rho and pi must be permutations of [{n}]")
    x, y = _cell(cell, n)
    return (pi.index(x) + 1, rho[y - 1])
