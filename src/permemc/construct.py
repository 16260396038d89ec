"""Constructors for the extremal families: stars, star unions, and the
Hilton-Milner style families, plus the two-sided isomorphism action."""

from __future__ import annotations

import math

from ._flat import _cut, _split, _star, _through
from .core import Cell, DimensionMismatch, Family, Perm, _cell, _check_cap, _integer, _permutation, _Record, _relabelled
from .counting import pointed_derangement_count


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

    Each star is generated sorted, less its members in an earlier star (or
    off the derangements), and the parts are joined, then sorted unless
    they already come in order, as when the centers share row 1.  Also
    reports whether the stars are pairwise disjoint as families (the union
    is as large as the stars together), which for full stars happens
    exactly when the centers share a row with distinct columns or share a
    column with distinct rows.
    """
    n = _integer(n)
    centers = tuple(sorted(_cell(cell, n) for cell in cells))
    if len(set(centers)) != len(centers):
        raise ValueError("duplicate star centers")
    if derangement and any(x == y for x, y in centers):
        raise ValueError("derangement stars need off-diagonal centers")
    diagonal = [(i, i) for i in range(1, n + 1)] if derangement else []
    parts, stars_size = [], 0
    for k, (x, y) in enumerate(centers):
        star = _star(_check_cap(n), x, y)
        full = (1 << len(star) // n) - 1
        kept = full & ~_through(star, n, diagonal)
        stars_size += kept.bit_count()
        parts.append(_cut(star, n, kept & ~_through(star, n, centers[:k])))
    parts = [part for part in parts if part]
    flat = b"".join(parts)
    if any(a[-n:] > b[:n] for a, b in zip(parts, parts[1:])):
        flat = b"".join(sorted(_split(flat, n)))
    return StarUnion(Family._of(n, flat), centers, len(flat) // n == stars_size)


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
    is exactly make_hm.  Size (s-1)(n-1)! - d_{n,1} + 1.  The pinned part is
    the members of Σ_n[(1, 1)] holding a cell (i, sigma(i)).  The blocks
    (pinned, stars, sigma) start with 1, 2..s-1 and sigma(1) >= s, so come
    out sorted.
    """
    n = _integer(n)
    s = _integer(s, 2, "s must be at least 2")
    if s - 1 > n:
        raise ValueError("s - 1 must not exceed n")
    sigma = _permutation(sigma, n, f"sigma is not a permutation of [{n}]")
    if sigma[0] <= s - 1:
        raise ValueError(f"sigma(1) must lie outside [{s - 1}]")
    star = _star(_check_cap(n), 1, 1)
    pinned = _cut(star, n, _through(star, n, enumerate(sigma, 1)))
    return Family._of(n, b"".join([pinned, *(_star(n, 1, i) for i in range(2, s)), bytes(sigma)]))


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
    return _relabelled(fam, rho, pi)


def star_center_image(rho: Perm, cell: Cell, pi: Perm) -> Cell:
    """Where apply_isomorphism(rho, -, pi) sends a star centered at ``cell``."""
    rho = _permutation(rho, None, "rho and pi must be permutations")
    n = len(rho)
    pi = _permutation(pi, n, f"rho and pi must be permutations of [{n}]")
    x, y = _cell(cell, n)
    return (pi.index(x) + 1, rho[y - 1])
