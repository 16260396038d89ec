"""Constructors for the extremal families: stars, star unions, and the
Hilton-Milner style families, plus the two-sided isomorphism action."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    Cell,
    DimensionMismatch,
    Family,
    Perm,
    compose,
    enumerate_family,
    intersects,
    inverse,
    is_permutation,
)
from .counting import pointed_derangement_count


def make_star(n: int, cell: Cell) -> Family:
    """The star Σ_n[(x, y)]: all permutations mapping x to y; size (n-1)!."""
    x, y = cell
    if not (1 <= x <= n and 1 <= y <= n):
        raise ValueError(f"cell {cell} outside [{n}]^2")
    full = enumerate_family(n)
    return Family._of(n, tuple(p for p in full if p[x - 1] == y))


def derangement_star(n: int, cell: Cell) -> Family:
    """D_n[(x, y)]: derangements through one off-diagonal cell; size d_{n,1}."""
    x, y = cell
    if x == y:
        raise ValueError("derangement star needs an off-diagonal cell")
    if not (1 <= x <= n and 1 <= y <= n):
        raise ValueError(f"cell {cell} outside [{n}]^2")
    ders = enumerate_family(n, "derangements")
    return Family._of(n, tuple(p for p in ders if p[x - 1] == y))


@dataclass(frozen=True)
class StarUnion:
    family: Family
    centers: tuple[Cell, ...]
    pairwise_disjoint: bool


def make_star_union(n: int, cells, derangement: bool = False) -> StarUnion:
    """Union of full stars (or derangement stars) with the given centers.

    Also reports whether the stars are pairwise disjoint as families, which
    for full stars happens exactly when the centers share a row with
    distinct columns or share a column with distinct rows.
    """
    centers = tuple(sorted((int(x), int(y)) for x, y in cells))
    if len(set(centers)) != len(centers):
        raise ValueError("duplicate star centers")
    if derangement and any(x == y for x, y in centers):
        raise ValueError("derangement stars need off-diagonal centers")
    for cell in centers:
        if not all(1 <= v <= n for v in cell):
            raise ValueError(f"cell {cell} outside [{n}]^2")
    ambient = enumerate_family(n, "derangements" if derangement else "all") if centers else ()
    hits = [sum(p[x - 1] == y for x, y in centers) for p in ambient]
    # the stars are pairwise disjoint iff no member lies in two of them
    fam = Family._of(n, tuple(p for p, k in zip(ambient, hits) if k))
    return StarUnion(fam, centers, max(hits, default=0) <= 1)


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
    is exactly make_hm.  Size (s-1)(n-1)! - d_{n,1} + 1.
    """
    sigma = tuple(sigma)
    if s < 2:
        raise ValueError("s must be at least 2")
    if s - 1 > n:
        raise ValueError("s - 1 must not exceed n")
    if len(sigma) != n or not is_permutation(sigma):
        raise ValueError(f"sigma is not a permutation of [{n}]")
    if sigma[0] <= s - 1:
        raise ValueError(f"sigma(1) must lie outside [{s - 1}]")
    full = enumerate_family(n)
    members = (p for p in full if p == sigma or 2 <= p[0] < s or (p[0] == 1 and intersects(p, sigma)))
    return Family._of(n, tuple(members))


def expected_hm_star_union_size(n: int, s: int) -> int:
    return (s - 1) * math.factorial(n - 1) - pointed_derangement_count(n) + 1


def apply_isomorphism(rho: Perm, fam: Family, pi: Perm) -> Family:
    """The family {rho ∘ p ∘ pi : p in F}.

    Sends the star with center (x, y) to the star with center
    (pi^{-1}(x), rho(y)); preserves size, matching number and covering
    number (the certificates transport through the same maps).
    """
    if len(rho) != fam.n or len(pi) != fam.n:
        raise DimensionMismatch("isomorphism dimensions do not match the family")
    if not (is_permutation(rho) and is_permutation(pi)):
        raise ValueError(f"rho and pi must be permutations of [{fam.n}]")
    rho = tuple(map(int, rho))
    return Family._of(fam.n, tuple(sorted(compose(compose(rho, p), pi) for p in fam.members)))


def star_center_image(rho: Perm, cell: Cell, pi: Perm) -> Cell:
    """Where apply_isomorphism(rho, -, pi) sends a star centered at ``cell``."""
    x, y = cell
    return (inverse(pi)[x - 1], rho[y - 1])
