"""Permutations of [n], partial permutations, and finite families thereof.

A permutation is stored as its image sequence, a tuple ``(p(1), ..., p(n))``
with 1-indexed values.  Its *graph* is the cell set ``{(i, p(i))}`` inside the
``[n] x [n]`` grid, so families of permutations can be handled as families of
n-element cell sets: two permutations intersect exactly when their graphs
share a cell.

A *partial permutation* is a cell set with pairwise distinct rows and
pairwise distinct columns, i.e. a subset of some full permutation's graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import or_
from typing import Iterable, Iterator, Sequence

Perm = tuple[int, ...]
Cell = tuple[int, int]
PartialPerm = frozenset  # frozenset[Cell]

#: Full enumeration of all n! permutations is refused above this n.
ENUMERATION_CAP = 10


class DimensionMismatch(ValueError):
    """Operands live over different ground sets [n]."""


def is_permutation(image: Sequence[int]) -> bool:
    """Check that ``image`` is a bijection of [n] with n = len(image).

    >>> is_permutation((2, 3, 1))
    True
    >>> is_permutation((1, 1, 3))
    False
    """
    n = len(image)
    return sorted(image) == list(range(1, n + 1))


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose(a: Perm, b: Perm) -> Perm:
    """Composition a∘b, acting right-to-left: (a∘b)(i) = a(b(i))."""
    if len(a) != len(b):
        raise DimensionMismatch(f"cannot compose permutations of [{len(a)}] and [{len(b)}]")
    return tuple(a[j - 1] for j in b)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def intersects(a: Perm, b: Perm) -> bool:
    """True iff a(i) = b(i) for some i, i.e. the graphs share a cell."""
    if len(a) != len(b):
        raise DimensionMismatch(f"cannot compare permutations of [{len(a)}] and [{len(b)}]")
    return any(x == y for x, y in zip(a, b))


def graph(p: Perm) -> PartialPerm:
    """The cell set {(i, p(i)) : i in [n]}."""
    return frozenset((i + 1, v) for i, v in enumerate(p))


def contains_cells(p: Perm, cells: Iterable[Cell]) -> bool:
    """True iff every cell (r, c) satisfies p(r) = c."""
    return all(1 <= r <= len(p) and p[r - 1] == c for r, c in cells)


def is_partial_permutation(cells: Iterable[Cell]) -> bool:
    """Rows pairwise distinct and columns pairwise distinct."""
    cells = list(cells)
    rows = {r for r, _ in cells}
    cols = {c for _, c in cells}
    return len(rows) == len(cells) and len(cols) == len(cells)


def partial_permutation(cells: Iterable[Cell], n: int | None = None) -> PartialPerm:
    """Validate and freeze a cell set into a partial permutation."""
    cs = frozenset((int(r), int(c)) for r, c in cells)
    if not is_partial_permutation(cs):
        raise ValueError(f"not a partial permutation (row or column clash): {sorted(cs)}")
    if n is not None:
        for r, c in cs:
            if not (1 <= r <= n and 1 <= c <= n):
                raise ValueError(f"cell ({r},{c}) outside [{n}]^2")
    return cs


def sorted_cells(cells: Iterable[Cell]) -> tuple[Cell, ...]:
    """Row-major canonical order."""
    return tuple(sorted(cells))


def cell_masks(sets: Iterable[Iterable[Cell]]) -> dict[Cell, int]:
    """Map each cell to the bitmask of the indices of the sets containing it.

    Bit i of ``cell_masks(sets)[c]`` is set iff the i-th set contains c, so
    the sets containing a whole cell set X are the AND of its cells' masks
    and their number is that AND's popcount.  Cells in no set are absent.
    """
    masks: dict[Cell, int] = {}
    for i, cells in enumerate(sets):
        bit = 1 << i
        for c in cells:
            masks[c] = masks.get(c, 0) | bit
    return masks


@dataclass(frozen=True)
class Family:
    """A finite set of permutations sharing one n.

    Members are kept deduplicated in lexicographic order of image sequences,
    so equal families compare equal regardless of construction order.  The
    optional ``label`` names symbolic constructions (star unions etc.) and is
    ignored by comparison: families are equal by extension.
    """

    n: int
    members: tuple[Perm, ...]
    label: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        seen = sorted(set(tuple(int(v) for v in m) for m in self.members))
        for m in seen:
            if len(m) != self.n or not is_permutation(m):
                raise ValueError(f"not a permutation of [{self.n}]: {m}")
        object.__setattr__(self, "members", tuple(seen))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.members)

    def __contains__(self, p) -> bool:
        return tuple(p) in self._member_set

    @cached_property
    def _member_set(self) -> frozenset:
        return frozenset(self.members)

    @cached_property
    def cell_masks(self) -> dict[Cell, int]:
        """``cell_masks`` of the member graphs, indexed like ``members``.

        Built on first use and kept, since families are immutable; every
        caller shares the one dict, so it must not be modified.
        """
        return cell_masks(enumerate(p, 1) for p in self.members)

    def graphs(self) -> list[PartialPerm]:
        return [graph(p) for p in self.members]

    def restrict(self, keep: Iterable[Perm]) -> "Family":
        keep = set(tuple(p) for p in keep)
        return Family(self.n, tuple(p for p in self.members if p in keep))

    def difference(self, other: "Family") -> "Family":
        drop = other._member_set
        return Family(self.n, tuple(p for p in self.members if p not in drop))

    def union(self, other: "Family") -> "Family":
        if self.n != other.n:
            raise DimensionMismatch("families over different [n]")
        return Family(self.n, self.members + other.members)

    def issubset(self, other: "Family") -> bool:
        return self.n == other.n and self._member_set <= other._member_set


def family(n: int, members: Iterable[Sequence[int]], label: str | None = None) -> Family:
    return Family(n, tuple(tuple(m) for m in members), label)


def _containing(fam: Family, cells: Iterable[Cell]) -> int:
    """Bitmask of the members whose graphs contain every cell of X."""
    hit = (1 << len(fam)) - 1
    for c in cells:
        hit &= fam.cell_masks.get(c, 0)
    return hit


def _selected(fam: Family, mask: int) -> tuple[Perm, ...]:
    """The members whose index bits are set in ``mask``, in member order."""
    return tuple(p for p, bit in zip(fam.members, bin(mask)[:1:-1]) if bit == "1")


def trace(fam: Family, cells: Iterable[Cell]) -> tuple[PartialPerm, ...]:
    """Residues {graph(p) \\ X : p in F, X ⊆ graph(p)} for X = ``cells``.

    Distinct members through X leave distinct residues, so the result size
    equals the number of members containing X.  Empty when no member
    contains X (in particular whenever X is not a partial permutation).
    """
    cs = frozenset(cells)
    out = [graph(p) - cs for p in _selected(fam, _containing(fam, cs))]
    return tuple(sorted(out, key=sorted))


def subfamily_containing(fam: Family, cells: Iterable[Cell]) -> Family:
    """F[X]: the members whose graphs contain every cell of X."""
    return Family(fam.n, _selected(fam, _containing(fam, cells)))


def subfamily_containing_any(fam: Family, cell_sets: Iterable[Iterable[Cell]]) -> Family:
    """F[S] = union of F[A] over A in S."""
    hit = 0
    for cs in cell_sets:
        hit |= _containing(fam, cs)
    return Family(fam.n, _selected(fam, hit))


def _check_cap(n: int) -> None:
    if n > ENUMERATION_CAP:
        raise ValueError(f"full enumeration refused for n={n} (cap {ENUMERATION_CAP})")
    if n < 1:
        raise ValueError("n must be a positive integer")


def is_derangement(p: Perm) -> bool:
    return all(v != i + 1 for i, v in enumerate(p))


def enumerate_family(n: int, kind: str = "all", sigma: Perm | None = None) -> Family:
    """Enumerate Σ_n, its derangements, or the derangements disjoint from sigma.

    ``kind`` is one of ``all``, ``derangements``, ``double_derangements``;
    the last requires ``sigma``.  n is capped at ``ENUMERATION_CAP``.
    """
    _check_cap(n)
    perms = itertools.permutations(range(1, n + 1))
    if kind == "all":
        return Family(n, tuple(perms), label=f"sigma_{n}")
    if kind == "derangements":
        return Family(n, tuple(p for p in perms if is_derangement(p)), label=f"derangements_{n}")
    if kind == "double_derangements":
        if sigma is None:
            raise ValueError("kind 'double_derangements' needs sigma")
        sigma = tuple(sigma)
        if len(sigma) != n or not is_permutation(sigma):
            raise ValueError(f"sigma is not a permutation of [{n}]")
        members = tuple(
            p for p in perms if is_derangement(p) and not any(x == y for x, y in zip(p, sigma))
        )
        return Family(n, members, label=f"double_derangements_{n}")
    raise ValueError(f"unknown enumeration kind: {kind!r}")


def symmetric_group(n: int) -> Family:
    return enumerate_family(n, "all")


def derangements(n: int) -> Family:
    return enumerate_family(n, "derangements")


def double_derangements(n: int, sigma: Perm) -> Family:
    return enumerate_family(n, "double_derangements", sigma)


def disjoint_masks(sets: Sequence[Iterable[Cell]], index: dict[Cell, int] | None = None) -> list[int]:
    """Bit j of entry i is set iff j != i and sets i and j share no cell.

    Set i meets exactly the sets in the OR of its cells' masks in the cell
    index (``cell_masks(sets)`` unless a Family passes its cached one), so
    an empty set is disjoint from every other set but not from itself.
    """
    index = cell_masks(sets) if index is None else index
    full = (1 << len(sets)) - 1
    return [full & ~reduce(or_, (index[c] for c in cells), 1 << i) for i, cells in enumerate(sets)]


def max_disjoint(sets: Sequence[Iterable[Cell]], index: dict[Cell, int] | None = None) -> tuple[int, ...]:
    """Indices of a largest pairwise disjoint subcollection of cell sets.

    Include-first branch and bound in index order, so the first maximum
    found is the lexicographically least.  Disjoint sets use distinct cells
    of a row, so at most (row cells meeting the candidates) + (candidates
    without a cell in the row) can join; the bound is the least such sum
    over rows, on permutation graphs the fewest distinct images at one
    position.  ``index`` is as for ``disjoint_masks``.
    """
    index = cell_masks(sets) if index is None else index
    disjoint = disjoint_masks(sets, index)
    by_row: dict[int, list[int]] = {}
    for (r, _), mask in index.items():
        by_row.setdefault(r, []).append(mask)
    rows = [(masks, ~reduce(or_, masks)) for masks in by_row.values()]
    best: list[int] = []
    chosen: list[int] = []

    def rec(cand: int) -> None:
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

    rec((1 << len(sets)) - 1)
    return tuple(best)


def set_matching_number(sets: Sequence[Iterable[Cell]]) -> int:
    """Largest number of pairwise disjoint cell sets; empty sets are
    disjoint from every other entry, duplicate nonempty sets meet."""
    return len(max_disjoint([tuple(s) for s in sets]))
