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
import math
from collections import defaultdict
from fractions import Fraction
from functools import cached_property, partial, reduce
from operator import attrgetter, index, or_
from typing import Callable, Iterable, Iterator, Sequence

from ._flat import _cut, _flat_index, _indexed_permutations, _joined, _selectors, _split, _star, _through

Perm = tuple[int, ...]
Cell = tuple[int, int]
PartialPerm = frozenset  # frozenset[Cell]

#: Full enumeration of all n! permutations is refused above this n.
ENUMERATION_CAP = 10
#: The one search budget: sets one spreadness walk visits, or prefixes one
#: cell-combination search extends (``solvers._most_held``, for τ over all its
#: sizes and for the best star union), before it refuses.
_SUBSET_BUDGET = 6_000_000


class DimensionMismatch(ValueError):
    """Operands live over different ground sets [n]."""


def as_permutation(image: Iterable[int], n: int | None) -> Perm | None:
    """``image`` as a tuple of ints if it is a bijection of [n] (n = its length
    when n is None), else None.  The one validity rule for permutations: values
    are read with ``operator.index``, so floats and strings are refused, never truncated."""
    try:
        perm = tuple(map(index, image))
    except TypeError:
        return None
    return perm if n in (None, len(perm)) and set(perm).issuperset(range(1, len(perm) + 1)) else None


def as_cell(cell, n: int | None) -> Cell | None:
    """``cell`` as a pair of ints if it lies in [n]^2 (any pair of integers
    when n is None), else None: the counterpart of ``as_permutation``."""
    try:
        r, c = map(index, cell)
    except (TypeError, ValueError):
        return None
    return (r, c) if n is None or (1 <= r <= n and 1 <= c <= n) else None


def _cell_sets(sets: Iterable[Iterable[Cell]]) -> list[frozenset]:
    """Each set as a frozenset of cells read by ``as_cell(cell, None)``; a
    set that is not iterable, or a cell no pair of integers, is a ValueError."""
    read = []
    for cells in sets:
        try:
            cells = list(cells)
        except TypeError:
            raise ValueError(f"not a set of cells: {cells!r}") from None
        pairs = [as_cell(cell, None) for cell in cells]
        if None in pairs:
            raise ValueError(f"not a cell (a pair of integers): {cells[pairs.index(None)]!r}")
        read.append(frozenset(pairs))
    return read


def is_permutation(image: Sequence[int]) -> bool:
    """Check that ``image`` is a bijection of [n] with n = len(image).

    >>> is_permutation((2, 3, 1))
    True
    >>> is_permutation((1, 1, 3))
    False
    >>> is_permutation(5)
    False
    """
    return as_permutation(image, None) is not None


def identity(n: int) -> Perm:
    n = _integer(n, 0, "n must be non-negative")
    try:
        return tuple(range(1, n + 1))
    except OverflowError:  # a length past the platform's sizes
        raise ValueError("n is too large") from None


def compose(a: Perm, b: Perm) -> Perm:
    """Composition a∘b, acting right-to-left: (a∘b)(i) = a(b(i))."""
    if len(a) != len(b):
        raise DimensionMismatch(f"cannot compose permutations of [{len(a)}] and [{len(b)}]")
    return tuple(a[j - 1] for j in b)


def inverse(p: Perm) -> Perm:
    p = _permutation(p, None, "p must be a permutation")
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
    """True iff every cell (r, c) lies in [n]^2 and satisfies p(r) = c."""
    cells = [as_cell(cell, len(p)) for cell in cells]
    return None not in cells and all(p[r - 1] == c for r, c in cells)


def is_partial_permutation(cells: Iterable[Cell]) -> bool:
    """Rows pairwise distinct and columns pairwise distinct."""
    cells = list(cells)
    return len({r for r, _ in cells}) == len({c for _, c in cells}) == len(cells)


def partial_permutation(cells: Iterable[Cell], n: int | None = None) -> PartialPerm:
    """Validate and freeze a cell set into a partial permutation, inside [n]^2 if n is given."""
    cs = frozenset(as_cell(cell, None) for cell in cells)
    if None in cs:
        raise ValueError("not a partial permutation: cells must be pairs of integers")
    if not is_partial_permutation(cs):
        raise ValueError(f"not a partial permutation (row or column clash): {sorted(cs)}")
    if n is not None:
        n = _integer(n, 0, "n must be non-negative")
        for cell in cs:
            _cell(cell, n)
    return cs


def cell_masks(sets: Iterable[Iterable[Cell]]) -> dict[Cell, int]:
    """Map each cell to the bitmask of the indices of the sets containing it.

    Bit i of ``cell_masks(sets)[c]`` is set iff the i-th set contains c, so
    the sets containing a whole cell set X are the AND of its cells' masks
    and their number is that AND's popcount.  Cells in no set are absent.
    Keys come sorted (row-major), as in every index here.  Masks are filled
    in as little-endian byte bitmaps read as integers: one linear pass, one key sort.
    """
    sets = list(sets)
    bitmaps: defaultdict[Cell, bytearray] = defaultdict(partial(bytearray, (len(sets) + 7) >> 3))
    for i, cells in enumerate(sets):
        byte, bit = i >> 3, 1 << (i & 7)
        for c in cells:
            bitmaps[c][byte] |= bit
    return {c: int.from_bytes(bitmaps[c], "little") for c in sorted(bitmaps)}


def _read_members(given: tuple) -> list:
    """Each member read once as a tuple, or None for one that is not iterable."""
    images, rest = [], iter(given)
    while True:
        try:
            images.extend(map(tuple, rest))  # keeps the tuples read before a failing member
            return images
        except TypeError:
            images.append(None)


class _Record:
    """The base of permemc's frozen result records (and of ``Family``).

    A subclass's fields are its own annotations, in order, and a value in
    its body is that field's default unless it is a descriptor, such as
    ``Family.members``.  ``__init__`` takes the fields by position or
    keyword, then calls ``__post_init__``; after that the record is frozen.
    Records compare (same class only) and hash by their fields but those
    named in ``_uncompared`` (or by a ``_key`` of their own), and print as
    ``Name(field=value, ...)``.
    """

    _uncompared: tuple[str, ...] = ()

    def __init_subclass__(cls):
        own = vars(cls)
        cls._fields = tuple(own.get("__annotations__", ()))
        cls._defaults = {k: v for k, v in own.items() if k in cls._fields and not hasattr(type(v), "__get__")}
        if "_key" not in own:
            cls._key = attrgetter(*(name for name in cls._fields if name not in cls._uncompared))

    def __init__(self, *args, **kwargs):
        fields, values = self._fields, self.__dict__
        values.update(self._defaults)
        values.update(zip(fields, args))
        if kwargs or len(values) < len(fields) or len(args) > len(fields):
            self._bind(args, kwargs)
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> None:
        """``__init__`` past plain positional fields: keyword fields, or a TypeError."""
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in fields[: len(args)]:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        self.__dict__.update(kwargs)
        if missing := [key for key in fields if key not in self.__dict__]:
            raise TypeError(f"{name}() missing required arguments: {', '.join(map(repr, missing))}")

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Family(_Record):
    """A finite set of permutations sharing one n.

    Members are kept deduplicated in lexicographic order of image sequences,
    so equal families compare equal regardless of construction order.  For
    n <= 255 a Family keeps them as ``flat``, their images joined, one byte
    each, and lists ``members`` as tuples only when something reads it; for
    larger n it keeps the tuples.  A slice of a parent family (see
    ``_slice``) is its view alone: its length is a popcount, and its
    members are cut from the parent on first read.
    """

    n: int
    members: tuple[Perm, ...]
    _view = None  # (parent, mask) for a slice: its members are the parent's in mask

    def __post_init__(self):
        n = _integer(self.n)
        try:
            given = tuple(self.members)
        except TypeError:
            raise ValueError(f"members must be a collection of permutations, not {self.members!r}") from None
        images = _read_members(given)
        indexed = _indexed_permutations(images, n) if n <= 255 else None
        if indexed is not None:
            del self.__dict__["members"]
            self.__dict__.update(n=n, flat=indexed[0], cell_masks=indexed[1])
            return
        perms = [as_permutation(m, n) for m in images]
        if None in perms:
            bad = perms.index(None)  # named as read, or as given when it was not iterable
            raise ValueError(f"not a permutation of [{n}]: {given[bad] if images[bad] is None else images[bad]}")
        # valid members reach here only for n > 255: below, they were indexed above
        self.__dict__.update(n=n, members=tuple(sorted(set(perms))))

    @classmethod
    def _of(cls, n: int, members) -> "Family":
        """A Family over members already valid, sorted and distinct, unchecked:
        for n <= 255 their ``flat`` (or their image sequences, joined here),
        else their tuples.  Its cell index is built on first read."""
        fam = object.__new__(cls)
        if n > 255:
            fam.__dict__.update(n=n, members=tuple(members))
        else:
            fam.__dict__.update(n=n, flat=members if type(members) is bytes else b"".join(map(bytes, members)))
        return fam

    @cached_property
    def flat(self) -> bytes:
        """The members' images joined, n bytes a member (n <= 255 only).  A
        built Family keeps it from the start; a slice cuts it from its parent's."""
        if self._view is None or self.n > 255:
            raise AttributeError(f"a Family over [{self.n}] that is no slice keeps no flat")
        root, mask = self._view
        return _cut(root.flat, self.n, mask)

    @cached_property
    def members(self) -> tuple[Perm, ...]:
        """The members as image tuples, listed on first read: from ``flat``
        for n <= 255, else (kept from the start but on a slice) from the parent's."""
        n = self.n
        if n <= 255:
            return tuple(zip(*(self.flat[r::n] for r in range(n))))
        if self._view is None:
            raise AttributeError("a Family that was neither built nor cut has no members")
        root, mask = self._view
        return _selected(root.members, mask)

    @staticmethod
    def _key(fam: "Family") -> tuple:
        """n and ``flat`` (the members above 255): a Family compares and hashes
        without listing tuples."""
        return fam.n, fam.flat if fam.n <= 255 else fam.members

    def _images(self) -> Iterator[Sequence[int]]:
        """Each member's image sequence, in order: n bytes of ``flat`` for
        n <= 255, else the member's tuple."""
        return _split(self.flat, self.n) if self.n <= 255 else iter(self.members)

    def _reader(self) -> Callable[[int], Sequence[int]]:
        """j -> member j's image sequence, as ``_images`` gives it."""
        if self.n > 255:
            return self.members.__getitem__
        flat, n = self.flat, self.n
        return lambda j: flat[j * n : j * n + n]

    def __len__(self) -> int:
        if self._view is not None:
            return self._view[1].bit_count()
        return len(self.flat) // self.n if self.n <= 255 else len(self.members)

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.members)

    def __contains__(self, p) -> bool:
        """The one permutation rule at every n: each value is read by
        ``__index__``, so floats, strings and non-iterables are no members.
        The probe is ``bytes(tuple(p))`` for n <= 255, which also refuses a
        value outside 0..255, and ``tuple(map(index, p))`` above."""
        try:
            return (bytes(tuple(p)) if self.n <= 255 else tuple(map(index, p))) in self._member_set
        except (TypeError, ValueError):
            return False

    @cached_property
    def _member_set(self) -> frozenset:
        return frozenset(self._images())

    @cached_property
    def cell_masks(self) -> dict[Cell, int]:
        """``cell_masks`` of the member graphs, indexed like ``members``.

        Built on first use and kept, since families are immutable; every
        caller shares the one dict, so it must not be modified.  Each member
        has one cell per row, so for n <= 255 the index is built row by row
        from ``flat`` (``_row_masks``), and a validated ``Family(...)`` stores
        it as it checks the members.  Larger n, whose images do not fit in a
        byte, takes the general ``cell_masks`` build.  Either way the keys
        come in row-major order.
        """
        if self.n > 255:
            return cell_masks(enumerate(p, 1) for p in self.members)
        return _flat_index(self.flat, self.n)

    def graphs(self) -> list[PartialPerm]:
        return [graph(p) for p in self._images()]

    def restrict(self, keep: Iterable[Perm]) -> "Family":
        """The members that ``in`` accepts from ``keep``; each is read once
        (``_read_members``), so a generator counts, and a non-iterable is skipped."""
        return Family(self.n, [p for p in _read_members(tuple(keep)) if p in self])

    def difference(self, other: "Family") -> "Family":
        (root, mask), (other_root, other_mask) = _root(self), _root(other)
        if other_root is root:
            return _slice(root, mask & ~other_mask)
        drop = other._member_set
        return Family._of(self.n, [p for p in self._images() if p not in drop])

    def union(self, other: "Family") -> "Family":
        if self.n != other.n:
            raise DimensionMismatch("families over different [n]")
        return Family._of(self.n, sorted(self._member_set.union(other._member_set)))

    def issubset(self, other: "Family") -> bool:
        if self.n != other.n:
            return False
        # n! valid, distinct members are all of Σ_n (n <= len(other) keeps n! cheap to take)
        if self.n <= len(other) and len(other) == math.factorial(self.n):
            return True
        return self._member_set <= other._member_set


def family(n: int, members: Iterable[Sequence[int]]) -> Family:
    return Family(n, members)


class ZeroOneMatrix(_Record):
    """A square matrix with entries in {0, 1}."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        try:
            rows = tuple(map(tuple, self.rows))
        except TypeError:
            raise ValueError("matrix must be a sequence of rows") from None
        n = len(rows)
        norm = []
        for row in rows:
            try:
                row = tuple(map(index, row))
            except TypeError:
                raise ValueError("entries must be 0 or 1") from None
            if len(row) != n:
                raise ValueError("matrix must be square")
            if any(v not in (0, 1) for v in row):
                raise ValueError("entries must be 0 or 1")
            norm.append(row)
        object.__setattr__(self, "rows", tuple(norm))

    @property
    def n(self) -> int:
        return len(self.rows)


def _containing(fam: Family, cells: Iterable[Cell]) -> int:
    """Bitmask of the members whose graphs contain every cell of X."""
    masks, hit = fam.cell_masks, (1 << len(fam)) - 1
    for c in cells:
        hit &= masks.get(c, 0)
    return hit


def _selected(items: Iterable, mask: int) -> tuple:
    """The items whose index bits are set in ``mask``, in order."""
    return tuple(itertools.compress(items, _selectors(mask)))


def _root(fam: Family) -> tuple[Family, int]:
    """(parent, mask) such that fam is the parent's members in mask; a family
    that is no slice is its own parent.  Slices of slices keep the first
    parent, so all of them share its one cached ``cell_masks``."""
    return fam._view or (fam, (1 << len(fam)) - 1)


def _slice(root: Family, mask: int) -> Family:
    """The members of ``root`` in ``mask``, as a Family viewing root; the
    members are listed only when something reads them."""
    fam = object.__new__(Family)
    fam.__dict__.update(n=root.n, _view=(root, mask))
    return fam


def _relabelled(fam: Family, rho: Perm, pi: Perm) -> Family:
    """{rho ∘ p ∘ pi : p in F} for permutations rho, pi of F's [n], unchecked.
    For n <= 255, row j of the image is row pi(j) of F (its members' images
    there, one byte each) with every value v sent to rho(v).  Like every
    unchecked build, it leaves its cell index to the first read."""
    n = fam.n
    if n > 255:
        return Family._of(n, sorted(tuple(rho[p[j - 1] - 1] for j in pi) for p in fam.members))
    flat, table = fam.flat, bytes((0, *rho, *range(n + 1, 256)))
    return Family._of(n, b"".join(sorted(_split(_joined([flat[j - 1 :: n].translate(table) for j in pi]), n))))


def trace(fam: Family, cells: Iterable[Cell]) -> tuple[PartialPerm, ...]:
    """Residues {graph(p) \\ X : p in F, X ⊆ graph(p)} for X = ``cells``.

    The members through X, cut from the root's index by ``subfamily_containing``,
    leave distinct residues, so the result size is their number.  Empty when
    no member contains X (in particular whenever X is not a partial permutation).
    """
    cs = frozenset(cells)
    out = [graph(p) - cs for p in subfamily_containing(fam, cs)._images()]
    return tuple(sorted(out, key=sorted))


def subfamily_containing(fam: Family, cells: Iterable[Cell]) -> Family:
    """F[X]: the members whose graphs contain every cell of X."""
    root, mask = _root(fam)
    return _slice(root, mask & _containing(root, cells))


def subfamily_containing_any(fam: Family, cell_sets: Iterable[Iterable[Cell]]) -> Family:
    """F[S] = union of F[A] over A in S."""
    root, mask = _root(fam)
    hit = 0
    for cs in cell_sets:
        hit |= _containing(root, cs)
    return _slice(root, mask & hit)


def _integer(value, least: int = 1, message: str = "n must be a positive integer") -> int:
    """``value`` read with ``operator.index`` if it is an integer >= least,
    else ValueError(message); by default, the one rule for n."""
    try:
        value = index(value)
    except TypeError:
        value = least - 1
    if value < least:
        raise ValueError(message)
    return value


def _rational(value, message: str, above=None, below=None) -> Fraction:
    """``value`` read as a Fraction if it lies strictly between ``above`` and ``below``
    (None: no bound), else ValueError(message), also for a non-number, NaN, an
    infinity or a zero denominator: the one rule for r, rho, p, eps and delta."""
    if type(value) is not Fraction:  # a Fraction is already exact and reduced
        try:
            value = Fraction(value)
        except (TypeError, ValueError, ArithmeticError):
            raise ValueError(message) from None
    if (above is not None and value <= above) or (below is not None and value >= below):
        raise ValueError(message)
    return value


def _permutation(value, n: int | None, message: str) -> Perm:
    """``as_permutation(value, n)``, else ValueError(message)."""
    if (perm := as_permutation(value, n)) is None:
        raise ValueError(message)
    return perm


def _cell(value, n: int) -> Cell:
    """``as_cell(value, n)``, else ValueError naming the value."""
    if (cell := as_cell(value, n)) is None:
        raise ValueError(f"cell {value} outside [{n}]^2")
    return cell


def _check_cap(n: int) -> int:
    n = _integer(n)
    if n > ENUMERATION_CAP:
        raise ValueError(f"full enumeration refused for n={n} (cap {ENUMERATION_CAP})")
    return n


def is_derangement(p: Perm) -> bool:
    return all(v != i + 1 for i, v in enumerate(p))


def enumerate_family(n: int, kind: str = "all", sigma: Perm | None = None) -> Family:
    """Enumerate Σ_n, its derangements, or the derangements disjoint from sigma.

    ``kind`` is one of ``all``, ``derangements``, ``double_derangements``;
    the last requires ``sigma``.  n is capped at ``ENUMERATION_CAP``.
    """
    n = _check_cap(n)
    avoided = [(i, i) for i in range(1, n + 1)]  # the cells a derangement holds none of
    if kind == "double_derangements":
        sigma = _permutation(sigma, n, f"sigma is not a permutation of [{n}]")
        avoided += enumerate(sigma, 1)
    elif kind not in ("all", "derangements"):
        raise ValueError(f"unknown enumeration kind: {kind!r}")
    flat = b"".join(_star(n, 1, y) for y in range(1, n + 1))  # Σ_n, lexicographic as its stars
    if kind != "all":
        flat = _cut(flat, n, ~_through(flat, n, avoided) & ((1 << math.factorial(n)) - 1))
    return Family._of(n, flat)


def symmetric_group(n: int) -> Family:
    return enumerate_family(n, "all")


def derangements(n: int) -> Family:
    return enumerate_family(n, "derangements")


def double_derangements(n: int, sigma: Perm) -> Family:
    return enumerate_family(n, "double_derangements", sigma)


class _Meets(dict):
    """Meet masks read off a cell index on demand: ``meets[j]`` is the OR of
    ``index[c]`` over the cells of set j, plus bit j, i.e. the sets sharing a
    cell with set j and j itself (so an empty set meets only itself).  A mask
    is computed the first time j is asked for and kept while the owner runs,
    so no N x N table is built."""

    def __init__(self, index: dict[Cell, int], cells_of: Callable[[int], Iterable[Cell]]):
        self.index, self.cells_of = index, cells_of

    def __missing__(self, j: int) -> int:
        mask = self[j] = reduce(or_, map(self.index.__getitem__, self.cells_of(j)), 1 << j)
        return mask


def _live_rows(cand: int, rows: list, room: int) -> tuple[list, list | None] | None:
    """Each row's cell masks that meet ``cand``, with its mask of the sets
    having no cell in the row, and the masks of the row with the least
    bound (None when no cell meets ``cand``); or None as soon as a row
    shows that at most ``room`` candidates are pairwise disjoint.

    Disjoint sets use distinct cells of a row, so at most (row cells meeting
    the candidates) + (candidates without a cell in the row) join; on
    permutation graphs that is the fewest distinct images at one position.
    Rows left with no such cell are dropped: their bound is the candidate
    count, which the callers check first.
    """
    live_rows, least, pick = [], 0, None
    for masks, missing in rows:
        live = [m for m in masks if m & cand]
        bound = len(live) + (cand & missing).bit_count()
        if bound <= room:
            return None
        if live:
            live_rows.append((live, missing))
            if pick is None or bound < least:
                least, pick = bound, live
    return live_rows, pick


def _matching_value(full: int, rows: list, meets: _Meets, best: int) -> int:
    """The largest number of pairwise disjoint sets in ``full``, given that
    ``best`` of them are, by an explicit-stack branch and bound.

    A node takes the row with the least bound and, in it, the cell with the
    fewest candidates: either one of those candidates j joins (its child
    drops every set meeting j) or none does (its child drops the cell's
    sets).  Once no cell meets the candidates, all of them are empty sets
    and join together.
    """
    stack = [(full, 0, rows)]
    while stack:
        cand, size, rows = stack.pop()
        room = best - size  # prune once the bound cannot beat best
        if cand.bit_count() <= room:
            continue
        found = _live_rows(cand, rows, room)
        if found is None:
            continue
        rows, pick = found
        if pick is None:
            best = size + cand.bit_count()
            continue
        cell = min((m & cand for m in pick), key=int.bit_count)
        stack.append((cand & ~cell, size, rows))
        while cell:  # pushed from the top, so the lowest candidate is tried first
            top = cell.bit_length() - 1
            cell ^= 1 << top
            stack.append((cand & ~meets[top], size + 1, rows))
    return best


def _first_packing(full: int, rows: list, meets: _Meets, size: int) -> tuple[int, ...] | None:
    """The first ``size`` pairwise disjoint sets of ``full`` that an
    include-first search in index order reaches, i.e. the lexicographically
    least, or None if there is none; by an explicit stack whose every node,
    a fresh pick's or a backed-up one's, is first checked by the row bound."""
    chosen: list[int] = []
    frames: list[tuple[int, list]] = []  # per pick: the candidates still to try there, and the live rows
    cand = full
    while len(chosen) < size:
        need = size - len(chosen)
        found = _live_rows(cand, rows, need - 1) if cand.bit_count() >= need else None
        if found is None:  # back up to the last pick's next candidate
            if not frames:
                return None
            cand, rows = frames.pop()
            chosen.pop()
            continue
        rows = found[0]
        j = (cand & -cand).bit_length() - 1
        frames.append((cand & (cand - 1), rows))
        chosen.append(j)
        cand &= ~meets[j]  # meets[j] holds j, the lowest candidate
    return tuple(chosen)


def _greedy_packing(cand: int, meets: _Meets) -> int:
    """The mask of the sets of ``cand`` that a greedy packing in index order
    takes: the lowest candidate joins and every candidate meeting it leaves."""
    packed = 0
    while cand:
        low = cand & -cand
        packed |= low
        cand &= ~meets[low.bit_length() - 1]
    return packed


def _indexed(sets) -> tuple[int, dict[Cell, int], Callable[[int], Iterable[Cell]]]:
    """(count, cell index, reader of set j's cells) of a Family, by its cached
    ``cell_masks`` and ``_reader()``, or of a list of cell sets already read
    by ``_cell_sets``: the one place the disjoint-pick searches tell them apart.
    A member's cells are its images enumerated from 1."""
    if isinstance(sets, Family):
        image = sets._reader()
        return len(sets), sets.cell_masks, lambda j: enumerate(image(j), 1)
    return len(sets), cell_masks(sets), sets.__getitem__


def _max_disjoint(count: int, index: dict[Cell, int], cells_of: Callable) -> tuple[int, ...]:
    """``max_disjoint`` of ``count`` sets as ``_indexed`` gives them: their
    cell index, and a reader of set j's cells for its meet mask."""
    full, meets = (1 << count) - 1, _Meets(index, cells_of)
    packed = _greedy_packing(full, meets)  # the include-first search's first leaf
    by_row: dict[int, list[int]] = {}
    for (r, _), mask in index.items():
        by_row.setdefault(r, []).append(mask)
    rows = [(masks, ~reduce(or_, masks)) for masks in by_row.values()]
    nu = _matching_value(full, rows, meets, packed.bit_count())
    if nu > packed.bit_count():
        return _first_packing(full, rows, meets, nu)
    return _selected(range(count), packed)


def max_disjoint(sets: Iterable[Iterable[Cell]]) -> tuple[int, ...]:
    """Indices of a largest pairwise disjoint subcollection of cell sets,
    the lexicographically least one.

    A greedy packing in index order seeds a row-branching search for the
    size ν (``_matching_value``); when the greedy packing is not already of
    size ν, an include-first search in index order finds the first
    pairwise disjoint ν sets (``_first_packing``).  Both use explicit
    stacks and read a set's meet mask (``_Meets``) only when they try it,
    so no N x N table is built and ν is not limited by recursion depth.
    An empty set meets only itself; cells are read by ``_cell_sets``.
    """
    return _max_disjoint(*_indexed(_cell_sets(sets)))


def set_matching_number(sets: Iterable[Iterable[Cell]]) -> int:
    """Largest number of pairwise disjoint cell sets; empty sets are
    disjoint from every other entry, duplicate nonempty sets meet."""
    return len(max_disjoint(sets))
