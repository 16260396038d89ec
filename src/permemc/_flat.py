"""The byte layout in which a ``core.Family`` over [n], n <= 255, keeps its
members: ``flat``, the members' image sequences joined, one byte per image,
n bytes a member.  Row r of ``flat`` (``flat[r - 1 :: n]``) holds every
member's image at position r, so a cell (r, v) is read off one row by one
``translate``, and a member's bit in a mask is its position in ``flat``.
Only ``core`` and the constructions that write ``flat`` use these helpers.
"""

from __future__ import annotations

import itertools
import math
import struct
from functools import cache
from operator import itemgetter
from typing import Iterable, Iterator

#: ``_ROW_BITS[v]`` translates a row of images, one byte per member, to the
#: ASCII bits of cell (row, v): ``1`` where the image is v, ``0`` elsewhere.
_ROW_BITS = [b"0" * v + b"1" + b"0" * (255 - v) for v in range(256)]
#: Translates ASCII ``0``/``1`` to the bytes 0/1, selectors for ``itertools.compress``.
_BIT_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")
_FIRST = itemgetter(0)


def _row_masks(rows: Iterable[bytes], n: int) -> dict[tuple[int, int], int]:
    """The cell index of members given by their rows: row r is the members'
    images at position r, one byte each.  Cell (r, v)'s mask is the row
    translated to bits and read, reversed, as one base-2 integer.

    A row of at least n bytes is searched for each image v in 1..n
    (``v in row``, one C scan each), which costs less than a set of its
    bytes; a shorter row, where n scans would cost more, takes its own
    images, sorted.  On members that are permutations of [n] both give
    every cell, in the same order; an image outside 1..n is indexed only
    from a short row."""
    masks = {}
    images = range(1, n + 1)
    for r, row in enumerate(rows, 1):
        rev = row[::-1]
        for v in filter(row.__contains__, images) if len(row) >= n else sorted(set(row)):
            masks[r, v] = int(rev.translate(_ROW_BITS[v]), 2)
    return masks


def _split(flat: bytes, n: int) -> Iterator[bytes]:
    """The members of ``flat``, n bytes each, in order."""
    return map(_FIRST, struct.iter_unpack(f"{n}s", flat))


def _flat_index(flat: bytes, n: int) -> dict[tuple[int, int], int]:
    """The cell index of the members of ``flat``, by ``_row_masks`` over its rows."""
    return _row_masks((flat[r::n] for r in range(n)), n)


def _through(flat: bytes, n: int, cells: Iterable[tuple[int, int]]) -> int:
    """The bitmask of the members of ``flat`` (at least one) holding any of ``cells``."""
    hit = 0
    for r, v in cells:
        hit |= int(flat[r - 1 :: n][::-1].translate(_ROW_BITS[v]), 2)
    return hit


def _joined(rows: list[bytes]) -> bytes:
    """The flat join of the members whose rows are ``rows`` (row r: every
    member's image at position r + 1), each row put in place by one
    strided slice assignment."""
    n = len(rows)
    out = bytearray(len(rows[0]) * n)
    for r, row in enumerate(rows):
        out[r::n] = row
    return bytes(out)


def _selectors(mask: int) -> bytes:
    """``mask``'s bits from the lowest, as the bytes 0/1 ``itertools.compress``
    selects by.  Masks here are never negative, so ``bin`` gives only the bits."""
    return bin(mask)[:1:-1].encode().translate(_BIT_SELECTORS)


def _indexed_permutations(images: list, n: int) -> tuple[bytes, dict[tuple[int, int], int]] | None:
    """(``flat``, cell index) of ``Family(n, ...)`` over members read by
    ``core._read_members``, for n <= 255, in one pass; None if they are not
    all permutations of [n], so that ``core.as_permutation`` can name the
    first.

    Each member becomes one byte string (``bytes`` reads each value by
    ``__index__``, as ``core.as_permutation`` does); the distinct strings,
    sorted, are the members in lexicographic order, their join is the
    Family's ``flat``, and its rows give the index (``_row_masks``).  The
    members are all permutations of [n] exactly when every string has n
    bytes and, for each v in [n], the cells of column v cover every member:
    a member holding all n images in its n positions holds no other.  So an
    image of 0 or above n is refused by the cover, whether or not its row
    indexed it.
    """
    try:
        keys = sorted(set(map(bytes, images)))
    except (TypeError, ValueError):  # a non-integer, or a value outside 0..255
        return None
    if set(map(len, keys)) - {n}:
        return None
    flat = b"".join(keys)
    masks = _flat_index(flat, n)
    columns: dict[int, int] = {}
    for (_, v), mask in masks.items():
        columns[v] = columns.get(v, 0) | mask
    full = (1 << len(keys)) - 1
    if keys and any(columns.get(v) != full for v in range(1, n + 1)):
        return None
    return flat, masks


def _cut(flat: bytes, n: int, mask: int) -> bytes:
    """The members of ``flat`` whose index bits are set in ``mask``, joined."""
    keep, count = _selectors(mask), len(flat) // n
    return flat if keep.count(1, 0, count) == count else b"".join(itertools.compress(_split(flat, n), keep))


def _star(n: int, x: int, y: int) -> bytes:
    """Σ_n[(x, y)] in lexicographic order, as a Family's ``flat``: Σ_(n-1)
    over the other values than y, each image w raised to w + 1 from y on,
    with y put in column x.  The caller checks n against the enumeration cap."""
    raised = bytes(range(y)) + bytes(range(y + 1, 256)) + b"\0"
    rows = [row.translate(raised) for row in _symmetric_rows(n - 1)]
    rows.insert(x - 1, bytes((y,)) * math.factorial(n - 1))
    return _joined(rows)


@cache
def _symmetric_rows(m: int) -> tuple[bytes, ...]:
    """The rows of Σ_m, its members in lexicographic order: its stars
    Σ_m[(1, y)] for y = 1..m in turn.  Kept, since the stars of Σ_(m+1) all
    read them; only m below the enumeration cap is asked for."""
    flat = b"".join(_star(m, 1, y) for y in range(1, m + 1))
    return tuple(flat[r::m] for r in range(m))
