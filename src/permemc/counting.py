"""Exact counting kernels: derangement numbers, permanents, and lower bounds.

Every count is an exact Python integer and every inequality is decided in
rational arithmetic; no floating point enters any comparison.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import Cell, Perm, _integer, _permutation, identity, partial_permutation

#: Largest N the general exact permanents accept.  Glynn (``RYSER_CAP``) takes
#: 3 s at N = 22 and about x2.2 more per N, so N = 30 runs for about half an hour.
BRUTE_CAP = 9
RYSER_CAP = 30

_PERM_CACHE: dict[int, list[tuple[int, ...]]] = {}


def derangement_count(n: int) -> int:
    """d_n by the recurrence d_n = (n-1)(d_{n-1} + d_{n-2}), d_0 = 1, d_1 = 0."""
    n = _integer(n, 0, "n must be non-negative")
    a, b = 0, 1  # d_{-1} (any value: d_1 = 0 * (d_0 + d_{-1})), d_0
    for m in range(1, n + 1):
        a, b = b, (m - 1) * (b + a)
    return b


def derangement_count_inclusion_exclusion(n: int) -> int:
    """d_n = n! * sum_{i=0}^{n} (-1)^i / i!, evaluated in exact integers.

    The sum must start at i = 0: the complementary sum starting at i = 1
    counts the permutations that *do* have a fixed point.
    """
    n = _integer(n, 0, "n must be non-negative")
    total = 0
    term = math.factorial(n)  # n!/i! at i = 0
    for i in range(n + 1):
        total += term if i % 2 == 0 else -term
        term //= i + 1
    return total


def round_factorial_over_e(n: int) -> int:
    """Nearest integer to n!/e via the truncated alternating series.

    The partial sums n! * num_i / i! of n! * sum (-1)^k/k!, with num_i an
    integer, bracket n!/e ever more tightly; we extend the series until both
    bracket ends round to the same integer.  Rounding is floor division in
    integers; no floating-point value of e is used.

    No test before i = n + 1 can stop: for i <= n the sum n! * num_i / i!
    is an integer, and it differs from the previous one by n!/i! >= 1.  So
    num_i runs up to i = n without rounding, and the tests start from there.
    """
    n = _integer(n, 1, "defined for n >= 1")
    nf = math.factorial(n)
    num = 0  # num_1: sum_{k<=1} (-1)^k/k! = 0/1!
    for i in range(2, n + 1):
        num = num * i + (-1 if i & 1 else 1)
    i, fact_i, prev = n, nf, num  # the sum at i = n is the integer num_n
    while True:
        i += 1
        num = num * i + (-1 if i & 1 else 1)
        fact_i *= i
        rounded = (2 * nf * num + fact_i) // (2 * fact_i)  # floor(x + 1/2)
        if rounded == prev:
            return rounded
        prev = rounded


def pointed_derangement_count(n: int) -> int:
    """d_{n,1} = d_{n-1} + d_{n-2}: derangements through one off-diagonal cell."""
    n = _integer(n, 2, "defined for n >= 2")
    return derangement_count(n - 1) + derangement_count(n - 2)


@dataclass(frozen=True)
class ZeroOneMatrix:
    """A square matrix with entries in {0, 1}."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        norm = []
        for row in self.rows:
            try:
                row = tuple(map(operator.index, row))
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


def _rows_of(matrix) -> list[tuple[int, ...]]:
    if isinstance(matrix, ZeroOneMatrix):
        return list(matrix.rows)
    return list(ZeroOneMatrix(tuple(tuple(r) for r in matrix)).rows)


def permanent_brute(matrix) -> int:
    """Permanent as the literal sum over all N! permutations (oracle path)."""
    rows = _rows_of(matrix)
    n = len(rows)
    if n > BRUTE_CAP:
        raise ValueError(f"brute permanent capped at N={BRUTE_CAP}")
    if n == 0:
        return 1
    if n <= 8:
        perms = _PERM_CACHE.get(n)
        if perms is None:
            perms = _PERM_CACHE[n] = list(itertools.permutations(range(n)))
    else:
        perms = itertools.permutations(range(n))
    total = 0
    for p in perms:
        prod = 1
        for i, j in enumerate(p):
            prod *= rows[i][j]
            if not prod:
                break
        total += prod
    return total


def permanent_ryser(matrix) -> int:
    """Permanent by Glynn's formula on row bitmasks (the ``ryser`` method).

    perm(A) = 2^-(N-1) * sum over d in {+1,-1}^N with d_1 = +1 of
    (prod_k d_k) * prod_i (sum_j d_j a_ij), which has 2^(N-1) terms where
    Ryser's formula has 2^N - 1 (Glynn, Eur. J. Combin. 31, 2010).  With row
    i as a column bitmask m_i and P the columns signed +1, row i's sum is
    2 popcount(m_i & P) - popcount(m_i).  The N-1 free columns split into a
    low and a high half: the low half's doubled popcounts are tabulated once
    and added to one base vector per high-half value.  The sum is an exact
    big integer divisible by 2^(N-1).
    """
    rows = _rows_of(matrix)
    n = len(rows)
    if n > RYSER_CAP:
        raise ValueError(f"ryser permanent capped at N={RYSER_CAP}")
    if n == 0:
        return 1
    masks = [sum(v << j for j, v in enumerate(row)) for row in rows]
    free = n - 1
    low_bits = free // 2
    high_bits = free - low_bits
    # Low-half vectors (columns 2..low_bits+1), grouped by the parity of
    # their minus columns.
    lows: tuple[list, list] = ([], [])
    for low in range(1 << low_bits):
        plus = low << 1
        lows[(low_bits - low.bit_count()) & 1].append([2 * (m & plus).bit_count() for m in masks])
    total = 0
    for high in range(1 << high_bits):
        plus = 1 | high << (low_bits + 1)
        base = [2 * (m & plus).bit_count() - m.bit_count() for m in masks]
        even, odd = (sum(math.prod(map(operator.add, base, vec)) for vec in group) for group in lows)
        total += odd - even if (high_bits - high.bit_count()) & 1 else even - odd
    return total >> free


def permanent(matrix, method: str = "ryser") -> int:
    """Exact permanent of a 0/1 matrix; ``method`` is ``ryser`` or ``brute``.

    ``ryser`` runs Glynn's formula (``permanent_ryser``, N <= 30); ``brute``
    is the literal N!-sum oracle (N <= 9).
    """
    if method == "ryser":
        return permanent_ryser(matrix)
    if method == "brute":
        return permanent_brute(matrix)
    raise ValueError(f"unknown permanent method: {method!r}")


def _rook_permanent(size: int, zeros) -> int:
    """Permanent of the size x size 0/1 matrix whose zero cells are ``zeros``.

    Rows and columns may carry any labels, but each may hold at most two
    zeros.  Read as edges between row and column vertices, the zero cells
    then split into disjoint paths and cycles; a path with e cells has
    r_k = C(e-k+1, k) placements of k non-attacking rooks, a cycle with e
    cells has r_k = e/(e-k) C(e-k, k), the board's rook polynomial is their
    product, and perm = sum_k (-1)^k r_k (size-k)! (Kaplansky-Riordan).
    """
    adj: dict[tuple, list[tuple]] = {}
    for r, c in set(zeros):
        adj.setdefault((0, r), []).append((1, c))
        adj.setdefault((1, c), []).append((0, r))
    if any(len(ends) > 2 for ends in adj.values()):
        raise ValueError("closed-form permanent needs at most two zeros per row and column")
    rooks = [1]
    seen: set = set()
    for start in adj:
        if start in seen:
            continue
        seen.add(start)
        stack, nodes, ends = [start], 0, 0
        while stack:
            node = stack.pop()
            nodes += 1
            ends += len(adj[node])
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        e = ends // 2
        if e == nodes:  # connected with as many edges as vertices: a cycle
            comp = [1] + [e * math.comb(e - k, k) // (e - k) for k in range(1, e // 2 + 1)]
        else:
            comp = [math.comb(e - k + 1, k) for k in range((e + 1) // 2 + 1)]
        product = [0] * (len(rooks) + len(comp) - 1)
        for i, a in enumerate(rooks):
            for j, b in enumerate(comp):
                product[i + j] += a * b
        rooks = product
    return sum((-1) ** k * r * math.factorial(size - k) for k, r in enumerate(rooks))


def _reduced_forbidden_matrix(n: int, cells, sigma: Perm) -> set[Cell]:
    """Zero cells left once the fixed cells' rows and columns are deleted.

    Each surviving row r forbids the surviving columns among {r, sigma(r)};
    the cells keep their labels in [n].
    """
    fixed_rows = {r for r, _ in cells}
    fixed_cols = {c for _, c in cells}
    return {(r, c) for r in range(1, n + 1) if r not in fixed_rows for c in (r, sigma[r - 1]) if c not in fixed_cols}


def derangement_containment_count(n: int, cells) -> int:
    """Number of derangements of [n] whose graph contains the given cells.

    Derangements are the permutations disjoint from the identity, so this
    is ``double_derangement_count`` with sigma the identity, whose forbidden
    set {r, sigma(r)} is the diagonal cell {r} alone.  Zero when some cell
    sits on the diagonal.
    """
    n = _integer(n, 0, "n must be non-negative")
    return double_derangement_count(n, identity(n), cells)


def double_derangement_count(n: int, sigma: Perm, cells=()) -> int:
    """|D_{n, sigma-bar}(S)|: derangements disjoint from sigma containing S.

    After fixing the cells of S the corresponding rows and columns are
    deleted and each surviving row r forbids the columns {r, sigma(r)}; the
    count is the permanent of that reduced board, in closed form since it
    has at most two zeros per row and column.  Returns 0 when S touches the
    diagonal or the graph of sigma.
    """
    n = _integer(n, 0, "n must be non-negative")
    sigma = _permutation(sigma, n, f"sigma is not a permutation of [{n}]")
    cs = partial_permutation(cells, n)
    if any(r == c or sigma[r - 1] == c for r, c in cs):
        return 0
    return _rook_permanent(n - len(cs), _reduced_forbidden_matrix(n, cs, sigma))


def near_full_permanent_bound(n: int, case: str = "two_regular") -> Fraction:
    """Exact rational lower bound for permanents of nearly-full 0/1 matrices.

    For an N x N matrix whose rows and columns each carry at least N-2 ones,
    the zero pattern saturates to either a 2-regular bipartite graph or one
    with a single adjacent degree-1 pair; the Egorychev-Falikman theorem
    applied to the saturated matrix gives

        two_regular:    (1 - 2/N)^N * N!
        one_deficient:  (N-1)/N * (1 - 2/(N-1))^(N-1) * N!
    """
    n = _integer(n, 4, "defined for N >= 4")
    nf = math.factorial(n)
    if case == "two_regular":
        return Fraction(n - 2, n) ** n * nf
    if case == "one_deficient":
        return Fraction(n - 1, n) * Fraction(n - 3, n - 1) ** (n - 1) * nf
    raise ValueError(f"unknown case: {case!r}")


@dataclass(frozen=True)
class NearFullCheck:
    case: str
    bound: Fraction
    permanent: int
    holds: bool


def near_full_permanent_check(matrix) -> NearFullCheck:
    """Classify a near-full matrix's zero graph and verify the lower bound.

    The input must have at least N-2 ones in every row and column.  The zero
    graph is saturated (zeros added while keeping both-side degrees <= 2,
    which can only decrease the permanent) purely for classification; the
    bound is then checked against the exact permanent of the *input*, which
    the degree bound lets ``_rook_permanent`` compute in closed form.
    """
    rows = _rows_of(matrix)
    n = len(rows)
    if n < 4:
        raise ValueError("defined for N >= 4")
    row_deg = [row.count(0) for row in rows]
    col_deg = [sum(1 - rows[i][j] for i in range(n)) for j in range(n)]
    if max(row_deg + col_deg) > 2:
        raise ValueError("some row or column has fewer than N-2 ones")

    input_zeros = {(i + 1, j + 1) for i in range(n) for j in range(n) if rows[i][j] == 0}
    zeros = set(input_zeros)
    # one pass saturates: after row i's scan every column is full or already
    # zero in row i, and later scans only fill columns and other rows
    for i in range(n):
        for j in range(n):
            if row_deg[i] >= 2:
                break
            if col_deg[j] < 2 and (i + 1, j + 1) not in zeros:
                zeros.add((i + 1, j + 1))
                row_deg[i] += 1
                col_deg[j] += 1
    if all(d == 2 for d in row_deg) and all(d == 2 for d in col_deg):
        case = "two_regular"
    else:
        # Maximality forces exactly one degree-1 vertex per side, adjacent.
        ones_r = [i for i, d in enumerate(row_deg) if d == 1]
        ones_c = [j for j, d in enumerate(col_deg) if d == 1]
        if len(ones_r) != 1 or len(ones_c) != 1 or (ones_r[0] + 1, ones_c[0] + 1) not in zeros:
            raise AssertionError("saturation did not reach a recognized shape")
        case = "one_deficient"
    bound = near_full_permanent_bound(n, case)
    value = _rook_permanent(n, input_zeros)
    return NearFullCheck(case, bound, value, Fraction(value) >= bound)


def all_ones_matrix(n: int) -> list[list[int]]:
    return [[1] * n for _ in range(n)]


def complement_of_identity(n: int) -> list[list[int]]:
    """J - I: ones everywhere off the diagonal (permanent = d_n)."""
    return [[0 if i == j else 1 for j in range(n)] for i in range(n)]


def cycle_cover_zero_matrix(parts: Sequence[int]) -> list[list[int]]:
    """Canonical matrix whose zero graph is 2-regular with given cycle parts.

    Each part k >= 2 contributes a k x k diagonal block with zeros on its
    identity and on its forward cyclic shift.
    """
    if any(k < 2 for k in parts):
        raise ValueError("cycle parts must be >= 2")
    n = sum(parts)
    rows = [[1] * n for _ in range(n)]
    offset = 0
    for k in parts:
        for i in range(k):
            rows[offset + i][offset + i] = 0
            rows[offset + i][offset + (i + 1) % k] = 0
        offset += k
    return rows
