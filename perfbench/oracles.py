"""Reference computations owned by the benchmark.

Nothing here calls permemc: these are the independent answers the
benchmark checks the program's outputs against, plus the relabelling
``F -> rho F pi`` written out by hand so that the expected relabelled
family does not come from the code under test.
"""

from __future__ import annotations

import math


def derangement_number(n: int) -> int:
    """d_n from d_n = n d_{n-1} + (-1)^n (a different recurrence from the program's)."""
    d = 1
    for m in range(1, n + 1):
        d = m * d + (-1) ** m
    return d


def subset_dp_permanent(rows) -> int:
    """Permanent by dynamic programming over used-column masks, O(2^N N)."""
    n = len(rows)
    dp = [0] * (1 << n)
    dp[0] = 1
    for mask in range(1 << n):
        value = dp[mask]
        if not value:
            continue
        i = mask.bit_count()
        if i == n:
            continue
        row = rows[i]
        for j in range(n):
            if row[j] and not (mask >> j) & 1:
                dp[mask | (1 << j)] += value
    return dp[(1 << n) - 1]


def _rook_numbers_path(edges: int) -> list[int]:
    return [math.comb(edges - k + 1, k) for k in range(edges // 2 + 2) if edges - k + 1 >= k]


def _rook_numbers_cycle(edges: int) -> list[int]:
    return [1] + [edges * math.comb(edges - k, k) // (edges - k) for k in range(1, edges // 2 + 1)]


def rook_permanent(rows) -> int:
    """Permanent of a 0/1 matrix whose zeros have at most two per row and column.

    The zero cells form a bipartite graph of maximum degree two, so it
    splits into paths and even cycles whose k-matching counts are known in
    closed form; perm = sum_k (-1)^k r_k (N-k)! (Kaplansky-Riordan).
    """
    n = len(rows)
    adj: dict[tuple, list[tuple]] = {}
    for i in range(n):
        for j in range(n):
            if not rows[i][j]:
                adj.setdefault(("r", i), []).append(("c", j))
                adj.setdefault(("c", j), []).append(("r", i))
    if any(len(v) > 2 for v in adj.values()):
        raise ValueError("rook_permanent needs at most two zeros per line")
    poly = [1]
    seen: set = set()
    for start in adj:
        if start in seen:
            continue
        stack, nodes, degree_sum = [start], 0, 0
        seen.add(start)
        while stack:
            node = stack.pop()
            nodes += 1
            degree_sum += len(adj[node])
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        edges = degree_sum // 2
        comp = _rook_numbers_cycle(edges) if edges == nodes else _rook_numbers_path(edges)
        out = [0] * (len(poly) + len(comp) - 1)
        for a, x in enumerate(poly):
            for b, y in enumerate(comp):
                out[a + b] += x * y
        poly = out
    return sum((-1) ** k * r * math.factorial(n - k) for k, r in enumerate(poly) if k <= n)


def relabel(rho, p, pi) -> tuple[int, ...]:
    """rho . p . pi as an image tuple (composition acting right to left)."""
    return tuple(rho[p[pi[i] - 1] - 1] for i in range(len(p)))


def cell_image(rho, cell, pi) -> tuple[int, int]:
    """Where the relabelling sends a cell: (x, y) -> (pi^-1(x), rho(y))."""
    x, y = cell
    return (pi.index(x) + 1, rho[y - 1])


def contains_all(p, cells) -> bool:
    return all(p[r - 1] == c for r, c in cells)


def disjoint(p, q) -> bool:
    return all(a != b for a, b in zip(p, q))
