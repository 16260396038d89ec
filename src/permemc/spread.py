"""The spreadness calculus: exact spreadness checks, maximal-ratio sets,
the greedy spread-approximation loop, and containment probabilities.

A family of cell sets F is r-spread when |F(X)| / |F| <= r^{-|X|} for every
cell set X, where F(X) is the trace (members containing X, with X removed).
All threshold comparisons here are exact: r is handled as a Fraction and the
test |F(X)| * r^{|X|} <= |F| is decided in rational arithmetic.  Irrational
spreadness values such as (n!)^{1/n} only ever appear as float *outputs*.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from typing import Sequence

from .core import (
    Cell,
    Family,
    PartialPerm,
    _cell_sets,
    _integer,
    _rational,
    _Record,
    _root,
    _selected,
    cell_masks,
    set_matching_number,
    subfamily_containing,
    subfamily_containing_any,
)
from .io import _result_json, cells_json, family_json

#: Exact containment probabilities refuse ground sets beyond this many cells.
EXACT_CELL_CAP = 24
#: The one search budget: sets one spreadness walk visits, or prefixes one
#: cell-combination search extends (``solvers._most_held``, for τ over all its
#: sizes and for the best star union), before it refuses.
_SUBSET_BUDGET = 6_000_000
_TOO_LARGE = "family too large for exhaustive subset enumeration"
_SAMPLE_BLOCK = 1 << 16  # Monte Carlo rows drawn at once, so memory stays bounded
#: The greedy's largest q: its exact remainder bound |A| / 2^(q+1) then prints
#: in at most 1,234 digits, under CPython's default limit of 4,300.
_Q_CAP = 4096


def _index(obj) -> tuple[tuple[dict, int, Family | None], int]:
    """The one index the spreadness kernels walk, (cell -> members holding
    it as bitmasks, K, the Family walked, whose members are permutations of
    [K], or None) over the members of a Family's parent (its cached
    ``cell_masks``, see ``core._root``) or of a list of cell collections,
    with K at least every member's size (n, or the longest member), and the
    bitmask of the members walked."""
    if isinstance(obj, Family):
        root, mask = _root(obj)
        return (root.cell_masks, root.n, obj), mask
    members = _cell_sets(obj)
    return (cell_masks(members), max(map(len, members), default=0), None), (1 << len(members)) - 1


def _walk(masks: dict, carrier: int, max_size: int | None = None, floor: int = 1):
    """Yields (X, the bitmask of X's carriers) for every distinct nonempty X
    of at most max_size cells of ``masks`` inside some member of F with
    |F(X)| >= floor, where F is the members in ``carrier`` (a trace by A is
    walked as the members containing A, over masks without A's cells), by a
    depth-first walk in the masks' row-major key order: X grows only by later
    cells, so each X is met once, in lexicographic order, its carriers are
    the AND of its cells' masks, and since a subset of X has as many
    carriers, a branch below the floor ends.  Nothing runs until the walk is
    iterated.  A level's branch list holds exactly the X the level yields,
    and an X gets one only while it has fewer than max_size cells; its
    length is charged as the level starts: past ``_SUBSET_BUDGET`` sets in
    one walk, the walk raises ``ValueError``."""
    charged = 0

    def walk(prefix: tuple, branches: list):
        nonlocal charged
        charged += len(branches)
        if charged > _SUBSET_BUDGET:
            raise ValueError(_TOO_LARGE)
        while branches:
            cell, carriers = branches.pop(0)
            sub = prefix + (cell,)
            yield sub, carriers
            if len(sub) != max_size:
                yield from walk(sub, [(c, both) for c, m in branches if (both := m & carriers).bit_count() >= floor])

    roots = [(c, both) for c, m in masks.items() if (both := m & carrier).bit_count() >= floor]
    return walk((), roots if max_size != 0 else [])


def _distinct_trace_counts(members: Sequence[frozenset], max_size: int | None = None, floor: int = 1):
    """{X: |F(X)|} over ``_walk`` of a list of cell sets, every member a carrier."""
    (masks, *_), carrier = _index(members)
    return {sub: carriers.bit_count() for sub, carriers in _walk(masks, carrier, max_size, floor)}


class SpreadReport(_Record):
    is_spread: bool
    witness: tuple[Cell, ...] | None = None
    witness_ratio: Fraction | None = None  # |F(witness)| / |F|
    exact_spreadness: float | None = None

    to_json = _result_json


def _compare_spreadness(total: int, a: tuple[int, int], b: tuple[int, int]) -> int:
    """Sign of (total/c_a)^{1/k_a} - (total/c_b)^{1/k_b} for pairs (k, c) = (|X|, |F(X)|),
    decided as total^{k_b} c_b^{k_a} against total^{k_a} c_a^{k_b} in integers."""
    (ka, ca), (kb, cb) = a, b
    lhs, rhs = total**kb * cb**ka, total**ka * ca**kb
    return (lhs > rhs) - (lhs < rhs)


def _worst_offender(index, carrier: int, skip=frozenset(), r: Fraction | None = None) -> tuple[tuple, int] | None:
    """(X, |F(X)|) for the X minimizing (|F|/|F(X)|)^{1/|X|}, exactly, ties
    going to the lexicographically least X, where F is the trace by A =
    ``skip`` of the members in ``carrier``; None if no X is kept.

    The walk keeps every X that ranks with the best single cell or ahead of
    it, as the worst offender does: with c that cell's count, an X of k <= K
    cells does iff |F(X)| >= c^k/|F|^(k-1) >= c^K/|F|^(K-1).  K is the
    index's bound on member sizes, less |A|; over a Family's index it is
    then cut to the largest k at which ceil(c^k/|F|^(k-1)) <= (K-k)!, since
    at most (K-k)! permutations hold A and k more cells, so every larger X
    ranks strictly behind the best single cell.  Given r, it keeps of those
    only the X that could violate r-spreadness: X of k <= K cells violates
    iff |F(X)| num^k > |F| den^k, and then X and all its subsets have
    |F(X)| > |F| (den/num)^K; for r <= 1 none violates.  So if any X
    violates, so does the worst offender, which passes both floors; if
    none does, the report reads spread either way.  A trace of exactly K!
    members of a Family is every permutation of its K free rows onto its K
    free columns, whose worst offender is a whole member, the least one:
    an X of k cells has value (K!/(K-k)!)^{1/k}, the geometric mean of
    K, ..., K-k+1, least at k = K.  It is answered without a walk.

    When the index names a Family and no cell is skipped, F is that whole
    Family (every such caller walks its full carrier): a walk at the
    c-floor alone, the walk without r, is kept in its ``__dict__`` for every
    later call on it, and one that r's floor pruned keeps nothing.  A walk
    at any r has a floor at least the c-floor and so visits no more sets: a
    call answered from the kept result would have answered anyway."""
    masks, n, fam = index
    keep = fam.__dict__ if fam is not None and not skip else None
    if keep is not None and "_worst_offender" in keep:
        return keep["_worst_offender"]
    top, total = n - len(skip), carrier.bit_count()
    if fam is not None and top and total == math.factorial(top):  # Σ_top on the free rows and columns
        free = (sorted(set(range(1, n + 1)).difference(cell[i] for cell in skip)) for i in (0, 1))
        best, exact = (tuple(zip(*free)), 1), True
    else:
        # each cell's carriers, read once for c and handed to the walk as its masks
        singles = {cell: both for cell, m in masks.items() if cell not in skip and (both := m & carrier)}
        c = max(map(int.bit_count, singles.values()), default=1)
        floor, k, most = -(-(c**top) // total ** max(top - 1, 0)), top, 1  # most = (top - k)!
        while fam is not None and floor > most:  # stops by k = 1, where floor = c <= (top - 1)!
            k -= 1
            most *= top - k
            floor = -(-(c**k) // total ** (k - 1))
        top, c_floor = k, floor
        if r is not None:
            floor = max(floor, total * r.denominator**top // r.numerator**top + 1)
        kept = {cell: m for cell, m in singles.items() if m.bit_count() >= floor}
        if floor == 1 and 2**top - 1 > _SUBSET_BUDGET:
            # at floor 1 (where the cut leaves K as it was) the walk visits every nonempty
            # subset of every carrier's kept cells, 2^k - 1 sets for a carrier with k of them
            members = range(carrier.bit_length())
            held = Counter(itertools.chain.from_iterable(_selected(members, m) for m in kept.values()))
            if 2 ** max(held.values(), default=0) - 1 > _SUBSET_BUDGET:
                raise ValueError(_TOO_LARGE)
        # every X of one pair (|X|, |F(X)|) has the same value, and the walk meets
        # X in lexicographic order, so only a pair's first X can take the lead
        best, seen = None, set()
        for sub, carriers in _walk(kept, carrier, top, floor):
            pair = (len(sub), carriers.bit_count())
            if pair not in seen:
                seen.add(pair)
                if best is None or _compare_spreadness(total, pair, (len(best[0]), best[1])) < 0:
                    best = (sub, pair[1])
        exact = floor == c_floor
    if keep is not None and exact:
        keep["_worst_offender"] = best
    return best


def _spread_report(index, carrier: int, skip, r, want_exact: bool = False) -> SpreadReport:
    """``is_r_spread`` of the trace of the carrier by ``skip``."""
    if not carrier:
        raise ValueError("spreadness is undefined for the empty family")
    r = _rational(r, "r must be positive", 0)
    worst = _worst_offender(index, carrier, skip, None if want_exact else r)
    if worst is None:
        return SpreadReport(True)
    sub, cnt = worst
    total = carrier.bit_count()
    exact = (total / cnt) ** (1.0 / len(sub)) if want_exact else None
    if cnt * r.numerator ** len(sub) <= total * r.denominator ** len(sub):
        return SpreadReport(True, None, None, exact)
    return SpreadReport(False, sub, Fraction(cnt, total), exact)


def is_r_spread(fam, r, want_exact: bool = False) -> SpreadReport:
    """Exhaustively decide whether the family is r-spread.

    Only X contained in some member can violate (all others have empty
    trace), so those are the sets tested.  On failure the witness is the X
    minimizing (|F|/|F(X)|)^{1/|X|}, i.e. the worst offender, ranked
    exactly with ties going to the lexicographically least X.

    A Family keeps its exact walk's result, which this call reads; its own
    walk is kept only when r's floor did not prune it (``_worst_offender``).
    """
    return _spread_report(*_index(fam), frozenset(), r, want_exact)


def exact_spreadness(fam) -> tuple[float, tuple[Cell, ...]]:
    """min over nonempty X of (|F|/|F(X)|)^{1/|X|}, with an argmin witness.

    The search runs over sub-sets of members only; every other X has empty
    trace and is vacuous for the definition.  The minimum is found exactly,
    ties going to the lexicographically least X, and the float value is the
    witness's own (|F|/|F(X)|)^{1/|X|}.  A Family keeps this walk's result
    for later calls on the same object (``_worst_offender``).
    """
    index, full = _index(fam)
    if not full:
        raise ValueError("spreadness is undefined for the empty family")
    worst = _worst_offender(index, full)
    if worst is None:
        raise ValueError("spreadness is undefined when every member is empty")
    sub, cnt = worst
    return (full.bit_count() / cnt) ** (1.0 / len(sub)), sub


class RestrictedSpreadReport(_Record):
    is_spread: bool
    restriction: tuple[Cell, ...] | None = None
    inner: SpreadReport | None = None

    to_json = _result_json


def is_rq_spread(fam, r, q_cells: int) -> RestrictedSpreadReport:
    """(r, q)-spreadness: every trace by at most q cells is r-spread.

    Restrictions A run over the sub-partial-permutations of members (others
    trace to nothing), plus the empty restriction; q = 0 is plain
    r-spreadness.  Each trace F(A) is walked as the members containing A in
    the family's one index, with A's cells skipped.  Only the check of
    A = {} reads or keeps a Family's exact walk, as ``is_r_spread`` does.
    """
    index, full = _index(fam)
    q_cells = _integer(q_cells, 0, "q must be non-negative")
    rep = _spread_report(index, full, frozenset(), r)  # refuses an empty family
    if not rep.is_spread:
        return RestrictedSpreadReport(False, (), rep)
    # the walk is lexicographic and the sort stable, so A runs in (size, lexicographic) order
    for sub, carrier in sorted(_walk(index[0], full, q_cells), key=lambda t: len(t[0])):
        rep = _spread_report(index, carrier, frozenset(sub), r)
        if not rep.is_spread:
            return RestrictedSpreadReport(False, sub, rep)
    return RestrictedSpreadReport(True)


def max_ratio_set(fam, rho) -> PartialPerm:
    """A deterministic inclusion-maximal X with |F(X)| >= rho^{-|X|} |F|.

    The empty set always qualifies.  X grows greedily: whenever a single
    cell can be added so that the enlarged set still qualifies, the
    row-major smallest such cell is taken; when no single cell works the
    smallest qualifying multi-cell extension (minimal size, then
    lexicographic) is taken instead, so the result is maximal against
    *every* superset and its trace is therefore rho-spread.  The extensions
    are read off ``_walk`` of the members containing X, so a jump whose walk
    visits more than ``_SUBSET_BUDGET`` sets raises ``ValueError``.  In a
    Family at most (n-|X|-j)! members hold X and j more cells, so the walk
    stops at the largest jump size j whose least count is within that bound,
    and when no size is, X is returned without a walk.
    """
    index, carrier = _index(fam)  # ``carrier`` is kept as the bitmask of the members containing X
    if not carrier:
        raise ValueError("max_ratio_set is undefined for the empty family")
    rho = _rational(rho, "rho must be positive", 0)
    (masks, top, walked), total = index, carrier.bit_count()
    # an X of s cells qualifies iff |F(X)| num^s >= |F| den^s, iff |F(X)| >= need[s]
    need = [-(-total * rho.denominator**s // rho.numerator**s) for s in range(top + 2)]
    chosen: set = set()
    while True:
        least = need[len(chosen) + 1]
        free = {c: m for c, m in masks.items() if c not in chosen}
        single = next((c for c, m in free.items() if (m & carrier).bit_count() >= least), None)
        if single is not None:
            chosen.add(single)
            carrier &= masks[single]
            continue
        # every extension with a nonempty trace lies inside some carrier, so it
        # has j <= top - |X| cells, and one of a size j that can qualify has at
        # least the least count any such size qualifies with
        s = len(chosen)
        sizes = [j for j in range(2, top - s + 1) if walked is None or need[s + j] <= math.factorial(top - s - j)]
        if not sizes:
            return frozenset(chosen)
        least = min(need[s + j] for j in sizes)
        jump = min(  # the walk is lexicographic, so the first of the least size is the least
            (
                ext
                for ext, carriers in _walk(free, carrier, sizes[-1], least)
                if len(ext) >= 2 and carriers.bit_count() >= need[s + len(ext)]
            ),
            key=len, default=None,
        )
        if jump is None:
            return frozenset(chosen)
        chosen.update(jump)
        for c in jump:
            carrier &= masks[c]


def _greedy_q(q) -> int:
    """The greedy decomposition's q: an integer from 1 to ``_Q_CAP``."""
    if (q := _integer(q, 1, "q must be at least 1")) > _Q_CAP:
        raise ValueError(f"q must be at most {_Q_CAP}")
    return q


class ApproximationResult(_Record):
    """Output of the greedy spread approximation.

    ``supports`` lists the extracted sets S_i in order; ``branches`` maps
    each support to the subfamily it swallowed; ``remainder`` is the
    leftover F' (empty unless the greedy stopped on an oversized set, kept
    in ``stop_set``).  The branches partition F minus the remainder.
    """

    supports: tuple[PartialPerm, ...]
    remainder: Family
    branches: dict
    stop_set: PartialPerm | None = None
    _uncompared = ("branches",)  # a dict, which cannot be hashed

    def to_json(self) -> dict:
        return {
            "supports": [cells_json(s) for s in self.supports],
            "remainder": family_json(self.remainder, "remainder"),
            "branches": [
                {"support": cells_json(s), "family": family_json(f, f"branch{i}")}
                for i, (s, f) in enumerate(self.branches.items())
            ],
            "stop_set": None if self.stop_set is None else cells_json(self.stop_set),
        }


def spread_approximate(fam: Family, ambient: Family, r, q: int) -> ApproximationResult:
    """Greedy decomposition of F inside the ambient family A.

    Starting from F^1 = F: at step i stop with empty remainder if F^i is
    empty; otherwise take S_i = max_ratio_set(F^i, r/2).  If |S_i| > q stop
    with remainder F^i; otherwise record the branch F^i[S_i] and continue on
    F^{i+1} = F^i minus that branch.
    """
    if not fam.issubset(ambient):
        raise ValueError("the family must be contained in the ambient family")
    r = _rational(r, "r must be positive", 0)
    q = _greedy_q(q)
    rho = r / 2
    branches: dict[PartialPerm, Family] = {}
    current = fam  # F^i and its branches are slices of F, walked over F's one index
    stop_set = None
    while len(current) > 0:
        support = max_ratio_set(current, rho)
        if len(support) > q:
            stop_set = support
            break
        branches[support] = subfamily_containing(current, support)
        current = current.difference(branches[support])
    # S_i is never repeated: F^i[S_i] is nonempty and leaves F^{i+1}
    return ApproximationResult(tuple(branches), current, branches, stop_set)


class ApproximationCheck(_Record):
    covering_ok: bool
    branch_traces_spread: bool
    remainder_status: str  # "pass" | "conditional" | "fail"
    remainder_hypothesis_checked: bool
    remainder_bound: Fraction
    nu_supports: int | None
    degenerate_empty_support: bool

    @property
    def ok(self) -> bool:
        return self.covering_ok and self.branch_traces_spread and self.remainder_status != "fail"

    to_json = _result_json


def verify_approximation(res: ApproximationResult, fam: Family, ambient: Family, r, q: int) -> ApproximationCheck:
    """Check the three guarantees of the greedy decomposition.

    (i) every member outside the remainder contains one of the supports and
    (ii) every branch trace is (r/2)-spread are asserted unconditionally:
    both hold by construction and maximality.  (iii) the remainder bound
    |F'| <= 2^{-q-1} |A| is asserted only once the ambient family's
    r-spread inequality is confirmed at the stopping set (that is the only
    place the proof uses it); otherwise it is reported "conditional".
    The matching number of the supports is measured, never asserted; a
    support list containing the empty set is reported as degenerate instead
    of being fed to the matching solver.
    """
    r = _rational(r, "r must be positive", 0)
    q = _greedy_q(q)
    removed = fam.difference(res.remainder)
    covering_ok = len(subfamily_containing_any(removed, res.supports)) == len(removed)

    branch_ok = True
    for support, branch in res.branches.items():
        # the trace F[S](S) is walked as the members of F[S] containing S, with S's cells skipped
        rep = _spread_report(*_index(subfamily_containing(branch, support)), frozenset(support), r / 2)
        branch_ok = branch_ok and rep.is_spread

    bound = Fraction(len(ambient), 2 ** (q + 1))
    # an empty remainder passes as it is; any other is held to the bound once A is r-spread at the stop set
    stop, left = res.stop_set, len(res.remainder)
    checked = not left or len(subfamily_containing(ambient, stop)) * r ** len(stop) <= len(ambient)
    status = ("pass" if left <= bound else "fail") if checked else "conditional"

    degenerate = any(len(s) == 0 for s in res.supports)
    nu = None if degenerate else set_matching_number(list(res.supports))
    return ApproximationCheck(covering_ok, branch_ok, status, checked, bound, nu, degenerate)


class ProbabilityEstimate(_Record):
    value: Fraction | float
    mode: str
    standard_error: float | None = None
    samples: int | None = None
    seed: int | None = None

    to_json = _result_json


def containment_probability(
    fam,
    p,
    mode: str = "exact",
    samples: int | None = None,
    seed: int | None = None,
) -> ProbabilityEstimate:
    """Pr[some member's cells are all kept] under p-random cell deletion.

    W keeps each cell of the ground grid independently with probability p;
    the event is that W contains the full cell set of at least one member.
    Exact mode returns a Fraction by Shannon expansion over the at most
    ``EXACT_CELL_CAP`` cells some member uses: a cell is either kept or
    deleted, each branch is solved again on the members that survive it,
    and the result is memoised.  Monte Carlo mode draws from
    ``random.Random(seed)``: the same (seed, samples) gives the same
    estimate bit for bit.  Each block of at most ``_SAMPLE_BLOCK`` samples
    draws one keep mask per relevant cell, in sorted order.
    """
    members = fam.graphs() if isinstance(fam, Family) else _cell_sets(fam)
    if not members:
        raise ValueError("containment probability needs a nonempty family")
    relevant = sorted(set().union(*members))
    pf = _rational(p, "p must lie strictly between 0 and 1", 0, 1)
    if mode == "exact":
        if len(relevant) > EXACT_CELL_CAP:
            raise ValueError(f"exact mode capped at {EXACT_CELL_CAP} distinct cells")
        return ProbabilityEstimate(_containment_exact(members, relevant, pf), "exact")
    if mode == "monte_carlo":
        samples = _integer(samples, 1, "monte_carlo mode needs samples >= 1")
        seed = _integer(seed, 0, "monte_carlo mode needs an explicit seed >= 0")
        rng = random.Random(seed)
        k = 0
        for start in range(0, samples, _SAMPLE_BLOCK):
            rows = min(_SAMPLE_BLOCK, samples - start)
            full = (1 << rows) - 1
            keep = {c: _keep_mask(rng, rows, pf) for c in relevant}
            hit = 0
            for m in members:
                row = full
                for c in m:
                    row &= keep[c]
                hit |= row
            k += hit.bit_count()
        est = k / samples
        se = (est * (1.0 - est) / samples) ** 0.5
        return ProbabilityEstimate(est, "monte_carlo", se, samples, seed)
    raise ValueError(f"unknown mode: {mode!r}")


def _keep_mask(rng: random.Random, rows: int, p: Fraction) -> int:
    """``rows`` bits, each set with probability exactly p: plane k of
    ``rng.getrandbits(rows)`` holds each row's k-th uniform binary digit,
    compared with p's k-th digit until no row is tied."""
    kept, tied, k = 0, (1 << rows) - 1, 0
    while tied:
        k += 1
        plane = rng.getrandbits(rows)
        if (p.numerator << k) // p.denominator & 1:  # p's k-th digit
            kept |= tied & ~plane
            tied &= plane
        else:
            tied &= ~plane
    return kept


def _containment_exact(members, relevant, p: Fraction) -> Fraction:
    """Pr[W contains a member] with members as bitmasks over ``relevant``.

    The pivot is the lowest cell of a member with the fewest cells: kept
    (probability p), it leaves every member less that cell; deleted, it
    leaves the members without it.  A member emptied by kept cells means
    success, no member left means failure.  Taking a smallest member's
    cell finishes that member before the next one is branched on."""
    bit = {c: 1 << i for i, c in enumerate(relevant)}
    q = 1 - p

    @functools.cache
    def rec(sets: frozenset) -> Fraction:
        if 0 in sets:
            return Fraction(1)
        if not sets:
            return Fraction(0)
        low = (pivot := min(sets, key=int.bit_count)) & -pivot
        kept = frozenset(s & ~low for s in sets)
        deleted = frozenset(s for s in sets if not s & low)
        return p * rec(kept) + q * rec(deleted)

    return rec(frozenset(sum(bit[c] for c in m) for m in members))


def _float(value, name: str) -> float:
    """``float(value)``, else ValueError naming the value."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is outside the float range") from None


def spread_lemma_bound(k: int, r, beta, delta) -> float | None:
    """The success bound 1 - (2 / log2(r*delta))^beta * k as a float output.

    None exactly when r*delta <= 2, decided in Fractions (the base is then
    at least 1).  Otherwise the float is returned as it comes out, possibly
    <= 0, and -inf past the float range: this is an output-only evaluator
    and makes no decision on it.  log2(r*delta) is taken after halving
    r*delta e times into the float range, e an integer added back (0 for
    any r*delta a float holds), so r and delta may have any size; a k or
    beta that no float holds is a ValueError.
    """
    k = _integer(k, 1, "k must be at least 1")
    rd = _rational(r, "r must be a rational number") * _rational(delta, "delta must be a rational number")
    beta = _rational(beta, "beta must be a rational number")
    if rd <= 2:
        return None
    e = max(rd.numerator.bit_length() - rd.denominator.bit_length() - 1000, 0)
    base, k, beta = 2.0 / (math.log2(rd / 2**e) + e), _float(k, "k"), _float(beta, "beta")
    try:
        return 1.0 - base**beta * k
    except OverflowError:
        return -math.inf
