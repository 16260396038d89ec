"""Exact matching and covering solvers plus the classification and
inequality evaluators built on them.

The matching number of a family is the size of a maximum set of pairwise
disjoint members (a maximum clique in the disjointness graph); the covering
number is the size of a minimum cell set hitting every member.  Both
solvers are exact and return canonical lexicographically-least witnesses,
so results are independent of any internal scheduling.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, Sequence

from . import core, counting, spread
from .core import (
    Cell,
    DimensionMismatch,
    Family,
    Perm,
    _cell,
    _cell_sets,
    _first_packing,
    _greedy_packing,
    _indexed,
    _integer,
    _max_disjoint,
    _Meets,
    _rational,
    _Record,
    is_derangement,
    subfamily_containing_any,
)
from .io import _result_json

#: Rational upper bound on e; using an upper bound keeps "hypothesis met"
#: verdicts sound for inequalities of the form eps*r >= 8e(s-1)q.
E_UPPER = Fraction(27182818285, 10**10)


def matching_number(fam: Family) -> tuple[int, tuple[Perm, ...]]:
    """Exact maximum number of pairwise disjoint members and the lexicographically
    least witness, by ``core.max_disjoint``'s searches over the cached cell
    index as ``core._indexed`` reads it.  No member cell list or N x N table
    is built: a member's cells are read off its image sequence when its meet
    mask is first needed."""
    picks = _max_disjoint(*_indexed(fam))
    return len(picks), tuple(map(tuple, map(fam._reader(), picks)))


def _most_held(fam: Family, meets: _Meets, sizes: Iterable[int], best: int) -> tuple[int, int, tuple[Cell, ...]]:
    """(k, members held, cells): the first k of ``sizes`` for which k cells of
    ``fam``'s row-major index have stars holding more than ``best`` members,
    and the first k-combination, in ``itertools.combinations`` order, that
    holds the most.  τ asks for all |F| members (``best`` = |F| − 1), the
    best star union for any (``best`` = −1); once a union holds |F| − 1,
    only a full cover beats it, so both searches reach ``meets``.

    The search is depth first.  Each prefix's frame keeps the last position
    its next pick may take, found by one scan from the last cell down: the
    members held plus the ``need`` largest counts of members not held on
    ``cells[i:]`` must beat ``best``, a sum that only falls as i grows.  When
    ``best`` rises the frames are scanned again.  While only a full cover can
    beat ``best``, two rules drop only branches holding none: the next pick
    comes no later than the last cell of the lowest member not held, and a
    frame ends when a greedy packing of the members not held (each needs a
    cell of its own) outnumbers the picks left.  The search stops once all
    members are held.  Each prefix extended, over all sizes, is charged
    against ``core._SUBSET_BUDGET``, and past it the search raises
    ``ValueError``.  The explicit stack keeps it clear of the recursion limit.
    """
    index, image, n = fam.cell_masks, fam._reader(), fam.n
    cells, masks = list(index), list(index.values())  # row-major, as the index is built
    count, full = len(fam), (1 << len(fam)) - 1

    def last_start(held: int, start: int, need: int) -> int:
        """The last position from ``start`` at which the next of ``need`` picks
        after those holding ``held`` may still beat ``best``; ``start - 1`` if none."""
        unheld, limit = full & ~held, len(cells) - need
        cover_only = unheld and best >= count - 1
        if cover_only:
            limit = min(limit, bisect.bisect_left(cells, (n, image((unheld & -unheld).bit_length() - 1)[-1])))
        want = best + 1 - held.bit_count()
        if limit < start or want <= 0:
            return limit
        largest, total = [0] * need, 0  # the ``need`` largest counts seen, and their sum
        for i in range(len(masks) - 1, start - 1, -1):
            value = (masks[i] & unheld).bit_count()
            if value > largest[0]:
                total += value - heapq.heapreplace(largest, value)
                if total >= want:
                    if cover_only and _greedy_packing(unheld, meets).bit_count() > need:
                        break
                    return min(i, limit)
        return start - 1

    extended = 0
    for k in sizes:
        found = None
        stack: list[list[int]] = []  # per pick: its position, the last position it may take, the members held before it
        held = start = 0
        while True:
            if len(stack) == k:
                if held.bit_count() > best:
                    best, found = held.bit_count(), [pick for pick, _, _ in stack]
                    if best == count:
                        break
                    for depth, frame in enumerate(stack):  # ``best`` rose, so a last position may come sooner
                        frame[1] = last_start(frame[2], frame[0] + 1, k - depth)
            else:
                stack.append([start - 1, last_start(held, start, k - len(stack)), held])
            while stack and stack[-1][0] >= stack[-1][1]:  # back up past exhausted picks
                stack.pop()
            if not stack:
                break
            extended += 1
            if extended > core._SUBSET_BUDGET:
                raise ValueError("cell-combination search too large")
            frame = stack[-1]
            frame[0] += 1
            held, start = frame[2] | masks[frame[0]], frame[0] + 1
        if found is not None:
            return k, best, tuple(cells[i] for i in found)


def covering_number(fam: Family) -> tuple[int, tuple[Cell, ...]]:
    """Exact minimum set of cells meeting every member, with a witness.

    Candidate cells are the cells of members (a minimum cover never needs
    others).  Sizes t are tried in increasing order from a floor, the
    pairwise disjoint members a greedy packing finds (each needs a cell of
    its own), each by ``_most_held`` asking for t cells holding all |F|
    members, so the witness is the lexicographically least minimum cover.
    A member's meet mask (the members it shares a cell with) is read off the
    cell index only for the members a greedy packing picks.

    >>> from permemc import symmetric_group
    >>> covering_number(symmetric_group(3))
    (3, ((1, 1), (1, 2), (1, 3)))
    """
    if len(fam) == 0:
        raise ValueError("covering number is undefined for the empty family")
    meets = _Meets(*_indexed(fam)[1:])
    floor = _greedy_packing((1 << len(fam)) - 1, meets).bit_count()
    t, _, cover = _most_held(fam, meets, range(floor, fam.n + 1), len(fam) - 1)
    return t, cover


class CosetCertificate(_Record):
    """Partition of Σ_n by left cosets of the cyclic shift group.

    Each coset consists of n pairwise disjoint permutations, so a family
    with fewer than s pairwise disjoint members meets every coset at most
    s-1 times, certifying |F| <= (s-1)(n-1)!.
    """

    n: int
    s: int
    class_count: int
    max_load: int
    load_histogram: dict
    classes_pairwise_disjoint: bool
    family_size: int
    bound: int
    certified: bool

    to_json = _result_json


def coset_representative(p: Perm) -> Perm:
    """The unique member of p's left shift-coset that maps 1 to 1.

    The coset of p is {p∘c^j} for the cyclic shift c: i -> i+1 (mod n),
    i.e. the rotations of p's image sequence, so the representative is the
    rotation that starts at the position k with p(k+1) = 1.
    """
    k = p.index(1)
    return p[k:] + p[:k]


def coset_certificate(fam: Family, s: int) -> CosetCertificate:
    """Per-coset member counts of the family, with the (s-1)(n-1)! check.

    Σ_n splits into (n-1)! cosets, one per representative fixing 1.  Two
    members p∘c^i, p∘c^j of one coset agree at a point exactly when c^{j-i}
    fixes one, and no shift power 0 < j < n has a fixed point, so every
    class is pairwise disjoint; only the family's members are visited.
    Reports whether each class holds at most s-1 members of the family.
    """
    s = _integer(s, 1, "s must be at least 1")
    n = fam.n
    class_count = math.factorial(n - 1)
    loads = Counter(map(coset_representative, fam._images()))
    max_load = max(loads.values(), default=0)
    histogram = Counter(loads.values())
    if class_count > len(loads):
        histogram[0] = class_count - len(loads)
    certified = max_load <= s - 1
    bound = (s - 1) * class_count
    # every class is pairwise disjoint, see above
    return CosetCertificate(n, s, class_count, max_load, dict(histogram), True, len(fam), bound, certified and len(fam) <= bound)


def _disjoint_representatives(collections: Sequence) -> list[int] | None:
    """Pairwise disjoint picks, one per collection (a Family or a list of
    read cell sets, as ``core._indexed`` takes them), as positions within
    it: the first pairwise disjoint tuple of ``itertools.product`` over the
    collections in (size, index) order.  ``core._first_packing`` searches
    them laid out flat in that order, each collection's index shifted to its
    offset, with one row of one mask per collection; a set's meet mask also
    holds its own collection (its number is one more index key), so the k-th
    pick lies in the k-th collection and the row bound ends a branch once
    any collection is dry.
    """
    read = [_indexed(sets) for sets in collections]
    order = sorted(range(len(read)), key=lambda i: (read[i][0], i))
    starts = list(itertools.accumulate((read[i][0] for i in order), initial=0))
    spans = [(1 << end) - (1 << start) for start, end in zip(starts, starts[1:])]
    index = dict(enumerate(spans))  # cells are pairs, so no cell is a collection number
    for i, start in zip(order, starts):
        for cell, mask in read[i][1].items():
            index[cell] = index.get(cell, 0) | mask << start
    readers = [read[i][2] for i in order]  # flat set j: set j - starts[k] of the k-th collection, plus key k
    meets = _Meets(index, lambda j: (*readers[k := bisect.bisect(starts, j) - 1](j - starts[k]), k))
    found = _first_packing((1 << starts[-1]) - 1, [(spans, 0)], meets, len(read))
    return None if found is None else [j - start for _, j, start in sorted(zip(order, found, starts))]


def cross_matching(families: Sequence[Family]):
    """Pairwise disjoint representatives, one per family, or None.

    Families are branched in increasing size order (stable on ties) and
    members in canonical order, so the witness is deterministic; it is
    returned aligned with the input order.
    """
    families = list(families)
    if not families:
        return ()
    n = families[0].n
    if any(f.n != n for f in families):
        raise DimensionMismatch("families over different [n]")
    picks = _disjoint_representatives(families)
    return None if picks is None else tuple(tuple(f._reader()(k)) for f, k in zip(families, picks))


class CrossFreeClassification(_Record):
    """Which of the two structural alternatives a cross-matching-free
    system of pointed derangement families satisfies.

    ``containment_witnesses`` lists every index j (1-based) whose star can
    be dropped with the union still covered by the remaining stars; the
    size alternative compares the union against (t - 1.01) d_{n,1} in exact
    rationals.  At small n neither may hold; the classification reports
    facts and never asserts the asymptotic disjunction.
    """

    alternative: str  # "containment" | "size" | "both" | "neither"
    containment_witnesses: tuple[int, ...]
    union_size: int
    size_bound: Fraction
    size_holds: bool


def classify_cross_free_families(
    families: Sequence[Family], cells: Sequence[Cell]
) -> CrossFreeClassification:
    """Classify pointed derangement families without a cross matching.

    Validates that the i-th family lies inside the derangement star of the
    i-th cell, that the cells are distinct, and that no cross matching
    exists (the classification is vacuous otherwise and the precondition
    violation is an error).
    """
    families, cells = list(families), list(cells)
    t = len(families)
    if t != len(cells):
        raise ValueError("one cell per family is required")
    if t == 0:
        raise ValueError("at least one family is required")
    n = families[0].n
    cells = [_cell(cell, n) for cell in cells]
    if len(set(cells)) != t:
        raise ValueError("cells must be distinct")
    for fam, (x, y) in zip(families, cells):
        if fam.n != n:
            raise DimensionMismatch("families over different [n]")
        if x == y:
            raise ValueError(f"cell {(x, y)} lies on the diagonal")
        for p in fam.members:
            if not is_derangement(p) or p[x - 1] != y:
                raise ValueError(f"{p} is not a derangement through {(x, y)}")
    if cross_matching(families) is not None:  # None whenever a family is empty
        raise ValueError("the families contain a cross matching; nothing to classify")

    union = Family(n, tuple(p for f in families for p in f.members))
    witnesses = []
    for j in range(t):
        others = [[cells[i]] for i in range(t) if i != j]
        if len(subfamily_containing_any(union, others)) == len(union):
            witnesses.append(j + 1)
    bound = (Fraction(100 * t - 101, 100)) * counting.pointed_derangement_count(n)
    size_holds = Fraction(len(union)) <= bound
    if witnesses and size_holds:
        alternative = "both"
    elif witnesses:
        alternative = "containment"
    elif size_holds:
        alternative = "size"
    else:
        alternative = "neither"
    return CrossFreeClassification(alternative, tuple(witnesses), len(union), bound, size_holds)


class DisjointRepresentativesCheck(_Record):
    probabilities: tuple[Fraction, ...]
    threshold: Fraction
    hypothesis_met: bool
    representatives: tuple | None
    implication_held: bool | None  # None when the hypothesis is vacuous


def containment_implies_matching_check(
    bases: Sequence[Sequence[Iterable[Cell]]], s: int, p
) -> DisjointRepresentativesCheck:
    """Empirical check of the rainbow-matching implication for up-closures.

    Each basis generates an upward-closed family over the ground cells; the
    hypothesis is Pr[W in H_i] >= 3 s p for each i under a p-random W.  The
    probabilities are computed exactly and a search for pairwise disjoint
    basis representatives is run; the report states whether the implication
    (hypothesis => representatives exist) held, never the converse.
    """
    s = _integer(s, 0, "s must be non-negative")
    if len(bases) != s:
        raise ValueError("exactly s upward-closed families are expected")
    frozen = [_cell_sets(basis) for basis in bases]
    ground = set().union(*(a for basis in frozen for a in basis))
    if len(ground) > spread.EXACT_CELL_CAP:
        raise ValueError(f"ground set capped at {spread.EXACT_CELL_CAP} cells for exact probabilities")
    pf = _rational(p, "p must lie strictly between 0 and 1", 0, 1)
    probs = tuple(spread.containment_probability(basis, pf, "exact").value for basis in frozen)
    threshold = 3 * s * pf
    hypothesis = all(q >= threshold for q in probs)
    picks = _disjoint_representatives(frozen)
    reps = None if picks is None else tuple(basis[k] for basis, k in zip(frozen, picks))
    held = (reps is not None) if hypothesis else None
    return DisjointRepresentativesCheck(probs, threshold, hypothesis, reps, held)


class SupportBoundSides(_Record):
    """Both sides of the star-union bounds for a non-trivial support family."""

    trivial: bool
    maximal: bool
    maximality_violation: tuple | None
    singleton_count: int
    matching_ok: bool
    lhs: int
    singleton_union_size: int
    max_star_size: int
    max_star_cell: Cell | None
    rhs: Fraction
    holds: bool
    corollary_rhs: Fraction
    corollary_holds: bool
    corollary_applicable: bool
    hypothesis_met: bool | None


def support_union_bound_sides(
    ambient: Family,
    supports: Sequence[Iterable[Cell]],
    eps,
    s: int,
    r=None,
    q: int | None = None,
) -> SupportBoundSides:
    """Evaluate both sides of the non-trivial support-union bounds.

    For a support family S with l singletons the bound reads
    |A[S]| <= |union of the singleton stars| + eps (s-1-l) max_x |A[x]|,
    and its corollary |A[S]| <= (s-2+eps) max_x |A[x]| for non-trivial S.
    Structural requirements (non-triviality; maximality: replacing any
    member by a proper subset must create an s-matching) are validated
    exactly and reported rather than raised.  This is an inequality
    evaluator, not a proof: it reports comparisons at whatever scale it is
    given.  When r and q are supplied the hypothesis eps*r >= 8e(s-1)q is
    evaluated with a rational upper bound on e, so "met" is sound.
    """
    s = _integer(s, 1, "s must be at least 1")
    eps = _rational(eps, "eps must be a rational number")
    r = None if r is None else _rational(r, "r must be a rational number")
    q = None if q is None else _integer(q, 0, "q must be non-negative")
    sets = list(dict.fromkeys(_cell_sets(supports)))  # distinct, in first-seen order
    if not sets:
        raise ValueError("the support family must be nonempty")
    singles = [a for a in sets if len(a) == 1]
    l = len(singles)
    trivial = l == len(sets)
    # ν of the supports and of each candidate made of them, indexed as read above
    matching_ok = len(_max_disjoint(*_indexed(sets))) < s
    # the first (member, proper subset) whose replacement leaves no s-matching
    violation = next(
        (
            (a, frozenset(b))
            for a in sets
            for k in range(len(a))
            for b in itertools.combinations(sorted(a), k)
            if len(_max_disjoint(*_indexed(list(dict.fromkeys([x for x in sets if x != a] + [frozenset(b)]))))) < s
        ),
        None,
    )
    maximal = violation is None

    lhs = len(subfamily_containing_any(ambient, sets))
    singleton_union = len(subfamily_containing_any(ambient, singles))
    # the largest star, ties going to the first, i.e. least, cell of the row-major index
    max_cell, star = max(ambient.cell_masks.items(), key=lambda item: item[1].bit_count(), default=(None, 0))
    max_star = star.bit_count()
    rhs = singleton_union + eps * (s - 1 - l) * max_star
    cor_rhs = (s - 2 + eps) * max_star
    hypothesis = None
    if r is not None and q is not None:
        hypothesis = eps * r >= 8 * E_UPPER * (s - 1) * q
    return SupportBoundSides(
        trivial, maximal, violation, l, matching_ok, lhs, singleton_union, max_star, max_cell,
        rhs, Fraction(lhs) <= rhs, cor_rhs, Fraction(lhs) <= cor_rhs, not trivial, hypothesis,
    )


class StarSlackSides(_Record):
    """|F| against the best (s-1)-star union in X plus the n^{-4}|X| slack."""

    best_union_size: int
    best_cells: tuple[Cell, ...]
    slack: Fraction
    lhs: int
    rhs: Fraction
    holds: bool

    to_json = _result_json


def star_union_slack_sides(fam: Family, ambient: Family, s: int) -> StarSlackSides:
    """Evaluate |F| <= |Y| + n^{-4} |X| for F inside the ambient family X.

    |Y| is the largest number of ambient members containing one of s-1
    fixed cells, the first such combination of cells in
    ``itertools.combinations`` order over the row-major cells, as
    ``_most_held`` finds it with no members to beat, so ties keep the first
    combination.  Each prefix extended is charged against
    ``core._SUBSET_BUDGET``, and a search past it raises ``ValueError``.

    >>> from permemc import symmetric_group
    >>> sides = star_union_slack_sides(symmetric_group(3), symmetric_group(3), 3)
    >>> sides.best_union_size, sides.best_cells
    (4, ((1, 1), (1, 2)))
    """
    if not fam.issubset(ambient):
        raise ValueError("the family must be contained in the ambient family")
    s = _integer(s, 2, "s must be at least 2")
    _, best, cells = _most_held(ambient, _Meets(*_indexed(ambient)[1:]), [min(s - 1, len(ambient.cell_masks))], -1)
    slack = Fraction(len(ambient), ambient.n**4)
    rhs = best + slack
    return StarSlackSides(best, cells, slack, len(fam), rhs, Fraction(len(fam)) <= rhs)
