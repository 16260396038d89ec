"""Exact matching and covering solvers plus the classification and
inequality evaluators built on them.

The matching number of a family is the size of a maximum set of pairwise
disjoint members (a maximum clique in the disjointness graph); the covering
number is the size of a minimum cell set hitting every member.  Both
solvers are exact and return canonical lexicographically-least witnesses,
so results are independent of any internal scheduling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import (
    Cell,
    DimensionMismatch,
    Family,
    Perm,
    compose,
    disjoint_masks,
    enumerate_family,
    identity,
    intersects,
    inverse,
    is_derangement,
    max_disjoint,
    set_matching_number,
    sorted_cells,
    subfamily_containing_any,
)
from .counting import pointed_derangement_count
from .spread import containment_probability

#: Rational upper bound on e; using an upper bound keeps "hypothesis met"
#: verdicts sound for inequalities of the form eps*r >= 8e(s-1)q.
E_UPPER = Fraction(27182818285, 10**10)


def matching_number(fam: Family) -> tuple[int, tuple[Perm, ...]]:
    """Exact maximum number of pairwise disjoint members, with the
    lexicographically least witness (``core.max_disjoint`` on the member
    graphs and the family's cached cell index)."""
    picks = max_disjoint(fam.graphs(), fam.cell_masks)
    return len(picks), tuple(fam.members[j] for j in picks)


def covering_number(fam: Family) -> tuple[int, tuple[Cell, ...]]:
    """Exact minimum set of cells meeting every member, with a witness.

    Candidate cells are the cells of members (a minimum cover never needs
    others).  Sizes are tried in increasing order and, within a size,
    combinations in row-major lexicographic order, so the witness returned
    is the lexicographically least minimum cover.  The search floor is a
    greedily found set of pairwise disjoint members, each of which must be
    hit by a distinct cell.
    """
    if len(fam) == 0:
        raise ValueError("covering number is undefined for the empty family")
    cell_mask = fam.cell_masks
    cells = sorted(cell_mask)
    full = (1 << len(fam)) - 1

    disjoint = disjoint_masks(fam.graphs(), cell_mask)
    lower, cand = 0, full
    while cand:  # greedy disjoint members force tau >= their number
        lower += 1
        cand &= disjoint[(cand & -cand).bit_length() - 1]

    for t in range(max(lower, 1), fam.n + 1):
        for combo in itertools.combinations(cells, t):
            covered = 0
            for c in combo:
                covered |= cell_mask[c]
                if covered == full:
                    break
            if covered == full:
                return t, combo
    raise AssertionError("a family is always covered by n cells of any member")


@dataclass(frozen=True)
class CosetCertificate:
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

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "s": self.s,
            "class_count": self.class_count,
            "max_load": self.max_load,
            "load_histogram": {str(k): v for k, v in sorted(self.load_histogram.items())},
            "classes_pairwise_disjoint": self.classes_pairwise_disjoint,
            "family_size": self.family_size,
            "bound": self.bound,
            "certified": self.certified,
        }


def _cyclic_shift(n: int) -> Perm:
    return tuple(list(range(2, n + 1)) + [1])


def coset_representative(p: Perm) -> Perm:
    """The unique member of p's left shift-coset that maps 1 to 1."""
    n = len(p)
    shift = _cyclic_shift(n)
    power = identity(n)
    k = inverse(p)[0] - 1  # p(1 + k) = 1
    for _ in range(k):
        power = compose(power, shift)
    return compose(p, power)


def coset_certificate(fam: Family, s: int, assert_matching_bound: bool = False) -> CosetCertificate:
    """Per-coset member counts of the family, with the (s-1)(n-1)! check.

    Verifies that every coset class of Σ_n is pairwise disjoint and reports
    whether each class holds at most s-1 members of the family.  When the
    caller knows the family has no s-matching, ``assert_matching_bound``
    turns an overloaded coset into an error instead of a report.
    """
    n = fam.n
    full = enumerate_family(n)  # enforces the enumeration cap
    classes: dict[Perm, list[Perm]] = {}
    for p in full.members:
        classes.setdefault(coset_representative(p), []).append(p)
    disjoint = all(
        not intersects(a, b)
        for cls in classes.values()
        for a, b in itertools.combinations(cls, 2)
    )
    loads: dict[Perm, int] = {rep: 0 for rep in classes}
    for p in fam.members:
        loads[coset_representative(p)] += 1
    max_load = max(loads.values()) if loads else 0
    histogram: dict[int, int] = {}
    for v in loads.values():
        histogram[v] = histogram.get(v, 0) + 1
    certified = max_load <= s - 1
    if assert_matching_bound and not certified:
        raise ValueError(
            f"coset with {max_load} members contradicts the assumed matching bound s={s}"
        )
    bound = (s - 1) * math.factorial(n - 1)
    return CosetCertificate(
        n,
        s,
        len(classes),
        max_load,
        histogram,
        disjoint,
        len(fam),
        bound,
        certified and len(fam) <= bound,
    )


def _disjoint_representatives(collections: Sequence[Sequence[Iterable[Cell]]]) -> list[int] | None:
    """Pairwise disjoint picks, one per collection, as positions within it.

    Collections are branched in (size, index) order and candidates in
    collection order, so the picks are the first pairwise disjoint tuple
    of ``itertools.product`` over the collections in that order.
    """
    flat = [cells for coll in collections for cells in coll]
    disjoint = disjoint_masks(flat)
    starts = list(itertools.accumulate(map(len, collections), initial=0))
    order = sorted(range(len(collections)), key=lambda i: (len(collections[i]), i))
    picks = [0] * len(collections)

    def rec(level: int, allowed: int) -> bool:
        if level == len(order):
            return True
        i = order[level]
        rest = allowed & ((1 << starts[i + 1]) - (1 << starts[i]))
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            picks[i] = j - starts[i]
            if rec(level + 1, allowed & disjoint[j]):
                return True
        return False

    return picks if rec(0, (1 << len(flat)) - 1) else None


def cross_matching(families: Sequence[Family], t: int | None = None):
    """Pairwise disjoint representatives, one per family, or None.

    Families are branched in increasing size order (stable on ties) and
    members in canonical order, so the witness is deterministic; it is
    returned aligned with the input order.
    """
    families = list(families)
    if t is None:
        t = len(families)
    if t != len(families):
        raise ValueError("t must equal the number of families")
    if not families:
        return ()
    n = families[0].n
    if any(f.n != n for f in families):
        raise DimensionMismatch("families over different [n]")
    picks = _disjoint_representatives([f.graphs() for f in families])
    if picks is None:
        return None
    return tuple(f.members[k] for f, k in zip(families, picks))


@dataclass(frozen=True)
class CrossFreeClassification:
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

    def to_json(self) -> dict:
        from .io import fraction_json

        return {
            "alternative": self.alternative,
            "details": {
                "containment_witnesses": list(self.containment_witnesses),
                "union_size": self.union_size,
                "size_bound": fraction_json(self.size_bound),
                "size_holds": self.size_holds,
            },
        }


def classify_cross_free_families(
    families: Sequence[Family], cells: Sequence[Cell]
) -> CrossFreeClassification:
    """Classify pointed derangement families without a cross matching.

    Validates that the i-th family lies inside the derangement star of the
    i-th cell, that the cells are distinct, and that no cross matching
    exists (the classification is vacuous otherwise and the precondition
    violation is an error).
    """
    families = list(families)
    cells = [tuple(c) for c in cells]
    t = len(families)
    if t != len(cells):
        raise ValueError("one cell per family is required")
    if len(set(cells)) != t:
        raise ValueError("cells must be distinct")
    if t == 0:
        raise ValueError("at least one family is required")
    n = families[0].n
    for fam, cell in zip(families, cells):
        if fam.n != n:
            raise DimensionMismatch("families over different [n]")
        x, y = cell
        if x == y:
            raise ValueError(f"cell {cell} lies on the diagonal")
        for p in fam.members:
            if not is_derangement(p) or p[x - 1] != y:
                raise ValueError(f"{p} is not a derangement through {cell}")
    nonempty = [f for f in families if len(f) > 0]
    if len(nonempty) == t and cross_matching(families) is not None:
        raise ValueError("the families contain a cross matching; nothing to classify")

    union = Family(n, tuple(p for f in families for p in f.members))
    witnesses = []
    for j in range(t):
        others = [[cells[i]] for i in range(t) if i != j]
        if len(subfamily_containing_any(union, others)) == len(union):
            witnesses.append(j + 1)
    bound = (Fraction(100 * t - 101, 100)) * pointed_derangement_count(n)
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


@dataclass(frozen=True)
class DisjointRepresentativesCheck:
    probabilities: tuple[Fraction, ...]
    threshold: Fraction
    hypothesis_met: bool
    representatives: tuple | None
    implication_held: bool | None  # None when the hypothesis is vacuous

    def to_json(self) -> dict:
        from .io import cells_json, fraction_json

        return {
            "probabilities": [fraction_json(p) for p in self.probabilities],
            "threshold": fraction_json(self.threshold),
            "hypothesis_met": self.hypothesis_met,
            "representatives": None
            if self.representatives is None
            else [cells_json(sorted_cells(a)) for a in self.representatives],
            "implication_held": self.implication_held,
        }


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
    if len(bases) != s:
        raise ValueError("exactly s upward-closed families are expected")
    frozen = [[frozenset(a) for a in basis] for basis in bases]
    ground = set()
    for basis in frozen:
        for a in basis:
            ground |= a
    if len(ground) > 24:
        raise ValueError("ground set capped at 24 cells for exact probabilities")
    pf = Fraction(p)
    probs = tuple(containment_probability(basis, pf, "exact").value for basis in frozen)
    threshold = 3 * s * pf
    hypothesis = all(q >= threshold for q in probs)
    picks = _disjoint_representatives(frozen)
    reps = None if picks is None else tuple(basis[k] for basis, k in zip(frozen, picks))
    held = (reps is not None) if hypothesis else None
    return DisjointRepresentativesCheck(probs, threshold, hypothesis, reps, held)


@dataclass(frozen=True)
class SupportBoundSides:
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

    def to_json(self) -> dict:
        from .io import fraction_json

        return {
            "trivial": self.trivial,
            "maximal": self.maximal,
            "maximality_violation": None
            if self.maximality_violation is None
            else [list(map(list, sorted_cells(x))) for x in self.maximality_violation],
            "singleton_count": self.singleton_count,
            "matching_ok": self.matching_ok,
            "lhs": self.lhs,
            "singleton_union_size": self.singleton_union_size,
            "max_star_size": self.max_star_size,
            "max_star_cell": None if self.max_star_cell is None else list(self.max_star_cell),
            "rhs": fraction_json(self.rhs),
            "holds": self.holds,
            "corollary_rhs": fraction_json(self.corollary_rhs),
            "corollary_holds": self.corollary_holds,
            "corollary_applicable": self.corollary_applicable,
            "hypothesis_met": self.hypothesis_met,
        }


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
    eps = Fraction(eps)
    sets = []
    for a in supports:
        fs = frozenset(a)
        if fs not in sets:
            sets.append(fs)
    if not sets:
        raise ValueError("the support family must be nonempty")
    singles = [a for a in sets if len(a) == 1]
    l = len(singles)
    trivial = l == len(sets)
    matching_ok = set_matching_number(sets) < s

    maximal = True
    violation = None
    for a in sets:
        subsets = itertools.chain.from_iterable(
            itertools.combinations(sorted(a), k) for k in range(len(a))
        )
        for b in subsets:
            replaced = list(dict.fromkeys([x for x in sets if x != a] + [frozenset(b)]))
            if set_matching_number(replaced) < s:
                maximal = False
                violation = (a, frozenset(b))
                break
        if not maximal:
            break

    lhs = len(subfamily_containing_any(ambient, sets))
    singleton_union = len(subfamily_containing_any(ambient, singles))
    star_counts = {c: m.bit_count() for c, m in ambient.cell_masks.items()}
    if star_counts:
        max_star = max(star_counts.values())
        max_cell = min(c for c, v in star_counts.items() if v == max_star)
    else:
        max_star, max_cell = 0, None
    rhs = singleton_union + eps * (s - 1 - l) * max_star
    cor_rhs = (s - 2 + eps) * max_star
    hypothesis = None
    if r is not None and q is not None:
        hypothesis = eps * Fraction(r) >= 8 * E_UPPER * (s - 1) * q
    return SupportBoundSides(
        trivial,
        maximal,
        violation,
        l,
        matching_ok,
        lhs,
        singleton_union,
        max_star,
        max_cell,
        rhs,
        Fraction(lhs) <= rhs,
        cor_rhs,
        Fraction(lhs) <= cor_rhs,
        not trivial,
        hypothesis,
    )


@dataclass(frozen=True)
class StarSlackSides:
    """|F| against the best (s-1)-star union in X plus the n^{-4}|X| slack."""

    best_union_size: int
    best_cells: tuple[Cell, ...]
    slack: Fraction
    lhs: int
    rhs: Fraction
    holds: bool

    def to_json(self) -> dict:
        from .io import cells_json, fraction_json

        return {
            "best_union_size": self.best_union_size,
            "best_cells": cells_json(self.best_cells),
            "slack": fraction_json(self.slack),
            "lhs": self.lhs,
            "rhs": fraction_json(self.rhs),
            "holds": self.holds,
        }


_STAR_SEARCH_BUDGET = 2_000_000


def star_union_slack_sides(fam: Family, ambient: Family, s: int) -> StarSlackSides:
    """Evaluate |F| <= |Y| + n^{-4} |X| for F inside the ambient family X.

    |Y| is the largest number of ambient members containing one of s-1
    fixed cells, found by exhaustive search over cell combinations (ties
    broken lexicographically).
    """
    if not fam.issubset(ambient):
        raise ValueError("the family must be contained in the ambient family")
    if s < 2:
        raise ValueError("s must be at least 2")
    n = ambient.n
    masks = ambient.cell_masks
    cells = sorted(masks)
    k = s - 1
    if k > len(cells):
        k = len(cells)
    if math.comb(len(cells), k) > _STAR_SEARCH_BUDGET:
        raise ValueError("cell-combination search too large; reduce s or the ambient family")
    best = -1
    best_cells: tuple[Cell, ...] = ()
    for combo in itertools.combinations(cells, k):
        covered = 0
        for c in combo:
            covered |= masks[c]
        size = covered.bit_count()
        if size > best:
            best = size
            best_cells = combo
    slack = Fraction(len(ambient), n**4)
    rhs = best + slack
    return StarSlackSides(best, best_cells, slack, len(fam), rhs, Fraction(len(fam)) <= rhs)
