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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (
    Cell,
    Family,
    PartialPerm,
    cell_masks,
    set_matching_number,
    sorted_cells,
    subfamily_containing,
    subfamily_containing_any,
    trace,
)

#: Exact containment probabilities refuse ground sets beyond this many cells.
EXACT_CELL_CAP = 24
#: Inclusion-exclusion over members is used up to this family size.
_IE_MEMBER_CAP = 20
#: Subset enumeration guard for exhaustive spreadness checks.
_SUBSET_BUDGET = 6_000_000


def cell_sets(obj) -> list[frozenset]:
    """Normalize a Family or an iterable of cell collections to frozensets."""
    if isinstance(obj, Family):
        return obj.graphs()
    return [frozenset(m) for m in obj]


def _distinct_trace_counts(members: Sequence[frozenset], max_size: int | None = None):
    """Counts |F(X)| for every distinct nonempty X inside some member."""
    budget = sum(2 ** len(m) for m in members)
    if budget > _SUBSET_BUDGET:
        raise ValueError("family too large for exhaustive subset enumeration")
    counts: dict[tuple, int] = {}
    for m in members:
        cells = sorted(m)
        top = len(cells) if max_size is None else min(len(cells), max_size)
        for t in range(1, top + 1):
            for sub in itertools.combinations(cells, t):
                counts[sub] = counts.get(sub, 0) + 1
    return counts


@dataclass(frozen=True)
class SpreadReport:
    is_spread: bool
    witness: tuple[Cell, ...] | None = None
    witness_ratio: Fraction | None = None  # |F(witness)| / |F|
    exact_spreadness: float | None = None

    def to_json(self) -> dict:
        from .io import cells_json, fraction_json

        return {
            "is_spread": self.is_spread,
            "witness": None if self.witness is None else cells_json(self.witness),
            "witness_ratio": fraction_json(self.witness_ratio),
            "exact_spreadness": self.exact_spreadness,
        }


def _compare_spreadness(total: int, a: tuple[int, int], b: tuple[int, int]) -> int:
    """Sign of (total/c_a)^{1/k_a} - (total/c_b)^{1/k_b} for pairs (k, c) = (|X|, |F(X)|),
    decided as total^{k_b} c_b^{k_a} against total^{k_a} c_a^{k_b} in integers."""
    (ka, ca), (kb, cb) = a, b
    lhs, rhs = total**kb * cb**ka, total**ka * ca**kb
    return (lhs > rhs) - (lhs < rhs)


def _worst_offender(counts: dict, total: int, pairs: set) -> tuple:
    """Among the X whose (|X|, |F(X)|) lies in ``pairs``, the X minimizing
    (|F|/|F(X)|)^{1/|X|}, exactly; ties go to the lexicographically least X."""
    best = min(pairs, key=functools.cmp_to_key(lambda a, b: _compare_spreadness(total, a, b)))
    tied = {pair for pair in pairs if _compare_spreadness(total, pair, best) == 0}
    return min(sub for sub, cnt in counts.items() if (len(sub), cnt) in tied)


def is_r_spread(fam, r, want_exact: bool = False) -> SpreadReport:
    """Exhaustively decide whether the family is r-spread.

    Only X contained in some member can violate (all others have empty
    trace), so those are the sets tested.  On failure the witness is the X
    minimizing (|F|/|F(X)|)^{1/|X|}, i.e. the worst offender, ranked
    exactly with ties going to the lexicographically least X.
    """
    members = cell_sets(fam)
    if not members:
        raise ValueError("spreadness is undefined for the empty family")
    r = Fraction(r)
    if r <= 0:
        raise ValueError("r must be positive")
    total = len(members)
    counts = _distinct_trace_counts(members)
    # every X of one pair (|X|, |F(X)|) has the same value and the same verdict
    pairs = set(zip(map(len, counts), counts.values()))
    exact = None
    if want_exact and counts:
        sub = _worst_offender(counts, total, pairs)
        exact = (total / counts[sub]) ** (1.0 / len(sub))
    num, den = r.numerator, r.denominator
    violating = {(k, cnt) for k, cnt in pairs if cnt * num**k > total * den**k}
    if not violating:
        return SpreadReport(True, None, None, exact)
    sub = _worst_offender(counts, total, violating)
    return SpreadReport(False, tuple(sub), Fraction(counts[sub], total), exact)


def exact_spreadness(fam) -> tuple[float, tuple[Cell, ...]]:
    """min over nonempty X of (|F|/|F(X)|)^{1/|X|}, with an argmin witness.

    The search runs over sub-sets of members only; every other X has empty
    trace and is vacuous for the definition.  The minimum is found exactly,
    ties going to the lexicographically least X, and the float value is the
    witness's own (|F|/|F(X)|)^{1/|X|}.
    """
    members = cell_sets(fam)
    if not members:
        raise ValueError("spreadness is undefined for the empty family")
    total = len(members)
    counts = _distinct_trace_counts(members)
    if not counts:
        raise ValueError("spreadness is undefined when every member is empty")
    sub = _worst_offender(counts, total, set(zip(map(len, counts), counts.values())))
    return (total / counts[sub]) ** (1.0 / len(sub)), tuple(sub)


@dataclass(frozen=True)
class RestrictedSpreadReport:
    is_spread: bool
    restriction: tuple[Cell, ...] | None = None
    inner: SpreadReport | None = None


def is_rq_spread(fam, r, q_cells: int) -> RestrictedSpreadReport:
    """(r, q)-spreadness: every trace by at most q cells is r-spread.

    Restrictions A run over the sub-partial-permutations of members (others
    trace to nothing), plus the empty restriction; q = 0 is plain
    r-spreadness.
    """
    members = cell_sets(fam)
    if not members:
        raise ValueError("spreadness is undefined for the empty family")
    if q_cells < 0:
        raise ValueError("q must be non-negative")
    restrictions = {(): None}
    for sub in _distinct_trace_counts(members, max_size=q_cells):
        restrictions[sub] = None
    for sub in sorted(restrictions, key=lambda s: (len(s), s)):
        cs = frozenset(sub)
        residues = [m - cs for m in members if cs <= m]
        if not residues:
            continue
        rep = is_r_spread(residues, r)
        if not rep.is_spread:
            return RestrictedSpreadReport(False, tuple(sub), rep)
    return RestrictedSpreadReport(True)


def max_ratio_set(fam, rho) -> PartialPerm:
    """A deterministic inclusion-maximal X with |F(X)| >= rho^{-|X|} |F|.

    The empty set always qualifies.  X grows greedily: whenever a single
    cell can be added so that the enlarged set still qualifies, the
    row-major smallest such cell is taken; when no single cell works the
    smallest qualifying multi-cell extension (minimal size, then
    lexicographic) is taken instead, so the result is maximal against
    *every* superset and its trace is therefore rho-spread.
    """
    members = cell_sets(fam)
    if not members:
        raise ValueError("max_ratio_set is undefined for the empty family")
    rho = Fraction(rho)
    if rho <= 0:
        raise ValueError("rho must be positive")
    total = len(members)
    # |F(X)| * rho^s >= |F| as |F(X)| * num^s >= |F| * den^s, one pair per size s
    scale = [(rho.numerator**s, total * rho.denominator**s) for s in range(max(map(len, members)) + 2)]

    def qualifies(mask: int, size: int) -> bool:
        num_s, bar = scale[size]
        return mask.bit_count() * num_s >= bar

    masks = fam.cell_masks if isinstance(fam, Family) else cell_masks(members)
    chosen: set = set()
    carrier = (1 << total) - 1  # bitmask of the members containing the current X
    while True:
        single = sorted(c for c, m in masks.items() if c not in chosen and qualifies(m & carrier, len(chosen) + 1))
        if single:
            chosen.add(single[0])
            carrier &= masks[single[0]]
            continue
        jump = None
        carriers = [m - chosen for m, bit in zip(members, bin(carrier)[:1:-1]) if bit == "1"]
        for t in range(2, max(map(len, carriers), default=0) + 1):
            extensions = set()
            for m in carriers:
                extensions.update(itertools.combinations(sorted(m), t))
            for ext in sorted(extensions):
                hit = carrier
                for c in ext:
                    hit &= masks[c]
                if qualifies(hit, len(chosen) + t):
                    jump = ext
                    break
            if jump:
                break
        if jump is None:
            return frozenset(chosen)
        chosen.update(jump)
        for c in jump:
            carrier &= masks[c]


@dataclass(frozen=True)
class ApproximationResult:
    """Output of the greedy spread approximation.

    ``supports`` lists the extracted sets S_i in order; ``branches`` maps
    each support to the subfamily it swallowed; ``remainder`` is the
    leftover F' (empty unless the greedy stopped on an oversized set, kept
    in ``stop_set``).  The branches partition F minus the remainder.
    """

    supports: tuple[PartialPerm, ...]
    remainder: Family
    branches: dict = field(compare=False)
    stop_set: PartialPerm | None = None

    def to_json(self, inline_limit: int = 1000, spill_dir: str | None = None) -> dict:
        from .io import cells_json, family_json

        return {
            "supports": [cells_json(sorted_cells(s)) for s in self.supports],
            "remainder": family_json(self.remainder, inline_limit, spill_dir, "remainder"),
            "branches": [
                {
                    "support": cells_json(sorted_cells(s)),
                    "family": family_json(f, inline_limit, spill_dir, f"branch{i}"),
                }
                for i, (s, f) in enumerate(self.branches.items())
            ],
            "stop_set": None if self.stop_set is None else cells_json(sorted_cells(self.stop_set)),
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
    r = Fraction(r)
    if r <= 0:
        raise ValueError("r must be positive")
    if q < 1:
        raise ValueError("q must be at least 1")
    rho = r / 2
    supports: list[PartialPerm] = []
    branches: dict[PartialPerm, Family] = {}
    current = fam
    stop_set = None
    remainder = Family(fam.n, ())
    while len(current) > 0:
        support = max_ratio_set(current, rho)
        if len(support) > q:
            stop_set = support
            remainder = current
            break
        branch = subfamily_containing(current, support)
        supports.append(support)
        branches[support] = branch
        current = current.difference(branch)
    return ApproximationResult(tuple(supports), remainder, branches, stop_set)


@dataclass(frozen=True)
class ApproximationCheck:
    covering_ok: bool
    branch_traces_spread: bool
    branch_details: tuple
    remainder_status: str  # "pass" | "conditional" | "fail"
    remainder_hypothesis_checked: bool
    remainder_bound: Fraction
    nu_supports: int | None
    degenerate_empty_support: bool

    @property
    def ok(self) -> bool:
        return self.covering_ok and self.branch_traces_spread and self.remainder_status != "fail"

    def to_json(self) -> dict:
        from .io import fraction_json

        return {
            "covering_ok": self.covering_ok,
            "branch_traces_spread": self.branch_traces_spread,
            "remainder_status": self.remainder_status,
            "remainder_hypothesis_checked": self.remainder_hypothesis_checked,
            "remainder_bound": fraction_json(self.remainder_bound),
            "nu_supports": self.nu_supports,
            "degenerate_empty_support": self.degenerate_empty_support,
        }


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
    r = Fraction(r)
    removed = fam.difference(res.remainder)
    covering_ok = len(subfamily_containing_any(removed, res.supports)) == len(removed)

    details = []
    branch_ok = True
    for support, branch in res.branches.items():
        rep = is_r_spread(trace(branch, support), r / 2)
        details.append((sorted_cells(support), rep.is_spread))
        branch_ok = branch_ok and rep.is_spread

    bound = Fraction(len(ambient), 2 ** (q + 1))
    if len(res.remainder) == 0:
        status = "pass"
        hypothesis_checked = True
    else:
        stop = res.stop_set
        trace_count = len(subfamily_containing(ambient, stop))
        hypothesis_checked = trace_count * r ** len(stop) <= len(ambient)
        if hypothesis_checked:
            status = "pass" if Fraction(len(res.remainder)) <= bound else "fail"
        else:
            status = "conditional"

    degenerate = any(len(s) == 0 for s in res.supports)
    nu = None if degenerate else set_matching_number(list(res.supports))
    return ApproximationCheck(
        covering_ok,
        branch_ok,
        tuple(details),
        status,
        hypothesis_checked,
        bound,
        nu,
        degenerate,
    )


@dataclass(frozen=True)
class ProbabilityEstimate:
    value: Fraction | float
    mode: str
    standard_error: float | None = None
    samples: int | None = None
    seed: int | None = None

    def to_json(self) -> dict:
        from .io import fraction_json

        return {
            "value": fraction_json(self.value) if isinstance(self.value, Fraction) else self.value,
            "mode": self.mode,
            "standard_error": self.standard_error,
            "samples": self.samples,
            "seed": self.seed,
        }


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
    Exact mode uses inclusion-exclusion over members (or an exhaustive scan
    of subsets of the <= 24 relevant cells for wide families) and returns a
    Fraction.  Monte Carlo mode draws each sample from a counter-based
    Philox stream keyed by the seed, so sample i is a fixed function of
    (seed, i) and any partitioning of the work reproduces identical bits.
    """
    members = [frozenset(m) for m in cell_sets(fam)]
    if not members:
        raise ValueError("containment probability needs a nonempty family")
    relevant = sorted(set().union(*members))
    pf = Fraction(p)
    if not (0 < pf < 1):
        raise ValueError("p must lie strictly between 0 and 1")
    if mode == "exact":
        if len(relevant) > EXACT_CELL_CAP:
            raise ValueError(f"exact mode capped at {EXACT_CELL_CAP} distinct cells")
        if len(members) <= _IE_MEMBER_CAP:
            value = _containment_inclusion_exclusion(members, pf)
        else:
            value = _containment_subset_scan(members, relevant, pf)
        return ProbabilityEstimate(value, "exact")
    if mode == "monte_carlo":
        if samples is None or samples < 1:
            raise ValueError("monte_carlo mode needs samples >= 1")
        if seed is None:
            raise ValueError("monte_carlo mode needs an explicit seed")
        index = {c: i for i, c in enumerate(relevant)}
        rng = np.random.Generator(np.random.Philox(key=seed))
        keep = rng.random((samples, len(relevant))) < float(pf)
        hit = np.zeros(samples, dtype=bool)
        for m in members:
            hit |= keep[:, [index[c] for c in m]].all(axis=1)
        k = int(np.count_nonzero(hit))
        est = k / samples
        se = (est * (1.0 - est) / samples) ** 0.5
        return ProbabilityEstimate(est, "monte_carlo", se, samples, seed)
    raise ValueError(f"unknown mode: {mode!r}")


def _containment_inclusion_exclusion(members: list[frozenset], p: Fraction) -> Fraction:
    total = Fraction(0)
    m = len(members)
    for size in range(1, m + 1):
        sign = 1 if size % 2 == 1 else -1
        for combo in itertools.combinations(members, size):
            union = frozenset().union(*combo)
            total += sign * p ** len(union)
    return total


def _containment_subset_scan(members, relevant, p: Fraction) -> Fraction:
    index = {c: i for i, c in enumerate(relevant)}
    k = len(relevant)
    masks = np.array([sum(1 << index[c] for c in m) for m in members], dtype=np.int32)
    grid = np.arange(1 << k, dtype=np.int32)
    hit = np.zeros(1 << k, dtype=bool)
    for m in masks:
        hit |= (grid & m) == m
    pops = np.zeros(1 << k, dtype=np.int8)
    for b in range(k):
        pops += ((grid >> b) & 1).astype(np.int8)
    counts = np.bincount(pops[hit], minlength=k + 1)
    total = Fraction(0)
    for size, cnt in enumerate(counts):
        if cnt:
            total += int(cnt) * p**size * (1 - p) ** (k - size)
    return total


def spread_lemma_bound(k: int, r, beta, delta) -> float | None:
    """The success bound 1 - (2 / log2(r*delta))^beta * k, or None if vacuous.

    Vacuous whenever r*delta <= 2 (the base is then at least 1) or when the
    value is non-positive.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    rd = Fraction(r) * Fraction(delta)
    if rd <= 2:
        return None
    value = 1.0 - (2.0 / math.log2(rd)) ** float(beta) * k
    return value if value > 0 else None
