"""Orchestrated verification suites behind the ``verify`` CLI command.

Each suite re-derives a slice of the library's guarantees from scratch and
emits one check record per claim: status ``pass``/``fail`` for decidable
claims, ``conditional`` for claims whose hypothesis could not be confirmed
at the given scale, and ``vacuous`` for parameter ranges where a bound says
nothing.  Suites are deterministic given the seed.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

from . import construct, counting, core, solvers, spread
from .io import cells_json, fraction_json

SUITES = ("counts", "spread", "approx", "solvers", "extremal", "lemma16")


def _jsonable(value):
    if isinstance(value, Fraction):
        return fraction_json(value)
    if isinstance(value, (frozenset, set)):
        return cells_json(value)
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


class _Suite:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.checks: list[dict] = []
        self._start = time.monotonic()

    def add(self, check_id: str, description: str, ok, lhs=None, rhs=None, witness=None):
        status = ok if isinstance(ok, str) else ("pass" if ok else "fail")
        self.checks.append(
            {
                "id": check_id,
                "description": description,
                "status": status,
                "lhs": _jsonable(lhs),
                "rhs": _jsonable(rhs),
                "witness": _jsonable(witness),
            }
        )

    def report(self) -> dict:
        return {
            "suite": self.name,
            "seed": self.seed,
            "elapsed_ms": int((time.monotonic() - self._start) * 1000),
            "checks": self.checks,
        }


def random_subfamily(rng: random.Random, ambient: core.Family, size: int) -> core.Family:
    members = rng.sample(list(ambient.members), size)
    return core.Family(ambient.n, tuple(members))


def suite_counts(seed: int = 0) -> dict:
    s = _Suite("counts", seed)
    rng = random.Random(seed)

    ok = True
    for n in range(0, 9):
        rec = counting.derangement_count(n)
        ie = counting.derangement_count_inclusion_exclusion(n)
        rnd = counting.round_factorial_over_e(n) if n >= 1 else rec
        enum = len(core.derangements(n)) if n >= 1 else 1
        ok = ok and rec == ie == rnd == enum
    s.add("derangement-four-way", "recurrence = inclusion-exclusion = round(n!/e) = enumeration, n <= 8", ok)

    ok = all(
        counting.derangement_count(n) == counting.derangement_count_inclusion_exclusion(n) == counting.round_factorial_over_e(n)
        for n in range(1, 41)
    )
    s.add("derangement-closed-forms", "recurrence = inclusion-exclusion = round(n!/e), n <= 40", ok)

    ok = True
    for n in range(2, 8):
        masks = core.derangements(n).cell_masks
        expected = counting.pointed_derangement_count(n)
        cells = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1) if x != y]
        ok = ok and all(masks.get(c, 0).bit_count() == expected for c in cells)
    s.add("pointed-derangement-cells", "d_{n,1} = d_{n-1}+d_{n-2} = |D_n[(x,y)]| for every off-diagonal cell, n <= 7", ok)

    ok = True
    for n in range(3, 8):
        for _ in range(20):
            rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
            ok = ok and counting.permanent_ryser(rows) == counting.permanent_brute(rows)
    s.add("ryser-vs-brute", "Gray-code Ryser equals the N!-sum oracle on random 0/1 matrices, N in 3..7", ok)

    ok = all(
        counting.permanent_ryser(counting.complement_of_identity(n)) == counting.derangement_count(n)
        for n in range(2, 10)
    )
    s.add("permanent-complement-identity", "perm(J - I) = d_N for N <= 9", ok)

    s.add(
        "permanent-trivial",
        "identity permanent is 1; all-ones permanent is N!",
        counting.permanent([[1, 0], [0, 1]], "brute") == 1
        and counting.permanent(counting.all_ones_matrix(4), "ryser") == 24,
    )

    dd = counting.double_derangement_count(4, (2, 1, 4, 3))
    s.add("double-derangement-pinned", "derangements of [4] disjoint from the double swap", dd == 4, lhs=dd, rhs=4)
    s.add(
        "double-derangement-conflict",
        "a diagonal cell in the fixed set forces the count to zero",
        counting.double_derangement_count(4, (2, 1, 4, 3), [(2, 2)]) == 0,
    )
    ok = True
    for n in range(4, 8):
        sigma = tuple(list(range(2, n + 1)) + [1])
        for cells in ([], [(1, 2)], [(1, 3), (2, 4)]):
            if any(r == c or sigma[r - 1] == c for r, c in cells):
                continue
            val = counting.double_derangement_count(n, sigma, cells)
            ok = ok and val <= counting.derangement_count(n - len(cells))
    s.add("double-derangement-monotone", "count never exceeds d_{n-|S|}, n <= 7", ok)

    menage = counting.permanent_ryser(counting.cycle_cover_zero_matrix([6]))
    bound6 = counting.near_full_permanent_bound(6, "two_regular")
    s.add(
        "near-full-bound-pinned",
        "6x6 matrix with identity+6-cycle zeros: exact permanent beats (1-2/N)^N N!",
        Fraction(menage) >= bound6,
        lhs=menage,
        rhs=bound6,
    )
    menage400 = counting.near_full_permanent_check(counting.cycle_cover_zero_matrix([400]))
    s.add(
        "near-full-threshold-400",
        "exact 400x400 menage permanent meets the two-regular bound, which exceeds N!/7.5 (exact rationals)",
        menage400.case == "two_regular"
        and menage400.holds
        and menage400.bound > Fraction(math.factorial(400) * 2, 15),
        lhs=menage400.permanent,
        rhs=menage400.bound,
    )

    ok = True
    worst = None
    for n in range(4, 11):
        for parts in _cycle_partitions(n):
            rep = counting.near_full_permanent_check(counting.cycle_cover_zero_matrix(parts))
            ok = ok and rep.case == "two_regular" and rep.holds
            if worst is None or Fraction(rep.permanent) - rep.bound < worst[0]:
                worst = (Fraction(rep.permanent) - rep.bound, parts)
    s.add(
        "near-full-two-regular-family",
        "every canonical 2-regular zero pattern satisfies the bound, N <= 10",
        ok,
        witness=str(worst[1]) if worst else None,
    )

    allones = counting.near_full_permanent_check(counting.all_ones_matrix(5))
    s.add("near-full-all-ones", "the all-ones matrix passes the saturation check trivially", allones.holds)

    equalities = []
    ok = True
    for n in range(2, 8):
        cells = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
        candidates = [()]
        candidates += [(c,) for c in cells]
        candidates += [
            tuple(sorted((a, b)))
            for a, b in itertools.combinations(cells, 2)
            if a[0] != b[0] and a[1] != b[1]
        ]
        for cand in candidates:
            if any(r == c for r, c in cand):
                continue
            cnt = counting.derangement_containment_count(n, cand)
            if cnt == 0:
                continue
            target = math.factorial(n - len(cand))
            if 3 * cnt < target:
                ok = False
            elif 3 * cnt == target:
                equalities.append((n, cand))
    s.add(
        "derangement-trace-lower-bound",
        "3|D_n(S)| >= (n-|S|)! for all nonempty-trace S with |S| <= 2, n <= 7; "
        "strict except at the listed equality witnesses",
        ok,
        witness=[f"n={n} S={list(map(list, cand))}" for n, cand in equalities],
    )

    import os
    import tempfile

    from .io import format_family, load_family, parse_family, save_family

    fam = random_subfamily(rng, core.symmetric_group(4), 7)
    ok = parse_family(format_family(fam)) == fam
    fd, path = tempfile.mkstemp(suffix=".family.txt")
    os.close(fd)
    try:
        save_family(fam, path)
        ok = ok and load_family(path) == fam
    finally:
        os.unlink(path)
    s.add("family-round-trip", "save/load and format/parse round trips preserve the family", ok)
    return s.report()


def _cycle_partitions(n: int, minimum: int = 2):
    if n == 0:
        yield ()
        return
    for first in range(minimum, n + 1):
        if n - first == 0 or n - first >= first:
            for rest in _cycle_partitions(n - first, first):
                yield (first,) + rest


def suite_spread(seed: int = 0) -> dict:
    s = _Suite("spread", seed)
    rng = random.Random(seed)

    for n in (3, 4):
        value, _ = spread.exact_spreadness(core.symmetric_group(n))
        target = math.factorial(n) ** (1.0 / n)
        s.add(
            f"exact-spreadness-sigma{n}",
            f"exhaustive spreadness of the full family equals (n!)^(1/n), n={n}",
            abs(value - target) <= 1e-9 * target,
            lhs=value,
            rhs=target,
        )

    sigma3 = core.symmetric_group(3)
    s.add("r-spread-below", "the full family on [3] is 1.8-spread", spread.is_r_spread(sigma3, Fraction(9, 5)).is_spread)
    rep = spread.is_r_spread(sigma3, 2)
    s.add(
        "r-spread-above",
        "the full family on [3] is not 2-spread; worst witness is a full graph",
        (not rep.is_spread) and len(rep.witness) == 3,
        witness=rep.witness,
    )
    single = core.family(3, [(2, 3, 1)])
    s.add("r-spread-singleton", "a single-member family fails every r > 1", not spread.is_r_spread(single, Fraction(11, 10)).is_spread)
    s.add("rq-spread-sigma4", "the full family on [4] is (1.2, 2)-spread", spread.is_rq_spread(core.symmetric_group(4), Fraction(6, 5), 2).is_spread)

    sigma4 = core.symmetric_group(4)
    ok = True
    for _ in range(20):
        fam = random_subfamily(rng, sigma4, rng.randint(2, 18))
        hi = rng.randint(11, 30)
        lo = rng.randint(10, hi)
        if spread.is_r_spread(fam, Fraction(hi, 10)).is_spread:
            ok = ok and spread.is_r_spread(fam, Fraction(lo, 10)).is_spread
    s.add("spread-monotone", "r-spread implies r'-spread for r' <= r (random subfamilies)", ok)

    ok = True
    for _ in range(30):
        fam = random_subfamily(rng, sigma4, rng.randint(4, 24))
        levels = [Fraction(x, 8) for x in range(8, 25)]
        passing = [r for r in levels if spread.is_r_spread(fam, r).is_spread]
        if not passing:
            continue
        r = passing[-1]
        sub = random_subfamily(rng, fam, rng.randint(1, len(fam)))
        c = Fraction(len(sub), len(fam))
        ok = ok and spread.is_r_spread(sub, c * r).is_spread
    s.add("subfamily-spread", "an (|H|/|F|) r-spread scaling survives passing to subfamilies", ok)

    ok = True
    r = Fraction(6, 5)
    for n in (3, 4):
        full = core.symmetric_group(n)
        need = int(float(r) ** n) + 1
        for _ in range(10):
            fam = random_subfamily(rng, full, rng.randint(need, len(full)))
            if spread.is_r_spread(fam, r).is_spread:
                continue  # X = empty set works: |F| > 1 members remain
            x = spread.max_ratio_set(fam, r)
            residues = core.trace(fam, x)
            ok = ok and len(residues) > 1 and spread.is_r_spread(residues, r).is_spread
    s.add("large-family-witness", "families larger than r^n admit an r-spread trace with >1 residues", ok)

    s.add("max-ratio-empty", "no cell of the full family on [3] reaches ratio 1.8", spread.max_ratio_set(sigma3, Fraction(9, 5)) == frozenset())
    star = construct.make_star(5, (1, 1))
    s.add("max-ratio-star", "the star center is the maximal ratio set at 1.25", spread.max_ratio_set(star, Fraction(5, 4)) == frozenset({(1, 1)}))
    lone = core.family(4, [(2, 1, 4, 3)])
    s.add("max-ratio-singleton", "a singleton family grows to its full graph at ratio 2", spread.max_ratio_set(lone, 2) == core.graph((2, 1, 4, 3)))

    est = spread.containment_probability(core.family(4, [(2, 1, 4, 3)]), Fraction(1, 3))
    s.add("probability-single", "one member survives with probability p^n", est.value == Fraction(1, 3) ** 4, lhs=est.value)
    est = spread.containment_probability(core.symmetric_group(2), Fraction(1, 2))
    s.add("probability-sigma2", "two disjoint members: 2p^2 - p^4", est.value == Fraction(7, 16), lhs=est.value)

    ok = True
    for i in range(3):
        fam = random_subfamily(rng, sigma4, rng.randint(2, 10))
        p = Fraction(rng.randint(2, 6), 10)
        exact = spread.containment_probability(fam, p).value
        mc = spread.containment_probability(fam, p, "monte_carlo", samples=20000, seed=seed + i)
        se = max(mc.standard_error, 1e-12)
        ok = ok and abs(mc.value - float(exact)) <= 3 * se
    s.add("probability-monte-carlo", "Monte Carlo agrees with exact values within 3 standard errors", ok)

    value = spread.spread_lemma_bound(8, 16, math.log2(16), 1)
    s.add("spread-lemma-half", "r*delta = 16 with beta = log2(2k) yields exactly 1/2", value == 0.5, lhs=value, rhs=0.5)
    s.add("spread-lemma-vacuous-edge", "r*delta = 2 is vacuous", spread.spread_lemma_bound(4, 2, 2.0, 1) is None)
    ok = True
    for n in range(3, 11):
        r = Fraction(45, 10)  # above every enumerable spreadness level
        delta = Fraction(1, 16 * max(1, math.ceil(math.log2(2 * n))))
        ok = ok and spread.spread_lemma_bound(n, r, math.log2(2 * n), delta) is None
    # the bound asserts nothing in this regime; record that rather than a pass
    s.add(
        "spread-lemma-desk-vacuous",
        "success-bound instantiations say nothing for any enumerable n",
        "vacuous" if ok else "fail",
    )
    return s.report()


def approximation_corpus(rng: random.Random) -> list[tuple[core.Family, core.Family, Fraction, int]]:
    """A seeded corpus of (family, ambient, r, q) greedy-decomposition runs."""
    cases: list[tuple[core.Family, core.Family, Fraction, int]] = []
    sigma4 = core.symmetric_group(4)
    sigma5 = core.symmetric_group(5)
    for n, ambient in ((4, sigma4), (5, sigma5)):
        for cell in ((1, 1), (2, 3)):
            cases.append((construct.make_star(n, cell), ambient, Fraction(5, 2), 4))
        cases.append((construct.make_star_union(n, [(1, 1), (1, 2)]).family, ambient, Fraction(5, 2), 4))
    for sigma in ((2, 1, 4, 3), (3, 4, 2, 1)):
        cases.append((construct.make_hm(4, sigma), sigma4, 2, 3))
    for sigma in ((3, 1, 2, 4, 5), (4, 5, 1, 2, 3)):
        cases.append((construct.make_hm_star_union(5, 3, sigma), sigma5, Fraction(5, 2), 3))
    for _ in range(4):
        cases.append((random_subfamily(rng, sigma4, rng.randint(2, 20)), sigma4, Fraction(5, 2), 3))
    for _ in range(3):
        cases.append((random_subfamily(rng, sigma5, rng.randint(4, 40)), sigma5, 3, 3))
    return cases


def suite_approx(seed: int = 0) -> dict:
    s = _Suite("approx", seed)
    rng = random.Random(seed)

    star = construct.make_star(5, (1, 1))
    sigma5 = core.symmetric_group(5)
    res = spread.spread_approximate(star, sigma5, Fraction(5, 2), 4)
    traces = [core.graph(p) - frozenset({(1, 1)}) for p in res.branches[frozenset({(1, 1)})].members]
    s.add(
        "pinned-single-star",
        "one greedy step extracts the star center and empties the family",
        res.supports == (frozenset({(1, 1)}),)
        and len(res.remainder) == 0
        and len(traces) == 24
        and all(len(t) == 4 for t in traces),
        witness=[cells_json(x) for x in res.supports],
    )

    sigma3 = core.symmetric_group(3)
    res3 = spread.spread_approximate(sigma3, sigma3, 2, 3)
    s.add(
        "pinned-degenerate",
        "threshold 1 gives the single empty support and no remainder",
        res3.supports == (frozenset(),) and len(res3.remainder) == 0,
        witness=[cells_json(x) for x in res3.supports],
    )

    all_cover = True
    all_branch = True
    all_bound = True
    statuses = []
    for fam, ambient, r, q in approximation_corpus(rng):
        res = spread.spread_approximate(fam, ambient, r, q)
        chk = spread.verify_approximation(res, fam, ambient, r, q)
        all_cover = all_cover and chk.covering_ok
        all_branch = all_branch and chk.branch_traces_spread
        all_bound = all_bound and chk.remainder_status != "fail"
        statuses.append(chk.remainder_status)
        removed = fam.difference(res.remainder)
        union = set()
        disjoint = True
        for branch in res.branches.values():
            if union & set(branch.members):
                disjoint = False
            union |= set(branch.members)
        all_cover = all_cover and union == set(removed.members) and disjoint
    s.add("corpus-covering", "every extracted member contains its support; branches partition F minus F'", all_cover)
    s.add("corpus-branch-spread", "every branch trace is exactly (r/2)-spread", all_branch)
    # runs whose ambient spreadness hypothesis was unverified leave the
    # bound conditional rather than decided
    bound_status = "fail" if not all_bound else ("conditional" if "conditional" in statuses else "pass")
    s.add(
        "corpus-remainder",
        "the remainder bound holds whenever the ambient spreadness hypothesis is confirmed",
        bound_status,
        witness=sorted(set(statuses)),
    )

    fam, ambient, r, q = approximation_corpus(rng)[0]
    again = spread.spread_approximate(fam, ambient, r, q)
    once = spread.spread_approximate(fam, ambient, r, q)
    s.add(
        "determinism",
        "identical inputs produce identical decompositions",
        once.supports == again.supports
        and once.remainder == again.remainder
        and list(once.branches) == list(again.branches),
    )

    two = core.family(4, [(1, 2, 3, 4), (2, 1, 4, 3)])
    res = spread.spread_approximate(two, two, 3, 1)
    chk = spread.verify_approximation(res, two, two, 3, 1)
    s.add(
        "conditional-remainder",
        "an ambient family that is not r-spread reports the remainder bound as conditional",
        chk.remainder_status == "conditional",
        witness=chk.remainder_status,
    )

    res = spread.spread_approximate(construct.make_star_union(5, [(1, 1), (1, 2)]).family, sigma5, Fraction(5, 2), 4)
    chk = spread.verify_approximation(res, construct.make_star_union(5, [(1, 1), (1, 2)]).family, sigma5, Fraction(5, 2), 4)
    s.add(
        "measured-support-matching",
        "the support matching number is measured (or flagged degenerate), never asserted",
        chk.degenerate_empty_support or chk.nu_supports is not None,
        witness={"nu": chk.nu_supports, "degenerate": chk.degenerate_empty_support},
    )
    return s.report()


def brute_nu(sets) -> int:
    """Largest number of pairwise disjoint sets, by exhaustive DFS over frozensets."""
    frozen = [frozenset(s) for s in sets]
    best = 0

    def rec(i: int, chosen_union: frozenset, count: int):
        nonlocal best
        if count > best:
            best = count
        if count + (len(frozen) - i) <= best:
            return
        for j in range(i, len(frozen)):
            if not (frozen[j] & chosen_union):
                rec(j + 1, chosen_union | frozen[j], count + 1)

    rec(0, frozenset(), 0)
    return best


def brute_tau(fam: core.Family) -> int:
    """Covering number by trying every cell combination, smallest first."""
    cells = sorted({c for p in fam.members for c in core.graph(p)})
    for t in range(1, fam.n + 1):
        for combo in itertools.combinations(cells, t):
            cs = set(combo)
            if all(core.graph(p) & cs for p in fam.members):
                return t
    return fam.n


def suite_solvers(seed: int = 0) -> dict:
    s = _Suite("solvers", seed)
    rng = random.Random(seed)
    sigma4 = core.symmetric_group(4)

    ok_nu = True
    ok_tau = True
    for _ in range(60):
        fam = random_subfamily(rng, sigma4, rng.randint(1, 24))
        nu, wit = solvers.matching_number(fam)
        ok_nu = ok_nu and nu == brute_nu(fam.graphs()) and len(wit) == nu
        ok_nu = ok_nu and all(not core.intersects(a, b) for a, b in itertools.combinations(wit, 2))
        tau, cover = solvers.covering_number(fam)
        ok_tau = ok_tau and tau == brute_tau(fam) and len(cover) == tau
        ok_tau = ok_tau and all(core.graph(p) & set(cover) for p in fam.members)
        ok_tau = ok_tau and tau >= nu
    s.add("nu-vs-brute", "matching solver equals exhaustive search on random subfamilies", ok_nu)
    s.add("tau-vs-brute", "covering solver equals exhaustive search; tau >= nu throughout", ok_tau)

    s.add("nu-derangements-4", "nine derangements of [4] admit exactly 3 pairwise disjoint", solvers.matching_number(core.derangements(4))[0] == 3)
    s.add("nu-sigma4", "the full family on [4] has matching number 4", solvers.matching_number(sigma4)[0] == 4)
    tau3, cover3 = solvers.covering_number(core.symmetric_group(3))
    s.add("tau-sigma3", "covering the full family on [3] needs 3 cells (a full row works)", tau3 == 3, witness=cover3)
    tau_hm, cover_hm = solvers.covering_number(construct.make_hm(4, (2, 1, 4, 3)))
    s.add("tau-hm", "the pinned non-trivial family has covering number 2", tau_hm == 2 and cover_hm == ((1, 1), (1, 2)), witness=cover_hm)
    s.add("nu-empty", "the empty family has matching number 0", solvers.matching_number(core.Family(3, ())) == (0, ()))

    ok = True
    for n in range(1, 8):
        cert = solvers.coset_certificate(core.symmetric_group(n), s=n + 1)
        ok = ok and cert.class_count == math.factorial(n - 1) and cert.classes_pairwise_disjoint
        ok = ok and cert.max_load == n
    s.add("coset-partition", "the shift cosets partition all n! permutations into (n-1)! disjoint classes, n <= 7", ok)
    union = construct.make_star_union(5, [(1, 1), (1, 2)]).family
    cert = solvers.coset_certificate(union, s=3, assert_matching_bound=True)
    s.add("coset-star-union", "two disjoint stars load every coset at most twice and meet the size bound", cert.certified and cert.family_size == 48)
    s.add("coset-empty", "the empty family is trivially certified", solvers.coset_certificate(core.Family(3, ()), s=2).certified)

    f1 = construct.derangement_star(4, (1, 2))
    f2 = construct.derangement_star(4, (2, 1))
    wit = solvers.cross_matching([f1, f2])
    s.add("cross-pinned", "the pinned pointed derangement stars admit a cross pair", wit == ((2, 3, 4, 1), (4, 1, 2, 3)), witness=wit)
    same = core.family(4, [(2, 1, 4, 3)])
    s.add("cross-self", "identical singletons admit no cross pair", solvers.cross_matching([same, same]) is None)
    s.add("cross-single", "a single nonempty family yields any member", solvers.cross_matching([f1]) == ((2, 1, 4, 3),))

    ok = True
    for _ in range(20):
        fams = [random_subfamily(rng, sigma4, rng.randint(1, 8)) for _ in range(rng.randint(2, 3))]
        got = solvers.cross_matching(fams)
        brute = None
        for combo in itertools.product(*[f.members for f in fams]):
            if all(
                not core.intersects(a, b)
                for a, b in itertools.combinations(combo, 2)
            ):
                brute = combo
                break
        ok = ok and (got is None) == (brute is None)
    s.add("cross-vs-brute", "cross matching feasibility agrees with full tuple enumeration", ok)

    bases = [[frozenset({(1, 1)})], [frozenset({(2, 2)})]]
    rep = solvers.containment_implies_matching_check(bases, 2, Fraction(1, 10))
    s.add(
        "upclosed-disjoint-singletons",
        "disjoint singleton bases: hypothesis evaluated exactly, representatives found",
        rep.representatives is not None and rep.implication_held in (True, None),
        witness={"hypothesis": rep.hypothesis_met},
    )
    rep = solvers.containment_implies_matching_check(bases, 2, Fraction(49, 100))
    s.add("upclosed-vacuous", "a failed hypothesis reports the implication as vacuous", rep.hypothesis_met is False and rep.implication_held is None)
    ok = True
    for _ in range(10):
        cells = [(1, c) for c in range(1, 6)] + [(2, c) for c in range(1, 6)]
        basis1 = [frozenset({rng.choice(cells)}) for _ in range(2)]
        basis2 = [frozenset({rng.choice(cells)}) for _ in range(2)]
        p = Fraction(1, rng.randint(20, 60))
        rep = solvers.containment_implies_matching_check([basis1, basis2], 2, p)
        if rep.hypothesis_met:
            ok = ok and rep.implication_held
    s.add("upclosed-random", "the implication held on every randomized instance with a true hypothesis", ok)

    sides = solvers.support_union_bound_sides(sigma4, [frozenset({(1, 1), (2, 2)})], Fraction(1, 2), 2)
    s.add(
        "support-sides-pinned",
        "a single 2-cell support: both sides computed, non-maximality flagged",
        sides.lhs == 2 and not sides.maximal and sides.corollary_applicable,
        lhs=sides.lhs,
        rhs=sides.rhs,
    )
    sides = solvers.support_union_bound_sides(sigma4, [frozenset({(1, 1)})], Fraction(1, 2), 2)
    s.add("support-sides-trivial", "an all-singleton support family is flagged trivial", sides.trivial and not sides.corollary_applicable)
    sides = solvers.support_union_bound_sides(
        sigma4, [frozenset({(1, 1)}), frozenset({(2, 2), (3, 3)})], Fraction(1, 2), 3, r=40, q=2
    )
    s.add(
        "support-sides-boundary",
        "the l = s-2 boundary case evaluates with the soundly-rounded hypothesis",
        sides.singleton_count == 1 and sides.hypothesis_met is False,
        lhs=sides.lhs,
        rhs=sides.rhs,
    )

    slack = solvers.star_union_slack_sides(random_subfamily(rng, sigma4, 5), sigma4, 2)
    s.add("star-slack-sigma4", "the best single star in the full family on [4] covers 3! members", slack.best_union_size == 6)
    d5 = core.derangements(5)
    slack = solvers.star_union_slack_sides(random_subfamily(rng, d5, 10), d5, 3)
    s.add(
        "star-slack-derangements5",
        "the best two cells cover 2 d_{5,1} derangements (two disjoint pointed stars)",
        slack.best_union_size == 22,
        witness=slack.best_cells,
    )
    best = core.Family(4, tuple(construct.make_star(4, (1, 1)).members))
    slack = solvers.star_union_slack_sides(best, sigma4, 2)
    s.add("star-slack-tight", "taking F to be the best star leaves exactly the n^{-4}|X| slack", slack.holds and slack.lhs == slack.best_union_size)

    ok = True
    for _ in range(20):
        fam = random_subfamily(rng, sigma4, rng.randint(2, 12))
        rho = tuple(rng.sample(list(sigma4.members), 1))[0]
        pi = tuple(rng.sample(list(sigma4.members), 1))[0]
        image = construct.apply_isomorphism(rho, fam, pi)
        ok = ok and solvers.matching_number(fam)[0] == solvers.matching_number(image)[0]
        ok = ok and solvers.covering_number(fam)[0] == solvers.covering_number(image)[0]
    s.add("isomorphism-invariance", "two-sided composition preserves matching and covering numbers", ok)
    return s.report()


def suite_extremal(seed: int = 0) -> dict:
    s = _Suite("extremal", seed)
    rng = random.Random(seed)

    s.add(
        "compose-pinned",
        "composition acts right-to-left and inverts the 3-cycle",
        core.compose(core.identity(3), (2, 3, 1)) == (2, 3, 1)
        and core.compose((2, 1, 3), (2, 1, 3)) == (1, 2, 3)
        and core.compose((2, 3, 1), (3, 1, 2)) == (1, 2, 3),
    )
    s.add(
        "intersects-pinned",
        "coordinatewise equality detection on the pinned pairs",
        core.intersects((1, 2, 3), (1, 2, 3))
        and not core.intersects((2, 1, 4, 3), (3, 4, 1, 2))
        and core.intersects((1, 2, 4, 3), (2, 1, 4, 3)),
    )

    ok = True
    for a in core.symmetric_group(4).members:
        for b in core.symmetric_group(4).members:
            derangement = core.is_derangement(core.compose(a, core.inverse(b)))
            ok = ok and derangement == (not core.intersects(a, b))
    s.add("disjointness-duality", "a and b are disjoint iff a b^{-1} is a derangement (exhaustive on [4])", ok)

    ok = True
    for n in (3, 4, 5):
        fam = core.symmetric_group(n)
        cells = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
        for size in (1, 2, 3):
            for cand in itertools.combinations(cells, size):
                if not core.is_partial_permutation(cand):
                    continue
                if len(core.trace(fam, cand)) != math.factorial(n - size):
                    ok = False
    s.add("trace-formula", "|full-family trace at S| = (n-|S|)! for every partial permutation, |S| <= 3, n <= 5", ok)
    s.add(
        "trace-empty-clash",
        "a column clash forces an empty trace",
        core.trace(core.symmetric_group(3), [(1, 1), (2, 1)]) == (),
    )
    s.add("trace-identity", "the empty restriction returns the family itself", len(core.trace(core.symmetric_group(3), [])) == 6)

    ok = True
    for _ in range(20):
        fam = random_subfamily(rng, core.symmetric_group(4), rng.randint(1, 24))
        for size in (1, 2, 3):
            cells = rng.sample([(x, y) for x in range(1, 5) for y in range(1, 5)], size)
            if not core.is_partial_permutation(cells):
                continue
            ok = ok and len(core.subfamily_containing(fam, cells)) == len(core.trace(fam, cells))
    s.add("trace-subfamily-adjunction", "|F[X]| = |F(X)| on random subfamilies and restrictions", ok)

    sub = core.subfamily_containing(core.symmetric_group(3), [(1, 1)])
    s.add("subfamily-pinned", "the [3] star at (1,1) is {123, 132}", sub.members == ((1, 2, 3), (1, 3, 2)))
    s.add("subfamily-row-clash", "a row used twice selects nothing", len(core.subfamily_containing(core.symmetric_group(3), [(1, 1), (1, 2)])) == 0)

    s.add("enumerate-derangements3", "the two derangements of [3]", core.derangements(3).members == ((2, 3, 1), (3, 1, 2)))
    s.add("enumerate-sigma4", "4! permutations of [4]", len(core.symmetric_group(4)) == 24)
    dd = core.double_derangements(4, (2, 1, 4, 3))
    s.add(
        "enumerate-double-derangements",
        "double derangements match the reduced permanent",
        len(dd) == counting.double_derangement_count(4, (2, 1, 4, 3)),
        lhs=len(dd),
    )
    s.add("enumerate-degenerate", "n = 1: one permutation, no derangements", len(core.symmetric_group(1)) == 1 and len(core.derangements(1)) == 0)

    ok = True
    for n in range(2, 7):
        star = construct.make_star(n, (1, 1))
        ok = ok and len(star) == math.factorial(n - 1)
    s.add("star-size", "stars have size (n-1)! for n <= 6", ok)
    su = construct.make_star_union(5, [(1, 1), (1, 2)])
    s.add("star-union-pinned", "two same-row stars: size 48, pairwise disjoint", len(su.family) == 48 and su.pairwise_disjoint)
    s.add(
        "derangement-star-pinned",
        "the pointed derangement star of [4] has its three pinned members",
        construct.derangement_star(4, (1, 2)).members == ((2, 1, 4, 3), (2, 3, 4, 1), (2, 4, 1, 3)),
    )

    hm = construct.make_hm(4, (2, 1, 4, 3))
    s.add(
        "hm-pinned",
        "the pinned non-trivial family and its size identity",
        hm.members == ((1, 2, 4, 3), (1, 3, 4, 2), (1, 4, 2, 3), (2, 1, 4, 3))
        and len(hm) == construct.expected_hm_star_union_size(4, 2),
    )
    ok = True
    for n, sigma in ((4, (2, 1, 4, 3)), (5, (2, 1, 4, 5, 3)), (6, (2, 3, 4, 5, 6, 1))):
        fam = construct.make_hm(n, sigma)
        ok = ok and len(fam) == construct.expected_hm_star_union_size(n, 2) and sigma in fam
    s.add("hm-size-formula", "size (n-1)! - d_{n,1} + 1 and membership of sigma, n <= 6", ok)

    ok = True
    for n, q_s, sigma in ((5, 3, (3, 1, 2, 4, 5)), (5, 2, (2, 1, 4, 5, 3)), (6, 3, (3, 1, 2, 5, 6, 4))):
        fam = construct.make_hm_star_union(n, q_s, sigma)
        ok = ok and len(fam) == construct.expected_hm_star_union_size(n, q_s)
    s.add("hm-star-union-size", "size (s-1)(n-1)! - d_{n,1} + 1 across shapes", ok)
    s.add(
        "hm-star-union-reduces",
        "s = 2 reduces to the plain non-trivial family",
        construct.make_hm_star_union(4, 2, (2, 1, 4, 3)) == construct.make_hm(4, (2, 1, 4, 3)),
    )

    for q_s in (2, 3):
        union = construct.make_star_union(5, [(1, c) for c in range(1, q_s)])
        nu = solvers.matching_number(union.family)[0]
        s.add(
            f"star-union-extremal-s{q_s}",
            "star unions hit the extremal size with matching number s-1",
            len(union.family) == (q_s - 1) * 24 and nu == q_s - 1 and union.pairwise_disjoint,
        )
        dunion = construct.make_star_union(5, [(1, c + 1) for c in range(1, q_s)], derangement=True)
        nu = solvers.matching_number(dunion.family)[0]
        s.add(
            f"derangement-union-extremal-s{q_s}",
            "derangement star unions hit (s-1) d_{n,1} with matching number s-1",
            len(dunion.family) == (q_s - 1) * 11 and nu == q_s - 1,
        )
        sigma = (3, 1, 2, 4, 5) if q_s == 3 else (2, 1, 4, 5, 3)
        fam = construct.make_hm_star_union(5, q_s, sigma)
        nu = solvers.matching_number(fam)[0]
        tau = solvers.covering_number(fam)[0]
        s.add(
            f"hm-union-extremal-s{q_s}",
            "the glued family has size (s-1)(n-1)! - d_{n,1} + 1, matching s-1, covering s",
            len(fam) == construct.expected_hm_star_union_size(5, q_s) and nu == q_s - 1 and tau == q_s,
        )

    ok = True
    for _ in range(10):
        rho = tuple(rng.sample(range(1, 6), 5))
        pi = tuple(rng.sample(range(1, 6), 5))
        cell = (rng.randint(1, 5), rng.randint(1, 5))
        star = construct.make_star(5, cell)
        image = construct.apply_isomorphism(rho, star, pi)
        ok = ok and image == construct.make_star(5, construct.star_center_image(rho, cell, pi))
        ok = ok and len(image) == len(star)
    s.add("isomorphism-star-map", "stars map to stars with center (pi^{-1}(x), rho(y))", ok)
    fam = random_subfamily(rng, core.symmetric_group(4), 9)
    s.add(
        "isomorphism-identity",
        "conjugating by identities is the identity",
        construct.apply_isomorphism(core.identity(4), fam, core.identity(4)) == fam,
    )
    return s.report()


def suite_lemma16(seed: int = 0) -> dict:
    s = _Suite("lemma16", seed)
    rng = random.Random(seed)

    f1 = construct.derangement_star(4, (1, 2))
    f2 = construct.derangement_star(4, (2, 1))
    wit = solvers.cross_matching([f1, f2])
    s.add("pinned-cross-witness", "the pinned stars yield the pinned cross pair", wit == ((2, 3, 4, 1), (4, 1, 2, 3)), witness=wit)

    single = core.family(4, [(2, 1, 4, 3)])
    cls = solvers.classify_cross_free_families([single, single], [(1, 2), (2, 1)])
    s.add(
        "pinned-containment",
        "the shared double swap is covered by either star alone",
        cls.alternative == "both" and 1 in cls.containment_witnesses,
        witness=cls.containment_witnesses,
    )

    bound = (Fraction(100 * 3 - 101, 100)) * counting.pointed_derangement_count(6)
    s.add(
        "size-bound-arithmetic",
        "t = 3, n = 6: the size bound evaluates to 1.99 * 53 exactly",
        bound == Fraction(10547, 100) and Fraction(20) <= bound,
        lhs=20,
        rhs=bound,
    )

    raised = False
    try:
        solvers.classify_cross_free_families([f1, f2], [(1, 2), (2, 1)])
    except ValueError:
        raised = True
    s.add("precondition-cross", "an input with a cross matching is rejected", raised)

    ok = True
    for _ in range(40):
        n = rng.randint(4, 5)
        ders = core.derangements(n)
        t = rng.randint(2, 3)
        cells = rng.sample([(x, y) for x in range(1, n + 1) for y in range(1, n + 1) if x != y], t)
        fams = []
        for cell in cells:
            star = [p for p in ders.members if p[cell[0] - 1] == cell[1]]
            size = rng.randint(0, min(3, len(star)))
            fams.append(core.Family(n, tuple(rng.sample(star, size))))
        if all(len(f) > 0 for f in fams) and solvers.cross_matching(fams) is not None:
            continue
        cls = solvers.classify_cross_free_families(fams, cells)
        union = set()
        for f in fams:
            union |= set(f.members)
        brute_contains = []
        for j in range(t):
            others = [cells[i] for i in range(t) if i != j]
            if all(any(p[c[0] - 1] == c[1] for c in others) for p in union):
                brute_contains.append(j + 1)
        brute_size = 100 * len(union) <= (100 * t - 101) * counting.pointed_derangement_count(n)
        ok = ok and cls.containment_witnesses == tuple(brute_contains) and cls.size_holds == brute_size
    s.add("classifier-vs-brute", "classification agrees with direct enumeration on random instances", ok)
    return s.report()


_SUITE_FUNCS = {
    "counts": suite_counts,
    "spread": suite_spread,
    "approx": suite_approx,
    "solvers": suite_solvers,
    "extremal": suite_extremal,
    "lemma16": suite_lemma16,
}


def run_suite(name: str, seed: int = 0) -> dict:
    if name == "all":
        suites = [func(seed) for func in _SUITE_FUNCS.values()]
        failed = sum(1 for rep in suites for c in rep["checks"] if c["status"] == "fail")
        return {"suite": "all", "seed": seed, "suites": suites, "failed_checks": failed}
    if name not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {name!r}; pick from all, {', '.join(SUITES)}")
    return _SUITE_FUNCS[name](seed)


def report_failed(report: dict) -> int:
    if "suites" in report:
        return report["failed_checks"]
    return sum(1 for c in report["checks"] if c["status"] == "fail")
