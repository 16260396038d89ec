"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 4 and 6 assert the forms of their claims that hold; the
stronger forms once asserted are false, as these short proofs show:

* criterion 4 asserts 3|D_n(S)| >= (n-|S|)! for n <= 8, |S| <= 2 and every
  S with a nonempty trace, and that equality holds at exactly 11 instances:
  (n=3, S empty) and (n=5, S = {(a,b),(b,a)}) for the 10 pairs a < b.  When
  S is empty or a transposition pair, |D_n(S)| = d_m with m = n-|S|, and
  d_m/m! >= 1/3 with equality only at m = 3 (d_2/2! = 1/2, and for m >= 4
  d_m/m! lies within 1/(m+1)! of 1/e > 1/3).  So the strict form fails at
  n = 3 already and cannot be meant for all n >= 2.
* criterion 6's pinned two-star example follows the greedy rule of
  ``spread_approximate``: S_i is an inclusion-maximal X with
  |F^i(X)| rho^{|X|} >= |F^i|, rho = r/2.  On Σ_5[(1,1)] ∪ Σ_5[(1,2)]
  (48 members) at r = 5/2 every nonempty X has |F(X)| <= 24 < 48/(5/4)^{|X|}
  (the best counts are 24, 6, 2, 1, 1 for |X| = 1..5), so the only
  qualifying set is the empty one and the supports are [{}].  The star
  centres are recovered at r = 4 (rho = 2) on Σ_6[(1,1)] ∪ Σ_6[(1,2)]
  (240 members): (1,1) qualifies since 120*2 >= 240, no extension by t
  cells does since (5-t)! 2^{1+t} <= 96 < 240, and on the remaining star
  Σ_6[(1,2)] the same bound 96 < 120 stops (1,2) from growing, giving
  [{(1,1)}, {(1,2)}].
"""

import itertools
import math
import random
from fractions import Fraction


import permemc as pm
from permemc.verify import _cycle_partitions, brute_nu


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name}{suffix}"


def test_criterion_01_counting_identities():
    ok = True
    for n in range(0, 9):
        rec = pm.derangement_count(n)
        ok = ok and rec == pm.derangement_count_inclusion_exclusion(n)
        if n >= 1:
            ok = ok and rec == pm.round_factorial_over_e(n)
            ok = ok and rec == len(pm.derangements(n))
    for n in range(2, 8):
        expected = pm.derangement_count(n - 1) + pm.derangement_count(n - 2)
        ok = ok and pm.pointed_derangement_count(n) == expected
        counts = {}
        for p in pm.derangements(n).members:
            for cell in pm.graph(p):
                counts[cell] = counts.get(cell, 0) + 1
        for x in range(1, n + 1):
            for y in range(1, n + 1):
                if x != y:
                    ok = ok and counts.get((x, y), 0) == expected
    _report(1, "counting identities", ok)


def test_criterion_02_trace_formula():
    ok = True
    for n in range(2, 7):
        fam = pm.symmetric_group(n)
        cells = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
        for size in (1, 2, 3):
            if size > n:
                continue
            for restriction in itertools.combinations(cells, size):
                if not pm.is_partial_permutation(restriction):
                    continue
                if len(pm.trace(fam, restriction)) != math.factorial(n - size):
                    ok = False
    _report(2, "trace formula", ok)


def test_criterion_03_permanent_kernels():
    rng = random.Random(303)
    ok = True
    for n in range(3, 9):
        for _ in range(200):
            rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
            if pm.permanent_ryser(rows) != pm.permanent_brute(rows):
                ok = False
    for n in range(2, 11):
        ok = ok and pm.permanent_ryser(pm.complement_of_identity(n)) == pm.derangement_count(n)
    for n in range(4, 13):
        for parts in _cycle_partitions(n):
            chk = pm.near_full_permanent_check(pm.cycle_cover_zero_matrix(parts))
            ok = ok and chk.case == "two_regular"
            ok = ok and Fraction(chk.permanent) >= pm.near_full_permanent_bound(n, "two_regular")
    _report(3, "permanent kernels", ok)


def test_criterion_04_derangement_trace_strict_inequality():
    """3|D_n(S)| >= (n-|S|)! for n <= 8, |S| <= 2, strict except at the 11
    equality instances named in the module docstring; for n <= 6 the counts
    are also checked against the enumerated trace."""
    violations = []
    equalities = set()
    miscounts = []
    for n in range(2, 9):
        cells = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1) if x != y]
        candidates = [()] + [(c,) for c in cells]
        candidates += [
            tuple(sorted(pair))
            for pair in itertools.combinations(cells, 2)
            if pair[0][0] != pair[1][0] and pair[0][1] != pair[1][1]
        ]
        ders = pm.derangements(n) if n <= 6 else None
        for cand in candidates:
            count = pm.derangement_containment_count(n, cand)
            if ders is not None and count != len(pm.trace(ders, cand)):
                miscounts.append((n, cand, count))
            if count == 0:
                continue
            target = math.factorial(n - len(cand))
            if 3 * count < target:
                violations.append((n, cand, count))
            elif 3 * count == target:
                equalities.add((n, cand))
    expected = {(3, ())} | {
        (5, ((a, b), (b, a))) for a, b in itertools.combinations(range(1, 6), 2)
    }
    _report(
        4,
        "derangement trace inequality",
        not violations and not miscounts and equalities == expected,
        f"violations: {violations}; miscounts: {miscounts}; "
        f"unexpected equalities: {sorted(equalities - expected)}; "
        f"missing equalities: {sorted(expected - equalities)}",
    )


def _oracle_spreadness(n: int) -> float:
    """Independent minimizer: every partial permutation of the grid."""
    members = pm.symmetric_group(n).members
    total = len(members)
    best = None
    universe = list(range(1, n + 1))
    for k in range(1, n + 1):
        for rows in itertools.combinations(universe, k):
            for cols in itertools.permutations(universe, k):
                cells = tuple(zip(rows, cols))
                count = sum(1 for p in members if all(p[r - 1] == c for r, c in cells))
                if count == 0:
                    continue
                value = (total / count) ** (1.0 / k)
                if best is None or value < best:
                    best = value
    return best


def test_criterion_05_exact_spreadness():
    ok = True
    for n in (3, 4, 5):
        target = math.factorial(n) ** (1.0 / n)
        measured, _ = pm.exact_spreadness(pm.symmetric_group(n))
        oracle = _oracle_spreadness(n)
        ok = ok and abs(measured - target) <= 1e-9 * target
        ok = ok and abs(oracle - target) <= 1e-9 * target
        ok = ok and abs(measured - oracle) <= 1e-9 * target
    _report(5, "exact spreadness", ok)


def _approximation_corpus(rng):
    sigma4 = pm.symmetric_group(4)
    sigma5 = pm.symmetric_group(5)
    corpus = []
    for cell in ((1, 1), (2, 3), (4, 2)):
        corpus.append((pm.make_star(4, cell), sigma4, Fraction(5, 2), 3))
        corpus.append((pm.make_star(5, cell), sigma5, Fraction(5, 2), 4))
    for cells in ([(1, 1), (1, 2)], [(2, 2), (2, 5)], [(1, 1), (2, 1), (3, 1)]):
        corpus.append((pm.make_star_union(5, cells).family, sigma5, Fraction(5, 2), 4))
    corpus.append((pm.make_star_union(4, [(1, 1), (1, 2)]).family, sigma4, 2, 3))
    corpus.append((pm.make_star_union(4, [(2, 1), (3, 1)]).family, sigma4, 3, 3))
    for sigma in ((2, 1, 4, 3), (3, 4, 2, 1), (4, 3, 1, 2)):
        corpus.append((pm.make_hm(4, sigma), sigma4, 2, 3))
    for sigma in ((2, 1, 4, 5, 3), (5, 4, 3, 2, 1), (3, 1, 2, 5, 4)):
        corpus.append((pm.make_hm(5, sigma), sigma5, Fraction(5, 2), 3))
    for sigma in ((3, 1, 2, 4, 5), (4, 5, 1, 2, 3), (5, 1, 2, 3, 4)):
        corpus.append((pm.make_hm_star_union(5, 3, sigma), sigma5, Fraction(5, 2), 3))
    for _ in range(20):
        size = rng.randint(2, 24)
        fam = pm.family(4, rng.sample(list(sigma4.members), size))
        corpus.append((fam, sigma4, Fraction(rng.randint(4, 7), 2), rng.randint(2, 4)))
    for _ in range(12):
        size = rng.randint(4, 48)
        fam = pm.family(5, rng.sample(list(sigma5.members), size))
        corpus.append((fam, sigma5, Fraction(rng.randint(5, 8), 2), rng.randint(2, 4)))
    return corpus


def test_criterion_06_approximation_guarantees():
    rng = random.Random(606)
    corpus = _approximation_corpus(rng)
    assert len(corpus) >= 50
    ok = True
    for fam, ambient, r, q in corpus:
        res = pm.spread_approximate(fam, ambient, r, q)
        chk = pm.verify_approximation(res, fam, ambient, r, q)
        ok = ok and chk.covering_ok
        ok = ok and chk.branch_traces_spread
        ok = ok and chk.remainder_status in ("pass", "conditional")

    star = pm.make_star(5, (1, 1))
    res = pm.spread_approximate(star, pm.symmetric_group(5), Fraction(5, 2), 4)
    ok = ok and res.supports == (frozenset({(1, 1)}),) and len(res.remainder) == 0
    sigma3 = pm.symmetric_group(3)
    res = pm.spread_approximate(sigma3, sigma3, 2, 3)
    ok = ok and res.supports == (frozenset(),) and len(res.remainder) == 0
    _report(6, "approximation guarantees and first pinned example", ok, f"corpus size {len(corpus)}")


def test_criterion_06_pinned_two_star_supports():
    """The two-star union in Σ_5 at r = 5/2, q = 4 decomposes as [{}], which
    an enumeration of every X inside some member confirms without calling
    ``max_ratio_set``; the union in Σ_6 at r = 4, q = 4 recovers both star
    centres, [{(1,1)}, {(1,2)}] (proofs in the module docstring)."""
    union5 = pm.make_star_union(5, [(1, 1), (1, 2)]).family
    rho = Fraction(5, 4)
    graphs = [frozenset(pm.graph(p)) for p in union5.members]
    subsets = {
        frozenset(x)
        for g in graphs
        for k in range(len(g) + 1)
        for x in itertools.combinations(sorted(g), k)
    }
    qualifying = [
        x for x in subsets if sum(1 for g in graphs if x <= g) * rho ** len(x) >= len(graphs)
    ]
    res5 = pm.spread_approximate(union5, pm.symmetric_group(5), Fraction(5, 2), 4)
    ok5 = (
        qualifying == [frozenset()]
        and res5.supports == (frozenset(),)
        and len(res5.remainder) == 0
    )

    union6 = pm.make_star_union(6, [(1, 1), (1, 2)]).family
    sigma6 = pm.symmetric_group(6)
    res6 = pm.spread_approximate(union6, sigma6, 4, 4)
    chk6 = pm.verify_approximation(res6, union6, sigma6, 4, 4)
    expected6 = (frozenset({(1, 1)}), frozenset({(1, 2)}))
    ok6 = (
        res6.supports == expected6
        and len(res6.remainder) == 0
        and chk6.ok
        and chk6.nu_supports == 2
    )
    _report(
        6,
        "pinned two-star supports",
        ok5 and ok6,
        f"Σ_5 r=5/2: qualifying sets {[sorted(x) for x in qualifying]}, "
        f"greedy yields {[sorted(s) for s in res5.supports]}, expected [[]]; "
        f"Σ_6 r=4: greedy yields {[sorted(s) for s in res6.supports]}, "
        f"expected {[sorted(s) for s in expected6]}, nu_supports {chk6.nu_supports}",
    )


def test_criterion_07_solver_correctness():
    rng = random.Random(707)
    sigma4 = pm.symmetric_group(4)
    ok = True
    for _ in range(500):
        fam = pm.family(4, rng.sample(list(sigma4.members), rng.randint(1, 24)))
        nu, witness = pm.matching_number(fam)
        ok = ok and nu == brute_nu(fam.graphs())
        ok = ok and all(
            not pm.intersects(a, b) for a, b in itertools.combinations(witness, 2)
        )
    for _ in range(500):
        fam = pm.family(4, rng.sample(list(sigma4.members), rng.randint(1, 24)))
        tau, cover = pm.covering_number(fam)
        brute = None
        cells = sorted({c for p in fam.members for c in pm.graph(p)})
        for t in range(1, 5):
            if brute is not None:
                break
            for combo in itertools.combinations(cells, t):
                if all(pm.graph(p) & set(combo) for p in fam.members):
                    brute = t
                    break
        ok = ok and tau == brute
    ok = ok and pm.matching_number(pm.derangements(4))[0] == 3
    ok = ok and pm.covering_number(pm.symmetric_group(3))[0] == 3
    for n in range(1, 8):
        cert = pm.coset_certificate(pm.symmetric_group(n), s=n + 1)
        ok = ok and cert.class_count == math.factorial(n - 1)
        ok = ok and cert.classes_pairwise_disjoint
    _report(7, "solver correctness", ok)


def test_criterion_08_extremal_constructions():
    ok = True
    for s in (2, 3):
        union = pm.make_star_union(5, [(1, c) for c in range(1, s)])
        ok = ok and len(union.family) == (s - 1) * 24
        ok = ok and pm.matching_number(union.family)[0] == s - 1
        dunion = pm.make_star_union(5, [(1, c + 1) for c in range(1, s)], derangement=True)
        ok = ok and len(dunion.family) == (s - 1) * 11
        ok = ok and pm.matching_number(dunion.family)[0] == s - 1
        sigma = (3, 1, 2, 4, 5) if s == 3 else (2, 1, 4, 5, 3)
        fam = pm.make_hm_star_union(5, s, sigma)
        ok = ok and len(fam) == (s - 1) * 24 - 11 + 1
        ok = ok and pm.matching_number(fam)[0] == s - 1
        ok = ok and pm.covering_number(fam)[0] == s
    _report(8, "extremal constructions", ok)


def test_criterion_09_probability_estimator():
    rng = random.Random(909)
    ok = True
    for n in (3, 4, 5):
        p = Fraction(rng.randint(2, 8), 10)
        member = tuple(rng.sample(range(1, n + 1), n))
        est = pm.containment_probability(pm.family(n, [member]), p)
        ok = ok and est.value == p**n

    for i in range(10):
        n = rng.choice((3, 4))
        ambient = pm.symmetric_group(n)
        size = rng.randint(1, min(8, len(ambient)))
        fam = pm.family(n, rng.sample(list(ambient.members), size))
        p = Fraction(rng.randint(2, 7), 10)
        exact = pm.containment_probability(fam, p).value
        mc = pm.containment_probability(fam, p, "monte_carlo", samples=100_000, seed=9000 + i)
        se = max(mc.standard_error, 1e-9)
        ok = ok and abs(mc.value - float(exact)) <= 3 * se

    ok = ok and pm.spread_lemma_bound(8, 16, math.log2(16), 1) == 0.5
    ok = ok and abs(pm.spread_lemma_bound(6, 16, math.log2(12), 1) - 0.5) <= 1e-9
    for n in range(3, 11):
        delta = Fraction(1, 16 * max(1, math.ceil(math.log2(2 * n))))
        ok = ok and pm.spread_lemma_bound(n, Fraction(45, 10), math.log2(2 * n), delta) is None
    _report(9, "probability estimator", ok)


def test_criterion_10_cross_free_classifier():
    ok = True
    f1 = pm.derangement_star(4, (1, 2))
    f2 = pm.derangement_star(4, (2, 1))
    ok = ok and pm.cross_matching([f1, f2]) == ((2, 3, 4, 1), (4, 1, 2, 3))
    single = pm.family(4, [(2, 1, 4, 3)])
    cls = pm.classify_cross_free_families([single, single], [(1, 2), (2, 1)])
    ok = ok and cls.alternative == "both" and 1 in cls.containment_witnesses

    rng = random.Random(1010)
    done = 0
    while done < 100:
        n = rng.randint(4, 5)
        ders = pm.derangements(n)
        t = rng.randint(2, 3)
        cells = rng.sample(
            [(x, y) for x in range(1, n + 1) for y in range(1, n + 1) if x != y], t
        )
        fams = []
        for cell in cells:
            star = [p for p in ders.members if p[cell[0] - 1] == cell[1]]
            fams.append(pm.family(n, rng.sample(star, rng.randint(0, min(3, len(star))))))
        if all(len(f) > 0 for f in fams) and pm.cross_matching(fams) is not None:
            continue
        cls = pm.classify_cross_free_families(fams, cells)
        union = set()
        for f in fams:
            union |= set(f.members)
        witnesses = []
        for j in range(t):
            others = [cells[i] for i in range(t) if i != j]
            if all(any(p[c[0] - 1] == c[1] for c in others) for p in union):
                witnesses.append(j + 1)
        size_holds = 100 * len(union) <= (100 * t - 101) * pm.pointed_derangement_count(n)
        ok = ok and cls.containment_witnesses == tuple(witnesses)
        ok = ok and cls.size_holds == size_holds
        done += 1
    _report(10, "cross-free classifier", ok)
