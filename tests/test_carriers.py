"""Derived families as carrier masks over one parent index.

The spread kernels walk one ``(cell_masks, K)`` index from a
carrier bitmask, and filtered slices of a family skip re-validation and
view their parent's index.  Both are checked here against the member-list
code they replaced, kept as test-local oracles: a residue list per
restriction and a carrier list per ``max_ratio_set`` jump, each counted by
``_distinct_trace_counts`` over its own index, and a validated ``Family``
per greedy step.
"""

import random
from fractions import Fraction

import pytest

from permemc import (
    Family,
    apply_isomorphism,
    derangement_star,
    derangements,
    double_derangements,
    enumerate_family,
    exact_spreadness,
    family,
    graph,
    is_r_spread,
    is_rq_spread,
    make_hm,
    make_hm_star_union,
    make_star,
    make_star_union,
    max_ratio_set,
    spread_approximate,
    subfamily_containing,
    subfamily_containing_any,
    symmetric_group,
    verify_approximation,
)
from permemc import core
from permemc.core import _root, _slice
from permemc.io import ParseError, format_family, parse_family
from permemc.spread import ApproximationResult, _compare_spreadness, _distinct_trace_counts
from permemc.verify import random_subfamily

# -- the member-list oracles -------------------------------------------------


def _list_is_r_spread(members, r):
    """(is_spread, witness, witness_ratio) of a member list; the empty list raises."""
    if not members:
        raise ValueError("spreadness is undefined for the empty family")
    r = Fraction(r)
    total, top = len(members), max(map(len, members))
    counts = _distinct_trace_counts(members, None, total * r.denominator**top // r.numerator**top + 1)
    if not counts:
        return True, None, None
    pairs = set(zip(map(len, counts), counts.values()))
    best = pairs.pop()
    for pair in pairs:
        if _compare_spreadness(total, pair, best) < 0:
            best = pair
    sub, cnt = min((s, c) for s, c in counts.items() if _compare_spreadness(total, (len(s), c), best) == 0)
    if cnt * r.numerator ** len(sub) <= total * r.denominator ** len(sub):
        return True, None, None
    return False, sub, Fraction(cnt, total)


def _list_is_rq_spread(members, r, q):
    """(is_spread, restriction, inner) from one residue list per restriction."""
    for sub in [(), *sorted(_distinct_trace_counts(members, q), key=lambda s: (len(s), s))]:
        cs = frozenset(sub)
        inner = _list_is_r_spread([m - cs for m in members if cs <= m], r)
        if not inner[0]:
            return False, sub, inner
    return True, None, None


def _list_max_ratio_set(members, rho):
    """The greedy growth with a list of the carriers' residues per jump, each
    walked over its own ``cell_masks``; also returns the number of jumps."""
    rho = Fraction(rho)
    total = len(members)

    def qualifies(count, size):
        return count * rho.numerator**size >= total * rho.denominator**size

    chosen, taken = set(), 0
    while True:
        carriers = [m - chosen for m in members if chosen <= m]
        single = sorted(
            c for c in set().union(*carriers) if qualifies(sum(1 for m in carriers if c in m), len(chosen) + 1)
        )
        if single:
            chosen.add(single[0])
            continue
        # one of k >= 2 cells qualifies only with at least the least count any size qualifies with
        sizes = range(len(chosen) + 2, max(map(len, members)) + 2)
        least = min((-(-total * rho.denominator**s // rho.numerator**s) for s in sizes), default=1)
        jumps = [
            (len(ext), ext)
            for ext, cnt in _distinct_trace_counts(carriers, None, least).items()
            if len(ext) >= 2 and qualifies(cnt, len(chosen) + len(ext))
        ]
        if not jumps:
            return frozenset(chosen), taken
        chosen.update(min(jumps)[1])
        taken += 1


def _list_approximate(fam, r, q):
    """The greedy loop with a validated Family for every F^i and branch."""
    current, branches, stop_set, remainder = fam, {}, None, Family(fam.n, ())
    while len(current) > 0:
        support = _list_max_ratio_set(current.graphs(), Fraction(r) / 2)[0]
        if len(support) > q:
            stop_set, remainder = support, current
            break
        branch = Family(fam.n, tuple(p for p in current.members if support <= graph(p)))
        branches[support] = branch
        current = Family(fam.n, tuple(p for p in current.members if p not in branch))
    return tuple(branches), branches, remainder, stop_set


# -- inputs --------------------------------------------------------------------


def _families(rng, count):
    """Random subfamilies of Σ_4, Σ_5, Σ_6 and D_5."""
    ambients = [symmetric_group(4), symmetric_group(5), symmetric_group(6), derangements(5)]
    out = []
    for i in range(count):
        ambient = ambients[i % len(ambients)]
        out.append(random_subfamily(rng, ambient, rng.randint(1, min(len(ambient), 40))))
    return out


def _raw_lists(rng, count):
    """Raw cell-set lists of 0..6 cells, with empty and repeated members."""
    out = []
    for _ in range(count):
        sets = [frozenset((rng.randint(1, 4), rng.randint(1, 4)) for _ in range(rng.randint(0, 6))) for _ in range(rng.randint(1, 8))]
        out.append(sets + [frozenset()] * rng.randint(0, 1) + rng.sample(sets, rng.randint(0, len(sets))))
    return out


def _members(fam):
    return fam.graphs() if isinstance(fam, Family) else [frozenset(m) for m in fam]


# -- agreement ------------------------------------------------------------------


def test_is_rq_spread_matches_residue_lists():
    rng = random.Random(111)
    failed = restricted = 0
    for fam in _families(rng, 48) + _raw_lists(rng, 48):
        r, q = Fraction(rng.randint(5, 40), 10), rng.randint(0, 2)
        expected = _list_is_rq_spread(_members(fam), r, q)
        report = is_rq_spread(fam, r, q)
        inner = None if report.inner is None else (report.inner.is_spread, report.inner.witness, report.inner.witness_ratio)
        assert (report.is_spread, report.restriction, inner) == expected
        failed += not report.is_spread
        restricted += bool(report.restriction)
    assert failed <= 90 and restricted >= 5, (failed, restricted)


def test_max_ratio_set_matches_carrier_lists():
    rng = random.Random(112)
    cases = _families(rng, 60) + _raw_lists(rng, 60)
    jumps = 0
    for fam in cases:
        rho = Fraction(rng.randint(2, 12), 4)
        expected, taken = _list_max_ratio_set(_members(fam), rho)
        assert max_ratio_set(fam, rho) == expected
        jumps += taken
    assert jumps >= 10, jumps


def test_spread_approximate_matches_family_per_step_loop():
    rng = random.Random(113)
    cases = [(fam, rng.choice([2, Fraction(5, 2), 3, 4]), rng.randint(1, 4)) for fam in _families(rng, 40)]
    # two stars in Σ_6 at r = 4: a member of the first branch contains the second support
    cases += [(make_star_union(6, centers).family, 4, 4) for centers in ([(2, 2), (4, 1)], [(3, 5), (6, 6)])]
    stopped = 0
    for fam, r, q in cases:
        ambient = symmetric_group(fam.n)
        supports, branches, remainder, stop_set = _list_approximate(fam, r, q)
        res = spread_approximate(fam, ambient, r, q)
        assert res.supports == supports and res.stop_set == stop_set
        assert list(res.branches.items()) == list(branches.items())
        assert res.remainder.members == remainder.members
        stopped += stop_set is not None
        chk = verify_approximation(res, fam, ambient, r, q)
        spread_ok = all(
            _list_is_r_spread([graph(p) - s for p in b.members if s <= graph(p)], Fraction(r) / 2)[0]
            for s, b in branches.items()
        )
        assert chk.branch_traces_spread == spread_ok
        assert spread_ok and chk.covering_ok
    assert stopped >= 5, stopped


def test_empty_branch_trace_still_raises():
    # a branch none of whose members contains its support has an empty trace
    support = frozenset({(1, 1)})
    res = ApproximationResult((support,), Family(3, ()), {support: family(3, [(2, 1, 3)])})
    with pytest.raises(ValueError, match="undefined for the empty family"):
        _list_is_r_spread([], 1)
    with pytest.raises(ValueError, match="undefined for the empty family"):
        verify_approximation(res, symmetric_group(3), symmetric_group(3), 2, 1)


def test_subset_budget_is_charged_on_the_carrier_at_the_boundary(monkeypatch):
    # At rho = 2 over 8 members, (1, 1) qualifies alone (4 carriers), no cell
    # qualifies next to it (1 carrier against 8 / 2^2), and three cells do
    # (8 / 2^3).  So the jump walks the carrier of {(1, 1)} with (1, 1)
    # skipped and a floor of 1: the 2^6 - 1 nonempty subsets of the other
    # six cells of ``wide``, where the whole family has 2^7 - 1 + 4.
    wide = frozenset({(1, 1)} | {(2, c) for c in range(1, 7)})
    members = [wide] + [frozenset({(1, 1)})] * 3 + [frozenset({(3, c)}) for c in range(1, 5)]
    monkeypatch.setattr(core, "_SUBSET_BUDGET", 2**6 - 1)
    assert max_ratio_set(members, 2) == _list_max_ratio_set(members, 2)[0] == wide
    with pytest.raises(ValueError, match="too large"):
        exact_spreadness(members)
    monkeypatch.setattr(core, "_SUBSET_BUDGET", 2**6 - 2)
    for kernel in (max_ratio_set, _list_max_ratio_set):
        with pytest.raises(ValueError, match="too large"):
            kernel(members, 2)
    monkeypatch.setattr(core, "_SUBSET_BUDGET", 2**7 + 3)
    assert len(_distinct_trace_counts(members)) == 2**7 + 3
    assert exact_spreadness(members)[1] == tuple(sorted(wide))


# -- trusted construction ---------------------------------------------------------


def _assert_as_validated(fam):
    ref = Family(fam.n, fam.members)
    assert type(fam.members) is tuple and all(type(v) is int for p in fam.members for v in p)
    assert fam.members == ref.members and fam == ref and hash(fam) == hash(ref)
    assert fam.cell_masks == ref.cell_masks


def test_trusted_constructors_equal_validated_families():
    rng = random.Random(114)
    for n in range(1, 7):
        cells = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
        full = symmetric_group(n)
        built = [full, derangements(n), enumerate_family(n, "all"), enumerate_family(n, "derangements")]
        for _ in range(3):
            sigma = tuple(rng.sample(range(1, n + 1), n))
            built.append(double_derangements(n, sigma))
            built.append(apply_isomorphism(sigma, full, tuple(rng.sample(range(1, n + 1), n))))
        for cell in rng.sample(cells, min(len(cells), 4)):
            built.append(make_star(n, cell))
            if cell[0] != cell[1]:
                built.append(derangement_star(n, cell))
        for derangement in (False, True):
            centers = [c for c in rng.sample(cells, min(len(cells), 3)) if not (derangement and c[0] == c[1])]
            built.append(make_star_union(n, centers, derangement).family)
        if n >= 2:
            built.append(make_hm(n, (2,) + tuple(v for v in range(1, n + 1) if v != 2)))
        if n >= 3:
            built.append(make_hm_star_union(n, 3, (n,) + tuple(range(1, n))))
        for _ in range(4):
            a = random_subfamily(rng, full, rng.randint(0, len(full)))
            b = random_subfamily(rng, full, rng.randint(0, len(full)))
            picks = [rng.choice(cells), rng.choice(cells)]
            built += [
                apply_isomorphism(tuple(rng.sample(range(1, n + 1), n)), a, tuple(rng.sample(range(1, n + 1), n))),
                subfamily_containing(a, picks[:1]),
                subfamily_containing(a, picks),
                subfamily_containing(subfamily_containing(a, picks[:1]), picks[1:]),
                subfamily_containing_any(a, [picks[:1], picks[1:]]),
                a.difference(b),
                a.difference(subfamily_containing(a, picks[:1])),
                subfamily_containing(a, picks[:1]).difference(b),
                subfamily_containing(a, picks[:1]).difference(subfamily_containing(a, picks[1:])),
                a.restrict(b.members),
                a.union(b),
            ]
        for fam in built:
            _assert_as_validated(fam)


def test_slices_of_slices_view_the_first_parent():
    rng = random.Random(115)
    a = random_subfamily(rng, symmetric_group(5), 60)
    b = subfamily_containing(a, [(1, 2)])
    c = subfamily_containing_any(b, [[(2, 1)], [(3, 3)]])
    column = subfamily_containing(a, [(3, 3)])  # overlaps b without lying in it
    views = [b, c, b.difference(c), a.difference(c), b.difference(column)]
    expected = [
        [p for p in a if p[0] == 2],
        [p for p in a if p[0] == 2 and (p[1] == 1 or p[2] == 3)],
        [p for p in a if p[0] == 2 and p[1] != 1 and p[2] != 3],
        [p for p in a if not (p[0] == 2 and (p[1] == 1 or p[2] == 3))],
        [p for p in a if p[0] == 2 and p[2] != 3],
    ]
    for fam, members in zip(views, expected):
        assert _root(fam)[0] is a and fam.members == tuple(members) and len(fam) > 0
    # a slice of another parent is subtracted member by member
    other = b.difference(subfamily_containing(symmetric_group(5), [(2, 1)]))
    assert _root(other)[0] is other and other.members == tuple(p for p in b.members if p[1] != 1)
    for fam in views + [other]:
        _assert_as_validated(fam)
        copy = Family(fam.n, fam.members)
        for r in (1, Fraction(3, 2), 2, 3):
            assert is_r_spread(fam, r, want_exact=True) == is_r_spread(copy, r, want_exact=True)
            assert is_rq_spread(fam, r, 1) == is_rq_spread(copy, r, 1)
            assert max_ratio_set(fam, r) == max_ratio_set(copy, r)
        assert exact_spreadness(fam) == exact_spreadness(copy)


def _slice_chain(rng, fam):
    """A random chain of slices cut from ``fam`` (slices of slices, member by
    member differences with slices of another parent among them), each with
    its members found by filtering."""
    n, other = fam.n, symmetric_group(fam.n)
    grid = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]

    def holds(p, cells):
        return all(p[r - 1] == c for r, c in cells)

    chain, g, members = [], fam, list(fam.members)
    for _ in range(rng.randint(1, 5)):
        step, x = rng.randrange(4), rng.sample(grid, rng.randint(0, 2))
        if step == 0:
            g, members = subfamily_containing(g, x), [p for p in members if holds(p, x)]
        elif step == 1:
            xs = [rng.sample(grid, rng.randint(0, 2)) for _ in range(rng.randint(0, 3))]
            g, members = subfamily_containing_any(g, xs), [p for p in members if any(holds(p, y) for y in xs)]
        else:
            cut = subfamily_containing(fam if step == 2 else other, x)
            g, members = g.difference(cut), [p for p in members if not holds(p, x)]
        chain.append((g, members))
    return chain


def test_lazy_slices_agree_with_eager_families():
    # a slice lists its members only when read; every reading, each taken on
    # a fresh view, must be that of the Family built from the same members
    rng = random.Random(34)
    viewed = 0
    for fam in _families(rng, 100):
        probes = list(symmetric_group(fam.n).members)
        for g, members in _slice_chain(rng, fam):
            eager = Family(fam.n, members)
            if g._view is None:  # a difference with another parent's slice is member by member
                _assert_as_validated(g)
                continue
            viewed += 1
            root, mask = g._view

            def fresh():
                view = _slice(root, mask)
                assert "members" not in vars(view)
                return view

            view = fresh()
            assert len(view) == len(eager) and "members" not in vars(view)
            assert fresh().members == eager.members and fresh() == eager and hash(fresh()) == hash(eager)
            assert repr(fresh()) == repr(eager) and list(fresh()) == list(eager)
            view = fresh()
            assert [p in view for p in probes] == [p in eager for p in probes]
            assert fresh().cell_masks == eager.cell_masks and list(fresh().cell_masks) == list(eager.cell_masks)
            if members:
                assert exact_spreadness(fresh()) == exact_spreadness(eager)
            view = fresh()
            assert view.members is view.members  # listed once, then kept
    assert viewed >= 150, viewed


def test_decomposition_lists_no_slice_members_until_read():
    # the decompose benchmark's shapes: no timed reader of the greedy
    # decomposition and its check needs a branch's or the remainder's members
    ambient = symmetric_group(6)
    shapes = [make_star(6, (1, 1)), make_hm(6, (2, 1, 3, 4, 5, 6)), random_subfamily(random.Random(6), ambient, 60)]
    for fam in shapes:
        res = spread_approximate(fam, ambient, Fraction(5, 2), 4)
        assert verify_approximation(res, fam, ambient, Fraction(5, 2), 4).ok
        parts = [*res.branches.values(), res.remainder]
        assert all(part._view is not None and "members" not in vars(part) for part in parts)
        listed = sorted(p for part in parts for p in part.members)
        assert listed == list(fam.members) and all("members" in vars(part) for part in parts)


def test_apply_isomorphism_rejects_non_permutations():
    sigma3 = symmetric_group(3)
    with pytest.raises(ValueError, match="must be permutations"):
        apply_isomorphism((1, 1, 3), sigma3, (1, 2, 3))
    with pytest.raises(ValueError, match="must be permutations"):
        apply_isomorphism((1, 2, 3), sigma3, (1, 1, 3))
    with pytest.raises(ValueError, match="must be permutations"):
        apply_isomorphism((1, 2, 3), sigma3, (1, 2, 5))


def test_public_entry_points_still_validate():
    with pytest.raises(ValueError, match=r"not a permutation of \[3\]: \(1, 1, 3\)"):
        Family(3, ((1, 1, 3),))
    with pytest.raises(ValueError, match=r"not a permutation of \[3\]: \(1, 2\)"):
        family(3, [(1, 2)])
    with pytest.raises(ValueError, match="n must be a positive integer"):
        Family(0, ())
    # non-integers are refused, never truncated
    with pytest.raises(ValueError, match=r"not a permutation of \[3\]: \(1.5, 2, 3\)"):
        Family(3, ((1.5, 2, 3),))
    with pytest.raises(ValueError, match=r"not a permutation of \[3\]: \(1.0, 2, 3\)"):
        Family(3, ((1.0, 2, 3),))
    with pytest.raises(ValueError, match=r"not a permutation of \[3\]"):
        family(3, [("1", "2", "3")])
    with pytest.raises(ValueError, match="n must be a positive integer"):
        Family(2.5, ())
    with pytest.raises(ValueError, match="n must be a positive integer"):
        Family(3.0, ((1, 2, 3),))
    with pytest.raises(ValueError, match="n must be a positive integer"):
        Family("3", ())
    assert type(Family(True, ((1,),)).n) is int
    assert family(3, [(2, 1, 3), (1, 2, 3), (2, 1, 3)]).members == ((1, 2, 3), (2, 1, 3))
    with pytest.raises(ParseError, match=r"not a permutation of \[3\]"):
        parse_family("n=3\n1 1 3\n")
    with pytest.raises(ParseError, match="expected 3 images, got 2"):
        parse_family("n=3\n1 2\n")
    with pytest.warns(UserWarning, match="duplicate permutation ignored"):
        assert parse_family("n=3\n2 1 3\n2 1 3\n").members == ((2, 1, 3),)
    # integers in text are an optional sign and ASCII digits: no other Unicode digit, no "_"
    with pytest.raises(ParseError, match=r"<string>:2: non-integer token in '\u0661 2 3'"):
        parse_family("n=3\n\u0661 2 3\n2 1 3\n")
    with pytest.raises(ParseError, match="<string>:1: bad n value '1_0'"):
        parse_family("n=1_0\n")
    with pytest.raises(ParseError, match="non-integer token"):
        parse_family("n=3\n1 2 3_0\n")
    assert parse_family("n=+3\n +2 1 03 \n").members == ((2, 1, 3),)
    for call in (lambda: symmetric_group(2.5), lambda: make_star(3.0, (1, 1))):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            call()


def test_make_hm_round_trips_through_the_family_format():
    with pytest.raises(ValueError, match="sigma is not a permutation"):
        make_hm(4, (2.0, 1, 4, 3))  # stored as a member, 2.0 would print as "2.0"
    fam = make_hm(4, (2, 1, 4, 3))
    assert parse_family(format_family(fam)) == fam
    assert all(type(v) is int for p in fam.members for v in p)
