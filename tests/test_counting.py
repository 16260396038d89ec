"""Counting kernels: derangement numbers, permanents, and exact bounds."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from permemc import (
    ZeroOneMatrix,
    complement_of_identity,
    cycle_cover_zero_matrix,
    derangement_containment_count,
    derangement_count,
    derangement_count_inclusion_exclusion,
    derangements,
    double_derangement_count,
    double_derangements,
    graph,
    near_full_permanent_bound,
    near_full_permanent_check,
    permanent,
    permanent_brute,
    permanent_ryser,
    pointed_derangement_count,
    round_factorial_over_e,
)
from permemc import counting
from permemc.counting import (
    BRUTE_CAP,
    RYSER_CAP,
    _path_cycle_rooks,
    _rook_numbers,
    _rook_permanent,
    _rook_sum,
    all_ones_matrix,
)
from permemc.verify import _cycle_partitions

# Derangement numbers d_0..d_8, frozen from brute-force enumeration.
D_TABLE = [1, 0, 1, 2, 9, 44, 265, 1854, 14833]


def test_derangement_base_cases():
    assert derangement_count(0) == 1
    assert derangement_count(1) == 0


def test_derangement_table():
    assert [derangement_count(n) for n in range(9)] == D_TABLE


def test_derangement_negative_rejected():
    with pytest.raises(ValueError):
        derangement_count(-1)


def test_derangement_closed_forms_agree():
    for n in range(0, 301):
        rec = derangement_count(n)
        assert derangement_count_inclusion_exclusion(n) == rec
        if n >= 1:
            assert round_factorial_over_e(n) == rec


def test_derangement_enumeration_agrees():
    for n in range(1, 9):
        assert len(derangements(n)) == derangement_count(n)


def test_pointed_derangement_values():
    # d_{n,1} = d_{n-1} + d_{n-2}; 3 and 11 frozen from enumerating D_4, D_5
    assert pointed_derangement_count(3) == 1
    assert pointed_derangement_count(4) == 3
    assert pointed_derangement_count(5) == 11
    with pytest.raises(ValueError):
        pointed_derangement_count(1)


def test_pointed_derangement_cell_independent():
    for n in range(2, 8):
        counts = {}
        for p in derangements(n).members:
            for cell in graph(p):
                counts[cell] = counts.get(cell, 0) + 1
        expected = pointed_derangement_count(n)
        for x in range(1, n + 1):
            for y in range(1, n + 1):
                if x != y:
                    assert counts.get((x, y), 0) == expected


def test_permanent_identity_and_all_ones():
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert permanent(eye, "ryser") == 1
    assert permanent(eye, "brute") == 1
    for n in range(0, 13):  # n = 0 is perm([]) = 1
        assert permanent(all_ones_matrix(n), "ryser") == math.factorial(n)


def test_permanent_complement_identity_is_derangement_count():
    for n in range(0, 19):
        assert permanent_ryser(complement_of_identity(n)) == derangement_count(n)


def test_permanent_ryser_vs_brute_random():
    rng = random.Random(7)
    checked = 0
    for n in range(1, 9):
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        cases = [eye, all_ones_matrix(n)]
        for _ in range(45 if n < 8 else 20):
            density = rng.choice((0.3, 0.5, 0.8, 0.95))
            rows = [[int(rng.random() < density) for _ in range(n)] for _ in range(n)]
            cases.append(rows)
        for rows in cases[2:12]:
            zero_row = [list(r) for r in rows]
            zero_row[rng.randrange(n)] = [0] * n
            zero_col = [list(r) for r in rows]
            j = rng.randrange(n)
            for r in zero_col:
                r[j] = 0
            cases += [zero_row, zero_col]
        for rows in cases:
            assert permanent_ryser(rows) == permanent_brute(rows)
        checked += len(cases)
    assert checked >= 300


def _dp_permanent(rows):
    """Independent oracle: row-by-row DP over column subsets."""
    n = len(rows)
    f = [0] * (1 << n)
    f[0] = 1
    for mask in range(1, 1 << n):
        i = mask.bit_count() - 1
        total = 0
        m = mask
        while m:
            lsb = m & -m
            j = lsb.bit_length() - 1
            m ^= lsb
            if rows[i][j]:
                total += f[mask ^ lsb]
        f[mask] = total
    return f[(1 << n) - 1]


def test_permanent_ryser_vs_dp_oracle_midrange():
    # covers the N = 10..14 range the brute oracle cannot reach
    rng = random.Random(17)
    for n in range(10, 15):
        assert permanent_ryser(complement_of_identity(n)) == _dp_permanent(complement_of_identity(n))
        for _ in range(5):
            rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
            assert permanent_ryser(rows) == _dp_permanent(rows)


def test_permanent_brute_empty_and_uncached_sizes():
    assert permanent_brute([]) == 1
    # N = 9 runs the uncached permutation stream: perm(J - I) = d_9
    assert permanent_brute(complement_of_identity(9)) == 133496 == derangement_count(9)


def test_permanent_caps():
    with pytest.raises(ValueError):
        permanent_brute(all_ones_matrix(BRUTE_CAP + 1))
    with pytest.raises(ValueError):
        permanent_ryser(all_ones_matrix(RYSER_CAP + 1))
    with pytest.raises(ValueError):
        permanent(all_ones_matrix(3), "guess")


def test_zero_one_matrix_validation():
    with pytest.raises(ValueError):
        ZeroOneMatrix(((0, 1), (1,)))
    with pytest.raises(ValueError):
        ZeroOneMatrix(((0, 2), (1, 0)))
    assert ZeroOneMatrix(((1, 0), (0, 1))).n == 2


def test_derangement_containment_count_vs_enumeration():
    for n in (3, 4, 5):
        ders = derangements(n)
        for cells in ([(1, 2)], [(1, 2), (2, 3)], [(2, 1), (3, 4)] if n >= 4 else [(1, 3)]):
            if any(c > n for cell in cells for c in cell):
                continue
            brute = sum(
                1
                for p in ders.members
                if all(p[r - 1] == c for r, c in cells)
            )
            assert derangement_containment_count(n, cells) == brute


def test_derangement_containment_diagonal_is_zero():
    assert derangement_containment_count(4, [(2, 2)]) == 0


def test_double_derangement_pinned():
    assert double_derangement_count(4, (2, 1, 4, 3)) == 4


def test_double_derangement_conflicts():
    sigma = (2, 1, 4, 3)
    assert double_derangement_count(4, sigma, [(1, 1)]) == 0  # diagonal cell
    assert double_derangement_count(4, sigma, [(1, 2)]) == 0  # sigma cell


def test_double_derangement_vs_enumeration():
    rng = random.Random(11)
    for n in (3, 4, 5, 6):
        for _ in range(5):
            sigma = tuple(rng.sample(range(1, n + 1), n))
            dd = double_derangements(n, sigma)
            assert len(dd) == double_derangement_count(n, sigma)
            cell_pool = [(r, c) for r in range(1, n + 1) for c in range(1, n + 1)]
            cells = rng.sample(cell_pool, 2)
            if not all(r != c for r, c in cells):
                continue
            rows = {r for r, _ in cells}
            cols = {c for _, c in cells}
            if len(rows) < 2 or len(cols) < 2:
                continue
            brute = sum(1 for p in dd.members if all(p[r - 1] == c for r, c in cells))
            assert double_derangement_count(n, sigma, cells) == brute


def test_double_derangement_monotone_sanity():
    for n in range(3, 8):
        sigma = tuple(list(range(2, n + 1)) + [1])
        for cells in ([], [(1, 3)] if n >= 3 else []):
            if cells and cells[0][1] == sigma[0]:
                continue
            assert double_derangement_count(n, sigma, cells) <= derangement_count(n - len(cells))


def test_near_full_bound_values():
    assert near_full_permanent_bound(6, "two_regular") == Fraction(5120, 81)
    expected = Fraction(5, 6) * Fraction(3, 5) ** 5 * math.factorial(6)
    assert near_full_permanent_bound(6, "one_deficient") == expected
    with pytest.raises(ValueError):
        near_full_permanent_bound(3)
    with pytest.raises(ValueError):
        near_full_permanent_bound(6, "mystery")


def _menage(n):
    """Touchard's menage number: sum_k (-1)^k 2n/(2n-k) C(2n-k, k) (n-k)!."""
    return sum((-1) ** k * 2 * n * math.comb(2 * n - k, k) // (2 * n - k) * math.factorial(n - k) for k in range(n + 1))


def test_near_full_threshold_at_400():
    # the exact menage permanent at N = 400 meets (1 - 2/N)^N N!, which
    # exceeds N!/7.5; all three compared in exact integers and rationals
    assert Fraction(398, 400) ** 400 > Fraction(2, 15)
    chk = near_full_permanent_check(cycle_cover_zero_matrix([400]))
    assert chk.case == "two_regular"
    assert chk.permanent == _menage(400)
    assert chk.bound == near_full_permanent_bound(400)
    assert chk.holds and Fraction(chk.permanent) >= chk.bound > Fraction(math.factorial(400) * 2, 15)


def test_near_full_check_menage():
    chk = near_full_permanent_check(cycle_cover_zero_matrix([6]))
    assert chk.case == "two_regular"
    assert chk.permanent == 80
    assert chk.bound == Fraction(5120, 81)
    assert chk.holds


def test_near_full_check_all_ones():
    chk = near_full_permanent_check(all_ones_matrix(5))
    assert chk.holds
    assert chk.permanent == math.factorial(5)


def test_near_full_check_one_deficient_shape():
    # a single zero saturates into the adjacent degree-1 pair shape
    rows = [[1] * 5 for _ in range(5)]
    rows[0][0] = 0
    chk = near_full_permanent_check(rows)
    assert chk.case in ("two_regular", "one_deficient")
    assert chk.holds


def _saturated(rows):
    """The zero graph ``near_full_permanent_check`` classifies, with its row
    and column degrees: zeros added in row-major order wherever both the
    row and the column hold fewer than two."""
    n = len(rows)
    zeros = {(i, j) for i in range(n) for j in range(n) if not rows[i][j]}
    row_deg = [sum((i, j) in zeros for j in range(n)) for i in range(n)]
    col_deg = [sum((i, j) in zeros for i in range(n)) for j in range(n)]
    for i in range(n):
        for j in range(n):
            if row_deg[i] < 2 and col_deg[j] < 2 and (i, j) not in zeros:
                zeros.add((i, j))
                row_deg[i] += 1
                col_deg[j] += 1
    return zeros, row_deg, col_deg


def test_near_full_saturation_is_maximal():
    # on random near-full boards the saturated zero graph admits no further
    # zero, and so is 2-regular or leaves one row and one column short by
    # exactly one zero, their cell a zero; the check reports that shape
    rng = random.Random(35)
    seen = {"two_regular": 0, "one_deficient": 0}
    for _ in range(3000):
        n = rng.randint(4, 9)
        rows = [[1] * n for _ in range(n)]
        room_r, room_c = [2] * n, [2] * n
        for _ in range(rng.randint(0, 2 * n)):
            i, j = rng.randrange(n), rng.randrange(n)
            if rows[i][j] and room_r[i] and room_c[j]:
                rows[i][j] = 0
                room_r[i] -= 1
                room_c[j] -= 1
        zeros, row_deg, col_deg = _saturated(rows)
        assert all((i, j) in zeros or 2 in (row_deg[i], col_deg[j]) for i in range(n) for j in range(n))
        short_rows = [i for i in range(n) if row_deg[i] < 2]
        short_cols = [j for j in range(n) if col_deg[j] < 2]
        if short_rows or short_cols:
            (i,), (j,) = short_rows, short_cols
            assert row_deg[i] == col_deg[j] == 1 and (i, j) in zeros
            case = "one_deficient"
        else:
            case = "two_regular"
        assert near_full_permanent_check(rows).case == case, rows
        seen[case] += 1
    assert min(seen.values()) >= 500, seen


def test_near_full_check_rejects_sparse_rows():
    rows = [[0, 0, 0, 1], [1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1]]
    with pytest.raises(ValueError):
        near_full_permanent_check(rows)


def test_two_regular_cycle_covers_meet_bound():
    for n in range(4, 11):
        for parts in _cycle_partitions(n):
            rows = cycle_cover_zero_matrix(parts)
            value = permanent_ryser(rows)
            assert Fraction(value) >= near_full_permanent_bound(n, "two_regular"), (n, parts)


def test_double_derangement_meets_near_full_bound():
    # sigma a derangement: the zero graph (identity + sigma) is 2-regular,
    # so the count is bounded below by (1 - 2/n)^n n!; exact for 6 <= n <= 12
    rng = random.Random(29)
    for n in range(6, 13):
        ders = [tuple(list(range(2, n + 1)) + [1])]  # full cycle
        swap = list(range(1, n + 1))
        for i in range(0, n - 1, 2):
            swap[i], swap[i + 1] = swap[i + 1], swap[i]
        if all(swap[i] != i + 1 for i in range(n)):
            ders.append(tuple(swap))
        for sigma in ders:
            count = double_derangement_count(n, sigma)
            assert Fraction(count) >= near_full_permanent_bound(n, "two_regular")


def test_derangement_trace_inequality_has_equality_witnesses():
    """3|D_n(S)| >= (n-|S|)! always at this scale, with equality exactly at
    the empty restriction for n = 3 and the transposition pairs for n = 5."""
    equalities = set()
    for n in range(2, 7):
        cells = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1) if x != y]
        cands = [()] + [(c,) for c in cells]
        cands += [
            tuple(sorted(pair))
            for pair in itertools.combinations(cells, 2)
            if pair[0][0] != pair[1][0] and pair[0][1] != pair[1][1]
        ]
        for cand in cands:
            cnt = derangement_containment_count(n, cand)
            if cnt == 0:
                continue
            target = math.factorial(n - len(cand))
            assert 3 * cnt >= target
            if 3 * cnt == target:
                equalities.add((n, len(cand)))
    assert equalities == {(3, 0), (5, 2)}


def _degree_two_patterns(rng, count, max_n):
    """Random zero patterns with at most two zeros per row and column.

    Each is the union of two random partial permutations (overlaps give
    single zeros, like a fixed point of sigma), plus the empty pattern,
    single paths and cycles, and cycle covers with an extra path.
    """
    for n in range(1, max_n + 1):
        yield n, set()
        yield n, {(i, i) for i in range(n)}
        yield n, {(i, i) for i in range(n)} | {(i, i + 1) for i in range(n - 1)}
        if n >= 2:
            yield n, {(i, i) for i in range(n)} | {(i, (i + 1) % n) for i in range(n)}
        if n >= 5:
            yield n, {(i, i) for i in range(n)} | {(0, 1), (1, 0), (2, 3), (3, 4)}
    for _ in range(count):
        n = rng.randint(1, max_n)
        zeros = set()
        for _ in range(2):
            k = rng.randint(0, n)
            zeros |= set(zip(rng.sample(range(n), k), rng.sample(range(n), k)))
        yield n, zeros


def _board(n, zeros):
    return [[0 if (i, j) in zeros else 1 for j in range(n)] for i in range(n)]


def test_rook_permanent_agrees_with_ryser():
    rng = random.Random(41)
    seen = 0
    for n, zeros in _degree_two_patterns(rng, 500, 10):
        assert _rook_permanent(n, zeros) == permanent_ryser(_board(n, zeros)), (n, sorted(zeros))
        seen += 1
    assert seen >= 500


def test_rook_permanent_agrees_with_brute():
    rng = random.Random(43)
    for n, zeros in _degree_two_patterns(rng, 500, 8):
        assert _rook_permanent(n, zeros) == permanent_brute(_board(n, zeros)), (n, sorted(zeros))


def test_rook_count_matches_the_path_cycle_product():
    rng = random.Random(53)
    for n, zeros in _degree_two_patterns(rng, 200, 10):
        closed = _path_cycle_rooks(zeros)
        assert _rook_numbers(_board(n, zeros), math.inf) == closed + [0] * (n + 1 - len(closed)), (n, sorted(zeros))


def test_rook_count_matches_brute_at_every_density():
    # 0 % ones is the all-zero board, 100 % the all-ones board
    rng = random.Random(59)
    for n in range(0, 9):
        for tenths in range(11):
            for _ in range(3 if n < 8 else 1):
                rows = [[int(rng.random() < tenths / 10) for _ in range(n)] for _ in range(n)]
                assert _rook_sum(n, _rook_numbers(rows, math.inf)) == permanent_brute(rows), rows


def test_permanent_ryser_chooses_the_rook_count_on_sparse_zeros_only(monkeypatch):
    answers = []

    def spy(rows, budget):
        answers.append(_rook_numbers(rows, budget))
        return answers[-1]

    monkeypatch.setattr(counting, "_rook_numbers", spy)
    rng = random.Random(61)
    for n, ones, takes_rooks in ((13, 0.8, True), (12, 0.5, False)):
        rows = [[int(rng.random() < ones) for _ in range(n)] for _ in range(n)]
        assert permanent_ryser(rows) == _dp_permanent(rows)
        assert (answers[-1] is not None) == takes_rooks


def test_glynn_agrees_with_the_oracles_when_the_rook_count_refuses(monkeypatch):
    monkeypatch.setattr(counting, "_rook_numbers", lambda rows, budget: None)
    rng = random.Random(67)
    for n in range(1, 8):
        for ones in (0.0, 0.3, 0.5, 0.8, 1.0):
            rows = [[int(rng.random() < ones) for _ in range(n)] for _ in range(n)]
            assert permanent_ryser(rows) == permanent_brute(rows)
    for n in range(0, 15):
        assert permanent_ryser(complement_of_identity(n)) == derangement_count(n)
    for n in (10, 12):
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        assert permanent_ryser(rows) == _dp_permanent(rows)


def test_rook_permanent_rejects_three_zeros_in_a_line():
    with pytest.raises(ValueError):
        _rook_permanent(4, {(0, 0), (0, 1), (0, 2)})
    with pytest.raises(ValueError):
        _rook_permanent(4, {(0, 3), (1, 3), (2, 3)})


def test_double_derangement_with_fixed_points_vs_enumeration():
    # sigma with fixed points: (r, r) and (r, sigma(r)) are one zero cell
    rng = random.Random(47)
    for n in (4, 5, 6):
        for _ in range(4):
            sigma = list(range(1, n + 1))
            a, b = rng.sample(range(n), 2)
            sigma[a], sigma[b] = sigma[b], sigma[a]
            sigma = tuple(sigma)
            dd = double_derangements(n, sigma)
            assert double_derangement_count(n, sigma) == len(dd)
            for cell in [(r, c) for r in range(1, n + 1) for c in range(1, n + 1)]:
                brute = sum(1 for p in dd.members if p[cell[0] - 1] == cell[1])
                assert double_derangement_count(n, sigma, [cell]) == brute


def test_double_derangement_cyclic_shift_is_menage_number_at_400():
    n = 400
    shift = tuple(list(range(2, n + 1)) + [1])
    assert double_derangement_count(n, shift) == _menage(n)


def test_derangement_containment_count_beyond_ryser_cap():
    assert derangement_containment_count(500, {(1, 2)}) == pointed_derangement_count(500)
    assert derangement_containment_count(500, ()) == derangement_count(500)
    assert derangement_containment_count(40, {(1, 2), (2, 1)}) == derangement_count(38)


def test_counts_reject_cells_outside_the_grid():
    with pytest.raises(ValueError):
        derangement_containment_count(5, {(7, 8)})
    with pytest.raises(ValueError):
        double_derangement_count(4, (2, 1, 4, 3), [(1, 5)])


_MATRIX_READERS = (permanent_ryser, permanent_brute, permanent, near_full_permanent_check)
_BAD_MATRICES = {"none": None, "int": 5, "int-rows": [1, 2], "int-row": [[1, 0], 7]}


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: double_derangement_count(3, (1, 1, 2)), "sigma is not a permutation"),
        (lambda: double_derangement_count(3, (2.0, 3, 1)), "sigma is not a permutation"),
        (lambda: permanent([[0.5, 1], [1, 1]]), "entries must be 0 or 1"),
        (lambda: ZeroOneMatrix(((1.0, 0), (0, 1))), "entries must be 0 or 1"),
        (lambda: permanent([["1", 1], [1, 1]]), "entries must be 0 or 1"),
        (lambda: derangement_containment_count(4, [(1.9, 2)]), "not a partial permutation"),
        (lambda: derangement_count_inclusion_exclusion(-1), "non-negative"),
        (lambda: derangement_count(2.5), "non-negative"),
        (lambda: pointed_derangement_count(4.0), "n >= 2"),
        (lambda: near_full_permanent_bound(6.0), "N >= 4"),
        (lambda: round_factorial_over_e(0), "n >= 1"),
        (lambda: near_full_permanent_check([[1, 1, 1]] * 3), "N >= 4"),
        (lambda: cycle_cover_zero_matrix([1]), "parts must be >= 2"),
        (lambda: derangement_containment_count(4.0, [(1, 2)]), "n must be non-negative"),
        (lambda: double_derangement_count(4.0, (2, 1, 4, 3)), "n must be non-negative"),
        (lambda: derangement_containment_count(-1, []), "n must be non-negative"),
        (lambda: cycle_cover_zero_matrix(None), "parts must be >= 2"),
        (lambda: cycle_cover_zero_matrix([2.5]), "parts must be >= 2"),
        (lambda: complement_of_identity(2.5), "n must be non-negative"),
    ]
    + [
        (lambda read=read, matrix=matrix: read(matrix), "matrix must be a sequence of rows")
        for read in _MATRIX_READERS
        for matrix in _BAD_MATRICES.values()
    ],
    ids=[
        "double-derangement-count-bad-sigma",
        "double-derangement-count-float-sigma",
        "permanent-half-entry",
        "matrix-float-entry",
        "permanent-string-entry",
        "containment-count-float-cell",
        "inclusion-exclusion-negative", "derangement-count-float-n", "pointed-count-float-n", "near-full-bound-float-n",
        "round-n0", "near-full-n3",
        "cycle-part-1",
        "containment-count-float-n",
        "double-derangement-count-float-n",
        "containment-count-negative-n",
        "cycle-parts-none", "cycle-part-float", "complement-float-n",
    ]
    + [f"{read.__name__}-{name}" for read in _MATRIX_READERS for name in _BAD_MATRICES],
)
def test_bad_inputs_fail_cleanly(call, match):
    with pytest.raises(ValueError, match=match):
        call()
