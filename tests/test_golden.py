"""Golden outputs: the sha256 of the CLI's standard output on fixed inputs.

A change that should leave outputs alone must leave every digest alone.  An
intended output change updates the digest it moves and says why.  The
inputs are written with the library's own ``save_family``/``save_matrix``,
every family stays under the 1,000-member spill limit (a spill would put a
path into the output), and ``verify`` is hashed with its ``elapsed_ms``
values set to 0.  Floats are hashed as CPython prints them (shortest
round-trip repr); Monte Carlo draws from ``random.Random``, whose stream
is fixed for a given seed across CPython versions.  The greedy
decomposition's kernels are also hashed as a library corpus, outside the
CLI (``DECOMPOSITION_DIGEST``), and so are the entry points that read
rationals, permutations and cells (``READER_DIGEST``), the matching and
covering solvers (``SOLVER_DIGEST``), the spreadness kernels
(``SPREAD_DIGEST``), the counts and permanents (``COUNT_DIGEST``) and the
constructions and enumerators (``CONSTRUCT_DIGEST``).
"""

import hashlib
import json
import math
import random
import re
from fractions import Fraction

import pytest

from permemc import (
    apply_isomorphism,
    classify_cross_free_families,
    complement_of_identity,
    containment_implies_matching_check,
    containment_probability,
    Family,
    coset_certificate,
    covering_number,
    cross_matching,
    derangement_star,
    derangements,
    enumerate_family,
    exact_spreadness,
    family,
    is_r_spread,
    is_rq_spread,
    make_hm,
    make_hm_star_union,
    make_star,
    make_star_union,
    matching_number,
    max_ratio_set,
    spread_approximate,
    spread_lemma_bound,
    star_center_image,
    star_union_slack_sides,
    subfamily_containing,
    support_union_bound_sides,
    symmetric_group,
    verify_approximation,
)
from permemc.cli import main
from permemc.core import _Record
from permemc.counting import (
    ZeroOneMatrix,
    _rook_permanent,
    derangement_containment_count,
    double_derangement_count,
    near_full_permanent_check,
    permanent_brute,
    permanent_ryser,
)
from permemc.io import cells_json, save_family, save_matrix
from permemc.verify import approximation_corpus, random_subfamily

GOLDEN = {
    "counts": "16ef9a3cbd4d9dcebf51bec8c3ea005468455d5108d56efa05e1a7edb5819833",
    "permanent": "5e17d29f5f581fdaf97b8171d87397c964bd30a7bd8a1fbaf8b212f6fe547212",
    "nu": "1913b0843c3bdd3232f3ff17421deed318f0f4281d9b281082ec856ece8429bf",
    "tau": "3e15a13ee7b88bef8def7fc30bbd18606a81f0784239b101283723748638d5b7",
    "spread": "dc2a23e1cfd9a44c98298c3997eb4585ae93d2c106accf7aa6da0a468032c75c",
    "spread-rq": "9b8eabefa551f308872ba0f1b20718e3539ff6a2f5d0a016fbc9b0c7ef4908a4",
    "approx": "075ac1111fe13b009437314cbae1f535ff06f84e397c5f38e6f4d23dcca3b494",
    "extremal": "b94550b1a674414280228f6faadcd92e1bc245617b0f60b81cb96709ef0f3ab0",
    "crossmatch": "548286c1b581492eae699656e9b20270885e1b77a1bb3b03335c76b207581eda",
    "mc-spread": "7a96262ddadf420e4482cdb9434ea2de931854653cfaf23fd064608002efaa51",
    "verify": "18396a221a943327a27accfba9fb7db2066f8106d763a478112bb177323565bf",
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    sigma4 = symmetric_group(4).members
    fams = {
        "d5": derangements(5),  # 44 members
        "sub4": family(4, sigma4[::3]),  # 8 members of Σ_4
        "stars5": make_star_union(5, [(1, 1), (1, 2)]).family,  # 48 members
        "dstar12": derangement_star(5, (1, 2)),
        "dstar21": derangement_star(5, (2, 1)),
    }
    paths = {}
    for name, fam in fams.items():
        paths[name] = str(root / f"{name}.txt")
        save_family(fam, paths[name])
    paths["matrix"] = str(root / "matrix.txt")
    save_matrix(ZeroOneMatrix(tuple(map(tuple, complement_of_identity(7)))), paths["matrix"])
    return paths


def _commands(f):
    return {
        "counts": ["counts", "--n", "23"],
        "permanent": ["permanent", "--matrix", f["matrix"]],
        "nu": ["nu", "--family", f["d5"]],
        "tau": ["tau", "--family", f["sub4"]],
        "spread": ["spread", "--family", f["sub4"], "--r", "3/2", "--exact"],
        "spread-rq": ["spread", "--family", f["stars5"], "--r", "6/5", "--q", "2"],
        "approx": ["approx", "--family", f["stars5"], "--ambient", "sigma", "--r", "5/2", "--q", "4"],
        "extremal": ["extremal", "--kind", "theorem3", "--n", "5", "--s", "3"],
        "crossmatch": ["crossmatch", "--families", f["dstar12"], f["dstar21"], f["stars5"]],
        "mc-spread": ["mc-spread", "--family", f["sub4"], "--p", "2/3", "--samples", "3000", "--seed", "17"],
        "verify": ["verify", "--suite", "all", "--seed", "0"],
    }


@pytest.mark.parametrize("name", list(GOLDEN))
def test_cli_stdout_matches_golden_digest(name, files, capsys):
    code = main(_commands(files)[name])
    out = capsys.readouterr().out
    assert code == 0
    if name == "verify":
        out = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out)
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[name]


#: sha256 of ``_decomposition_outputs()`` as canonical JSON.
DECOMPOSITION_DIGEST = "c857566638416e2bbe96efa730bfba9f703d11d9bad4dd56eb43e6f6041e8982"


def _max_ratio_set_input(rng, sigmas):
    """A validated random subfamily of Σ_4 or Σ_5, a slice of one (the
    members through one cell, less those through another), or a raw list of
    cell sets with empty and duplicate members."""
    shape = rng.randrange(3)
    if shape < 2:
        n = rng.choice((4, 5))
        fam = random_subfamily(rng, sigmas[n], rng.randint(1, 24 if n == 4 else 40))
        if shape == 1:
            p, q = rng.choice(fam.members), rng.choice(fam.members)
            i, j = rng.randint(1, n), rng.randint(1, n)
            through = subfamily_containing(fam, [(i, p[i - 1])])
            fam = through.difference(subfamily_containing(through, [(j, q[j - 1])])) or through
        return fam
    sets = []
    for _ in range(rng.randint(1, 12)):
        if sets and rng.random() < 0.3:
            sets.append(rng.choice(sets))
        else:
            sets.append(frozenset((rng.randint(1, 5), rng.randint(1, 5)) for _ in range(rng.randint(0, 6))))
    return sets


def _decomposition_outputs() -> list:
    """``max_ratio_set`` on 600 seeded inputs at rho = a/b (a <= 24, b <= 8),
    then ``spread_approximate`` and ``verify_approximation`` over the
    ``approximation_corpus`` of seeds 0-5."""
    rng = random.Random(28)
    sigmas = {4: symmetric_group(4), 5: symmetric_group(5)}
    out = []
    for _ in range(600):
        fam = _max_ratio_set_input(rng, sigmas)
        rho = Fraction(rng.randint(1, 24), rng.randint(1, 8))
        out.append([str(rho), cells_json(max_ratio_set(fam, rho))])
    for seed in range(6):
        for fam, ambient, r, q in approximation_corpus(random.Random(seed)):
            res = spread_approximate(fam, ambient, r, q)
            out.append([res.to_json(), verify_approximation(res, fam, ambient, r, q).to_json()])
    return out


def test_decomposition_kernels_match_golden_digest():
    text = json.dumps(_decomposition_outputs(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == DECOMPOSITION_DIGEST


#: sha256 of ``_reader_outputs()`` as canonical JSON.
READER_DIGEST = "0907856748997f2d06bededfa90ccdc26fa6bc7c0b907db5cf7fb4aeb7ea0f74"


def _plain(value):
    """``value`` as JSON data: a Fraction as "p/q", a set as a sorted list,
    a tuple as a list, and a result record (a Family too) as an object of its fields."""
    if isinstance(value, _Record):
        return {name: _plain(getattr(value, name)) for name in value._fields}
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, frozenset):
        return sorted(map(_plain, value))
    if isinstance(value, tuple):
        return list(map(_plain, value))
    return value


def _random_cells(rng, rows, cols, most):
    return frozenset((rng.randint(1, rows), rng.randint(1, cols)) for _ in range(rng.randint(1, most)))


def _reader_outputs() -> list:
    """The entry points that read rationals, permutations and cells, on valid
    seeded inputs: star unions (full and derangement stars), HM star unions,
    the isomorphism action and star centre images for n <= 6; exact and
    Monte Carlo containment probabilities and the rainbow check; the support
    union sides with and without r and q, the cross-free classification
    (or its refusal of a cross matching) and the spread lemma bound."""
    rng = random.Random(29)
    sigmas = {n: symmetric_group(n) for n in range(2, 7)}
    out = []
    for _ in range(40):
        n, derangement = rng.randint(2, 6), rng.random() < 0.5
        grid = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1) if not (derangement and x == y)]
        centers = rng.sample(grid, rng.randint(0, min(3, len(grid))))
        out.append(_plain(make_star_union(n, [list(c) for c in centers], derangement)))
    for _ in range(30):
        n = rng.randint(3, 6)
        s = rng.randint(2, n)
        sigma = rng.sample(range(s, n + 1), 1)
        sigma += rng.sample([v for v in range(1, n + 1) if v != sigma[0]], n - 1)
        out.append([n, s, _plain(make_hm_star_union(n, s, sigma).members)])
    for _ in range(40):
        n = rng.randint(2, 6)
        fam = random_subfamily(rng, sigmas[n], rng.randint(0, min(24, len(sigmas[n]))))
        rho, pi = rng.sample(range(1, n + 1), n), tuple(rng.sample(range(1, n + 1), n))
        cell = (rng.randint(1, n), rng.randint(1, n))
        out.append([_plain(apply_isomorphism(rho, fam, pi).members), star_center_image(rho, list(cell), pi)])
    for _ in range(40):
        if rng.random() < 0.5:
            n = rng.choice((3, 4))
            fam = random_subfamily(rng, sigmas[n], rng.randint(1, 6))
        else:
            fam = [_random_cells(rng, 4, 5, 3) for _ in range(rng.randint(1, 5))]
        b = rng.randint(2, 9)
        p = Fraction(rng.randint(1, b - 1), b)
        out.append(containment_probability(fam, p).to_json())
        samples, seed = rng.randint(1, 300), rng.randrange(1000)
        out.append(containment_probability(fam, p, "monte_carlo", samples, seed).to_json())
    for _ in range(30):
        s = rng.randint(0, 3)
        bases = [[_random_cells(rng, 3, 3, 2) for _ in range(rng.randint(1, 3))] for _ in range(s)]
        out.append(_plain(containment_implies_matching_check(bases, s, Fraction(1, rng.randint(2, 30)))))
    for _ in range(30):
        ambient = random_subfamily(rng, sigmas[4], rng.randint(1, 24))
        supports = [_random_cells(rng, 4, 4, 3) for _ in range(rng.randint(1, 4))]
        eps, s = Fraction(rng.randint(0, 4), rng.randint(1, 4)), rng.randint(1, 4)
        r = rng.choice((None, Fraction(rng.randint(1, 400), rng.randint(1, 4))))
        q = rng.choice((None, rng.randint(0, 3)))
        out.append(_plain(support_union_bound_sides(ambient, supports, eps, s, r, q)))
    stars = {}
    for _ in range(30):
        n = rng.choice((4, 5))
        grid = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1) if x != y]
        cells = rng.sample(grid, rng.randint(1, 3))
        families = []
        for cell in cells:
            star = stars.setdefault((n, cell), derangement_star(n, cell))
            families.append(random_subfamily(rng, star, rng.randint(0, 3)))
        try:
            out.append(_plain(classify_cross_free_families(families, cells)))
        except ValueError as refusal:
            out.append(str(refusal))
    for _ in range(30):
        k, r = rng.randint(1, 20), Fraction(rng.randint(1, 64), rng.randint(1, 4))
        beta = rng.choice((1, 2.5, math.log2(rng.randint(2, 12))))
        out.append(spread_lemma_bound(k, r, beta, Fraction(1, rng.randint(1, 8))))
    return out


def test_reader_entry_points_match_golden_digest():
    """The Monte Carlo standard errors and ``spread_lemma_bound`` are floats
    computed with ``**`` and ``math.log2``, so this digest assumes the C
    library it was computed with (glibc on x86-64); the exact outputs do not."""
    text = json.dumps(_reader_outputs(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == READER_DIGEST


#: sha256 of ``_solver_outputs()`` as canonical JSON.
SOLVER_DIGEST = "eaf020147c0a3bdbcf504378088463b6fbc009157c3ffec08f7c46b70f7c5cb0"


def _solver_outputs() -> list:
    """ν and τ with their witnesses and the coset certificate of families X:
    seeded subfamilies of Σ_4–Σ_7 and D_5–D_7 (Σ_4 and D_5 whole too) and
    unions of one to three stars for n = 4…6; the star-union sides of a
    seeded subfamily of X inside X for s = 2…5; and cross matchings of
    seeded subfamilies of derangement stars and of Σ_4 and Σ_5."""
    rng = random.Random(31)
    ambients = [symmetric_group(n) for n in range(4, 8)] + [derangements(n) for n in range(5, 8)]
    xs = []
    for ambient in ambients:
        sizes = [rng.randint(1, min(len(ambient), 80)) for _ in range(10)]
        xs.extend(random_subfamily(rng, ambient, size) for size in sizes)
        if len(ambient) <= 44:
            xs.append(ambient)
    for _ in range(10):
        n = rng.randint(4, 6)
        centers = rng.sample([(x, y) for x in range(1, n + 1) for y in range(1, n + 1)], rng.randint(1, 3))
        xs.append(make_star_union(n, centers).family)
    out = []
    for x in xs:
        fam = random_subfamily(rng, x, rng.randint(0, len(x)))
        out.append([_plain(matching_number(x)), _plain(covering_number(x)), coset_certificate(x, rng.randint(1, 4)).to_json()])
        out.extend(star_union_slack_sides(fam, x, s).to_json() for s in range(2, 6))
    stars = {}
    for _ in range(30):
        n = rng.choice((4, 5))
        families = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.7:
                cell = rng.choice([(x, y) for x in range(1, n + 1) for y in range(1, n + 1) if x != y])
                ambient = stars.setdefault((n, cell), derangement_star(n, cell))
            else:
                ambient = stars.setdefault(n, symmetric_group(n))
            families.append(random_subfamily(rng, ambient, rng.randint(1, min(len(ambient), 8))))
        out.append(_plain(cross_matching(families)))
    return out


def test_solvers_match_golden_digest():
    text = json.dumps(_solver_outputs(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == SOLVER_DIGEST


#: sha256 of ``_spread_outputs()`` as canonical JSON.
SPREAD_DIGEST = "42be2f15ecbb51ee7abac02c43031cfeb94f250271457769a25140295eddb285"

_SPREAD_RS = (Fraction(1, 2), 1, Fraction(6, 5), 2, 3)


def _spread_calls(fam, qs) -> list:
    """The spreadness kernels on ``fam`` in a fixed order: for each r of
    ``_SPREAD_RS``, ``is_r_spread`` without and with the exact value,
    ``is_rq_spread`` at the next q of ``qs`` and ``max_ratio_set`` at r/2
    and r; then ``exact_spreadness``."""
    calls = []
    for r, q in zip(_SPREAD_RS, qs):
        calls.append(lambda fam, r=r: is_r_spread(fam, r).to_json())
        calls.append(lambda fam, r=r: is_r_spread(fam, r, True).to_json())
        calls.append(lambda fam, r=r, q=q: is_rq_spread(fam, r, q).to_json())
        calls.append(lambda fam, r=r: [cells_json(max_ratio_set(fam, r / 2)), cells_json(max_ratio_set(fam, r))])
    calls.append(lambda fam: _plain(exact_spreadness(fam)))
    return calls


def _spread_outputs() -> list:
    """``_spread_calls`` on two kinds of family.  Seeded subfamilies of
    Σ_4–Σ_6 and D_6, Σ_4 and Σ_5 whole too, are asked every call on one Family, in order, so later
    calls may read what earlier ones kept, and each call again on a fresh
    Family.  Relabelled dense families, where most members share a few
    cells (pinned intersecting families, their star unions and unions of
    two or three stars, n <= 7), are asked every call on one Family."""
    rng = random.Random(32)
    ambients = [symmetric_group(n) for n in (4, 5, 6)] + [derangements(6)]
    out = []
    for ambient in ambients:
        for size in [rng.randint(1, min(len(ambient), 90)) for _ in range(5)] + [len(ambient)] * (ambient.n < 6):
            fam = random_subfamily(rng, ambient, size)
            calls = _spread_calls(fam, [rng.randint(0, 2) for _ in _SPREAD_RS])
            one = Family(fam.n, fam.members)
            out.append([call(one) for call in calls])
            out.append([call(Family(fam.n, fam.members)) for call in calls])
    for i in range(18):
        n = rng.randint(4, 7)
        kind = i % 3
        if kind == 0:
            s = rng.randint(2, 3)
            sigma = [rng.randint(s, n)]
            sigma += rng.sample([v for v in range(1, n + 1) if v != sigma[0]], n - 1)
            fam = make_hm(n, sigma) if s == 2 else make_hm_star_union(n, s, sigma)
        else:
            grid = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
            fam = make_star_union(n, rng.sample(grid, kind + 1)).family
        rho, pi = rng.sample(range(1, n + 1), n), rng.sample(range(1, n + 1), n)
        fam = apply_isomorphism(rho, fam, pi)
        out.append([len(fam), *(call(fam) for call in _spread_calls(fam, [rng.randint(0, 2) for _ in _SPREAD_RS]))])
    return out


def test_spreadness_kernels_match_golden_digest():
    text = json.dumps(_spread_outputs(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == SPREAD_DIGEST


#: sha256 of ``_count_outputs()`` as canonical JSON.
COUNT_DIGEST = "c7ac1f9da2df0bbc40d60ae16aa10312aca64f3e0e5b1e90f1e3ace2841e3dae"


def _near_full_board(rng, n):
    """An n x n 0/1 board with at most two zeros in each row and column:
    up to 2n cells, drawn at random, turn to zero where both lines have room."""
    rows, row_zeros, col_zeros = [[1] * n for _ in range(n)], [0] * n, [0] * n
    for _ in range(rng.randint(0, 2 * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        if rows[i][j] and row_zeros[i] < 2 and col_zeros[j] < 2:
            rows[i][j] = 0
            row_zeros[i] += 1
            col_zeros[j] += 1
    return rows


def _count_outputs() -> list:
    """The rook closed form, Glynn and the brute-force sum on the same seeded
    boards (N <= 8, near-full or of any density, where the closed form
    refuses); the near-full check for N = 4...9; and derangements disjoint
    from a permutation or from the identity through seeded partial
    permutations for n <= 9, diagonal and sigma cells included."""
    rng = random.Random(35)
    out = []
    for _ in range(200):
        n = rng.randint(0, 8)
        if rng.random() < 0.7:
            rows = _near_full_board(rng, n)
        else:
            rows = [[int(rng.random() < 0.6) for _ in range(n)] for _ in range(n)]
        zeros = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if not rows[i - 1][j - 1]]
        try:
            rook = _rook_permanent(n, zeros)
        except ValueError as refusal:
            rook = str(refusal)
        out.append([rows, rook, permanent_ryser(rows), permanent_brute(rows)])
    for _ in range(200):
        out.append(_plain(near_full_permanent_check(_near_full_board(rng, rng.randint(4, 9)))))
    for _ in range(200):
        n = rng.randint(0, 9)
        sigma = tuple(rng.sample(range(1, n + 1), n))
        through = rng.sample(range(1, n + 1), n)
        cells = sorted(rng.sample([(i + 1, v) for i, v in enumerate(through)], rng.randint(0, min(n, 3))))
        out.append([n, sigma, cells, double_derangement_count(n, sigma, cells), derangement_containment_count(n, cells)])
    return out


def test_counts_and_permanents_match_golden_digest():
    text = json.dumps(_count_outputs(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == COUNT_DIGEST


#: sha256 of ``_construct_outputs()`` as canonical JSON.
CONSTRUCT_DIGEST = "8ee3a6f32359fa8094b104d8c14a018884fc4282332e3660c8fbaf6d8811ac52"


def _family_plain(fam) -> list:
    """A Family as its n, its members and its cell index, masks in hex."""
    return [fam.n, _plain(fam.members), [[r, c, format(m, "x")] for (r, c), m in fam.cell_masks.items()]]


def _construct_outputs() -> list:
    """The constructions and enumerators for n <= 7 on seeded inputs, each
    family with its cell index and relabelled by seeded rho and pi: Σ_n, D_n
    and the derangements disjoint from a seeded sigma; stars and derangement
    stars; star unions with and without ``derangement``; pinned intersecting
    families and their star unions.  Seeded inputs that a constructor
    refuses (a diagonal derangement centre, repeated centres, sigma(1)
    inside [s-1], s - 1 above n) enter as the refusal's message."""
    rng = random.Random(36)

    def relabelled(fam):
        rho, pi = rng.sample(range(1, fam.n + 1), fam.n), tuple(rng.sample(range(1, fam.n + 1), fam.n))
        return [rho, pi, _family_plain(apply_isomorphism(rho, fam, pi))]

    def called(build, *args):
        try:
            fam = build(*args)
        except ValueError as refusal:
            return [*args, str(refusal)]
        star_union = not isinstance(fam, Family)
        extra = [fam.centers, fam.pairwise_disjoint] if star_union else []
        fam = fam.family if star_union else fam
        return [*args, *_plain(extra), _family_plain(fam), relabelled(fam)]

    out = []
    for n in range(1, 8):
        out.append(called(enumerate_family, n, "all"))
        out.append(called(enumerate_family, n, "derangements"))
        out.append(called(enumerate_family, n, "double_derangements", tuple(rng.sample(range(1, n + 1), n))))
    for _ in range(40):
        n = rng.randint(1, 7)
        cell = (rng.randint(1, n), rng.randint(1, n))
        out.append(called(make_star, n, cell) if rng.random() < 0.5 else called(derangement_star, n, cell))
    for _ in range(60):
        n, derangement = rng.randint(1, 7), rng.random() < 0.5
        grid = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1) if not derangement or x != y or rng.random() < 0.1]
        centers = rng.sample(grid, rng.randint(0, min(4, len(grid))))
        centers += centers[:1] * (rng.random() < 0.1)
        out.append(called(make_star_union, n, centers, derangement))
    for _ in range(60):
        n = rng.randint(2, 7)
        s = rng.randint(2, n + 1 + (rng.random() < 0.1))
        sigma = [rng.randint(min(s, n), n)]
        sigma += rng.sample([v for v in range(1, n + 1) if v != sigma[0]], n - 1)
        out.append(called(make_hm, n, tuple(sigma)) if s == 2 else called(make_hm_star_union, n, s, tuple(sigma)))
    return out


def test_constructions_match_golden_digest():
    text = json.dumps(_construct_outputs(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == CONSTRUCT_DIGEST
