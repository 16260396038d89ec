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
rationals, permutations and cells (``READER_DIGEST``).
"""

import hashlib
import json
import math
import random
import re
from dataclasses import fields, is_dataclass
from fractions import Fraction

import pytest

from permemc import (
    apply_isomorphism,
    classify_cross_free_families,
    complement_of_identity,
    containment_implies_matching_check,
    containment_probability,
    derangement_star,
    derangements,
    family,
    make_hm_star_union,
    make_star_union,
    max_ratio_set,
    spread_approximate,
    spread_lemma_bound,
    star_center_image,
    subfamily_containing,
    support_union_bound_sides,
    symmetric_group,
    verify_approximation,
)
from permemc.cli import main
from permemc.counting import ZeroOneMatrix
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
    "verify": "de28b907480c3c4d2ac97da66ea4302952ea232ab940482a65e87de5ead1e3ef",
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
    a tuple as a list, and a dataclass (a Family too) as an object of its fields."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
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
