"""The four benchmark workloads.

Each workload is a closed loop with one caller: the next job starts after
the previous one has returned and been checked.  Every job of a workload
has the same shape and sizes; the seed chooses only content (cells, matrix
entries, sigma and the relabelling rho, pi).  The two-sided action
F -> rho F pi keeps a family's size, matching and covering numbers and
spreadness, so a relabelled job does the same work as the unrelabelled one
while its answers can be checked against values computed once.

A workload object has:

* ``setup(seed, workdir)``: the program-facing set-up that ``setup_s`` times
  (imports, ambient families, base constructions, files);
* ``prepare_oracle()``: the benchmark's own reference work, not timed;
* ``job_input(index)``: the seeded input of job ``index``, built outside the
  timed region;
* ``run(inp, tracer=None)``: the timed job;
* ``check(inp, out)``: the oracle, returning a list of problems (empty when
  the output is correct);
* ``canonical(out)``: the JSON-able output that enters the digest.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import itertools
import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import oracles

HERE = Path(__file__).resolve().parent


def job_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"permemc-bench:{workload}:{seed}:{index}")


def random_perm(rng: random.Random, n: int) -> tuple[int, ...]:
    p = list(range(1, n + 1))
    rng.shuffle(p)
    return tuple(p)


def cells_sorted(cells) -> list[list[int]]:
    return [list(c) for c in sorted(cells)]


class InProcess:
    in_process = True
    block = 1

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------


class Count(InProcess):
    """2^N Gray-code Ryser on the paper's boards, plus the closed forms at n=150."""

    name = "count"
    trace_jobs = 12
    N_BOARD = 15
    NEAR_FULL_PARTS = (3, 5, 6)  # a 2-regular zero graph on N = 14
    DENSE_N = 13
    DENSE_ONES = 0.8
    N_CLOSED = 150

    def setup(self, seed, workdir):
        import permemc.counting as counting

        self.counting = counting
        self.seed = seed
        self.near_full_base = counting.cycle_cover_zero_matrix(self.NEAR_FULL_PARTS)

    def prepare_oracle(self):
        d = oracles.derangement_number
        self.expected_pointed_board = d(self.N_BOARD - 1) + d(self.N_BOARD - 2)
        self.expected_d = d(self.N_CLOSED)
        self.expected_pointed = d(self.N_CLOSED - 1) + d(self.N_CLOSED - 2)

    def job_input(self, index):
        rng = job_rng(self.name, self.seed, index)
        n = self.N_BOARD
        r, c = rng.sample(range(1, n + 1), 2)
        sigma = random_perm(rng, n)
        while True:
            r2, c2 = rng.randint(1, n), rng.randint(1, n)
            if r2 != c2 and sigma[r2 - 1] != c2:
                break
        size = len(self.near_full_base)
        rows, cols = random_perm(rng, size), random_perm(rng, size)
        near_full = [[self.near_full_base[i - 1][j - 1] for j in cols] for i in rows]
        dense = [[1 if rng.random() < self.DENSE_ONES else 0 for _ in range(self.DENSE_N)] for _ in range(self.DENSE_N)]
        return {"cell": (r, c), "sigma": sigma, "cell2": (r2, c2), "near_full": near_full, "dense": dense}

    def run(self, inp, tracer=None):
        counting = self.counting
        n = self.N_BOARD
        check = counting.near_full_permanent_check(inp["near_full"])
        return {
            "containment": counting.derangement_containment_count(n, {inp["cell"]}),
            "double": counting.double_derangement_count(n, inp["sigma"], {inp["cell2"]}),
            "near_full": [check.case, check.permanent, check.holds],
            "dense": counting.permanent_ryser(inp["dense"]),
            "d": counting.derangement_count(self.N_CLOSED),
            "d_ie": counting.derangement_count_inclusion_exclusion(self.N_CLOSED),
            "round": counting.round_factorial_over_e(self.N_CLOSED),
            "pointed": counting.pointed_derangement_count(self.N_CLOSED),
        }

    def check(self, inp, out):
        problems = []
        n = self.N_BOARD
        if out["containment"] != self.expected_pointed_board:
            problems.append("derangement_containment_count != d_{n-1} + d_{n-2}")
        r2, c2 = inp["cell2"]
        sigma = inp["sigma"]
        board = [
            [0 if col in (row, sigma[row - 1]) else 1 for col in range(1, n + 1) if col != c2]
            for row in range(1, n + 1)
            if row != r2
        ]
        if out["double"] != oracles.rook_permanent(board):
            problems.append("double_derangement_count disagrees with the rook-number permanent")
        if out["near_full"] != ["two_regular", oracles.rook_permanent(inp["near_full"]), True]:
            problems.append("near_full_permanent_check disagrees with the rook-number permanent")
        if out["dense"] != oracles.subset_dp_permanent(inp["dense"]):
            problems.append("permanent_ryser disagrees with the subset-DP permanent")
        if not (out["d"] == out["d_ie"] == out["round"] == self.expected_d):
            problems.append("the three derangement routes disagree")
        if out["pointed"] != self.expected_pointed:
            problems.append("pointed_derangement_count is wrong")
        return problems

    def canonical(self, out):
        return out


# ---------------------------------------------------------------------------


class Decompose(InProcess):
    """Greedy spread decomposition (max_ratio_set) in the ambient S_6."""

    name = "decompose"
    trace_jobs = 8
    N = 6
    R = Fraction(5, 2)
    Q = 4
    HM_SIGMA = (2, 1, 3, 4, 5, 6)
    RANDOM_SIZE = 60

    def setup(self, seed, workdir):
        import permemc.construct as construct
        import permemc.core as core
        import permemc.spread as spread

        self.core, self.spread, self.seed = core, spread, seed
        self.ambient = core.symmetric_group(self.N)
        self.star = construct.make_star(self.N, (1, 1))
        self.hm = construct.make_hm(self.N, self.HM_SIGMA)

    def prepare_oracle(self):
        pass

    def job_input(self, index):
        rng = job_rng(self.name, self.seed, index)
        n = self.N
        rho, pi = random_perm(rng, n), random_perm(rng, n)
        rho2, pi2 = random_perm(rng, n), random_perm(rng, n)
        return {
            "star": [oracles.relabel(rho, p, pi) for p in self.star.members],
            "star_support": [oracles.cell_image(rho, (1, 1), pi)],
            "hm": [oracles.relabel(rho2, p, pi2) for p in self.hm.members],
            "hm_support": [oracles.cell_image(rho2, (1, 1), pi2)],
            "hm_remainder": [oracles.relabel(rho2, self.HM_SIGMA, pi2)],
            "random": rng.sample(self.ambient.members, self.RANDOM_SIZE),
        }

    def run(self, inp, tracer=None):
        core, spread = self.core, self.spread
        out = {}
        for key in ("star", "hm", "random"):
            fam = core.Family(self.N, tuple(inp[key]))
            res = spread.spread_approximate(fam, self.ambient, self.R, self.Q)
            chk = spread.verify_approximation(res, fam, self.ambient, self.R, self.Q)
            out[key] = (fam, res, chk)
        return out

    def check(self, inp, out):
        problems = []
        expected_supports = {
            "star": [inp["star_support"]],
            "hm": [inp["hm_support"]],
            "random": [[]],
        }
        for key, (fam, res, chk) in out.items():
            if not chk.ok:
                problems.append(f"{key}: verify_approximation failed")
            if set(fam.members) != set(inp[key]):
                problems.append(f"{key}: Family changed its members")
            if [cells_sorted(s) for s in res.supports] != [cells_sorted(s) for s in expected_supports[key]]:
                problems.append(f"{key}: unexpected supports {res.supports}")
            if list(res.branches) != list(res.supports):
                problems.append(f"{key}: branches do not follow the supports")
            seen = set(res.remainder.members)
            for support, branch in res.branches.items():
                for p in branch.members:
                    if p in seen:
                        problems.append(f"{key}: branches overlap")
                        break
                    if not oracles.contains_all(p, support):
                        problems.append(f"{key}: a branch member misses its support")
                        break
                    seen.add(p)
            if seen != set(fam.members):
                problems.append(f"{key}: branches and remainder do not partition F")
        expected_remainder = {"star": [], "hm": inp["hm_remainder"], "random": []}
        for key, (fam, res, chk) in out.items():
            if list(res.remainder.members) != expected_remainder[key]:
                problems.append(f"{key}: unexpected remainder")
        return problems

    def canonical(self, out):
        return {
            key: {
                "supports": [cells_sorted(s) for s in res.supports],
                "branch_sizes": [len(b) for b in res.branches.values()],
                "remainder": [list(p) for p in res.remainder.members],
                "verification": chk.to_json(),
            }
            for key, (fam, res, chk) in out.items()
        }


# ---------------------------------------------------------------------------


class Query(InProcess):
    """Many read-only analyses of one long-lived relabelled family."""

    name = "query"
    trace_jobs = 12
    N = 6
    S = 3
    R = 2
    Q_CELLS = 1
    BASE_SIGMA = (3, 1, 2, 4, 5, 6)
    PROBES = 200
    CELL_SETS = 20

    def setup(self, seed, workdir):
        import permemc.construct as construct
        import permemc.core as core
        import permemc.solvers as solvers
        import permemc.spread as spread

        self.core, self.construct, self.solvers, self.spread = core, construct, solvers, spread
        self.seed = seed
        self.ambient = core.symmetric_group(self.N)
        self.base = construct.make_hm_star_union(self.N, self.S, self.BASE_SIGMA)

    def prepare_oracle(self):
        base = self.base
        value, witness = self.spread.exact_spreadness(base)
        slack = self.solvers.star_union_slack_sides(base, self.ambient, self.S)
        self.expected = {
            "size": len(base),
            "nu": self.solvers.matching_number(base)[0],
            "tau": self.solvers.covering_number(base)[0],
            "spreadness": value,
            "is_r_spread": self.spread.is_r_spread(base, self.R).is_spread,
            "is_rq_spread": self.spread.is_rq_spread(base, self.R, self.Q_CELLS).is_spread,
            "slack": (slack.best_union_size, slack.holds),
        }
        self.all_perms = list(itertools.permutations(range(1, self.N + 1)))

    def _unrelabelled(self, sigma):
        """make_hm_star_union(6, 3, sigma), written out from its definition."""
        return {
            p
            for p in self.all_perms
            if p[0] in range(2, self.S) or (p[0] == 1 and not oracles.disjoint(p, sigma))
        } | {sigma}

    def job_input(self, index):
        rng = job_rng(self.name, self.seed, index)
        n = self.N
        while True:
            sigma = random_perm(rng, n)
            if sigma[0] >= self.S:
                break
        rho, pi = random_perm(rng, n), random_perm(rng, n)
        members = sorted(oracles.relabel(rho, p, pi) for p in self._unrelabelled(sigma))
        member_set = set(members)
        outside = [p for p in self.all_perms if p not in member_set]
        half = self.PROBES // 2
        probes = [(p, True) for p in rng.sample(members, half)] + [(p, False) for p in rng.sample(outside, half)]
        rng.shuffle(probes)
        cell_sets = []
        for k in range(self.CELL_SETS):
            p = rng.choice(members)
            rows = rng.sample(range(1, n + 1), 1 + k % 2)
            cell_sets.append(tuple(sorted((r, p[r - 1]) for r in rows)))
        return {
            "sigma": sigma,
            "rho": rho,
            "pi": pi,
            "members": member_set,
            "probes": [p for p, _ in probes],
            "probe_answers": [a for _, a in probes],
            "cell_sets": cell_sets,
        }

    def run(self, inp, tracer=None):
        construct, solvers, spread, core = self.construct, self.solvers, self.spread, self.core
        base = construct.make_hm_star_union(self.N, self.S, inp["sigma"])
        fam = construct.apply_isomorphism(inp["rho"], base, inp["pi"])
        return {
            "family": fam,
            "nu": solvers.matching_number(fam),
            "tau": solvers.covering_number(fam),
            "coset": solvers.coset_certificate(fam, self.S),
            "slack": solvers.star_union_slack_sides(fam, self.ambient, self.S),
            "is_r_spread": spread.is_r_spread(fam, self.R),
            "spreadness": spread.exact_spreadness(fam),
            "is_rq_spread": spread.is_rq_spread(fam, self.R, self.Q_CELLS),
            "contains": [p in fam for p in inp["probes"]],
            "subfamilies": [core.subfamily_containing(fam, cells) for cells in inp["cell_sets"]],
        }

    def check(self, inp, out):
        problems = []
        exp = self.expected
        members = inp["members"]
        size = len(members)
        if set(out["family"].members) != members or size != exp["size"]:
            problems.append("the relabelled family has the wrong members")
        nu, nu_witness = out["nu"]
        if nu != exp["nu"] or len(nu_witness) != nu:
            problems.append("matching number differs from the unrelabelled family")
        if any(p not in members for p in nu_witness) or any(
            not oracles.disjoint(a, b) for a, b in itertools.combinations(nu_witness, 2)
        ):
            problems.append("matching witness is not pairwise disjoint members")
        tau, tau_witness = out["tau"]
        if tau != exp["tau"] or len(tau_witness) != tau:
            problems.append("covering number differs from the unrelabelled family")
        if any(not any(p[r - 1] == c for r, c in tau_witness) for p in members):
            problems.append("covering witness misses a member")
        coset = out["coset"]
        if not coset.certified or coset.family_size != size:
            problems.append("coset certificate not certified although nu < s")
        slack = out["slack"]
        if (slack.best_union_size, slack.holds) != exp["slack"] or slack.lhs != size:
            problems.append("star-union slack sides differ from the unrelabelled family")
        rep = out["is_r_spread"]
        if rep.is_spread != exp["is_r_spread"]:
            problems.append("is_r_spread verdict differs from the unrelabelled family")
        if not rep.is_spread:
            count = sum(1 for p in members if oracles.contains_all(p, rep.witness))
            if Fraction(count, size) != rep.witness_ratio or count * self.R ** len(rep.witness) <= size:
                problems.append("is_r_spread witness does not violate r-spreadness")
        value, witness = out["spreadness"]
        count = sum(1 for p in members if oracles.contains_all(p, witness))
        if value != exp["spreadness"] or not count or (size / count) ** (1.0 / len(witness)) != value:
            problems.append("exact spreadness or its witness is wrong")
        if out["is_rq_spread"].is_spread != exp["is_rq_spread"]:
            problems.append("is_rq_spread verdict differs from the unrelabelled family")
        if out["contains"] != inp["probe_answers"]:
            problems.append("membership answers are wrong")
        for cells, sub in zip(inp["cell_sets"], out["subfamilies"]):
            if set(sub.members) != {p for p in members if oracles.contains_all(p, cells)}:
                problems.append("subfamily_containing returned the wrong members")
                break
        return problems

    def canonical(self, out):
        rep, rq = out["is_r_spread"], out["is_rq_spread"]
        return {
            "size": len(out["family"]),
            "nu": [out["nu"][0], [list(p) for p in out["nu"][1]]],
            "tau": [out["tau"][0], [list(c) for c in out["tau"][1]]],
            "coset": out["coset"].to_json(),
            "slack": out["slack"].to_json(),
            "is_r_spread": rep.to_json(),
            "spreadness": [out["spreadness"][0], [list(c) for c in out["spreadness"][1]]],
            "is_rq_spread": [rq.is_spread, None if rq.restriction is None else [list(c) for c in rq.restriction]],
            "contains": [int(x) for x in out["contains"]],
            "subfamilies": [len(s) for s in out["subfamilies"]],
        }


# ---------------------------------------------------------------------------


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(
        {
            "PYTHONPATH": str(root / "src"),
            "PYTHONHASHSEED": "0",
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        }
    )
    return env


def wait_child(argv, env, cwd, stdout_path, stderr_path):
    """Run one child to completion; returns (exit code, its resource usage)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


COMMANDS = ("counts", "permanent", "nu", "tau", "spread", "approx", "extremal", "crossmatch", "mc-spread")


class Cli:
    """One ``python -m permemc.cli`` child per job: start-up, import, argparse, files, JSON."""

    name = "cli"
    in_process = False
    block = len(COMMANDS)  # a run ends on a whole block, so every command runs equally often
    trace_jobs = 2 * block
    VARIANTS = 3
    N = 5
    S = 3
    BASE_SIGMA = (3, 1, 2, 4, 5)
    MATRIX_N = 12
    MATRIX_ONES = 0.8

    def __init__(self, root: Path):
        self.env = child_env(root)
        self.max_child_rss_kib = 0

    def setup(self, seed, workdir):
        import permemc.construct as construct
        import permemc.io as pio

        self.seed, self.workdir = seed, Path(workdir)
        rng = job_rng(self.name, seed, -1)
        base = construct.make_hm_star_union(self.N, self.S, self.BASE_SIGMA)
        self.argvs = {}
        self.matrices = {}
        for v in range(self.VARIANTS):
            fam = construct.apply_isomorphism(random_perm(rng, self.N), base, random_perm(rng, self.N))
            fam_path = self.workdir / f"family{v}.txt"
            pio.save_family(fam, fam_path)
            rows = tuple(
                tuple(1 if rng.random() < self.MATRIX_ONES else 0 for _ in range(self.MATRIX_N))
                for _ in range(self.MATRIX_N)
            )
            matrix_path = self.workdir / f"matrix{v}.txt"
            pio.save_matrix(pio.ZeroOneMatrix(rows), matrix_path)
            self.matrices[v] = rows
            star_paths = []
            for k in range(3):
                cell = (rng.randint(1, self.N), rng.randint(1, self.N))
                star = construct.make_star(self.N, cell)
                star = construct.apply_isomorphism(random_perm(rng, self.N), star, random_perm(rng, self.N))
                path = self.workdir / f"star{v}_{k}.txt"
                pio.save_family(star, path)
                star_paths.append(str(path))
            while True:
                sigma = random_perm(rng, self.N)
                if sigma[0] >= self.S:
                    break
            fam_arg = ["--family", str(fam_path)]
            self.argvs.update(
                {
                    ("counts", v): ["counts", "--n", str(rng.randint(30, 90))],
                    ("permanent", v): ["permanent", "--matrix", str(matrix_path)],
                    ("nu", v): ["nu", *fam_arg],
                    ("tau", v): ["tau", *fam_arg],
                    ("spread", v): ["spread", *fam_arg, "--r", "2", "--exact"],
                    ("approx", v): ["approx", *fam_arg, "--ambient", "sigma", "--r", "5/2", "--q", "4"],
                    ("extremal", v): [
                        "extremal", "--kind", "theorem3", "--n", str(self.N), "--s", str(self.S),
                        "--sigma", ",".join(map(str, sigma)),
                    ],
                    ("crossmatch", v): ["crossmatch", "--families", *star_paths],
                    ("mc-spread", v): [
                        "mc-spread", *fam_arg, "--p", "1/2", "--samples", "20000",
                        "--seed", str(rng.randint(0, 10**6)),
                    ],
                }
            )

    def prepare_oracle(self):
        import permemc.cli as cli

        self.reference = {}
        for key, argv in self.argvs.items():
            buf = _stdio.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(_stdio.StringIO()):
                code = cli.main(list(argv))
            self.reference[key] = (code, json.loads(buf.getvalue()))

    def job_input(self, index):
        """Job ``index`` of a seeded order made of blocks that hold each command once."""
        block, pos = divmod(index, self.block)
        order = list(COMMANDS)
        job_rng(self.name, self.seed, block).shuffle(order)
        key = (order[pos], block % self.VARIANTS)
        return {"key": key, "argv": self.argvs[key]}

    def run(self, inp, tracer=None):
        out_path, err_path = self.workdir / "child.out", self.workdir / "child.err"
        report = self.workdir / "child.trace.json"
        if tracer is None:
            argv = [sys.executable, "-m", "permemc.cli", *inp["argv"]]
        else:
            argv = [sys.executable, str(HERE / "launcher.py"), str(report), *inp["argv"]]
        code, usage = wait_child(argv, self.env, self.workdir, out_path, err_path)
        out = {
            "code": code,
            "child_cpu_s": usage.ru_utime + usage.ru_stime,
            "stdout": out_path.read_text(),
            "stderr": err_path.read_text(),
        }
        if tracer is None:
            self.max_child_rss_kib = max(self.max_child_rss_kib, usage.ru_maxrss)
        else:
            out["trace"] = json.loads(report.read_text())
        return out

    def check(self, inp, out):
        key = inp["key"]
        ref_code, ref_json = self.reference[key]
        if out["code"] != 0 or ref_code != 0:
            return [f"{key}: exit code {out['code']} (in-process {ref_code})"]
        if "Traceback" in out["stderr"]:
            return [f"{key}: traceback on stderr"]
        try:
            payload = json.loads(out["stdout"])
        except ValueError:
            return [f"{key}: stdout is not JSON"]
        problems = []
        if payload != ref_json:
            problems.append(f"{key}: JSON differs from the in-process reference")
        if key[0] == "permanent" and payload["permanent"] != oracles.subset_dp_permanent(self.matrices[key[1]]):
            problems.append(f"{key}: permanent disagrees with the subset-DP permanent")
        if key[0] == "counts" and payload["d_n"] != oracles.derangement_number(payload["n"]):
            problems.append(f"{key}: d_n is wrong")
        return problems

    def canonical(self, out):
        return json.loads(out["stdout"]) if out["code"] == 0 else {"code": out["code"]}

    def peak_rss_mb(self) -> float:
        return self.max_child_rss_kib / 1024.0


def make(name: str, root: Path):
    if name == "cli":
        return Cli(root)
    return {"count": Count, "decompose": Decompose, "query": Query}[name]()


NAMES = ("count", "decompose", "query", "cli")
