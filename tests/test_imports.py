"""``import permemc`` executes no module until one of its names is read, so
each command runs only the modules it needs.  Every check runs in a fresh
interpreter; a module counts as executed once ``sys.modules`` holds it as a
plain module (a lazy one that nothing has read yet has a subclass type)."""

import json
import os
import subprocess
import sys

import pytest

import permemc
from permemc import symmetric_group
from permemc.io import save_family

#: The public names of ``permemc``, by the module that defines them.
PUBLIC = {
    "construct": "StarUnion apply_isomorphism derangement_star make_hm make_hm_star_union make_star "
    "make_star_union star_center_image",
    "core": "ENUMERATION_CAP Cell DimensionMismatch Family Perm ZeroOneMatrix cell_masks compose contains_cells "
    "derangements double_derangements enumerate_family family graph identity intersects inverse is_derangement "
    "is_partial_permutation is_permutation partial_permutation set_matching_number subfamily_containing "
    "subfamily_containing_any symmetric_group trace",
    "counting": "complement_of_identity cycle_cover_zero_matrix derangement_containment_count "
    "derangement_count derangement_count_inclusion_exclusion double_derangement_count "
    "near_full_permanent_bound near_full_permanent_check permanent permanent_brute permanent_ryser "
    "pointed_derangement_count round_factorial_over_e",
    "io": "",
    "solvers": "classify_cross_free_families containment_implies_matching_check coset_certificate "
    "covering_number cross_matching matching_number star_union_slack_sides support_union_bound_sides",
    "spread": "ApproximationResult SpreadReport containment_probability exact_spreadness is_r_spread "
    "is_rq_spread max_ratio_set spread_approximate spread_lemma_bound verify_approximation",
}
NAMES = sorted({*PUBLIC, *" ".join(PUBLIC.values()).split()})

PRELUDE = """\
import json, sys, types
def executed():
    return sorted(n for n, m in sys.modules.items() if n.split(".")[0] == "permemc" and type(m) is types.ModuleType)
"""


def _child(code, *args):
    """Run ``code`` after ``PRELUDE`` in a fresh interpreter on the tests'
    permemc and return the JSON of its last line of output."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(permemc.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + code, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_permemc_executes_no_submodule():
    assert _child("import permemc; print(json.dumps(executed()))") == ["permemc"]


def test_import_cli_executes_only_what_parsing_needs():
    modules = ["permemc", "permemc._flat", "permemc.cli", "permemc.core", "permemc.io"]
    assert _child("import permemc.cli; print(json.dumps(executed()))") == modules


def _command_modules(tmp_path, command, *args):
    """The modules executed by ``cli.main`` on ``command``, where ``{family}``
    in ``args`` names a saved Σ_3; the command must exit 0."""
    path = tmp_path / "sigma3.family.txt"
    save_family(symmetric_group(3), path)
    args = [arg.format(family=path) for arg in args]
    code, modules = _child(
        "from permemc.cli import main; code = main(sys.argv[1:]); print(json.dumps([code, executed()]))", command, *args
    )
    assert code == 0
    return set(modules)


#: (command, its arguments, a module it runs, the modules it leaves unexecuted)
COMMANDS = [
    ("counts", "--n 7", "counting", "spread construct verify"),
    ("nu", "--family {family}", "solvers", "counting spread construct verify"),
    ("tau", "--family {family}", "solvers", "counting spread construct verify"),
    ("crossmatch", "--families {family} {family}", "solvers", "counting spread construct verify"),
    ("extremal", "--kind stars --n 4 --s 3", "construct", "counting spread verify"),
    ("spread", "--family {family} --r 2 --exact", "spread", "counting"),
    ("approx", "--family {family} --r 2 --q 2", "spread", "counting"),
    ("mc-spread", "--family {family} --p 1/3 --samples 10 --seed 1", "spread", "counting"),
]


@pytest.mark.parametrize("command, args, runs, unexecuted", COMMANDS, ids=[row[0] for row in COMMANDS])
def test_a_command_executes_no_module_it_does_not_run(tmp_path, command, args, runs, unexecuted):
    modules = _command_modules(tmp_path, command, *args.split())
    assert f"permemc.{runs}" in modules and not {f"permemc.{name}" for name in unexecuted.split()} & modules


def test_star_import_and_dir_give_the_public_names():
    star, listed = _child(
        "ns = {}; exec('from permemc import *', ns); import permemc; "
        "print(json.dumps([sorted(k for k in ns if k != '__builtins__'), "
        "[k for k in dir(permemc) if not k.startswith('_')]]))"
    )
    assert star == listed == NAMES and len(NAMES) == 71


def test_every_public_name_is_its_home_modules_object():
    homes = {name: module for module, names in PUBLIC.items() for name in names.split()}
    wrong = _child(
        "import permemc; homes = json.loads(sys.argv[1]); "
        "print(json.dumps([name for name in permemc.__all__ if getattr(permemc, name) is not "
        "(sys.modules[f'permemc.{name}'] if name not in homes else getattr(sys.modules[f'permemc.{homes[name]}'], name))]))",
        json.dumps(homes),
    )
    assert wrong == []


def test_first_use_from_several_threads_at_once_waits_for_the_module():
    """Four threads held at a barrier first-read one name of a fresh package
    at once, 20 times: each read waits until the module has executed."""
    errors = _child(
        """\
import threading
errors = []
for _ in range(20):
    for name in [name for name in sys.modules if name.split(".")[0] == "permemc"]:
        del sys.modules[name]
    import permemc
    barrier = threading.Barrier(4)
    def read():
        barrier.wait()
        try:
            permemc.spread.is_r_spread
        except Exception as exc:
            errors.append(repr(exc))
    threads = [threading.Thread(target=read) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
print(json.dumps(errors))
"""
    )
    assert errors == []
