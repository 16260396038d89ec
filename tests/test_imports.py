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
    "core": "ENUMERATION_CAP Cell DimensionMismatch Family Perm cell_masks compose contains_cells derangements "
    "double_derangements enumerate_family family graph identity intersects inverse is_derangement "
    "is_partial_permutation is_permutation partial_permutation set_matching_number subfamily_containing "
    "subfamily_containing_any symmetric_group trace",
    "counting": "ZeroOneMatrix complement_of_identity cycle_cover_zero_matrix derangement_containment_count "
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
    modules = ["permemc", "permemc._flat", "permemc.cli", "permemc.core", "permemc.counting", "permemc.io"]
    assert _child("import permemc.cli; print(json.dumps(executed()))") == modules


@pytest.mark.parametrize("command, runs", [("counts", "permemc.counting"), ("nu", "permemc.solvers")])
def test_a_command_leaves_spread_construct_and_verify_unexecuted(tmp_path, command, runs):
    path = tmp_path / "sigma3.family.txt"
    save_family(symmetric_group(3), path)
    args = {"counts": ["--n", "7"], "nu": ["--family", str(path)]}[command]
    code, modules = _child(
        "from permemc.cli import main; code = main(sys.argv[1:]); print(json.dumps([code, executed()]))", command, *args
    )
    assert code == 0 and runs in modules
    assert not {"permemc.spread", "permemc.construct", "permemc.verify"} & set(modules)


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
