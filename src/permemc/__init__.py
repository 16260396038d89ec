"""permemc: exact computations for families of permutations.

Permutations of [n] viewed as n-cell subsets of the [n] x [n] grid, with
exact kernels for derangement/permanent counting, an exhaustive spreadness
calculus with a greedy spread-approximation decomposition, exact matching
and covering solvers with certificates, and the extremal star-union and
pinned-family constructions.

``import permemc`` compiles none of its modules.  Each of ``construct``,
``core``, ``counting``, ``io``, ``solvers`` and ``spread`` is registered
through ``importlib.util.LazyLoader`` and executes when one of its names is
first read, so a command or caller compiles only the modules it runs, and a
fault in a module surfaces at that first use.  ``LazyLoader`` takes a lock
only from CPython 3.12.3 and 3.13; before that, a module's first use must
not come from two threads at once, so import the modules the threads need
(``import permemc.solvers``) before starting them.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

# module -> the names this package re-exports from it
_EXPORTS = {
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
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = [*_EXPORTS, *_HOME]

# Each module goes in sys.modules, so that an import of it finds the lazy one,
# and on the package, so that ``from . import spread`` binds it unexecuted.
for _module in _EXPORTS:
    _spec = find_spec(f"{__name__}.{_module}")
    _spec.loader = LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_module] = module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_module])
del sys, LazyLoader, find_spec, module_from_spec, _module, _spec


def __getattr__(name):
    """A re-exported name, read from its module at each access (so a patched
    module attribute shows here too); the module executes on first use."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *_HOME})
