"""permemc: exact computations for families of permutations.

Permutations of [n] viewed as n-cell subsets of the [n] x [n] grid, with
exact kernels for derangement/permanent counting, an exhaustive spreadness
calculus with a greedy spread-approximation decomposition, exact matching
and covering solvers with certificates, and the extremal star-union and
pinned-family constructions.

``import permemc`` compiles none of its modules.  Each of ``construct``,
``core``, ``counting``, ``io``, ``solvers`` and ``spread`` is registered as
a ``_LazyModule`` and executes when one of its attributes is first read, so
a command or caller compiles only the modules it runs, and a fault in a
module surfaces at that first use.  That first use is safe from any thread.
"""

import sys
import threading
from importlib.util import find_spec, module_from_spec
from types import ModuleType as _ModuleType

__version__ = "0.1.0"

# module -> the names this package re-exports from it
_EXPORTS = {
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
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = [*_EXPORTS, *_HOME]

_EXECUTING = threading.RLock()


class _LazyModule(_ModuleType):
    """A module of the package that nothing has read yet.  Its first
    attribute read executes it while holding the package's lock, so a read
    from another thread waits until it is done; the loader's own reads of
    the module, in the thread that holds the lock, see it as it stands."""

    def __getattribute__(self, name):
        with _EXECUTING:
            if type(self) is _LazyModule:
                self.__class__ = _Executing
                try:
                    self.__spec__.loader.exec_module(self)
                finally:
                    self.__class__ = _ModuleType
        return _ModuleType.__getattribute__(self, name)


class _Executing(_LazyModule):
    """A module whose first use is executing it."""


# Each module goes in sys.modules, so that an import of it finds the lazy one,
# and on the package, so that ``from . import spread`` binds it unexecuted.
for _module in _EXPORTS:
    _spec = find_spec(f"{__name__}.{_module}")
    sys.modules[_spec.name] = globals()[_module] = module_from_spec(_spec)
    globals()[_module].__class__ = _LazyModule
del sys, threading, find_spec, module_from_spec, _module, _spec


def __getattr__(name):
    """A re-exported name, read from its module at each access (so a patched
    module attribute shows here too); the module executes on first use."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *_HOME})
