"""permemc: exact computations for families of permutations.

Permutations of [n] viewed as n-cell subsets of the [n] x [n] grid, with
exact kernels for derangement/permanent counting, an exhaustive spreadness
calculus with a greedy spread-approximation decomposition, exact matching
and covering solvers with certificates, and the extremal star-union and
pinned-family constructions.
"""

from .construct import (
    StarUnion,
    apply_isomorphism,
    derangement_star,
    make_hm,
    make_hm_star_union,
    make_star,
    make_star_union,
    star_center_image,
)
from .core import (
    ENUMERATION_CAP,
    Cell,
    DimensionMismatch,
    Family,
    Perm,
    cell_masks,
    compose,
    contains_cells,
    derangements,
    double_derangements,
    enumerate_family,
    family,
    graph,
    identity,
    intersects,
    inverse,
    is_derangement,
    is_partial_permutation,
    is_permutation,
    partial_permutation,
    set_matching_number,
    subfamily_containing,
    subfamily_containing_any,
    symmetric_group,
    trace,
)
from .counting import (
    ZeroOneMatrix,
    complement_of_identity,
    cycle_cover_zero_matrix,
    derangement_containment_count,
    derangement_count,
    derangement_count_inclusion_exclusion,
    double_derangement_count,
    near_full_permanent_bound,
    near_full_permanent_check,
    permanent,
    permanent_brute,
    permanent_ryser,
    pointed_derangement_count,
    round_factorial_over_e,
)
from .solvers import (
    classify_cross_free_families,
    containment_implies_matching_check,
    coset_certificate,
    covering_number,
    cross_matching,
    matching_number,
    star_union_slack_sides,
    support_union_bound_sides,
)
from .spread import (
    ApproximationResult,
    SpreadReport,
    containment_probability,
    exact_spreadness,
    is_r_spread,
    is_rq_spread,
    max_ratio_set,
    spread_approximate,
    spread_lemma_bound,
    verify_approximation,
)

__version__ = "0.1.0"
