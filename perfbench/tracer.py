"""Layer spans recorded from outside the program.

``Tracer.install()`` replaces the listed public functions of each permemc
module, and the ``Family`` methods, with timing wrappers.  A function is
replaced in every permemc module namespace that binds it, so a call from
one layer into another (``spread`` calling ``core.subfamily_containing``)
nests under its caller.  Per-element helpers (``graph``, ``contains_cells``,
``intersects``, ``is_permutation``, ...) are left alone: their time stays
in the caller's self time.

Each span is (id, parent id, name, start, end, job), with start and end on
the thread's CPU clock (``time.thread_time``); spans are kept in memory and
written out by the caller.  Self time is a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import math
import sys
import time

# layer -> public functions, each wrapped as a span named "<layer>.<function>".
LAYER_FUNCTIONS = {
    "counting": [
        "derangement_count",
        "derangement_count_inclusion_exclusion",
        "round_factorial_over_e",
        "pointed_derangement_count",
        "permanent",
        "permanent_brute",
        "permanent_ryser",
        "derangement_containment_count",
        "double_derangement_count",
        "near_full_permanent_bound",
        "near_full_permanent_check",
        "complement_of_identity",
        "cycle_cover_zero_matrix",
        "_reduced_forbidden_matrix",
        "_rows_of",
    ],
    "spread": [
        "is_r_spread",
        "exact_spreadness",
        "is_rq_spread",
        "max_ratio_set",
        "spread_approximate",
        "verify_approximation",
        "containment_probability",
        "spread_lemma_bound",
    ],
    "solvers": [
        "matching_number",
        "covering_number",
        "coset_certificate",
        "cross_matching",
        "classify_cross_free_families",
        "containment_implies_matching_check",
        "support_union_bound_sides",
        "star_union_slack_sides",
    ],
    "core": [
        "enumerate_family",
        "symmetric_group",
        "derangements",
        "double_derangements",
        "subfamily_containing",
        "subfamily_containing_any",
        "trace",
        "set_matching_number",
        "family",
        "partial_permutation",
    ],
    "construct": [
        "make_star",
        "derangement_star",
        "make_star_union",
        "make_hm",
        "make_hm_star_union",
        "apply_isomorphism",
        "star_center_image",
        "expected_hm_star_union_size",
    ],
    "io": [
        "parse_family",
        "load_family",
        "format_family",
        "save_family",
        "parse_matrix",
        "load_matrix",
        "save_matrix",
        "parse_partial_permutation",
        "save_report",
        "family_json",
    ],
    "cli": ["main"],
}

# Family methods, as (method, span name).
FAMILY_METHODS = [
    ("__post_init__", "core.family_build"),
    ("__contains__", "core.contains"),
    ("graphs", "core.graphs"),
    ("restrict", "core.restrict"),
    ("difference", "core.difference"),
    ("union", "core.union"),
    ("issubset", "core.issubset"),
]

LAYERS = tuple(LAYER_FUNCTIONS)


def _matrix_size(matrix) -> int:
    return matrix.n if hasattr(matrix, "n") else len(matrix)


def _subsets_enumerated(args, kwargs) -> int:
    members = args[0]
    max_size = args[1] if len(args) > 1 else kwargs.get("max_size")
    total = 0
    for m in members:
        top = len(m) if max_size is None else min(len(m), max_size)
        total += sum(math.comb(len(m), t) for t in range(1, top + 1))
    return total


# Work counters derived from a call's inputs or result: span name ->
# (counter name, function of (args, kwargs, result)).
WORK = {
    "counting.permanent_ryser": (
        "counting.ryser_steps",
        lambda a, k, r: (1 << _matrix_size(a[0])) - 1,
    ),
    "spread.spread_approximate": ("spread.supports", lambda a, k, r: len(r.supports)),
}

# Counted but not timed: an internal helper whose time stays in its caller.
COUNT_ONLY = {("spread", "_distinct_trace_counts"): ("spread.subsets", _subsets_enumerated)}


class Tracer:
    """Records nested spans while installed; aggregates self time per span name."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.job = None
        self._stack: list[list] = []  # [span id, start, child time]
        self._next_id = 0
        self._patched: list[tuple] = []
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.top_level_s = 0.0

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn):
        stack = self._stack
        perf = time.thread_time
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, perf(), 0.0]
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                else:
                    self.top_level_s += duration
                self.spans.append((span_id, parent, name, frame[1], end, self.job))
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[2]
                self.calls[name] = self.calls.get(name, 0) + 1
                if not ok:
                    self.failed[name] = self.failed.get(name, 0) + 1
            if work is not None:
                counter, fn_work = work
                self.counters[counter] = self.counters.get(counter, 0) + fn_work(args, kwargs, result)
            return result

        return wrapper

    def _count_only(self, counter, measure, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[counter] = self.counters.get(counter, 0) + measure(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _patch_everywhere(self, original, replacement):
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "permemc" or mod_name.startswith("permemc.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def install(self) -> None:
        import permemc.cli  # noqa: F401  (binds every module the CLI reaches)
        from permemc.core import Family

        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules[f"permemc.{layer}"]
            for name in names:
                original = getattr(module, name)
                self._patch_everywhere(original, self._wrap(f"{layer}.{name}", original))
        for (layer, name), (counter, measure) in COUNT_ONLY.items():
            module = sys.modules[f"permemc.{layer}"]
            original = getattr(module, name)
            self._patch_everywhere(original, self._count_only(counter, measure, original))
        for method, span in FAMILY_METHODS:
            original = vars(Family)[method]
            setattr(Family, method, self._wrap(span, original))
            self._patched.append((Family, method, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reading ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates so far: self time, calls and failures per span name,
        work counters, and the time covered by top-level spans."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "failed": dict(self.failed),
            "counters": dict(self.counters),
            "top_level_s": self.top_level_s,
        }


def diff(after: dict, before: dict) -> dict:
    """Difference of two snapshots."""
    out = {}
    for kind, value in after.items():
        if isinstance(value, dict):
            out[kind] = {k: v - before[kind].get(k, 0) for k, v in value.items() if v != before[kind].get(k, 0)}
        else:
            out[kind] = value - before[kind]
    return out
