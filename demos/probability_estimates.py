#!/usr/bin/env python3
"""Containment probabilities under random cell deletion: the exact
Shannon expansion against seeded Monte Carlo, and the spread success
bound."""

import math
from fractions import Fraction

from permemc import (
    containment_probability,
    family,
    spread_lemma_bound,
    symmetric_group,
)

print("=== exact containment probabilities ===")
lone = family(4, [(2, 1, 4, 3)])
est = containment_probability(lone, Fraction(1, 3))
print(f"single member, p = 1/3: {est.value} = (1/3)^4")

est = containment_probability(symmetric_group(2), Fraction(1, 2))
print(f"Sigma_2, p = 1/2: {est.value} (= 2 p^2 - p^4)")

est = containment_probability(symmetric_group(3), Fraction(1, 2))
print(f"Sigma_3, p = 1/2: {est.value} = {float(est.value):.6f}")

print()
print("=== Monte Carlo from random.Random(seed) ===")
exact = containment_probability(symmetric_group(3), Fraction(1, 2)).value
for seed in (0, 1, 2):
    mc = containment_probability(symmetric_group(3), Fraction(1, 2), "monte_carlo", samples=200_000, seed=seed)
    sigmas = abs(mc.value - float(exact)) / mc.standard_error
    print(f"seed {seed}: estimate {mc.value:.5f} +- {mc.standard_error:.5f} ({sigmas:.2f} standard errors off)")
rerun = containment_probability(symmetric_group(3), Fraction(1, 2), "monte_carlo", samples=200_000, seed=0)
print(f"re-running seed 0 reproduces the estimate bit-for-bit: {rerun.value:.5f}")

print()
print("=== the spread success bound 1 - (2/log2(r d))^beta k ===")
k = 8
value = spread_lemma_bound(k, 16, math.log2(2 * k), 1)
print(f"r*delta = 16, beta = log2(2k), k = {k}: bound = {value} (exactly 1/2)")
print(f"r*delta = 2: {spread_lemma_bound(4, 2, 2.0, 1)} (vacuous)")
for n in (4, 6, 8, 10):
    delta = Fraction(1, 16 * math.ceil(math.log2(2 * n)))
    value = spread_lemma_bound(n, Fraction(45, 10), math.log2(2 * n), delta)
    print(f"desk-scale n = {n}: bound is {'vacuous' if value is None else value} at every enumerable spreadness level")
