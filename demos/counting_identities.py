#!/usr/bin/env python3
"""Counting kernels: derangement numbers three ways, exact permanents, and
the near-full permanent lower bound.

Everything printed here is computed exactly (big integers and rationals);
the three derangement formulas are genuinely independent code paths.
"""

from fractions import Fraction

from permemc import (
    complement_of_identity,
    cycle_cover_zero_matrix,
    derangement_count,
    derangement_count_inclusion_exclusion,
    derangements,
    double_derangement_count,
    near_full_permanent_bound,
    near_full_permanent_check,
    permanent_brute,
    permanent_ryser,
    pointed_derangement_count,
    round_factorial_over_e,
)

print("=== derangement numbers, three independent routes ===")
print(f"{'n':>3} {'recurrence':>12} {'incl-excl':>12} {'round(n!/e)':>12}")
for n in range(1, 13):
    print(
        f"{n:>3} {derangement_count(n):>12} "
        f"{derangement_count_inclusion_exclusion(n):>12} {round_factorial_over_e(n):>12}"
    )

print()
print("=== pointed derangement numbers d_{n,1} = d_{n-1} + d_{n-2} ===")
for n in range(2, 9):
    through_cell = sum(1 for p in derangements(n) if p[0] == 2) if n <= 8 else None
    print(f"n={n}: d_n1 = {pointed_derangement_count(n)} (enumeration through (1,2): {through_cell})")

print()
print("=== permanents: the rook count (Glynn past its budget) vs the N!-sum oracle ===")
for n in (4, 5, 6):
    m = complement_of_identity(n)
    print(f"perm(J - I), N={n}: ryser={permanent_ryser(m)} brute={permanent_brute(m)} d_n={derangement_count(n)}")

print()
print("=== the near-full lower bound (1 - 2/N)^N N! ===")
m = cycle_cover_zero_matrix([6])
check = near_full_permanent_check(m)
print(f"6x6 zeros on identity + 6-cycle: permanent = {check.permanent}")
print(f"two-regular bound = {check.bound} = {float(check.bound):.3f}  -> holds: {check.holds}")
print(f"at N = 400 the bound exceeds N!/7.5: {(Fraction(398, 400) ** 400 > Fraction(2, 15))}")

print()
print("=== double derangements: permutations avoiding two forbidden maps ===")
sigma = (2, 1, 4, 3)
print(f"derangements of [4] disjoint from {sigma}: {double_derangement_count(4, sigma)}")
sigma = tuple(list(range(2, 11)) + [1])
count = double_derangement_count(10, sigma)
bound = near_full_permanent_bound(10, "two_regular")
print(f"n=10, sigma the full cycle: count = {count}, bound = {float(bound):.1f}, count >= bound: {count >= bound}")
