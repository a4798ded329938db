"""Tour of the gain design machinery.

Solves the constrained Riccati problem for the small orders, prints the
first column of each solution U (the gain numerators), turns them into
the per-step gains for a concrete sample size, and certifies the
characteristic-polynomial roots that make the filters stable.
"""

import numpy as np

from voltrack import gain_schedule, solve_care, stability_report

np.set_printoptions(precision=10, suppress=False)

print("Riccati first columns (these are the gain numerators)")
print("-" * 60)
for k in range(5):
    sol = solve_care(k)
    print(f"k={k}: {np.array2string(sol[:, 0], separator=', ')}")

print()
print("Gain schedules for n=4000 at a few adaptation levels")
print("-" * 60)
for theta in (0.1, 1.0, 10.0):
    for k in (0, 1):
        gains = ", ".join(f"{g:.3e}" for g in gain_schedule(k, theta, 4000))
        print(f"theta={theta:<5} k={k}: [{gains}]")

print()
print("Stability certificates (all roots left of the imaginary axis)")
print("-" * 60)
for k in range(3):
    rep = stability_report(k, 1.0)
    roots = ", ".join(f"{r.real:+.4f}{r.imag:+.4f}j" for r in rep.roots)
    print(
        f"k={k}: roots [{roots}]  negative_real={rep.all_negative_real} "
        f"distinct={rep.all_distinct}"
    )

print()
print("Roots scale as theta^(1/(k+1)): doubling theta at k=1")
print("-" * 60)
for theta in (1.0, 2.0, 4.0):
    rep = stability_report(1, theta)
    print(f"theta={theta}: |root| = {abs(rep.roots[0]):.6f}")
