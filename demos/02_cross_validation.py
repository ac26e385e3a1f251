"""Exact linear algebra vs kinetic Monte Carlo, three kernel classes.

The exact route solves the singular Poisson problem on the full state
space; the stochastic route runs independent Gillespie replicas once to
2T, records each one's position at T on the way, and removes the leading
O(1/T) finite-horizon bias by extrapolation.  The two must agree within
a few standard errors for every kernel class, and the sign arbitration
must pick the shipped convention (sign -1, D = free + 2 <w, (-L)^{-1} v>)
on its own.
"""

import time

from sepdiff import (
    StateSpace,
    TorusGeometry,
    arbitrate_sign,
    build_kernel,
    compute_D,
    estimate_diffusion,
    extrapolated_direction_stats,
    full_generator,
    spectral_gap,
    symmetric_part,
)

CASES = [
    ("symmetric nn", [((1,), "1/2"), ((-1,), "1/2")]),
    ("mean-zero", [((2,), "1/3"), ((-1,), "2/3")]),
    ("asymmetric", [((1,), 1.0)]),
]

sp = StateSpace(TorusGeometry(1, 3), 3)   # side 6, K = 3, alpha = 2/5
print(f"torus side {2 * sp.geometry.N}, K = {sp.K}, alpha = {sp.alpha}")
print(f"{'kernel':14s} {'D_minus':>10s} {'D_plus':>10s} "
      f"{'MC (T,2T extrap)':>20s} {'sigma':>6s}")

t0 = time.monotonic()
for name, entries in CASES:
    kernel = build_kernel(1, entries)
    op = full_generator(sp, kernel)
    res = compute_D(sp, kernel, [1.0], operator=op).directions[0]

    # horizon long enough for the environment to decorrelate
    gap = spectral_gap(symmetric_part(op))
    T = max(10.0 / gap, 30.0)
    est = estimate_diffusion(sp, kernel, T, 6000, 7)
    val, se = extrapolated_direction_stats(est, [1.0])
    pull = abs(val - res.D) / se
    print(f"{name:14s} {res.D_minus:10.6f} {res.D_plus:10.6f} "
          f"{val:10.4f} +- {se:.4f} {pull:6.2f}")

    sign = arbitrate_sign(sp, kernel, M=4000, seed=11)
    assert sign == -1, (name, sign)

print(f"\nsign arbitration chose -1 (the default) for all three classes; "
      f"{time.monotonic() - t0:.1f}s")
