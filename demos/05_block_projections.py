"""Conditional expectations on dyadic blocks, and dual norms along N.

Projecting a single-site occupancy observable onto the sigma-algebra of
the particle count in a growing block gives a martingale in the block
scale.  Its increment variances are computable in closed form from the
hypergeometric law of the inside count, and decay geometrically -- the
multiscale diagnostic checks both.  Separately, the H_-1 norm of the same
observable settles down as the torus grows (Cauchy behaviour in N), which
is the summability input the variance decomposition feeds on.
"""

from sepdiff import (
    StateSpace,
    TorusGeometry,
    build_kernel,
    hminus1_convergence_diagnostic,
    multiscale_diagnostic,
    occupancy_observable,
)

sp = StateSpace(TorusGeometry(1, 8), 8)   # side 16, alpha = 7/15
v = occupancy_observable(sp, (1,))
rep = multiscale_diagnostic(sp, v, 1, 2, 3)

M = (2 * 8) ** 1 - 1        # environment sites: full torus minus the origin
alpha = sp.alpha
print(f"block martingale, side 16, K = 8, alpha = {alpha:.6f}")
print(f"{'scale':>6s} {'<g_n^2>':>14s} {'closed form':>14s} "
      f"{'increment var':>14s}")
prev_sm = None
for i, (l, sm) in enumerate(zip(rep.scales, rep.second_moments)):
    m = (2 * l) ** 1 - 1        # env sites in the block at scale l
    cf = alpha * (1 - alpha) * (M - m) / (m * (M - 1))
    inc = "" if i == 0 else f"{rep.increment_variances[i - 1]:14.8f}"
    print(f"{l:6d} {sm:14.8f} {cf:14.8f} {inc:>14s}")
    assert abs(sm - cf) < 1e-12 * max(abs(cf), 1.0)
print(f"fitted decay exponent of increments: {rep.fitted_exponent:.3f}")
assert all(b < a for a, b in
           zip(rep.increment_variances, rep.increment_variances[1:]))

print("\nH_-1 norm of the site observable along N, mean-zero kernel")
mz = build_kernel(1, [((2,), "1/3"), ((-1,), "2/3")])
conv = hminus1_convergence_diagnostic(
    mz, 0.5, lambda s: occupancy_observable(s, (1,)), [3, 4, 5, 6])
for N, K, val in zip(conv.N_list, conv.K_list, conv.values):
    print(f"  side {2 * N} (K = {K}): {val:.6f}")
print("  successive diffs:", ", ".join(f"{d:.4f}" for d in conv.diffs))
assert all(b < a for a, b in zip(conv.diffs, conv.diffs[1:]))
