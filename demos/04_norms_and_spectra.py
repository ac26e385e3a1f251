"""Spectral structure of the generator: gaps, duality, sector, resolvent.

Four quick checks on small tori:
  * the spectral gap of the symmetrized generator shrinks as the torus
    grows (slower mixing on bigger systems);
  * randomized duality tests for the pairing |<f, Lg>| <= |f|_1 |g|_-1
    and the Cauchy-Schwarz bound in the H1 inner product;
  * the sector constant is 0 for reversible kernels and order-one for the
    mean-zero kernel, roughly stable in N;
  * the resolvent solutions (lam - L)^(-1) h converge in H1 to the
    lam = 0 solution as lam decreases.
"""

from sepdiff import (
    StateSpace,
    TorusGeometry,
    build_kernel,
    choose_K,
    full_generator,
    occupancy_observable,
    resolvent_sweep,
    sector_constant,
    spectral_gap,
    symmetric_part,
    verify_prop1,
)

nn = build_kernel(1, [((1,), "1/2"), ((-1,), "1/2")])
mz = build_kernel(1, [((2,), "1/3"), ((-1,), "2/3")])

print("spectral gap of the symmetrized generator, half filling")
for N in (2, 3, 4):
    geo = TorusGeometry(1, N)
    sp = StateSpace(geo, choose_K(0.5, geo))
    gap = spectral_gap(symmetric_part(full_generator(sp, nn)))
    print(f"  side {2 * N}: gap = {gap:.12f}")

print("\nduality inequalities, 80 random pairs per kernel")
for name, kernel in (("symmetric nn", nn), ("mean-zero", mz)):
    op = full_generator(StateSpace(TorusGeometry(1, 3), 3), kernel)
    rep = verify_prop1(op, n_pairs=80, seed=3)
    print(f"  {name:13s} max pairing/bound = {rep.max_duality_ratio:.6f}, "
          f"max cauchy ratio = {rep.max_cauchy_ratio:.6f}"
          + ("  (equality holds, reversible)" if rep.symmetric else ""))
    assert rep.max_duality_ratio <= 1.0 + 1e-9
    assert rep.max_cauchy_ratio <= 1.0 + 1e-9

print("\nsector constant (0 iff reversible)")
for N in (3, 4):
    geo = TorusGeometry(1, N)
    sp = StateSpace(geo, choose_K(0.5, geo))
    c_nn = sector_constant(full_generator(sp, nn))
    c_mz = sector_constant(full_generator(sp, mz))
    print(f"  side {2 * N}: symmetric {c_nn:.2e}, mean-zero {c_mz:.6f}")

print("\nresolvent ladder, mean-zero kernel, side 6, K = 3")
sp = StateSpace(TorusGeometry(1, 3), 3)
op = full_generator(sp, mz)
h = occupancy_observable(sp, (1,))
for e in resolvent_sweep(op, h, [1.0, 0.1, 0.01, 0.001], tol=1e-12):
    print(f"  lam = {e['lam']:<7g} |u_lam - u_0|_1 = {e['dist_to_limit_h1']:.3e}")
