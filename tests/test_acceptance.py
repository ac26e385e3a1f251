"""Acceptance suite: one test per criterion, each ending in a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion summary lines). Monte Carlo comparisons use fixed seeds, so
every run is reproducible; statistical tolerances are 3 standard errors
of the bias-corrected (T, 2T) estimator unless stated otherwise.
"""

import math
import time

import numpy as np
import yaml

from sepdiff import (
    StateSpace,
    TorusGeometry,
    arbitrate_sign,
    build_kernel,
    choose_K,
    compute_D,
    compute_D_matrix,
    conditional_expectation,
    estimate_diffusion,
    extrapolated_direction_stats,
    free_term,
    full_generator,
    hminus1_convergence_diagnostic,
    inner,
    multiscale_diagnostic,
    occupancy_observable,
    sector_constant,
    solve_general,
    spectral_gap,
    symmetric_part,
    verify_prop1,
)
from sepdiff.cli import main as cli_main
from sepdiff.diffusion import block_env_indices

import _oracle

NN1 = [((1,), 0.5), ((-1,), 0.5)]
MZ1 = [((2,), 1.0 / 3.0), ((-1,), 2.0 / 3.0)]
AS1 = [((1,), 1.0)]
NN2 = [((1, 0), 0.25), ((-1, 0), 0.25), ((0, 1), 0.25), ((0, -1), 0.25)]


def _passline(num, text):
    print(f"[PASS] criterion {num:02d}: {text}")


def _space(d, N, K):
    return StateSpace(TorusGeometry(d, N), K)


def _random_system(seed):
    """Deterministic random small system: kernel + state space."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 3))
    if d == 1:
        pool = [(-1,), (2,), (-2,), (3,)]
        support = [(1,)] + [z for z in pool if rng.random() < 0.5]
    else:
        pool = [(1, 1), (-1, -1), (1, -1)]
        support = [(1, 0), (0, 1), (-1, 0), (0, -1)]
        support = support[: 2 + int(rng.integers(0, 3))]
        support += [z for z in pool if rng.random() < 0.3]
        support = list(dict.fromkeys(support))
    weights = rng.random(len(support)) + 0.1
    weights = list(weights / math.fsum(weights))
    kernel = build_kernel(d, list(zip(support, weights)))
    if d == 1:
        N = max(2, kernel.range + 1)
        K = int(rng.integers(2, min(6, 2 * N + 1)))
    else:
        N, K = 2, int(rng.integers(2, 5))
    return _space(d, N, K), kernel


def test_criterion_01_lone_walker_free_limit():
    t0 = time.monotonic()
    # exact: with K = 1 the diffusion equals the bare second moment
    for d, entries, kernels_a in [
        (1, MZ1, [1.0]),
        (1, NN1, [1.0]),
        (2, NN2, [0.6, -0.8]),
    ]:
        kernel = build_kernel(d, entries)
        sp = _space(d, max(2, kernel.range + 1), 1)
        res = compute_D(sp, kernel, kernels_a).directions[0]
        want = free_term(kernel, kernels_a, 0.0)
        assert abs(res.D - want) <= 1e-12
        assert res.correction == 0.0
    mat = compute_D_matrix(_space(2, 2, 1), build_kernel(2, NN2)).matrix
    assert np.allclose(mat, 0.5 * np.eye(2), atol=1e-12)
    # Monte Carlo agrees within 3 SE of the bias-corrected estimator
    kernel = build_kernel(1, MZ1)
    sp = _space(1, 3, 1)
    est = estimate_diffusion(sp, kernel, 50.0, 4000, 20240401)
    val, se = extrapolated_direction_stats(est, [1.0])
    assert abs(val - 2.0) <= 3.0 * se
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _passline(1, f"lone walker: exact to 1e-12, MC {val:.4f} +- {se:.4f} "
                 f"vs 2.0, {elapsed:.1f}s")


def test_criterion_02_full_lattice_frozen():
    t0 = time.monotonic()
    kernel = build_kernel(1, NN1)
    sp = _space(1, 2, 4)
    res = compute_D(sp, kernel, [1.0]).directions[0]
    assert res.D == 0.0 and res.free_term == 0.0 and res.correction == 0.0
    mat = compute_D_matrix(_space(2, 2, 16), build_kernel(2, NN2)).matrix
    assert np.all(mat == 0.0)
    # simulation path: nothing can move, the covariance vanishes exactly
    est = estimate_diffusion(sp, kernel, 5.0, 200, 3)
    assert np.all(est.primary.X == 0)
    assert est.primary.covariance[0, 0] == 0.0
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _passline(2, f"full lattice: D = 0 exactly on both routes, "
                 f"{elapsed:.2f}s")


def test_criterion_03_exact_vs_mc_three_kernel_classes():
    t0 = time.monotonic()
    details = []
    for name, entries in [("symmetric", NN1), ("mean-zero", MZ1),
                          ("asymmetric", AS1)]:
        kernel = build_kernel(1, entries)
        sp = _space(1, 3, 3)
        op = full_generator(sp, kernel)
        gap = spectral_gap(symmetric_part(op))
        T = max(10.0 / gap, 30.0)
        exact = compute_D(sp, kernel, [1.0], operator=op).directions[0].D
        est = estimate_diffusion(sp, kernel, T, 10_000, 20240501)
        val, se = extrapolated_direction_stats(est, [1.0])
        assert abs(val - exact) <= 3.0 * se, (name, exact, val, se)
        # the sign convention locks uniquely to the shipped default
        assert arbitrate_sign(sp, kernel, M=4000, seed=20240502) == -1
        details.append(f"{name}: exact {exact:.5f}, MC {val:.5f} +- {se:.5f}")
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    _passline(3, "; ".join(details) + f"; sign -1 unique, {elapsed:.0f}s")


def test_criterion_04_dense_vs_iterative_50_systems():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(50):
        sp, kernel = _random_system(1000 + seed)
        a = np.ones(sp.geometry.dimension)
        d_dense = compute_D(sp, kernel, a, tol=1e-12,
                            method="dense").directions[0].D
        d_iter = compute_D(sp, kernel, a, tol=1e-12,
                           method="iterative").directions[0].D
        diff = abs(d_dense - d_iter) / max(1.0, abs(d_dense))
        worst = max(worst, diff)
        assert diff <= 1e-8, (seed, d_dense, d_iter)
        if sp.size > 1:
            op = full_generator(sp, kernel)
            rng = np.random.default_rng(seed)
            b = rng.standard_normal(sp.size)
            b -= b.mean()
            ud = solve_general(op, b, tol=1e-12, method="dense")
            ui = solve_general(op, b, tol=1e-12, method="iterative")
            rel = np.linalg.norm(ud.solution - ui.solution)
            rel /= max(np.linalg.norm(ud.solution), 1e-300)
            worst = max(worst, rel)
            assert rel <= 1e-8, seed
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _passline(4, f"50 randomized systems, dense vs iterative worst "
                 f"rel-diff {worst:.2e} <= 1e-8, {elapsed:.0f}s")


def test_criterion_05_energy_duality_inequalities():
    t0 = time.monotonic()
    systems = [
        full_generator(_space(1, 3, 3), build_kernel(1, NN1)),
        full_generator(_space(1, 3, 3), build_kernel(1, MZ1)),
        full_generator(_space(1, 3, 3), build_kernel(1, AS1)),
    ]
    for seed in range(7):
        sp, kernel = _random_system(2000 + seed)
        if sp.size > 1:
            systems.append(full_generator(sp, kernel))
        else:
            systems.append(full_generator(_space(1, 2, 2), kernel))
    assert len(systems) >= 10
    n_sym = 0
    for i, op in enumerate(systems[:10]):
        rep = verify_prop1(op, n_pairs=100, seed=i)
        assert rep.max_duality_ratio <= 1.0 + 1e-9
        assert rep.max_cauchy_ratio <= 1.0 + 1e-9
        assert rep.min_bound_ratio_iii >= 1.0 - 1e-9
        if rep.symmetric:
            n_sym += 1
            assert rep.max_equality_gap_iii <= 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _passline(5, f"duality/Cauchy/operator-bound hold on 10 systems x 100 "
                 f"pairs ({n_sym} symmetric with equality to 1e-9), "
                 f"{elapsed:.0f}s")


def test_criterion_06_symmetric_suppression_bound():
    checked = 0
    for d, entries, cases in [
        (1, NN1, [(2, 2), (2, 3), (3, 3), (3, 5), (4, 4)]),
        (2, NN2, [(2, 2), (2, 4)]),
    ]:
        kernel = build_kernel(d, entries)
        for N, K in cases:
            sp = _space(d, N, K)
            rep = compute_D_matrix(sp, kernel, tol=1e-12)
            f = np.zeros((d, d))
            for z, p in kernel.entries:
                zv = np.asarray(z, dtype=float)
                f += (1.0 - sp.alpha) * p * np.outer(zv, zv)
            slack = np.linalg.eigvalsh(f - rep.matrix)
            assert slack.min() >= -1e-9, (d, N, K)
            checked += 1
    _passline(6, f"a^t D a <= free term (symmetric kernels, {checked} "
                 f"systems, slack >= -1e-9)")


def test_criterion_07_sector_constant_behaviour():
    # symmetric kernels: exactly zero (skew part vanishes)
    for d, entries in [(1, NN1), (2, NN2)]:
        op = full_generator(_space(d, 2 if d == 2 else 3, 3),
                            build_kernel(d, entries))
        assert sector_constant(op) <= 1e-10
    # non-reversible mean-zero kernel: finite and stable in N
    kernel = build_kernel(1, MZ1)
    vals = []
    for N in (3, 4, 5):
        geo = TorusGeometry(1, N)
        sp = StateSpace(geo, choose_K(0.5, geo))
        vals.append(sector_constant(full_generator(sp, kernel)))
    mean = sum(vals) / len(vals)
    assert all(0.75 * mean <= v <= 1.25 * mean for v in vals), vals
    assert all(np.isfinite(v) and v > 0.0 for v in vals)
    _passline(7, f"sector constant: 0 for symmetric, stable "
                 f"{[round(v, 4) for v in vals]} within +-25% across N")


def test_criterion_08_spectral_gap_shrinks_diffusively():
    kernel = build_kernel(1, NN1)
    gaps = {}
    for N in (2, 4):
        geo = TorusGeometry(1, N)
        sp = StateSpace(geo, choose_K(0.5, geo))
        gaps[N] = spectral_gap(symmetric_part(full_generator(sp, kernel)))
    ratio = gaps[2] / gaps[4]
    assert 2.0 <= ratio <= 8.0, gaps
    _passline(8, f"gap {gaps[2]:.4f} -> {gaps[4]:.4f}, ratio "
                 f"{ratio:.2f} in [2, 8]")


def test_criterion_09_diffusion_decreases_with_system_size():
    kernel = build_kernel(1, NN1)
    ds = []
    for N in (2, 3, 4, 5):
        geo = TorusGeometry(1, N)
        sp = StateSpace(geo, choose_K(0.5, geo))
        ds.append(compute_D(sp, kernel, [1.0]).directions[0].D)
    assert all(b < a for a, b in zip(ds, ds[1:]))
    assert all(d > 0.0 for d in ds)
    diffs = [a - b for a, b in zip(ds, ds[1:])]
    assert all(b < a for a, b in zip(diffs, diffs[1:]))
    _passline(9, "D decreasing toward 0 with shrinking steps: "
                 + ", ".join(f"{d:.4f}" for d in ds))


def test_criterion_10_multiscale_decomposition():
    sp = _space(1, 8, 8)
    v = occupancy_observable(sp, (1,))
    rep = multiscale_diagnostic(sp, v, 1, 2, 3)
    assert all(b < a for a, b in
               zip(rep.increment_variances, rep.increment_variances[1:]))
    want = [_oracle.block_second_moment(8, 1, 8, l) for l in rep.scales]
    assert np.allclose(rep.second_moments, want, rtol=1e-12)
    # projection property is exact on a smaller lattice
    sp2 = _space(1, 4, 4)
    v2 = occupancy_observable(sp2, (1,))
    proj = conditional_expectation(sp2, v2, 2)
    idx = block_env_indices(sp2.geometry, 2)
    mask = 0
    for i in idx:
        mask |= 1 << i
    counts = sp2.inside_counts(mask).astype(float)
    for g in (np.ones(sp2.size), counts, counts ** 2, np.exp(counts / 4)):
        assert abs(inner(v2 - proj, g)) <= 1e-12
    _passline(10, f"increment variances strictly decreasing "
                  f"{[round(x, 5) for x in rep.increment_variances]}, "
                  f"projection exact to 1e-12")


def test_criterion_11_dual_norm_cauchy_in_system_size():
    kernel = build_kernel(1, MZ1)
    recipe = lambda sp: occupancy_observable(sp, (1,))
    rep = hminus1_convergence_diagnostic(kernel, 0.5, recipe, [3, 4, 5, 6])
    assert all(v > 0.0 for v in rep.values)
    assert all(b < a for a, b in zip(rep.diffs, rep.diffs[1:]))
    _passline(11, "dual norms Cauchy along N: values "
                  + ", ".join(f"{v:.4f}" for v in rep.values)
                  + "; diffs "
                  + ", ".join(f"{d:.4f}" for d in rep.diffs))


def test_criterion_12_cli_outputs_reproducible(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({
        "kernel": {"dimension": 1,
                   "entries": [{"z": [1], "p": 0.5}, {"z": [-1], "p": 0.5}]},
        "N": 3, "K": 3,
        "mc": {"T": 8.0, "M": 50, "seed": 21},
    }))
    outs = [tmp_path / n for n in ("r1", "r2", "r4")]
    for cmd in ("exact", "mc"):
        assert cli_main([cmd, "--config", str(cfg), "--out", str(outs[0]),
                         "--threads", "1"]) == 0
        assert cli_main([cmd, "--config", str(cfg), "--out", str(outs[1]),
                         "--threads", "1"]) == 0
        assert cli_main([cmd, "--config", str(cfg), "--out", str(outs[2]),
                         "--threads", "4"]) == 0
    for name in ("exact.csv", "mc.csv"):
        b0 = (outs[0] / name).read_bytes()
        assert b0 == (outs[1] / name).read_bytes()
        assert b0 == (outs[2] / name).read_bytes()
        assert b"# seed: 21" in b0
    _passline(12, "CSV outputs byte-identical across reruns and "
                  "thread counts, seed recorded")
