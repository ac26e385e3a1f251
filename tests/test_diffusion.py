import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from sepdiff import (
    NonPositiveDError,
    NotConvergedError,
    OutOfRangeError,
    StateSpace,
    SupportTooLargeError,
    TorusGeometry,
    TorusSizeError,
    arbitrate_sign,
    block_env_indices,
    build_kernel,
    choose_K,
    compute_D,
    compute_D_matrix,
    conditional_expectation,
    free_term,
    full_generator,
    hminus1_convergence_diagnostic,
    hminus1_norm,
    approximation_residual_diagnostic,
    inner,
    local_drift_functions,
    multiscale_diagnostic,
    occupancy_difference_observable,
    occupancy_observable,
    solve_general,
    sweep,
    symmetric_part,
)
from sepdiff import diffusion
from sepdiff.diffusion import _symmetries
from sepdiff.generator import ReducedAssembly
from sepdiff.sobolev import _replay

import _oracle
from conftest import (ASYM1D, MZ1D, NN1D, NN2D, RECT2D, check_symmetry_route,
                      nn_kernel)


def space_1d(N, K):
    return StateSpace(TorusGeometry(1, N), K)


def test_free_term_formula(meanzero1d):
    # (1 - alpha) sum (a.z)^2 p(z): for the mean-zero kernel the sum is
    # 4/3 + 2/3 = 2
    assert free_term(meanzero1d, [1.0], 0.25) == pytest.approx(1.5, abs=1e-15)
    assert free_term(meanzero1d, [2.0], 0.0) == pytest.approx(8.0, abs=1e-15)
    k2 = build_kernel(2, NN2D)
    assert free_term(k2, [1.0, 1.0], 0.5) == pytest.approx(0.5, abs=1e-15)


def test_three_state_diffusion_exact_third(nn1d):
    # the 3-state system solves by hand: D = 1/3 with free term 2/3
    rep = compute_D(space_1d(2, 2), nn1d, [1.0])
    res = rep.directions[0]
    assert res.free_term == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert res.D == pytest.approx(1.0 / 3.0, abs=1e-13)
    assert res.D_minus == pytest.approx(1.0 / 3.0, abs=1e-13)
    assert res.D_plus == pytest.approx(1.0, abs=1e-13)
    assert res.residual <= 2e-10


@pytest.mark.parametrize("entries", [NN1D, MZ1D, ASYM1D])
@pytest.mark.parametrize("N,K", [(3, 2), (3, 3), (3, 5)])
def test_diffusion_matches_dense_reference(entries, N, K):
    kernel = build_kernel(1, entries)
    rep = compute_D(space_1d(N, K), kernel, [1.0], tol=1e-12)
    ref = _oracle.diffusion_value(N, 1, K, entries, [1.0])
    assert rep.directions[0].D == pytest.approx(ref, rel=1e-9, abs=1e-12)
    # both conventions match the reference formula
    ref_plus = _oracle.diffusion_value(N, 1, K, entries, [1.0], sign=+1)
    assert rep.directions[0].D_plus == pytest.approx(ref_plus, rel=1e-9,
                                                     abs=1e-12)


def test_diffusion_matches_dense_reference_2d():
    kernel = build_kernel(2, NN2D)
    sp = StateSpace(TorusGeometry(2, 2), 3)
    for a in ([1.0, 0.0], [1.0, 1.0], [0.3, -0.7]):
        rep = compute_D(sp, kernel, a, tol=1e-12)
        ref = _oracle.diffusion_value(2, 2, 3, NN2D, a)
        assert rep.directions[0].D == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_lone_walker_is_free(meanzero1d, nn2d):
    # K = 1: no environment, the tagged particle walks freely
    rep = compute_D(space_1d(4, 1), meanzero1d, [1.0])
    res = rep.directions[0]
    assert res.D == res.free_term == pytest.approx(2.0, abs=1e-12)
    assert res.correction == 0.0
    assert res.method == "degenerate"
    rep2 = compute_D_matrix(StateSpace(TorusGeometry(2, 2), 1), nn2d)
    assert np.allclose(rep2.matrix, 0.5 * np.eye(2), atol=1e-12)


def test_full_lattice_is_frozen(nn1d, nn2d):
    # K = (2N)^d: everything blocked, D = 0 exactly
    rep = compute_D(space_1d(2, 4), nn1d, [1.0])
    assert rep.directions[0].D == 0.0
    assert rep.directions[0].free_term == 0.0
    rep2 = compute_D_matrix(StateSpace(TorusGeometry(2, 2), 16), nn2d)
    assert np.allclose(rep2.matrix, 0.0, atol=0.0)


def test_suppression_below_free_walk_for_symmetric(nn1d):
    for (N, K) in [(2, 2), (2, 3), (3, 3), (3, 5)]:
        res = compute_D(space_1d(N, K), nn1d, [1.0]).directions[0]
        assert res.D <= res.free_term + 1e-9
        assert res.D >= -1e-12


ASYM2D = [((1, 0), 0.4), ((-1, 0), 0.1), ((0, 1), 0.3), ((0, -1), 0.2)]


#: p(e1) = p(-e2): its one non-trivial symmetry (x, y) -> (-y, -x) maps
#: e1 to -e2, and its generator is not symmetric
SIGN2D = [((1, 0), 0.4), ((0, -1), 0.4), ((-1, 0), 0.1), ((0, 1), 0.1)]
#: drifts along (1, 1); invariant under swapping the axes
SWAP2D = [((1, 0), 0.3), ((0, 1), 0.3), ((-1, 0), 0.2), ((0, -1), 0.2)]
NN3D = [(z, 1.0 / 6.0) for e in np.eye(3, dtype=int) for z in
        (tuple(e.tolist()), tuple((-e).tolist()))]


def counted_solves(monkeypatch):
    """The list that gains one entry per solve_general call of the exact
    driver."""
    import sepdiff.diffusion

    solve = sepdiff.diffusion.solve_general
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(sepdiff.diffusion, "solve_general", counted)
    return calls


@pytest.mark.parametrize("d,N,K,entries,solves", [
    (2, 2, 4, NN2D, 1), (3, 2, 3, NN3D, 1), (2, 2, 4, SIGN2D, 1),
    (2, 2, 4, SWAP2D, 1), (2, 2, 4, ASYM2D, 2)])
def test_matrix_solves_one_axis_per_symmetry_orbit(d, N, K, entries, solves,
                                                   monkeypatch):
    calls = counted_solves(monkeypatch)
    sp = StateSpace(TorusGeometry(d, N), K)
    kernel = build_kernel(d, entries)
    rep = compute_D_matrix(sp, kernel, tol=1e-12)
    assert len(calls) == solves
    check_symmetry_route(sp, kernel, rep, len(calls))
    if entries is SIGN2D:
        assert rep.directions[0].method == "iterative-nonsymmetric"
        assert abs(rep.matrix[0, 1]) > 1e-3


def test_mapped_direction_checks_its_residual(nn2d, monkeypatch):
    # a caller's operator is the unreduced reference: it need not commute
    # with the kernel's symmetries, so no direction is mapped onto it, and
    # both axes are solved on it
    calls = counted_solves(monkeypatch)
    sp = StateSpace(TorusGeometry(2, 2), 4)
    op = full_generator(sp, build_kernel(2, ASYM2D))
    rep = compute_D_matrix(sp, nn2d, operator=op)
    assert len(calls) == 2
    assert [r.method for r in rep.directions].count("symmetry") == 0
    assert all(r.rows == sp.size and r.group_order == 1
               for r in rep.directions)


@pytest.mark.parametrize("case", [
    "2d kernel on 1d", "1d kernel on 2d", "range 2 on side 4", "length 2",
    "nan", "inf", "operator size", "arbitrate length 2"])
def test_bad_inputs_raise_typed_errors_before_any_work(case, nn1d, nn2d,
                                                       monkeypatch):
    def refuse(*args):
        raise AssertionError("work began")

    monkeypatch.setattr(diffusion, "_free_form", refuse)
    sp = space_1d(3, 3)
    error, match, call = {
        "2d kernel on 1d": (TorusSizeError, "dimension", lambda: compute_D(
            sp, nn2d, [1.0, 0.0])),
        "1d kernel on 2d": (TorusSizeError, "dimension",
                            lambda: compute_D_matrix(
                                StateSpace(TorusGeometry(2, 2), 3), nn1d)),
        "range 2 on side 4": (TorusSizeError, "too small", lambda: compute_D(
            space_1d(2, 2), build_kernel(1, MZ1D), [1.0])),
        "length 2": (OutOfRangeError, "length 1", lambda: compute_D(
            sp, nn1d, [1.0, 2.0])),
        "nan": (OutOfRangeError, "finite", lambda: compute_D(
            sp, nn1d, [np.nan])),
        "inf": (OutOfRangeError, "finite", lambda: compute_D(
            sp, nn1d, [np.inf])),
        "operator size": (OutOfRangeError, "size 5 on a space of 10 states",
                          lambda: compute_D_matrix(sp, nn1d, operator=(
                              full_generator(space_1d(3, 2), nn1d)))),
        "arbitrate length 2": (OutOfRangeError, "length 1",
                               lambda: arbitrate_sign(
                                   sp, nn1d, directions=[[1.0, 2.0]], M=50,
                                   seed=1)),
    }[case]
    with pytest.raises(error, match=match):
        call()


def test_matrix_polarization_consistency(meanzero1d, monkeypatch):
    # the matrix from d solves reproduces the form along any direction,
    # including a 2d kernel with a nonzero off-diagonal entry
    calls = counted_solves(monkeypatch)
    systems = [(space_1d(3, 3), meanzero1d),
               (StateSpace(TorusGeometry(2, 2), 4), build_kernel(2, ASYM2D))]
    rng = np.random.default_rng(2)
    for sp, kernel in systems:
        d = sp.geometry.dimension
        calls.clear()
        rep = compute_D_matrix(sp, kernel, tol=1e-12)
        assert len(calls) == d
        assert len(rep.directions) == d
        for _ in range(4):
            a = rng.standard_normal(d)
            quad = float(a @ rep.matrix @ a)
            direct = compute_D(sp, kernel, a, tol=1e-12).directions[0].D
            assert quad == pytest.approx(direct, rel=1e-9, abs=1e-12)
        assert rep.min_eigenvalue >= -1e-12
    assert abs(rep.matrix[0, 1]) > 5e-4
    assert rep.matrix[0, 1] == rep.matrix[1, 0]


@pytest.mark.parametrize("dim,N,K,entries", [(1, 4, 4, NN1D),
                                             (2, 2, 3, NN2D)])
def test_default_sign_is_kipnis_varadhan_form(dim, N, K, entries):
    # symmetric kernels have w_a = -v_a, so the default sign gives
    # D(a) = free(a) - 2 |v_a|_{-1}^2
    kernel = build_kernel(dim, entries)
    sp = StateSpace(TorusGeometry(dim, N), K)
    op = full_generator(sp, kernel)
    for a in [*np.eye(dim), np.ones(dim)]:
        res = compute_D(sp, kernel, a, tol=1e-12, operator=op).directions[0]
        v, w = local_drift_functions(sp, kernel, a)
        assert np.allclose(w, -v, atol=1e-14)
        norm = hminus1_norm(symmetric_part(op), v, tol=1e-12)
        assert res.D == pytest.approx(res.free_term - 2.0 * norm ** 2,
                                      abs=1e-10)
        assert res.correction < 0.0


def test_matrix_isotropic_in_2d(nn2d):
    sp = StateSpace(TorusGeometry(2, 2), 3)
    rep = compute_D_matrix(sp, nn2d, tol=1e-12)
    m = rep.matrix
    assert m[0, 0] == pytest.approx(m[1, 1], rel=1e-10)
    assert abs(m[0, 1]) <= 1e-10
    assert abs(m[1, 0] - m[0, 1]) <= 1e-12
    rng = np.random.default_rng(3)
    a = rng.standard_normal(2)
    quad = float(a @ m @ a)
    direct = compute_D(sp, nn2d, a, tol=1e-12).directions[0].D
    assert quad == pytest.approx(direct, rel=1e-8, abs=1e-12)


def test_choose_K_rounding():
    geo = TorusGeometry(1, 3)      # 6 sites
    assert choose_K(0.5, geo) == 3
    assert choose_K(0.0, geo) == 1
    assert choose_K(1.0, geo) == 6
    assert choose_K(0.41, geo) == 2   # 2.46 rounds down
    assert choose_K(0.42, geo) == 3   # 2.52 rounds up
    geo2 = TorusGeometry(1, 2)     # 4 sites: 2.0 exactly
    assert choose_K(0.5, geo2) == 2
    # half-way rounds away from zero: 4 * 0.625 = 2.5 -> 3
    assert choose_K(0.625, geo2) == 3


def test_sweep_decreasing_and_plateau_fields(nn1d):
    rep = sweep(nn1d, 0.5, [2, 3, 4], tol=1e-11)
    ds = [r.directions[0].D for r in rep.reports]
    assert all(b < a for a, b in zip(ds, ds[1:]))
    assert len(rep.diffs) == 2
    assert rep.verdict in ("plateau", "no-plateau", "insufficient")
    assert rep.diffs[1] < rep.diffs[0]
    # frozen anchors: 1/3 at N=2 and 1/5 at N=3 (exact rationals observed)
    assert ds[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert ds[1] == pytest.approx(0.2, abs=1e-12)


def test_block_env_indices_and_caps():
    geo = TorusGeometry(1, 4)
    idx = block_env_indices(geo, 2)
    sites = sorted(geo.env_sites[i] for i in idx)
    assert sites == [(-1,), (1,), (2,)]
    with pytest.raises(SupportTooLargeError):
        block_env_indices(geo, 5)
    for l in (0, 1.5):
        with pytest.raises(OutOfRangeError):
            block_env_indices(geo, l)
    assert block_env_indices(geo, 2.0) == idx


def test_conditional_expectation_single_site_closed_form():
    # E[eta(x) | j particles in block] = j / m for x inside the block
    sp = space_1d(4, 4)
    v = occupancy_observable(sp, (1,))
    for l in (1, 2):
        idx = block_env_indices(sp.geometry, l)
        m = len(idx)
        mask = 0
        for i in idx:
            mask |= 1 << i
        counts = sp.inside_counts(mask)
        got = conditional_expectation(sp, v, l)
        want = counts / m - sp.alpha
        assert np.allclose(got, want, atol=1e-12)


def test_conditional_expectation_tower_property():
    # exact projection property: E[(v - E[v|count]) g(count)] = 0
    sp = space_1d(4, 4)
    v = occupancy_difference_observable(sp, (1,), (2,))
    l = 2
    proj = conditional_expectation(sp, v, l)
    idx = block_env_indices(sp.geometry, l)
    mask = 0
    for i in idx:
        mask |= 1 << i
    counts = sp.inside_counts(mask).astype(float)
    for g in (np.ones(sp.size), counts, counts ** 2, np.sin(counts)):
        assert inner(v - proj, g) == pytest.approx(0.0, abs=1e-13)
    # projecting twice changes nothing
    again = conditional_expectation(sp, proj, l)
    assert np.allclose(again, proj, atol=1e-13)


def _block_2d():
    """2d N=3 K=4 and the mask of its 15-site block of scale 2, inside a
    35-site environment."""
    sp = StateSpace(TorusGeometry(2, 3), 4)
    inside = block_env_indices(sp.geometry, 2)
    assert len(inside) == 15
    return sp, inside, sum(1 << i for i in inside)


def test_conditional_expectation_is_the_per_count_mean():
    # any v, supported in the block or not: the mean of v over the states
    # with the same count inside, by a loop over the states
    sp, _, mask = _block_2d()
    v = np.random.default_rng(5).standard_normal(sp.size)
    totals, sizes, counts = {}, {}, []
    for b, x in zip(sp.bitmasks().tolist(), v.tolist()):
        j = bin(b & mask).count("1")
        totals[j] = totals.get(j, 0.0) + x
        sizes[j] = sizes.get(j, 0) + 1
        counts.append(j)
    want = np.array([totals[j] / sizes[j] for j in counts])
    got = conditional_expectation(sp, v, 2)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_conditional_expectation_matches_combinations_reference():
    # a v that reads the inside arrangement alone: its average over the
    # C(15, j) arrangements of each count j
    sp, inside, mask = _block_2d()
    rng = np.random.default_rng(5)
    value = {}
    v = np.array([value.setdefault(b & mask, rng.standard_normal())
                  for b in sp.bitmasks().tolist()])
    avg = {}
    for j in range(sp.k + 1):
        combos = [sum(1 << i for i in c)
                  for c in itertools.combinations(inside, j)]
        avg[j] = sum(value[c] for c in combos) / len(combos)
    want = np.array([avg[int(c)] for c in sp.inside_counts(mask)])
    got = conditional_expectation(sp, v, 2)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_conditional_expectation_matches_hypergeometric_moment():
    sp = space_1d(8, 8)
    v = occupancy_observable(sp, (1,))
    for l in (1, 2, 4):
        g = conditional_expectation(sp, v, l)
        want = _oracle.block_second_moment(8, 1, 8, l)
        assert inner(g, g) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_conditional_expectation_on_a_25_site_block():
    # 1d N=16 K=5, scale 13: 25 sites inside, 31,465 states
    sp = space_1d(16, 5)
    assert sp.size == 31_465
    assert len(block_env_indices(sp.geometry, 13)) == 25
    g = conditional_expectation(sp, occupancy_observable(sp, (1,)), 13)
    want = _oracle.block_second_moment(16, 1, 5, 13)
    assert inner(g, g) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_multiscale_variances_decrease():
    sp = space_1d(8, 8)
    v = occupancy_observable(sp, (1,))
    rep = multiscale_diagnostic(sp, v, 1, 2, 3)
    assert rep.scales == [1, 2, 4, 8]
    assert all(b < a for a, b in
               zip(rep.increment_variances, rep.increment_variances[1:]))
    assert all(b < a for a, b in
               zip(rep.second_moments, rep.second_moments[1:]))
    want = [_oracle.block_second_moment(8, 1, 8, l) for l in rep.scales]
    assert np.allclose(rep.second_moments, want, rtol=1e-12)
    # martingale increments: <(g_n - g_{n-1})^2> = <g_{n-1}^2> - <g_n^2>
    for n in range(1, 4):
        assert rep.increment_variances[n - 1] == pytest.approx(
            rep.second_moments[n - 1] - rep.second_moments[n], abs=1e-13
        )
    assert rep.fitted_exponent is not None and rep.fitted_exponent < 0.0


def test_multiscale_guards():
    sp = space_1d(4, 4)
    v = occupancy_observable(sp, (1,))
    with pytest.raises(SupportTooLargeError):
        multiscale_diagnostic(sp, v, 1, 2, 3)   # scale 8 > N = 4
    with pytest.raises(OutOfRangeError):
        multiscale_diagnostic(sp, v, 1, 1, 2)
    with pytest.raises(OutOfRangeError):
        multiscale_diagnostic(sp, v, 1, 2, 0)
    with pytest.raises(OutOfRangeError):
        multiscale_diagnostic(sp, v, 0, 2, 1)
    # scales are whole numbers: l = 1.5 would ask for blocks of 1.5 and 3
    with pytest.raises(OutOfRangeError):
        multiscale_diagnostic(sp, v, 1.5, 2, 1)
    assert (multiscale_diagnostic(sp, v, 1.0, 2.0, 2.0)
            == multiscale_diagnostic(sp, v, 1, 2, 2))
    # the scales stop at the first one above N, so this returns at once
    with pytest.raises(SupportTooLargeError):
        multiscale_diagnostic(sp, v, 1, 2, 10**9)


def test_occupancy_observables_centered():
    sp = space_1d(3, 3)
    v = occupancy_observable(sp, (2,))
    assert abs(v.mean()) <= 1e-14
    d = occupancy_difference_observable(sp, (1,), (-1,))
    assert abs(d.mean()) <= 1e-14
    vals = set(np.round(d, 12))
    assert vals <= {-1.0, 0.0, 1.0}


def test_hminus1_convergence_diagnostic(meanzero1d):
    recipe = lambda sp: occupancy_observable(sp, (1,))
    rep = hminus1_convergence_diagnostic(meanzero1d, 0.5, recipe, [3, 4, 5])
    assert rep.N_list == [3, 4, 5]
    assert rep.K_list == [3, 4, 5]
    assert all(v > 0.0 for v in rep.values)
    assert len(rep.diffs) == 2
    # reference check at N = 3 against the dense dual-norm oracle applied
    # to the symmetrized kernel's full generator
    sym_entries = [((-2,), 1 / 6), ((-1,), 1 / 3), ((1,), 1 / 3),
                   ((2,), 1 / 6)]
    _, Q = _oracle.dense_generator(3, 1, 3, sym_entries, tagged=False)
    sp3 = space_1d(3, 3)
    f = occupancy_observable(sp3, (1,))
    assert rep.values[0] == pytest.approx(_oracle.hminus1_value(Q, f),
                                          rel=1e-8)


def test_approximation_residual_diagnostic(meanzero1d):
    recipe = lambda sp: occupancy_observable(sp, (1,))
    rep = approximation_residual_diagnostic(meanzero1d, 0.5, recipe, [3, 4],
                                            basis_scale=1)
    assert len(rep.values) == 2
    assert all(v >= 0.0 for v in rep.values)
    assert all(np.isfinite(v) for v in rep.values)


def test_one_state_rungs_read_zero(meanzero1d):
    # a lone walker (alpha = 0) or the full lattice (alpha = 1) has one
    # state, on which every observable centres to 0
    recipe = lambda sp: occupancy_observable(sp, (1,))
    for alpha, diagnostic in ((0.0, hminus1_convergence_diagnostic),
                              (1.0, approximation_residual_diagnostic)):
        rep = diagnostic(meanzero1d, alpha, recipe, [3, 4])
        assert rep.values == [0.0, 0.0] and rep.diffs == [0.0], alpha


# -- the symmetry-adapted solve ---------------------------------------------

#: p(x, y) = p(x, -y) only: e1's stabilizer {id, y -> -y} fixes e1, so its
#: character is trivial and the reduced system keeps a null direction
YSYM2D = [((1, 0), 0.4), ((-1, 0), 0.2), ((0, 1), 0.2), ((0, -1), 0.2)]
#: p(x, y, z) = p(x, y, -z) only: e1 and e2 share the stabilizer
#: {id, z -> -z} and its trivial character, so C_12 is lifted and summed;
#: e3's character differs, so C_13 and C_23 vanish
ZSYM3D = [((1, 0, 0), 0.3), ((-1, 0, 0), 0.1), ((0, 1, 0), 0.2),
          ((0, -1, 0), 0.1), ((0, 0, 1), 0.15), ((0, 0, -1), 0.15)]
#: symmetric under {+-I, +-swap}: e1 and e2 share the stabilizer {I, -I}
#: and its character, so C_12 is lifted, e2's through the swap that maps
#: it from e1
DIAG2D = [((1, 0), 0.2), ((-1, 0), 0.2), ((0, 1), 0.2), ((0, -1), 0.2),
          ((1, 1), 0.1), ((-1, -1), 0.1)]


def unreduced_D(sp, kernel, a=None):
    """D through the full generator, which skips the reduction."""
    op = full_generator(sp, kernel)
    if a is None:
        return compute_D_matrix(sp, kernel, tol=1e-12, operator=op).matrix
    return compute_D(sp, kernel, a, tol=1e-12, operator=op).directions[0].D


@pytest.mark.parametrize("d,N,K,entries,a,order", [
    (1, 5, 5, NN1D, None, 2),
    (2, 2, 5, NN2D, None, 4),
    (2, 3, 4, NN2D, None, 4),
    (2, 2, 6, NN2D, [1.0, 1.0], 4),
    (2, 2, 5, YSYM2D, None, 2),
    (3, 2, 3, NN3D, None, 16),
    (2, 2, 4, SWAP2D, [1.0, 1.0], 2),
    (3, 2, 3, ZSYM3D, None, 2),
    (2, 2, 3, NN2D, None, 4),
    (1, 3, 3, NN1D, None, 2),
    (2, 2, 5, DIAG2D, None, 2)])
def test_reduced_D_equals_unreduced(d, N, K, entries, a, order):
    sp = StateSpace(TorusGeometry(d, N), K)
    kernel = build_kernel(d, entries)
    if a is None:
        rep = compute_D_matrix(sp, kernel, tol=1e-12)
        got = rep.matrix
    else:
        rep = compute_D(sp, kernel, a, tol=1e-12)
        got = rep.directions[0].D
    want = unreduced_D(sp, kernel, a)
    assert np.max(np.abs(got - want)) <= 1e-10
    first = rep.directions[0]
    assert first.group_order == order
    assert first.rows < sp.size
    assert all(r.residual <= 2e-12 for r in rep.directions)


def assert_mapped_rows_are_the_source_row(rep):
    """Every direction past the first is mapped from the first, and its
    row is the first's bit for bit."""
    first = rep.directions[0]
    for mapped in rep.directions[1:]:
        assert mapped.method == "symmetry" and mapped.iterations == 0
        assert (mapped.correction, mapped.D, mapped.residual, mapped.rows,
                mapped.group_order) == (first.correction, first.D,
                                        first.residual, first.rows,
                                        first.group_order)


@pytest.mark.parametrize("N,K,entries", [(2, 4, NN2D), (3, 4, NN2D),
                                         (2, 5, DIAG2D)],
                         ids=["2-4", "3-4", "diag-2-5"])
def test_nn2d_matrix_is_exactly_isotropic(N, K, entries):
    # D22 is e1's solution mapped by the swap of the axes, read in e1's
    # coordinates, so D11 == D22 exactly. Nearest-neighbour e1 and e2 have
    # the characters g[0, 0] and g[1, 1] on their common stabilizer, the
    # diagonal sign changes, so D12 is exactly 0; DIAG2D's D12 is lifted
    rep = compute_D_matrix(StateSpace(TorusGeometry(2, N), K),
                           build_kernel(2, entries))
    assert rep.matrix[0, 0] == rep.matrix[1, 1]
    assert rep.matrix[0, 1] == rep.matrix[1, 0]
    assert (rep.matrix[0, 1] == 0.0) == (entries is NN2D)
    assert_mapped_rows_are_the_source_row(rep)


@pytest.mark.parametrize("d,N,K", [(2, 2, 6), (3, 2, 4)])
def test_one_orbit_table_assembly_and_operator_per_class(d, N, K):
    # every axis is mapped from e1, so only e1 builds an orbit table, an
    # assembly and an operator; the others replay against e1's operator
    sp = StateSpace(TorusGeometry(d, N), K)
    with mock.patch.object(StateSpace, "orbits", autospec=True,
                           side_effect=StateSpace.orbits) as orbits, \
            mock.patch("sepdiff.diffusion.ReducedAssembly",
                       wraps=ReducedAssembly) as assemble, \
            mock.patch.object(ReducedAssembly, "operator", autospec=True,
                              side_effect=ReducedAssembly.operator) as build:
        rep = compute_D_matrix(sp, nn_kernel(d), tol=1e-12)
    assert orbits.call_count == assemble.call_count == build.call_count == 1
    assert len(rep.directions) == d
    assert 0.0 < rep.directions[0].residual <= 2e-12
    assert rep.directions[0].rows < sp.size
    assert_mapped_rows_are_the_source_row(rep)


def test_characters_of_one_stabilizer_share_an_assembly():
    # RECT2D's e1 and e2 share a stabilizer, so both are solved: one orbit
    # table and one assembly build both operators, e2's last, into the
    # assembly's moves
    sp = StateSpace(TorusGeometry(2, 2), 4)
    kernel = build_kernel(2, RECT2D)
    with mock.patch("sepdiff.diffusion.ReducedAssembly",
                    wraps=ReducedAssembly) as assemble, \
            mock.patch.object(ReducedAssembly, "operator", autospec=True,
                              side_effect=ReducedAssembly.operator) as build:
        rep = compute_D_matrix(sp, kernel, tol=1e-12)
    assert assemble.call_count == 1
    assert [c.kwargs["last"] for c in build.call_args_list] == [False, True]
    assert [r.rows for r in rep.directions] == [109, 109]
    check_symmetry_route(sp, kernel, rep, 2)


@pytest.mark.parametrize("plant,entries", [
    ("wrong s", NN2D), ("wrong g", NN2D),
    ("wrong s", SWAP2D), ("wrong g", SWAP2D)],
    ids=["wrong s", "wrong g", "swap-wrong s", "swap-wrong g"])
def test_mapped_reduced_direction_checks_its_residual(plant, entries,
                                                      monkeypatch):
    # a mapping with the wrong sign, or the identity in place of the swap,
    # reads a right-hand side in e1's coordinates that s x_1 does not
    # solve: NN2D's reduced ones, or SWAP2D's, where e1 has |H| = 1 and
    # its coordinates are the identity's
    image = diffusion._image

    def planted(group, solved, a):
        hit = image(group, solved, a)
        if hit is None:
            return None
        j, g, s = hit
        return (j, g, -s) if plant == "wrong s" else (j, np.eye(2), s)

    sp = StateSpace(TorusGeometry(2, 2), 4)
    kernel = build_kernel(2, entries)
    first = compute_D_matrix(sp, kernel, tol=1e-12).directions[0]
    assert (first.group_order == 1) == (entries is SWAP2D)
    monkeypatch.setattr(diffusion, "_image", planted)
    with pytest.raises(NotConvergedError, match="mapped by symmetry"):
        compute_D_matrix(sp, kernel, tol=1e-12)


def test_negative_form_along_a_direction_raises(nn1d, monkeypatch):
    # without the free term, 1d NN N=3 K=3 leaves a^t D a = -0.4
    monkeypatch.setattr(diffusion, "_free_form",
                        lambda kernel, a, b, alpha: 0.0)
    with pytest.raises(NonPositiveDError, match=r"a\^t D a = -0\.4"):
        compute_D(space_1d(3, 3), nn1d, [1.0])


def test_indefinite_matrix_raises(nn2d, monkeypatch):
    # 10 added off the diagonal of the free matrix keeps each direction's
    # form positive but gives 2d NN N=2 K=4 the eigenvalue -9.64; the
    # message prints it as a plain float
    free_form = diffusion._free_form

    def shifted(kernel, a, b, alpha):
        off = not np.array_equal(a, b)
        return free_form(kernel, a, b, alpha) + 10.0 * off

    monkeypatch.setattr(diffusion, "_free_form", shifted)
    with pytest.raises(NonPositiveDError, match=r"eigenvalue -9\.636\d* < 0"):
        compute_D_matrix(StateSpace(TorusGeometry(2, 2), 4), nn2d)


#: tracemalloc peak of compute_D_matrix on 2d NN N=3 K=5, bytes per state:
#: 125 measured (numpy 2.4, scipy 1.17), 144 → 125 once the last reduced
#: operator took its assembly's target orbits as its columns and the orbit
#: pass kept int32 minima, 164 → 144 once the reduced
#: operator was built straight to CSR from 6 bytes per move, 199 → 164
#: once the reduced assembly kept no float weight per move, 212 while a
#: mapped direction built its own reduced operator, 340 before the exact
#: route kept its drift, mapped direction and inner products on the
#: representatives; the bound leaves 40% for other numpy and scipy versions
MAX_BYTES_PER_STATE = 175


def test_reduced_route_memory_per_state(nn2d):
    import tracemalloc

    # imports and first-use tables outside the measurement
    compute_D_matrix(StateSpace(TorusGeometry(2, 2), 4), nn2d)
    sp = StateSpace(TorusGeometry(2, 3), 5)
    assert sp.size == 52_360
    tracemalloc.start()
    try:
        rep = compute_D_matrix(sp, nn2d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.directions[0].rows < sp.size
    assert peak / sp.size <= MAX_BYTES_PER_STATE


def test_trivial_character_keeps_the_null_direction():
    # e1 of YSYM2D: every orbit carries functions, the reduced constants
    # are the null direction; e2: y -> -y flips it, so none
    sp = StateSpace(TorusGeometry(2, 2), 5)
    kernel = build_kernel(2, YSYM2D)
    group = _symmetries(kernel)
    assert len(group) == 2
    orbits = sp.orbits(group)
    assembly = ReducedAssembly(sp, kernel, orbits)
    even, odd = assembly.operator([1.0, 1.0]), assembly.operator([1.0, -1.0])
    assert even.size == orbits.reps.size
    assert even.null @ even.null == pytest.approx(1.0, abs=1e-15)
    assert np.abs(even.matvec(even.null)).max() <= 1e-14
    assert odd.null is None and odd.size < orbits.reps.size
    # the reduced operator is L restricted to the lifted functions:
    # restricting a lift gives x back, and the quadratic forms agree
    full = full_generator(sp, kernel)
    x = np.random.default_rng(4).standard_normal(odd.size)
    u = odd.coords.lift(x)
    assert np.allclose(odd.coords.restrict(u), x, rtol=1e-15, atol=0.0)
    assert x @ odd.matvec(x) == pytest.approx(u @ full.matvec(u), rel=1e-12)


def test_reduced_replay_is_the_full_space_residual(nn2d):
    # e1 solved on its reduced system, then mapped onto e2 by the swap of
    # the axes and replayed on e2's: both residuals are the full-space ones
    sp = StateSpace(TorusGeometry(2, 2), 6)
    group = _symmetries(nn2d)
    diagonal = [h for h, g in enumerate(group) if g[0, 1] == 0]
    assembly = ReducedAssembly(sp, nn2d,
                               sp.orbits([group[h] for h in diagonal]))
    full = full_generator(sp, nn2d)
    swap = next(g for g in group if g[0, 1] == 1 and g[1, 0] == 1)
    u = None
    for axis in range(2):
        chi = np.array([float(group[h][axis, axis]) for h in diagonal])
        op = assembly.operator(chi)
        v, _ = local_drift_functions(sp, nn2d, np.eye(2)[axis])
        if u is None:
            rep = solve_general(op, op.coords.restrict(v), tol=1e-8)
            res = rep.relative_residual
            u = op.coords.lift(rep.solution)
            assert 0.0 < res <= 2e-8
        else:
            mapped = np.empty(sp.size)
            mapped[sp.mapped_ranks(swap)] = u
            u = mapped
            res = _replay(op.matvec, op.coords.restrict(u),
                          op.coords.restrict(v), 0.0)
        want = _replay(full.matvec, u, v, 0.0)
        assert res == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("entries", [NN2D, YSYM2D])
def test_reduced_dense_path(entries):
    # the dense factorization adds the reduced null direction's
    # projector, if any
    sp = StateSpace(TorusGeometry(2, 2), 5)
    kernel = build_kernel(2, entries)
    rep = compute_D_matrix(sp, kernel, tol=1e-12, method="dense")
    assert rep.directions[0].method == "dense"
    assert np.max(np.abs(rep.matrix - unreduced_D(sp, kernel))) <= 1e-10


@pytest.mark.parametrize("d,N,K,entries", [(1, 4, 4, MZ1D),
                                           (1, 3, 3, ASYM1D),
                                           (2, 2, 4, ASYM2D)])
def test_trivial_stabilizer_builds_no_orbit_tables(d, N, K, entries,
                                                   monkeypatch):
    sp = StateSpace(TorusGeometry(d, N), K)
    kernel = build_kernel(d, entries)
    want = unreduced_D(sp, kernel)

    def refuse(*args):
        raise AssertionError("orbit tables built")

    monkeypatch.setattr(StateSpace, "orbits", refuse)
    rep = compute_D_matrix(sp, kernel, tol=1e-12)
    assert np.array_equal(rep.matrix, want)
    assert all(r.rows == sp.size and r.group_order == 1
               for r in rep.directions)


def closed_form_1d(N, K):
    """D = (1 - alpha) / K of the symmetric nearest-neighbour kernel on a
    ring of 2N sites, alpha = (K - 1) / (2N - 1): the tagged particle and
    the centre of mass share D, and the centre of mass jumps by +-1/K at
    the stationary mean rate of particle-hole neighbour pairs."""
    return (1.0 - (K - 1) / (2 * N - 1)) / K


@pytest.mark.parametrize("N,K", [(2, 2), (3, 3), (4, 4), (5, 6), (6, 5),
                                 (7, 7), (8, 6), (10, 8)])
def test_symmetric_1d_closed_form(nn1d, N, K):
    rep = compute_D(space_1d(N, K), nn1d, [1.0])
    res = rep.directions[0]
    assert abs(res.D - closed_form_1d(N, K)) <= 1e-12
    assert res.group_order == 2


@pytest.mark.slow
def test_symmetric_1d_closed_form_490k_states(nn1d):
    sp = space_1d(12, 9)
    assert sp.size == 490_314
    res = compute_D(sp, nn1d, [1.0]).directions[0]
    assert abs(res.D - closed_form_1d(12, 9)) <= 1e-12
    assert res.rows < sp.size


def tasep_closed_form(L, K):
    """D = Delta / K^2 of the totally asymmetric kernel p(+1) = 1 with K
    particles on a ring of L sites (Derrida, Evans and Mukamel, J. Phys. A
    26 (1993) 4911), where Delta, the variance rate of the particles'
    total distance, is (2L / (L - 1)) sum_{n=1..K} n^2 C(L, K+n)
    C(L, K-n) / C(L, K)^2; nearest-neighbour particles keep their order,
    so the tagged one walks 1/K of that distance. Exact until the final
    float."""
    s = sum(n * n * math.comb(L, K + n) * math.comb(L, K - n)
            for n in range(1, K + 1))
    delta = Fraction(2 * L, L - 1) * Fraction(s, math.comb(L, K) ** 2)
    return float(delta / K ** 2)


@pytest.mark.parametrize("L,K", [(L, K) for L in range(4, 13, 2)
                                 for K in range(2, L)])
def test_tasep_closed_form(totally_asym1d, L, K):
    res = compute_D(space_1d(L // 2, K), totally_asym1d, [1.0]).directions[0]
    want = tasep_closed_form(L, K)
    assert abs(res.D - want) <= 1e-8 * want


@pytest.mark.slow
def test_tasep_closed_form_352k_states(totally_asym1d):
    sp = space_1d(11, 11)
    assert sp.size == 352_716
    res = compute_D(sp, totally_asym1d, [1.0]).directions[0]
    want = tasep_closed_form(22, 11)
    assert abs(res.D - want) <= 1e-8 * want
