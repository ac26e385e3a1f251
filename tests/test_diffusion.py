import itertools

import numpy as np
import pytest

from sepdiff import (
    BlockTooLargeError,
    NotConvergedError,
    OutOfRangeError,
    StateSpace,
    SupportTooLargeError,
    TorusGeometry,
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
from sepdiff.diffusion import _symmetries
from sepdiff.generator import ReducedAssembly
from sepdiff.sobolev import _replay

import _oracle
from conftest import ASYM1D, MZ1D, NN1D, NN2D, check_symmetry_route


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


def test_mapped_direction_checks_its_residual(nn2d):
    # an operator that does not commute with the kernel's symmetries
    # leaves the mapped axis a large replayed residual
    sp = StateSpace(TorusGeometry(2, 2), 4)
    op = full_generator(sp, build_kernel(2, ASYM2D))
    with pytest.raises(NotConvergedError, match="mapped by symmetry"):
        compute_D_matrix(sp, nn2d, operator=op)


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
        assert np.allclose(w.values, -v.values, atol=1e-14)
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
    with pytest.raises(OutOfRangeError):
        block_env_indices(geo, 0)


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
        got = conditional_expectation(sp, v, l).values
        want = counts / m - sp.alpha
        assert np.allclose(got, want, atol=1e-12)


def test_conditional_expectation_tower_property():
    # exact projection property: E[(v - E[v|count]) g(count)] = 0
    sp = space_1d(4, 4)
    v = occupancy_difference_observable(sp, (1,), (2,))
    l = 2
    proj = conditional_expectation(sp, v, l).values
    idx = block_env_indices(sp.geometry, l)
    mask = 0
    for i in idx:
        mask |= 1 << i
    counts = sp.inside_counts(mask).astype(float)
    for g in (np.ones(sp.size), counts, counts ** 2, np.sin(counts)):
        assert inner(v.values - proj, g) == pytest.approx(0.0, abs=1e-13)
    # projecting twice changes nothing
    again = conditional_expectation(sp, proj, l).values
    assert np.allclose(again, proj, atol=1e-13)


def test_conditional_expectation_matches_combinations_reference():
    # 2d N=3: a 15-site block inside a 35-site environment
    sp = StateSpace(TorusGeometry(2, 3), 4)
    l = 2
    inside = block_env_indices(sp.geometry, l)
    assert len(inside) == 15
    v = np.random.default_rng(5).standard_normal(sp.size)
    mask = sum(1 << i for i in inside)
    outside = [i for i in range(sp.M) if not (mask >> i) & 1]
    avg = {}
    for j in range(sp.k + 1):
        filler = sum(1 << i for i in outside[:sp.k - j])
        masks = [filler | sum(1 << i for i in combo)
                 for combo in itertools.combinations(inside, j)]
        total = 0.0
        for x in v[sp.rank_masks(masks)].tolist():
            total += x
        avg[j] = total / len(masks)
    want = np.array([avg[int(c)] for c in sp.inside_counts(mask)])
    got = conditional_expectation(sp, v, l).values
    assert np.array_equal(got, want)


def test_conditional_expectation_matches_hypergeometric_moment():
    sp = space_1d(8, 8)
    v = occupancy_observable(sp, (1,))
    for l in (1, 2, 4):
        g = conditional_expectation(sp, v, l).values
        want = _oracle.block_second_moment(8, 1, 8, l)
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
    with pytest.raises(BlockTooLargeError):
        multiscale_diagnostic(sp, v, 1, 2, 3)   # scale 8 > N = 4
    with pytest.raises(OutOfRangeError):
        multiscale_diagnostic(sp, v, 1, 1, 2)
    with pytest.raises(OutOfRangeError):
        multiscale_diagnostic(sp, v, 1, 2, 0)


def test_occupancy_observables_centered():
    sp = space_1d(3, 3)
    v = occupancy_observable(sp, (2,))
    assert abs(v.values.mean()) <= 1e-14
    assert v.mean_zero
    d = occupancy_difference_observable(sp, (1,), (-1,))
    assert abs(d.values.mean()) <= 1e-14
    vals = set(np.round(d.values, 12))
    assert vals <= {-1.0, 0.0, 1.0}


def test_hminus1_convergence_diagnostic(meanzero1d):
    recipe = lambda sp: occupancy_observable(sp, (1,)).values
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
    f = occupancy_observable(sp3, (1,)).values
    assert rep.values[0] == pytest.approx(_oracle.hminus1_value(Q, f),
                                          rel=1e-8)


def test_approximation_residual_diagnostic(meanzero1d):
    recipe = lambda sp: occupancy_observable(sp, (1,)).values
    rep = approximation_residual_diagnostic(meanzero1d, 0.5, recipe, [3, 4],
                                            basis_scale=1)
    assert len(rep.values) == 2
    assert all(v >= 0.0 for v in rep.values)
    assert all(np.isfinite(v) for v in rep.values)


# -- the symmetry-adapted solve ---------------------------------------------

#: p(x, y) = p(x, -y) only: e1's stabilizer {id, y -> -y} fixes e1, so its
#: character is trivial and the reduced system keeps a null direction
YSYM2D = [((1, 0), 0.4), ((-1, 0), 0.2), ((0, 1), 0.2), ((0, -1), 0.2)]


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
    (2, 2, 4, SWAP2D, [1.0, 1.0], 2)])
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
    u = odd.lift(x)
    assert np.allclose(odd.restrict(u), x, rtol=1e-15, atol=0.0)
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
            rep = solve_general(op, op.restrict(v.values), tol=1e-8)
            res = rep.relative_residual
            u = op.lift(rep.solution.values)
            assert 0.0 < res <= 2e-8
        else:
            mapped = np.empty(sp.size)
            mapped[sp.mapped_ranks(swap)] = u
            u = mapped
            res = _replay(op, op.restrict(u), op.restrict(v.values), 0.0)
        want = _replay(full, u, v.values, 0.0)
        assert res == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("entries", [NN2D, YSYM2D])
def test_reduced_dense_path(entries):
    # the dense factorization adds the reduced null projector, if any
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
