import math
import warnings

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse.linalg

from sepdiff import (
    NotConvergedError,
    NotMeanZeroError,
    OutOfRangeError,
    PropertyViolatedError,
    SparseOperator,
    StateSpace,
    TorusGeometry,
    build_kernel,
    compute_D,
    dirichlet_form,
    full_generator,
    h1_norm,
    hminus1_norm,
    inner,
    resolvent_sweep,
    sector_constant,
    solve_general,
    spectral_gap,
    symmetric_part,
    verify_prop1,
    approximation_residual,
)

from sepdiff import local_drift_functions, sobolev
from sepdiff.diffusion import _symmetries
from sepdiff.generator import ReducedAssembly
from sepdiff.sobolev import _reflection_halves

import _oracle
from conftest import ASYM1D, MZ1D, NN1D, NN2D

#: 2d kernel with a drift: unequal +-e1 and +-e2 weights
ASYM2D = [((1, 0), 0.4), ((-1, 0), 0.1), ((0, 1), 0.3), ((0, -1), 0.2)]
#: 1d kernel with three entries and a drift
THREE1D = [((1,), 0.2), ((2,), 0.3), ((-2,), 0.5)]
#: 1d totally asymmetric kernel
TASEP1D = [((1,), 1.0)]


def make(entries, N=3, K=3):
    kernel = build_kernel(1, entries)
    sp = StateSpace(TorusGeometry(1, N), K)
    return sp, full_generator(sp, kernel)


def centered_rand(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    return v - v.mean()


def test_solve_spd_dense_and_iterative_agree(nn1d):
    sp, op = make(NN1D)
    b = centered_rand(op.size, 1)
    dense = solve_general(op, b, method="dense")
    iterative = solve_general(op, b, method="iterative", tol=1e-12)
    assert np.allclose(dense.solution, iterative.solution,
                       atol=1e-9)
    assert dense.relative_residual <= 2e-10
    assert iterative.relative_residual <= 2e-12
    assert iterative.method == "iterative-symmetric"
    assert dense.method == "dense"
    # the returned solution really solves (-op) u = b
    assert np.allclose(-op.matvec(dense.solution), b, atol=1e-9)
    assert abs(dense.solution.mean()) <= 1e-12


def test_solve_rejects_biased_rhs():
    _, op = make(NN1D)
    with pytest.raises(NotMeanZeroError):
        solve_general(op, np.ones(op.size))
    with pytest.raises(NotMeanZeroError):
        solve_general(op, np.full(op.size, 0.5))


def test_solve_general_nonsymmetric_matches_reference():
    sp, op = make(ASYM1D)
    _, Q = _oracle.dense_generator(3, 1, 3, ASYM1D)
    b = centered_rand(op.size, 2)
    u = solve_general(op, b, tol=1e-12).solution
    ref = _oracle.solve_singular(-Q, b)
    assert np.allclose(u, ref, atol=1e-8)
    # forced dense path agrees too
    ud = solve_general(op, b, method="dense").solution
    assert np.allclose(ud, ref, atol=1e-10)


@pytest.mark.parametrize("N,K", [(3, 5), (4, 7), (5, 9), (5, 8), (6, 10),
                                 (8, 14)])
def test_gmres_rescues_bicgstab(N, K):
    # one and two holes of TASEP (5 to 105 states): BiCGSTAB breaks down on
    # a 0/0, stalls, diverges (N=6 K=10) to a replayed residual of 1e41,
    # which GMRES must not start from, or (N=8 K=14) overflows; GMRES
    # solves without a warning from either
    sp = StateSpace(TorusGeometry(1, N), K)
    kernel = build_kernel(1, TASEP1D)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = compute_D(sp, kernel, [1.0], tol=1e-12,
                        method="iterative").directions[0]
    dense = compute_D(sp, kernel, [1.0], tol=1e-12,
                      method="dense").directions[0]
    assert rep.method == "iterative-gmres"
    assert rep.residual <= 2e-12
    assert rep.D == pytest.approx(dense.D, rel=1e-10)


def test_bicgstab_solves_above_the_dense_cutoff():
    # 8,855 states: no dense fallback under "auto" either
    sp = StateSpace(TorusGeometry(1, 12), 5)
    assert sp.size > sobolev.DENSE_SOLVE_MAX
    rep = compute_D(sp, build_kernel(1, TASEP1D), [1.0], tol=1e-10,
                    method="iterative").directions[0]
    assert rep.method == "iterative-nonsymmetric"
    assert rep.residual <= 2e-10


def test_gmres_starts_from_the_bicgstab_iterate():
    # at tol 1e-12 BiCGSTAB stops with a replayed residual above 2 tol on
    # this system; GMRES from zero took 771 iterations, from BiCGSTAB's
    # iterate a few
    sp = StateSpace(TorusGeometry(1, 12), 5)
    kernel = build_kernel(1, TASEP1D)
    rep = compute_D(sp, kernel, [1.0], tol=1e-12,
                    method="iterative").directions[0]
    loose = compute_D(sp, kernel, [1.0], tol=1e-10,
                      method="iterative").directions[0]
    assert rep.method == "iterative-gmres"
    assert rep.iterations <= sobolev.GMRES_RESTART
    assert rep.residual <= 2e-12
    assert rep.D == pytest.approx(loose.D, rel=1e-9)


def test_unconverged_solve_names_every_attempt():
    _, op = make(TASEP1D, N=5, K=8)
    b = centered_rand(op.size, 5)
    with pytest.raises(NotConvergedError) as err:
        solve_general(op, b, tol=1e-20, method="iterative")
    message = str(err.value)
    assert "iterative-nonsymmetric" in message
    assert "iterative-gmres" in message


#: the scipy release whose ``cg`` and ``bicgstab`` sobolev's loops replay
#: operation for operation; on any other the solutions agree to 1e-12
REPLAYED_SCIPY = "1.17."


def _scipy_krylov(op, b, tol, lam):
    """scipy's cg (op symmetric) or bicgstab on the projected operator
    that solve_general's own loops run on: (solution, iterations)."""
    n = op.size
    amv = scipy.sparse.linalg.LinearOperator(
        (n, n), dtype=float,
        matvec=lambda v: op.project(sobolev._shifted(op, lam, op.project(v))))
    done = []
    opts = dict(rtol=tol, atol=0.0, maxiter=sobolev._step_cap(n),
                callback=done.append)
    if op.is_symmetric():
        x, info = scipy.sparse.linalg.cg(amv, b, **opts)
    else:
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            x, info = scipy.sparse.linalg.bicgstab(amv, b, **opts)
    assert info == 0
    return op.project(x), len(done)


def _reduced_2d_odd():
    # 2d NN N=2 K=5, e1's stabilizer under the character x -> -x: the
    # reduced operator is symmetric and has no null direction
    sp = StateSpace(TorusGeometry(2, 2), 5)
    kernel = build_kernel(2, NN2D)
    group = [g for g in _symmetries(kernel) if g[0, 1] == 0]
    op = ReducedAssembly(sp, kernel, sp.orbits(group)).operator(
        [float(g[0, 0]) for g in group])
    v, _ = local_drift_functions(sp, kernel, [1.0, 0.0])
    return op, op.coords.restrict(v)


def _full_1d(entries):
    sp = StateSpace(TorusGeometry(1, 12), 6)
    kernel = build_kernel(1, entries)
    return full_generator(sp, kernel), local_drift_functions(
        sp, kernel, [1.0])[0]


@pytest.mark.parametrize("system,path", [
    (_reduced_2d_odd, "iterative-symmetric"),
    (lambda: _full_1d(MZ1D), "iterative-nonsymmetric"),
    (lambda: _full_1d([((1,), 0.8), ((-1,), 0.2)]), "iterative-nonsymmetric"),
], ids=["reduced-2d-nn", "mean-zero-1d", "asym-0.8-0.2-1d"])
@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_krylov_loops_replay_scipy(system, path, lam):
    op, b = system()
    if path == "iterative-symmetric":
        assert op.null is None and op.is_symmetric()
    rep = solve_general(op, b, tol=1e-10, method="iterative", lam=lam)
    ref, its = _scipy_krylov(op, b, 1e-10, lam)
    assert rep.method == path
    assert rep.iterations == its > 0
    if scipy.__version__.startswith(REPLAYED_SCIPY):
        assert rep.solution.tobytes() == ref.tobytes()
    else:
        assert np.allclose(rep.solution, ref, rtol=1e-12,
                           atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("entries,lam", [(NN1D, 0.0), (MZ1D, 0.0),
                                         (NN1D, 0.5), (MZ1D, 0.5)])
def test_zero_rhs_returns_zero_at_once(entries, lam):
    # a loop without the |b| = 0 guard divides 0 by 0: CG returns NaN and
    # BiCGSTAB breaks down into a needless GMRES run
    _, op = make(entries, N=6, K=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = solve_general(op, np.zeros(op.size), method="iterative",
                            lam=lam)
    assert rep.method == ("iterative-symmetric" if op.is_symmetric()
                          else "iterative-nonsymmetric")
    assert rep.solution.tolist() == [0.0] * op.size
    assert rep.iterations == 0 and rep.relative_residual == 0.0


def test_h1_norm_matches_reference(meanzero1d):
    sp, op = make(MZ1D)
    _, Q = _oracle.dense_generator(3, 1, 3, MZ1D)
    f = centered_rand(op.size, 3)
    assert h1_norm(op, f) == pytest.approx(_oracle.h1_value(Q, f), rel=1e-12)
    assert h1_norm(op, f) ** 2 == pytest.approx(dirichlet_form(op, f),
                                                rel=1e-12)


def test_hminus1_matches_eigendecomposition_reference():
    for entries in (NN1D, MZ1D, ASYM1D):
        _, op = make(entries)
        _, Q = _oracle.dense_generator(3, 1, 3, entries)
        f = centered_rand(op.size, 4)
        assert hminus1_norm(op, f, tol=1e-12) == pytest.approx(
            _oracle.hminus1_value(Q, f), rel=1e-9
        )


def test_hminus1_matches_variational_maximum():
    # |f|_-1^2 = sup_g [ 2 <f, g> - <g, -S g> ], found numerically
    _, op = make(NN1D, N=2, K=2)
    sym = symmetric_part(op)
    f = np.array([1.0, -1.0, 0.0])
    f -= f.mean()

    def neg_obj(g):
        return -(2.0 * inner(f, g) - dirichlet_form(sym, g))

    best = -math.inf
    for seed in range(3):
        res = scipy.optimize.minimize(
            neg_obj, centered_rand(3, seed), method="BFGS",
            options={"gtol": 1e-12, "maxiter": 500},
        )
        best = max(best, -res.fun)
    assert hminus1_norm(op, f) ** 2 == pytest.approx(best, rel=1e-7)


def test_duality_pairing_bound():
    _, op = make(MZ1D)
    rng = np.random.default_rng(9)
    for _ in range(20):
        f = rng.standard_normal(op.size)
        g = rng.standard_normal(op.size)
        f -= f.mean()
        g -= g.mean()
        lhs = abs(inner(f, g))
        rhs = h1_norm(op, f) * hminus1_norm(op, g)
        assert lhs <= rhs * (1.0 + 1e-9) + 1e-300


def test_spectral_gap_three_state_exact(nn1d):
    # hand eigenvalues of the negative symmetrized three-state matrix:
    # {0, 1, 3}
    _, op = make(NN1D, N=2, K=2)
    assert spectral_gap(op) == pytest.approx(1.0, abs=1e-12)
    evals = np.linalg.eigvalsh(-op.to_dense())
    assert np.allclose(evals, [0.0, 1.0, 3.0], atol=1e-12)


@pytest.mark.parametrize("entries", [NN1D, MZ1D])
def test_spectral_gap_dense_vs_iterative(entries):
    _, op = make(entries)
    sym = symmetric_part(op)
    d = spectral_gap(sym, method="dense")
    i = spectral_gap(sym, method="iterative", tol=1e-12)
    _, Q = _oracle.dense_generator(3, 1, 3, entries)
    assert d == pytest.approx(_oracle.spectral_gap_value(Q), rel=1e-10)
    assert i == pytest.approx(d, rel=1e-8)


def make_2d(entries, K, N=2):
    kernel = build_kernel(2, entries)
    sp = StateSpace(TorusGeometry(2, N), K)
    return full_generator(sp, kernel)


def test_spectral_gap_lanczos_matches_dense_on_close_spectrum():
    # 2d NN, N=2, K=3: 105 states; the gap 0.727 sits below a double
    # eigenvalue 0.798, a ratio that stalls inverse power iteration
    sym = symmetric_part(make_2d(NN2D, 3))
    d = spectral_gap(sym, method="dense")
    i = spectral_gap(sym, method="iterative")
    assert i == pytest.approx(d, rel=1e-10)
    assert spectral_gap(sym, method="iterative") == i


def test_sector_constant_lanczos_matches_dense_2d():
    op = make_2d(ASYM2D, 4)
    d = sector_constant(op, method="dense")
    i = sector_constant(op, method="iterative")
    assert d > 0.0
    assert i == pytest.approx(d, rel=1e-10)
    assert sector_constant(op, method="iterative") == i


@pytest.mark.parametrize("entries", [NN1D, MZ1D, ASYM1D])
def test_lanczos_matches_oracle_above_basis_size(entries):
    # 1d N=4 K=4: 35 states, more than the 20-vector Lanczos basis
    _, op = make(entries, N=4, K=4)
    _, Q = _oracle.dense_generator(4, 1, 4, entries)
    gap = spectral_gap(symmetric_part(op), method="iterative")
    assert gap == pytest.approx(_oracle.spectral_gap_value(Q), rel=1e-10)
    c = sector_constant(op, method="iterative")
    assert c == pytest.approx(_oracle.sector_value(Q), rel=1e-10, abs=1e-12)


def test_spectral_gap_lanczos_on_symmetric_2d_space():
    # 2d NN, N=3, K=2: 35 states with 23 distinct eigenvalues; the gap's
    # eigenvector is nearly orthogonal to the alternating +-1 vector
    sym = symmetric_part(make_2d(NN2D, 2, N=3))
    d = spectral_gap(sym, method="dense")
    i = spectral_gap(sym, method="iterative")
    assert i == pytest.approx(d, rel=1e-10)
    assert spectral_gap(sym, method="iterative") == i


def test_spectral_gap_lanczos_start_is_generic():
    # 2d N=3, K=2 under a five-entry kernel: 35 states whose gap
    # eigenvector is orthogonal to the alternating +-1 vector, from which
    # Lanczos returned the next eigenvalue, 1.4597
    kernel = build_kernel(2, [((-2, 0), 0.2), ((-1, -1), 0.2), ((0, 2), 0.2),
                              ((1, -2), 0.2), ((2, 1), 0.2)])
    sp = StateSpace(TorusGeometry(2, 3), 2)
    sym = symmetric_part(full_generator(sp, kernel))
    w, q = np.linalg.eigh(-sym.to_dense())
    alternating = np.where(np.arange(sp.size) % 2 == 0, 1.0, -1.0)
    assert abs(q[:, 1] @ alternating) < 1e-10
    assert spectral_gap(sym, method="iterative") == pytest.approx(
        w[1], rel=1e-10)


def test_iterative_spectral_gap_makes_no_solve(monkeypatch):
    # Lanczos applies the symmetric generator itself, never its inverse
    def no_solve(*args, **kwargs):
        raise AssertionError("spectral_gap called solve_general")

    sym = symmetric_part(make_2d(NN2D, 3))
    d = spectral_gap(sym, method="dense")
    monkeypatch.setattr(sobolev, "solve_general", no_solve)
    assert spectral_gap(sym, method="iterative") == pytest.approx(d, rel=1e-10)


def test_spectral_gap_lanczos_small_gap_against_spectrum_top():
    # 1d NN, N=24, K=3: 1,081 states; the gap 0.0060 is small against the
    # top of the spectrum, so Lanczos on the generator itself sees it
    # poorly separated from the next eigenvalues
    _, op = make(NN1D, N=24, K=3)
    sym = symmetric_part(op)
    d = spectral_gap(sym, method="dense")
    assert d == pytest.approx(0.0060, rel=0.01)
    assert spectral_gap(sym, method="iterative") == pytest.approx(d, rel=1e-10)


def test_lanczos_restart_stays_on_mean_zero_subspace(monkeypatch):
    # 1d totally asymmetric, N=3, K=3: 10 states whose symmetric part has
    # 7 distinct eigenvalues, so the Krylov space of the start vector runs
    # out and the recurrence goes on from rounding noise, which can carry
    # a constant component
    calls, real_lanczos = [], sobolev._lanczos_top
    monkeypatch.setattr(sobolev, "_lanczos_top", lambda *a, **kw: (
        calls.append(1) or real_lanczos(*a, **kw)))
    _, op = make(ASYM1D)
    _, Q = _oracle.dense_generator(3, 1, 3, ASYM1D)
    values = {sector_constant(op, method="iterative") for _ in range(20)}
    assert len(values) == 1
    assert values.pop() == pytest.approx(_oracle.sector_value(Q), rel=1e-10)
    gaps = {spectral_gap(symmetric_part(op), method="iterative")
            for _ in range(20)}
    assert len(gaps) == 1
    assert gaps.pop() == pytest.approx(_oracle.spectral_gap_value(Q),
                                       rel=1e-10)
    assert len(calls) == 40


@pytest.mark.parametrize("d, entries, N, K", [
    (1, ASYM1D, 3, 3), (1, MZ1D, 4, 4), (1, ASYM1D, 4, 4), (2, ASYM2D, 2, 3),
    (2, ASYM2D, 2, 4), (1, THREE1D, 5, 5), (1, MZ1D, 6, 6)])
def test_sector_constant_odd_half_matches_oracle(d, entries, N, K):
    # 10 to 462 states; the two halves of the point reflection split the
    # states, and the odd one, nonsingular and above the dense size, is
    # where Lanczos runs
    sp = StateSpace(TorusGeometry(d, N), K)
    op = full_generator(sp, build_kernel(d, entries))
    even, odd = _reflection_halves(op)
    assert even.size + odd.size == op.size
    assert odd.size > 2 and odd.null is None and even.null is not None
    assert even.offdiag.format == odd.offdiag.format == "csr"
    _, Q = _oracle.dense_generator(N, d, K, entries)
    assert sector_constant(op, method="iterative") == pytest.approx(
        _oracle.sector_value(Q), rel=1e-10)


def test_iterative_sector_constant_needs_full_generator():
    _, op = make(ASYM1D)
    raw = SparseOperator(op.size, op.offdiag)
    with pytest.raises(ValueError):
        sector_constant(raw, method="iterative")
    assert sector_constant(raw, method="dense") == sector_constant(
        op, method="dense")


@pytest.mark.parametrize("entries", [ASYM1D, MZ1D])
def test_sector_constant_small_odd_half_runs_dense(entries, monkeypatch):
    # 1d N=3 K=5: 5 states, of which 2 carry odd functions, too few for
    # Lanczos
    calls = []
    monkeypatch.setattr(sobolev, "_lanczos_top",
                        lambda *a, **kw: calls.append(1))
    _, op = make(entries, N=3, K=5)
    assert _reflection_halves(op)[1].size == 2
    c = sector_constant(op, method="iterative")
    assert c > 0.0 and calls == []
    assert c == sector_constant(op, method="dense")


def test_lanczos_failure_is_not_converged(monkeypatch):
    # a Ritz residual that never falls runs Lanczos into its step cap,
    # min(10 n + 100, 100000): 200 steps on the 10 states, 140 on the 4 odd
    # functions
    monkeypatch.setattr(sobolev, "_top_ritz", lambda *a: (1.0, math.inf))
    _, op = make(ASYM1D)
    with pytest.raises(NotConvergedError):
        spectral_gap(symmetric_part(op), method="iterative")
    with pytest.raises(NotConvergedError):
        sector_constant(op, method="iterative")


def _lanczos_calls(monkeypatch, run):
    """The (n, matvec, tol, m, minv) of every _lanczos_top call made by
    ``run``, and what they returned."""
    calls, real = [], sobolev._lanczos_top

    def record(n, matvec, tol, m=None, minv=None):
        calls.append((n, matvec, tol, m, minv, real(n, matvec, tol, m, minv)))
        return calls[-1][-1]

    monkeypatch.setattr(sobolev, "_lanczos_top", record)
    run()
    return calls


@pytest.mark.parametrize("what, d, entries, N, K", [
    ("gap", 1, MZ1D, 4, 4), ("gap", 2, NN2D, 2, 3), ("gap", 1, NN1D, 12, 3),
    ("C", 1, MZ1D, 6, 6), ("C", 2, ASYM2D, 2, 4)])
def test_lanczos_top_matches_arpack_and_dense(what, d, entries, N, K,
                                              monkeypatch):
    # 35 to 462 states: the gap's shifted generator (253 states: a gap of
    # 0.025, small against the top of the spectrum) and the sector
    # constant's pencil on the odd functions (226 and 218 of them)
    from scipy.sparse.linalg import LinearOperator, eigsh

    op = full_generator(StateSpace(TorusGeometry(d, N), K),
                        build_kernel(d, entries))
    if what == "gap":
        calls = _lanczos_calls(monkeypatch, lambda: spectral_gap(
            symmetric_part(op), method="iterative"))
    else:
        calls = _lanczos_calls(monkeypatch, lambda: sector_constant(
            op, method="iterative"))
    (n, matvec, tol, m, minv, top), = calls
    lin = [None if f is None else LinearOperator((n, n), matvec=f,
                                                 dtype=float)
           for f in (matvec, m, minv)]
    arpack = eigsh(lin[0], k=1, M=lin[1], Minv=lin[2], which="LA",
                   v0=np.random.default_rng(0).standard_normal(n),
                   ncv=min(20, n), tol=tol, return_eigenvectors=False)[0]
    assert top == pytest.approx(arpack, rel=1e-10)
    _, Q = _oracle.dense_generator(N, d, K, entries)
    if what == "gap":
        assert -top == pytest.approx(_oracle.spectral_gap_value(Q), rel=1e-10)
    else:
        assert top == pytest.approx(_oracle.sector_value(Q), rel=1e-10)


@pytest.mark.parametrize("k", [1, 2, 3, 10, 60, 200])
def test_top_ritz_matches_eigh(k):
    # random tridiagonals, some with a cluster at the top; the guess lies
    # above the top, at it, at the top of T less its last row and column,
    # below the second eigenvalue, or is none
    rng = np.random.default_rng(k)
    for trial in range(6):
        alphas = rng.standard_normal(k)
        if trial % 2:
            alphas[: k // 2] = 1.0 + 1e-9 * rng.standard_normal(k // 2)
        offs = rng.uniform(0.01, 1.0, k - 1) * 10.0 ** -(trial % 3)
        t = np.diag(alphas) + np.diag(offs, 1) + np.diag(offs, -1)
        w, v = np.linalg.eigh(t)
        scale = np.abs(w).max()
        lead = np.linalg.eigvalsh(t[:-1, :-1])[-1] if k > 1 else None
        below = w[-2] - 1.0 if k > 1 else None
        for guess in (None, w[-1] + 1e-9, w[-1], lead, below):
            theta, s = sobolev._top_ritz(alphas.tolist(), offs.tolist(),
                                         guess)
            assert abs(theta - w[-1]) <= 1e-13 * scale
            if k > 1 and w[-1] - w[-2] > 1e-6 * scale:
                assert s == pytest.approx(abs(v[-1, -1]), rel=1e-6, abs=1e-13)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lanczos_non_finite_is_not_converged(bad):
    def poisoned(x):
        return np.full(x.size, bad)

    def identity(x):
        return x.copy()

    with np.errstate(invalid="ignore"), pytest.raises(NotConvergedError):
        sobolev._lanczos_top(10, poisoned, 1e-10)
    with np.errstate(invalid="ignore"), pytest.raises(NotConvergedError):
        sobolev._lanczos_top(10, identity, 1e-10, m=identity, minv=poisoned)


def test_eigenvalue_routines_reject_unknown_method():
    _, op = make(MZ1D)
    with pytest.raises(ValueError):
        spectral_gap(symmetric_part(op), method="lanczos")
    with pytest.raises(ValueError):
        sector_constant(op, method="power")


def test_spectral_gap_requires_symmetry():
    _, op = make(ASYM1D)
    with pytest.raises(ValueError):
        spectral_gap(op)


def test_sector_constant_symmetric_is_zero(nn1d):
    _, op = make(NN1D)
    assert sector_constant(op) == 0.0


def half_filled_C(entries, N):
    """Sector constant of the full generator of a 1d kernel on the torus of
    side 2N at half filling, K = N."""
    return sector_constant(make(entries, N=N, K=N)[1])


def test_tasep_sector_constant_grows_with_N():
    # the sector condition fails for TASEP: its constant grows with the
    # torus, strictly, along N = 3..7
    c = [half_filled_C(TASEP1D, N) for N in range(3, 8)]
    assert all(a < b for a, b in zip(c, c[1:]))
    assert c == pytest.approx([0.333, 1.000, 1.894, 3.000, 4.312], abs=5e-4)


@pytest.mark.parametrize("p", [0.8, 0.65])
def test_nn_sector_constant_is_tasep_times_drift_squared(p):
    # every 1d NN kernel p(1) = p, p(-1) = 1 - p has TASEP's symmetric
    # part, since L_z^T = L_{-z}, and 2p - 1 times its skew part; the
    # constant is quadratic in the skew part
    for N in range(3, 7):
        want = (2 * p - 1) ** 2 * half_filled_C(TASEP1D, N)
        got = half_filled_C([((1,), p), ((-1,), 1 - p)], N)
        assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("entries", [MZ1D, ASYM1D])
def test_sector_constant_matches_eig_reference(entries):
    _, op = make(entries)
    _, Q = _oracle.dense_generator(3, 1, 3, entries)
    ref = _oracle.sector_value(Q)
    assert sector_constant(op, method="dense") == pytest.approx(ref, rel=1e-8)
    assert sector_constant(op, method="iterative", tol=1e-12) == pytest.approx(
        ref, rel=1e-6
    )


def test_sector_constant_bounds_the_pairing():
    _, op = make(MZ1D)
    c = sector_constant(op)
    a = -op.to_dense()
    b = 0.5 * (a - a.T)
    sym = symmetric_part(op)
    rng = np.random.default_rng(17)
    for _ in range(40):
        f = rng.standard_normal(op.size)
        g = rng.standard_normal(op.size)
        f -= f.mean()
        g -= g.mean()
        lhs = inner(f, b @ g) ** 2
        rhs = c * dirichlet_form(sym, f) * dirichlet_form(sym, g)
        assert lhs <= rhs * (1.0 + 1e-8) + 1e-300


@pytest.mark.parametrize("entries", [NN1D, MZ1D, ASYM1D])
def test_prop1_inequalities_hold(entries):
    _, op = make(entries)
    rep = verify_prop1(op, n_pairs=60, seed=2)
    assert rep.max_duality_ratio <= 1.0 + 1e-9
    assert rep.max_cauchy_ratio <= 1.0 + 1e-9
    assert rep.min_bound_ratio_iii >= 1.0 - 1e-9
    assert rep.max_equality_gap_i <= 1e-6
    if rep.symmetric:
        assert rep.max_equality_gap_iii <= 1e-9


@pytest.mark.parametrize("entries,call,factor,match", [
    (MZ1D, 0, 0.01, r"\(i\) violated"),
    (MZ1D, 1, 2.0, r"\(i\) equality not attained"),
    (MZ1D, 2, 0.5, r"\(ii\) violated"),
    (MZ1D, 2, 2.0, r"\(iii\) violated"),
    (NN1D, 2, 0.999, r"\(iii\) equality violated for symmetric op"),
], ids=["i", "i-equality", "ii", "iii", "iii-equality"])
def test_prop1_reports_each_violated_inequality(entries, call, factor,
                                                 match, monkeypatch):
    # |.|_1 is read three times a pair, at h, at the solution u_g and at
    # f; scaling one of the three readings breaks one inequality, or the
    # equality of (iii) for the symmetric NN kernel, on 1d N=3 K=3
    _, op = make(entries)
    h1_norm = sobolev.h1_norm
    calls = []

    def scaled(op, f):
        calls.append(None)
        value = h1_norm(op, f)
        return value * factor if (len(calls) - 1) % 3 == call else value

    monkeypatch.setattr(sobolev, "h1_norm", scaled)
    with pytest.raises(PropertyViolatedError, match=match):
        verify_prop1(op, n_pairs=20, seed=0)


@pytest.mark.parametrize("n_pairs", [2.5, 0, -1, True, "3"])
def test_prop1_refuses_a_pair_count_that_is_not_whole_and_positive(n_pairs):
    # 1d mean-zero N=3 K=3; 0 pairs would report that nothing was checked
    _, op = make(MZ1D)
    with pytest.raises(OutOfRangeError):
        verify_prop1(op, n_pairs=n_pairs, seed=2)
    assert verify_prop1(op, n_pairs=2.0, seed=2).n_pairs == 2


@pytest.mark.parametrize("seed", [-1, 2.5, True, "3", None])
def test_prop1_refuses_a_seed_that_is_not_whole_and_non_negative(seed):
    _, op = make(MZ1D)
    with pytest.raises(OutOfRangeError):
        verify_prop1(op, n_pairs=2, seed=seed)
    assert verify_prop1(op, n_pairs=2, seed=2.0).n_pairs == 2


def test_tolerance_not_finite_and_positive_is_refused(monkeypatch):
    # refused before any work: no solve and no Lanczos step
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(sobolev, "_krylov_projected", refuse)
    monkeypatch.setattr(sobolev, "_lanczos_top", refuse)
    _, op = make(MZ1D)
    sym = symmetric_part(op)
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(OutOfRangeError):
            solve_general(op, np.zeros(op.size), tol=tol)
        for method in ("dense", "iterative"):
            with pytest.raises(OutOfRangeError):
                spectral_gap(sym, tol=tol, method=method)
            with pytest.raises(OutOfRangeError):
                sector_constant(op, tol=tol, method=method)


def test_resolvent_solves_shifted_system():
    # nonsymmetric (BiCGSTAB) and symmetric (CG) operators, every method
    for entries in (MZ1D, NN1D):
        _, op = make(entries)
        _, Q = _oracle.dense_generator(3, 1, 3, entries)
        h = centered_rand(op.size, 6)
        for lam in (1.0, 0.1):
            ref = np.linalg.solve(lam * np.eye(op.size) - Q, h)
            for method in ("dense", "iterative", "auto"):
                rep = solve_general(op, h, tol=1e-12, method=method, lam=lam)
                assert np.allclose(rep.solution, ref, atol=1e-9)
                assert rep.relative_residual <= 2e-12
                assert (rep.method == "dense") == (method == "dense")
    with pytest.raises(ValueError):
        solve_general(op, h, lam=-0.5)


def test_resolvent_sweep_approaches_limit():
    _, op = make(NN1D)
    h = centered_rand(op.size, 7)
    entriesout = resolvent_sweep(op, h, [1.0, 0.1, 0.01, 0.001], tol=1e-12)
    lams = [e["lam"] for e in entriesout]
    assert lams == sorted(lams, reverse=True)
    dists = [e["dist_to_limit_h1"] for e in entriesout]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert dists[-1] <= 1e-2 * max(dists[0], 1e-300)


def test_approximation_residual_exact_representation():
    sp, op = make(NN1D)
    rng = np.random.default_rng(8)
    b1 = centered_rand(op.size, 81)
    b2 = centered_rand(op.size, 82)
    h = -op.matvec(b1)
    h -= h.mean()
    resid, coeffs = approximation_residual(op, h, [b1, b2])
    assert resid <= 1e-7
    assert coeffs[0] == pytest.approx(1.0, abs=1e-6)
    # a larger basis can only fit better
    h2 = centered_rand(op.size, 83)
    r_small, _ = approximation_residual(op, h2, [b1])
    r_big, _ = approximation_residual(op, h2, [b1, b2])
    assert r_big <= r_small + 1e-12


def test_size_one_degenerate_paths(nn1d):
    sp = StateSpace(TorusGeometry(1, 2), 4)   # full lattice
    assert sp.size == 1
    op = None
    # gap of a single state is infinite by convention; solves are trivial
    from sepdiff.generator import SparseOperator
    import scipy.sparse as s

    tiny = SparseOperator(1, s.csr_matrix((1, 1)))
    assert spectral_gap(tiny) == math.inf
    rep = solve_general(tiny, np.zeros(1))
    assert rep.solution.tolist() == [0.0]
    assert sector_constant(tiny) == 0.0
