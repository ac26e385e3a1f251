"""Energy norms, linear solves and spectra of generator operators.

Every linear solve goes through :func:`solve_general`, which solves
(lam I - L) u = f on the mean-zero subspace. At lam = 0 the system is
singular with the constants as (left and right) null space; lam > 0 gives
the resolvent. Its iterative path is scipy's conjugate gradients or
restarted GMRES on an operator that re-projects onto the mean-zero
subspace. The operator carries its null direction: the constants for a
generator, and for a generator reduced to one symmetry type
(``generator.ReducedOperator``) the reduced constants or none.

The H1 seminorm is the square root of the Dirichlet form; the dual H-1
norm is realized by one solve against the symmetric part: (-S) u = f
gives |f|_{-1}^2 = <f, u>.

The spectral gap and the sector constant are top eigenvalues of
operators applied through such solves, found by ARPACK's implicitly
restarted Lanczos (``eigsh``) above ``DENSE_EIG_MAX`` states and by a
dense eigendecomposition below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import ArpackError, LinearOperator, cg, eigsh, gmres

from .errors import NotConvergedError, PropertyViolatedError
from .generator import (
    ObservableVector,
    center,
    dirichlet_form,
    inner,
    require_mean_zero,
    symmetric_part,
    values_of,
)

DENSE_SOLVE_MAX = 5000
DENSE_EIG_MAX = 2000
GMRES_RESTART = 50
#: tolerance of the solves inside the Lanczos eigenvalue routines
EIG_SOLVE_TOL = 1e-12
#: Lanczos basis size, ARPACK's default for one eigenvalue
LANCZOS_NCV = 20


@dataclass
class SolveReport:
    solution: ObservableVector
    relative_residual: float
    iterations: int
    method: str


def _check_method(method):
    if method not in ("auto", "iterative", "dense"):
        raise ValueError(f"unknown solve method {method!r}")


def _shifted(op, lam, v):
    """(lam I - op) v."""
    return lam * v - op.matvec(v)


def _replay(op, u, b, lam):
    """Recomputed relative residual of (lam I - op) u = b."""
    bn = float(np.linalg.norm(b))
    if bn == 0.0:
        return 0.0
    return float(np.linalg.norm(_shifted(op, lam, u) - b)) / bn


def _krylov_projected(op, b, tol, lam):
    """Krylov solve of (lam I - op) u = b on the operator wrapped so every
    application re-projects off its null direction: scipy's conjugate
    gradients when op is symmetric, restarted GMRES otherwise.

    Returns (u, iterations, converged, path).
    """
    n = op.size
    amv = LinearOperator(
        (n, n), matvec=lambda v: op.project(_shifted(op, lam, op.project(v))),
        dtype=float,
    )
    count = [0]

    def _cb(_):
        count[0] += 1

    opts = dict(rtol=tol, atol=0.0, maxiter=min(10 * n + 100, 100_000),
                callback=_cb)
    if op.is_symmetric():
        path = "iterative-symmetric"
        x, info = cg(amv, b, **opts)
    else:
        path = "iterative-nonsymmetric"
        x, info = gmres(amv, b, restart=GMRES_RESTART,
                        callback_type="pr_norm", **opts)
    return op.project(x), count[0], info == 0, path


def solve_general(op, b, tol=1e-10, method="auto", lam=0.0):
    """Solve (lam I - op) u = b for the u orthogonal to op's null
    direction.

    Parameters
    ----------
    op : SparseOperator or ReducedOperator
        Generator of a connected system that keeps the uniform measure
        stationary, so for lam = 0 the constants span both null spaces; or
        a generator reduced to one symmetry type, whose null direction
        (``op.null``) is the reduced constants or none at all.
    b : array or ObservableVector
        Right-hand side orthogonal to the null direction: mean-zero for a
        generator.
    method : {"auto", "iterative", "dense"}
        "iterative" runs scipy's conjugate gradients when op is symmetric
        and restarted GMRES otherwise, both on the operator re-projected
        off the null direction and capped at min(10 n + 100, 100000)
        iterations (GMRES: restart cycles); "dense" factors
        lam I - op + P, whose projector P onto the null direction (1/n in
        every entry for a generator) lifts that direction and leaves the
        solution unchanged; "auto" tries the iterative path first and
        falls back to dense for sizes up to ``DENSE_SOLVE_MAX``.
    lam : float
        Resolvent parameter, >= 0; 0 is the singular Poisson problem.

    Returns
    -------
    SolveReport
        The replayed residual of every returned report is at most 2*tol.
    """
    if lam < 0.0:
        raise ValueError(f"resolvent parameter must be >= 0, got {lam}")
    _check_method(method)
    b = values_of(b)
    op.require_range(b, "right-hand side")
    n = op.size
    if n == 0 or (n == 1 and op.null is not None):
        # the only solution off the null direction is 0
        return SolveReport(ObservableVector(np.zeros(n)), 0.0, 0, "dense")

    failures = []
    if method != "dense":
        x, its, converged, path = _krylov_projected(op, b, tol, lam)
        res = _replay(op, x, b, lam)
        if converged and res <= 2.0 * tol:
            return SolveReport(ObservableVector(x), res, its, path)
        failures.append(f"{path} stopped after {its} iterations "
                        f"(converged={converged}, replayed residual {res:.3e})")
    if method == "dense" or (method == "auto" and n <= DENSE_SOLVE_MAX):
        a = -op.to_dense()
        a[np.diag_indices_from(a)] += lam
        a += op.null_projector()
        x = op.project(np.linalg.solve(a, b))
        res = _replay(op, x, b, lam)
        if res <= 2.0 * tol:
            return SolveReport(ObservableVector(x), res, 0, "dense")
        failures.append(f"dense solve left replayed residual {res:.3e}")
    raise NotConvergedError("; ".join(failures) + f"; tol {tol:.1e}")


def h1_norm(op, f):
    """Energy seminorm sqrt(<f, -op f>); tiny negative round-off clamps to 0."""
    q = dirichlet_form(op, f)
    return math.sqrt(max(q, 0.0))


def hminus1_norm(op, f, tol=1e-10, method="auto"):
    """Dual norm of a mean-zero f, via one SPD solve against the symmetric
    part of op: |f|_{-1}^2 = <f, u> with (-S) u = f."""
    f = values_of(f)
    require_mean_zero(f)
    sym = op if op.is_symmetric() else symmetric_part(op)
    rep = solve_general(sym, f, tol=tol, method=method)
    return math.sqrt(max(inner(f, rep.solution.values), 0.0))


@dataclass
class Prop1Report:
    """Replay of the three duality inequalities on random mean-zero pairs."""

    n_pairs: int
    symmetric: bool
    max_duality_ratio: float       # (i): <h,g>/(|h|_1 |g|_-1), should be <= 1
    max_equality_gap_i: float      # (i): attainment gap at the optimizer
    max_cauchy_ratio: float        # (ii): |<f,g>|/(|f|_1 |g|_-1), <= 1
    min_bound_ratio_iii: float     # (iii): |(-L)f|_-1 / |f|_1, >= 1
    max_equality_gap_iii: float    # (iii): |ratio - 1| when symmetric


def verify_prop1(op, n_pairs=100, seed=0, tol=1e-9):
    """Check the duality inequalities between the energy and dual norms.

    For random mean-zero pairs (f, g):
      (i)   <h, g> <= |h|_1 |g|_{-1} for random h, with equality attained
            at the defining solve;
      (ii)  <f, g> <= |f|_1 |g|_{-1};
      (iii) |f|_1 <= |(-op) f|_{-1}, with equality for symmetric op.

    Raises PropertyViolatedError with a witness on the first failure.
    """
    n = op.size
    if n < 2:
        raise PropertyViolatedError("need at least 2 states to test norms")
    rng = np.random.default_rng(seed)
    is_sym = op.is_symmetric()
    sym = op if is_sym else symmetric_part(op)

    # one dense factorization serves all solves at test scale
    a = -sym.to_dense() + 1.0 / n
    lu = scipy.linalg.lu_factor(a)

    def dual_solve(v):
        return center(scipy.linalg.lu_solve(lu, v))

    max_dual = 0.0
    max_gap_i = 0.0
    max_cs = 0.0
    min_iii = math.inf
    max_gap_iii = 0.0
    for trial in range(n_pairs):
        f = center(rng.standard_normal(n))
        g = center(rng.standard_normal(n))
        h = center(rng.standard_normal(n))
        u_g = dual_solve(g)
        gm1 = math.sqrt(max(inner(g, u_g), 0.0))

        # (i) upper bound at a random h, equality at h = u_g
        h1_h = h1_norm(op, h)
        if h1_h > 0 and gm1 > 0:
            ratio = inner(h, g) / (h1_h * gm1)
            max_dual = max(max_dual, ratio)
            if ratio > 1.0 + tol:
                raise PropertyViolatedError(
                    f"(i) violated at pair {trial}: <h,g>/(|h|_1 |g|_-1) = "
                    f"{ratio!r} > 1"
                )
        h1_u = h1_norm(op, u_g)
        if gm1 > 0 and h1_u > 0:
            gap = abs(inner(u_g, g) / (h1_u * gm1) - 1.0)
            max_gap_i = max(max_gap_i, gap)
            if gap > 1e-6:
                raise PropertyViolatedError(
                    f"(i) equality not attained at pair {trial}: gap {gap:.3e}"
                )

        # (ii)
        h1_f = h1_norm(op, f)
        if h1_f > 0 and gm1 > 0:
            ratio = abs(inner(f, g)) / (h1_f * gm1)
            max_cs = max(max_cs, ratio)
            if ratio > 1.0 + tol:
                raise PropertyViolatedError(
                    f"(ii) violated at pair {trial}: |<f,g>|/(|f|_1 |g|_-1) = "
                    f"{ratio!r} > 1"
                )

        # (iii)
        af = center(-op.matvec(f))
        u_af = dual_solve(af)
        afm1 = math.sqrt(max(inner(af, u_af), 0.0))
        if h1_f > 0:
            ratio = afm1 / h1_f
            min_iii = min(min_iii, ratio)
            if ratio < 1.0 - tol:
                raise PropertyViolatedError(
                    f"(iii) violated at pair {trial}: |(-L)f|_-1/|f|_1 = "
                    f"{ratio!r} < 1"
                )
            if is_sym:
                gap = abs(ratio - 1.0)
                max_gap_iii = max(max_gap_iii, gap)
                if gap > tol:
                    raise PropertyViolatedError(
                        f"(iii) equality violated for symmetric op at pair "
                        f"{trial}: gap {gap:.3e}"
                    )
    return Prop1Report(n_pairs, is_sym, max_dual, max_gap_i, max_cs,
                       min_iii, max_gap_iii)


def _lanczos_top(n, matvec, tol, m=None, minv=None):
    """Largest eigenvalue of an operator self-adjoint on the mean-zero
    subspace (of the pencil (A, M) when ``m`` applies M and ``minv`` its
    inverse) by ARPACK's implicitly restarted Lanczos from the alternating
    +-1 vector; ARPACK failures raise NotConvergedError.

    Lanczos runs on the first n - 1 coordinates after the Householder
    reflection that swaps the last unit vector with the normalized
    constant, so every vector ARPACK builds is mean-zero, including the
    random one it restarts from when the start's Krylov space runs out.
    """
    w = np.full(n, -1.0 / math.sqrt(n))
    w[-1] += 1.0
    w /= np.linalg.norm(w)

    def reflect(x):
        return x - 2.0 * float(w @ x) * w

    def lin(f):
        return None if f is None else LinearOperator(
            (n - 1, n - 1), dtype=float,
            matvec=lambda y: reflect(f(reflect(np.append(y, 0.0))))[:-1])

    v0 = reflect(np.where(np.arange(n) % 2 == 0, 1.0, -1.0))[:-1]
    try:
        top = eigsh(lin(matvec), k=1, M=lin(m), Minv=lin(minv), which="LA",
                    v0=v0, ncv=min(LANCZOS_NCV, n - 1), tol=tol,
                    return_eigenvectors=False)
    except ArpackError as exc:
        raise NotConvergedError(f"Lanczos iteration failed: {exc}") from exc
    return float(top[0])


def _pinv(op):
    """v -> (-op)^+ v on the mean-zero subspace, solved to EIG_SOLVE_TOL."""
    return lambda v: solve_general(op, center(v),
                                   tol=EIG_SOLVE_TOL).solution.values


def _eig_dense(method, n):
    """Whether an eigenvalue routine runs dense: on request, under "auto"
    up to ``DENSE_EIG_MAX`` states, and on spaces of two states, whose
    one-dimensional mean-zero subspace is too small for Lanczos."""
    _check_method(method)
    return (method == "dense" or n <= 2
            or (method == "auto" and n <= DENSE_EIG_MAX))


def spectral_gap(op, method="auto", tol=1e-10):
    """Smallest nonzero eigenvalue of -op on the mean-zero subspace.

    op must be a symmetric generator of a connected system. The dense path
    (see ``_eig_dense`` for when it runs) is a full eigendecomposition.
    The iterative path runs Lanczos on the mean-zero pseudo-inverse of
    -op, applied by :func:`solve_general` at tolerance ``EIG_SOLVE_TOL``,
    and returns one over its top eigenvalue; ``tol`` is the relative
    accuracy Lanczos asks of that eigenvalue.
    """
    n = op.size
    dense = _eig_dense(method, n)
    if not op.is_symmetric():
        raise ValueError("spectral_gap expects a symmetric generator")
    if n == 1:
        return math.inf
    if dense:
        return float(np.linalg.eigvalsh(-op.to_dense())[1])
    return 1.0 / _lanczos_top(n, _pinv(op), tol)


def sector_constant(op, method="auto", tol=1e-10):
    """Sharp constant C in <f, B g>^2 <= C <f,-op f> <g,-op g>, where B is
    the skew part of -op restricted to the mean-zero subspace.

    Equals the squared operator norm of S^{-1/2} B S^{-1/2} with S the
    symmetric part of -op, that is the top eigenvalue of the pencil
    (P B^T S^{-1} P B, S) with P the mean-zero projection. The dense path
    takes it from an eigendecomposition of S; the iterative path runs
    Lanczos on the pencil with S^{-1} applied by :func:`solve_general` at
    tolerance ``EIG_SOLVE_TOL``, and ``tol`` is the relative accuracy it
    asks of C. Symmetric operators give exactly 0.
    """
    n = op.size
    dense = _eig_dense(method, n)
    if n == 1:
        return 0.0
    a = -op.to_csr()
    b_skew = 0.5 * (a - a.T)
    scale = max(op.max_exit_rate(), 1e-300)
    bmax = abs(b_skew).max() if b_skew.nnz else 0.0
    if bmax <= 1e-14 * scale:
        return 0.0

    if dense:
        w, q = np.linalg.eigh(0.5 * (a + a.T).toarray())
        keep = w > max(w.max(), 1e-300) * 1e-12
        q = q[:, keep]
        inv_sqrt = 1.0 / np.sqrt(w[keep])
        m = (inv_sqrt[:, None] * (q.T @ b_skew.toarray() @ q)) * inv_sqrt[None, :]
        smax = np.linalg.svd(m, compute_uv=False)[0]
        return float(smax) ** 2

    sym = symmetric_part(op)
    s_solve = _pinv(sym)
    # B^T = -B; _lanczos_top drops the constant part of every image
    return _lanczos_top(n, lambda v: -(b_skew @ s_solve(b_skew @ v)), tol,
                        m=lambda v: -sym.matvec(v), minv=s_solve)


def resolvent_sweep(op, h, lambdas, tol=1e-10):
    """Resolvent ladder: for each lam (descending) report the energy norm
    of u_lam and its H1 distance to the lam -> 0 limit solve."""
    h = values_of(h)
    limit = solve_general(op, h, tol=tol).solution.values
    out = []
    for lam in sorted(lambdas, reverse=True):
        u = solve_general(op, h, tol=tol, lam=lam).solution.values
        out.append({
            "lam": float(lam),
            "u_h1": h1_norm(op, u),
            "dist_to_limit_h1": h1_norm(op, u - limit),
        })
    return out


def approximation_residual(op, h, basis, weight_op=None, tol=1e-10):
    """Best-approximation residual min_g |h - (-op) g|_{0,-1} over the span
    of ``basis``, with the dual norm taken against ``weight_op`` (default:
    the symmetric part of op).

    Returns (residual, coefficients). Solved through the Gram system of
    the basis images in the dual inner product.
    """
    h = values_of(h)
    require_mean_zero(h, "target")
    weight = weight_op if weight_op is not None else symmetric_part(op)
    if not weight.is_symmetric():
        weight = symmetric_part(weight)
    cols = [center(-op.matvec(values_of(b))) for b in basis]
    y_h = solve_general(weight, h, tol=tol).solution.values
    base = inner(h, y_h)
    if not cols:
        return math.sqrt(max(base, 0.0)), np.zeros(0)
    ys = [solve_general(weight, c, tol=tol).solution.values for c in cols]
    m = len(cols)
    gram = np.empty((m, m))
    rhs = np.empty(m)
    for i in range(m):
        rhs[i] = inner(cols[i], y_h)
        for j in range(m):
            gram[i, j] = inner(cols[i], ys[j])
    gram = 0.5 * (gram + gram.T)
    coeffs, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    resid_sq = base - float(rhs @ coeffs)
    return math.sqrt(max(resid_sq, 0.0)), coeffs
