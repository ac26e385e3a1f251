"""Energy norms and linear solves against generator operators.

Every linear solve goes through :func:`solve_general`, which solves
(lam I - L) u = f on the mean-zero subspace. At lam = 0 the system is
singular with the constants as (left and right) null space; lam > 0 gives
the resolvent. The H1 seminorm is the square root of the Dirichlet form;
the dual H-1 norm is realized by one solve against the symmetric part:
(-S) u = f gives |f|_{-1}^2 = <f, u>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import NotConvergedError, NotMeanZeroError, PropertyViolatedError
from .generator import ObservableVector, dirichlet_form, inner, symmetric_part

DENSE_SOLVE_MAX = 5000
DENSE_EIG_MAX = 2000
GMRES_RESTART = 50


@dataclass
class SolveReport:
    solution: ObservableVector
    relative_residual: float
    iterations: int
    method: str


def _vec(f):
    return np.asarray(getattr(f, "values", f), dtype=float)


def _project(v):
    return v - v.mean()


def _require_mean_zero(b, what="right-hand side"):
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    if abs(float(b.mean())) > 1e-12 * scale:
        raise NotMeanZeroError(f"{what} has mean {b.mean():.3e}")


def _alternating_start(n):
    """Deterministic start vector: alternating +-1, mean removed."""
    v = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return _project(v)


def _shifted(op, lam, v):
    """(lam I - op) v."""
    return lam * v - op.matvec(v)


def _replay(op, u, b, lam):
    """Recomputed relative residual of (lam I - op) u = b."""
    bn = float(np.linalg.norm(b))
    if bn == 0.0:
        return 0.0
    return float(np.linalg.norm(_shifted(op, lam, u) - b)) / bn


def _cg_projected(op, b, tol, max_iter, lam):
    """Conjugate gradients for (lam I - op) u = b, re-projecting onto the
    mean-zero subspace at every iteration."""
    x = np.zeros_like(b)
    r = _project(b.copy())
    p = r.copy()
    rs = float(r @ r)
    bnorm = math.sqrt(float(b @ b))
    if bnorm == 0.0:
        return x, 0, True
    for it in range(1, max_iter + 1):
        ap = _project(_shifted(op, lam, _project(p)))
        denom = float(p @ ap)
        if denom <= 0.0:
            return x, it, False
        alpha = rs / denom
        x += alpha * p
        r -= alpha * ap
        r = _project(r)
        rs_new = float(r @ r)
        if math.sqrt(rs_new) <= tol * bnorm:
            return _project(x), it, True
        p = r + (rs_new / rs) * p
        rs = rs_new
    return _project(x), max_iter, False


def _gmres_projected(op, b, tol, max_iter, lam):
    """Restarted GMRES for (lam I - op) u = b on the operator wrapped so
    every application re-projects onto the mean-zero subspace."""
    n = op.size
    amv = LinearOperator(
        (n, n), matvec=lambda v: _project(_shifted(op, lam, _project(v))),
        dtype=float,
    )
    count = [0]

    def _cb(_):
        count[0] += 1

    x, info = gmres(amv, b, rtol=tol, atol=0.0, restart=GMRES_RESTART,
                    maxiter=max_iter, callback=_cb, callback_type="pr_norm")
    return _project(x), count[0], info == 0


def solve_general(op, b, tol=1e-10, method="auto", max_iter=None, lam=0.0):
    """Solve (lam I - op) u = b for the mean-zero u, op a generator.

    Parameters
    ----------
    op : SparseOperator
        Generator of a connected system that keeps the uniform measure
        stationary, so for lam = 0 the constants span both null spaces.
    b : array or ObservableVector
        Mean-zero right-hand side.
    method : {"auto", "iterative", "dense"}
        "iterative" runs projected conjugate gradients when op is
        symmetric and projected restarted GMRES otherwise; "dense" factors
        lam I - op + 1/n, whose flat shift lifts the constant direction and
        leaves the mean-zero solution unchanged; "auto" tries the iterative
        path first and falls back to dense for sizes up to
        ``DENSE_SOLVE_MAX``.
    lam : float
        Resolvent parameter, >= 0; 0 is the singular Poisson problem.

    Returns
    -------
    SolveReport
        The replayed residual of every returned report is at most 2*tol.
    """
    if lam < 0.0:
        raise ValueError(f"resolvent parameter must be >= 0, got {lam}")
    if method not in ("auto", "iterative", "dense"):
        raise ValueError(f"unknown solve method {method!r}")
    b = _vec(b)
    _require_mean_zero(b)
    n = op.size
    if n == 1:
        sol = ObservableVector(np.zeros(1), mean_zero=True)
        return SolveReport(sol, 0.0, 0, "dense")
    if max_iter is None:
        max_iter = min(10 * n + 100, 100_000)

    failures = []
    if method != "dense":
        if op.is_symmetric():
            solver, path = _cg_projected, "iterative-symmetric"
        else:
            solver, path = _gmres_projected, "iterative-nonsymmetric"
        x, its, converged = solver(op, b, tol, max_iter, lam)
        res = _replay(op, x, b, lam)
        if converged and res <= 2.0 * tol:
            return SolveReport(ObservableVector(x, mean_zero=True), res, its,
                               path)
        failures.append(f"{path} stopped after {its} iterations "
                        f"(converged={converged}, replayed residual {res:.3e})")
    if method == "dense" or (method == "auto" and n <= DENSE_SOLVE_MAX):
        a = -op.to_dense()
        a[np.diag_indices_from(a)] += lam
        a += 1.0 / n
        x = _project(np.linalg.solve(a, b))
        res = _replay(op, x, b, lam)
        if res <= 2.0 * tol:
            return SolveReport(ObservableVector(x, mean_zero=True), res, 0,
                               "dense")
        failures.append(f"dense solve left replayed residual {res:.3e}")
    raise NotConvergedError("; ".join(failures) + f"; tol {tol:.1e}")


def h1_norm(op, f):
    """Energy seminorm sqrt(<f, -op f>); tiny negative round-off clamps to 0."""
    q = dirichlet_form(op, f)
    return math.sqrt(max(q, 0.0))


def hminus1_norm(op, f, tol=1e-10, method="auto", return_report=False):
    """Dual norm of a mean-zero f, via one SPD solve against the symmetric
    part of op: |f|_{-1}^2 = <f, u> with (-S) u = f."""
    f = _vec(f)
    _require_mean_zero(f, "observable")
    sym = op if op.is_symmetric() else symmetric_part(op)
    rep = solve_general(sym, f, tol=tol, method=method)
    val = math.sqrt(max(inner(f, rep.solution.values), 0.0))
    if return_report:
        return val, rep
    return val


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
        return _project(scipy.linalg.lu_solve(lu, v))

    max_dual = 0.0
    max_gap_i = 0.0
    max_cs = 0.0
    min_iii = math.inf
    max_gap_iii = 0.0
    for trial in range(n_pairs):
        f = _project(rng.standard_normal(n))
        g = _project(rng.standard_normal(n))
        h = _project(rng.standard_normal(n))
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
        af = _project(-op.matvec(f))
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


def spectral_gap(op, method="auto", tol=1e-10, max_iter=500):
    """Smallest nonzero eigenvalue of -op on the mean-zero subspace.

    op must be a symmetric generator of a connected system. The dense path
    is a full eigendecomposition; the iterative path is inverse power
    iteration driven by :func:`solve_general`, started from the deterministic
    alternating vector.
    """
    if not op.is_symmetric():
        raise ValueError("spectral_gap expects a symmetric generator")
    n = op.size
    if n == 1:
        return math.inf
    if method == "dense" or (method == "auto" and n <= DENSE_EIG_MAX):
        evals = np.linalg.eigvalsh(-op.to_dense())
        return float(evals[1])
    v = _alternating_start(n)
    v /= np.linalg.norm(v)
    gap = math.inf
    for _ in range(max_iter):
        w = solve_general(op, v, tol=min(tol, 1e-12) * 1e2).solution.values
        w = _project(w)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            raise NotConvergedError("inverse iteration collapsed to zero")
        v = w / nw
        new_gap = dirichlet_form(op, v) / inner(v, v)
        if abs(new_gap - gap) <= tol * max(new_gap, 1e-300):
            return float(new_gap)
        gap = new_gap
    raise NotConvergedError(
        f"inverse iteration did not settle within {max_iter} sweeps"
    )


def sector_constant(op, method="auto", tol=1e-10, max_iter=5000):
    """Sharp constant C in <f, B g>^2 <= C <f,-op f> <g,-op g>, where B is
    the skew part of -op restricted to the mean-zero subspace.

    Equals the squared operator norm of S^{-1/2} B S^{-1/2} with S the
    symmetric part of -op. Symmetric operators give exactly 0.
    """
    n = op.size
    if n == 1:
        return 0.0
    a = -op.to_csr()
    b_skew = 0.5 * (a - a.T)
    scale = max(op.max_exit_rate(), 1e-300)
    bmax = abs(b_skew).max() if b_skew.nnz else 0.0
    if bmax <= 1e-14 * scale:
        return 0.0

    if method == "dense" or (method == "auto" and n <= DENSE_EIG_MAX):
        s_dense = 0.5 * (a + a.T).toarray()
        w, q = np.linalg.eigh(s_dense)
        keep = w > max(w.max(), 1e-300) * 1e-12
        q = q[:, keep]
        inv_sqrt = 1.0 / np.sqrt(w[keep])
        m = (inv_sqrt[:, None] * (q.T @ b_skew.toarray() @ q)) * inv_sqrt[None, :]
        smax = np.linalg.svd(m, compute_uv=False)[0]
        return float(smax) ** 2

    # power iteration on G = S^{-1} B^T S^{-1} B (self-adjoint in the
    # S-inner product, similar to M^T M, so eigenvalues are real >= 0)
    sym = symmetric_part(op)
    v = _alternating_start(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        t1 = _project(b_skew @ v)
        t2 = solve_general(sym, t1, tol=1e-12).solution.values
        t3 = _project(-(b_skew @ t2))
        t4 = solve_general(sym, t3, tol=1e-12).solution.values
        num = float(t1 @ t2)
        den = float(v @ (-sym.matvec(v)))
        if den <= 0.0:
            raise NotConvergedError("degenerate S-norm in power iteration")
        new_lam = num / den
        nv = np.linalg.norm(t4)
        if nv == 0.0:
            return 0.0
        v = t4 / nv
        if abs(new_lam - lam) <= tol * max(new_lam, 1e-300):
            return float(new_lam)
        lam = new_lam
    raise NotConvergedError(
        f"sector power iteration did not settle within {max_iter} sweeps"
    )


def resolvent_sweep(op, h, lambdas, tol=1e-10):
    """Resolvent ladder: for each lam (descending) report the energy norm
    of u_lam and its H1 distance to the lam -> 0 limit solve."""
    h = _vec(h)
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
    h = _vec(h)
    _require_mean_zero(h, "target")
    weight = weight_op if weight_op is not None else symmetric_part(op)
    if not weight.is_symmetric():
        weight = symmetric_part(weight)
    cols = [_project(-op.matvec(_vec(b))) for b in basis]
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
