"""Energy norms, linear solves and spectra of generator operators.

Every linear solve goes through :func:`solve_general`, which solves
(lam I - L) u = f on the mean-zero subspace. At lam = 0 the system is
singular with the constants as (left and right) null space; lam > 0 gives
the resolvent. Its iterative path runs on an operator that re-projects
onto the mean-zero subspace: conjugate gradients when the operator is
symmetric, and otherwise BiCGSTAB, both numpy loops that replay scipy
1.17's ``cg`` and ``bicgstab`` operation for operation, with scipy's
restarted GMRES only when BiCGSTAB breaks down or stops short of the
tolerance. The operator stores its null direction as ``null``: the
normalized constants for a generator, and for a generator reduced to one
symmetry type (``generator.ReducedAssembly.operator``) the reduced
constants or None.

The H1 seminorm is the square root of the Dirichlet form; the dual H-1
norm is realized by one solve against the symmetric part: (-S) u = f
gives |f|_{-1}^2 = <f, u>.

The spectral gap and the sector constant are top eigenvalues, found by a
plain Lanczos loop in numpy (:func:`_lanczos_top`) above
``DENSE_EIG_MAX`` states and by a dense eigendecomposition up to it. The
gap is minus the top eigenvalue of the symmetric generator once a
rank-one shift moves the constants to the bottom of its spectrum, so
Lanczos applies only its matvec, on all of R^n. The sector constant is
that of a pencil whose every application is one solve of the kind above;
Lanczos finds it on the functions odd under the point reflection
eta -> -eta, about half the states: the reflection commutes with the
symmetric part of the generator and anticommutes with its skew part, so
the constant has an odd eigenvector (see :func:`sector_constant`).

scipy is imported inside the functions that call it, on first use, and
``scipy.sparse.linalg`` only by GMRES, so solves by CG or BiCGSTAB and
both eigenvalues leave it unloaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotConvergedError, OutOfRangeError, PropertyViolatedError
from .generator import (
    ReducedAssembly,
    center,
    dirichlet_form,
    inner,
    symmetric_part,
)
from .kernel import _whole, symmetrize

DENSE_SOLVE_MAX = 5000
#: most states the spectral gap and the sector constant take densely under
#: "auto": Lanczos overtakes near 150 states for the gap and between 286
#: and 462 for the sector constant (one core; figures in README), and 500
#: costs them at most about 13 and 20 ms
DENSE_EIG_MAX = 500
GMRES_RESTART = 50
#: tolerance of the solves inside the sector constant's Lanczos pencil and
#: of the dual-norm solves of :func:`verify_prop1`
EIG_SOLVE_TOL = 1e-12
#: Lanczos steps between two tests of its stopping rule
LANCZOS_TEST_EVERY = 8
#: relative slack of the duality inequalities in :func:`verify_prop1`
PROP1_TOL = 1e-9


@dataclass
class SolveReport:
    """One solve: its solution, a float array in the operator's
    coordinates, with the replayed relative residual, the iteration count
    and the path taken."""

    solution: np.ndarray
    relative_residual: float
    iterations: int
    method: str


def _check_method(method):
    if method not in ("auto", "iterative", "dense"):
        raise ValueError(f"unknown solve method {method!r}")


def _check_tol(tol):
    if not (math.isfinite(tol) and tol > 0.0):
        raise OutOfRangeError(f"tolerance must be finite and > 0, got {tol!r}")


def _step_cap(n):
    """Most iterations of a Krylov solve, and steps of Lanczos, on R^n."""
    return min(10 * n + 100, 100_000)


def _shifted(op, lam, v):
    """(lam I - op) v."""
    return lam * v - op.matvec(v)


def _replay(matvec, u, b, lam):
    """Recomputed relative residual of (lam I - A) u = b, with A applied
    by ``matvec``."""
    bn = float(np.linalg.norm(b))
    if bn == 0.0:
        return 0.0
    return float(np.linalg.norm(lam * u - matvec(u) - b)) / bn


#: the Krylov paths :func:`solve_general` tries in turn, by whether the
#: operator is symmetric; GMRES runs only when BiCGSTAB breaks down or stops
#: short, as it does on some small TASEP systems
_KRYLOV_PATHS = {True: ("iterative-symmetric",),
                 False: ("iterative-nonsymmetric", "iterative-gmres")}


def _cg(amv, b, tol, maxiter):
    """Conjugate gradients for amv(u) = b from u = 0, stopped at
    |r| < tol |b|: scipy 1.17's ``cg`` with no preconditioner, operation
    for operation. Returns (u, completed iterations, converged); b = 0
    returns a copy of b at once."""
    bnrm = np.linalg.norm(b)
    if bnrm == 0:
        return b.copy(), 0, True
    atol = float(tol) * float(bnrm)
    x, r = np.zeros(b.size), b.copy()
    for it in range(maxiter):
        rho = np.dot(r, r)
        if np.sqrt(rho) < atol:  # np.linalg.norm(r), bit for bit
            return x, it, True
        if it > 0:
            p *= rho / rho_prev
            p += r
        else:
            p = r.copy()
        q = amv(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, maxiter, False


@np.errstate(divide="raise", invalid="raise", over="raise")
def _bicgstab(amv, b, tol, maxiter):
    """BiCGSTAB (van der Vorst 1992) as :func:`_cg` runs CG, after scipy
    1.17's ``bicgstab``: it also stops at the half step, and its eps^2
    breakdown tests on rho and omega return the iterate unconverged. A
    0/0 or an overflow returns u = None at once."""
    it = 0
    try:
        bnrm = np.linalg.norm(b)
        if bnrm == 0:
            return b.copy(), 0, True
        atol = float(tol) * float(bnrm)
        tiny = np.finfo(float).eps ** 2
        x, r, rtilde = np.zeros(b.size), b.copy(), b.copy()
        for it in range(maxiter):
            if np.linalg.norm(r) < atol:
                return x, it, True
            rho = np.dot(rtilde, r)
            if abs(rho) < tiny or (it > 0 and abs(omega) < tiny):
                return x, it, False
            if it > 0:
                p -= omega * v
                p *= (rho / rho_prev) * (alpha / omega)
                p += r
            else:
                p = r.copy()
            v = amv(p)
            rv = np.dot(rtilde, v)
            if rv == 0:
                return x, it, False
            alpha = rho / rv
            r -= alpha * v
            if np.linalg.norm(r) < atol:
                return x + alpha * p, it, True
            t = amv(r)  # r is scipy's s from here to its update
            omega = np.dot(t, r) / np.dot(t, t)
            x += alpha * p
            x += omega * r
            r -= omega * t
            rho_prev = rho
    except FloatingPointError:
        return None, it, False
    return x, maxiter, False


def _krylov_projected(op, b, tol, lam, path, x0=None):
    """Krylov solve of (lam I - op) u = b on the operator wrapped so every
    application re-projects off its null direction, by the solver ``path``
    names: conjugate gradients ("iterative-symmetric", :func:`_cg`) or
    BiCGSTAB ("iterative-nonsymmetric", :func:`_bicgstab`) from zero, or
    scipy's GMRES(``GMRES_RESTART``) ("iterative-gmres") from ``x0`` (zero
    when None), the one path here that imports ``scipy.sparse.linalg``.

    Returns (u, completed iterations, converged); u is None when BiCGSTAB
    breaks down on a division by zero or an overflow.
    """
    def amv(v):
        return op.project(_shifted(op, lam, op.project(v)))

    n = op.size
    maxiter = _step_cap(n)
    if path == "iterative-symmetric":
        x, its, converged = _cg(amv, b, tol, maxiter)
    elif path == "iterative-nonsymmetric":
        x, its, converged = _bicgstab(amv, b, tol, maxiter)
    else:
        from scipy.sparse.linalg import LinearOperator, gmres

        done = []  # one entry per completed iteration
        x, info = gmres(LinearOperator((n, n), matvec=amv, dtype=float), b,
                        x0=x0, rtol=tol, atol=0.0, restart=GMRES_RESTART,
                        maxiter=maxiter, callback=done.append,
                        callback_type="pr_norm")
        its, converged = len(done), info == 0
    return (None if x is None else op.project(x)), its, converged


def solve_general(op, b, tol=1e-10, method="auto", lam=0.0):
    """Solve (lam I - op) u = b for the u orthogonal to op's null
    direction.

    Parameters
    ----------
    op : SparseOperator
        Generator of a connected system that keeps the uniform measure
        stationary, so for lam = 0 the constants span both null spaces; or
        a generator reduced to one symmetry type. ``op.null`` is the unit
        null direction: the normalized constants, the reduced constants,
        or None for a reduced operator that is nonsingular.
    b : array
        Right-hand side, a float array over the operator's coordinates,
        orthogonal to the null direction (``op.require_range``):
        mean-zero for a generator.
    method : {"auto", "iterative", "dense"}
        "iterative" runs conjugate gradients when op is symmetric.
        Otherwise it runs BiCGSTAB, and GMRES(``GMRES_RESTART``) when
        BiCGSTAB breaks down (a division by zero or an overflow), stops
        unconverged or replays a residual above 2*tol; GMRES starts from
        BiCGSTAB's iterate when its replayed residual is below 1, and
        otherwise, as after a breakdown, from zero. Each runs on the
        operator re-projected off the null direction and is capped at
        ``_step_cap(n)`` iterations (GMRES: restart cycles; one
        BiCGSTAB iteration applies the operator twice); "dense" factors
        lam I - op + P, whose projector P = null null^T onto the null
        direction (0 when ``op.null`` is None) lifts that direction and
        leaves the solution unchanged; "auto" tries the iterative path
        first and falls back to dense for sizes up to ``DENSE_SOLVE_MAX``.
        CG and BiCGSTAB give scipy's solutions and iteration counts; a b
        of norm 0 returns zeros after 0 iterations.
    lam : float
        Resolvent parameter, >= 0; 0 is the singular Poisson problem.

    Returns
    -------
    SolveReport
        Its solution is a float array like b; the replayed residual of
        every returned report is at most 2*tol. Its method is the path
        that produced it: "iterative-symmetric" (CG),
        "iterative-nonsymmetric" (BiCGSTAB), "iterative-gmres" or "dense".

    Raises NotConvergedError, naming every attempt, when no path reaches
    the tolerance, and OutOfRangeError before any work unless ``tol`` is
    finite and > 0.
    """
    if lam < 0.0:
        raise ValueError(f"resolvent parameter must be >= 0, got {lam}")
    _check_method(method)
    _check_tol(tol)
    b = np.asarray(b, dtype=float)
    op.require_range(b, "right-hand side")
    n = op.size
    if n == 0 or (n == 1 and op.null is not None):
        # the only solution off the null direction is 0
        return SolveReport(np.zeros(n), 0.0, 0, "dense")

    failures = []
    paths = () if method == "dense" else _KRYLOV_PATHS[op.is_symmetric()]
    x0 = None
    for path in paths:
        x, its, converged = _krylov_projected(op, b, tol, lam, path, x0)
        if x is None:
            failures.append(f"{path} broke down after {its} iterations")
            continue
        res = _replay(op.matvec, x, b, lam)
        if converged and res <= 2.0 * tol:
            return SolveReport(x, res, its, path)
        failures.append(f"{path} stopped after {its} iterations "
                        f"(converged={converged}, replayed residual {res:.3e})")
        # zero's relative residual is 1; a diverged BiCGSTAB can leave 1e41
        x0 = x if res < 1.0 else None
    if method == "dense" or (method == "auto" and n <= DENSE_SOLVE_MAX):
        a = -op.to_dense()
        a[np.diag_indices_from(a)] += lam
        if op.null is not None:
            a += np.outer(op.null, op.null)
        x = op.project(np.linalg.solve(a, b))
        res = _replay(op.matvec, x, b, lam)
        if res <= 2.0 * tol:
            return SolveReport(x, res, 0, "dense")
        failures.append(f"dense solve left replayed residual {res:.3e}")
    raise NotConvergedError("; ".join(failures) + f"; tol {tol:.1e}")


def h1_norm(op, f):
    """Energy seminorm sqrt(<f, -op f>); tiny negative round-off clamps to 0."""
    q = dirichlet_form(op, f)
    return math.sqrt(max(q, 0.0))


def hminus1_norm(op, f, tol=1e-10):
    """Dual norm of a mean-zero f, via one SPD solve against the symmetric
    part of op: |f|_{-1}^2 = <f, u> with (-S) u = f. The solve refuses an
    f that is not mean-zero."""
    f = np.asarray(f, dtype=float)
    sym = op if op.is_symmetric() else symmetric_part(op)
    u = solve_general(sym, f, tol=tol).solution
    return math.sqrt(max(inner(f, u), 0.0))


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


def verify_prop1(op, n_pairs=100, seed=0):
    """Check the duality inequalities between the energy and dual norms.

    For random mean-zero pairs (f, g):
      (i)   <h, g> <= |h|_1 |g|_{-1} for random h, with equality attained
            at the defining solve;
      (ii)  <f, g> <= |f|_1 |g|_{-1};
      (iii) |f|_1 <= |(-op) f|_{-1}, with equality for symmetric op.

    Each dual norm is one :func:`solve_general` call against the
    symmetric part, at tolerance ``EIG_SOLVE_TOL``. The inequalities, and
    the equality in (iii), are checked to ``PROP1_TOL`` relative, the
    attainment in (i) to 1e-6. Raises PropertyViolatedError with a witness
    on the first failure, and OutOfRangeError unless ``n_pairs`` is a
    whole number >= 1 and ``seed`` one >= 0.
    """
    if (_whole(n_pairs) or 0) < 1:
        raise OutOfRangeError(
            f"n_pairs must be a whole number >= 1, got {n_pairs!r}")
    if _whole(seed) is None or seed < 0:
        raise OutOfRangeError(
            f"seed must be a whole number >= 0, got {seed!r}")
    n_pairs, seed = int(n_pairs), int(seed)
    n = op.size
    if n < 2:
        raise PropertyViolatedError("need at least 2 states to test norms")
    rng = np.random.default_rng(seed)
    is_sym = op.is_symmetric()
    sym = op if is_sym else symmetric_part(op)

    def dual_solve(v):
        return solve_general(sym, v, tol=EIG_SOLVE_TOL).solution

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
            if ratio > 1.0 + PROP1_TOL:
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
            if ratio > 1.0 + PROP1_TOL:
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
            if ratio < 1.0 - PROP1_TOL:
                raise PropertyViolatedError(
                    f"(iii) violated at pair {trial}: |(-L)f|_-1/|f|_1 = "
                    f"{ratio!r} < 1"
                )
            if is_sym:
                gap = abs(ratio - 1.0)
                max_gap_iii = max(max_gap_iii, gap)
                if gap > PROP1_TOL:
                    raise PropertyViolatedError(
                        f"(iii) equality violated for symmetric op at pair "
                        f"{trial}: gap {gap:.3e}"
                    )
    return Prop1Report(n_pairs, is_sym, max_dual, max_gap_i, max_cs,
                       min_iii, max_gap_iii)


def _top_ritz(alphas, offs, guess=None):
    """(theta, s) for the symmetric tridiagonal T with diagonal ``alphas``
    and off-diagonal ``offs`` >= 0: its largest eigenvalue and the last
    entry of its unit eigenvector, in O(k) float operations where a dense
    eigendecomposition takes O(k^3).

    theta is the largest root of det(sigma I - T). Its roots are all real,
    so from any sigma above them Laguerre's iteration falls monotonically
    onto theta, cubically near it. det'/det and its derivative are sums
    over the pivots d of sigma I - T = L D L^T, all positive there. The
    iteration starts from ``guess`` when no pivot there is negative, that
    is when it lies above theta, and otherwise from Gershgorin's bound.
    Two steps of inverse iteration from the ones vector then give the
    eigenvector.
    """
    k = len(alphas)
    if k == 1:
        return alphas[0], 1.0
    b = [0.0, *offs, 0.0]
    b2 = [x * x for x in b]
    radii = [b[i] + b[i + 1] for i in range(k)]
    # steps below rounding in T's scale would only crawl
    floor = 2.0 * math.ulp(max(abs(a) + r for a, r in zip(alphas, radii)))

    def laguerre(sigma):
        """sigma's Laguerre step, and whether a pivot there is negative"""
        d, d1, d2, g, h, below = 1.0, 0.0, 0.0, 0.0, 0.0, False
        for a, bb in zip(alphas, b2):
            q = bb / d
            t = d1 / d
            d1, d2 = 1.0 + q * t, q * (d2 - 2.0 * d1 * t) / d
            d = sigma - a - q or floor  # a zero pivot moves sigma by rounding
            below = below or d < 0.0
            t = d1 / d
            g += t
            h += t * t - d2 / d
        root = math.sqrt(max((k - 1) * (k * h - g * g), 0.0))
        return k / (g + math.copysign(root, g)), below

    step, below = (0.0, True) if guess is None else laguerre(guess)
    sigma = guess
    if below:  # no guess, or one below theta
        sigma = max(a + r for a, r in zip(alphas, radii))
        step = laguerre(sigma)[0]
    while step > floor:  # false too once rounding crosses theta, or on NaN
        sigma -= step
        step = laguerre(sigma)[0]
    piv, d = [], 1.0
    for a, bb in zip(alphas, b2):
        d = sigma - a - bb / d or floor
        piv.append(d)
    ratio = [bi / p for bi, p in zip(b[1:], piv)]
    x = [1.0] * k
    for _ in range(2):  # inverse iteration: x <- (sigma I - T)^-1 x
        for i in range(1, k):
            x[i] += ratio[i - 1] * x[i - 1]
        x[-1] /= piv[-1]
        for i in range(k - 2, -1, -1):
            x[i] = (x[i] + b[i + 1] * x[i + 1]) / piv[i]
        top = max(map(abs, x))
        x = [xi / top for xi in x]
    return sigma, abs(x[-1]) / math.sqrt(math.fsum(xi * xi for xi in x))


def _lanczos_top(n, matvec, tol, m=None, minv=None):
    """Largest eigenvalue of a self-adjoint operator on R^n, or of the
    pencil (A, M) when ``m`` applies M and ``minv`` its inverse, by plain
    Lanczos: the three-term recurrence in the M inner product, holding a
    handful of vectors of length n and no basis, from a fixed
    pseudo-random vector.

    Every ``LANCZOS_TEST_EVERY`` steps, and when the recurrence breaks
    down, it tests ARPACK's stopping rule: a Ritz residual |beta s| of at
    most tol * max(|theta|, eps^(2/3)) for the top Ritz value theta (see
    :func:`_top_ritz`). Without reorthogonalization the basis loses
    orthogonality once a Ritz value converges, which only adds copies of
    converged values (Paige 1976). A NaN, an infinity or
    ``_step_cap(n)`` steps raise NotConvergedError.
    """
    # a generic start: a structured one, such as the alternating +-1
    # vector, can be orthogonal to the top eigenvector by a symmetry of the
    # state space, and Lanczos then returns the next eigenvalue
    v = np.random.default_rng(0).standard_normal(n)
    beta = math.sqrt(v @ (v if m is None else m(v)))
    v_prev = np.zeros(n)
    alphas, offs, guess = [], [], None
    for k in range(1, _step_cap(n) + 1):
        v /= beta
        z = matvec(v)
        alpha = float(v @ z)
        w = z if minv is None else minv(z)
        w -= alpha * v
        w -= beta * v_prev
        alphas.append(alpha)
        beta = math.sqrt(max(float(w @ (w if m is None else m(w))), 0.0))
        if not math.isfinite(alpha + beta):
            break
        if beta == 0.0 or k % LANCZOS_TEST_EVERY == 0:
            theta, s = _top_ritz(alphas, offs, guess)
            eps23 = np.finfo(float).eps ** (2 / 3)
            if beta * s <= tol * max(abs(theta), eps23):
                return theta
            # an eigenvalue lies within the residual beta s of theta; once
            # theta nears the top one, later Ritz values stay below this
            guess = theta + 2.0 * beta * s
        offs.append(beta)
        v_prev, v = v, w
    raise NotConvergedError(f"Lanczos stopped after {k} steps "
                            f"(alpha {alpha!r}, beta {beta!r})")


def _pinv(op):
    """v -> (-op)^+ v off op's null direction, solved to EIG_SOLVE_TOL."""
    return lambda v: solve_general(op, op.project(v),
                                   tol=EIG_SOLVE_TOL).solution


def _eig_dense(method, n):
    """Whether an eigenvalue routine runs dense: on request, and under
    "auto" up to ``DENSE_EIG_MAX`` states."""
    _check_method(method)
    return method == "dense" or (method == "auto" and n <= DENSE_EIG_MAX)


def spectral_gap(op, method="auto", tol=1e-10):
    """Smallest nonzero eigenvalue of -op on the mean-zero subspace.

    op must be a symmetric generator of a connected system. The dense path
    is a full eigendecomposition; under "auto" it runs up to
    ``DENSE_EIG_MAX`` states (see ``_eig_dense``).
    The iterative path runs Lanczos on op less ``shift`` times the
    projection onto the constants, with shift = 2 * max exit rate. By
    Gershgorin the spectrum of op lies in [-shift, 0], so the shift moves
    the constants from 0 to the bottom of it and the top eigenvalue is
    minus the gap, on all of R^n: rounding, which the recurrence amplifies
    once the Krylov space of its start runs out, may carry a constant
    component, which Lanczos, looking for the top, leaves alone.
    Each step is one matvec and no linear solve; ``tol`` is the relative
    accuracy Lanczos asks of that eigenvalue, finite and > 0 on every path
    (OutOfRangeError otherwise).
    """
    n = op.size
    dense = _eig_dense(method, n)
    _check_tol(tol)
    if not op.is_symmetric():
        raise ValueError("spectral_gap expects a symmetric generator")
    if n == 1:
        return math.inf
    if dense:
        return float(np.linalg.eigvalsh(-op.to_dense())[1])
    shift = 2.0 * op.max_exit_rate()
    return -_lanczos_top(
        n, lambda x: op.matvec(x) - (shift * float(op.null @ x)) * op.null,
        tol)


def _reflection_halves(op):
    """(even, odd): the symmetric part of the full generator ``op`` on the
    functions even and odd under the point reflection eta -> -eta, as
    operators of the symmetrized kernel reduced by ``ReducedAssembly``. The
    even half has the reduced constants as its null direction, the odd
    half none. Both have their duplicate entries summed: the sector
    constant applies each of them thousands of times.

    Raises ValueError unless ``op`` records its (space, kernel), as
    :func:`generator.full_generator`'s operators do.
    """
    if op.source is None:
        raise ValueError("the iterative sector constant needs an operator "
                         "from full_generator, which records its space "
                         "and kernel")
    space, kernel = op.source
    eye = np.eye(space.geometry.dimension, dtype=np.int64)
    halves = ReducedAssembly(space, symmetrize(kernel),
                             space.orbits([eye, -eye]))
    even, odd = halves.operator([1, 1]), halves.operator([1, -1])
    even.offdiag.sum_duplicates()
    odd.offdiag.sum_duplicates()
    return even, odd


def sector_constant(op, method="auto", tol=1e-10):
    """Sharp constant C in <f, B g>^2 <= C <f,-op f> <g,-op g>, where B is
    the skew part of -op restricted to the mean-zero subspace.

    Equals the squared operator norm of T = S^{-1/2} B S^{-1/2} with S the
    symmetric part of -op, that is the top eigenvalue of the pencil
    (P B^T S^{-1} P B, S) with P the mean-zero projection. The dense path
    takes it from an eigendecomposition of S on all states; under "auto"
    it runs up to ``DENSE_EIG_MAX`` states (see ``_eig_dense``).

    The iterative path works on the odd half of the point reflection
    R: eta -> -eta (environment site x -> -x), which exists on every
    torus. R maps the kernel p to p(-.), and L_z^T = L_{-z} under the
    uniform measure for environment moves and tagged jumps alike, so R
    commutes with S and anticommutes with B. T then swaps even and odd
    functions, every eigenvalue of T^T T has an odd eigenvector, and the
    top one on the odd functions is C. So Lanczos runs on the pencil
    (B_eo^T S_e^+ B_eo, S_o) in the coordinates of the odd functions,
    about half the states, where S_e and S_o are S on the even and odd
    functions, B_eo maps odd to even, and every S_e^+ and S_o^{-1} is one
    :func:`solve_general` call at tolerance ``EIG_SOLVE_TOL``; ``tol`` is
    the relative accuracy Lanczos asks of C. The odd half has no null
    direction. On the full space C is a double eigenvalue, one even and
    one odd copy, which also slows Lanczos. This path needs an operator
    from :func:`generator.full_generator` and raises ValueError on any
    other; an odd half of at most 2 states, too small for Lanczos, takes
    the dense path. Symmetric operators give exactly 0. A ``tol`` that is
    not finite and > 0 raises OutOfRangeError on every path.
    """
    n = op.size
    dense = _eig_dense(method, n)
    _check_tol(tol)
    if n == 1:
        return 0.0
    a = -op.to_csr()
    b_skew = 0.5 * (a - a.T)
    scale = max(op.max_exit_rate(), 1e-300)
    bmax = abs(b_skew).max() if b_skew.nnz else 0.0
    if bmax <= 1e-14 * scale:
        return 0.0
    if not dense:
        even, odd = _reflection_halves(op)
        dense = odd.size <= 2

    if dense:
        w, q = np.linalg.eigh(0.5 * (a + a.T).toarray())
        keep = w > max(w.max(), 1e-300) * 1e-12
        q = q[:, keep]
        inv_sqrt = 1.0 / np.sqrt(w[keep])
        m = (inv_sqrt[:, None] * (q.T @ b_skew.toarray() @ q)) * inv_sqrt[None, :]
        smax = np.linalg.svd(m, compute_uv=False)[0]
        return float(smax) ** 2

    s_even = _pinv(even)

    def pencil(y):
        # B_eo^T = -B_oe, as B^T = -B
        b_eo_y = even.coords.restrict(b_skew @ odd.coords.lift(y))
        return -odd.coords.restrict(b_skew @ even.coords.lift(s_even(b_eo_y)))

    return _lanczos_top(odd.size, pencil, tol,
                        m=lambda y: -odd.matvec(y), minv=_pinv(odd))


def resolvent_sweep(op, h, lambdas, tol=1e-10):
    """Resolvent ladder: for each lam (descending) report the energy norm
    of u_lam and its H1 distance to the lam -> 0 limit solve."""
    h = np.asarray(h, dtype=float)
    limit = solve_general(op, h, tol=tol).solution
    out = []
    for lam in sorted(lambdas, reverse=True):
        u = solve_general(op, h, tol=tol, lam=lam).solution
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
    the basis images in the dual inner product, whose solves refuse an h
    that is not mean-zero.
    """
    h = np.asarray(h, dtype=float)
    weight = weight_op if weight_op is not None else symmetric_part(op)
    if not weight.is_symmetric():
        weight = symmetric_part(weight)
    cols = [center(-op.matvec(b)) for b in basis]
    y_h = solve_general(weight, h, tol=tol).solution
    base = inner(h, y_h)
    if not cols:
        return math.sqrt(max(base, 0.0)), np.zeros(0)
    ys = [solve_general(weight, c, tol=tol).solution for c in cols]
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
