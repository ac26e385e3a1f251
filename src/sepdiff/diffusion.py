"""Self-diffusion of the tagged particle, computed exactly via linear algebra.

The quadratic form in a direction a splits into a free-walk term
(1 - density) * sum_z (a.z)^2 p(z) and a correction from one linear solve
against the full generator L: with v_a, w_a the centered local drift
observables and u_a = (-L)^{-1} v_a,

    a^t D a = free(a) + 2 <w_a, u_a>.

For a symmetric kernel w_a = -v_a, and this is the variational form
free - 2 |v_a|_{-1}^2 (Kipnis and Varadhan), which fixes the sign of the
correction. Every DirectionResult still records both conventions
(``D_minus`` is D, ``D_plus`` = free - 2 <w_a, u_a>), so the Monte Carlo
arbiter can confirm the sign on non-symmetric kernels. Since v_a, w_a and
u_a are linear in a, the whole d x d matrix follows from the d solves
u_j = (-L)^{-1} v_j along the coordinate directions, through
C_ij = 2 <w_i, u_j> symmetrized.

Directions related by a lattice symmetry share one solve. Let g be a signed
permutation of the lattice with p(g z) = p(z) for every z. It fixes the
origin and the torus, so it permutes the states, eta -> g.eta, and L
commutes with that permutation. Since v_a(g.eta) = v_{g^t a}(eta), it
follows that u_{g a}(g.eta) = u_a(eta). So when g a_j = s a_i with
s = +1 or -1, the driver forms u_i(g.eta) = s u_j(eta) instead of solving,
and replays its residual against v_i.

The same symmetries shrink each solve. The g with g a = chi(g) a,
chi(g) = +1 or -1, form a group H_a, and for them v_a(g.eta) =
chi(g) v_a(eta); u_a, the unique mean-zero solution, inherits this. Such a
function is fixed by its values at one representative per orbit of H_a on
the states, and vanishes on the orbits whose stabilizer holds an element
with chi = -1. So the driver assembles L only on the representatives
(``generator.ReducedAssembly``), solves in the orthonormal coordinates
x_O = sqrt(|O|) u(r_O), where a symmetric L stays symmetric, and lifts u
back to every state for the inner products. Euclidean norms agree in both
coordinates, so the residual replayed on the reduced system, solved or
mapped, is the full-space relative residual. Directions whose H_a is the
identity alone, and calls that pass ``operator``, solve on all states.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BlockTooLargeError,
    NonPositiveDError,
    NotConvergedError,
    OutOfRangeError,
    SupportTooLargeError,
)
from .generator import (
    ObservableVector,
    ReducedAssembly,
    assemble_environment,
    center,
    check_ergodicity,
    full_generator,
    inner,
    values_of,
)
from .kernel import TorusGeometry, symmetrize
from .sobolev import (
    _replay,
    approximation_residual,
    hminus1_norm,
    solve_general,
)
from .statespace import StateSpace, _lex_bitmasks

#: the fixed correction sign of D = free - sign * 2 <w_a, u_a>, printed in CSVs
DEFAULT_CORRECTION_SIGN = -1

#: largest block (site count) that conditional_expectation will enumerate
MAX_BLOCK_SITES = 24


@dataclass
class DirectionResult:
    a: np.ndarray
    free_term: float
    correction: float          # 2 <w_a, u_a>: D = free + correction
    D: float
    D_plus: float              # free - correction, the other convention
    D_minus: float             # free + correction, equal to D
    residual: float
    iterations: int
    method: str
    rows: int                  # unknowns of the system solved or replayed
    group_order: int           # |H_a|: 1 unless the system was reduced


@dataclass
class DiffusionReport:
    dimension: int
    N: int
    K: int
    alpha: float
    solver_tolerance: float
    directions: list = field(default_factory=list)
    matrix: np.ndarray | None = None
    min_eigenvalue: float | None = None
    wall_time_s: float = 0.0
    states: int = 0


@dataclass
class SweepReport:
    alpha: float
    N_list: list
    reports: list                  # DiffusionReport per N
    diffs: list                    # max-abs successive matrix differences
    verdict: str                   # "plateau" | "no-plateau" | "insufficient"
    rtol: float


@dataclass
class MultiscaleReport:
    scales: list
    increment_variances: list      # <(g_n - g_{n-1})^2>, n = 1..n_max
    second_moments: list           # <g_n^2> per scale
    fitted_exponent: float | None


@dataclass
class ConvergenceReport:
    N_list: list
    K_list: list
    values: list
    diffs: list


def _free_form(kernel, a, b, alpha):
    """(1 - alpha) * sum_z (a . z)(b . z) p(z)."""
    s = math.fsum(p * (float(np.dot(a, z)) * float(np.dot(b, z)))
                  for z, p in kernel.entries)
    return (1.0 - alpha) * s


def free_term(kernel, a, alpha):
    """(1 - alpha) * sum_z (a . z)^2 p(z)."""
    a = np.asarray(a, dtype=float)
    return _free_form(kernel, a, a, alpha)


def local_drift_functions(space, kernel, a):
    """Centered drift observables (v_a, w_a) on the state space.

    v_a reads the occupancy at the jump targets z, w_a at the mirrored
    sites -z:  v_a = sum_z (z.a) p(z) (alpha - eta(z)), centered exactly.
    """
    geo = space.geometry
    geo.require_kernel_fits(kernel)
    a = np.asarray(a, dtype=float)
    alpha = space.alpha
    coef = [float(np.dot(a, z)) * p for z, p in kernel.entries]
    idx_v = [geo.env_index(z) for z, _ in kernel.entries]
    idx_w = [geo.env_index(tuple(-c for c in z)) for z, _ in kernel.entries]
    occ_v = space.site_occupancy(idx_v).astype(float)
    occ_w = space.site_occupancy(idx_w).astype(float)
    v = np.zeros(space.size)
    w = np.zeros(space.size)
    for j, c in enumerate(coef):
        v += c * (alpha - occ_v[:, j])
        w += c * (alpha - occ_w[:, j])
    return (ObservableVector(center(v), mean_zero=True),
            ObservableVector(center(w), mean_zero=True))


def _symmetries(kernel):
    """Signed permutation matrices g of Z^d with p(g z) == p(z) exactly
    for every kernel entry, the identity first."""
    d = kernel.dimension
    prob = dict(kernel.entries)
    group = []
    for perm in itertools.permutations(range(d)):
        for signs in itertools.product((1, -1), repeat=d):
            g = np.zeros((d, d), dtype=np.int64)
            g[range(d), perm] = signs
            if all(prob.get(tuple(int(c) for c in g @ z)) == p
                   for z, p in kernel.entries):
                group.append(g)
    return group


def _image(group, solved, a):
    """(j, g, s) with g solved[j] == s a exactly and s = +1 or -1, or None."""
    for j, b in enumerate(solved):
        for g in group:
            gb = g @ b
            for s in (1.0, -1.0):
                if np.array_equal(gb, s * a):
                    return j, g, s
    return None


def _stabilizer(group, a):
    """(indices, chi): the elements g of ``group`` with g a == chi a
    exactly, chi = +1 or -1, the identity first, and their chi."""
    keep, chi = [], []
    for h, g in enumerate(group):
        ga = g @ a
        for s in (1.0, -1.0):
            if np.array_equal(ga, s * a):
                keep.append(h)
                chi.append(s)
                break
    return tuple(keep), np.array(chi)


def _solve_directions(space, kernel, directions, tol, method, operator=None):
    """The exact route along directions a_1..a_m.

    Returns the free matrix F_ij = (1 - alpha) sum_z (a_i.z)(a_j.z) p(z),
    the unsigned correction C_ij = 2 <w_i, u_j> with u_j = (-L)^{-1} v_j,
    and the DirectionResult of each a_i, whose D = F_ii + C_ii must be
    nonnegative within 1e-9. Each u_i is mapped from an earlier u_j when a
    kernel symmetry g has g a_j = +-a_i (method "symmetry", 0 iterations,
    its replayed residual at most 2 tol), and otherwise solved. The
    system along a_i is ``operator`` when given; else the full generator
    reduced to the symmetry type of v_i when a_i has a nontrivial
    stabilizer; else the full generator, assembled once.
    """
    dirs = [np.asarray(a, dtype=float) for a in directions]
    free = np.array([[_free_form(kernel, a, b, space.alpha) for b in dirs]
                     for a in dirs])
    corr = np.zeros_like(free)
    solves = [(0.0, 0, "degenerate", 0, 1)] * len(dirs)
    if space.size > 1:
        group = _symmetries(kernel)
        full = operator
        assemblies = {}                   # stabilizer -> ReducedAssembly
        us, ws = [], []
        for i, a in enumerate(dirs):
            v, w = local_drift_functions(space, kernel, a)
            ws.append(w.values)
            keep, chi = _stabilizer(group, a)
            reduced = operator is None and len(keep) > 1
            if reduced:
                if keep not in assemblies:
                    assemblies[keep] = ReducedAssembly(
                        space, kernel, space.orbits([group[h] for h in keep]))
                op = assemblies[keep].operator(chi)
                b = op.restrict(v.values)
            else:
                if full is None:
                    full = full_generator(space, kernel)
                op, b = full, v.values
            order = len(keep) if reduced else 1
            hit = _image(group, dirs[:i], a)
            if hit is None:
                rep = solve_general(op, b, tol=tol, method=method)
                x = rep.solution.values
                u = op.lift(x) if reduced else x
                solves[i] = (rep.relative_residual, rep.iterations, rep.method,
                             op.size, order)
            else:
                j, g, s = hit
                u = np.empty(space.size)
                u[space.mapped_ranks(g)] = s * us[j]
                res = _replay(op, op.restrict(u) if reduced else u, b, 0.0)
                if res > 2.0 * tol:
                    raise NotConvergedError(
                        f"u along {a.tolist()} mapped by symmetry left "
                        f"replayed residual {res:.3e}; tol {tol:.1e}")
                solves[i] = (res, 0, "symmetry", op.size, order)
            us.append(u)
        corr = np.array([[2.0 * inner(w, u) for u in us] for w in ws])
    results = []
    for i, a in enumerate(dirs):
        f, c = float(free[i, i]), float(corr[i, i])
        if f + c < -1e-9 * max(1.0, abs(f)):
            raise NonPositiveDError(
                f"a^t D a = {f + c!r} < 0 along a = {a.tolist()}")
        results.append(DirectionResult(a, f, c, f + c, f - c, f + c,
                                       *solves[i]))
    return free, corr, results


def _report(space, tol, t0, results, matrix=None, min_eigenvalue=None):
    return DiffusionReport(
        dimension=space.geometry.dimension,
        N=space.geometry.N,
        K=space.K,
        alpha=space.alpha,
        solver_tolerance=tol,
        directions=results,
        matrix=matrix,
        min_eigenvalue=min_eigenvalue,
        wall_time_s=time.perf_counter() - t0,
        states=space.size,
    )


def compute_D(space, kernel, a, tol=1e-10, method="auto", operator=None):
    """Diffusion form a^t D a for one direction.

    Returns a DiffusionReport with a single DirectionResult; both sign
    conventions are always recorded.
    """
    t0 = time.perf_counter()
    _, _, results = _solve_directions(space, kernel, [a], tol, method,
                                      operator)
    return _report(space, tol, t0, results)


def compute_D_matrix(space, kernel, tol=1e-10, method="auto", operator=None):
    """Full d x d diffusion matrix from at most d solves.

    Finds u_j = (-L)^{-1} v_j along each coordinate direction e_j, solving
    one axis per orbit of the kernel's symmetries and mapping the rest, and
    forms D = F + (C + C^t) / 2 with F the free-walk matrix and
    C_ij = 2 <w_i, u_j>. ``directions`` holds the d coordinate results.
    The result must be positive semidefinite within 1e-9.
    """
    t0 = time.perf_counter()
    free, corr, results = _solve_directions(
        space, kernel, np.eye(space.geometry.dimension), tol, method, operator)
    mat = free + 0.5 * (corr + corr.T)
    evals = np.linalg.eigvalsh(mat)
    if evals[0] < -1e-9 * max(1.0, float(np.trace(mat))):
        raise NonPositiveDError(f"D matrix has eigenvalue {evals[0]!r} < 0")
    return _report(space, tol, t0, results, mat, float(evals[0]))


def choose_K(alpha, geometry):
    """Particle count closest to alpha * (2N)^d, clamped to [1, (2N)^d].

    Rounding is half-away-from-zero so the choice does not depend on the
    platform's banker's rounding.
    """
    if not 0.0 <= alpha <= 1.0:
        raise OutOfRangeError(f"density must lie in [0, 1], got {alpha}")
    k = int(math.floor(alpha * geometry.n_sites + 0.5))
    return min(max(k, 1), geometry.n_sites)


def _fixed_density_space(kernel, alpha, N):
    """StateSpace on the torus of side 2N with choose_K(alpha) particles."""
    geo = TorusGeometry(kernel.dimension, N)
    geo.require_kernel_fits(kernel)
    return StateSpace(geo, choose_K(alpha, geo))


def sweep(kernel, alpha, N_list, rtol=0.05, tol=1e-10, method="auto"):
    """Diffusion matrices along increasing N at (approximately) fixed
    density; flags a plateau when the last successive change is below
    rtol relative to the final matrix scale."""
    if len(N_list) < 1:
        raise OutOfRangeError("sweep needs at least one N")
    reports = [compute_D_matrix(_fixed_density_space(kernel, alpha, N),
                                kernel, tol=tol, method=method)
               for N in N_list]
    diffs = []
    for prev, cur in zip(reports, reports[1:]):
        diffs.append(float(np.max(np.abs(cur.matrix - prev.matrix))))
    if len(reports) < 2:
        verdict = "insufficient"
    else:
        scale = max(float(np.max(np.abs(reports[-1].matrix))), 1e-300)
        verdict = "plateau" if diffs[-1] <= rtol * scale else "no-plateau"
    return SweepReport(alpha, list(N_list), reports, diffs, verdict, rtol)


# -- block averaging ---------------------------------------------------------

def block_env_indices(geometry, l):
    """Environment-site indices of the block {-l+1, ..., l}^d minus origin."""
    if l < 1:
        raise OutOfRangeError(f"block scale must be >= 1, got {l}")
    if l > geometry.N:
        raise SupportTooLargeError(
            f"block of scale {l} does not fit a torus with N = {geometry.N}"
        )
    rng = range(-l + 1, l + 1)
    sites = [s for s in itertools.product(rng, repeat=geometry.dimension)
             if s != geometry.origin]
    return [geometry.env_index(s) for s in sites]


def conditional_expectation(space, v, l):
    """Project an observable supported on the block of scale l onto the
    particle count inside that block.

    Under the exchangeable canonical measure, conditioning on the count j
    and the outside configuration makes the inside arrangement uniform,
    so the projection is the plain average of v over all C(m, j)
    arrangements, evaluated by exact enumeration. The caller promises
    supp(v) lies inside the block; arrangement values are then read off at
    a canonical completion (leftover particles parked on the first sites
    outside the block).
    """
    vvals = values_of(v)
    inside = block_env_indices(space.geometry, l)
    m_in = len(inside)
    if m_in > MAX_BLOCK_SITES:
        raise SupportTooLargeError(
            f"block has {m_in} sites, cap is {MAX_BLOCK_SITES}"
        )
    inside_mask = 0
    for i in inside:
        inside_mask |= 1 << i
    outside = [i for i in range(space.M) if not (inside_mask >> i) & 1]
    k = space.k
    avg = {}
    for j in range(0, min(k, m_in) + 1):
        rem = k - j
        if rem > len(outside):
            continue
        filler = 0
        for i in outside[:rem]:
            filler |= 1 << i
        # local bit b is block site inside[b]; lexicographic order of the
        # local subsets is that of itertools.combinations(inside, j)
        local = _lex_bitmasks(m_in, j)
        masks = np.full(local.size, filler, dtype=np.uint64)
        for b, site in enumerate(inside):
            masks |= ((local >> np.uint64(b)) & np.uint64(1)) << np.uint64(site)
        # summed left to right in enumeration order (cumsum, unlike sum,
        # does not pair terms)
        total = np.cumsum(vvals[space.rank_masks(masks)])[-1]
        avg[j] = float(total) / len(masks)
    counts = space.inside_counts(inside_mask)
    out = np.array([avg[int(c)] for c in counts])
    return ObservableVector(out)


def multiscale_diagnostic(space, v, l, q, n_max):
    """Variance of block-average increments across dyadic-like scales.

    Computes g_n, the conditional expectation of v at scale l * q^n, and
    reports <(g_n - g_{n-1})^2> for n = 1..n_max together with <g_n^2>
    and a log-log slope fitted to the increment variances.
    """
    if q < 2:
        raise OutOfRangeError(f"scale factor must be >= 2, got {q}")
    if n_max < 1:
        raise OutOfRangeError(f"n_max must be >= 1, got {n_max}")
    scales = [l * q ** n for n in range(n_max + 1)]
    if scales[-1] > space.geometry.N:
        raise BlockTooLargeError(
            f"scale {scales[-1]} does not fit a torus with N = "
            f"{space.geometry.N}"
        )
    gs = [conditional_expectation(space, v, s).values for s in scales]
    second = [inner(g, g) for g in gs]
    incr = [inner(gs[n] - gs[n - 1], gs[n] - gs[n - 1])
            for n in range(1, n_max + 1)]
    exponent = None
    if n_max >= 2 and all(x > 0.0 for x in incr):
        logs = np.log(np.asarray(scales[1:], dtype=float))
        exponent = float(np.polyfit(logs, np.log(incr), 1)[0])
    return MultiscaleReport(scales, incr, second, exponent)


# -- observables and per-N diagnostics ---------------------------------------

def occupancy_observable(space, site):
    """eta(site) - alpha, centered exactly."""
    idx = space.geometry.env_index(site)
    occ = space.site_occupancy([idx]).astype(float)[:, 0]
    return ObservableVector(center(occ), mean_zero=True)


def occupancy_difference_observable(space, site_a, site_b):
    """eta(a) - eta(b); mean-zero by exchangeability."""
    ia = space.geometry.env_index(site_a)
    ib = space.geometry.env_index(site_b)
    occ = space.site_occupancy([ia, ib]).astype(float)
    return ObservableVector(center(occ[:, 0] - occ[:, 1]), mean_zero=True)


def _along_N(kernel, alpha, recipe, N_list, value):
    """ConvergenceReport of value(space, h, s0) along increasing N at fixed
    density, with h = center(recipe(space)) and s0 the environment
    generator of the symmetrized kernel; a one-state space or a vanishing
    observable reads 0."""
    sym_kernel = symmetrize(kernel)
    values, Ks = [], []
    for N in N_list:
        space = _fixed_density_space(kernel, alpha, N)
        h = center(recipe(space))
        trivial = space.size == 1 or not np.any(h)
        values.append(0.0 if trivial else value(
            space, h, assemble_environment(space, sym_kernel)))
        Ks.append(space.K)
    diffs = [abs(b - a) for a, b in zip(values, values[1:])]
    return ConvergenceReport(list(N_list), Ks, values, diffs)


def hminus1_convergence_diagnostic(kernel, alpha, recipe, N_list, tol=1e-10):
    """Dual norm of a centered observable against the symmetrized
    environment generator, tracked along increasing N at fixed density.

    ``recipe`` maps a StateSpace to the observable for that torus.
    """
    def value(space, vbar, s0):
        check_ergodicity(s0)
        return hminus1_norm(s0, vbar, tol=tol)

    return _along_N(kernel, alpha, recipe, N_list, value)


def approximation_residual_diagnostic(kernel, alpha, recipe, N_list,
                                      basis_scale=1, tol=1e-10):
    """Residual of the best local approximation h ~ (-L) g along N.

    For each N the target h = recipe(space) is approximated over the span
    of centered single-site occupancies on the block of scale
    ``basis_scale``; the fit residual is measured in the dual norm of the
    symmetrized environment generator.
    """
    def value(space, h, s0):
        op = full_generator(space, kernel)
        basis = [occupancy_observable(space, space.geometry.env_sites[i]).values
                 for i in block_env_indices(space.geometry, basis_scale)]
        resid, _ = approximation_residual(op, h, basis, weight_op=s0, tol=tol)
        return resid

    return _along_N(kernel, alpha, recipe, N_list, value)
