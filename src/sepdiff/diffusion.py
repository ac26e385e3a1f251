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
and replays its residual against v_i read at the images g.eta.

The same symmetries shrink each solve. The g with g a = chi(g) a,
chi(g) = +1 or -1, form a group H_a, and for them v_a(g.eta) =
chi(g) v_a(eta); u_a, the unique mean-zero solution, inherits this. Such a
function is fixed by its values at one representative per orbit of H_a on
the states, and vanishes on the orbits whose stabilizer holds an element
with chi = -1. So the driver assembles L only on the representatives
(``generator.ReducedAssembly``) and solves in the orthonormal coordinates
x_O = sqrt(|O|) u(r_O), where a symmetric L stays symmetric. v_a and w_a
are read there too, centered by their |O|-weighted mean when chi is trivial
(a function of a nontrivial character has mean zero). Since w_a u_a is
H-invariant, <w_a, u_a> is the sum over orbits of (sqrt(|O|) w_a(r_O)) x_O,
divided by the state count; Euclidean norms agree in both coordinates, so
the residual replayed on the reduced system is the full-space one. A
direction whose H_a is the identity alone is solved on all states, in the
identity's coordinates x = u. A direction a_i mapped from a_j lives in a_j's
coordinates: eta -> f_i(g.eta) has a_j's symmetry type, u_i's coordinates
are s x_j, v_i and w_i are read at the images g.r_O of a_j's
representatives, and the residual is replayed against a_j's operator. So
each class of directions builds one orbit table, one assembly and one
operator. For i != j, <w_i, u_j> vanishes when some g in both stabilizers
has chi_i(g) != chi_j(g), since g preserves the measure and flips the sign
of the product; otherwise both are lifted to every state. A caller's
``operator``, the unreduced reference, need not commute with any g, so the
identity alone acts on it.

The multiscale diagnostic projects an observable onto the functions of
the particle count inside a block. The measure is uniform, so that
projection is the mean of the observable over the states of each count.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    NonPositiveDError,
    NotConvergedError,
    OutOfRangeError,
    SupportTooLargeError,
)
from .generator import (
    IsotypicCoordinates,
    ReducedAssembly,
    assemble_environment,
    center,
    check_ergodicity,
    full_generator,
    inner,
)
from .kernel import TorusGeometry, _whole, symmetrize
from .sobolev import (
    _replay,
    approximation_residual,
    hminus1_norm,
    solve_general,
)
from .statespace import StateSpace

#: the fixed correction sign of D = free - sign * 2 <w_a, u_a>, printed in CSVs
DEFAULT_CORRECTION_SIGN = -1


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
    """Centered drift observables (v_a, w_a), float arrays over the ranks:
    :func:`_reduced_drifts` in the identity's coordinates, x = u."""
    space.geometry.require_kernel_fits(kernel)
    return _reduced_drifts(space, kernel, a, IsotypicCoordinates.identity())


def _reduced_drifts(space, kernel, a, coords, g=None):
    """(v_a, w_a) in the coordinates ``coords`` of their symmetry type:
    v_a = sum_z (z.a) p(z) (alpha - eta(z)), and w_a the same at the
    mirrored sites -z, read at the representatives r_O, or as
    eta -> f(g.eta) at the images g.r_O when the lattice symmetry g is
    given. A function of a nontrivial character has mean zero; under the
    trivial one both are centered by their |O|-weighted mean, their mean
    over the states, summed pairwise as :func:`center` sums it."""
    geo = space.geometry
    masks = space.bitmasks()[coords.reps]
    if g is not None:
        masks = space.mapped_masks(g, masks)
    drifts = []
    for mirror in (1, -1):
        f = np.zeros(masks.size)
        for z, p in kernel.entries:
            site = tuple(mirror * x for x in z)
            occ = space.inside_counts(1 << geo.env_index(site), masks)
            f += float(np.dot(a, z)) * p * (space.alpha - occ)
        if not np.any(coords.chi < 0):
            f -= float((coords.sizes * f).sum()) / space.size
        f *= coords.roots
        drifts.append(f)
    return tuple(drifts)


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


def _characters_differ(si, sj):
    """Whether an element of both stabilizers (indices, chi) has a
    different character in each. Then <w_i, u_j> vanishes: w_i and u_j
    change by chi_i(g) and chi_j(g) under that g, which preserves the
    measure."""
    ci, cj = dict(zip(*si)), dict(zip(*sj))
    return any(ci[h] != cj[h] for h in ci.keys() & cj.keys())


def _solve_directions(space, kernel, directions, tol, method, operator=None):
    """The exact route along directions a_1..a_m.

    Returns the free matrix F_ij = (1 - alpha) sum_z (a_i.z)(a_j.z) p(z),
    the unsigned correction C_ij = 2 <w_i, u_j> with u_j = (-L)^{-1} v_j,
    and the DirectionResult of each a_i, whose D = F_ii + C_ii must be
    nonnegative within 1e-9. Each u_i is mapped from an earlier u_j when a
    kernel symmetry g has g a_j = +-a_i (method "symmetry", 0 iterations,
    its replayed residual at most 2 tol), and otherwise solved: on the
    full generator reduced to the symmetry type of v_j when a_j has a
    nontrivial stabilizer, else on the full generator, assembled once, or
    on ``operator`` when given, which is the unreduced reference: the
    identity group alone acts on it.

    A solved a_j and the directions mapped from it live in a_j's
    coordinates, the identity's (x = u) when not reduced (see the module
    docstring), and share its operator, which is dropped before the next
    is built. The solved directions are taken stabilizer by stabilizer,
    each in order, and one assembly builds the operators of a
    stabilizer's characters in turn (``ReducedAssembly.operators``), the
    last into the assembly's own move buffer. C_ij (i != j) is 0 when an
    element of both stabilizers has different characters; otherwise both
    functions are lifted to every state, a mapped one through g.

    Before any work, raises TorusSizeError for a kernel that does not fit
    the torus, and OutOfRangeError for a direction that is not a finite
    vector of length d or an ``operator`` not of ``space.size``.
    """
    d = space.geometry.dimension
    space.geometry.require_kernel_fits(kernel)
    dirs = [np.asarray(a, dtype=float) for a in directions]
    for a in dirs:
        if a.shape != (d,) or not np.all(np.isfinite(a)):
            raise OutOfRangeError(f"direction {a.tolist()} is not a finite "
                                  f"vector of length {d}")
    if operator is not None and operator.size != space.size:
        raise OutOfRangeError(f"operator of size {operator.size} on a space "
                              f"of {space.size} states")
    free = np.array([[_free_form(kernel, a, b, space.alpha) for b in dirs]
                     for a in dirs])
    corr = np.zeros_like(free)
    solves = [(0.0, 0, "degenerate", 0, 1)] * len(dirs)
    if space.size > 1:
        n = space.size
        group = (_symmetries(kernel) if operator is None
                 else [np.eye(d, dtype=np.int64)])
        stabs = [_stabilizer(group, a) for a in dirs]
        hits = [_image(group, dirs[:i], a) for i, a in enumerate(dirs)]
        identity = IsotypicCoordinates.identity()
        solved = {}                       # stabilizer -> its solved directions
        for j, hit in enumerate(hits):
            if hit is None:
                solved.setdefault(stabs[j][0], []).append(j)
        sols = [None] * len(dirs)         # (coords, w_i, x_i, g or None)
        for keep, js in solved.items():
            if len(keep) > 1:
                ops = ReducedAssembly(
                    space, kernel, space.orbits([group[h] for h in keep])
                ).operators([stabs[j][1] for j in js])
            else:
                ops = itertools.repeat(full_generator(space, kernel)
                                       if operator is None else operator)
            for j, op in zip(js, ops):
                coords = identity if op.coords is None else op.coords
                b, w = _reduced_drifts(space, kernel, dirs[j], coords)
                rep = solve_general(op, b, tol=tol, method=method)
                solves[j] = (rep.relative_residual, rep.iterations,
                             rep.method, op.size, len(keep))
                sols[j] = (coords, w, rep.solution, None)
                for i in [i for i, hit in enumerate(hits)
                          if hit and hit[0] == j]:
                    # u_i(g.eta) = s u_j(eta)
                    _, g, s = hits[i]
                    x = s * rep.solution
                    b, w = _reduced_drifts(space, kernel, dirs[i], coords, g)
                    res = _replay(op.matvec, x, b, 0.0)
                    if res > 2.0 * tol:
                        raise NotConvergedError(
                            f"u along {dirs[i].tolist()} mapped by symmetry "
                            f"left replayed residual {res:.3e}; tol {tol:.1e}")
                    solves[i] = (res, 0, "symmetry", op.size, len(keep))
                    sols[i] = (coords, w, x, g)
                op = None
        for i, (coords, w, x, _) in enumerate(sols):
            corr[i, i] = 2.0 * (float(w @ x) / n)
        ranks = {}                 # i -> the ranks of g^t.eta, for a mapped i

        def values(i, f):
            # every state's value of f, held as sols[i] holds its functions
            coords, _, _, g = sols[i]
            if g is not None and i not in ranks:
                ranks[i] = space.mapped_ranks(g.T)
            return coords.lift(f)[ranks.get(i, slice(None))]
        for i, j in itertools.permutations(range(len(dirs)), 2):
            if not _characters_differ(stabs[i], stabs[j]):
                corr[i, j] = 2.0 * inner(values(i, sols[i][1]),
                                         values(j, sols[j][2]))
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
    conventions are always recorded. ``operator``, when given, is the
    unreduced reference that the direction is solved on.
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
    The result must be positive semidefinite within 1e-9. A given
    ``operator`` is the unreduced reference, and each axis is solved on it.
    """
    t0 = time.perf_counter()
    free, corr, results = _solve_directions(
        space, kernel, np.eye(space.geometry.dimension), tol, method, operator)
    mat = free + 0.5 * (corr + corr.T)
    low = float(np.linalg.eigvalsh(mat)[0])
    if low < -1e-9 * max(1.0, float(np.trace(mat))):
        raise NonPositiveDError(f"D matrix has eigenvalue {low!r} < 0")
    return _report(space, tol, t0, results, mat, low)


def choose_K(alpha, geometry):
    """Particle count closest to alpha * (2N)^d, clamped to [1, (2N)^d].

    Rounding is half-away-from-zero so the choice does not depend on the
    platform's banker's rounding.
    """
    if not 0.0 <= alpha <= 1.0:
        raise OutOfRangeError(f"density must lie in [0, 1], got {alpha}")
    try:
        k = math.floor(alpha * geometry.n_sites + 0.5)
    except OverflowError:
        # a site count past the float range, multiplied exactly
        k = math.floor(Fraction(alpha) * geometry.n_sites + Fraction(1, 2))
    return min(max(k, 1), geometry.n_sites)


def torus_space(kernel, N, K=None, alpha=None):
    """StateSpace on the torus of side 2N, which must fit the kernel, with
    K particles, or choose_K(alpha) when K is None."""
    geo = TorusGeometry(kernel.dimension, N)
    geo.require_kernel_fits(kernel)
    return StateSpace(geo, choose_K(alpha, geo) if K is None else K)


def sweep(kernel, alpha, N_list, rtol=0.05, tol=1e-10, method="auto"):
    """Diffusion matrices along increasing N at (approximately) fixed
    density; flags a plateau when the last successive change is below
    rtol relative to the final matrix scale."""
    if len(N_list) < 1:
        raise OutOfRangeError("sweep needs at least one N")
    reports = [compute_D_matrix(torus_space(kernel, N, alpha=alpha), kernel,
                                tol=tol, method=method)
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
    """Environment-site indices of the block {-l+1, ..., l}^d minus origin;
    a SupportTooLargeError when the block does not fit the torus."""
    if (_whole(l) or 0) < 1:
        raise OutOfRangeError(f"block scale must be a whole number >= 1, "
                              f"got {l!r}")
    l = int(l)
    if l > geometry.N:
        raise SupportTooLargeError(
            f"block of scale {l} does not fit a torus with N = {geometry.N}"
        )
    rng = range(-l + 1, l + 1)
    sites = [s for s in itertools.product(rng, repeat=geometry.dimension)
             if s != geometry.origin]
    return [geometry.env_index(s) for s in sites]


def conditional_expectation(space, v, l):
    """The orthogonal projection of v onto the functions of the particle
    count inside the block of scale l: at each state, the mean of v over
    the states with the same count, the measure being uniform.

    For a v supported in the block this is the average of v over the
    arrangements of that many particles inside, since under the
    exchangeable canonical measure the count and the outside
    configuration leave the inside arrangement uniform.
    """
    v = np.asarray(v, dtype=float)
    counts = space.inside_counts(
        sum(1 << i for i in block_env_indices(space.geometry, l)))
    # counts that no state has (too few particles can stay outside) hold
    # no states and are never read back
    states = np.maximum(np.bincount(counts), 1)
    return (np.bincount(counts, weights=v) / states)[counts]


def multiscale_scales(geometry, l, q, n_max):
    """The block scales l * q^n, n = 0..n_max, of a multiscale diagnostic
    on ``geometry``: an OutOfRangeError unless l >= 1, q >= 2 and
    n_max >= 1, all whole numbers, and a SupportTooLargeError at the first
    scale above N."""
    if ((_whole(l) or 0) < 1 or (_whole(q) or 0) < 2
            or (_whole(n_max) or 0) < 1):
        raise OutOfRangeError(f"multiscale needs whole numbers l >= 1, "
                              f"q >= 2 and n_max >= 1, got {l!r}, {q!r} "
                              f"and {n_max!r}")
    l, q, n_max = int(l), int(q), int(n_max)
    scales = []
    for n in range(n_max + 1):
        scale = l * q ** n
        if scale > geometry.N:
            raise SupportTooLargeError(
                f"scale l * q**{n} = {scale} does not fit a torus with "
                f"N = {geometry.N}")
        scales.append(scale)
    return scales


def multiscale_diagnostic(space, v, l, q, n_max):
    """Variance of block-average increments across dyadic-like scales.

    Computes g_n, the conditional expectation of v at scale l * q^n, and
    reports <(g_n - g_{n-1})^2> for n = 1..n_max together with <g_n^2>
    and a log-log slope fitted to the increment variances. The scales are
    those of :func:`multiscale_scales`.
    """
    scales = multiscale_scales(space.geometry, l, q, n_max)
    gs = [conditional_expectation(space, v, s) for s in scales]
    second = [inner(g, g) for g in gs]
    incr = [inner(b - a, b - a) for a, b in zip(gs, gs[1:])]
    exponent = None
    if len(incr) >= 2 and all(x > 0.0 for x in incr):
        logs = np.log(np.asarray(scales[1:], dtype=float))
        exponent = float(np.polyfit(logs, np.log(incr), 1)[0])
    return MultiscaleReport(scales, incr, second, exponent)


# -- observables and per-N diagnostics ---------------------------------------

def occupancy_observable(space, site):
    """eta(site) - alpha, centered exactly."""
    return center(space.inside_counts(1 << space.geometry.env_index(site)))


def occupancy_difference_observable(space, site_a, site_b):
    """eta(a) - eta(b); mean-zero by exchangeability."""
    occ_a, occ_b = (space.inside_counts(1 << space.geometry.env_index(s))
                    for s in (site_a, site_b))
    return center(occ_a - occ_b)


def _along_N(kernel, alpha, recipe, N_list, value):
    """ConvergenceReport of value(space, h, s0) along increasing N at fixed
    density, with h = center(recipe(space)) and s0 the environment
    generator of the symmetrized kernel; a vanishing observable, as every
    one on a one-state space is once centred, reads 0."""
    sym_kernel = symmetrize(kernel)
    values, Ks = [], []
    for N in N_list:
        space = torus_space(kernel, N, alpha=alpha)
        h = center(recipe(space))
        values.append(value(space, h, assemble_environment(space, sym_kernel))
                      if np.any(h) else 0.0)
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
        basis = [occupancy_observable(space, space.geometry.env_sites[i])
                 for i in block_env_indices(space.geometry, basis_scale)]
        resid, _ = approximation_residual(op, h, basis, weight_op=s0, tol=tol)
        return resid

    return _along_N(kernel, alpha, recipe, N_list, value)
