"""Markov generators on the ranked state space, stored sparsely.

Operators keep only strictly positive off-diagonal rates; the diagonal is
always the negative row sum, so row sums vanish identically. The reference
measure is uniform on the state space, and all inner products are taken
with the flat weight 1/size. A ``ReducedOperator`` is the exception: a
generator restricted to one symmetry type, in orbit coordinates, with
signed off-diagonal entries and a stored diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import NotConnectedError, NotMeanZeroError, NotStationaryError, SizeCapError
from .statespace import enabled_moves

#: refuse to assemble a generator with more off-diagonal entries, counted
#: over the environment and tagged parts together
DEFAULT_MAX_NNZ = 50_000_000

#: absolute tolerance for the mean-zero flag on observables
MEAN_ZERO_TOL = 1e-12

#: largest |rate(x, y) - rate(y, x)|, relative to max(1, max exit rate),
#: for which SparseOperator.is_symmetric holds; it picks CG over GMRES
SYMMETRY_TOL = 1e-13


def values_of(f):
    """The float array of an ObservableVector or array-like."""
    return np.asarray(getattr(f, "values", f), dtype=float)


def inner(f, g):
    """Inner product under the uniform measure: (f . g) / size."""
    f = values_of(f)
    return float(f @ values_of(g)) / f.size


def center(f):
    """Subtract the flat mean."""
    f = values_of(f)
    return f - f.mean()


def require_mean_zero(values, what="observable"):
    """Raise NotMeanZeroError unless the flat mean of a float array is
    within ``MEAN_ZERO_TOL`` of 0, relative to max(1, max |value|)."""
    m = abs(float(values.mean())) if values.size else 0.0
    scale = max(1.0, float(np.max(np.abs(values), initial=0.0)))
    if m > MEAN_ZERO_TOL * scale:
        raise NotMeanZeroError(f"{what} has mean {m:.3e}, above "
                               f"{MEAN_ZERO_TOL} * {scale:.3e}")


@dataclass
class ObservableVector:
    """Function on the state space, indexed by rank.

    ``mean_zero=True`` asserts that the flat mean vanishes (within
    ``MEAN_ZERO_TOL``); constructors that center explicitly set it.
    """

    values: np.ndarray
    mean_zero: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.mean_zero:
            require_mean_zero(self.values)

    def __len__(self):
        return self.values.size

    def __array__(self, dtype=None):
        return np.asarray(self.values, dtype=dtype)


class SparseOperator:
    """Generator matrix: positive off-diagonal rates, diagonal = -row sum.

    ``symmetric``, when given, is whether the rates are symmetric, decided
    by the caller; otherwise :meth:`is_symmetric` compares the stored
    rates with their transpose. The null direction is the constants.
    """

    def __init__(self, size, offdiag, symmetric=None):
        off = sp.csr_matrix(offdiag, shape=(size, size), copy=True)
        off.sum_duplicates()
        off.eliminate_zeros()
        if off.nnz and off.data.min() < 0.0:
            raise ValueError("off-diagonal rates must be nonnegative")
        if off.diagonal().any():
            raise ValueError("off-diagonal storage must not carry diagonal entries")
        off.sort_indices()
        self.size = size
        self._off = off
        self.diag = -np.asarray(off.sum(axis=1)).ravel()
        self._symmetric = symmetric

    @property
    def nnz(self):
        """Stored entries including the implied diagonal."""
        return self._off.nnz + self.size

    @property
    def offdiag(self):
        return self._off

    @property
    def null(self):
        """Unit vector spanning the null space: the normalized constants."""
        return np.full(self.size, 1.0 / np.sqrt(self.size))

    def project(self, f):
        """f less its component along the null direction: the flat mean."""
        return center(f)

    def null_projector(self):
        """The projector onto the null direction, to add to a dense matrix:
        1/size in every entry."""
        return 1.0 / self.size

    def require_range(self, b, what):
        """Raise NotMeanZeroError unless b is orthogonal to the null
        direction, that is mean-zero."""
        require_mean_zero(b, what)

    def matvec(self, f):
        f = values_of(f)
        return self._off @ f + self.diag * f

    def to_csr(self):
        """Full matrix including the diagonal."""
        return (self._off + sp.diags(self.diag, format="csr")).tocsr()

    def to_dense(self):
        a = self._off.toarray()
        a[np.diag_indices_from(a)] += self.diag
        return a

    def max_exit_rate(self):
        return float(np.max(-self.diag, initial=0.0))

    def is_symmetric(self):
        """Off-diagonal rates symmetric, as decided at construction or
        else within SYMMETRY_TOL; computed once, since the stored rates
        never change."""
        if self._symmetric is None:
            d = self._off - self._off.T
            scale = max(1.0, self.max_exit_rate())
            worst = abs(d).max() if d.nnz else 0.0
            self._symmetric = bool(worst <= SYMMETRY_TOL * scale)
        return self._symmetric

    def __repr__(self):
        return f"{type(self).__name__}(size={self.size}, nnz={self.nnz})"


class ReducedOperator(SparseOperator):
    """A generator L restricted to the functions with u(g.eta) = chi(g)
    u(eta) for g in a group H of lattice symmetries, in the orthonormal
    coordinates x_O = sqrt(|O|) u(r_O), one per orbit O that carries such
    functions (see ``Orbits.isotypic``).

    Its matrix is sqrt(|O|) A_{O,O'} / sqrt(|O'|), with A_{O,O'} the sum of
    L(r_O, eta') chi(g_eta') over eta' in O'; it is symmetric whenever L
    is. The off-diagonal entries may be negative, are stored in COO form
    with repeated coordinates summed by every product, and the diagonal is
    stored. The null direction is sqrt(|O|), normalized, when chi is
    trivial (the constants) and there is none otherwise: such functions
    sum to zero, and L is nonsingular on them. Euclidean norms in these
    coordinates equal those of the lifted functions, so a replayed
    residual here is the full-space one.
    """

    def __init__(self, offdiag, diag, null, symmetric, lift):
        self.size = diag.size
        self._off = offdiag
        self.diag = diag
        self._null = null
        self._symmetric = symmetric
        self._reps, self._roots, self._gather, self._coef = lift

    @property
    def null(self):
        """Unit null direction, or None when the operator is nonsingular."""
        return self._null

    def project(self, f):
        if self._null is None:
            return f
        return f - self._null * float(self._null @ f)

    def null_projector(self):
        if self._null is None:
            return 0.0
        return np.outer(self._null, self._null)

    def require_range(self, b, what):
        if self._null is None:
            return
        c = abs(float(self._null @ b))
        scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
        if c > MEAN_ZERO_TOL * scale * np.sqrt(self.size):
            raise NotMeanZeroError(f"{what} has null component {c:.3e}")

    def restrict(self, f):
        """Coordinates of a full-space function of the subspace."""
        return values_of(f)[self._reps] * self._roots

    def lift(self, x):
        """The full-space function with coordinates x."""
        return self._coef * np.append(x, 0.0)[self._gather]


def _check_nnz(n_entries):
    if n_entries > DEFAULT_MAX_NNZ:
        raise SizeCapError(
            f"{n_entries} nonzeros exceed cap {DEFAULT_MAX_NNZ}")


def _moves(space, kernel, masks, tagged=None):
    """(rows, cols, rates) of the moves out of the states with bitmasks
    ``masks`` that change them: environment moves (``tagged=False``),
    tagged jumps (``True``) or both (``None``). ``rows`` index ``masks``,
    ``cols`` are target ranks; both int32, which the state cap allows.

    Channel-major order keeps each row's entries in channel order, so
    coinciding targets are summed in the same order as a per-state loop.
    """
    space.geometry.require_kernel_fits(kernel)
    channels = [ch for ch in space.move_channels(kernel)
                if tagged is None or (ch.jump >= 0) == tagged]
    # one rate per channel keeps the triples compact until the end
    rows, cols, rates, sizes = [], [], [], []
    n = 0
    for ch, src, targets in enabled_moves(masks, channels):
        moved = targets != masks[src]
        src, targets = src[moved], targets[moved]
        n += src.size
        _check_nnz(n)
        sizes.append(src.size)
        rows.append(src.astype(np.int32))
        cols.append(space.rank_masks(targets).astype(np.int32))
        rates.append(ch.rate)
    return np.concatenate(rows), np.concatenate(cols), np.repeat(rates, sizes)


def _symmetric_rates(space, kernel, tagged=None):
    """Whether the generator of ``kernel`` on ``space`` (its part picked by
    ``tagged``, as in ``_moves``) is symmetric, decided from the kernel
    instead of the rates: a move by z and its reverse by -z have rates
    p(z) and p(-z), so a kernel with p(z) == p(-z) exactly gives a
    symmetric generator. So does a one-state space. With one environment
    particle the full generator is symmetric for any kernel: its relative
    position moves by z at rate p(z) + p(-z), from its own jump by z or
    the tagged jump by -z.
    """
    prob = dict(kernel.entries)
    mirrored = all(prob.get(tuple(-c for c in z)) == p
                   for z, p in kernel.entries)
    return mirrored or space.size == 1 or (tagged is None and space.k == 1)


def _assemble(space, kernel, tagged=None):
    """Off-diagonal rates of the environment moves (``tagged=False``), of
    the tagged jumps (``True``) or of both (``None``), from the channel
    enumeration over all states (whose count ``StateSpace.bitmasks``
    caps)."""
    rows, cols, rates = _moves(space, kernel, space.bitmasks(), tagged)
    off = sp.coo_matrix((rates, (rows, cols)), shape=(space.size, space.size))
    return SparseOperator(space.size, off,
                          _symmetric_rates(space, kernel, tagged))


def assemble_environment(space, kernel):
    """Generator of the environment exchanges around the pinned origin.

    For each state and each occupied site x with p(z) > 0, the particle may
    move to y = wrap(x + z) when y is a vacant environment site (never the
    origin). Transitions landing on the same target accumulate.
    """
    return _assemble(space, kernel, False)


def assemble_tagged(space, kernel):
    """Generator of the tagged-particle jumps (environment re-centering).

    A jump by z is enabled when wrap(z) is vacant; the state moves to the
    shifted configuration. Jumps that map a state to itself contribute
    nothing to the generator and are dropped.
    """
    return _assemble(space, kernel, True)


def full_generator(space, kernel):
    """Environment part plus tagged part, assembled as one operator from
    all channels, their nonzeros capped together."""
    return _assemble(space, kernel)


class ReducedAssembly:
    """The moves out of each orbit representative of ``orbits`` (a
    ``StateSpace.orbits`` table of kernel symmetries), enumerated once and
    read as a :class:`ReducedOperator` under any character of the group.
    """

    def __init__(self, space, kernel, orbits):
        self.orbits = orbits
        self.symmetric = _symmetric_rates(space, kernel)
        src, targets, rates = _moves(space, kernel,
                                     space.bitmasks()[orbits.reps])
        # each target as its orbit and the group element that maps it to
        # the orbit's representative; the rate carries sqrt(|O| / |O'|)
        cols = orbits.index[targets]
        movers = orbits.mover[targets]
        roots = np.sqrt(orbits.sizes)
        weights = rates * roots[src] / roots[cols]
        within = src == cols
        self._exit = np.bincount(src, weights=rates,
                                 minlength=orbits.reps.size)
        self._within = (src[within], weights[within], movers[within])
        across = ~within
        self._across = (src[across], cols[across], weights[across],
                        movers[across])

    def operator(self, chi):
        """The generator restricted to the functions with u(g.eta) =
        chi(g) u(eta), chi given as +-1 per group element."""
        orb = self.orbits
        chi = np.asarray(chi, dtype=float)
        sign, kept = orb.isotypic(chi)
        row = (np.cumsum(kept) - 1).astype(np.int32)
        roots = np.sqrt(orb.sizes[kept])
        n = roots.size
        # moves within an orbit land on the diagonal
        src, weights, movers = self._within
        diag = (np.bincount(src, weights=weights * chi[movers],
                            minlength=kept.size) - self._exit)[kept]
        # left in COO form, duplicates and all: its matvec costs little
        # more than CSR's, and converting would cost more than the solve
        # saves
        src, cols, weights, movers = self._across
        live = kept[src] & kept[cols]
        off = sp.coo_matrix(
            (weights[live] * chi[movers[live]],
             (row[src[live]], row[cols[live]])), shape=(n, n))
        null = (None if np.any(chi < 0)
                else roots / np.sqrt(orb.sizes.sum()))
        # states of orbits without such functions gather the appended 0
        gather = np.where(kept, row, -1)[orb.index]
        coef = sign / np.sqrt(orb.sizes)[orb.index]
        lift = (orb.reps[kept], roots, gather, coef)
        return ReducedOperator(off, diag, null, self.symmetric, lift)


def adjoint(op):
    """Adjoint under the uniform measure, in generator form.

    The off-diagonal pattern is transposed and the diagonal recomputed as
    the negative row sum. For measure-preserving operators this is the
    plain matrix transpose.
    """
    return SparseOperator(op.size, op.offdiag.T.tocsr())


def symmetric_part(op):
    """(op + adjoint(op)) / 2; equals assembly from the symmetrized kernel."""
    return SparseOperator(op.size, 0.5 * (op.offdiag + op.offdiag.T))


def dirichlet_form(op, f):
    """Quadratic form <f, -op f> under the uniform measure."""
    f = values_of(f)
    return -inner(f, op.matvec(f))


def check_stationarity(op, tol=1e-10):
    """Verify the uniform measure is invariant: column sums of the full
    matrix vanish within tol * (max row exit rate)."""
    colsums = np.asarray(op.offdiag.sum(axis=0)).ravel() + op.diag
    scale = max(op.max_exit_rate(), 1e-300)
    worst = float(np.max(np.abs(colsums), initial=0.0))
    if worst > tol * scale:
        raise NotStationaryError(
            f"max |column sum| = {worst:.3e} exceeds {tol:.1e} * {scale:.3e}"
        )


def check_ergodicity(op):
    """Verify the transition graph is connected (weak connectivity)."""
    if op.size <= 1:
        return
    n, _ = connected_components(op.offdiag, directed=False)
    if n != 1:
        raise NotConnectedError(
            f"transition graph splits into {n} components", n_components=n
        )
