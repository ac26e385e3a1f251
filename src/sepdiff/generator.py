"""Markov generators on the ranked state space, stored sparsely.

Operators keep only strictly positive off-diagonal rates; the diagonal is
always the negative row sum, so row sums vanish identically. The reference
measure is uniform on the state space, and all inner products are taken
with the flat weight 1/size.
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
    """Generator matrix: positive off-diagonal rates, diagonal = -row sum."""

    def __init__(self, size, offdiag):
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
        self._symmetric = None

    @property
    def nnz(self):
        """Stored entries including the implied diagonal."""
        return self._off.nnz + self.size

    @property
    def offdiag(self):
        return self._off

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
        """Off-diagonal rates symmetric within SYMMETRY_TOL; computed once,
        since the stored rates never change."""
        if self._symmetric is None:
            d = self._off - self._off.T
            scale = max(1.0, self.max_exit_rate())
            worst = abs(d).max() if d.nnz else 0.0
            self._symmetric = bool(worst <= SYMMETRY_TOL * scale)
        return self._symmetric

    def __repr__(self):
        return f"SparseOperator(size={self.size}, nnz={self.nnz})"


def _check_nnz(n_entries):
    if n_entries > DEFAULT_MAX_NNZ:
        raise SizeCapError(
            f"{n_entries} nonzeros exceed cap {DEFAULT_MAX_NNZ}")


def _assemble(space, kernel, tagged=None):
    """Off-diagonal rates of the environment moves (``tagged=False``), of
    the tagged jumps (``True``) or of both (``None``), from the channel
    enumeration over all states (whose count ``StateSpace.bitmasks``
    caps)."""
    space.geometry.require_kernel_fits(kernel)
    masks = space.bitmasks()
    channels = [ch for ch in space.move_channels(kernel)
                if tagged is None or (ch.jump >= 0) == tagged]
    # 32-bit ranks (the state cap keeps them small) and one rate per
    # channel keep the triples of the full generator compact
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
    # channel-major order keeps each row's entries in channel order, so
    # coinciding targets are summed in the same order as a per-state loop
    # rebinding frees the per-channel lists before the CSR conversion
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    off = sp.coo_matrix((np.repeat(rates, sizes), (rows, cols)),
                        shape=(space.size, space.size))
    return SparseOperator(space.size, off)


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
