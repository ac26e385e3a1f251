"""Markov generators on the ranked state space, stored sparsely.

Operators keep only strictly positive off-diagonal rates; the diagonal is
always the negative row sum, so row sums vanish identically. The reference
measure is uniform on the state space, and all inner products are taken
with the flat weight 1/size. The exception is a generator restricted to
one symmetry type (``ReducedAssembly.operator``), in orbit coordinates:
its stored entries are its moves, signed, and a move within an orbit is
one on the diagonal; a move out of or into an orbit that the symmetry
type drops is a zero placeholder in column 0. Its stored diagonal is
minus the exit rate, as a generator's is. Both kinds are built as CSR
straight from the source-major moves of ``StateSpace.moves``. Every
operator stores its unit null direction as ``null``: the normalized
constants for a generator, the reduced constants or None for a
restricted one.

scipy is imported inside the functions that build or traverse sparse
matrices, so the Monte Carlo route, which needs none, runs on numpy alone.
Functions on the state space, observables and solutions alike, are plain
float arrays indexed by rank.
"""

from __future__ import annotations

import numpy as np

from .errors import NotConnectedError, NotMeanZeroError, SizeCapError

#: refuse to assemble a generator with more off-diagonal entries, counted
#: over the environment and tagged parts together
DEFAULT_MAX_NNZ = 50_000_000

#: moves that ReducedAssembly.operator gathers at a time: a gather by int32
#: indices first copies them to a full intp array
GATHER_CHUNK = 1 << 16

#: rows whose edges check_ergodicity reads at a time
COMPONENT_ROWS = 1 << 10

#: tolerance of SparseOperator.require_range, relative to max(1, max |value|)
MEAN_ZERO_TOL = 1e-12

#: largest |rate(x, y) - rate(y, x)|, relative to max(1, max exit rate),
#: for which SparseOperator.is_symmetric holds; it picks CG over BiCGSTAB
SYMMETRY_TOL = 1e-13


def inner(f, g):
    """Inner product under the uniform measure: (f . g) / size."""
    f = np.asarray(f, dtype=float)
    return float(f @ np.asarray(g, dtype=float)) / f.size


def center(f):
    """Subtract the flat mean."""
    f = np.asarray(f, dtype=float)
    return f - f.mean()


class SparseOperator:
    """Generator matrix: positive off-diagonal rates, diagonal = -row sum;
    or a generator restricted to one symmetry type, built by
    :meth:`ReducedAssembly.operator` past these checks, whose stored
    entries may be negative, may lie on the diagonal and include zero
    placeholders in column 0, and whose ``diag`` is minus the exit rate.

    ``symmetric``, when given, is whether the rates are symmetric, decided
    by the caller; otherwise :meth:`is_symmetric` compares the stored
    rates with their transpose. ``null`` is the unit vector spanning the
    null direction: the normalized constants here, and the reduced
    constants or None (a nonsingular operator) for a restricted one.
    ``source`` is the (space, kernel) pair whose full generator this is,
    recorded by :func:`full_generator`, and None for any other operator;
    ``coords`` are the :class:`IsotypicCoordinates` of a restricted
    operator, and None for a full-space one.
    """

    source = None

    def __init__(self, size, offdiag, symmetric=None):
        import scipy.sparse as sp

        self._take(sp.csr_matrix(offdiag, shape=(size, size), copy=True),
                   symmetric)

    def _take(self, off, symmetric):
        """Keep the CSR matrix ``off`` of rates as its own, with no copy:
        its duplicates summed, its zeros dropped and its columns sorted in
        place, after the checks of a caller's matrix; returns self. For
        the CSR a builder here made fresh, and for ``__init__``'s copy."""
        off.sum_duplicates()
        off.eliminate_zeros()
        if off.nnz and off.data.min() < 0.0:
            raise ValueError("off-diagonal rates must be nonnegative")
        if off.diagonal().any():
            raise ValueError("off-diagonal storage must not carry diagonal entries")
        off.sort_indices()
        return self._store(off, -np.asarray(off.sum(axis=1)).ravel(),
                           np.ones(off.shape[0]) / np.sqrt(off.shape[0]),
                           symmetric)

    def _store(self, off, diag, null, symmetric, coords=None):
        """Keep the parts as given, unchecked; returns self."""
        self.size = diag.size
        self._off = off
        self.diag = diag
        self.null = null
        self._symmetric = symmetric
        self.coords = coords
        return self

    @property
    def nnz(self):
        """Stored entries including the implied diagonal."""
        return self._off.nnz + self.size

    @property
    def offdiag(self):
        return self._off

    def project(self, f):
        """f less its component along the null direction."""
        if self.null is None:
            return f
        return f - self.null * float(self.null @ f)

    def require_range(self, b, what):
        """Raise NotMeanZeroError unless |null . b| <= ``MEAN_ZERO_TOL``
        * max(1, max |b|) * sqrt(size); for the constants that is
        |mean b| <= MEAN_ZERO_TOL * max(1, max |b|)."""
        if self.null is None:
            return
        c = abs(float(self.null @ b))
        scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
        bound = MEAN_ZERO_TOL * scale * np.sqrt(self.size)
        if c > bound:
            raise NotMeanZeroError(f"{what} has null component {c:.3e}, "
                                   f"above {bound:.3e}")

    def matvec(self, f):
        f = np.asarray(f, dtype=float)
        return self._off @ f + self.diag * f

    def to_csr(self):
        """Full matrix including the diagonal."""
        import scipy.sparse as sp

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


class IsotypicCoordinates:
    """The orthonormal coordinates x_O = sqrt(|O|) u(r_O) of the functions
    with u(g.eta) = chi(g) u(eta) for g in a group H of lattice symmetries,
    one per orbit O of ``orbits`` (a ``StateSpace.orbits`` table of H) that
    carries such functions (see ``Orbits.isotypic``); chi is given as +-1
    per element of H.

    ``reps`` holds the representatives r_O of those orbits and ``sizes``
    their |O|. Only per-orbit arrays are stored, and none for the identity
    group's coordinates x = u (:meth:`identity`).
    """

    def __init__(self, orbits, chi):
        self.orbits = orbits
        self.chi = np.asarray(chi, dtype=float)
        kept = orbits.isotypic(self.chi)
        # each orbit's coordinate; -1 on orbits without such functions
        # gathers the 0 that lift appends
        self.row = np.where(kept, np.cumsum(kept) - 1, -1).astype(np.int32)
        self.reps = orbits.reps[kept]
        self.sizes = orbits.sizes[kept]
        self.roots = np.sqrt(self.sizes)

    @classmethod
    def identity(cls):
        """The coordinates x = u of every function, in which a full-space
        operator is solved: each state is its own orbit, of size 1, and
        ``reps`` is the slice of all states."""
        self = cls.__new__(cls)
        self.orbits, self.chi = None, np.ones(1)
        self.reps, self.sizes, self.roots = slice(None), 1, 1
        return self

    def restrict(self, f):
        """Coordinates of a full-space function of the subspace."""
        return np.asarray(f, dtype=float)[self.reps] * self.roots

    def lift(self, x):
        """The function with coordinates x, at every state: chi(g) x_O /
        sqrt(|O|) at a state eta with g.eta = r_O."""
        orb = self.orbits
        if orb is None:
            return x
        coef = self.chi[orb.mover] / np.sqrt(orb.sizes)[orb.index]
        return coef * np.append(x, 0.0)[self.row[orb.index]]


def _check_nnz(n_entries):
    if n_entries > DEFAULT_MAX_NNZ:
        raise SizeCapError(
            f"{n_entries} nonzeros exceed cap {DEFAULT_MAX_NNZ}")


def _symmetric_rates(space, kernel, env_only=False):
    """Whether the generator of ``kernel`` on ``space`` (its environment
    part alone when ``env_only``) is symmetric, decided from the kernel
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
    return mirrored or space.size == 1 or (not env_only and space.k == 1)


def _assemble(space, kernel, env_only=False):
    """Off-diagonal rates of all moves, or of the environment moves alone
    when ``env_only``, enumerated over all states (whose count
    ``StateSpace.bitmasks`` caps) straight into CSR rows, each row's in
    channel order, as a per-state loop would list them."""
    import scipy.sparse as sp

    masks = space.bitmasks()
    rates = np.array([p for _, p in kernel.entries])
    starts = np.zeros(space.size + 1, dtype=np.int64)
    cols, data = [], []
    nnz = 0
    for lo, live, ranks in space.moves(kernel, masks, tagged=not env_only):
        starts[lo + 1:lo + 1 + len(live)] = np.count_nonzero(live, axis=1)
        nnz += ranks.size
        _check_nnz(nnz)
        # int32, which the state cap allows
        cols.append(ranks.astype(np.int32))
        data.append(rates.take(np.flatnonzero(live) % rates.size))
    # each list is dropped once joined, which frees its blocks
    data = np.concatenate(data)
    cols = np.concatenate(cols)
    off = sp.csr_matrix((data, cols, np.cumsum(starts)),
                        shape=(space.size, space.size))
    return SparseOperator.__new__(SparseOperator)._take(
        off, _symmetric_rates(space, kernel, env_only))


def assemble_environment(space, kernel):
    """Generator of the environment exchanges around the pinned origin.

    For each state and each occupied site x with p(z) > 0, the particle may
    move to y = wrap(x + z) when y is a vacant environment site (never the
    origin). Transitions landing on the same target accumulate.
    """
    return _assemble(space, kernel, env_only=True)


def full_generator(space, kernel):
    """Environment part plus tagged part, assembled as one operator from
    all channels, their nonzeros capped together; its ``source`` records
    (space, kernel)."""
    op = _assemble(space, kernel)
    op.source = (space, kernel)
    return op


class ReducedAssembly:
    """The moves out of each orbit representative of ``orbits`` (a
    ``StateSpace.orbits`` table of kernel symmetries), enumerated once and
    read as an operator under any character of the group.

    The moves r_O -> eta', eta' in orbit O', are held source by source,
    each source's in channel order: the moves out of the representative of
    orbit O are entries ``starts[O]`` to ``starts[O + 1]`` of three
    integer fields, the target orbit O' (int32), the group element that
    maps eta' to r_O' (int8) and the kernel entry of the move (int8), 6
    bytes per move. No float is stored per move: the weights L(r_O, eta')
    sqrt(|O| / |O'|) are formed by :meth:`operator` from the kernel's
    rates. The exit rate of each representative is summed over its moves
    in channel order. A move within its own orbit (O' = O) is an entry
    like any other, on the diagonal. The last operator built takes the
    target field as its columns (see :meth:`operator`).
    """

    def __init__(self, space, kernel, orbits):
        self.orbits = orbits
        self.symmetric = _symmetric_rates(space, kernel)
        self._rates = np.array([p for _, p in kernel.entries])
        self._width = (space.k + 1) * self._rates.size
        self._exit = np.zeros(orbits.reps.size)
        starts = np.zeros(orbits.reps.size + 1, dtype=np.int64)
        targets, movers, entries = [], [], []
        nnz = 0
        for lo, live, ranks in space.moves(kernel,
                                           space.bitmasks()[orbits.reps]):
            exits = self._exit[lo:lo + len(live)]
            # column by column, which adds the exit rates in channel order
            for c in range(live.shape[1]):
                np.add(exits, self._rates[c % self._rates.size], out=exits,
                       where=live[:, c])
            starts[lo + 1:lo + 1 + len(live)] = np.count_nonzero(live, axis=1)
            nnz += ranks.size
            _check_nnz(nnz)
            # each target as its orbit and the group element that maps it
            # to the orbit's representative; a kernel that fits a torus of
            # at most 64 sites has at most 62 entries
            targets.append(orbits.index.take(ranks))
            movers.append(orbits.mover.take(ranks))
            entries.append((np.flatnonzero(live) % self._rates.size)
                           .astype(np.int8))
        self._starts = np.cumsum(starts)
        # field by field, so that each field's blocks are freed once joined
        self._target = np.concatenate(targets)
        del targets
        self._mover = np.concatenate(movers)
        del movers
        self._entry = np.concatenate(entries)

    def operators(self, chis):
        """Yield the :meth:`operator` of each character of ``chis`` in
        turn, the last one built ``last``."""
        chis = list(chis)
        for i, chi in enumerate(chis):
            yield self.operator(chi, last=i == len(chis) - 1)

    def operator(self, chi, *, last=False):
        """The generator L restricted to the functions with u(g.eta) =
        chi(g) u(eta), chi given as +-1 per group element, as a
        :class:`SparseOperator` in their coordinates ``coords``.

        Its matrix is sqrt(|O|) A_{O,O'} / sqrt(|O'|), with A_{O,O'} the
        sum of L(r_O, eta') chi(g_eta') over eta' in O'; it is symmetric
        whenever L is. It is built as CSR straight from the moves: every
        move is a stored entry, in the order the assembly holds them, so
        each row lists its moves in channel order, and the moves within an
        orbit sit on the diagonal. The weights are formed at each build,
        ``GATHER_CHUNK`` moves at a time, as rate x sqrt(|O|) / sqrt(|O'|),
        negated where chi of the mover is -1; so no float array of the
        moves exists besides the operator's own. A move into an orbit that
        chi drops is a zero placeholder in column 0, and so is each move
        out of one: those close the row of the kept orbit before it, or row
        0. A zero changes no sum of the product, so no move is masked out
        or copied. The stored diagonal is minus the exit rate. The null
        direction is sqrt(|O|), normalized, when chi is trivial (the
        constants), and None otherwise: such functions sum to zero, and L
        is nonsingular on them. Euclidean norms in these coordinates equal
        those of the lifted functions, so a replayed residual here is the
        full-space one.

        A ``last`` build takes the assembly's int32 target orbits as its
        CSR column array, each chunk overwritten once read, so no second
        column array exists; the assembly then releases its moves, and a
        further build raises RuntimeError.
        """
        import scipy.sparse as sp

        if self._target is None:
            raise RuntimeError("this assembly handed its moves to the last "
                               "operator it built")
        coords = IsotypicCoordinates(self.orbits, chi)
        row, starts = coords.row, self._starts
        kept = row >= 0
        negated = coords.chi < 0
        n = coords.reps.size
        roots = np.sqrt(self.orbits.sizes)
        data = np.empty(starts[-1])
        cols = (self._target if last
                else np.empty(starts[-1], dtype=np.int32))
        step = max(1, GATHER_CHUNK // self._width)
        for lo in range(0, kept.size, step):
            hi = min(lo + step, kept.size)
            s = slice(starts[lo], starts[hi])
            counts = np.diff(starts[lo:hi + 1])
            target = self._target[s]
            d = data[s]
            np.multiply(self._rates.take(self._entry[s]),
                        np.repeat(roots[lo:hi], counts), out=d)
            d /= roots.take(target)
            np.negative(d, out=d, where=negated.take(self._mover[s]))
            col = row.take(target)
            live = np.repeat(kept[lo:hi], counts) & (col >= 0)
            d *= live
            # the chunk's targets are read: ``cols`` may be their array
            np.multiply(col, live, out=cols[s])
        # row r holds the moves from its orbit to the next kept one's
        indptr = np.append(starts[np.flatnonzero(kept)], starts[-1])
        indptr[0] = 0
        if last:
            self._starts = self._target = self._mover = self._entry = None
        off = sp.csr_matrix((data, cols, indptr), shape=(n, n))
        null = (None if np.any(negated)
                else coords.roots / np.sqrt(self.orbits.sizes.sum()))
        # signed entries, some on the diagonal: past __init__'s checks
        return SparseOperator.__new__(SparseOperator)._store(
            off, -self._exit[kept], null, self.symmetric, coords)


def symmetric_part(op):
    """(op + op*) / 2, op* the adjoint under the uniform measure (the
    transpose, since the measure is stationary); equals assembly from the
    symmetrized kernel. A symmetric ``op`` is returned itself, as
    0.5 (x + x) = x; any other result is flagged symmetric, since
    0.5 (A + A^T) is so exactly, and its rates are never compared."""
    if op.is_symmetric():
        return op
    return SparseOperator.__new__(SparseOperator)._take(
        0.5 * (op.offdiag + op.offdiag.T), symmetric=True)


def dirichlet_form(op, f):
    """Quadratic form <f, -op f> under the uniform measure."""
    f = np.asarray(f, dtype=float)
    return -inner(f, op.matvec(f))


def check_ergodicity(op):
    """Verify the transition graph is connected (weak connectivity).

    Its components are counted on the CSR structure of the off-diagonal
    part. Each state holds a label, a state of its own component. Every
    round, for each edge whose ends hold labels a and b, lowers the label
    of state a to at most b and that of state b to at most a, then
    replaces each label by its own label, until the ends of every edge
    hold the same label; the components are then the states that label
    themselves. The edges are read ``COMPONENT_ROWS`` rows at a time, so
    no scratch array is as long as the edge list.
    """
    off = op.offdiag
    label = np.arange(op.size)
    hooked = True
    while hooked:
        hooked = False
        for lo in range(0, op.size, COMPONENT_ROWS):
            hi = min(lo + COMPONENT_ROWS, op.size)
            a = np.repeat(label[lo:hi], np.diff(off.indptr[lo:hi + 1]))
            b = label[off.indices[off.indptr[lo]:off.indptr[hi]]]
            if (a != b).any():
                np.minimum.at(label, a, b)
                np.minimum.at(label, b, a)
                hooked = True
        if hooked:
            label = label[label]
    n = int(np.count_nonzero(label == np.arange(op.size)))
    if n != 1:
        raise NotConnectedError(
            f"transition graph splits into {n} components", n_components=n
        )
