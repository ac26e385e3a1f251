"""Jump kernels on the integer lattice and the punctured discrete torus.

A jump kernel is a finitely supported probability vector p on Z^d \\ {0}.
The torus geometry pairs such a kernel with the d-dimensional discrete torus
of side 2N whose canonical site representatives are {-N+1, ..., N}^d, with the
origin removed (the tagged particle's seat).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import (
    NotAProbabilityError,
    OriginMassError,
    OutOfRangeError,
    ReducibleError,
    TorusSizeError,
)

#: absolute tolerance for probability-sum and mean-zero tests
PROB_TOL = 1e-12


class KernelClass(Enum):
    SYMMETRIC = "symmetric"
    MEAN_ZERO = "mean-zero"
    ASYMMETRIC = "asymmetric"


def _as_site(z, dimension):
    """The displacement z as a tuple of `dimension` whole-number ints."""
    z = tuple(z) if np.iterable(z) else (z,)
    if not all(float(c).is_integer() for c in z):
        raise OutOfRangeError(f"displacement {z} is not a whole-number vector")
    z = tuple(int(c) for c in z)
    if len(z) != dimension:
        raise OutOfRangeError(f"displacement {z} has length {len(z)}, "
                              f"expected {dimension}")
    return z


def _as_probability(p):
    """Accept a float, int, Fraction, or rational string like '1/3'."""
    return float(Fraction(p)) if isinstance(p, str) else float(p)


@dataclass(frozen=True)
class JumpKernel:
    """Finitely supported jump distribution on Z^d.

    Parameters
    ----------
    dimension : int
        Lattice dimension d >= 1.
    entries : tuple of (tuple, float)
        Pairs (z, p(z)) with integer displacement vectors z. Entries are
        stored sorted by displacement so equal kernels compare equal.
    """

    dimension: int
    entries: tuple = field(default=())

    def __post_init__(self):
        norm = tuple(
            sorted((_as_site(z, self.dimension), _as_probability(p))
                   for z, p in self.entries)
        )
        object.__setattr__(self, "entries", norm)

    @property
    def support(self):
        return tuple(z for z, _ in self.entries)

    @property
    def range(self):
        """Sup-norm radius R of the support."""
        return max((max(abs(c) for c in z) for z, _ in self.entries), default=0)

    def probability(self, z):
        z = _as_site(z, self.dimension)
        for zz, p in self.entries:
            if zz == z:
                return p
        return 0.0


def build_kernel(dimension, entries):
    """Construct and validate a kernel in one step (the usual entry point)."""
    k = JumpKernel(dimension, tuple(entries))
    validate(k)
    return k


def validate(kernel):
    """Check that the kernel is a genuine irreducible jump distribution.

    Raises
    ------
    OriginMassError
        if any mass sits on z = 0.
    NotAProbabilityError
        if weights are not strictly positive, are duplicated, or do not
        sum to 1 within ``PROB_TOL``.
    ReducibleError
        if the support does not generate Z^d as a group.
    """
    if not kernel.entries:
        raise NotAProbabilityError("kernel has empty support")
    zero = (0,) * kernel.dimension
    seen = set()
    for z, p in kernel.entries:
        if z == zero:
            raise OriginMassError("kernel places mass %g on the origin" % p)
        if z in seen:
            raise NotAProbabilityError(f"duplicate displacement {z}")
        seen.add(z)
        if not p > 0.0:
            raise NotAProbabilityError(f"weight p({z}) = {p} is not > 0")
    total = math.fsum(p for _, p in kernel.entries)
    if abs(total - 1.0) > PROB_TOL:
        raise NotAProbabilityError(
            f"weights sum to {total!r}, off by {abs(total - 1.0):.3e}"
        )
    if not _generates_lattice(kernel.support, kernel.dimension):
        raise ReducibleError(
            f"support {list(kernel.support)} does not generate Z^{kernel.dimension}"
        )


def _int_det(rows):
    """Exact determinant of a small square integer matrix (Bareiss)."""
    a = [list(r) for r in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _generates_lattice(support, d):
    """True iff the integer span of ``support`` is all of Z^d.

    Uses the determinantal-divisor criterion: the lattice generated by the
    rows of an integer matrix is Z^d exactly when the gcd of all d x d
    minors equals 1.
    """
    vecs = [tuple(z) for z in support]
    if len(vecs) < d:
        return False
    g = 0
    for rows in itertools.combinations(vecs, d):
        g = math.gcd(g, abs(_int_det(rows)))
        if g == 1:
            return True
    return False


def classify(kernel):
    """Classify the kernel and return its mean displacement.

    Returns
    -------
    (KernelClass, numpy.ndarray)
        Symmetric takes precedence over mean-zero; a nonzero mean gives
        the asymmetric class. Tolerance ``PROB_TOL`` per component.
    """
    symmetric = all(
        abs(p - kernel.probability(tuple(-c for c in z))) <= PROB_TOL
        for z, p in kernel.entries
    )
    mean = np.zeros(kernel.dimension)
    for z, p in kernel.entries:
        mean += p * np.asarray(z, dtype=float)
    if symmetric:
        return KernelClass.SYMMETRIC, mean
    if np.all(np.abs(mean) <= PROB_TOL):
        return KernelClass.MEAN_ZERO, mean
    return KernelClass.ASYMMETRIC, mean


def symmetrize(kernel):
    """Return the symmetrized kernel s(z) = (p(z) + p(-z)) / 2."""
    sup = set(kernel.support)
    sup |= {tuple(-c for c in z) for z in sup}
    entries = []
    for z in sorted(sup):
        s = 0.5 * (kernel.probability(z)
                   + kernel.probability(tuple(-c for c in z)))
        if s > 0.0:
            entries.append((z, s))
    return JumpKernel(kernel.dimension, tuple(entries))


class TorusGeometry:
    """Discrete torus of side 2N in dimension d, origin removed.

    Canonical site representatives are {-N+1, ..., N}^d enumerated in
    row-major order (first coordinate slowest). The environment sites are
    the same list with the origin deleted; their position in that list is
    the site index used everywhere downstream.
    """

    def __init__(self, dimension, N):
        if dimension < 1:
            raise OutOfRangeError(f"dimension must be >= 1, got {dimension}")
        if N < 1:
            raise OutOfRangeError(f"N must be >= 1, got {N}")
        self.dimension = int(dimension)
        self.N = int(N)
        self.side = 2 * self.N
        self.n_sites = self.side ** self.dimension
        rng = range(-self.N + 1, self.N + 1)
        origin = (0,) * self.dimension
        self.sites = list(itertools.product(rng, repeat=self.dimension))
        self.env_sites = [s for s in self.sites if s != origin]
        self.n_env_sites = len(self.env_sites)
        self._env_index = {s: i for i, s in enumerate(self.env_sites)}
        self.origin = origin

    def __repr__(self):
        return f"TorusGeometry(dimension={self.dimension}, N={self.N})"

    def wrap(self, site):
        """Map an arbitrary integer vector to its canonical representative."""
        site = _as_site(site, self.dimension)
        return tuple(((c + self.N - 1) % self.side) - self.N + 1 for c in site)

    def env_index(self, site):
        """Index of a canonical environment site; the origin is rejected."""
        site = self.wrap(site)
        if site == self.origin:
            raise OutOfRangeError("the origin is not an environment site")
        return self._env_index[site]

    def require_kernel_fits(self, kernel):
        """Enforce 2N > 2R so displacements embed injectively in the torus."""
        if kernel.dimension != self.dimension:
            raise TorusSizeError(
                f"kernel dimension {kernel.dimension} != torus dimension "
                f"{self.dimension}"
            )
        if self.side <= 2 * kernel.range:
            raise TorusSizeError(
                f"torus side {self.side} too small for kernel range "
                f"{kernel.range} (needs 2N > 2R)"
            )
