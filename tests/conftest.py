import numpy as np
import pytest

from sepdiff import (
    build_kernel,
    full_generator,
    inner,
    local_drift_functions,
    solve_general,
)

import _oracle


@pytest.fixture
def nn1d():
    """Symmetric nearest-neighbour walk on Z."""
    return build_kernel(1, [((1,), 0.5), ((-1,), 0.5)])


@pytest.fixture
def meanzero1d():
    """Mean-zero but not symmetric: +2 w.p. 1/3, -1 w.p. 2/3."""
    return build_kernel(1, [((2,), "1/3"), ((-1,), "2/3")])


@pytest.fixture
def totally_asym1d():
    """All mass on +1."""
    return build_kernel(1, [((1,), 1.0)])


@pytest.fixture
def nn2d():
    """Symmetric nearest-neighbour walk on Z^2."""
    q = 0.25
    return build_kernel(
        2, [((1, 0), q), ((-1, 0), q), ((0, 1), q), ((0, -1), q)]
    )


def nn_kernel(d):
    """Symmetric nearest-neighbour walk on Z^d, weights 1/(2d) exactly."""
    return build_kernel(d, [(tuple(s * (i == j) for j in range(d)),
                             f"1/{2 * d}")
                            for i in range(d) for s in (1, -1)])


NN1D = [((1,), 0.5), ((-1,), 0.5)]
MZ1D = [((2,), 1.0 / 3.0), ((-1,), 2.0 / 3.0)]
ASYM1D = [((1,), 1.0)]
NN2D = [((1, 0), 0.25), ((-1, 0), 0.25), ((0, 1), 0.25), ((0, -1), 0.25)]


def dense_matrix(sp, kernel):
    """D from d independent dense solves, one per coordinate axis."""
    op = full_generator(sp, kernel)
    us, ws = [], []
    for e in np.eye(sp.geometry.dimension):
        v, w = local_drift_functions(sp, kernel, e)
        us.append(solve_general(op, v, tol=1e-12, method="dense").solution)
        ws.append(w)
    corr = np.array([[2.0 * inner(w, u) for u in us] for w in ws])
    free = (1.0 - sp.alpha) * sum(p * np.outer(z, z)
                                  for z, p in kernel.entries)
    return free + 0.5 * (corr + corr.T)


def check_symmetry_route(sp, kernel, rep, n_solves):
    """The directions of a tol = 1e-12 matrix report without a solve are
    mapped ones, with replayed residuals within 2 tol, and the matrix
    matches d dense solves and the oracle."""
    d, N = sp.geometry.dimension, sp.geometry.N
    mapped = [r for r in rep.directions if r.method == "symmetry"]
    assert n_solves + len(mapped) == (d if sp.size > 1 else 0)
    assert all(r.iterations == 0 and r.residual <= 2e-12 for r in mapped)
    if sp.size > 1:
        ref = dense_matrix(sp, kernel)
        assert np.max(np.abs(rep.matrix - ref)) <= 1e-10 * max(
            1.0, np.max(np.abs(ref)))
    for i, e in enumerate(np.eye(d)):
        want = _oracle.diffusion_value(N, d, sp.K, kernel.entries, e)
        assert rep.matrix[i, i] == pytest.approx(want, rel=1e-9, abs=1e-12)
