import numpy as np
import pytest
import scipy.sparse

import sepdiff.generator
import sepdiff.statespace
from sepdiff import (
    NotConnectedError,
    NotMeanZeroError,
    SizeCapError,
    SparseOperator,
    StateSpace,
    TorusGeometry,
    build_kernel,
    center,
    check_ergodicity,
    dirichlet_form,
    full_generator,
    inner,
    symmetric_part,
    symmetrize,
)
from sepdiff.generator import ReducedAssembly, assemble_environment

import _oracle
from conftest import ASYM1D, MZ1D, NN1D, NN2D


def space_1d(N, K):
    return StateSpace(TorusGeometry(1, N), K)


def column_sums(op):
    return op.to_dense().sum(axis=0)


# Hand enumeration for one environment particle on sites {-1, 1, 2}
# (side 4). States ordered s0 = {-1}, s1 = {1}, s2 = {2}.
#
# symmetric nn: env moves  s0->s2 (1/2), s1->s2 (1/2), s2->s0, s2->s1 (1/2
# each); tagged moves s0->s2 (jump +1, re-centered), s1->s2 (jump -1),
# s2->s1 (+1), s2->s0 (-1). Totals below.
HAND_L_NN = np.array([
    [-1.0, 0.0, 1.0],
    [0.0, -1.0, 1.0],
    [1.0, 1.0, -2.0],
])

# all mass on +1: env s1->s2, s2->s0 (rate 1); tagged s0->s2, s2->s1
# (rate 1). The full matrix coincides with the symmetric one.
HAND_L_ASYM = np.array([
    [-1.0, 0.0, 1.0],
    [0.0, -1.0, 1.0],
    [1.0, 1.0, -2.0],
])
HAND_L_ASYM_ENV = np.array([
    [0.0, 0.0, 0.0],
    [0.0, -1.0, 1.0],
    [1.0, 0.0, -1.0],
])


def test_hand_enumerated_three_state_generator(nn1d, totally_asym1d):
    sp = space_1d(2, 2)
    assert np.array_equal(full_generator(sp, nn1d).to_dense(), HAND_L_NN)
    assert np.array_equal(full_generator(sp, totally_asym1d).to_dense(),
                          HAND_L_ASYM)
    assert np.array_equal(assemble_environment(sp, totally_asym1d).to_dense(),
                          HAND_L_ASYM_ENV)


@pytest.mark.parametrize("entries", [NN1D, MZ1D, ASYM1D])
@pytest.mark.parametrize("N,K", [(2, 2), (3, 3), (3, 4)])
def test_full_generator_matches_reference_1d(entries, N, K):
    kernel = build_kernel(1, entries)
    if 2 * N <= 2 * kernel.range:
        pytest.skip("kernel does not fit this torus")
    sp = space_1d(N, K)
    _, Q = _oracle.dense_generator(N, 1, K, entries)
    got = full_generator(sp, kernel).to_dense()
    assert np.allclose(got, Q, atol=1e-14, rtol=0.0)
    _, Q_env = _oracle.dense_generator(N, 1, K, entries, tagged=False)
    assert np.allclose(assemble_environment(sp, kernel).to_dense(), Q_env,
                       atol=1e-14, rtol=0.0)


def test_full_generator_matches_reference_2d():
    kernel = build_kernel(2, NN2D)
    sp = StateSpace(TorusGeometry(2, 2), 3)
    _, Q = _oracle.dense_generator(2, 2, 3, NN2D)
    got = full_generator(sp, kernel)
    assert np.allclose(got.to_dense(), Q, atol=1e-14, rtol=0.0)
    _, Q_env = _oracle.dense_generator(2, 2, 3, NN2D, tagged=False)
    assert np.allclose(assemble_environment(sp, kernel).to_dense(), Q_env,
                       atol=1e-14, rtol=0.0)


@pytest.mark.parametrize("entries", [NN1D, MZ1D, ASYM1D])
def test_uniform_is_stationary_for_full_generator(entries):
    kernel = build_kernel(1, entries)
    sp = space_1d(3, 3)
    assert np.allclose(column_sums(full_generator(sp, kernel)), 0.0,
                       atol=1e-14)


def test_parts_alone_are_not_stationary_for_asymmetric(totally_asym1d):
    # jumps into the origin are forbidden, so the environment part alone
    # loses mass balance unless the kernel is symmetric; the full generator
    # keeps it, so the tagged part (full minus environment) loses the rest
    sp = space_1d(2, 2)
    env = column_sums(assemble_environment(sp, totally_asym1d))
    assert np.abs(env).max() > 0.5
    assert np.allclose(column_sums(full_generator(sp, totally_asym1d)), 0.0,
                       atol=1e-14)


def test_parts_are_stationary_for_symmetric(nn1d):
    sp = space_1d(3, 3)
    env = assemble_environment(sp, nn1d)
    assert np.allclose(column_sums(env), 0.0, atol=1e-14)
    tagged = full_generator(sp, nn1d).to_dense() - env.to_dense()
    assert np.allclose(tagged.sum(axis=0), 0.0, atol=1e-14)


@pytest.mark.parametrize("entries", [NN1D, MZ1D, ASYM1D])
def test_symmetric_part_equals_symmetrized_assembly(entries):
    kernel = build_kernel(1, entries)
    sp = space_1d(3, 3)
    sym_op = symmetric_part(full_generator(sp, kernel))
    dense = sym_op.to_dense()
    assert np.allclose(dense, dense.T, atol=0.0)
    ref = full_generator(sp, symmetrize(kernel)).to_dense()
    assert np.allclose(dense, ref, atol=1e-14, rtol=0.0)
    assert sym_op.is_symmetric()


def test_symmetric_part_keeps_a_symmetric_op_and_flags_the_rest(
        nn1d, meanzero1d, monkeypatch):
    op = full_generator(space_1d(3, 3), nn1d)
    assert symmetric_part(op) is op
    sym = symmetric_part(full_generator(space_1d(3, 3), meanzero1d))

    # 0.5 (A + A^T) is symmetric by construction: no transpose is compared
    def no_transpose(self):
        raise AssertionError("rates compared with their transpose")

    monkeypatch.setattr(type(sym.offdiag), "T", property(no_transpose))
    assert sym.is_symmetric()


@pytest.mark.parametrize("entries", [NN1D, MZ1D, ASYM1D])
def test_dirichlet_form_nonnegative_and_matches_reference(entries):
    kernel = build_kernel(1, entries)
    sp = space_1d(3, 3)
    op = full_generator(sp, kernel)
    _, Q = _oracle.dense_generator(3, 1, 3, entries)
    rng = np.random.default_rng(11)
    for _ in range(8):
        f = rng.standard_normal(op.size)
        val = dirichlet_form(op, f)
        assert val >= 0.0
        assert val == pytest.approx(_oracle.h1_value(Q, f) ** 2,
                                    rel=1e-10, abs=1e-12)


def test_ergodicity_check(nn1d):
    check_ergodicity(full_generator(space_1d(3, 3), nn1d))
    # hand-built two-component graph
    off = scipy.sparse.csr_matrix(
        np.array([[0.0, 1.0, 0.0, 0.0],
                  [1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 2.0],
                  [0.0, 0.0, 2.0, 0.0]])
    )
    broken = SparseOperator(4, off)
    with pytest.raises(NotConnectedError) as err:
        check_ergodicity(broken)
    assert err.value.n_components == 2


def _blocks(*blocks):
    """A SparseOperator of the given dense blocks, its states shuffled so
    that no component holds consecutive indices."""
    off = scipy.sparse.block_diag(blocks, format="csr")
    perm = np.random.default_rng(len(blocks)).permutation(off.shape[0])
    return SparseOperator(off.shape[0], off[perm][:, perm])


def _random_graph(n, edges, seed):
    rng = np.random.default_rng(seed)
    i, j = rng.integers(0, n, (2, edges))
    keep = i != j
    off = scipy.sparse.csr_matrix((np.ones(keep.sum()), (i[keep], j[keep])),
                                  shape=(n, n))
    return SparseOperator(n, off)


@pytest.mark.parametrize("make", [
    lambda: full_generator(space_1d(3, 3), build_kernel(1, NN1D)),
    lambda: full_generator(space_1d(4, 3), build_kernel(1, ASYM1D)),
    lambda: full_generator(StateSpace(TorusGeometry(2, 2), 3),
                           build_kernel(2, NN2D)),
    # two components, one of them reached one way only
    lambda: _blocks(np.array([[0.0, 1.0], [1.0, 0.0]]),
                    np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                              [0.0, 0.0, 0.0]])),
    # three components: a one-way cycle, a one-way path and a pair
    lambda: _blocks(np.roll(np.eye(5), 1, axis=1),
                    np.eye(4, k=1), np.array([[0.0, 2.0], [2.0, 0.0]])),
    lambda: _random_graph(300, 200, 0),
    lambda: _random_graph(300, 400, 1),
])
def test_component_count_matches_csgraph(make):
    from scipy.sparse.csgraph import connected_components

    op = make()
    want = connected_components(op.offdiag, directed=False)[0]
    if want == 1:
        check_ergodicity(op)
        return
    with pytest.raises(NotConnectedError) as err:
        check_ergodicity(op)
    assert err.value.n_components == want


def test_sparse_operator_invariants(nn1d):
    op = full_generator(space_1d(2, 2), nn1d)
    assert op.size == 3
    assert op.max_exit_rate() == pytest.approx(2.0)
    # diagonal equals minus the row sums, offdiag holds the rest
    dense = op.to_dense()
    assert np.allclose(dense.sum(axis=1), 0.0, atol=1e-15)
    assert np.array_equal(op.offdiag.toarray() + np.diag(op.diag), dense)
    with pytest.raises(ValueError):
        SparseOperator(2, scipy.sparse.csr_matrix(np.array([[0.0, -1.0],
                                                            [1.0, 0.0]])))
    with pytest.raises(ValueError):
        SparseOperator(2, scipy.sparse.csr_matrix(np.array([[1.0, 1.0],
                                                            [1.0, 0.0]])))


def test_matvec_matches_dense(meanzero1d):
    op = full_generator(space_1d(3, 3), meanzero1d)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(op.size)
    assert np.allclose(op.matvec(f), op.to_dense() @ f, atol=1e-13)


def test_observable_vector_mean_zero_guard(nn1d):
    # a generator's range is the mean-zero functions
    op = SparseOperator(2, scipy.sparse.csr_matrix(np.array([[0.0, 1.0],
                                                            [1.0, 0.0]])))
    op.require_range(np.array([1.0, -1.0]), "b")
    with pytest.raises(NotMeanZeroError):
        op.require_range(np.array([1.0, 0.5]), "b")
    # odd under the point reflection, the reduced generator is
    # nonsingular: nothing to project off, and every b is in its range
    sp = space_1d(3, 3)
    eye = np.eye(1, dtype=np.int64)
    odd = ReducedAssembly(sp, nn1d, sp.orbits([eye, -eye])).operator([1, -1])
    assert odd.null is None and odd.size > 1
    b = np.ones(odd.size)
    assert np.array_equal(odd.project(b), b)
    odd.require_range(b, "b")
    v = np.array([3.0, 1.0, 2.0])
    c = center(v)
    assert abs(c.mean()) <= 1e-15
    assert inner(v, np.ones(3)) == pytest.approx(2.0)


def test_assembly_size_cap(nn1d, monkeypatch):
    sp = StateSpace(TorusGeometry(1, 40), 40)
    with pytest.raises(SizeCapError):
        full_generator(sp, nn1d)
    # the caps are read when called
    with monkeypatch.context() as m:
        m.setattr(sepdiff.statespace, "DEFAULT_MAX_STATES", 5)
        with pytest.raises(SizeCapError, match="states"):
            full_generator(space_1d(3, 3), nn1d)
    # 10 states with 24 environment moves: the nonzero cap trips mid-assembly
    monkeypatch.setattr(sepdiff.generator, "DEFAULT_MAX_NNZ", 5)
    with pytest.raises(SizeCapError, match="nonzeros"):
        full_generator(space_1d(3, 3), nn1d)
    # 24 environment plus 12 tagged nonzeros: the environment part fits a
    # cap of 30, the generator does not
    monkeypatch.setattr(sepdiff.generator, "DEFAULT_MAX_NNZ", 30)
    assert assemble_environment(space_1d(3, 3), nn1d).offdiag.nnz == 24
    with pytest.raises(SizeCapError, match="36 nonzeros"):
        full_generator(space_1d(3, 3), nn1d)
