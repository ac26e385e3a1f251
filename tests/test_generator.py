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
from sepdiff.diffusion import _stabilizer, _symmetries, torus_space
from sepdiff.generator import ReducedAssembly, assemble_environment

import _oracle
from conftest import ASYM1D, MZ1D, NN1D, NN2D, RECT2D, assert_same_operator


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


GRAPHS = [
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
]


def _check_component_count(op):
    from scipy.sparse.csgraph import connected_components

    want = connected_components(op.offdiag, directed=False)[0]
    if want == 1:
        check_ergodicity(op)
        return
    with pytest.raises(NotConnectedError) as err:
        check_ergodicity(op)
    assert err.value.n_components == want


@pytest.mark.parametrize("make", GRAPHS)
def test_component_count_matches_csgraph(make):
    _check_component_count(make())


@pytest.mark.parametrize("rows", [1, 2, 7])
@pytest.mark.parametrize("make", GRAPHS)
def test_component_count_in_row_chunks(make, rows, monkeypatch):
    # the edges read a few rows at a time, so hooks of one chunk are seen
    # by the next within a round: the count is csgraph's all the same
    monkeypatch.setattr(sepdiff.generator, "COMPONENT_ROWS", rows)
    _check_component_count(make())


def test_component_count_traces_no_edge_array():
    # diag-1d's N=9 rung: the symmetrized environment generator
    import tracemalloc

    kernel = build_kernel(1, MZ1D)
    op = assemble_environment(torus_space(kernel, 9, alpha=0.4),
                              symmetrize(kernel))
    assert (op.size, op.offdiag.nnz) == (12_376, 192_192)
    tracemalloc.start()
    try:
        check_ergodicity(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * op.offdiag.nnz


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


def test_sparse_operator_leaves_the_callers_matrix():
    # rows with unsorted columns and a duplicate: the operator sums and
    # sorts its own copy
    data, indices, indptr = (np.array([1.0, 2.0, 0.5, 3.0]),
                             np.array([2, 1, 2, 0], dtype=np.int32),
                             np.array([0, 3, 4, 4], dtype=np.int32))
    m = scipy.sparse.csr_matrix((data, indices, indptr), shape=(3, 3))
    kept = [a.copy() for a in (m.data, m.indices, m.indptr)]
    op = SparseOperator(3, m)
    assert np.array_equal(op.offdiag.toarray(),
                          [[0.0, 2.0, 1.5], [3.0, 0.0, 0.0], [0.0] * 3])
    for a, b in zip((m.data, m.indices, m.indptr), kept):
        assert np.array_equal(a, b)
    assert not np.shares_memory(op.offdiag.data, m.data)
    assert not m.has_sorted_indices


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


def _two_characters(d):
    """(space, kernel, group elements, characters) of a stabilizer with
    two characters: the point reflection's even and odd on a symmetrized
    1d mean-zero kernel (126 states), and e1's and e2's on RECT2D (455)."""
    if d == 1:
        sp, kernel = space_1d(5, 5), symmetrize(build_kernel(1, MZ1D))
        eye = np.eye(1, dtype=np.int64)
        return sp, kernel, [eye, -eye], [[1, 1], [1, -1]]
    sp, kernel = StateSpace(TorusGeometry(2, 2), 4), build_kernel(2, RECT2D)
    group = _symmetries(kernel)
    (keep, chi1), (keep2, chi2) = (_stabilizer(group, e) for e in np.eye(2))
    assert keep == keep2 and len(keep) == 4
    assert chi1.tolist() == [1, 1, -1, -1] and chi2.tolist() == [1, -1, 1, -1]
    return sp, kernel, [group[h] for h in keep], [chi1, chi2]


@pytest.mark.parametrize("d", [1, 2])
def test_one_assembly_builds_its_characters_in_turn(d):
    # the last build takes the assembly's target orbits as its columns,
    # after the first has read them: both equal single builds bit for bit
    sp, kernel, elements, chis = _two_characters(d)
    orbits = sp.orbits(elements)
    fresh = [ReducedAssembly(sp, kernel, orbits).operator(chi)
             for chi in chis]
    asm = ReducedAssembly(sp, kernel, orbits)
    target = asm._target
    built = list(asm.operators(chis))
    for a, b in zip(built, fresh):
        assert_same_operator(a, b)
    assert np.shares_memory(built[-1].offdiag.indices, target)
    assert not np.shares_memory(built[0].offdiag.indices, target)
    with pytest.raises(RuntimeError, match="handed its moves"):
        asm.operator(chis[0])
    with pytest.raises(RuntimeError, match="handed its moves"):
        next(asm.operators(chis))


def test_last_build_traces_no_second_column_array(monkeypatch):
    # 2d NN N=3 K=5, e1's stabilizer: the builds trace the same but for
    # the column array, which the last one does not allocate; small
    # gather chunks keep the per-chunk scratch out of the peak
    import tracemalloc

    monkeypatch.setattr(sepdiff.generator, "GATHER_CHUNK", 1 << 10)
    sp, kernel = StateSpace(TorusGeometry(2, 3), 5), build_kernel(2, NN2D)
    group = _symmetries(kernel)
    keep, chi = _stabilizer(group, np.eye(2)[0])
    asm = ReducedAssembly(sp, kernel, sp.orbits([group[h] for h in keep]))
    peaks = []
    for last in (False, True):
        tracemalloc.start()
        try:
            op = asm.operator(chi, last=last)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    columns = op.offdiag.indices.nbytes
    assert columns > 900_000
    assert peaks[0] - peaks[1] >= columns - 50_000
