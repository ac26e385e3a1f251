"""Property tests of the move enumeration and the exact route over random
kernels and tori, against the brute-force references of ``_oracle``."""

import itertools
import math
from collections import defaultdict
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from sepdiff import (  # noqa: E402
    ReducibleError,
    SparseOperator,
    StateSpace,
    TorusGeometry,
    TransitionTable,
    assemble_environment,
    assemble_tagged,
    build_kernel,
    compute_D_matrix,
    full_generator,
    solve_general,
)

import _oracle  # noqa: E402
from conftest import check_symmetry_route  # noqa: E402

#: the dense oracle stays cheap below this many states
MAX_STATES = 400


@st.composite
def systems(draw):
    """(StateSpace, kernel): d in {1, 2}, range <= 2, rational weights."""
    d = draw(st.sampled_from([1, 2]))
    R = draw(st.integers(1, 2))
    moves = [z for z in itertools.product(range(-R, R + 1), repeat=d)
             if any(z)]
    support = draw(st.lists(st.sampled_from(moves), min_size=d, max_size=5,
                            unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(support),
                            max_size=len(support)))
    entries = [(z, Fraction(w, sum(weights)))
               for z, w in zip(support, weights)]
    try:
        kernel = build_kernel(d, entries)
    except ReducibleError:
        assume(False)
    # 2N > 2R, and small enough for the dense oracle
    N = draw(st.integers(kernel.range + 1, kernel.range + (3 if d == 1 else 1)))
    M = (2 * N) ** d - 1
    Ks = [K for K in range(1, M + 2) if math.comb(M, K - 1) <= MAX_STATES]
    K = draw(st.sampled_from(Ks))
    return StateSpace(TorusGeometry(d, N), K), kernel


@settings(max_examples=40, deadline=None)
@given(systems())
def test_generator_and_table_match_oracle(system):
    sp, kernel = system
    g = sp.geometry
    _, Q = _oracle.dense_generator(g.N, g.dimension, sp.K, kernel.entries)
    op = full_generator(sp, kernel)
    L = op.to_dense()
    assert np.max(np.abs(L - Q)) <= 1e-14
    # rows sum to zero, and the uniform measure is stationary
    assert np.max(np.abs(L.sum(axis=1))) <= 1e-14
    assert np.max(np.abs(L.sum(axis=0))) <= 1e-14
    # the MC table, summed per target without self-loops, is the generator
    table = TransitionTable(sp, kernel)
    rates = np.zeros_like(L)
    for r in range(sp.size):
        n = table.fill[r]
        steps = np.diff([0.0] + table.cum[r, :n].tolist())
        for t, p in zip(table.target[r, :n], steps):
            if t != r:
                rates[r, t] += p
    off = op.offdiag.toarray()
    assert np.max(np.abs(rates - off)) <= 1e-14


def _lex_rank(sites, M):
    """Rank of a sorted k-subset of range(M) among all k-subsets in
    lexicographic order: the subsets that agree on the first i-1 sites and
    put a smaller one in place i, counted with ``math.comb``."""
    k, r, prev = len(sites), 0, -1
    for i, s in enumerate(sites):
        r += sum(math.comb(M - 1 - t, k - 1 - i) for t in range(prev + 1, s))
        prev = s
    return r


@st.composite
def subsets(draw):
    """(StateSpace, k-subsets of its sites): 1d tori of up to 64 sites,
    including spaces far beyond the enumeration cap."""
    N = draw(st.integers(1, 32))
    M = 2 * N - 1
    K = draw(st.integers(1, M + 1))
    sets = draw(st.lists(
        st.sets(st.integers(0, M - 1), min_size=K - 1, max_size=K - 1),
        min_size=1, max_size=20))
    return StateSpace(TorusGeometry(1, N), K), [sorted(x) for x in sets]


@settings(max_examples=200, deadline=None)
@given(subsets())
def test_rank_matches_combinatorial_reference(case):
    sp, sets = case
    masks = [sum(1 << s for s in sites) for sites in sets]
    want = [_lex_rank(sites, sp.M) for sites in sets]
    assert sp.rank_masks(np.array(masks, dtype=np.uint64)).tolist() == want
    for bits, r in zip(masks, want):
        assert sp.unrank(r).bits == bits


#: the signed permutations of Z^2
SIGNED_PERMUTATIONS_2D = [np.array(g) for g in (
    [[1, 0], [0, 1]], [[1, 0], [0, -1]], [[-1, 0], [0, 1]], [[-1, 0], [0, -1]],
    [[0, 1], [1, 0]], [[0, 1], [-1, 0]], [[0, -1], [1, 0]], [[0, -1], [-1, 0]])]


@st.composite
def invariant_systems(draw):
    """(StateSpace, kernel, h): 2d kernels of range <= 2 whose rational
    weights are averaged over the cyclic group of a signed permutation h,
    so p(h z) == p(z) holds exactly in floating point."""
    R = draw(st.integers(1, 2))
    moves = [z for z in itertools.product(range(-R, R + 1), repeat=2)
             if any(z)]
    support = draw(st.lists(st.sampled_from(moves), min_size=1, max_size=4,
                            unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(support),
                            max_size=len(support)))
    h = draw(st.sampled_from(SIGNED_PERMUTATIONS_2D))
    group = [np.eye(2, dtype=int)]
    while not np.array_equal(group[-1] @ h, group[0]):
        group.append(group[-1] @ h)
    p = defaultdict(Fraction)
    for z, w in zip(support, weights):
        for g in group:
            p[tuple(int(c) for c in g @ z)] += Fraction(
                w, sum(weights) * len(group))
    try:
        kernel = build_kernel(2, list(p.items()))
    except ReducibleError:
        assume(False)
    N = kernel.range + 1
    M = (2 * N) ** 2 - 1
    Ks = [K for K in range(1, M + 2) if math.comb(M, K - 1) <= MAX_STATES]
    K = draw(st.sampled_from(Ks))
    return StateSpace(TorusGeometry(2, N), K), kernel, h


@settings(max_examples=25, deadline=None)
@given(invariant_systems())
def test_symmetry_route_matches_dense_and_oracle(system):
    sp, kernel, h = system
    with mock.patch("sepdiff.diffusion.solve_general",
                    wraps=solve_general) as solve:
        rep = compute_D_matrix(sp, kernel, tol=1e-12)
    check_symmetry_route(sp, kernel, rep, solve.call_count)
    if sp.size > 1 and h[0, 0] == 0:
        # h maps e1 to +-e2, so the second axis is mapped
        assert solve.call_count == 1


@st.composite
def paired_systems(draw, mirrored=None):
    """(StateSpace, kernel) as in ``systems``, but every displacement z
    drawn comes with -z, at the same integer weight (exactly mirrored
    probabilities) or at another one (probabilities at least 1/90 apart).
    ``mirrored=True`` mirrors every pair."""
    d = draw(st.sampled_from([1, 2]))
    R = draw(st.integers(1, 2))
    moves = [z for z in itertools.product(range(-R, R + 1), repeat=d)
             if z > tuple(-c for c in z)]
    half = draw(st.lists(st.sampled_from(moves), min_size=1, max_size=4,
                         unique=True))
    weights = {}
    for z in half:
        w = draw(st.integers(1, 9))
        same = mirrored or draw(st.booleans())
        other = w if same else draw(st.integers(1, 9).filter(lambda x: x != w))
        weights[z], weights[tuple(-c for c in z)] = w, other
    total = sum(weights.values())
    try:
        kernel = build_kernel(d, [(z, Fraction(w, total))
                                  for z, w in weights.items()])
    except ReducibleError:
        assume(False)
    R = kernel.range
    N = draw(st.integers(R + 1, R + (3 if d == 1 else 1)))
    M = (2 * N) ** d - 1
    Ks = [K for K in range(1, M + 2) if math.comb(M, K - 1) <= MAX_STATES]
    return StateSpace(TorusGeometry(d, N), draw(st.sampled_from(Ks))), kernel


@settings(max_examples=60, deadline=None)
@given(paired_systems())
def test_kernel_decides_symmetry_as_the_rates_do(system):
    # operators assembled from a kernel take the CG/GMRES choice from it;
    # the same rates rebuilt by hand are compared with their transpose
    sp, kernel = system
    for op in (full_generator(sp, kernel), assemble_environment(sp, kernel),
               assemble_tagged(sp, kernel)):
        numeric = SparseOperator(op.size, op.offdiag)
        assert op.is_symmetric() == numeric.is_symmetric()


@settings(max_examples=30, deadline=None)
@given(paired_systems(mirrored=True))
def test_reduced_D_equals_unreduced_on_symmetric_kernels(system):
    sp, kernel = system
    rep = compute_D_matrix(sp, kernel, tol=1e-12)
    op = full_generator(sp, kernel)
    want = compute_D_matrix(sp, kernel, tol=1e-12, operator=op).matrix
    assert np.max(np.abs(rep.matrix - want)) <= 1e-10
    if sp.size > 1:
        # x -> -x maps every axis to minus itself
        assert all(r.group_order >= 2 for r in rep.directions)
