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
    build_kernel,
    compute_D_matrix,
    full_generator,
    sector_constant,
    solve_general,
    spectral_gap,
    symmetric_part,
)
from sepdiff.diffusion import _stabilizer, _symmetries  # noqa: E402
from sepdiff.generator import (  # noqa: E402
    ReducedAssembly,
    assemble_environment,
)
from sepdiff.montecarlo import relaxation_gap  # noqa: E402
from sepdiff.statespace import _grid, _move_table, _moved  # noqa: E402

import _oracle  # noqa: E402
from conftest import check_symmetry_route, nn_kernel  # noqa: E402

#: the dense oracle stays cheap below this many states
MAX_STATES = 400


@st.composite
def systems(draw, min_states=1):
    """(StateSpace, kernel): d in {1, 2}, range <= 2, rational weights, at
    least ``min_states`` states."""
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
    Ks = [K for K in range(1, M + 2)
          if min_states <= math.comb(M, K - 1) <= MAX_STATES]
    assume(Ks)
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


@settings(max_examples=40, deadline=None)
@given(systems())
def test_relaxation_gap_is_the_sparse_route_bit_for_bit(system):
    sp, kernel = system
    got = relaxation_gap(sp, kernel)
    if sp.size == 1:
        assert got is None
    else:
        assert got == spectral_gap(symmetric_part(full_generator(sp, kernel)),
                                   method="dense")


@settings(max_examples=40, deadline=None)
@given(systems())
def test_sector_constant_odd_half_matches_dense(system):
    sp, kernel = system
    op = full_generator(sp, kernel)
    assert sector_constant(op, method="iterative") == pytest.approx(
        sector_constant(op, method="dense"), rel=1e-8)


@settings(max_examples=40, deadline=None)
@given(systems(min_states=3))
def test_spectral_gap_lanczos_matches_dense(system):
    sp, kernel = system
    sym = symmetric_part(full_generator(sp, kernel))
    assert spectral_gap(sym, method="iterative") == pytest.approx(
        spectral_gap(sym, method="dense"), rel=1e-10)


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


def per_site_image(words, images):
    """Each word with its set bit i moved to bit ``images[i]``, one site at
    a time; a bit whose image is None is dropped."""
    return [sum(1 << t for i, t in enumerate(images)
                if t is not None and w >> i & 1) for w in words]


@st.composite
def site_maps(draw):
    """(images, words): an injective map of M <= 64 sites, a few of them
    mapped to None, and words over those M bits."""
    M = draw(st.sampled_from([1, 3, 7, 8, 9, 16, 17, 35, 63, 64]))
    perm = draw(st.permutations(range(M)))
    gone = draw(st.sets(st.integers(0, M - 1), max_size=3))
    images = [None if i in gone else t for i, t in enumerate(perm)]
    words = draw(st.lists(st.integers(0, 2**M - 1), min_size=1, max_size=30))
    return images, words


@settings(max_examples=200, deadline=None)
@given(site_maps())
def test_byte_table_moves_are_the_per_site_images(case):
    images, words = case
    got = _moved(np.array(words, dtype=np.uint64), _move_table(images))
    assert got.tolist() == per_site_image(words, images)


@pytest.mark.parametrize("d,N", [(1, 32), (2, 4), (3, 2), (1, 5), (2, 2)])
def test_tagged_jump_tables_on_tori(d, N):
    # the 64-site tori fill all but one bit of the word; every occupied y
    # moves to wrap(y - z), and the seat z, vacant when the jump is
    # enabled, moves nowhere
    geo = TorusGeometry(d, N)
    sp = StateSpace(geo, 2)
    kernel = nn_kernel(d)
    words = np.random.default_rng(sp.M).integers(
        0, 2**sp.M, size=300, dtype=np.uint64)
    sites = _oracle.env_sites(N, d)
    index = {y: i for i, y in enumerate(sites)}
    for (z, _), (seat, table) in zip(kernel.entries,
                                     _grid(geo, kernel)[2]):
        assert int(seat) == 1 << index[_oracle.wrap(z, N)]
        images = [None if y == _oracle.wrap(z, N) else
                  index[_oracle.wrap(_oracle.sub(y, z), N)] for y in sites]
        assert _moved(words, table).tolist() == \
            per_site_image(words.tolist(), images)


def characters(group):
    """Every character of ``group`` (integer matrices, identity first) as
    +-1 per element: each sign assignment with chi(identity) = 1 kept when
    chi(g_a g_b) = chi(g_a) chi(g_b) for every pair."""
    at = {g.tobytes(): h for h, g in enumerate(group)}
    table = np.array([[at[(a @ b).tobytes()] for b in group] for a in group])
    n = len(group)
    bits = (np.arange(2 ** (n - 1))[:, None] >> np.arange(n - 1)) & 1
    chis = np.hstack([np.ones((bits.shape[0], 1)), 1 - 2 * bits]) \
        .astype(np.int8)
    ok = (chis[:, table] == chis[:, :, None] * chis[:, None, :]).all(
        axis=(1, 2))
    return chis[ok].astype(float)


#: moves that stay within their orbit, diagonal entries of the reduced
#: operator, under the stabilizer of e1 of the nearest-neighbour kernel
WITHIN_ORBIT_MOVES = {(3, 2, 3): 56, (2, 2, 3): 14, (2, 2, 5): 40,
                      (1, 3, 3): 2}

#: zero placeholders of the reduced operator under each character of that
#: stabilizer, in the order of ``characters``: the moves out of or into an
#: orbit that the character drops; the trivial character drops none
PLACEHOLDERS = {(2, 2, 6): (0, 4488, 2860, 2860),
                (2, 3, 4): (0, 5568, 3322, 3322),
                (3, 2, 3): (0, 2819, 3199, 4162, 3922, 3824, 2312, 1244),
                (2, 2, 3): (0, 320, 229, 229),
                (2, 2, 5): (0, 2466, 1597, 1597),
                (1, 3, 3): (0, 12)}


def move_sources(asm):
    """The source orbit of each move the assembly holds: orbit O's moves
    are entries starts[O] to starts[O + 1]."""
    return np.repeat(np.arange(asm.orbits.reps.size), np.diff(asm._starts))


def live_moves_product(asm, op, x):
    """The product of ``asm.operator(chi)`` built from the moves between
    kept orbits alone, masked copies and all, with the stored diagonal;
    each move's weight is the rate of its kernel entry times sqrt(|O|) /
    sqrt(|O'|)."""
    import scipy.sparse as sparse

    coords = op.coords
    src, cols, movers = move_sources(asm), asm._target, asm._mover
    roots = np.sqrt(asm.orbits.sizes)
    weights = asm._rates[asm._entry] * roots[src] / roots[cols]
    live = (coords.row[src] >= 0) & (coords.row[cols] >= 0)
    data = weights[live]
    np.negative(data, out=data, where=(coords.chi < 0)[movers[live]])
    off = sparse.coo_matrix(
        (data, (coords.row[src[live]], coords.row[cols[live]])),
        shape=(op.size, op.size))
    return off @ x + op.diag * x


@pytest.mark.parametrize("d,N,K,n_chars", [(2, 2, 6, 4), (2, 3, 4, 4),
                                           (3, 2, 3, 8), (2, 2, 3, 4),
                                           (2, 2, 5, 4), (1, 3, 3, 2)])
def test_reduced_operator_is_the_live_moves_product(d, N, K, n_chars):
    # every character of the stabilizer of e1 under the nearest-neighbour
    # kernel's symmetries: Z2 x Z2 in 2d, Z2 x D4 (order 16) in 3d, {I, -I}
    # in 1d. The operator stores every move; its zero placeholders change
    # no sum, so its product is the live moves' bit for bit, and a leaked
    # placeholder would show in the product of the lifted function
    sp = StateSpace(TorusGeometry(d, N), K)
    kernel = nn_kernel(d)
    group = _symmetries(kernel)
    keep, _ = _stabilizer(group, np.eye(d)[0])
    stab = [group[h] for h in keep]
    chis = characters(stab)
    assert len(chis) == n_chars
    asm = ReducedAssembly(sp, kernel, sp.orbits(stab))
    src, cols = move_sources(asm), asm._target
    within = WITHIN_ORBIT_MOVES.get((d, N, K), 0)
    assert np.count_nonzero(src == cols) == within
    full = full_generator(sp, kernel)
    rng = np.random.default_rng(sp.size)
    placeholders = []
    for chi in chis:
        op = asm.operator(chi)
        coords = op.coords
        assert op.offdiag.nnz == src.size
        placeholders.append(int(np.count_nonzero(
            (coords.row[src] < 0) | (coords.row[cols] < 0))))
        for x in (rng.standard_normal(op.size), np.ones(op.size)):
            got = op.matvec(x)
            assert np.array_equal(got, live_moves_product(asm, op, x))
            want = coords.restrict(full.matvec(coords.lift(x)))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert tuple(placeholders) == PLACEHOLDERS[(d, N, K)]


def oracle_moves(sp, kernel, masks):
    """(source, rate, target bitmask) of every move out of the states with
    bitmasks ``masks`` that changes the state, from the oracle's per-state
    move list."""
    N, d = sp.geometry.N, sp.geometry.dimension
    return [(s, kernel.entries[zi][1], t)
            for s, b in enumerate(masks.tolist())
            for zi, _, t in _oracle.state_moves(N, d, b, kernel.entries)]


@pytest.mark.parametrize("d,N,K", [(2, 2, 5), (3, 2, 3)])
def test_reduced_operator_weights_are_formed_from_the_channels(d, N, K):
    # the assembly stores integers per move; each entry of the operator is
    # rate x sqrt(|O|) / sqrt(|O'|) of its move, signed by chi of its
    # mover and 0 at a placeholder, bit for bit, in the order of the
    # oracle's per-state move list; a placeholder sits in column 0
    sp = StateSpace(TorusGeometry(d, N), K)
    kernel = nn_kernel(d)
    group = _symmetries(kernel)
    keep, _ = _stabilizer(group, np.eye(d)[0])
    stab = [group[h] for h in keep]
    orbits = sp.orbits(stab)
    asm = ReducedAssembly(sp, kernel, orbits)
    for field in (asm._starts, asm._target, asm._mover, asm._entry):
        assert np.issubdtype(field.dtype, np.integer), field.dtype
    roots = np.sqrt(orbits.sizes)
    moves = oracle_moves(sp, kernel, sp.bitmasks()[orbits.reps])
    src = np.array([s for s, _, _ in moves])
    rates = np.array([rate for _, rate, _ in moves])
    ranks = sp.rank_masks(np.array([t for _, _, t in moves], dtype=np.uint64))
    cols, movers = orbits.index[ranks], orbits.mover[ranks]
    weights = rates * roots[src] / roots[cols]
    assert np.array_equal(move_sources(asm), src)
    for chi in characters(stab):
        op = asm.operator(chi)
        row = op.coords.row
        live = (row[src] >= 0) & (row[cols] >= 0)
        want = chi[movers] * weights * live
        got = op.offdiag.data
        assert got.dtype == want.dtype and got.size == want.size
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(op.offdiag.indices, np.where(live, row[cols], 0))
        # each kept orbit's row starts at its first move
        kept = np.flatnonzero(row >= 0)
        assert np.array_equal(op.offdiag.indptr[1:-1],
                              asm._starts[kept[1:]])


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
    # operators assembled from a kernel take the CG/BiCGSTAB choice from it;
    # the same rates rebuilt by hand are compared with their transpose
    sp, kernel = system
    for op in (full_generator(sp, kernel), assemble_environment(sp, kernel)):
        numeric = SparseOperator(op.size, op.offdiag)
        assert op.is_symmetric() == numeric.is_symmetric()


@settings(max_examples=40, deadline=None)
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


@settings(max_examples=20, deadline=None)
@given(st.integers(51, 100), st.integers(2, 5), st.data())
def test_particle_hole_identity_1d_nearest_neighbour(percent, N, data):
    # holes carry minus the particles' total current, so
    # K^2 D(L, K) = (L - K)^2 D(L, L - K) on a ring of L = 2N sites
    L = 2 * N
    K = data.draw(st.integers(1, L - 1))
    p = Fraction(percent, 100)
    entries = [((1,), p)] + ([((-1,), 1 - p)] if p < 1 else [])
    kernel = build_kernel(1, entries)

    def scaled(k):
        sp = StateSpace(TorusGeometry(1, N), k)
        return k ** 2 * compute_D_matrix(sp, kernel, tol=1e-12).matrix[0, 0]

    want = scaled(L - K)
    assert abs(scaled(K) - want) <= 1e-9 * want
