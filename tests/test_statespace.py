import itertools
import math
from unittest import mock

import numpy as np
import pytest

from sepdiff import (
    OutOfRangeError,
    SizeCapError,
    StateSpace,
    TorusGeometry,
    WrongCountError,
    build_kernel,
    full_generator,
)
from sepdiff import generator, statespace
from sepdiff.diffusion import _stabilizer, _symmetries
from sepdiff.generator import ReducedAssembly
from sepdiff.montecarlo import TransitionTable, relaxation_gap
from sepdiff.statespace import BITMASK_WIDTH

import _oracle
from conftest import MZ1D, NN1D, NN2D, nn_kernel


def make_space(d, N, K):
    return StateSpace(TorusGeometry(d, N), K)


def lex_bitmasks(M, k):
    """Bitmasks of the k-subsets of range(M) in itertools.combinations
    order."""
    return [sum(1 << i for i in c) for c in itertools.combinations(range(M), k)]


def oracle_bitmasks(d, N, K):
    """The oracle's states, rank order, as bitmasks over its site order."""
    index = {s: i for i, s in enumerate(_oracle.env_sites(N, d))}
    return [sum(1 << index[s] for s in occ)
            for occ in _oracle.all_states(N, d, K)]


def test_size_and_alpha():
    sp = make_space(1, 2, 2)
    assert sp.M == 3 and sp.k == 1 and sp.size == 3
    assert sp.alpha == pytest.approx(1.0 / 3.0)
    sp = make_space(1, 3, 3)
    assert sp.size == math.comb(5, 2) == 10
    assert sp.alpha == pytest.approx(2.0 / 5.0)
    sp2 = make_space(2, 2, 5)
    assert sp2.size == math.comb(15, 4)
    assert sp2.alpha == pytest.approx(4.0 / 15.0)


def test_k_range_checked():
    geo = TorusGeometry(1, 2)
    with pytest.raises(WrongCountError):
        StateSpace(geo, 0)
    with pytest.raises(WrongCountError):
        StateSpace(geo, 5)
    # a count is not truncated
    for K in (2.5, float("nan"), "2", True):
        with pytest.raises(WrongCountError):
            StateSpace(geo, K)
    assert StateSpace(geo, 3.0).K == 3
    # K = n_sites means a full lattice: exactly one state
    assert StateSpace(geo, 4).size == 1


def test_enumeration_matches_reference_order():
    for d, N, K in [(1, 3, 3), (2, 2, 3)]:
        sp = make_space(d, N, K)
        assert sp.geometry.env_sites == _oracle.env_sites(N, d)
        want = oracle_bitmasks(d, N, K)
        assert sp.size == len(want)
        assert sp.bitmasks().tolist() == want
        assert sp.rank_masks(want).tolist() == list(range(sp.size))


def test_rank_unrank_round_trip():
    # bitmasks()[r] unranks r, rank_masks ranks it back
    for (d, N, K) in [(1, 2, 2), (1, 3, 4), (2, 2, 3)]:
        sp = make_space(d, N, K)
        want = lex_bitmasks(sp.M, sp.k)
        masks = sp.bitmasks()
        assert masks.dtype == np.uint64
        assert masks.tolist() == want
        for r in range(sp.size):
            assert sp.rank_masks([want[r]]).tolist() == [r]
        assert sp.rank_masks(masks[::-1]).tolist() == \
            list(range(sp.size))[::-1]


@pytest.mark.parametrize("N,K", [
    (4, 1),     # k = 0: the empty environment
    (4, 8),     # k = M: the full lattice
    (4, 4),     # M = 7, one byte
    (5, 5),     # M = 9, just past a byte boundary
    (8, 8),     # M = 15
    (9, 5),     # M = 17
    (9, 17),
    (32, 1),    # M = 63, the widest torus a word holds
    (32, 2),
    (32, 3),
    (32, 64),
])
def test_rank_at_edges_and_byte_boundaries(N, K):
    sp = make_space(1, N, K)
    masks = sp.bitmasks()
    assert masks.tolist() == lex_bitmasks(sp.M, sp.k)
    assert sp.rank_masks(masks).tolist() == list(range(sp.size))
    perm = np.random.default_rng(0).permutation(sp.size)
    assert sp.rank_masks(masks[perm]).tolist() == perm.tolist()


def test_rank_masks_rejects_non_states():
    sp = make_space(1, 3, 3)                 # M = 5, k = 2
    assert sp.rank_masks([0b11, 0b11000]).tolist() == [0, sp.size - 1]
    with pytest.raises(WrongCountError):
        sp.rank_masks([0b111])               # three particles
    with pytest.raises(WrongCountError):
        sp.rank_masks([0b11, 0b1])           # one particle
    with pytest.raises(OutOfRangeError):
        sp.rank_masks([0b100001])            # site 5 is beyond the torus
    with pytest.raises(OutOfRangeError):
        sp.rank_masks(np.array([(1 << 63) | 1], dtype=np.uint64))
    # the widest torus: sites 61, 62 are its last state, bit 63 is beyond
    wide = make_space(1, 32, 3)
    assert wide.rank_masks([(1 << 62) | (1 << 61)]).tolist() == \
        [wide.size - 1]
    with pytest.raises(WrongCountError):
        wide.rank_masks([1 << 62])
    with pytest.raises(OutOfRangeError):
        wide.rank_masks([(1 << 63) | (1 << 62)])
    # M = 15, k = 2: three particles in the top byte send the next byte
    # past the table's last row, which reads a clipped entry
    two = make_space(1, 8, 3)
    with pytest.raises(WrongCountError):
        two.rank_masks([0b111 << 8])


def tagged_moves(sp, kernel, z):
    """{source bitmask: target bitmask} of the tagged jump by z, read from
    its column of the move grid, unchanged states included."""
    zi = [zz for zz, _ in kernel.entries].index(z)
    col = sp.k * len(kernel.entries) + zi
    masks = sp.bitmasks()
    moves = {}
    for lo, live, ranks in sp.moves(kernel, masks, still=True):
        # each set cell's place in ranks
        at = np.cumsum(live.ravel()).reshape(live.shape) - 1
        src = np.flatnonzero(live[:, col])
        moves.update(zip(masks[lo + src].tolist(),
                         masks[ranks[at[src, col]]].tolist()))
    return moves


def bits_of(sp, sites):
    return sum(1 << sp.geometry.env_index(s) for s in sites)


def test_shift_recenters_environment(nn1d):
    # tagged jump by z: occupied y moves to wrap(y - z), seat z must be free
    sp = make_space(1, 2, 2)
    moves = tagged_moves(sp, nn1d, (1,))
    assert moves[bits_of(sp, [(2,)])] == bits_of(sp, [(1,)])
    assert bits_of(sp, [(1,)]) not in moves
    # count is preserved even when a particle wraps through the seam:
    # {-2, -1, 3} shifted by z=1 -> {wrap(-3)=3, -2, 2}
    sp3 = make_space(1, 3, 4)
    moves = tagged_moves(sp3, nn1d, (1,))
    assert moves[bits_of(sp3, [(-2,), (-1,), (3,)])] == \
        bits_of(sp3, [(-2,), (2,), (3,)])


def test_shift_matches_reference_rule():
    sp = make_space(1, 3, 3)
    kernel = build_kernel(1, [((1,), 0.25), ((-1,), 0.25), ((2,), 0.5)])
    for z in [(1,), (-1,), (2,)]:
        want = {bits_of(sp, occ):
                bits_of(sp, [_oracle.wrap(_oracle.sub(y, z), 3) for y in occ])
                for occ in _oracle.all_states(3, 1, 3) if z not in occ}
        assert tagged_moves(sp, kernel, z) == want


@pytest.mark.parametrize("d,N,K,g", [
    (2, 2, 4, [[0, -1], [1, 0]]), (2, 2, 3, [[0, -1], [-1, 0]]),
    (1, 3, 3, [[-1]]), (3, 2, 2, [[0, 0, 1], [-1, 0, 0], [0, 1, 0]])])
def test_mapped_ranks_match_per_state_rule(d, N, K, g):
    # state r goes to the rank of its sites moved to wrap(g x)
    sp = make_space(d, N, K)
    states = _oracle.all_states(N, d, K)
    index = {occ: r for r, occ in enumerate(states)}
    want = [index[tuple(sorted(
                _oracle.wrap(tuple(int(c) for c in np.dot(g, x)), N)
                for x in occ))]
            for occ in states]
    got = sp.mapped_ranks(np.array(g))
    assert got.tolist() == want
    assert sorted(want) == list(range(sp.size))
    # a subset of the states, in any order, maps to the same ranks
    subset = np.random.default_rng(sp.size).permutation(sp.size)[::2]
    got = sp.mapped_ranks(np.array(g), sp.bitmasks()[subset])
    assert got.tolist() == [want[r] for r in subset]
    # the moved bitmasks are those of the mapped ranks
    moved = sp.mapped_masks(np.array(g), sp.bitmasks()[subset])
    assert moved.tolist() == sp.bitmasks()[got].tolist()


def orbits_by_mapping(sp, group):
    """(index, reps, sizes, mover, stabilizers) of ``StateSpace.orbits``,
    every element's ranks mapped and held at once: the smallest mapped
    rank, the first element reaching it and the bitmask of all of them."""
    ranks = np.array([sp.mapped_ranks(g) for g in group])
    best = ranks.min(axis=0)
    ties = sum((ranks[h] == best).astype(np.uint64) << np.uint64(h)
               for h in range(len(group)))
    reps = np.flatnonzero(best == np.arange(sp.size))
    index = np.searchsorted(reps, best)
    return (index, reps, np.bincount(index), ranks.argmin(axis=0),
            ties[reps])


@pytest.mark.parametrize("d,N,K,order,mapped", [
    (2, 2, 5, None, 2),            # -I is the product of the reflections
    (2, 3, 3, None, 2),
    (3, 2, 3, None, 4),            # |H| = 16: 11 of 15 elements compose
    (3, 2, 4, None, 4),
    # -I first: the reflection after it has no factors yet
    (2, 2, 5, [0, 3, 1, 2], 2),
    (2, 2, 5, [0, 3, 2, 1], 2),
    (3, 2, 3, [0, 15, 9, 4, 12, 1, 7, 2, 14, 5, 11, 3, 8, 13, 6, 10], None),
])
def test_orbits_compose_as_mapping_every_element(d, N, K, order, mapped):
    sp = make_space(d, N, K)
    group = _symmetries(nn_kernel(d))
    keep, _ = _stabilizer(group, np.eye(d)[0])
    group = [group[h] for h in keep]
    if order is not None:
        group = [group[h] for h in order]
    with mock.patch.object(sp, "mapped_ranks",
                           wraps=sp.mapped_ranks) as mapping:
        orb = sp.orbits(group)
    want = orbits_by_mapping(sp, group)
    got = (orb.index, orb.reps, orb.sizes, orb.mover, orb.stabilizers)
    for name, a, b in zip(("index", "reps", "sizes", "mover", "stabilizers"),
                          got, want):
        assert np.array_equal(a, b), name
    # only the elements that are no product of two earlier ones move bits
    assert 1 <= mapping.call_count < len(group) - 1
    if mapped is not None:
        assert mapping.call_count == mapped


def shifted_counts(masks, sites):
    """Per-state count of the set bits of ``masks`` at ``sites``, read one
    site at a time by a shift."""
    counts = np.zeros(masks.size, dtype=np.int64)
    for i in sites:
        counts += ((masks >> np.uint64(i)) & np.uint64(1)).astype(np.int64)
    return counts


def test_inside_counts_of_one_site():
    sp = make_space(1, 2, 2)
    assert [sp.inside_counts(1 << i).tolist() for i in range(sp.M)] == \
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert sp.inside_counts((1 << 0) | (1 << 2)).tolist() == [1, 0, 1]
    # each site is occupied with probability alpha
    sp2 = make_space(1, 3, 4)
    for i in range(sp2.M):
        col = sp2.inside_counts(1 << i)
        assert col.tolist() == shifted_counts(sp2.bitmasks(), [i]).tolist()
        assert col.mean() == pytest.approx(sp2.alpha, abs=1e-14)


@pytest.mark.parametrize("d, N, K", [(1, 4, 4), (1, 5, 4), (1, 9, 4),
                                     (2, 4, 3)])
def test_inside_counts_across_bytes(d, N, K):
    # M = 7, 9, 17 and 63 environment sites: masks within one byte, across
    # byte boundaries and up to the highest site
    sp = make_space(d, N, K)
    M = sp.M
    rng = np.random.default_rng(M)
    site_sets = [[0], [M - 1], range(M), range(M // 2, M),
                 [s for s in (6, 7, 8, 9, 15, 16, 31, 32, 62) if s < M],
                 list(rng.choice(M, size=M // 3, replace=False))]
    masks = sp.bitmasks()
    subset = rng.permutation(sp.size)[::3]
    for sites in site_sets:
        mask = sum(1 << int(i) for i in sites)
        assert sp.inside_counts(mask).tolist() == \
            shifted_counts(masks, sites).tolist()
        assert sp.inside_counts(mask, masks[subset]).tolist() == \
            shifted_counts(masks[subset], sites).tolist()


def test_inside_counts_of_eight_sites_and_full_words():
    # no torus has 8 environment sites (M = (2N)^d - 1 is odd), so the
    # bitmasks are given: all 3-subsets of 8 sites, then words with bits
    # in every byte
    sp = make_space(1, 2, 2)
    masks = np.array(lex_bitmasks(8, 3), dtype=np.uint64)
    for sites in ([7], [0, 7], range(8), [3, 4, 5]):
        mask = sum(1 << i for i in sites)
        assert sp.inside_counts(mask, masks).tolist() == \
            shifted_counts(masks, sites).tolist()
    words = np.random.default_rng(0).integers(
        0, 2**64, size=200, dtype=np.uint64, endpoint=False)
    for sites in ([63], [7, 8, 55, 56], range(64), range(0, 64, 3)):
        mask = sum(1 << i for i in sites)
        assert sp.inside_counts(mask, words).tolist() == \
            shifted_counts(words, sites).tolist()


#: bound on the tracemalloc peak of inside_counts over all 19 sites of 1d
#: NN N=10 K=8, bytes per state: a states x sites uint64 array alone would
#: take 8 x 19 = 152
MAX_COUNT_BYTES_PER_STATE = 64


def test_inside_counts_builds_no_per_site_array():
    import tracemalloc

    sp = make_space(1, 10, 8)
    assert sp.size == 50_388 and sp.M == 19
    sp.bitmasks()
    tracemalloc.start()
    try:
        counts = sp.inside_counts((1 << sp.M) - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (counts == sp.k).all()
    assert peak / sp.size < MAX_COUNT_BYTES_PER_STATE


def test_size_cap():
    sp = StateSpace(TorusGeometry(1, 40), 40)
    assert sp.size > 500_000
    with pytest.raises(SizeCapError):
        sp.bitmasks()


def test_bitmask_width_cap():
    # side 64: 63 environment sites, the widest torus one word holds
    sp = make_space(1, 32, 2)
    assert sp.M == 63 <= BITMASK_WIDTH
    assert sp.bitmasks().tolist() == [1 << i for i in range(63)]
    # side 66: 65 sites need a 65-bit mask, refused rather than wrapped
    sp = make_space(1, 33, 2)
    assert sp.M == 65 and sp.size == 65
    with pytest.raises(SizeCapError, match="64-bit"):
        sp.bitmasks()
    with pytest.raises(SizeCapError, match="64-bit"):
        sp.rank_masks([0b11])
    kernel = build_kernel(1, [((1,), 0.5), ((-1,), 0.5)])
    with pytest.raises(SizeCapError, match="64-bit"):
        full_generator(sp, kernel)


def grid_rows(sp, kernel, masks, tagged=True, still=False):
    """Per state of ``masks``, the (kernel entry, jump label, target
    bitmask) of each of its moves, as ``StateSpace.moves`` lists them."""
    n_entries = len(kernel.entries)
    rows = []
    for lo, live, ranks in sp.moves(kernel, masks, tagged=tagged,
                                    still=still):
        assert lo == len(rows)
        targets = iter(sp.bitmasks()[ranks].tolist())
        for cells in live:
            row = []
            for c in np.flatnonzero(cells).tolist():
                zi = c % n_entries
                row.append((zi, zi if c >= sp.k * n_entries else -1,
                            next(targets)))
            rows.append(row)
        assert next(targets, None) is None
    return rows


def oracle_rows(sp, kernel, masks, tagged=True, still=False):
    """The same from the oracle's per-state move list."""
    N, d = sp.geometry.N, sp.geometry.dimension
    return [_oracle.state_moves(N, d, b, kernel.entries, tagged, still)
            for b in masks.tolist()]


ASYM2D = [((1, 0), 0.4), ((0, 1), 0.3), ((-1, 0), 0.2), ((0, -1), 0.1)]


@pytest.mark.parametrize("d,N,K,entries,step,still", [
    (1, 3, 3, NN1D, 1, False),
    # range 2: the moves into the origin are never enabled; {-1, 1, 3} is
    # its own image under the tagged jump by 2
    (1, 3, 4, MZ1D, 1, True),
    (2, 2, 4, ASYM2D, 1, False),
    # 63 sites, every fifth state
    (3, 2, 3, None, 5, False),
    # no environment particle: every tagged jump leaves the state as it is
    (2, 2, 1, ASYM2D, 1, True),
    # full lines along x: a jump along x leaves the state as it is
    (2, 2, 5, NN2D, 1, True)])
def test_source_major_moves_are_the_per_state_channel_loop(d, N, K, entries,
                                                           step, still):
    sp = make_space(d, N, K)
    kernel = nn_kernel(3) if entries is None else build_kernel(d, entries)
    masks = sp.bitmasks()[::step]
    if entries is MZ1D:
        # -2 by +2 and 1 by -1 land on the origin: no state lists them
        assert any(b & bits_of(sp, [(-2,), (1,)]) for b in masks.tolist())
    rows = {}
    for tagged, keep in ((True, False), (True, True), (False, False)):
        rows[tagged, keep] = grid_rows(sp, kernel, masks, tagged, keep)
        assert rows[tagged, keep] == oracle_rows(sp, kernel, masks, tagged,
                                                 keep)
    # whether any tagged jump leaves its state unchanged
    assert (rows[True, True] != rows[True, False]) == still


def test_table_keeps_the_jump_that_leaves_the_state_unchanged():
    # 1d N=3 K=4 under +2 and -1: {-1, 1, 3} shifted by 2 is itself, and
    # its seat 2 is vacant. The table lists that jump, moving the tagged
    # particle; the generators drop it, as they drop every self-loop
    sp = make_space(1, 3, 4)
    kernel = build_kernel(1, MZ1D)
    r = sp.rank_masks([bits_of(sp, [(-1,), (1,), (3,)])])[0]
    plus_two = [z for z, _ in kernel.entries].index((2,))
    table = TransitionTable(sp, kernel)
    row = list(zip(table.target[r, :table.fill[r]].tolist(),
                   table.jump[r, :table.fill[r]].tolist()))
    assert (r, plus_two) in row
    op = full_generator(sp, kernel)
    assert op.offdiag[r, r] == 0.0
    assert table.total[r] == pytest.approx(-op.diag[r] + 1.0 / 3.0, rel=1e-15)


def small_block_builds():
    """The reduced operators under three characters of the stabilizer of
    e1, the full generator and the Monte Carlo table of the nearest-neighbour
    walk on 2d N=2 K=5, whose full lines along x give tagged jumps that
    leave the state unchanged, and the relaxation gap of 1d N=3 K=4."""
    sp = make_space(2, 2, 5)
    kernel = build_kernel(2, NN2D)
    group = _symmetries(kernel)
    keep, _ = _stabilizer(group, np.eye(2)[0])
    stab = [group[h] for h in keep]
    asm = ReducedAssembly(sp, kernel, sp.orbits(stab))
    out = []
    # the trivial character and the signs of each axis
    for chi in [np.ones(len(stab))] + [[float(g[a, a]) for g in stab]
                                       for a in range(2)]:
        op = asm.operator(chi)
        out += [op.offdiag.data, op.offdiag.indices, op.offdiag.indptr,
                op.diag]
    full = full_generator(sp, kernel)
    out += [full.offdiag.data, full.offdiag.indices, full.offdiag.indptr,
            full.diag]
    table = TransitionTable(sp, kernel)
    out += [table.target, table.jump, table.cum, table.fill]
    out.append(np.array([relaxation_gap(make_space(1, 3, 4),
                                        build_kernel(1, MZ1D))]))
    return out


def test_small_blocks_build_the_same_bits(monkeypatch):
    # every system of the tier-1 tests is one block; these builds are
    # split into blocks of one state, and of a few, and the reduced
    # operator gathers one move or a few at a time
    sp = make_space(2, 2, 5)
    assert len(list(sp.moves(build_kernel(2, NN2D), sp.bitmasks()))) == 1
    want = small_block_builds()
    for cells in (1, 50):
        monkeypatch.setattr(statespace, "MOVE_BLOCK", cells)
        monkeypatch.setattr(generator, "GATHER_CHUNK", cells)
        got = small_block_builds()
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
