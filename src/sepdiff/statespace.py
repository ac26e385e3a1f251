"""Canonical state space for the environment seen from the tagged particle.

States are occupancy patterns of K-1 indistinguishable particles on the
punctured torus (the tagged particle is pinned at the origin and excluded).
The space is enumerated in lexicographic order of the sorted occupied-site
index lists, which matches ``itertools.combinations`` order. Ranks follow
in closed form from the combinatorial number system (Knuth, TAOCP 4A,
7.2.1.3): a state with set bits p has rank C(M, k) - 1 - sum_p
C(M-1-p, i_p), where i_p counts the set bits at positions >= p. The sum is
read one byte of the bitmask at a time from a per-space table
(:func:`_rank_table`), so ranking an array of bitmasks takes a few numpy
lookups per byte and no search. A state has k set bits, so the table
keeps the rows for 0 .. k set bits above a byte; a bitmask with more
reads a clipped row and is refused by its count.

Bulk work runs on a ``uint64`` array of occupancy bitmasks in rank order,
so an environment has at most 64 sites. Moves are enumerated source by
source, a block of states at a time, in the channel order that
:meth:`StateSpace.moves` defines, from a grid built once per kernel from
the torus geometry (:func:`_grid`), so they come out grouped by source with
no sort. Bits are moved to the sites' images, as a tagged jump or a
lattice symmetry moves them, by a per-byte table (:func:`_moved`): one
lookup per byte of the bitmask, however the sites are permuted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError, SizeCapError, WrongCountError
from .kernel import _whole

#: refuse to materialize per-state tables beyond this many states
DEFAULT_MAX_STATES = 500_000

#: bits in one occupancy word, so the most environment sites bulk work takes
BITMASK_WIDTH = 64

#: grid cells (sources x moves per source) that StateSpace.moves takes per
#: block, which bounds its temporaries
MOVE_BLOCK = 1 << 15


def _count_exceeds(M, k, cap):
    """Whether C(M, k) > cap, without forming a count past cap: C(M, i)
    grows with i up to min(k, M - k), so the first partial count past cap
    decides."""
    count = 1
    for i in range(min(k, M - k)):
        count = count * (M - i) // (i + 1)
        if count > cap:
            return True
    return False


def _short_count(M, k):
    """C(M, k) from its logarithm, as 9.4e238: the count itself can have
    hundreds of thousands of digits and take seconds to form. With
    j = min(k, M - k), ln C(M, k) = ln M! - ln (M - j)! - ln j!, and the
    first two terms, whose lgamma values would cancel, are taken together
    from Stirling's series to its x^-3 term, off by less than
    1 / (1260 (M - j)^5). Where the sum, good to 8 ulps of its terms,
    holds no two digits of the count, the power of ten is printed with the
    digits it holds, as 10^(5.845705064773e29); past the float range, a
    lower bound: C(M, k) >= M for 0 < k < M."""
    j = min(k, M - k)
    try:
        tail = [1 / (12 * x) - 1 / (360 * x**3) for x in (M, M - j)]
        terms = [j * math.log(M), -(M - j + 0.5) * math.log1p(-j / M),
                 -float(j), tail[0] - tail[1], -math.lgamma(j + 1)]
    except OverflowError:
        return f"at least 1e{math.floor(math.log10(M))}"
    digits = sum(terms) / math.log(10)
    err = (8 * np.finfo(float).eps * sum(map(abs, terms))
           + 1 / (1260 * (M - j)**5)) / math.log(10)
    if err > 1e-3:
        held = math.floor(math.log10(digits)) - math.ceil(math.log10(err))
        return f"10^({digits:.{held}e})".replace("e+", "e")
    exponent = math.floor(digits)
    mantissa = round(10 ** (digits - exponent), 1)
    if mantissa == 10.0:
        mantissa, exponent = 1.0, exponent + 1
    return f"{mantissa:.1f}e{exponent}"


def _require_word(M):
    if M > BITMASK_WIDTH:
        raise SizeCapError(
            f"{M} environment sites exceed the {BITMASK_WIDTH}-bit "
            f"occupancy bitmask"
        )


#: per byte value, its popcount
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], np.uint8)
#: per byte value, the step it takes in a flat rank table: 256 x popcount
_ROW_STEP = 256 * _POPCOUNT.astype(np.intp)


def _rank_table(M, k):
    """int64 table T[q, c, v]: the share of byte q (sites 8q .. 8q+7)
    holding v in the sum sum_p C(M-1-p, i_p) of the rank formula, given c
    = 0 .. k set bits in the bytes above it; no state has more.

    Built over the byte's bits from the lowest: a set bit at site p with
    c' set bits above it adds C(M-1-p, c'+1), and the bits below it see
    one more set bit above. Terms with i_p > k, or at sites p >= M, are
    zero; no state has them. Every entry fits int64 for M <= 64: it adds
    at most 8 terms, each at most C(63, 31) < 2^60.
    """
    nbytes = -(-M // 8)
    sites = np.arange(8 * nbytes).reshape(nbytes, 8)
    # term[q, j, i] = C(M-1-p, i) for the site p = 8q + j
    term = np.zeros((nbytes, 8, k + 9), dtype=np.int64)
    inside = sites < M
    binom = np.array([[math.comb(n, r) for r in range(k + 1)]
                      for n in range(M)], dtype=np.int64)
    term[inside, :k + 1] = binom[M - 1 - sites[inside]]
    # part[q, c, v]: share of the low j bits of v, given c set bits above
    # them; one row is used up per bit, leaving c = 0 .. k
    part = np.zeros((nbytes, k + 9, 1), dtype=np.int64)
    for j in range(8):
        rows = part.shape[1] - 1
        part = np.concatenate(
            [part[:, :rows], term[:, j, 1:rows + 1, None] + part[:, 1:]],
            axis=2)
    return part


def _lex_bitmasks(M, k):
    """uint64 bitmasks of the k-subsets of range(M), in lexicographic order.

    Built by subset size j = 1..k. Level j lists the j-subsets of
    {k-j, ..., M-1}; those of {s, ..., M-1} are its last C(M-s, j)
    entries. So level j is the concatenation, over the smallest element s,
    of bit s joined to the matching tail of level j-1.
    """
    level = np.zeros(1, dtype=np.uint64)
    for j in range(1, k + 1):
        parts = []
        for s in range(k - j, M - j + 1):
            tail = level[level.size - math.comb(M - s - 1, j - 1):]
            parts.append(tail | np.uint64(1 << s))
        level = np.concatenate(parts)
    return level


def _bytes(masks):
    """The bytes of the uint64 bitmasks ``masks``, low byte first, as a
    (masks.size, 8) uint8 array."""
    return np.ascontiguousarray(masks, dtype="<u8").view(np.uint8) \
        .reshape(masks.size, 8)


def _move_table(images):
    """uint64 table T[q, v]: the bits that byte q of a bitmask holding v
    moves to when site i goes to ``images[i]``; a site whose image is
    None, or beyond the list, moves nowhere."""
    table = np.zeros((-(-len(images) // 8), 256), dtype=np.uint64)
    values = np.arange(256)
    for i, t in enumerate(images):
        if t is not None:
            q, j = divmod(i, 8)
            table[q, (values >> j) & 1 == 1] |= np.uint64(1 << t)
    return table


def _moved(masks, table):
    """The uint64 bitmasks ``masks`` with their bits moved by a
    :func:`_move_table`: the OR over bytes q of ``table[q][byte q]``."""
    by = _bytes(masks)
    out = table[0].take(by[:, 0])
    for q in range(1, len(table)):
        out |= table[q].take(by[:, q])
    return out


def _grid(geo, kernel):
    """(vacant, flip, tagged): the moves of ``kernel`` on the torus ``geo``
    laid out for :meth:`StateSpace.moves`. An environment move from site i
    by kernel entry zi is enabled where the bit ``vacant[i, zi]`` is clear,
    and flips the bits ``flip[i, zi]``, source and target; a move into the
    origin is never enabled, as its ``vacant`` is the source bit, which is
    set. ``tagged`` lists the tagged jumps in kernel order, each as a
    (seat, table) pair: enabled where the seat bit is clear, it moves the
    bits by the :func:`_move_table` ``table``."""
    M, n_entries = geo.n_env_sites, len(kernel.entries)
    sources = np.left_shift(np.uint64(1), np.arange(M, dtype=np.uint64))
    vacant = np.repeat(sources[:, None], n_entries, axis=1)
    flip = np.zeros_like(vacant)
    for i, site in enumerate(geo.env_sites):
        for zi, (z, _) in enumerate(kernel.entries):
            y = geo.wrap(tuple(a + b for a, b in zip(site, z)))
            if y != geo.origin:
                vacant[i, zi] = 1 << geo.env_index(y)
                flip[i, zi] = vacant[i, zi] | sources[i]
    tagged = []
    for z, _ in kernel.entries:
        # every occupied y moves to wrap(y - z); the seat wrap(z) is vacant
        seat = geo.wrap(z)
        ti = geo.env_index(seat)
        tagged.append((np.uint64(1 << ti), _move_table([
            None if i == ti else
            geo.env_index(tuple(a - b for a, b in zip(site, seat)))
            for i, site in enumerate(geo.env_sites)])))
    return vacant, flip, tagged


@dataclass(frozen=True)
class Orbits:
    """Orbits of a group H = (g_0 = id, g_1, ...) on the states.

    ``index`` holds each state's orbit, ``reps`` each orbit's
    representative r_O (its smallest rank) and ``sizes`` its |O|.
    ``mover[eta]`` is the index h of one element with g_h.eta = r_O, and
    ``stabilizers`` the bitmask (bit h for g_h) of each representative's
    stabilizer.
    """

    index: np.ndarray
    reps: np.ndarray
    sizes: np.ndarray
    mover: np.ndarray
    stabilizers: np.ndarray

    def isotypic(self, chi):
        """Whether each orbit carries functions with u(g.eta) = chi(g)
        u(eta), for a character chi of H given as +-1 per element. Those
        functions vanish on an orbit whose stabilizer holds an element
        with chi = -1.
        """
        chi = np.asarray(chi)
        neg = np.uint64(sum(1 << h for h in np.flatnonzero(chi < 0)))
        return (self.stabilizers & neg) == 0


class StateSpace:
    """All configurations of K-1 particles on the environment sites.

    Parameters
    ----------
    geometry : TorusGeometry
    K : int
        Total particle count including the tagged one; 1 <= K <= (2N)^d.
    """

    def __init__(self, geometry, K):
        M = geometry.n_env_sites
        if not 1 <= (_whole(K) or 0) <= geometry.n_sites:
            raise WrongCountError(
                f"K = {K!r} is not a whole number in [1, {geometry.n_sites}] "
                f"for side {geometry.side}^({geometry.dimension})"
            )
        self.geometry = geometry
        self.K = int(K)
        self.k = self.K - 1          # environment particles
        self.M = M                   # environment sites
        self.alpha = (self.K - 1) / (geometry.n_sites - 1)
        self._bitmasks = None
        self._rank = None            # _rank_table, built on first use
        self._grids = {}             # kernel -> _grid

    # formed on first use: a count past the cap is refused without it
    @functools.cached_property
    def size(self):
        return math.comb(self.M, self.k)

    def __repr__(self):
        return (f"StateSpace(d={self.geometry.dimension}, N={self.geometry.N}, "
                f"K={self.K}, size={self.size})")

    # -- ranking ------------------------------------------------------------

    def require_tables(self):
        """Raise SizeCapError unless the per-state tables may be built: at
        most ``DEFAULT_MAX_STATES`` states, and an environment that fits
        the occupancy bitmask. Reads the counts only, and forms no state
        count past the cap."""
        if _count_exceeds(self.M, self.k, DEFAULT_MAX_STATES):
            raise SizeCapError(
                f"{_short_count(self.M, self.k)} states exceed cap "
                f"{DEFAULT_MAX_STATES}"
            )
        _require_word(self.M)

    def bitmasks(self):
        """Read-only uint64 array of occupancy bitmasks indexed by rank
        (cached)."""
        if self._bitmasks is None:
            self.require_tables()
            masks = _lex_bitmasks(self.M, self.k)
            masks.flags.writeable = False
            self._bitmasks = masks
        return self._bitmasks

    def rank_masks(self, masks):
        """Lexicographic ranks (int64) of states given as uint64 bitmasks.

        Arithmetic, by the combinatorial number system: the bitmasks are
        walked one byte at a time from the top, adding each byte's share
        of the rank sum from a table (built on first use) indexed by the
        byte and the set bits seen so far. The table holds the rows for
        0 .. k set bits; a bitmask past k reads a clipped row, and its
        count refuses it. Raises ``OutOfRangeError`` when a bitmask
        occupies a site beyond the torus and ``WrongCountError`` when it
        does not hold exactly k particles.
        """
        if self._rank is None:
            _require_word(self.M)
            table = _rank_table(self.M, self.k)
            # one flat table per byte: row c starts at 256 c
            self._rank = table.reshape(len(table), -1)
        masks = np.asarray(masks, dtype=np.uint64)
        if masks.size and int(masks.max()) >> self.M:
            raise OutOfRangeError("bitmask occupies sites beyond the torus")
        by = _bytes(masks)
        # the top byte reads row 0; base is 256 x the set bits above
        top = len(self._rank) - 1
        share = self._rank[top].take(by[:, top])
        base = _ROW_STEP.take(by[:, top])
        for q in reversed(range(top)):
            share += self._rank[q].take(base + by[:, q], mode="clip")
            base += _ROW_STEP.take(by[:, q])
        if np.any(base != 256 * self.k):
            raise WrongCountError(
                f"bitmask does not hold the {self.k} particles of the space")
        return ((self.size - 1) - share).reshape(masks.shape)

    def mapped_masks(self, g, masks):
        """The uint64 bitmasks of g.eta for the states eta with uint64
        bitmasks ``masks``, with g a signed permutation matrix of the
        lattice.

        g fixes the origin and maps the torus onto itself, so it moves
        environment site x to wrap(g x). The bits of every bitmask are
        moved to match by a per-byte table.
        """
        geo = self.geometry
        g = np.asarray(g)
        table = _move_table([geo.env_index(tuple(int(c) for c in g @ x))
                             for x in geo.env_sites])
        masks = np.asarray(masks, dtype=np.uint64)
        return _moved(masks, table).reshape(masks.shape)

    def mapped_ranks(self, g, masks=None):
        """Ranks of g.eta for the states eta with uint64 bitmasks
        ``masks``, or for every state in rank order when ``masks`` is
        None: the :meth:`mapped_masks`, ranked."""
        if masks is None:
            masks = self.bitmasks()
        return self.rank_masks(self.mapped_masks(g, masks))

    def orbits(self, group):
        """Orbit tables of a group H of signed lattice permutations, the
        identity first, acting on the states by ``mapped_ranks``.

        Each orbit is represented by its smallest rank. One pass per group
        element keeps a running minimum of the mapped ranks, the index of
        an element reaching it and the bitmask of all elements reaching it;
        no |H| x states array is built. At a representative that bitmask
        is its stabilizer. H has at most 48 elements (a torus whose
        environment fits the bitmask has d <= 3), so it fits a uint64. The
        three are updated in place, through one boolean mask.

        The rank permutation of each element is kept. An element g_h equal
        to g_a g_b for two earlier non-identity elements (found by looking
        up g_a^t g_h among them) is the gather ``perms[a][perms[b]]``; only
        the others move bits through ``mapped_ranks``.
        """
        # int32, which the state cap allows
        best = np.arange(self.size, dtype=np.int32)
        mover = np.zeros(self.size, dtype=np.int8)
        ties = np.ones(self.size, dtype=np.uint64)
        mask = np.empty(self.size, dtype=bool)
        mats = [np.asarray(g, dtype=np.int64) for g in group]
        earlier = {}                # matrix bytes -> h, non-identity
        perms = [None]
        for h, g in enumerate(mats[1:], 1):
            ranks = None
            for a in earlier.values():
                b = earlier.get((mats[a].T @ g).tobytes())
                if b is not None:
                    ranks = perms[a][perms[b]]
                    break
            if ranks is None:
                ranks = self.mapped_ranks(g).astype(np.int32)
            perms.append(ranks)
            earlier[g.tobytes()] = h
            np.less(ranks, best, out=mask)
            np.minimum(best, ranks, out=best)
            np.copyto(mover, np.int8(h), where=mask)
            np.copyto(ties, np.uint64(0), where=mask)
            np.equal(ranks, best, out=mask)
            np.bitwise_or(ties, np.uint64(1 << h), out=ties, where=mask)
        is_rep = best == np.arange(self.size, dtype=np.int32)
        reps = np.flatnonzero(is_rep)
        index = (np.cumsum(is_rep, dtype=np.int32) - 1)[best]
        return Orbits(index, reps,
                      np.bincount(index, minlength=reps.size), mover,
                      ties[reps])

    def moves(self, kernel, masks, tagged=True, still=False):
        """Yield (lo, live, ranks) for each block of the states with uint64
        bitmasks ``masks``: the moves out of ``masks[lo:lo + len(live)]``,
        source by source.

        ``live`` is a boolean grid with a row per source and (k + 1) |Z|
        columns, k |Z| when not ``tagged``: the source's occupied sites in
        ascending order x the kernel entries, then its tagged jumps in
        kernel order. This is the channel order, in which every consumer
        of the moves lists them. So column c is a move by kernel entry
        c % |Z|, a tagged jump when c >= k |Z|, and it is set where the
        move is enabled. ``ranks`` (int64) are the target ranks of the set
        cells in row-major order, ranked in one call per block. A tagged
        jump that leaves the state unchanged is set only when ``still``;
        an environment move always changes it. Blocks hold at most
        ``MOVE_BLOCK`` cells, or one row. The kernel's move grid
        (:func:`_grid`) is built on first use and cached, once the kernel
        fits the torus and the environment fits the occupancy bitmask.
        """
        grid = self._grids.get(kernel)
        if grid is None:
            self.geometry.require_kernel_fits(kernel)
            _require_word(self.M)
            grid = self._grids[kernel] = _grid(self.geometry, kernel)
        vacant_bits, flip_bits, jumps = grid
        k, n_entries = self.k, len(kernel.entries)
        masks = np.asarray(masks, dtype=np.uint64)
        width = (k + tagged) * n_entries
        step = max(1, MOVE_BLOCK // max(width, 1))
        for lo in range(0, masks.size, step):
            b = masks[lo:lo + step]
            live = np.empty((b.size, k + tagged, n_entries), dtype=bool)
            targets = np.empty(live.shape, dtype=np.uint64)
            # the sites of each state's particles, ascending: the lowest
            # set bit, then the next, each read off as 2^site
            bits = np.empty((b.size, k), dtype=np.uint64)
            rest = b.copy()
            for j in range(k):
                np.bitwise_and(rest, -rest, out=bits[:, j])
                rest ^= bits[:, j]
            sites = np.frexp(bits.astype(float))[1] - 1
            del bits, rest
            vacant = vacant_bits.take(sites, axis=0)
            vacant &= b[:, None, None]
            np.equal(vacant, 0, out=live[:, :k])
            del vacant
            np.bitwise_xor(b[:, None, None], flip_bits.take(sites, axis=0),
                           out=targets[:, :k])
            if tagged:
                for zi, (seat, table) in enumerate(jumps):
                    moved = _moved(b, table)
                    enabled = (b & seat) == 0
                    if not still:
                        enabled &= moved != b
                    targets[:, k, zi] = moved
                    live[:, k, zi] = enabled
            yield lo, live.reshape(b.size, width), self.rank_masks(
                np.extract(live, targets))

    # -- observable support ---------------------------------------------------

    def inside_counts(self, mask, masks=None):
        """int64 particle counts inside the sites of the bitmask ``mask``
        (a one-site mask reads that site's occupancy) at the states with
        uint64 bitmasks ``masks``, default every state in rank order: the
        popcount of ``masks & mask``, added up over the bytes ``mask``
        touches, with no states x sites array."""
        if masks is None:
            masks = self.bitmasks()
        by = _bytes(masks)
        counts = np.zeros(masks.size, dtype=np.int64)
        for q in range(8):
            part = (mask >> 8 * q) & 0xFF
            if part:
                counts += _POPCOUNT[by[:, q] & part]
        return counts
