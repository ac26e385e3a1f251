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
lookups per byte and no search; ``unrank`` walks exact integer binomials.

Bulk work runs on a ``uint64`` array of occupancy bitmasks in rank order,
so an environment has at most 64 sites. Particle moves are enumerated one
channel at a time over that array (:func:`enabled_moves`): a channel is one
(site, kernel entry) pair for the environment, or one kernel entry for the
tagged particle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    OutOfRangeError,
    SiteIsOriginError,
    SizeCapError,
    TargetIsOriginError,
    TargetOccupiedError,
    WrongCountError,
)

#: refuse to materialize per-state tables beyond this many states
DEFAULT_MAX_STATES = 500_000

#: bits in one occupancy word, so the most environment sites bulk work takes
BITMASK_WIDTH = 64


@dataclass(frozen=True)
class Configuration:
    """Occupancy pattern: bit i set <=> environment site i occupied."""

    bits: int
    k: int

    @property
    def occupied_indices(self):
        return tuple(_iter_bits(self.bits))

    def occupied(self, index):
        return (self.bits >> index) & 1 == 1


def _iter_bits(bits):
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _require_word(M):
    if M > BITMASK_WIDTH:
        raise SizeCapError(
            f"{M} environment sites exceed the {BITMASK_WIDTH}-bit "
            f"occupancy bitmask"
        )


#: per byte value, 256 x its popcount: the step to the rank table row
#: the next byte down reads
_ROW_STEP = 256 * ((np.arange(256)[:, None] >> np.arange(8)) & 1).sum(axis=1)


def _rank_table(M, k, binom):
    """int64 table T[q, c, v]: the share of byte q (sites 8q .. 8q+7)
    holding v in the sum sum_p C(M-1-p, i_p) of the rank formula, given c
    set bits in the bytes above it; ``binom[n][r]`` is C(n, r).

    Built over the byte's bits from the lowest: a set bit at site p with
    c' set bits above it adds C(M-1-p, c'+1), and the bits below it see
    one more set bit above. Terms with i_p > k, or at sites p >= M, are
    zero; no state has them. Every entry fits int64 for M <= 64: it adds
    at most 8 terms, each at most C(63, 31) < 2^60.
    """
    nbytes = -(-M // 8)
    sites = np.arange(8 * nbytes).reshape(nbytes, 8)
    # term[q, j, i] = C(M-1-p, i) for the site p = 8q + j
    term = np.zeros((nbytes, 8, M + 9), dtype=np.int64)
    inside = sites < M
    term[inside, :k + 1] = np.array(binom, dtype=np.int64)[
        M - 1 - sites[inside], :k + 1]
    # part[q, c, v]: share of the low j bits of v, given c set bits above
    # them; one row is used up per bit, leaving c = 0 .. M
    part = np.zeros((nbytes, M + 9, 1), dtype=np.int64)
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


@dataclass(frozen=True)
class Channel:
    """One kind of move: an environment particle leaving one site by one
    kernel entry (``jump`` = -1), or a tagged jump by one kernel entry
    (``jump`` = its index), at rate ``rate``.

    The move is enabled on a bitmask b where ``b & test == want``. Its
    target is the OR over ``groups`` of ``b & bits`` shifted left by
    ``shift`` (right for a negative shift).
    """

    jump: int
    rate: float
    test: np.uint64
    want: np.uint64
    groups: tuple


def _shifted(x, shift):
    if shift > 0:
        return x << np.uint64(shift)
    if shift < 0:
        return x >> np.uint64(-shift)
    return x


def _shift_groups(images):
    """(bits, shift) groups that move site i to ``images[i]``, skipping the
    sites whose image is None: sites that move by one shift share a group."""
    by_shift = {}
    for i, t in enumerate(images):
        if t is not None:
            by_shift[t - i] = by_shift.get(t - i, 0) | (1 << i)
    return tuple((np.uint64(bits), shift) for shift, bits in by_shift.items())


def _moved(masks, groups):
    """The uint64 bitmasks ``masks`` with their bits moved by ``groups``."""
    out = np.zeros_like(masks)
    for bits, shift in groups:
        out |= _shifted(masks & bits, shift)
    return out


def enabled_moves(masks, channels):
    """Yield (channel, src, targets) for each channel in turn: ``src`` are
    the positions in the uint64 array ``masks`` where the channel is
    enabled, ascending, and ``targets`` the bitmasks it leads to there."""
    for ch in channels:
        src = np.flatnonzero((masks & ch.test) == ch.want)
        yield ch, src, _moved(masks[src], ch.groups)


def _build_channels(geo, kernel):
    """Channels in canonical order; loops run over sites, not states."""
    word = (1 << geo.n_env_sites) - 1
    env = []
    for i, site in enumerate(geo.env_sites):
        for z, p in kernel.entries:
            y = geo.wrap(tuple(a + b for a, b in zip(site, z)))
            if y == geo.origin:
                continue
            t = geo.env_index(y)
            env.append(Channel(
                -1, p, np.uint64((1 << i) | (1 << t)), np.uint64(1 << i),
                ((np.uint64(word ^ (1 << i)), 0), (np.uint64(1 << i), t - i)),
            ))
    tagged = []
    for zi, (z, p) in enumerate(kernel.entries):
        # every occupied y moves to wrap(y - z); the seat wrap(z) is vacant
        seat = geo.wrap(z)
        ti = geo.env_index(seat)
        groups = _shift_groups([
            None if i == ti else
            geo.env_index(tuple(a - b for a, b in zip(site, seat)))
            for i, site in enumerate(geo.env_sites)])
        tagged.append(Channel(zi, p, np.uint64(1 << ti), np.uint64(0), groups))
    return tuple(env + tagged)


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
        """(sign, kept) for a character chi of H, given as +-1 per element:
        the sign chi(g) of each state, for any g with g.eta = r_O, and
        whether each orbit carries functions with u(g.eta) = chi(g) u(eta).
        Those functions vanish on an orbit whose stabilizer holds an
        element with chi = -1.
        """
        chi = np.asarray(chi)
        neg = np.uint64(sum(1 << h for h in np.flatnonzero(chi < 0)))
        return chi[self.mover], (self.stabilizers & neg) == 0


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
        if not 1 <= K <= geometry.n_sites:
            raise WrongCountError(
                f"K = {K} outside [1, {geometry.n_sites}] for side "
                f"{geometry.side}^({geometry.dimension})"
            )
        self.geometry = geometry
        self.K = int(K)
        self.k = self.K - 1          # environment particles
        self.M = M                   # environment sites
        self.size = math.comb(M, self.k)
        self.alpha = (self.K - 1) / (geometry.n_sites - 1)
        # C[n][r] for 0 <= n <= M, 0 <= r <= k+1, exact integers
        self._C = [[math.comb(n, r) for r in range(self.k + 2)]
                   for n in range(M + 1)]
        self._bitmasks = None
        self._rank = None            # _rank_table, built on first use
        self._channels = {}          # kernel -> channels

    def __repr__(self):
        return (f"StateSpace(d={self.geometry.dimension}, N={self.geometry.N}, "
                f"K={self.K}, size={self.size})")

    # -- ranking ------------------------------------------------------------

    def rank(self, config):
        """Lexicographic rank of a configuration."""
        if config.k != self.k or config.bits.bit_count() != self.k:
            raise WrongCountError(
                f"configuration has {config.bits.bit_count()} particles, "
                f"space expects {self.k}"
            )
        if config.bits >> self.M:
            raise OutOfRangeError("configuration occupies sites beyond the torus")
        return int(self.rank_masks([config.bits])[0])

    def unrank(self, rank):
        """Configuration at a given lexicographic rank."""
        if not 0 <= rank < self.size:
            raise OutOfRangeError(f"rank {rank} outside [0, {self.size})")
        C, M, k = self._C, self.M, self.k
        bits = 0
        s = 0
        r = rank
        for i in range(k):
            remaining = k - 1 - i
            while True:
                here = C[M - 1 - s][remaining]
                if r < here:
                    break
                r -= here
                s += 1
            bits |= 1 << s
            s += 1
        return Configuration(bits, k)

    def states(self):
        """Iterate configurations in rank order."""
        for occ in itertools.combinations(range(self.M), self.k):
            bits = 0
            for i in occ:
                bits |= 1 << i
            yield Configuration(bits, self.k)

    def bitmasks(self):
        """Read-only uint64 array of occupancy bitmasks indexed by rank
        (cached)."""
        if self._bitmasks is None:
            if self.size > DEFAULT_MAX_STATES:
                raise SizeCapError(
                    f"{self.size} states exceed cap {DEFAULT_MAX_STATES}"
                )
            _require_word(self.M)
            masks = _lex_bitmasks(self.M, self.k)
            masks.flags.writeable = False
            self._bitmasks = masks
        return self._bitmasks

    def rank_masks(self, masks):
        """Lexicographic ranks (int64) of states given as uint64 bitmasks.

        Arithmetic, by the combinatorial number system: the bitmasks are
        walked one byte at a time from the top, adding each byte's share
        of the rank sum from a table (built on first use) indexed by the
        byte and the set bits seen so far. Raises ``OutOfRangeError`` when
        a bitmask occupies a site beyond the torus and ``WrongCountError``
        when it does not hold exactly k particles.
        """
        if self._rank is None:
            _require_word(self.M)
            table = _rank_table(self.M, self.k, self._C)
            # one flat table per byte: row c starts at 256 c
            self._rank = table.reshape(len(table), -1)
        masks = np.asarray(masks, dtype=np.uint64)
        if masks.size and int(masks.max()) >> self.M:
            raise OutOfRangeError("bitmask occupies sites beyond the torus")
        # bytes of each bitmask, low byte first
        by = np.ascontiguousarray(masks, dtype="<u8").view(np.uint8) \
            .reshape(masks.size, 8)
        share = np.zeros(masks.size, dtype=np.int64)
        row = np.zeros(masks.size, dtype=np.intp)  # 256 x set bits above
        for q in reversed(range(len(self._rank))):
            byte = by[:, q].astype(np.intp)
            share += self._rank[q].take(row + byte)
            row += _ROW_STEP[byte]
        if np.any(row != 256 * self.k):
            raise WrongCountError(
                f"bitmask does not hold the {self.k} particles of the space")
        return ((self.size - 1) - share).reshape(masks.shape)

    def mapped_ranks(self, g):
        """Ranks of g.eta_r for every state eta_r, in rank order, with g a
        signed permutation matrix of the lattice.

        g fixes the origin and maps the torus onto itself, so it moves
        environment site x to wrap(g x). The bits of every bitmask are
        moved to match, and the results ranked.
        """
        geo = self.geometry
        g = np.asarray(g)
        groups = _shift_groups([geo.env_index(tuple(int(c) for c in g @ x))
                                for x in geo.env_sites])
        return self.rank_masks(_moved(self.bitmasks(), groups))

    def orbits(self, group):
        """Orbit tables of a group H of signed lattice permutations, the
        identity first, acting on the states by ``mapped_ranks``.

        Each orbit is represented by its smallest rank. One pass per group
        element keeps a running minimum of the mapped ranks, the index of
        an element reaching it and the bitmask of all elements reaching it;
        no |H| x states array is built. At a representative that bitmask
        is its stabilizer. H has at most 48 elements (a torus whose
        environment fits the bitmask has d <= 3), so it fits a uint64.
        """
        best = np.arange(self.size, dtype=np.int64)
        mover = np.zeros(self.size, dtype=np.int8)
        ties = np.ones(self.size, dtype=np.uint64)
        for h, g in enumerate(group[1:], 1):
            ranks = self.mapped_ranks(g)
            lower = ranks < best
            best[lower] = ranks[lower]
            mover[lower] = h
            ties[lower] = 0
            ties[ranks == best] |= np.uint64(1 << h)
        is_rep = best == np.arange(self.size)
        reps = np.flatnonzero(is_rep)
        index = (np.cumsum(is_rep) - 1)[best].astype(np.int32)
        return Orbits(index, reps,
                      np.bincount(index, minlength=reps.size), mover,
                      ties[reps])

    def move_channels(self, kernel):
        """The kernel's channels on this torus, cached per kernel, in
        canonical order: environment moves by source site, then kernel
        entry; then tagged jumps in kernel order. (Sort key
        ``site * |Z| + zi``, then ``M * |Z| + zi``.)"""
        chans = self._channels.get(kernel)
        if chans is None:
            self.geometry.require_kernel_fits(kernel)
            _require_word(self.M)
            chans = self._channels[kernel] = _build_channels(self.geometry,
                                                             kernel)
        return chans

    def config_from_sites(self, sites):
        """Configuration occupying the given canonical sites."""
        bits = 0
        for s in sites:
            i = self.geometry.env_index(s)
            if (bits >> i) & 1:
                raise TargetOccupiedError(f"site {s} listed twice")
            bits |= 1 << i
        if bits.bit_count() != self.k:
            raise WrongCountError(
                f"{bits.bit_count()} sites given, space expects {self.k}"
            )
        return Configuration(bits, self.k)

    # -- moves --------------------------------------------------------------

    def exchange(self, config, x, y):
        """Swap the occupancies of environment sites x and y."""
        gx, gy = self.geometry.wrap(x), self.geometry.wrap(y)
        if gx == self.geometry.origin or gy == self.geometry.origin:
            raise SiteIsOriginError(f"exchange touches the origin: {x}, {y}")
        ix, iy = self.geometry.env_index(gx), self.geometry.env_index(gy)
        if ix == iy:
            return config
        bits = config.bits
        bx, by = (bits >> ix) & 1, (bits >> iy) & 1
        if bx != by:
            bits ^= (1 << ix) | (1 << iy)
        return Configuration(bits, config.k)

    def shift(self, config, z):
        """Re-center after a tagged jump by displacement z.

        The jump target wrap(z) must be a vacant environment site. Every
        occupied site y moves to wrap(y - z); the vacated seat wrap(-z)
        ends up empty, preserving the particle count.
        """
        geo = self.geometry
        target = geo.wrap(z)
        if target == geo.origin:
            raise TargetIsOriginError(f"displacement {z} wraps onto the origin")
        it = geo.env_index(target)
        if (config.bits >> it) & 1:
            raise TargetOccupiedError(f"jump target {target} is occupied")
        bits = 0
        for i in _iter_bits(config.bits):
            y = geo.env_sites[i]
            moved = geo.wrap(tuple(a - b for a, b in zip(y, target)))
            bits |= 1 << geo.env_index(moved)
        return Configuration(bits, config.k)

    # -- observable support ---------------------------------------------------

    def site_occupancy(self, site_indices):
        """Occupancy indicators, shape (size, len(site_indices)), uint8."""
        idx = np.fromiter(site_indices, dtype=np.uint64)
        return ((self.bitmasks()[:, None] >> idx) & np.uint64(1)) \
            .astype(np.uint8)

    def inside_counts(self, mask):
        """Per-state particle count inside the site set given as a bitmask."""
        sites = list(_iter_bits(mask & ((1 << self.M) - 1)))
        return self.site_occupancy(sites).sum(axis=1, dtype=np.int64)
