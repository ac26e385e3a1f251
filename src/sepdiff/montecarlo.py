"""Kinetic Monte Carlo for the environment process and the tagged walk.

Event-driven (Gillespie) simulation: exponential waiting times at the
total enabled rate, channel selection by cumulative-rate inversion. The
tagged position is accumulated on the unwrapped lattice as the sum of
jump displacements, so its covariance over a long horizon estimates the
diffusion matrix directly.

Reproducibility contract (stream rule ``RNG_STREAM`` = 3): replica r under
master seed s uses ``numpy.random.default_rng(SeedSequence([s, r]))``. It
draws its start state with ``integers(size)``, then two ``random()``
doubles per event: u1 gives the waiting time ``-log1p(-u1) / lam``
(numpy's ``log1p``) and u2 the channel, the first whose cumulative rate
exceeds ``u2 * lam``. Results are reduced in replica order, so estimates
do not depend on how replicas are grouped into lockstep chunks.
:func:`replica_rng` states the rule; ``estimate_diffusion``
builds the same generators a chunk at a time, running numpy's SeedSequence
mixing over all the chunk's replica indices in one vectorized pass and
seeding each ``PCG64`` with its row of words, so the streams are unchanged.
The replica index is one 32-bit entropy word, so M < 2**32.

Each replica runs once, to 2T, and its displacement at T is the sum of
its jumps at event times below T. The two horizon blocks therefore share
their replicas and are correlated, and :func:`extrapolated_direction_stats`
takes the standard error of the per-replica extrapolated square.

``estimate_diffusion`` advances chunks of ``LANES`` replicas together, one
event per numpy step, all on the calling thread. The steps are short numpy
calls that hold the interpreter lock, so a thread pool gained nothing;
``threads`` is accepted and ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diffusion import _solve_directions
from .errors import InconclusiveError, OutOfRangeError
from .kernel import _whole, classify


def _replica_mean(p):
    """sum(p) / (m - 1) over m per-replica terms, with its standard error."""
    m = p.size
    return float(p.sum()) / (m - 1), float(p.std(ddof=1)) / math.sqrt(m)


@dataclass
class HorizonStats:
    T: float
    expected_drift: np.ndarray
    X: np.ndarray                   # (M, d) final positions
    njumps: np.ndarray              # (M,) tagged jump totals
    drift: np.ndarray = field(init=False)
    drift_se: np.ndarray = field(init=False)
    covariance: np.ndarray = field(init=False)
    covariance_se: np.ndarray = field(init=False)

    def __post_init__(self):
        m = self.X.shape[0]
        xt = self.X / self.T
        self.drift = xt.mean(axis=0)
        self.drift_se = xt.std(axis=0, ddof=1) / math.sqrt(m)
        y = (self.X - self.expected_drift * self.T) / math.sqrt(self.T)
        z = y - y.mean(axis=0)
        self.covariance = (z.T @ z) / (m - 1)
        prods = z[:, :, None] * z[:, None, :]
        self.covariance_se = prods.std(axis=0, ddof=1) / math.sqrt(m)

    def direction_squares(self, a):
        """Per-replica squares p(r) of the centred projection on a of
        (X - drift * T) / sqrt(T); their sum over m - 1 estimates a^t D a."""
        a = np.asarray(a, dtype=float)
        y = (self.X - self.expected_drift * self.T) / math.sqrt(self.T)
        s = y @ a
        s = s - s.mean()
        return s * s

    def direction_stats(self, a):
        """Estimate of a^t D a with its standard error."""
        return _replica_mean(self.direction_squares(a))


@dataclass
class MCEstimate:
    M: int
    seed: int
    alpha: float
    expected_drift: np.ndarray
    horizons: list                  # HorizonStats at T (primary) and 2T
    t_relax_ok: bool | None = None  # None when no gap information was given

    @property
    def primary(self):
        return self.horizons[0]


def replica_rng(master_seed, replica_index):
    """The documented replica-stream rule."""
    seq = np.random.SeedSequence([int(master_seed), int(replica_index)])
    return np.random.default_rng(seq)


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF


def _replica_seed_words(seed, lo, hi):
    """``SeedSequence([seed, r]).generate_state(4, np.uint64)`` for every r
    in [lo, hi), as one (hi - lo, 4) uint64 array.

    Runs numpy's SeedSequence mixing (pool of four 32-bit words) over r in
    uint32 array arithmetic. The entropy is the little-endian 32-bit words
    of ``seed`` followed by r, one word while r < 2**32. The hash constants
    evolve the same way for every r, so they stay Python scalars.
    """
    s = int(seed)
    words = [s & _MASK32]
    while s > _MASK32:
        s >>= 32
        words.append(s & _MASK32)
    n = hi - lo
    entropy = [np.full(n, w, dtype=np.uint32) for w in words]
    entropy.append(np.arange(lo, hi, dtype=np.uint32))
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ np.uint32(h)
        h = h * _MULT_A & _MASK32
        value *= np.uint32(h)
        return value ^ value >> 16

    def mix(x, y):
        x = _MIX_L * x - _MIX_R * y
        return x ^ x >> 16

    pool = [hashmix(entropy[i] if i < len(entropy)
                    else np.zeros(n, dtype=np.uint32)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out = np.empty((n, 8), dtype=np.uint32)
    h = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(h)
        h = h * _MULT_B & _MASK32
        value *= np.uint32(h)
        out[:, i] = value ^ value >> 16
    # word pairs are little-endian uint64s, as generate_state assembles them
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64)


def _replica_generators(seed, lo, hi):
    """``replica_rng(seed, r)`` for every r in [lo, hi), seeded from the
    words of :func:`_replica_seed_words`."""
    # imported here: numpy 2 loads numpy.random lazily, and loading it with
    # this module, before relaxation_gap's dense matrices, raises the peak
    # resident set of `sepdiff mc`
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return [np.random.Generator(np.random.PCG64(Words(w)))
            for w in _replica_seed_words(seed, lo, hi)]


#: version of the per-replica random stream rule in the module docstring
RNG_STREAM = 3

#: replica lanes the lockstep kernel advances together; chunking bounds
#: its working arrays to under 2 MB whatever the replica count
LANES = 1024
#: events per lane whose uniforms are drawn in one refill
REFILL = 32

#: relaxation times (one over the spectral gap) a horizon must span to set
#: ``t_relax_ok``; also the arbitration horizon when none is given
RELAX_TIMES = 10.0
#: most states :func:`relaxation_gap` takes a dense eigendecomposition of;
#: it runs without scipy, so the sobolev Lanczos cutoff does not apply
RELAX_GAP_MAX = 2000


class TransitionTable:
    """The move grid of ``StateSpace.moves``, still tagged jumps enabled
    (they move the tagged particle), as (state x (k + 1) |Z|) arrays:
    ``target`` holds each enabled cell's target rank and ``cum`` the row's
    rates summed in channel order, a disabled cell adding 0; ``labels[c]``
    is column c's jump label, -1 for an environment move, else the kernel
    entry. ``total`` holds the row totals; ``cum`` is +inf from a row's
    last enabled cell on (a frozen row's last cell), so the stream rule
    picks an enabled cell even where u2 * lam rounds up to lam.
    """

    def __init__(self, space, kernel):
        space.geometry.require_kernel_fits(kernel)
        self.space = space
        self.kernel = kernel
        # (|Z|, d) jump displacements: positions are jump counts @ zvecs
        self.zvecs = np.array([z for z, _ in kernel.entries], dtype=np.int64)
        rates = np.array([p for _, p in kernel.entries])
        self.labels = np.append(np.full(space.k * rates.size, -1),
                                np.arange(rates.size))
        cell_rate = np.tile(rates, space.k + 1)
        n, width = space.size, cell_rate.size
        # int32, which the state cap allows
        self.target = np.zeros((n, width), dtype=np.int32)
        self.cum = np.zeros((n, width))
        self.total = np.zeros(n)
        masks = space.bitmasks()
        for lo, live, ranks in space.moves(kernel, masks, still=True):
            rows = slice(lo, lo + len(live))
            self.target[rows][live] = ranks
            # accumulating along each row adds in channel order, and a
            # zero rate adds exactly 0.0
            cum = np.cumsum(live * cell_rate, axis=1, out=self.cum[rows])
            self.total[rows] = cum[:, -1]
            last = width - 1 - np.argmax(live[:, ::-1], axis=1)
            cum[np.arange(width) >= last[:, None]] = np.inf


def _lockstep(table, rngs, ranks, T):
    """Run one lane per generator from the given start ranks to 2T.

    Each numpy step advances every lane of a refill block by one event,
    consuming two uniforms of its own generator by the stream rule of the
    module docstring; the jump label is read off the chosen column. A lane
    leaves when its clock passes 2T or its state is frozen: its final rank
    is recorded at once, and until the block ends it keeps its place and
    tallies into a sink that is discarded, so the arrays are compacted
    only when uniforms are next drawn. An event at time t is tallied in
    the second window when t >= T, so the counts up to T are those of a
    run stopped at T.
    Uniforms are drawn ``REFILL`` events at a time, and consecutive draws
    of one generator give the same doubles as a single draw, so results do
    not depend on how replicas are grouped.
    Returns the final ranks at 2T and the (lane, horizon, kernel entry)
    tagged-jump counts at T and 2T.
    """
    n = len(rngs)
    end = 2.0 * T
    stride = len(table.kernel.entries) + 1
    wide = 2 * stride
    total, cum, labels = table.total, table.cum, table.labels
    width = cum.shape[1]
    target = table.target.ravel()
    ones = np.ones(width)
    # lane i counts its events before T at i * wide + 1 + jump label and
    # later ones a stride further on, so slot 0 of each window takes the
    # environment moves (label -1); lane n's windows are the sink
    counts = np.zeros((n + 1) * wide, dtype=np.int64)
    sink = n * wide + 1
    final = np.array(ranks, dtype=np.intp)
    rank = final.copy()
    lane = np.arange(n)
    t = np.zeros(n)
    u = np.empty((n, 2 * REFILL))
    rows = list(u)
    # a frozen lane has lam = 0: its clock becomes inf (or nan), never < end
    with np.errstate(divide="ignore", invalid="ignore"):
        while lane.size:
            for k, i in enumerate(lane.tolist()):
                rngs[i].random(out=rows[k])
            # event s reads row 2 s of the transposed uniforms for its
            # waits and row 2 s + 1 for its thresholds, one entry per lane
            ut = u[:lane.size].T.copy()
            waits = -np.log1p(-ut[0::2])
            slot = lane * wide + 1
            inside, n_in = np.ones(lane.size, dtype=bool), lane.size
            moves = []
            for s in range(REFILL):
                lam = total.take(rank)
                t += waits[s] / lam
                keep = t < end
                n_keep = np.count_nonzero(keep)
                if n_keep < n_in:
                    # a clock never returns below 2T, so the lanes inside
                    # whose clock is not below it have just left
                    done = inside ^ keep
                    final[lane[done]] = rank[done]
                    slot[done] = sink
                    inside, n_in = keep, n_keep
                    if not n_in:
                        break
                # rows ascend, so the count of entries <= thr is
                # bisect_right; a product with ones counts them fastest.
                # Each row ends in +inf, so the column is in the row, and
                # lanes that left step on into the sink
                thr = ut[2 * s + 1] * lam
                j = ((cum.take(rank, axis=0) <= thr[:, None]) @ ones).astype(
                    np.intp)
                moves.append(slot + labels.take(j) + stride * (t >= T))
                # intp, as rank * width may pass the int32 range
                rank = target.take(rank * width + j).astype(np.intp)
            if moves:
                counts += np.bincount(np.concatenate(moves),
                                      minlength=counts.size)
            if n_in < lane.size:
                lane, rank, t = lane[inside], rank[inside], t[inside]
    counts = counts[:n * wide].reshape(n, 2, stride)[:, :, 1:]
    return final, np.cumsum(counts, axis=1)


def check_replica_run(T, M, seed):
    """(M, seed) as ints, or an OutOfRangeError for a replica run that
    cannot happen: a horizon T that is not finite and > 0 (None skips it),
    a replica count that is not a whole number in [2, 2**32), since the
    stream seeding takes one 32-bit entropy word per replica index, or a
    master seed that is not a whole number >= 0."""
    if T is not None and not (math.isfinite(T) and T > 0.0):
        raise OutOfRangeError(f"horizon T must be finite and > 0, got {T}")
    if not 2 <= (_whole(M) or 0) < 2**32:
        raise OutOfRangeError(f"replica count M must be a whole number in "
                              f"[2, 2**32), got {M!r}")
    if _whole(seed) is None or seed < 0:
        raise OutOfRangeError(f"master seed must be a whole number >= 0, "
                              f"got {seed!r}")
    return int(M), int(seed)


def check_arbitration_horizon(space, T):
    """Refuse, by OutOfRangeError, a sign arbitration with no horizon T on
    a space above ``RELAX_GAP_MAX`` states, where the relaxation gap that
    would set the horizon is not computed."""
    if T is None and space.size > RELAX_GAP_MAX:
        raise OutOfRangeError(f"arbitration needs a horizon 'T' above "
                              f"{RELAX_GAP_MAX} states, where the "
                              f"relaxation gap is not computed")


def estimate_diffusion(space, kernel, T, M, seed, threads=1, relax_gap=None):
    """Replica estimate of drift and diffusion from final positions.

    Runs M independent replicas to 2T and records their positions at T on
    the way, to expose finite-horizon bias. The drift target is
    m(1 - alpha) with m the kernel mean; the covariance of
    (X_T - m(1-alpha)T)/sqrt(T) estimates the diffusion matrix. Replicas
    run in chunks of ``LANES`` on the calling thread; ``threads`` has no
    effect.
    """
    M, seed = check_replica_run(T, M, seed)
    expected = classify(kernel)[1] * (1.0 - space.alpha)
    table = TransitionTable(space, kernel)

    chunks = []
    for lo in range(0, M, LANES):
        rngs = _replica_generators(seed, lo, min(lo + LANES, M))
        starts = [rng.integers(space.size) for rng in rngs]
        chunks.append(_lockstep(table, rngs, starts, T)[1])
    counts = np.concatenate(chunks)
    stats = [HorizonStats(h, expected, counts[:, w] @ table.zvecs,
                          counts[:, w].sum(axis=1))
             for w, h in enumerate((float(T), 2.0 * T))]
    ok = None if relax_gap is None else bool(T * relax_gap >= RELAX_TIMES)
    return MCEstimate(M, seed, space.alpha, expected, stats, ok)


def relaxation_gap(space, kernel):
    """Spectral gap of the symmetrized generator, computed densely; None on
    one state or above ``RELAX_GAP_MAX`` states.

    The dense matrix is built from ``StateSpace.moves``, so this needs no
    sparse linear algebra. It equals the dense route of
    :func:`sobolev.spectral_gap`, that is
    ``spectral_gap(symmetric_part(full_generator(space, kernel)),
    method="dense")``, bit for bit: duplicate moves are summed in
    enumeration order, the symmetric part is 0.5 (A + A^T), and each
    diagonal entry is minus the sum of its row's nonzeros in column order,
    taken by ``np.add.reduceat`` as scipy sums a CSR row. A full-row
    ``sum`` or a matvec rounds differently in the last bit.
    """
    n = space.size
    if not 1 < n <= RELAX_GAP_MAX:
        return None
    rates = np.array([p for _, p in kernel.entries])
    a = np.zeros((n, n))
    for lo, live, ranks in space.moves(kernel, space.bitmasks()):
        src, cell = np.nonzero(live)
        np.add.at(a, (lo + src, ranks), rates[cell % rates.size])
    s = 0.5 * (a + a.T)
    r, c = np.nonzero(s)
    # r ascends, so each row's nonzeros start where r changes
    starts = np.flatnonzero(np.diff(r, prepend=-1))
    live = r[starts]
    s[live, live] = -np.add.reduceat(s[r, c], starts)
    return float(np.linalg.eigvalsh(-s)[1])


def arbitrate_sign(space, kernel, directions=None, T=None, M=4000,
                   seed=20240801, max_doublings=3, tol=1e-10):
    """Decide the correction sign convention against simulation.

    Computes the exact value under both conventions and accepts the one
    whose prediction sits within 3 standard errors of the Monte Carlo
    covariance along every requested direction. The replica count doubles
    until exactly one convention survives, at most ``max_doublings`` times
    (a whole number >= 0, else OutOfRangeError); structurally ambiguous
    systems (vanishing correction) raise InconclusiveError immediately.
    """
    return _arbitrate(space, kernel, directions, T, M, seed, max_doublings,
                      tol)[0]


def _arbitrate(space, kernel, directions, T, M, seed, max_doublings, tol):
    """The work of :func:`arbitrate_sign`: the chosen sign and the exact
    DirectionResult (both conventions) of each arbitrated direction."""
    check_arbitration_horizon(space, T)
    m_run, seed = check_replica_run(T, M, seed)
    if _whole(max_doublings) is None or max_doublings < 0:
        raise OutOfRangeError(f"max_doublings must be a whole number >= 0, "
                              f"got {max_doublings!r}")
    if directions is None:
        directions = np.eye(space.geometry.dimension)
    _, _, exact = _solve_directions(space, kernel, directions, tol, "auto")
    scale = max(max(abs(r.D_plus), abs(r.D_minus), 1e-12) for r in exact)
    if all(abs(r.D_plus - r.D_minus) <= 1e-12 * scale for r in exact):
        raise InconclusiveError(
            "correction term vanishes; both conventions coincide"
        )
    if T is None:
        # more than one state, since the correction does not vanish, and
        # at most RELAX_GAP_MAX: the gap is computed
        T = RELAX_TIMES / relaxation_gap(space, kernel)

    n_passing = 2
    for attempt in range(int(max_doublings) + 1):
        # distinct master seed per attempt keeps rerun streams independent
        est = estimate_diffusion(space, kernel, T, m_run, seed + attempt)
        passing = []
        for sign in (+1, -1):
            ok = True
            for a, r in zip(directions, exact):
                val, se = extrapolated_direction_stats(est, a)
                want = r.D_plus if sign == +1 else r.D_minus
                if abs(want - val) > 3.0 * max(se, 1e-300):
                    ok = False
                    break
            if ok:
                passing.append(sign)
        if len(passing) == 1:
            return passing[0], exact
        n_passing = len(passing)
        m_run *= 2
    raise InconclusiveError(
        f"{n_passing} conventions survive at M = {m_run // 2}"
    )


def extrapolated_direction_stats(estimate, a):
    """Horizon-bias-corrected estimate of a^t D a.

    The per-horizon estimator carries an O(1/T) bias, so the (T, 2T) pair
    extrapolates as 2 * v(2T) - v(T). Both horizons come from the same
    replicas, so the error is that of the per-replica terms
    q(r) = 2 * p_2T(r) - p_T(r) (see ``HorizonStats.direction_squares``).
    """
    p1 = estimate.horizons[0].direction_squares(a)
    p2 = estimate.horizons[1].direction_squares(a)
    return _replica_mean(2.0 * p2 - p1)
