"""Kinetic Monte Carlo for the environment process and the tagged walk.

Event-driven (Gillespie) simulation: exponential waiting times at the
total enabled rate, channel selection by cumulative-rate inversion. The
tagged position is accumulated on the unwrapped lattice as the sum of
jump displacements, so its covariance over a long horizon estimates the
diffusion matrix directly.

Reproducibility contract: replica r of horizon block h under master seed s
uses ``numpy.random.default_rng(SeedSequence([s, h, r]))`` and results are
reduced in replica order, so estimates do not depend on scheduling.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import FrozenError, InconclusiveError, OutOfRangeError
from .generator import full_generator, symmetric_part
from .statespace import Configuration, enabled_moves


@dataclass
class TrajectoryState:
    """Snapshot of one trajectory: environment, lifted position, clock."""

    config: Configuration
    position: np.ndarray            # int64, on the unwrapped lattice
    t: float
    jump_counts: np.ndarray         # per kernel entry, int64


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

    def direction_stats(self, a):
        """Estimate of a^t D a with its standard error."""
        a = np.asarray(a, dtype=float)
        y = (self.X - self.expected_drift * self.T) / math.sqrt(self.T)
        s = y @ a
        s = s - s.mean()
        p = s * s
        m = p.size
        value = float(p.sum()) / (m - 1)
        se = float(p.std(ddof=1)) / math.sqrt(m)
        return value, se


@dataclass
class MCEstimate:
    M: int
    seed: int
    alpha: float
    expected_drift: np.ndarray
    horizons: list                  # HorizonStats, primary first
    method: str
    t_relax_ok: bool | None = None  # None when no gap information was given

    @property
    def primary(self):
        return self.horizons[0]


def replica_rng(master_seed, horizon_index, replica_index):
    """The documented replica-stream rule."""
    seq = np.random.SeedSequence(
        [int(master_seed), int(horizon_index), int(replica_index)]
    )
    return np.random.default_rng(seq)


#: states per block when building a TransitionTable
TABLE_BLOCK = 4096


class TransitionTable:
    """Per-state channel lists (rate-caching fast path).

    Row r lists the channels enabled in state r in canonical order (see
    ``StateSpace.move_channels``), with target ranks, jump labels (-1 for
    environment moves) and cumulative rates, the same as :func:`step`
    builds for one state, so trajectories driven by the table are bitwise
    identical to the re-enumerating reference path for equal seeds.
    """

    def __init__(self, space, kernel):
        space.geometry.require_kernel_fits(kernel)
        self.space = space
        self.kernel = kernel
        self.zvecs = [z for z, _ in kernel.entries]
        self.target, self.jump, self.cum, self.total = [], [], [], []
        masks = space.bitmasks()
        channels = space.move_channels(kernel)
        # a state enables at most |Z| moves per particle plus |Z| jumps
        width = min(len(channels), (space.k + 1) * len(kernel.entries))
        # blocks of states bound the padded arrays to a few MB beside the
        # lists, which hold the table's real size
        for lo in range(0, space.size, TABLE_BLOCK):
            self._add_rows(masks[lo:lo + TABLE_BLOCK], channels, width)

    def _add_rows(self, masks, channels, width):
        n = masks.size
        target = np.zeros((n, width), dtype=np.int64)
        jump = np.zeros((n, width), dtype=np.int64)
        rate = np.zeros((n, width))
        fill = np.zeros(n, dtype=np.int64)
        for ch, src, targets in enabled_moves(masks, channels):
            slot = fill[src]
            target[src, slot] = self.space.rank_masks(targets)
            jump[src, slot] = ch.jump
            rate[src, slot] = ch.rate
            fill[src] += 1
        # accumulating along each row adds in channel order, as step() does;
        # the zero padding leaves the last column equal to the row total
        cum = np.cumsum(rate, axis=1)
        self.total += cum[:, -1].tolist()
        # _run_table indexes per-state Python lists, faster per event than
        # arrays; slice them out of the flat (state, channel) order once
        filled = np.arange(width) < fill[:, None]
        ptr = np.concatenate(([0], np.cumsum(fill))).tolist()
        bounds = list(zip(ptr, ptr[1:]))
        for rows, a in ((self.target, target), (self.jump, jump),
                        (self.cum, cum)):
            flat = a[filled].tolist()
            rows += [flat[lo:hi] for lo, hi in bounds]


def step(space, kernel, state, rng):
    """One event with full re-enumeration of enabled transitions.

    Reference path: runs every channel on the one state. Raises
    FrozenError when no transition is enabled.
    """
    masks = np.array([state.config.bits], dtype=np.uint64)
    chans = [(ch, int(targets[0])) for ch, src, targets
             in enabled_moves(masks, space.move_channels(kernel)) if src.size]
    if not chans:
        raise FrozenError("no enabled transition")
    cum = list(itertools.accumulate(ch.rate for ch, _ in chans))
    lam = cum[-1]
    dt = rng.standard_exponential() / lam
    u = rng.random() * lam
    j = min(bisect_right(cum, u), len(cum) - 1)
    ch, target_bits = chans[j]
    pos = state.position.copy()
    counts = state.jump_counts.copy()
    if ch.jump >= 0:
        pos += np.asarray(kernel.entries[ch.jump][0], dtype=np.int64)
        counts[ch.jump] += 1
    return TrajectoryState(
        Configuration(target_bits, state.config.k), pos, state.t + dt, counts
    )


def _run_table(table, rank0, T, rng):
    d = table.space.geometry.dimension
    zvecs = table.zvecs
    pos = [0] * d
    counts = [0] * len(zvecs)
    totals, cums = table.total, table.cum
    targets, jumps = table.target, table.jump
    t = 0.0
    rank = rank0
    while True:
        lam = totals[rank]
        if lam <= 0.0:
            break
        t += rng.standard_exponential() / lam
        if t >= T:
            break
        u = rng.random() * lam
        row = cums[rank]
        j = bisect_right(row, u)
        if j >= len(row):
            j = len(row) - 1
        ji = jumps[rank][j]
        if ji >= 0:
            z = zvecs[ji]
            for c in range(d):
                pos[c] += z[c]
            counts[ji] += 1
        rank = targets[rank][j]
    return rank, pos, counts


def simulate(space, kernel, T, seed, start=None, method="table", table=None):
    """One trajectory over [0, T] from a uniformly drawn stationary start.

    method "table" precomputes per-state channels; "direct" re-enumerates
    every step. Both consume the random stream identically, so equal seeds
    give identical trajectories.
    """
    if T <= 0.0:
        raise OutOfRangeError(f"horizon must be > 0, got {T}")
    rng = np.random.default_rng(seed) if isinstance(seed, (int, np.integer)) \
        else seed
    if start is None:
        rank0 = int(rng.integers(space.size))
    else:
        rank0 = space.rank(start)

    if method == "table":
        if table is None:
            table = TransitionTable(space, kernel)
        rank, pos, counts = _run_table(table, rank0, T, rng)
        return TrajectoryState(
            space.unrank(rank),
            np.asarray(pos, dtype=np.int64),
            T,
            np.asarray(counts, dtype=np.int64),
        )
    if method != "direct":
        raise OutOfRangeError(f"unknown simulation method {method!r}")
    state = TrajectoryState(
        space.unrank(rank0),
        np.zeros(space.geometry.dimension, dtype=np.int64),
        0.0,
        np.zeros(len(kernel.entries), dtype=np.int64),
    )
    while True:
        try:
            nxt = step(space, kernel, state, rng)
        except FrozenError:
            state.t = T
            return state
        if nxt.t >= T:
            state.t = T
            return state
        state = nxt


def estimate_diffusion(space, kernel, T, M, seed, threads=1,
                       second_horizon=True, method="table", relax_gap=None):
    """Replica estimate of drift and diffusion from final positions.

    Runs M independent replicas to horizon T (and, by default, M more to
    2T to expose finite-horizon bias). The drift target is m(1 - alpha)
    with m the kernel mean; the covariance of (X_T - m(1-alpha)T)/sqrt(T)
    estimates the diffusion matrix.
    """
    if M < 2:
        raise OutOfRangeError(f"need at least 2 replicas, got {M}")
    mean = np.zeros(space.geometry.dimension)
    for z, p in kernel.entries:
        mean += p * np.asarray(z, dtype=float)
    expected = mean * (1.0 - space.alpha)
    table = TransitionTable(space, kernel) if method == "table" else None
    horizons = [float(T)] + ([2.0 * float(T)] if second_horizon else [])

    def run_block(h_index, horizon, lo, hi):
        xs = np.zeros((hi - lo, space.geometry.dimension), dtype=np.int64)
        nj = np.zeros(hi - lo, dtype=np.int64)
        for r in range(lo, hi):
            rng = replica_rng(seed, h_index, r)
            traj = simulate(space, kernel, horizon, rng, method=method,
                            table=table)
            xs[r - lo] = traj.position
            nj[r - lo] = int(traj.jump_counts.sum())
        return xs, nj

    stats = []
    for h_index, horizon in enumerate(horizons):
        if threads > 1:
            bounds = np.linspace(0, M, threads + 1, dtype=int)
            chunks = [(int(a), int(b)) for a, b in zip(bounds, bounds[1:])
                      if b > a]
            with concurrent.futures.ThreadPoolExecutor(threads) as pool:
                parts = list(pool.map(
                    lambda ab: run_block(h_index, horizon, ab[0], ab[1]),
                    chunks,
                ))
            xs = np.concatenate([p[0] for p in parts])
            nj = np.concatenate([p[1] for p in parts])
        else:
            xs, nj = run_block(h_index, horizon, 0, M)
        stats.append(HorizonStats(horizon, expected, xs, nj))

    ok = None
    if relax_gap is not None and math.isfinite(relax_gap) and relax_gap > 0:
        ok = bool(T >= 10.0 / relax_gap)
    elif relax_gap is not None:
        ok = True
    return MCEstimate(M, int(seed), space.alpha, expected, stats, method, ok)


def arbitrate_sign(space, kernel, directions=None, T=None, M=4000,
                   seed=20240801, max_doublings=3, tol=1e-10):
    """Decide the correction sign convention against simulation.

    Computes the exact value under both conventions and accepts the one
    whose prediction sits within 3 standard errors of the Monte Carlo
    covariance along every requested direction. The replica count doubles
    until exactly one convention survives; structurally ambiguous systems
    (vanishing correction) raise InconclusiveError immediately.
    """
    from .diffusion import _direction_result
    from .sobolev import DENSE_EIG_MAX, spectral_gap

    d = space.geometry.dimension
    if directions is None:
        directions = [np.eye(d)[i] for i in range(d)]
    op = full_generator(space, kernel) if space.size > 1 else None
    exact = [_direction_result(space, kernel, a, op, +1, tol, "auto")
             for a in directions]
    scale = max(max(abs(r.D_plus), abs(r.D_minus), 1e-12) for r in exact)
    if all(abs(r.D_plus - r.D_minus) <= 1e-12 * scale for r in exact):
        raise InconclusiveError(
            "correction term vanishes; both conventions coincide"
        )
    if T is None:
        if op is None or op.size > DENSE_EIG_MAX:
            raise OutOfRangeError(
                "no horizon given and the relaxation gap is not computable"
            )
        gap = spectral_gap(symmetric_part(op))
        T = 10.0 / gap if math.isfinite(gap) else 10.0

    m_run = int(M)
    n_passing = 2
    for attempt in range(max_doublings + 1):
        # distinct master seed per attempt keeps rerun streams independent
        est = estimate_diffusion(space, kernel, T, m_run, seed + attempt,
                                 second_horizon=True, method="table")
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
            return passing[0]
        n_passing = len(passing)
        m_run *= 2
    raise InconclusiveError(
        f"{n_passing} conventions survive at M = {m_run // 2}"
    )


def extrapolated_direction_stats(estimate, a):
    """Horizon-bias-corrected estimate of a^t D a.

    The per-horizon estimator carries an O(1/T) bias, so the (T, 2T) pair
    extrapolates as 2 * v(2T) - v(T); the replicas of the two horizons are
    independent, so the errors add in quadrature.
    """
    if len(estimate.horizons) < 2:
        return estimate.primary.direction_stats(a)
    v1, se1 = estimate.horizons[0].direction_stats(a)
    v2, se2 = estimate.horizons[1].direction_stats(a)
    return 2.0 * v2 - v1, math.sqrt(4.0 * se2 * se2 + se1 * se1)
