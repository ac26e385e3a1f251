import itertools
import math
import threading
from bisect import bisect_right

import numpy as np
import pytest

from sepdiff import (
    InconclusiveError,
    OutOfRangeError,
    StateSpace,
    TorusGeometry,
    TransitionTable,
    arbitrate_sign,
    build_kernel,
    compute_D,
    estimate_diffusion,
    extrapolated_direction_stats,
    full_generator,
    replica_rng,
    spectral_gap,
    symmetric_part,
)
from sepdiff import montecarlo
from sepdiff.montecarlo import RELAX_GAP_MAX, _lockstep, relaxation_gap

import _oracle


def space_1d(N, K):
    return StateSpace(TorusGeometry(1, N), K)


def oracle_rows(N, d, K, entries):
    """Per state in rank order, its enabled channels as (target rank, jump
    label, rate) in canonical order: environment moves by site, then
    kernel entry (label -1); then tagged jumps by kernel entry (label its
    index), self-loops included. Built on the brute-force oracle alone."""
    states = _oracle.all_states(N, d, K)
    index = {occ: r for r, occ in enumerate(states)}
    origin = (0,) * d
    rows = []
    for occ in states:
        occset = set(occ)
        row = []
        for x in _oracle.env_sites(N, d):
            if x not in occset:
                continue
            for z, p in entries:
                y = _oracle.wrap(_oracle.add(x, z), N)
                if y == origin or y in occset:
                    continue
                row.append((index[tuple(sorted((occset - {x}) | {y}))], -1, p))
        for zi, (z, p) in enumerate(entries):
            seat = _oracle.wrap(z, N)
            if seat in occset:
                continue
            moved = sorted(_oracle.wrap(_oracle.sub(y, seat), N) for y in occ)
            row.append((index[tuple(moved)], zi, p))
        rows.append(row)
    return rows


def oracle_lane(rows, n_entries, rng, start, T):
    """Scalar Gillespie run over ``rows`` from rank ``start`` to 2T by the
    stream rule: two ``random()`` draws per event, the wait
    -log1p(-u1) / lam and the first channel whose cumulative rate exceeds
    u2 * lam. Returns the tagged-jump counts at T and 2T, the rank at 2T,
    the number of events whose u2 * lam equals a cumulative rate and the
    number of events before 2T."""
    counts = np.zeros((2, n_entries), dtype=np.int64)
    r, t, ties, events = start, 0.0, 0, 0
    while rows[r]:
        cum = list(itertools.accumulate(rate for _, _, rate in rows[r]))
        lam = cum[-1]
        u1, u2 = rng.random(2)
        t += -np.log1p(-u1) / lam
        if t >= 2.0 * T:
            break
        j = min(bisect_right(cum, u2 * lam), len(cum) - 1)
        ties += u2 * lam in cum
        target, label, _ = rows[r][j]
        if label >= 0:
            counts[int(t >= T), label] += 1
        r = target
        events += 1
    return np.cumsum(counts, axis=0), r, ties, events


class EighthsStream:
    """Uniforms rounded down to multiples of 1/8. With dyadic rates,
    u2 * lam then often equals a cumulative rate exactly, which the stream
    rule breaks towards the later channel."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def random(self, size=None, out=None):
        u = self.rng.random(size, out=out)
        u *= 8.0
        np.floor(u, out=u)
        u /= 8.0
        return u


def test_replica_rng_reproducible_and_distinct():
    a = replica_rng(5, 7).standard_normal(4)
    b = replica_rng(5, 7).standard_normal(4)
    c = replica_rng(5, 8).standard_normal(4)
    d = replica_rng(6, 7).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


@pytest.mark.parametrize("seed", [0, 5, 2**32 - 1, 2**32, 2**64 + 1,
                                  2**128 + 7])
def test_batch_streams_are_the_replica_rule(seed):
    # 2**64 + 1 fills the four-word pool with the replica index last, and
    # 2**128 + 7 (five words) mixes it in as remaining entropy
    lo, hi = montecarlo.LANES - 3, 2 * montecarlo.LANES + 5
    words = montecarlo._replica_seed_words(seed, lo, hi)
    assert words.dtype == np.uint64 and words.shape == (hi - lo, 4)
    want = [np.random.SeedSequence([seed, r]).generate_state(4, np.uint64)
            for r in range(lo, hi)]
    assert np.array_equal(words, want)
    rngs = montecarlo._replica_generators(seed, lo, hi)
    assert len(rngs) == hi - lo
    for r in (lo, montecarlo.LANES - 1, montecarlo.LANES,
              2 * montecarlo.LANES, hi - 1):
        ref = replica_rng(seed, r)
        rng = rngs[r - lo]
        assert rng.integers(1000) == ref.integers(1000)
        assert np.array_equal(rng.random(5), ref.random(5))


def test_estimate_refuses_unseedable_replica_counts(meanzero1d, monkeypatch):
    # one 32-bit entropy word per replica index: 2**32 replicas or more,
    # or a negative master seed, are refused before the table is built
    def no_table(space, kernel):
        raise AssertionError("work started")

    monkeypatch.setattr(montecarlo, "TransitionTable", no_table)
    sp = space_1d(3, 3)
    for M, seed in ((2**32, 1), (2**40, 1), (40, -1), (2.5, 1), (40, 1.5)):
        with pytest.raises(OutOfRangeError):
            estimate_diffusion(sp, meanzero1d, 4.0, M, seed)
    # nor is a horizon that is not finite and > 0
    for T in (0.0, -1.0, float("nan")):
        with pytest.raises(OutOfRangeError):
            estimate_diffusion(sp, meanzero1d, T, 40, 1)


def test_table_matches_per_state_reference(meanzero1d, nn1d, nn2d):
    # canonical channel order: environment moves by occupied site, then
    # kernel entry; then tagged jumps in kernel order; rates summed in
    # order. On 1d N=3 K=4 the tagged jump +1 from {-2, -1, 3} wraps -2
    # through the seam to 3, giving {-2, 2, 3}
    for (d, N, K), kernel in (((1, 3, 3), meanzero1d), ((2, 2, 4), nn2d),
                              ((1, 3, 4), nn1d)):
        sp = StateSpace(TorusGeometry(d, N), K)
        table = TransitionTable(sp, kernel)
        rows = oracle_rows(N, d, K, kernel.entries)
        assert len(rows) == sp.size
        for r, row in enumerate(rows):
            n = table.fill[r]
            assert table.target[r, :n].tolist() == [c[0] for c in row]
            assert table.jump[r, :n].tolist() == [c[1] for c in row]
            cum = table.cum[r, :n].tolist()
            assert cum == list(itertools.accumulate(c[2] for c in row))
            assert table.total[r] == (cum[-1] if row else 0.0)
    # rows are the last system's, 1d N=3 K=4
    states = _oracle.all_states(3, 1, 4)
    seam = rows[states.index(((-2,), (-1,), (3,)))]
    plus_one = [z for z, _ in nn1d.entries].index((1,))
    assert (states.index(((-2,), (2,), (3,))), plus_one, 0.5) in seam


def test_estimate_thread_count_does_not_change_results(meanzero1d,
                                                       monkeypatch):
    # neither the thread count, the lane chunk nor the uniform refill may
    # change which doubles a replica consumes
    sp = space_1d(3, 3)
    ref = estimate_diffusion(sp, meanzero1d, 6.0, 40, 9)
    for lanes, refill in ((1, 1), (7, 7), (1, 7), (7, 1),
                          (montecarlo.LANES, montecarlo.REFILL)):
        monkeypatch.setattr(montecarlo, "LANES", lanes)
        monkeypatch.setattr(montecarlo, "REFILL", refill)
        for threads in (1, 3, 4):
            est = estimate_diffusion(sp, meanzero1d, 6.0, 40, 9,
                                     threads=threads)
            for h, h_ref in zip(est.horizons, ref.horizons):
                assert np.array_equal(h.X, h_ref.X)
                assert np.array_equal(h.njumps, h_ref.njumps)


def test_estimate_starts_no_thread(meanzero1d, monkeypatch):
    # every replica chunk runs on the calling thread, whatever threads says
    def refuse(self):
        raise AssertionError(f"estimate_diffusion started {self.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    est = estimate_diffusion(space_1d(3, 3), meanzero1d, 6.0, 40, 9,
                             threads=4)
    assert [h.X.shape for h in est.horizons] == [(40, 1), (40, 1)]


@pytest.mark.parametrize("system", ["meanzero1d", "nn2d", "frozen"])
def test_lockstep_lanes_match_direct_path(system, request, monkeypatch):
    # every lane of one lockstep run to 2T equals a scalar Gillespie run
    # over the oracle's channels, driven by the same replica stream, at
    # both horizons, though the lanes leave at different events. At the
    # short horizon most lanes leave inside the first refill block, where
    # the lanes that left keep their places until the block ends
    (d, N, K), kernel, T, short = {
        "meanzero1d": ((1, 3, 3), "meanzero1d", 12.0, 2.0),
        "nn2d": ((2, 2, 3), "nn2d", 6.0, 1.0),
        "frozen": ((1, 2, 4), "nn1d", 5.0, 1.0),
    }[system]
    kernel = request.getfixturevalue(kernel)
    sp = StateSpace(TorusGeometry(d, N), K)
    table = TransitionTable(sp, kernel)
    rows = oracle_rows(N, d, K, kernel.entries)
    nz = len(kernel.entries)
    default = montecarlo.REFILL
    for refill in (1, 3, default):
        monkeypatch.setattr(montecarlo, "REFILL", refill)
        for horizon in (T, short):
            events = []
            for seed in range(4):
                rngs = [replica_rng(seed, r) for r in range(9)]
                starts = [rng.integers(sp.size) for rng in rngs]
                final, counts = _lockstep(table, rngs, starts, horizon)
                assert counts.shape == (9, 2, nz)
                for r in range(9):
                    ref = replica_rng(seed, r)
                    want, rank, _, n = oracle_lane(
                        rows, nz, ref, int(ref.integers(len(rows))), horizon)
                    assert np.array_equal(counts[r], want)
                    assert final[r] == rank
                    events.append(n)
                jumps = counts.sum(axis=2)
                if system == "frozen":
                    assert not jumps.any()
                elif horizon == T:
                    assert len(set(jumps[:, 0].tolist())) > 1
                    assert (jumps[:, 1] >= jumps[:, 0]).all()
                    assert (jumps[:, 1] > jumps[:, 0]).any()
            if horizon == short and system != "frozen":
                # lanes leave at different events, most of them before the
                # default refill block ends
                assert len(set(events)) > 3
                assert sum(n < default for n in events) > 0.8 * len(events)


@pytest.mark.parametrize("system", ["nn1d", "nn2d"])
def test_lockstep_breaks_rate_ties_as_the_stream_rule(system, request):
    # dyadic rates and uniforms in eighths make u2 * lam land exactly on a
    # cumulative rate at many events; the lanes must still pick the first
    # channel whose cumulative rate exceeds it, as the scalar run does
    (d, N, K), T = {"nn1d": ((1, 3, 3), 6.0), "nn2d": ((2, 2, 3), 4.0)}[system]
    kernel = request.getfixturevalue(system)
    sp = StateSpace(TorusGeometry(d, N), K)
    table = TransitionTable(sp, kernel)
    rows = oracle_rows(N, d, K, kernel.entries)
    nz = len(kernel.entries)
    starts = [r % sp.size for r in range(12)]
    final, counts = _lockstep(table, [EighthsStream(r) for r in range(12)],
                              starts, T)
    ties = 0
    for r, start in enumerate(starts):
        want, rank, n, _ = oracle_lane(rows, nz, EighthsStream(r), start, T)
        assert np.array_equal(counts[r], want)
        assert final[r] == rank
        ties += n
    assert ties > 50
    assert counts[:, 1].sum() > 0


def test_extrapolated_stats_from_per_replica_terms(meanzero1d):
    # the two horizons share their replicas: value and error are those of
    # q(r) = 2 p_2T(r) - p_T(r), computed here by hand
    sp = space_1d(3, 3)
    est = estimate_diffusion(sp, meanzero1d, 5.0, 300, 3)
    a = np.array([1.0])
    p = []
    for h in est.horizons:
        s = ((h.X - est.expected_drift * h.T) / math.sqrt(h.T)) @ a
        p.append((s - s.mean()) ** 2)
    q = 2.0 * p[1] - p[0]
    m = est.M
    val, se = extrapolated_direction_stats(est, a)
    assert val == pytest.approx(q.sum() / (m - 1), rel=1e-12)
    assert se == pytest.approx(math.sqrt(((q - q.mean()) ** 2).sum()
                                         / (m - 1) / m), rel=1e-12)
    v1, _ = est.horizons[0].direction_stats(a)
    v2, _ = est.horizons[1].direction_stats(a)
    assert val == pytest.approx(2.0 * v2 - v1, rel=1e-12)


def test_one_step_frequencies_match_hand_rates(meanzero1d):
    # start {1, 2}: channels are
    #   env (1)+2 -> {2,3}  rate 1/3
    #   env (2)+2 -> {-2,1} rate 1/3
    #   tagged -1 (recenter) -> {2,3} rate 2/3
    # so {2,3} at rate 1, {-2,1} at rate 1/3, total 4/3
    sp = space_1d(3, 3)
    table = TransitionTable(sp, meanzero1d)
    states = _oracle.all_states(3, 1, 3)
    r = states.index(((1,), (2,)))
    to_a = states.index(((2,), (3,)))
    to_b = states.index(((-2,), (1,)))
    assert table.fill[r] == 3
    assert table.target[r, :3].tolist() == [to_a, to_b, to_a]
    minus_one = [z for z, _ in meanzero1d.entries].index((-1,))
    assert table.jump[r, :3].tolist() == [-1, -1, minus_one]
    assert table.cum[r, :3].tolist() == [1 / 3, 2 / 3, 1 / 3 + 1 / 3 + 2 / 3]
    assert table.total[r] == pytest.approx(4 / 3, rel=1e-15)


def test_lone_walker_jump_rate(nn1d):
    # a lone tagged particle jumps at rate 1: Poisson(T) jumps by T, with
    # mean T and sd sqrt(T), at both horizons
    sp = space_1d(3, 1)
    est = estimate_diffusion(sp, nn1d, 25.0, 200, 0)
    for h in est.horizons:
        assert h.njumps.mean() == pytest.approx(
            h.T, abs=5 * math.sqrt(h.T / est.M))


def test_uniform_start_stays_uniform(nn1d):
    # the uniform draw is stationary, so the terminal state occupancy of
    # any site keeps the exact density alpha
    sp = space_1d(2, 2)
    site = sp.geometry.env_index((1,))
    m = 4000
    rngs = [np.random.default_rng(seed) for seed in range(m)]
    starts = [rng.integers(sp.size) for rng in rngs]
    final, _ = _lockstep(TransitionTable(sp, nn1d), rngs, starts, 0.75)
    occ = int(((sp.bitmasks()[final] >> np.uint64(site)) & np.uint64(1))
              .sum())
    alpha = sp.alpha
    se = math.sqrt(alpha * (1 - alpha) / m)
    assert occ / m == pytest.approx(alpha, abs=4.5 * se)


def test_estimate_matches_exact_value(meanzero1d):
    sp = space_1d(3, 3)
    exact = compute_D(sp, meanzero1d, [1.0]).directions[0].D
    est = estimate_diffusion(sp, meanzero1d, 25.0, 3000, 424242)
    val, se = extrapolated_direction_stats(est, [1.0])
    assert se < 0.1
    assert val == pytest.approx(exact, abs=4 * se)
    # drift is zero for a mean-zero kernel
    assert est.expected_drift[0] == 0.0
    h = est.primary
    assert h.drift[0] == pytest.approx(0.0, abs=5 * h.drift_se[0] + 1e-12)


def test_estimate_drift_for_asymmetric(totally_asym1d):
    sp = space_1d(2, 2)
    est = estimate_diffusion(sp, totally_asym1d, 30.0, 1500, 7)
    want = (1.0 - sp.alpha) * 1.0
    h = est.primary
    assert want == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert h.drift[0] == pytest.approx(want, abs=5 * h.drift_se[0])


def test_relaxation_flag():
    sp = space_1d(2, 2)
    kernel = build_kernel(1, [((1,), 0.5), ((-1,), 0.5)])
    est = estimate_diffusion(sp, kernel, 20.0, 8, 1, relax_gap=1.0)
    assert est.t_relax_ok is True
    est = estimate_diffusion(sp, kernel, 20.0, 8, 1, relax_gap=0.1)
    assert est.t_relax_ok is False
    est = estimate_diffusion(sp, kernel, 20.0, 8, 1)
    assert est.t_relax_ok is None
    # a zero (or undefined) gap is an infinite relaxation time, which no
    # horizon spans; an infinite gap relaxes at once
    for gap, ok in ((0.0, False), (math.nan, False), (math.inf, True)):
        est = estimate_diffusion(sp, kernel, 20.0, 8, 1, relax_gap=gap)
        assert est.t_relax_ok is ok


def test_full_lattice_is_frozen(nn1d):
    # one state and no enabled channel: no replica ever moves
    sp = space_1d(2, 4)
    est = estimate_diffusion(sp, nn1d, 5.0, 20, 0)
    for h in est.horizons:
        assert not h.X.any()
        assert not h.njumps.any()


@pytest.mark.parametrize("d, entries, N, K", [
    (1, [((2,), "1/3"), ((-1,), "2/3")], 6, 6),
    (1, [((1,), 0.5), ((-1,), 0.5)], 5, 4),
    (1, [((1,), 0.8), ((-1,), 0.2)], 6, 5),
    (1, [((1,), 0.5), ((-2,), 0.3), ((3,), 0.2)], 7, 4),
    (2, [((1, 0), 0.25), ((-1, 0), 0.25), ((0, 1), 0.25), ((0, -1), 0.25)],
     2, 3),
    (2, [((1, 0), 0.4), ((-1, 0), 0.1), ((0, 1), 0.3), ((0, -1), 0.2)],
     2, 4),
])
def test_relaxation_gap_is_the_sparse_route_bit_for_bit(d, entries, N, K):
    kernel = build_kernel(d, entries)
    sp = StateSpace(TorusGeometry(d, N), K)
    want = spectral_gap(symmetric_part(full_generator(sp, kernel)),
                        method="dense")
    assert relaxation_gap(sp, kernel) == want


def test_relaxation_gap_unknown_on_one_state_and_above_dense_cap(nn1d):
    assert relaxation_gap(space_1d(3, 1), nn1d) is None
    big = space_1d(8, 6)
    assert big.size > RELAX_GAP_MAX
    assert relaxation_gap(big, nn1d) is None


def test_arbitrate_sign_three_state(nn1d):
    sp = space_1d(2, 2)
    assert arbitrate_sign(sp, nn1d, M=1500, seed=11) == -1


def test_arbitrate_sign_structurally_inconclusive(nn1d):
    # a lone walker has no correction term: conventions coincide
    sp = space_1d(2, 1)
    with pytest.raises(InconclusiveError):
        arbitrate_sign(sp, nn1d, M=100, seed=0)


def test_arbitrate_sign_refuses_no_horizon_before_solving(meanzero1d,
                                                          monkeypatch):
    # above RELAX_GAP_MAX states no gap sets the horizon: refused before
    # any exact solve runs
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before refusing")

    monkeypatch.setattr(montecarlo, "_solve_directions", no_solve)
    big = space_1d(8, 6)
    assert big.size > RELAX_GAP_MAX
    with pytest.raises(OutOfRangeError):
        arbitrate_sign(big, meanzero1d, M=50, seed=1)


@pytest.mark.parametrize("max_doublings", [1.5, -1, True, "2"])
def test_arbitrate_sign_refuses_a_doubling_count_that_is_not_whole(
        meanzero1d, max_doublings, monkeypatch):
    # 1d mean-zero N=3 K=3: refused before any exact solve runs; -1 once
    # reported the survivors at half the replica count asked for
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before refusing")

    monkeypatch.setattr(montecarlo, "_solve_directions", no_solve)
    with pytest.raises(OutOfRangeError):
        arbitrate_sign(space_1d(3, 3), meanzero1d, M=50, seed=1,
                       max_doublings=max_doublings)


def test_one_pass_per_chunk_and_one_generator_per_replica(meanzero1d,
                                                          monkeypatch):
    sp = space_1d(3, 3)
    seeds, passes = [], []
    batch, lockstep = montecarlo._replica_generators, montecarlo._lockstep

    def counted_batch(seed, lo, hi):
        rngs = batch(seed, lo, hi)
        seeds.extend(range(lo, hi))
        assert len(rngs) == hi - lo
        return rngs

    def counted_lockstep(table, rngs, ranks, T):
        passes.append((len(rngs), T))
        return lockstep(table, rngs, ranks, T)

    monkeypatch.setattr(montecarlo, "_replica_generators", counted_batch)
    monkeypatch.setattr(montecarlo, "_lockstep", counted_lockstep)
    monkeypatch.setattr(montecarlo, "LANES", 16)
    est = estimate_diffusion(sp, meanzero1d, 4.0, 40, 2)
    assert sorted(seeds) == list(range(40))
    assert passes == [(16, 4.0), (16, 4.0), (8, 4.0)]
    assert [h.X.shape for h in est.horizons] == [(40, 1), (40, 1)]
