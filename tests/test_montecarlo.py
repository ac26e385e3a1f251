import itertools
import math

import numpy as np
import pytest
import scipy.stats

from sepdiff import (
    FrozenError,
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
    simulate,
    spectral_gap,
    step,
    symmetric_part,
)
from sepdiff import montecarlo
from sepdiff.montecarlo import TrajectoryState, _lockstep, relaxation_gap
from sepdiff.sobolev import DENSE_EIG_MAX



def space_1d(N, K):
    return StateSpace(TorusGeometry(1, N), K)


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
    for M, seed in ((2**32, 1), (2**40, 1), (40, -1)):
        with pytest.raises(OutOfRangeError):
            estimate_diffusion(sp, meanzero1d, 4.0, M, seed)


def test_table_matches_per_state_reference(meanzero1d, nn2d):
    # canonical channel order: environment moves by occupied site, then
    # kernel entry; then tagged jumps in kernel order; rates summed in order
    for sp, kernel in ((space_1d(3, 3), meanzero1d),
                       (StateSpace(TorusGeometry(2, 2), 4), nn2d)):
        geo = sp.geometry
        table = TransitionTable(sp, kernel)
        for r, cfg in enumerate(sp.states()):
            targets, jumps, rates = [], [], []
            for i in cfg.occupied_indices:
                x = geo.env_sites[i]
                for z, p in kernel.entries:
                    y = geo.wrap(tuple(a + b for a, b in zip(x, z)))
                    if y == geo.origin or cfg.occupied(geo.env_index(y)):
                        continue
                    targets.append(sp.rank(sp.exchange(cfg, x, y)))
                    jumps.append(-1)
                    rates.append(p)
            for zi, (z, p) in enumerate(kernel.entries):
                if cfg.occupied(geo.env_index(z)):
                    continue
                targets.append(sp.rank(sp.shift(cfg, z)))
                jumps.append(zi)
                rates.append(p)
            n = table.fill[r]
            assert table.target[r, :n].tolist() == targets
            assert table.jump[r, :n].tolist() == jumps
            cum = table.cum[r, :n].tolist()
            assert cum == list(itertools.accumulate(rates))
            assert table.total[r] == (cum[-1] if rates else 0.0)


def test_fixed_start_overrides_uniform_draw(nn1d):
    sp = space_1d(2, 2)
    cfg = sp.config_from_sites([(2,)])
    t = simulate(sp, nn1d, 0.0001, 3, start=cfg)
    assert t.t == pytest.approx(0.0001)


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


@pytest.mark.parametrize("system", ["meanzero1d", "nn2d", "frozen"])
def test_lockstep_lanes_match_direct_path(system, request):
    # every lane of one lockstep run to 2T equals the re-enumerating path
    # driven by the same replica stream at both horizons, though the lanes
    # leave at different events
    sp, kernel, T = {
        "meanzero1d": (space_1d(3, 3), "meanzero1d", 12.0),
        "nn2d": (StateSpace(TorusGeometry(2, 2), 3), "nn2d", 6.0),
        "frozen": (space_1d(2, 4), "nn1d", 5.0),
    }[system]
    kernel = request.getfixturevalue(kernel)
    table = TransitionTable(sp, kernel)
    for seed in range(4):
        rngs = [replica_rng(seed, r) for r in range(9)]
        starts = [rng.integers(sp.size) for rng in rngs]
        final, counts = _lockstep(table, rngs, starts, T)
        assert counts.shape == (9, 2, len(kernel.entries))
        for r in range(9):
            for w, horizon in enumerate((T, 2 * T)):
                ref = simulate(sp, kernel, horizon, replica_rng(seed, r))
                assert np.array_equal(counts[r, w], ref.jump_counts)
            assert final[r] == sp.rank(ref.config)
        jumps = counts.sum(axis=2)
        if system == "frozen":
            assert not jumps.any()
        else:
            assert len(set(jumps[:, 0].tolist())) > 1
            assert (jumps[:, 1] >= jumps[:, 0]).all()
            assert (jumps[:, 1] > jumps[:, 0]).any()


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


def test_position_is_sum_of_jumps(meanzero1d):
    sp = space_1d(3, 3)
    zs = np.array([z[0] for z, _ in meanzero1d.entries], dtype=np.int64)
    for seed in (1, 2, 3):
        t = simulate(sp, meanzero1d, 30.0, seed)
        assert t.position[0] == int(np.dot(zs, t.jump_counts))
        assert int(t.jump_counts.sum()) >= 0


def test_one_step_frequencies_match_hand_rates(meanzero1d):
    # start {1, 2}: channels are
    #   env (1)+2 -> {2,3}  rate 1/3
    #   env (2)+2 -> {-2,1} rate 1/3
    #   tagged -1 (recenter) -> {2,3} rate 2/3
    # so {2,3} at rate 1, {-2,1} at rate 1/3, total 4/3
    sp = space_1d(3, 3)
    cfg = sp.config_from_sites([(1,), (2,)])
    to_a = sp.rank(sp.config_from_sites([(2,), (3,)]))
    to_b = sp.rank(sp.config_from_sites([(-2,), (1,)]))
    n = 4000
    counts = {to_a: 0, to_b: 0}
    dts = np.empty(n)
    rng = np.random.default_rng(12345)
    for i in range(n):
        state = TrajectoryState(cfg, np.zeros(1, dtype=np.int64), 0.0,
                                np.zeros(2, dtype=np.int64))
        out = step(sp, meanzero1d, state, rng)
        counts[sp.rank(out.config)] += 1
        dts[i] = out.t
    assert counts[to_a] + counts[to_b] == n
    chi = scipy.stats.chisquare(
        [counts[to_a], counts[to_b]], [n * 0.75, n * 0.25]
    )
    assert chi.pvalue > 1e-4
    # holding time is exponential with rate 4/3
    assert dts.mean() == pytest.approx(0.75, abs=5 * 0.75 / math.sqrt(n))


def test_lone_walker_jump_rate(nn1d):
    sp = space_1d(3, 1)
    njumps = []
    for seed in range(200):
        t = simulate(sp, nn1d, 50.0, seed)
        njumps.append(int(t.jump_counts.sum()))
    njumps = np.asarray(njumps, dtype=float)
    # Poisson(T): mean T, sd sqrt(T)
    assert njumps.mean() == pytest.approx(
        50.0, abs=5 * math.sqrt(50.0 / len(njumps))
    )


def test_uniform_start_stays_uniform(nn1d):
    # the uniform draw is stationary, so the terminal state occupancy of
    # any site keeps the exact density alpha
    sp = space_1d(2, 2)
    site = sp.geometry.env_index((1,))
    m = 4000
    occ = 0
    for seed in range(m):
        t = simulate(sp, nn1d, 1.5, seed)
        occ += (t.config.bits >> site) & 1
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
    sp = space_1d(2, 4)
    t = simulate(sp, nn1d, 5.0, 0)
    assert t.position[0] == 0
    assert int(t.jump_counts.sum()) == 0
    state = TrajectoryState(sp.unrank(0), np.zeros(1, dtype=np.int64), 0.0,
                            np.zeros(2, dtype=np.int64))
    with pytest.raises(FrozenError):
        step(sp, nn1d, state, np.random.default_rng(0))


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
    want = spectral_gap(symmetric_part(full_generator(sp, kernel)))
    assert relaxation_gap(sp, kernel) == want


def test_relaxation_gap_unknown_on_one_state_and_above_dense_cap(nn1d):
    assert relaxation_gap(space_1d(3, 1), nn1d) is None
    big = space_1d(8, 6)
    assert big.size > DENSE_EIG_MAX
    assert relaxation_gap(big, nn1d) is None


def test_arbitrate_sign_three_state(nn1d):
    sp = space_1d(2, 2)
    assert arbitrate_sign(sp, nn1d, M=1500, seed=11) == -1


def test_arbitrate_sign_structurally_inconclusive(nn1d):
    # a lone walker has no correction term: conventions coincide
    sp = space_1d(2, 1)
    with pytest.raises(InconclusiveError):
        arbitrate_sign(sp, nn1d, M=100, seed=0)


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
