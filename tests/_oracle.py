"""Brute-force reference implementations used only by the tests.

Everything here enumerates configurations as sorted tuples of occupied
environment sites and assembles dense rate matrices by direct looping, so
the only code shared with the package under test is numpy/scipy. Slow on
purpose; keep the systems small.
"""

import itertools
import math

import numpy as np
import scipy.linalg


def wrap(site, N):
    return tuple(((c + N - 1) % (2 * N)) - N + 1 for c in site)


def env_sites(N, d):
    rng = range(-N + 1, N + 1)
    return [s for s in itertools.product(rng, repeat=d) if any(s)]


def all_states(N, d, K):
    """Occupied-site tuples for K - 1 environment particles, rank order."""
    return list(itertools.combinations(env_sites(N, d), K - 1))


def add(x, z):
    return tuple(a + b for a, b in zip(x, z))


def sub(x, z):
    return tuple(a - b for a, b in zip(x, z))


def state_moves(N, d, b, entries, tagged=True, still=False):
    """(kernel entry, jump label, target) of each move out of the state
    whose environment site i (in ``env_sites`` order) is occupied where
    bit i of ``b`` is set, the target a bitmask too, in channel order:
    each occupied site, ascending, by each entry in turn, then the tagged
    jumps by each entry. The label is -1 for an environment move and the
    entry for a tagged jump. Environment moves take x to a vacant
    non-origin y = wrap(x + z); a tagged jump needs a vacant seat wrap(z)
    and re-centres every occupied y to wrap(y - z), and is kept when it
    leaves the state unchanged only if ``still``.
    """
    sites = env_sites(N, d)
    index = {s: i for i, s in enumerate(sites)}
    occset = {s for i, s in enumerate(sites) if b >> i & 1}
    moves = []
    for x in sorted(occset):
        for zi, (z, _) in enumerate(entries):
            y = wrap(add(x, z), N)
            if y != (0,) * d and y not in occset:
                moves.append((zi, -1, (occset - {x}) | {y}))
    for zi, (z, _) in enumerate(entries if tagged else ()):
        seat = wrap(z, N)
        new = {wrap(sub(y, seat), N) for y in occset}
        if seat not in occset and (still or new != occset):
            moves.append((zi, zi, new))
    return [(zi, jump, sum(1 << index[y] for y in t))
            for zi, jump, t in moves]


def dense_generator(N, d, K, entries, env=True, tagged=True):
    """Dense rate matrix by direct move enumeration.

    entries: list of (z, p) with z a displacement tuple. Environment moves
    take an occupied x to a vacant non-origin y = x + z at rate p; tagged
    moves need a vacant wrap(z) and re-center every occupied y to
    wrap(y - z). Self-loops are dropped; the diagonal carries minus the
    row sums.
    """
    states = all_states(N, d, K)
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    origin = (0,) * d
    Q = np.zeros((n, n))
    for i, occ in enumerate(states):
        occset = set(occ)
        if env:
            for x in occ:
                for z, p in entries:
                    y = wrap(add(x, z), N)
                    if y == origin or y in occset:
                        continue
                    new = tuple(sorted((occset - {x}) | {y}))
                    Q[i, index[new]] += p
        if tagged:
            for z, p in entries:
                target = wrap(z, N)
                if target in occset:
                    continue
                new = tuple(sorted(wrap(sub(y, target), N) for y in occset))
                j = index[new]
                if j != i:
                    Q[i, j] += p
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return states, Q


def drift_vectors(N, d, K, entries, a):
    """Centered (v, w): v reads occupancy at z, w at -z, weights (a.z)p(z)."""
    states = all_states(N, d, K)
    M = (2 * N) ** d
    alpha = (K - 1) / (M - 1)
    n = len(states)
    v = np.zeros(n)
    w = np.zeros(n)
    for i, occ in enumerate(states):
        occset = set(occ)
        for z, p in entries:
            az = float(np.dot(a, z)) * p
            v[i] += az * (alpha - (1.0 if wrap(z, N) in occset else 0.0))
            mz = wrap(tuple(-c for c in z), N)
            w[i] += az * (alpha - (1.0 if mz in occset else 0.0))
    return v - v.mean(), w - w.mean()


def solve_singular(A_neg, b):
    """Solve A u = b for mean-zero b where A has one-dim kernel = constants.

    Regularizes with the rank-one flat projector; for a generator both the
    left and right kernels are the constants, so the shifted matrix is
    nonsingular and the solution is the mean-zero preimage.
    """
    n = A_neg.shape[0]
    u = np.linalg.solve(A_neg + np.ones((n, n)) / n, b)
    return u - u.mean()


def diffusion_value(N, d, K, entries, a, sign=-1):
    """Reference a^t D a: free term plus the resolvent correction."""
    M = (2 * N) ** d
    alpha = (K - 1) / (M - 1)
    free = (1.0 - alpha) * math.fsum(
        p * float(np.dot(a, z)) ** 2 for z, p in entries
    )
    states, Q = dense_generator(N, d, K, entries)
    if len(states) == 1:
        return free
    v, w = drift_vectors(N, d, K, entries, a)
    u = solve_singular(-Q, v)
    raw = 2.0 * float(w @ u) / len(states)
    return free - sign * raw


def spectral_gap_value(Q):
    """Second-smallest eigenvalue of the symmetrized negative generator."""
    S = -(Q + Q.T) / 2.0
    evals = np.linalg.eigvalsh(S)
    return float(evals[1])


def hminus1_value(Q, f):
    """Dual norm sqrt(<f, u>) with (-S) u = f and the uniform inner product."""
    n = Q.shape[0]
    S = (Q + Q.T) / 2.0
    f = np.asarray(f, dtype=float)
    f = f - f.mean()
    u = solve_singular(-S, f)
    return math.sqrt(max(float(f @ u) / n, 0.0))


def h1_value(Q, f):
    """Energy seminorm sqrt(<f, -Q f>) with the uniform inner product."""
    f = np.asarray(f, dtype=float)
    return math.sqrt(max(float(f @ (-Q @ f)) / Q.shape[0], 0.0))


def sector_value(Q):
    """Sharp constant in <f, B g>^2 <= C |f|_1^2 |g|_1^2 via the
    generalized eigenproblem B^T S^+ B g = lam S g on the mean-zero
    subspace (sup over f is eliminated in closed form first).

    Note: a sqrtm/pinv route looks simpler but silently inverts the
    near-null direction of the singular square root unless the pinv
    cutoff is loosened to ~sqrt(machine-eps); this formulation avoids
    that trap.
    """
    n = Q.shape[0]
    S = -(Q + Q.T) / 2.0
    B = (Q.T - Q) / 2.0
    if np.max(np.abs(B)) <= 1e-14 * max(np.max(np.abs(S)), 1.0):
        return 0.0
    w, V = np.linalg.eigh(S)
    keep = w > w.max() * 1e-12
    s_pinv = (V[:, keep] / w[keep]) @ V[:, keep].T
    P = scipy.linalg.null_space(np.ones((1, n)))      # basis of mean-zero
    A2 = P.T @ (B.T @ s_pinv @ B) @ P
    S2 = P.T @ S @ P
    evals = scipy.linalg.eigh(A2, S2, eigvals_only=True)
    return float(evals[-1])


def block_second_moment(N, d, K, l):
    """Closed form <g_l^2> for g_l = E[eta(x) - alpha | count in block l].

    The count inside a block of m sites is hypergeometric(M, K-1, m), so
    <g^2> = Var(count/m) = alpha (1-alpha) (M-m) / (m (M-1)) with M the
    number of environment sites and alpha = (K-1)/M the per-site density
    (which here equals (K-1)/((2N)^d - 1)).
    """
    M = (2 * N) ** d - 1
    m = (2 * l) ** d - 1
    alpha = (K - 1) / M
    if m >= M:
        return 0.0
    return alpha * (1.0 - alpha) * (M - m) / (m * (M - 1))
