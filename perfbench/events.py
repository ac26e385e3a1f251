"""Computed work counts: Monte Carlo events and sparse matvec bytes.

Both are derived from sizes, not counted inside the program, so they are
labelled "computed" wherever they are reported.
"""


def mean_total_rate(K, n_env_sites):
    """Mean total jump rate of one state under the uniform stationary law.

    Each of the K particles (the tagged one included) tries each kernel
    entry at rate p(z), and the attempt is enabled when the target, one of
    the other n_env_sites sites, is vacant. Summed over the kernel this is
    K (M - K + 1) / M with M = (2N)^d - 1 environment sites.
    """
    return K * (n_env_sites - K + 1) / n_env_sites


def expected_events(K, n_env_sites, T, M, n_horizons=2):
    """Expected Gillespie events of ``sepdiff mc``: M replicas at each of the
    horizons T, 2T, ... (2T only when the second horizon is on), each
    started from the uniform stationary law."""
    horizon_sum = sum(T * 2 ** h for h in range(n_horizons))
    return M * horizon_sum * mean_total_rate(K, n_env_sites)


def matvec_bytes(offdiag_nnz, n):
    """Bytes one ``SparseOperator.matvec`` moves, at least: an 8-byte value
    and a 4-byte column index per off-diagonal entry, plus four 8-byte
    vectors per row (input, diagonal, off-diagonal product, output)."""
    return 12 * offdiag_nnz + 32 * n
